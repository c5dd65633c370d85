"""Metric definitions and the few statistics the harness needs.

``END_TO_END`` and ``PER_LAYER`` are the single list of what the
benchmark reports; ``BENCHMARK.json`` at the repository root repeats
them for the driver and ``test_harness.py`` checks that the two agree.
"""

from __future__ import annotations

import math
from typing import NamedTuple

#: a run whose load generator used more of a core than this measured
#: the generator, not the server
LOADGEN_CPU_LIMIT = 0.8
#: samples a latency percentile is taken over, so that p95 has ten
#: samples beyond it
MIN_WINDOW = 200
#: the share of a run's rounds that counts as its quiet part
QUIET_SHARE = 0.25


class Metric(NamedTuple):
    name: str
    unit: str
    better: str           # "lower" | "higher"
    bound: float          # regression bound, share of the parent's median
    note: str = ""        # for a layer metric: what it should move, where


END_TO_END = [
    Metric("latency_p50_ms", "ms", "lower", 0.25),
    Metric("latency_p95_ms", "ms", "lower", 0.25),
    Metric("throughput_rps", "1/s", "higher", 0.25),
    Metric("server_cpu_ms_per_op", "ms", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.10),
    Metric("setup_s", "s", "lower", 0.25),
]

_HTTP = "latency_p50_ms, throughput_rps on cached_hot; none on registered_exec"
_CACHE = ("latency_p50_ms on cached_hot; latency_p95_ms on ingest_mixed "
          "(post-invalidation misses)")
_COMPILE = ("latency_p50_ms, server_cpu_ms_per_op on adhoc_compile; "
            "no change on registered_exec, cached_hot")
_RUNTIME = ("latency_p50_ms, throughput_rps on registered_exec and "
            "collection_scatter; none on cached_hot")
_SERIALIZE = "latency_p95_ms on registered_exec (large results)"
_SCAN = "latency_p95_ms, setup_s on ingest_mixed"
_POOL = ("latency_p50_ms on registered_exec, collection_scatter; "
         "failures everywhere")
_SHARD = ("latency_p50_ms down and server_cpu_ms_per_op up on "
          "collection_scatter; nothing elsewhere")
_PERSIST = ("latency_p95_ms, peak_rss_mb on ingest_mixed; setup_s on every "
            "workload")
_SELF = "guards the instrument itself"

PER_LAYER = [
    Metric("server.http.health_rtt_us", "us", "lower", 0, _HTTP),
    Metric("server.http.overhead_ms", "ms", "lower", 0, _HTTP),
    Metric("server.http.unattributed_ms", "ms", "lower", 0, _HTTP),
    Metric("server.http.req_bytes", "B", "lower", 0, _HTTP),
    Metric("server.http.resp_bytes", "B", "lower", 0, _HTTP),
    Metric("server.cache.hit_ratio", "ratio", "higher", 0, _CACHE),
    Metric("server.cache.key_us", "us", "lower", 0, _CACHE),
    Metric("server.cache.get_us", "us", "lower", 0, _CACHE),
    Metric("server.cache.encodes", "count", "lower", 0, _CACHE),
    Metric("xquery.parse_ms", "ms", "lower", 0, _COMPILE),
    Metric("compiler.compile_ms", "ms", "lower", 0, _COMPILE),
    Metric("compiler.cache_hit_us", "us", "lower", 0, _COMPILE),
    Metric("compiler.cache_hit_ratio", "ratio", "higher", 0, _COMPILE),
    Metric("compiler.plan_nodes", "count", "lower", 0, _COMPILE),
    Metric("compiler.fallback_closure", "count", "lower", 0, _COMPILE),
    Metric("runtime.execute_ms", "ms", "lower", 0, _RUNTIME),
    Metric("runtime.items_out", "count", "lower", 0, _RUNTIME),
    Metric("runtime.operator_items_per_result", "ratio", "lower", 0,
           _RUNTIME),
    Metric("runtime.access_path_ratio", "ratio", "higher", 0, _RUNTIME),
    Metric("xmlio.serialize_ms", "ms", "lower", 0, _SERIALIZE),
    Metric("xmlio.serialize_mb_s", "MB/s", "higher", 0, _SERIALIZE),
    Metric("xmlio.scan_mb_s", "MB/s", "higher", 0, _SCAN),
    Metric("xmlio.scanner_fallbacks", "count", "lower", 0, _SCAN),
    Metric("service.workers.rpc_rtt_us", "us", "lower", 0, _POOL),
    Metric("service.workers.rpc_mb_s", "MB/s", "higher", 0, _POOL),
    Metric("service.workers.rejected", "count", "lower", 0, _POOL),
    Metric("service.workers.crashes", "count", "lower", 0, _POOL),
    Metric("service.workers.respawns", "count", "lower", 0, _POOL),
    Metric("service.sharding.scattered_ratio", "ratio", "higher", 0, _SHARD),
    Metric("service.sharding.fallback_single", "count", "lower", 0, _SHARD),
    Metric("service.sharding.merge_ms_per_scatter", "ms", "lower", 0, _SHARD),
    Metric("service.sharding.scatter_vs_single_ratio", "ratio", "lower", 0,
           _SHARD),
    Metric("catalog.add_ms", "ms", "lower", 0, _PERSIST),
    Metric("storage.persist.commit_ms", "ms", "lower", 0, _PERSIST),
    Metric("storage.persist.bytes_per_xml_byte", "ratio", "lower", 0,
           _PERSIST),
    Metric("storage.persist.warm_open_ms", "ms", "lower", 0, _PERSIST),
    Metric("storage.persist.first_touch_ms", "ms", "lower", 0, _PERSIST),
    Metric("replay.inline_vs_server_ratio", "ratio", "lower", 0, _SELF),
    Metric("loadgen.cpu_share", "ratio", "lower", 0, _SELF),
    Metric("trace.overhead_ratio", "ratio", "lower", 0, _SELF),
]


def quiet_rounds(rates: list[float], counts: list[int],
                 minimum: int = MIN_WINDOW) -> list[int]:
    """Indices of the rounds a run's values are taken from: the quarter
    of its rounds with the highest rate of correct operations, extended
    by the next best until they hold ``minimum`` samples.

    On a shared machine a round is only ever disturbed towards slower,
    and the disturbances seen here are stretches of two to six seconds
    in which everything -- latency, CPU time per operation -- costs
    1.5 to 2 times as much.  The fastest quarter stays on the
    undisturbed level until three quarters of a run are hit; a median
    over all rounds moves when half are.  Both sides of a comparison
    are summarized the same way.
    """
    order = sorted(range(len(rates)), key=lambda i: -rates[i])
    chosen = order[:max(1, math.ceil(len(order) * QUIET_SHARE))]
    for i in order[len(chosen):]:
        if sum(counts[j] for j in chosen) >= minimum:
            break
        chosen.append(i)
    return sorted(chosen)


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (0 < q <= 100)."""
    if not samples:
        return math.nan
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]
