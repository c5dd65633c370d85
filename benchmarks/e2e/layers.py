"""The traced pass: where one workload's request time goes, layer by layer.

Everything here looks at the program from outside.  Four sources:

1. the sample (the workload's first ~200 measured operations) sent
   over HTTP, untraced: reply headers
   (``X-Repro-Elapsed-Ms``, ``X-Repro-Cache``), reply ``stats`` and the
   change of ``/metrics`` around the pass; then the next ~200 operations
   of the sequence, one harness span around each call;
2. the same sample replayed in this process through the public
   functions of each layer (``ServerResultCache.key``/``get``,
   ``parse_query``, ``Engine.compile``, ``CompiledQuery.execute``,
   ``result_payload``, ``AppCore.execute_inline``), one span around each
   call;
3. small direct measurements of layers a request cannot isolate: the
   worker pool's pipe on an echo handler, ``ShardRouter.try_execute``
   against a single-worker call, the scanner, the catalog commit;
4. ``/proc`` and the data directory of the server under test.

Spans (name, start, end, parent, request) are kept in memory and written
to ``out/trace-<workload>.jsonl`` at the end.  A layer's self time is
its span minus the spans of its children.  Spans inside the program are
a later change (ROADMAP item 5).
"""

from __future__ import annotations

import json
import statistics
import time
from collections import deque
from contextlib import contextmanager
from pathlib import Path

import metrics as M
from loadgen import Client, encode_request, parse_reply
from procs import dir_bytes

import repro
from repro import Engine, ExecutionOptions
from repro.server.tenants import AppCore, convert_variables, result_payload
from repro.service import ForkWorkerPool
from repro.service.sharding import ShardRouter
from repro.xmlio import FastXMLScanner
from repro.xquery.parser import parse_query

#: EXPLAIN ANALYZE runs every query once more; every fourth operation
#: of the sample is enough for a count that repeats exactly
ANALYZE_EVERY = 4
SCATTER_COMPARISONS = 40


class Tracer:
    """Spans in memory; ``write`` puts them on disk."""

    def __init__(self):
        self.spans: list[dict] = []

    @contextmanager
    def span(self, name: str, request: int, parent: int | None = None):
        record = {"id": len(self.spans), "name": name, "request": request,
                  "parent": parent, "start": time.perf_counter(), "end": None}
        self.spans.append(record)
        try:
            yield record["id"]
        finally:
            record["end"] = time.perf_counter()

    def add(self, name: str, request: int, parent: int, start: float,
            seconds: float) -> None:
        """A span measured on its own and placed under ``parent``."""
        self.spans.append({"id": len(self.spans), "name": name,
                           "request": request, "parent": parent,
                           "start": start, "end": start + seconds})

    def self_times(self) -> list[tuple[int, str, float]]:
        """(request, name, self time in ms) of every span: its duration
        minus the durations of its children."""
        child_time: dict[int, float] = {}
        for span in self.spans:
            if span["parent"] is not None:
                child_time[span["parent"]] = child_time.get(
                    span["parent"], 0.0) + span["end"] - span["start"]
        return [(span["request"], span["name"],
                 (span["end"] - span["start"]
                  - child_time.get(span["id"], 0.0)) * 1e3)
                for span in self.spans]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    value = fn(*args, **kwargs)
    return value, time.perf_counter() - t0


# -- source 1: the sample over HTTP -------------------------------------------

def _server_metrics(client: Client) -> dict:
    return client.request(encode_request("GET", "/metrics")).json()


def _counter_delta(before: dict, after: dict, *path: str) -> float:
    for key in path:
        before = before.get(key, {}) if isinstance(before, dict) else {}
        after = after.get(key, {}) if isinstance(after, dict) else {}
    return (after or 0) - (before or 0)


def _http_pass(one, sample, tracer: Tracer | None):
    """Send the sample on one connection; (samples, wall, own cpu)."""
    client = one.client
    own0, t0 = time.process_time(), time.perf_counter()
    if tracer is None:
        samples = client.run(deque([sample]), float("inf"))
    else:
        samples = []
        for rid, op in enumerate(sample):
            with tracer.span("http.request", rid):
                samples.extend(client.run(deque([[op]]), float("inf")))
    return samples, time.perf_counter() - t0, time.process_time() - own0


# -- source 2: the in-process replay --------------------------------------------

class Replay:
    """The workload's state rebuilt in this process on its own data
    directory, so each layer's public function can be called alone."""

    def __init__(self, workload, data_dir: Path):
        self.core = AppCore(ExecutionOptions(data_dir=str(data_dir)))
        for tenant, name, xml in workload.documents():
            self.core.ingest(tenant, name, xml)
        for tenant, name, text, variables in workload.registrations():
            self.core.register(tenant, name, text, variables)
        # the warm-up's writes, so the sample meets the state it expects
        cycles = workload.cycles()
        for _ in range(workload.warm_cycles):
            for op in next(cycles):
                if op.expect is None:
                    self.core.ingest(*op.call)
        self._cold: dict[str, Engine] = {}

    def cold_engine(self, tenant: str) -> Engine:
        """An engine on the tenant's catalog that never caches plans."""
        engine = self._cold.get(tenant)
        if engine is None:
            catalog = self.core.tenants.get(tenant).catalog
            engine = self._cold[tenant] = Engine(
                options=self.core.options, catalog=catalog,
                compile_cache=None)
        return engine

    def run(self, sample, tracer: Tracer) -> list[dict]:
        """One record per operation of the sample."""
        core = self.core
        records = []
        for rid, op in enumerate(sample):
            if op.expect is None:
                tenant, name, xml = op.call
                with tracer.span("catalog.add", rid):
                    core.ingest(tenant, name, xml)
                records.append({"put": True})
                continue
            tenant, text, declared, bindings = op.call
            names = declared if declared is not None \
                else tuple(bindings or ())
            hits0 = core.compile_cache.hits
            with tracer.span("replay.execute_inline", rid):
                reply, inline_s = _timed(
                    core.execute_inline, tenant, text, variables=bindings,
                    declared=declared)
            record = {"put": False, "inline_ms": inline_s * 1e3,
                      "status": reply["status"],
                      "compile_hit": core.compile_cache.hits > hits0}
            with tracer.span("replay.layers", rid) as root:
                tenant_obj = core.tenants.get(tenant)
                with tracer.span("server.cache.key", rid, root):
                    key = core.result_cache.key(
                        tenant, text, core.options.fingerprint(),
                        tenant_obj.catalog.fingerprint(), bindings, "json")
                with tracer.span("server.cache.get", rid, root):
                    core.result_cache.get(key)
                _, parse_s = _timed(parse_query, text)
                with tracer.span("compiler.compile", rid, root) as cid:
                    started = time.perf_counter()
                    compiled = self.cold_engine(tenant).compile(
                        text, variables=names)
                tracer.add("xquery.parse", rid, cid, started, parse_s)
                with tracer.span("compiler.cache_hit", rid, root):
                    tenant_obj.engine.compile(text, variables=names)
                with tracer.span("runtime.execute", rid, root):
                    result = compiled.execute(
                        variables=convert_variables(bindings))
                    items = result.items()
                with tracer.span("xmlio.serialize", rid, root):
                    payload, serialize_s = _timed(result_payload, result,
                                                  "json")
                record.update(
                    plan_nodes=sum(1 for _ in compiled.optimized.walk()),
                    items_out=len(items),
                    payload_bytes=len(json.dumps(payload["items"])),
                    serialize_s=serialize_s)
            if rid % ANALYZE_EVERY == 0:
                explained = tenant_obj.engine.explain(
                    text, variables=convert_variables(bindings) or None,
                    analyze=True)
                examined = sum(stats.items for op_id, stats
                               in explained.profiler.operators.items()
                               if isinstance(op_id, int))
                record["examined_per_result"] = examined / max(1, len(items))
            records.append(record)
        return records


# -- source 3: direct measurements ---------------------------------------------

def _echo(command):
    return command


def pool_transport() -> tuple[float, float]:
    """(median round trip in us of a 100-byte echo, MB/s moved both
    ways by a 1 MB echo) through ``ForkWorkerPool.call``."""
    small, large = b"x" * 100, b"x" * (1 << 20)
    with ForkWorkerPool(_echo, workers=2) as pool:
        for _ in range(20):
            pool.call(small)
        rtts = [_timed(pool.call, small)[1] for _ in range(300)]
        pool.call(large)
        big = [_timed(pool.call, large)[1] for _ in range(12)]
    return _median(rtts) * 1e6, 2.0 / _median(big)


def scatter_vs_single(replay: Replay, sample) -> float:
    """Median ``ShardRouter.try_execute`` time over the median time of a
    single-worker ``("execute", ...)`` call, same queries, cache off."""
    core = replay.core
    scatter_s, single_s = [], []
    with ForkWorkerPool(core.handle, workers=2) as pool:
        router = ShardRouter(core, pool)
        try:
            for op in sample:
                if op.expect is None or len(scatter_s) >= SCATTER_COMPARISONS:
                    continue
                tenant, text, declared, bindings = op.call
                reply, seconds = _timed(router.try_execute, tenant, text,
                                        bindings, declared, "json")
                if reply is None:
                    continue
                scatter_s.append(seconds)
                single_s.append(_timed(
                    pool.call, ("execute", tenant, text, bindings, declared,
                                "json", None, False))[1])
        finally:
            router.shutdown()
    return _median(scatter_s) / _median(single_s) if single_s else 0.0


def scanner(documents) -> tuple[float, int]:
    """(MB/s of ``repro.xml(text).parse()``, scanner fallbacks)."""
    total_bytes, seconds, fallbacks = 0, 0.0, 0
    for _tenant, _name, xml in documents[:4]:
        seconds += _timed(repro.xml(xml).parse)[1]
        total_bytes += len(xml.encode("utf-8"))
        scan = FastXMLScanner(xml)
        for _event in scan:
            pass
        fallbacks += scan.fallback_count
    return total_bytes / 1e6 / seconds, fallbacks


def persistence(workload, replay: Replay, scratch: Path) -> dict:
    """Catalog add in memory and on disk, then a warm open of what the
    replay committed and the first query on a reopened document."""
    documents = workload.documents()[:4]
    memory, disk = repro.catalog(), repro.catalog(path=scratch / "commit")
    add_s = [_timed(memory.add, name, xml)[1] for _t, name, xml in documents]
    disk_s = [_timed(disk.add, name, xml)[1] for _t, name, xml in documents]
    tenant, name, _xml = documents[0]
    tenant_dir = replay.core.tenants.get(tenant).catalog.path
    reopened, open_s = _timed(repro.catalog, path=tenant_dir)
    engine = Engine(catalog=reopened)
    touch_s = _timed(lambda: engine.compile(
        f"count(${name}/site/people/person)").execute().items())[1]
    return {"catalog.add_ms": _median(add_s) * 1e3,
            "storage.persist.commit_ms":
                (_median(disk_s) - _median(add_s)) * 1e3,
            "storage.persist.warm_open_ms": open_s * 1e3,
            "storage.persist.first_touch_ms": touch_s * 1e3}


def health_rtt_us(client: Client) -> float:
    request = encode_request("GET", "/health")
    for _ in range(20):
        client.exchange(request)
    return _median(_timed(client.exchange, request)[1]
                   for _ in range(300)) * 1e6


# -- the traced pass -------------------------------------------------------------

def paid_layers(records: list[dict], missed: list[bool],
                spans: dict[tuple[int, str], float]) -> list[dict]:
    """Per operation of the sample: layer -> replayed self time (ms) of
    the work the server had to do for it.  A PUT pays the catalog add; a
    result-cache hit pays key and probe; a miss also pays the compile (a
    compile-cache probe where the plan was cached, parse + compile where
    it was not), the execution and the serialization."""
    out = []
    for rid, (record, was_miss) in enumerate(zip(records, missed)):
        if record["put"]:
            out.append({"catalog.add": spans[(rid, "catalog.add")]})
            continue
        names = ["server.cache.key", "server.cache.get"]
        if was_miss:
            names += ["compiler.cache_hit"] if record["compile_hit"] \
                else ["xquery.parse", "compiler.compile"]
            names += ["runtime.execute", "xmlio.serialize"]
        out.append({name: spans[(rid, name)] for name in names})
    return out


def trace(one, seconds: float, out_dir: Path) -> dict:
    """Per-layer metrics of one workload (``one`` is set up and warm)."""
    workload = one.workload
    size = M.MIN_WINDOW if seconds >= 5 else 40
    sample = workload.sample(size)
    queries = [op for op in sample if op.expect is not None]
    tracer = Tracer()
    client = one.client

    before = _server_metrics(client)
    plain, plain_wall, plain_cpu = _http_pass(one, sample, None)
    after = _server_metrics(client)
    # the traced pass continues the sequence: sending the sample twice
    # would meet documents its own PUTs have replaced, and caches the
    # first pass has filled
    traced, _wall, _cpu = _http_pass(one, workload.sample(size, block=1),
                                     tracer)
    bad = [s for s in plain + traced if not one.check(s)]

    replies = [parse_reply(s.raw) if s.raw is not None else None
               for s in plain]
    elapsed = [float(r.headers["x-repro-elapsed-ms"])
               if r is not None and "x-repro-elapsed-ms" in r.headers
               else None for r in replies]
    missed = [r is not None and r.headers.get("x-repro-cache") == "miss"
              for r in replies]
    stats = [r.json().get("stats", {})
             if r is not None and r.status == 200 and s.op.expect is not None
             else {} for r, s in zip(replies, plain)]

    replay = Replay(workload, one.root / "replay")
    records = replay.run(sample, tracer)
    tracer.write(out_dir / f"trace-{workload.name}.jsonl")
    self_ms: dict[str, list[float]] = {}
    spans: dict[tuple[int, str], float] = {}
    for rid, name, own in tracer.self_times():
        self_ms.setdefault(name, []).append(own)
        spans[(rid, name)] = own

    paid = paid_layers(records, missed, spans)
    attributed = [sum(layers.values()) for layers in paid]

    reads = [r for r in records if not r["put"]]
    pairs = [(r["inline_ms"], e) for r, e in zip(records, elapsed)
             if not r["put"] and e is not None]
    # the reply header, not /metrics: the server's own cache_hits counter
    # misses the hits of the parent-side cache in pre-forked mode
    hits = sum(1 for r, s in zip(replies, plain) if r is not None
               and s.op.expect is not None
               and r.headers.get("x-repro-cache") == "hit")
    compile_hits = _counter_delta(before, after, "caches", "compile_cache",
                                  "hits")
    compile_misses = _counter_delta(before, after, "caches", "compile_cache",
                                    "misses")
    scattered = _counter_delta(before, after, "sharding", "scattered")
    merge_ms = _counter_delta(before, after, "sharding", "merge_ms_total")
    uses_collection = any("collection()" in text for _t, _n, text, _v
                          in workload.registrations())
    rtt_us, mb_s = pool_transport()
    scan_mb_s, fallbacks = scanner(workload.documents())
    live_xml = sum(len(xml.encode("utf-8"))
                   for xml in one.acknowledged.values())
    traced_ms = [s.latency * 1e3 for s in traced]
    plain_ms = [s.latency * 1e3 for s in plain]

    values = {
        "server.http.health_rtt_us": health_rtt_us(client),
        "server.http.overhead_ms": _mean(
            ms - e for ms, e in zip(plain_ms, elapsed) if e is not None),
        "server.http.unattributed_ms": _mean(
            ms - own for ms, own in zip(plain_ms, attributed)),
        "server.http.req_bytes": _mean(len(op.request) for op in sample),
        "server.http.resp_bytes": _mean(len(r.body) for r in replies
                                        if r is not None),
        "server.cache.hit_ratio": hits / max(1, len(queries)),
        "server.cache.key_us": _median(self_ms.get("server.cache.key", []))
        * 1e3,
        "server.cache.get_us": _median(self_ms.get("server.cache.get", []))
        * 1e3,
        "server.cache.encodes": _counter_delta(
            before, after, "caches", "parent_result_cache", "encodes"),
        "xquery.parse_ms": _median(self_ms.get("xquery.parse", [])),
        "compiler.compile_ms": _median(self_ms.get("compiler.compile", [])),
        "compiler.cache_hit_us": _median(
            self_ms.get("compiler.cache_hit", [])) * 1e3,
        "compiler.cache_hit_ratio": compile_hits
        / max(1, compile_hits + compile_misses),
        "compiler.plan_nodes": _mean(r["plan_nodes"] for r in reads),
        "compiler.fallback_closure": sum(
            s.get("codegen.fallback_closure", 0) for s in stats),
        "runtime.execute_ms": _median(self_ms.get("runtime.execute", [])),
        "runtime.items_out": _mean(r["items_out"] for r in reads),
        "runtime.operator_items_per_result": _mean(
            r["examined_per_result"] for r in reads
            if "examined_per_result" in r),
        "runtime.access_path_ratio": sum(
            1 for s in stats
            if any(k.startswith(("access_path.", "twig.")) for k in s))
        / max(1, len(queries)),
        "xmlio.serialize_ms": _median(self_ms.get("xmlio.serialize", [])),
        "xmlio.serialize_mb_s": sum(r["payload_bytes"] for r in reads) / 1e6
        / max(1e-9, sum(r["serialize_s"] for r in reads)),
        "xmlio.scan_mb_s": scan_mb_s,
        "xmlio.scanner_fallbacks": fallbacks,
        "service.workers.rpc_rtt_us": rtt_us,
        "service.workers.rpc_mb_s": mb_s,
        "service.workers.rejected": _counter_delta(before, after, "pool",
                                                   "rejected"),
        "service.workers.crashes": _counter_delta(before, after, "pool",
                                                  "crashes"),
        "service.workers.respawns": _counter_delta(before, after, "pool",
                                                   "respawns"),
        "service.sharding.scattered_ratio": scattered / max(1, len(queries)),
        "service.sharding.fallback_single": _counter_delta(
            before, after, "sharding", "fallback_single"),
        "service.sharding.merge_ms_per_scatter": merge_ms / scattered
        if scattered else 0.0,
        "service.sharding.scatter_vs_single_ratio":
            scatter_vs_single(replay, sample) if uses_collection else 0.0,
        "storage.persist.bytes_per_xml_byte":
            dir_bytes(one.server.data_dir) / max(1, live_xml),
        "replay.inline_vs_server_ratio":
            _median(p[0] for p in pairs) / _median(p[1] for p in pairs)
            if pairs else 0.0,
        "loadgen.cpu_share": plain_cpu / plain_wall,
        "trace.overhead_ratio": M.percentile(traced_ms, 50)
        / M.percentile(plain_ms, 50),
    }
    values.update(persistence(workload, replay, one.root / "persist"))
    metrics = {m.name: {"value": float(values[m.name]), "unit": m.unit}
               for m in M.PER_LAYER}
    # the waterfall: mean ms per operation each layer was paid for, and
    # what is left of the client's latency (HTTP, pipe, router, JSON)
    waterfall: dict[str, float] = {}
    for layers in paid:
        for name, own in layers.items():
            waterfall[name] = waterfall.get(name, 0.0) + own / len(paid)
    waterfall["unattributed"] = values["server.http.unattributed_ms"]
    return {"attempted": len(plain) + len(traced), "failed": len(bad),
            "correct": not bad, "metrics": metrics,
            "layer_self_ms": waterfall,
            "problems": [f"{s.op.kind} {s.op.key!r}: wrong or no answer"
                         for s in bad[:5]]}
