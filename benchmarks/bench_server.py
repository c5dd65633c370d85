"""E17: the HTTP server under concurrent load.

The serving claims behind ``repro.server``, measured over real HTTP
with hundreds of simulated clients (threads with keep-alive
connections):

1. **result-cache speedup** — the same registered query + bindings
   served from the result cache vs re-executed (``cache: false``);
   the cache turns an execute into a dict lookup plus serialization,
   so the hit path should be an order of magnitude faster;
2. **concurrent latency** — p50/p99 across client counts (1 → 200),
   from the server's own always-on ``/metrics`` window *and* measured
   client-side, plus throughput;
3. **admission control under overload** — a burst of slow uncacheable
   queries against a 1-worker pool sheds load with 503s instead of
   queueing unboundedly.

Run:  PYTHONPATH=src python benchmarks/bench_server.py
      [--processes N] [--clients 200] [--requests 40]
"""

from __future__ import annotations

import argparse
import http.client
import json
import statistics
import sys
import threading
import time

from repro import ExecutionOptions
from repro.server import ServerConfig, start_in_thread
from repro.server.metrics import percentile
from repro.workloads import generate_xmark

QUERY = ("count($auction//item[count(.//keyword) >= $min])")


class BenchClient:
    """One keep-alive connection issuing JSON requests."""

    def __init__(self, port: int):
        self.conn = http.client.HTTPConnection("127.0.0.1", port,
                                               timeout=60)

    def request(self, method: str, path: str, body=None):
        data = body if isinstance(body, (bytes, str, type(None))) \
            else json.dumps(body)
        self.conn.request(method, path, body=data)
        resp = self.conn.getresponse()
        raw = resp.read()
        return resp.status, json.loads(raw) if raw.startswith(b"{") else raw

    def close(self):
        self.conn.close()


def setup(port: int, scale: float) -> None:
    client = BenchClient(port)
    status, _ = client.request("PUT", "/tenants/bench/documents/auction",
                               generate_xmark(scale=scale, seed=42))
    assert status == 200
    status, _ = client.request("PUT", "/tenants/bench/queries/busy",
                               {"query": QUERY, "variables": ["min"]})
    assert status == 200
    client.close()


def fire(port: int, n_clients: int, requests_each: int,
         body_of) -> tuple[list[float], list[int], float]:
    """``n_clients`` threads, each issuing ``requests_each`` requests.

    Returns (per-request latencies, statuses, wall-clock seconds).
    """
    latencies: list[float] = []
    statuses: list[int] = []
    lock = threading.Lock()
    barrier = threading.Barrier(n_clients + 1)

    def worker(cid: int) -> None:
        client = BenchClient(port)
        local_lat, local_status = [], []
        barrier.wait()
        for i in range(requests_each):
            t0 = time.perf_counter()
            status, _ = client.request("POST", "/tenants/bench/queries/busy",
                                       body_of(cid, i))
            local_lat.append(time.perf_counter() - t0)
            local_status.append(status)
        client.close()
        with lock:
            latencies.extend(local_lat)
            statuses.extend(local_status)

    threads = [threading.Thread(target=worker, args=(cid,))
               for cid in range(n_clients)]
    for t in threads:
        t.start()
    barrier.wait()
    t0 = time.perf_counter()
    for t in threads:
        t.join()
    return latencies, statuses, time.perf_counter() - t0


def _report(label: str, latencies: list[float], statuses: list[int],
            wall: float) -> dict:
    ok = statuses.count(200)
    row = {"p50": percentile(latencies, 0.5) * 1000,
           "p99": percentile(latencies, 0.99) * 1000,
           "mean": statistics.fmean(latencies) * 1000,
           "rps": len(latencies) / wall, "ok": ok,
           "rejected": statuses.count(503)}
    print(f"{label:<28} p50 {row['p50']:7.2f} ms   "
          f"p99 {row['p99']:7.2f} ms   {row['rps']:7.0f} req/s   "
          f"{ok}/{len(statuses)} ok" +
          (f"   {row['rejected']} shed" if row["rejected"] else ""))
    return row


def bench_cache_speedup(port: int, requests: int) -> float:
    """Cold (cache bypassed) vs cached hit latency, single client."""
    print("-- result cache: cold execute vs cached hit --")
    cold_body = lambda cid, i: {"variables": {"min": 1}, "cache": False}
    warm_body = lambda cid, i: {"variables": {"min": 1}}
    cold, st_c, wall_c = fire(port, 1, requests, cold_body)
    BenchClient(port).request("POST", "/tenants/bench/queries/busy",
                              {"variables": {"min": 1}})  # prime
    warm, st_w, wall_w = fire(port, 1, requests, warm_body)
    c = _report("cold (cache: false)", cold, st_c, wall_c)
    w = _report("cached hit", warm, st_w, wall_w)
    speedup = c["p50"] / w["p50"]
    print(f"cache hit speedup (p50): {speedup:.1f}x\n")
    return speedup


def bench_scaling(port: int, max_clients: int, requests: int) -> dict:
    """p50/p99/throughput across client counts; distinct bindings per
    client keep a realistic hit/miss mix (16 distinct $min values)."""
    print("-- concurrency scaling (mixed bindings, cache on) --")
    body = lambda cid, i: {"variables": {"min": (cid + i) % 16}}
    results = {}
    clients = [c for c in (1, 4, 16, 64, max_clients)
               if c <= max_clients]
    for n in dict.fromkeys(clients):
        per_client = max(4, min(requests, 2000 // n))
        lat, st, wall = fire(port, n, per_client, body)
        results[n] = _report(f"{n:4d} clients x {per_client}", lat, st, wall)
    print()
    return results


def bench_overload() -> int:
    """A 1-worker, 0-queue server sheds a 16-client burst with 503s."""
    print("-- admission control under overload --")
    config = ServerConfig(port=0, options=ExecutionOptions(
        max_workers=1, max_queue=0))
    handle = start_in_thread(config)
    try:
        client = BenchClient(handle.port)
        client.request("PUT", "/tenants/bench/documents/auction",
                       generate_xmark(scale=0.1, seed=42))
        client.request("PUT", "/tenants/bench/queries/busy",
                       {"query": QUERY, "variables": ["min"]})
        client.close()
        body = lambda cid, i: {"variables": {"min": cid}, "cache": False}
        lat, st, wall = fire(handle.port, 16, 2, body)
        _report("16-client burst, 1 worker", lat, st, wall)
        client = BenchClient(handle.port)
        _, metrics = client.request("GET", "/metrics")
        rejected = metrics["service"]["rejected"]
        client.close()
        print(f"admission rejections (server count): {rejected}\n")
        return rejected
    finally:
        handle.close()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--processes", type=int, default=0,
                        help="pre-forked workers (0 = in-process pool)")
    parser.add_argument("--clients", type=int, default=200,
                        help="peak simulated client count")
    parser.add_argument("--requests", type=int, default=40,
                        help="requests per client in the cache phase")
    parser.add_argument("--scale", type=float, default=0.2,
                        help="XMark document scale for the tenant")
    args = parser.parse_args(argv)

    config = ServerConfig(port=0, processes=args.processes,
                          options=ExecutionOptions(max_workers=8,
                                                   max_queue=64))
    handle = start_in_thread(config)
    mode = (f"{args.processes} pre-forked workers" if args.processes
            else "in-process pool (8 workers)")
    print(f"server: http://127.0.0.1:{handle.port}  [{mode}]\n")
    try:
        setup(handle.port, args.scale)
        speedup = bench_cache_speedup(handle.port, args.requests)
        scaling = bench_scaling(handle.port, args.clients, args.requests)

        client = BenchClient(handle.port)
        _, metrics = client.request("GET", "/metrics")
        client.close()
        window = metrics["server"]["latency"]["execute"]
        caches = metrics["caches"]["result_cache"]
        hit_rate = caches["hits"] / max(1, caches["hits"] + caches["misses"])
        print(f"server-side window: p50 {window['p50_ms']} ms, "
              f"p99 {window['p99_ms']} ms over {window['count']} requests")
        print(f"result cache: {caches['hits']} hits / "
              f"{caches['misses']} misses ({hit_rate:.0%} hit rate)")
    finally:
        handle.close()

    rejected = bench_overload()

    peak = max(scaling)
    ok = (speedup >= 5.0 and rejected > 0 and peak >= 4
          and scaling[peak]["ok"] > 0)
    print(f"E17 {'PASS' if ok else 'FAIL'}: cache speedup "
          f"{speedup:.1f}x (bar >= 5x), {peak} concurrent clients "
          f"p99 {scaling[peak]['p99']:.1f} ms, "
          f"{rejected} overload rejections (bar > 0)")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
