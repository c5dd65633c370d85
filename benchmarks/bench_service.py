"""E12: overlapping fn:doc loader latency, and the concurrent query service.

The tutorial's parallel-execution slide motivates dataflow parallelism
with independent calls to remote services (``ns1:WS1($input) +
ns2:WS2($input)``): the win is overlapping the calls' *latency*.  This
benchmark reproduces that shape over XMark data:

1. **document prefetch** — one query aggregates four per-region auction
   documents, each pulled through ``fn:doc`` from a loader with
   simulated network latency.  Written with string-literal URIs, the
   four loads start together before evaluation (document prefetch);
   written with computed URIs (``concat($svc, 'europe')``, ``$svc``
   bound at run time) they load one after another as evaluation
   reaches each call.  Same loader, same answer; the acceptance bar is
   literal >= 1.5x faster than computed.
2. **service behavior** — deadlines (a runaway query stops within the
   budget) and admission control (``ServiceOverloaded`` once the pool
   and queue are full).

CPU-bound work does not overlap under one GIL, so waiting is all this
measures; multi-core execution is the pre-forked ``ForkWorkerPool``'s
job (EXPERIMENTS.md E12 keeps the retired parallel-group numbers).

Run:  PYTHONPATH=src python benchmarks/bench_service.py
"""

from __future__ import annotations

import statistics
import sys
import time

import repro
from repro import Engine, ExecutionOptions
from repro.errors import QueryTimeout, ServiceOverloaded
from repro.service import QueryService
from repro.workloads import generate_xmark

#: simulated per-request service latency for the fn:doc loader
LATENCY = 0.12

REGIONS = ("europe", "asia", "namerica", "africa")

#: timed executions of each query form
RUNS = 10

#: four aggregations, one per regional "service", URIs as literals
LITERAL_QUERY = "(" + ",\n ".join(
    f"count(doc('svc://{r}')//item//keyword)" for r in REGIONS) + ")"

#: the same query with every URI computed from the external ``$svc``
COMPUTED_QUERY = "(" + ",\n ".join(
    f"count(doc(concat($svc, '{r}'))//item//keyword)" for r in REGIONS) + ")"


def make_loader(documents: dict[str, str], latency: float):
    def loader(uri: str):
        time.sleep(latency)  # the "network"
        return documents.get(uri)
    return loader


def regional_documents(scale: float = 0.3) -> dict[str, str]:
    """Per-region auction documents, like four federated services."""
    return {f"svc://{region}": generate_xmark(scale=scale, seed=i + 1)
            for i, region in enumerate(REGIONS)}


def timed_runs(query: str, documents: dict[str, str], runs: int,
               variables=None) -> tuple[list[float], list]:
    compiled = Engine().compile(query, variables=tuple(variables or ()))
    times, values = [], None
    for _ in range(runs):
        loader = make_loader(documents, LATENCY)
        t0 = time.perf_counter()
        values = compiled.execute(document_loader=loader,
                                  variables=variables).values()
        times.append(time.perf_counter() - t0)
    assert len(values) == len(REGIONS)
    return times, values


def bench_prefetch(runs: int) -> float:
    documents = regional_documents()
    print(f"query ({len(REGIONS)} fn:doc calls, {LATENCY * 1e3:.0f} ms "
          f"loader latency each):\n{LITERAL_QUERY}\n")
    literal, answer = timed_runs(LITERAL_QUERY, documents, runs)
    computed, same = timed_runs(COMPUTED_QUERY, documents, runs,
                                variables={"svc": "svc://"})
    assert answer == same
    for label, times in (("literal URIs (prefetched)", literal),
                         ("computed URIs", computed)):
        print(f"{label:27s} median {statistics.median(times) * 1e3:7.1f} ms"
              f"  min {min(times) * 1e3:7.1f}  max {max(times) * 1e3:7.1f}"
              f"  ({runs} runs)")
    speedup = statistics.median(computed) / statistics.median(literal)
    print(f"speedup: {speedup:.2f}x  (bar: >= 1.5x)\n")
    return speedup


def demo_service() -> None:
    big = generate_xmark(scale=1.0, seed=7)
    runaway = ("count(for $a in $d//item, $b in $d//keyword, "
               "$c in $d//item return 1)")
    with QueryService(options=ExecutionOptions(
            max_workers=2, max_queue=2)) as svc:
        budget = 0.25
        t0 = time.perf_counter()
        try:
            svc.execute(runaway, variables={"d": repro.xml(big)},
                        timeout=budget)
            print("deadline: query finished under budget?!")
        except QueryTimeout as exc:
            waited = time.perf_counter() - t0
            print(f"deadline: runaway query stopped after {waited:.3f}s "
                  f"(budget {budget}s, partial stats: "
                  f"{len(exc.stats)} counters)")

        # saturate the pool + queue, then one more is shed
        slow = make_loader({"svc://x": "<r/>"}, 0.3)
        futures = [svc.submit("doc('svc://x')", document_loader=slow)
                   for _ in range(4)]
        try:
            svc.submit("1 + 1")
            print("overload: admission control MISSED")
        except ServiceOverloaded as exc:
            print(f"overload: rejected at queue depth {exc.queue_depth} "
                  f"({exc.code})")
        for future in futures:
            future.result()
        print(f"service stats: {svc.stats()}")


def main() -> int:
    speedup = bench_prefetch(RUNS)
    demo_service()

    ok = speedup >= 1.5
    print(f"\nE12 {'PASS' if ok else 'FAIL'}: literal vs computed "
          f"URIs {speedup:.2f}x")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
