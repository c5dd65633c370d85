"""E12: parallel-group execution and the concurrent query service.

The tutorial's parallel-execution slide motivates dataflow parallelism
with independent calls to remote services (``ns1:WS1($input) +
ns2:WS2($input)``): the win is overlapping the members' *latency*.
This benchmark reproduces that shape over XMark data:

1. **parallel groups** — one query with four independent aggregation
   members, each pulling a per-region auction document through
   ``fn:doc`` from a loader with simulated network latency.  Run
   sequentially (``jobs=1``) vs through the group executor
   (``--jobs 4``); the group fans members out, latencies overlap, and
   wall-clock drops (the acceptance bar is ≥1.5x).
2. **EXPLAIN ANALYZE** — shows ``parallel.groups_run > 0`` flowing
   through the stats when the executor is attached.
3. **service behavior** — deadlines (a runaway query stops within the
   budget) and admission control (``ServiceOverloaded`` once the pool
   and queue are full).

CPU-bound members do not speed up: group members are threads under one
GIL (the fork-per-group executor that was meant to change that measured
4.4-7x slower than the sequential plan and was retired in 2.0, see
EXPERIMENTS.md E12), so latency overlap is what this benchmark reports.

Run:  PYTHONPATH=src python benchmarks/bench_service.py [--jobs 4]
"""

from __future__ import annotations

import argparse
import sys
import time

import repro
from repro import Engine, ExecutionOptions
from repro.errors import QueryTimeout, ServiceOverloaded
from repro.service import QueryService, ThreadGroupExecutor
from repro.workloads import generate_xmark

#: simulated per-request service latency for the fn:doc loader
LATENCY = 0.12

REGIONS = ("europe", "asia", "namerica", "africa")

#: four independent members — one aggregation per regional "service";
#: no member reads a variable another binds, none constructs nodes, so
#: the analysis proves the whole sequence parallel-safe
GROUP_QUERY = "(" + ",\n ".join(
    f"count(doc('svc://{r}')//item//keyword)" for r in REGIONS) + ")"


def make_loader(documents: dict[str, str], latency: float):
    def loader(uri: str):
        time.sleep(latency)  # the "network"
        return documents.get(uri)
    return loader


def regional_documents(scale: float = 0.3) -> dict[str, str]:
    """Per-region auction documents, like four federated services."""
    return {f"svc://{region}": generate_xmark(scale=scale, seed=i + 1)
            for i, region in enumerate(REGIONS)}


def run_once(engine: Engine, documents: dict[str, str]) -> tuple[float, dict]:
    loader = make_loader(documents, LATENCY)
    compiled = engine.compile(GROUP_QUERY)
    t0 = time.perf_counter()
    result = compiled.execute(document_loader=loader)
    values = result.values()
    elapsed = time.perf_counter() - t0
    assert len(values) == len(REGIONS)
    return elapsed, dict(result.stats)


def bench_parallel_groups(jobs: int) -> float:
    documents = regional_documents()
    print(f"query ({len(REGIONS)} independent members):\n{GROUP_QUERY}\n")

    sequential = Engine()
    t_seq, _ = run_once(sequential, documents)
    t_seq2, _ = run_once(sequential, documents)
    t_seq = min(t_seq, t_seq2)
    print(f"jobs=1 (sequential plan):  {t_seq * 1000:8.1f} ms")

    # threads overlap the fn:doc latency deterministically on any machine
    executor = ThreadGroupExecutor(max_workers=jobs)
    parallel = Engine(executor=executor)
    t_par, stats = run_once(parallel, documents)
    t_par2, _ = run_once(parallel, documents)
    t_par = min(t_par, t_par2)
    executor.shutdown()
    print(f"--jobs {jobs} (ParallelSeq):   {t_par * 1000:8.1f} ms")
    print(f"parallel stats: " + ", ".join(
        f"{k}={v}" for k, v in sorted(stats.items()) if "parallel" in k))

    speedup = t_seq / t_par
    print(f"speedup: {speedup:.2f}x  (bar: >= 1.5x)\n")
    return speedup


def show_explain_analyze(jobs: int) -> int:
    documents = regional_documents(scale=0.05)
    executor = ThreadGroupExecutor(max_workers=jobs)
    engine = Engine(executor=executor)
    explained = engine.explain(GROUP_QUERY, analyze=True,
                               document_loader=make_loader(documents, 0.0))
    dump = explained.to_dict()
    groups_run = dump.get("engine_stats", {}).get("parallel.groups_run", 0)
    print(f"EXPLAIN ANALYZE: parallel.groups_run = {groups_run}")
    for line in str(explained).splitlines():
        if "ParallelSeq" in line:
            print(f"  {line.strip()}")
    executor.shutdown()
    print()
    return groups_run


def demo_service(jobs: int) -> None:
    big = generate_xmark(scale=1.0, seed=7)
    runaway = ("count(for $a in $d//item, $b in $d//keyword "
               "return ($a, $b))")
    with QueryService(options=ExecutionOptions(
            max_workers=2, max_queue=2, jobs=jobs)) as svc:
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


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--jobs", type=int, default=4)
    args = parser.parse_args(argv)

    speedup = bench_parallel_groups(args.jobs)
    groups_run = show_explain_analyze(args.jobs)
    demo_service(args.jobs)

    ok = speedup >= 1.5 and groups_run > 0
    print(f"\nE12 {'PASS' if ok else 'FAIL'}: "
          f"speedup {speedup:.2f}x, parallel.groups_run {groups_run}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
