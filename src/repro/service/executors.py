"""Group executors: the runtime half of parallel-group execution.

The compiler half (``repro.compiler.parallel``) proves which sibling
subexpressions are independent; the code generator then emits a
``ParallelSeq`` operator that hands the member subplans to one of the
executors here.  The contract is one duck-typed method::

    run_group(plans, dctx) -> list[list[item]] | None

Returning ``None`` declines the whole group (saturated pool, nested
fan-out): the caller evaluates every member inline, sequentially, and
counts ``parallel.fallback_sequential`` — results are always exact,
parallelism is only a fast path.

One family, threads: members share the heap, so any member result
(including nodes) comes back intact, and what overlaps is *waiting* —
blocking members such as ``fn:doc`` through a slow document loader
(E12: 2.50x on four 50 ms loads).  Pure-Python CPU work does not speed
up under the GIL; multi-core execution is the pre-forked
:class:`~repro.service.workers.ForkWorkerPool`'s job, one process per
request or shard, not one fork per group (the fork-per-group executor
measured 4.4-7x slower than the sequential plan and was retired in
2.0 — see EXPERIMENTS.md E12).

Deadlock freedom: a group is admitted only when *every* member can
occupy a worker immediately (permit accounting), and a worker thread
never fans out again (thread-local reentrancy guard) — so no task ever
waits in the queue behind a blocked parent.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Iterator, Optional

Plan = Callable[..., Iterator[Any]]
GroupResult = Optional[list[list[Any]]]


class SequentialExecutor:
    """The null executor: declines every group.

    Configure it to exercise the sequential-fallback path explicitly
    (tests, benchmark baselines) while keeping the ``ParallelSeq``
    operators — and their stats — in the plan.
    """

    def run_group(self, plans: list[Plan], dctx) -> GroupResult:
        return None

    def shutdown(self) -> None:
        pass


class ThreadGroupExecutor:
    """Fan group members out to a bounded thread pool.

    ``max_workers`` bounds concurrent members across *all* groups; a
    group is only admitted when all its members get a worker at once
    (see module docstring for why that is deadlock-free).
    """

    def __init__(self, max_workers: int = 4):
        self.max_workers = max_workers
        self._pool = ThreadPoolExecutor(
            max_workers=max_workers,
            thread_name_prefix="repro-group")
        self._lock = threading.Lock()
        self._free = max_workers
        self._local = threading.local()

    def run_group(self, plans: list[Plan], dctx) -> GroupResult:
        if getattr(self._local, "in_worker", False):
            return None  # nested fan-out inside a member: run inline
        with self._lock:
            if self._free < len(plans):
                return None  # saturated: caller degrades to sequential
            self._free -= len(plans)
        futures = [self._pool.submit(self._run_member, plan, dctx)
                   for plan in plans]
        results: list[Optional[list[Any]]] = []
        error: Optional[BaseException] = None
        for future in futures:
            try:
                results.append(future.result())
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                # keep draining: members are pure, and permits must be
                # returned by every _run_member before we leave
                if error is None:
                    error = exc  # earliest member, as sequential order would
                results.append(None)
        if error is not None:
            raise error
        return results

    def _run_member(self, plan: Plan, dctx) -> list[Any]:
        self._local.in_worker = True
        try:
            return list(plan(dctx))
        finally:
            self._local.in_worker = False
            with self._lock:
                self._free += 1

    def shutdown(self) -> None:
        self._pool.shutdown(wait=True)

    def __enter__(self) -> "ThreadGroupExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()
