"""The Profiler: per-operator counters for one (or more) evaluations.

One :class:`Profiler` instance is a sink keyed by *operator id*:
integer ids name compiled plan operators (assigned by the code
generator, see :class:`repro.observability.explain.PlanNode`), string
ids name library-layer operators (``join.twigstack``,
``stream.broker``, ``xmlio.scanner``, ...).  Each id accumulates an
:class:`OperatorStats`: invocations, items produced, inclusive wall
time, and free-form named counters (stack pushes, elements scanned,
cache hits, fallback counts, ...).

The design constraint is that instrumentation is off by default and
near-free when off: plans compiled by the engine always carry hook
points, but a hook is a single ``dctx._shared.profiler is None`` check
per operator *invocation* (never per item) until a profiler is
attached via ``CompiledQuery.execute(..., profiler=...)``.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Iterator

#: operator ids: ints for compiled plan nodes, strings for library layers
OpId = Any


class OperatorStats:
    """Accumulated metrics for one operator."""

    __slots__ = ("calls", "items", "seconds", "counters")

    def __init__(self):
        #: times the operator was invoked (opened)
        self.calls = 0
        #: items the operator produced across all invocations
        self.items = 0
        #: inclusive wall time (the operator plus everything below it)
        self.seconds = 0.0
        #: free-form named counters (elements_scanned, stack_pushes, ...)
        self.counters: dict[str, int] = {}

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {"calls": self.calls, "items": self.items,
                               "time_ms": round(self.seconds * 1000, 3)}
        if self.counters:
            out["counters"] = dict(self.counters)
        return out

    def __repr__(self) -> str:
        return (f"OperatorStats(calls={self.calls}, items={self.items}, "
                f"time_ms={self.seconds * 1000:.3f})")


class Profiler:
    """A per-evaluation metrics sink.

    Attach one to an execution (``compiled.execute(..., profiler=p)``)
    or pass it to library entry points (``evaluate_pattern(...,
    profiler=p)``, ``broker.route(..., profiler=p)``); afterwards read
    ``p.operators`` or ``p.to_dict()``.
    """

    def __init__(self):
        self.operators: dict[OpId, OperatorStats] = {}

    # -- collection --------------------------------------------------------

    def operator(self, op_id: OpId) -> OperatorStats:
        """The stats record for ``op_id`` (created on first use)."""
        stats = self.operators.get(op_id)
        if stats is None:
            stats = self.operators[op_id] = OperatorStats()
        return stats

    def run_operator(self, op_id: OpId, plan, dctx) -> Iterator[Any]:
        """Drive ``plan(dctx)`` while counting items and inclusive time.

        This is the active arm of the compiled-plan hook: the guarded
        wrapper delegates here only when a profiler is attached.  Time
        spent in the *consumer* between pulls is excluded (the clock
        restarts after each ``yield`` resumes).
        """
        stats = self.operator(op_id)
        stats.calls += 1
        clock = perf_counter
        iterator = plan(dctx)
        t0 = clock()
        while True:
            try:
                item = next(iterator)
            except StopIteration:
                stats.seconds += clock() - t0
                return
            stats.seconds += clock() - t0
            stats.items += 1
            yield item
            t0 = clock()

    def record(self, op_id: OpId, items: int = 0, seconds: float = 0.0,
               **counters: int) -> None:
        """One-shot record for library operators that ran to completion."""
        stats = self.operator(op_id)
        stats.calls += 1
        stats.items += items
        stats.seconds += seconds
        for name, amount in counters.items():
            stats.counters[name] = stats.counters.get(name, 0) + amount

    def count(self, op_id: OpId, name: str, amount: int = 1) -> None:
        """Bump one named counter under ``op_id``."""
        self.operator(op_id).count(name, amount)

    # -- instrumented parsing ----------------------------------------------

    def parse_document(self, text: str, base_uri: str = ""):
        """Parse XML text to a tree, recording scanner-level metrics.

        Records the ``xmlio.scanner`` operator: events produced, wall
        time (events/sec falls out of the two), and the scanner's
        fallback-to-reference-parser counts by construct.
        """
        from repro.xdm.build import build_tree
        from repro.xmlio.scanner import FastXMLScanner

        scanner = FastXMLScanner(text, base_uri)
        events = 0

        def counted():
            nonlocal events
            for event in scanner:
                events += 1
                yield event

        t0 = perf_counter()
        try:
            doc = build_tree(counted())
        finally:
            fallbacks = {f"fallback_{kind}": count
                         for kind, count in scanner.fallback_counts.items()}
            self.record("xmlio.scanner", items=events,
                        seconds=perf_counter() - t0, **fallbacks)
        return doc

    # -- reporting ---------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready image: operator key → stats dict."""
        return {str(op_id): stats.to_dict()
                for op_id, stats in self.operators.items()}

    def total_seconds(self) -> float:
        """Inclusive time of the root plan operator (id 0), if recorded."""
        stats = self.operators.get(0)
        return stats.seconds if stats is not None else 0.0

    def __repr__(self) -> str:
        return f"Profiler({len(self.operators)} operators)"
