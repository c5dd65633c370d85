"""The concurrent query service: cancellation, deadlines, admission
control, document prefetch, and loader retry."""

import threading
import time

import pytest

import repro
from repro import CancellationToken, Engine, ExecutionOptions
from repro.compiler.reference import ReferenceEngine
from repro.errors import (
    DynamicError,
    QueryCancelled,
    QueryTimeout,
    ServiceOverloaded,
)
from repro.service import QueryService, RetryingDocumentLoader
from repro.workloads.synthetic import nested_sections


def slow_doc(n: int = 40) -> str:
    """A document whose nested ``//`` self-joins explode quadratically."""
    items = "".join(f"<x><y>{i}</y></x>" for i in range(n))
    return f"<r>{items}</r>"


#: a query that is O(n^2) over slow_doc — the runaway workload
RUNAWAY = "count(for $a in $d//x, $b in $d//y return ($a, $b))"

#: slow_doc size at which RUNAWAY outlives every budget below by ~10x on
#: the default (compile-to-source) backend: 16M bound pairs, about 2 s.
#: At n=300 it finishes in 14 ms there (266 ms on the closure
#: interpreter) — well inside a 0.1 s deadline
RUNAWAY_N = 4000


def service(**knobs) -> QueryService:
    return QueryService(options=ExecutionOptions(**knobs))


class TestCancellationToken:
    def test_explicit_cancel_raises(self):
        token = CancellationToken()
        token.cancel("client gone")
        with pytest.raises(QueryCancelled) as info:
            token.check()
        assert info.value.reason == "client gone"

    def test_deadline_expires(self):
        token = CancellationToken.with_timeout(0.01)
        time.sleep(0.02)
        with pytest.raises(QueryTimeout):
            token.check()
        assert token.cancelled

    def test_tighten_keeps_earlier_deadline(self):
        token = CancellationToken.with_timeout(10.0)
        token.tighten(0.5)
        assert token.remaining() <= 0.5
        token.tighten(100.0)
        assert token.remaining() <= 0.5

    def test_cancel_mid_query(self):
        token = CancellationToken()
        compiled = repro.compile("count($d//y)", variables=("d",))
        result = compiled.execute(
            variables={"d": repro.xml(slow_doc(200))}, cancellation=token)
        iterator = iter(result)
        token.cancel("stop")
        with pytest.raises(QueryCancelled):
            next(iterator)


class TestDeadlines:
    def test_runaway_query_stops_within_deadline(self):
        budget = 0.2
        compiled = repro.compile(RUNAWAY, variables=("d",))
        t0 = time.monotonic()
        with pytest.raises(QueryTimeout) as info:
            compiled.execute(variables={"d": repro.xml(slow_doc(RUNAWAY_N))},
                             deadline=budget).items()
        elapsed = time.monotonic() - t0
        # cooperative checks fire within one loop iteration: allow 2x
        assert elapsed < 2 * budget
        assert info.value.deadline == budget
        assert info.value.elapsed >= budget

    def test_timeout_carries_partial_stats(self):
        compiled = repro.compile(RUNAWAY, variables=("d",))
        with pytest.raises(QueryTimeout) as info:
            compiled.execute(variables={"d": repro.xml(slow_doc(RUNAWAY_N))},
                             deadline=0.1).items()
        assert isinstance(info.value.stats, dict)

    def test_fast_query_unaffected_by_deadline(self):
        assert repro.execute("1 + 1", deadline=10.0).values() == [2]

    def test_deadline_in_joins(self):
        from repro.joins.patterns import TwigPattern, evaluate_pattern
        from repro.storage import ElementIndex
        from repro.xdm.build import parse_document

        index = ElementIndex(parse_document(nested_sections(depth=4,
                                                            fanout=3)))
        token = CancellationToken()
        token.cancel()
        pattern = TwigPattern.chain("section", "title")
        for algorithm in ("twigstack", "binary", "navigation"):
            with pytest.raises(QueryCancelled):
                evaluate_pattern(index, pattern, algorithm,
                                 cancellation=token)

    def test_deadline_in_broker(self):
        from repro.stream.broker import MessageBroker

        broker = MessageBroker()
        broker.register("s", "/a//b")
        token = CancellationToken()
        token.cancel()
        with pytest.raises(QueryCancelled):
            broker.route("<a><b/></a>", cancellation=token)


class TestQueryService:
    def test_basic_execution(self):
        with service(max_workers=2) as svc:
            assert svc.execute("1 + 2").values() == [3]
            assert svc.stats()["completed"] == 1

    def test_deadline_enforced_and_pool_quiescent(self):
        with service(max_workers=2) as svc:
            with pytest.raises(QueryTimeout) as info:
                svc.execute(RUNAWAY, variables={"d": repro.xml(slow_doc(RUNAWAY_N))},
                            timeout=0.15)
            assert info.value.stats is not None
            stats = svc.stats()
            assert stats["timeouts"] == 1
            assert stats["in_flight"] == 0  # the worker was freed
        # after shutdown(wait=True) no service threads survive
        assert not [t for t in threading.enumerate()
                    if t.name.startswith("repro-svc") and t.is_alive()]

    def test_default_timeout_applies(self):
        with service(max_workers=1, default_timeout=0.15) as svc:
            with pytest.raises(QueryTimeout):
                svc.execute(RUNAWAY, variables={"d": repro.xml(slow_doc(RUNAWAY_N))})

    def test_overload_rejection(self):
        blocker = threading.Event()
        documents = {"u": "<r/>"}

        def slow_loader(uri):
            blocker.wait(5.0)
            return documents.get(uri)

        with service(max_workers=1, max_queue=1) as svc:
            futures = [svc.submit("doc('u')", document_loader=slow_loader)
                       for _ in range(2)]  # 1 running + 1 queued
            with pytest.raises(ServiceOverloaded) as info:
                svc.submit("1")
            assert info.value.queue_depth == 1
            assert info.value.max_queue == 1
            assert info.value.code == "SVC0001"
            assert svc.stats()["rejected"] == 1
            blocker.set()
            for future in futures:
                future.result()

    def test_caller_cancellation(self):
        token = CancellationToken()
        with service(max_workers=1) as svc:
            future = svc.submit(RUNAWAY,
                                variables={"d": repro.xml(slow_doc(RUNAWAY_N))},
                                cancellation=token)
            token.cancel("test")
            with pytest.raises(QueryCancelled):
                future.result()
            assert svc.stats()["cancelled"] == 1


class RecordingLoader:
    """A ``loader(uri)`` over a dict that records each call and the
    thread it ran on; ``fail`` maps URIs to the exception to raise."""

    def __init__(self, docs, fail=None):
        self.docs = docs
        self.fail = fail or {}
        self.calls: list[str] = []
        self.threads: set[str] = set()
        self._lock = threading.Lock()

    def __call__(self, uri):
        with self._lock:
            self.calls.append(uri)
            self.threads.add(threading.current_thread().name)
        if uri in self.fail:
            raise self.fail[uri]
        return self.docs.get(uri)


def _failure(query, loader, executor=Engine):
    """(type, message) of what executing ``query`` raises."""
    engine = executor()
    with pytest.raises(Exception) as info:
        engine.compile(query).execute(document_loader=loader).items()
    return type(info.value), str(info.value)


DOCS = {"a": "<r><b/><b/></r>", "c": "<r><b/></r>"}

#: the three lazy shapes whose later member is never reached: a loader
#: error (or missing document) behind it must not surface
UNREACHED_DOC_QUERIES = [
    ("(count(doc('a')//b), count(doc('bad')//b))[1]", [2]),
    ("exists((count(doc('a')//b), count(doc('bad')//b)))", [True]),
    ("for $x in doc('a')//nothing, $y in count(doc('bad')//b) "
     "order by $x return 1", []),
]


@pytest.mark.parametrize("executor", [Engine, ReferenceEngine],
                         ids=["source", "closure"])
class TestDocumentPrefetch:
    """Two or more unregistered string-literal ``fn:doc`` URIs start
    loading before evaluation; each outcome surfaces only at the
    ``fn:doc`` that reaches it, exactly as on the sequential path."""

    def test_literal_uris_load_concurrently(self, executor):
        # each load waits for the other: only overlapping calls finish
        barrier = threading.Barrier(2, timeout=10)

        def loader(uri):
            barrier.wait()
            return DOCS[uri]

        result = executor().compile(
            "count(doc('a')//b) + count(doc('c')//b)").execute(
                document_loader=loader)
        assert result.values() == [3]

    @pytest.mark.parametrize("query,expected", UNREACHED_DOC_QUERIES)
    def test_loader_error_of_unreached_member_does_not_raise(
            self, executor, query, expected):
        loader = RecordingLoader(DOCS, fail={"bad": RuntimeError("boom")})
        result = executor().compile(query).execute(
            document_loader=loader)
        assert result.values() == expected
        assert "repro-prefetch" in loader.threads  # both were prefetched

    @pytest.mark.parametrize("query,expected", UNREACHED_DOC_QUERIES)
    def test_missing_document_of_unreached_member_does_not_raise(
            self, executor, query, expected):
        result = executor().compile(query).execute(
            document_loader=RecordingLoader(DOCS))
        assert result.values() == expected

    def test_reached_failures_match_the_sequential_path(self, executor):
        # computed URIs are never prefetched: they are the reference
        for fail in ({}, {"bad": RuntimeError("boom")}):
            prefetched = _failure(
                "(count(doc('a')//b), count(doc('bad')//b))",
                RecordingLoader(DOCS, fail), executor)
            sequential = _failure(
                "(count(doc('a')//b), count(doc(concat('ba', 'd'))//b))",
                RecordingLoader(DOCS, fail), executor)
            assert prefetched == sequential
        assert prefetched[0] is RuntimeError
        missing = _failure("(doc('a'), doc('bad'))", RecordingLoader(DOCS),
                           executor)
        assert missing[0] is DynamicError and "FODC0002" in missing[1]

    def test_one_loader_call_per_uri(self, executor):
        loader = RecordingLoader(DOCS)
        result = executor().compile(
            "for $i in 1 to 3 return (count(doc('a')//b), "
            "count(doc('c')//b), count(doc('a')//b))").execute(
                document_loader=loader)
        assert result.values() == [2, 1, 2] * 3
        assert sorted(loader.calls) == ["a", "c"]

    def test_no_prefetch_with_a_single_uri(self, executor):
        loader = RecordingLoader(DOCS)
        # one literal, and one unregistered of two
        for query, documents, expected in (
                ("count(doc('a')//b) + count(doc('a')//b)", None, [4]),
                ("count(doc('a')//b) + count(doc('c')//b)",
                 {"c": DOCS["c"]}, [3])):
            result = executor().compile(query).execute(
                documents=documents, document_loader=loader)
            assert result.values() == expected
        assert loader.threads == {threading.current_thread().name}

    def test_no_prefetch_without_a_loader(self, executor, monkeypatch):
        import repro.runtime.dynamic as dynamic

        def refuse(*args):
            raise AssertionError("prefetched without a loader")

        monkeypatch.setattr(dynamic, "_Prefetch", refuse)
        compiled = executor().compile(
            "count(doc('a')//b) + count(doc('c')//b)")
        assert compiled.execute(documents=DOCS).values() == [3]
        with pytest.raises(DynamicError, match="FODC0002"):
            compiled.execute().items()

    def test_computed_uris_load_as_before(self, executor):
        loader = RecordingLoader(DOCS)
        result = executor().compile(
            "(count(doc(concat('a', ''))//b), "
            "count(doc(concat('c', ''))//b), doc(concat('bad', '')))[2]"
        ).execute(document_loader=loader)
        assert result.values() == [1]
        # lazily, in order, on the calling thread, never the unreached one
        assert loader.calls == ["a", "c"]
        assert loader.threads == {threading.current_thread().name}


@pytest.mark.perfsmoke
def test_prefetch_overlaps_loader_waits():
    """E12's loader shape, bounded by sleeps rather than CPU: four
    50 ms loads named by literal URIs finish in under twice one load,
    because at least two loader calls are in flight at once."""
    lock = threading.Lock()
    state = {"in_flight": 0, "peak": 0}

    def slow_loader(uri):
        with lock:
            state["in_flight"] += 1
            state["peak"] = max(state["peak"], state["in_flight"])
        try:
            time.sleep(0.05)
            return "<r><b/></r>"
        finally:
            with lock:
                state["in_flight"] -= 1

    def best_of(query, repeat=3):
        compiled = Engine().compile(query)
        times = []
        for _ in range(repeat):
            started = time.perf_counter()
            assert compiled.execute(document_loader=slow_loader).values()
            times.append(time.perf_counter() - started)
        return min(times)

    one = best_of("count(doc('u0')//b)")
    four = best_of(" + ".join(f"count(doc('u{i}')//b)" for i in range(4)))
    assert state["peak"] >= 2
    assert four < 2 * one, f"4 loads {four * 1e3:.1f} ms, 1 load {one * 1e3:.1f} ms"


def test_prefetch_under_thread_switching_stress():
    # more loads than cores, a switch interval short enough to
    # interleave every bytecode: each fn:doc still gets its own
    # document, and each URI is loaded exactly once
    import sys

    docs = {f"u{i}": f"<r>{'<b/>' * i}</r>" for i in range(16)}
    query = "(" + ", ".join(f"count(doc('u{i}')//b)" for i in range(16)) + ")"
    compiled = Engine().compile(query)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            loader = RecordingLoader(docs)
            result = compiled.execute(document_loader=loader)
            assert result.values() == list(range(16))
            assert sorted(loader.calls) == sorted(docs)
    finally:
        sys.setswitchinterval(interval)


def test_group_executors_are_gone():
    # 3.0: one sequential plan per query — no ParallelSeq, no group
    # executors, no parallelizability analysis
    import importlib

    import repro.service

    for name in ("ThreadGroupExecutor", "SequentialExecutor",
                 "ForkGroupExecutor", "default_executor"):
        assert not hasattr(repro.service, name)
        with pytest.raises(ImportError):
            exec(f"from repro.service import {name}")
    for module in ("repro.service.executors", "repro.compiler.parallel"):
        with pytest.raises(ImportError):
            importlib.import_module(module)


class TestRetryingLoader:
    def test_transient_failures_retry(self):
        calls = {"n": 0}

        def flaky(uri):
            calls["n"] += 1
            if calls["n"] <= 2:
                raise OSError("transient")
            return "<a><b/></a>"

        loader = RetryingDocumentLoader(flaky, retries=3, base_delay=0.001)
        assert loader("u") == "<a><b/></a>"
        assert calls["n"] == 3
        assert loader.stats["service.loader_retries"] == 2

    def test_permanent_failure_raises(self):
        def broken(uri):
            raise OSError("gone")

        loader = RetryingDocumentLoader(broken, retries=2, base_delay=0.001)
        with pytest.raises(OSError):
            loader("u")

    def test_service_wires_retry_counts_into_result_stats(self):
        calls = {"n": 0}

        def flaky(uri):
            calls["n"] += 1
            if calls["n"] == 1:
                raise OSError("transient")
            return "<a><b/></a>"

        with service(max_workers=1, retry_base_delay=0.001) as svc:
            result = svc.execute("count(doc('u')//b)", document_loader=flaky)
            assert result.values() == [1]
            assert result.stats["service.loader_retries"] == 1

    def test_prefetched_retries_count_into_result_stats(self):
        # both loads run on prefetch threads, before the result exists
        failed = set()
        lock = threading.Lock()

        def flaky(uri):
            with lock:
                first = uri not in failed
                failed.add(uri)
            if first:
                raise OSError("transient")
            return "<a><b/></a>"

        with service(max_workers=1, retry_base_delay=0.001) as svc:
            result = svc.execute("count(doc('u')//b) + count(doc('v')//b)",
                                 document_loader=flaky)
            assert result.values() == [2]
            assert result.stats["service.loader_retries"] == 2

    def test_cancel_mid_backoff_interrupts_sleep(self):
        # regression: pre-1.5 the loader slept the whole backoff before
        # noticing a cancel() that landed mid-sleep; the sliced sleep
        # must surface QueryCancelled within a slice, not after the
        # full delay
        token = CancellationToken()

        def always_transient(uri):
            raise OSError("transient")

        loader = RetryingDocumentLoader(always_transient, retries=1,
                                        base_delay=5.0, token=token)
        timer = threading.Timer(0.05, token.cancel, args=("client gone",))
        timer.start()
        started = time.monotonic()
        try:
            with pytest.raises(QueryCancelled):
                loader("u")
        finally:
            timer.cancel()
        elapsed = time.monotonic() - started
        assert elapsed < 1.0, (
            f"cancel took {elapsed:.2f}s to interrupt a 5s backoff")

    def test_deadline_caps_backoff_sleep(self):
        # a near-expired deadline must cap the backoff: the loader may
        # not sleep past the token's remaining time
        token = CancellationToken.with_timeout(0.08)

        def always_transient(uri):
            raise OSError("transient")

        loader = RetryingDocumentLoader(always_transient, retries=3,
                                        base_delay=10.0, token=token)
        started = time.monotonic()
        with pytest.raises((QueryCancelled, OSError)):
            loader("u")
        assert time.monotonic() - started < 1.0

    def test_query_errors_not_retried(self):
        calls = {"n": 0}

        def loader(uri):
            calls["n"] += 1
            return None  # not found → FODC0002, not transient

        with service(max_workers=1) as svc:
            with pytest.raises(Exception):
                svc.execute("doc('missing')", document_loader=loader)
            assert calls["n"] == 1
