"""The concurrent query service: cancellation, deadlines, admission
control, parallel-group executors, and loader retry."""

import threading
import time

import pytest

import repro
from repro import CancellationToken, Engine, ExecutionOptions
from repro.errors import QueryCancelled, QueryTimeout, ServiceOverloaded
from repro.service import (
    QueryService,
    RetryingDocumentLoader,
    SequentialExecutor,
    ThreadGroupExecutor,
)
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


class TestExecutors:
    QUERY = "(sum(1 to 500), sum(1 to 600), sum(1 to 700))"
    EXPECTED = [125250, 180300, 245350]

    def test_sequential_executor_declines(self):
        engine = Engine(executor=SequentialExecutor())
        result = engine.compile(self.QUERY).execute()
        assert result.values() == self.EXPECTED
        assert result.stats["parallel.fallback_sequential"] >= 1
        assert "parallel.groups_run" not in result.stats

    def test_thread_executor_matches_sequential(self):
        with ThreadGroupExecutor(max_workers=4) as executor:
            result = Engine(executor=executor).compile(self.QUERY).execute()
            assert result.values() == self.EXPECTED
            assert result.stats["parallel.groups_run"] >= 1

    def test_thread_executor_saturated_falls_back(self):
        # one worker can never host a 3-member group: inline fallback
        with ThreadGroupExecutor(max_workers=1) as executor:
            result = Engine(executor=executor).compile(self.QUERY).execute()
            assert result.values() == self.EXPECTED
            assert result.stats["parallel.fallback_sequential"] >= 1

    def test_thread_executor_returns_nodes_intact(self):
        with ThreadGroupExecutor(max_workers=4) as executor:
            result = Engine(executor=executor).compile(
                "($d//b, $d//b)", variables=("d",)).execute(
                variables={"d": repro.xml("<a><b/></a>")})
            # threads share the heap: node members need no transport
            assert result.serialize() == "<b/><b/>"
            assert result.stats["parallel.groups_run"] >= 1

    def test_fork_per_group_executor_is_gone(self):
        # 2.0: ForkWorkerPool is the one fork transport
        import repro.service

        for name in ("ForkGroupExecutor", "default_executor"):
            assert not hasattr(repro.service, name)
            assert not hasattr(repro.service.executors, name)
        with pytest.raises(ImportError):
            from repro.service import ForkGroupExecutor  # noqa: F401
        with pytest.raises(ImportError):
            from repro.service import default_executor  # noqa: F401

    def test_member_error_surfaces(self):
        with ThreadGroupExecutor(max_workers=4) as executor:
            engine = Engine(executor=executor,
                            options=ExecutionOptions(static_typing=False))
            with pytest.raises(Exception):
                engine.compile("(1 + 2, 'x' + 1, 3 + 4)").execute().items()

    def test_parallel_seq_in_explain(self):
        with ThreadGroupExecutor(max_workers=4) as executor:
            explained = Engine(executor=executor).explain(self.QUERY,
                                                          analyze=True)
            assert "ParallelSeq" in str(explained)
            stats = explained.to_dict()["engine_stats"]
            assert stats["parallel.groups_run"] >= 1

    def test_flwor_independent_sources_prefetch(self):
        query = ("for $a in (1 to 50), $b in (51 to 100) "
                 "return $a + $b")
        with ThreadGroupExecutor(max_workers=4) as executor:
            parallel = Engine(executor=executor).compile(query).execute()
            sequential = Engine().compile(query).execute()
            assert parallel.values() == sequential.values()
            assert parallel.stats["parallel.groups_run"] >= 1

    def test_flwor_dependent_sources_not_parallel(self):
        query = ("for $x in $d//x, $y in $x/y return $y")
        with ThreadGroupExecutor(max_workers=4) as executor:
            result = Engine(executor=executor).compile(
                query, variables=("d",)).execute(
                variables={"d": repro.xml(slow_doc(5))})
            assert len(result.items()) == 5
            assert "parallel.groups_run" not in result.stats


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
