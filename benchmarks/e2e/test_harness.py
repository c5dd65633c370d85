"""Self-tests of the benchmark harness (not part of the tier-1 suite).

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import dataclasses
import json
import re
import socket
import sys
from collections import deque
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import metrics as M  # noqa: E402
import procs  # noqa: E402
import run as harness  # noqa: E402
from loadgen import Client, Sample  # noqa: E402
from workloads import (  # noqa: E402
    GATED, WORKLOADS, RegisteredExec, sequence_hash)

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


@pytest.fixture(scope="module")
def smoke():
    return harness.run(list(WORKLOADS), seed=3, seconds=1.0, trace=False,
                       setup_repeats=1)


def test_smoke_emits_every_metric_of_every_workload(smoke):
    assert list(smoke) == list(WORKLOADS)
    for name, result in smoke.items():
        assert NAME.match(name)
        assert result["correct"], result["problems"]
        assert result["attempted"] >= 1 and result["failed"] == 0
        assert list(result["metrics"]) == [m.name for m in M.END_TO_END]
        for metric, entry in result["metrics"].items():
            assert NAME.match(metric)
            assert entry["value"] > 0, (name, metric)
        line = json.loads(harness.driver_line(result))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}


def test_benchmark_json_matches_the_harness():
    spec = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(GATED)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == \
        {name: WORKLOADS[name].why for name in GATED}
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]] == \
        [(m.name, m.unit, m.better, m.bound) for m in M.END_TO_END]
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == \
        [(m.name, m.unit, m.better) for m in M.PER_LAYER]
    assert spec["paths"] == ["benchmarks/e2e"]
    assert spec["run_seconds"] == harness.DEFAULT_SECONDS


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_request_sequence_is_a_function_of_the_seed(name):
    first = sequence_hash(WORKLOADS[name](11).sample(40))
    again = sequence_hash(WORKLOADS[name](11).sample(40))
    other = sequence_hash(WORKLOADS[name](12).sample(40))
    assert first == again
    assert first != other


def test_committed_expectations_match_the_oracle():
    assert harness.check_expectations(harness.DEFAULT_SEED,
                                      list(WORKLOADS)) == []


def test_percentile_rule_keeps_ten_samples_beyond():
    # the quiet rounds always hold the 200 samples a p95 needs ...
    rates = [50.0, 80.0, 60.0, 90.0, 70.0, 40.0, 85.0, 30.0]
    for per_round in (25, 60, 100, 450):
        chosen = M.quiet_rounds(rates, [per_round] * len(rates))
        assert len(chosen) * per_round * (100 - 95) / 100 >= 10
    # ... they are the fastest quarter where that is enough ...
    assert M.quiet_rounds(rates, [450] * 8) == [3, 6]
    # ... and the next fastest join until it is
    assert M.quiet_rounds(rates, [60] * 8) == [1, 3, 4, 6]
    assert M.quiet_rounds([5.0], [3]) == [0]
    assert M.percentile(list(range(1, 201)), 95) == 190


def _one_sample(run_, client):
    op = next(run_.workload.cycles())[0]
    return client.run(deque([[op]]), float("inf"))[0]


def test_wrong_answer_and_refused_connection_count_as_failed(tmp_path):
    run_ = harness.WorkloadRun(RegisteredExec(5), tmp_path, 1)
    try:
        run_.setup()
        good = _one_sample(run_, run_.client)
        assert run_.check(good)
        # a deliberately wrong oracle
        lying = dataclasses.replace(
            good.op, key=("lying",), expect=lambda: [{"node": "not this"}])
        assert not run_.check(Sample(lying, good.start, good.latency,
                                     good.raw))
        # a non-200 reply
        assert not run_.check(Sample(
            good.op, 0.0, 0.0,
            b"HTTP/1.1 503 Service Unavailable\r\nContent-Length: 2\r\n\r\n{}"))
    finally:
        run_.close()
    # nobody listens here any more: the connection is refused
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    refused = _one_sample(run_, Client(port))
    assert refused.raw is None and not run_.check(refused)
    done = harness.Round([refused], [False], 0.0, 0.0, 1.0)
    assert (done.attempted, done.failed, done.rate) == (1, 1, 0.0)


def test_server_tree_is_reaped_after_a_failing_run(monkeypatch):
    class Broken(RegisteredExec):
        name = "broken"

        def registrations(self):
            return [(self.tenant, "bad", "for $x in (", ())]

    seen: list[int] = []
    start = procs.ServerProcess.start

    def recording_start(self, *args, **kwargs):
        started = start(self, *args, **kwargs)
        seen.extend(started.tree())
        return started

    monkeypatch.setitem(harness.WORKLOADS, "broken", Broken)
    monkeypatch.setattr(procs.ServerProcess, "start", recording_start)
    with pytest.raises(RuntimeError, match="set-up request refused"):
        harness.run(["broken"], seed=5, seconds=1.0, trace=False,
                    setup_repeats=1)
    assert len(seen) == 3          # the server and its two children
    assert all(procs.process_ended(pid) for pid in seen)


def test_compare_flags_regressions_and_wide_spreads():
    def result(p50, rounds):
        metrics = {m.name: {"value": 1.0, "unit": m.unit, "rounds": [1.0, 1.0]}
                   for m in M.END_TO_END}
        metrics["latency_p50_ms"] = {"value": p50, "unit": "ms",
                                     "rounds": rounds}
        return {"workloads": {"w": {"attempted": 10, "failed": 0,
                                    "metrics": metrics}}}

    bound = M.END_TO_END[0].bound
    assert M.END_TO_END[0].name == "latency_p50_ms"
    base = result(1.0, [1.0, 1.0, 1.0, 1.0])
    worse = 1.0 + bound + 0.05
    rows, failed = compare.compare(base, result(worse, [worse] * 4))
    assert failed and rows[0][-1] == "regression"
    noisy = [1 - bound, 1.0, 1.1, 1 + 2 * bound]
    rows, failed = compare.compare(base, result(1.05, noisy))
    assert not failed and rows[0][-1] == "unresolved"
    rows, failed = compare.compare(base, result(1.02, [1.02] * 4))
    assert not failed and rows[0][-1] == "unchanged"
    worse = result(1.0, [1.0] * 4)
    worse["workloads"]["w"]["failed"] = 1
    assert compare.compare(base, worse)[1]
