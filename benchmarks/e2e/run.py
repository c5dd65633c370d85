#!/usr/bin/env python3
"""The end-to-end benchmark: five HTTP workloads against ``repro serve``.

Two ways to run it::

    # one workload, the form the benchmark driver uses; the last line of
    # standard output is one JSON object
    python3 benchmarks/e2e/run.py --workload cached_hot --seed 7 \\
        --seconds 18 --trace 0

    # the whole ledger: every workload, rounds interleaved round-robin,
    # end-to-end metrics and (with --trace) the per-layer waterfall
    python3 benchmarks/e2e/run.py --seed 2004 --trace --out BENCH.json

See README.md beside this file for what is measured and why.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import sys
import time
from collections import deque
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC_DIR = HERE.parents[1] / "src"
if not (SRC_DIR / "repro" / "__init__.py").is_file():
    sys.exit(f"run.py: the program under test is missing ({SRC_DIR}/repro); "
             "run from a checkout of the repository")
sys.path[:0] = [str(HERE), str(SRC_DIR)]

import metrics as M  # noqa: E402
from loadgen import Client, Sample  # noqa: E402
from procs import ServerProcess  # noqa: E402
from queries import same_items  # noqa: E402
from workloads import (  # noqa: E402
    DEFAULT_SEED, SAMPLE_OPS, WORKLOADS, Workload, answer_digest,
    sequence_hash)

#: length of one timed round (longer where one cycle takes longer);
#: rounds follow each other until ``--seconds`` have been measured
ROUND_SECONDS = 0.5
SETUP_REPEATS = 5
DEFAULT_SECONDS = 18
OUT_DIR = HERE / "out"


class Round:
    """What one timed round of one workload measured."""

    def __init__(self, samples: list[Sample], ok: list[bool],
                 server_cpu: float, loadgen_cpu: float, wall: float):
        self.attempted = len(samples)
        self.failed = ok.count(False)
        self.latencies = [s.latency for s, good in zip(samples, ok) if good]
        self.server_cpu = server_cpu
        self.loadgen_cpu = loadgen_cpu
        self.wall = wall

    @property
    def rate(self) -> float:
        """Correct completed operations per second."""
        return len(self.latencies) / self.wall if self.wall else 0.0


class WorkloadRun:
    """One workload's server, client and measurements."""

    def __init__(self, workload: Workload, root: Path, setup_repeats: int):
        self.workload = workload
        self.root = root
        self.setup_repeats = setup_repeats
        self.server: ServerProcess | None = None
        self.client: Client | None = None
        self.generator = None
        self.queue: deque = deque()
        self.setup_times: list[float] = []
        self.rounds: list[Round] = []
        self.cycles_per_second = 1.0
        self.peak_rss_mb = 0.0
        self.extra_attempted = self.extra_failed = 0
        self.problems: list[str] = []
        self._expected: dict = {}
        self._verified: set = set()
        #: (tenant, document) -> XML of the last acknowledged PUT
        self.acknowledged = {(t, n): xml
                             for t, n, xml in workload.documents()}

    # -- set-up ---------------------------------------------------------------

    def _start_server(self, tag: str, data_dir: Path | None = None):
        return ServerProcess(data_dir or self.root / f"data-{tag}",
                             self.root / f"server-{tag}.log").start()

    def setup(self) -> None:
        """Server start, ingest, register and warm-up until ready --
        ``setup_repeats`` times from nothing; the last one stays up."""
        workload = self.workload
        setup_requests = workload.setup_requests()
        for attempt in range(self.setup_repeats):
            self.generator = workload.cycles()
            warm = deque([workload.warmup_ops()]
                         + [next(self.generator)
                            for _ in range(workload.warm_cycles)])
            last_cycle = len(warm[-1])
            started = time.perf_counter()
            self.server = self._start_server(str(attempt))
            self.client = Client(self.server.port)
            for request in setup_requests:
                reply = self.client.request(request)
                if reply.status != 200:
                    raise RuntimeError(
                        f"{workload.name}: set-up request refused: "
                        f"{reply.status} {reply.body[:300]!r}")
            samples = self.client.run(warm, math.inf)
            self.setup_times.append(time.perf_counter() - started)
            bad = [s for s in samples if not self.check(s)]
            if bad:
                raise RuntimeError(
                    f"{workload.name}: {len(bad)} warm-up operations "
                    f"failed, first: {_describe(bad[0])}")
            self._acknowledge(samples)
            # the pace of the last, warmest cycle sizes the first round
            tail = samples[-last_cycle:]
            self.cycles_per_second = 1.0 / max(
                1e-6, tail[-1].start + tail[-1].latency - tail[0].start)
            if attempt + 1 < self.setup_repeats:
                self.close()
                shutil.rmtree(self.server.data_dir, ignore_errors=True)
        self.queue = deque()

    # -- measurement ----------------------------------------------------------

    def check(self, sample: Sample) -> bool:
        """Did this operation complete with the oracle's answer?"""
        raw, op = sample.raw, sample.op
        if raw is None or not raw.startswith(b"HTTP/1.1 200 "):
            return False
        body = raw[raw.find(b"\r\n\r\n") + 4:]
        if (op.key, body) in self._verified:
            return True       # byte-identical to a reply already checked
        try:
            reply = json.loads(body)
        except ValueError:
            return False
        if op.expect is None:
            good = reply.get("document") == op.call[1]
        else:
            expected = self._expected.get(op.key)
            if expected is None:
                expected = self._expected[op.key] = op.expect()
            good = same_items(reply.get("items"), expected)
        if good:
            self._verified.add((op.key, body))
        return good

    def _acknowledge(self, correct_samples) -> None:
        """Remember the content of every PUT the server acknowledged
        (samples in the order they were sent)."""
        for sample in correct_samples:
            if sample.op.expect is None:
                tenant, doc, xml = sample.op.call
                self.acknowledged[(tenant, doc)] = xml

    def measure_round(self, seconds: float) -> Round:
        """One timed round.  A round that used up its prepared cycles
        before the time was over measured the harness's guess of the
        rate, not the server: it only counts its operations and is run
        again with the rate it has just seen."""
        while True:
            done, exhausted = self._timed_round(seconds)
            if not exhausted:
                self.rounds.append(done)
                return done
            self.extra_attempted += done.attempted
            self.extra_failed += done.failed

    def _timed_round(self, seconds: float) -> tuple[Round, bool]:
        # requests are generated and encoded here, before the clock starts
        want = int(self.cycles_per_second * seconds * 2) + 2
        while len(self.queue) < want:
            self.queue.append(next(self.generator))
        cpu0, own0 = self.server.cpu_seconds(), time.process_time()
        t0 = time.perf_counter()
        samples = self.client.run(self.queue, t0 + seconds)
        wall = time.perf_counter() - t0
        own1, cpu1 = time.process_time(), self.server.cpu_seconds()
        ok = [self.check(s) for s in samples]
        self._acknowledge(s for s, good in zip(samples, ok) if good)
        bad = [s for s, good in zip(samples, ok) if not good]
        self.problems += [_describe(s) for s in bad[:5 - len(self.problems)]]
        left = len(self.queue)
        self.cycles_per_second = max(self.cycles_per_second,
                                     (want - left) / wall)
        return Round(samples, ok, cpu1 - cpu0, own1 - own0, wall), left == 0

    # -- the end --------------------------------------------------------------

    def finish(self) -> None:
        """Memory high-water mark, then -- for a workload that wrote --
        SIGKILL, restart on the same data directory, and read back."""
        self.peak_rss_mb = self.server.peak_rss_mb()
        checks = self.workload.restart_ops(self.acknowledged)
        if not checks:
            return
        data_dir = self.server.data_dir
        self.close(kill=True)
        self.server = self._start_server("restart", data_dir)
        self.client = Client(self.server.port)
        samples = self.client.run(deque([checks]), math.inf)
        bad = [s for s in samples if not self.check(s)]
        self.extra_attempted += len(samples)
        self.extra_failed += len(bad)
        self.problems += ["after restart: " + _describe(s) for s in bad[:5]]

    def close(self, kill: bool = False) -> None:
        if self.client is not None:
            self.client.close()
            self.client = None
        if self.server is not None:
            if kill:
                self.server.kill()
            else:
                self.server.stop()

    # -- results --------------------------------------------------------------

    @property
    def measured(self) -> float:
        """Seconds of timed rounds so far."""
        return sum(r.wall for r in self.rounds)

    @property
    def attempted(self) -> int:
        return sum(r.attempted for r in self.rounds) + self.extra_attempted

    @property
    def failed(self) -> int:
        return sum(r.failed for r in self.rounds) + self.extra_failed

    def end_to_end(self) -> dict:
        """name -> {"value", "unit", "rounds"}.  Latency, throughput and
        CPU are taken over the quiet rounds pooled (see
        ``metrics.quiet_rounds``) and ``rounds`` holds what each of those
        rounds measured alone; set-up time is the fastest of the set-ups
        (a disturbance only ever slows one down) and peak memory is read
        once."""
        rounds = self.rounds
        quiet = [rounds[i] for i in M.quiet_rounds(
            [r.rate for r in rounds], [len(r.latencies) for r in rounds])]
        pooled = sorted(lat for r in quiet for lat in r.latencies)
        values = {
            "latency_p50_ms": M.percentile(pooled, 50) * 1e3,
            "latency_p95_ms": M.percentile(pooled, 95) * 1e3,
            "throughput_rps": len(pooled) / sum(r.wall for r in quiet),
            "server_cpu_ms_per_op": sum(r.server_cpu for r in quiet)
            / sum(r.attempted for r in quiet) * 1e3,
            "peak_rss_mb": self.peak_rss_mb,
            "setup_s": min(self.setup_times),
        }
        series = {
            "latency_p50_ms": [M.percentile(r.latencies, 50) * 1e3
                               for r in quiet],
            # one round rarely holds the 200 samples a p95 needs
            "latency_p95_ms": [M.percentile(r.latencies, 95) * 1e3
                               for r in quiet
                               if len(r.latencies) >= M.MIN_WINDOW],
            "throughput_rps": [r.rate for r in quiet],
            "server_cpu_ms_per_op": [r.server_cpu / r.attempted * 1e3
                                     for r in quiet],
            "peak_rss_mb": [self.peak_rss_mb],
            "setup_s": self.setup_times,
        }
        return {m.name: {"value": values[m.name], "unit": m.unit,
                         "rounds": series[m.name]} for m in M.END_TO_END}

    def quiet_share(self) -> float:
        """Share of all rounds whose rate is within a tenth of the quiet
        rounds' -- how much of the run the machine left undisturbed."""
        rates = [r.rate for r in self.rounds]
        quiet = M.quiet_rounds(rates, [len(r.latencies) for r in self.rounds])
        level = statistics.median(rates[i] for i in quiet)
        return sum(1 for rate in rates if rate >= 0.9 * level) / len(rates)

    def loadgen_cpu_share(self) -> float:
        shares = [r.loadgen_cpu / r.wall for r in self.rounds if r.wall]
        return statistics.median(shares) if shares else 0.0


def _describe(sample: Sample) -> str:
    head = "no reply" if sample.raw is None else repr(sample.raw[-200:])
    return f"{sample.op.kind} {sample.op.key!r}: {head}"


# -- committed expectations ----------------------------------------------------

def expectations(seed: int, names: list[str]) -> dict:
    """Request-sequence hash and per-operation answer digests of each
    workload's sample, computed by the oracle alone."""
    out = {}
    for name in names:
        ops = WORKLOADS[name](seed).sample(SAMPLE_OPS)
        out[name] = {"sequence_sha256": sequence_hash(ops),
                     "answers": [answer_digest(op) for op in ops]}
    return out


def expected_path(seed: int) -> Path:
    return HERE / f"expected-{seed}.json"


def check_expectations(seed: int, names: list[str]) -> list[str]:
    """Names whose sample no longer matches the committed file (only a
    seed that has one is checked)."""
    path = expected_path(seed)
    if not path.is_file():
        return []
    committed = json.loads(path.read_text())["workloads"]
    now = expectations(seed, names)
    return [name for name in names if committed.get(name) != now[name]]


# -- running -------------------------------------------------------------------

def one_core() -> None:
    """Pin this process, and with it every process it starts, to one
    core.  A client that waits for each reply keeps one process busy at
    a time; spread over two virtual cores, each of them keeps going idle
    and the host takes its time to wake it (measured on adhoc_compile:
    throughput of 15-second runs 83-104 1/s free, 101-113 1/s pinned).
    Affinity is inherited, so the server is still started without any
    flag of the harness's."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def environment(seed: int) -> dict:
    commit = "unknown"
    head = HERE.parents[1] / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            target = head.parent / ref[5:]
            ref = target.read_text().strip() if target.is_file() else ref
        commit = ref
    return {"cores": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform(), "commit": commit,
            "loadavg_at_start": list(os.getloadavg()), "seed": seed,
            "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}


def run(names: list[str], seed: int, seconds: float, trace: bool,
        setup_repeats: int = SETUP_REPEATS) -> dict:
    """Run the named workloads; their rounds interleave round-robin."""
    root = OUT_DIR / f"tmp-{os.getpid()}"
    shutil.rmtree(root, ignore_errors=True)
    root.mkdir(parents=True)
    drifted = check_expectations(seed, names)
    runs = [WorkloadRun(WORKLOADS[name](seed), root / name,
                        1 if trace else setup_repeats) for name in names]
    results: dict = {}
    try:
        for one in runs:
            one.root.mkdir()
            one.setup()
        if trace:
            import layers

            for one in runs:
                results[one.workload.name] = layers.trace(one, seconds,
                                                          OUT_DIR)
        else:
            while pending := [one for one in runs if one.measured < seconds]:
                for one in pending:
                    one.measure_round(ROUND_SECONDS)
            for one in runs:
                one.finish()
                name = one.workload.name
                results[name] = {
                    "attempted": one.attempted, "failed": one.failed,
                    "correct": one.failed == 0 and name not in drifted,
                    "metrics": one.end_to_end(),
                    "quiet_share": one.quiet_share(),
                    "loadgen_cpu_share": one.loadgen_cpu_share(),
                    "problems": one.problems + (
                        ["sample differs from " + expected_path(seed).name]
                        if name in drifted else [])}
    finally:
        for one in runs:
            one.close()
        shutil.rmtree(root, ignore_errors=True)
    return results


def report(results: dict, stream=sys.stdout) -> None:
    for name, result in results.items():
        print(f"== {name}: attempted {result['attempted']}, "
              f"failed {result['failed']}, "
              f"correct {str(result['correct']).lower()}", file=stream)
        for metric, entry in list(result["metrics"].items()) \
                + list(result.get("per_layer", {}).items()):
            print(f"{name}.{metric} {entry['value']:.6g} {entry['unit']}",
                  file=stream)
        for problem in result.get("problems", []):
            print(f"!! {name}: {problem}", file=sys.stderr)
        share = result.get("loadgen_cpu_share", 0.0)
        if share > M.LOADGEN_CPU_LIMIT:
            print(f"!! {name}: invalid run, the load generator used "
                  f"{share:.2f} of a core (limit {M.LOADGEN_CPU_LIMIT})",
                  file=sys.stderr)


def driver_line(result: dict) -> str:
    """The one JSON object the benchmark driver reads."""
    return json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {name: {"value": entry["value"], "unit": entry["unit"]}
                    for name, entry in result["metrics"].items()}})


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run one workload and end with the driver's "
                             "JSON line (default: all five, interleaved)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="measured time per workload")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=(0, 1),
                        help="1: the traced single-client pass and the "
                             "in-process replay; prints per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="about one second per workload, one set-up")
    parser.add_argument("--out", type=Path,
                        help="write the full result as JSON")
    parser.add_argument("--write-expected", action="store_true",
                        help="write expected-<seed>.json from the oracle "
                             "and exit")
    args = parser.parse_args(argv)
    names = [args.workload] if args.workload else list(WORKLOADS)
    if args.write_expected:
        expected_path(args.seed).write_text(json.dumps(
            {"seed": args.seed, "sample_ops": SAMPLE_OPS,
             "workloads": expectations(args.seed, list(WORKLOADS))},
            indent=1) + "\n")
        return 0
    # a SIGTERM must still unwind through the finally blocks that end
    # the server processes
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    one_core()
    env = environment(args.seed)
    seconds, shape = (1.0, {"setup_repeats": 1}) \
        if args.smoke else (args.seconds, {})
    if args.workload:
        results = run(names, args.seed, seconds, bool(args.trace), **shape)
    else:
        # the ledger: end-to-end numbers always come from the untraced
        # run; the traced pass sets up again and adds the layers
        results = run(names, args.seed, seconds, False, **shape)
        if args.trace:
            traced = run(names, args.seed, seconds, True, **shape)
            for name, layer in traced.items():
                results[name]["correct"] &= layer["correct"]
                results[name]["attempted"] += layer["attempted"]
                results[name]["failed"] += layer["failed"]
                results[name]["problems"] += layer["problems"]
                results[name]["per_layer"] = layer["metrics"]
                results[name]["layer_self_ms"] = layer["layer_self_ms"]
    report(results)
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(
            {"environment": env, "seconds": args.seconds,
             "trace": bool(args.trace), "workloads": results},
            indent=1) + "\n")
    if args.workload:
        print(driver_line(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
