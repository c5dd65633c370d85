#!/usr/bin/env python3
"""Compare two result files of ``run.py --out``.

    python3 benchmarks/e2e/compare.py old.json new.json

One row per workload and end-to-end metric: base, new, ratio
(new / base), the metric's bound and direction, and a verdict:

- ``regression``  the new median is worse than the base by more than the
  bound;
- ``unresolved``  the spread of either side's quiet rounds (distance
  between the quartiles of what each of them measured alone, as a share
  of their median) is wider than the bound: not even the quiet part of
  that run was quiet, so a difference of that size cannot be told from
  noise -- this is *not* "unchanged";
- ``improved`` / ``unchanged`` otherwise.

Exit code 1 on any regression or when more operations failed than in
the base.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import metrics as M  # noqa: E402


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median (0 for fewer
    than two values)."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def verdict(metric: M.Metric, base: dict, new: dict) -> tuple[float, str]:
    ratio = new["value"] / base["value"] if base["value"] else float("inf")
    worse = ratio - 1 if metric.better == "lower" else 1 - ratio
    if worse > metric.bound:
        return ratio, "regression"
    if max(spread(base.get("rounds", [])),
           spread(new.get("rounds", []))) > metric.bound:
        return ratio, "unresolved"
    return ratio, "improved" if worse < -metric.bound else "unchanged"


def compare(old: dict, new: dict) -> tuple[list[tuple], bool]:
    rows, failed = [], False
    for name, base in old["workloads"].items():
        result = new["workloads"].get(name)
        if result is None:
            rows.append((name, "-", "", "", "", "", "", "missing"))
            failed = True
            continue
        for metric in M.END_TO_END:
            ratio, word = verdict(metric, base["metrics"][metric.name],
                                  result["metrics"][metric.name])
            failed |= word == "regression"
            rows.append((name, metric.name,
                         f"{base['metrics'][metric.name]['value']:.4g}",
                         f"{result['metrics'][metric.name]['value']:.4g}",
                         f"{ratio:.3f}", f"{metric.bound:.2f}",
                         metric.better, word))
        more_failures = result["failed"] * base["attempted"] \
            > base["failed"] * result["attempted"]
        failed |= more_failures
        rows.append((name, "failed/attempted",
                     f"{base['failed']}/{base['attempted']}",
                     f"{result['failed']}/{result['attempted']}", "", "0",
                     "lower", "regression" if more_failures else "unchanged"))
    return rows, failed


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    old, new = (json.loads(Path(p).read_text()) for p in argv)
    rows, failed = compare(old, new)
    header = ("workload", "metric", "base", "new", "ratio", "bound",
              "better", "verdict")
    widths = [max(len(str(r[i])) for r in rows + [header])
              for i in range(len(header))]
    for row in [header] + rows:
        print("  ".join(str(cell).ljust(w) for cell, w in zip(row, widths)))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
