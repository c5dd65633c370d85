"""E16 — pattern-level twig planning: does ``auto`` track the winner?

Claims (PR 7, restated in time): per-pattern cost-based selection from
ingest statistics, with every plan priced in calibrated microseconds,
picks for each E6 shape a physical plan whose runtime sits on the
fastest forced strategy, within the 1.25x wall-clock gate — so the
engine, which always plans ``auto``, never pays a cross-shape penalty.

Series reported: per E6 shape, runtime of every forced algorithm plus
the statistics-driven ``auto`` bar over the same labeled index; the
planning call itself is benchmarked separately to show the decision
cost is negligible next to evaluation.  Shape targets: the auto bar
tracks the per-shape minimum; choose_twig_strategy runs in
microseconds (it reads pre-aggregated pair counts, never the document).
"""

import pytest

from repro.compiler.planner import choose_twig_strategy
from repro.joins import TwigNode, TwigPattern, evaluate_pattern
from repro.storage import ElementIndex
from repro.storage.stats import collect_stats
from repro.workloads.synthetic import random_tree
from repro.xdm.build import parse_document

from tests.test_twig_planner_differential import auto_time_ratio

#: every forced strategy, plus the cost-model-driven choice
ALGORITHMS = ("navigation", "binary", "twigstack", "mixed", "auto")


def _twig_branching() -> TwigPattern:
    root = TwigNode("item")
    root.add(TwigNode("keyword"), "descendant")
    out = root.add(TwigNode("text"), "descendant")
    out.is_output = True
    return TwigPattern(root)


PATTERNS = [
    ("A-D edge //open_auction//increase",
     TwigPattern.chain("open_auction", ("increase", "descendant"))),
    ("chain //person/address/city",
     TwigPattern.chain("person", ("address", "child"), ("city", "child"))),
    ("branching item[.//keyword]//text", _twig_branching()),
]


@pytest.fixture(scope="module")
def index(xmark_s08_index):
    return xmark_s08_index


@pytest.fixture(scope="module")
def stats(xmark_s08_doc):
    return collect_stats(xmark_s08_doc)


@pytest.fixture(scope="module")
def rare_leaf():
    # b everywhere, c rare: the shape where binary cascades blow up
    body = random_tree(3000, tags=("a", "b"), seed=3, max_depth=25)
    inner = body[len("<root>"):-len("</root>")]
    doc = parse_document("<root>" + inner + "<a><b/><c/></a>" * 5 + "</root>")
    root = TwigNode("a")
    root.add(TwigNode("b"), "descendant")
    out = root.add(TwigNode("c"), "descendant")
    out.is_output = True
    return ElementIndex(doc), collect_stats(doc), TwigPattern(root)


def _run(index, pattern, algorithm, stats):
    if algorithm == "auto":
        return evaluate_pattern(index, pattern, "auto", stats=stats)
    return evaluate_pattern(index, pattern, algorithm)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("label,pattern", PATTERNS, ids=[p[0] for p in PATTERNS])
def test_xmark_shapes(benchmark, index, stats, algorithm, label, pattern):
    benchmark.group = f"E16 {label}"
    benchmark.name = algorithm
    result = benchmark(_run, index, pattern, algorithm, stats)
    assert result


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_rare_leaf_twig(benchmark, rare_leaf, algorithm):
    index, skew_stats, pattern = rare_leaf
    benchmark.group = "E16 rare-leaf a[.//b]//c"
    benchmark.name = algorithm
    result = benchmark(_run, index, pattern, algorithm, skew_stats)
    assert len(result) == 5


@pytest.mark.parametrize("label,pattern", PATTERNS, ids=[p[0] for p in PATTERNS])
def test_planning_cost(benchmark, stats, label, pattern):
    """The decision itself: pure arithmetic over pre-aggregated pair
    counts — must be negligible next to any evaluation above."""
    benchmark.group = "E16 choose_twig_strategy"
    benchmark.name = label
    choice = benchmark(choose_twig_strategy, stats, pattern)
    assert choice.algorithm in ("twigstack", "binary", "navigation", "mixed")


@pytest.mark.parametrize("label,pattern", PATTERNS, ids=[p[0] for p in PATTERNS])
def test_auto_tracks_fastest_plan(xmark_s08_doc, label, pattern):
    """Companion to the timing series, through the perfsmoke gate's
    helper: auto's plan runs within 1.25x of the fastest forced plan
    (medians over interleaved repetitions)."""
    ratio, medians = auto_time_ratio(xmark_s08_doc, pattern)
    assert ratio <= 1.25, (label, round(ratio, 2), medians)
