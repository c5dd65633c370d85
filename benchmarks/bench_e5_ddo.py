"""E5 — eliding sort-by-document-order + duplicate elimination.

Claim (the tutorial's table): "$document/a/b/c guaranteed to return
results in doc order and not to have duplicates; $document/a//b
guaranteed too; $document//a/b NOT guaranteed in doc order but no
duplicates; //a//b nothing can be said" — and the compiler should use
exactly these facts to skip the expensive DDO operation.

Series reported: per path family, the optimized plan (DDO elided where
provable) vs the unoptimized plan (DDO after every step).  Shape
target: big wins on /a/b/c and /a//b, shrinking to parity on //a//b
where the sort is genuinely required.
"""

import pytest

from repro import Engine, ExecutionOptions
from repro.workloads.synthetic import nested_sections

_xml = nested_sections(depth=7, fanout=2)

#: the slide's four path families over a self-nesting document
PATHS = [
    ("child-chain /a/b/c", "/doc/section/section/title"),
    ("trailing-descendant /a//b", "/doc/section//title"),
    ("descendant-child //a/b", "//section/title"),
    ("double-descendant //a//b", "//section//title"),
]

_opt = Engine(options=ExecutionOptions(optimize=True))
_raw = Engine(options=ExecutionOptions(optimize=False))
_compiled = {(name, label): engine.compile(f"count({path})")
             for name, engine in (("optimized", _opt), ("unoptimized", _raw))
             for label, path in PATHS}


@pytest.fixture(scope="module")
def doc():
    from repro.xdm.build import parse_document

    return parse_document(_xml)


@pytest.mark.parametrize("label,path", PATHS, ids=[p[0] for p in PATHS])
def test_optimized(benchmark, label, path, doc):
    benchmark.group = f"E5 {label}"
    out = benchmark(lambda: _compiled[("optimized", label)]
                    .execute(context_item=doc).values())
    assert out[0] > 0


@pytest.mark.parametrize("label,path", PATHS, ids=[p[0] for p in PATHS])
def test_unoptimized(benchmark, label, path, doc):
    benchmark.group = f"E5 {label}"
    out = benchmark(lambda: _compiled[("unoptimized", label)]
                    .execute(context_item=doc).values())
    assert out[0] > 0


@pytest.mark.parametrize("label,path", PATHS, ids=[p[0] for p in PATHS])
def test_results_identical(label, path, doc):
    fast = _compiled[("optimized", label)].execute(context_item=doc).values()
    slow = _compiled[("unoptimized", label)].execute(context_item=doc).values()
    assert fast == slow


def test_sort_counts_match_the_slide(doc):
    """/a/b/c and /a//b run zero doc-order sorts; //a/b and //a//b don't."""
    def sorts(label):
        result = _compiled[("optimized", label)].execute(context_item=doc)
        result.items()
        return result.stats.get("ddo_sorts", 0)

    assert sorts("child-chain /a/b/c") == 0
    assert sorts("trailing-descendant /a//b") == 0
    assert sorts("descendant-child //a/b") >= 1
    assert sorts("double-descendant //a//b") >= 1
