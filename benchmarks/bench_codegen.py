"""E15 — compile-to-source codegen vs closure interpretation.

Claim (paper §"Compilation into an executable", revisited): the
closure interpreter pays a Python frame per operator per item.
Emitting one specialized Python function per query — whole FLWOR
bodies, path chains, predicate filters, and aggregate tails collapsed
into flat loops — removes those frames entirely.  Target: ≥2x over the
closure interpreter on XMark scan/aggregate shapes with byte-identical
results.  (The block-at-a-time family this was also measured against
through 1.8 is retired: EXPERIMENTS.md E14 has its final numbers.)

The document is parsed ONCE per session (``xmark_s08_doc``); timing
``execute(context_item=xml_text)`` would measure the parser.
"""

import pytest

from repro.compiler.reference import ReferenceEngine
from repro.engine import Engine

#: the XMark scan/aggregate shapes, measured on both executors
QUERIES = [
    ("descendant scan + count", "count(/site/regions//item)"),
    ("scan + filter + step", "/site/regions//item[@id]/name"),
    ("descendant aggregate", "count(//description)"),
    ("child-chain scan", "count(//item/name)"),
    ("for-where-return",
     "for $i in /site/regions//item where $i/location return $i/name"),
]


@pytest.fixture(scope="module")
def closure_engine():
    return ReferenceEngine()


@pytest.fixture(scope="module")
def source_engine():
    return Engine()


@pytest.mark.parametrize("label,query", QUERIES, ids=[q[0] for q in QUERIES])
def test_closure_mode(benchmark, closure_engine, xmark_s08_doc, label, query):
    compiled = closure_engine.compile(query)
    benchmark.group = f"E15 {label}"
    benchmark.name = "closure"
    result = benchmark(
        lambda: compiled.execute(context_item=xmark_s08_doc).items())
    assert result is not None


@pytest.mark.parametrize("label,query", QUERIES, ids=[q[0] for q in QUERIES])
def test_source_mode(benchmark, source_engine, xmark_s08_doc, label, query):
    compiled = source_engine.compile(query)
    benchmark.group = f"E15 {label}"
    benchmark.name = "source"
    result = benchmark(
        lambda: compiled.execute(context_item=xmark_s08_doc).items())
    assert result is not None


def test_backends_agree(closure_engine, source_engine, xmark_s08_doc):
    """Source plans must serialize byte-identically to closure plans."""
    for _, query in QUERIES:
        closure = closure_engine.compile(query) \
            .execute(context_item=xmark_s08_doc).serialize()
        source = source_engine.compile(query) \
            .execute(context_item=xmark_s08_doc).serialize()
        assert source == closure, query
