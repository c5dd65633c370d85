"""E14 — block-at-a-time batched execution vs item-at-a-time.

Claim (paper §"Iterator model of execution", revisited): the lazy
item-at-a-time iterator model pays a per-item interpreter tax — one
generator hop, one focus object, one hook check per item per operator.
Compiling the relational core (path steps, predicate filters, FLWOR
loops, aggregates) to operators that exchange list-backed blocks of
~256 items amortizes that tax, and fusing adjacent step/filter stages
into single Python loops removes whole operator boundaries.  Target:
≥2x on XMark scan/aggregate shapes with byte-identical results.

The document is parsed ONCE per session (``xmark_s08_doc``): timing
``execute(context_item=xml_text)`` would measure the parser, which at
benchmark scale costs an order of magnitude more than the query.
"""

import pytest

from repro.engine import Engine

#: XMark scan/aggregate shapes that stay fully inside the batched core
QUERIES = [
    ("descendant scan + count", "count(/site/regions//item)"),
    ("scan + filter + step", "/site/regions//item[@id]/name"),
    ("descendant aggregate", "count(//description)"),
    ("child-chain scan", "count(//item/name)"),
    ("for-where-return",
     "for $i in /site/regions//item where $i/location return $i/name"),
]


@pytest.fixture(scope="module")
def item_engine():
    return Engine(codegen="closure")


@pytest.fixture(scope="module")
def batch_engine():
    return Engine(batch_size=256)


@pytest.mark.parametrize("label,query", QUERIES, ids=[q[0] for q in QUERIES])
def test_item_mode(benchmark, item_engine, xmark_s08_doc, label, query):
    compiled = item_engine.compile(query)
    benchmark.group = f"E14 {label}"
    benchmark.name = "item-at-a-time"
    result = benchmark(
        lambda: compiled.execute(context_item=xmark_s08_doc).items())
    assert result is not None


@pytest.mark.parametrize("label,query", QUERIES, ids=[q[0] for q in QUERIES])
def test_batch_mode(benchmark, batch_engine, xmark_s08_doc, label, query):
    compiled = batch_engine.compile(query)
    benchmark.group = f"E14 {label}"
    benchmark.name = "batched (256)"
    result = benchmark(
        lambda: compiled.execute(context_item=xmark_s08_doc).items())
    assert result is not None


def test_modes_agree(item_engine, batch_engine, xmark_s08_doc):
    """Batched plans must serialize byte-identically to item plans."""
    for _, query in QUERIES:
        item = item_engine.compile(query) \
            .execute(context_item=xmark_s08_doc).serialize()
        batched = batch_engine.compile(query) \
            .execute(context_item=xmark_s08_doc).serialize()
        assert item == batched, query
