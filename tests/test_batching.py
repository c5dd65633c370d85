"""Block-at-a-time execution: differential equivalence + unit tests.

The contract under test: ``Engine(batch_size=N)`` may only change *how*
a query executes — byte-identical serialized results, identical order,
identical error codes (including errors raised mid-batch) versus the
item-at-a-time pipeline, at every batch size.

A marker-gated perf smoke test (``-m perfsmoke``) additionally asserts
the batched scan shapes actually beat item mode and that profiler
hooks stay near-free; it is excluded from default runs to keep CI
timing-independent.
"""

from __future__ import annotations

import random
import time

import pytest

from repro.engine import Engine
from repro.errors import QueryCancelled
from repro.options import ExecutionOptions
from repro.observability import Profiler
from repro.runtime.batching import chunk_list, flatten, iter_batches, rechunk
from repro.runtime.cancellation import CancellationToken
from repro.runtime.iterators import BufferedSequence
from repro.workloads.synthetic import random_tree
from repro.xmlio.serializer import escape_attribute, escape_text

BATCH_SIZES = (1, 2, 7, 256)


def item_engine() -> Engine:
    """The item-at-a-time closure interpreter — this file's reference
    (named explicitly: the shipped default backend is ``source``)."""
    return Engine(options=ExecutionOptions(codegen="closure"))


def batch_engine(size: int) -> Engine:
    return Engine(options=ExecutionOptions(codegen="closure",
                                           batch_size=size))


#: query shapes spanning the batched core (paths, fused filters,
#: aggregates, FLWOR) and the item-fallback seams (constructors,
#: order by, quantifiers, user functions)
BIB_QUERIES = [
    "count(//book)",
    "//book/title",
    "/bib/book[2]/author",
    "//book[price > 20]/title",
    "//book[@year = '1998']/title",
    "//author[last()]",
    "//book[position() = 2]",
    "(//title)[2]",
    "sum(//book/price)",
    "avg(//book/price)",
    "string-join(//title/text(), '|')",
    "for $b in //book where $b/price < 40 return $b/title",
    "for $b at $i in //book return <hit n='{$i}'>{$b/title/text()}</hit>",
    "let $p := //price return count($p[. > 20])",
    "for $i in 1 to 500 return $i * 2",
    "sum(1 to 1000)",
    "distinct-values(//book/@year)",
    "some $b in //book satisfies $b/price > 50",
    "//book[author/last = 'Suciu']/title",
    "empty(//nonexistent)",
    "exists(//book)",
    "reverse(//title)",
    "for $b in //book order by xs:decimal($b/price) return $b/title",
    "declare function local:f($x) { $x/title };\n"
    "for $b in //book return local:f($b)",
    "//book/author/first/text()",
    "(1 + 2, (3, 4), 'x')",
]

#: queries that raise, including mid-sequence (the FORG0001 cast hits
#: the third item — in batch mode that is mid-block)
ERROR_QUERIES = [
    "for $i in ('1', '2', 'x', '4') return xs:integer($i)",
    "sum(//title)",
    "//book/(1 div 0)",
]

#: the XMark scan/aggregate shapes (shared with the compile-to-source
#: differential suite in test_codegen_source.py)
XMARK_QUERIES = [
    "count(/site/regions//item)",
    "/site/regions//item/name",
    "//item[@id]/name",
    "for $i in /site//item return $i/location",
    "count(//description)",
    "sum(for $p in //initial return xs:decimal($p))",
    "//item[2]",
    "/site/people/person[address/country = 'United States']/name",
]


def outcome(engine: Engine, query: str, xml_text: str):
    """Full-drain result image: serialized text, or (error type, code)."""
    try:
        result = engine.compile(query).execute(context_item=xml_text)
        return ("ok", result.serialize())
    except Exception as exc:  # noqa: BLE001 - compared structurally below
        return ("err", type(exc).__name__, getattr(exc, "code", None))


def assert_equivalent(query: str, xml_text: str):
    reference = outcome(item_engine(), query, xml_text)
    for size in BATCH_SIZES:
        batched = outcome(batch_engine(size), query, xml_text)
        assert batched == reference, (
            f"batch_size={size} diverged for {query!r}:\n"
            f"  item : {reference}\n  batch: {batched}")


# ---------------------------------------------------------------------------
# Differential equivalence
# ---------------------------------------------------------------------------


class TestDifferential:
    @pytest.mark.parametrize("query", BIB_QUERIES)
    def test_bib_queries(self, query, bib_xml):
        assert_equivalent(query, bib_xml)

    @pytest.mark.parametrize("query", ERROR_QUERIES)
    def test_error_codes_identical(self, query, bib_xml):
        reference = outcome(item_engine(), query, bib_xml)
        assert reference[0] == "err"
        for size in BATCH_SIZES:
            assert outcome(batch_engine(size), query, bib_xml) \
                == reference

    def test_forg0001_is_raised_mid_batch(self, bib_xml):
        """The cast error fires on the third item: with batch_size=2 the
        failing item is mid-stream — same code either way."""
        result = outcome(
            batch_engine(2),
            "for $i in ('1', '2', 'x', '4') return xs:integer($i)", bib_xml)
        assert result[0] == "err"
        assert result[2] == "FORG0001"

    @pytest.mark.parametrize("query", XMARK_QUERIES)
    def test_xmark_queries(self, query, xmark_small):
        assert_equivalent(query, xmark_small)

    def test_seeded_random_corpus(self):
        for seed in (3, 17, 91):
            xml_text = random_tree(400, seed=seed)
            for query in ["//a/b", "count(//c)", "//a[b]/c",
                          "//b[1]", "for $x in //d return $x/a"]:
                assert_equivalent(query, xml_text)

    def test_results_lazy_at_block_granularity(self):
        """Early-exit consumers do at most one block of extra work."""
        engine = batch_engine(4)
        result = engine.compile(
            "(for $i in 1 to 1000000000 return $i)[3]").execute()
        assert result.values() == [3]


# ---------------------------------------------------------------------------
# Observability: fallback counters and per-block metrics
# ---------------------------------------------------------------------------


class TestExplainSurface:
    def test_rows_per_call_in_analyze(self, xmark_small):
        engine = batch_engine(256)
        explained = engine.explain("count(/site/regions//item)",
                                   context_item=xmark_small, analyze=True)
        text = str(explained)
        assert "batch.rows_per_call=" in text
        assert "batch=batch" in text
        assert "batch=fused" in text

    def test_fallback_counter_visible(self, xmark_small):
        # order by has no batch implementation: the seam is counted
        engine = batch_engine(256)
        query = ("for $i in /site//item order by string($i/name) "
                 "return $i/name")
        explained = engine.explain(query, context_item=xmark_small,
                                   analyze=True)
        assert explained.to_dict()["engine_stats"]["batch.fallback_item"] >= 1
        assert "batch.fallback_item=" in str(explained)
        assert "batch=item" in str(explained)

    def test_pure_batch_plan_has_no_fallbacks(self, xmark_small):
        engine = batch_engine(256)
        explained = engine.explain("count(/site/regions//item)",
                                   context_item=xmark_small, analyze=True)
        assert "batch.fallback_item" not in explained.to_dict().get(
            "engine_stats", {})

    def test_rows_per_call_in_json_dump(self, xmark_small):
        engine = batch_engine(256)
        explained = engine.explain("//item/name", context_item=xmark_small,
                                   analyze=True)
        plan = explained.to_dict()["plan"]

        def any_rpc(node):
            if "batch.rows_per_call" in node:
                return True
            return any(any_rpc(c) for c in node.get("children", ()))

        assert any_rpc(plan)

    def test_item_mode_unchanged(self, xmark_small):
        engine = item_engine()
        explained = engine.explain("count(//item)", context_item=xmark_small,
                                   analyze=True)
        assert "batch.rows_per_call" not in str(explained)


# ---------------------------------------------------------------------------
# Cancellation at block granularity
# ---------------------------------------------------------------------------


class TestBatchCancellation:
    def test_pre_cancelled_token_stops_batched_query(self, xmark_small):
        token = CancellationToken()
        token.cancel()
        engine = batch_engine(256)
        with pytest.raises(QueryCancelled):
            engine.compile("count(//item)").execute(
                context_item=xmark_small, cancellation=token).items()

    def test_deadline_interrupts_batched_loop(self):
        engine = batch_engine(256)
        compiled = engine.compile(
            "count(for $i in 1 to 100000000 return $i * 2)")
        t0 = time.perf_counter()
        with pytest.raises(QueryCancelled):
            compiled.execute(deadline=0.05).items()
        # cooperative: interrupted within a few blocks, not at the end
        assert time.perf_counter() - t0 < 5.0


# ---------------------------------------------------------------------------
# Batching primitives
# ---------------------------------------------------------------------------


class TestBatchingPrimitives:
    def test_iter_batches_sizes_and_order(self):
        batches = list(iter_batches(range(10), 4))
        assert batches == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9]]

    def test_iter_batches_empty(self):
        assert list(iter_batches([], 4)) == []

    def test_iter_batches_is_lazy(self):
        pulled = []

        def source():
            for i in range(100):
                pulled.append(i)
                yield i

        stream = iter_batches(source(), 8)
        next(stream)
        assert len(pulled) == 8

    def test_flatten_roundtrip(self):
        items = list(range(23))
        assert list(flatten(iter_batches(items, 7))) == items

    def test_rechunk_splits_oversized(self):
        out = list(rechunk([[1, 2, 3, 4, 5], [6], []], 2))
        assert out == [[1, 2], [3, 4], [5], [6]]

    def test_chunk_list(self):
        assert list(chunk_list([1, 2, 3], 2)) == [[1, 2], [3]]
        assert list(chunk_list([1, 2], 5)) == [[1, 2]]
        assert list(chunk_list([], 5)) == []

    def test_buffered_sequence_iter_batches_replays(self):
        seq = BufferedSequence(iter(range(10)))
        first = [x for b in seq.iter_batches(3) for x in b]
        second = [x for b in seq.iter_batches(4) for x in b]
        assert first == list(range(10))
        assert second == list(range(10))

    def test_buffered_sequence_batches_interleave_with_items(self):
        seq = BufferedSequence(iter(range(10)))
        iterator = iter(seq)
        assert [next(iterator) for _ in range(4)] == [0, 1, 2, 3]
        assert [x for b in seq.iter_batches(3) for x in b] == list(range(10))
        assert list(iterator) == [4, 5, 6, 7, 8, 9]

    def test_token_stream_iter_batches(self, bib_xml):
        from repro.tokens.build import tokens_from_node
        from repro.tokens.stream import TokenStream
        from repro.xdm.build import parse_document

        stream = TokenStream(tokens_from_node(parse_document(bib_xml)))
        batches = list(stream.iter_batches(16))
        assert sum(len(b) for b in batches) == len(stream)
        assert [t for b in batches for t in b] == list(stream)
        assert all(len(b) <= 16 for b in batches)


# ---------------------------------------------------------------------------
# Serializer fast path
# ---------------------------------------------------------------------------


def _reference_escape_text(value: str) -> str:
    return value.replace("&", "&amp;").replace("<", "&lt;") \
        .replace(">", "&gt;")


def _reference_escape_attribute(value: str) -> str:
    out = value.replace("&", "&amp;").replace("<", "&lt;")
    return out.replace('"', "&quot;").replace("\n", "&#10;") \
        .replace("\t", "&#9;")


class TestSerializerFastPath:
    def test_escape_differential_random(self):
        rng = random.Random(5)
        alphabet = 'ab<>&"\'\n\t é☃'
        for _ in range(500):
            s = "".join(rng.choice(alphabet)
                        for _ in range(rng.randrange(0, 40)))
            assert escape_text(s) == _reference_escape_text(s)
            assert escape_attribute(s) == _reference_escape_attribute(s)

    def test_flat_serializer_matches_chunks(self, xmark_small):
        from repro.xdm.build import node_events, parse_document
        from repro.xmlio.serializer import serialize_chunks, serialize_events

        doc = parse_document(xmark_small)
        flat = serialize_events(node_events(doc))
        chunked = "".join(serialize_chunks(node_events(doc)))
        assert flat == chunked

    def test_flat_serializer_xml_decl(self, bib_doc):
        from repro.xdm.build import node_events
        from repro.xmlio.serializer import serialize_chunks, serialize_events

        flat = serialize_events(node_events(bib_doc), xml_decl=True)
        chunked = "".join(serialize_chunks(node_events(bib_doc),
                                           xml_decl=True))
        assert flat == chunked


# ---------------------------------------------------------------------------
# Perf smoke (excluded by default; run with -m perfsmoke)
# ---------------------------------------------------------------------------


def _best_of(fn, repeat=3) -> float:
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


@pytest.mark.perfsmoke
def test_batched_scan_beats_item_mode():
    """Perf smoke: the fused scan shape must be at least 1.5x item mode."""
    from repro.workloads import generate_xmark
    from repro.xdm.build import parse_document

    doc = parse_document(generate_xmark(scale=0.3, seed=7))
    query = "/site/regions//item[@id]/name"
    item = item_engine().compile(query)
    batch = batch_engine(256).compile(query)
    t_item = _best_of(lambda: item.execute(context_item=doc).items())
    t_batch = _best_of(lambda: batch.execute(context_item=doc).items())
    assert t_batch * 1.5 <= t_item, (
        f"batched scan not >=1.5x: {t_batch * 1000:.1f} ms vs item "
        f"{t_item * 1000:.1f} ms")


@pytest.mark.perfsmoke
def test_batched_profiler_overhead_small():
    """Perf smoke: per-block hooks keep profiled runs within 3%.

    Measures the steady-state hook cost on a fully-fused scan (one
    clock stop per block): interleaved medians with a reused profiler,
    so one-time costs (plan warmup, ``Profiler()`` construction) don't
    masquerade as per-block overhead.
    """
    import statistics

    from repro.workloads import generate_xmark
    from repro.xdm.build import parse_document

    doc = parse_document(generate_xmark(scale=0.3, seed=7))
    compiled = batch_engine(256).compile("count(//description)")
    profiler = Profiler()

    def once(p=None) -> float:
        t0 = time.perf_counter()
        compiled.execute(context_item=doc, profiler=p).items()
        return time.perf_counter() - t0

    for _ in range(5):  # warm both paths
        once(), once(profiler)
    plains, profiled = [], []
    for _ in range(21):
        plains.append(once())
        profiled.append(once(profiler))
    plain_ms = statistics.median(plains) * 1000
    prof_ms = statistics.median(profiled) * 1000
    assert prof_ms <= plain_ms * 1.03, (
        f"profiler overhead too high: {prof_ms:.3f} ms vs {plain_ms:.3f} ms")
