"""Access-path selection: planner decisions + navigation differentials.

The contract under test: a query compiled against an indexed catalog
must return byte-identical serialized results, in the same document
order, raising the same error codes, as the navigation-only plan — the
planner may only change *how* the answer is computed, never the
answer.
"""

from __future__ import annotations

import time

import pytest

import repro
from repro.engine import Engine
from repro.runtime.memo import LRUCache
from repro.workloads.synthetic import random_tree
from repro.workloads.xmark import generate_xmark
from repro.xquery import ast

BIB = """<bib>
  <book id="b1"><title>A</title><price> 55 </price></book>
  <book id="b2"><title>B</title><price>12</price></book>
  <book id="b3"><title>C</title><price>55</price></book>
  <book id="b4"><title>D</title><price>55.0</price></book>
  <book id="b5"><title>E</title><price/></book>
</bib>"""


def indexed_engine(xml_text: str, name: str = "doc", **add_kw) -> Engine:
    cat = repro.catalog()
    cat.add(name, xml_text, **add_kw)
    return Engine(catalog=cat)


def run_both(query: str, xml_text: str, **add_kw):
    """(indexed result, navigation result) — or the raised error codes."""
    idx_engine = indexed_engine(xml_text, **add_kw)
    nav_engine = Engine()

    def outcome(make):
        try:
            result = make()
            return ("ok", result.serialize(), dict(result.stats))
        except Exception as exc:  # noqa: BLE001 - codes compared below
            return ("err", type(exc).__name__, getattr(exc, "code", None))

    idx = outcome(lambda: idx_engine.compile(query).execute())
    nav = outcome(lambda: nav_engine.compile(query, variables=("doc",))
                  .execute(variables={"doc": repro.xml(xml_text)}))
    return idx, nav


def access_path_of(engine: Engine, query: str):
    """The planner's AccessPath node for ``query``, or None."""
    return access_path_of_bound(engine, query, ())


def access_path_of_bound(engine: Engine, query: str, variables: tuple):
    """The planner's AccessPath node for ``query`` over declared
    ``variables``, or None."""
    compiled = engine.compile(query, variables=variables)
    for node in compiled.optimized.walk():
        if isinstance(node, ast.AccessPath):
            return node
    return None


# ---------------------------------------------------------------------------
# Planner unit tests: pin the chosen access path for known selectivities
# ---------------------------------------------------------------------------


class TestPlannerChoices:
    def test_string_equality_picks_value_index(self):
        engine = indexed_engine(BIB)
        node = access_path_of(engine, '$doc//book[price = "55"]')
        assert node is not None
        assert node.chosen == "value_index"
        assert node.annotations["access_path.chosen"] == "value_index"
        assert node.annotations["access_path.est_rows"] >= 1

    def test_attribute_equality_picks_value_index(self):
        engine = indexed_engine(BIB)
        node = access_path_of(engine, '$doc//book[@id = "b2"]')
        assert node is not None and node.chosen == "value_index"

    def test_numeric_literal_never_probes_value_index(self):
        # "55" vs stored "55.0" only match under numeric promotion,
        # which a string-keyed index cannot answer
        engine = indexed_engine(BIB)
        node = access_path_of(engine, "$doc//book[price = 55]")
        assert node is not None
        assert node.chosen == "element_index"

    def test_plain_chain_picks_element_index(self):
        engine = indexed_engine(BIB)
        node = access_path_of(engine, "$doc//book")
        assert node is not None and node.chosen == "element_index"
        assert node.steps == (("descendant", "book"),)

    def test_rooted_child_chain(self):
        engine = indexed_engine(BIB)
        node = access_path_of(engine, "$doc/bib/book")
        assert node is not None
        assert node.steps == (("child", "bib"), ("child", "book"))

    def test_unindexed_catalog_doc_keeps_navigation(self):
        engine = indexed_engine(BIB, index=False)
        assert access_path_of(engine, '$doc//book[price = "55"]') is None

    def test_non_catalog_variable_keeps_navigation(self):
        engine = indexed_engine(BIB)
        assert access_path_of(engine, "$doc//book") is not None
        compiled = engine.compile("$other//book", variables=("other",))
        assert not any(isinstance(n, ast.AccessPath)
                       for n in compiled.optimized.walk())

    def test_wildcard_and_positional_are_ineligible(self):
        engine = indexed_engine(BIB)
        assert access_path_of(engine, "$doc//*") is None
        assert access_path_of(engine, "$doc//book[2]") is None
        assert access_path_of(engine, "$doc//book[position() = 2]") is None

    def test_mixed_content_pred_name_skips_value_index(self):
        # <book> is not leaf-only, so [book = "x"] must not value-probe
        xml_text = "<lib><shelf><book><title>A</title></book></shelf></lib>"
        engine = indexed_engine(xml_text)
        node = access_path_of(engine, '$doc//shelf[book = "x"]')
        assert node is None or node.chosen != "value_index"

    def test_bound_probe_picks_value_index(self):
        # the probe's value is known only at run time: priced with the
        # index's average posting length
        engine = indexed_engine(BIB)
        node = access_path_of_bound(engine, "$doc//book[@id = $a]", ("a",))
        assert node is not None and node.chosen == "value_index"
        assert isinstance(node.pred[2], ast.VarRef)

    def test_let_bound_chain_prefix_is_seen_through(self):
        # the shape common-subexpression elimination leaves behind
        engine = indexed_engine(BIB)
        node = access_path_of_bound(
            engine, "let $b := $doc/bib return $b/book[@id = $a]", ("a",))
        assert node is not None and node.chosen == "value_index"
        assert node.steps == (("child", "bib"), ("child", "book"))
        assert node.var.local == "doc"

    def test_rebound_catalog_variable_stops_the_look_through(self):
        cat = repro.catalog()
        cat.add("doc", BIB)
        cat.add("other", BIB.replace('id="b', 'id="x'))
        engine = Engine(catalog=cat)
        query = ('let $b := $doc/bib return '
                 'for $doc in $other return $b/book[@id = "b1"]/title/string()')
        assert engine.compile(query).execute().serialize() == "A"

    def test_est_and_actual_rows_surface_in_explain(self):
        engine = indexed_engine(BIB)
        explained = engine.explain('$doc//book[price = "55"]', analyze=True)
        dumped = explained.to_dict()
        assert dumped["plan"]["access_path.chosen"] == "value_index"
        assert dumped["plan"]["access_path.est_rows"] >= 1
        assert dumped["engine_stats"]["access_path.actual_rows"] == 1
        assert "access_path.chosen=value_index" in explained.render()


# ---------------------------------------------------------------------------
# Runtime fallback + compile-cache identity
# ---------------------------------------------------------------------------


class TestFallbackAndCache:
    def test_runtime_fallback_for_foreign_binding(self):
        # compiled against the catalog, executed against a fresh parse:
        # the plan must detect the foreign binding and navigate
        engine = indexed_engine(BIB)
        compiled = engine.compile('$doc//book[price = "55"]')
        result = compiled.execute(variables={"doc": repro.xml(BIB)})
        serialized = result.serialize()  # drain: stats fill lazily
        assert result.stats.get("access_path.fallback_navigation") == 1
        nav = Engine().compile('$doc//book[price = "55"]', variables=("doc",)) \
            .execute(variables={"doc": repro.xml(BIB)})
        assert serialized == nav.serialize()

    def test_catalog_fingerprint_keys_compile_cache(self):
        # regression (PR 4): one shared cache, same query text — the
        # indexed plan must not be reused for the catalog-less engine
        shared = LRUCache(8)
        cat = repro.catalog()
        cat.add("doc", BIB)
        with_index = Engine(catalog=cat, compile_cache=shared)
        without = Engine(compile_cache=shared)
        planned = with_index.compile('$doc//book[price = "55"]')
        plain = without.compile('$doc//book[price = "55"]',
                                variables=("doc",))
        assert planned is not plain
        assert any(isinstance(n, ast.AccessPath) for n in planned.optimized.walk())
        assert not any(isinstance(n, ast.AccessPath) for n in plain.optimized.walk())

    def test_reingest_invalidates_cache_entry(self):
        cat = repro.catalog()
        cat.add("doc", BIB)
        engine = Engine(catalog=cat)
        first = engine.compile("$doc//book")
        cat.add("doc", BIB, index=False)  # replace: same name, no index
        second = engine.compile("$doc//book")
        assert first is not second
        assert not any(isinstance(n, ast.AccessPath)
                       for n in second.optimized.walk())

    def test_auto_binding_from_catalog(self):
        engine = indexed_engine(BIB)
        result = engine.compile("count($doc//book)").execute()
        assert result.values() == [5]

    def test_stored_document_accepted_like_repro_xml(self):
        cat = repro.catalog()
        stored = cat.add("doc", BIB)
        nav = Engine()
        as_var = nav.compile("count($d//book)", variables=("d",)) \
            .execute(variables={"d": stored})
        assert as_var.values() == [5]
        as_ctx = nav.compile("count(//book)").execute(context_item=stored)
        assert as_ctx.values() == [5]
        as_doc = nav.compile("count(doc('bib')//book)") \
            .execute(documents={"bib": stored})
        assert as_doc.values() == [5]


# ---------------------------------------------------------------------------
# Differential suite: results, order, and errors identical
# ---------------------------------------------------------------------------

BIB_QUERIES = [
    "$doc//book",
    "$doc/bib/book",
    '$doc//book[price = "55"]',
    '$doc//book[price = " 55 "]',
    "$doc//book[price = 55]",
    "$doc//book[price = 55.0]",
    '$doc//book[@id = "b4"]',
    '$doc//book[@id = "nope"]',
    '$doc//book[price = ""]',
    "$doc//title",
    "for $b in $doc//book return $b/title",
    "count($doc//book[price = 55])",
]


class TestDifferentialBib:
    @pytest.mark.parametrize("query", BIB_QUERIES)
    def test_results_identical(self, query):
        # numeric predicates over BIB raise FORG0001 (empty <price/>
        # can't cast) — in which case BOTH plans must raise it
        idx, nav = run_both(query, BIB)
        assert idx[0] == nav[0]
        assert idx[1] == nav[1]
        if idx[0] == "err":
            assert idx[2] == nav[2]

    def test_error_codes_identical(self):
        # numeric promotion of an uncastable value raises in both plans
        bad = "<bib><book><price>cheap</price></book></bib>"
        idx, nav = run_both("$doc//book[price = 55]", bad)
        assert idx[0] == nav[0] == "err"
        assert idx[1:] == nav[1:]

    def test_document_order_preserved(self):
        # interleave matches across subtrees; order must be document order
        xml_text = ("<r>" + "".join(
            f"<g><x>{i % 3}</x><y/><x>{(i + 1) % 3}</x></g>"
            for i in range(20)) + "</r>")
        idx, nav = run_both('$doc//g[x = "1"]', xml_text)
        assert idx[0] == "ok" and idx[1] == nav[1]


#: probes known only at run time, with the values each is bound to
RUN_TIME_PROBES = [
    ("$doc//book[@id = $a]/title/string()", ["b4", "nope", 4, "", " b4"]),
    ("$doc//book[price = $a]/title/string()", ["55", " 55 ", "12", 55, 12.0]),
    ("$doc//book[price = ($a, '12')]/title/string()", ["55", "x"]),
    ("let $b := $doc/bib return $b/book[@id = $a]/title/string()",
     ["b2", "b9"]),
    ("$doc//book[@id = concat('b', $a)]/title/string()", [1, 3, "x"]),
]


class TestRunTimeProbes:
    """A value-index lookup on a bound variable answers exactly what
    navigation answers — and raises what navigation raises (FORG0001
    for a numeric probe over ``<price/>``; XPDY0002 when unbound)."""

    @pytest.mark.parametrize("query,values", RUN_TIME_PROBES)
    def test_identical_to_navigation(self, query, values):
        idx_engine = indexed_engine(BIB)
        nav_engine = Engine()

        def outcome(make):
            try:
                return ("ok", make().serialize())
            except Exception as exc:  # noqa: BLE001 - codes compared
                return ("err", type(exc).__name__, getattr(exc, "code", None))

        for value in values:
            bindings = {"a": value}
            idx = outcome(lambda: idx_engine.compile(
                query, variables=("a",)).execute(variables=bindings))
            nav = outcome(lambda: nav_engine.compile(
                query, variables=("doc", "a")).execute(
                    variables={"doc": repro.xml(BIB), **bindings}))
            assert idx == nav, (query, value)

    def test_unbound_probe_raises_only_with_a_candidate(self):
        engine = indexed_engine(BIB)
        query = "declare variable $u external; count($doc//{}[@id = $u])"
        with pytest.raises(repro.errors.DynamicError) as err:
            engine.compile(query.format("book")).execute().items()
        assert err.value.code == "XPDY0002"
        # no <shelf> in the document: navigation never evaluates $u
        assert engine.compile(query.format("shelf")).execute().values() == [0]


class TestDifferentialXMark:
    @pytest.fixture(scope="class")
    def xmark(self):
        return generate_xmark(scale=0.05, seed=7)

    @pytest.fixture(scope="class")
    def email(self, xmark):
        nav = Engine().compile("string(($doc//emailaddress)[1])",
                               variables=("doc",)) \
            .execute(variables={"doc": repro.xml(xmark)})
        return nav.values()[0]

    def test_selective_email_lookup(self, xmark, email):
        query = f'$doc/site/people/person[emailaddress = "{email}"]'
        idx, nav = run_both(query, xmark)
        assert idx[0] == nav[0] == "ok"
        assert idx[1] == nav[1]
        assert idx[2].get("access_path.value_index") == 1
        assert idx[2].get("access_path.actual_rows") == 1

    @pytest.mark.parametrize("query", [
        "$doc//person",
        "$doc/site/regions",
        "$doc//open_auction//increase",
        "$doc//bidder/increase",
        '$doc//interest[@category = "category3"]',
        '$doc//item[payment = "Creditcard"]',
        '$doc//person[emailaddress = "mailto:nobody@example.com"]',
        "$doc//closed_auction[quantity = 1]",
        "count($doc//watches/watch)",
    ])
    def test_results_identical(self, xmark, query):
        idx, nav = run_both(query, xmark)
        assert idx[0] == nav[0] == "ok"
        assert idx[1] == nav[1]


class TestDifferentialRandomCorpus:
    @pytest.mark.parametrize("seed", [3, 17, 52, 99])
    def test_random_trees(self, seed):
        xml_text = random_tree(120, seed=seed)
        for query in ("$doc//a", "$doc//b//c", '$doc//b[c = "leaf"]',
                      "$doc//a/b", '$doc//d[a = "x"]'):
            idx, nav = run_both(query, xml_text)
            assert idx[0] == nav[0] == "ok", (seed, query)
            assert idx[1] == nav[1], (seed, query)

    @pytest.mark.parametrize("seed", [1, 8])
    def test_random_valued_documents(self, seed):
        import random

        rng = random.Random(seed)
        rows = "".join(
            f"<row><k>{rng.randint(0, 9)}</k>"
            f"<v>{'  ' if rng.random() < 0.3 else ''}{rng.randint(0, 4)}"
            f"{' ' if rng.random() < 0.3 else ''}</v></row>"
            for _ in range(80))
        xml_text = f"<table>{rows}</table>"
        for probe in range(5):
            for query in (f'$doc//row[v = "{probe}"]',
                          f"$doc//row[v = {probe}]",
                          f'$doc//row[k = "{probe}"]'):
                idx, nav = run_both(query, xml_text)
                assert idx[0] == nav[0] == "ok", query
                assert idx[1] == nav[1], query


# ---------------------------------------------------------------------------
# perfsmoke: the E13 selective query must pick the index and beat navigation
# ---------------------------------------------------------------------------


@pytest.mark.perfsmoke
def test_perfsmoke_selective_lookup_beats_navigation():
    xmark = generate_xmark(scale=0.4, seed=13)
    nav_engine = Engine()
    email_q = "string(($doc//emailaddress)[1])"
    email = nav_engine.compile(email_q, variables=("doc",)) \
        .execute(variables={"doc": repro.xml(xmark)}).values()[0]
    query = f'$doc/site/people/person[emailaddress = "{email}"]'

    cat = repro.catalog()
    cat.add("doc", xmark)
    idx_engine = Engine(catalog=cat)

    # the planner must pick the value index and report its decision
    explained = idx_engine.explain(query, analyze=True)
    dumped = explained.to_dict()
    assert dumped["plan"]["access_path.chosen"] == "value_index"
    assert dumped["plan"]["access_path.est_rows"] >= 1
    assert dumped["engine_stats"]["access_path.actual_rows"] == 1

    nav_doc = repro.xml(xmark)
    nav_compiled = nav_engine.compile(query, variables=("doc",))
    nav_bound = nav_compiled.execute(variables={"doc": nav_doc})
    idx_compiled = idx_engine.compile(query)
    assert idx_compiled.execute().serialize() == nav_bound.serialize()

    # pre-parse once so the navigation side times evaluation, not parsing
    nav_tree = nav_doc.parse()

    def best_of(fn, n=3):
        times = []
        for _ in range(n):
            start = time.perf_counter()
            fn()
            times.append(time.perf_counter() - start)
        return min(times)

    nav_time = best_of(lambda: nav_compiled.execute(
        variables={"doc": nav_tree}).items())
    idx_time = best_of(lambda: idx_compiled.execute().items())
    assert idx_time * 3 <= nav_time, (idx_time, nav_time)
