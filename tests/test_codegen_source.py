"""Compile-to-source: differential equivalence + unit tests.

The contract under test: the generated code an :class:`Engine` runs
may only change *how* a query executes — byte-identical serialized
results, identical order, identical error codes, and identical
root-operator profiler item counts versus the closure interpreter a
:class:`ReferenceEngine` runs (the differential oracle).  The corpus is
bib/XMark/seeded-random queries, the W3C XMP use cases, and the
property suite's random query generator.

A marker-gated perf smoke (``-m perfsmoke``) additionally asserts the
generated code beats the closure oracle on the E15 scan shape and that
emitting + ``compile()``-ing the generated source stays under 50 ms
per query.
"""

from __future__ import annotations

import linecache
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import parse_document
from repro.compiler.reference import ReferenceEngine
from repro.engine import Engine
from repro.errors import QueryCancelled
from repro.observability import Profiler
from repro.observability.counters import split_counters
from repro.options import ExecutionOptions
from repro.runtime.memo import LRUCache
from repro.workloads.synthetic import random_tree

from tests.test_property_differential import QUERY, _outcome
from tests.test_w3c_use_cases import BIB, REVIEWS

#: query shapes spanning paths, fused filters, aggregates and FLWOR,
#: plus constructors, order by, quantifiers and user functions
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
#: the third item)
ERROR_QUERIES = [
    "for $i in ('1', '2', 'x', '4') return xs:integer($i)",
    "sum(//title)",
    "//book/(1 div 0)",
]

#: a later member that would raise FOAR0001 and that evaluation never
#: reaches: the lazy plan answers (eager intra-query parallel groups,
#: deleted in 3.0, evaluated every member and raised); ``$d`` is
#: ``<r><a>1</a></r>``
UNREACHED_MEMBER_QUERIES = [
    ("(count($d//a), count($d//a) idiv 0)[1]", "1"),
    ("exists((count($d//a), count($d//a) idiv 0))", "true"),
    ("for $x in $d//nothing, $y in (count($d//a) idiv 0) "
     "order by $x return 1", ""),
]

#: the XMark scan/aggregate shapes, E15's five timed shapes among them
XMARK_QUERIES = [
    "count(/site/regions//item)",
    "/site/regions//item/name",
    "/site/regions//item[@id]/name",
    "//item[@id]/name",
    "count(//item/name)",
    "for $i in /site//item return $i/location",
    "for $i in /site/regions//item where $i/location return $i/name",
    "count(//description)",
    "sum(for $p in //initial return xs:decimal($p))",
    "//item[2]",
    "/site/people/person[address/country = 'United States']/name",
]

#: the twelve W3C XMP use-case queries (same text as the conformance
#: suite in test_w3c_use_cases.py), run against doc('bib.xml') and
#: doc('reviews.xml')
W3C_XMP_QUERIES = [
    """<bib>{
        for $b in doc("bib.xml")/bib/book
        where $b/publisher = "Addison-Wesley" and $b/@year > 1991
        return <book year="{$b/@year}">{$b/title}</book>
    }</bib>""",
    """<results>{
        for $b in doc("bib.xml")/bib/book, $t in $b/title, $a in $b/author
        return <result>{$t}{$a}</result>
    }</results>""",
    """<results>{
        for $b in doc("bib.xml")/bib/book
        return <result>{$b/title}{$b/author}</result>
    }</results>""",
    """<results>{
        for $last in distinct-values(doc("bib.xml")//author/last)
        order by $last
        return
          <result><author>{ $last }</author>
          { for $b in doc("bib.xml")/bib/book
            where $b/author/last = $last
            return $b/title }
          </result>
    }</results>""",
    """<books-with-prices>{
        for $b in doc("bib.xml")//book, $a in doc("reviews.xml")//entry
        where $b/title = $a/title
        return <book-with-prices>{$b/title}
            <price-review>{$a/price/text()}</price-review>
            <price-bib>{$b/price/text()}</price-bib>
        </book-with-prices>
    }</books-with-prices>""",
    """<bib>{
        for $b in doc("bib.xml")//book
        where count($b/author) > 0
        return <book>{$b/title}
          { for $a in $b/author[1 to 2] return $a }
          { if (count($b/author) > 2) then <et-al/> else () }
        </book>
    }</bib>""",
    """<bib>{
        for $b in doc("bib.xml")//book
        where $b/publisher = "Addison-Wesley" and $b/@year > 1991
        order by xs:string($b/title)
        return <book>{$b/@year}{$b/title}</book>
    }</bib>""",
    """for $b in doc("bib.xml")//book
       where some $a in $b/author satisfies $a/last = "Suciu"
       return <book>{$b/title}</book>""",
    """<results>{
        for $t in doc("bib.xml")//book/title
        where contains($t/text(), "Web")
        return $t
    }</results>""",
    """<results>{
        for $t in distinct-values(doc("bib.xml")//book/title/text())
        let $bp := for $b in doc("bib.xml")//book[title = $t]
                   return xs:decimal($b/price)
        let $rp := for $e in doc("reviews.xml")//entry[title = $t]
                   return xs:decimal($e/price)
        order by $t
        return <minprice title="{$t}">{min(($bp, $rp))}</minprice>
    }</results>""",
    """<bib>{
        for $b in doc("bib.xml")//book[editor]
        return <book>{$b/title}{$b/editor/affiliation}</book>
    }</bib>""",
    """count(
        for $b1 in doc("bib.xml")//book, $b2 in doc("bib.xml")//book
        where $b1/author/last = $b2/author/last
          and $b1/title < $b2/title
        return 1)""",
]


def outcome(engine: Engine, query: str, xml_text: str):
    """Full-drain result image: serialized text, or (error type, code)."""
    try:
        result = engine.compile(query).execute(context_item=xml_text)
        return ("ok", result.serialize())
    except Exception as exc:  # noqa: BLE001 - compared structurally below
        return ("err", type(exc).__name__, getattr(exc, "code", None))


def assert_source_equivalent(query: str, xml_text: str):
    """The source backend must match the closure oracle — results,
    order, and error codes alike."""
    generated = outcome(Engine(), query, xml_text)
    reference = outcome(ReferenceEngine(), query, xml_text)
    assert generated == reference, (
        f"source backend diverged for {query!r}:\n"
        f"  closure: {reference}\n  source : {generated}")


def outcome_docs(engine: Engine, query: str):
    """Outcome image for the W3C queries (documents, no context item)."""
    documents = {"bib.xml": BIB, "reviews.xml": REVIEWS}
    try:
        result = engine.compile(query).execute(documents=documents)
        return ("ok", result.serialize())
    except Exception as exc:  # noqa: BLE001 - compared structurally below
        return ("err", type(exc).__name__, getattr(exc, "code", None))


# ---------------------------------------------------------------------------
# Differential equivalence over the full corpus
# ---------------------------------------------------------------------------


class TestDifferential:
    @pytest.mark.parametrize("query", BIB_QUERIES)
    def test_bib_queries(self, query, bib_xml):
        assert_source_equivalent(query, bib_xml)

    @pytest.mark.parametrize("query", ERROR_QUERIES)
    def test_error_codes_identical(self, query, bib_xml):
        reference = outcome(ReferenceEngine(), query, bib_xml)
        assert reference[0] == "err"
        assert outcome(Engine(), query, bib_xml) == reference

    @pytest.mark.parametrize("query,expected", UNREACHED_MEMBER_QUERIES)
    def test_unreached_member_never_raises(self, query, expected):
        doc = parse_document("<r><a>1</a></r>")
        for engine in (Engine(), ReferenceEngine()):
            result = engine.compile(query, variables=("d",)).execute(
                variables={"d": doc})
            assert result.serialize() == expected, type(engine).__name__

    @pytest.mark.parametrize("query", XMARK_QUERIES)
    def test_xmark_queries(self, query, xmark_small):
        assert_source_equivalent(query, xmark_small)

    def test_seeded_random_corpus(self):
        for seed in (3, 17, 91):
            xml_text = random_tree(400, seed=seed)
            for query in ["//a/b", "count(//c)", "//a[b]/c",
                          "//b[1]", "for $x in //d return $x/a"]:
                assert_source_equivalent(query, xml_text)

    @pytest.mark.parametrize("query", W3C_XMP_QUERIES)
    def test_w3c_xmp_suite(self, query):
        reference = outcome_docs(ReferenceEngine(), query)
        generated = outcome_docs(Engine(), query)
        assert generated == reference
        assert reference[0] == "ok"  # the conformance corpus must pass

    @given(query=QUERY, n=st.integers(min_value=5, max_value=40),
           seed=st.integers(0, 10_000))
    @settings(max_examples=100, deadline=None)
    def test_property_differential(self, query, n, seed):
        doc = parse_document(random_tree(n, tags=("a", "b", "c"), seed=seed))
        assert _outcome(_source_prop, query, doc) \
            == _outcome(_closure_prop, query, doc), query

    @pytest.mark.parametrize("query", [
        "count(//book)",
        "//book/title",
        "//book[price > 20]/title",
        "for $b in //book return $b/author/last",
    ])
    def test_profiler_item_counts_match(self, query, bib_xml):
        counts = {}
        for tag, engine in (("closure", ReferenceEngine()),
                            ("source", Engine())):
            profiler = Profiler()
            compiled = engine.compile(query)
            compiled.execute(context_item=bib_xml,
                             profiler=profiler).items()
            counts[tag] = profiler.operators[compiled.plan_tree.id].items
        assert counts["source"] == counts["closure"]


#: constructed nodes nothing else keeps alive: a FLWOR returns a fresh
#: element per iteration, each freed once the consumer moves on, so an
#: identity dedup that keeps only ``id(node)`` ints sees a new node at a
#: reused address as one already counted.  ``F`` is the FLWOR; each
#: entry is (query, answer as a function of n)
_FRESH = "(for $i in (1 to {n}) return <r><a/></r>)"
CONSTRUCTED_NODE_QUERIES = [
    ("count((for $i in (1 to {n}) return <a/>)/self::a)", 1),
    ("count(distinct-nodes(for $i in (1 to {n}) return <a/>))", 1),
    ("count(F/a)", 1),
    ("count(F//a)", 1),
    ("count(F/a/..)", 1),
    ("count(distinct-nodes(F/a))", 1),
    ("count(F/a union F/a)", 2),
    ("count((F/a, F/a))", 2),
    ("count(F/a) = {n}", None),
]


class TestConstructedNodeIdentity:
    """Counting and deduplicating fresh nodes: the exact answer on both
    executors (``fn:distinct-nodes`` is shared code, so a differential
    alone cannot see it), and the product agreeing with the oracle."""

    @staticmethod
    def _text(template: str, n: int) -> str:
        return template.replace("F", _FRESH).format(n=n)

    @pytest.mark.parametrize("n", (400, 2000))
    @pytest.mark.parametrize("template,per_n", CONSTRUCTED_NODE_QUERIES)
    def test_exact_answer_on_both_executors(self, template, per_n, n):
        expected = "true" if per_n is None else str(per_n * n)
        query = self._text(template, n)
        for engine in (Engine(), ReferenceEngine()):
            assert engine.compile(query).execute().serialize() == expected, \
                (type(engine).__name__, query)

    @pytest.mark.parametrize("template,_per_n", CONSTRUCTED_NODE_QUERIES)
    def test_differential(self, template, _per_n, bib_xml):
        assert_source_equivalent(self._text(template, 300), bib_xml)


#: one entry per expression kind the 1.8 emitter added, error paths
#: included: each must stay byte-identical to the closure interpreter
#: and run on generated code alone
NEW_KIND_QUERIES = [
    # -- node constructors and the enclosed-expression content rules
    '<r a="{//book[1]/@year}" b="x{1 + 1}y">{//book/title}</r>',
    '<r>{//book[1]/@year}{1, 2}<s/>text{//book[1]/price/text()}</r>',
    '<r>{//book/@year}</r>',                       # XQDY0025 duplicate
    '<r>{1, //book[1]/@year}</r>',                 # XQTY0024 late attribute
    'element {concat("x", "y")} {attribute {"k"} {1, 2}, text {"t"}, '
    'comment {"c"}, processing-instruction p {"d"}}',
    'element {(1, 2)} {()}',                       # XPTY0004 name
    'element {"nope:x"} {()}',                     # XQDY0074 prefix
    'document {<a>{//book[1]/title}</a>}',
    'document {//book[1]/@year}',                  # attribute in document
    'count((text {()}, text {"a"}, text {("a", "b")}))',
    'comment {"a--b"}',                            # XQDY0072
    'processing-instruction {()} {"x"}',           # empty computed target
    'processing-instruction {"xml"} {"x"}',        # XQDY0064
    'for $b in //book return <b n="{count($b/author)}">'
    '{if ($b/@year > 1990) then $b/title else ()}</b>',
    # -- FLWOR with order by
    'for $b in //book order by xs:decimal($b/price) descending '
    'return $b/title',
    'for $b in //book order by $b/editor empty greatest, '
    'string($b/title) return string($b/title)',
    'for $b in //book order by $b/editor empty least, '
    'string($b/title) descending return string($b/title)',
    'for $b in //book stable order by string($b/@year) '
    'return string($b/title)',
    'for $b at $i in //book order by $i descending return ($i, $b/title)',
    'for $b in //book let $n := count($b/author) where $n > 0 '
    'order by $n descending, string($b/title) return <b n="{$n}"/>',
    'for $x in (3, 1, 2), $y in ("b", "a") order by $y, $x '
    'return concat($y, $x)',
    'for $b in //book order by $b/author/last return $b/title',  # 2 keys
    'for $i in ("1", "2", "x", "4") order by xs:integer($i) return $i',
    'for $i in ("1", "x") where xs:integer($i) > 0 order by $i return $i',
    '//book/(for $a in author order by string($a/last) descending '
    'return (position(), string($a/last)))',
    'count(for $b in //book order by string($b/title) return $b/author)',
    # -- inlined user functions: the function conversion rules
    'declare function local:f($v as xs:double) as xs:double { $v * 2 }; '
    'for $b in //book return local:f(xs:double($b/price))',
    'declare function local:f($v as xs:decimal) as xs:decimal { $v }; '
    'local:f(//book[1]/price)',                    # untyped -> decimal
    'declare function local:f($v as xs:integer) as xs:integer { $v }; '
    'local:f("x")',                                # XPTY0004
    'declare function local:f($v as xs:integer) as xs:integer { $v }; '
    'local:f((1, 2))',                             # too many items
    'declare function local:f($v as element()*) as xs:string+ '
    '{ for $e in $v return string($e) }; local:f(//book/title)',
    'declare function local:f($v as element()*) as xs:string+ '
    '{ for $e in $v return string($e) }; local:f(//nothing)',  # empty ret
    'declare function local:fact($n as xs:integer) as xs:integer '
    '{ if ($n le 1) then 1 else $n * local:fact($n - 1) }; local:fact(10)',
    # -- fn:last() over a buffered base
    '(//book)[last()]/title',
    '(//book/author)[position() = last()]',
    '(1, 2, 3)[last() - 1]',
    '(for $b in //book return $b/title)[last()]',
    '//book/(author, last())',
    '//book/(position() * last())',
    '(1, 2, xs:integer("x"))[last()]',             # FORG0001 on the drain
    # -- type operators
    '//book/price instance of element()+',
    '(//book/@year)[1] cast as xs:integer',
    '"x" castable as xs:integer, "7" castable as xs:integer, '
    '() castable as xs:integer?, (1, 2) castable as xs:integer',
    '() cast as xs:integer?',
    '() cast as xs:integer',                       # XPTY0004
    '(1, 2) cast as xs:integer',                   # XPTY0004
    '"x" cast as xs:integer',                      # FORG0001
    '(//book treat as element()+)/title',
    '(1 treat as xs:string)',                      # XPDY0050
    # -- lazy builtins pull sub-region arguments
    'distinct-values(//book/@year)',
    'subsequence(//book, 2, 1)/title',
    'remove(//book/title, 1)',
    'insert-before((1, 2), 1, 0)',
    'data(//book/@year)',
    'subsequence((1, 2, xs:integer("x")), 1, 2)',  # FORG0001 mid-pull
]


class TestNewlyEmittedKinds:
    @pytest.mark.parametrize("query", NEW_KIND_QUERIES)
    def test_equivalent_and_seamless(self, query, bib_xml):
        assert_source_equivalent(query, bib_xml)
        assert Engine().compile(query).generated_source is not None


def test_last_keeps_the_base_lazy(bib_xml):
    """A predicate that *mentions* last() drains its base only when
    last() is actually called — like the closure Filter's lazily sized
    BufferedSequence."""
    query = ("((1, 2, error())"
             "[if (position() lt 3) then true() else last() gt 0])[1]")
    assert outcome(Engine(), query, bib_xml) \
        == outcome(ReferenceEngine(), query, bib_xml) == ("ok", "1")


def _else_if_chain(branches: int) -> str:
    return "".join(f"if ($x lt {i}) then {i} else " for i in range(branches))


class TestDeepNesting:
    """CPython compiles at most 20 statically nested loop/try/except
    blocks and 100 indentation levels per function: the printer
    (:func:`repro.compiler.loopnest.print_module`) moves whatever would
    pass either into a closure — no query, however nested, may surface a
    SyntaxError, and each runs on generated code
    (``tests/test_seam_coverage.py``) with the reference's answer and
    counters."""

    DEEP = [
        # 25 nested for clauses (the where keeps them from folding)
        " ".join(f"for $v{i} in (1 to 1)" for i in range(25))
        + " where $v0 + $v24 = 2 return ($v3, $v24)",
        # the same nest, ordered: an FLWOR that keeps its clauses,
        # collecting its tuples 25 loops deep
        " ".join(f"for $v{i} in (1 to 1)" for i in range(25))
        + " where $v0 + $v24 = 2 order by $v3 descending, $v24 "
        "return ($v3, $v24)",
        # 24 nested predicates
        "count(//bib" + "".join("[book" for _ in range(24))
        + "]" * 24 + ")",
        # 15 nested quantifiers, each a try + a loop
        "some $a in (1, 2) satisfies " * 15 + "$a = 2",
        # a path under constructors under an ordered FLWOR under a path
        "//book/(for $a in author order by string($a/last) return "
        "<a>{for $x in $a/* return <x>{for $y in $x/text() "
        "return <y>{for $c in (1 to 2) return "
        "<c>{some $q in //book/price satisfies $q > $c * 20}</c>}</y>}"
        "</x>}</a>)",
    ]

    #: one nest per place the emitter used to split a function (emit,
    #: EBV, path chains, FLWOR clauses), inside the sub-functions that
    #: carry semantics, and the indentation limit: (query, answer)
    NESTS = {
        "quantifiers_in_predicate": (
            "//book[" + "".join(f"some $a{i} in title satisfies "
                                for i in range(25))
            + "$a0 is $a24 and price > 30]/title/string()",
            "Data on the Web XML Query"),
        "grouped_ordered_flwor": (
            "for $v0 in (1, 2, 1) "
            + " ".join(f"for $v{i} in (1 to 1)" for i in range(1, 25))
            + " group by $k := $v0 order by $k descending "
            "return ($k, count($v24))", "2 1 1 2"),
        # each regroup is a list comprehension: a child scope with its
        # own locals next to the closure the deep nest moves into
        "two_groupings": (
            "((for $a in (1, 2, 1) group by $k := $a return $k), "
            "for $v0 in (1, 2, 1) "
            + " ".join(f"for $v{i} in (1 to 1)" for i in range(1, 25))
            + " group by $k := $v0 order by $k descending "
            "return ($k, count($v24)))", "1 2 2 1 1 2"),
        "recursive_body": (
            "declare function local:f($n) { if ($n le 0) then 0 else "
            "count(" + " ".join(f"for $v{i} in (1 to 1)" for i in range(25))
            + " where $v0 + $v24 = 2 return $n) + local:f($n - 1) }; "
            "local:f(3)", "3"),
        "let_value": (
            "let $s := (" + " ".join(f"for $v{i} in (1 to 2)"
                                     for i in range(6))
            + " " + " ".join(f"for $w{i} in (1 to 1)" for i in range(19))
            + " return $v0 + $w18) return (count($s), sum($s), count($s))",
            "64 160 64"),
        "else_if_100": (
            "for $x in (5, 7, 200) return " + _else_if_chain(100) + "0",
            "6 8 0"),
        "else_if_300": (
            "for $x in (5, 250) return " + _else_if_chain(300) + "0",
            "6 251"),
    }

    #: 30 child steps, each one loop inside the last, over a document
    #: 30 elements deep
    CHILD_PATH = ("count(/" + "/".join(f"d{i}" for i in range(30)) + ")",
                  "".join(f"<d{i}>" for i in range(29)) + "<d29/><d29/>"
                  + "".join(f"</d{i}>" for i in reversed(range(29))))

    @pytest.mark.parametrize("query", DEEP)
    def test_deeply_nested_queries_compile(self, query, bib_xml):
        generated = _outcome_and_stats(Engine(), query, bib_xml)
        _agree(generated,
               _outcome_and_stats(ReferenceEngine(), query, bib_xml))
        assert generated[0][0] == "ok"

    @pytest.mark.parametrize("name", sorted(NESTS))
    def test_nests_answer_like_the_reference(self, name, bib_xml):
        query, answer = self.NESTS[name]
        generated = _outcome_and_stats(Engine(), query, bib_xml)
        _agree(generated,
               _outcome_and_stats(ReferenceEngine(), query, bib_xml))
        assert generated[0] == ("ok", answer)

    def test_thirty_step_child_path(self):
        query, doc = self.CHILD_PATH
        generated = _outcome_and_stats(Engine(), query, doc)
        _agree(generated, _outcome_and_stats(ReferenceEngine(), query, doc))
        assert generated[0] == ("ok", "2")


def assert_counters(generated: dict, reference: dict) -> None:
    """The differential rule for ``engine_stats``
    (:mod:`repro.observability.counters`): semantic counters identical,
    and every diary no higher than the oracle's."""
    semantics, diaries = split_counters(generated)
    ref_semantics, ref_diaries = split_counters(reference)
    assert semantics == ref_semantics
    for key, value in diaries.items():
        assert value <= ref_diaries.get(key, 0), (key, diaries, ref_diaries)


def _catalog_outcome(engine, text, declared, bindings):
    try:
        result = engine.compile(text, variables=declared).execute(
            variables=bindings)
        image = ("ok", result.serialize())
        stats = {k: v for k, v in result.stats.items()
                 if k.startswith(("access_path.", "twig."))}
        return image, stats
    except Exception as exc:  # noqa: BLE001 - compared structurally
        return ("err", type(exc).__name__, getattr(exc, "code", None)), {}


def _same_catalog_outcome(generated, reference) -> None:
    assert generated[0] == reference[0]
    assert_counters(generated[1], reference[1])


class TestIndexedOperators:
    """AccessPath and TwigJoin, emitted: same output, same
    ``access_path.*`` / ``twig.*`` counters, same navigation fallback on
    a foreign binding as the closure operators."""

    QUERIES = [
        ("$auction/site/people/person[@id = $a]/name/text()", {"a": "person3"}),
        ("count($auction/site/open_auctions/open_auction/bidder"
         "[xs:double(increase) >= $x])", {"x": 6.0}),
        ("count($auction//open_auction[bidder/increase][itemref]"
         "/seller[@person = $a])", {"a": "person1"}),
        ("for $p in $auction/site/people/person "
         "where xs:double($p/profile/@income) >= $x "
         "order by xs:double($p/profile/@income) "
         "return $p/name/text()", {"x": 50000.0}),
        ("$auction//item[location = $a]/name", {"a": "United States"}),
        ("count($auction//person[profile][address/city])", {}),
        ("$auction/site/people/person[xs:integer(@id) = 1]", {}),  # FORG0001
        # value-index probes with run-time keys: two lookups sharing a
        # prefix (the let CSE leaves), an empty, a numeric (FORG0001),
        # a two-valued and an unbound probe (XPDY0002)
        ("($auction/site/people/person[@id = $a]/name/text(), "
         "$auction/site/people/person[@id = $b]/name/text())",
         {"a": "person1", "b": "person2"}),
        ("$auction/site/people/person[@id = subsequence($a, 2)]", {"a": "x"}),
        ("$auction/site/people/person[@id = $a]", {"a": 3}),
        ("$auction/site/people/person[@id = ($a, $b)]/name/text()",
         {"a": "person2", "b": "person1"}),
        ("declare variable $u external; "
         "$auction/site/people/person[@id = $u]", {}),
    ]

    @pytest.fixture(scope="class")
    def engines(self, xmark_small):
        import repro

        cat = repro.catalog()
        cat.add("auction", xmark_small)
        return {"closure": ReferenceEngine(catalog=cat),
                "source": Engine(catalog=cat)}

    @pytest.mark.parametrize("text,bindings", QUERIES)
    def test_pinned_tree_uses_the_index(self, engines, text, bindings):
        declared = tuple(bindings)
        reference = _catalog_outcome(engines["closure"], text, declared,
                                     bindings)
        generated = _catalog_outcome(engines["source"], text, declared,
                                     bindings)
        _same_catalog_outcome(generated, reference)
        if generated[0][0] == "ok":
            assert not any(key.endswith("fallback_navigation")
                           for key in generated[1])

    @pytest.mark.parametrize("text,bindings", QUERIES)
    def test_foreign_binding_degrades_to_navigation(self, engines, text,
                                                    bindings, xmark_small):
        foreign = dict(bindings, auction=parse_document(xmark_small))
        declared = tuple(bindings)
        reference = _catalog_outcome(engines["closure"], text, declared,
                                     foreign)
        generated = _catalog_outcome(engines["source"], text, declared,
                                     foreign)
        _same_catalog_outcome(generated, reference)
        if generated[0][0] == "ok":
            # every index operator in the plan took its navigation side
            assert all(key.endswith("fallback_navigation")
                       for key in generated[1])


# ---------------------------------------------------------------------------
# Loop-invariant operands: bound once per activation, at first use
# ---------------------------------------------------------------------------


def _e_doc(*values: str) -> str:
    return "<r>" + "".join(f'<e v="{v}" k="{v[:1]}"/>' for v in values) + "</r>"


#: with matches / with none (the invariant must NOT be evaluated) /
#: an invalid lexical in the 2nd node, after a match / ... before any
HOIST_DOCS = {
    "matches": _e_doc("10", "50000", "20", "70000"),
    "none": "<r/>",
    "invalid_late": _e_doc("70000", "x", "30"),
    "invalid_early": _e_doc("x", "70000", "30"),
}

#: the invariant operand, as query text (``$x``/``$u`` are external)
HOIST_INVARIANTS = [
    "20",                      # a literal
    "$x",
    "$x div 2",
    "$x + 48000",
    "(15, 1000000)",           # a two-item sequence
    "()",                      # empty: false, left never evaluated
    "'a'",                     # a string against a numeric cast: XPTY0004
    "xs:double('NaN')",
    "$u",                      # an unbound external: XPDY0002
    "$x div 0",                # FOAR0001 for the integer binding
    "-$x",
    "($x cast as xs:double)",
]

#: ``cast(path) op invariant`` in every consumer that can stop early
HOIST_SHAPES = [
    "//e[xs:double(@v) >= {inv}]/@v/string()",
    "for $e in //e where xs:double($e/@v) >= {inv} return string($e/@v)",
    "count(//e[xs:double(@v) < {inv}])",
    "exists(/r/e[xs:double(@v) >= {inv}])",
    "(/r/e[xs:double(@v) >= {inv}])[1]/@v/string()",
    "some $e in //e satisfies xs:double($e/@v) > {inv}",
    "every $e in //e satisfies xs:double($e/@v) > {inv}",
    "//e[(@v cast as xs:double?) >= {inv}]/@v/string()",
    "//e[@v = {inv}]/@v/string()",                 # no cast: untyped left
    "//e[xs:double(@v) ge {inv}]/@v/string()",     # value comparison
    "//e[{inv} le xs:double(@v)]/@v/string()",     # invariant on the left
    "//e/(xs:double(@v) + {inv})",                 # arithmetic operand
    "//e[xs:double(@v) < {inv} and xs:double(@v) >= {inv}]/@v/string()",
]


def _hoist_outcome(engine, query, xml_text, bindings):
    text = ("declare variable $x external; declare variable $u external; "
            + query)
    try:
        result = engine.compile(text).execute(context_item=xml_text,
                                              variables=bindings)
        image = ("ok", result.serialize())
        return image, dict(result.stats)
    except Exception as exc:  # noqa: BLE001 - compared structurally
        return ("err", type(exc).__name__, getattr(exc, "code", None)), {}


def _agree(generated, reference) -> None:
    """Same result or error, same semantic counters, no more diary."""
    assert generated[0] == reference[0]
    assert_counters(generated[1], reference[1])


class TestInvariantOperands:
    """A hoisted operand may change how often it is evaluated — never
    the result, the error code, *whether* an error is raised, or a
    counter."""

    @pytest.mark.parametrize("inv", HOIST_INVARIANTS)
    @pytest.mark.parametrize("shape", HOIST_SHAPES)
    def test_identical_to_the_reference(self, shape, inv):
        query = shape.format(inv=inv)
        source, closure = Engine(), ReferenceEngine()
        for doc_name, xml_text in HOIST_DOCS.items():
            for x in (40, 40.5):
                generated = _hoist_outcome(source, query, xml_text, {"x": x})
                reference = _hoist_outcome(closure, query, xml_text, {"x": x})
                try:
                    _agree(generated, reference)
                except AssertionError as exc:
                    raise AssertionError((query, doc_name, x)) from exc

    def test_operand_is_not_evaluated_by_a_loop_that_never_runs(self):
        engine = Engine()
        for inv in ("$u", "$x div 0", "xs:double('oops')"):
            query = f"count(//e[xs:double(@v) >= {inv}])"
            assert _hoist_outcome(engine, query, HOIST_DOCS["none"],
                                  {"x": 1})[0] == ("ok", "0")
            assert _hoist_outcome(engine, query, HOIST_DOCS["matches"],
                                  {"x": 1})[0][0] == "err"

    def test_cast_error_fires_iff_the_reference_reaches_it(self):
        engine = Engine()
        # (/r/e streams: //e would sit behind a materializing DDO)
        query = "exists(/r/e[xs:double(@v) >= $x])"
        assert _hoist_outcome(engine, query, HOIST_DOCS["invalid_late"],
                              {"x": 100.0})[0] == ("ok", "true")
        assert _hoist_outcome(engine, query, HOIST_DOCS["invalid_early"],
                              {"x": 100.0})[0] == ("err", "CastError",
                                                   "FORG0001")
        first = "(/r/e[xs:double(@v) >= $x])[1]/@v/string()"
        assert _hoist_outcome(engine, first, HOIST_DOCS["invalid_late"],
                              {"x": 100.0})[0] == ("ok", "70000")

    def test_outer_loop_variable_is_rebound_per_outer_iteration(self):
        xml_text = HOIST_DOCS["matches"]
        cases = {
            "for $c in (15, 60000, 100000) "
            "return count(//e[xs:double(@v) >= $c])": "3 1 0",
            # the e2e ``grouping`` template's correlated predicate
            "for $c in distinct-values(//e/@k) order by $c "
            "return concat($c, ':', count(//e[@k = $c][xs:double(@v) >= $x]))":
                "1:0 2:0 5:1 7:1",
            "for $c in (10, 20) return "
            "(for $e in //e where xs:double($e/@v) = $c * 1 "
            "return string($e/@v))": "10 20",
        }
        for query, expected in cases.items():
            generated = _hoist_outcome(Engine(), query, xml_text,
                                       {"x": 30000.0})
            _agree(generated, _hoist_outcome(ReferenceEngine(), query,
                                             xml_text, {"x": 30000.0}))
            assert generated[0] == ("ok", expected), query

    def test_aliasing_a_local_does_not_move_its_first_binding(self):
        """``for $b in $a`` binds ``$b`` to ``$a``'s own Python local;
        doing so inside a sub-region function (a ``let`` read twice) or
        a quantifier must leave ``$a`` bound by its loop, so a later
        operand over ``$a`` is re-bound per ``$a``."""
        xml_text = "<r><v>1</v><v>2</v><v>3</v></r>"
        cases = {
            # general comparison: the lane
            "for $a in (1, 2, 3) "
            "let $s := (for $b at $i in $a return $b + $i) "
            "return ($s, $s, //v[. = $a]/string())": "2 2 1 3 3 2 4 4 3",
            # value comparison and arithmetic: the held atom
            "for $a in (1, 2, 3) "
            "let $s := (for $b in $a return $b * 2) "
            "return ($s, $s, //v[xs:integer(.) eq $a]/string())":
                "2 2 1 4 4 2 6 6 3",
            "for $a in (1, 2) "
            "let $s := (for $b in $a return $b) "
            "return ($s, $s, //v/(xs:integer(.) + $a))": "1 1 2 3 4 2 2 3 4 5",
            # a quantifier re-binding the local, inline and in a let
            "for $a in (1, 2, 3) "
            "let $q := (some $b in $a satisfies $b > 1) "
            "return ($q, $q, count(//v[xs:double(.) >= $a]))":
                "false false 3 true true 2 true true 1",
            "for $a in (1, 2, 3) "
            "return (every $b in $a satisfies $b < 3, //v[. = $a]/string())":
                "true 1 true 2 false 3",
            # two levels down, then back out
            "for $a in (1, 2, 3) "
            "let $s := (for $b in $a let $t := (for $c in $b return $c) "
            "return ($t, $t)) "
            "return ($s, $s, //v[. = $a]/string())":
                "1 1 1 1 1 2 2 2 2 2 3 3 3 3 3",
        }
        for query, expected in cases.items():
            generated = _hoist_outcome(Engine(), query, xml_text, {})
            _agree(generated, _hoist_outcome(ReferenceEngine(), query,
                                             xml_text, {}))
            assert generated[0] == ("ok", expected), query

    def test_node_creating_operand_is_never_hoisted(self):
        """A constructor on the invariant side builds a new node per
        evaluation under both backends (``elements_constructed``)."""
        xml_text = HOIST_DOCS["matches"]
        direct = "count(//e[xs:double(@v) >= <n>20</n>])"
        via_let = ("for $i in (1, 2) let $n := <n>{$i * 20}</n> "
                   "return count(//e[xs:double(@v) >= $n])")
        for query in (direct, via_let):
            generated = _hoist_outcome(Engine(), query, xml_text, {})
            _agree(generated, _hoist_outcome(ReferenceEngine(), query,
                                             xml_text, {}))
            assert generated[0][0] == "ok"
        assert _hoist_outcome(Engine(), direct, xml_text,
                              {})[1]["elements_constructed"] == 4
        source = Engine().compile(direct).generated_source
        assert "_compare_lane" not in source

    def test_invariant_is_read_once_per_activation(self):
        compiled = Engine().compile(
            "declare variable $x external; "
            "count(//e[xs:double(@v) >= $x and xs:double(@v) < $x * 2])")
        source = compiled.generated_source
        assert source.count("_compare_lane(") == 2
        assert "_general_pair" not in source
        # both lanes start absent before the outermost loop ...
        head = source[:source.index("while ")]
        assert head.count("= _ABSENT") == 2
        # ... and the variable is read where they are first needed
        reads = []
        from repro.runtime.dynamic import DynamicContext
        real = DynamicContext.variable

        def counting(self, name):
            reads.append(name.local)
            return real(self, name)

        DynamicContext.variable = counting
        try:
            result = compiled.execute(context_item=HOIST_DOCS["matches"],
                                      variables={"x": 15.0})
            assert result.serialize() == "1"
        finally:
            DynamicContext.variable = real
        assert reads.count("x") == 2


# ---------------------------------------------------------------------------
# Join detection: a correlated equality filter probes a hash lane
# ---------------------------------------------------------------------------

#: people and their cities: one with two cities, one with none, one
#: padded, one numeric-looking, one empty — and Rome listed twice
JOIN_DOC = """<r><people>
<person id="p1" age="31"><address><city>Rome</city></address></person>
<person id="p2" age="25"><address><city>Paris</city><city>Rome</city>
<city>Rome</city></address></person>
<person id="p3" age="40"/>
<person id="p4" age="52"><address><city> Rome </city></address></person>
<person id="p5" age="33"><address><city>10</city></address></person>
<person id="p6" age="28"><address><city>Paris</city></address></person>
<person id="p7" age="61"><address><city/></address></person>
</people></r>"""

#: the numeric-looking city first: a numeric probe's scan may stop
#: before the first FORG0001
JOIN_DOC_NUMBER_FIRST = JOIN_DOC.replace("<city>Rome</city></address>"
                                         "</person>\n<person id=\"p2\"",
                                         "<city>10.0</city></address>"
                                         "</person>\n<person id=\"p2\"", 1)

#: the loop the probe varies with
JOIN_LOOPS = {
    "strings": "for $c in ('Rome', 'Paris', 'Oslo', '', ' Rome ')",
    "distinct": "for $c in distinct-values($d//city)",  # untyped atoms
    "nodes": "for $c in $d//city",                       # atomized probe
    "numbers": "for $c in (10, 10.0, 1e1)",              # scans: FORG0001
    "mixed": "for $c in ('Rome', 10, 'Paris')",
    "multi": "for $i in (1, 2, 3) let $c := if ($i = 1) then "
             "('Rome', 'Paris') else if ($i = 2) then ('Paris', 10) else ()",
    "empty_loop": "for $c in $d//nowhere",
    "unbound": "for $i in ('Rome', 'Paris') let $c := concat($i, $u)",
    "cast_error": "for $i in ('1', 'x') let $c := xs:integer($i)",
}

#: the correlated filter in every position a consumer can take it
JOIN_SHAPES = [
    "count($d/r/people/person[address/city = $c])",
    "$d/r/people/person[address/city = $c][xs:integer(@age) > 30]"
    "/@id/string()",
    "$d/r/people/person[address/city = $c][2]/@id/string()",
    "$d/r/people/person[address/city = $c][last()]/@id/string()",
    "exists($d/r/people/person[$c = address/city])",
    "$d/r/people/person[@id = $c]/@age/string()",
    "count($d/r/people/person/address[city/text() = $c])",
    "count($d//city[. = $c])",
    "$p[address/city = $c]/@id/string()",
    "count(($p, $p)[address/city = $c])",
    "count(($p, 1)[address/city = $c])",   # XPTY0020 at the atom
    "count($z[. = $c])",                   # FOAR0001 building the base
    "count($d/r/people/nobody[address/city = $c])",
]


def _join_query(loop: str, shape: str) -> str:
    return ("declare variable $d external; declare variable $u external; "
            "let $p := $d/r/people/person, "
            "$z := (for $i in (2, 0) return string(2 idiv $i)) "
            f"return {loop} return ({shape})")


#: shared engines: the matrix compiles each text once per backend
_join_source = Engine()
_join_closure = ReferenceEngine()


def _join_outcome(engine, query, doc):
    try:
        result = engine.compile(query).execute(variables={"d": doc})
        return ("ok", result.serialize()), dict(result.stats)
    except Exception as exc:  # noqa: BLE001 - compared structurally
        return ("err", type(exc).__name__, getattr(exc, "code", None)), {}


class TestJoinDetection:
    """``B[K = $v]`` inside a loop ``$v`` varies with and ``B`` does
    not: one table per activation, one probe per iteration — and the
    same results, error codes and semantic counters as the scan."""

    @pytest.fixture(scope="class")
    def docs(self):
        return {"join": parse_document(JOIN_DOC),
                "number_first": parse_document(JOIN_DOC_NUMBER_FIRST)}

    @pytest.mark.parametrize("loop", sorted(JOIN_LOOPS))
    @pytest.mark.parametrize("shape", JOIN_SHAPES)
    def test_identical_to_the_reference(self, docs, loop, shape):
        query = _join_query(JOIN_LOOPS[loop], shape)
        for name, doc in docs.items():
            generated = _join_outcome(_join_source, query, doc)
            reference = _join_outcome(_join_closure, query, doc)
            try:
                _agree(generated, reference)
            except AssertionError as exc:
                raise AssertionError((query, name, generated[0],
                                      reference[0])) from exc

    @pytest.mark.parametrize("shape", [s for s in JOIN_SHAPES
                                       if "last()" not in s])
    def test_the_filter_compiles_to_a_hash_lane(self, shape):
        # last() buffers the base behind a sub-region: a scan there
        query = _join_query(JOIN_LOOPS["strings"], shape)
        assert "_HashLane(" in _join_source.compile(query).generated_source

    def test_answers(self, docs):
        cases = {
            "count($d/r/people/person[address/city = $c])": "2 2 0 1 1",
            "$d/r/people/person[address/city = $c][2]/@id/string()":
                "p2 p6",
            "count(($p, $p)[address/city = $c])": "4 4 0 2 2",
        }
        for shape, expected in cases.items():
            query = _join_query(JOIN_LOOPS["strings"], shape)
            assert _join_outcome(_join_source, query, docs["join"])[0] \
                == ("ok", expected), shape

    def test_table_is_built_once_per_activation(self, docs, monkeypatch):
        from repro.runtime.compare import HashLane

        builds = []
        real = HashLane._build

        def counting(lane, context, items):
            builds.append(context)
            return real(lane, context, items)

        monkeypatch.setattr(HashLane, "_build", counting)
        # the base is invariant to both loops: one table for the query
        query = _join_query("for $k in (1, 2) return " + JOIN_LOOPS["strings"],
                            JOIN_SHAPES[0])
        result = _join_outcome(_join_source, query, docs["join"])
        assert result[0] == ("ok", "2 2 0 1 1 2 2 0 1 1")
        assert len(builds) == 1
        # the base varies with $k: one table per activation of the $c loop
        builds.clear()
        query = _join_query(
            "for $k in (1, 2) let $q := $p[xs:integer(@age) > $k * 20] "
            "return " + JOIN_LOOPS["strings"], "count($q[address/city = $c])")
        result = _join_outcome(_join_source, query, docs["join"])
        assert result[0] == ("ok", "2 2 0 1 1 0 0 0 1 1")
        assert len(builds) == 2
        _agree(result, _join_outcome(_join_closure, query, docs["join"]))

    def test_errors_fire_where_the_scan_raises(self, docs):
        # ($p streams: a path would sit behind a materializing DDO)
        numbers = _join_query(JOIN_LOOPS["numbers"],
                              "exists($p[address/city = $c])")
        assert _join_outcome(_join_source, numbers, docs["join"])[0] \
            == ("err", "CastError", "FORG0001")
        assert _join_outcome(_join_source, numbers,
                             docs["number_first"])[0] \
            == ("ok", "true true true")
        for loop, code in (("unbound", "XPDY0002"),
                           ("cast_error", "FORG0001")):
            query = _join_query(JOIN_LOOPS[loop], JOIN_SHAPES[0])
            assert _join_outcome(_join_source, query, docs["join"])[0][2] \
                == code
            # an empty base never evaluates the probe
            query = _join_query(JOIN_LOOPS[loop], JOIN_SHAPES[-1])
            assert _join_outcome(_join_source, query, docs["join"])[0] \
                == ("ok", "0 0")

    def test_a_lane_never_swallows_cancellation(self):
        from repro.runtime.paths import compile_step_fn
        from repro.errors import QueryCancelled
        from repro.qname import QName
        from repro.runtime.cancellation import CancellationToken
        from repro.runtime.compare import HashLane
        from repro.xquery import ast

        doc = parse_document(JOIN_DOC)
        people = doc.children[0].children[0]
        step = compile_step_fn("child", ast.NodeTest("element",
                                                      QName("", "person")))
        token = CancellationToken()
        token.cancel("test")
        with pytest.raises(QueryCancelled):
            HashLane((step, ()), token).table(people)
        # a dynamic error in the build leaves the decision to the scan
        assert HashLane((None, (step,)), None).table(None, [1]) is None

    def test_invariant_path_aggregate_is_held(self):
        """``[price > avg($d//price)]`` evaluates the average once per
        activation: fewer DDO sorts (a diary), same answer."""
        doc = parse_document(BIB)
        query = ("declare variable $d external; "
                 "$d//book[xs:decimal(price) > avg($d//price)]/title/string()")
        generated = _join_outcome(_join_source, query, doc)
        reference = _join_outcome(_join_closure, query, doc)
        _agree(generated, reference)
        assert generated[1]["ddo_sorts"] < reference[1]["ddo_sorts"]
        source = _join_source.compile(query).generated_source
        assert source.count("= _ABSENT") == 1


# -- the e2e ledger's templates join the corpus ------------------------------

sys.path.insert(0, str(Path(__file__).resolve().parents[1]
                       / "benchmarks" / "e2e"))
import queries as e2e_queries  # noqa: E402 - the harness's flat module

sys.path.pop(0)

E2E_TEMPLATES = e2e_queries.templates(n_people=12)

#: emitted lines per ad-hoc text of the ``adhoc_compile`` workload
#: (literal ``50000.000000001`` for ``$x``, the ``xmark_small``
#: catalog): ~8 us of compile per line, so neither the comparison
#: lanes nor the hash lane may buy execution speed with emitted text.
#: 1 821 lines over the thirteen at 2.0.0, 1 729 at 2.1.0, 1 672 at
#: 2.2.0 (dead node guards and back-to-back polls gone), 1 716 at 4.1.0,
#: where the plans are the lifted ones and compile once per *shape*,
#: not per text: each lifted literal is one ``dctx.variable(..)[0]``
#: read (+1 line each: one ``$x`` in most templates, two in grouping,
#: ``$x`` and the ``2`` of ``count(..) > 2`` in conditional), and
#: partition's ``$x div 2`` no longer folds to one constant (+30: two
#: runtime divisions).
ADHOC_PARENT_LINES = {
    "flwor_where": 99, "count_pred": 88, "quantifier": 103,
    "constructor": 120, "order_by": 118, "user_function": 114,
    "aggregates": 125, "grouping": 243, "conditional": 142,
    "string_functions": 109, "absence": 104, "partition": 256,
    "deep_text": 95,
}


class TestE2ETemplates:
    @pytest.fixture(scope="class")
    def engines(self, xmark_small):
        import repro

        cat = repro.catalog()
        cat.add("auction", xmark_small)
        return {"closure": ReferenceEngine(catalog=cat),
                "source": Engine(catalog=cat)}

    @pytest.mark.parametrize("name", sorted(E2E_TEMPLATES))
    def test_registered_and_adhoc_forms(self, engines, name):
        import random

        template = E2E_TEMPLATES[name]
        rng = random.Random(name)
        text = e2e_queries.source_text(template, "$auction")
        declared = tuple(template.params)
        for _ in range(3):
            bindings = template.sample(rng)
            reference = _catalog_outcome(engines["closure"], text, declared,
                                         bindings)
            generated = _catalog_outcome(engines["source"], text, declared,
                                         bindings)
            _same_catalog_outcome(generated, reference)
            assert generated[0][0] == "ok"
            literals = {k: repr(v) if isinstance(v, float) else f"'{v}'"
                        for k, v in bindings.items()}
            adhoc = e2e_queries.adhoc_text(template, "$auction", literals)
            assert _catalog_outcome(engines["source"], adhoc, (), {})[0] \
                == _catalog_outcome(engines["closure"], adhoc, (), {})[0] \
                == reference[0]

    @pytest.mark.parametrize("name", sorted(ADHOC_PARENT_LINES))
    def test_adhoc_texts_emit_no_more_lines_than_the_parent(self, engines,
                                                            name):
        text = e2e_queries.adhoc_text(E2E_TEMPLATES[name], "$auction",
                                      {"x": "50000.000000001"})
        emitted = engines["source"].compile(text).generated_source
        assert len(emitted.splitlines()) <= ADHOC_PARENT_LINES[name]


#: module-level engines so hypothesis examples share the compile caches
_closure_prop = ReferenceEngine()
_source_prop = Engine()


# ---------------------------------------------------------------------------
# Compile-cache identity: the executor keys the cache
# ---------------------------------------------------------------------------


class TestCompileCache:
    def test_backend_keys_the_compile_cache(self, bib_xml):
        """No cache key names the executor, so an oracle plan must never
        reach a product engine's cache: a :class:`ReferenceEngine`
        refuses a shared cache and keeps one of its own."""
        shared = LRUCache(16)
        with pytest.raises(TypeError, match="compile_cache"):
            ReferenceEngine(compile_cache=shared)
        closure = ReferenceEngine()
        source = Engine(compile_cache=shared)
        query = "count(//book)"
        a = closure.compile(query)
        b = source.compile(query)
        assert a is not b
        assert a.generated_source is None
        assert b.generated_source is not None
        assert closure.compile_cache is not shared
        # each engine hits its own entry
        assert closure.compile(query) is a
        assert source.compile(query) is b

    def test_source_cache_hit_returns_same_plan(self, bib_xml):
        engine = Engine()
        first = engine.compile("//book/title")
        second = engine.compile("//book/title")
        assert first is second
        assert first.execute(context_item=bib_xml).serialize() \
            == ReferenceEngine().compile("//book/title") \
                       .execute(context_item=bib_xml).serialize()

    def test_codegen_argument_validated(self):
        # the executor is chosen by engine class, not by an option
        with pytest.raises(TypeError, match="codegen"):
            ExecutionOptions(codegen="jit")


# ---------------------------------------------------------------------------
# The kinds that crossed into the closure interpreter before 4.0
# ---------------------------------------------------------------------------


#: typeswitch, group by, validate and user functions kept as calls,
#: error paths included: results, error codes and counters as the
#: reference's
FORMER_SEAM_QUERIES = [
    # -- typeswitch: case variables, the default's, a failing operand
    'for $x in (1, "a", //book[1], 2.25) return typeswitch ($x) '
    'case $i as xs:integer return $i + 1 '
    'case $s as xs:string return concat($s, "!") '
    'case $e as element() return name($e) default $d return string($d)',
    'typeswitch (//book) case $b as element(book)+ return count($b) '
    'default return 0',
    'typeswitch (//book[1]/@year) case $a as attribute() return string($a) '
    'case element() return 1 default $d return $d',
    'typeswitch (1 div 0) case xs:integer return 1 default return 2',
    '//book[typeswitch (price) case $p as element(price) '
    'return xs:decimal($p) > 30 default return false()]/title',
    'sum(for $b in //book return typeswitch ($b/editor) '
    'case $e as element()+ return count($e) default return 0)',
    # -- group by, with and without order by; keys: two-valued
    # (XPTY0004), empty, mixed types, two of them
    'for $b in //book group by $y := string($b/@year) order by $y '
    'descending return <g y="{$y}" n="{count($b)}">{$b/title}</g>',
    'for $b in //book let $p := xs:decimal($b/price) '
    'group by $y := $b/@year order by sum($p) return ($y, sum($p))',
    'for $b at $i in //book group by $k := $i mod 2 return ($k, $i)',
    'for $b in //book group by $a := $b/author/last return $a',
    'for $b in //book group by $a := $b/author/last order by $a '
    'return $a',
    'for $b in //book group by $e := $b/editor return count($b)',
    'for $x in (1, 2, 1, "1", 2.0) group by $k := $x '
    'return ($k, count($x))',
    'for $b in //book group by $y := string($b/@year), '
    '$n := count($b/author) order by $y, $n '
    'return concat($y, ":", $n, ":", count($b))',
    'for $b in //book where $b/price > 25 group by $p := $b/publisher '
    'return <p>{$p, count($b)}</p>',
    # -- validate
    'validate { <a/> }',
    'validate { document { <a/> } }',
    'validate { 1 }',
    'validate { (<a/>, <b/>) }',
    # -- recursive user functions: mutual recursion, typed parameters
    # and returns, conversion errors, laziness, nodes
    'declare function local:even($n) { if ($n eq 0) then true() '
    'else local:odd($n - 1) }; declare function local:odd($n) '
    '{ if ($n eq 0) then false() else local:even($n - 1) }; '
    '(local:even(10), local:odd(7), local:even(7))',
    'declare function local:sum($s as xs:decimal*) as xs:decimal '
    '{ if (empty($s)) then 0 else $s[1] + local:sum(subsequence($s, 2)) }; '
    'local:sum(//book/price)',
    'declare function local:f($n as xs:integer) as xs:string '
    '{ if ($n le 0) then "x" else local:f($n - 1) }; local:f(3)',
    'declare function local:f($n as xs:integer) as xs:integer '
    '{ if ($n le 0) then "x" else local:f($n - 1) }; local:f(2)',
    'declare function local:f($n as xs:integer) '
    '{ if ($n le 0) then 0 else local:f($n - 0.5) }; local:f(2)',
    'declare function local:f($n) { if ($n le 0) then error() '
    'else ($n, local:f($n - 1)) }; local:f(5)[2]',
    'declare function local:depth($e) { if (empty($e/*)) then 1 '
    'else 1 + max(for $c in $e/* return local:depth($c)) }; '
    'local:depth(/bib)',
    'declare function local:copy($e) { element { name($e) } '
    '{ for $c in $e/* return local:copy($c) } }; local:copy(//book[1])',
    'declare function local:up($n, $acc) { if ($n le 0) then $acc '
    'else local:up($n - 1, ($acc, $n)) }; local:up(5, ())',
]

#: the answers the differential alone would not pin
FORMER_SEAM_ANSWERS = {
    FORMER_SEAM_QUERIES[0]: ("ok", "2 a! book 2.25"),
    FORMER_SEAM_QUERIES[9]: ("err", "TypeError_", "XPTY0004"),
    FORMER_SEAM_QUERIES[19]: ("ok", "true true false"),
    FORMER_SEAM_QUERIES[24]: ("ok", "4"),
}


def _outcome_and_stats(engine, query, xml_text):
    try:
        result = engine.compile(query).execute(context_item=xml_text)
        return ("ok", result.serialize()), dict(result.stats)
    except Exception as exc:  # noqa: BLE001 - compared structurally
        return ("err", type(exc).__name__, getattr(exc, "code", None)), {}


class TestFormerSeams:
    @pytest.mark.parametrize("query", FORMER_SEAM_QUERIES)
    def test_identical_to_the_reference(self, query, bib_xml):
        generated = _outcome_and_stats(Engine(), query, bib_xml)
        reference = _outcome_and_stats(ReferenceEngine(), query, bib_xml)
        _agree(generated, reference)
        if query in FORMER_SEAM_ANSWERS:
            assert generated[0] == FORMER_SEAM_ANSWERS[query]
        assert Engine().compile(query).generated_source is not None

    def test_let_binding_is_pulled_once(self, bib_xml):
        """A let-bound sequence consumed by a typeswitch and by a count
        is pulled once and replayed — the BufferedSequence contract."""
        query = ("let $t := //book/title return (count($t), "
                 "typeswitch ($t) case element()+ return true() "
                 "default return false(), count($t))")
        generated = _outcome_and_stats(Engine(), query, bib_xml)
        _agree(generated,
               _outcome_and_stats(ReferenceEngine(), query, bib_xml))
        assert generated[0] == ("ok", "3 true 3")
        assert generated[1].get("ddo_sorts", 0) <= 1

    def test_forg0001_through_typeswitch(self, bib_xml):
        """A cast error raised while a typeswitch drains a binding keeps
        its code — and both backends agree."""
        query = ("let $v := for $i in ('1', '2', 'x', '4') "
                 "         return xs:integer($i) "
                 "return (typeswitch ($v) case xs:integer+ return true() "
                 "default return false(), count($v))")
        generated = outcome(Engine(), query, bib_xml)
        assert generated == outcome(ReferenceEngine(), query, bib_xml)
        assert generated == ("err", "CastError", "FORG0001")

    def test_typeswitch_sees_the_path_focus(self, bib_xml):
        query = ("//book/(string(title), typeswitch (.) "
                 "case element() return string(@year) default return ())")
        assert_source_equivalent(query, bib_xml)
        assert outcome(Engine(), query, bib_xml)[1].endswith(
            "XML Query 1998")

    def test_one_generated_function_per_kept_function(self):
        compiled = Engine().compile(FORMER_SEAM_QUERIES[19])
        source = compiled.generated_source
        # each function once, whatever the number of call sites
        assert source.count("def _uf") == 2


# ---------------------------------------------------------------------------
# Observability: tags, generated source, cancellation
# ---------------------------------------------------------------------------


class TestObservability:
    def test_plan_tree_tagged(self, bib_xml):
        engine = Engine()
        compiled = engine.compile(
            "(typeswitch (//book[1]) case element() return true() "
            "default return false(), count(//book))")
        tags = {node.info.get("codegen")
                for node in compiled.plan_tree.walk()
                if "codegen" in node.info}
        assert compiled.plan_tree.info["codegen"] == "source"
        assert tags == {"source", "fused"}

    def test_generated_source_is_python(self, bib_xml):
        compiled = Engine().compile("count(//book)")
        assert "def _q0(dctx):" in compiled.generated_source
        compile(compiled.generated_source, "<check>", "exec")  # parses

    def test_closure_backend_has_no_generated_source(self):
        assert ReferenceEngine().compile("1 + 1").generated_source is None

    def test_generated_source_registered_with_linecache(self):
        from repro.compiler.pysource import SourcePlanCompiler
        from repro.compiler.normalize import normalize_module
        from repro.xquery.parser import parse_query

        core, static_ctx = normalize_module(parse_query("1 + 1"))
        compiler = SourcePlanCompiler(static_ctx)
        compiler.compile_root(core)
        assert compiler.filename in linecache.cache
        cached = "".join(linecache.cache[compiler.filename][2])
        assert "def _q0" in cached

    def test_evicted_plans_free_their_linecache_entries(self):
        """A never-repeated ad-hoc stream must not grow linecache: the
        registration lives exactly as long as the compiled plan."""
        import gc

        def registered():
            return sum(1 for name in linecache.cache
                       if name.startswith("<repro-pysource-"))

        gc.collect()
        before = registered()
        engine = Engine(options=ExecutionOptions(compile_cache_size=64))
        for i in range(500):
            engine.compile(f"for $i in 1 to {i} return <a n='{{$i}}'/>")
        gc.collect()
        assert registered() - before <= 64 + 4
        # a live plan keeps its text: tracebacks stay readable
        live = engine.compile("1 + 1")
        assert any("".join(entry[2]) == live.generated_source
                   for name, entry in linecache.cache.items()
                   if name.startswith("<repro-pysource-"))
        del engine, live
        gc.collect()
        assert registered() - before <= 4

    def test_explain_analyze_runs_on_source_backend(self, bib_xml):
        engine = Engine()
        text = str(engine.explain(
            "for $b in //book where $b/price > 20 return $b/title",
            context_item=bib_xml, analyze=True))
        assert "codegen=source" in text
        # operators the emitter fused never run as separate closures:
        # they are labelled as such, not reported as dead plan branches
        assert "codegen=fused}  (fused into generated code)" in text
        assert "(never executed)" not in text

    def test_deadline_interrupts_generated_loop(self):
        engine = Engine()
        compiled = engine.compile(
            "count(for $i in 1 to 100000000 return $i * 2)")
        t0 = time.perf_counter()
        with pytest.raises(QueryCancelled):
            compiled.execute(deadline=0.05).items()
        assert time.perf_counter() - t0 < 5.0


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
def test_source_scan_beats_closure():
    """Perf smoke: the E15 scan shape must run ≥2x faster under the
    source backend than on the closure oracle."""
    from repro.workloads import generate_xmark

    doc = parse_document(generate_xmark(scale=0.3, seed=7))
    query = "/site/regions//item[@id]/name"
    closure = ReferenceEngine().compile(query)
    source = Engine().compile(query)
    t_closure = _best_of(lambda: closure.execute(context_item=doc).items())
    t_source = _best_of(lambda: source.execute(context_item=doc).items())
    assert t_source * 2 <= t_closure, (
        f"source scan not >=2x over closure: {t_source * 1000:.1f} ms "
        f"vs closure {t_closure * 1000:.1f} ms")


@pytest.mark.perfsmoke
def test_generated_source_compiles_under_50ms():
    """Perf smoke: emit + compile() of the generated source must stay
    under 50 ms per query (it happens once per compile-cache miss)."""
    queries = [
        "count(//description)",
        "/site/regions//item[@id]/name",
        "for $b in //book where $b/price > 30 return $b/title",
        "sum(for $p in //initial return xs:decimal($p))",
    ]
    for query in queries:
        best = _best_of(
            lambda: Engine(compile_cache=None).compile(query))
        assert best < 0.050, (
            f"source compile too slow for {query!r}: {best * 1000:.1f} ms")


# ---------------------------------------------------------------------------
# Counted, not timed: tier-1
# ---------------------------------------------------------------------------


def _spread_cities(xml_text: str, ways: int) -> str:
    """The same document with each city split ``ways`` ways (``Rome``
    becomes ``Rome 0`` .. ``Rome <ways-1>``, person by person)."""
    import itertools
    import re

    turn = itertools.count()
    return re.sub(r"<city>([^<]*)</city>",
                  lambda m: f"<city>{m.group(1)} {next(turn) % ways}</city>",
                  xml_text)


@pytest.mark.parametrize("name", ["partition", "point_lookup", "grouping"])
def test_predicate_work_is_counted_not_timed(name):
    """The gates of the comparison lanes (E21) and of join detection
    (E22), in counts — they repeat exactly; times do not.  No
    ``derives_from`` walk anywhere, and:

    - ``partition``: at most one ``AtomicValue`` per evaluation of
      ``xs:double(@income) op $x`` (the attribute's typed value), ``$x``
      read once per loop *activation* — the same few reads on a document
      five times the size;
    - ``point_lookup``: ``[@id = $a]`` on the bound ``$a`` is a
      value-index probe — a handful of atoms whatever the document size
      (the scan it replaced made one per person);
    - ``grouping``: the correlated ``count(P[address/city = $c])``
      probes a hash table — O(persons + cities) atoms, within four per
      person also when the document has five times the cities (the
      per-city scan made persons × cities)."""
    import xml.etree.ElementTree as ET

    import repro
    from repro.runtime.dynamic import DynamicContext
    from repro.workloads import generate_xmark
    from repro.xdm.items import AtomicValue
    from repro.xsd.types import AtomicType

    template = e2e_queries.templates(n_people=250)[name]
    text = e2e_queries.source_text(template, "$auction")
    bindings = {"partition": {"x": 60000.0},
                "point_lookup": {"a": "person7", "b": "person31"},
                "grouping": {"x": 9000.0}}[name]
    counted = {"derives_from": AtomicType.derives_from,
               "alloc": AtomicValue.__init__,
               "variable": DynamicContext.variable}

    def run(scale, ways=1):
        xml_text = _spread_cities(generate_xmark(scale=scale, seed=7), ways)
        cat = repro.catalog()
        cat.add("auction", xml_text)
        engine = Engine(catalog=cat)
        compiled = engine.compile(text, variables=tuple(template.params))
        output = compiled.execute(variables=bindings).serialize()  # warm
        counts = dict.fromkeys(counted, 0)

        def shim(key):
            real = counted[key]

            def wrapper(*args):
                counts[key] += 1
                return real(*args)
            return wrapper

        AtomicType.derives_from = shim("derives_from")
        AtomicValue.__init__ = shim("alloc")
        DynamicContext.variable = shim("variable")
        try:
            compiled.execute(variables=bindings).serialize()
        finally:
            AtomicType.derives_from = counted["derives_from"]
            AtomicValue.__init__ = counted["alloc"]
            DynamicContext.variable = counted["variable"]
        assert counts["derives_from"] == 0
        counts["persons"] = len(ET.fromstring(xml_text).findall(
            "people/person"))
        counts["cities"] = output.count("<city ")
        counts["sites"] = compiled.generated_source.count("dctx.variable(")
        if name == "point_lookup":
            explained = engine.explain(text, variables=bindings).render()
            assert "access_path.chosen=value_index" in explained
        return counts

    small, large = run(0.2), run(1.0)
    assert large["persons"] >= 4 * small["persons"]
    if name == "partition":
        for counts, size in ((small, 0.2), (large, 1.0)):
            people = ET.fromstring(generate_xmark(scale=size, seed=7)) \
                .findall("people/person")
            # three scans; the second conjunct runs where the first held
            evaluations = 3 * len(people) + sum(
                1 for p in people
                if float(p.find("profile").get("income")) < bindings["x"])
            # + the handful of values made once per request: the bound
            # variable, ``$x div 2``, the three counts
            assert evaluations <= counts["alloc"] <= evaluations + 8
            assert counts["variable"] <= counts["sites"]
        assert large["variable"] == small["variable"]
    elif name == "point_lookup":
        for counts in (small, large):
            assert counts["alloc"] <= 10
            assert counts["variable"] <= counts["sites"]
        assert large["variable"] == small["variable"]
    else:
        spread = run(1.0, ways=5)
        assert spread["cities"] >= 4 * large["cities"]
        for counts in (small, large, spread):
            assert counts["alloc"] <= 4 * counts["persons"], counts
        # what more cities cost is per city, not per person and city
        assert spread["alloc"] - large["alloc"] \
            <= 2 * (spread["cities"] - large["cities"])
