"""Literal lifting (:mod:`repro.compiler.lift`).

Texts that differ only in a liftable literal share one compiled plan;
the literal is bound at execute.  What must hold:

- lifted ≡ unlifted: identical serialized results and error codes, and
  every error in the same *phase* (``compile`` vs ``execute``), over
  the bib, XMark, W3C XMP, error and e2e-template corpora and a
  property generator that rewrites literals — on both executors;
- shape keys are sound: texts with equal keys lift to equal modules;
- every position the compiler reads keeps its literal;
- texts of one shape compile once (counted, not timed).

The unlifted side compiles through the engine's front half directly
(``Engine._compile_module`` on a plain parse): a test seam, not an
option — the engine itself always lifts.
"""

from __future__ import annotations

import random
import re
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro import Engine, parse_document
from repro.compiler.lift import lift_literals
from repro.compiler.reference import ReferenceEngine
from repro.workloads.synthetic import random_tree
from repro.workloads.xmark_queries import QUERIES as XMARK_SUITE
from repro.xquery import ast
from repro.xquery.parser import Parser, parse_query
from repro.xquery.unparse import Unparsable, unparse
from tests.test_codegen_source import (
    BIB_QUERIES,
    E2E_TEMPLATES,
    ERROR_QUERIES,
    FORMER_SEAM_QUERIES,
    NEW_KIND_QUERIES,
    W3C_XMP_QUERIES,
    XMARK_QUERIES,
    e2e_queries,
)
from tests.test_property_differential import QUERY
from tests.test_w3c_use_cases import BIB, REVIEWS

sys.path.insert(0, str(Path(__file__).resolve().parents[1]
                       / "benchmarks" / "e2e"))
import workloads as e2e_workloads  # noqa: E402 - the harness's flat module

sys.path.pop(0)

#: the two executors, by the label the test ids carry
EXECUTORS = {"source": Engine, "closure": ReferenceEngine}

#: one engine per executor for the whole module, compile cache on: the
#: second and later texts of a shape run as views of the first's plan
ENGINES = {label: executor() for label, executor in EXECUTORS.items()}

#: a folded constant that decides what the rewriter drops (a branch, a
#: filter base, a function call), and literals whose type is a static
#: error: each outcome, and its phase, must survive lifting
PHASE_QUERIES = [
    "if (1 = 1) then 2 else foo()",
    "(1 = 2) and foo()",
    "let $a := 5 return if ($a = 5) then 1 else foo()",
    "declare variable $a := 5; if ($a = 5) then 1 else foo()",
    "declare function local:one() { 1 }; "
    "if (local:one() = 1) then 2 else foo()",
    "typeswitch (5) case $i as xs:integer "
    "return if ($i = 5) then 1 else foo() default return 0",
    "for $i in 5 return if ($i + 1 = 6) then 1 else foo()",
    "foo()[1 - 1]",
    "(1 idiv 0)[2 - 1]",
    "if (count(//book) = 3) then 1 else foo()",
    "(count(//book) = 3) or foo()",
    "if ((5/self::node()) = 5) then 1 else foo()",
    '"a" + count(//book)',
    '-"a"',
    "count(//book) div 0",
    "count(//book) idiv 0",
    'xs:integer("abc") + count(//book)',
    "5 cast as xs:date",
    'xs:double("x")',
    "(1, 2) + count(//book)",
    "count(//book) + ()",
    "//book[@year = 1998]/title",
    '//book[@year = "1998"]/title',
    "//book[price > 39.95]/title",
    "//book[xs:double(price) >= 2e1]/title",
    "for $b in //book return $b/price * -2",
    "sum(//book/price) > 1e2",
]


def outcome(engine: Engine, text: str, *, lifted: bool = True,
            declared=(), **execute) -> tuple:
    """``("ok", serialized)``, or ``(phase, error type, code)`` with
    phase ``static`` (raised by compile) or ``dynamic`` (by execute)."""
    try:
        if lifted:
            compiled = engine.compile(text, variables=declared)
        else:
            compiled = engine._compile_module(
                parse_query(text), engine._declared(declared), ())
    except Exception as exc:  # noqa: BLE001 - compared structurally
        return ("static", type(exc).__name__, getattr(exc, "code", None))
    try:
        return ("ok", compiled.execute(**execute).serialize())
    except Exception as exc:  # noqa: BLE001 - compared structurally
        return ("dynamic", type(exc).__name__, getattr(exc, "code", None))


def assert_lifting_invisible(engine: Engine, text: str, **kwargs) -> None:
    assert outcome(engine, text, **kwargs) \
        == outcome(engine, text, lifted=False, **kwargs), text


#: a numeric literal outside quotes: digits not inside a name or
#: variable, optionally with a fraction
_NUMBER = re.compile(r"(?<![\w.$#-])\d+(\.\d+)?(?![\w.])")
_QUOTED = re.compile(r"(\"[^\"]*\"|'[^']*')")


def with_literals(text: str, rng: random.Random) -> str:
    """``text`` with each numeric literal outside string literals
    replaced by another of the same form."""
    def number(match: re.Match) -> str:
        if match.group(1):
            return f"{rng.randrange(100)}.{rng.randrange(1, 100)}"
        return str(rng.randrange(1, 100))

    parts = _QUOTED.split(text)
    return "".join(part if i % 2 else _NUMBER.sub(number, part)
                   for i, part in enumerate(parts))


def variants(text: str, n: int = 2) -> list[str]:
    rng = random.Random(text)
    return [text] + [with_literals(text, rng) for _ in range(n)]


def lifted_image(text: str):
    """What a lifted text compiles from: its module, rendered."""
    module, _bindings, _shape = lift_literals(text)
    prolog = [(str(v.name), repr(v.type_decl), v.external,
               unparse(v.value) if v.value is not None else None)
              for v in module.prolog.variables]
    return prolog, unparse(module.body)


# ---------------------------------------------------------------------------
# Lifted vs unlifted
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("label", EXECUTORS)
class TestDifferential:
    @pytest.mark.parametrize("query", BIB_QUERIES + ERROR_QUERIES
                             + NEW_KIND_QUERIES + FORMER_SEAM_QUERIES
                             + PHASE_QUERIES)
    def test_bib_and_error_corpora(self, label, query, bib_xml):
        for text in variants(query):
            assert_lifting_invisible(ENGINES[label], text,
                                     context_item=bib_xml)

    @pytest.mark.parametrize("query", XMARK_QUERIES + [
        q.text for q in XMARK_SUITE.values()])
    def test_xmark(self, label, query, xmark_small):
        doc = parse_document(xmark_small)
        for text in variants(query):
            assert_lifting_invisible(ENGINES[label], text,
                                     context_item=doc)

    @pytest.mark.parametrize("query", W3C_XMP_QUERIES)
    def test_w3c_xmp(self, label, query):
        documents = {"bib.xml": BIB, "reviews.xml": REVIEWS}
        for text in variants(query):
            assert_lifting_invisible(ENGINES[label], text,
                                     documents=documents)

    @pytest.mark.parametrize("name", sorted(E2E_TEMPLATES))
    def test_e2e_templates_adhoc(self, label, name, xmark_small):
        cat = repro.catalog()
        cat.add("auction", xmark_small)
        engine = EXECUTORS[label](catalog=cat)
        template = E2E_TEMPLATES[name]
        rng = random.Random(name)
        for _ in range(4):
            literals = {k: repr(v) if isinstance(v, float) else f"'{v}'"
                        for k, v in template.sample(rng).items()}
            text = e2e_queries.adhoc_text(template, "$auction", literals)
            assert_lifting_invisible(engine, text)
        assert engine.compile_cache.misses == 1  # one shape, one compile

    @given(query=QUERY, seeds=st.lists(st.integers(0, 10_000), min_size=1,
                                       max_size=3),
           n=st.integers(min_value=5, max_value=40))
    @settings(max_examples=60, deadline=None)
    def test_property_rewritten_literals(self, label, query, seeds, n):
        doc = parse_document(random_tree(n, tags=("a", "b", "c"),
                                         seed=seeds[0]))
        for seed in seeds:
            text = with_literals(query, random.Random(seed))
            assert_lifting_invisible(ENGINES[label], text,
                                     context_item=doc)


# ---------------------------------------------------------------------------
# Shape keys
# ---------------------------------------------------------------------------


class TestShapeKeys:
    def test_equal_keys_lift_to_equal_modules(self):
        corpus = (BIB_QUERIES + ERROR_QUERIES + NEW_KIND_QUERIES
                  + FORMER_SEAM_QUERIES + PHASE_QUERIES + XMARK_QUERIES
                  + W3C_XMP_QUERIES
                  + [q.text for q in XMARK_SUITE.values()]
                  + [e2e_queries.adhoc_text(t, "$auction", {
                      name: "1.5" if name == "x" else f"'{name}1'"
                      for name in t.params})
                     for t in E2E_TEMPLATES.values()])
        by_shape: dict = {}
        for query in corpus:
            for text in variants(query, 3):
                shape = lift_literals(text)[2]
                if shape is not None:
                    by_shape.setdefault(shape, set()).add(text)
        shared = 0
        for texts in by_shape.values():
            images = []
            for text in texts:
                try:
                    images.append(lifted_image(text))
                except Unparsable:
                    continue
            assert all(image == images[0] for image in images), texts
            shared += len(texts) > 1
        assert shared > 30  # the variants really do share shapes

    @given(query=QUERY, seeds=st.lists(st.integers(0, 10_000), min_size=2,
                                       max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_property_equal_keys(self, query, seeds):
        texts = [with_literals(query, random.Random(s)) for s in seeds]
        by_shape: dict = {}
        for text in texts:
            by_shape.setdefault(lift_literals(text)[2], []).append(text)
        for shape, group in by_shape.items():
            if shape is not None:
                assert len({repr(lifted_image(t)) for t in group}) == 1, group

    def test_placeholder_keeps_type_and_first_character(self):
        def shape(text):
            return lift_literals(text)[2]

        assert shape("$x + 1") == shape("$x + 22")
        assert shape("$x + 1") != shape("$x + 1.0")
        assert shape("$x + 1.0") != shape("$x + .5")
        assert shape("$x = 'a'") != shape('$x = "a"')
        assert shape("$x = 'a'") == shape("$x = 'bcd'")


# ---------------------------------------------------------------------------
# What lifts, what never does
# ---------------------------------------------------------------------------


class TestPositions:
    @pytest.mark.parametrize("text,values", [
        ("$x + 1", ["1"]),
        ("count(//a) > 2", ["2"]),
        ("xs:double(1.5) * $x", ["1.5"]),
        ("$x * -5", ["5"]),
        ("$x + (1 + 2)", ["1", "2"]),
        ('"7" cast as xs:integer', ["7"]),
        ("5 castable as xs:integer", ["5"]),
        ('//p[@id = "p7"]', ["p7"]),
        ("//a[. > 1 + 1]", ["1", "1"]),             # folds into a compare
    ])
    def test_lifted(self, text, values):
        _module, bindings, _shape = lift_literals(text)
        assert [(str(name), str(value.value)) for name, value in bindings] \
            == [(f"#l{i}", v) for i, v in enumerate(values)]

    @pytest.mark.parametrize("text", [
        "//a[2]",                                   # positional predicate
        'count(doc("a.xml")//b)',                   # prefetched URI
        '<a b="x">text</a>',                        # constructor content
        "declare function local:f($v) { $v + 1 }; local:f(2)",
        "declare variable $e external; "
        "declare variable $n := $e + 5; $n",        # prolog initialiser
        "subsequence((7, 8, 9), 2, 1)",             # function arguments
        'matches("a", "A", "i")',                   # regex flags
        "typeswitch (5) case xs:integer return 1 default return 0",
        "if (1) then 2 else 3",
        "1 + 2",                                    # folds: stays
        "if (1 = 1) then 2 else 3",
        "let $a := 5 return $a + 3",                # folds after let-folding
    ])
    def test_never_lifted(self, text):
        assert lift_literals(text)[1] == ()

    def test_lifted_names_never_meet_fresh_names(self):
        # the normaliser binds $l's alias as $#l_1 around the body; named
        # $#l1, it would capture the lifted 2 (answer "11 20 10")
        text = ("declare variable $l external; "
                "declare function local:f() { $l }; "
                "($l + 1, $l + 2, local:f())")
        assert outcome(Engine(), text, variables={"l": 10}) \
            == ("ok", "11 12 10")

    def test_doc_uri_still_prefetchable(self):
        compiled = Engine().compile('doc("a.xml")//b = "x"')
        assert compiled.doc_uris == ("a.xml",)
        assert [str(v.value) for _, v in compiled.lifted] == ["x"]

    def test_literal_spans_cover_expression_literals_only(self):
        text = '<a b="x">t{1}</a>, "s", 2.5'
        parser = Parser(text)
        parser.parse_module()
        assert sorted(text[s:e] for s, e in parser.literal_spans.values()) \
            == ['"s"', "1", "2.5"]


# ---------------------------------------------------------------------------
# One plan per shape
# ---------------------------------------------------------------------------


class TestPlans:
    def test_types_get_their_own_plans(self):
        # untyped "1.0" compares as a number with a number, as a string
        # with a string: the literal's type decides the answer
        engine = Engine()
        answers = {literal: outcome(engine, f"<a>1.0</a> = {literal}")
                   for literal in ("1", "1.0", "1e0", '"1"',
                                   "2", "2.0", "2e0", '"1.0"')}
        assert (engine.compile_cache.misses, engine.compile_cache.hits) \
            == (4, 4)
        assert [answers[k][1] for k in ("1", "1.0", "1e0", '"1"')] \
            == ["true", "true", "true", "false"]
        assert [answers[k][1] for k in ("2", "2.0", "2e0", '"1.0"')] \
            == ["false", "false", "false", "true"]

    def test_views_share_the_plan_and_store_nothing(self):
        engine = Engine()
        first = engine.compile("count(//a) + 1")
        second = engine.compile("count(//a) + 2")
        assert second is not first and second.plan is first.plan
        assert engine.compile("count(//a) + 1") is first   # exact text
        assert engine.compile("count(//a) + 2") is not second  # no entry
        assert len(engine.compile_cache) == 2  # text + shape of the first
        assert (engine.compile_cache.hits, engine.compile_cache.misses) \
            == (3, 1)
        doc = "<r><a/><a/></r>"
        assert first.execute(context_item=doc).values() == [3]
        assert second.execute(context_item=doc).values() == [4]

    def test_to_xquery_puts_the_literals_back(self, bib_xml):
        engine = Engine()
        engine.compile("//book[price > 50]/title")
        view = engine.compile("//book[price > 30]/title")
        assert "30" in view.to_xquery()
        assert repro.execute(view.to_xquery(),
                             context_item=bib_xml).serialize() \
            == view.execute(context_item=bib_xml).serialize()


# ---------------------------------------------------------------------------
# The planner and EXPLAIN
# ---------------------------------------------------------------------------


def _access_paths(compiled):
    return [(e.chosen, e.est_rows) for e in compiled.optimized.walk()
            if isinstance(e, ast.AccessPath)]


class TestPlanner:
    @pytest.fixture(scope="class")
    def engine(self, xmark_small):
        cat = repro.catalog()
        cat.add("auction", xmark_small)
        return Engine(catalog=cat)

    @pytest.mark.parametrize("probe", ['"person3"', "3", "3.5", "'x'"])
    def test_same_access_path_lifted_or_not(self, engine, probe):
        text = f"$auction/site/people/person[@id = {probe}]/name/text()"
        lifted = engine.compile(text)
        unlifted = engine._compile_module(parse_query(text),
                                          engine._declared(()), ())
        assert lifted.lifted  # the probe really is a variable
        assert _access_paths(lifted) == _access_paths(unlifted) != []
        assert_lifting_invisible(engine, text)  # a number: FORG0001

    def test_string_probe_is_a_value_index_lookup(self, engine):
        compiled = engine.compile(
            '$auction/site/people/person[@id = "person3"]/name/text()')
        assert [c for c, _ in _access_paths(compiled)] == ["value_index"]

    def test_explain_lists_the_lifted_values(self, engine):
        explained = engine.explain(
            '$auction/site/people/person[@id = "person3"]/name/text()')
        text = str(explained)
        assert 'lifted $#l0 = "person3" (xs:string)' in text
        assert "[@id = $#l0]" in text
        assert explained.to_dict()["lifted"] \
            == ['$#l0 = "person3" (xs:string)']


# ---------------------------------------------------------------------------
# Counted: the ledger's ad-hoc shapes compile once
# ---------------------------------------------------------------------------


@pytest.mark.perfsmoke
def test_adhoc_shapes_compile_once(xmark_small, monkeypatch):
    """The 13 ``adhoc_compile`` templates x 10 literals: 13 full
    compiles.  The 9 ``registered_exec`` texts, executed 100x each
    after registration: no parse at all."""
    cat = repro.catalog()
    cat.add("auction", xmark_small)
    engine = Engine(catalog=cat)
    compiles, parses = [], []
    compile_module = engine._compile_module
    parse_module = Parser.parse_module
    monkeypatch.setattr(engine, "_compile_module",
                        lambda *a: compiles.append(1) or compile_module(*a))
    monkeypatch.setattr(Parser, "parse_module",
                        lambda self: parses.append(1) or parse_module(self))
    table = e2e_queries.templates(n_people=12)
    rng = random.Random(7)
    uid = 0
    for name in e2e_workloads.AdhocCompile.TEMPLATES:
        for _ in range(10):
            uid += 1
            x = e2e_workloads._literal(table[name].sample(rng)["x"], uid)
            text = e2e_queries.adhoc_text(table[name], "$auction", {"x": x})
            engine.compile(text).execute().items()
    assert len(compiles) == 13
    assert engine.compile_cache.hits == 13 * 9

    registered = [(table[name], e2e_queries.source_text(table[name],
                                                        "$auction"))
                  for name in e2e_workloads.RegisteredExec.TEMPLATES]
    for template, text in registered:
        engine.compile(text, variables=tuple(template.params))
    del parses[:]
    for _ in range(100):
        for template, text in registered:
            compiled = engine.compile(text, variables=tuple(template.params))
            compiled.execute(variables=template.sample(rng)).items()
    assert parses == []
