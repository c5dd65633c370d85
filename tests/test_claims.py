"""Paper claims as counted work: exact counts, so no test here can flap.

Each test pins the *counted* units an EXPERIMENTS.md claim rests on,
measured like for like (the Demythization method: the same logical
work, the algorithms compared on what they touch).  Times belong to
the benchmark ledger (``benchmarks/e2e``) and to EXPERIMENTS.md's dated
tables; counts repeat exactly on every machine.

Unless a test says otherwise its input is the experiments' XMark
document (scale 0.2, seed 2004, 55 033 bytes), built once per module.
Where an experiment was measured on a larger input, the smaller one
pins the same property, and the test says so.
"""

from __future__ import annotations

import pytest

import repro
from repro import Engine, ExecutionOptions
from repro.baselines import Template, TreeTransformer
from repro.baselines.tree_transformer import element
from repro.compiler.normalize import normalize_module
from repro.compiler.pysource import SourcePlanCompiler
from repro.compiler.rewriter import RewriteEngine, default_rules
from repro.joins import evaluate_pattern
from repro.qname import QName
from repro.runtime.dynamic import DynamicContext
from repro.storage import ElementIndex, TextStore, TokenStore, TreeStore
from repro.stream import MessageBroker, NaiveBroker, parse_path, stream_path
from repro.stream.projection import node_count, project_text, projection_spec
from repro.tokens import events_from_tokens, tokens_from_events, write_binary
from repro.workloads import (EBXML_QUERY, generate_ebxml, generate_messages,
                             generate_xmark, nested_sections)
from repro.xdm.build import node_events, parse_document
from repro.xdm.items import AtomicValue
from repro.xdm.nodes import ElementNode
from repro.xmlio import serialize_events
from repro.xmlio.parser import parse_events
from repro.xquery import ast
from repro.xquery.parser import parse_query

from tests.test_twig_planner_differential import (
    FORCED_PLANS,
    _e6_shapes,
    ledger_shape,
)


@pytest.fixture(scope="module")
def xmark_text() -> str:
    return generate_xmark(scale=0.2, seed=2004)


@pytest.fixture(scope="module")
def xmark_doc(xmark_text):
    return parse_document(xmark_text)


@pytest.fixture(scope="module")
def sections_doc():
    """E5's and E7's self-nesting document: sections seven deep, two
    per level, a title in each."""
    return parse_document(nested_sections(depth=7, fanout=2))


# -- E1: streaming answers before the input ends ---------------------------

#: XMark scale → (events parsed when the first answer is out, all events)
E1_EVENTS = {0.2: (901, 4658), 0.8: (3541, 17744)}


@pytest.mark.parametrize("scale", sorted(E1_EVENTS))
def test_e1_first_answer_reads_a_prefix(scale):
    """The streaming matcher yields the first ``/site/people/person/
    name`` after a fifth of the parse, at both of E1's scales."""
    xml = generate_xmark(scale=scale, seed=2004)
    consumed = 0

    def counting():
        nonlocal consumed
        for event in parse_events(xml):
            consumed += 1
            yield event

    first = next(stream_path(counting(), parse_path("/site/people/person/name")))
    total = sum(1 for _ in parse_events(xml))
    assert first.string_value
    assert (consumed, total) == E1_EVENTS[scale]
    assert consumed < 0.25 * total


# -- E2: laziness -----------------------------------------------------------

_N = 20_000

#: (query, answer, counter, count): what a consumer pulls from a 20 000-item
#: producer; ``trace`` counts the items that leave the producer
E2_CASES = {
    "positional [1]": (f"(for $i in (1 to {_N}) return <n>{{$i}}</n>)[1]",
                       ["1"], "elements_constructed", 1),
    "exists()": (f"exists(for $i in (1 to {_N}) return <n>{{$i}}</n>)",
                 [True], "elements_constructed", 1),
    "some ... satisfies": (
        f"some $x in trace(for $i in (1 to {_N}) return $i * 7, 'p') "
        "satisfies $x eq 7", [True], "trace:p", 1),
    # subsequence stops at the last item of its window
    "top-3 subsequence": (
        f"subsequence(trace(for $i in (1 to {_N}) return $i * $i, 'p'), 1, 3)",
        [1, 4, 9], "trace:p", 3),
    # like for like: the same producer drained, every element built
    "drain count()": (f"count(for $i in (1 to {_N}) return <n>{{$i}}</n>)",
                      [_N], "elements_constructed", _N),
}


@pytest.mark.parametrize("label", list(E2_CASES))
def test_e2_lazy_consumers_pull_only_what_they_need(label):
    query, answer, counter, pulled = E2_CASES[label]
    result = Engine().compile(query).execute()
    assert result.values() == answer
    assert result.stats.get(counter) == pulled


# -- E3: pooling ------------------------------------------------------------

#: corpus → (XML text bytes, unpooled binary bytes, pooled binary bytes):
#: pooling shrinks tag-heavy ebXML 2.10x, text-heavy XMark 1.56x
E3_BYTES = {"xmark": (55_033, 47_858, 30_620),
            "ebxml": (11_811, 11_602, 5_527)}


@pytest.mark.parametrize("corpus", sorted(E3_BYTES))
def test_e3_pooled_binary_sizes(corpus, xmark_text):
    text = xmark_text if corpus == "xmark" \
        else generate_ebxml(n_partners=10, seed=2004)
    tokens = list(tokens_from_events(parse_events(text)))
    sizes = (len(text.encode()), len(write_binary(tokens, pooled=False)),
             len(write_binary(tokens, pooled=True)))
    assert sizes == E3_BYTES[corpus]
    assert sizes[2] < sizes[1] < sizes[0]


# -- E4: identities only when needed ---------------------------------------

_ROWS = ("for $i in (1 to 400) return "
         "<row id='{$i}'><a>{$i}</a><b>{$i * 2}</b><c>{$i * 3}</c></row>")

#: plan → (query, answer, doc-order sorts) over 400 freshly built rows
E4_SORTS = {
    "no identity ops": (f"count(({_ROWS})/a)", 400, 0),
    "+ union": (f"let $rows := ({_ROWS}) "
                "return count(($rows/a union $rows/b))", 800, 2),
    "+ << per row": (f"let $rows := ({_ROWS}) return count("
                     "for $r in $rows where $r/a << $r/c return $r)", 400, 800),
}


@pytest.mark.parametrize("label", list(E4_SORTS))
def test_e4_document_order_is_paid_for_only_when_used(label):
    query, answer, sorts = E4_SORTS[label]
    result = Engine().compile(query).execute()
    assert result.values() == [answer]
    assert result.stats.get("ddo_sorts", 0) == sorts


# -- E5: DDO elision per path family ----------------------------------------

#: the slide's families → doc-order sorts of the bare path, optimized and
#: unoptimized (DDO after every step).  /a/b/c and /a//b are provably in
#: order; //a/b and //a//b need their final sort.
E5_SORTS = {"/doc/section/section/title": (0, 4), "/doc/section//title": (0, 4),
            "//section/title": (1, 3), "//section//title": (1, 4)}


def _run_sorts(query, doc, optimize):
    engine = Engine(options=ExecutionOptions(optimize=optimize))
    result = engine.compile(query).execute(context_item=doc)
    return result.serialize(), result.stats.get("ddo_sorts", 0)


@pytest.mark.parametrize("path", list(E5_SORTS))
def test_e5_ddo_sorts_per_path_family(path, sections_doc):
    """The optimized path sorts only where the slide says it must, and
    answers as the sort-every-step plan does.  ``count`` needs no
    order: every family's count streams into a distinct-count sink."""
    optimized, opt_sorts = _run_sorts(path, sections_doc, True)
    unoptimized, raw_sorts = _run_sorts(path, sections_doc, False)
    assert optimized == unoptimized
    assert (opt_sorts, raw_sorts) == E5_SORTS[path]
    counted, count_sorts = _run_sorts(f"count({path})", sections_doc, True)
    assert counted == _run_sorts(f"count({path})", sections_doc, False)[0]
    assert count_sorts == 0


# -- E6/E16: twig joins -----------------------------------------------------
#
# ``elements_scanned`` of every forced plan on the four E6 shapes (XMark
# scale 0.2; E6 was timed at 0.8) and on the ledger's twig pattern over
# the ledger's own document (XMark scale 1.0, seed 7).  TwigStack scans
# the fewest postings everywhere, yet runs 4-7x slower than the mixed
# plan on every XMark shape (E16): the planner prices time, and these
# counts keep the algorithmic property the old scan gate watched.

#: shape label → (matches, elements_scanned per forced plan in
#: FORCED_PLANS order: twigstack, binary, mixed, navigation)
E6_SCANS = {
    "A-D edge //open_auction//increase": (88, (112, 112, 112, 3820)),
    "chain //person/address/city": (50, (150, 200, 200, 3236)),
    "branching item[.//keyword]//text": (40, (160, 200, 200, 3836)),
    "rare-leaf a[.//b]//c": (5, (3015, 3438, 3438, 75058)),
    "ledger twig on the ledger document": (103, (1050, 1535, 1535, 15062)),
}


@pytest.fixture(scope="module")
def e6_shapes():
    return {label: (ElementIndex(doc), pattern)
            for label, doc, pattern in _e6_shapes() + [ledger_shape()]}


@pytest.mark.parametrize("label", sorted(E6_SCANS))
def test_e6_elements_scanned_per_plan(e6_shapes, label):
    index, pattern = e6_shapes[label]
    scans = []
    results = set()
    for alg in FORCED_PLANS:
        counters: dict[str, int] = {}
        results.add(tuple(p.pre for p in evaluate_pattern(
            index, pattern, alg, counters=counters)))
        scans.append(counters["elements_scanned"])
    assert len(results) == 1  # like for like: one answer
    assert (len(results.pop()), tuple(scans)) == E6_SCANS[label]
    # the holistic join never scans more than a binary cascade
    assert scans[0] <= scans[1]


# -- E7: rewrite-rule ablation ----------------------------------------------

#: query → (text, external variable, the family it targets, rule firings
#: with every rule, rule firings without the target family).  The
#: ``ddo-elimination`` rule fires nowhere here: ddo-paths keeps its sorts
#: over ``$d`` whatever the rules (E5 pins the elision itself).
E7_QUERIES = {
    "ddo-paths": (
        "declare variable $d as document-node() external; "
        "count($d/doc/section/section//title)", "d", "ddo-elimination",
        {"descendant-collapse": 1}, {"descendant-collapse": 1}),
    "hoisting": (
        "declare variable $d as document-node() external; "
        "for $i in (1 to 200) return count($d//title) + $i", "d",
        "for-let-hoisting", {"descendant-collapse": 1, "for-let-hoisting": 1},
        {"descendant-collapse": 1}),
    "let-folding": (
        "let $a := 2 let $b := $a * 3 let $c := $b + 1 return "
        "for $i in (1 to 2000) return $c * $i", None, "let-folding",
        {"constant-folding": 2, "let-folding": 3}, {}),
    "ebxml-transform": (
        EBXML_QUERY, "input", None, {"common-subexpression": 21,
                                     "for-let-hoisting": 39, "let-folding": 23},
        None),
}


@pytest.mark.parametrize("name", list(E7_QUERIES))
def test_e7_rule_firings_and_ablation_answers(name, sections_doc):
    """Per family, the rules that fire, and one answer from the
    all-rules, no-rules and leave-one-out plans."""
    text, var, family, fired_all, fired_without = E7_QUERIES[name]
    data = parse_document(generate_ebxml(n_partners=6, seed=7)) \
        if name == "ebxml-transform" else sections_doc
    variants = {"all rules": (default_rules(), fired_all), "no rules": ([], {})}
    if family is not None:
        variants["leave one out"] = ([rule for rule in default_rules()
                                      if rule[0] != family], fired_without)
    answers = []
    for rules, fired in variants.values():
        core, ctx = normalize_module(parse_query(text), extra_vars=(
            (QName("", var),) if var else ()))
        engine = RewriteEngine(rules, ctx)
        core = engine.rewrite(core)
        assert engine.fired == fired
        dctx = DynamicContext(ctx)
        if var:
            dctx = dctx.bind(QName("", var), [data])
        answers.append([
            item.value if isinstance(item, AtomicValue) else item.string_value
            for item in SourcePlanCompiler(ctx).compile_root(core)(dctx)])
    assert all(answer == answers[0] for answer in answers)


# -- E8: storage modes ------------------------------------------------------

#: resident bytes: the UTF-8 text, 200 B per tree node, the pooled blob
E8_RESIDENT = {"text": 55_033, "tree": 567_200, "tokens": 30_620}
_BIDDERS = "/site/open_auctions/open_auction/bidder"


def test_e8_resident_bytes_per_store(xmark_text):
    stores = {"text": TextStore(xml_text=xmark_text),
              "tree": TreeStore(xml_text=xmark_text),
              "tokens": TokenStore(xml_text=xmark_text)}
    resident = {kind: store.resident_bytes() for kind, store in stores.items()}
    assert resident == E8_RESIDENT
    assert resident["tokens"] < resident["text"] < resident["tree"]

    compiled = Engine().compile(f"count({_BIDDERS})")
    for store in stores.values():
        assert compiled.execute(context_item=store.document()).values() == [88]
    # tokens stream without a re-parse, to the matches a text scan finds
    query = parse_path(_BIDDERS)
    from_tokens = sum(1 for _ in stream_path(
        events_from_tokens(stores["tokens"].tokens()), query))
    from_text = sum(1 for _ in stream_path(parse_events(xmark_text), query))
    assert from_tokens == from_text == 88


# -- E9: brokering ----------------------------------------------------------

_BROKER_PATHS = ["/order/lines/line", "//symbol", "/invoice/amount",
                 "//tracking", "/order/customer", "//qty", "//ask", "//due"]


def _broker(cls, n_queries: int):
    broker = cls()
    for i in range(n_queries):
        path = _BROKER_PATHS[i] if i < len(_BROKER_PATHS) else f"//tag-{i}"
        broker.register(f"sub{i}", path)
    return broker


def test_e9_dfa_size_is_bound_by_structure_not_queries():
    """After 100 messages against 256 registered queries the lazy DFA
    holds 13 states; the claim's bound is 200."""
    broker = _broker(MessageBroker, 256)
    for message in generate_messages(100, seed=2004):
        broker.route(message)
    assert broker.dfa.dfa_size == 13


def test_e9_lazy_dfa_agrees_with_naive_broker():
    lazy, naive = _broker(MessageBroker, 64), _broker(NaiveBroker, 64)
    matches = 0
    for message in generate_messages(50, seed=2004):
        routed = lazy.route(message)
        assert routed == naive.route(message)
        matches += sum(routed.values())
    assert matches == 159


# -- E10: the XSLT stand-in -------------------------------------------------

def _children(node, name):
    return [c for c in node.children
            if isinstance(c, ElementNode) and c.name.local == name]


def _cards(site, _transformer):
    """The selective projection as a hand-written template."""
    return [element("cards", children=[
        element("card", {
            "name": "".join(n.string_value for n in _children(person, "name")),
            "city": "".join(c.string_value for a in _children(person, "address")
                            for c in _children(a, "city"))})
        for people in _children(site, "people")
        for person in _children(people, "person")])]


def _transformed(transformer, xml_text):
    return "".join(serialize_events(node_events(node, with_document=False))
                   for node in transformer.transform_text(xml_text))


def test_e10_engine_output_equals_the_transformer(xmark_text):
    cards = Engine().compile(
        "<cards>{ for $p in /site/people/person "
        "return <card name='{$p/name}' city='{$p/address/city}'/> }</cards>")
    assert cards.execute(context_item=xmark_text).serialize() == \
        _transformed(TreeTransformer([Template("site", _cards)]), xmark_text)
    # the worst case: both copy everything
    identity = _transformed(TreeTransformer([]), xmark_text)
    assert identity == xmark_text
    assert Engine().compile("<copy>{ /site }</copy>") \
        .execute(context_item=xmark_text).serialize() == f"<copy>{identity}</copy>"


# -- E13: access paths ------------------------------------------------------

#: template → (access path chosen, rows the path produced).  E13 ran at
#: XMark scale 0.8; every choice is the same at 0.2.
E13_PATHS = {
    '$doc/site/people/person[emailaddress = "{email}"]': ("value_index", 1),
    '$doc//watch[@open_auction = "open_auction7"]': ("value_index", 2),
    "$doc/site/regions": ("element_index", 1),
    "$doc//closed_auction[quantity = 1]": ("element_index", 16),
}


@pytest.fixture(scope="module")
def e13_engines(xmark_text, xmark_doc):
    cat = repro.catalog()
    cat.add("doc", xmark_text)
    navigation = Engine()
    email = navigation.compile("string(($doc//emailaddress)[1])",
                               variables=("doc",)) \
        .execute(variables={"doc": xmark_doc}).values()[0]
    return Engine(catalog=cat), navigation, email


@pytest.mark.parametrize("template", list(E13_PATHS))
def test_e13_access_path_chosen_per_template(template, e13_engines, xmark_doc):
    """The planner's choice, and the planned answer equals navigation's."""
    planned_engine, navigation, email = e13_engines
    query = template.replace("{email}", email)
    compiled = planned_engine.compile(query)
    chosen = [node.chosen for node in compiled.optimized.walk()
              if isinstance(node, ast.AccessPath)]
    result = compiled.execute()
    planned = result.serialize()  # drains the plan, so its stats are in
    assert (chosen, result.stats["access_path.actual_rows"]) == \
        ([E13_PATHS[template][0]], E13_PATHS[template][1])
    assert planned == navigation.compile(query, variables=("doc",)) \
        .execute(variables={"doc": xmark_doc}).serialize()


# -- Supplementary: document projection -------------------------------------

#: query → nodes kept by the projection, of the document's 2 836 (measured
#: at XMark 0.8, where the kept ratios are within two points of these)
PROJECTION_KEPT = {
    "for $p in /site/people/person return $p/name/text()": 1003,
    "sum(for $c in /site/closed_auctions/closed_auction "
    "return xs:double($c/price))": 259,
    "/site/regions//item[quantity > 3]/name/text()": 569,
}


@pytest.mark.parametrize("query", list(PROJECTION_KEPT))
def test_projection_keeps_what_the_query_touches(query, xmark_text, xmark_doc):
    spec = projection_spec(Engine().compile(query).optimized)
    kept = node_count(project_text(xmark_text, spec))
    assert (kept, node_count(xmark_doc)) == (PROJECTION_KEPT[query], 2836)
    assert kept < 0.6 * 2836
