"""Pattern-level twig planning: adversarial differentials + the cost gate.

The contract under test: the twig planner may pick *any* physical plan
for a decomposed twig pattern — holistic TwigStack, a binary stack-tree
cascade, navigation, or the mixed semi-join plan — but every choice
must return byte-identical serialized results, in document order,
raising the same error codes.  ``auto`` additionally has a performance
contract in wall clock, pinned by the perfsmoke gate: on the E6 shapes
and the ledger's twig pattern its plan runs within 1.25x of the fastest
forced plan.  A tier-1 test pins the calibrated decisions themselves.

Three corpora stress different cost-model regimes: XMark (deep,
branchy, realistic tag mix), the tutorial bibliography (tiny, child
chains), and seeded skewed-fanout random trees (b everywhere, c rare —
the rare-leaf adversary where binary cascades blow up).
"""

from __future__ import annotations

import gc
import random
import statistics
import time

import pytest

import repro
from repro.compiler.planner import choose_twig_strategy
from repro.compiler.reference import ReferenceEngine, forced_twig
from repro.engine import Engine
from repro.joins import TwigNode, TwigPattern, evaluate_pattern
from repro.joins.patterns import ALGORITHM_ALIASES
from repro.storage import ElementIndex
from repro.storage.stats import collect_stats
from repro.workloads.synthetic import random_tree
from repro.workloads.xmark import generate_xmark
from repro.xdm.build import parse_document
from repro.xquery import ast

from .conftest import BIB_XML

#: every strategy :func:`forced_twig` takes; "auto" must agree with all
#: forced plans, and all forced plans must agree with plain navigation
STRATEGIES = ("auto", "holistic", "binary", "navigation", "mixed")

#: the property test rotates its engine-level runs over both executors
EXECUTORS = (Engine, ReferenceEngine)


def _skew_xml(n: int = 800, seed: int = 3) -> str:
    """b everywhere, c rare: the rare-leaf adversary from E6."""
    body = random_tree(n, tags=("a", "b"), seed=seed, max_depth=25)
    inner = body[len("<root>"):-len("</root>")]
    return "<root>" + inner + "<a><b/><c/></a>" * 5 + "</root>"


def _engines(xml_text: str) -> dict[str, Engine]:
    cat = repro.catalog()
    cat.add("doc", xml_text)
    return {s: forced_twig(Engine, s)(catalog=cat) for s in STRATEGIES}


def _outcome(make):
    try:
        result = make()
        return ("ok", result.serialize())
    except Exception as exc:  # noqa: BLE001 - codes compared below
        return ("err", type(exc).__name__, getattr(exc, "code", None))


def _baseline(xml_text: str):
    """Catalog-less navigation runner: the semantics oracle."""
    nav = Engine()
    doc = repro.xml(xml_text)

    def run(query: str):
        return _outcome(lambda: nav.compile(query, variables=("doc",))
                        .execute(variables={"doc": doc}))
    return run


def twig_node_of(engine: Engine, query: str):
    """The planner's TwigJoin node for ``query``, or None."""
    compiled = engine.compile(query)
    for node in compiled.optimized.walk():
        if isinstance(node, ast.TwigJoin):
            return node
    return None


# ---------------------------------------------------------------------------
# Planner unit tests: decisions, estimates, and the EXPLAIN surface
# ---------------------------------------------------------------------------


class TestPlannerChoices:
    @pytest.fixture(scope="class")
    def engines(self):
        return _engines(BIB_XML)

    def test_auto_surfaces_choice_and_estimates(self, engines):
        node = twig_node_of(engines["auto"], "$doc//book[author]/title")
        assert node is not None
        assert node.chosen in ("twigstack", "binary", "navigation", "mixed")
        assert node.annotations["twig.chosen"] == node.chosen
        assert node.annotations["twig.est_rows"] == node.est_rows
        assert node.est_rows >= 1  # every book has an author and a title
        edge_keys = [k for k in node.annotations
                     if k.startswith("twig.edge.")]
        assert len(edge_keys) == 2  # book>author and book>title

    @pytest.mark.parametrize("strategy", ("holistic", "binary",
                                          "navigation", "mixed"))
    def test_forced_strategy_respected(self, engines, strategy):
        node = twig_node_of(engines[strategy], "$doc//book[author]/title")
        assert node is not None
        assert node.chosen == ALGORITHM_ALIASES[strategy]

    def test_plain_chain_stays_access_path(self, engines):
        # no structural predicate -> not a twig; PR-4 planning unchanged
        engine = engines["auto"]
        assert twig_node_of(engine, "$doc//book") is None
        compiled = engine.compile("$doc//book")
        assert any(isinstance(n, ast.AccessPath)
                   for n in compiled.optimized.walk())

    def test_provably_empty_pattern_estimates_zero(self, engines):
        node = twig_node_of(engines["auto"], "$doc//book[absent]/title")
        assert node is not None and node.est_rows == 0
        result = engines["auto"].compile("$doc//book[absent]/title").execute()
        assert result.serialize() == ""

    def test_explain_analyze_reports_actuals(self, engines):
        engine = engines["auto"]
        explained = engine.explain("$doc//book[author]/title", analyze=True)
        dumped = explained.to_dict()
        chosen = dumped["plan"]["twig.chosen"]
        assert chosen in ("twigstack", "binary", "navigation", "mixed")
        assert dumped["plan"]["twig.est_rows"] == 3
        stats = dumped["engine_stats"]
        assert stats[f"twig.{chosen}"] == 1
        assert stats["twig.actual_rows"] == 3
        assert stats["twig.elements_scanned"] > 0
        assert any(k.startswith("twig.edge.") and k.endswith(".actual_pairs")
                   for k in stats)
        assert f"twig.chosen={chosen}" in explained.render()

    def test_runtime_fallback_for_foreign_binding(self, engines):
        # compiled against the catalog, executed against a fresh parse:
        # the twig operator must detect the foreign tree and navigate
        engine = engines["auto"]
        compiled = engine.compile("$doc//book[author]/title")
        result = compiled.execute(variables={"doc": repro.xml(BIB_XML)})
        serialized = result.serialize()
        assert result.stats.get("twig.fallback_navigation") == 1
        assert serialized == engine.compile("$doc//book[author]/title") \
            .execute().serialize()


# ---------------------------------------------------------------------------
# Differential harness: every twig shape x every strategy, per corpus
# ---------------------------------------------------------------------------

XMARK_TWIGS = [
    "$doc//person[.//city]/name",
    "$doc//person[address/city][.//age]/name",
    "$doc//open_auction[bidder]//increase",
    "$doc//item[.//keyword]//emph",
    "$doc/site/people/person[.//city]/name",
    "$doc//closed_auction[.//annotation]/price",
    "$doc//person[.//absent_tag]/name",          # provably empty
    "$doc//city[.//person]/name",                # structurally empty
    "1 + $doc//person[.//city]/name",            # twig feeds a type error
]

BIB_TWIGS = [
    "$doc//book[author]/title",
    "$doc//book[author/last]/title",
    "$doc//book[.//last]//first",
    "$doc/bib/book[publisher]/price",
    "$doc//book[publisher][price]/title",
    "$doc//book[.//missing]/title",              # provably empty
    "1 + $doc//book[author]/title",              # twig feeds a type error
]

SKEW_TWIGS = [
    "$doc//a[.//b]//c",                          # the rare-leaf E6 shape
    "$doc//a[b]/c",
    "$doc//a[.//c]//b",
    "$doc//root[.//c]//b",
    "$doc//a[.//missing]//b",                    # provably empty
]


class _DifferentialBase:
    """Shared harness body; subclasses pin the corpus + query list."""

    def check(self, engines, baseline, query):
        expected = baseline(query)
        for strategy, engine in engines.items():
            got = _outcome(lambda: engine.compile(query).execute())
            assert got == expected, (strategy, query, got, expected)

    def test_twigs_actually_planned(self, engines, queries):
        # keep the harness honest: every listed shape must decompose
        planned = [q for q in queries
                   if twig_node_of(engines["auto"], q) is not None]
        assert planned == list(queries)


class TestDifferentialXMark(_DifferentialBase):
    @pytest.fixture(scope="class")
    def xml(self):
        return generate_xmark(scale=0.05, seed=1)

    @pytest.fixture(scope="class")
    def engines(self, xml):
        return _engines(xml)

    @pytest.fixture(scope="class")
    def baseline(self, xml):
        return _baseline(xml)

    @pytest.fixture(scope="class")
    def queries(self):
        return XMARK_TWIGS

    @pytest.mark.parametrize("query", XMARK_TWIGS)
    def test_byte_identical(self, engines, baseline, query):
        self.check(engines, baseline, query)


class TestDifferentialBib(_DifferentialBase):
    @pytest.fixture(scope="class")
    def engines(self):
        return _engines(BIB_XML)

    @pytest.fixture(scope="class")
    def baseline(self):
        return _baseline(BIB_XML)

    @pytest.fixture(scope="class")
    def queries(self):
        return BIB_TWIGS

    @pytest.mark.parametrize("query", BIB_TWIGS)
    def test_byte_identical(self, engines, baseline, query):
        self.check(engines, baseline, query)


class TestDifferentialSkewed(_DifferentialBase):
    @pytest.fixture(scope="class", params=[3, 41])
    def xml(self, request):
        return _skew_xml(seed=request.param)

    @pytest.fixture(scope="class")
    def engines(self, xml):
        return _engines(xml)

    @pytest.fixture(scope="class")
    def baseline(self, xml):
        return _baseline(xml)

    @pytest.fixture(scope="class")
    def queries(self):
        return SKEW_TWIGS

    @pytest.mark.parametrize("query", SKEW_TWIGS)
    def test_byte_identical(self, engines, baseline, query):
        self.check(engines, baseline, query)


# ---------------------------------------------------------------------------
# Property-based twig generator (seeded; mirrors test_property_differential)
# ---------------------------------------------------------------------------


def _random_pattern(rng: random.Random, tags: tuple[str, ...]):
    """A random eligible twig: an output chain + pure-chain predicates.

    Returns (pattern, query) where ``query`` is the XQuery surface form
    the planner decomposes back into an equivalent pattern.  Names are
    sampled without replacement (the planner requires global
    distinctness) and at least one name lands in a predicate branch
    (the planner requires a structural predicate).
    """
    k = rng.randint(2, min(5, len(tags)))
    names = rng.sample(list(tags), k)
    if rng.random() < 0.10:  # occasionally probe a tag with no postings
        names[rng.randrange(1, k)] = "zzz_missing"
    chain = names[:rng.randint(1, k - 1)]
    rest = names[len(chain):]

    def pick_kind() -> str:
        # descendant-heavy: random child chains are mostly empty, and
        # empty patterns exercise nothing past the provably-empty check
        return "descendant" if rng.random() < 0.7 else "child"

    nodes = {chain[0]: TwigNode(chain[0])}
    chain_kind: dict[str, str] = {}
    for prev, name in zip(chain, chain[1:]):
        kind = pick_kind()
        nodes[name] = nodes[prev].add(TwigNode(name), kind)
        chain_kind[name] = kind
    nodes[chain[-1]].is_output = True

    preds_by: dict[str, list[str]] = {}
    i = 0
    while i < len(rest):
        take = rng.randint(1, min(2, len(rest) - i))
        branch = rest[i:i + take]
        i += take
        attach = rng.choice(chain)
        parent, text = nodes[attach], ""
        for j, name in enumerate(branch):
            kind = pick_kind()
            parent = parent.add(TwigNode(name), kind)
            if j == 0:
                text += (".//" if kind == "descendant" else "") + name
            else:
                text += ("//" if kind == "descendant" else "/") + name
        preds_by.setdefault(attach, []).append(text)

    parts = ["$doc"]
    for idx, name in enumerate(chain):
        sep = "//" if idx == 0 or chain_kind[name] == "descendant" else "/"
        parts.append(sep + name
                     + "".join(f"[{p}]" for p in preds_by.get(name, ())))
    return TwigPattern(nodes[chain[0]]), "".join(parts)


PROPERTY_ALGORITHMS = ("twigstack", "binary", "navigation", "mixed")


class TestPropertyTwigs:
    N_PATTERNS = 100

    @pytest.fixture(scope="class")
    def corpora(self):
        specs = [
            (BIB_XML,
             ("book", "title", "author", "first", "last", "publisher",
              "price")),
            (random_tree(300, tags=("a", "b", "c", "d"), seed=11,
                         max_depth=20),
             ("a", "b", "c", "d")),
            (_skew_xml(),
             ("root", "a", "b", "c")),
        ]
        built = []
        for xml_text, tags in specs:
            doc = parse_document(xml_text)
            cat = repro.catalog()
            cat.add("doc", xml_text)
            built.append({
                "tags": tags,
                "index": ElementIndex(doc),
                "stats": collect_stats(doc),
                "catalog": cat,
                "baseline": _baseline(xml_text),
            })
        return built

    def test_generated_twigs(self, corpora):
        rng = random.Random(20260808)
        non_empty = 0
        for i in range(self.N_PATTERNS):
            corpus = corpora[i % len(corpora)]
            pattern, query = _random_pattern(rng, corpus["tags"])

            # 1. strategy agreement at the pattern level, all algorithms
            results = {
                alg: [p.pre for p in
                      evaluate_pattern(corpus["index"], pattern, alg)]
                for alg in PROPERTY_ALGORITHMS}
            auto = [p.pre for p in
                    evaluate_pattern(corpus["index"], pattern, "auto",
                                     stats=corpus["stats"])]
            reference = results["navigation"]
            for alg, got in results.items():
                assert got == reference, (i, query, alg)
            assert auto == reference, (i, query, "auto")

            # 2. estimate sanity: est_rows > 0 whenever results are
            # non-empty; est_rows == 0 only for provably empty patterns
            choice = choose_twig_strategy(corpus["stats"], pattern)
            if reference:
                non_empty += 1
                assert choice.est_rows > 0, (i, query)
            if choice.est_rows == 0:
                assert not reference, (i, query)

            # 3. engine level: the planner must decompose the surface
            # form, and one rotating (strategy, executor) combo must
            # serialize byte-identically to plain navigation
            executor = EXECUTORS[i % len(EXECUTORS)]
            strategy = STRATEGIES[i % len(STRATEGIES)]
            engine = forced_twig(executor, strategy)(
                catalog=corpus["catalog"])
            node = twig_node_of(engine, query)
            assert node is not None, (i, query)
            if reference:
                assert node.est_rows > 0, (i, query)
            got = _outcome(lambda: engine.compile(query).execute())
            assert got == corpus["baseline"](query), \
                (i, query, strategy, executor.__name__)
        # the generator must exercise the interesting half of the space
        assert non_empty >= self.N_PATTERNS // 4


# ---------------------------------------------------------------------------
# The calibration corpus, the calibrated decisions, and the wall-clock gate
# ---------------------------------------------------------------------------

#: every forced plan the gate times against ``auto``'s
FORCED_PLANS = ("twigstack", "binary", "mixed", "navigation")


def _e6_shapes():
    branching = TwigNode("item")
    branching.add(TwigNode("keyword"), "descendant")
    out = branching.add(TwigNode("text"), "descendant")
    out.is_output = True

    rare = TwigNode("a")
    rare.add(TwigNode("b"), "descendant")
    rare_out = rare.add(TwigNode("c"), "descendant")
    rare_out.is_output = True

    xmark = parse_document(generate_xmark(scale=0.2, seed=2004))
    skew = parse_document(_skew_xml(n=3000, seed=3))
    return [
        ("A-D edge //open_auction//increase", xmark,
         TwigPattern.chain("open_auction", ("increase", "descendant"))),
        ("chain //person/address/city", xmark,
         TwigPattern.chain("person", ("address", "child"),
                           ("city", "child"))),
        ("branching item[.//keyword]//text", xmark, TwigPattern(branching)),
        ("rare-leaf a[.//b]//c", skew, TwigPattern(rare)),
    ]


def ledger_twig() -> TwigPattern:
    """``open_auction[itemref][bidder/increase]``: the pattern the
    ledger's ``twig`` template compiles to."""
    root = TwigNode("open_auction", is_output=True)
    root.add(TwigNode("itemref"), "child")
    root.add(TwigNode("bidder"), "child").add(TwigNode("increase"), "child")
    return TwigPattern(root)


def calibration_shapes():
    """The corpus ``_TWIG_US`` was fitted on (EXPERIMENTS.md E16): the
    four E6 shapes, and the ledger's twig pattern on the E6 XMark
    document (the ledger's own document is not part of the fit)."""
    shapes = _e6_shapes()
    return shapes + [("ledger twig open_auction[itemref][bidder/increase]",
                      shapes[0][1], ledger_twig())]


def ledger_shape():
    """The ledger's twig pattern on the ``registered_exec`` document
    (XMark scale 1.0, seed 7)."""
    return ("ledger twig on the ledger document",
            parse_document(generate_xmark(scale=1.0, seed=7)), ledger_twig())


#: the plan each calibration shape ran fastest, forced, in process
#: (EXPERIMENTS.md E16's committed table)
MEASURED_FASTEST = ("mixed", "mixed", "mixed", "twigstack", "mixed")


def plan_medians(index, stats, pattern, reps: int = 21) -> dict[str, float]:
    """Median wall seconds of every forced plan and of ``auto``'s plan.

    ``auto`` is planned once, outside the timing, as compilation plans
    a ``TwigJoin`` once for every later execution.  Its plan is the
    forced plan of the same name, and shares its samples, unless it
    filters side branches holistically: then it is timed as a plan of
    its own.  Repetitions interleave the plans, so a load change on the
    machine hits all of them alike and the medians compare the same
    load; the order rotates and each run starts after a collection, so
    no plan always inherits the garbage of the same predecessor.
    """
    choice = choose_twig_strategy(stats, pattern)
    runs = {alg: (alg, ()) for alg in FORCED_PLANS}
    if choice.holistic_branches:
        runs["auto"] = (choice.algorithm, choice.holistic_branches)
    times: dict[str, list[float]] = {name: [] for name in runs}
    order = list(runs)
    for rep in range(reps):
        for name in order[rep % len(order):] + order[:rep % len(order)]:
            alg, branches = runs[name]
            gc.collect()
            start = time.perf_counter()
            evaluate_pattern(index, pattern, alg,
                             holistic_branches=branches)
            times[name].append(time.perf_counter() - start)
    medians = {name: statistics.median(ts) for name, ts in times.items()}
    medians.setdefault("auto", medians[choice.algorithm])
    return medians


def auto_time_ratio(doc, pattern) -> tuple[float, dict[str, float]]:
    """``auto``'s median wall time over the fastest forced plan's."""
    medians = plan_medians(ElementIndex(doc), collect_stats(doc), pattern)
    fastest = min(medians[alg] for alg in FORCED_PLANS)
    return medians["auto"] / fastest, medians


@pytest.fixture(scope="module")
def calibration():
    return [(label, collect_stats(doc), pattern)
            for label, doc, pattern in calibration_shapes()]


@pytest.mark.parametrize("shape", range(len(MEASURED_FASTEST)))
def test_calibrated_choice_is_measured_fastest(calibration, shape):
    """Over the calibration corpus's statistics the model picks the
    plan the committed table measured fastest: never TwigStack on the
    chain, branching and ledger shapes, where it ran 4-7x slower, and
    TwigStack on rare-leaf, where mixed pays for its (a, b) pairs."""
    label, stats, pattern = calibration[shape]
    choice = choose_twig_strategy(stats, pattern)
    assert choice.algorithm == MEASURED_FASTEST[shape], (label, choice.costs)


@pytest.mark.perfsmoke
def test_perfsmoke_auto_within_gate_on_e6_shapes():
    """The planner's contract in wall clock: on every E6 shape and on
    the ledger's twig pattern (on the calibration document and on the
    ledger's own), ``auto``'s plan runs within 1.25x of the fastest
    forced plan (that the plans agree is ``tests/test_claims.py``'s)."""
    over = []
    for label, doc, pattern in calibration_shapes() + [ledger_shape()]:
        ratio, medians = auto_time_ratio(doc, pattern)
        if ratio > 1.25:
            over.append((label, round(ratio, 2), medians))
    assert not over, over
