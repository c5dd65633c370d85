"""Cost-based access-path selection.

Runs after the rewrite engine when the engine carries a
:class:`~repro.catalog.DocumentCatalog`.  Eligible path chains rooted
at a catalog-bound variable —

    $doc//book                      (element-index scan)
    $doc/site/people/person[emailaddress = "x"]   (value-index lookup)

— are replaced by :class:`~repro.xquery.ast.AccessPath` operators that
run on the stored document's posting lists instead of navigating the
tree.  The planner chooses among three physical access paths by
estimated cost from the store's :class:`~repro.storage.stats.
DocumentStats`:

- **navigation** (the unmodified expression): cost ≈ ``total_nodes``
  (every step chain scans the subtree under its context);
- **element-index scan**: one stack-tree merge per step, cost ≈ the
  sum of the step names' posting-list lengths (+ one residual
  predicate evaluation per output candidate);
- **value-index point lookup**: cost ≈ the estimated matches of the
  equality probe (occurrences / distinct values) times the chain
  verification depth.

Eligibility (anything else keeps navigation untouched):

- the chain root is a variable bound in the catalog to an *indexed*
  document, and no default element namespace is in force;
- every step is ``child::name`` or ``descendant::name`` with a simple
  no-namespace name test (``descendant-or-self::node()/child::name``
  pairs count as one descendant step), and the document itself has no
  namespaced nodes (posting lists key local names only);
- at most one predicate, on the last step, of the form
  ``name = probe`` / ``@name = probe`` (either operand order), where
  the probe is a *pure scalar* (:func:`repro.compiler.analysis.
  pure_scalar`: a literal, a variable, arithmetic and casts over them)
  — its value may be known only at run time;
- the value-index path additionally requires a predicate name whose
  element occurrences are all text-only leaves, and a probe that may
  be a string (a numeric literal like ``price = 55`` must match
  ``"55.0"`` by numeric promotion, which a string-keyed index cannot
  answer, so it never prices the value path; nor does a lifted
  numeric literal, by its variable's declared type).

The chain root may also be a ``let`` variable bound, once, to a plain
catalog chain: ``let $p := $doc/site/people return $p/person[@id = $a]``
— the shape common-subexpression elimination leaves when two lookups
share a prefix — plans as ``$doc/site/people/person[@id = $a]``.

A value-index plan is priced with the index's average posting length
(occurrences / distinct values of the predicate name), whatever the
probe.  At run time the probe is evaluated at first use, and only when
the chain has a candidate — exactly when navigation would first
evaluate the predicate, so an unbound or failing probe raises where and
only if navigation raises.  One string-like atom is looked up in the
value index; anything else (a number, several values, the empty
sequence) takes the element-index scan plus the residual predicate.

Index results are re-verified: value probes run through whitespace-
normalized keys (a superset of exact equality), so every candidate
passes through the *original* predicate before being emitted — the
compiled access path is result-identical to navigation by
construction, and falls back to it at runtime when the bound value is
not the indexed document the plan was costed for.

Pattern-level twig planning
---------------------------

Chains whose steps carry *structural* predicates (pure path existence,
``$doc//book[.//year]/title``) decompose into twig patterns
(:mod:`repro.joins.patterns`) instead.  :func:`choose_twig_strategy`
prices the four physical twig plans in **microseconds**: each plan's
work units, estimated from the ingest statistics, times one measured
cost per unit from :data:`_TWIG_US` (fitted once, EXPERIMENTS.md E16):

- **twigstack**: getNext descents (leaf postings and the inner
  postings that embed their sub-twig, times the pattern size) and the
  pairs on a match, which its stacks and path solutions carry;
- **binary**: postings merged per stack-tree join, and the row dicts
  the cascade builds — rows multiply across sibling branches, the
  blow-up E6 showed on skewed twigs;
- **mixed**: postings merged and pairs yielded by the side-branch
  semi-joins (or a TwigStack sub-pass per branch, where the table
  prices it cheaper) and by the cascade down the output chain;
- **navigation**: nodes visited — the document walk, then each
  candidate's subtree (or children) as the pair tables total them.

Per-edge selectivity comes from ``DocumentStats.edge_pairs`` /
``edge_parents`` — *exact* single-edge join cardinalities, so a zero
estimate proves the result empty and ``est_rows`` is only 0 for
provably-empty patterns.  The cheapest plan wins; an exact tie goes to
the earlier of :data:`_TWIG_AUTO`.  All four plans are result-identical
over posting lists by construction; the runtime re-verifies the binding
is the indexed document the plan was costed for (same fallback seam as
AccessPath).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import prod
from typing import Optional

from repro.compiler.analysis import pure_scalar
from repro.compiler.lift import is_lifted
from repro.joins.patterns import (
    ALGORITHM_ALIASES,
    TwigNode,
    TwigPattern,
    _root_to_output,
)
from repro.qname import QName
from repro.xquery import ast

#: fixed per-candidate overhead of the upward chain verification
_VERIFY_FACTOR = 2
#: an index path must beat navigation by this margin to be worth the
#: runtime binding check and posting-list machinery
_MARGIN = 0.75
#: µs per estimated work unit, per physical twig plan, fitted once on
#: the calibration corpus (EXPERIMENTS.md E16: every forced plan timed
#: in process on the E6 shapes and the ledger's twig pattern) and
#: committed; nothing is calibrated at start-up or run time.  Holistic
#: sub-passes of the mixed plan are priced at twigstack's rates
_TWIG_US = {
    "twigstack": {"scan": 1.0, "row": 3.2},
    "binary": {"scan": 0.59, "row": 0.82},
    "mixed": {"scan": 0.70, "row": 0.22},
    "navigation": {"node": 0.33},
}
#: the strategies ``auto`` chooses among; an exact cost tie goes to the
#: earlier
_TWIG_AUTO = ("mixed", "binary", "twigstack", "navigation")


def plan_access_paths(expr: ast.Expr, static_ctx, catalog,
                      twig_strategy: str = "auto") -> ast.Expr:
    """Rewrite eligible chains in ``expr`` into AccessPath or TwigJoin
    operators.  ``"auto"`` asks :func:`choose_twig_strategy` for each
    twig's physical plan; the other ``twig_strategy`` values
    (``"holistic"`` | ``"binary"`` | ``"navigation"`` | ``"mixed"``)
    force one, for the test references built by
    :func:`repro.compiler.reference.forced_twig`."""
    if catalog is None or len(catalog) == 0:
        return expr
    if static_ctx is not None and getattr(static_ctx, "default_element_ns", ""):
        # step names would resolve into a namespace; posting lists
        # key local names — never eligible
        return expr

    bound = _binding_counts(expr)

    def visit(node: ast.Expr, lets: dict) -> ast.Expr:
        replaced = _try_rewrite_twig(node, catalog, twig_strategy)
        if replaced is None:
            replaced = _try_rewrite(node, static_ctx, catalog, lets)
        if replaced is not None:
            return replaced
        if isinstance(node, ast.LetExpr):
            # a let-bound plain catalog chain stays visible to the
            # chains that continue from its variable in the body
            value = visit(node.value, lets)
            chain = _catalog_chain(value, lets, bound) \
                if bound.get(node.var) == 1 else None
            body = visit(node.body, {**lets, node.var: chain}
                         if chain is not None else lets)
            rebuilt = {id(node.value): value, id(node.body): body}
            return node.with_children(lambda child: rebuilt[id(child)])
        return node.with_children(lambda child: visit(child, lets))

    return visit(expr, {})


def _binding_counts(expr: ast.Expr) -> dict[QName, int]:
    """How often each variable name is bound anywhere in ``expr``."""
    counts: dict[QName, int] = {}

    def bind(var) -> None:
        if var is not None:
            counts[var] = counts.get(var, 0) + 1

    for node in expr.walk():
        if isinstance(node, (ast.ForExpr, ast.LetExpr, ast.Quantified)):
            bind(node.var)
            bind(getattr(node, "pos_var", None))
        elif isinstance(node, ast.FLWOR):
            for clause in node.clauses:
                bind(clause.var)
                bind(getattr(clause, "pos_var", None))
            for var, _key in node.group:
                bind(var)
        elif isinstance(node, ast.Typeswitch):
            for case in list(node.cases) + [node.default]:
                bind(case.var)
    return counts


def _catalog_chain(value: ast.Expr, lets: dict, bound: dict):
    """``(catalog variable, steps)`` when a let's value is a plain,
    predicate-free chain from a catalog variable that nothing in the
    query rebinds; else None."""
    if isinstance(value, ast.AccessPath):
        var, steps, pred = value.var, value.steps, value.pred
    else:
        decomposed = _decompose(value, lets)
        if decomposed is None:
            return None
        var, steps, pred = decomposed
    if pred is not None or bound.get(var):
        return None
    return var, tuple(steps)


def _try_rewrite(expr: ast.Expr, static_ctx, catalog,
                 lets: dict) -> Optional[ast.AccessPath]:
    decomposed = _decompose(expr, lets)
    if decomposed is None:
        return None
    var, steps, pred_parts = decomposed

    if var.uri:
        return None
    stored = catalog.get(var.local)
    if stored is None or not stored.indexed:
        return None
    stats = stored.stats
    if stats.has_namespaces:
        return None

    pred = None
    predicate_expr = None
    pred_key = None
    may_be_string = False
    if pred_parts is not None:
        pred_kind, pred_name, probe, predicate_expr = pred_parts
        pred_key = "@" + pred_name if pred_kind == "attribute" else pred_name
        may_be_string = _may_be_string(probe, static_ctx)
        pred = (pred_kind, pred_name, probe)

    out_name = steps[-1][1]
    nav_cost = max(1, stats.total_nodes)

    candidates: list[tuple[float, str, int]] = []

    # element-index scan: merge the chain's posting lists
    elem_cost = sum(stats.count(name) for _, name in steps)
    est_rows = stats.count(out_name)
    if pred is not None:
        elem_cost += est_rows  # one residual predicate check per candidate
        est_rows = min(est_rows, max(1, stats.estimated_matches(pred_key))) \
            if stats.value_counts.get(pred_key) else est_rows
    candidates.append((float(max(1, elem_cost)), "element_index", est_rows))

    # value-index point lookup: probe, then verify each owner's chain;
    # priced with the average posting length, whatever the probe
    if may_be_string and stats.is_leaf_only(pred_key) \
            and stats.value_counts.get(pred_key):
        matches = stats.estimated_matches(pred_key)
        value_cost = max(1, matches) * (len(steps) + _VERIFY_FACTOR)
        candidates.append((float(value_cost), "value_index", max(1, matches)))

    cost, chosen, rows = min(candidates)
    if cost >= nav_cost * _MARGIN:
        return None

    node = ast.AccessPath(var, tuple(steps), pred, chosen, rows,
                          predicate_expr, expr, pos=expr.pos)
    node.annotations.update({
        "creates_nodes": False,
        "can_raise": True,       # unbound variable, cancellation
        "uses_focus": False,
        "doc_ordered": True,
        "distinct": True,
        "disjoint": False,
        "access_path.chosen": chosen,
        "access_path.est_rows": rows,
    })
    return node


def _may_be_string(probe: ast.Expr, static_ctx) -> bool:
    """A literal's type is known now, and so is a lifted literal's (its
    variable's declared type); anything else only at run time."""
    if isinstance(probe, ast.Literal):
        return probe.value.type.string_like
    if isinstance(probe, ast.VarRef) and is_lifted(probe.name):
        declared = static_ctx.variables[probe.name]
        return static_ctx.lookup_type(declared.type_name).string_like
    return True


def _decompose(expr: ast.Expr, lets: dict):
    """Match ``DDO(PathExpr(... VarRef ...))`` chains.

    Returns ``(var, steps, pred_parts)`` where ``var`` is the root
    variable's name, ``steps`` the root-to-output ``(edge, name)`` list
    and ``pred_parts`` None or ``(kind, name, probe, comparison)`` for
    a final-step equality predicate; None when the shape is ineligible.
    A root in ``lets`` (a let-bound catalog chain) continues that
    chain.
    """
    if not isinstance(expr, ast.DDO):
        return None
    node = expr.operand
    rights: list[ast.Expr] = []
    while True:
        if isinstance(node, ast.DDO):
            node = node.operand
        elif isinstance(node, ast.PathExpr):
            rights.append(node.right)
            node = node.left
        else:
            break
    if not isinstance(node, ast.VarRef) or not rights:
        return None
    var = node
    rights.reverse()

    steps: list[tuple[str, str]] = []
    pred_parts = None
    pending_descendant = False
    last_index = len(rights) - 1
    for i, right in enumerate(rights):
        if isinstance(right, ast.Filter):
            if i != last_index:
                return None
            pred_parts = _match_predicate(right.predicate)
            if pred_parts is None:
                return None
            right = right.base
        if not isinstance(right, ast.Step):
            return None
        if _is_dos_node(right):
            if pending_descendant or i == last_index:
                return None
            pending_descendant = True
            continue
        name = _simple_element_name(right)
        if name is None:
            return None
        if pending_descendant:
            if right.axis != "child":
                return None
            steps.append(("descendant", name))
            pending_descendant = False
        else:
            steps.append((right.axis, name))
    if pending_descendant or not steps:
        return None
    prefix = lets.get(var.name)
    if prefix is not None:
        return prefix[0], list(prefix[1]) + steps, pred_parts
    return var.name, steps, pred_parts


def _is_dos_node(step: ast.Step) -> bool:
    return (step.axis == "descendant-or-self" and step.test.kind == "node"
            and step.test.name is None and step.test.type_name is None)


def _simple_element_name(step: ast.Step) -> Optional[str]:
    if step.axis not in ("child", "descendant"):
        return None
    test = step.test
    if test.kind != "element" or test.name is None or test.type_name is not None:
        return None
    if test.name.uri or test.name.local in ("*", ""):
        return None
    return test.name.local


def _match_predicate(pred: ast.Expr):
    """``name = probe`` / ``@name = probe`` (general comparison) with a
    pure-scalar probe: a chain binds no variable and the probe reads no
    focus, so it is invariant to the path."""
    if not isinstance(pred, ast.Comparison) or pred.family != "general" \
            or pred.op != "=":
        return None
    for lhs, rhs in ((pred.left, pred.right), (pred.right, pred.left)):
        if not isinstance(lhs, ast.Step) or not pure_scalar(rhs):
            continue
        test = lhs.test
        if test.type_name is not None or test.name is None \
                or test.name.uri or test.name.local in ("*", ""):
            continue
        if lhs.axis == "child" and test.kind == "element":
            return ("child", test.name.local, rhs, pred)
        if lhs.axis == "attribute" and test.kind == "attribute":
            return ("attribute", test.name.local, rhs, pred)
    return None


# ---------------------------------------------------------------------------
# Pattern-level twig planning
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TwigChoice:
    """The cost model's verdict for one twig pattern.

    ``algorithm`` is the internal plan name (``twigstack`` | ``binary``
    | ``navigation`` | ``mixed``); ``est_rows`` the estimated output
    cardinality (0 only when the result is provably empty — every
    single-edge estimate is exact); ``edge_ests`` the per-edge
    estimated join pairs as ``(parent, kind, child, est_pairs)``;
    ``costs`` the per-strategy estimates in µs the choice compared;
    ``holistic_branches`` the side branches a mixed plan filters
    holistically.
    """

    algorithm: str
    est_rows: int
    edge_ests: tuple[tuple[str, str, str, int], ...]
    costs: dict[str, float] = field(compare=False)
    holistic_branches: tuple[str, ...] = ()


def choose_twig_strategy(stats, pattern: TwigPattern,
                         force: Optional[str] = None) -> TwigChoice:
    """Price the four physical twig plans against ``stats`` and pick.

    ``force`` pins the returned algorithm (internal name) while still
    computing estimates — a forced ``twig_strategy`` of
    :func:`plan_access_paths` uses it so EXPLAIN keeps showing the
    model's numbers.
    """
    nodes = list(pattern.nodes())
    edges = pattern.edges()
    counts = {n.name: stats.count(n.name) for n in nodes}
    raw_pairs = {(p, c): stats.edge_pairs(p, c, kind) for p, kind, c in edges}
    provably_empty = 0 in counts.values() or 0 in raw_pairs.values()

    # -- survival fractions (independence assumption across edges) -----
    # keep[(p, c)]: the share of p postings that embed c's sub-twig
    down: dict[str, float] = {}
    keep: dict[tuple[str, str], float] = {}

    def visit_down(node: TwigNode) -> None:
        cnt = counts[node.name]
        down[node.name] = 1.0
        for edge in node.children:
            visit_down(edge.child)
            key = (node.name, edge.child.name)
            keep[key] = min(1.0, stats.edge_parents(*key, edge.kind) / cnt
                            * down[edge.child.name]) if cnt else 0.0
            down[node.name] *= keep[key]

    visit_down(pattern.root)

    def side(parent: str, skip) -> float:
        # the share of parent postings embedding every branch but skip's
        return prod(v for (p, c), v in keep.items()
                    if p == parent and c != skip)

    # up[n]: the share of n postings under a parent posting that embeds
    # the rest of the pattern (edges list parents before children)
    up = {pattern.root.name: 1.0}
    for parent, _kind, child in edges:
        up[child] = min(1.0, raw_pairs[(parent, child)] / counts[child]) \
            * up[parent] * side(parent, child) if counts[child] else 0.0

    out_name = pattern.output.name
    est_rows = 0 if provably_empty else max(
        1, round(counts[out_name] * down[out_name] * up[out_name]))
    edge_ests = tuple((parent, kind, child, raw_pairs[(parent, child)])
                      for parent, kind, child in edges)

    # -- per-plan work units, priced in µs by _TWIG_US ------------------
    ts_us = _TWIG_US["twigstack"]
    costs: dict[str, float] = {
        # a getNext descent per leaf posting and per inner posting that
        # embeds its sub-twig (the inner loop skips the rest), and the
        # pairs on a match, which stacks and path solutions carry
        "twigstack": ts_us["scan"] * len(nodes) * sum(
            counts[n] * down[n] for n in counts) + ts_us["row"] * sum(
            raw_pairs[(p, c)] * up[p] * side(p, c) * down[c]
            for p, _k, c in edges),
    }

    # navigation: the document walk, then each candidate's children or
    # subtree — all of it down the output chain, up to the first match
    # in a predicate branch (text nodes pro rata)
    chain = _root_to_output(pattern)
    on_chain = {q.name for q, _kind in chain}
    walked = 0.0
    for p, kind, c in edges:
        below = sum(n for (a, _d), n in (stats.child_pairs if kind == "child"
                                         else stats.desc_pairs).items()
                    if a == p)
        walked += up[p] * below * (1.0 if c in on_chain else 1 - keep[p, c])
    costs["navigation"] = _TWIG_US["navigation"]["node"] * stats.total_nodes \
        * (1 + walked / max(1, stats.total_elements))

    # binary: stack-tree join per edge in the plan's evaluation order;
    # each join extends every row dict by its anchor's matches, so the
    # rows multiply across sibling branches
    bin_scan = 0.0
    bin_rows = float(counts[pattern.root.name])
    est_distinct = {pattern.root.name: bin_rows}

    def visit_bin(node: TwigNode, rows: float) -> float:
        nonlocal bin_scan, bin_rows
        for edge in node.children:
            key, alist = (node.name, edge.child.name), est_distinct[node.name]
            pairs_est = raw_pairs[key] * alist / counts[node.name] \
                if alist else 0.0
            bin_scan += alist + counts[edge.child.name]
            rows *= pairs_est / alist if alist else 0.0
            bin_rows += rows
            est_distinct[edge.child.name] = min(counts[edge.child.name],
                                                pairs_est)
            rows = visit_bin(edge.child, rows)
            # rows whose binding lacks the child's sub-twig are gone
            est_distinct[node.name] = alist * keep[key]
        return rows

    visit_bin(pattern.root, bin_rows)
    costs["binary"] = _TWIG_US["binary"]["scan"] * bin_scan \
        + _TWIG_US["binary"]["row"] * bin_rows

    # mixed: per-branch min(binary semi-join, holistic sub-pass), then
    # the binary cascade over the filtered chain lists; a join's rows
    # are the pairs it yields, each a stack-tree step and a dedup probe
    mix_us = _TWIG_US["mixed"]
    chain_next = {chain[i][0].name: chain[i + 1][0].name
                  for i in range(len(chain) - 1)}
    mix_cost = 0.0
    holistic_branches: list[str] = []
    filt: list[float] = []
    for qnode, _kind in chain:
        nxt = chain_next.get(qnode.name)
        share = 1.0  # of qnode's list left by the branches filtered so far
        for edge in qnode.children:
            if edge.child.name == nxt:
                continue
            first = (qnode.name, edge.child.name)
            branch = [(qnode.name, edge.kind, edge.child.name)] \
                + _subtree_edges(edge.child)
            rows = sum(raw_pairs[p, c] * down[c] for p, _k, c in branch)
            semi = mix_us["scan"] * (sum(counts[p] + counts[c] for p, _k, c
                                         in branch) - (1 - share) * counts[
                qnode.name]) + mix_us["row"] * rows
            hol = ts_us["scan"] * (len(branch) + 1) * (
                counts[qnode.name] * keep[first] + sum(
                    counts[c] * down[c] for _p, _k, c in branch)) \
                + ts_us["row"] * rows
            if hol < semi:
                holistic_branches.append(edge.child.name)
            mix_cost += min(hol, semi)
            share *= keep[first]
        filt.append(counts[qnode.name] * share)
    surv = filt[0]
    for i in range(1, len(chain)):
        pq, cq = chain[i - 1][0].name, chain[i][0].name
        pairs_est = raw_pairs[pq, cq] * surv / counts[pq] if surv else 0.0
        mix_cost += mix_us["scan"] * (surv + filt[i]) \
            + mix_us["row"] * pairs_est * side(cq, chain_next.get(cq))
        surv = min(filt[i], pairs_est)
    costs["mixed"] = mix_cost

    chosen = force or min(_TWIG_AUTO, key=costs.__getitem__)
    return TwigChoice(chosen, est_rows, edge_ests, costs,
                      tuple(holistic_branches) if chosen == "mixed" else ())


def _subtree_edges(node: TwigNode) -> list[tuple[str, str, str]]:
    out: list[tuple[str, str, str]] = []
    stack = [node]
    while stack:
        current = stack.pop()
        for edge in current.children:
            out.append((current.name, edge.kind, edge.child.name))
            stack.append(edge.child)
    return out


def _try_rewrite_twig(expr: ast.Expr, catalog,
                      twig_strategy: str) -> Optional[ast.TwigJoin]:
    decomposed = _decompose_twig(expr)
    if decomposed is None:
        return None
    var, steps = decomposed

    if var.name.uri:
        return None
    stored = catalog.get(var.name.local)
    if stored is None or not stored.indexed:
        return None
    stats = stored.stats
    if stats.has_namespaces:
        return None

    kind0, name0, _preds0 = steps[0]
    if kind0 == "child":
        # the chain starts child-of-document-node: only the unique root
        # element qualifies, and the pattern root (which matches every
        # element of that name) is equivalent only when the name occurs
        # exactly once
        if stats.root_name != name0 or stats.count(name0) != 1:
            return None

    # all pattern node names must be distinct (bindings key by name)
    names: list[str] = []
    for _kind, name, preds in steps:
        names.append(name)
        for chain in preds:
            names.extend(n for _k, n in chain)
    if len(names) != len(set(names)):
        return None

    def attach_preds(node: TwigNode, preds) -> None:
        for chain in preds:
            current = node
            for kind, name in chain:
                current = current.add(TwigNode(name), kind)

    root = TwigNode(name0)
    attach_preds(root, steps[0][2])
    current = root
    for kind, name, preds in steps[1:]:
        current = current.add(TwigNode(name), kind)
        attach_preds(current, preds)
    current.is_output = True
    pattern = TwigPattern(root)

    try:
        internal = ALGORITHM_ALIASES[twig_strategy]
    except KeyError:
        raise ValueError(
            f"unknown twig_strategy {twig_strategy!r}; expected one of "
            f"{sorted(ALGORITHM_ALIASES)}") from None
    choice = choose_twig_strategy(
        stats, pattern, force=None if internal == "auto" else internal)

    node = ast.TwigJoin(var.name, pattern.to_spec(), choice.algorithm,
                        choice.est_rows, choice.edge_ests,
                        choice.holistic_branches, expr, pos=expr.pos)
    annotations = {
        "creates_nodes": False,
        "can_raise": True,       # unbound variable, cancellation
        "uses_focus": False,
        "doc_ordered": True,
        "distinct": True,
        "disjoint": False,
        "twig.chosen": choice.algorithm,
        "twig.est_rows": choice.est_rows,
    }
    for parent, _kind, child, est in choice.edge_ests:
        annotations[f"twig.edge.{parent}>{child}.est_pairs"] = est
    node.annotations.update(annotations)
    return node


def _decompose_twig(expr: ast.Expr):
    """Match ``DDO(PathExpr(... VarRef ...))`` chains whose steps carry
    structural (pure path-existence) predicates.

    Returns ``(var, steps)`` where each step is ``(edge, name, preds)``
    and ``preds`` is a list of predicate chains, each a root-relative
    ``(edge, name)`` list; None when ineligible or when no structural
    predicate is present (plain chains stay with the single-path
    AccessPath planner).
    """
    if not isinstance(expr, ast.DDO):
        return None
    node = expr.operand
    rights: list[ast.Expr] = []
    while True:
        if isinstance(node, ast.DDO):
            node = node.operand
        elif isinstance(node, ast.PathExpr):
            rights.append(node.right)
            node = node.left
        else:
            break
    if not isinstance(node, ast.VarRef) or not rights:
        return None
    var = node
    rights.reverse()

    steps: list[tuple[str, str, list]] = []
    pending_descendant = False
    has_pred = False
    last_index = len(rights) - 1
    for i, right in enumerate(rights):
        preds: list[list[tuple[str, str]]] = []
        while isinstance(right, ast.Filter):
            chain = _match_structural_pred(right.predicate)
            if chain is None:
                return None
            preds.append(chain)
            right = right.base
        if preds:
            has_pred = True
        if not isinstance(right, ast.Step):
            return None
        if _is_dos_node(right):
            if preds or pending_descendant or i == last_index:
                return None
            pending_descendant = True
            continue
        name = _simple_element_name(right)
        if name is None:
            return None
        if pending_descendant:
            if right.axis != "child":
                return None
            steps.append(("descendant", name, preds))
            pending_descendant = False
        else:
            steps.append((right.axis, name, preds))
    if pending_descendant or not steps or not has_pred:
        return None
    return var, steps


def _match_structural_pred(pred: ast.Expr) -> Optional[list[tuple[str, str]]]:
    """Match a pure structural predicate: a relative path of simple
    child/descendant element steps (``[year]``, ``[.//keyword]``,
    ``[author/last]``).  Returns the ``(edge, name)`` chain or None.

    Such predicates are existential over node sequences, so their
    effective boolean value is exactly twig-edge containment — never
    the numeric positional-filter form.
    """
    node = pred
    rights: list[ast.Expr] = []
    while True:
        if isinstance(node, ast.DDO):
            node = node.operand
        elif isinstance(node, ast.PathExpr):
            rights.append(node.right)
            node = node.left
        else:
            break
    if isinstance(node, ast.Step):
        rights.append(node)
    elif not isinstance(node, ast.ContextItem):
        return None
    rights.reverse()
    if not rights:
        return None

    chain: list[tuple[str, str]] = []
    pending_descendant = False
    for i, right in enumerate(rights):
        if not isinstance(right, ast.Step):
            return None
        if _is_dos_node(right):
            if pending_descendant or i == len(rights) - 1:
                return None
            pending_descendant = True
            continue
        name = _simple_element_name(right)
        if name is None:
            return None
        if pending_descendant:
            if right.axis != "child":
                return None
            chain.append(("descendant", name))
            pending_descendant = False
        else:
            chain.append((right.axis, name))
    if pending_descendant or not chain:
        return None
    return chain
