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
prices the four physical twig plans from the same ingest statistics,
now extended with exact per-edge pair counts:

- **holistic** (TwigStack): every posting list scanned once —
  ``Σ count(n)`` — times a small coordination factor for the
  per-advance ``getNext`` machinery E6 measured;
- **binary**: one stack-tree join per edge in evaluation order; the
  alist re-scans the junction's surviving bindings and intermediate
  row materialization is charged as a blow-up penalty (the failure
  mode E6 showed on skewed twigs);
- **mixed**: side branches reduced to semi-join filters (binary
  bottom-up, or holistic for branches where a TwigStack sub-pass is
  cheaper), then a binary cascade down the filtered output chain;
- **navigation**: the walking baseline, ``total_nodes`` plus the
  per-candidate subtree visits the pair counts bound.

Per-edge selectivity comes from ``DocumentStats.edge_pairs`` /
``edge_parents`` — *exact* single-edge join cardinalities, so a zero
estimate proves the result empty and ``est_rows`` is only 0 for
provably-empty patterns.  On near-ties (within :data:`_TWIG_TIE`) the
cheaper-constant plan wins: binary > mixed > holistic > navigation.
All four plans are result-identical over posting lists by
construction; the runtime re-verifies the binding is the indexed
document the plan was costed for (same fallback seam as AccessPath).
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
#: holistic coordination overhead per scanned element: TwigStack pays a
#: recursive getNext per advance, so its scan estimate is inflated a
#: little — enough for cheaper-machinery plans to win genuine ties
#: without ever overrunning the 1.25x scan-cost acceptance margin
_TWIG_HOL_FACTOR = 1.15
#: near-tie window: an earlier-preference strategy is chosen when its
#: estimated cost is within this factor of the cheapest estimate
_TWIG_TIE = 1.05
#: λ — cost charged per estimated intermediate row the binary plan
#: materializes (rows carried into subsequent joins)
_TWIG_BLOWUP = 1.0
#: tie-break preference on near-equal estimates (cheapest machinery
#: first; navigation last — it never touches the posting lists)
_TWIG_PREFERENCE = ("binary", "mixed", "twigstack", "navigation")


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
    ``costs`` the per-strategy scan-cost estimates the choice compared;
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
    raw_pairs: dict[tuple[str, str], int] = {}
    provably_empty = any(c == 0 for c in counts.values())
    for parent, kind, child in edges:
        pairs = stats.edge_pairs(parent, child, kind)
        raw_pairs[(parent, child)] = pairs
        if pairs == 0:
            provably_empty = True

    # -- survival fractions (independence assumption across edges) -----
    down: dict[str, float] = {}

    def visit_down(node: TwigNode) -> None:
        frac = 1.0
        cnt = counts[node.name]
        for edge in node.children:
            visit_down(edge.child)
            if cnt == 0:
                frac = 0.0
                continue
            p_has = stats.edge_parents(node.name, edge.child.name,
                                       edge.kind) / cnt
            frac *= min(1.0, p_has * down[edge.child.name])
        down[node.name] = frac

    visit_down(pattern.root)

    chain = _root_to_output(pattern)
    chain_next = {chain[i][0].name: chain[i + 1][0].name
                  for i in range(len(chain) - 1)}
    # per chain node: survival from side branches only (the chain edge
    # itself is priced by the cascade, not the node filter)
    down_side: dict[str, float] = {}
    for qnode, _kind in chain:
        nxt = chain_next.get(qnode.name)
        frac = 1.0
        cnt = counts[qnode.name]
        for edge in qnode.children:
            if edge.child.name == nxt:
                continue
            if cnt == 0:
                frac = 0.0
                continue
            p_has = stats.edge_parents(qnode.name, edge.child.name,
                                       edge.kind) / cnt
            frac *= min(1.0, p_has * down[edge.child.name])
        down_side[qnode.name] = frac

    # ancestor-chain survival of the output node
    anc = 1.0
    for i in range(1, len(chain)):
        pq = chain[i - 1][0]
        cq = chain[i][0]
        cc = counts[cq.name]
        p_above = min(1.0, raw_pairs[(pq.name, cq.name)] / cc) if cc else 0.0
        anc = min(1.0, p_above * anc * down_side[pq.name])

    out_name = pattern.output.name
    if provably_empty:
        est_rows = 0
    else:
        est_rows = max(1, round(counts[out_name] * down[out_name] * anc))

    edge_ests = tuple((parent, kind, child, raw_pairs[(parent, child)])
                      for parent, kind, child in edges)

    # -- per-strategy scan-cost estimates ------------------------------
    total_list = sum(counts.values())
    costs: dict[str, float] = {}
    costs["twigstack"] = _TWIG_HOL_FACTOR * max(1, total_list)
    costs["navigation"] = float(
        max(1, stats.total_nodes) + 2 * sum(raw_pairs.values()))

    # binary: stack-tree join per edge in the plan's evaluation order
    bin_scan = 0.0
    intermediates: list[float] = []
    est_distinct = {pattern.root.name: float(counts[pattern.root.name])}

    def visit_bin(node: TwigNode) -> None:
        nonlocal bin_scan
        for edge in node.children:
            cnt = counts[node.name]
            alist = est_distinct[node.name]
            frac = alist / cnt if cnt else 0.0
            pairs_est = raw_pairs[(node.name, edge.child.name)] * frac
            bin_scan += alist + counts[edge.child.name]
            intermediates.append(pairs_est)
            est_distinct[edge.child.name] = min(
                float(counts[edge.child.name]), pairs_est)
            visit_bin(edge.child)

    visit_bin(pattern.root)
    # rows materialized after the final join are the output, not a
    # blow-up — only rows carried into subsequent joins are charged
    blowup = sum(intermediates[:-1]) if len(intermediates) > 1 else 0.0
    costs["binary"] = max(1.0, bin_scan + _TWIG_BLOWUP * blowup)

    # mixed: per-branch min(binary semi-join, holistic sub-pass), then
    # the binary cascade over the filtered chain lists
    mix_cost = 0.0
    holistic_branches: list[str] = []
    filt: list[float] = []
    for qnode, _kind in chain:
        nxt = chain_next.get(qnode.name)
        for edge in qnode.children:
            if edge.child.name == nxt:
                continue
            branch_edges = _subtree_edges(edge.child)
            semi = counts[qnode.name] + counts[edge.child.name] + sum(
                counts[p] + counts[c] for p, _k, c in branch_edges)
            hol = _TWIG_HOL_FACTOR * (
                counts[qnode.name] + counts[edge.child.name] + sum(
                    counts[c] for _p, _k, c in branch_edges))
            if hol < semi:
                holistic_branches.append(edge.child.name)
                mix_cost += hol
            else:
                mix_cost += semi
        filt.append(counts[qnode.name] * down_side[qnode.name])
    surv = filt[0]
    for i in range(1, len(chain)):
        pq = chain[i - 1][0]
        mix_cost += surv + filt[i]
        cnt = counts[pq.name]
        frac = surv / cnt if cnt else 0.0
        surv = min(filt[i], raw_pairs[(pq.name, chain[i][0].name)] * frac)
    costs["mixed"] = max(1.0, mix_cost)

    if force is not None:
        chosen = force
    else:
        best = min(costs.values())
        chosen = next(name for name in _TWIG_PREFERENCE
                      if costs[name] <= _TWIG_TIE * best)
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
