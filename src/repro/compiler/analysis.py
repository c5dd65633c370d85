"""Expression analysis — the compiler's dataflow questions.

The paper's "Xquery expression analysis" slide, implemented as a
bottom-up annotation pass.  Per expression we compute:

- ``creates_nodes`` — can the result contain newly created nodes?
  (gates LET folding and unfolding);
- ``can_raise`` — can evaluation raise a user-visible error?
- ``uses_focus`` — does it read the context item/position/size?
- ``doc_ordered`` / ``distinct`` / ``disjoint`` — the path-analysis
  triple behind the tutorial's ``/a/b/c`` vs ``//a/b`` vs ``//a//b``
  table; ``disjoint`` means no result node is an ancestor of another,
  which is what makes a following child step order-preserving.

Annotations live in ``expr.annotations`` and are recomputed from
scratch by :func:`analyze` (cheap: one walk).

Variable-usage counting (:func:`count_var_uses`) answers the LET
folding questions: how many times is ``$x`` used, and is any use under
a loop?
"""

from __future__ import annotations

from typing import Iterator

from repro.qname import (
    FN_NS as _FN_NS,
    QName,
    XDT_NS as _XDT_NS,
    XS_NS as _XS_NS,
)
from repro.runtime import functions as fnlib
from repro.xquery import ast

_FORWARD_STABLE = ("child", "attribute", "self")
_DESCENDANT = ("descendant", "descendant-or-self")


def analyze(expr: ast.Expr, static_ctx=None) -> ast.Expr:
    """Annotate ``expr`` (in place) bottom-up; returns it for chaining."""
    for child in expr.children():
        analyze(child, static_ctx)
    ann = expr.annotations
    ann.clear()
    ann.update(_node_properties(expr, static_ctx))
    return expr


def analyze_incremental(expr: ast.Expr, static_ctx=None) -> ast.Expr:
    """Annotate only nodes that have no annotations yet.

    Expression trees are immutable once built (rewrites produce new
    nodes), so existing annotations stay valid; the rewrite engine uses
    this to keep per-sweep cost linear instead of quadratic.
    """
    if expr.annotations:
        return expr
    for child in expr.children():
        analyze_incremental(child, static_ctx)
    expr.annotations.update(_node_properties(expr, static_ctx))
    return expr


def _child_any(expr: ast.Expr, key: str) -> bool:
    return any(c.annotations.get(key, False) for c in expr.children())


def _node_properties(expr: ast.Expr, static_ctx) -> dict:
    creates = _child_any(expr, "creates_nodes")
    can_raise = _child_any(expr, "can_raise")
    uses_focus = _child_any(expr, "uses_focus")
    ordered = False
    distinct = False
    disjoint = False

    if isinstance(expr, ast.Literal) or isinstance(expr, ast.EmptySequence):
        return {"creates_nodes": False, "can_raise": False, "uses_focus": False,
                "doc_ordered": True, "distinct": True, "disjoint": True,
                "singleton": isinstance(expr, ast.Literal)}

    if isinstance(expr, ast.VarRef):
        # a variable's content is generally unknown — but a declared
        # singleton node type ("$d as document-node()") restores the
        # ordered/distinct/disjoint guarantees a path needs
        singleton_node = False
        if static_ctx is not None:
            decl = static_ctx.variables.get(expr.name)
            if decl is not None and getattr(decl, "occurrence", None) == "" and \
                    getattr(decl, "item_kind", None) in (
                        "document", "element", "attribute", "node",
                        "text", "comment", "processing-instruction"):
                singleton_node = True
        return {"creates_nodes": False, "can_raise": False, "uses_focus": False,
                "doc_ordered": singleton_node, "distinct": singleton_node,
                "disjoint": singleton_node, "singleton": singleton_node}

    if isinstance(expr, ast.ContextItem):
        return {"creates_nodes": False, "can_raise": True, "uses_focus": True,
                "doc_ordered": True, "distinct": True, "disjoint": True,
                "singleton": True}

    if isinstance(expr, ast.RootExpr):
        return {"creates_nodes": False, "can_raise": True, "uses_focus": True,
                "doc_ordered": True, "distinct": True, "disjoint": True,
                "singleton": True}

    if isinstance(expr, (ast.AccessPath, ast.TwigJoin)):
        # planner-introduced: emits distinct elements of one document
        # in document order, like the DDO(PathExpr) it replaced
        return {"creates_nodes": False, "can_raise": True,
                "uses_focus": False, "doc_ordered": True, "distinct": True,
                "disjoint": False}

    if isinstance(expr, ast.Step):
        # a step from ONE context node
        if expr.axis in _FORWARD_STABLE:
            ordered = distinct = disjoint = True
        elif expr.axis in _DESCENDANT:
            ordered = distinct = True
            disjoint = False
        elif expr.axis in ("parent",):
            ordered = distinct = True  # single node
            disjoint = True
        else:
            ordered = distinct = disjoint = False
        return {"creates_nodes": False, "can_raise": True, "uses_focus": True,
                "doc_ordered": ordered, "distinct": distinct, "disjoint": disjoint}

    if isinstance(expr, ast.PathExpr):
        left, right = expr.left, expr.right
        la = left.annotations
        # the right side's focus comes from the path itself
        uses_focus = la.get("uses_focus", False)
        l_ordered = la.get("doc_ordered", False)
        l_distinct = la.get("distinct", False)
        l_disjoint = la.get("disjoint", False)
        if isinstance(right, ast.Step):
            axis = right.axis
            if l_ordered and l_distinct and l_disjoint:
                if axis in _FORWARD_STABLE:
                    ordered = distinct = disjoint = True
                elif axis in _DESCENDANT:
                    # /a//b — ordered & distinct, but results can nest
                    ordered = distinct = True
                    disjoint = False
            elif l_ordered and l_distinct and not l_disjoint:
                if axis in ("child", "attribute"):
                    # //a/b — distinct but NOT ordered (the slide's case)
                    distinct = True
                elif axis == "self":
                    ordered, distinct, disjoint = l_ordered, l_distinct, l_disjoint
        elif isinstance(right, ast.Filter):
            # filters preserve the base's guarantees; approximate by
            # treating Filter(Step) like its step
            inner = right
            while isinstance(inner, ast.Filter):
                inner = inner.base
            if isinstance(inner, ast.Step):
                proxy = ast.PathExpr(left, inner, expr.pos)
                proxy.left.annotations.update(la)
                # recompute with the inner step
                props = _node_properties(proxy, static_ctx)
                ordered = props["doc_ordered"]
                distinct = props["distinct"]
                disjoint = props["disjoint"]
        return {"creates_nodes": creates, "can_raise": True,
                "uses_focus": uses_focus,
                "doc_ordered": ordered, "distinct": distinct, "disjoint": disjoint}

    if isinstance(expr, ast.Filter):
        base_ann = expr.base.annotations
        return {"creates_nodes": creates, "can_raise": True,
                "uses_focus": base_ann.get("uses_focus", False),
                "doc_ordered": base_ann.get("doc_ordered", False),
                "distinct": base_ann.get("distinct", False),
                "disjoint": base_ann.get("disjoint", False)}

    if isinstance(expr, ast.DDO):
        inner = expr.operand.annotations
        return {"creates_nodes": creates, "can_raise": True,
                "uses_focus": inner.get("uses_focus", False),
                "doc_ordered": True, "distinct": True,
                "disjoint": inner.get("disjoint", False)}

    if isinstance(expr, (ast.ElementCtor, ast.AttributeCtor, ast.TextCtor,
                         ast.CommentCtor, ast.PICtor, ast.DocumentCtor)):
        return {"creates_nodes": True, "can_raise": True, "uses_focus": uses_focus,
                "doc_ordered": True, "distinct": True, "disjoint": True,
                "singleton": True}

    if isinstance(expr, ast.ValidateExpr):
        return {"creates_nodes": True, "can_raise": True, "uses_focus": uses_focus,
                "doc_ordered": True, "distinct": True, "disjoint": True}

    if isinstance(expr, ast.FunctionCall):
        builtin = fnlib.lookup(expr.name, len(expr.args))
        if builtin is not None:
            return {"creates_nodes": creates or builtin.creates_nodes,
                    "can_raise": True,
                    "uses_focus": uses_focus or builtin.context_sensitive,
                    "doc_ordered": False, "distinct": False, "disjoint": False}
        if expr.name.uri in (_XS_NS, _XDT_NS):
            # constructor function: a cast producing an atomic value —
            # it can raise (FORG0001) but never creates nodes
            return {"creates_nodes": creates, "can_raise": True,
                    "uses_focus": uses_focus,
                    "doc_ordered": False, "distinct": False, "disjoint": False}
        # unknown/user function: conservative on everything
        return {"creates_nodes": True, "can_raise": True, "uses_focus": uses_focus,
                "doc_ordered": False, "distinct": False, "disjoint": False}

    if isinstance(expr, (ast.ForExpr, ast.FLWOR)):
        return {"creates_nodes": creates, "can_raise": True, "uses_focus": uses_focus,
                "doc_ordered": False, "distinct": False, "disjoint": False}

    if isinstance(expr, ast.LetExpr):
        body_ann = expr.body.annotations
        return {"creates_nodes": creates, "can_raise": can_raise,
                "uses_focus": uses_focus,
                "doc_ordered": body_ann.get("doc_ordered", False),
                "distinct": body_ann.get("distinct", False),
                "disjoint": body_ann.get("disjoint", False)}

    if isinstance(expr, ast.IfExpr):
        then_ann, else_ann = expr.then.annotations, expr.orelse.annotations
        return {"creates_nodes": creates, "can_raise": True, "uses_focus": uses_focus,
                "doc_ordered": then_ann.get("doc_ordered", False)
                and else_ann.get("doc_ordered", False),
                "distinct": then_ann.get("distinct", False)
                and else_ann.get("distinct", False),
                "disjoint": False}

    if isinstance(expr, (ast.Comparison, ast.Arithmetic, ast.AndExpr, ast.OrExpr,
                         ast.UnaryExpr, ast.Quantified, ast.InstanceOf,
                         ast.CastExpr, ast.CastableExpr, ast.RangeExpr)):
        return {"creates_nodes": creates, "can_raise": True, "uses_focus": uses_focus,
                "doc_ordered": True, "distinct": True, "disjoint": True,
                "singleton": False}

    if isinstance(expr, ast.SetOp):
        return {"creates_nodes": creates, "can_raise": True, "uses_focus": uses_focus,
                "doc_ordered": True, "distinct": True, "disjoint": False}

    # SequenceExpr, Typeswitch, Treat, ParamConvert, OrderedExpr, ...
    return {"creates_nodes": creates, "can_raise": can_raise or True,
            "uses_focus": uses_focus,
            "doc_ordered": False, "distinct": False, "disjoint": False}


# ---------------------------------------------------------------------------
# Focus-size usage (the source emitter's lazily-sized focus)
# ---------------------------------------------------------------------------


def uses_last(expr: ast.Expr) -> bool:
    """Does the subtree (conservatively) observe the focus size?

    Walks ``_fields`` children plus the clause/case expressions the
    generic traversal skips; unknown function calls count as using
    last().  A user function call does not: its body has no focus.
    The compile-to-source emitter replaces the lazily-sized
    ``BufferedSequence`` focus with a plain counter and gates that
    fusion on this walk.
    """
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.FunctionCall):
            if node.name.local == "last" and not node.args:
                return True
            if node.decl is None and node.name.uri not in (_XS_NS, _XDT_NS) \
                    and fnlib.lookup(node.name, len(node.args)) is None:
                return True
        stack.extend(node.children())
        clauses = getattr(node, "clauses", None)
        if clauses:
            stack.extend(c.expr for c in clauses)
        cases = getattr(node, "cases", None)
        if cases:
            stack.extend(c.body for c in cases)
        default = getattr(node, "default", None)
        if default is not None and getattr(default, "body", None) is not None:
            stack.append(default.body)
        order = getattr(node, "order", None)
        if order:
            stack.extend(s.expr for s in order)
        group = getattr(node, "group", None)
        if group:
            stack.extend(key for _var, key in group)
    return False


# ---------------------------------------------------------------------------
# Focus reads (the inliner's question)
# ---------------------------------------------------------------------------

#: built-ins whose zero-argument form reads the focus (``name()`` is
#: ``name(.)``); ``doc``, ``collection`` and ``current-*`` are
#: context-sensitive through the dynamic context only
_FOCUS_BUILTINS = frozenset((
    "position", "last", "string", "string-length", "normalize-space",
    "number", "name", "local-name", "namespace-uri", "root", "base-uri"))


def reads_focus(expr: ast.Expr) -> bool:
    """Does evaluating ``expr`` read the focus it runs in?

    Exact where the ``uses_focus`` annotation over-approximates (it
    counts every context-sensitive built-in, whatever its arity): true
    for ``.``, ``/``, a relative step and a zero-argument focus
    built-in.  A path's right side and a filter's predicate read the
    focus the path or filter sets, and a kept user function call runs
    its body with none.  The inliner asks this of a function body.
    """
    if isinstance(expr, (ast.ContextItem, ast.RootExpr, ast.Step)):
        return True
    if isinstance(expr, ast.PathExpr):
        return reads_focus(expr.left)
    if isinstance(expr, ast.Filter):
        return reads_focus(expr.base)
    if isinstance(expr, ast.FunctionCall) and not expr.args \
            and expr.name.local in _FOCUS_BUILTINS \
            and fnlib.lookup(expr.name, 0) is not None:
        return True
    return any(reads_focus(child) for child in expr.children())


# ---------------------------------------------------------------------------
# Collection shardability (the scatter-gather eligibility walk)
# ---------------------------------------------------------------------------

#: aggregates with a partial-aggregate + combine path in the merge
#: operator (:mod:`repro.service.sharding`)
SHARDABLE_AGGREGATES = ("count", "sum", "exists")

#: functions whose appearance anywhere inside a *spine filter*
#: predicate makes the predicate positional (sequence-relative), hence
#: not per-document decomposable
_POSITIONAL_FNS = ("position", "last")


def _is_default_collection(expr: ast.Expr) -> bool:
    return (isinstance(expr, ast.FunctionCall) and not expr.args
            and expr.name.local == "collection"
            and expr.name.uri in ("", _FN_NS))


def _contains_collection(expr: ast.Expr) -> bool:
    return any(_is_default_collection(e) for e in expr.walk())


def collection_shard_plan(expr: ast.Expr):
    """Is this query *scan-distributive* over the default collection?

    Returns ``"scan"``, ``"count"``, ``"sum"``, or ``"exists"`` when
    evaluating the query per catalog document and combining per-shard
    results reproduces single-process execution byte-for-byte; ``None``
    means the scatter-gather router must fall back to one worker.

    The property proved is per-document independence: with the default
    collection bound to each single document in turn,

    - ``"scan"``: concatenating the per-document results in sorted-name
      document order equals the global result (paths group their output
      by tree, and a FLWOR without ``order by``/``group by``/positional
      variables emits tuples in binding order);
    - ``"count"``/``"sum"``: the global aggregate is the fold of the
      per-document partials (in document order — sum's type promotion
      walks left to right);
    - ``"exists"``: the global answer is the first non-empty partial,
      *in document order* — an error raised by an earlier document
      still wins over a later document's ``true`` (first error in
      document order), exactly like the single-process left-to-right
      evaluation.

    The walk is deliberately conservative: one ``collection()`` call,
    on a recognized spine (paths with per-step predicates, DDO,
    non-positional FLWOR/for bindings), every function a known
    deterministic builtin or constructor-cast, no sequence-positional
    filter over the spine, no ``order by``/``group by`` across the
    collection binding.
    """
    calls = sum(1 for e in expr.walk() if _is_default_collection(e))
    if calls != 1:
        return None
    # every function call must be a known deterministic builtin or an
    # xs:/xdt: constructor cast — unknown or non-deterministic calls
    # could observe which process they run in
    for e in expr.walk():
        if isinstance(e, ast.FunctionCall) and not _is_default_collection(e):
            if e.name.uri in (_XS_NS, _XDT_NS):
                continue
            builtin = fnlib.lookup(e.name, len(e.args))
            if builtin is None or not builtin.deterministic:
                return None
    root = expr
    if isinstance(root, ast.FunctionCall) and len(root.args) == 1 \
            and root.name.local in SHARDABLE_AGGREGATES \
            and root.name.uri in ("", _FN_NS):
        if _shard_spine(root.args[0]):
            return root.name.local
        return None
    if _shard_spine(root):
        return "scan"
    return None


def _shard_spine(expr: ast.Expr) -> bool:
    """The collection call reached through per-document-safe operators."""
    if _is_default_collection(expr):
        return True
    if isinstance(expr, ast.DDO):
        return _shard_spine(expr.operand)
    if isinstance(expr, ast.PathExpr):
        return _shard_spine(expr.left) and _shard_step(expr.right)
    if isinstance(expr, ast.Filter):
        # a filter over the whole spine sees the cross-document
        # sequence: only provably non-positional boolean predicates
        # decompose per document
        return _shard_spine(expr.base) \
            and _boolean_predicate(expr.predicate) \
            and not _contains_collection(expr.predicate)
    if isinstance(expr, ast.ForExpr):
        if not _contains_collection(expr.seq):
            return False
        return expr.pos_var is None and _shard_spine(expr.seq) \
            and not _contains_collection(expr.body)
    if isinstance(expr, ast.LetExpr):
        # let $x := collection()... binds the whole cross-document
        # sequence to one variable — give up (the body could index it)
        if _contains_collection(expr.value):
            return False
        return _shard_spine(expr.body)
    if isinstance(expr, ast.FLWOR):
        if expr.order or expr.group:
            return False
        binder = None
        for i, clause in enumerate(expr.clauses):
            if _contains_collection(clause.expr):
                binder = i
                break
        if binder is None:
            return False
        clause = expr.clauses[binder]
        if not isinstance(clause, ast.ForClause) or clause.pos_var is not None:
            return False
        if not _shard_spine(clause.expr):
            return False
        for j, other in enumerate(expr.clauses):
            if j == binder:
                continue
            if j < binder and not isinstance(other, ast.LetClause):
                # a preceding for-clause would cross-join the
                # collection against another sequence; per-document
                # evaluation would reorder the tuple stream
                return False
            if _contains_collection(other.expr):
                return False
        if expr.where is not None and _contains_collection(expr.where):
            return False
        return not _contains_collection(expr.ret)
    return False


def _shard_step(expr: ast.Expr) -> bool:
    """Right side of a spine path: a step, or a filter chain over one.

    Per-step predicates (including positional ones — ``item[2]`` after
    an axis step) evaluate against one context node at a time, so they
    are per-document safe by construction; every axis stays inside the
    context node's tree.
    """
    while isinstance(expr, ast.Filter):
        if _contains_collection(expr.predicate):
            return False
        expr = expr.base
    return isinstance(expr, ast.Step)


def _boolean_predicate(expr: ast.Expr) -> bool:
    """Provably boolean (never sequence-positional) filter predicate.

    A numeric predicate value selects by position in the *filtered
    sequence* — which spans documents on the spine — so anything that
    could evaluate to a number (literals, arithmetic, variables,
    value-returning functions) is rejected, as is any appearance of
    ``position()``/``last()``.
    """
    for e in expr.walk():
        if isinstance(e, ast.FunctionCall) and not e.args \
                and e.name.local in _POSITIONAL_FNS \
                and e.name.uri in ("", _FN_NS):
            return False
    if isinstance(expr, (ast.Comparison, ast.AndExpr, ast.OrExpr,
                         ast.Quantified, ast.InstanceOf,
                         ast.CastableExpr)):
        return True
    if isinstance(expr, ast.FunctionCall) and expr.name.uri in ("", _FN_NS) \
            and expr.name.local in ("not", "exists", "empty", "boolean",
                                    "contains", "starts-with", "ends-with",
                                    "true", "false"):
        return True
    if isinstance(expr, (ast.Step, ast.PathExpr, ast.DDO)):
        # node-sequence predicate: effective boolean value is
        # existence, not position
        return True
    return False


# ---------------------------------------------------------------------------
# Document prefetch
# ---------------------------------------------------------------------------


def walk_reachable(expr: ast.Expr) -> Iterator[ast.Expr]:
    """Pre-order walk of ``expr`` and, once each, of the body of every
    user function a kept call reaches (``FunctionCall.decl`` is not a
    child): every expression evaluating ``expr`` can run."""
    seen: set[int] = set()
    stack = [expr]
    while stack:
        for node in stack.pop().walk():
            yield node
            if isinstance(node, ast.FunctionCall) and node.decl is not None \
                    and id(node.decl) not in seen:
                seen.add(id(node.decl))
                stack.append(node.decl.body)


def literal_doc_uris(expr: ast.Expr) -> tuple[str, ...]:
    """The distinct string literals one-argument ``fn:doc`` calls name,
    in first-occurrence order: what a loader may fetch before
    evaluation reaches the calls."""
    uris: dict[str, None] = {}
    for e in walk_reachable(expr):
        if isinstance(e, ast.FunctionCall) and len(e.args) == 1 \
                and e.name.local == "doc" and e.name.uri in ("", _FN_NS) \
                and isinstance(e.args[0], ast.Literal) \
                and isinstance(e.args[0].value.value, str):
            uris[e.args[0].value.value] = None
    return tuple(uris)


# ---------------------------------------------------------------------------
# Variable usage
# ---------------------------------------------------------------------------


def count_var_uses(expr: ast.Expr, var: QName) -> tuple[int, bool]:
    """(number of syntactic uses of ``$var``, any use inside a loop?).

    Scoping is respected: a nested binding of the same name shadows.
    """
    return _count(expr, var, in_loop=False)


def _count(expr: ast.Expr, var: QName, in_loop: bool) -> tuple[int, bool]:
    if isinstance(expr, ast.VarRef):
        if expr.name == var:
            return 1, in_loop
        return 0, False

    total, looped = 0, False

    def add(sub: ast.Expr, loop: bool) -> None:
        nonlocal total, looped
        c, l = _count(sub, var, loop)
        total += c
        looped = looped or l

    if isinstance(expr, ast.ForExpr):
        add(expr.seq, in_loop)
        if expr.var != var and expr.pos_var != var:
            add(expr.body, True)
        return total, looped
    if isinstance(expr, ast.LetExpr):
        add(expr.value, in_loop)
        if expr.var != var:
            add(expr.body, in_loop)
        return total, looped
    if isinstance(expr, ast.Quantified):
        add(expr.seq, in_loop)
        if expr.var != var:
            add(expr.cond, True)
        return total, looped
    if isinstance(expr, ast.FLWOR):
        shadowed = False
        for clause in expr.clauses:
            add(clause.expr, in_loop or shadowed)
            if clause.var == var:
                shadowed = True
            if isinstance(clause, ast.ForClause) and clause.pos_var == var:
                shadowed = True
        if not shadowed:
            if expr.where is not None:
                add(expr.where, True)
            for _gvar, key in expr.group:
                add(key, True)
        # a group-by variable rebinds its name for order/return
        shadowed = shadowed or any(gvar == var for gvar, _ in expr.group)
        if not shadowed:
            for spec in expr.order:
                add(spec.expr, True)
            add(expr.ret, True)
        return total, looped
    if isinstance(expr, ast.Typeswitch):
        add(expr.operand, in_loop)
        for case in expr.cases:
            if case.var != var:
                add(case.body, in_loop)
        if expr.default.var != var:
            add(expr.default.body, in_loop)
        return total, looped
    if isinstance(expr, (ast.PathExpr,)):
        add(expr.left, in_loop)
        add(expr.right, True)  # right side runs once per left item
        return total, looped
    if isinstance(expr, ast.Filter):
        add(expr.base, in_loop)
        add(expr.predicate, True)
        return total, looped

    for child in expr.children():
        add(child, in_loop)
    return total, looped


def expr_equal(a: ast.Expr, b: ast.Expr) -> bool:
    """Structural equality of expressions ("*Same* expression?").

    Positions and annotations are ignored; names, operators, literals,
    and shape must match.  This is the first of the two questions the
    CSE slide asks (the second — *same context?* — is the caller's job:
    both occurrences must sit under the same bindings and focus).
    """
    if type(a) is not type(b):
        return False
    for field_name in _compare_fields(a):
        va, vb = getattr(a, field_name, None), getattr(b, field_name, None)
        if isinstance(va, ast.Expr):
            if not isinstance(vb, ast.Expr) or not expr_equal(va, vb):
                return False
        elif isinstance(va, (list, tuple)):
            if not isinstance(vb, (list, tuple)) or len(va) != len(vb):
                return False
            for xa, xb in zip(va, vb):
                if isinstance(xa, ast.Expr):
                    if not isinstance(xb, ast.Expr) or not expr_equal(xa, xb):
                        return False
                elif xa != xb:
                    return False
        elif va != vb:
            return False
    return True


def _compare_fields(expr: ast.Expr):
    """Every slot that contributes to an expression's identity."""
    seen = []
    for klass in type(expr).__mro__:
        for slot in getattr(klass, "__slots__", ()):
            if slot in ("pos", "annotations", "__weakref__"):
                continue
            seen.append(slot)
    return seen


def expr_fingerprint(expr: ast.Expr) -> str:
    """A cheap hashable key so CSE can bucket candidates before the
    exact :func:`expr_equal` comparison."""
    parts = [type(expr).__name__]
    for field_name in _compare_fields(expr):
        value = getattr(expr, field_name, None)
        if isinstance(value, ast.Expr):
            parts.append(expr_fingerprint(value))
        elif isinstance(value, (list, tuple)):
            parts.append(",".join(
                expr_fingerprint(v) if isinstance(v, ast.Expr) else str(v)
                for v in value))
        else:
            parts.append(str(value))
    return "(" + "|".join(parts) + ")"


def free_vars(expr: ast.Expr) -> set[QName]:
    """The free variables of ``expr`` (rewrite-contract checking)."""
    out: set[QName] = set()
    _free(expr, set(), out)
    return out


def _free(expr: ast.Expr, bound: set[QName], out: set[QName]) -> None:
    if isinstance(expr, ast.VarRef):
        if expr.name not in bound:
            out.add(expr.name)
        return
    if isinstance(expr, ast.ForExpr):
        _free(expr.seq, bound, out)
        inner = bound | {expr.var}
        if expr.pos_var is not None:
            inner = inner | {expr.pos_var}
        _free(expr.body, inner, out)
        return
    if isinstance(expr, ast.LetExpr):
        _free(expr.value, bound, out)
        _free(expr.body, bound | {expr.var}, out)
        return
    if isinstance(expr, ast.Quantified):
        _free(expr.seq, bound, out)
        _free(expr.cond, bound | {expr.var}, out)
        return
    if isinstance(expr, ast.FLWOR):
        inner = set(bound)
        for clause in expr.clauses:
            _free(clause.expr, inner, out)
            inner.add(clause.var)
            if isinstance(clause, ast.ForClause) and clause.pos_var is not None:
                inner.add(clause.pos_var)
        if expr.where is not None:
            _free(expr.where, inner, out)
        for _gvar, key in expr.group:
            _free(key, inner, out)
        inner |= {gvar for gvar, _ in expr.group}
        for spec in expr.order:
            _free(spec.expr, inner, out)
        _free(expr.ret, inner, out)
        return
    if isinstance(expr, ast.Typeswitch):
        _free(expr.operand, bound, out)
        for case in expr.cases:
            inner = bound | {case.var} if case.var is not None else bound
            _free(case.body, inner, out)
        inner = bound | {expr.default.var} if expr.default.var is not None else bound
        _free(expr.default.body, inner, out)
        return
    for child in expr.children():
        _free(child, bound, out)


# ---------------------------------------------------------------------------
# Pure operands (loop-invariant hoisting, join detection, index probes)
# ---------------------------------------------------------------------------

#: built-ins whose evaluation shows beyond its value: ``fn:trace``
#: counts ``trace:<label>``, a semantic counter
_COUNTING_BUILTINS = ("trace",)

#: what a pure path may be made of: navigation, and the scalar logic
#: its predicates compute with
_PATH_KINDS = (ast.Literal, ast.EmptySequence, ast.VarRef, ast.ContextItem,
               ast.RootExpr, ast.Step, ast.PathExpr, ast.DDO, ast.Filter,
               ast.Comparison, ast.AndExpr, ast.OrExpr, ast.Arithmetic,
               ast.UnaryExpr, ast.CastExpr, ast.CastableExpr, ast.InstanceOf,
               ast.SequenceExpr, ast.RangeExpr, ast.IfExpr)


def is_constructor_call(expr: ast.Expr) -> bool:
    """``xs:T(..)`` / ``xdt:T(..)``: a cast in function-call syntax."""
    return isinstance(expr, ast.FunctionCall) \
        and expr.name.uri in (_XS_NS, _XDT_NS)


def _quiet_builtin(expr: ast.Expr, focus_ok: bool) -> bool:
    builtin = fnlib.lookup(expr.name, len(expr.args))
    return builtin is not None and not builtin.creates_nodes \
        and (focus_ok or not builtin.context_sensitive) \
        and not (expr.name.uri == _FN_NS
                 and expr.name.local in _COUNTING_BUILTINS)


def pure_scalar(expr: ast.Expr) -> bool:
    """Is evaluating ``expr`` once instead of once per item observable
    only through how often it runs?

    True for literals, variables, and the arithmetic, casts, sequences
    and built-in calls over them, where a built-in may also aggregate a
    :func:`pure_path` (``avg($doc//price)``).  Such an operand reads no
    focus, makes no node and bumps no *semantic* counter
    (:mod:`repro.observability.counters`) — what it does count is
    diary.  The loop-invariant hoist, the hash lane's probe and the
    value-index probe of an access path all ask this.
    """
    if isinstance(expr, (ast.Literal, ast.EmptySequence, ast.VarRef)):
        return True
    if isinstance(expr, (ast.SequenceExpr, ast.Arithmetic, ast.UnaryExpr,
                         ast.CastExpr)) or is_constructor_call(expr):
        return all(pure_scalar(child) for child in expr.children())
    if isinstance(expr, ast.FunctionCall) and _quiet_builtin(expr, False):
        return all(pure_scalar(arg) or pure_path(arg) for arg in expr.args)
    return False


def pure_path(expr: ast.Expr) -> bool:
    """A focus-free navigation (``$doc//price``, ``$p/address/city``)
    made only of paths, filters, the scalar logic of their predicates
    and quiet built-ins: its value is the same wherever it runs with the
    same variables, and its evaluation counts only in the diaries (no
    access path, whose navigation fallback is a semantic counter)."""
    if expr.annotations.get("uses_focus", True):
        return False
    for node in expr.walk():
        if isinstance(node, ast.FunctionCall):
            if not (is_constructor_call(node) or _quiet_builtin(node, True)):
                return False
        elif not isinstance(node, _PATH_KINDS):
            return False
    return True
