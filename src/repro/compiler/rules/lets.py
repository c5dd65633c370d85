"""LET clause folding — with the tutorial's guards.

The naive FP rewrite ``let $x := E return B  ⇒  B[$x/E]`` is wrong in
XQuery when E creates nodes (substitution duplicates the construction:
``let $x := <a/> return ($x, $x)`` must yield the *same* node twice)
and when namespace scopes differ ("XML does not allow cut and paste").
Our normalizer resolves namespaces before rewriting (the tutorial's
fix #1), so the remaining guards are the sufficient conditions from
the "fixing the first problem" slide:

- E never generates new nodes in the result, **or**
- $x is used (a) exactly once, (b) not inside a loop, and (c) not as
  input to a recursive function (our recursive calls are opaque
  FunctionCalls, which count as loops here).

Dead-LET elimination drops unused bindings.  Because evaluation is
lazy, an unused binding's errors were never observable anyway, so the
rewrite preserves semantics ("guaranteed only if runtime implements
consistently lazy evaluation" — ours does).
"""

from __future__ import annotations

from repro.compiler.analysis import count_var_uses, free_vars
from repro.qname import QName
from repro.xquery import ast


def _substitute(expr: ast.Expr, var: QName, replacement: ast.Expr) -> ast.Expr:
    """B[$var/replacement], respecting shadowing."""
    if isinstance(expr, ast.VarRef):
        return replacement if expr.name == var else expr
    if isinstance(expr, ast.LetExpr) and expr.var == var:
        value = _substitute(expr.value, var, replacement)
        if value is expr.value:
            return expr
        return ast.LetExpr(expr.var, value, expr.body, expr.pos)
    if isinstance(expr, ast.ForExpr) and (expr.var == var or expr.pos_var == var):
        seq = _substitute(expr.seq, var, replacement)
        if seq is expr.seq:
            return expr
        return ast.ForExpr(expr.var, seq, expr.body, expr.pos_var, expr.pos)
    if isinstance(expr, ast.Quantified) and expr.var == var:
        seq = _substitute(expr.seq, var, replacement)
        if seq is expr.seq:
            return expr
        return ast.Quantified(expr.kind, expr.var, seq, expr.cond, expr.pos)
    return expr.with_children(lambda e: _substitute(e, var, replacement))


_TRIVIAL = (ast.Literal, ast.VarRef, ast.EmptySequence, ast.ContextItem)


def _binders(expr: ast.Expr) -> set[QName]:
    """Every variable name bound anywhere inside ``expr``."""
    out: set[QName] = set()
    for node in expr.walk():
        if isinstance(node, (ast.ForExpr, ast.LetExpr, ast.Quantified)):
            out.add(node.var)
            if getattr(node, "pos_var", None) is not None:
                out.add(node.pos_var)
        elif isinstance(node, ast.FLWOR):
            for clause in node.clauses:
                out.add(clause.var)
                if isinstance(clause, ast.ForClause) and clause.pos_var:
                    out.add(clause.pos_var)
            out.update(var for var, _key in node.group)
        elif isinstance(node, ast.Typeswitch):
            out.update(case.var for case in [*node.cases, node.default]
                       if case.var is not None)
    return out


def let_folding(expr: ast.Expr, ctx) -> ast.Expr | None:
    if not isinstance(expr, ast.LetExpr):
        return None
    value = expr.value
    uses, in_loop = count_var_uses(expr.body, expr.var)
    if uses == 0:
        return None  # dead-let rule handles it

    creates_nodes = value.annotations.get("creates_nodes", True)
    # substituting a literal/variable is always safe and always a win; a
    # single non-looped use of a non-constructing value inlines too.
    # (Multiple uses would lose the buffer-iterator sharing; a loop
    # would re-evaluate per iteration.)
    if not isinstance(value, _TRIVIAL) and \
            (creates_nodes or uses != 1 or in_loop):
        return None
    # ... unless the body rebinds a variable the value reads: the
    # substituted reference would be captured
    reads = free_vars(value)
    if reads and reads & _binders(expr.body):
        return None
    return _substitute(expr.body, expr.var, value)


def dead_let_elimination(expr: ast.Expr, ctx) -> ast.Expr | None:
    if not isinstance(expr, ast.LetExpr):
        return None
    uses, _ = count_var_uses(expr.body, expr.var)
    if uses == 0:
        # lazy evaluation: an unconsumed binding never runs, so dropping
        # it cannot change observable behaviour (even its errors)
        return expr.body
    return None


# ---------------------------------------------------------------------------
# Common sub-expression factorization
# ---------------------------------------------------------------------------

_cse_counter = 0

#: expression kinds worth a binding
_CSE_KINDS = (ast.PathExpr, ast.DDO, ast.FunctionCall)


def common_subexpression(expr: ast.Expr, ctx) -> ast.Expr | None:
    """Factor repeated identical subexpressions into one LET.

    The tutorial's two preliminary questions — *same expression?* and
    *same context?* — are answered by structural equality plus two
    conservative context guards: a candidate must not read the focus
    (different occurrences may sit under different focus bindings) and
    must not reference any variable bound between this node and the
    occurrence.  Side-effecting (node-creating) candidates are excluded
    because factoring would merge distinct fresh identities; erroring
    candidates are fine, because lazy evaluation means the shared
    binding raises exactly when (and if) a consumer demands it — the
    tutorial's ``1 idiv 0`` example.
    """
    global _cse_counter
    # apply at binding introduction points to keep sweeps cheap
    if not isinstance(expr, (ast.LetExpr, ast.ForExpr, ast.IfExpr,
                             ast.SequenceExpr, ast.ElementCtor)):
        return None

    from repro.compiler.analysis import expr_fingerprint

    buckets: dict[str, list[ast.Expr]] = {}

    def collect(node: ast.Expr, blocked: frozenset[QName]) -> None:
        if isinstance(node, _CSE_KINDS):
            ann = node.annotations
            if not ann.get("creates_nodes", True) and not ann.get("uses_focus", True):
                from repro.compiler.analysis import free_vars

                if not (free_vars(node) & blocked):
                    buckets.setdefault(expr_fingerprint(node), []).append(node)
                    # keep descending: the shared expression may be a
                    # fragment nested inside two different outer calls
        if isinstance(node, ast.LetExpr):
            collect(node.value, blocked)
            collect(node.body, blocked | {node.var})
            return
        if isinstance(node, ast.ForExpr):
            collect(node.seq, blocked)
            extra = {node.var} | ({node.pos_var} if node.pos_var else set())
            collect(node.body, blocked | extra)
            return
        if isinstance(node, ast.Quantified):
            collect(node.seq, blocked)
            collect(node.cond, blocked | {node.var})
            return
        if isinstance(node, ast.FLWOR):
            inner_blocked = set(blocked)
            for clause in node.clauses:
                collect(clause.expr, frozenset(inner_blocked))
                inner_blocked.add(clause.var)
                if isinstance(clause, ast.ForClause) and clause.pos_var is not None:
                    inner_blocked.add(clause.pos_var)
            frozen = frozenset(inner_blocked)
            if node.where is not None:
                collect(node.where, frozen)
            for _gvar, key in node.group:
                collect(key, frozen)
            inner_blocked |= {gvar for gvar, _ in node.group}
            frozen = frozenset(inner_blocked)
            for spec in node.order:
                collect(spec.expr, frozen)
            collect(node.ret, frozen)
            return
        if isinstance(node, ast.Typeswitch):
            collect(node.operand, blocked)
            for case in list(node.cases) + [node.default]:
                extra = {case.var} if case.var is not None else set()
                collect(case.body, blocked | extra)
            return
        for child in node.children():
            collect(child, blocked)

    collect(expr, frozenset())

    for occurrences in buckets.values():
        if len(occurrences) < 2:
            continue
        from repro.compiler.analysis import expr_equal

        first = occurrences[0]
        matches = [o for o in occurrences if expr_equal(o, first)]
        if len(matches) < 2:
            continue
        _cse_counter += 1
        var = QName("", f"#cse{_cse_counter}")
        match_ids = {id(m) for m in matches}

        def replace(node: ast.Expr) -> ast.Expr:
            if id(node) in match_ids:
                return ast.VarRef(var, node.pos)
            return node.with_children(replace)

        return ast.LetExpr(var, first, replace(expr), expr.pos)
    return None
