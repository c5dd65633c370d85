"""Normalization: the sugared expression tree → the core tree.

What happens here (the paper's step 2):

- **FLWOR lowering** — an order-by-free FLWOR becomes nested
  ``ForExpr`` / ``LetExpr`` / ``IfExpr`` (the equivalence shown on the
  "FLWR expression semantics" slide); ordered FLWORs keep their
  ``FLWOR`` node (clause bodies still normalized) and evaluate by
  tuple materialization.
- **DDO insertion** — every ``PathExpr`` gets an explicit
  distinct-doc-order wrapper, making the expensive operation visible
  to the optimizer so it can be *elided* (E5) instead of implicit and
  unavoidable.
- **Function inlining** — non-recursive user functions are inlined as
  nested LETs over fresh parameter names, with
  :class:`~repro.xquery.ast.ParamConvert` wrappers preserving the
  implicit conversions.  A body's free variables are the prolog's,
  inlined or not: a prolog variable read from a function body is read
  through an alias no caller binding can shadow.  Recursive calls,
  calls past the inlining depth and bodies that read the focus (which
  is undefined in a function body) stay calls, to a normalized
  declaration closed over the prolog variables it reads.
- **Scope checking** — undeclared variables are static errors here
  (err:XPST0008), not at run time.
"""

from __future__ import annotations

from repro.compiler.analysis import analyze, free_vars, reads_focus
from repro.compiler.context import StaticContext
from repro.errors import UndefinedNameError
from repro.qname import QName
from repro.xquery import ast

#: a scope maps each visible variable to the name its references take —
#: itself, a fresh parameter name, or None: a prolog variable read from
#: a function body, referenced through its alias (:meth:`Normalizer._alias`)
Scope = dict[QName, "QName | None"]


def build_static_context(module: ast.Module,
                         base: StaticContext | None = None) -> StaticContext:
    """Populate a static context from a module's prolog."""
    ctx = base.copy() if base is not None else StaticContext()
    for prefix, uri in module.prolog.namespaces.items():
        ctx.namespaces.bind(prefix, uri)
    ctx.default_element_ns = module.prolog.default_element_ns or ctx.default_element_ns
    if module.prolog.default_function_ns is not None:
        ctx.default_function_ns = module.prolog.default_function_ns
    for decl in module.prolog.functions:
        ctx.declare_function(decl)
    for var in module.prolog.variables:
        ctx.declare_variable(var.name, var.type_decl)
    return ctx


class Normalizer:
    """One normalization pass over a module."""

    #: inlining depth cap — recursive/mutually recursive functions stop here
    MAX_INLINE_DEPTH = 8

    def __init__(self, ctx: StaticContext):
        self.ctx = ctx
        self._gensym = 0
        #: global (prolog / application) variable names, visible inside
        #: function bodies
        self.global_vars: set[QName] = set(ctx.variables)
        #: global → the name function bodies read it by
        self.aliases: dict[QName, QName] = {}
        #: (name, arity) → the normalized declaration of a function kept
        #: as a call
        self._kept_decls: dict[tuple[QName, int], ast.FunctionDecl] = {}
        #: (name, arity) → the globals the body reads, directly or
        #: through the functions it calls (computed on first use)
        self._reads: dict[tuple[QName, int], set[QName]] | None = None

    def fresh_var(self, hint: str = "v") -> QName:
        # the "_" keeps fresh names apart from lifted literals ($#l3)
        self._gensym += 1
        return QName("", f"#{hint}_{self._gensym}")

    # -- entry points ------------------------------------------------------------

    def normalize_module(self, module: ast.Module,
                         extra_vars: tuple[QName, ...] = ()) -> ast.Expr:
        names = {v.name for v in module.prolog.variables} | set(extra_vars)
        self.global_vars |= names
        scope: Scope = {name: name for name in names}
        body = self.normalize(module.body, scope, inline_stack=())
        values = {}
        for var in reversed(module.prolog.variables):
            if var.value is not None:
                inner = {k: v for k, v in scope.items() if k != var.name}
                values[var.name] = self.normalize(var.value, inner, ())
        # global variable initializers become outer LETs around the body,
        # each followed by its alias (if a function body reads it); the
        # aliases of variables bound by the application go outermost
        for var in reversed(module.prolog.variables):
            if var.name in values:
                body = self._bind_alias(var.name, body)
                body = ast.LetExpr(var.name, values[var.name], body,
                                   getattr(var.value, "pos", (0, 0)))
        for name in list(self.aliases):
            if name not in values:
                body = self._bind_alias(name, body)
        return body

    def _bind_alias(self, name: QName, body: ast.Expr) -> ast.Expr:
        alias = self.aliases.get(name)
        if alias is None:
            return body
        return ast.LetExpr(alias, ast.VarRef(name), body)

    def _alias(self, name: QName) -> QName:
        """The name function bodies read global ``$name`` by: bound once,
        at the top of the query, where no caller's binding of ``$name``
        can capture it."""
        alias = self.aliases.get(name)
        if alias is None:
            alias = self.aliases[name] = self.fresh_var(name.local)
        return alias

    # -- dispatch ----------------------------------------------------------------

    def normalize(self, expr: ast.Expr, scope: Scope,
                  inline_stack: tuple[QName, ...]) -> ast.Expr:
        method = getattr(self, f"_n_{type(expr).__name__}", None)
        if method is not None:
            return method(expr, scope, inline_stack)
        # generic: normalize children
        return expr.with_children(lambda e: self.normalize(e, scope, inline_stack))

    # -- variables ----------------------------------------------------------------

    def _n_VarRef(self, expr: ast.VarRef, scope, inline_stack):
        if expr.name not in scope:
            raise UndefinedNameError(f"undeclared variable ${expr.name}")
        name = scope[expr.name]
        if name is None:
            name = self._alias(expr.name)
        return expr if name == expr.name else ast.VarRef(name, expr.pos)

    # -- FLWOR lowering --------------------------------------------------------

    def _n_FLWOR(self, expr: ast.FLWOR, scope, inline_stack):
        inner_scope = dict(scope)
        clauses: list[ast.ForClause | ast.LetClause] = []
        for clause in expr.clauses:
            seq = self.normalize(clause.expr, inner_scope, inline_stack)
            if isinstance(clause, ast.ForClause):
                clauses.append(ast.ForClause(clause.var, seq, clause.pos_var,
                                             clause.type_decl))
                inner_scope[clause.var] = clause.var
                if clause.pos_var is not None:
                    inner_scope[clause.pos_var] = clause.pos_var
            else:
                clauses.append(ast.LetClause(clause.var, seq, clause.type_decl))
                inner_scope[clause.var] = clause.var
        where = (self.normalize(expr.where, inner_scope, inline_stack)
                 if expr.where is not None else None)

        group = [(var, self.normalize(key, inner_scope, inline_stack))
                 for var, key in expr.group]
        post_scope = dict(inner_scope)
        for var, _key in group:
            post_scope[var] = var

        ret = self.normalize(expr.ret, post_scope, inline_stack)

        if expr.order or group:
            order = [ast.OrderSpec(self.normalize(s.expr, post_scope, inline_stack),
                                   s.descending, s.empty_least)
                     for s in expr.order]
            return ast.FLWOR(clauses, where, order, ret, expr.stable, expr.pos,
                             group)

        # lower to core: innermost first
        body = ret
        if where is not None:
            body = ast.IfExpr(where, body, ast.EmptySequence(expr.pos), expr.pos)
        for clause in reversed(clauses):
            if isinstance(clause, ast.ForClause):
                body = ast.ForExpr(clause.var, clause.expr, body,
                                   clause.pos_var, expr.pos)
            else:
                body = ast.LetExpr(clause.var, clause.expr, body, expr.pos)
        return body

    def _n_ForExpr(self, expr: ast.ForExpr, scope, inline_stack):
        seq = self.normalize(expr.seq, scope, inline_stack)
        inner = dict(scope)
        inner[expr.var] = expr.var
        if expr.pos_var is not None:
            inner[expr.pos_var] = expr.pos_var
        body = self.normalize(expr.body, inner, inline_stack)
        if seq is expr.seq and body is expr.body:
            return expr
        return ast.ForExpr(expr.var, seq, body, expr.pos_var, expr.pos)

    def _n_LetExpr(self, expr: ast.LetExpr, scope, inline_stack):
        value = self.normalize(expr.value, scope, inline_stack)
        inner = dict(scope)
        inner[expr.var] = expr.var
        body = self.normalize(expr.body, inner, inline_stack)
        if value is expr.value and body is expr.body:
            return expr
        return ast.LetExpr(expr.var, value, body, expr.pos)

    def _n_Quantified(self, expr: ast.Quantified, scope, inline_stack):
        seq = self.normalize(expr.seq, scope, inline_stack)
        inner = dict(scope)
        inner[expr.var] = expr.var
        cond = self.normalize(expr.cond, inner, inline_stack)
        if seq is expr.seq and cond is expr.cond:
            return expr
        return ast.Quantified(expr.kind, expr.var, seq, cond, expr.pos)

    def _n_Typeswitch(self, expr: ast.Typeswitch, scope, inline_stack):
        operand = self.normalize(expr.operand, scope, inline_stack)
        cases = []
        for case in expr.cases:
            inner = dict(scope)
            if case.var is not None:
                inner[case.var] = case.var
            cases.append(ast.TypeswitchCase(
                case.var, case.seq_type,
                self.normalize(case.body, inner, inline_stack)))
        inner = dict(scope)
        if expr.default.var is not None:
            inner[expr.default.var] = expr.default.var
        default = ast.TypeswitchCase(
            expr.default.var, None,
            self.normalize(expr.default.body, inner, inline_stack))
        return ast.Typeswitch(operand, cases, default, expr.pos)

    # -- paths -------------------------------------------------------------------

    def _n_PathExpr(self, expr: ast.PathExpr, scope, inline_stack):
        left = self.normalize(expr.left, scope, inline_stack)
        right = self.normalize(expr.right, scope, inline_stack)
        return ast.DDO(ast.PathExpr(left, right, expr.pos), expr.pos)

    # -- function calls: inline user functions --------------------------------

    def _n_FunctionCall(self, expr: ast.FunctionCall, scope, inline_stack):
        args = [self.normalize(a, scope, inline_stack) for a in expr.args]
        decl = self.ctx.lookup_function(expr.name, len(args))
        if decl is None or decl.external or decl.body is None:
            return ast.FunctionCall(expr.name, args, expr.pos)

        # recursion (direct or mutual) or inline depth exceeded: keep the call
        if expr.name not in inline_stack \
                and len(inline_stack) < self.MAX_INLINE_DEPTH:
            inlined = self._inline(decl, args, inline_stack + (expr.name,),
                                   expr.pos)
            if inlined is not None:
                return inlined
        kept = self._kept(decl)
        hidden = [ast.VarRef(alias, expr.pos)
                  for alias, _type in kept.params[len(args):]]
        return ast.FunctionCall(expr.name, args + hidden, expr.pos, kept)

    def _body(self, decl: ast.FunctionDecl, params: list,
              inline_stack: tuple[QName, ...]) -> ast.Expr:
        """``decl``'s body, its parameters renamed to ``params``' names
        and every global read through its alias."""
        scope: Scope = dict.fromkeys(self.global_vars)
        for (name, _type), (fresh, _) in zip(decl.params, params):
            scope[name] = fresh
        return self.normalize(decl.body, scope, inline_stack)

    def _inline(self, decl: ast.FunctionDecl, args: list,
                inline_stack: tuple[QName, ...], pos) -> ast.Expr | None:
        """``let $p := convert(arg) return convert_return(body)`` over
        fresh parameter names (an argument reading a variable named
        like a parameter is not captured); None for a body that reads
        the focus, which must raise instead of seeing the caller's."""
        params = [(self.fresh_var(name.local), ptype)
                  for name, ptype in decl.params]
        body = self._body(decl, params, inline_stack)
        if reads_focus(body):
            return None
        if decl.return_type is not None:
            body = ast.ParamConvert(body, decl.return_type, "return", pos)
        for (pname, ptype), arg in zip(reversed(params), reversed(args)):
            if ptype is not None:
                arg = ast.ParamConvert(arg, ptype, "argument", pos)
            body = ast.LetExpr(pname, arg, body, pos)
        return body

    def _kept(self, decl: ast.FunctionDecl) -> ast.FunctionDecl:
        """The normalized declaration behind every kept call of
        ``decl``: fresh parameter names, then one untyped parameter per
        global the body reads (named by its alias), so the body's only
        free variables are its parameters."""
        key = (decl.name, decl.arity)
        kept = self._kept_decls.get(key)
        if kept is None:
            params = [(self.fresh_var(name.local), ptype)
                      for name, ptype in decl.params]
            params += [(self._alias(name), None)
                       for name in sorted(self._global_reads(key), key=str)]
            kept = ast.FunctionDecl(decl.name, params, decl.return_type, None)
            self._kept_decls[key] = kept  # reserved: the body's calls find it
            kept.body = analyze(self._body(decl, params, (decl.name,)),
                                self.ctx)
        return kept

    def _global_reads(self, key: tuple[QName, int]) -> set[QName]:
        """The globals function ``key``'s body reads, directly or through
        any user function it calls (a fixpoint over the call graph)."""
        if self._reads is None:
            functions = {k: d for k, d in self.ctx.functions.items()
                         if d.body is not None and not d.external}
            reads = {k: (free_vars(d.body) - {p for p, _ in d.params})
                     & self.global_vars for k, d in functions.items()}
            calls = {k: {(e.name, len(e.args)) for e in d.body.walk()
                         if isinstance(e, ast.FunctionCall)} & functions.keys()
                     for k, d in functions.items()}
            changed = True
            while changed:
                changed = False
                for k, callees in calls.items():
                    for callee in callees:
                        if not reads[callee] <= reads[k]:
                            reads[k] |= reads[callee]
                            changed = True
            self._reads = reads
        return self._reads[key]


def normalize_module(module: ast.Module,
                     ctx: StaticContext | None = None,
                     extra_vars: tuple[QName, ...] = ()) -> tuple[ast.Expr, StaticContext]:
    """Normalize a parsed module; returns (core expression, static context).

    ``extra_vars`` are application-bound variables usable without a
    prolog declaration (a convenience the W3C spec does not grant, but
    every embedded engine does).
    """
    static_ctx = build_static_context(module, ctx)
    for name in extra_vars:
        static_ctx.declare_variable(name)
    normalizer = Normalizer(static_ctx)
    body = normalizer.normalize_module(module, extra_vars)
    return body, static_ctx
