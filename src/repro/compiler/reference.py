"""The closure interpreter: the differential oracle of the source backend.

A *plan* is a closure ``plan(dctx) -> Iterator[item]``.  Generators
give us the pull-based, lazy iterator model of the paper for free:
nothing below a plan runs until a consumer pulls, so top-N,
existential quantification, positional predicates, and even
non-terminating recursive functions behave ("the result of this
program should be: true").

Structure-wise this module is one compiler class with a ``_c_<Node>``
method per core expression kind; the returned closures form the
executable operator tree (the paper's "annotated expression tree →
TokenIterator" step, at item granularity).

Queries run on :mod:`repro.compiler.pysource`; this module is what
that emitter is held to.  :class:`ReferenceEngine` is the engine that
runs it, for the differential suites and benchmarks — no product path
imports this module.  Operators whose work is more than a line or two
share one kernel with the emitter (:mod:`repro.runtime.kernels`).
"""

from __future__ import annotations

from typing import Any, Callable, Iterator

from repro.compiler.context import StaticContext
from repro.compiler.planner import plan_access_paths
from repro.compiler.sequencetype import (
    SequenceType,
    resolve_atomic,
    resolve_sequence_type,
)
from repro.engine import Engine
from repro.errors import DynamicError, StaticError, TypeError_, UndefinedNameError
from repro.qname import QName, XS_NS, XDT_NS
from repro.runtime import functions as fnlib
from repro.runtime.arithmetic import arithmetic, negate, unary_plus
from repro.runtime.compare import (
    general_compare,
    node_compare,
    order_compare,
    value_compare,
)
from repro.runtime.constructors import (
    construct_attribute_from_parts,
    construct_comment,
    construct_document,
    construct_element,
    construct_pi,
    construct_text,
)
from repro.runtime.dynamic import DynamicContext
from repro.runtime.ebv import effective_boolean_value
from repro.runtime.iterators import BufferedSequence
from repro.runtime.kernels import (
    OrderKey,
    access_path_candidates,
    all_nodes,
    castable,
    computed_name,
    function_convert,
    group_key,
    group_rows,
    indexed_value,
    opt_integer,
    opt_single_node,
    order_key_value,
    twig_nodes,
    validate_node,
)
from repro.runtime.paths import step_iterator
from repro.xdm.atomize import atomize
from repro.xdm.items import AtomicValue, boolean, integer
from repro.xdm.nodes import AttributeNode, Node
from repro.xdm.order import in_document_order
from repro.xquery import ast
from repro.xsd import types as T
from repro.xsd.casting import cast_value

Plan = Callable[[DynamicContext], Iterator[Any]]


class ReferenceEngine(Engine):
    """An :class:`~repro.engine.Engine` whose plans run on the closure
    interpreter: the oracle the differential suites hold the product to.

    Only the emit step differs — parse, literal lifting, normalize,
    rewrite, plan and EXPLAIN are the engine's own — so one suite drives
    both through the same ``compile``/``execute``/``explain`` calls.
    Every operator of its plans carries a profiler hook, which makes
    ``ReferenceEngine().explain(q, analyze=True)`` the per-operator
    timing diagnostic.  No cache key names the executor, so its plans
    live in a compile cache of its own: ``compile_cache=`` is refused.
    """

    def __init__(self, base_context: StaticContext | None = None, *,
                 catalog=None, options=None):
        super().__init__(base_context, catalog=catalog, options=options)

    def _emit(self, optimized: ast.Expr, static_ctx: StaticContext):
        generator = CodeGenerator(static_ctx, catalog=self.catalog)
        return generator.compile(optimized), generator.plan_tree, None


def forced_twig(engine_cls: type[Engine], strategy: str) -> type[Engine]:
    """``engine_cls`` (:class:`Engine` or :class:`ReferenceEngine`) with
    every twig pattern planned by ``strategy`` — ``"auto"``,
    ``"holistic"``, ``"binary"``, ``"navigation"`` or ``"mixed"`` —
    instead of the cost model's pick: the reference the twig
    differentials hold ``auto`` to.  No cache key names the strategy,
    so ``compile_cache=`` is refused, as by :class:`ReferenceEngine`."""

    class ForcedTwig(engine_cls):
        def __init__(self, base_context: StaticContext | None = None, *,
                     catalog=None, options=None):
            super().__init__(base_context, catalog=catalog, options=options)

        def _plan(self, optimized: ast.Expr, static_ctx: StaticContext):
            return plan_access_paths(optimized, static_ctx, self.catalog,
                                     twig_strategy=strategy)

    return ForcedTwig


class CodeGenerator:
    """Compiles core expressions against a static context.

    Every operator is emitted behind a guarded observability hook and
    registered in a :class:`~repro.observability.explain.PlanNode` tree
    (:attr:`plan_tree`).  The hook costs one attribute load and an
    ``is None`` branch per operator *invocation* when no profiler is
    attached — never a per-item cost.
    """

    def __init__(self, static_ctx: StaticContext, catalog=None):
        self.ctx = static_ctx
        #: document catalog (``repro.catalog``): AccessPath operators
        #: resolve their posting lists through it at runtime
        self.catalog = catalog
        #: compiled user function bodies, keyed by their normalized
        #: declaration — fills lazily so recursive functions terminate
        #: compilation
        self._function_plans: dict[ast.FunctionDecl, Plan] = {}
        #: root of the PlanNode tree
        self.plan_tree = None
        self._node_stack: list = []
        self._op_counter = 0

    # -- dispatch ---------------------------------------------------------------

    def compile(self, expr: ast.Expr) -> Plan:
        method = getattr(self, f"_c_{type(expr).__name__}", None)
        if method is None:
            raise StaticError(f"no code generation for {type(expr).__name__}")

        from repro.observability.explain import PlanNode

        node = PlanNode.for_expr(self._op_counter, expr)
        self._op_counter += 1
        if self._node_stack:
            self._node_stack[-1].children.append(node)
        elif self.plan_tree is None:
            self.plan_tree = node
        self._node_stack.append(node)
        try:
            plan = method(expr)
        finally:
            self._node_stack.pop()

        op_id = node.id

        def hooked(dctx, _plan=plan, _op=op_id):
            profiler = dctx._shared.profiler
            if profiler is None:
                return _plan(dctx)
            return profiler.run_operator(_op, _plan, dctx)

        return hooked

    # -- primaries ---------------------------------------------------------------

    def _c_Literal(self, expr: ast.Literal) -> Plan:
        value = expr.value

        def plan(dctx):
            yield value
        return plan

    def _c_EmptySequence(self, expr) -> Plan:
        def plan(dctx):
            return iter(())
        return plan

    def _c_VarRef(self, expr: ast.VarRef) -> Plan:
        name = expr.name

        def plan(dctx):
            value = dctx.variable(name)
            if isinstance(value, (list, tuple, BufferedSequence)):
                yield from value
            else:
                yield value
        return plan

    def _c_ContextItem(self, expr) -> Plan:
        def plan(dctx):
            yield dctx.context_item()
        return plan

    def _c_SequenceExpr(self, expr: ast.SequenceExpr) -> Plan:
        plans = [self.compile(item) for item in expr.items]

        def plan(dctx):
            for sub in plans:
                yield from sub(dctx)
        return plan

    def _c_RangeExpr(self, expr: ast.RangeExpr) -> Plan:
        low_plan = self.compile(expr.low)
        high_plan = self.compile(expr.high)

        def plan(dctx):
            low = opt_integer(low_plan(dctx), "range start")
            high = opt_integer(high_plan(dctx), "range end")
            if low is None or high is None:
                return
            for i in range(low, high + 1):
                yield integer(i)
        return plan

    # -- binding forms ---------------------------------------------------------

    def _c_LetExpr(self, expr: ast.LetExpr) -> Plan:
        value_plan = self.compile(expr.value)
        body_plan = self.compile(expr.body)
        var = expr.var

        def plan(dctx):
            # lazy binding: the paper's buffer-iterator-factory pattern —
            # the value is pulled at most once no matter how often $var is used
            binding = BufferedSequence(value_plan(dctx),
                                       cancellation=dctx._shared.cancellation)
            yield from body_plan(dctx.bind(var, binding))
        return plan

    def _c_ForExpr(self, expr: ast.ForExpr) -> Plan:
        seq_plan = self.compile(expr.seq)
        body_plan = self.compile(expr.body)
        var, pos_var = expr.var, expr.pos_var

        if pos_var is None:
            def plan(dctx):
                token = dctx._shared.cancellation
                for item in seq_plan(dctx):
                    if token is not None:
                        token.check()
                    yield from body_plan(dctx.bind(var, (item,)))
        else:
            def plan(dctx):
                token = dctx._shared.cancellation
                for i, item in enumerate(seq_plan(dctx), start=1):
                    if token is not None:
                        token.check()
                    child = dctx.bind_many({var: (item,), pos_var: (integer(i),)})
                    yield from body_plan(child)
        return plan

    def _c_Quantified(self, expr: ast.Quantified) -> Plan:
        seq_plan = self.compile(expr.seq)
        cond_plan = self.compile(expr.cond)
        var = expr.var
        is_some = expr.kind == "some"

        def plan(dctx):
            for item in seq_plan(dctx):
                holds = effective_boolean_value(cond_plan(dctx.bind(var, (item,))))
                if holds and is_some:
                    yield boolean(True)
                    return
                if not holds and not is_some:
                    yield boolean(False)
                    return
            yield boolean(not is_some)
        return plan

    def _c_IfExpr(self, expr: ast.IfExpr) -> Plan:
        cond_plan = self.compile(expr.cond)
        then_plan = self.compile(expr.then)
        else_plan = self.compile(expr.orelse)

        def plan(dctx):
            if effective_boolean_value(cond_plan(dctx)):
                yield from then_plan(dctx)
            else:
                yield from else_plan(dctx)
        return plan

    def _c_Typeswitch(self, expr: ast.Typeswitch) -> Plan:
        operand_plan = self.compile(expr.operand)
        cases: list[tuple[QName | None, SequenceType, Plan]] = []
        for case in expr.cases:
            assert case.seq_type is not None
            cases.append((case.var,
                          resolve_sequence_type(case.seq_type, self.ctx),
                          self.compile(case.body)))
        default_var = expr.default.var
        default_plan = self.compile(expr.default.body)

        def plan(dctx):
            items = list(operand_plan(dctx))
            for var, seq_type, body in cases:
                if seq_type.matches(items):
                    child = dctx.bind(var, items) if var is not None else dctx
                    yield from body(child)
                    return
            child = dctx.bind(default_var, items) if default_var is not None else dctx
            yield from default_plan(child)
        return plan

    # -- FLWOR with order by -----------------------------------------------------

    def _c_FLWOR(self, expr: ast.FLWOR) -> Plan:
        clause_plans: list[tuple[str, QName, QName | None, Plan]] = []
        bound_vars: list[QName] = []
        for clause in expr.clauses:
            if isinstance(clause, ast.ForClause):
                clause_plans.append(("for", clause.var, clause.pos_var,
                                     self.compile(clause.expr)))
                bound_vars.append(clause.var)
                if clause.pos_var is not None:
                    bound_vars.append(clause.pos_var)
            else:
                clause_plans.append(("let", clause.var, None, self.compile(clause.expr)))
                bound_vars.append(clause.var)
        where_plan = self.compile(expr.where) if expr.where is not None else None
        group_specs = [(var, self.compile(key)) for var, key in expr.group]
        key_plans = [(self.compile(spec.expr), spec.descending, spec.empty_least)
                     for spec in expr.order]
        ret_plan = self.compile(expr.ret)

        def tuples(dctx, depth=0):
            """Generate the binding-tuple stream (one dctx per tuple)."""
            if depth == len(clause_plans):
                if where_plan is None or effective_boolean_value(where_plan(dctx)):
                    yield dctx
                return
            kind, var, pos_var, sub = clause_plans[depth]
            if kind == "let":
                bound = dctx.bind(var, BufferedSequence(
                    sub(dctx), cancellation=dctx._shared.cancellation))
                yield from tuples(bound, depth + 1)
            else:
                token = dctx._shared.cancellation
                for i, item in enumerate(sub(dctx), start=1):
                    if token is not None:
                        token.check()
                    bound = dctx.bind(var, (item,))
                    if pos_var is not None:
                        bound = bound.bind(pos_var, (integer(i),))
                    yield from tuples(bound, depth + 1)

        def regroup(rows: list) -> list:
            """The group-by extension: one tuple per distinct key, with
            every pre-grouping variable rebound to its grouped sequence."""
            keyed = [([group_key(list(atomize(key_plan(bound))))
                       for _gvar, key_plan in group_specs], bound)
                     for bound in rows]
            out = []
            for members, key_items in group_rows(keyed):
                bindings: dict[QName, Any] = {}
                for var in bound_vars:
                    merged: list[Any] = []
                    for member in members:
                        merged.extend(member.variables.get(var, ()))
                    bindings[var] = merged
                for (gvar, _plan), value in zip(group_specs, key_items):
                    bindings[gvar] = [value] if value is not None else []
                out.append(members[0].bind_many(bindings))
            return out

        def plan(dctx):
            rows = list(tuples(dctx))
            if group_specs:
                rows = regroup(rows)
            if key_plans:
                decorated: list[tuple[list, DynamicContext]] = []
                for bound in rows:
                    keys = []
                    for key_plan, _desc, _el in key_plans:
                        keys.append(order_key_value(
                            list(atomize(key_plan(bound)))))
                    decorated.append((keys, bound))
                decorated.sort(key=OrderKey.factory(key_plans))
                rows = [bound for _keys, bound in decorated]
            for bound in rows:
                yield from ret_plan(bound)
        return plan

    # -- type operators ----------------------------------------------------------

    def _c_InstanceOf(self, expr: ast.InstanceOf) -> Plan:
        operand_plan = self.compile(expr.operand)
        seq_type = resolve_sequence_type(expr.seq_type, self.ctx)

        def plan(dctx):
            yield boolean(seq_type.matches(list(operand_plan(dctx))))
        return plan

    def _c_TreatExpr(self, expr: ast.TreatExpr) -> Plan:
        operand_plan = self.compile(expr.operand)
        seq_type = resolve_sequence_type(expr.seq_type, self.ctx)

        def plan(dctx):
            items = list(operand_plan(dctx))
            if not seq_type.matches(items):
                raise TypeError_(f"treat as {seq_type}: value does not conform",
                                 code="XPDY0050")
            yield from items
        return plan

    def _c_CastExpr(self, expr: ast.CastExpr) -> Plan:
        operand_plan = self.compile(expr.operand)
        target = resolve_atomic(expr.type_name, self.ctx)
        optional = expr.optional

        def plan(dctx):
            values = list(atomize(operand_plan(dctx)))
            if not values:
                if optional:
                    return
                raise TypeError_(f"cast as {target}: empty operand", code="XPTY0004")
            if len(values) > 1:
                raise TypeError_("cast requires a single value", code="XPTY0004")
            value = values[0]
            yield AtomicValue(cast_value(value.value, value.type, target), target)
        return plan

    def _c_CastableExpr(self, expr: ast.CastableExpr) -> Plan:
        operand_plan = self.compile(expr.operand)
        target = resolve_atomic(expr.type_name, self.ctx)
        optional = expr.optional

        def plan(dctx):
            yield boolean(castable(list(atomize(operand_plan(dctx))),
                                    target, optional))
        return plan

    def _c_ParamConvert(self, expr: ast.ParamConvert) -> Plan:
        operand_plan = self.compile(expr.operand)
        seq_type = resolve_sequence_type(expr.seq_type, self.ctx)
        role = expr.role

        def plan(dctx):
            yield from function_convert(operand_plan(dctx), seq_type, role)
        return plan

    def _c_ValidateExpr(self, expr: ast.ValidateExpr) -> Plan:
        operand_plan = self.compile(expr.operand)
        schemas = self.ctx.schemas

        def plan(dctx):
            yield validate_node(list(operand_plan(dctx)), schemas)
        return plan

    # -- logic / comparison / arithmetic ---------------------------------------

    def _c_AndExpr(self, expr: ast.AndExpr) -> Plan:
        left_plan = self.compile(expr.left)
        right_plan = self.compile(expr.right)

        def plan(dctx):
            yield boolean(effective_boolean_value(left_plan(dctx))
                          and effective_boolean_value(right_plan(dctx)))
        return plan

    def _c_OrExpr(self, expr: ast.OrExpr) -> Plan:
        left_plan = self.compile(expr.left)
        right_plan = self.compile(expr.right)

        def plan(dctx):
            yield boolean(effective_boolean_value(left_plan(dctx))
                          or effective_boolean_value(right_plan(dctx)))
        return plan

    def _c_Comparison(self, expr: ast.Comparison) -> Plan:
        left_plan = self.compile(expr.left)
        right_plan = self.compile(expr.right)
        op, family = expr.op, expr.family

        if family == "general":
            def plan(dctx):
                yield boolean(general_compare(op, atomize(left_plan(dctx)),
                                              atomize(right_plan(dctx))))
            return plan

        if family == "value":
            def plan(dctx):
                a = _opt_atomic_value(left_plan(dctx))
                b = _opt_atomic_value(right_plan(dctx))
                if a is None or b is None:
                    return
                yield boolean(value_compare(op, a, b))
            return plan

        if family == "node":
            def plan(dctx):
                result = node_compare(op, opt_single_node(left_plan(dctx)),
                                      opt_single_node(right_plan(dctx)))
                if result is not None:
                    yield boolean(result)
            return plan

        def plan(dctx):
            result = order_compare(op, opt_single_node(left_plan(dctx)),
                                   opt_single_node(right_plan(dctx)))
            if result is not None:
                yield boolean(result)
        return plan

    def _c_Arithmetic(self, expr: ast.Arithmetic) -> Plan:
        left_plan = self.compile(expr.left)
        right_plan = self.compile(expr.right)
        op = expr.op

        def plan(dctx):
            a = _opt_atomic_value(left_plan(dctx))
            b = _opt_atomic_value(right_plan(dctx))
            result = arithmetic(op, a, b)
            if result is not None:
                yield result
        return plan

    def _c_UnaryExpr(self, expr: ast.UnaryExpr) -> Plan:
        operand_plan = self.compile(expr.operand)
        op = expr.op

        def plan(dctx):
            value = _opt_atomic_value(operand_plan(dctx))
            result = negate(value) if op == "-" else unary_plus(value)
            if result is not None:
                yield result
        return plan

    def _c_SetOp(self, expr: ast.SetOp) -> Plan:
        left_plan = self.compile(expr.left)
        right_plan = self.compile(expr.right)
        op = expr.op

        def plan(dctx):
            left_nodes = all_nodes(left_plan(dctx), op)
            right_nodes = all_nodes(right_plan(dctx), op)
            right_ids = {id(n) for n in right_nodes}
            if op == "union":
                result = left_nodes + right_nodes
            elif op == "intersect":
                result = [n for n in left_nodes if id(n) in right_ids]
            else:
                result = [n for n in left_nodes if id(n) not in right_ids]
            yield from in_document_order(result)
        return plan

    # -- paths ---------------------------------------------------------------------

    def _c_RootExpr(self, expr) -> Plan:
        def plan(dctx):
            item = dctx.context_item()
            if not isinstance(item, Node):
                raise TypeError_("'/' requires a node context item", code="XPDY0050")
            yield item.root()
        return plan

    def _c_Step(self, expr: ast.Step) -> Plan:
        axis, test = expr.axis, expr.test

        def plan(dctx):
            item = dctx.context_item()
            if not isinstance(item, Node):
                raise TypeError_(f"axis step {axis}:: on a non-node item",
                                 code="XPTY0020")
            yield from step_iterator(axis, test, item)
        return plan

    def _c_PathExpr(self, expr: ast.PathExpr) -> Plan:
        left_plan = self.compile(expr.left)
        right_plan = self.compile(expr.right)

        def plan(dctx):
            token = dctx._shared.cancellation
            left_seq = BufferedSequence(left_plan(dctx), cancellation=token)
            size = left_seq.length  # resolved lazily by fn:last()
            for i, item in enumerate(left_seq, start=1):
                if token is not None:
                    token.check()
                if not isinstance(item, Node):
                    raise TypeError_("path step applied to a non-node", code="XPTY0019")
                yield from right_plan(dctx.with_focus(item, i, size))
        return plan

    def _c_Filter(self, expr: ast.Filter) -> Plan:
        base_plan = self.compile(expr.base)
        predicate = expr.predicate

        # static shortcut: [N] with a literal integer uses positional skip
        if isinstance(predicate, ast.Literal) and predicate.value.type.derives_from(T.XS_INTEGER):
            index = int(predicate.value.value)

            def plan(dctx):
                if index < 1:
                    return
                for i, item in enumerate(base_plan(dctx), start=1):
                    if i == index:
                        yield item
                        return  # lazy: stop pulling the base
            return plan

        predicate_plan = self.compile(predicate)

        def plan(dctx):
            token = dctx._shared.cancellation
            base_seq = BufferedSequence(base_plan(dctx), cancellation=token)
            size = base_seq.length
            for i, item in enumerate(base_seq, start=1):
                if token is not None:
                    token.check()
                focus = dctx.with_focus(item, i, size)
                result = list(predicate_plan(focus))
                if result and all(isinstance(v, AtomicValue) and T.is_numeric(v.type)
                                  for v in result):
                    # positional filtering, incl. the 2003-draft sequence
                    # form the tutorial shows: author[1 to 2]
                    if any(float(v.value) == i for v in result):
                        yield item
                elif effective_boolean_value(iter(result)):
                    yield item
        return plan

    def _c_DDO(self, expr: ast.DDO) -> Plan:
        operand_plan = self.compile(expr.operand)

        def plan(dctx):
            items = list(operand_plan(dctx))
            if not items:
                return
            if all(isinstance(item, Node) for item in items):
                dctx.count("ddo_sorts")
                yield from in_document_order(items)
                return
            if any(isinstance(item, Node) for item in items):
                raise TypeError_("path result mixes nodes and atomic values",
                                 code="XPTY0018")
            yield from items
        return plan

    def _c_OrderedExpr(self, expr: ast.OrderedExpr) -> Plan:
        return self.compile(expr.operand)

    def _c_AccessPath(self, expr: ast.AccessPath) -> Plan:
        fallback_plan = self.compile(expr.fallback)
        predicate_plan = self.compile(expr.predicate) \
            if expr.predicate is not None else None
        probe_plan = self.compile(expr.pred[2]) \
            if expr.pred is not None else None
        catalog = self.catalog
        var = expr.var

        def plan(dctx):
            stored, doc = _indexed_binding(catalog, dctx, var)
            if stored is None:
                # the runtime binding is not the indexed document this
                # plan was costed for — degrade to navigation
                dctx.count("access_path.fallback_navigation")
                yield from fallback_plan(dctx)
                return
            token = dctx._shared.cancellation
            candidates = access_path_candidates(
                stored, doc, expr, lambda: probe_plan(dctx), dctx)
            if predicate_plan is not None:
                # re-verify every index candidate with the original
                # predicate: normalized value keys over-approximate
                # string equality, and numeric probes never consult
                # the value index at all
                verified = []
                size = len(candidates)
                for i, node in enumerate(candidates, start=1):
                    if token is not None:
                        token.check()
                    focus = dctx.with_focus(node, i, size)
                    if effective_boolean_value(predicate_plan(focus)):
                        verified.append(node)
                candidates = verified
            dctx.count("access_path.actual_rows", len(candidates))
            for node in candidates:
                if token is not None:
                    token.check()
                yield node
        return plan

    def _c_TwigJoin(self, expr: ast.TwigJoin) -> Plan:
        fallback_plan = self.compile(expr.fallback)
        catalog = self.catalog
        var = expr.var

        def plan(dctx):
            stored, _doc = _indexed_binding(catalog, dctx, var)
            if stored is None:
                # the runtime binding is not the indexed document this
                # plan was costed for — degrade to navigation
                dctx.count("twig.fallback_navigation")
                yield from fallback_plan(dctx)
                return
            token = dctx._shared.cancellation
            for node in twig_nodes(stored, expr, dctx):
                if token is not None:
                    token.check()
                yield node
        return plan

    # -- constructors -----------------------------------------------------------

    def _c_ElementCtor(self, expr: ast.ElementCtor) -> Plan:
        attr_plans = [self.compile(a) for a in expr.attributes]
        content_plans = [self.compile(c) for c in expr.content]
        ns_decls = expr.ns_decls
        static_name = expr.name
        name_plan = self.compile(expr.name_expr) if expr.name_expr is not None else None
        namespaces = self.ctx.namespaces

        def plan(dctx):
            dctx.count("elements_constructed")
            name = static_name if name_plan is None else \
                computed_name(name_plan(dctx), namespaces)
            attrs: list[AttributeNode] = []
            for attr_plan in attr_plans:
                for produced in attr_plan(dctx):
                    attrs.append(produced)
            content: list[Any] = []
            for content_plan in content_plans:
                content.extend(content_plan(dctx))
            yield construct_element(name, attrs, content, ns_decls)
        return plan

    def _c_AttributeCtor(self, expr: ast.AttributeCtor) -> Plan:
        part_plans = [self.compile(p) for p in expr.value_parts]
        static_name = expr.name
        name_plan = self.compile(expr.name_expr) if expr.name_expr is not None else None
        namespaces = self.ctx.namespaces

        def plan(dctx):
            name = static_name if name_plan is None else \
                computed_name(name_plan(dctx), namespaces)
            parts = [list(p(dctx)) for p in part_plans]
            yield construct_attribute_from_parts(name, parts)
        return plan

    def _c_TextCtor(self, expr: ast.TextCtor) -> Plan:
        content_plan = self.compile(expr.content)

        def plan(dctx):
            node = construct_text(list(content_plan(dctx)))
            if node is not None:
                yield node
        return plan

    def _c_CommentCtor(self, expr: ast.CommentCtor) -> Plan:
        content_plan = self.compile(expr.content)

        def plan(dctx):
            yield construct_comment(list(content_plan(dctx)))
        return plan

    def _c_PICtor(self, expr: ast.PICtor) -> Plan:
        content_plan = self.compile(expr.content)
        static_target = expr.target
        target_plan = self.compile(expr.target_expr) if expr.target_expr is not None else None

        def plan(dctx):
            if target_plan is not None:
                target_value = _opt_atomic_value(target_plan(dctx))
                if target_value is None:
                    raise DynamicError("computed PI target is empty", code="XPTY0004")
                target = str(target_value.value)
            else:
                assert static_target is not None
                target = static_target
            yield construct_pi(target, list(content_plan(dctx)))
        return plan

    def _c_DocumentCtor(self, expr: ast.DocumentCtor) -> Plan:
        content_plan = self.compile(expr.content)

        def plan(dctx):
            yield construct_document(list(content_plan(dctx)))
        return plan

    # -- function calls -----------------------------------------------------------

    def _c_FunctionCall(self, expr: ast.FunctionCall) -> Plan:
        name = expr.name
        arity = len(expr.args)
        arg_plans = [self.compile(a) for a in expr.args]

        # constructor functions: xs:integer("5") etc. are casts
        if name.uri in (XS_NS, XDT_NS):
            atype = self.ctx.lookup_type(name)
            if isinstance(atype, T.AtomicType) and arity == 1:
                arg_plan = arg_plans[0]

                def plan(dctx):
                    values = list(atomize(arg_plan(dctx)))
                    if not values:
                        return
                    if len(values) > 1:
                        raise TypeError_("constructor function requires one value")
                    value = values[0]
                    yield AtomicValue(cast_value(value.value, value.type, atype), atype)
                return plan

        builtin = fnlib.lookup(name, arity)
        if builtin is not None:
            impl, lazy = builtin.impl, builtin.lazy

            def plan(dctx):
                if lazy:
                    args = [sub(dctx) for sub in arg_plans]
                else:
                    args = [list(sub(dctx)) for sub in arg_plans]
                yield from impl(dctx, *args)
            return plan

        decl = expr.decl
        if decl is not None:
            # a user function normalization did not inline (recursion,
            # or a body reading the focus): compile once, call through
            # the cache
            params = decl.params
            convert_types = [
                resolve_sequence_type(ptype, self.ctx) if ptype is not None else None
                for _, ptype in params]
            return_type = resolve_sequence_type(decl.return_type, self.ctx) \
                if decl.return_type is not None else None
            function_plans = self._function_plans

            if decl not in function_plans:
                function_plans[decl] = None  # reserve to stop recursion
                function_plans[decl] = self.compile(decl.body)

            def plan(dctx):
                body_plan = function_plans[decl]
                bindings: dict[QName, Any] = {}
                for (pname, _), arg_plan, seq_type in zip(params, arg_plans, convert_types):
                    value = arg_plan(dctx)
                    if seq_type is not None:
                        value = function_convert(value, seq_type, "argument")
                    bindings[pname] = BufferedSequence(
                        value, cancellation=dctx._shared.cancellation)
                result = body_plan(dctx.function_frame(bindings))
                if return_type is not None:
                    result = function_convert(result, return_type, "return")
                yield from result
            return plan

        raise UndefinedNameError(f"unknown function {name}#{arity}", code="XPST0017")


# -- helpers ---------------------------------------------------------------------


def _indexed_binding(catalog, dctx, var: QName):
    """:func:`~repro.runtime.kernels.indexed_value` of ``$var`` (never
    indexed without a catalog)."""
    if catalog is None:
        return None, None
    return indexed_value(catalog, dctx.variable(var))


def _opt_atomic_value(seq) -> AtomicValue | None:
    """At most one atomized value (err:XPTY0004 for a second); the
    emitter streams the same check inline."""
    values = []
    for value in atomize(seq):
        values.append(value)
        if len(values) > 1:
            raise TypeError_("expected at most one atomic value", code="XPTY0004")
    return values[0] if values else None
