"""Static type inference.

The tutorial's three goals for the type system:

1. detect statically errors in the queries;
2. infer the type of the result of valid queries;
3. ensure statically that the result conforms to an expected type.

This pass walks the core tree bottom-up computing a
:class:`StaticType` — an item-kind lattice point plus an occurrence
range — per expression.  It is deliberately *optimistic* (the paper's
open problem 18 asks for exactly that): a query is rejected only when
evaluation could never succeed, e.g. arithmetic over two values that
are statically booleans, or a path step over a statically atomic
value.  ``infer`` returns the root type; ``check_against`` implements
goal 3 for an expected sequence type.

Only the root's type is kept (``CompiledQuery.static_type``); the
per-node facts the rewrites read, such as ``singleton`` for
FOR-minimization, come from :mod:`repro.compiler.analysis`, not from
this pass.  Numeric-vs-untyped knowledge could avoid runtime dispatch
(left as future work, as in the talk).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.compiler.context import StaticContext
from repro.compiler.sequencetype import SequenceType, resolve_sequence_type
from repro.errors import StaticTypeError
from repro.qname import FN_NS
from repro.xquery import ast
from repro.xsd import types as T

# item-kind lattice: specific kinds below, "item" on top, "empty" at bottom
_NODE_KINDS = {"element", "attribute", "document", "text", "comment",
               "processing-instruction", "node"}


@dataclass(frozen=True)
class StaticType:
    """An inferred type: item kind + atomic type (if atomic) + occurrence.

    ``occurrence`` uses the usual alphabet plus ``"0"`` (statically
    empty).  ``kind`` is ``"atomic"``, a node kind, ``"node"``,
    ``"item"`` (unknown), or ``"empty"``.
    """

    kind: str = "item"
    atomic: T.AtomicType | None = None
    occurrence: str = "*"

    def __str__(self) -> str:
        if self.kind == "empty" or self.occurrence == "0":
            return "empty()"
        core = str(self.atomic) if self.kind == "atomic" and self.atomic \
            else (f"{self.kind}()" if self.kind != "item" else "item()")
        return core + (self.occurrence if self.occurrence != "" else "")

    # -- occurrence helpers --------------------------------------------------

    def maybe_empty(self) -> bool:
        return self.occurrence in ("?", "*", "0")

    def maybe_many(self) -> bool:
        return self.occurrence in ("+", "*")

    def always_empty(self) -> bool:
        return self.occurrence == "0" or self.kind == "empty"

    def is_node_kind(self) -> bool:
        return self.kind in _NODE_KINDS

    def could_be_numeric(self) -> bool:
        if self.always_empty():
            return True  # () is fine for arithmetic (result is ())
        if self.kind in ("item",) or self.is_node_kind():
            return True  # nodes atomize to untypedAtomic → double
        if self.kind == "atomic":
            return (self.atomic is None or T.is_numeric(self.atomic)
                    or self.atomic is T.UNTYPED_ATOMIC
                    or self.atomic is T.ANY_ATOMIC
                    or self.atomic.primitive in (T.XS_DATE, T.XS_DATETIME,
                                                 T.XS_TIME, T.XS_DURATION))
        return False

    def could_be_node(self) -> bool:
        return self.kind in ("item",) or self.is_node_kind() or self.always_empty()


ITEM_STAR = StaticType("item", None, "*")
EMPTY = StaticType("empty", None, "0")
BOOLEAN = StaticType("atomic", T.XS_BOOLEAN, "")
INTEGER = StaticType("atomic", T.XS_INTEGER, "")
STRING = StaticType("atomic", T.XS_STRING, "")
NODE_STAR = StaticType("node", None, "*")


def _occ_star(occ: str) -> str:
    """Occurrence after a flattening/iteration context."""
    return "*" if occ in ("*", "+", "?") else occ


def _occ_concat(a: str, b: str) -> str:
    if a == "0":
        return b
    if b == "0":
        return a
    if a in ("", "+") or b in ("", "+"):
        return "+"
    return "*"


def _occ_union(a: str, b: str) -> str:
    if a == b:
        return a
    s = {a, b}
    if s <= {"0", "?"}:
        return "?"
    if s == {"0", ""}:
        return "?"
    if s <= {"", "+"}:
        return "+"
    if s <= {"", "?", "0"}:
        return "?"
    return "*"


_FN_RETURNS: dict[str, StaticType] = {
    "count": INTEGER,
    "string": STRING,
    "string-length": INTEGER,
    "concat": STRING,
    "string-join": STRING,
    "normalize-space": STRING,
    "upper-case": STRING,
    "lower-case": STRING,
    "substring": STRING,
    "substring-before": STRING,
    "substring-after": STRING,
    "translate": STRING,
    "replace": STRING,
    "name": STRING,
    "local-name": STRING,
    "true": BOOLEAN,
    "false": BOOLEAN,
    "not": BOOLEAN,
    "boolean": BOOLEAN,
    "empty": BOOLEAN,
    "exists": BOOLEAN,
    "contains": BOOLEAN,
    "starts-with": BOOLEAN,
    "ends-with": BOOLEAN,
    "matches": BOOLEAN,
    "deep-equal": BOOLEAN,
    "position": INTEGER,
    "last": INTEGER,
    "doc": StaticType("document", None, "?"),
    "document": StaticType("document", None, "?"),
    "root": StaticType("node", None, "?"),
    "data": StaticType("atomic", T.ANY_ATOMIC, "*"),
    "distinct-values": StaticType("atomic", T.ANY_ATOMIC, "*"),
    "sum": StaticType("atomic", T.ANY_ATOMIC, ""),
    "avg": StaticType("atomic", T.ANY_ATOMIC, "?"),
    "min": StaticType("atomic", T.ANY_ATOMIC, "?"),
    "max": StaticType("atomic", T.ANY_ATOMIC, "?"),
    "abs": StaticType("atomic", T.ANY_ATOMIC, "?"),
    "number": StaticType("atomic", T.XS_DOUBLE, ""),
}


class TypeChecker:
    """One inference pass over a core expression tree."""

    def __init__(self, ctx: StaticContext | None = None):
        self.ctx = ctx or StaticContext()
        #: variable name → inferred/declared static type (scoped via dict copies)
        self._env: dict = {}
        for name, decl in self.ctx.variables.items():
            self._env[name] = self._from_decl(decl)

    def _from_decl(self, decl) -> StaticType:
        if decl is None:
            return ITEM_STAR
        try:
            seq_type = resolve_sequence_type(decl, self.ctx)
        except Exception:
            return ITEM_STAR
        return _from_sequence_type(seq_type)

    # -- public API ----------------------------------------------------------

    def infer(self, expr: ast.Expr) -> StaticType:
        return self._infer(expr, dict(self._env))

    def check_against(self, expr: ast.Expr, expected: SequenceType) -> StaticType:
        """Goal 3: static conformance to an expected sequence type."""
        t = self.infer(expr)
        if t.always_empty() and not expected.allows_empty():
            raise StaticTypeError(
                f"expression is statically empty but {expected} is required")
        if expected.item_kind == "atomic" and t.is_node_kind() is False \
                and t.kind == "atomic" and t.atomic is not None \
                and expected.atomic_type is not None:
            if not (t.atomic.derives_from(expected.atomic_type)
                    or expected.atomic_type is T.ANY_ATOMIC
                    or t.atomic is T.UNTYPED_ATOMIC
                    or (T.is_numeric(t.atomic) and T.is_numeric(expected.atomic_type))):
                raise StaticTypeError(
                    f"expression has static type {t}, required {expected}")
        return t

    # -- inference -----------------------------------------------------------

    def _infer(self, expr: ast.Expr, env: dict) -> StaticType:
        method = getattr(self, f"_t_{type(expr).__name__}", None)
        return method(expr, env) if method is not None else self._default(expr, env)

    def _default(self, expr: ast.Expr, env: dict) -> StaticType:
        for child in expr.children():
            self._infer(child, env)
        return ITEM_STAR

    # primaries --------------------------------------------------------------

    def _t_Literal(self, expr: ast.Literal, env) -> StaticType:
        return StaticType("atomic", expr.value.type, "")

    def _t_EmptySequence(self, expr, env) -> StaticType:
        return EMPTY

    def _t_VarRef(self, expr: ast.VarRef, env) -> StaticType:
        return env.get(expr.name, ITEM_STAR)

    def _t_ContextItem(self, expr, env) -> StaticType:
        return StaticType("item", None, "")

    def _t_SequenceExpr(self, expr: ast.SequenceExpr, env) -> StaticType:
        occ = "0"
        kinds = set()
        atomics = set()
        for item in expr.items:
            t = self._infer(item, env)
            occ = _occ_concat(occ, t.occurrence)
            kinds.add(t.kind)
            if t.atomic is not None:
                atomics.add(t.atomic)
        kinds.discard("empty")
        kind = kinds.pop() if len(kinds) == 1 else "item"
        atomic = atomics.pop() if kind == "atomic" and len(atomics) == 1 else None
        return StaticType(kind, atomic, occ)

    def _t_RangeExpr(self, expr: ast.RangeExpr, env) -> StaticType:
        self._infer(expr.low, env)
        self._infer(expr.high, env)
        return StaticType("atomic", T.XS_INTEGER, "*")

    # bindings ---------------------------------------------------------------

    def _t_LetExpr(self, expr: ast.LetExpr, env) -> StaticType:
        value_t = self._infer(expr.value, env)
        inner = dict(env)
        inner[expr.var] = value_t
        return self._infer(expr.body, inner)

    def _t_ForExpr(self, expr: ast.ForExpr, env) -> StaticType:
        seq_t = self._infer(expr.seq, env)
        inner = dict(env)
        inner[expr.var] = StaticType(seq_t.kind, seq_t.atomic, "")
        if expr.pos_var is not None:
            inner[expr.pos_var] = INTEGER
        body_t = self._infer(expr.body, inner)
        if seq_t.always_empty():
            return EMPTY
        occ = "*" if seq_t.maybe_many() or body_t.occurrence in ("*", "?", "0") \
            else body_t.occurrence
        if seq_t.maybe_empty():
            occ = _occ_union(occ, "0")
        return StaticType(body_t.kind, body_t.atomic, occ)

    def _t_Quantified(self, expr: ast.Quantified, env) -> StaticType:
        seq_t = self._infer(expr.seq, env)
        inner = dict(env)
        inner[expr.var] = StaticType(seq_t.kind, seq_t.atomic, "")
        self._infer(expr.cond, inner)
        return BOOLEAN

    def _t_IfExpr(self, expr: ast.IfExpr, env) -> StaticType:
        self._infer(expr.cond, env)
        then_t = self._infer(expr.then, env)
        else_t = self._infer(expr.orelse, env)
        kind = then_t.kind if then_t.kind == else_t.kind else "item"
        atomic = then_t.atomic if then_t.atomic is else_t.atomic else None
        return StaticType(kind, atomic, _occ_union(then_t.occurrence,
                                                   else_t.occurrence))

    # operators ----------------------------------------------------------------

    def _t_Arithmetic(self, expr: ast.Arithmetic, env) -> StaticType:
        left = self._infer(expr.left, env)
        right = self._infer(expr.right, env)
        for side, t in (("left", left), ("right", right)):
            if not t.could_be_numeric():
                raise StaticTypeError(
                    f"{side} operand of '{expr.op}' has static type {t}, "
                    f"which can never be numeric")
        occ = "?" if (left.maybe_empty() or right.maybe_empty()) else ""
        atomic = None
        if left.kind == "atomic" and right.kind == "atomic" \
                and left.atomic is not None and right.atomic is not None \
                and T.is_numeric(left.atomic) and T.is_numeric(right.atomic):
            rank = {"decimal": 0, "float": 1, "double": 2}
            la = left.atomic.primitive
            ra = right.atomic.primitive
            atomic = la if rank[la.name.local] >= rank[ra.name.local] else ra
            if atomic is T.XS_DECIMAL and expr.op != "div" \
                    and left.atomic.derives_from(T.XS_INTEGER) \
                    and right.atomic.derives_from(T.XS_INTEGER):
                atomic = T.XS_INTEGER
        return StaticType("atomic", atomic, occ)

    def _t_UnaryExpr(self, expr: ast.UnaryExpr, env) -> StaticType:
        t = self._infer(expr.operand, env)
        if not t.could_be_numeric():
            raise StaticTypeError(
                f"operand of unary '{expr.op}' has static type {t}")
        return StaticType("atomic", t.atomic if t.kind == "atomic" else None,
                          "?" if t.maybe_empty() else "")

    def _t_Comparison(self, expr: ast.Comparison, env) -> StaticType:
        left = self._infer(expr.left, env)
        right = self._infer(expr.right, env)
        if expr.family in ("node", "order"):
            for side, t in (("left", left), ("right", right)):
                if not t.could_be_node():
                    raise StaticTypeError(
                        f"{side} operand of '{expr.op}' must be a node, "
                        f"static type is {t}")
            occ = "?" if (left.maybe_empty() or right.maybe_empty()) else ""
            return StaticType("atomic", T.XS_BOOLEAN, occ)
        if expr.family == "value":
            occ = "?" if (left.maybe_empty() or right.maybe_empty()) else ""
            return StaticType("atomic", T.XS_BOOLEAN, occ)
        return BOOLEAN

    def _t_AndExpr(self, expr, env) -> StaticType:
        self._infer(expr.left, env)
        self._infer(expr.right, env)
        return BOOLEAN

    _t_OrExpr = _t_AndExpr

    def _t_SetOp(self, expr: ast.SetOp, env) -> StaticType:
        left = self._infer(expr.left, env)
        right = self._infer(expr.right, env)
        for side, t in (("left", left), ("right", right)):
            if t.kind == "atomic" and not t.always_empty():
                raise StaticTypeError(
                    f"{side} operand of '{expr.op}' is statically atomic; "
                    "set operators require nodes")
        return NODE_STAR

    # paths ----------------------------------------------------------------------

    def _t_RootExpr(self, expr, env) -> StaticType:
        return StaticType("node", None, "")

    def _t_Step(self, expr: ast.Step, env) -> StaticType:
        kind = expr.test.kind
        if kind == "node" and expr.test.name is not None:
            kind = "attribute" if expr.axis == "attribute" else "element"
        occ = "?" if expr.axis in ("parent", "self") else "*"
        return StaticType(kind if kind != "node" else "node", None, occ)

    def _t_PathExpr(self, expr: ast.PathExpr, env) -> StaticType:
        left = self._infer(expr.left, env)
        if left.kind == "atomic" and not left.always_empty():
            raise StaticTypeError(
                f"path step applied to a statically atomic value ({left})",
                code="XPTY0019")
        right = self._infer(expr.right, env)
        if left.always_empty():
            return EMPTY
        occ = "*" if left.maybe_many() or right.maybe_many() else \
            _occ_union(right.occurrence, "0") if left.maybe_empty() else \
            right.occurrence
        return StaticType(right.kind, right.atomic, occ)

    def _t_Filter(self, expr: ast.Filter, env) -> StaticType:
        base = self._infer(expr.base, env)
        self._infer(expr.predicate, env)
        occ = "?" if base.occurrence in ("", "?") else "*"
        return StaticType(base.kind, base.atomic, occ)

    def _t_DDO(self, expr: ast.DDO, env) -> StaticType:
        inner = self._infer(expr.operand, env)
        return StaticType(inner.kind, inner.atomic, inner.occurrence)

    # constructors -----------------------------------------------------------

    def _t_ElementCtor(self, expr: ast.ElementCtor, env) -> StaticType:
        for child in expr.children():
            self._infer(child, env)
        return StaticType("element", None, "")

    def _t_AttributeCtor(self, expr, env) -> StaticType:
        for child in expr.children():
            self._infer(child, env)
        return StaticType("attribute", None, "")

    def _t_TextCtor(self, expr, env) -> StaticType:
        self._infer(expr.content, env)
        return StaticType("text", None, "?")

    def _t_CommentCtor(self, expr, env) -> StaticType:
        self._infer(expr.content, env)
        return StaticType("comment", None, "")

    def _t_DocumentCtor(self, expr, env) -> StaticType:
        self._infer(expr.content, env)
        return StaticType("document", None, "")

    def _t_PICtor(self, expr, env) -> StaticType:
        for child in expr.children():
            self._infer(child, env)
        return StaticType("processing-instruction", None, "")

    # type operators ---------------------------------------------------------

    def _t_InstanceOf(self, expr, env) -> StaticType:
        self._infer(expr.operand, env)
        return BOOLEAN

    _t_CastableExpr = _t_InstanceOf

    def _t_CastExpr(self, expr: ast.CastExpr, env) -> StaticType:
        self._infer(expr.operand, env)
        target = self.ctx.lookup_type(expr.type_name)
        atomic = target if isinstance(target, T.AtomicType) else None
        return StaticType("atomic", atomic, "?" if expr.optional else "")

    def _t_TreatExpr(self, expr: ast.TreatExpr, env) -> StaticType:
        self._infer(expr.operand, env)
        try:
            return _from_sequence_type(resolve_sequence_type(expr.seq_type, self.ctx))
        except Exception:
            return ITEM_STAR

    def _t_ParamConvert(self, expr: ast.ParamConvert, env) -> StaticType:
        self._infer(expr.operand, env)
        try:
            return _from_sequence_type(resolve_sequence_type(expr.seq_type, self.ctx))
        except Exception:
            return ITEM_STAR

    def _t_ValidateExpr(self, expr, env) -> StaticType:
        self._infer(expr.operand, env)
        return StaticType("node", None, "")

    # functions ----------------------------------------------------------------

    def _t_FunctionCall(self, expr: ast.FunctionCall, env) -> StaticType:
        for arg in expr.args:
            self._infer(arg, env)
        if expr.name.uri == FN_NS and expr.name.local in _FN_RETURNS:
            return _FN_RETURNS[expr.name.local]
        # constructor functions xs:TYPE(...) → that type, occurrence "?"
        atomic = self.ctx.lookup_type(expr.name)
        if isinstance(atomic, T.AtomicType) and len(expr.args) == 1:
            return StaticType("atomic", atomic, "?")
        decl = expr.decl or self.ctx.lookup_function(expr.name, len(expr.args))
        if decl is not None and decl.return_type is not None:
            try:
                return _from_sequence_type(
                    resolve_sequence_type(decl.return_type, self.ctx))
            except Exception:
                return ITEM_STAR
        return ITEM_STAR

    def _t_Typeswitch(self, expr: ast.Typeswitch, env) -> StaticType:
        operand_t = self._infer(expr.operand, env)
        result: StaticType | None = None
        for case in list(expr.cases) + [expr.default]:
            inner = dict(env)
            if case.var is not None:
                inner[case.var] = operand_t
            t = self._infer(case.body, inner)
            result = t if result is None else StaticType(
                t.kind if t.kind == result.kind else "item",
                t.atomic if t.atomic is result.atomic else None,
                _occ_union(t.occurrence, result.occurrence))
        return result or ITEM_STAR

    def _t_FLWOR(self, expr: ast.FLWOR, env) -> StaticType:
        inner = dict(env)
        for clause in expr.clauses:
            t = self._infer(clause.expr, inner)
            if isinstance(clause, ast.ForClause):
                inner[clause.var] = StaticType(t.kind, t.atomic, "")
                if clause.pos_var is not None:
                    inner[clause.pos_var] = INTEGER
            else:
                inner[clause.var] = t
        if expr.where is not None:
            self._infer(expr.where, inner)
        for gvar, key in expr.group:
            key_t = self._infer(key, inner)
            inner[gvar] = StaticType("atomic",
                                     key_t.atomic if key_t.kind == "atomic" else None,
                                     "?")
        if expr.group:
            # post-grouping, every clause variable holds a sequence
            for clause in expr.clauses:
                prior = inner.get(clause.var, ITEM_STAR)
                inner[clause.var] = StaticType(prior.kind, prior.atomic, "*")
        for spec in expr.order:
            self._infer(spec.expr, inner)
        ret = self._infer(expr.ret, inner)
        return StaticType(ret.kind, ret.atomic, "*")

    def _t_OrderedExpr(self, expr, env) -> StaticType:
        return self._infer(expr.operand, env)


def _from_sequence_type(seq_type: SequenceType) -> StaticType:
    if seq_type.item_kind == "empty":
        return EMPTY
    if seq_type.item_kind == "atomic":
        return StaticType("atomic", seq_type.atomic_type, seq_type.occurrence)
    return StaticType(seq_type.item_kind, None, seq_type.occurrence)


def infer_type(expr: ast.Expr, ctx: StaticContext | None = None) -> StaticType:
    """Infer the static type of a core expression."""
    return TypeChecker(ctx).infer(expr)
