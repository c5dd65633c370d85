"""The expression tree.

"Expressions built during parsing; (almost) 1-1 mapping between
expressions in XQuery and internal ones. ... Redundant algebra: e.g.
general FLWR, but also LET and MAP; typeswitch, but also instanceof and
conditionals."

Every node subclasses :class:`Expr` and declares ``_fields`` — the
attribute names holding child expressions (scalars or lists).  Generic
traversal (:meth:`Expr.children`) and functional rebuilding
(:meth:`Expr.with_children`) are what the rewrite-rule engine runs on,
so adding an expression kind automatically extends the optimizer.

``pos`` is the (line, column) lineage back to the source text.
"""

from __future__ import annotations

from typing import Any, Iterator, Optional, Sequence

from repro.qname import QName
from repro.xdm.items import AtomicValue


class SequenceTypeAST:
    """A parsed sequence type: item test + occurrence indicator.

    ``item_kind`` is one of ``"atomic"``, ``"item"``, ``"node"``,
    ``"element"``, ``"attribute"``, ``"document"``, ``"text"``,
    ``"comment"``, ``"processing-instruction"``, ``"empty"``.
    ``occurrence`` is ``""`` (exactly one), ``"?"``, ``"*"`` or ``"+"``.
    """

    __slots__ = ("item_kind", "name", "type_name", "occurrence")

    def __init__(self, item_kind: str, name: QName | None = None,
                 type_name: QName | None = None, occurrence: str = ""):
        self.item_kind = item_kind
        self.name = name
        self.type_name = type_name
        self.occurrence = occurrence

    def __repr__(self) -> str:
        core = self.item_kind
        if self.item_kind == "atomic":
            core = str(self.type_name)
        elif self.name or self.type_name:
            args = ", ".join(str(x) for x in (self.name, self.type_name) if x)
            core = f"{self.item_kind}({args})"
        elif self.item_kind not in ("empty",):
            core = f"{self.item_kind}()"
        return core + self.occurrence

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SequenceTypeAST):
            return NotImplemented
        return (self.item_kind == other.item_kind and self.name == other.name
                and self.type_name == other.type_name
                and self.occurrence == other.occurrence)


class Expr:
    """Base class of all expression-tree nodes."""

    _fields: tuple[str, ...] = ()
    __slots__ = ("pos", "annotations")

    def __init__(self, pos: tuple[int, int] = (0, 0)):
        self.pos = pos
        #: analysis results (doc-order, distinct, uses-vars, ...) are
        #: attached here by repro.compiler.analysis
        self.annotations: dict[str, Any] = {}

    # -- generic traversal -------------------------------------------------

    def children(self) -> Iterator["Expr"]:
        """All direct child expressions, in evaluation order."""
        for field in self._fields:
            value = getattr(self, field)
            if value is None:
                continue
            if isinstance(value, Expr):
                yield value
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Expr):
                        yield item

    def with_children(self, mapper) -> "Expr":
        """Rebuild this node with every child passed through ``mapper``.

        Returns self unchanged (no copy) when no child changed — rewrite
        passes rely on this to detect fixpoints cheaply.
        """
        changed = False
        updates: dict[str, Any] = {}
        for field in self._fields:
            value = getattr(self, field)
            if isinstance(value, Expr):
                new = mapper(value)
                if new is not value:
                    changed = True
                updates[field] = new
            elif isinstance(value, (list, tuple)):
                new_list = []
                for item in value:
                    if isinstance(item, Expr):
                        new_item = mapper(item)
                        if new_item is not item:
                            changed = True
                        new_list.append(new_item)
                    else:
                        new_list.append(item)
                updates[field] = type(value)(new_list) if isinstance(value, tuple) else new_list
            else:
                updates[field] = value
        if not changed:
            return self
        clone = object.__new__(type(self))
        Expr.__init__(clone, self.pos)
        for slot_holder in type(self).__mro__:
            for slot in getattr(slot_holder, "__slots__", ()):
                if slot in ("pos", "annotations"):
                    continue
                setattr(clone, slot, getattr(self, slot))
        for field, value in updates.items():
            setattr(clone, field, value)
        return clone

    def walk(self) -> Iterator["Expr"]:
        """Pre-order walk of the whole subtree."""
        yield self
        for child in self.children():
            yield from child.walk()

    def __repr__(self) -> str:
        return f"{type(self).__name__}"


# ---------------------------------------------------------------------------
# Primary expressions
# ---------------------------------------------------------------------------


class Literal(Expr):
    """A constant atomic value."""

    __slots__ = ("value",)
    _fields = ()

    def __init__(self, value: AtomicValue, pos=(0, 0)):
        super().__init__(pos)
        self.value = value

    def __repr__(self) -> str:
        return f"Literal({self.value.value!r})"


class EmptySequence(Expr):
    """The literal ``()``."""

    __slots__ = ()


class VarRef(Expr):
    """``$name``."""

    __slots__ = ("name",)

    def __init__(self, name: QName, pos=(0, 0)):
        super().__init__(pos)
        self.name = name

    def __repr__(self) -> str:
        return f"VarRef(${self.name})"


class ContextItem(Expr):
    """``.`` — the current context item."""

    __slots__ = ()


class FunctionCall(Expr):
    """A (built-in or user) function call; resolved during compilation.

    ``decl`` is set on a call to a user function normalization kept as
    a call instead of inlining it: the *normalized* declaration, closed
    over its parameters — the prolog variables the body reads are
    extra trailing parameters, passed by ``args`` past the declared
    arity (:mod:`repro.compiler.normalize`).
    """

    __slots__ = ("name", "args", "decl")
    _fields = ("args",)

    def __init__(self, name: QName, args: list[Expr], pos=(0, 0),
                 decl: "FunctionDecl | None" = None):
        super().__init__(pos)
        self.name = name
        self.args = args
        self.decl = decl

    def __repr__(self) -> str:
        return f"FunctionCall({self.name}/{len(self.args)})"


class SequenceExpr(Expr):
    """Comma: sequence construction with automatic flattening."""

    __slots__ = ("items",)
    _fields = ("items",)

    def __init__(self, items: list[Expr], pos=(0, 0)):
        super().__init__(pos)
        self.items = items


class RangeExpr(Expr):
    """``1 to 10``."""

    __slots__ = ("low", "high")
    _fields = ("low", "high")

    def __init__(self, low: Expr, high: Expr, pos=(0, 0)):
        super().__init__(pos)
        self.low = low
        self.high = high


# ---------------------------------------------------------------------------
# FLWOR and friends
# ---------------------------------------------------------------------------


class ForClause:
    """One ``for $v [at $p] in expr`` binding."""

    __slots__ = ("var", "pos_var", "type_decl", "expr")

    def __init__(self, var: QName, expr: Expr, pos_var: QName | None = None,
                 type_decl: SequenceTypeAST | None = None):
        self.var = var
        self.expr = expr
        self.pos_var = pos_var
        self.type_decl = type_decl


class LetClause:
    """One ``let $v := expr`` binding."""

    __slots__ = ("var", "type_decl", "expr")

    def __init__(self, var: QName, expr: Expr,
                 type_decl: SequenceTypeAST | None = None):
        self.var = var
        self.expr = expr
        self.type_decl = type_decl


class OrderSpec:
    """One ``order by`` key."""

    __slots__ = ("expr", "descending", "empty_least")

    def __init__(self, expr: Expr, descending: bool = False,
                 empty_least: bool = True):
        self.expr = expr
        self.descending = descending
        self.empty_least = empty_least


class FLWOR(Expr):
    """The general FLWOR.

    The normalizer lowers order-by-free, group-by-free FLWORs to nested
    For/Let/If; the rest stay as FLWOR and evaluate by materializing
    binding tuples ("syntactic sugar that combines FOR, LET, IF" +
    ORDER BY).

    ``group`` implements the tutorial's "Missing functionalities: Group
    by" as the extension the research-topics slide cites (Paparizos et
    al., "Grouping in XML"), with XQuery-3.0-style semantics: after
    ``group by $k := expr`` each pre-grouping variable rebinds to the
    *sequence* of its values within the group.
    """

    __slots__ = ("clauses", "where", "group", "order", "stable", "ret")
    _fields = ("where", "ret")  # clause exprs handled specially

    def __init__(self, clauses: list[ForClause | LetClause], where: Expr | None,
                 order: list[OrderSpec], ret: Expr, stable: bool = False, pos=(0, 0),
                 group: "list[tuple[QName, Expr]] | None" = None):
        super().__init__(pos)
        self.clauses = clauses
        self.where = where
        self.group = group or []
        self.order = order
        self.ret = ret
        self.stable = stable

    def children(self) -> Iterator[Expr]:
        for clause in self.clauses:
            yield clause.expr
        if self.where is not None:
            yield self.where
        for _var, key in self.group:
            yield key
        for spec in self.order:
            yield spec.expr
        yield self.ret

    def with_children(self, mapper) -> "FLWOR":
        new_clauses = []
        changed = False
        for clause in self.clauses:
            new_expr = mapper(clause.expr)
            if new_expr is not clause.expr:
                changed = True
                if isinstance(clause, ForClause):
                    clause = ForClause(clause.var, new_expr, clause.pos_var, clause.type_decl)
                else:
                    clause = LetClause(clause.var, new_expr, clause.type_decl)
            new_clauses.append(clause)
        new_where = mapper(self.where) if self.where is not None else None
        if new_where is not self.where:
            changed = True
        new_group = []
        for var, key in self.group:
            new_key = mapper(key)
            if new_key is not key:
                changed = True
            new_group.append((var, new_key))
        new_order = []
        for spec in self.order:
            new_key = mapper(spec.expr)
            if new_key is not spec.expr:
                changed = True
                spec = OrderSpec(new_key, spec.descending, spec.empty_least)
            new_order.append(spec)
        new_ret = mapper(self.ret)
        if new_ret is not self.ret:
            changed = True
        if not changed:
            return self
        return FLWOR(new_clauses, new_where, new_order, new_ret, self.stable,
                     self.pos, new_group)


class ForExpr(Expr):
    """Core single-variable map: ``for $v [at $p] in seq return body``."""

    __slots__ = ("var", "pos_var", "seq", "body")
    _fields = ("seq", "body")

    def __init__(self, var: QName, seq: Expr, body: Expr,
                 pos_var: QName | None = None, pos=(0, 0)):
        super().__init__(pos)
        self.var = var
        self.pos_var = pos_var
        self.seq = seq
        self.body = body

    def __repr__(self) -> str:
        return f"ForExpr(${self.var})"


class LetExpr(Expr):
    """Core single binding: ``let $v := value return body``."""

    __slots__ = ("var", "value", "body")
    _fields = ("value", "body")

    def __init__(self, var: QName, value: Expr, body: Expr, pos=(0, 0)):
        super().__init__(pos)
        self.var = var
        self.value = value
        self.body = body

    def __repr__(self) -> str:
        return f"LetExpr(${self.var})"


class Quantified(Expr):
    """``some/every $v in seq satisfies cond`` (single variable, after
    normalization of multi-variable forms into nesting)."""

    __slots__ = ("kind", "var", "seq", "cond")
    _fields = ("seq", "cond")

    def __init__(self, kind: str, var: QName, seq: Expr, cond: Expr, pos=(0, 0)):
        super().__init__(pos)
        self.kind = kind  # "some" | "every"
        self.var = var
        self.seq = seq
        self.cond = cond


class IfExpr(Expr):
    __slots__ = ("cond", "then", "orelse")
    _fields = ("cond", "then", "orelse")

    def __init__(self, cond: Expr, then: Expr, orelse: Expr, pos=(0, 0)):
        super().__init__(pos)
        self.cond = cond
        self.then = then
        self.orelse = orelse


class TypeswitchCase:
    __slots__ = ("var", "seq_type", "body")

    def __init__(self, var: QName | None, seq_type: SequenceTypeAST | None, body: Expr):
        self.var = var
        self.seq_type = seq_type  # None for the default branch
        self.body = body


class Typeswitch(Expr):
    __slots__ = ("operand", "cases", "default")
    _fields = ("operand",)

    def __init__(self, operand: Expr, cases: list[TypeswitchCase],
                 default: TypeswitchCase, pos=(0, 0)):
        super().__init__(pos)
        self.operand = operand
        self.cases = cases
        self.default = default

    def children(self) -> Iterator[Expr]:
        yield self.operand
        for case in self.cases:
            yield case.body
        yield self.default.body

    def with_children(self, mapper) -> "Typeswitch":
        new_operand = mapper(self.operand)
        changed = new_operand is not self.operand
        new_cases = []
        for case in self.cases:
            body = mapper(case.body)
            if body is not case.body:
                changed = True
                case = TypeswitchCase(case.var, case.seq_type, body)
            new_cases.append(case)
        default_body = mapper(self.default.body)
        default = self.default
        if default_body is not default.body:
            changed = True
            default = TypeswitchCase(default.var, None, default_body)
        if not changed:
            return self
        return Typeswitch(new_operand, new_cases, default, self.pos)


# ---------------------------------------------------------------------------
# Type operators
# ---------------------------------------------------------------------------


class InstanceOf(Expr):
    __slots__ = ("operand", "seq_type")
    _fields = ("operand",)

    def __init__(self, operand: Expr, seq_type: SequenceTypeAST, pos=(0, 0)):
        super().__init__(pos)
        self.operand = operand
        self.seq_type = seq_type


class CastExpr(Expr):
    __slots__ = ("operand", "type_name", "optional")
    _fields = ("operand",)

    def __init__(self, operand: Expr, type_name: QName, optional: bool, pos=(0, 0)):
        super().__init__(pos)
        self.operand = operand
        self.type_name = type_name
        self.optional = optional  # trailing "?" on the single type


class CastableExpr(Expr):
    __slots__ = ("operand", "type_name", "optional")
    _fields = ("operand",)

    def __init__(self, operand: Expr, type_name: QName, optional: bool, pos=(0, 0)):
        super().__init__(pos)
        self.operand = operand
        self.type_name = type_name
        self.optional = optional


class TreatExpr(Expr):
    __slots__ = ("operand", "seq_type")
    _fields = ("operand",)

    def __init__(self, operand: Expr, seq_type: SequenceTypeAST, pos=(0, 0)):
        super().__init__(pos)
        self.operand = operand
        self.seq_type = seq_type


class ParamConvert(Expr):
    """Function-conversion rules applied to an argument or return value.

    Inserted when inlining user functions so that the implicit
    operations (atomization of node arguments to atomic-typed
    parameters, untypedAtomic casting, numeric promotion, then a type
    check) survive inlining — the pitfall the paper's
    "Function inlining ... Not always!" slide warns about.
    """

    __slots__ = ("operand", "seq_type", "role")
    _fields = ("operand",)

    def __init__(self, operand: Expr, seq_type: SequenceTypeAST, role: str = "argument",
                 pos=(0, 0)):
        super().__init__(pos)
        self.operand = operand
        self.seq_type = seq_type
        self.role = role


class ValidateExpr(Expr):
    __slots__ = ("operand", "mode")
    _fields = ("operand",)

    def __init__(self, operand: Expr, mode: str = "strict", pos=(0, 0)):
        super().__init__(pos)
        self.operand = operand
        self.mode = mode


# ---------------------------------------------------------------------------
# Logic, comparison, arithmetic, set operators
# ---------------------------------------------------------------------------


class AndExpr(Expr):
    __slots__ = ("left", "right")
    _fields = ("left", "right")

    def __init__(self, left: Expr, right: Expr, pos=(0, 0)):
        super().__init__(pos)
        self.left = left
        self.right = right


class OrExpr(Expr):
    __slots__ = ("left", "right")
    _fields = ("left", "right")

    def __init__(self, left: Expr, right: Expr, pos=(0, 0)):
        super().__init__(pos)
        self.left = left
        self.right = right


class Comparison(Expr):
    """Value (eq/ne/lt/le/gt/ge), general (=,!=,<,<=,>,>=), node
    (is/isnot) or order (<<, >>) comparison."""

    __slots__ = ("op", "family", "left", "right")
    _fields = ("left", "right")

    def __init__(self, op: str, family: str, left: Expr, right: Expr, pos=(0, 0)):
        super().__init__(pos)
        self.op = op            # canonical operator name, e.g. "eq", "=", "is", "<<"
        self.family = family    # "value" | "general" | "node" | "order"
        self.left = left
        self.right = right

    def __repr__(self) -> str:
        return f"Comparison({self.op})"


class Arithmetic(Expr):
    __slots__ = ("op", "left", "right")
    _fields = ("left", "right")

    def __init__(self, op: str, left: Expr, right: Expr, pos=(0, 0)):
        super().__init__(pos)
        self.op = op  # "+", "-", "*", "div", "idiv", "mod"
        self.left = left
        self.right = right

    def __repr__(self) -> str:
        return f"Arithmetic({self.op})"


class UnaryExpr(Expr):
    __slots__ = ("op", "operand")
    _fields = ("operand",)

    def __init__(self, op: str, operand: Expr, pos=(0, 0)):
        super().__init__(pos)
        self.op = op  # "-" or "+"
        self.operand = operand


class SetOp(Expr):
    """union / intersect / except — node sequences only, result in
    document order with duplicates removed."""

    __slots__ = ("op", "left", "right")
    _fields = ("left", "right")

    def __init__(self, op: str, left: Expr, right: Expr, pos=(0, 0)):
        super().__init__(pos)
        self.op = op  # "union" | "intersect" | "except"
        self.left = left
        self.right = right


# ---------------------------------------------------------------------------
# Paths
# ---------------------------------------------------------------------------


class NodeTest:
    """A node test: kind test and/or name test.

    ``kind`` in {"*any*", "element", "attribute", "text", "comment",
    "processing-instruction", "document", "node"}; name of None means
    any name; wildcard URIs/locals are the empty-string sentinel "*".
    """

    __slots__ = ("kind", "name", "type_name", "pi_target")

    def __init__(self, kind: str = "node", name: QName | None = None,
                 type_name: QName | None = None, pi_target: str | None = None):
        self.kind = kind
        self.name = name
        self.type_name = type_name
        self.pi_target = pi_target

    def __repr__(self) -> str:
        if self.name is not None:
            return f"NodeTest({self.kind} {self.name})"
        return f"NodeTest({self.kind})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NodeTest):
            return NotImplemented
        return (self.kind == other.kind and self.name == other.name
                and self.type_name == other.type_name
                and self.pi_target == other.pi_target)


class Step(Expr):
    """One axis step evaluated against the context item."""

    __slots__ = ("axis", "test")

    def __init__(self, axis: str, test: NodeTest, pos=(0, 0)):
        super().__init__(pos)
        self.axis = axis
        self.test = test

    def __repr__(self) -> str:
        return f"Step({self.axis}::{self.test})"


class PathExpr(Expr):
    """``e1 / e2`` — the second-order path operator.

    Semantics per the paper: evaluate e1, bind ``.`` to each node,
    evaluate e2, concatenate, then sort+dedup by document order (the
    normalizer materializes that last part as an explicit :class:`DDO`
    so the optimizer can elide it).
    """

    __slots__ = ("left", "right")
    _fields = ("left", "right")

    def __init__(self, left: Expr, right: Expr, pos=(0, 0)):
        super().__init__(pos)
        self.left = left
        self.right = right


class Filter(Expr):
    """``base[predicate]`` — positional or boolean filtering."""

    __slots__ = ("base", "predicate")
    _fields = ("base", "predicate")

    def __init__(self, base: Expr, predicate: Expr, pos=(0, 0)):
        super().__init__(pos)
        self.base = base
        self.predicate = predicate


class DDO(Expr):
    """Explicit distinct-doc-order operator.

    Inserted by normalization around path results; elided by the
    optimizer when the input is statically known to be sorted and
    duplicate-free (experiment E5).
    """

    __slots__ = ("operand",)
    _fields = ("operand",)

    def __init__(self, operand: Expr, pos=(0, 0)):
        super().__init__(pos)
        self.operand = operand


class RootExpr(Expr):
    """Leading ``/`` — the root of the context node's tree."""

    __slots__ = ()


class AccessPath(Expr):
    """An index-backed access path chosen by the planner.

    Replaces an eligible ``DDO(PathExpr(...))`` chain rooted at a
    catalog-bound variable.  ``steps`` is the root-to-output element
    chain as ``(edge, name)`` pairs (edge ``"child"`` | ``"descendant"``);
    ``pred`` optionally names a value-equality predicate on the output
    step: ``(kind, name, probe)`` with kind ``"child"`` | ``"attribute"``
    and ``probe`` the *expression* whose value probes the value index —
    a literal, or a pure scalar known only at run time (``$a``).

    ``chosen`` records the planner's decision (``"element_index"`` |
    ``"value_index"``) and ``est_rows`` its selectivity estimate; both
    surface through EXPLAIN.  ``predicate`` keeps the original
    comparison for exact residual re-verification, and ``fallback`` the
    original expression, compiled alongside so evaluation degrades to
    navigation whenever the runtime binding is not the indexed document
    the plan was costed for.
    """

    __slots__ = ("var", "steps", "pred", "chosen", "est_rows",
                 "predicate", "fallback")
    _fields = ("predicate", "fallback")

    def __init__(self, var: QName, steps: tuple, pred, chosen: str,
                 est_rows: int, predicate: Optional[Expr],
                 fallback: Expr, pos=(0, 0)):
        super().__init__(pos)
        self.var = var
        self.steps = steps
        self.pred = pred
        self.chosen = chosen
        self.est_rows = est_rows
        self.predicate = predicate
        self.fallback = fallback

    def __repr__(self) -> str:
        path = "".join(
            ("//" if edge == "descendant" else "/") + name
            for edge, name in self.steps)
        note = ""
        if self.pred is not None:
            kind, name, probe = self.pred
            shown = name if kind != "attribute" else "@" + name
            if isinstance(probe, Literal):
                probe = repr(probe.value.value)
            elif isinstance(probe, VarRef):  # EXPLAIN lists lifted values
                probe = f"${probe.name}"
            else:
                probe = "<run-time>"
            note = f"[{shown} = {probe}]"
        return f"AccessPath(${self.var}{path}{note} via {self.chosen})"


class TwigJoin(Expr):
    """A pattern-level structural-join plan chosen by the twig planner.

    Replaces an eligible ``DDO(PathExpr(...))`` chain with structural
    predicates, rooted at a catalog-bound variable.  ``spec`` is the
    immutable twig-pattern form (nested ``(name, is_output,
    ((kind, child_spec), ...))`` tuples — see
    :meth:`repro.joins.patterns.TwigPattern.to_spec`); the runtime
    rebuilds the pattern and evaluates it over the stored document's
    element index with the ``chosen`` algorithm (``twigstack`` |
    ``binary`` | ``navigation`` | ``mixed``).

    ``est_rows`` is the cost model's output-cardinality estimate and
    ``edge_ests`` its per-edge pair estimates as ``(parent, kind,
    child, est_pairs)`` tuples; both surface through EXPLAIN as
    ``twig.*`` annotations.  ``holistic_branches`` names the side
    branches a mixed plan filters holistically.  ``fallback`` keeps the
    original expression, compiled alongside, so evaluation degrades to
    navigation whenever the runtime binding is not the indexed document
    the plan was costed for — the same re-verification seam as
    :class:`AccessPath`.
    """

    __slots__ = ("var", "spec", "chosen", "est_rows", "edge_ests",
                 "holistic_branches", "fallback")
    _fields = ("fallback",)

    def __init__(self, var: QName, spec: tuple, chosen: str, est_rows: int,
                 edge_ests: tuple, holistic_branches: tuple,
                 fallback: Expr, pos=(0, 0)):
        super().__init__(pos)
        self.var = var
        self.spec = spec
        self.chosen = chosen
        self.est_rows = est_rows
        self.edge_ests = edge_ests
        self.holistic_branches = holistic_branches
        self.fallback = fallback

    def __repr__(self) -> str:
        def fmt(part: tuple) -> str:
            name, is_output, children = part
            label = name + ("*" if is_output else "")
            if not children:
                return label
            parts = [("//" if kind == "descendant" else "/") + fmt(child)
                     for kind, child in children]
            if len(parts) == 1:
                return label + parts[0]
            return label + "[" + "][".join(parts) + "]"
        return (f"TwigJoin(${self.var} {fmt(self.spec)} via {self.chosen}"
                f" ~{self.est_rows} rows)")


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------


class ElementCtor(Expr):
    """Element construction (direct or computed).

    ``name_expr`` is None when ``name`` is a constant QName.  Content
    expressions evaluate to sequences spliced into the element; the
    runtime applies the XQuery content rules (atomics joined with
    spaces, nodes copied).
    """

    __slots__ = ("name", "name_expr", "attributes", "content", "ns_decls")
    _fields = ("name_expr", "attributes", "content")

    def __init__(self, name: QName | None, attributes: list[Expr],
                 content: list[Expr], ns_decls: Sequence[tuple[str, str]] = (),
                 name_expr: Expr | None = None, pos=(0, 0)):
        super().__init__(pos)
        self.name = name
        self.name_expr = name_expr
        self.attributes = attributes
        self.content = content
        self.ns_decls = tuple(ns_decls)

    def __repr__(self) -> str:
        return f"ElementCtor({self.name or '<computed>'})"


class AttributeCtor(Expr):
    """Attribute construction; ``value_parts`` concatenate to the value."""

    __slots__ = ("name", "name_expr", "value_parts")
    _fields = ("name_expr", "value_parts")

    def __init__(self, name: QName | None, value_parts: list[Expr],
                 name_expr: Expr | None = None, pos=(0, 0)):
        super().__init__(pos)
        self.name = name
        self.name_expr = name_expr
        self.value_parts = value_parts

    def __repr__(self) -> str:
        return f"AttributeCtor({self.name or '<computed>'})"


class TextCtor(Expr):
    __slots__ = ("content",)
    _fields = ("content",)

    def __init__(self, content: Expr, pos=(0, 0)):
        super().__init__(pos)
        self.content = content


class CommentCtor(Expr):
    __slots__ = ("content",)
    _fields = ("content",)

    def __init__(self, content: Expr, pos=(0, 0)):
        super().__init__(pos)
        self.content = content


class PICtor(Expr):
    __slots__ = ("target", "target_expr", "content")
    _fields = ("target_expr", "content")

    def __init__(self, target: str | None, content: Expr,
                 target_expr: Expr | None = None, pos=(0, 0)):
        super().__init__(pos)
        self.target = target
        self.target_expr = target_expr
        self.content = content


class DocumentCtor(Expr):
    __slots__ = ("content",)
    _fields = ("content",)

    def __init__(self, content: Expr, pos=(0, 0)):
        super().__init__(pos)
        self.content = content


class OrderedExpr(Expr):
    """``ordered { }`` / ``unordered { }`` — an *annotation* the
    optimizer exploits, per the paper ("unordered is an annotation")."""

    __slots__ = ("operand", "ordered")
    _fields = ("operand",)

    def __init__(self, operand: Expr, ordered: bool, pos=(0, 0)):
        super().__init__(pos)
        self.operand = operand
        self.ordered = ordered


# ---------------------------------------------------------------------------
# Module structure
# ---------------------------------------------------------------------------


class FunctionDecl:
    """``declare function name($p as T, ...) as T { body }``."""

    __slots__ = ("name", "params", "return_type", "body", "external")

    def __init__(self, name: QName,
                 params: list[tuple[QName, SequenceTypeAST | None]],
                 return_type: SequenceTypeAST | None,
                 body: Expr | None, external: bool = False):
        self.name = name
        self.params = params
        self.return_type = return_type
        self.body = body
        self.external = external

    @property
    def arity(self) -> int:
        return len(self.params)


class VariableDecl:
    """``declare variable $x as T {expr}`` or ``... external``."""

    __slots__ = ("name", "type_decl", "value", "external")

    def __init__(self, name: QName, type_decl: SequenceTypeAST | None,
                 value: Expr | None, external: bool = False):
        self.name = name
        self.type_decl = type_decl
        self.value = value
        self.external = external


class Prolog:
    """Everything declared before the query body."""

    __slots__ = ("namespaces", "default_element_ns", "default_function_ns",
                 "variables", "functions", "schema_imports")

    def __init__(self):
        self.namespaces: dict[str, str] = {}
        self.default_element_ns: str = ""
        self.default_function_ns: str | None = None
        self.variables: list[VariableDecl] = []
        self.functions: list[FunctionDecl] = []
        self.schema_imports: list[str] = []


class Module:
    """A parsed main module: prolog + body expression."""

    __slots__ = ("prolog", "body", "source")

    def __init__(self, prolog: Prolog, body: Expr, source: str = ""):
        self.prolog = prolog
        self.body = body
        self.source = source
