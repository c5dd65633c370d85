"""Operator kernels both execution backends call.

The compile-to-source emitter (:mod:`repro.compiler.pysource`) and its
differential oracle, the closure interpreter
(:mod:`repro.compiler.reference`), differ in how they sequence
operators, never in what one operator computes: where an operator's
work is more than a line or two — an index-side candidate list, the
function conversion rules, a group-by partition, ``validate`` — both
call the one function here, so the two cannot drift apart.
"""

from __future__ import annotations

from repro.errors import DynamicError, TypeError_
from repro.qname import QName
from repro.runtime.compare import value_compare
from repro.runtime.iterators import BufferedSequence
from repro.xdm.atomize import atomize
from repro.xdm.items import AtomicValue
from repro.xdm.nodes import Node
from repro.xsd import types as T
from repro.xsd.casting import CastError, cast_value


# -- index-backed operators ---------------------------------------------------


def indexed_value(catalog, value):
    """``(stored, doc)`` when ``value`` (a variable binding) is exactly
    the pinned, indexed catalog tree an AccessPath/TwigJoin was costed
    for; else ``(None, None)`` and the operator degrades to navigation."""
    items = list(value) if isinstance(
        value, (list, tuple, BufferedSequence)) else [value]
    if len(items) != 1:
        return None, None
    stored = catalog.stored_for(items[0])
    if stored is None or not stored.indexed:
        return None, None
    return stored, items[0]


def access_path_candidates(stored, doc, expr, probe, dctx) -> list:
    """The index-side candidates of an AccessPath, in document order
    (before residual predicate re-verification), counting the path
    taken as ``access_path.<path>``.

    ``probe()`` evaluates the predicate's probe expression — in a
    value-index plan only, once, and only when the chain has a
    candidate: where navigation would first evaluate the predicate, so
    an unbound or failing probe raises exactly when navigation does.
    One string-like atom is looked up in the value index; any other
    value takes the element-index scan, and the residual predicate
    decides."""
    from repro.joins.access import (
        chain_has_candidate,
        element_chain_postings,
        probe_key,
        value_lookup_elements,
    )

    eindex = stored.element_index
    if expr.chosen == "value_index":
        if not chain_has_candidate(eindex, expr.steps, doc):
            dctx.count("access_path.value_index")
            return []
        key = probe_key(probe())
        if key is not None:
            dctx.count("access_path.value_index")
            kind, name, _probe = expr.pred
            return value_lookup_elements(eindex, stored.value_index, doc,
                                         expr.steps, kind, name, key)
    dctx.count("access_path.element_index")
    return [p.node for p in element_chain_postings(eindex, expr.steps)]


def twig_nodes(stored, expr, dctx) -> list:
    """Evaluate a TwigJoin over the stored document's element index,
    recording the ``twig.*`` counters; output nodes in document order."""
    from repro.joins.patterns import TwigPattern, evaluate_pattern

    dctx.count(f"twig.{expr.chosen}")
    counters: dict[str, int] = {}
    postings = evaluate_pattern(
        stored.element_index, TwigPattern.from_spec(expr.spec),
        algorithm=expr.chosen, cancellation=dctx._shared.cancellation,
        counters=counters, holistic_branches=expr.holistic_branches)
    dctx.count("twig.elements_scanned", counters.get("elements_scanned", 0))
    for key, value in counters.items():
        if key.startswith("edge."):
            # actual-vs-estimated surface: twig.edge.<p>><c>.actual_pairs
            # lines up with the compile-time twig.edge.<p>><c>.est_pairs
            dctx.count("twig." + key.replace(".pairs", ".actual_pairs"),
                       value)
    dctx.count("twig.actual_rows", len(postings))
    return [posting.node for posting in postings]


# -- operand checks -----------------------------------------------------------


def castable(values: list, target, optional: bool) -> bool:
    """``castable as`` over an atomized operand."""
    if not values:
        return optional
    if len(values) > 1:
        return False
    try:
        cast_value(values[0].value, values[0].type, target)
        return True
    except (CastError, TypeError_):
        return False


def opt_integer(seq, what: str) -> int | None:
    values = list(atomize(seq))
    if not values:
        return None
    if len(values) > 1:
        raise TypeError_(f"{what} must be a single integer")
    value = values[0]
    if value.type is T.UNTYPED_ATOMIC:
        return int(cast_value(value.value, T.UNTYPED_ATOMIC, T.XS_INTEGER))
    if not value.type.derives_from(T.XS_INTEGER):
        raise TypeError_(f"{what} must be an integer, got {value.type}")
    return int(value.value)


def opt_single_node(seq) -> Node | None:
    items = list(seq)
    if not items:
        return None
    if len(items) > 1 or not isinstance(items[0], Node):
        raise TypeError_("expected at most one node", code="XPTY0004")
    return items[0]


def all_nodes(seq, op: str) -> list[Node]:
    nodes = list(seq)
    for node in nodes:
        if not isinstance(node, Node):
            raise TypeError_(f"{op} requires node sequences", code="XPTY0004")
    return nodes


def computed_name(seq, namespaces) -> QName:
    values = list(atomize(seq))
    if len(values) != 1:
        raise TypeError_("computed constructor name must be a single value",
                         code="XPTY0004")
    value = values[0]
    if isinstance(value.value, QName):
        return value.value
    lexical = str(value.value)
    if ":" in lexical:
        prefix, local = lexical.split(":", 1)
        uri = namespaces.lookup(prefix)
        if uri is None:
            raise DynamicError(f"prefix {prefix!r} not in scope", code="XQDY0074")
        return QName(uri, local, prefix)
    return QName("", lexical)


def function_convert(seq, seq_type, role: str):
    """The function conversion rules (atomize / promote / check).

    Lazy: items are converted and type-checked one at a time with a
    streaming occurrence check, so an infinite recursive function with
    a declared ``xs:integer*`` return type (the tutorial's endlessOnes)
    still evaluates lazily.
    """
    is_atomic = seq_type.item_kind == "atomic"
    target = seq_type.atomic_type
    count = 0

    source = atomize(seq) if is_atomic else iter(seq)
    for item in source:
        count += 1
        if count > 1 and not seq_type.allows_many():
            raise TypeError_(
                f"{role} does not match required type {seq_type}: too many items",
                code="XPTY0004")
        if is_atomic:
            assert target is not None
            value = item
            if value.type is T.UNTYPED_ATOMIC and target is not T.ANY_ATOMIC:
                value = AtomicValue(cast_value(value.value, T.UNTYPED_ATOMIC, target),
                                    target)
            elif T.is_numeric(value.type) and T.is_numeric(target) \
                    and not value.type.derives_from(target):
                # numeric promotion (never demotion)
                rank = {"decimal": 0, "float": 1, "double": 2}
                vr = rank[value.type.primitive.name.local]
                tr = rank[target.primitive.name.local]
                if vr < tr:
                    value = AtomicValue(cast_value(value.value, value.type, target),
                                        target)
            if not seq_type.matches_item(value):
                raise TypeError_(
                    f"{role} does not match required type {seq_type}",
                    code="XPTY0004")
            yield value
        else:
            if not seq_type.matches_item(item):
                raise TypeError_(
                    f"{role} does not match required type {seq_type}",
                    code="XPTY0004")
            yield item
    if count == 0 and not seq_type.allows_empty():
        raise TypeError_(
            f"{role} does not match required type {seq_type}: empty sequence",
            code="XPTY0004")


# -- FLWOR: group by, order by ------------------------------------------------


def group_key(values: list):
    """One atomized ``group by`` key of one tuple: its single value, or
    None (empty); err:XPTY0004 for more than one."""
    if len(values) > 1:
        raise TypeError_("group-by key must be a single atomic value",
                         code="XPTY0004")
    return values[0] if values else None


def group_rows(keyed: list) -> list:
    """The group-by partition of ``[(key items, row), ...]`` (key items
    from :func:`group_key`, rows in tuple order): ``[(rows, key items),
    ...]``, one entry per distinct key in order of first occurrence.
    Keys compare as ``fn:distinct-values`` does."""
    from repro.runtime.functions.sequences import _distinct_key

    groups: dict[tuple, tuple[list, list]] = {}
    for key_items, row in keyed:
        bucket = tuple(_distinct_key(v) if v is not None else ("empty",)
                       for v in key_items)
        groups.setdefault(bucket, ([], key_items))[0].append(row)
    return list(groups.values())


def order_key_value(values: list):
    """The single atomized order-by key of one tuple, or None (empty)."""
    if len(values) > 1:
        raise TypeError_("order-by key must be a single atomic value")
    return values[0] if values else None


class OrderKey:
    """functools-style comparison key for FLWOR order-by rows."""

    __slots__ = ("keys", "specs")

    def __init__(self, row, specs):
        self.keys = row[0]
        self.specs = specs

    @classmethod
    def factory(cls, specs):
        return lambda row: cls(row, specs)

    def __lt__(self, other: "OrderKey") -> bool:
        for (key_a, key_b, (_plan, descending, empty_least)) in zip(
                self.keys, other.keys, self.specs):
            if key_a is None and key_b is None:
                continue
            if key_a is None:
                return empty_least != descending
            if key_b is None:
                return not (empty_least != descending)
            try:
                if value_compare("eq", key_a, key_b):
                    continue
                less = value_compare("lt", key_a, key_b)
            except TypeError_:
                less = str(key_a.value) < str(key_b.value)
            return less != descending
        return False


# -- validate -----------------------------------------------------------------


def validate_node(items: list, schemas: dict):
    """``validate { E }`` over E's materialized value: a validated copy
    of its one element or document node, against the imported schema
    declaring the element (or none)."""
    from repro.runtime.constructors import copy_node
    from repro.xdm.nodes import DocumentNode, ElementNode
    from repro.xsd.validation import validate

    if len(items) != 1 or not isinstance(items[0], (ElementNode, DocumentNode)):
        raise TypeError_("validate requires a single element or document node",
                         code="XQTY0030")
    copy = copy_node(items[0])
    element = copy.document_element() if isinstance(copy, DocumentNode) else copy
    schema = None
    if element is not None:
        for candidate in schemas.values():
            if candidate.element_decl(element.name) is not None:
                schema = candidate
                break
    validate(copy, schema)
    return copy
