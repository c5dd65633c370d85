"""Sequence functions (fn:distinct-values, fn:subsequence, ...)."""

from __future__ import annotations

from typing import Any

from repro.errors import DynamicError, TypeError_
from repro.runtime.functions.registry import (
    atomized,
    numeric_arg,
    position_window,
    register,
    rounded_double,
)
from repro.xdm.atomize import atomize, string_value_of
from repro.xdm.items import AtomicValue, boolean, integer
from repro.xdm.nodes import ElementNode, Node
from repro.xdm.order import in_document_order
from repro.xsd import types as T


def _distinct_key(value: AtomicValue):
    """Equality key matching XQuery eq semantics across numeric types."""
    v = value.value
    if T.is_numeric(value.type):
        try:
            return ("num", float(v))
        except (OverflowError, ValueError):
            return ("num", str(v))
    if value.type is T.UNTYPED_ATOMIC or value.type.derives_from(T.XS_STRING):
        return ("str", str(v))
    if value.type.derives_from(T.XS_BOOLEAN):
        return ("bool", bool(v))
    return (value.type.primitive.name.local, str(v))


@register("distinct-values", 1, lazy=True)
def fn_distinct_values(dctx, arg):
    """``fn:distinct-values(anyAtomicType*) as anyAtomicType*`` — eq-based, lazily streamed."""
    seen: set = set()
    for value in atomize(arg):
        key = _distinct_key(value)
        if key not in seen:
            seen.add(key)
            yield value


@register("distinct-nodes", 1, lazy=True)
def fn_distinct_nodes(dctx, arg):
    """``fn:distinct-nodes(node()*) as node()*`` — identity-based (tutorial sampler).

    ``seen`` maps each id to its node: a lazily streamed node the
    consumer drops could otherwise be freed and its id handed to a
    later, different node."""
    seen: dict[int, Node] = {}
    for item in arg:
        if not isinstance(item, Node):
            raise TypeError_("fn:distinct-nodes requires nodes")
        if id(item) not in seen:
            seen[id(item)] = item
            yield item


@register("index-of", 2)
def fn_index_of(dctx, seq, target):
    """``fn:index-of(anyAtomicType*, anyAtomicType) as xs:integer*``"""
    from repro.runtime.compare import _general_pair  # noqa: SLF001 - shared core

    values = atomized(seq)
    targets = atomized(target)
    if len(targets) != 1:
        raise TypeError_("fn:index-of requires a single search value")
    needle = targets[0]
    out = []
    for i, value in enumerate(values, start=1):
        try:
            if _general_pair("eq", value, needle):
                out.append(integer(i))
        except TypeError_:
            continue
    return out


@register("insert-before", 3, lazy=True)
def fn_insert_before(dctx, seq, position, inserts):
    """``fn:insert-before(item()*, xs:integer, item()*) as item()*``"""
    pos_value = numeric_arg(position)
    pos = max(int(pos_value.value), 1) if pos_value is not None else 1
    inserted = False
    i = 0
    for item in seq:
        i += 1
        if i == pos:
            inserted = True
            yield from inserts
        yield item
    if not inserted:
        yield from inserts


@register("remove", 2, lazy=True)
def fn_remove(dctx, seq, position):
    """``fn:remove(item()*, xs:integer) as item()*``"""
    pos_value = numeric_arg(position)
    pos = int(pos_value.value) if pos_value is not None else 0
    for i, item in enumerate(seq, start=1):
        if i != pos:
            yield item


@register("reverse", 1)
def fn_reverse(dctx, seq):
    """``fn:reverse(item()*) as item()*``"""
    return list(reversed(list(seq)))


@register("subsequence", 2, 3, lazy=True)
def fn_subsequence(dctx, seq, start, *rest):
    """``fn:subsequence(item()*, xs:double[, xs:double]) as item()*`` —
    lazy: the items at the positions :func:`position_window` keeps,
    pulling none past the last of them."""
    window = position_window(rounded_double(start),
                             rounded_double(rest[0]) if rest else None)
    if window is None:
        return
    first, end = window
    for i, item in enumerate(seq, start=1):
        if i >= first:
            yield item
        if i + 1 >= end:
            return


@register("unordered", 1, lazy=True)
def fn_unordered(dctx, seq):
    """``fn:unordered(item()*) as item()*`` — an optimizer annotation."""
    return seq


@register("zero-or-one", 1)
def fn_zero_or_one(dctx, seq):
    """``fn:zero-or-one(item()*) as item()?`` — err:FORG0003 otherwise."""
    items = list(seq)
    if len(items) > 1:
        raise DynamicError("fn:zero-or-one: more than one item", code="FORG0003")
    return items


@register("one-or-more", 1)
def fn_one_or_more(dctx, seq):
    """``fn:one-or-more(item()*) as item()+`` — err:FORG0004 otherwise."""
    items = list(seq)
    if not items:
        raise DynamicError("fn:one-or-more: empty sequence", code="FORG0004")
    return items


@register("exactly-one", 1)
def fn_exactly_one(dctx, seq):
    """``fn:exactly-one(item()*) as item()`` — err:FORG0005 otherwise."""
    items = list(seq)
    if len(items) != 1:
        raise DynamicError("fn:exactly-one: not exactly one item", code="FORG0005")
    return items


@register("union", 2)
def fn_union(dctx, left, right):
    """``fn:union(node()*, node()*) as node()*`` (tutorial sampler) — doc order, distinct."""
    nodes = [item for item in list(left) + list(right)]
    if not all(isinstance(n, Node) for n in nodes):
        raise TypeError_("fn:union requires node sequences")
    return in_document_order(nodes)


@register("except", 2)
def fn_except(dctx, left, right):
    """``fn:except(node()*, node()*) as node()*`` (tutorial sampler)."""
    right_ids = {id(item) for item in right}
    nodes = [item for item in left if id(item) not in right_ids]
    if not all(isinstance(n, Node) for n in nodes):
        raise TypeError_("fn:except requires node sequences")
    return in_document_order(nodes)


@register("position", 0, context_sensitive=True)
def fn_position(dctx):
    """``fn:position() as xs:integer`` — the focus position."""
    if dctx.position <= 0:
        raise DynamicError("position() outside of any focus", code="XPDY0002")
    return [integer(dctx.position)]


@register("last", 0, context_sensitive=True)
def fn_last(dctx):
    """``fn:last() as xs:integer`` — the focus size (resolved lazily)."""
    size = dctx.size
    if callable(size):
        size = size()
    if not size:
        raise DynamicError("last() outside of any focus", code="XPDY0002")
    return [integer(size)]


@register("deep-equal", 2)
def fn_deep_equal(dctx, left, right):
    """``fn:deep-equal(item()*, item()*) as xs:boolean``"""
    return [boolean(_deep_equal_seqs(list(left), list(right)))]


def _deep_equal_seqs(a: list, b: list) -> bool:
    if len(a) != len(b):
        return False
    return all(_deep_equal_items(x, y) for x, y in zip(a, b))


def _deep_equal_items(a: Any, b: Any) -> bool:
    from repro.runtime.compare import value_compare

    if isinstance(a, AtomicValue) and isinstance(b, AtomicValue):
        try:
            return value_compare("eq", a, b)
        except TypeError_:
            return False
    if isinstance(a, Node) and isinstance(b, Node):
        if a.kind != b.kind:
            return False
        if a.node_name != b.node_name:
            return False
        if isinstance(a, ElementNode) and isinstance(b, ElementNode):
            a_attrs = {attr.name: attr.value for attr in a.attributes}
            b_attrs = {attr.name: attr.value for attr in b.attributes}
            if a_attrs != b_attrs:
                return False
            a_children = [c for c in a.children if c.kind in ("element", "text")]
            b_children = [c for c in b.children if c.kind in ("element", "text")]
            return _deep_equal_seqs(a_children, b_children)
        return a.string_value == b.string_value
    return False
