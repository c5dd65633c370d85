"""The four comparison families.

Value comparisons (``eq ne lt le gt ge``) compare *single* atomic
values with type checking; general comparisons (``= != < <= > >=``)
add existential quantification over both operands plus dynamic casts
of untyped data — which is why they are not transitive, as the
tutorial's ``(1,3) = (1,2)`` example shows; node comparisons (``is``)
test identity; order comparisons (``<< >>``) test document order.

Comparison lanes.  Almost every comparison a query evaluates is one of
a handful of type pairs, so :func:`value_compare` and
:func:`_general_pair` first look at ``(a.type, b.type)`` — two
attribute reads on precomputed type facts — and take a *lane*: the
numeric tower by rank, string-likes on ``.value``, untyped data against
a string-like as is, untyped data against a numeric parsed straight to
a float.  A lane allocates nothing and may assume only what the type
facts state; every other pair falls through to the cascades
(:func:`_value_cascade`, :func:`_general_cascade`), which stay the
single definition of the rare pairs and are the lanes' oracle in
``tests/test_runtime_units.py``.  :func:`compare_lane` binds an
invariant right operand into one such lane per loop activation;
:class:`HashLane` binds the other side — the keys of an invariant
filter base — into a hash table the varying right operand probes.
"""

from __future__ import annotations

import math
import operator
from decimal import Decimal
from typing import Any, Callable, Iterable, Sequence

from repro.errors import QueryCancelled, TypeError_, XQueryError
from repro.xdm.atomize import atomize_item
from repro.xdm.items import AtomicValue
from repro.xdm.nodes import Node
from repro.xdm.order import doc_order_key
from repro.xsd import types as T
from repro.xsd.casting import cast_value, parse_double

_OPS: dict[str, Callable[[Any, Any], bool]] = {
    "eq": operator.eq, "ne": operator.ne, "lt": operator.lt,
    "le": operator.le, "gt": operator.gt, "ge": operator.ge,
}


def _apply(op: str, va: Any, vb: Any) -> bool:
    try:
        return _OPS[op](va, vb)
    except KeyError:
        raise TypeError_(f"unknown value comparison {op!r}") from None


def _promote_pair(a: AtomicValue, b: AtomicValue) -> tuple[Any, Any]:
    """Promote two numerics to their common type; returns raw values."""
    ra, rb = a.type.numeric_rank, b.type.numeric_rank
    if ra == rb:
        # Decimal and int interoperate natively; float needs care
        return a.value, b.value
    target_prim = (a.type if ra > rb else b.type).primitive
    va = cast_value(a.value, a.type, target_prim) if ra < rb else a.value
    vb = cast_value(b.value, b.type, target_prim) if rb < ra else b.value
    return va, vb


def value_compare(op: str, a: AtomicValue, b: AtomicValue) -> bool:
    """``a op b`` for single atomic values; raises on incomparable types."""
    ta, tb = a.type, b.type
    ra, rb = ta.numeric_rank, tb.numeric_rank
    if ra is not None and rb is not None:
        # the numeric tower: same rank compares natively (int/Decimal
        # exactly, floats with IEEE NaN semantics — false but for ne);
        # a decimal-rank operand meets a float as a float
        va, vb = a.value, b.value
        try:
            if ra != rb:
                if ra == 0:
                    va = float(va)
                elif rb == 0:
                    vb = float(vb)
            return _OPS[op](va, vb)
        except (OverflowError, KeyError):
            pass  # an integer beyond the doubles, a bad op: the cascade's
    elif ta.string_like and tb.string_like:
        return _apply(op, a.value, b.value)
    return _value_cascade(op, a, b)


def _value_cascade(op: str, a: AtomicValue, b: AtomicValue) -> bool:
    """Every type pair, by the book — the reference the lanes front."""
    ta, tb = a.type, b.type

    # untypedAtomic behaves as string in value comparisons
    if ta is T.UNTYPED_ATOMIC:
        a = AtomicValue(str(a.value), T.XS_STRING)
        ta = T.XS_STRING
    if tb is T.UNTYPED_ATOMIC:
        b = AtomicValue(str(b.value), T.XS_STRING)
        tb = T.XS_STRING

    if T.is_numeric(ta) and T.is_numeric(tb):
        va, vb = _promote_pair(a, b)
        if isinstance(va, float) and isinstance(vb, (int,)) or \
           isinstance(vb, float) and isinstance(va, (int,)):
            va, vb = float(va), float(vb)
        # Decimal vs float: compare as float
        if isinstance(va, Decimal) and isinstance(vb, float):
            va = float(va)
        if isinstance(vb, Decimal) and isinstance(va, float):
            vb = float(vb)
        if isinstance(va, float) and math.isnan(va) or \
           isinstance(vb, float) and math.isnan(vb):
            return op == "ne"  # NaN compares false except ne
        return _apply(op, va, vb)

    pa, pb = ta.primitive, tb.primitive

    # anyURI compares with string
    if pa.string_like and pb.string_like:
        return _apply(op, str(a.value), str(b.value))

    if pa is T.XS_BOOLEAN and pb is T.XS_BOOLEAN:
        return _apply(op, a.value, b.value)

    if pa is pb and pa in (T.XS_DATE, T.XS_TIME, T.XS_DATETIME):
        va, vb = a.value, b.value
        return _apply(op, va, vb)

    if pa is T.XS_DURATION and pb is T.XS_DURATION:
        if op in ("eq", "ne"):
            return _apply(op, (a.value.months, a.value.seconds),
                          (b.value.months, b.value.seconds))
        # ordering requires the restricted sub-types
        sub = (T.YEAR_MONTH_DURATION, T.DAY_TIME_DURATION)
        if a.type in sub and b.type is a.type:
            key = (lambda d: d.months) if a.type is T.YEAR_MONTH_DURATION \
                else (lambda d: d.seconds)
            return _apply(op, key(a.value), key(b.value))
        raise TypeError_("general xs:duration values are not ordered")

    if pa is T.XS_QNAME and pb is T.XS_QNAME:
        if op not in ("eq", "ne"):
            raise TypeError_("QNames support only eq/ne")
        return _apply(op, a.value, b.value)

    if pa in (T.XS_HEXBINARY, T.XS_BASE64BINARY) and pb is pa:
        if op not in ("eq", "ne"):
            raise TypeError_("binary values support only eq/ne")
        return _apply(op, a.value, b.value)

    raise TypeError_(f"cannot compare {ta} with {tb}", code="XPTY0004")


_GENERAL_TO_VALUE = {"=": "eq", "!=": "ne", "<": "lt", "<=": "le",
                     ">": "gt", ">=": "ge"}


def general_compare(op: str, left: Iterable[AtomicValue],
                    right: Iterable[AtomicValue]) -> bool:
    """Existential comparison with the dynamic-cast coercion rules.

    Lazy in the left operand; the right operand is buffered since every
    left item must see every right item.
    """
    value_op = _GENERAL_TO_VALUE[op]
    right_items = list(right)
    if not right_items:
        return False
    for a in left:
        for b in right_items:
            if _general_pair(value_op, a, b):
                return True
    return False


def _general_pair(value_op: str, a: AtomicValue, b: AtomicValue) -> bool:
    """One pair of a general comparison (``value_op`` is ``eq`` .. ``ge``)."""
    untyped_left = a.type is T.UNTYPED_ATOMIC
    if not untyped_left and b.type is not T.UNTYPED_ATOMIC:
        return value_compare(value_op, a, b)
    untyped, other = (a, b) if untyped_left else (b, a)
    if other.type.string_like:
        return _apply(value_op, a.value, b.value)
    rank = other.type.numeric_rank
    if rank is not None:
        parsed = parse_double(T.XS_DOUBLE, untyped.value)
        try:
            number = float(other.value) if rank == 0 else other.value
            return _OPS[value_op](parsed, number) if untyped_left \
                else _OPS[value_op](number, parsed)
        except (OverflowError, KeyError):
            pass  # the cascade's error to raise
    return _general_cascade(value_op, a, b)


def _general_cascade(value_op: str, a: AtomicValue, b: AtomicValue) -> bool:
    """The coercion rules by the book — the reference the lanes front."""
    ta, tb = a.type, b.type
    if ta is T.UNTYPED_ATOMIC and tb is T.UNTYPED_ATOMIC:
        return _apply(value_op, str(a.value), str(b.value))
    if ta is T.UNTYPED_ATOMIC:
        a = _coerce_untyped(a, tb)
    elif tb is T.UNTYPED_ATOMIC:
        b = _coerce_untyped(b, ta)
    return _value_cascade(value_op, a, b)


def _coerce_untyped(untyped: AtomicValue, other_type: T.AtomicType) -> AtomicValue:
    """Cast an untyped operand to the type the other operand calls for:
    ``xs:double`` against a numeric, ``xs:string`` against a string or
    anyURI, otherwise the other operand's own type (not its primitive:
    an ``xdt:dayTimeDuration`` is ordered, its primitive is not)."""
    if other_type.numeric_rank is not None:
        target: T.AtomicType = T.XS_DOUBLE
    elif other_type.string_like:
        target = T.XS_STRING
    else:
        target = other_type
    return AtomicValue(cast_value(untyped.value, T.UNTYPED_ATOMIC, target), target)


def compare_lane(value_op: str, target: T.AtomicType | None,
                 rhs: Sequence[AtomicValue]
                 ) -> Callable[[AtomicValue], bool] | None:
    """Bind the buffered right operand of a general comparison once.

    Generated code calls this when a comparison's right operand is
    invariant across a loop: once per loop activation, at the first
    evaluation, not once per item.  Returns ``None`` for an empty
    ``rhs`` (the comparison is false and the left operand is never
    evaluated — :func:`general_compare`'s short circuit), else
    ``lane(atom) -> bool``: does ``atom``, cast to ``target`` first
    when one is given (the left operand was ``xs:T(..)`` / ``cast as``),
    compare true against some ``rhs`` item?  Outcome, error and error
    order are those of casting and then calling :func:`_general_pair`
    per right item, which is what the last lane does.  The two lanes
    above it decide a single right item on raw values: a string against
    string-likes (no rule of its own: both :func:`_general_pair` and
    :func:`value_compare` compare string-likes on ``.value``), and a
    number against a float/double cast, which is the one that saves the
    cast's ``AtomicValue``.  Every other shape — untyped data against a
    number included — is :func:`_general_pair`'s to decide.
    """
    if not rhs:
        return None
    if len(rhs) == 1:
        b = rhs[0]
        apply = _OPS[value_op]
        if target is None:
            if b.type.string_like:
                # a string or untyped data against a string: as is
                vb = b.value

                def lane(a):
                    if a.type.string_like:
                        return apply(a.value, vb)
                    return _general_pair(value_op, a, b)
                return lane
        elif target.numeric_rank:
            rank = b.type.numeric_rank
            # the right side as the float a float-ranked left meets it as
            fb = None if rank is None else \
                _as_float(b.value) if rank == 0 else b.value
            if fb is not None:
                # a float/double cast against a number: one native compare
                def lane(a):
                    return apply(cast_value(a.value, a.type, target), fb)
                return lane

    def lane(a):
        if target is not None:
            a = AtomicValue(cast_value(a.value, a.type, target), target)
        for b in rhs:
            if _general_pair(value_op, a, b):
                return True
        return False
    return lane


class HashLane:
    """A correlated equality filter ``B[K = $v]`` evaluated as a hash
    join: ``{string value of K → items of B}`` is built once per
    activation of the loop ``B`` is invariant to, and every iteration
    probes it with its own ``$v``.

    Generated code holds one lane per activation (built lazily: the
    first :meth:`table` call of a context builds its table) and calls
    it instead of re-scanning ``B``.  ``B`` is a step from a context
    node (``base``, a node → list kernel; tables are kept per context
    node) or, with ``base`` None, the items the caller passes (one
    table); ``key`` is K's step kernels, applied in turn (none for
    ``.``).  The table stands only for what the scan would decide:

    - every K atom must be string-like, and :meth:`_Table.probe`
      answers only string-like probe atoms — the ``compare_lane``
      string shape, where ``=`` is ``==`` on ``.value``, so a bucket
      holds exactly the items the scan would keep;
    - an empty ``B`` returns ``()``: the scan would evaluate neither K
      nor ``$v``, so the caller must not evaluate ``$v`` either;
    - a build that meets a non-node where K steps, a non-string-like K
      atom, or a dynamic error returns ``None`` for the whole
      activation: the caller scans, and raises where the scan raises.
      Cancellation is never swallowed.
    """

    __slots__ = ("base", "key", "token", "tables")

    def __init__(self, spec: tuple, token) -> None:
        self.base, self.key = spec
        self.token = token
        self.tables: dict[int, tuple] = {}

    def table(self, context, items=None):
        """The table of ``context``'s base (``items`` when the lane has
        no base step): ``()`` for an empty base, ``None`` to scan."""
        entry = self.tables.get(id(context))
        if entry is None:
            # the context rides along so its id cannot be reused
            entry = self.tables[id(context)] = (context,
                                                self._build(context, items))
        return entry[1]

    def _build(self, context, items):
        try:
            if self.base is not None:
                if not isinstance(context, Node):
                    return None  # the scan's XPTY0020
                items = self.base(context)
            else:
                items = list(items)
            if not items:
                return ()
            buckets: dict[str, list[int]] = {}
            token = self.token
            first, rest = (self.key[0], self.key[1:]) if self.key \
                else (None, ())
            for index, item in enumerate(items):
                if token is not None:
                    token.check()
                if first is None:
                    nodes = (item,)
                elif not isinstance(item, Node):
                    return None  # the scan's XPTY0020
                else:
                    # steps yield nodes: only the item itself can fail
                    nodes = first(item)
                    for step in rest:
                        nodes = [m for n in nodes for m in step(n)]
                for node in nodes:
                    text = node.typed_string() \
                        if isinstance(node, Node) else None
                    if text is not None:
                        keys = (text,)
                    else:
                        atoms = atomize_item(node)
                        if not all(a.type.string_like for a in atoms):
                            return None
                        keys = [a.value for a in atoms]
                    for key in keys:
                        bucket = buckets.setdefault(key, [])
                        if not bucket or bucket[-1] != index:
                            bucket.append(index)
            return _Table(items, buckets)
        except QueryCancelled:
            raise
        except XQueryError:
            return None


class _Table:
    """One base's items and their key buckets (positions into ``items``)."""

    __slots__ = ("items", "buckets")

    def __init__(self, items: list, buckets: dict[str, list[int]]) -> None:
        self.items = items
        self.buckets = buckets

    def probe(self, atoms: Sequence[AtomicValue]) -> list | None:
        """The items whose key equals some atom, in base order — the
        union of the atoms' buckets, each position once (an item whose
        key holds two probed values is kept once; the same node twice
        in the base is kept twice, as the scan keeps it).  None unless
        every atom is string-like (and there is one): the scan decides
        the rest — numbers, untyped against numbers, the empty probe."""
        if not atoms or not all(a.type.string_like for a in atoms):
            return None
        items, buckets = self.items, self.buckets
        if len(atoms) == 1:
            return [items[i] for i in buckets.get(atoms[0].value, ())]
        hits: set[int] = set()
        for atom in atoms:
            hits.update(buckets.get(atom.value, ()))
        return [items[i] for i in sorted(hits)]


def _as_float(value: Any) -> float | None:
    """``float(value)``, or None for an integer beyond the doubles
    (whose promotion error belongs to the comparison that meets it)."""
    try:
        return float(value)
    except OverflowError:
        return None


def node_compare(op: str, a: Node | None, b: Node | None) -> bool | None:
    """``is`` / ``isnot``; empty operands yield empty (None)."""
    if a is None or b is None:
        return None
    if not isinstance(a, Node) or not isinstance(b, Node):
        raise TypeError_("node comparison requires nodes", code="XPTY0004")
    same = a is b
    return same if op == "is" else not same


def order_compare(op: str, a: Node | None, b: Node | None) -> bool | None:
    """``<<`` / ``>>``; empty operands yield empty (None)."""
    if a is None or b is None:
        return None
    if not isinstance(a, Node) or not isinstance(b, Node):
        raise TypeError_("order comparison requires nodes", code="XPTY0004")
    ka, kb = doc_order_key(a), doc_order_key(b)
    return ka < kb if op == "<<" else ka > kb
