"""Runtime-checkable sequence types.

The XQuery type system's workhorse: ``ItemType OccurrenceIndicator``.
Used by ``instance of``, ``typeswitch``, ``treat as``, function
parameter conversion, and the static type checker's lattice.

Occurrence algebra: ``""`` (one), ``"?"`` (zero-or-one), ``"+"``
(one-or-more), ``"*"`` (zero-or-more), plus ``"0"`` for ``empty()``.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.errors import StaticError, StaticTypeError
from repro.qname import QName
from repro.xdm.items import AtomicValue
from repro.xdm.nodes import (
    AttributeNode,
    CommentNode,
    DocumentNode,
    ElementNode,
    Node,
    PINode,
    TextNode,
)
from repro.xquery.ast import SequenceTypeAST
from repro.xsd import types as T

_KIND_CLASSES = {
    "element": ElementNode,
    "attribute": AttributeNode,
    "document": DocumentNode,
    "text": TextNode,
    "comment": CommentNode,
    "processing-instruction": PINode,
}


class SequenceType:
    """A resolved, checkable sequence type."""

    __slots__ = ("item_kind", "name", "atomic_type", "occurrence", "pi_target")

    def __init__(self, item_kind: str, occurrence: str = "",
                 name: QName | None = None,
                 atomic_type: T.AtomicType | None = None,
                 pi_target: str | None = None):
        self.item_kind = item_kind      # "empty"|"item"|"atomic"|node kinds|"node"
        self.occurrence = occurrence    # ""|"?"|"*"|"+"|"0"
        self.name = name
        self.atomic_type = atomic_type
        self.pi_target = pi_target

    def __repr__(self) -> str:
        if self.item_kind == "empty":
            return "empty()"
        if self.item_kind == "atomic":
            return f"{self.atomic_type}{self.occurrence}"
        inner = str(self.name) if self.name else ""
        return f"{self.item_kind}({inner}){self.occurrence}"

    # -- matching ------------------------------------------------------------

    def matches_item(self, item: Any) -> bool:
        kind = self.item_kind
        if kind == "empty":
            return False
        if kind == "item":
            return True
        if kind == "atomic":
            if not isinstance(item, AtomicValue):
                return False
            assert self.atomic_type is not None
            if item.type.derives_from(self.atomic_type):
                return True
            # untypedAtomic matches xdt:untypedAtomic only (strict), but
            # anyAtomicType accepts everything atomic
            return self.atomic_type is T.ANY_ATOMIC
        if not isinstance(item, Node):
            return False
        if kind == "node":
            return True
        cls = _KIND_CLASSES.get(kind)
        if cls is None or not isinstance(item, cls):
            return False
        if kind == "processing-instruction" and self.pi_target is not None:
            return item.target == self.pi_target
        if self.name is not None and kind in ("element", "attribute"):
            if self.name.local != "*" and item.name.local != self.name.local:
                return False
            if self.name.uri != "*" and item.name.uri != self.name.uri:
                return False
        return True

    def matches(self, items: list) -> bool:
        """Does a materialized sequence conform?"""
        n = len(items)
        occ = self.occurrence
        if self.item_kind == "empty" or occ == "0":
            return n == 0
        if occ == "" and n != 1:
            return False
        if occ == "?" and n > 1:
            return False
        if occ == "+" and n < 1:
            return False
        return all(self.matches_item(item) for item in items)

    # -- occurrence algebra ----------------------------------------------------

    def allows_empty(self) -> bool:
        return self.occurrence in ("?", "*", "0") or self.item_kind == "empty"

    def allows_many(self) -> bool:
        return self.occurrence in ("*", "+")


#: Common singletons.
ITEM_STAR = SequenceType("item", "*")
ITEM_ONE = SequenceType("item", "")
EMPTY = SequenceType("empty", "0")
NODE_STAR = SequenceType("node", "*")
BOOLEAN_ONE = SequenceType("atomic", "", atomic_type=T.XS_BOOLEAN)
INTEGER_ONE = SequenceType("atomic", "", atomic_type=T.XS_INTEGER)
STRING_ONE = SequenceType("atomic", "", atomic_type=T.XS_STRING)
NUMERIC_OPT = SequenceType("atomic", "?", atomic_type=T.ANY_ATOMIC)


def resolve_sequence_type(st: SequenceTypeAST, static_ctx=None) -> SequenceType:
    """Resolve a parsed sequence type against the static context."""
    if st.item_kind == "empty":
        return EMPTY
    if st.item_kind == "atomic":
        assert st.type_name is not None
        atype = None
        if static_ctx is not None:
            atype = static_ctx.lookup_type(st.type_name)
        else:
            registry = T.TypeRegistry()
            atype = registry.lookup(st.type_name)
        if atype is None:
            raise StaticTypeError(f"unknown atomic type {st.type_name}", code="XPST0051")
        if not isinstance(atype, T.AtomicType):
            raise StaticTypeError(
                f"{st.type_name} is a complex type; sequence types need simple types")
        return SequenceType("atomic", st.occurrence, atomic_type=atype)
    return SequenceType(st.item_kind, st.occurrence, name=st.name)


def resolve_atomic(name: QName, static_ctx) -> T.AtomicType:
    """The target type of ``cast as`` / ``castable as``."""
    atype = static_ctx.lookup_type(name)
    if atype is None:
        raise StaticError(f"unknown type {name}", code="XPST0051")
    if not isinstance(atype, T.AtomicType):
        raise StaticError(f"{name} is not an atomic type")
    return atype


def occurrence_union(a: str, b: str) -> str:
    """The occurrence covering either alternative (for if/typeswitch)."""
    order = {"0": 0, "": 1, "?": 2, "+": 3, "*": 4}
    rank = max(order.get(a, 4), order.get(b, 4))
    if {a, b} == {"0", ""} or {a, b} == {"0", "?"}:
        return "?"
    if "0" in (a, b) and rank >= 3:
        return "*"
    for occ, r in order.items():
        if r == rank:
            return occ
    return "*"
