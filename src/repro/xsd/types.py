"""The atomic type hierarchy.

XML Schema defines 19 *primitive* atomic types plus a tower of built-in
derived types (``xs:integer`` derives from ``xs:decimal``, ``xs:byte``
from ``xs:short`` from ``xs:int`` ...).  XQuery adds
``xdt:untypedAtomic`` (the type of all text in non-validated documents)
and the complex type ``xdt:untyped`` for non-validated elements.

Types are interned singletons: identity comparison is safe once a type
has been obtained from a :class:`TypeRegistry` or the module-level
builtins.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.qname import QName, XDT_NS, XS_NS, xdt, xs


#: numeric promotion ranks (``decimal < float < double``), by primitive
_NUMERIC_RANKS = {xs("decimal"): 0, xs("float"): 1, xs("double"): 2}
#: a type deriving directly from one of these is its own primitive
_ABSTRACT_ROOTS = (xdt("anyAtomicType"), xs("anySimpleType"))
_STRING_LIKE = (xs("string"), xs("anyURI"), xdt("untypedAtomic"))
_XS_INTEGER = xs("integer")


class AtomicType:
    """An atomic (simple, non-list, non-union) schema type.

    ``base`` is the type this one derives from by restriction;
    ``facets`` (see :mod:`repro.xsd.facets`) constrain the value space
    of user-derived types.

    The *type facts* every comparison and cast dispatches on are
    computed once, here, from the base's facts — so the hot paths read
    an attribute instead of walking the derivation chain:

    - ``primitive`` — the primitive ancestor (self, for primitives);
    - ``numeric_rank`` — ``None`` for non-numeric types, else the
      promotion rank (0 decimal tower, 1 float, 2 double);
    - ``string_like`` — compares by string value: the ``xs:string``
      tower, ``xs:anyURI`` and ``xdt:untypedAtomic``;
    - ``is_integer`` — derives from ``xs:integer``;
    - ``facet_chain`` — the facets of the whole derivation chain,
      most-derived first (empty for every built-in).
    """

    __slots__ = ("name", "base", "facets", "primitive", "numeric_rank",
                 "string_like", "is_integer", "facet_chain")

    def __init__(self, name: QName, base: Optional["AtomicType"], facets=None):
        self.name = name
        self.base = base
        self.facets = tuple(facets or ())
        if base is None or base.name in _ABSTRACT_ROOTS:
            self.primitive: AtomicType = self
            self.numeric_rank: int | None = _NUMERIC_RANKS.get(name)
            self.string_like: bool = name in _STRING_LIKE
            self.is_integer = False
            self.facet_chain: tuple = self.facets
        else:
            self.primitive = base.primitive
            self.numeric_rank = base.numeric_rank
            self.string_like = base.string_like
            self.is_integer = base.is_integer or name == _XS_INTEGER
            self.facet_chain = self.facets + base.facet_chain

    def __repr__(self) -> str:
        return f"AtomicType({self.name})"

    def __str__(self) -> str:
        return str(self.name)

    def derives_from(self, other: "AtomicType") -> bool:
        """True if self is ``other`` or derives (transitively) from it."""
        t: AtomicType | None = self
        while t is not None:
            if t is other:
                return True
            t = t.base
        return False

    def ancestry(self) -> Iterator["AtomicType"]:
        t: AtomicType | None = self
        while t is not None:
            yield t
            t = t.base


# --------------------------------------------------------------------------
# The built-in hierarchy.
# --------------------------------------------------------------------------

#: xs:anyType — the root of the whole type hierarchy (complex types too).
ANY_TYPE = AtomicType(xs("anyType"), None)
#: xs:anySimpleType — root of all simple types.
ANY_SIMPLE_TYPE = AtomicType(xs("anySimpleType"), ANY_TYPE)
#: xdt:anyAtomicType — root of all atomic types.
ANY_ATOMIC = AtomicType(xdt("anyAtomicType"), ANY_SIMPLE_TYPE)
#: xdt:untyped — the dynamic type of non-validated element nodes.
UNTYPED = AtomicType(xdt("untyped"), ANY_TYPE)
#: xdt:untypedAtomic — the type of atomic values from non-validated data.
UNTYPED_ATOMIC = AtomicType(xdt("untypedAtomic"), ANY_ATOMIC)

_PRIMITIVE_NAMES = (
    "string", "boolean", "decimal", "float", "double", "duration",
    "dateTime", "time", "date", "gYearMonth", "gYear", "gMonthDay",
    "gDay", "gMonth", "hexBinary", "base64Binary", "anyURI", "QName",
    "NOTATION",
)

_BUILTINS: dict[QName, AtomicType] = {
    ANY_TYPE.name: ANY_TYPE,
    ANY_SIMPLE_TYPE.name: ANY_SIMPLE_TYPE,
    ANY_ATOMIC.name: ANY_ATOMIC,
    UNTYPED.name: UNTYPED,
    UNTYPED_ATOMIC.name: UNTYPED_ATOMIC,
}


def _define(local: str, base: AtomicType) -> AtomicType:
    t = AtomicType(xs(local), base)
    _BUILTINS[t.name] = t
    return t


for _name in _PRIMITIVE_NAMES:
    _define(_name, ANY_ATOMIC)

# Derived numeric tower.
XS_DECIMAL = _BUILTINS[xs("decimal")]
XS_INTEGER = _define("integer", XS_DECIMAL)
_define("nonPositiveInteger", XS_INTEGER)
_define("negativeInteger", _BUILTINS[xs("nonPositiveInteger")])
XS_LONG = _define("long", XS_INTEGER)
XS_INT = _define("int", XS_LONG)
XS_SHORT = _define("short", XS_INT)
_define("byte", XS_SHORT)
XS_NONNEG = _define("nonNegativeInteger", XS_INTEGER)
XS_ULONG = _define("unsignedLong", XS_NONNEG)
XS_UINT = _define("unsignedInt", XS_ULONG)
XS_USHORT = _define("unsignedShort", XS_UINT)
_define("unsignedByte", XS_USHORT)
_define("positiveInteger", XS_NONNEG)

# Derived string tower.
XS_STRING = _BUILTINS[xs("string")]
XS_NORMALIZED = _define("normalizedString", XS_STRING)
XS_TOKEN = _define("token", XS_NORMALIZED)
_define("language", XS_TOKEN)
_define("NMTOKEN", XS_TOKEN)
XS_NAME = _define("Name", XS_TOKEN)
XS_NCNAME = _define("NCName", XS_NAME)
_define("ID", XS_NCNAME)
_define("IDREF", XS_NCNAME)
_define("ENTITY", XS_NCNAME)

# Derived durations (from the 2003 xpath-datatypes draft).
XS_DURATION = _BUILTINS[xs("duration")]
YEAR_MONTH_DURATION = AtomicType(xdt("yearMonthDuration"), XS_DURATION)
DAY_TIME_DURATION = AtomicType(xdt("dayTimeDuration"), XS_DURATION)
_BUILTINS[YEAR_MONTH_DURATION.name] = YEAR_MONTH_DURATION
_BUILTINS[DAY_TIME_DURATION.name] = DAY_TIME_DURATION

# Frequently referenced singletons.
XS_BOOLEAN = _BUILTINS[xs("boolean")]
XS_FLOAT = _BUILTINS[xs("float")]
XS_DOUBLE = _BUILTINS[xs("double")]
XS_DATE = _BUILTINS[xs("date")]
XS_TIME = _BUILTINS[xs("time")]
XS_DATETIME = _BUILTINS[xs("dateTime")]
XS_ANYURI = _BUILTINS[xs("anyURI")]
XS_QNAME = _BUILTINS[xs("QName")]
XS_HEXBINARY = _BUILTINS[xs("hexBinary")]
XS_BASE64BINARY = _BUILTINS[xs("base64Binary")]


def is_numeric(t: AtomicType) -> bool:
    """True for the numeric types (decimal tower, float, double).

    One attribute read: the rank is a type fact fixed at construction.
    """
    return t.numeric_rank is not None


def builtin_types() -> dict[QName, AtomicType]:
    """A copy of the built-in name → type table."""
    return dict(_BUILTINS)


def xs_type(local: str) -> AtomicType:
    """Look up a built-in type by its local name, e.g. ``xs_type("integer")``.

    Names in the ``xdt`` namespace (untypedAtomic, dayTimeDuration, ...)
    are found too.
    """
    qn = QName(XS_NS, local)
    if qn in _BUILTINS:
        return _BUILTINS[qn]
    qn = QName(XDT_NS, local)
    if qn in _BUILTINS:
        return _BUILTINS[qn]
    raise KeyError(f"unknown built-in type {local!r}")


class TypeRegistry:
    """A name → type table: the built-ins plus user-derived types.

    This backs the "In-scope schema definitions" slot of the static
    context: importing a schema registers its types here.
    """

    def __init__(self):
        self._types: dict[QName, AtomicType] = dict(_BUILTINS)

    def lookup(self, name: QName) -> AtomicType | None:
        return self._types.get(name)

    def require(self, name: QName) -> AtomicType:
        t = self._types.get(name)
        if t is None:
            raise KeyError(f"unknown type {name}")
        return t

    def derive(self, name: QName, base: AtomicType, facets=None) -> AtomicType:
        """Register a user-derived atomic type (e.g. ``myNS:ShoeSize``)."""
        if name in self._types:
            raise ValueError(f"type {name} already defined")
        t = AtomicType(name, base, facets)
        self._types[name] = t
        return t

    def __contains__(self, name: QName) -> bool:
        return name in self._types

    def __iter__(self) -> Iterator[AtomicType]:
        return iter(self._types.values())
