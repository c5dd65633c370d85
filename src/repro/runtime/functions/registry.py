"""Registry and argument helpers for built-in functions.

Declarative registration matters to the compiler too: the paper's
"Semantic information about First Order Operators" slide insists that
properties (is it a function? does it create nodes? is it sensitive to
the dynamic context?) be *declared, not hard-coded*; the flags here
feed :mod:`repro.compiler.analysis`.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Iterable, Optional

from repro.errors import TypeError_
from repro.qname import FN_NS, QName
from repro.xdm.atomize import atomize, string_value_of
from repro.xdm.items import AtomicValue
from repro.xdm.nodes import Node
from repro.xsd import types as T
from repro.xsd.casting import cast_value


class BuiltinFunction:
    """One built-in: implementation plus the declared semantic flags."""

    __slots__ = ("name", "min_args", "max_args", "impl", "lazy",
                 "context_sensitive", "deterministic", "creates_nodes")

    def __init__(self, name: QName, impl: Callable, min_args: int, max_args: int,
                 lazy: bool = False, context_sensitive: bool = False,
                 deterministic: bool = True, creates_nodes: bool = False):
        self.name = name
        self.impl = impl
        self.min_args = min_args
        self.max_args = max_args
        #: lazy functions receive iterables; eager ones get lists
        self.lazy = lazy
        #: needs the focus / dynamic context (position(), doc(), ...)
        self.context_sensitive = context_sensitive
        #: same args → same result (false for current-dateTime in general,
        #: though within one evaluation it is stable)
        self.deterministic = deterministic
        self.creates_nodes = creates_nodes


_REGISTRY: dict[tuple[str, str], BuiltinFunction] = {}


def register(local: str, min_args: int, max_args: int | None = None,
             uri: str = FN_NS, **flags):
    """Decorator: register a built-in function implementation.

    The implementation receives ``(dctx, *args)`` where each arg is a
    list (or iterable when ``lazy=True``) of items, and returns an
    iterable of items.
    """
    def wrap(impl: Callable) -> Callable:
        name = QName(uri, local)
        _REGISTRY[(uri, local)] = BuiltinFunction(
            name, impl, min_args,
            min_args if max_args is None else max_args, **flags)
        return impl
    return wrap


def lookup(name: QName, arity: int) -> Optional[BuiltinFunction]:
    fn = _REGISTRY.get((name.uri, name.local))
    if fn is None:
        return None
    if not (fn.min_args <= arity <= (fn.max_args if fn.max_args >= 0 else arity)):
        return None
    return fn


def all_functions() -> dict[tuple[str, str], BuiltinFunction]:
    return dict(_REGISTRY)


# -- argument conversion helpers ---------------------------------------------


def atomized(seq: Iterable[Any]) -> list[AtomicValue]:
    return list(atomize(seq))


def one_atomic(seq: Iterable[Any], what: str = "argument") -> AtomicValue:
    values = atomized(seq)
    if len(values) != 1:
        raise TypeError_(f"{what} must be a single atomic value, got {len(values)}")
    return values[0]


def opt_atomic(seq: Iterable[Any], what: str = "argument") -> AtomicValue | None:
    values = atomized(seq)
    if not values:
        return None
    if len(values) > 1:
        raise TypeError_(f"{what} must be at most one atomic value")
    return values[0]


def opt_string(seq: Iterable[Any]) -> str | None:
    value = opt_atomic(seq)
    if value is None:
        return None
    return value.value if isinstance(value.value, str) else value.lexical


def string_arg(seq: Iterable[Any], default: str = "") -> str:
    """String-typed argument; empty sequence → ``default``."""
    value = opt_string(seq)
    return default if value is None else value


def numeric_arg(seq: Iterable[Any]) -> AtomicValue | None:
    value = opt_atomic(seq)
    if value is None:
        return None
    if value.type is T.UNTYPED_ATOMIC:
        return AtomicValue(cast_value(value.value, T.UNTYPED_ATOMIC, T.XS_DOUBLE),
                           T.XS_DOUBLE)
    if not T.is_numeric(value.type):
        raise TypeError_(f"expected a numeric argument, got {value.type}")
    return value


def _half_up(x: float) -> int:
    down = math.floor(x)
    return down + 1 if x - down >= 0.5 else down


def integral_double(x: float,
                    to_integral: Callable[[float], int] = _half_up) -> float:
    """An ``xs:double`` or ``xs:float`` value rounded as F&O rounds
    one: ``to_integral`` of a finite value (default ``fn:round``'s ties
    toward positive infinity; ``math.floor``, ``math.ceil`` and
    ``round`` give the other three), with a zero result keeping the
    argument's sign; NaN and the infinities are returned as they are."""
    if not math.isfinite(x):
        return x
    # a non-zero result has the argument's sign already
    return math.copysign(float(to_integral(x)), x)


def rounded_double(seq: Iterable[Any]) -> float:
    """``fn:round`` of a required ``xs:double`` argument: ``()`` is a
    type error (``err:XPTY0004``)."""
    value = numeric_arg(seq)
    if value is None:
        raise TypeError_("an empty sequence is not an xs:double")
    try:
        x = float(value.value)
    except OverflowError:  # an integer or decimal past xs:double's range
        x = math.copysign(math.inf, value.value)
    return integral_double(x)


def position_window(start: float,
                    length: float | None) -> tuple[int, float] | None:
    """The 1-based positions ``p`` that ``fn:substring`` and
    ``fn:subsequence`` keep: ``start <= p < start + length`` (F&O
    7.4.3 and 15.1.10; both bounds from :func:`rounded_double`, no
    upper one without a length).  ``(first, end)`` with ``first >= 1``
    and ``end`` possibly INF, or None when no position qualifies: a
    NaN bound fails every comparison, and -INF + INF is NaN."""
    end = math.inf if length is None else start + length
    if math.isnan(start) or math.isnan(end):
        return None
    first = max(start, 1.0)
    return (int(first), end) if first < end else None


def one_node(seq: Iterable[Any], what: str = "argument") -> Node:
    items = list(seq)
    if len(items) != 1 or not isinstance(items[0], Node):
        raise TypeError_(f"{what} must be a single node")
    return items[0]


def opt_node(seq: Iterable[Any], what: str = "argument") -> Node | None:
    items = list(seq)
    if not items:
        return None
    if len(items) > 1 or not isinstance(items[0], Node):
        raise TypeError_(f"{what} must be at most one node")
    return items[0]


def as_string_value(item: Any) -> str:
    return string_value_of(item)
