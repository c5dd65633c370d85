"""Numeric and aggregate functions."""

from __future__ import annotations

import math
from decimal import (
    ROUND_CEILING,
    ROUND_FLOOR,
    ROUND_HALF_DOWN,
    ROUND_HALF_EVEN,
    ROUND_HALF_UP,
    Decimal,
)

from repro.errors import TypeError_
from repro.runtime.functions.registry import (
    atomized,
    integral_double,
    numeric_arg,
    register,
)
from repro.xdm.atomize import string_value_of
from repro.xdm.items import AtomicValue, double, integer
from repro.xsd import types as T
from repro.xsd.casting import CastError, cast_value


@register("count", 1, lazy=True)
def fn_count(dctx, arg):
    """``fn:count(item()*) as xs:integer`` — consumes the sequence lazily."""
    return [integer(sum(1 for _ in arg))]


@register("abs", 1)
def fn_abs(dctx, arg):
    """``fn:abs(numeric?) as numeric?``"""
    value = numeric_arg(arg)
    if value is None:
        return []
    return [AtomicValue(abs(value.value), value.type)]


@register("ceiling", 1)
def fn_ceiling(dctx, arg):
    """``fn:ceiling(numeric?) as numeric?``"""
    value = numeric_arg(arg)
    if value is None:
        return []
    if isinstance(value.value, Decimal):
        return [AtomicValue(value.value.to_integral_value(ROUND_CEILING), value.type)]
    if isinstance(value.value, int):
        return [value]
    return [AtomicValue(integral_double(value.value, math.ceil), value.type)]


@register("floor", 1)
def fn_floor(dctx, arg):
    """``fn:floor(numeric?) as numeric?``"""
    value = numeric_arg(arg)
    if value is None:
        return []
    if isinstance(value.value, Decimal):
        return [AtomicValue(value.value.to_integral_value(ROUND_FLOOR), value.type)]
    if isinstance(value.value, int):
        return [value]
    return [AtomicValue(integral_double(value.value, math.floor),
                        value.type)]


@register("round", 1)
def fn_round(dctx, arg):
    """``fn:round(numeric?) as numeric?`` — ties go toward positive infinity."""
    value = numeric_arg(arg)
    if value is None:
        return []
    if isinstance(value.value, Decimal):
        # fn:round breaks ties toward positive infinity: half-up for
        # positives, half-down (toward zero) for negatives
        mode = ROUND_HALF_UP if value.value >= 0 else ROUND_HALF_DOWN
        return [AtomicValue(value.value.quantize(Decimal(1), mode), value.type)]
    if isinstance(value.value, int):
        return [value]
    return [AtomicValue(integral_double(value.value), value.type)]


@register("round-half-to-even", 1)
def fn_round_half_even(dctx, arg):
    """``fn:round-half-to-even(numeric?) as numeric?``"""
    value = numeric_arg(arg)
    if value is None:
        return []
    if isinstance(value.value, Decimal):
        return [AtomicValue(value.value.quantize(Decimal(1), ROUND_HALF_EVEN), value.type)]
    if isinstance(value.value, int):
        return [value]
    return [AtomicValue(integral_double(value.value, round), value.type)]


@register("number", 0, 1, context_sensitive=True)
def fn_number(dctx, *args):
    """``fn:number(anyAtomicType?) as xs:double`` — NaN on failure."""
    if args:
        values = atomized(args[0])
    else:
        values = atomized([dctx.context_item()])
    if len(values) != 1:
        return [double(math.nan)]
    value = values[0]
    try:
        return [double(cast_value(value.value, value.type, T.XS_DOUBLE))]
    except (CastError, TypeError_):
        return [double(math.nan)]


def _numeric_values(seq) -> list[AtomicValue]:
    out = []
    for value in atomized(seq):
        if value.type is T.UNTYPED_ATOMIC:
            value = AtomicValue(cast_value(value.value, T.UNTYPED_ATOMIC, T.XS_DOUBLE),
                                T.XS_DOUBLE)
        out.append(value)
    return out


@register("sum", 1, 2)
def fn_sum(dctx, arg, *rest):
    """``fn:sum(anyAtomicType*[, zero]) as anyAtomicType`` — untyped items promote to double."""
    values = _numeric_values(arg)
    if not values:
        if rest:
            return list(atomized(rest[0]))
        return [integer(0)]
    from repro.runtime.arithmetic import arithmetic

    total = values[0]
    for value in values[1:]:
        total = arithmetic("+", total, value)
    return [total]


@register("avg", 1)
def fn_avg(dctx, arg):
    """``fn:avg(anyAtomicType*) as anyAtomicType?``"""
    values = _numeric_values(arg)
    if not values:
        return []
    from repro.runtime.arithmetic import arithmetic

    total = values[0]
    for value in values[1:]:
        total = arithmetic("+", total, value)
    return [arithmetic("div", total, integer(len(values)))]


def _extreme(dctx, arg, op: str):
    from repro.runtime.compare import value_compare

    values = _numeric_values(arg)
    if not values:
        return []
    best = values[0]
    for value in values[1:]:
        # NaN compares false both ways, yet F&O makes any NaN the answer
        if value_compare(op, value, best) or value.value != value.value:
            best = value
    return [best]


@register("max", 1)
def fn_max(dctx, arg):
    """``fn:max(anyAtomicType*) as anyAtomicType?``"""
    return _extreme(dctx, arg, "gt")


@register("min", 1)
def fn_min(dctx, arg):
    """``fn:min(anyAtomicType*) as anyAtomicType?``"""
    return _extreme(dctx, arg, "lt")
