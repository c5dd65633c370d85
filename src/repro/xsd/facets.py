"""Constraining facets for user-derived atomic types.

A derived type like ``myNS:ShoeSize`` restricts its base's value space;
facets are the restriction predicates.  ``check_facets`` is called by
the cast machinery whenever a value is cast *to* a derived type, so
``8 cast as myNS:ShoeSize`` really does enforce the restriction.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any

from repro.errors import CastError


class Facet:
    """Base class; subclasses implement :meth:`check`."""

    def check(self, value: Any) -> bool:  # pragma: no cover - interface
        raise NotImplementedError

    def describe(self) -> str:  # pragma: no cover - interface
        raise NotImplementedError


@dataclass(frozen=True)
class MinInclusive(Facet):
    bound: Any

    def check(self, value: Any) -> bool:
        return value >= self.bound

    def describe(self) -> str:
        return f"minInclusive={self.bound}"


@dataclass(frozen=True)
class MaxInclusive(Facet):
    bound: Any

    def check(self, value: Any) -> bool:
        return value <= self.bound

    def describe(self) -> str:
        return f"maxInclusive={self.bound}"


@dataclass(frozen=True)
class MinExclusive(Facet):
    bound: Any

    def check(self, value: Any) -> bool:
        return value > self.bound

    def describe(self) -> str:
        return f"minExclusive={self.bound}"


@dataclass(frozen=True)
class MaxExclusive(Facet):
    bound: Any

    def check(self, value: Any) -> bool:
        return value < self.bound

    def describe(self) -> str:
        return f"maxExclusive={self.bound}"


@dataclass(frozen=True)
class Length(Facet):
    length: int

    def check(self, value: Any) -> bool:
        return len(value) == self.length

    def describe(self) -> str:
        return f"length={self.length}"


@dataclass(frozen=True)
class MinLength(Facet):
    length: int

    def check(self, value: Any) -> bool:
        return len(value) >= self.length

    def describe(self) -> str:
        return f"minLength={self.length}"


@dataclass(frozen=True)
class MaxLength(Facet):
    length: int

    def check(self, value: Any) -> bool:
        return len(value) <= self.length

    def describe(self) -> str:
        return f"maxLength={self.length}"


class Pattern(Facet):
    """Regular-expression facet (anchored, as XML Schema requires)."""

    def __init__(self, pattern: str):
        self.pattern = pattern
        self._regex = re.compile(pattern)

    def check(self, value: Any) -> bool:
        return self._regex.fullmatch(str(value)) is not None

    def describe(self) -> str:
        return f"pattern={self.pattern!r}"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Pattern) and other.pattern == self.pattern

    def __hash__(self) -> int:
        return hash(("Pattern", self.pattern))


class Enumeration(Facet):
    def __init__(self, *values: Any):
        self.values = frozenset(values)

    def check(self, value: Any) -> bool:
        return value in self.values

    def describe(self) -> str:
        return f"enumeration={sorted(map(str, self.values))}"


@dataclass(frozen=True)
class TotalDigits(Facet):
    digits: int

    def check(self, value: Any) -> bool:
        text = str(value).lstrip("-").replace(".", "")
        return len(text.lstrip("0") or "0") <= self.digits

    def describe(self) -> str:
        return f"totalDigits={self.digits}"


def check_facets(atype, value: Any) -> None:
    """Check ``value`` against every facet on ``atype``'s derivation chain.

    The chain is flattened once, when the type is built
    (``AtomicType.facet_chain``), so for the facet-free built-ins this
    is a loop over an empty tuple.  Raises :class:`CastError` on the
    first violated facet.
    """
    for facet in atype.facet_chain:
        if not facet.check(value):
            raise CastError(
                f"value {value!r} violates facet {facet.describe()} of type {atype}")
