"""Lexical parsing and the cast matrix.

Three public operations, mirroring XQuery's ``cast as`` / ``castable
as`` and the implicit casts the arithmetic/comparison rules perform:

- :func:`parse_lexical` — string → typed Python value for a target type
  (used by validation and by casts *from* string/untypedAtomic);
- :func:`cast_value` — typed value → typed value (the full matrix);
- :func:`castable` — predicate form of :func:`cast_value`.

Python value representations::

    string tower / anyURI / NOTATION / g* types   str
    boolean                                       bool
    integer tower                                 int
    decimal                                       decimal.Decimal
    float / double                                float
    duration (and xdt sub-durations)              Duration
    date / time / dateTime                        datetime.date/.time/.datetime
    hexBinary / base64Binary                      bytes
    QName                                         repro.qname.QName
"""

from __future__ import annotations

import base64
import binascii
import math
import re
from dataclasses import dataclass
from datetime import date, datetime, time, timedelta, timezone
from decimal import Decimal, InvalidOperation
from typing import Any

from repro.errors import CastError, TypeError_
from repro.qname import QName
from repro.xsd import types as T
from repro.xsd.facets import check_facets


@dataclass(frozen=True, order=False)
class Duration:
    """An xs:duration: a month part and a second part.

    XML Schema durations are partially ordered; the xdt sub-types
    (yearMonthDuration / dayTimeDuration) restrict to one component and
    are totally ordered.  We keep both components and let the type
    annotation say which is meaningful.
    """

    months: int = 0
    seconds: float = 0.0

    def __neg__(self) -> "Duration":
        return Duration(-self.months, -self.seconds)

    def __add__(self, other: "Duration") -> "Duration":
        return Duration(self.months + other.months, self.seconds + other.seconds)

    def __sub__(self, other: "Duration") -> "Duration":
        return Duration(self.months - other.months, self.seconds - other.seconds)

    def scaled(self, factor: float) -> "Duration":
        return Duration(round(self.months * factor), self.seconds * factor)

    def __lt__(self, other: "Duration") -> bool:
        if self.months != other.months and self.seconds != other.seconds \
                and (self.months < other.months) != (self.seconds < other.seconds):
            raise TypeError_("durations with mixed components are incomparable")
        return (self.months, self.seconds) < (other.months, other.seconds)

    def __le__(self, other: "Duration") -> bool:
        return self == other or self < other

    def __gt__(self, other: "Duration") -> bool:
        return other < self

    def __ge__(self, other: "Duration") -> bool:
        return self == other or other < self

    def lexical(self) -> str:
        """Canonical lexical form, e.g. ``P1Y2M3DT4H5M6S``."""
        if self.months == 0 and self.seconds == 0:
            return "PT0S"
        sign = "-" if (self.months < 0 or self.seconds < 0) else ""
        months = abs(self.months)
        secs = abs(self.seconds)
        years, months = divmod(months, 12)
        days, rem = divmod(secs, 86400)
        hours, rem = divmod(rem, 3600)
        minutes, seconds = divmod(rem, 60)
        out = [sign, "P"]
        if years:
            out.append(f"{years}Y")
        if months:
            out.append(f"{months}M")
        if days:
            out.append(f"{int(days)}D")
        if hours or minutes or seconds:
            out.append("T")
            if hours:
                out.append(f"{int(hours)}H")
            if minutes:
                out.append(f"{int(minutes)}M")
            if seconds:
                text = f"{seconds:.6f}".rstrip("0").rstrip(".")
                out.append(f"{text}S")
        return "".join(out)


_DURATION_RE = re.compile(
    r"(-)?P(?:(\d+)Y)?(?:(\d+)M)?(?:(\d+)D)?"
    r"(?:T(?:(\d+)H)?(?:(\d+)M)?(?:(\d+(?:\.\d+)?)S)?)?$")

_DATETIME_RE = re.compile(
    r"(-?\d{4,})-(\d{2})-(\d{2})T(\d{2}):(\d{2}):(\d{2})(\.\d+)?"
    r"(Z|[+-]\d{2}:\d{2})?$")
_DATE_RE = re.compile(r"(-?\d{4,})-(\d{2})-(\d{2})(Z|[+-]\d{2}:\d{2})?$")
_TIME_RE = re.compile(r"(\d{2}):(\d{2}):(\d{2})(\.\d+)?(Z|[+-]\d{2}:\d{2})?$")

_GYEAR_RE = re.compile(r"-?\d{4,}(Z|[+-]\d{2}:\d{2})?$")
_GYEARMONTH_RE = re.compile(r"-?\d{4,}-\d{2}(Z|[+-]\d{2}:\d{2})?$")
_GMONTHDAY_RE = re.compile(r"--\d{2}-\d{2}(Z|[+-]\d{2}:\d{2})?$")
_GDAY_RE = re.compile(r"---\d{2}(Z|[+-]\d{2}:\d{2})?$")
_GMONTH_RE = re.compile(r"--\d{2}(Z|[+-]\d{2}:\d{2})?$")

_INTEGER_RE = re.compile(r"[+-]?\d+$")
_DECIMAL_RE = re.compile(r"[+-]?(\d+(\.\d*)?|\.\d+)$")

_INTEGER_BOUNDS: dict[str, tuple[int | None, int | None]] = {
    "nonPositiveInteger": (None, 0),
    "negativeInteger": (None, -1),
    "long": (-2 ** 63, 2 ** 63 - 1),
    "int": (-2 ** 31, 2 ** 31 - 1),
    "short": (-2 ** 15, 2 ** 15 - 1),
    "byte": (-128, 127),
    "nonNegativeInteger": (0, None),
    "unsignedLong": (0, 2 ** 64 - 1),
    "unsignedInt": (0, 2 ** 32 - 1),
    "unsignedShort": (0, 2 ** 16 - 1),
    "unsignedByte": (0, 255),
    "positiveInteger": (1, None),
}


def _parse_tz(tz_text: str | None):
    if not tz_text:
        return None
    if tz_text == "Z":
        return timezone.utc
    sign = 1 if tz_text[0] == "+" else -1
    hours, minutes = tz_text[1:].split(":")
    return timezone(sign * timedelta(hours=int(hours), minutes=int(minutes)))


def _err(lexical: str, target: T.AtomicType) -> CastError:
    return CastError(f"cannot cast {lexical!r} to {target}")


# -- per-primitive lexical parsers -------------------------------------------
#
# One function per primitive, ``(target, lexical) -> value``; facets are
# the caller's job (:func:`parse_lexical`).  ``target`` is the requested
# type, which a parser consults only where a built-in derived type
# narrows the lexical space (the string and integer towers, the xdt
# durations).

#: the XML whitespace characters (``str.strip()`` alone would also eat
#: Unicode spaces, which are not whitespace to XML Schema)
_XML_WS = " \t\r\n"

#: XSD 1.0 double/float: optional sign, digits with optional fraction,
#: optional exponent — ASCII digits only.  Python's ``float()`` accepts
#: far more (``1_0``, ``inf``, ``Infinity``, ``nan``), hence the check.
_DOUBLE_RE = re.compile(r"[+-]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?\Z")
_DOUBLE_SPECIALS = {"INF": math.inf, "-INF": -math.inf, "NaN": math.nan}


def parse_double(target: T.AtomicType, lexical: str) -> float:
    """The double/float lexical lane: one regex, one ``float()`` (also
    how a general comparison reads untyped data against a number)."""
    text = lexical.strip(_XML_WS)
    if _DOUBLE_RE.match(text):
        return float(text)
    special = _DOUBLE_SPECIALS.get(text)
    if special is None:
        raise _err(lexical, target)
    return special


def _parse_string(target, lexical):
    if target is T.XS_STRING:
        return lexical
    # normalizedString and below collapse whitespace
    if target.derives_from(T.XS_TOKEN):
        return re.sub(r"[ \t\r\n]+", " ", lexical).strip()
    return lexical.replace("\t", " ").replace("\r", " ").replace("\n", " ")


def _parse_boolean(target, lexical):
    text = lexical.strip()
    if text in ("true", "1"):
        return True
    if text in ("false", "0"):
        return False
    raise _err(lexical, target)


def _parse_decimal(target, lexical):
    text = lexical.strip()
    if target.is_integer:
        if not _INTEGER_RE.match(text):
            raise _err(lexical, target)
        value = int(text)
        low, high = _INTEGER_BOUNDS.get(target.name.local, (None, None))
        if (low is not None and value < low) or (high is not None and value > high):
            raise _err(lexical, target)
        return value
    if not _DECIMAL_RE.match(text):
        raise _err(lexical, target)
    try:
        return Decimal(text)
    except InvalidOperation:
        raise _err(lexical, target) from None


def _parse_duration(target, lexical):
    m = _DURATION_RE.match(lexical.strip())
    if not m or lexical.strip() in ("P", "-P"):
        raise _err(lexical, target)
    sign = -1 if m.group(1) else 1
    years, months, days, hours, minutes = (int(g or 0) for g in m.groups()[1:6])
    seconds = float(m.group(7) or 0)
    total_months = sign * (years * 12 + months)
    total_seconds = sign * (days * 86400 + hours * 3600 + minutes * 60 + seconds)
    if target is T.YEAR_MONTH_DURATION and total_seconds:
        raise _err(lexical, target)
    if target is T.DAY_TIME_DURATION and total_months:
        raise _err(lexical, target)
    return Duration(total_months, total_seconds)


def _parse_datetime(target, lexical):
    m = _DATETIME_RE.match(lexical.strip())
    if not m:
        raise _err(lexical, target)
    frac = m.group(7)
    try:
        return datetime(int(m.group(1)), int(m.group(2)), int(m.group(3)),
                        int(m.group(4)), int(m.group(5)), int(m.group(6)),
                        int(float(frac) * 1e6) if frac else 0,
                        tzinfo=_parse_tz(m.group(8)))
    except ValueError:
        raise _err(lexical, target) from None


def _parse_date(target, lexical):
    m = _DATE_RE.match(lexical.strip())
    if not m:
        raise _err(lexical, target)
    try:
        return date(int(m.group(1)), int(m.group(2)), int(m.group(3)))
    except ValueError:
        raise _err(lexical, target) from None


def _parse_time(target, lexical):
    m = _TIME_RE.match(lexical.strip())
    if not m:
        raise _err(lexical, target)
    frac = m.group(4)
    try:
        return time(int(m.group(1)), int(m.group(2)), int(m.group(3)),
                    int(float(frac) * 1e6) if frac else 0,
                    tzinfo=_parse_tz(m.group(5)))
    except ValueError:
        raise _err(lexical, target) from None


def _gregorian_parser(regex):
    def parse(target, lexical):
        text = lexical.strip()
        if not regex.match(text):
            raise _err(lexical, target)
        return text
    return parse


def _parse_hexbinary(target, lexical):
    try:
        return binascii.unhexlify(lexical.strip())
    except (binascii.Error, ValueError):
        raise _err(lexical, target) from None


def _parse_base64binary(target, lexical):
    try:
        return base64.b64decode(lexical.strip(), validate=True)
    except (binascii.Error, ValueError):
        raise _err(lexical, target) from None


def _parse_qname(target, lexical):
    text = lexical.strip()
    if ":" in text:
        prefix, loc = text.split(":", 1)
        return QName("", loc, prefix)  # resolution needs in-scope NS; caller's job
    return QName("", text)


#: primitive type -> its lexical parser; a type whose primitive is not
#: here (the abstract roots) has no lexical space
_LEXICAL_PARSERS = {
    T.UNTYPED_ATOMIC: lambda target, lexical: lexical,
    T.XS_STRING: _parse_string,
    T.XS_BOOLEAN: _parse_boolean,
    T.XS_DECIMAL: _parse_decimal,
    T.XS_FLOAT: parse_double,
    T.XS_DOUBLE: parse_double,
    T.XS_DURATION: _parse_duration,
    T.XS_DATETIME: _parse_datetime,
    T.XS_DATE: _parse_date,
    T.XS_TIME: _parse_time,
    T.xs_type("gYear"): _gregorian_parser(_GYEAR_RE),
    T.xs_type("gYearMonth"): _gregorian_parser(_GYEARMONTH_RE),
    T.xs_type("gMonthDay"): _gregorian_parser(_GMONTHDAY_RE),
    T.xs_type("gDay"): _gregorian_parser(_GDAY_RE),
    T.xs_type("gMonth"): _gregorian_parser(_GMONTH_RE),
    T.XS_HEXBINARY: _parse_hexbinary,
    T.XS_BASE64BINARY: _parse_base64binary,
    T.XS_ANYURI: lambda target, lexical: lexical.strip(),
    T.XS_QNAME: _parse_qname,
    T.xs_type("NOTATION"): _parse_qname,
}


def parse_lexical(target: T.AtomicType, lexical: str) -> Any:
    """Parse ``lexical`` into the Python value space of ``target``.

    Dispatches on ``target.primitive`` through :data:`_LEXICAL_PARSERS`
    (one dict probe, no type-test cascade).  Whitespace is collapsed
    per the whiteSpace facet conventions of the primitive.  Facets of
    derived types are enforced; the facet-free built-ins skip the call.
    """
    parser = _LEXICAL_PARSERS.get(target.primitive)
    if parser is None:
        raise _err(lexical, target)
    value = parser(target, lexical)
    if target.facet_chain:
        check_facets(target, value)
    return value


# -- cast matrix -------------------------------------------------------------

def cast_value(value: Any, source: T.AtomicType, target: T.AtomicType) -> Any:
    """Cast a typed value to ``target``, per the XQuery cast matrix.

    Raises :class:`CastError` when the combination is disallowed or the
    specific value does not fit.
    """
    # The hot lane: text from a non-validated document to xs:double —
    # every ``xs:double(path)`` and every untyped-vs-numeric comparison.
    if target is T.XS_DOUBLE and source is T.UNTYPED_ATOMIC:
        return parse_double(target, value)

    if target is T.ANY_ATOMIC or target is T.ANY_SIMPLE_TYPE:
        raise CastError(f"cannot cast to abstract type {target}")

    # Identity / restriction within the same primitive.
    if source is target:
        check_facets(target, value)
        return value

    # From string or untypedAtomic: parse the lexical form.
    if source.primitive is T.XS_STRING or source is T.UNTYPED_ATOMIC:
        return parse_lexical(target, str(value))

    sprim, tprim = source.primitive, target.primitive

    # To string / untypedAtomic: canonical lexical form.
    if tprim is T.XS_STRING or target is T.UNTYPED_ATOMIC:
        out: Any = canonical_lexical(value, source)
        check_facets(target, out)
        return out

    if sprim is tprim:
        # e.g. integer → decimal, decimal → integer, long → byte
        if target.is_integer:
            out = int(value)
            low, high = _INTEGER_BOUNDS.get(target.name.local, (None, None))
            if (low is not None and out < low) or (high is not None and out > high):
                raise CastError(f"value {value} out of range for {target}")
        elif tprim is T.XS_DECIMAL:
            out = value if isinstance(value, Decimal) else Decimal(value)
        elif tprim is T.XS_DURATION:
            out = value
            if target is T.YEAR_MONTH_DURATION:
                out = Duration(value.months, 0.0)
            elif target is T.DAY_TIME_DURATION:
                out = Duration(0, value.seconds)
        else:
            out = value
        check_facets(target, out)
        return out

    # Numeric ↔ numeric.
    if T.is_numeric(source) and T.is_numeric(target):
        try:
            if target.is_integer:
                if isinstance(value, float) and (math.isnan(value) or math.isinf(value)):
                    raise CastError(f"cannot cast {value} to {target}")
                out = int(value)
                low, high = _INTEGER_BOUNDS.get(target.name.local, (None, None))
                if (low is not None and out < low) or (high is not None and out > high):
                    raise CastError(f"value {value} out of range for {target}")
            elif tprim is T.XS_DECIMAL:
                if isinstance(value, float) and (math.isnan(value) or math.isinf(value)):
                    raise CastError(f"cannot cast {value} to xs:decimal")
                out = Decimal(str(value)) if isinstance(value, float) else Decimal(value)
            else:
                out = float(value)
        except (InvalidOperation, ValueError, OverflowError):
            raise CastError(f"cannot cast {value} to {target}") from None
        check_facets(target, out)
        return out

    # Numeric/other → boolean.
    if tprim is T.XS_BOOLEAN and T.is_numeric(source):
        out = not (value == 0 or (isinstance(value, float) and math.isnan(value)))
        check_facets(target, out)
        return out
    if sprim is T.XS_BOOLEAN and T.is_numeric(target):
        return cast_value(1 if value else 0, T.XS_INTEGER, target)

    # dateTime → date/time and date → dateTime.
    if sprim is T.XS_DATETIME and tprim is T.XS_DATE:
        return value.date()
    if sprim is T.XS_DATETIME and tprim is T.XS_TIME:
        return value.timetz()
    if sprim is T.XS_DATE and tprim is T.XS_DATETIME:
        return datetime(value.year, value.month, value.day)

    # anyURI → string handled above; string-family interconversion too.
    raise CastError(f"no cast from {source} to {target}")


def castable(value: Any, source: T.AtomicType, target: T.AtomicType) -> bool:
    """Predicate form of :func:`cast_value` (``castable as``)."""
    try:
        cast_value(value, source, target)
        return True
    except (CastError, TypeError_):
        return False


def canonical_lexical(value: Any, source: T.AtomicType) -> str:
    """Canonical string form of a typed value (used by ``fn:string``)."""
    if type(value) is str:
        return value  # string-valued types are their own lexical form
    prim = source.primitive
    if prim is T.XS_BOOLEAN:
        return "true" if value else "false"
    if prim in (T.XS_FLOAT, T.XS_DOUBLE):
        if math.isnan(value):
            return "NaN"
        if math.isinf(value):
            return "INF" if value > 0 else "-INF"
        if value == int(value) and abs(value) < 1e16:
            return str(int(value))
        return repr(value)
    if prim is T.XS_DECIMAL:
        if isinstance(value, Decimal):
            text = format(value, "f")
            return text
        return str(value)
    if prim is T.XS_DURATION:
        return value.lexical()
    if prim is T.XS_DATETIME:
        return value.isoformat()
    if prim is T.XS_DATE:
        return value.isoformat()
    if prim is T.XS_TIME:
        return value.isoformat()
    if prim is T.XS_HEXBINARY:
        return value.hex().upper()
    if prim is T.XS_BASE64BINARY:
        return base64.b64encode(value).decode("ascii")
    if prim is T.XS_QNAME:
        return str(value)
    return str(value)


def promote_numeric(value: Any, source: T.AtomicType, target: T.AtomicType) -> Any:
    """Numeric type promotion (decimal → float → double) — never narrowing."""
    return cast_value(value, source, target)
