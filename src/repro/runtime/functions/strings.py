"""String functions (fn:concat, fn:contains, ...)."""

from __future__ import annotations

import math
import re

from repro.errors import DynamicError
from repro.runtime.functions.registry import (
    one_atomic,
    opt_atomic,
    opt_string,
    position_window,
    register,
    rounded_double,
    string_arg,
)
from repro.xdm.atomize import string_value_of
from repro.xdm.items import boolean, integer, string


@register("concat", 2, 64)
def fn_concat(dctx, *args):
    """``fn:concat(anyAtomicType?, ...) as xs:string``"""
    parts = []
    for arg in args:
        value = opt_atomic(arg)
        if value is not None:
            parts.append(value.lexical if not isinstance(value.value, str) else value.value)
    return [string("".join(parts))]


@register("string-join", 2)
def fn_string_join(dctx, items, separator):
    """``fn:string-join(xs:string*, xs:string) as xs:string``"""
    sep = string_arg(separator)
    parts = [v.value if isinstance(v.value, str) else v.lexical
             for v in _atomize_all(items)]
    return [string(sep.join(parts))]


def _atomize_all(seq):
    from repro.xdm.atomize import atomize

    return list(atomize(seq))


@register("string", 0, 1, context_sensitive=True)
def fn_string(dctx, *args):
    """``fn:string(item()?) as xs:string`` — string value of the argument or the context item."""
    if args:
        items = list(args[0])
        if not items:
            return [string("")]
        if len(items) > 1:
            raise DynamicError("fn:string requires at most one item")
        return [string(string_value_of(items[0]))]
    return [string(string_value_of(dctx.context_item()))]


@register("string-length", 0, 1, context_sensitive=True)
def fn_string_length(dctx, *args):
    """``fn:string-length(xs:string?) as xs:integer``"""
    if args:
        text = string_arg(args[0])
    else:
        text = string_value_of(dctx.context_item())
    return [integer(len(text))]


@register("normalize-space", 0, 1, context_sensitive=True)
def fn_normalize_space(dctx, *args):
    """``fn:normalize-space(xs:string?) as xs:string``"""
    if args:
        text = string_arg(args[0])
    else:
        text = string_value_of(dctx.context_item())
    return [string(" ".join(text.split()))]


@register("upper-case", 1)
def fn_upper_case(dctx, arg):
    """``fn:upper-case(xs:string?) as xs:string``"""
    return [string(string_arg(arg).upper())]


@register("lower-case", 1)
def fn_lower_case(dctx, arg):
    """``fn:lower-case(xs:string?) as xs:string``"""
    return [string(string_arg(arg).lower())]


@register("contains", 2)
def fn_contains(dctx, haystack, needle):
    """``fn:contains(xs:string?, xs:string?) as xs:boolean``"""
    return [boolean(string_arg(needle) in string_arg(haystack))]


@register("starts-with", 2)
def fn_starts_with(dctx, haystack, needle):
    """``fn:starts-with(xs:string?, xs:string?) as xs:boolean``"""
    return [boolean(string_arg(haystack).startswith(string_arg(needle)))]


@register("ends-with", 2)
def fn_ends_with(dctx, haystack, needle):
    """``fn:ends-with(xs:string?, xs:string?) as xs:boolean``"""
    return [boolean(string_arg(haystack).endswith(string_arg(needle)))]


@register("substring", 2, 3)
def fn_substring(dctx, source, start, *rest):
    """``fn:substring(xs:string?, xs:double[, xs:double]) as xs:string``
    — the characters at the positions :func:`position_window` keeps."""
    text = string_arg(source)
    window = position_window(rounded_double(start),
                             rounded_double(rest[0]) if rest else None)
    if window is None:
        return [string("")]
    first, end = window
    return [string(text[first - 1: None if end == math.inf
                        else int(end) - 1])]


@register("substring-before", 2)
def fn_substring_before(dctx, source, sep):
    """``fn:substring-before(xs:string?, xs:string?) as xs:string``"""
    text, s = string_arg(source), string_arg(sep)
    index = text.find(s) if s else -1
    return [string(text[:index] if index >= 0 else "")]


@register("substring-after", 2)
def fn_substring_after(dctx, source, sep):
    """``fn:substring-after(xs:string?, xs:string?) as xs:string``"""
    text, s = string_arg(source), string_arg(sep)
    index = text.find(s) if s else -1
    return [string(text[index + len(s):] if index >= 0 else "")]


@register("translate", 3)
def fn_translate(dctx, source, from_chars, to_chars):
    """``fn:translate(xs:string?, xs:string, xs:string) as xs:string``"""
    text = string_arg(source)
    src, dst = string_arg(from_chars), string_arg(to_chars)
    table: dict[int, int | None] = {}
    for i, ch in enumerate(src):
        if ord(ch) not in table:
            table[ord(ch)] = ord(dst[i]) if i < len(dst) else None
    return [string(text.translate(table))]


def _compile_regex(pattern: str, flags_text: str) -> "re.Pattern[str]":
    flags = 0
    for ch in flags_text:
        if ch == "i":
            flags |= re.IGNORECASE
        elif ch == "s":
            flags |= re.DOTALL
        elif ch == "m":
            flags |= re.MULTILINE
        elif ch == "x":
            flags |= re.VERBOSE
        else:
            raise DynamicError(f"unknown regex flag {ch!r}", code="FORX0001")
    try:
        return re.compile(pattern, flags)
    except re.error as exc:
        raise DynamicError(f"invalid regular expression: {exc}", code="FORX0002") from None


def _compile_nonempty(pattern: str, flags_text: str) -> "re.Pattern[str]":
    """A ``fn:replace`` / ``fn:tokenize`` pattern, which must not match
    the zero-length string (F&O 7.6.3, 7.6.4: err:FORX0003)."""
    regex = _compile_regex(pattern, flags_text)
    if regex.search("") is not None:
        raise DynamicError(f"regular expression {pattern!r} matches the "
                           f"zero-length string", code="FORX0003")
    return regex


@register("matches", 2, 3)
def fn_matches(dctx, source, pattern, *rest):
    """``fn:matches(xs:string?, xs:string[, flags]) as xs:boolean``"""
    regex = _compile_regex(string_arg(pattern), string_arg(rest[0]) if rest else "")
    return [boolean(regex.search(string_arg(source)) is not None)]


#: one token of a replacement string: an escaped ``\\`` or ``\$``, a
#: ``$N`` reference, or a ``\`` or ``$`` that is neither (FORX0004)
_REPLACEMENT_TOKEN = re.compile(r"\\([\\$])|\$(\d+)|([\\$])")


def _replacement(text: str, groups: int):
    """F&O 7.6.3's replacement string as a function of one match.

    ``$0`` is the whole match and ``$N`` the Nth group (``""`` when it
    matched nothing or ``N`` is past the groups but at most 9); past 9
    and the groups, the last digit is a literal and the rest is read
    again.
    """
    parts: list = []
    pos = 0
    for token in _REPLACEMENT_TOKEN.finditer(text):
        escaped, digits, stray = token.groups()
        if stray:
            raise DynamicError(f"invalid replacement string {text!r}",
                               code="FORX0004")
        parts.append(text[pos:token.start()])
        if escaped:
            parts.append(escaped)
        else:
            literal = ""
            while int(digits) > max(groups, 9):
                digits, literal = digits[:-1], digits[-1] + literal
            parts.append(int(digits) if int(digits) <= groups else "")
            parts.append(literal)
        pos = token.end()
    parts.append(text[pos:])
    return lambda match: "".join(
        part if isinstance(part, str) else match.group(part) or ""
        for part in parts)


@register("replace", 3, 4)
def fn_replace(dctx, source, pattern, replacement, *rest):
    """``fn:replace(xs:string?, xs:string, xs:string[, flags]) as xs:string``"""
    regex = _compile_nonempty(string_arg(pattern),
                              string_arg(rest[0]) if rest else "")
    repl = _replacement(string_arg(replacement), regex.groups)
    return [string(regex.sub(repl, string_arg(source)))]


@register("string-to-codepoints", 1)
def fn_string_to_codepoints(dctx, arg):
    """``fn:string-to-codepoints(xs:string?) as xs:integer*``"""
    text = string_arg(arg)
    return [integer(ord(c)) for c in text]


@register("codepoints-to-string", 1)
def fn_codepoints_to_string(dctx, arg):
    """``fn:codepoints-to-string(xs:integer*) as xs:string``"""
    from repro.xdm.atomize import atomize

    return [string("".join(chr(int(v.value)) for v in atomize(arg)))]


@register("compare", 2)
def fn_compare(dctx, left, right):
    """``fn:compare(xs:string?, xs:string?) as xs:integer?`` — -1/0/1 by codepoint order."""
    a, b = opt_string(left), opt_string(right)
    if a is None or b is None:
        return []
    return [integer((a > b) - (a < b))]


@register("tokenize", 2, 3)
def fn_tokenize(dctx, source, pattern, *rest):
    """``fn:tokenize(xs:string?, xs:string[, flags]) as xs:string*``"""
    regex = _compile_nonempty(string_arg(pattern),
                              string_arg(rest[0]) if rest else "")
    text = string_arg(source)
    if not text:
        return []
    return [string(part) for part in regex.split(text)]
