"""Serialization: event streams back to XML text (life-cycle step DM4).

The serializer is incremental — it consumes events and yields string
chunks, so a streaming pipeline never has to hold the whole result.
``serialize_events`` joins the chunks for convenience.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.xmlio.events import (
    Comment,
    EndDocument,
    EndElement,
    Event,
    ProcessingInstruction,
    StartDocument,
    StartElement,
    Text,
)


#: escape tables for ``str.translate`` — one C-level pass over the
#: string instead of one scan per special character (replace chains)
_TEXT_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})
_ATTR_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", '"': "&quot;",
                               "\n": "&#10;", "\t": "&#9;"})


def escape_text(value: str) -> str:
    """Escape character data for element content."""
    return value.translate(_TEXT_ESCAPES)


def escape_attribute(value: str) -> str:
    """Escape character data for a double-quoted attribute value."""
    return value.translate(_ATTR_ESCAPES)


def serialize_chunks(events: Iterable[Event], xml_decl: bool = False) -> Iterator[str]:
    """Yield XML text chunks for a well-formed event stream."""
    if xml_decl:
        yield '<?xml version="1.0" encoding="UTF-8"?>'
    pending_open = False  # a start tag whose '>' has not been emitted

    def close_pending() -> Iterator[str]:
        nonlocal pending_open
        if pending_open:
            pending_open = False
            yield ">"

    for event in events:
        if isinstance(event, StartElement):
            yield from close_pending()
            parts = [f"<{_tag_name(event)}"]
            for prefix, uri in event.ns_decls:
                attr = f"xmlns:{prefix}" if prefix else "xmlns"
                parts.append(f' {attr}="{escape_attribute(uri)}"')
            for name, value in event.attributes:
                lex = f"{name.prefix}:{name.local}" if name.prefix else name.local
                parts.append(f' {lex}="{escape_attribute(value)}"')
            yield "".join(parts)
            pending_open = True
        elif isinstance(event, EndElement):
            if pending_open:
                pending_open = False
                yield "/>"
            else:
                yield f"</{_tag_name(event)}>"
        elif isinstance(event, Text):
            yield from close_pending()
            yield escape_text(event.content)
        elif isinstance(event, Comment):
            yield from close_pending()
            yield f"<!--{event.content}-->"
        elif isinstance(event, ProcessingInstruction):
            yield from close_pending()
            body = f" {event.content}" if event.content else ""
            yield f"<?{event.target}{body}?>"
        elif isinstance(event, (StartDocument, EndDocument)):
            continue
        else:
            raise TypeError(f"cannot serialize event {event!r}")


def _tag_name(event: StartElement | EndElement) -> str:
    name = event.name
    return f"{name.prefix}:{name.local}" if name.prefix else name.local


def serialize_events(events: Iterable[Event], xml_decl: bool = False,
                     indent: int = 0) -> str:
    """Serialize a complete event stream to a string.

    ``indent > 0`` pretty-prints: every element-only level is broken
    onto its own line (text-bearing elements stay inline, so mixed
    content is never altered).
    """
    if indent <= 0:
        return _serialize_flat(events, xml_decl)
    return _pretty(list(events), xml_decl, indent)


def _serialize_flat(events: Iterable[Event], xml_decl: bool) -> str:
    """The batch fast path: one parts-list pass, joined once.

    Produces byte-identical output to joining
    :func:`serialize_chunks`, but appends into a single list instead
    of threading every chunk through a generator — the difference is
    measurable when serializing large results block-at-a-time.
    """
    parts: list[str] = []
    append = parts.append
    if xml_decl:
        append('<?xml version="1.0" encoding="UTF-8"?>')
    pending_open = False
    for event in events:
        if isinstance(event, StartElement):
            if pending_open:
                append(">")
            name = event.name
            append(f"<{name.prefix}:{name.local}" if name.prefix
                   else f"<{name.local}")
            for prefix, uri in event.ns_decls:
                attr = f"xmlns:{prefix}" if prefix else "xmlns"
                append(f' {attr}="{uri.translate(_ATTR_ESCAPES)}"')
            for aname, value in event.attributes:
                lex = f"{aname.prefix}:{aname.local}" if aname.prefix \
                    else aname.local
                append(f' {lex}="{value.translate(_ATTR_ESCAPES)}"')
            pending_open = True
        elif isinstance(event, EndElement):
            if pending_open:
                pending_open = False
                append("/>")
            else:
                name = event.name
                append(f"</{name.prefix}:{name.local}>" if name.prefix
                       else f"</{name.local}>")
        elif isinstance(event, Text):
            if pending_open:
                pending_open = False
                append(">")
            append(event.content.translate(_TEXT_ESCAPES))
        elif isinstance(event, Comment):
            if pending_open:
                pending_open = False
                append(">")
            append(f"<!--{event.content}-->")
        elif isinstance(event, ProcessingInstruction):
            if pending_open:
                pending_open = False
                append(">")
            body = f" {event.content}" if event.content else ""
            append(f"<?{event.target}{body}?>")
        elif isinstance(event, (StartDocument, EndDocument)):
            continue
        else:
            raise TypeError(f"cannot serialize event {event!r}")
    return "".join(parts)


def _pretty(events: list[Event], xml_decl: bool, indent: int) -> str:
    """Element-only content one element per line; an element that
    directly holds text stays inline, byte for byte.

    Linear and iterative, so document depth is bounded by memory, not
    the recursion limit: a first pass pairs each start tag with its end
    and notes which elements directly hold text, then one emitting pass
    keeps the open block elements on an explicit stack.
    """
    n = len(events)
    end_of: dict[int, int] = {}
    inline: set[int] = set()
    starts: list[int] = []
    for i, event in enumerate(events):
        if isinstance(event, StartElement):
            starts.append(i)
        elif isinstance(event, EndElement):
            if starts:
                end_of[starts.pop()] = i
        elif isinstance(event, Text) and starts and event.content.strip():
            inline.add(starts[-1])
    for start in starts:  # never closed: the span runs to the end
        end_of[start] = n

    out: list[str] = []
    if xml_decl:
        out.append('<?xml version="1.0" encoding="UTF-8"?>\n')
    #: (end index, closing line) of each open block element
    blocks: list[tuple[int, str]] = []
    i = 0
    while i < n or blocks:
        if blocks and (i == blocks[-1][0] or i >= n):
            out.append(blocks.pop()[1])
            i += 1
            continue
        event = events[i]
        pad = " " * (indent * len(blocks))
        if isinstance(event, StartElement):
            end = end_of[i]
            head = _serialize_flat((event,), False)  # start tag, unclosed
            if end == i + 1:
                out.append(pad + head + "/>\n")
            elif i in inline:
                # no reformatting of mixed/text content
                out.append(pad + _serialize_flat(events[i:end + 1], False)
                           + "\n")
            else:
                out.append(pad + head + ">\n")
                blocks.append((end, f"{pad}</{_tag_name(event)}>\n"))
                i += 1
                continue
            i = end + 1
            continue
        if isinstance(event, Text):
            if not blocks or event.content.strip():
                out.append(escape_text(event.content))
        elif isinstance(event, (Comment, ProcessingInstruction)):
            text = _serialize_flat((event,), False)
            out.append(pad + text + "\n" if blocks else text)
        i += 1
    return "".join(out).rstrip("\n") + ("\n" if out else "")
