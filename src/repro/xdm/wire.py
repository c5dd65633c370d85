"""How an XDM item leaves a process: the one wire codec.

Every boundary a result crosses — a pool child's pipe, the
``form=json`` reply, the ``form=xml`` body, :meth:`Result.serialize
<repro.engine.Result.serialize>` — encodes items the same way, decided
once in :func:`entry`::

    ("n", markup)                            node, serialized
    ("a", json_value, lexical, type_local)   atomic value
    ("s", text)                              non-XDM straggler

``json_value`` is the Python value when strict JSON can carry it (bool,
int, finite float, str), else ``None`` and the lexical form stands in:
decimals, dates, QNames, binaries — and ``INF``/``-INF``/``NaN``, which
``json.dumps`` would emit as bare ``Infinity``/``NaN`` tokens that
RFC 8259 parsers reject.

Entries hold only str/int/float/bool/None, so they pickle without the
type singletons the engine compares by identity (``is``) — a pickled
:class:`AtomicValue` would come back with a foreign type object.
"""

from __future__ import annotations

from math import isfinite
from typing import Any, Iterable

from repro.xdm.build import node_events
from repro.xdm.items import AtomicValue
from repro.xdm.nodes import Node
from repro.xmlio.serializer import serialize_events


def serialize_node(node: Node, indent: int = 0) -> str:
    """A node as markup (``indent`` pretty-prints element-only content)."""
    return serialize_events(node_events(node), indent=indent)


def entry(item: Any, indent: int = 0) -> tuple:
    """One item's transport tuple (see the module docstring)."""
    if isinstance(item, Node):
        return ("n", serialize_node(item, indent))
    if isinstance(item, AtomicValue):
        value = item.value
        if not isinstance(value, (bool, int, float, str)) \
                or (isinstance(value, float) and not isfinite(value)):
            value = None
        return ("a", value, item.lexical, item.type.name.local)
    return ("s", str(item))


def encode(items: Iterable[Any]) -> list[tuple]:
    """A drained result sequence as picklable transport tuples."""
    return [entry(item) for item in items]


def json_items(entries: Iterable[tuple]) -> list[Any]:
    """Transport tuples → the ``form=json`` ``items`` list: nodes as
    ``{"node": markup}``, atomics as JSON scalars or lexical strings."""
    return [{"node": e[1]} if e[0] == "n"
            else e[2] if e[0] == "a" and e[1] is None
            else e[1]
            for e in entries]


def xml_text(entries: Iterable[tuple]) -> str:
    """Transport tuples → the ``form=xml`` text: nodes as markup,
    adjacent atomic values separated by one space (the standard
    serialization rule, simplified)."""
    parts: list[str] = []
    prev_atomic = False
    for e in entries:
        if e[0] == "n":
            parts.append(e[1])
            prev_atomic = False
        else:
            if prev_atomic:
                parts.append(" ")
            parts.append(e[2] if e[0] == "a" else e[1])
            prev_atomic = True
    return "".join(parts)


def payload(entries: Iterable[tuple], form: str) -> dict:
    """Transport tuples → the reply payload of an execute request:
    ``{"form": "xml", "body"}`` or ``{"form": "json", "items", "count"}``
    (callers add their ``stats``)."""
    if form == "xml":
        return {"form": "xml", "body": xml_text(entries)}
    items = json_items(entries)
    return {"form": "json", "items": items, "count": len(items)}

