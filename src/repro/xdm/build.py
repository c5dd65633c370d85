"""Bridging events and trees.

``build_tree`` folds a parse-event stream into an XDM tree (the DM2
"generate data model" step); ``node_events`` is its inverse, walking a
node lazily back into events (feeding serialization or token
construction); ``parse_document`` is the one-call convenience.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.errors import ParseError
from repro.xdm.nodes import (
    AttributeNode,
    CommentNode,
    DocumentNode,
    ElementNode,
    Node,
    PINode,
    TextNode,
)
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
from repro.xmlio.parser import parse_events


def build_tree(events: Iterable[Event], merge_text: bool = True) -> DocumentNode:
    """Fold an event stream into a document tree.

    Adjacent text events are merged into single text nodes (the XDM
    requires maximal text nodes) unless ``merge_text`` is False.
    """
    doc: DocumentNode | None = None
    stack: list[Node] = []
    pending_text: list[str] = []

    def flush_text() -> None:
        if pending_text and stack:
            content = "".join(pending_text)
            pending_text.clear()
            if content:
                parent = stack[-1]
                node = TextNode(content, parent)
                parent.children.append(node)

    for event in events:
        if isinstance(event, Text):
            if merge_text:
                pending_text.append(event.content)
            elif event.content and stack:
                parent = stack[-1]
                parent.children.append(TextNode(event.content, parent))
            continue
        flush_text()
        if isinstance(event, StartDocument):
            doc = DocumentNode(event.base_uri)
            stack.append(doc)
        elif isinstance(event, StartElement):
            parent = stack[-1] if stack else None
            element = ElementNode(event.name, parent)
            element.ns_decls = event.ns_decls
            for aname, avalue in event.attributes:
                element.attributes.append(AttributeNode(aname, avalue, element))
            if parent is not None:
                parent.children.append(element)
            stack.append(element)
        elif isinstance(event, EndElement):
            if not stack or not isinstance(stack[-1], ElementNode):
                raise ParseError("unbalanced EndElement event")
            stack.pop()
        elif isinstance(event, Comment):
            if stack:
                parent = stack[-1]
                parent.children.append(CommentNode(event.content, parent))
        elif isinstance(event, ProcessingInstruction):
            if stack:
                parent = stack[-1]
                parent.children.append(PINode(event.target, event.content, parent))
        elif isinstance(event, EndDocument):
            if len(stack) != 1 or not isinstance(stack[0], DocumentNode):
                raise ParseError("unbalanced EndDocument event")
            stack.pop()
        else:
            raise ParseError(f"unknown event {event!r}")

    if doc is None:
        # Event stream without document wrapper: wrap whatever was built.
        raise ParseError("event stream contained no StartDocument")
    if stack:
        raise ParseError("event stream ended with unclosed nodes")
    return doc


def parse_document(text: str, base_uri: str = "") -> DocumentNode:
    """Parse XML text straight into a document tree."""
    return build_tree(parse_events(text, base_uri))


def node_events(node: Node, with_document: bool | None = None) -> Iterator[Event]:
    """Walk ``node`` into a stream of events (lazy, O(depth) state).

    ``with_document`` forces/suppresses the Start/EndDocument wrapper;
    by default it is emitted only for document nodes.
    """
    emit_doc = isinstance(node, DocumentNode) if with_document is None else with_document
    if emit_doc:
        yield StartDocument(node.base_uri)
    yield from _subtree_events(node)
    if emit_doc:
        yield EndDocument()


def _subtree_events(node: Node) -> Iterator[Event]:
    # an explicit stack, not recursion: a document may be nested deeper
    # than the interpreter's recursion limit; an element's end event
    # waits on the stack below its children
    pending: list = [node]
    while pending:
        node = pending.pop()
        if isinstance(node, EndElement):
            yield node
        elif isinstance(node, DocumentNode):
            pending.extend(node.children[::-1])
        elif isinstance(node, ElementNode):
            yield StartElement(node.name,
                               tuple((a.name, a.value) for a in node.attributes),
                               node.ns_decls)
            pending.append(EndElement(node.name))
            pending.extend(node.children[::-1])
        elif isinstance(node, TextNode):
            yield Text(node.content)
        elif isinstance(node, CommentNode):
            yield Comment(node.content)
        elif isinstance(node, PINode):
            yield ProcessingInstruction(node.target, node.content)
        elif isinstance(node, AttributeNode):
            raise ParseError("an attribute node cannot be serialized standalone")
        else:
            raise ParseError(f"cannot stream node kind {node.kind!r}")
