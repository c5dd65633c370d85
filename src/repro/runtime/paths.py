"""Axis navigation and node tests over materialized trees.

The navigational (tree-walking) implementation of path steps — the
baseline that structural joins (repro.joins) and streaming evaluation
(repro.runtime.streaming) are alternatives to.

Forward axes yield document order.  Reverse axes (parent, ancestor,
preceding*) yield *reverse* document order as XPath prescribes for
predicate numbering; the DDO operator restores document order at the
path level.
"""

from __future__ import annotations

from typing import Iterator

from repro.xdm.nodes import (
    AttributeNode,
    CommentNode,
    DocumentNode,
    ElementNode,
    Node,
    PINode,
    TextNode,
)
from repro.xquery.ast import NodeTest

_KIND_CLASSES = {
    "element": ElementNode,
    "attribute": AttributeNode,
    "text": TextNode,
    "comment": CommentNode,
    "processing-instruction": PINode,
    "document": DocumentNode,
}


def axis_iterator(axis: str, node: Node) -> Iterator[Node]:
    """All nodes on ``axis`` from ``node``."""
    if axis == "child":
        yield from node.children
    elif axis == "descendant":
        yield from node.descendants()
    elif axis == "descendant-or-self":
        yield from node.descendants_or_self()
    elif axis == "attribute":
        yield from node.attributes
    elif axis == "self":
        yield node
    elif axis == "parent":
        if node.parent is not None:
            yield node.parent
    elif axis == "ancestor":
        yield from node.ancestors()
    elif axis == "ancestor-or-self":
        yield node
        yield from node.ancestors()
    elif axis == "following-sibling":
        yield from _siblings(node, after=True)
    elif axis == "preceding-sibling":
        siblings = list(_siblings(node, after=False))
        yield from reversed(siblings)
    elif axis == "following":
        yield from _following(node)
    elif axis == "preceding":
        yield from _preceding(node)
    else:
        raise ValueError(f"unknown axis {axis!r}")


def _siblings(node: Node, after: bool) -> Iterator[Node]:
    parent = node.parent
    if parent is None or isinstance(node, AttributeNode):
        return
    seen = False
    for sibling in parent.children:
        if sibling is node:
            seen = True
            continue
        if seen == after:
            yield sibling


def _following(node: Node) -> Iterator[Node]:
    """Nodes after ``node`` in document order, excluding descendants."""
    current: Node | None = node
    while current is not None and current.parent is not None:
        for sibling in _siblings(current, after=True):
            yield sibling
            yield from sibling.descendants()
        current = current.parent


def _preceding(node: Node) -> Iterator[Node]:
    """Nodes before ``node``, excluding ancestors (reverse doc order)."""
    out: list[Node] = []
    current: Node | None = node
    while current is not None and current.parent is not None:
        for sibling in _siblings(current, after=False):
            out.append(sibling)
            out.extend(sibling.descendants())
        current = current.parent
    yield from reversed(out)


def node_test_matches(test: NodeTest, node: Node, axis: str = "child") -> bool:
    """Does ``node`` pass ``test`` (with the axis's principal node kind)?"""
    kind = test.kind
    if kind == "node":
        if test.name is None:
            return True
        # a bare name test: match against the principal node kind
        kind = "attribute" if axis == "attribute" else "element"

    cls = _KIND_CLASSES.get(kind)
    if cls is not None and not isinstance(node, cls):
        return False
    if kind == "document" and test.name is not None:
        root_element = node.document_element() if isinstance(node, DocumentNode) else None
        if root_element is None:
            return False
        node = root_element
        kind = "element"
    if kind == "processing-instruction" and test.pi_target is not None:
        return node.target == test.pi_target

    name = test.name
    if name is not None and kind in ("element", "attribute"):
        node_name = node.node_name
        if node_name is None:
            return False
        if name.local != "*" and node_name.local != name.local:
            return False
        if name.uri != "*" and node_name.uri != name.uri:
            return False
    if test.type_name is not None:
        annotation = node.type_annotation
        if annotation.name != test.type_name:
            # accept derived types too
            from repro.xsd import types as T
            if not (isinstance(annotation, T.AtomicType)
                    and any(t.name == test.type_name for t in annotation.ancestry())):
                return False
    return True


def step_iterator(axis: str, test: NodeTest, node: Node) -> Iterator[Node]:
    """Evaluate one step: axis traversal filtered by the node test."""
    for candidate in axis_iterator(axis, node):
        if node_test_matches(test, candidate, axis):
            yield candidate


def compile_step_fn(axis: str, test: NodeTest):
    """A specialized ``node -> [matches]`` function for one axis step.

    The source backend (``pysource._emit_step_walk``) binds this as the
    kernel of an axis step it does not inline, and a hash lane
    (:class:`repro.runtime.compare.HashLane`) walks its key paths with
    it.  For the hot axis/test shapes (child/descendant with a name
    test, attribute name tests, the ``descendant-or-self::node()`` that
    ``//`` normalizes to) it is a direct list-building walk — no
    generator frames and no per-candidate :func:`node_test_matches`
    call — and the emitter's inlined walks mirror these shapes guard
    for guard.  Anything else degrades to the generic
    :func:`step_iterator`.  Traversal order matches the axis iterators
    exactly (document order for forward axes).
    """
    kind, name = test.kind, test.name
    plain = test.type_name is None and test.pi_target is None

    if plain and kind in ("node", "element") and name is not None \
            and axis in ("child", "descendant", "descendant-or-self"):
        local, uri = name.local, name.uri
        any_local, any_uri = local == "*", uri == "*"

        if axis == "child":
            def fn(node, _E=ElementNode):
                return [c for c in node.children
                        if isinstance(c, _E)
                        and (any_local or c.name.local == local)
                        and (any_uri or c.name.uri == uri)]
            return fn

        include_self = axis == "descendant-or-self"

        def fn(node, _E=ElementNode):
            out: list = []
            if include_self and isinstance(node, _E):
                qn = node.name
                if (any_local or qn.local == local) and \
                        (any_uri or qn.uri == uri):
                    out.append(node)
            stack = list(reversed(node.children))
            while stack:
                n = stack.pop()
                if isinstance(n, _E):
                    qn = n.name
                    if (any_local or qn.local == local) and \
                            (any_uri or qn.uri == uri):
                        out.append(n)
                    children = n._children
                    if children:
                        stack.extend(reversed(children))
            return out
        return fn

    if plain and kind == "node" and name is None:
        if axis == "child":
            return lambda node: list(node.children)
        if axis == "self":
            return lambda node: [node]
        if axis == "descendant-or-self":
            def fn(node):
                out = [node]
                append = out.append
                stack = list(reversed(node.children))
                while stack:
                    n = stack.pop()
                    append(n)
                    children = n.children
                    if children:
                        stack.extend(reversed(children))
                return out
            return fn

    if plain and axis == "attribute" and kind in ("node", "attribute") \
            and name is not None:
        local, uri = name.local, name.uri
        any_local, any_uri = local == "*", uri == "*"

        def fn(node):
            return [a for a in node.attributes
                    if (any_local or a.name.local == local)
                    and (any_uri or a.name.uri == uri)]
        return fn

    if plain and kind == "text" and axis == "child":
        return lambda node, _T=TextNode: \
            [c for c in node.children if isinstance(c, _T)]

    return lambda node, _axis=axis, _test=test: \
        list(step_iterator(_axis, _test, node))
