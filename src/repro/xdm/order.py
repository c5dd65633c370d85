"""Document order.

"Nodes are ordered based on the topological order in the tree."  We
assign each tree a sequence number the first time order is needed and
cache a pre-order index per node inside the tree root — the *decoupled,
lazy node-id generation* the paper's compiler section advocates: a
query whose plan never compares order or identity never pays for this
walk (experiment E4 measures exactly that saving).

Order across different trees is the (stable, implementation-defined)
order of tree creation.
"""

from __future__ import annotations

import itertools
from typing import Iterable

from repro.xdm.nodes import AttributeNode, DocumentNode, ElementNode, NamespaceNode, Node

_tree_counter = itertools.count(1)
_tree_ids: dict[int, int] = {}

#: the rank space for pinned collection members: far below anything the
#: first-touch counter can hand out, so a pinned tree always orders
#: before (and independently of) accidentally-touched trees
COLLECTION_RANK_BASE = -(1 << 40)


def _tree_id(root: Node) -> int:
    key = id(root)
    if key not in _tree_ids:
        _tree_ids[key] = next(_tree_counter)
    return _tree_ids[key]


def pin_tree_rank(root: Node, rank: int) -> None:
    """Force ``root``'s tree id to ``rank``, overriding any
    first-touch id it may already carry.

    Cross-tree document order is first-touch order, which is normally
    an execution accident.  Surfaces that promise a *deterministic*
    cross-document order — the default collection binds a catalog's
    documents in sorted-name order, and the scatter-gather merge
    reproduces that order across processes — pin each member to
    ``COLLECTION_RANK_BASE + sorted_name_index`` at binding time, so
    no earlier query's touch pattern (a shard execution that touched
    one document first, a fn:doc call) can reorder the collection.
    Two trees pinned to the same rank compare equal at the tree level;
    callers must only pin trees that never meet in one query (catalog
    collections are per-tenant, and a query sees one tenant).
    """
    _tree_ids[id(root)] = rank


def pin_tree_order(roots: Iterable[Node]) -> None:
    """Pin ``roots`` to collection ranks in iteration order, now."""
    for index, root in enumerate(roots):
        pin_tree_rank(root, COLLECTION_RANK_BASE + index)


def _order_cache(root: Node) -> dict[int, int]:
    """Pre-order index of every node in the tree, computed once.

    Attributes (and namespace nodes) sort after their owner element and
    before its children, per the XDM; giving them consecutive indexes
    in the walk achieves that.
    """
    cache = getattr(root, "order_cache", None)
    if cache is not None:
        return cache
    cache = {}
    counter = itertools.count()
    stack: list[Node] = [root]
    while stack:
        node = stack.pop()
        cache[id(node)] = next(counter)
        if isinstance(node, ElementNode):
            for attr in node.attributes:
                cache[id(attr)] = next(counter)
        stack.extend(reversed(node.children))
    if isinstance(root, (DocumentNode, ElementNode)):
        root.order_cache = cache
    return cache


def doc_order_key(node: Node) -> tuple[int, int]:
    """A totally ordered key: (tree id, pre-order index)."""
    if isinstance(node, (AttributeNode, NamespaceNode)) and node.parent is None:
        # parentless attribute: its own tiny tree
        return (_tree_id(node), 0)
    root = node.root()
    cache = _order_cache(root)
    index = cache.get(id(node))
    if index is None:
        # tree mutated after caching (should not happen for engine-built
        # trees); rebuild the cache once
        if isinstance(root, (DocumentNode, ElementNode)):
            root.order_cache = None
        cache = _order_cache(root)
        index = cache[id(node)]
    return (_tree_id(root), index)


def is_before(a: Node, b: Node) -> bool:
    """True if ``a`` precedes ``b`` in document order (the ``<<`` operator)."""
    return doc_order_key(a) < doc_order_key(b)


def in_document_order(nodes: Iterable[Node], distinct: bool = True) -> list[Node]:
    """Sort nodes into document order, optionally removing duplicates.

    This is the (expensive) operation path expressions imply; the
    compiler's job — experiment E5 — is to *not* call it when the
    result is already sorted and distinct.  A list of fewer than two
    nodes already is, whatever the compiler could prove: it is returned
    as is (``$p/name/text()`` per person is this case every time).

    "As is" means the caller's own list object, not a copy — every
    longer or non-list input yields a fresh list.  A caller that goes
    on to mutate its input or the result must copy first.
    """
    if isinstance(nodes, list) and len(nodes) < 2:
        return nodes
    seen: set[int] = set()
    out: list[Node] = []
    for node in nodes:
        if distinct:
            key = id(node)
            if key in seen:
                continue
            seen.add(key)
        out.append(node)
    out.sort(key=doc_order_key)
    return out
