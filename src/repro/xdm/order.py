"""Document order.

"Nodes are ordered based on the topological order in the tree."  We
assign each tree a rank the first time order is needed and cache a
pre-order index per node beside it, in the tree root's
:class:`TreeOrder` — the *decoupled, lazy node-id generation* the
paper's compiler section advocates: a query whose plan never compares
order or identity never pays for this walk (experiment E4 measures
exactly that saving).

Order across different trees is the (stable, implementation-defined)
order in which the trees were first ranked.  The rank lives on the
root (or, for a root without a ``tree_order`` slot, in a map that
holds the root weakly), so it dies with the tree: a tree built later
at a freed tree's address starts unranked.
"""

from __future__ import annotations

import itertools
import weakref
from typing import Iterable

from repro.xdm.nodes import AttributeNode, DocumentNode, ElementNode, NamespaceNode, Node

_tree_counter = itertools.count(1)

#: the rank space for pinned collection members: far below anything the
#: first-touch counter can hand out, so a pinned tree always orders
#: before (and independently of) accidentally-touched trees
COLLECTION_RANK_BASE = -(1 << 40)


class TreeOrder:
    """A tree's place among trees (``rank``) and, once order inside it
    was needed, each node's pre-order index keyed by ``id`` (``index``;
    the tree keeps those nodes alive)."""

    __slots__ = ("rank", "index")

    def __init__(self, rank: int) -> None:
        self.rank = rank
        self.index: dict[int, int] | None = None


#: the orders of roots without a ``tree_order`` slot: a parentless
#: attribute, text, comment, PI or namespace node is a tree of its own
_leaf_orders: "weakref.WeakKeyDictionary[Node, TreeOrder]" = \
    weakref.WeakKeyDictionary()


def _tree_order(root: Node) -> TreeOrder:
    if isinstance(root, (DocumentNode, ElementNode)):
        order = root.tree_order
        if order is None:
            order = root.tree_order = TreeOrder(next(_tree_counter))
        return order
    order = _leaf_orders.get(root)
    if order is None:
        order = _leaf_orders.setdefault(root, TreeOrder(next(_tree_counter)))
    return order


def pin_tree_order(roots: Iterable[Node]) -> None:
    """Pin ``roots`` to collection ranks in iteration order, now,
    overriding any first-touch rank they already carry.

    Cross-tree document order is first-touch order, which is normally
    an execution accident.  The default collection promises a
    *deterministic* cross-document order (a catalog's documents in
    sorted-name order), so it pins each member to
    ``COLLECTION_RANK_BASE + sorted_name_index`` at binding time: no
    earlier query's touch pattern (a ``fn:doc`` call, a query over one
    member) can reorder the collection.  Two trees pinned to the same
    rank compare equal at the tree level; callers must only pin trees
    that never meet in one query (catalog collections are per-tenant,
    and a query sees one tenant).
    """
    for index, root in enumerate(roots):
        _tree_order(root).rank = COLLECTION_RANK_BASE + index


def forget_node_index(root: Node) -> None:
    """Drop the pre-order index of ``root``'s tree (its nodes changed);
    the tree keeps its rank."""
    if isinstance(root, (DocumentNode, ElementNode)) \
            and root.tree_order is not None:
        root.tree_order.index = None


def _preorder_index(root: Node) -> dict[int, int]:
    """Pre-order index of every node in the tree.

    Attributes (and namespace nodes) sort after their owner element and
    before its children, per the XDM; giving them consecutive indexes
    in the walk achieves that.
    """
    index = {}
    counter = itertools.count()
    stack: list[Node] = [root]
    while stack:
        node = stack.pop()
        index[id(node)] = next(counter)
        if isinstance(node, ElementNode):
            for attr in node.attributes:
                index[id(attr)] = next(counter)
        stack.extend(reversed(node.children))
    return index


def doc_order_key(node: Node) -> tuple[int, int]:
    """A totally ordered key: (tree rank, pre-order index)."""
    if isinstance(node, (AttributeNode, NamespaceNode)) and node.parent is None:
        # parentless attribute: its own tiny tree
        return (_tree_order(node).rank, 0)
    root = node.root()
    order = _tree_order(root)
    index = order.index
    if index is None:
        index = order.index = _preorder_index(root)
    position = index.get(id(node))
    if position is None:
        # tree mutated after indexing (should not happen for
        # engine-built trees); index it again once
        index = order.index = _preorder_index(root)
        position = index[id(node)]
    return (order.rank, position)


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
