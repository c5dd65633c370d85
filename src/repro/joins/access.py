"""Index-backed access-path evaluation.

The runtime half of the planner (:mod:`repro.compiler.planner`): given
a stored document's posting lists, evaluate a root-anchored step chain
with stack-tree structural joins (element-index scan), or answer a
value-equality predicate with a point lookup plus upward chain
verification (value-index lookup).  Both produce distinct elements in
document order — exactly what the ``DDO(PathExpr(...))`` they replace
would yield.  The lookup's key is known only at run time
(:func:`probe_key`), and is asked for only when the chain has a
candidate (:func:`chain_has_candidate`) — when navigation would first
evaluate the predicate.
"""

from __future__ import annotations

from typing import Optional

from repro.joins.stacktree import stack_tree_anc_desc
from repro.storage.indexes import ElementIndex, Posting, ValueIndex
from repro.xdm.atomize import atomize_item
from repro.xdm.items import AtomicValue
from repro.xdm.nodes import DocumentNode, ElementNode, Node


def element_chain_postings(eindex: ElementIndex,
                           steps: tuple[tuple[str, str], ...],
                           counters: Optional[dict[str, int]] = None,
                           ) -> list[Posting]:
    """Evaluate a ``(edge, name)`` chain rooted at the document node.

    Each edge is one stack-tree merge over the two posting lists —
    O(|A| + |D| + |out|) per step, never touching unrelated nodes.
    Returns distinct output-step postings in document order.
    """
    current: Optional[list[Posting]] = None
    for edge, name in steps:
        plist = eindex.postings(name)
        if counters is not None:
            counters["postings_scanned"] = \
                counters.get("postings_scanned", 0) + len(plist)
        if current is None:
            # first edge hangs off the document node itself
            if edge == "child":
                current = [p for p in plist if p.level == 1]
            else:
                current = plist
        else:
            current = stack_tree_anc_desc(current, plist,
                                          parent_child=(edge == "child"))
        if not current:
            return []
    return list(current)


def _chain_admits(node: ElementNode, steps: tuple[tuple[str, str], ...],
                  doc: DocumentNode) -> bool:
    """True when ``node`` (which matched the last step's name) is
    reachable from ``doc`` along the chain's edges."""

    def admits(n: Node, idx: int) -> bool:
        edge = steps[idx][0]
        if idx == 0:
            return n.parent is doc if edge == "child" else True
        prev_name = steps[idx - 1][1]
        if edge == "child":
            parent = n.parent
            return (isinstance(parent, ElementNode)
                    and parent.name.local == prev_name
                    and admits(parent, idx - 1))
        ancestor = n.parent
        while isinstance(ancestor, ElementNode):
            if ancestor.name.local == prev_name and admits(ancestor, idx - 1):
                return True
            ancestor = ancestor.parent
        return False

    return admits(node, len(steps) - 1)


def chain_has_candidate(eindex: ElementIndex,
                        steps: tuple[tuple[str, str], ...],
                        doc: DocumentNode) -> bool:
    """Does the chain reach at least one element?  (Stops at the first
    output-name posting whose ancestry admits it.)"""
    return any(_chain_admits(p.node, steps, doc)
               for p in eindex.postings(steps[-1][1]))


def probe_key(value) -> Optional[str]:
    """The value-index key of a run-time probe value (an item or a
    sequence of items): the string value of its one string-like atom,
    else None — a number must meet ``"55.0"`` by numeric promotion,
    several values or none are the residual predicate's to decide."""
    items = (value,) if isinstance(value, (AtomicValue, Node)) else value
    atoms = [atom for item in items for atom in atomize_item(item)]
    if len(atoms) == 1 and atoms[0].type.string_like:
        return atoms[0].value
    return None


def value_lookup_elements(eindex: ElementIndex, vindex: ValueIndex,
                          doc: DocumentNode,
                          steps: tuple[tuple[str, str], ...],
                          pred_kind: str, pred_name: str, probe: str,
                          counters: Optional[dict[str, int]] = None,
                          ) -> list[ElementNode]:
    """Output-step elements owning a ``pred_name = probe`` match.

    Probes the value index (whitespace-normalized keys — a superset of
    exact equality; the caller re-verifies with the original predicate),
    maps each hit to its owner element, and verifies the owner's
    ancestry against the chain.  Returns distinct owners in document
    order.
    """
    key = "@" + pred_name if pred_kind == "attribute" else pred_name
    matches = vindex.lookup(key, probe)
    if counters is not None:
        counters["value_probes"] = counters.get("value_probes", 0) + 1
        counters["postings_scanned"] = \
            counters.get("postings_scanned", 0) + len(matches)
    out_name = steps[-1][1]
    seen: set[int] = set()
    owners: list[ElementNode] = []
    for match in matches:
        owner = match.parent
        if not isinstance(owner, ElementNode) or owner.name.local != out_name:
            continue
        if id(owner) in seen:
            continue
        if not _chain_admits(owner, steps, doc):
            continue
        seen.add(id(owner))
        owners.append(owner)
    owners.sort(key=lambda n: eindex.label_of(n).pre)
    return owners
