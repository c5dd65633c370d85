"""Inverted indexes over labeled documents.

The element index maps a tag name to the document-ordered posting list
of its occurrences — the input streams every structural-join algorithm
consumes.  The value index additionally keys by string value, serving
point lookups like ``//book[price = "55"]`` without a scan.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Iterator

from repro.qname import QName
from repro.storage.labels import Label, label_document
from repro.xdm.nodes import AttributeNode, DocumentNode, ElementNode, Node, TextNode


@dataclass(frozen=True, slots=True)
class Posting:
    """One index entry: a labeled node."""

    label: Label
    node: Node

    @property
    def pre(self) -> int:
        return self.label.pre

    @property
    def post(self) -> int:
        return self.label.post

    @property
    def level(self) -> int:
        return self.label.level


class ElementIndex:
    """name → document-ordered posting list of elements (and attributes).

    Attribute postings are keyed ``@local`` to keep one namespace of
    tag names, matching how the structural-join literature treats
    attributes as leaf partners.
    """

    def __init__(self, doc: DocumentNode):
        self.doc = doc
        self.labels = label_document(doc)
        self._postings: dict[str, list[Posting]] = {}
        self._build(doc)

    def _build(self, doc: DocumentNode) -> None:
        postings = self._postings
        for node in doc.descendants_or_self():
            if isinstance(node, ElementNode):
                postings.setdefault(node.name.local, []).append(
                    Posting(self.labels[id(node)], node))
                for attr in node.attributes:
                    postings.setdefault("@" + attr.name.local, []).append(
                        Posting(self.labels[id(attr)], attr))
        for plist in postings.values():
            plist.sort(key=lambda p: p.label.pre)

    def postings(self, name: str) -> list[Posting]:
        """The document-ordered posting list for a tag (or ``@attr``) name."""
        return self._postings.get(name, [])

    def names(self) -> list[str]:
        return sorted(self._postings)

    def label_of(self, node: Node) -> Label:
        return self.labels[id(node)]

    def cardinality(self, name: str) -> int:
        return len(self._postings.get(name, ()))

    def descendants_in(self, name: str, ancestor: Label) -> list[Posting]:
        """Postings of ``name`` inside the ``ancestor`` interval.

        Binary search on pre bounds — the index-probe primitive used by
        index-nested-loop style plans.
        """
        plist = self._postings.get(name, [])
        lo = bisect_right(plist, ancestor.pre, key=lambda p: p.label.pre)
        out = []
        # pre-order numbers of descendants are contiguous, so the matching
        # postings form one run: stop at the first non-descendant
        for posting in plist[lo:]:
            if not ancestor.is_ancestor_of(posting.label):
                break
            out.append(posting)
        return out


def normalize_value(value: str) -> str:
    """Whitespace-normalize per typed-value atomization: collapse runs
    of whitespace and strip, so ``" 55 "`` and ``"55"`` share one key.

    Probes through the normalized key are a superset of exact string
    equality; callers that need exact semantics (the access-path
    planner's value lookups) re-verify candidates with the original
    predicate.
    """
    return " ".join(value.split())


class ValueIndex:
    """(element name, normalized string value) → nodes, for equality lookups.

    Keys are whitespace-normalized (:func:`normalize_value`) so that
    ``price = 55`` and ``price = "55"`` probes agree with the navigation
    evaluator's typed-value atomization regardless of source formatting.
    """

    def __init__(self, doc: DocumentNode):
        self._by_value: dict[tuple[str, str], list[Node]] = {}
        for node in doc.descendants_or_self():
            if isinstance(node, ElementNode):
                # index only text-only (or empty) elements — value joins
                # are on leaf elements and attributes
                if all(isinstance(c, TextNode) for c in node.children):
                    key = (node.name.local, normalize_value(node.string_value))
                    self._by_value.setdefault(key, []).append(node)
                for attr in node.attributes:
                    key = ("@" + attr.name.local, normalize_value(attr.value))
                    self._by_value.setdefault(key, []).append(attr)

    def lookup(self, name: str, value: str) -> list[Node]:
        return self._by_value.get((name, normalize_value(value)), [])

    def keys(self) -> Iterator[tuple[str, str]]:
        return iter(self._by_value)
