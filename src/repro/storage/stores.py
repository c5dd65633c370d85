"""The three storage modes, behind one interface.

Each store ingests XML text once and serves documents to the query
engine; what differs is what lives between queries:

- :class:`TextStore` keeps the text — every access re-parses (the
  tutorial: "need to re-parse (re-validate) all the time");
- :class:`TreeStore` keeps the materialized tree (+ lazily built
  indexes) — fast navigation, biggest resident footprint;
- :class:`TokenStore` keeps the pooled binary token form — compact,
  streams without parsing, rebuilds trees only on demand.

Constructors are keyword-only (``TreeStore(xml_text=...)``).  Every
store exposes a common :meth:`BaseStore.stats` with per-document
statistics for the access-path planner.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.storage.indexes import ElementIndex, ValueIndex
from repro.storage.stats import DocumentStats, collect_stats
from repro.tokens.binary import read_binary, write_binary
from repro.tokens.build import tokens_from_events, tree_from_tokens
from repro.tokens.token import Token
from repro.xdm.build import parse_document
from repro.xdm.nodes import DocumentNode
from repro.xmlio.parser import parse_events


class BaseStore:
    """Common store interface."""

    def document(self) -> DocumentNode:
        """A materialized tree for the stored document."""
        raise NotImplementedError

    def resident_bytes(self) -> int:
        """Approximate size of what the store keeps resident."""
        raise NotImplementedError

    def stats(self) -> DocumentStats:
        """Per-document statistics, collected once and cached."""
        cached = getattr(self, "_stats", None)
        if cached is None:
            cached = collect_stats(self.document())
            self._stats = cached
        return cached

    def invalidate_stats(self) -> None:
        """Drop the cached statistics so the next :meth:`stats` call
        re-walks the document.  Catalogs call this when a store is
        re-registered under an existing name — a mutated backing (e.g.
        a :class:`TextStore` whose ``text`` was replaced) must never
        serve stale cardinalities to the planner."""
        self._stats = None

    kind: str = "base"


class TextStore(BaseStore):
    """Plain text; parses on every access."""

    kind = "text"

    def __init__(self, *, xml_text: str, base_uri: str = ""):
        self.text = xml_text
        self.base_uri = base_uri

    def document(self) -> DocumentNode:
        return parse_document(self.text, self.base_uri)

    def resident_bytes(self) -> int:
        return len(self.text.encode("utf-8"))


class TreeStore(BaseStore):
    """Materialized tree plus lazily-built element/value indexes."""

    kind = "tree"

    def __init__(self, *, xml_text: str, base_uri: str = ""):
        self._doc = parse_document(xml_text, base_uri)
        self._element_index: Optional[ElementIndex] = None
        self._value_index: Optional[ValueIndex] = None

    @classmethod
    def from_document(cls, doc: DocumentNode) -> "TreeStore":
        store = cls.__new__(cls)
        store._doc = doc
        store._element_index = None
        store._value_index = None
        return store

    def document(self) -> DocumentNode:
        return self._doc

    @property
    def element_index(self) -> ElementIndex:
        if self._element_index is None:
            self._element_index = ElementIndex(self._doc)
        return self._element_index

    @property
    def value_index(self) -> ValueIndex:
        if self._value_index is None:
            self._value_index = ValueIndex(self._doc)
        return self._value_index

    def resident_bytes(self) -> int:
        # rough object-graph estimate: nodes dominate
        count = sum(1 for _ in self._doc.descendants_or_self())
        return count * 200


class TokenStore(BaseStore):
    """Binary pooled TokenStream; streams tokens without re-parsing text."""

    kind = "tokens"

    def __init__(self, *, xml_text: str, base_uri: str = "",
                 pooled: bool = True):
        events = parse_events(xml_text, base_uri)
        self.blob = write_binary(tokens_from_events(events), pooled=pooled)
        self.base_uri = base_uri

    def tokens(self) -> Iterator[Token]:
        """Stream the stored tokens (lazy decode)."""
        return read_binary(self.blob)

    def document(self) -> DocumentNode:
        return tree_from_tokens(self.tokens())

    def resident_bytes(self) -> int:
        return len(self.blob)
