"""The three storage modes, behind one interface.

Each store ingests XML text once and holds one form of the document;
what differs is what lives between queries:

- :class:`TextStore` keeps the text — every access re-parses (the
  tutorial: "need to re-parse (re-validate) all the time");
- :class:`TreeStore` keeps the materialized tree — fast navigation,
  biggest resident footprint;
- :class:`TokenStore` keeps the pooled binary token form — compact,
  streams without parsing, rebuilds trees only on demand.

Constructors are keyword-only (``TreeStore(xml_text=...)``).  A store
answers :meth:`BaseStore.document` and :meth:`BaseStore.stats` afresh on
every call and caches nothing: the catalog handle
(:class:`~repro.catalog.StoredDocument`) pins the tree, keeps the
statistics and builds the element/value indexes.
"""

from __future__ import annotations

from typing import Iterator

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
        """Per-document statistics, collected from :meth:`document`."""
        return collect_stats(self.document())

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
    """One materialized tree."""

    kind = "tree"

    def __init__(self, *, xml_text: str, base_uri: str = ""):
        self._doc = parse_document(xml_text, base_uri)

    @classmethod
    def from_document(cls, doc: DocumentNode) -> "TreeStore":
        store = cls.__new__(cls)
        store._doc = doc
        return store

    def document(self) -> DocumentNode:
        return self._doc

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
