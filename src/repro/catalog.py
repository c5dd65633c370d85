"""The document catalog: one place to bind documents to queries.

Before 1.2 a document reached the engine four different ways (XML text
as the context item, ``repro.xml(...)`` wrappers, raw nodes, hand-built
stores).  The catalog unifies them::

    cat = repro.catalog()
    books = cat.add("books", xml_text)            # tree store + indexes
    engine = repro.Engine(catalog=cat)
    engine.compile("$books//book[price = '55']").execute()

``add`` ingests a source into one of the three storage modes
(:mod:`repro.storage`), collects per-document statistics, and (by
default) builds the element/value indexes the access-path planner
(:mod:`repro.compiler.planner`) uses to replace tree navigation with
posting-list scans and point lookups.  The returned
:class:`StoredDocument` handle is accepted anywhere ``repro.xml(...)``
is: ``variables=``, ``documents=``, and the context item.

Catalog documents are bound automatically when executing queries
compiled by a catalog-carrying engine: ``$books`` above needs no
explicit ``variables={"books": ...}``.

**Disk mode (1.6).**  ``repro.catalog(path=...)`` opens or creates a
*persistent* catalog: every ``add`` also commits the document — token
array, labels, posting lists, statistics — to a segment file under
``path`` (:mod:`repro.storage.persist`), and a fresh process reopening
the same path sees every document without re-parsing any XML.
Reopened documents are :class:`PersistedDocument` handles: statistics
decode from disk for the planner immediately, trees and indexes
materialize lazily (mmap-backed) on first bind.  ``add`` accepts
``durability="sync"`` (fsync'd commit, the default) or ``"none"``
(atomic rename only).  Ingest generations come from the manifest's
durable counter, so compile-cache and server result-cache fingerprints
stay collision-free across restarts.
"""

from __future__ import annotations

import itertools
import threading
from pathlib import Path
from typing import Any, Iterator, Optional

from repro.storage.indexes import ElementIndex, ValueIndex
from repro.storage.stats import DocumentStats
from repro.storage.stores import BaseStore, TextStore, TokenStore, TreeStore
from repro.xdm.nodes import DocumentNode, Node

_STORE_KINDS = {"tree": TreeStore, "tokens": TokenStore, "text": TextStore}

#: process-wide monotonic ingest generation (in-memory catalogs).  Each
#: ``DocumentCatalog.add`` stamps the handle with the next value, so two
#: bindings of the same name are never fingerprint-equal — unlike
#: ``id(store)``, generations are not reused after garbage collection
#: and do change when the *same* store object is re-registered (its
#: contents may have mutated).  Disk catalogs draw from the manifest's
#: durable counter instead, so generations stay unique across processes.
_GENERATION = itertools.count(1)

#: identities of in-memory catalogs (never reused, unlike ``id()``)
_CATALOG_IDS = itertools.count(1)


class StoredDocument:
    """A named, stored (and optionally indexed) document.

    Indexed documents pin one materialized tree so that posting lists
    and the bound document share node identity; unindexed documents
    keep their store's native access semantics (a text store re-parses
    per execution).
    """

    __slots__ = ("name", "store", "indexed", "generation", "_doc",
                 "_element_index", "_value_index")

    def __init__(self, name: str, store: BaseStore, indexed: bool):
        self.name = name
        self.store = store
        self.indexed = indexed
        self.generation = next(_GENERATION)
        self._doc: Optional[DocumentNode] = None
        self._element_index: Optional[ElementIndex] = None
        self._value_index: Optional[ValueIndex] = None
        if indexed:
            self._doc = store.document()

    def document(self) -> DocumentNode:
        """The document node this handle binds."""
        if self._doc is not None:
            return self._doc
        return self.store.document()

    @property
    def stats(self) -> DocumentStats:
        return self.store.stats()

    @property
    def element_index(self) -> Optional[ElementIndex]:
        """Element-name posting lists (None when not indexed)."""
        if not self.indexed:
            return None
        if self._element_index is None:
            if isinstance(self.store, TreeStore) and self.store.document() is self._doc:
                self._element_index = self.store.element_index
            else:
                self._element_index = ElementIndex(self._doc)
        return self._element_index

    @property
    def value_index(self) -> Optional[ValueIndex]:
        """(name, value) point-lookup index (None when not indexed)."""
        if not self.indexed:
            return None
        if self._value_index is None:
            if isinstance(self.store, TreeStore) and self.store.document() is self._doc:
                self._value_index = self.store.value_index
            else:
                self._value_index = ValueIndex(self._doc)
        return self._value_index

    def fingerprint(self) -> tuple:
        """Identity of this binding for the compile cache: a plan built
        against these indexes and statistics must not be reused across
        re-ingests.  The ingest generation (not ``id(store)``) makes the
        fingerprint collision-free: object ids are recycled after GC and
        stay equal when the same store object is re-added with mutated
        contents."""
        return (self.name, self.store.kind, self.indexed, self.generation)

    def __repr__(self) -> str:
        flags = "indexed" if self.indexed else "unindexed"
        return f"StoredDocument({self.name!r}, {self.store.kind}, {flags})"


class PersistedDocument(StoredDocument):
    """A document loaded from a disk catalog, materialized lazily.

    Until something binds it, only the manifest entry is in memory;
    :attr:`stats` decodes the segment's statistics section without
    touching the tree (the planner runs pre-bind), and the first
    :meth:`document` / index access rebuilds the tree from the token
    section and rebinds the persisted labels and posting lists onto it
    — never re-parsing XML.  The pinned tree registers in the owning
    catalog's node map so compiled access paths resolve it at runtime,
    exactly like a freshly ingested document.
    """

    __slots__ = ("_catalog", "_entry", "_lock")

    def __init__(self, name: str, entry, catalog: "DocumentCatalog"):
        from repro.storage.persist import DiskStore

        self.name = name
        self.store = DiskStore(catalog._storage, entry)
        self.indexed = entry.indexed
        self.generation = entry.generation
        self._doc = None
        self._element_index = None
        self._value_index = None
        self._catalog = catalog
        self._entry = entry
        self._lock = threading.Lock()

    def _materialize(self) -> None:
        if self._doc is not None:
            return
        with self._lock:
            if self._doc is not None:
                return
            from repro.storage.persist import StorageError

            storage = self._catalog._storage
            for attempt in range(3):
                try:
                    with storage.open_segment(self._entry) as reader:
                        if self.indexed:
                            doc, element_index, value_index = \
                                reader.materialize_indexed()
                            self._element_index = element_index
                            self._value_index = value_index
                        else:
                            doc = reader.materialize_tree()
                    break
                except (OSError, StorageError):
                    # the writer re-ingested this name and unlinked our
                    # segment after committing the new manifest: adopt
                    # the fresh entry and retry (readers racing a
                    # concurrent add() land here instead of failing)
                    fresh = storage.reload().get(self.name)
                    if fresh is None or \
                            fresh.generation == self._entry.generation or \
                            attempt == 2:
                        raise
                    self._entry = fresh
                    self.indexed = fresh.indexed
                    self.generation = fresh.generation
                    from repro.storage.persist import DiskStore

                    self.store = DiskStore(storage, fresh)
            if self._entry.kind == "tree":
                # mirror TreeStore: store.document() is the pinned tree
                self.store._doc = doc
            self._doc = doc
            self._catalog._by_node[id(doc)] = self

    def document(self) -> DocumentNode:
        if self.indexed or self._entry.kind == "tree":
            self._materialize()
            return self._doc
        # tokens/text semantics: a fresh tree per access
        return self.store.document()

    @property
    def element_index(self) -> Optional[ElementIndex]:
        if not self.indexed:
            return None
        self._materialize()
        return self._element_index

    @property
    def value_index(self) -> Optional[ValueIndex]:
        if not self.indexed:
            return None
        self._materialize()
        return self._value_index

    @property
    def loaded(self) -> bool:
        """Has the tree materialized yet?  (Stats don't count: they
        decode from the segment without building nodes.)"""
        return self._doc is not None

    def __repr__(self) -> str:
        state = "loaded" if self.loaded else "lazy"
        return (f"PersistedDocument({self.name!r}, {self.store.kind}, "
                f"gen {self.generation}, {state})")


class DocumentCatalog:
    """Named documents behind one binding surface (see module docs).

    ``path=None`` (default) keeps everything in memory — the pre-1.6
    behaviour, unchanged.  A path opens or creates a disk-backed
    collection: existing documents load lazily, ``add``/``remove``
    commit incrementally, and :meth:`refresh` picks up commits made by
    another process (the pre-forked server's children attach this way).
    """

    def __init__(self, path: Optional[str | Path] = None, *,
                 durability: str = "sync") -> None:
        from repro.storage.persist import CatalogStorage, check_durability

        self._durability = check_durability(durability)
        self._docs: dict[str, StoredDocument] = {}
        # id(document node) → handle, for the runtime index-eligibility
        # check in compiled AccessPath operators (only indexed documents
        # pin a tree, so the ids stay valid while the catalog lives)
        self._by_node: dict[int, StoredDocument] = {}
        self._storage: Optional[CatalogStorage] = None
        self.path: Optional[Path] = None
        self._result_epoch = 0
        if path is not None:
            self._storage = CatalogStorage(path)
            self.path = self._storage.path
            for name, entry in self._storage.entries().items():
                self._docs[name] = PersistedDocument(name, entry, self)
        #: which catalog this is, for :meth:`fingerprint`: the
        #: collection id persisted in a disk catalog's manifest, a
        #: process-wide serial for an in-memory one
        self._identity = ("memory", next(_CATALOG_IDS)) if path is None \
            else ("disk", self._storage.collection_id)

    def add(self, name: str, source: Any, *, store: str = "tree",
            index: bool = True,
            durability: Optional[str] = None) -> StoredDocument:
        """Ingest ``source`` under ``name``, replacing any previous entry.

        - ``source``: XML text (str), :func:`repro.xml`, a
          :class:`DocumentNode`, or an existing store;
        - ``store``: ``"tree"`` | ``"tokens"`` | ``"text"`` — ignored
          when ``source`` is already a store;
        - ``index``: build element/value indexes (pins a materialized
          tree; required for index-backed access paths);
        - ``durability``: disk catalogs only — ``"sync"`` (default)
          fsyncs the commit, ``"none"`` writes atomically without
          fsync.  In-memory catalogs validate and ignore it.
        """
        if not isinstance(name, str) or not name:
            raise TypeError("catalog document name must be a non-empty str")
        if durability is not None:
            from repro.storage.persist import check_durability

            check_durability(durability)
        from repro.engine import xml as xml_wrapper

        if isinstance(source, BaseStore):
            backing = source
        elif isinstance(source, DocumentNode):
            if store != "tree":
                raise ValueError(
                    f"a DocumentNode can only back a tree store, not {store!r}")
            backing = TreeStore.from_document(source)
        else:
            if isinstance(source, xml_wrapper):
                source = source.text
            if not isinstance(source, str):
                raise TypeError(
                    "catalog source must be XML text, repro.xml(...), a "
                    f"DocumentNode, or a store — got {type(source).__name__}")
            try:
                store_cls = _STORE_KINDS[store]
            except KeyError:
                raise ValueError(
                    f"unknown store kind {store!r}; expected one of "
                    f"{sorted(_STORE_KINDS)}") from None
            backing = store_cls(xml_text=source)
        previous = self._docs.get(name)
        if previous is not None:
            # re-ingest under an existing name: any cached statistics on
            # the incoming store may describe stale contents (a TextStore
            # whose .text was mutated re-parses on document(), so its
            # cached stats would silently diverge from what queries see)
            backing.invalidate_stats()
        stored = StoredDocument(name, backing, bool(index))
        if self._storage is not None:
            entry = self._persist(stored,
                                  durability or self._durability)
            stored.generation = entry.generation
        if previous is not None and previous._doc is not None:
            self._by_node.pop(id(previous._doc), None)
        self._docs[name] = stored
        if stored._doc is not None:
            self._by_node[id(stored._doc)] = stored
        return stored

    def _persist(self, stored: StoredDocument, durability: str):
        """Commit a freshly ingested document to the collection
        directory.  The hot in-memory handle keeps serving this
        process; the segment serves every later open and attach."""
        from repro.tokens.binary import write_binary
        from repro.tokens.build import tokens_from_node

        store = stored.store
        doc = stored._doc
        if isinstance(store, TokenStore):
            tokens_blob = store.blob  # already the RTS1 wire format
        else:
            if doc is None:
                doc = store.document()
            tokens_blob = write_binary(tokens_from_node(doc), pooled=True)
        base_uri = getattr(store, "base_uri", "")
        if not base_uri and doc is not None:
            base_uri = doc.base_uri
        return self._storage.persist_document(
            stored.name, kind=store.kind, indexed=stored.indexed,
            tokens_blob=tokens_blob, stats=stored.stats,
            doc=stored._doc, element_index=stored.element_index,
            value_index=stored.value_index, base_uri=base_uri,
            durability=durability)

    def remove(self, name: str, *,
               durability: Optional[str] = None) -> bool:
        """Drop ``name`` from the catalog (and, in disk mode, commit
        the removal).  Returns False when the name was absent."""
        stored = self._docs.pop(name, None)
        if stored is not None and stored._doc is not None:
            self._by_node.pop(id(stored._doc), None)
        if self._storage is not None:
            removed = self._storage.remove_document(
                name, durability or self._durability)
            return stored is not None or removed
        return stored is not None

    def refresh(self) -> list[str]:
        """Disk mode: re-read the manifest and swap in documents another
        process committed.  Returns the names that changed (added,
        replaced, or removed).  In-memory catalogs return ``[]``.

        Unchanged generations keep their handles (and any materialized
        trees); changed ones become lazy :class:`PersistedDocument`
        handles again.
        """
        if self._storage is None:
            return []
        entries = self._storage.reload()
        changed: list[str] = []
        for name, entry in entries.items():
            current = self._docs.get(name)
            if current is not None and current.generation == entry.generation:
                continue
            if current is not None and current._doc is not None:
                self._by_node.pop(id(current._doc), None)
            self._docs[name] = PersistedDocument(name, entry, self)
            changed.append(name)
        for name in [n for n in self._docs if n not in entries]:
            stale = self._docs.pop(name)
            if stale._doc is not None:
                self._by_node.pop(id(stale._doc), None)
            changed.append(name)
        return sorted(changed)

    # -- scatter-gather shard ownership -------------------------------------

    def shard_map(self, shards: int, *, persist: bool = True) -> dict[str, int]:
        """Deterministic size-balanced document → shard assignment.

        A persisted assignment (disk catalogs store it in the manifest)
        is reused verbatim while it still covers exactly this document
        set at this shard count — shard ownership surviving restarts is
        what keeps a document landing on the worker that already has
        its segment materialized.  Otherwise the assignment is
        recomputed by longest-processing-time bin packing: documents
        sorted by descending weight (segment bytes on disk, total node
        count in memory; name breaks ties) each go to the least-loaded
        shard.  Deterministic by construction — every process computes
        the identical map from the identical manifest.
        """
        if shards < 1:
            raise ValueError("shards must be >= 1")
        names = self.names()
        if self._storage is not None:
            stored = self._storage.shard_map()
            if stored is not None and stored["shards"] == shards \
                    and set(stored["assignment"]) == set(names) \
                    and all(0 <= sid < shards
                            for sid in stored["assignment"].values()):
                return stored["assignment"]
        weighted = []
        for name in names:
            doc = self._docs[name]
            entry = getattr(doc, "_entry", None)
            weight = entry.size if entry is not None \
                else doc.stats.total_nodes
            weighted.append((-weight, name))
        loads = [0] * shards
        assignment: dict[str, int] = {}
        for neg_weight, name in sorted(weighted):
            sid = min(range(shards), key=lambda s: (loads[s], s))
            assignment[name] = sid
            loads[sid] += -neg_weight
        if persist and self._storage is not None:
            self._storage.store_shard_map(shards, assignment,
                                          self._durability)
        return assignment

    # -- the server result cache's durable epoch ---------------------------

    @property
    def result_epoch(self) -> int:
        """The collection's result-cache invalidation epoch.  Disk
        catalogs persist it in the manifest, so a restarted server can
        never serve results cached against a previous process's
        contents (see :mod:`repro.server.cache`)."""
        if self._storage is not None:
            return self._storage.result_epoch
        return self._result_epoch

    def bump_result_epoch(self) -> int:
        if self._storage is not None:
            return self._storage.bump_result_epoch(self._durability)
        self._result_epoch += 1
        return self._result_epoch

    # -- lookup ------------------------------------------------------------

    def get(self, name: str) -> Optional[StoredDocument]:
        return self._docs.get(name)

    def __getitem__(self, name: str) -> StoredDocument:
        return self._docs[name]

    def __contains__(self, name: str) -> bool:
        return name in self._docs

    def __iter__(self) -> Iterator[StoredDocument]:
        return iter(self._docs.values())

    def __len__(self) -> int:
        return len(self._docs)

    def names(self) -> list[str]:
        return sorted(self._docs)

    def stored_for(self, node: Node) -> Optional[StoredDocument]:
        """The indexed handle whose pinned tree is ``node``, if any."""
        return self._by_node.get(id(node))

    def fingerprint(self) -> tuple:
        """Hashable identity of this catalog and every binding in it,
        for the compile and result caches.  The catalog's own identity
        leads: document generations are numbered per catalog (per
        collection directory on disk), so two catalogs holding
        same-named documents at equal generations would otherwise share
        a key — and one tenant's cached plan would answer from the
        other tenant's document."""
        return (self._identity,) + tuple(self._docs[name].fingerprint()
                                         for name in sorted(self._docs))

    def __repr__(self) -> str:
        where = f", path={str(self.path)!r}" if self.path else ""
        return f"DocumentCatalog({self.names()!r}{where})"
