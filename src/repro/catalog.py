"""The document catalog: one place to bind documents to queries.

Before 1.2 a document reached the engine four different ways (XML text
as the context item, ``repro.xml(...)`` wrappers, raw nodes, hand-built
stores).  The catalog unifies them::

    cat = repro.catalog()
    books = cat.add("books", xml_text)            # tree store + indexes
    engine = repro.Engine(catalog=cat)
    engine.compile("$books//book[price = '55']").execute()

``add`` ingests a source into one of the three storage modes
(:mod:`repro.storage`) and returns a :class:`StoredDocument` handle,
the one owner of what is derived from the document: it pins the tree
(indexed or tree-stored documents), keeps the per-document statistics,
and (by default) builds the element/value indexes the access-path
planner (:mod:`repro.compiler.planner`) uses to replace tree
navigation with posting-list scans and point lookups.  A store only
holds a form of the document.  The handle is accepted anywhere
``repro.xml(...)`` is: ``variables=``, ``documents=``, and the context
item.

Catalog documents are bound automatically when executing queries
compiled by a catalog-carrying engine: ``$books`` above needs no
explicit ``variables={"books": ...}``.

**Disk mode (1.6).**  ``repro.catalog(path=...)`` opens or creates a
*persistent* catalog: every ``add`` also commits the document — its
tree as node columns, plus statistics — to a segment file under
``path`` (:mod:`repro.storage.persist`), and a fresh process reopening
the same path sees every document without re-parsing any XML.
Reopened documents are :class:`PersistedDocument` handles, which
differ only in where the tree and statistics come from: statistics
decode from disk for the planner immediately, the tree materializes
lazily (mmap-backed) on first bind, and the indexes are derived from
it on first access, as for an in-memory handle.  ``add`` accepts
``durability="sync"`` (fsync'd commit, the default) or ``"none"``
(atomic rename only).  Ingest generations come from the manifest's
durable counter, so compile-cache and server result-cache fingerprints
stay collision-free across restarts.
"""

from __future__ import annotations

import itertools
import threading
import weakref
from pathlib import Path
from typing import Any, Iterator, Optional

from repro.storage.indexes import ElementIndex, ValueIndex
from repro.storage.stats import DocumentStats, collect_stats
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

    The handle is the one owner of what is derived from its document.
    It pins one tree when the document is indexed or tree-stored, so
    posting lists and the bound document share node identity, and an
    indexed handle registers that tree in its catalog's node map; any
    other handle keeps its store's access semantics (a text store
    re-parses per execution).  It computes the statistics once, and builds each index
    once, on first access, under its own lock.
    """

    __slots__ = ("name", "store", "indexed", "generation", "_catalog",
                 "_lock", "_doc", "_stats", "_element_index",
                 "_value_index")

    #: pin at construction (an in-memory add) rather than on first use
    _pin_eagerly = True

    def __init__(self, name: str, store: BaseStore, indexed: bool,
                 catalog: "DocumentCatalog",
                 generation: Optional[int] = None):
        self.name = name
        self.store = store
        self.indexed = indexed
        self.generation = next(_GENERATION) if generation is None \
            else generation
        # weak: a handle must not keep its catalog (and every tree and
        # index the catalog holds) alive past the catalog's last user
        self._catalog = weakref.ref(catalog)
        self._lock = threading.RLock()
        self._doc: Optional[DocumentNode] = None
        self._stats: Optional[DocumentStats] = None
        self._element_index: Optional[ElementIndex] = None
        self._value_index: Optional[ValueIndex] = None
        if self._pin_eagerly and self._pins():
            self._doc = self._tree()  # add() registers it once committed

    def _pins(self) -> bool:
        return self.indexed or self.store.kind == "tree"

    def _pin(self) -> DocumentNode:
        with self._lock:
            doc = self._doc
            if doc is None:
                doc = self._doc = self._tree()
                self._register()
        return doc

    def _register(self) -> None:
        """Enter an indexed handle's pinned tree in the node map."""
        catalog = self._catalog()
        if catalog is not None and self.indexed:
            catalog._by_node[id(self._doc)] = self

    def _tree(self) -> DocumentNode:
        """A fresh tree of the stored document."""
        return self.store.document()

    def _load_stats(self) -> DocumentStats:
        return collect_stats(self.document())

    def document(self) -> DocumentNode:
        """The document node this handle binds."""
        doc = self._doc
        if doc is not None:
            return doc
        return self._pin() if self._pins() else self._tree()

    @property
    def stats(self) -> DocumentStats:
        stats = self._stats
        if stats is None:
            with self._lock:
                stats = self._stats
                if stats is None:
                    stats = self._stats = self._load_stats()
        return stats

    def _index(self, slot: str, cls):
        with self._lock:
            index = getattr(self, slot)
            if index is None:
                index = cls(self.document())
                setattr(self, slot, index)
        return index

    @property
    def element_index(self) -> Optional[ElementIndex]:
        """Element-name posting lists (None when not indexed)."""
        index = self._element_index
        if index is None and self.indexed:
            index = self._index("_element_index", ElementIndex)
        return index

    @property
    def value_index(self) -> Optional[ValueIndex]:
        """(name, value) point-lookup index (None when not indexed)."""
        index = self._value_index
        if index is None and self.indexed:
            index = self._index("_value_index", ValueIndex)
        return index

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
    :meth:`document` / index access rebuilds the tree from the node
    columns — never re-parsing XML.  All that differs from an in-memory
    handle is where the tree and the statistics come from: the segment,
    through a retry that adopts the fresh manifest entry when another
    process replaced this one's segment.
    """

    __slots__ = ()

    _pin_eagerly = False

    def __init__(self, name: str, entry, catalog: "DocumentCatalog"):
        from repro.storage.persist import DiskStore

        super().__init__(name, DiskStore(catalog._storage, entry),
                         entry.indexed, catalog, entry.generation)

    def _from_segment(self, read):
        from repro.storage.persist import DiskStore, StorageError

        for attempt in range(3):
            store = self.store
            try:
                return read(store)
            except (OSError, StorageError):
                # the writer re-ingested this name and unlinked our
                # segment after committing the new manifest: while no
                # tree is pinned, adopt the fresh entry and retry
                # (readers racing a concurrent add() land here instead
                # of failing).  A pinned handle keeps its generation;
                # refresh() replaces it.
                if attempt == 2:
                    raise
                with self._lock:
                    if self.store is not store:
                        continue  # another reader adopted it already
                    fresh = store._storage.reload().get(self.name)
                    if self._doc is not None or fresh is None \
                            or fresh.generation == self.generation:
                        raise
                    self.store = DiskStore(store._storage, fresh)
                    self.indexed = fresh.indexed
                    self.generation = fresh.generation
                    self._stats = None

    def _tree(self) -> DocumentNode:
        return self._from_segment(lambda store: store.document())

    def _load_stats(self) -> DocumentStats:
        from repro.storage.persist import StorageError

        try:
            return self._from_segment(lambda store: store.stats())
        except (OSError, StorageError):
            if self._doc is None:
                raise
            # the segment is gone but the tree it held is pinned
            return collect_stats(self._doc)

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
        # check in compiled AccessPath operators (only indexed handles
        # register, and they pin the tree, so the ids stay valid while
        # the catalog lives)
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
        stored = StoredDocument(name, backing, bool(index), self)
        if self._storage is not None:
            stored.generation = self._persist(
                stored, durability or self._durability).generation
        previous = self._docs.get(name)
        if previous is not None:
            self._forget(previous)
        if stored._doc is not None:
            stored._register()
        self._docs[name] = stored
        return stored

    def _persist(self, stored: StoredDocument, durability: str):
        """Commit a freshly ingested document to the collection
        directory.  The hot in-memory handle keeps serving this
        process; the segment serves every later open and attach.  The
        segment holds the tree the handle pinned (or the one tree built
        here) and that same tree's statistics, which the handle keeps;
        a reader derives labels and indexes from the tree."""
        doc = stored._doc if stored._doc is not None else stored._tree()
        stored._stats = collect_stats(doc)
        return self._storage.persist_document(
            stored.name, kind=stored.store.kind, indexed=stored.indexed,
            doc=doc, stats=stored._stats,
            base_uri=getattr(stored.store, "base_uri", "") or doc.base_uri,
            durability=durability)

    def _forget(self, stored: StoredDocument) -> None:
        """Drop ``stored``'s pinned tree from the node map, unless a
        newer handle of the same tree took its place."""
        doc = stored._doc
        if doc is not None and self._by_node.get(id(doc)) is stored:
            del self._by_node[id(doc)]

    def remove(self, name: str, *,
               durability: Optional[str] = None) -> bool:
        """Drop ``name`` from the catalog (and, in disk mode, commit
        the removal).  Returns False when the name was absent."""
        stored = self._docs.pop(name, None)
        if stored is not None:
            self._forget(stored)
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
            if current is not None:
                self._forget(current)
            self._docs[name] = PersistedDocument(name, entry, self)
            changed.append(name)
        for name in [n for n in self._docs if n not in entries]:
            self._forget(self._docs.pop(name))
            changed.append(name)
        return sorted(changed)

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
