"""Disk persistence: segment files and the durable catalog manifest.

The on-disk layout behind ``repro.catalog(path=...)``.  One directory
per collection::

    <path>/manifest.json          versioned catalog manifest
    <path>/<name>-<gen>.seg       one segment per document

A **segment** ("RSG1") holds the document tree as columns plus the
statistics the planner needs, so a reopened catalog never re-parses
XML:

    magic "RSG1" | version u16 | section count u16
    section table: tag(4) | offset u64 | length u64 | crc32 u32
    section payloads ...

Sections (version 2):

- ``NODE`` — the tree as one pre-order run of records (element,
  attribute, namespace declaration, text, comment, PI, end), stored as
  columns: a kind byte per record, one ``u32`` argument column, a
  ``u32``-triple QName table of string ids, and a NUL-joined UTF-8
  string table.  :func:`encode_nodes` writes it in one walk of the
  tree; :func:`decode_nodes` rebuilds the tree with ``array.frombytes``
  and one build loop;
- ``STAT`` — :class:`~repro.storage.stats.DocumentStats` as JSON,
  including the PR 7 edge-pair tables, decoded without touching the
  tree (the planner runs before any document materializes);
- ``META`` — base URI and friends.

Region labels and element/value posting lists are not stored: they are
pure functions of the tree, and the catalog handle
(:class:`~repro.catalog.StoredDocument`, the one owner of everything
derived from a document) builds them from the decoded tree on first
access, as it does for an in-memory document.  A commit therefore
builds no labels, postings or value entries, and a process that only
plans (the pre-forked server's parent) never pays for them.

Version 1 segments (8.0 and earlier) still open: their ``TOKS``
section, a pooled :mod:`repro.tokens.binary` ("RTS1") stream, decodes
through :func:`~repro.tokens.build.tree_from_tokens`, and their
``LABL``/``EPST``/``VPST`` index sections are ignored.  Every commit
writes version 2.

Loading is mmap-backed and per-section (CRC-checked), so opening a
catalog reads only the manifest; statistics decode on first planner
access and trees materialize on first bind.

**Crash safety.**  Every file write goes *temp → fsync → atomic
rename → directory fsync* (``durability="sync"``; ``"none"`` skips the
fsyncs but keeps the atomic rename).  A segment is committed before
the manifest that references it, so a crash at any point leaves the
manifest describing a consistent previous state; entries whose segment
is missing or truncated (possible only after a ``durability="none"``
power loss) are rolled back when the manifest is read.  Superseded
segments are deleted only after the new manifest lands; stragglers
from an interrupted commit are cleaned by :meth:`CatalogStorage.
vacuum`.  One process writes a collection at a time — readers
(pre-forked worker children) attach read-only and re-read the manifest
via :meth:`CatalogStorage.reload`.

The manifest also carries two durable counters: ``next_generation``
(document ingest generations survive restarts, so compile-cache and
server result-cache fingerprints can never collide with a previous
process's) and ``result_epoch`` (the server result cache's per-tenant
invalidation epoch — see :mod:`repro.server.cache`) — and a
``collection_id`` minted when the collection is created: generations
are numbered per collection, so a cache key needs both.
"""

from __future__ import annotations

import json
import mmap
import os
import struct
import sys
import threading
import zlib
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional
from urllib.parse import quote

from repro.errors import StorageError
from repro.qname import QName
from repro.storage.stats import DocumentStats
from repro.storage.stores import BaseStore
from repro.tokens.binary import read_binary
from repro.tokens.build import tree_from_tokens
from repro.xdm.nodes import (
    AttributeNode,
    CommentNode,
    DocumentNode,
    ElementNode,
    PINode,
    TextNode,
)

_SEG_MAGIC = b"RSG1"
_SEG_VERSION = 2
#: 1 is the 8.0 token-stream segment, read through its ``TOKS`` section
_READABLE_VERSIONS = (1, 2)
_HEADER = struct.Struct("<4sHH")        # magic, version, section count
_TABLE_ENTRY = struct.Struct("<4sQQI")  # tag, offset, length, crc32

SEC_NODES = b"NODE"
SEC_STATS = b"STAT"
SEC_META = b"META"
#: the version 1 token section (decode only)
SEC_TOKENS = b"TOKS"

MANIFEST_NAME = "manifest.json"
MANIFEST_FORMAT = 1

#: the two durability levels ``DocumentCatalog.add`` accepts
DURABILITIES = ("none", "sync")

# 'I' is 4 bytes on every CPython that matters; fall back defensively
_U32_CODE = "I" if array("I").itemsize == 4 else "L"

# NODE record kinds; the argument column holds, per record:
# element → QName id; attribute → QName id, string id; namespace
# declaration → prefix and URI string ids; text and comment → string
# id; PI → target and content string ids; end → nothing
_END, _ELEM, _TEXT, _ATTR, _NS, _COMMENT, _PI = range(7)


def check_durability(durability: str) -> str:
    if durability not in DURABILITIES:
        raise ValueError(f"durability must be one of {list(DURABILITIES)}, "
                         f"got {durability!r}")
    return durability


# -- u32 arrays (little-endian on disk) -----------------------------------

def _pack_u32s(values: Iterable[int]) -> bytes:
    arr = array(_U32_CODE, values)
    if sys.byteorder == "big":
        arr.byteswap()
    return arr.tobytes()


def _unpack_u32s(buf, count: int) -> array:
    arr = array(_U32_CODE)
    arr.frombytes(bytes(buf[: count * 4]))
    if len(arr) != count:
        raise StorageError("truncated u32 array in segment")
    if sys.byteorder == "big":
        arr.byteswap()
    return arr


# -- the NODE section ------------------------------------------------------

def encode_nodes(doc: DocumentNode) -> bytes:
    """The ``NODE`` section of ``doc``, built in one iterative pre-order
    walk: ``u32`` counts (records, QNames, arguments, string bytes),
    then the QName triples, the argument column, the kind bytes and
    the string table."""
    kinds = bytearray()
    args = array(_U32_CODE)
    strings: dict[str, int] = {}
    qnames: dict[int, int] = {}  # id(QName) → QName id
    triples = array(_U32_CODE)
    kind, arg, sid = kinds.append, args.append, strings.setdefault

    def qname(name: QName) -> int:
        qid = qnames.get(id(name))
        if qid is None:
            qid = qnames[id(name)] = len(qnames)
            triples.append(sid(name.uri, len(strings)))
            triples.append(sid(name.local, len(strings)))
            triples.append(sid(name.prefix, len(strings)))
        return qid

    # None marks an element's end, below its children on the stack: a
    # document may nest deeper than the interpreter's recursion limit
    pending: list = doc.children[::-1]
    pop, push, extend = pending.pop, pending.append, pending.extend
    while pending:
        node = pop()
        cls = type(node)
        if node is None:
            kind(_END)
        elif cls is ElementNode:
            kind(_ELEM)
            arg(qname(node.name))
            for prefix, uri in node.ns_decls:
                kind(_NS)
                arg(sid(prefix, len(strings)))
                arg(sid(uri, len(strings)))
            for attr in node._attributes:
                kind(_ATTR)
                arg(qname(attr.name))
                arg(sid(attr.value, len(strings)))
            push(None)
            extend(node._children[::-1])
        elif cls is TextNode:
            kind(_TEXT)
            arg(sid(node.content, len(strings)))
        elif cls is CommentNode:
            kind(_COMMENT)
            arg(sid(node.content, len(strings)))
        elif cls is PINode:
            kind(_PI)
            arg(sid(node.target, len(strings)))
            arg(sid(node.content, len(strings)))
        else:
            raise StorageError(f"cannot persist a {node.kind} node")

    table = "\0".join(strings)
    if table.count("\0") != max(len(strings) - 1, 0):
        raise StorageError("cannot persist a string holding U+0000 "
                           "(XML 1.0 forbids it)")
    try:
        raw = table.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise StorageError(f"cannot persist a string that is not valid "
                           f"Unicode ({exc.reason})") from None
    return b"".join((_pack_u32s((len(kinds), len(qnames), len(args),
                                 len(raw))),
                     _pack_u32s(triples), _pack_u32s(args), kinds, raw))


def decode_nodes(view, base_uri: str = "") -> DocumentNode:
    """Rebuild the tree :func:`encode_nodes` wrote: the columns come in
    with ``array.frombytes`` and one loop over the kind bytes builds
    every node."""
    try:
        n_kinds, n_qnames, n_args, n_bytes = _unpack_u32s(view, 4)
        pos = 16
        triples = _unpack_u32s(view[pos:], 3 * n_qnames)
        pos += 12 * n_qnames
        args = _unpack_u32s(view[pos:], n_args)
        pos += 4 * n_args
        kinds = bytes(view[pos: pos + n_kinds])
        pos += n_kinds
        if len(kinds) != n_kinds or len(view) != pos + n_bytes:
            raise StorageError("NODE section has the wrong length")
        strings = bytes(view[pos:]).decode("utf-8").split("\0")
        qnames = [QName(strings[triples[i]], strings[triples[i + 1]],
                        strings[triples[i + 2]])
                  for i in range(0, len(triples), 3)]

        doc = DocumentNode(base_uri)
        parent = doc
        children = doc._children
        stack: list = []
        nxt = iter(args).__next__
        for kind in kinds:
            if kind == _ELEM:
                node = ElementNode(qnames[nxt()], parent)
                children.append(node)
                stack.append(parent)
                parent = node
                children = node._children
            elif kind == _END:
                parent = stack.pop()
                children = parent._children
            elif kind == _TEXT:
                children.append(TextNode(strings[nxt()], parent))
            elif kind == _ATTR:
                name = qnames[nxt()]
                parent._attributes.append(
                    AttributeNode(name, strings[nxt()], parent))
            elif kind == _NS:
                prefix = strings[nxt()]
                parent.ns_decls += ((prefix, strings[nxt()]),)
            elif kind == _COMMENT:
                children.append(CommentNode(strings[nxt()], parent))
            elif kind == _PI:
                target = strings[nxt()]
                children.append(PINode(target, strings[nxt()], parent))
            else:
                raise StorageError(f"unknown NODE record kind {kind}")
        if stack:
            raise StorageError("NODE section ends inside an element")
    except (IndexError, StopIteration, AttributeError,
            UnicodeDecodeError) as exc:
        raise StorageError(f"malformed NODE section ({exc})") from None
    return doc


# -- segment encode --------------------------------------------------------

def build_segment(*, doc: DocumentNode, stats: DocumentStats,
                  meta: dict) -> bytes:
    """Assemble one segment file image (header + table + sections)."""
    sections = [
        (SEC_NODES, encode_nodes(doc)),
        (SEC_STATS, json.dumps(stats.to_dict(),
                               separators=(",", ":")).encode("utf-8")),
        (SEC_META, json.dumps(meta, separators=(",", ":")).encode("utf-8"))]
    header = _HEADER.pack(_SEG_MAGIC, _SEG_VERSION, len(sections))
    offset = len(header) + _TABLE_ENTRY.size * len(sections)
    table = bytearray()
    for tag, data in sections:
        table += _TABLE_ENTRY.pack(tag, offset, len(data), zlib.crc32(data))
        offset += len(data)
    return b"".join([header, table] + [data for _, data in sections])


# -- segment decode --------------------------------------------------------

class SegmentReader:
    """One open segment file, mmap-backed, sections decoded on demand."""

    def __init__(self, path: Path, expected_size: Optional[int] = None):
        self._path = path
        try:
            self._fh = open(path, "rb")
        except OSError as exc:
            raise StorageError(f"cannot open segment {path}: {exc}") from exc
        try:
            size = os.fstat(self._fh.fileno()).st_size
            if expected_size is not None and size != expected_size:
                raise StorageError(
                    f"segment {path} is {size} bytes; the manifest "
                    f"committed {expected_size} (partial write?)")
            if size < _HEADER.size:
                raise StorageError(f"segment {path} is truncated")
            self._mm = mmap.mmap(self._fh.fileno(), 0,
                                 access=mmap.ACCESS_READ)
        except BaseException:
            self._fh.close()
            raise
        self._view = memoryview(self._mm)
        magic, version, count = _HEADER.unpack_from(self._view, 0)
        if magic != _SEG_MAGIC:
            self.close()
            raise StorageError(f"segment {path}: bad magic {magic!r}")
        if version not in _READABLE_VERSIONS:
            self.close()
            raise StorageError(
                f"segment {path}: unsupported version {version}")
        self.version = version
        self._sections: dict[bytes, tuple[int, int, int]] = {}
        pos = _HEADER.size
        for _ in range(count):
            if pos + _TABLE_ENTRY.size > size:
                self.close()
                raise StorageError(f"segment {path}: truncated section table")
            tag, offset, length, crc = _TABLE_ENTRY.unpack_from(self._view,
                                                                pos)
            if offset + length > size:
                self.close()
                raise StorageError(
                    f"segment {path}: section {tag!r} overruns the file")
            self._sections[bytes(tag)] = (offset, length, crc)
            pos += _TABLE_ENTRY.size

    def has(self, tag: bytes) -> bool:
        return tag in self._sections

    def section(self, tag: bytes) -> memoryview:
        """A zero-copy view of one section, CRC-verified."""
        try:
            offset, length, crc = self._sections[tag]
        except KeyError:
            raise StorageError(
                f"segment {self._path} has no {tag!r} section") from None
        view = self._view[offset: offset + length]
        if zlib.crc32(view) != crc:
            raise StorageError(
                f"segment {self._path}: section {tag!r} fails its CRC "
                f"(corrupt file)")
        return view

    def stats(self) -> DocumentStats:
        return DocumentStats.from_dict(
            json.loads(bytes(self.section(SEC_STATS)).decode("utf-8")))

    def meta(self) -> dict:
        return json.loads(bytes(self.section(SEC_META)).decode("utf-8"))

    def materialize_tree(self) -> DocumentNode:
        """Rebuild the tree from the node columns — never from XML."""
        base_uri = self.meta().get("base_uri", "")
        if self.version == 2:
            return decode_nodes(self.section(SEC_NODES), base_uri)
        doc = tree_from_tokens(read_binary(self.section(SEC_TOKENS)))
        doc._base_uri = base_uri
        return doc

    def close(self) -> None:
        self._view.release()
        try:
            self._mm.close()
        except BufferError:
            # a lazy consumer still holds a section view; the mapping
            # closes when the last view is dropped
            pass
        self._fh.close()

    def __enter__(self) -> "SegmentReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# -- the disk-backed store handle -----------------------------------------

class DiskStore(BaseStore):
    """A :class:`BaseStore` whose backing is a persisted segment.

    ``kind`` mirrors the ingested store's kind.  It holds no tree and
    caches nothing: every :meth:`document` rebuilds the tree from the
    node columns (never re-parsing XML), and every :meth:`stats` decodes
    the ``STAT`` section.  The catalog handle decides what to keep.
    """

    def __init__(self, storage: "CatalogStorage", entry: "ManifestEntry"):
        self._storage = storage
        self._entry = entry
        self.kind = entry.kind

    def document(self) -> DocumentNode:
        with self._storage.open_segment(self._entry) as reader:
            return reader.materialize_tree()

    def stats(self) -> DocumentStats:
        """Decoded straight from the segment's ``STAT`` section — the
        planner costs access paths without materializing the tree."""
        with self._storage.open_segment(self._entry) as reader:
            return reader.stats()


# -- the durable catalog directory ----------------------------------------

@dataclass(frozen=True)
class ManifestEntry:
    """One committed document: what the manifest knows without IO."""

    name: str
    file: str
    generation: int
    kind: str
    indexed: bool
    size: int


#: every key a manifest holds
_MANIFEST_KEYS = ("format", "next_generation", "result_epoch", "documents",
                  "collection_id")


def _fresh_manifest() -> dict:
    return {"format": MANIFEST_FORMAT, "next_generation": 1,
            "result_epoch": 0, "documents": {},
            "collection_id": os.urandom(16).hex()}


class CatalogStorage:
    """One collection directory: segments plus the versioned manifest.

    Single-writer, many-reader: the process that ingests commits
    through this object; reader processes (pre-forked children) open
    the same directory and :meth:`reload` after each parent commit.
    Opening never deletes or rewrites anything — invalid entries are
    rolled back *in memory*, so a reader can open mid-commit safely.
    """

    def __init__(self, path) -> None:
        self.path = Path(path)
        self.path.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._manifest = self._read_manifest(create=True)

    # -- manifest ----------------------------------------------------------

    def _read_manifest(self, create: bool = False) -> dict:
        mpath = self.path / MANIFEST_NAME
        try:
            raw = mpath.read_text("utf-8")
        except FileNotFoundError:
            manifest = _fresh_manifest()
            if create:
                # establish the directory as a collection (the server's
                # warm-restart scan looks for manifest.json)
                self._commit_manifest(manifest, "sync")
            return manifest
        except OSError as exc:
            raise StorageError(
                f"cannot read catalog manifest {mpath}: {exc}") from exc
        try:
            manifest = json.loads(raw)
        except ValueError as exc:
            raise StorageError(
                f"corrupt catalog manifest {mpath}: {exc}") from exc
        fmt = manifest.get("format")
        if fmt != MANIFEST_FORMAT:
            raise StorageError(
                f"unsupported catalog format {fmt!r} in {mpath} "
                f"(this build reads format {MANIFEST_FORMAT})")
        # collections committed before ids existed: the directory stands
        # in (every process opening it derives the same), and the next
        # commit persists it
        manifest.setdefault("collection_id", f"path:{self.path.resolve()}")
        # a key this build does not read (7.0 also stored the retired
        # scatter router's document placement) is dropped, so the next
        # commit writes the manifest without it
        manifest = {key: manifest[key] for key in _MANIFEST_KEYS
                    if key in manifest}
        self._rollback(manifest)
        return manifest

    def _rollback(self, manifest: dict) -> None:
        """Drop entries whose segment is missing or truncated.

        Under ``durability="sync"`` this never fires (a segment is
        fully on disk before the manifest referencing it); after a
        ``durability="none"`` power loss the rename may have landed
        without the data, and the catalog rolls back to the documents
        that did survive.
        """
        docs = manifest.setdefault("documents", {})
        for name in list(docs):
            entry = docs[name]
            try:
                size = (self.path / entry["file"]).stat().st_size
            except OSError:
                size = -1
            if size != entry.get("size"):
                del docs[name]

    def _commit_manifest(self, manifest: dict, durability: str) -> None:
        data = json.dumps(manifest, sort_keys=True,
                          separators=(",", ":")).encode("utf-8")
        self._write_file(self.path / MANIFEST_NAME, data, durability)

    def _write_file(self, target: Path, data: bytes,
                    durability: str) -> None:
        """The commit primitive: temp → fsync → rename → dir fsync."""
        tmp = target.with_name(target.name + ".tmp")
        with open(tmp, "wb") as fh:
            fh.write(data)
            if durability == "sync":
                fh.flush()
                os.fsync(fh.fileno())
        os.replace(tmp, target)
        if durability == "sync":
            self._sync_dir()

    def _sync_dir(self) -> None:
        try:
            fd = os.open(self.path, os.O_RDONLY)
        except OSError:
            return
        try:
            os.fsync(fd)
        except OSError:
            pass
        finally:
            os.close(fd)

    # -- reads -------------------------------------------------------------

    def entries(self) -> dict[str, ManifestEntry]:
        with self._lock:
            return {name: ManifestEntry(
                        name=name, file=e["file"],
                        generation=int(e["generation"]), kind=e["kind"],
                        indexed=bool(e["indexed"]), size=int(e["size"]))
                    for name, e in self._manifest["documents"].items()}

    def reload(self) -> dict[str, ManifestEntry]:
        """Re-read the manifest from disk (reader processes call this
        after the writer commits)."""
        with self._lock:
            self._manifest = self._read_manifest()
        return self.entries()

    def open_segment(self, entry: ManifestEntry) -> SegmentReader:
        return SegmentReader(self.path / entry.file,
                             expected_size=entry.size)

    @property
    def collection_id(self) -> str:
        """This collection's identity, minted once and persisted in the
        manifest.  Generations are numbered per collection, so they
        identify a document's content only together with this id."""
        return self._manifest["collection_id"]

    @property
    def next_generation(self) -> int:
        return int(self._manifest.get("next_generation", 1))

    @property
    def result_epoch(self) -> int:
        return int(self._manifest.get("result_epoch", 0))

    # -- writes ------------------------------------------------------------

    def persist_document(self, name: str, *, kind: str, indexed: bool,
                         doc: DocumentNode, stats: DocumentStats,
                         base_uri: str = "",
                         durability: str = "sync") -> ManifestEntry:
        """Commit one document: segment first, then the manifest.

        Draws the durable generation counter, so the returned entry's
        ``generation`` is unique across every process that ever wrote
        this collection.
        """
        check_durability(durability)
        blob = build_segment(
            doc=doc, stats=stats,
            meta={"name": name, "kind": kind, "base_uri": base_uri})
        with self._lock:
            generation = int(self._manifest.get("next_generation", 1))
            filename = f"{quote(name, safe='')}-{generation}.seg"
            self._write_file(self.path / filename, blob, durability)
            old = self._manifest["documents"].get(name)
            self._manifest["documents"][name] = {
                "file": filename, "generation": generation, "kind": kind,
                "indexed": bool(indexed), "size": len(blob)}
            self._manifest["next_generation"] = generation + 1
            self._commit_manifest(self._manifest, durability)
            if old is not None and old["file"] != filename:
                # only after the new manifest landed — a crash before
                # this line leaves a consistent catalog either way
                (self.path / old["file"]).unlink(missing_ok=True)
            return ManifestEntry(name, filename, generation, kind,
                                 bool(indexed), len(blob))

    def remove_document(self, name: str, durability: str = "sync") -> bool:
        check_durability(durability)
        with self._lock:
            old = self._manifest["documents"].pop(name, None)
            if old is None:
                return False
            self._commit_manifest(self._manifest, durability)
            (self.path / old["file"]).unlink(missing_ok=True)
            return True

    def bump_result_epoch(self, durability: str = "sync") -> int:
        check_durability(durability)
        with self._lock:
            epoch = int(self._manifest.get("result_epoch", 0)) + 1
            self._manifest["result_epoch"] = epoch
            self._commit_manifest(self._manifest, durability)
            return epoch

    def vacuum(self) -> list[str]:
        """Delete ``*.tmp`` files and segments the manifest no longer
        references (stragglers of interrupted commits).  Writer-only:
        never called on open, so readers can open mid-commit."""
        with self._lock:
            keep = {e["file"]
                    for e in self._manifest["documents"].values()}
            removed = []
            for child in sorted(self.path.iterdir()):
                if child.name == MANIFEST_NAME or child.name in keep:
                    continue
                if child.suffix == ".seg" or child.name.endswith(".tmp"):
                    child.unlink(missing_ok=True)
                    removed.append(child.name)
            return removed

    def __repr__(self) -> str:
        return f"CatalogStorage({str(self.path)!r})"
