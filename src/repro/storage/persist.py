"""Disk persistence: segment files and the durable catalog manifest.

The on-disk layout behind ``repro.catalog(path=...)``.  One directory
per collection::

    <path>/manifest.json          versioned catalog manifest
    <path>/<name>-<gen>.seg       one segment per document

A **segment** ("RSG1") is the paper's token-array representation plus
everything the planner and the index-backed access paths need, so a
reopened catalog never re-parses XML:

    magic "RSG1" | version u16 | section count u16
    section table: tag(4) | offset u64 | length u64 | crc32 u32
    section payloads ...

Sections:

- ``TOKS`` — the document as a pooled binary token stream, byte-for-
  byte the :mod:`repro.tokens.binary` ("RTS1") format; trees are
  rebuilt from it with :func:`~repro.tokens.build.tree_from_tokens`;
- ``LABL`` — the (pre, post, level) region labels as three ``u32``
  arrays, indexed by the deterministic pre-order node ordinal
  (:func:`enumerate_nodes` — the exact order
  :func:`~repro.storage.labels.label_document` assigns ``pre`` in);
- ``EPST`` / ``VPST`` — element and value posting lists as node
  ordinals (already document-ordered: no rebuild sort);
- ``STAT`` — :class:`~repro.storage.stats.DocumentStats` as JSON,
  including the PR 7 edge-pair tables, decoded without touching the
  tree (the planner runs before any document materializes);
- ``META`` — base URI and friends.

Node references can't be persisted, so posting lists store *ordinals*:
on load the tree is rebuilt from ``TOKS`` and both sides enumerate
nodes in the same structural order, which rebinds every ordinal to a
live node.  Loading is mmap-backed and per-section (CRC-checked), so
opening a catalog reads only the manifest; statistics decode on first
planner access and trees materialize on first bind.

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
from repro.storage.indexes import ElementIndex, ValueIndex
from repro.storage.labels import Label
from repro.storage.stats import DocumentStats
from repro.storage.stores import BaseStore
from repro.tokens.binary import read_binary
from repro.tokens.build import tree_from_tokens
from repro.xdm.nodes import DocumentNode, ElementNode, Node

_SEG_MAGIC = b"RSG1"
_SEG_VERSION = 1
_HEADER = struct.Struct("<4sHH")        # magic, version, section count
_TABLE_ENTRY = struct.Struct("<4sQQI")  # tag, offset, length, crc32
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")

SEC_TOKENS = b"TOKS"
SEC_LABELS = b"LABL"
SEC_STATS = b"STAT"
SEC_EPOST = b"EPST"
SEC_VPOST = b"VPST"
SEC_META = b"META"

MANIFEST_NAME = "manifest.json"
MANIFEST_FORMAT = 1

#: the two durability levels ``DocumentCatalog.add`` accepts
DURABILITIES = ("none", "sync")

# 'I' is 4 bytes on every CPython that matters; fall back defensively
_U32_CODE = "I" if array("I").itemsize == 4 else "L"


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


# -- node enumeration ------------------------------------------------------

def enumerate_nodes(doc: DocumentNode) -> list[Node]:
    """Every node of ``doc`` in the structural order ``label_document``
    assigns ``pre`` numbers in: node, then its attributes, then its
    children (depth-first).

    The order depends only on tree structure, which round-trips through
    the token stream — so the writer's ordinal for a node and the
    reader's ordinal after rebuilding the tree always agree.  This is
    what lets posting lists persist as plain integers.
    """
    out: list[Node] = []
    stack: list[Node] = [doc]
    while stack:
        node = stack.pop()
        out.append(node)
        if isinstance(node, ElementNode):
            out.extend(node.attributes)
        children = node.children
        if children:
            stack.extend(reversed(children))
    return out


# -- segment encode --------------------------------------------------------

def _encode_epost(element_index: ElementIndex,
                  ordinals: dict[int, int]) -> bytes:
    names = element_index.names()
    out = bytearray(_U32.pack(len(names)))
    for name in names:
        raw = name.encode("utf-8")
        out += _U16.pack(len(raw)) + raw
        ords = [ordinals[id(p.node)] for p in element_index.postings(name)]
        out += _U32.pack(len(ords)) + _pack_u32s(ords)
    return bytes(out)


def _encode_vpost(value_index: ValueIndex,
                  ordinals: dict[int, int]) -> bytes:
    items = sorted(value_index.entries(), key=lambda kv: kv[0])
    out = bytearray(_U32.pack(len(items)))
    for (name, value), nodes in items:
        raw_name = name.encode("utf-8")
        raw_value = value.encode("utf-8")
        out += _U16.pack(len(raw_name)) + raw_name
        out += _U32.pack(len(raw_value)) + raw_value
        out += _U32.pack(len(nodes)) + _pack_u32s(ordinals[id(n)]
                                                  for n in nodes)
    return bytes(out)


def build_segment(*, tokens_blob: bytes, stats: DocumentStats, indexed: bool,
                  doc: Optional[DocumentNode],
                  element_index: Optional[ElementIndex],
                  value_index: Optional[ValueIndex],
                  meta: dict) -> bytes:
    """Assemble one segment file image (header + table + sections)."""
    sections: list[tuple[bytes, bytes]] = [(SEC_TOKENS, bytes(tokens_blob))]
    if indexed:
        if doc is None or element_index is None or value_index is None:
            raise StorageError(
                "an indexed segment needs the materialized tree and both "
                "indexes")
        nodes = enumerate_nodes(doc)
        labels = element_index.labels
        if len(labels) != len(nodes):
            raise StorageError(
                f"label table covers {len(labels)} nodes but the tree "
                f"enumerates {len(nodes)}")
        ordinals = {id(n): i for i, n in enumerate(nodes)}
        try:
            labl = (_U32.pack(len(nodes))
                    + _pack_u32s(labels[id(n)].pre for n in nodes)
                    + _pack_u32s(labels[id(n)].post for n in nodes)
                    + _pack_u32s(labels[id(n)].level for n in nodes))
            sections.append((SEC_LABELS, labl))
            sections.append((SEC_EPOST, _encode_epost(element_index,
                                                      ordinals)))
            sections.append((SEC_VPOST, _encode_vpost(value_index,
                                                      ordinals)))
        except KeyError as exc:
            raise StorageError(
                f"index references a node outside the enumerated tree "
                f"({exc})") from exc
    sections.append((SEC_STATS, json.dumps(
        stats.to_dict(), separators=(",", ":")).encode("utf-8")))
    sections.append((SEC_META, json.dumps(
        meta, separators=(",", ":")).encode("utf-8")))

    header = _HEADER.pack(_SEG_MAGIC, _SEG_VERSION, len(sections))
    offset = len(header) + _TABLE_ENTRY.size * len(sections)
    table = bytearray()
    payload = bytearray()
    for tag, data in sections:
        table += _TABLE_ENTRY.pack(tag, offset, len(data), zlib.crc32(data))
        payload += data
        offset += len(data)
    return header + bytes(table) + bytes(payload)


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
        if version != _SEG_VERSION:
            self.close()
            raise StorageError(
                f"segment {path}: unsupported version {version}")
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
        """Rebuild the tree from the token section — never from XML."""
        doc = tree_from_tokens(read_binary(self.section(SEC_TOKENS)))
        base_uri = self.meta().get("base_uri", "")
        if base_uri:
            doc._base_uri = base_uri
        return doc

    def materialize_indexed(self) \
            -> tuple[DocumentNode, ElementIndex, ValueIndex]:
        """Rebuild tree + labels + both indexes, rebinding ordinals."""
        doc = self.materialize_tree()
        nodes = enumerate_nodes(doc)
        labl = self.section(SEC_LABELS)
        (count,) = _U32.unpack_from(labl, 0)
        if count != len(nodes):
            raise StorageError(
                f"segment {self._path}: label table covers {count} nodes "
                f"but the rebuilt tree has {len(nodes)}")
        body = labl[4:]
        pre = _unpack_u32s(body, count)
        post = _unpack_u32s(body[4 * count:], count)
        level = _unpack_u32s(body[8 * count:], count)
        labels: dict[int, Label] = {
            id(node): Label(pre[i], post[i], level[i])
            for i, node in enumerate(nodes)}
        element_index = ElementIndex.from_persisted(
            doc, nodes, labels, self._decode_epost())
        value_index = ValueIndex.from_persisted(nodes, self._decode_vpost())
        return doc, element_index, value_index

    def _decode_epost(self) -> dict[str, array]:
        view = self.section(SEC_EPOST)
        (n_names,) = _U32.unpack_from(view, 0)
        pos = 4
        out: dict[str, array] = {}
        for _ in range(n_names):
            (name_len,) = _U16.unpack_from(view, pos)
            pos += 2
            name = bytes(view[pos: pos + name_len]).decode("utf-8")
            pos += name_len
            (n,) = _U32.unpack_from(view, pos)
            pos += 4
            out[name] = _unpack_u32s(view[pos:], n)
            pos += 4 * n
        return out

    def _decode_vpost(self) -> dict[tuple[str, str], array]:
        view = self.section(SEC_VPOST)
        (n_keys,) = _U32.unpack_from(view, 0)
        pos = 4
        out: dict[tuple[str, str], array] = {}
        for _ in range(n_keys):
            (name_len,) = _U16.unpack_from(view, pos)
            pos += 2
            name = bytes(view[pos: pos + name_len]).decode("utf-8")
            pos += name_len
            (value_len,) = _U32.unpack_from(view, pos)
            pos += 4
            value = bytes(view[pos: pos + value_len]).decode("utf-8")
            pos += value_len
            (n,) = _U32.unpack_from(view, pos)
            pos += 4
            out[(name, value)] = _unpack_u32s(view[pos:], n)
            pos += 4 * n
        return out

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

    ``kind`` mirrors the ingested store's kind, and so do the access
    semantics: a ``tree`` document pins one rebuilt tree, ``tokens``
    and ``text`` documents rebuild per :meth:`document` call.  Nothing
    ever re-parses XML — every tree comes from the token section.
    """

    def __init__(self, storage: "CatalogStorage", entry: "ManifestEntry"):
        self._storage = storage
        self._entry = entry
        self.kind = entry.kind
        self._doc: Optional[DocumentNode] = None
        self._stats: Optional[DocumentStats] = None

    def document(self) -> DocumentNode:
        if self._entry.kind == "tree":
            if self._doc is None:
                self._doc = self._load_tree()
            return self._doc
        return self._load_tree()

    def _load_tree(self) -> DocumentNode:
        with self._storage.open_segment(self._entry) as reader:
            return reader.materialize_tree()

    def stats(self) -> DocumentStats:
        """Decoded straight from the segment's ``STAT`` section — the
        planner costs access paths without materializing the tree."""
        if self._stats is None:
            with self._storage.open_segment(self._entry) as reader:
                self._stats = reader.stats()
        return self._stats

    def tokens(self):
        """Stream the persisted tokens (decoded eagerly: the segment is
        closed before returning)."""
        with self._storage.open_segment(self._entry) as reader:
            return list(read_binary(reader.section(SEC_TOKENS)))

    def resident_bytes(self) -> int:
        if self._doc is None:
            return 0
        return sum(1 for _ in self._doc.descendants_or_self()) * 200


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
                         tokens_blob: bytes, stats: DocumentStats,
                         doc: Optional[DocumentNode] = None,
                         element_index: Optional[ElementIndex] = None,
                         value_index: Optional[ValueIndex] = None,
                         base_uri: str = "",
                         durability: str = "sync") -> ManifestEntry:
        """Commit one document: segment first, then the manifest.

        Draws the durable generation counter, so the returned entry's
        ``generation`` is unique across every process that ever wrote
        this collection.
        """
        check_durability(durability)
        with self._lock:
            generation = int(self._manifest.get("next_generation", 1))
            filename = f"{quote(name, safe='')}-{generation}.seg"
            blob = build_segment(
                tokens_blob=tokens_blob, stats=stats, indexed=indexed,
                doc=doc, element_index=element_index,
                value_index=value_index,
                meta={"name": name, "kind": kind, "base_uri": base_uri})
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
