"""The persistent document store (:mod:`repro.storage.persist`).

Covers the 1.6 durability guarantees end to end:

- segment round-trips (node columns, statistics, metadata), the
  labels and indexes derived from a reopened tree, a Hypothesis
  property over generated documents, an 8.0 data directory that must
  keep opening, and corruption detection (CRC, magic, truncation);
- the disk catalog: lazy reopen, durable generations, remove/refresh,
  vacuum, result-epoch persistence;
- crash safety: commits interrupted at every seam (including a real
  SIGKILL loop) must reopen to a consistent previous state;
- the property differential: a reopened disk catalog is byte-identical
  to an in-memory one — results *and* error codes — on the product
  and the oracle executor and every twig strategy;
- a fresh process (and by extension every pre-forked child) serves
  results without re-parsing any XML (the parser is booby-trapped).
"""

import itertools
import json
import os
import signal
import subprocess
import sys
import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro import Engine
from repro.catalog import DocumentCatalog, PersistedDocument
from repro.compiler.reference import ReferenceEngine, forced_twig
from repro.errors import StorageError, XQueryError
from repro.qname import QName
from repro.storage.indexes import ElementIndex, ValueIndex
from repro.storage.labels import label_document
from repro.storage.persist import (
    CatalogStorage,
    SEC_META,
    SEC_NODES,
    SEC_STATS,
    SegmentReader,
    build_segment,
)
from repro.storage.stats import collect_stats
from repro.workloads import generate_xmark
from repro.xdm.build import node_events, parse_document
from repro.xdm.nodes import DocumentNode, ElementNode, TextNode
from repro.xmlio.serializer import serialize_events

BOOKS = ("<bib><book year='1967'><title>T1</title><price>55</price></book>"
         "<book year='1990'><title>T2</title><price>30</price></book></bib>")

def _disk(tmp_path, sub="cat"):
    return DocumentCatalog(tmp_path / sub)


#: a collection written by 8.0.0 (version 1 segments), and the sources
#: its three documents were ingested from
CATALOG_8_0 = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "data", "catalog-8.0")
CATALOG_8_0_SOURCES = {
    "books": ('<!-- a catalog written by 8.0.0 --><bib xmlns:x="urn:x">'
              '<?sort by-year?><book year="1967" x:id="b1"><title>The '
              'politics of experience</title><price>20</price></book>'
              '<book year="1998" x:id="b2"><title>Data on the Web</title>'
              '<author>Abiteboul</author><price>55</price><note> café — '
              'über </note></book><x:aside>  </x:aside></bib>'),
    "feed": ('<feed><m id="1">alpha</m><m id="2">beta</m>'
             '<m id="3">gamma</m></feed>'),
    "plain": "<r><n>1</n><n>2</n><n>3</n></r>",
}


# -- generated documents for the codec property ---------------------------

_RT_SERIAL = itertools.count()
_NAMES = st.sampled_from(["a", "b", "item", "x:a", "x:b", "y:c", "é"])
_TEXT = st.text(alphabet=st.sampled_from(
    list("ab <>&'\"") + [" ", "\t", "\n", "é", "ü", "—", "日", "😀"]),
    min_size=1, max_size=6)
_DEEP = sys.getrecursionlimit() + 50


def _escape(text: str) -> str:
    return (text.replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;").replace('"', "&quot;"))


@st.composite
def _documents(draw):
    """XML text mixing attributes, namespace declarations, comments,
    PIs, whitespace-only and non-ASCII text; now and then one chain
    nests deeper than the interpreter's recursion limit."""

    def element(depth: int) -> str:
        name = draw(_NAMES)
        attrs = {draw(st.sampled_from(["id", "x:k", "n", "é"])):
                 draw(_TEXT) for _ in range(draw(st.integers(0, 2)))}
        decls = ""
        if depth == 0:
            decls = ' xmlns:x="urn:x" xmlns:y="urn:y"'
        elif draw(st.booleans()) and draw(st.booleans()):
            decls = ' xmlns:y="urn:y2"'
        start = name + decls + "".join(
            f' {k}="{_escape(v)}"' for k, v in attrs.items())
        parts = []
        for _ in range(draw(st.integers(0, 3 if depth < 4 else 0))):
            choice = draw(st.sampled_from(
                ["text", "space", "comment", "pi", "element"]))
            if choice == "text":
                parts.append(_escape(draw(_TEXT)))
            elif choice == "space":
                parts.append(draw(st.sampled_from([" ", "\n  ", "\t"])))
            elif choice == "comment":
                parts.append(f"<!--{draw(st.sampled_from(['', ' c ', 'é']))}-->")
            elif choice == "pi":
                parts.append(f"<?p{draw(st.sampled_from(['', ' d', ' é?']))}?>")
            else:
                parts.append(element(depth + 1))
        return f"<{start}>{''.join(parts)}</{name}>"

    body = element(0)
    if draw(st.integers(0, 9)) == 0:
        body = body.replace(">", ">" + "<d>" * _DEEP + "z" + "</d>" * _DEEP,
                            1)
    prolog = draw(st.sampled_from(["", "<!--pre-->", "<?top x?>"]))
    return prolog + body


# -- segments --------------------------------------------------------------

class TestSegment:
    def _build(self, xml=BOOKS):
        doc = parse_document(xml, "mem://books")
        stats = collect_stats(doc)
        return build_segment(
            doc=doc, stats=stats,
            meta={"name": "books", "kind": "tree",
                  "base_uri": "mem://books"}), doc, stats

    def test_round_trip_tree_and_meta(self, tmp_path):
        image, doc, stats = self._build()
        path = tmp_path / "books-1.seg"
        path.write_bytes(image)
        with SegmentReader(path, expected_size=len(image)) as reader:
            rebuilt = reader.materialize_tree()
            assert reader.meta()["base_uri"] == "mem://books"
            assert rebuilt.base_uri == "mem://books"
            assert len(label_document(rebuilt)) == len(label_document(doc))
            assert _xml(rebuilt) == _xml(doc)
            assert reader.stats().to_dict() == stats.to_dict()

    def test_round_trip_indexes(self, tmp_path):
        """The segment stores no index; the one derived from the
        rebuilt tree equals the one built on the parsed tree."""
        image, doc, _ = self._build()
        path = tmp_path / "books-1.seg"
        path.write_bytes(image)
        live = ElementIndex(doc)
        with SegmentReader(path) as reader:
            rebuilt = reader.materialize_tree()
        eidx, vidx = ElementIndex(rebuilt), ValueIndex(rebuilt)
        assert eidx.names() == live.names()
        for name in live.names():
            persisted = [p.label for p in eidx.postings(name)]
            original = [p.label for p in live.postings(name)]
            assert persisted == original
        hits = vidx.lookup("price", "55")
        assert len(hits) == 1
        assert hits[0].string_value == "55"

    def test_size_mismatch_detected(self, tmp_path):
        image, _, _ = self._build()
        path = tmp_path / "seg.seg"
        path.write_bytes(image)
        with pytest.raises(StorageError, match="partial write"):
            SegmentReader(path, expected_size=len(image) + 7)

    def test_truncated_file_detected(self, tmp_path):
        image, _, _ = self._build()
        path = tmp_path / "seg.seg"
        path.write_bytes(image[: len(image) // 2])
        with pytest.raises(StorageError):
            with SegmentReader(path) as reader:
                reader.materialize_tree()

    def test_bad_magic_detected(self, tmp_path):
        image, _, _ = self._build()
        path = tmp_path / "seg.seg"
        path.write_bytes(b"NOPE" + image[4:])
        with pytest.raises(StorageError, match="magic"):
            SegmentReader(path)

    def test_flipped_bit_fails_crc(self, tmp_path):
        image, _, _ = self._build()
        path = tmp_path / "seg.seg"
        path.write_bytes(image)
        with SegmentReader(path) as reader:
            spans = dict(reader._sections)
        assert set(spans) == {SEC_NODES, SEC_STATS, SEC_META}
        # a flipped bit inside each section fails that section's CRC,
        # and only that one
        for tag, (offset, length, _crc) in spans.items():
            corrupt = bytearray(image)
            corrupt[offset + length // 2] ^= 0xFF
            path.write_bytes(bytes(corrupt))
            with SegmentReader(path) as reader:
                with pytest.raises(StorageError, match="CRC"):
                    reader.section(tag)
                for other in set(spans) - {tag}:
                    reader.section(other)

    def test_unindexed_segment_has_no_index_sections(self, tmp_path):
        """No segment stores labels or postings any more: an indexed
        document's are derived from the tree on first access."""
        image, _, _ = self._build()
        path = tmp_path / "seg.seg"
        path.write_bytes(image)
        with SegmentReader(path) as reader:
            assert reader.has(SEC_NODES)
            for tag in (b"TOKS", b"LABL", b"EPST", b"VPST"):
                assert not reader.has(tag)
            reader.materialize_tree()


def _xml(node) -> str:
    return serialize_events(node_events(node))


class TestNodeColumns:
    """The NODE section round-trips every tree the parser builds."""

    @pytest.mark.parametrize("content,message", [
        ("a\0b", "U\\+0000"), ("a\ud800", "not valid Unicode")])
    def test_unstorable_content_is_refused(self, tmp_path, content,
                                           message):
        """A NUL (the string table's separator) or a lone surrogate can
        reach a hand-built tree, never a parsed one."""
        doc = DocumentNode()
        root = ElementNode(QName("", "r"), doc)
        doc.children.append(root)
        root.children.append(TextNode(content, root))
        cat = _disk(tmp_path)
        with pytest.raises(StorageError, match=message):
            cat.add("bad", doc)
        assert "bad" not in _disk(tmp_path)
        # the refused handle's tree resolves to nothing
        assert "bad" not in cat and cat.stored_for(doc) is None

    def test_a_refused_readd_keeps_the_previous_handle(self, tmp_path):
        """Re-adding the same tree, now unstorable, leaves the committed
        handle bound to that tree's node-map entry."""
        doc = DocumentNode()
        root = ElementNode(QName("", "r"), doc)
        doc.children.append(root)
        text = TextNode("ok", root)
        root.children.append(text)
        cat = _disk(tmp_path)
        first = cat.add("t", doc)
        text.content = "a\0b"
        with pytest.raises(StorageError):
            cat.add("t", doc)
        assert cat["t"] is first and cat.stored_for(doc) is first

    def test_an_empty_document_round_trips(self, tmp_path):
        """No node, so no string: the string table is empty."""
        _disk(tmp_path).add("empty", DocumentNode())
        handle = _disk(tmp_path)["empty"]
        assert handle.document().children == []
        assert handle.element_index.names() == []

    def test_no_labels_indexes_or_tokens_at_commit(self, tmp_path,
                                                   monkeypatch):
        """A disk add of a tree store builds no label, no index and no
        token stream: the segment holds the tree and its statistics."""
        import repro.storage.indexes as indexes
        import repro.storage.labels as labels
        import repro.tokens.binary as binary

        calls = []

        def counted(owner, attr):
            real = getattr(owner, attr)

            def wrapper(*args, **kwargs):
                calls.append(attr)
                return real(*args, **kwargs)
            monkeypatch.setattr(owner, attr, wrapper)

        counted(indexes, "label_document")
        counted(labels, "label_document")
        counted(indexes.ElementIndex, "__init__")
        counted(indexes.ValueIndex, "__init__")
        counted(binary, "write_binary")
        cat = _disk(tmp_path)
        cat.add("auction", generate_xmark(scale=0.05, seed=7),
                durability="none")
        assert calls == []
        # the in-memory handle still serves queries, deriving its
        # indexes on first use
        assert Engine(catalog=cat).compile(
            "count($auction//person)").execute().serialize() != ""

    def test_an_8_0_data_dir_reopens_byte_identically(self, tmp_path):
        """A collection 8.0.0 wrote (version 1 segments: a tree, a
        tokens and a text document) answers as the same documents
        ingested now, indexes included."""
        import shutil

        v1 = tmp_path / "v1"
        shutil.copytree(CATALOG_8_0, v1)
        old = DocumentCatalog(v1)
        with SegmentReader(v1 / "books-1.seg") as reader:
            assert reader.version == 1 and reader.has(b"TOKS")
        mem = DocumentCatalog()
        for name, xml in CATALOG_8_0_SOURCES.items():
            handle = old[name]
            mem.add(name, xml, store=handle.store.kind,
                    index=handle.indexed)
        queries = ["$books", "$feed", "$plain",
                   "$books//book[price = '55']/title",
                   "for $b in $books//book where xs:integer($b/@year) "
                   "< 1980 return $b/title",
                   "count($books//@*)", "$feed//m[@id = '2']",
                   "string-join($books//text(), '|')",
                   "$books//processing-instruction()", "$books/comment()",
                   "xs:integer($plain//missing)"]

        def answers(catalog):
            engine = Engine(catalog=catalog)
            out = []
            for query in queries:
                try:
                    out.append(engine.compile(query).execute().serialize())
                except XQueryError as exc:
                    out.append(exc.code)
            return out

        assert answers(old) == answers(mem)
        # the next commit writes version 2 beside the old segments
        old.add("more", "<m/>")
        with SegmentReader(v1 / "more-4.seg") as reader:
            assert reader.version == 2
        assert answers(DocumentCatalog(v1)) == answers(mem)

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture,
                                     HealthCheck.too_slow])
    @given(xml=_documents())
    def test_disk_round_trip_matches_the_parsed_tree(self, tmp_path, xml):
        parsed = parse_document(xml)
        path = tmp_path / f"rt{next(_RT_SERIAL)}"
        DocumentCatalog(path).add("d", xml, durability="none")
        handle = DocumentCatalog(path)["d"]
        rebuilt = handle.document()
        assert _xml(rebuilt) == _xml(parsed)

        live_labels = label_document(parsed)
        live, eidx = ElementIndex(parsed), handle.element_index
        assert eidx.names() == live.names()
        assert len(eidx.labels) == len(live_labels)
        for name in live.names():
            assert [p.label for p in eidx.postings(name)] == \
                [p.label for p in live.postings(name)]
        live_values, vidx = ValueIndex(parsed), handle.value_index
        assert sorted(vidx.keys()) == sorted(live_values.keys())
        for key in live_values.keys():
            assert [eidx.label_of(n) for n in vidx.lookup(*key)] == \
                [live.label_of(n) for n in live_values.lookup(*key)]


# -- the disk catalog ------------------------------------------------------

class TestDiskCatalog:
    def test_reopen_serves_identical_results(self, tmp_path):
        cat = _disk(tmp_path)
        cat.add("books", BOOKS)
        first = Engine(catalog=cat).compile(
            "$books//book[price = '55']/title").execute().serialize()

        reopened = _disk(tmp_path)
        assert reopened.names() == ["books"]
        handle = reopened["books"]
        assert isinstance(handle, PersistedDocument)
        assert not handle.loaded
        again = Engine(catalog=reopened).compile(
            "$books//book[price = '55']/title").execute().serialize()
        assert again == first
        assert handle.loaded

    def test_stats_decode_without_materializing(self, tmp_path):
        cat = _disk(tmp_path)
        cat.add("books", BOOKS)
        reopened = _disk(tmp_path)
        handle = reopened["books"]
        stats = handle.stats
        assert stats.element_counts.get("book") == 2
        assert not handle.loaded  # the planner never built the tree

    @pytest.mark.parametrize("store,index", [
        ("tree", True), ("tree", False), ("tokens", False),
        ("tokens", True), ("text", False)])
    def test_every_store_kind_round_trips(self, tmp_path, store, index):
        cat = DocumentCatalog(tmp_path / store)
        cat.add("books", BOOKS, store=store, index=index)
        reopened = DocumentCatalog(tmp_path / store)
        handle = reopened["books"]
        assert handle.store.kind == store
        assert handle.indexed is index
        out = Engine(catalog=reopened).compile(
            "count($books//book)").execute().serialize()
        assert out == "2"

    def test_generations_survive_restart(self, tmp_path):
        cat = _disk(tmp_path)
        gen1 = cat.add("books", BOOKS).generation
        reopened = _disk(tmp_path)
        assert reopened["books"].generation == gen1
        gen2 = reopened.add("books", BOOKS).generation
        assert gen2 > gen1  # durable counter: no reuse across processes
        assert reopened.fingerprint() != cat.fingerprint()

    def test_remove_is_durable(self, tmp_path):
        cat = _disk(tmp_path)
        cat.add("a", BOOKS)
        cat.add("b", BOOKS)
        assert cat.remove("a") is True
        assert cat.remove("ghost") is False
        reopened = _disk(tmp_path)
        assert reopened.names() == ["b"]
        # the removed document's segment is gone from disk too
        segs = list((tmp_path / "cat").glob("a-*.seg"))
        assert segs == []

    def test_refresh_picks_up_foreign_commits(self, tmp_path):
        writer = _disk(tmp_path)
        reader = _disk(tmp_path)
        assert reader.refresh() == []
        writer.add("books", BOOKS)
        assert reader.refresh() == ["books"]
        assert reader.names() == ["books"]
        writer.add("books", "<bib/>")  # replace
        writer.remove("ghost")
        assert reader.refresh() == ["books"]
        out = Engine(catalog=reader).compile(
            "count($books//book)").execute().serialize()
        assert out == "0"
        writer.remove("books")
        assert reader.refresh() == ["books"]
        assert reader.names() == []

    def test_memory_catalog_refresh_is_noop(self):
        cat = DocumentCatalog()
        cat.add("books", BOOKS)
        assert cat.refresh() == []
        assert cat.names() == ["books"]

    def test_result_epoch_persists(self, tmp_path):
        cat = _disk(tmp_path)
        assert cat.result_epoch == 0
        assert cat.bump_result_epoch() == 1
        assert cat.bump_result_epoch() == 2
        assert _disk(tmp_path).result_epoch == 2

    def test_vacuum_removes_strays(self, tmp_path):
        cat = _disk(tmp_path)
        cat.add("books", BOOKS)
        root = tmp_path / "cat"
        (root / "stray-9.seg").write_bytes(b"junk")
        (root / "books-1.seg.tmp").write_bytes(b"junk")
        removed = cat._storage.vacuum()
        assert sorted(removed) == ["books-1.seg.tmp", "stray-9.seg"]
        # the live segment and the manifest survive
        assert (root / "manifest.json").is_file()
        assert list(root.glob("books-*.seg"))

    def test_durability_validated(self, tmp_path):
        with pytest.raises(ValueError, match="durability"):
            repro.catalog(tmp_path / "x", durability="eventually")
        cat = _disk(tmp_path)
        with pytest.raises(ValueError, match="durability"):
            cat.add("books", BOOKS, durability="async")
        cat.add("books", BOOKS, durability="none")
        assert _disk(tmp_path).names() == ["books"]

    def test_corrupt_manifest_is_an_error(self, tmp_path):
        cat = _disk(tmp_path)
        cat.add("books", BOOKS)
        (tmp_path / "cat" / "manifest.json").write_text("{not json")
        with pytest.raises(StorageError, match="corrupt"):
            _disk(tmp_path)

    def test_future_format_rejected(self, tmp_path):
        _disk(tmp_path)
        (tmp_path / "cat" / "manifest.json").write_text(
            '{"format": 99, "documents": {}}')
        with pytest.raises(StorageError, match="format"):
            _disk(tmp_path)

    def test_a_7_0_manifest_reopens_byte_identically(self, tmp_path):
        """7.0 also stored the scatter router's document placement in
        the manifest; 8.0 reads past it, and its next commit drops it."""
        cat = _disk(tmp_path)
        for i in range(4):
            cat.add(f"d{i}", f"<r>{'<n>1</n>' * (i + 1)}<s>x{i}</s></r>")
        queries = ["collection()//s", "count(collection()//n)",
                   "sum(collection()//n)", "$d2//n", "xs:integer($d0//s)"]

        def answers(catalog):
            engine = Engine(catalog=catalog)
            out = []
            for query in queries:
                try:
                    out.append(engine.compile(query).execute().serialize())
                except XQueryError as exc:
                    out.append(exc.code)
            return out

        expected = answers(cat)
        manifest_path = tmp_path / "cat" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["shard_map"] = {"shards": 2, "assignment": {
            "d0": 1, "d1": 0, "d2": 1, "d3": 0}}
        manifest_path.write_text(json.dumps(manifest))
        reopened = _disk(tmp_path)
        assert answers(reopened) == expected
        reopened.add("d4", "<r><n>5</n></r>")
        written = json.loads(manifest_path.read_text())
        assert set(written) == set(manifest) - {"shard_map"}
        assert answers(_disk(tmp_path))[3:] == expected[3:]  # d4 aside

    def test_base_uri_survives(self, tmp_path):
        from repro.storage.stores import TreeStore

        store = TreeStore(xml_text=BOOKS, base_uri="file:///bib.xml")
        cat = _disk(tmp_path)
        cat.add("books", store)
        reopened = _disk(tmp_path)
        assert reopened["books"].document().base_uri == "file:///bib.xml"


class TestRefreshRace:
    """refresh() racing a concurrent add() on the same directory never
    observes a partially-committed generation."""

    def test_reader_swap_is_atomic(self, tmp_path):
        path = str(tmp_path / "race")
        writer = DocumentCatalog(path)
        writer.add("seed", "<r><n>0</n></r>")
        reader = DocumentCatalog(path)
        stop = threading.Event()
        failures = []

        def _write():
            i = 0
            while not stop.is_set():
                i += 1
                writer.add(f"doc{i % 3}",
                           f"<r>{'<n>1</n>' * (i % 7 + 1)}</r>")

        def _read():
            while not stop.is_set():
                try:
                    reader.refresh()
                    for name in reader.names():
                        stored = reader.get(name)
                        if stored is None:
                            continue  # removed between names() and get()
                        # the planner reads statistics before any
                        # bind: a replaced segment must not fail them
                        assert stored.stats is not None
                        doc = stored.document()
                        # a torn read would produce a malformed tree or
                        # raise mid-materialize; touching the root and
                        # counting children forces the segment read
                        assert doc.children is not None
                except Exception as exc:  # noqa: BLE001
                    failures.append(exc)
                    stop.set()

        threads = [threading.Thread(target=_write),
                   threading.Thread(target=_read),
                   threading.Thread(target=_read)]
        for t in threads:
            t.start()
        time.sleep(1.5)
        stop.set()
        for t in threads:
            t.join(timeout=30)
        assert not failures, failures[0]
        # the reader converges on the writer's final state
        reader.refresh()
        assert set(reader.names()) == set(writer.names())

    @pytest.mark.parametrize("store,index", [
        ("tree", True), ("tree", False), ("text", False)])
    def test_untouched_stale_handle_adopts_the_fresh_entry(self, tmp_path,
                                                           store, index):
        """A handle whose segment another process replaced before
        anything touched it reads the fresh entry, statistics first
        (a pre-forked child compiling before its ``refresh``)."""
        writer = _disk(tmp_path)
        writer.add("books", BOOKS, store=store, index=index)
        reader = _disk(tmp_path)
        handle = reader["books"]
        writer.add("books", "<bib><book/></bib>", store=store, index=index)
        assert handle.stats.element_counts.get("book") == 1
        assert handle.generation == writer["books"].generation
        out = Engine(catalog=reader).compile(
            "count($books//book)").execute().serialize()
        assert out == "1"

    @pytest.mark.parametrize("store,index", [
        ("tree", True), ("tree", False), ("tokens", True)])
    def test_pinned_stale_handle_keeps_its_tree_until_refresh(
            self, tmp_path, store, index):
        """A handle that pinned its tree before another process
        replaced the segment keeps that tree, its statistics and its
        generation, so ``refresh`` sees the change and swaps it out."""
        writer = _disk(tmp_path)
        writer.add("books", BOOKS, store=store, index=index)
        reader = _disk(tmp_path)
        handle = reader["books"]
        handle.document()
        generation = handle.generation
        writer.add("books", "<bib><book/></bib>", store=store, index=index)
        engine = Engine(catalog=reader)
        assert handle.stats.element_counts.get("book") == 2
        assert (handle.generation, handle.indexed) == (generation, index)
        assert engine.compile(
            "count($books//book)").execute().serialize() == "2"
        assert reader.refresh() == ["books"]
        assert engine.compile(
            "count($books//book)").execute().serialize() == "1"

    def test_concurrent_readers_adopt_the_fresh_entry_once(
            self, tmp_path, monkeypatch):
        """Two readers whose first read of a replaced segment fails at
        the same moment: one adopts the fresh entry, the other retries
        on it without reloading the manifest again."""
        from repro.storage.persist import CatalogStorage, DiskStore

        writer = _disk(tmp_path)
        writer.add("books", BOOKS, store="text", index=False)
        reader = _disk(tmp_path)
        handle = reader["books"]
        stale = handle.store
        writer.add("books", "<bib><book/></bib>", store="text", index=False)
        both_read = threading.Barrier(2, timeout=10)
        document, reload = DiskStore.document, CatalogStorage.reload
        reloads = []

        def _document(store):
            if store is stale:
                both_read.wait()
            return document(store)

        def _reload(storage):
            reloads.append(1)
            return reload(storage)

        monkeypatch.setattr(DiskStore, "document", _document)
        monkeypatch.setattr(CatalogStorage, "reload", _reload)
        trees, failures = [], []

        def _read():
            try:
                trees.append(handle.document())
            except Exception as exc:  # noqa: BLE001
                failures.append(exc)

        threads = [threading.Thread(target=_read) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not failures, failures[0]
        assert [len(list(t.descendants_or_self())) for t in trees] == [3, 3]
        assert handle.generation == writer["books"].generation
        assert len(reloads) == 1


# -- crash safety ----------------------------------------------------------

class _Boom(RuntimeError):
    pass


class TestCrashSafety:
    def test_crash_before_segment_rename(self, tmp_path, monkeypatch):
        cat = _disk(tmp_path)
        cat.add("books", BOOKS)
        real_replace = os.replace

        def exploding_replace(src, dst):
            if str(dst).endswith(".seg"):
                raise _Boom("power loss before the segment landed")
            return real_replace(src, dst)

        monkeypatch.setattr(os, "replace", exploding_replace)
        with pytest.raises(_Boom):
            cat.add("books", "<bib><book/></bib>")
        monkeypatch.undo()
        reopened = _disk(tmp_path)
        out = Engine(catalog=reopened).compile(
            "count($books//book)").execute().serialize()
        assert out == "2"  # the old commit, intact

    def test_crash_before_manifest_rename(self, tmp_path, monkeypatch):
        cat = _disk(tmp_path)
        cat.add("books", BOOKS)
        real_replace = os.replace

        def exploding_replace(src, dst):
            if str(dst).endswith("manifest.json"):
                raise _Boom("power loss before the manifest landed")
            return real_replace(src, dst)

        monkeypatch.setattr(os, "replace", exploding_replace)
        with pytest.raises(_Boom):
            cat.add("books", "<bib><book/></bib>")
        monkeypatch.undo()
        # the new segment is on disk but unreferenced: the catalog must
        # reopen to the previous state, and vacuum reclaims the orphan
        reopened = _disk(tmp_path)
        out = Engine(catalog=reopened).compile(
            "count($books//book)").execute().serialize()
        assert out == "2"
        assert reopened._storage.vacuum()  # the orphan existed

    def test_truncated_segment_rolls_back_entry(self, tmp_path):
        cat = _disk(tmp_path)
        cat.add("a", BOOKS)
        cat.add("b", BOOKS)
        # simulate a durability="none" power loss: the rename landed,
        # the data didn't
        seg = next((tmp_path / "cat").glob("a-*.seg"))
        seg.write_bytes(seg.read_bytes()[:10])
        reopened = _disk(tmp_path)
        assert reopened.names() == ["b"]  # a rolled back, b intact

    def test_missing_segment_rolls_back_entry(self, tmp_path):
        cat = _disk(tmp_path)
        cat.add("a", BOOKS)
        next((tmp_path / "cat").glob("a-*.seg")).unlink()
        assert _disk(tmp_path).names() == []

    def test_sigkill_mid_commit_loop(self, tmp_path):
        """A writer SIGKILLed at arbitrary points must never corrupt
        the collection: every reopen parses the manifest and serves
        each listed document."""
        root = tmp_path / "kill"
        script = (
            "import sys\n"
            "sys.path.insert(0, {src!r})\n"
            "from repro.catalog import DocumentCatalog\n"
            "cat = DocumentCatalog({root!r}, durability='none')\n"
            "i = 0\n"
            "while True:\n"
            "    i += 1\n"
            "    xml = '<bib>' + '<book><price>%d</price></book>' % i * i "
            "+ '</bib>'\n"
            "    cat.add('doc%d' % (i % 3), xml)\n"
        ).format(src=str(SRC_DIR), root=str(root))
        for delay in (0.15, 0.3, 0.5):
            proc = subprocess.Popen([sys.executable, "-c", script])
            time.sleep(delay)
            proc.send_signal(signal.SIGKILL)
            proc.wait()
            cat = DocumentCatalog(root)
            engine = Engine(catalog=cat)
            for name in cat.names():
                n = engine.compile(
                    f"count(${name}//book)").execute().serialize()
                assert int(n) >= 1


SRC_DIR = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src")


# -- fresh process: no XML ever re-parsed ----------------------------------

class TestFreshProcess:
    def test_reopen_without_parsing_xml(self, tmp_path):
        cat = _disk(tmp_path)
        cat.add("books", BOOKS)
        expected = Engine(catalog=cat).compile(
            "for $b in $books//book order by xs:integer($b/price) "
            "return $b/title").execute().serialize()
        # the child booby-traps the XML parser before opening: any
        # attempt to re-parse source text fails the run
        script = (
            "import sys\n"
            f"sys.path.insert(0, {SRC_DIR!r})\n"
            "import repro.xmlio.parser as parser\n"
            "def boom(*a, **k):\n"
            "    raise AssertionError('XML was re-parsed on reopen')\n"
            "parser.parse_events = boom\n"
            "import repro.xdm.build as build\n"
            "build.parse_document = boom\n"
            "from repro import Engine\n"
            "from repro.catalog import DocumentCatalog\n"
            f"cat = DocumentCatalog({str(tmp_path / 'cat')!r})\n"
            "out = Engine(catalog=cat).compile(\n"
            "    \"for $b in $books//book order by xs:integer($b/price) \"\n"
            "    \"return $b/title\").execute().serialize()\n"
            "sys.stdout.write(out)\n")
        done = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout == expected


# -- the disk/memory property differential ---------------------------------

#: queries chosen to cross every persisted structure: posting-list
#: access paths, value point lookups, twig decomposition, plain
#: navigation, and one dynamic error
_DIFF_QUERIES = [
    "count($books//book)",
    "$books//book[price = '55']/title",
    "for $b in $books//book where xs:integer($b/@year) < 1980 "
    "return $b/title",
    "for $b in $books//book[author/last] return $b/title",
    "xs:integer($books//missing)",  # FORG0001-family dynamic error
]

#: (label, executor, twig strategy)
_OPTION_GRID = [("closure", ReferenceEngine, t)
                for t in ("auto", "holistic")] + \
               [("source", Engine, t)
                for t in ("auto", "binary", "navigation", "mixed")]


class TestDiskMemoryDifferential:
    @pytest.fixture(scope="class")
    def catalogs(self, tmp_path_factory):
        xml = ("<bib>"
               "<book year='1967'><title>T1</title>"
               "<author><first>R</first><last>L</last></author>"
               "<price>20</price></book>"
               "<book year='1998'><title>T2</title>"
               "<author><first>S</first><last>A</last></author>"
               "<price>55</price></book>"
               "</bib>")
        mem = DocumentCatalog()
        mem.add("books", xml)
        root = tmp_path_factory.mktemp("diff")
        writer = DocumentCatalog(root / "cat")
        writer.add("books", xml)
        disk = DocumentCatalog(root / "cat")  # reopened: all-lazy
        return mem, disk

    @pytest.mark.parametrize("label,executor,strategy", _OPTION_GRID,
                             ids=[f"{label}-{t}"
                                  for label, _, t in _OPTION_GRID])
    def test_byte_identical_results_and_errors(self, catalogs, label,
                                               executor, strategy):
        mem, disk = catalogs
        for query in _DIFF_QUERIES:
            outcomes = []
            for cat in (mem, disk):
                engine = forced_twig(executor, strategy)(catalog=cat)
                try:
                    outcomes.append(
                        ("ok", engine.compile(query).execute().serialize()))
                except XQueryError as exc:
                    outcomes.append(("err", exc.code))
            assert outcomes[0] == outcomes[1], query


# -- perf smoke (CI: -m perfsmoke) ----------------------------------------

@pytest.mark.perfsmoke
def test_perfsmoke_warm_open_beats_reingest(tmp_path):
    """E18's gate: opening a committed XMark collection (manifest +
    stats decode — everything the planner needs) must be at least 5x
    faster than re-ingesting the XML."""
    xml = generate_xmark(scale=0.3, seed=7)
    cat = DocumentCatalog(tmp_path / "xmark")
    cat.add("auction", xml)

    started = time.perf_counter()
    reopened = DocumentCatalog(tmp_path / "xmark")
    _ = reopened["auction"].stats
    warm = time.perf_counter() - started

    started = time.perf_counter()
    mem = DocumentCatalog()
    _ = mem.add("auction", xml).stats
    ingest = time.perf_counter() - started

    assert warm * 5 <= ingest, (
        f"warm open {warm * 1000:.1f} ms vs re-ingest "
        f"{ingest * 1000:.1f} ms — less than the 5x bar")


@pytest.mark.perfsmoke
def test_perfsmoke_first_answer_no_dearer_than_a_parse(tmp_path):
    """A child's first touch: reopening a committed XMark document and
    answering one access-path query (which decodes the tree and derives
    both indexes) must cost no more than ingesting the XML in memory
    and answering the same query.  Both sides run in interleaved
    repetitions, and their medians are compared."""
    import statistics

    xml = generate_xmark(scale=0.3, seed=7)
    query = "$auction//person[@id = 'person0']/name"
    DocumentCatalog(tmp_path / "xmark").add("auction", xml,
                                            durability="none")
    reopen, ingest, answers = [], [], set()
    for _ in range(5):
        started = time.perf_counter()
        cat = DocumentCatalog(tmp_path / "xmark")
        answers.add(Engine(catalog=cat).compile(query).execute().serialize())
        reopen.append(time.perf_counter() - started)

        started = time.perf_counter()
        cat = DocumentCatalog()
        cat.add("auction", xml)
        answers.add(Engine(catalog=cat).compile(query).execute().serialize())
        ingest.append(time.perf_counter() - started)
    assert len(answers) == 1
    warm, cold = statistics.median(reopen), statistics.median(ingest)
    assert warm <= cold, (
        f"reopen + first answer {warm * 1000:.1f} ms vs in-memory add + "
        f"first answer {cold * 1000:.1f} ms")
