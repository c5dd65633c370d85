"""The persistent document store (:mod:`repro.storage.persist`).

Covers the 1.6 durability guarantees end to end:

- segment round-trips (tokens, labels, posting lists, statistics,
  metadata) and corruption detection (CRC, magic, truncation);
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

import os
import signal
import subprocess
import sys
import time

import pytest

import repro
from repro import Engine, ExecutionOptions
from repro.catalog import DocumentCatalog, PersistedDocument
from repro.compiler.reference import ReferenceEngine
from repro.errors import StorageError, XQueryError
from repro.storage.persist import (
    CatalogStorage,
    SEC_STATS,
    SEC_TOKENS,
    SegmentReader,
    build_segment,
    enumerate_nodes,
)
from repro.storage.stats import collect_stats
from repro.tokens.binary import write_binary
from repro.tokens.build import tokens_from_node
from repro.workloads import generate_xmark
from repro.xdm.build import parse_document

BOOKS = ("<bib><book year='1967'><title>T1</title><price>55</price></book>"
         "<book year='1990'><title>T2</title><price>30</price></book></bib>")

def _disk(tmp_path, sub="cat"):
    return DocumentCatalog(tmp_path / sub)


# -- segments --------------------------------------------------------------

class TestSegment:
    def _build(self, xml=BOOKS, indexed=True):
        doc = parse_document(xml, "mem://books")
        blob = write_binary(tokens_from_node(doc), pooled=True)
        stats = collect_stats(doc)
        if indexed:
            from repro.storage.indexes import ElementIndex, ValueIndex

            eidx = ElementIndex(doc)
            vidx = ValueIndex(doc)
        else:
            eidx = vidx = None
        return build_segment(
            tokens_blob=blob, stats=stats, indexed=indexed, doc=doc,
            element_index=eidx, value_index=vidx,
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
            assert len(enumerate_nodes(rebuilt)) == len(enumerate_nodes(doc))
            assert reader.stats().to_dict() == stats.to_dict()

    def test_round_trip_indexes(self, tmp_path):
        image, doc, _ = self._build()
        path = tmp_path / "books-1.seg"
        path.write_bytes(image)
        from repro.storage.indexes import ElementIndex

        live = ElementIndex(doc)
        with SegmentReader(path) as reader:
            rebuilt, eidx, vidx = reader.materialize_indexed()
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
        corrupt = bytearray(image)
        corrupt[-10] ^= 0xFF  # inside the last section's payload
        path = tmp_path / "seg.seg"
        path.write_bytes(bytes(corrupt))
        with SegmentReader(path) as reader:
            with pytest.raises(StorageError, match="CRC"):
                # walk every section until the flipped bit is found
                for tag in (SEC_TOKENS, SEC_STATS):
                    reader.section(tag)
                reader.meta()

    def test_unindexed_segment_has_no_index_sections(self, tmp_path):
        image, _, _ = self._build(indexed=False)
        path = tmp_path / "seg.seg"
        path.write_bytes(image)
        with SegmentReader(path) as reader:
            assert reader.has(SEC_TOKENS)
            assert not reader.has(b"EPST")
            reader.materialize_tree()


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

    def test_base_uri_survives(self, tmp_path):
        from repro.storage.stores import TreeStore

        store = TreeStore(xml_text=BOOKS, base_uri="file:///bib.xml")
        cat = _disk(tmp_path)
        cat.add("books", store)
        reopened = _disk(tmp_path)
        assert reopened["books"].document().base_uri == "file:///bib.xml"


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
        options = ExecutionOptions(twig_strategy=strategy)
        for query in _DIFF_QUERIES:
            outcomes = []
            for cat in (mem, disk):
                engine = executor(options=options, catalog=cat)
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
