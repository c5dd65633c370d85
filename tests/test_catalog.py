"""The DocumentCatalog API: ingestion, handles, and engine binding."""

import gc
import threading
import weakref

import pytest

import repro
import repro.storage.persist
import repro.storage.stores
from repro.catalog import DocumentCatalog, StoredDocument
from repro.engine import Engine
from repro.errors import ParseError
from repro.storage import ElementIndex, TextStore, TokenStore, TreeStore
from repro.xdm.build import parse_document

XML = "<shop>" + "".join(
    f'<item sku="s{i}"><price>{i * 10}</price></item>' for i in range(8)
) + "</shop>"


class TestAdd:
    def test_returns_handle(self):
        cat = repro.catalog()
        stored = cat.add("shop", XML)
        assert isinstance(stored, StoredDocument)
        assert stored.name == "shop"
        assert stored.indexed
        assert stored.store.kind == "tree"
        assert cat["shop"] is stored
        assert "shop" in cat and len(cat) == 1
        assert cat.names() == ["shop"]

    @pytest.mark.parametrize("kind,cls", [
        ("tree", TreeStore), ("tokens", TokenStore), ("text", TextStore)])
    def test_store_kinds(self, kind, cls):
        cat = repro.catalog()
        stored = cat.add("shop", XML, store=kind)
        assert isinstance(stored.store, cls)
        root = stored.document().document_element()
        assert root.name.local == "shop"

    def test_accepts_repro_xml_wrapper(self):
        cat = repro.catalog()
        stored = cat.add("shop", repro.xml(XML))
        assert stored.stats.count("item") == 8

    def test_accepts_document_node(self):
        cat = repro.catalog()
        doc = parse_document(XML)
        stored = cat.add("shop", doc)
        assert stored.document() is doc

    def test_document_node_requires_tree_store(self):
        cat = repro.catalog()
        with pytest.raises(ValueError, match="tree store"):
            cat.add("shop", parse_document(XML), store="text")

    def test_accepts_existing_store(self):
        store = TreeStore(xml_text=XML)
        cat = repro.catalog()
        stored = cat.add("shop", store, store="text")  # kind arg ignored
        assert stored.store is store

    def test_rejects_unknown_kind_and_bad_source(self):
        cat = repro.catalog()
        with pytest.raises(ValueError, match="unknown store kind"):
            cat.add("shop", XML, store="columnar")
        with pytest.raises(TypeError, match="catalog source"):
            cat.add("shop", 42)
        with pytest.raises(TypeError, match="non-empty str"):
            cat.add("", XML)

    def test_replace_updates_fingerprint(self):
        cat = repro.catalog()
        first = cat.add("shop", XML)
        fp1 = cat.fingerprint()
        second = cat.add("shop", XML, index=False)
        assert cat["shop"] is second and len(cat) == 1
        assert cat.fingerprint() != fp1
        # the replaced pinned tree no longer resolves
        assert cat.stored_for(first.document()) is None


class TestStoredDocument:
    def test_indexed_pins_one_tree(self):
        cat = repro.catalog()
        stored = cat.add("shop", XML, store="text")
        assert stored.document() is stored.document()
        assert cat.stored_for(stored.document()) is stored

    def test_unindexed_text_store_keeps_reparse_semantics(self):
        cat = repro.catalog()
        stored = cat.add("shop", XML, store="text", index=False)
        assert stored.document() is not stored.document()
        assert stored.element_index is None
        assert stored.value_index is None

    def test_indexes_share_pinned_nodes(self):
        cat = repro.catalog()
        stored = cat.add("shop", XML)
        postings = stored.element_index.postings("item")
        pinned = {id(n) for n in stored.document().descendants()}
        assert all(id(p.node) in pinned for p in postings)
        match = stored.value_index.lookup("price", "30")
        assert len(match) == 1 and id(match[0]) in pinned

    def test_handle_builds_each_index_once(self):
        store = TreeStore(xml_text=XML)
        cat = repro.catalog()
        stored = cat.add("shop", store)
        assert stored.element_index is stored.element_index
        assert stored.value_index is stored.value_index
        # a re-add of the same store is a new handle with its own indexes
        again = cat.add("shop", store)
        assert again.element_index is not stored.element_index
        assert again.element_index.cardinality("item") == 8

    def test_stats_delegate_to_store(self):
        cat = repro.catalog()
        stored = cat.add("shop", XML)
        assert stored.stats.count("@sku") == 8
        assert stored.stats.is_leaf_only("price")


class TestOneOwner:
    """The handle owns everything derived from its document: it pins
    the tree, keeps the statistics and builds the indexes, and an add
    builds exactly one tree in every configuration."""

    @pytest.mark.parametrize("disk", [False, True], ids=["memory", "disk"])
    @pytest.mark.parametrize("index", [True, False])
    @pytest.mark.parametrize("kind", ["tree", "tokens", "text"])
    def test_one_tree_per_add(self, tmp_path, monkeypatch, kind, index,
                              disk):
        builds = []
        for module in (repro.storage.stores, repro.storage.persist):
            for name in ("parse_document", "tree_from_tokens"):
                real = getattr(module, name, None)
                if real is None:
                    continue

                def counted(*args, _real=real, _name=name, **kwargs):
                    builds.append(_name)
                    return _real(*args, **kwargs)
                monkeypatch.setattr(module, name, counted)
        cat = DocumentCatalog(tmp_path / "cat" if disk else None,
                              durability="none")
        stored = cat.add("shop", XML, store=kind, index=index)
        assert stored.stats.count("item") == 8
        if index:
            assert stored.element_index.cardinality("item") == 8
            assert len(stored.value_index.lookup("price", "30")) == 1
        assert len(builds) == 1, builds

    @pytest.mark.parametrize("disk", [False, True], ids=["memory", "disk"])
    def test_a_handle_does_not_keep_its_catalog_alive(self, tmp_path,
                                                      disk):
        """Reference counting alone frees a dropped catalog, with the
        trees' indexes it holds: a cycle through the handle would leave
        them for the cyclic collector (and its pauses)."""
        path = tmp_path / "cat" if disk else None
        if disk:
            DocumentCatalog(path, durability="none").add("shop", XML)
        gc.disable()
        try:
            cat = DocumentCatalog(path)
            stored = cat["shop"] if disk else cat.add("shop", XML)
            assert stored.element_index.cardinality("item") == 8
            dropped = weakref.ref(cat)
            del cat
            assert dropped() is None
        finally:
            gc.enable()

    @pytest.mark.parametrize("kind", ["tree", "tokens", "text"])
    def test_pin_rule(self, kind):
        cat = DocumentCatalog()
        for index in (True, False):
            stored = cat.add("shop", XML, store=kind, index=index)
            pinned = index or kind == "tree"
            assert (stored.document() is stored.document()) is pinned
            assert (cat.stored_for(stored.document()) is stored) is index

    def test_an_unindexed_handle_does_not_shadow_an_indexed_one(self):
        store = TreeStore(xml_text=XML)
        cat = DocumentCatalog()
        indexed = cat.add("a", store)
        cat.add("b", store, index=False)
        assert cat.stored_for(store.document()) is indexed

    def test_concurrent_first_reads_build_the_index_once(self,
                                                         monkeypatch):
        cat = DocumentCatalog()
        stored = cat.add("shop", XML)
        builds, errors = [], []
        first_in = threading.Event()
        # set once the second reader is inside a build of its own or
        # waits on the handle's lock for the first reader's
        overlap = threading.Event()
        real_init = ElementIndex.__init__

        def counted(self, doc):
            builds.append(threading.current_thread().name)
            if len(builds) == 1:
                first_in.set()
                if not overlap.wait(30):
                    errors.append("the second reader never arrived")
            else:
                overlap.set()
            real_init(self, doc)
        monkeypatch.setattr(ElementIndex, "__init__", counted)

        class Contended:
            """The handle's lock, reporting a reader that must wait."""

            def __init__(self, lock):
                self._lock = lock

            def __enter__(self):
                if not self._lock.acquire(blocking=False):
                    overlap.set()
                    self._lock.acquire()

            def __exit__(self, *exc):
                self._lock.release()
        lock = getattr(stored, "_lock", None)
        if lock is not None:  # a handle without one lets both build
            stored._lock = Contended(lock)

        seen = []

        def read():
            seen.append(stored.element_index)
        first = threading.Thread(target=read, name="first")
        second = threading.Thread(target=read, name="second")
        first.start()
        assert first_in.wait(30)
        second.start()
        first.join(30)
        second.join(30)
        assert not errors, errors
        assert builds == ["first"]
        assert len(seen) == 2 and seen[0] is seen[1]

    @pytest.mark.parametrize("disk", [False, True], ids=["memory", "disk"])
    @pytest.mark.parametrize("kind,index", [
        ("tree", True), ("tree", False), ("tokens", True),
        ("tokens", False), ("text", True), ("text", False)])
    def test_malformed_xml_raises_where_it_always_has(self, tmp_path,
                                                      kind, index, disk):
        cat = DocumentCatalog(tmp_path / "cat" if disk else None,
                              durability="none")
        if kind == "text" and not index and not disk:
            # an unindexed text store keeps only the text: it parses
            # on first access, and raises there
            stored = cat.add("bad", "<a><b></a>", store=kind, index=index)
            with pytest.raises(ParseError):
                stored.document()
            with pytest.raises(ParseError):
                stored.stats
        else:
            with pytest.raises(ParseError):
                cat.add("bad", "<a><b></a>", store=kind, index=index)
            assert "bad" not in cat


class TestReingestStaleness:
    """Re-ingesting under an existing name must never leave the planner
    holding statistics (or cached plans) for the old contents."""

    def test_reingest_gives_fresh_handle_stats(self):
        store = TreeStore(xml_text=XML)
        cat = repro.catalog()
        first = cat.add("shop", store)
        assert first.stats is first.stats  # cached on the handle
        second = cat.add("shop", store)  # same object, re-registered
        assert second.stats is not first.stats  # a new handle re-derives
        assert second.stats.count("item") == 8
        # the store itself caches nothing
        assert store.stats() is not store.stats()

    def test_mutated_text_store_reingest_sees_new_stats(self):
        store = TextStore(xml_text="<r><x/></r>")
        cat = repro.catalog()
        cat.add("doc", store, index=False)
        assert cat["doc"].stats.count("x") == 1
        # mutate the backing text in place, then re-register: the old
        # cached stats described one <x>, the document now has three
        store.text = "<r><x/><x/><x/></r>"
        cat.add("doc", store, index=False)
        assert cat["doc"].stats.count("x") == 3

    def test_same_store_reingest_changes_fingerprint(self):
        # id(store) is identical across both adds — only the ingest
        # generation distinguishes them for the compile cache
        store = TreeStore(xml_text=XML)
        cat = repro.catalog()
        first = cat.add("shop", store)
        fp1 = cat.fingerprint()
        second = cat.add("shop", store)
        assert first.generation != second.generation
        assert cat.fingerprint() != fp1

    def test_reingest_recompiles_with_fresh_estimates(self):
        # the twig planner reads ingest statistics at compile time; a
        # re-ingest must recompile (not reuse the cached plan) and the
        # new plan's estimates must describe the new document
        from repro.xquery import ast

        few = "<shop>" + "<item><price>1</price></item>" + "</shop>"
        many = "<shop>" + "<item><price>1</price></item>" * 12 + "</shop>"

        def est(compiled):
            for node in compiled.optimized.walk():
                if isinstance(node, ast.TwigJoin):
                    return node.est_rows
            raise AssertionError("no TwigJoin planned")

        cat = repro.catalog()
        cat.add("doc", few)
        engine = Engine(catalog=cat)
        query = "$doc//item[price]"
        first = engine.compile(query)
        assert est(first) == 1
        cat.add("doc", many)
        second = engine.compile(query)
        assert second is not first
        assert est(second) == 12
        assert len(second.execute().values()) == 12


class TestEngineIntegration:
    def test_auto_binding_by_name(self):
        cat = repro.catalog()
        cat.add("shop", XML)
        engine = Engine(catalog=cat)
        assert engine.compile("count($shop//item)").execute().values() == [8]

    def test_user_binding_overrides_catalog(self):
        cat = repro.catalog()
        cat.add("shop", XML)
        engine = Engine(catalog=cat)
        compiled = engine.compile("count($shop//item)")
        other = repro.xml("<shop><item/></shop>")
        result = compiled.execute(variables={"shop": other})
        assert result.values() == [1]

    def test_multiple_documents(self):
        cat = repro.catalog()
        cat.add("a", "<r><x/><x/></r>")
        cat.add("b", "<r><x/></r>")
        engine = Engine(catalog=cat)
        result = engine.compile("count($a//x) + count($b//x)").execute()
        assert result.values() == [3]

    def test_handle_as_context_item_and_document(self):
        cat = repro.catalog()
        stored = cat.add("shop", XML)
        nav = Engine()
        assert nav.compile("count(//item)").execute(
            context_item=stored).values() == [8]
        assert nav.compile("count(doc('s')//item)").execute(
            documents={"s": stored}).values() == [8]

    def test_repro_catalog_factory(self):
        assert isinstance(repro.catalog(), DocumentCatalog)
        assert repro.DocumentCatalog is DocumentCatalog
        assert repro.StoredDocument is StoredDocument
