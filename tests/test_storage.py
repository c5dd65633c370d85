"""Labels, indexes, and the three storage modes."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StorageError
from repro.storage import (
    DeweyLabel,
    ElementIndex,
    Label,
    TextStore,
    TokenStore,
    TreeStore,
    ValueIndex,
    label_document,
)
from repro.workloads.synthetic import random_tree
from repro.xdm.build import parse_document
from repro.xdm.nodes import ElementNode


class TestLabels:
    def test_containment_iff_ancestry(self):
        doc = parse_document(random_tree(40, seed=5))
        labels = label_document(doc)
        elements = [n for n in doc.descendants_or_self() if isinstance(n, ElementNode)]
        for a in elements[:15]:
            for d in elements[:15]:
                expected = a is not d and any(anc is a for anc in d.ancestors())
                got = labels[id(a)].is_ancestor_of(labels[id(d)])
                assert got == expected, (labels[id(a)], labels[id(d)])

    def test_parent_requires_level(self):
        doc = parse_document("<a><b><c/></b></a>")
        labels = label_document(doc)
        a, b, c = (labels[id(n)] for n in doc.descendants())
        assert a.is_parent_of(b)
        assert b.is_parent_of(c)
        assert a.is_ancestor_of(c)
        assert not a.is_parent_of(c)

    def test_pre_is_document_order(self):
        doc = parse_document(random_tree(30, seed=9))
        labels = label_document(doc)
        pres = [labels[id(n)].pre for n in doc.descendants_or_self()]
        assert pres == sorted(pres)

    def test_precedes(self):
        doc = parse_document("<a><b/><c/></a>")
        labels = label_document(doc)
        b, c = [labels[id(n)] for n in doc.document_element().children]
        assert b.precedes(c)
        assert not c.precedes(b)

    def test_attribute_labels_inside_owner(self):
        doc = parse_document('<a x="1"><b/></a>')
        labels = label_document(doc)
        a = doc.document_element()
        attr = a.attributes[0]
        assert labels[id(a)].is_ancestor_of(labels[id(attr)])

    @given(st.integers(min_value=2, max_value=60), st.integers(0, 500))
    @settings(max_examples=25, deadline=None)
    def test_dewey_agrees_with_interval(self, n, seed):
        doc = parse_document(random_tree(n, seed=seed))
        interval = label_document(doc)
        dewey = label_document(doc, dewey=True)
        elements = [x for x in doc.descendants_or_self() if isinstance(x, ElementNode)]
        for a in elements[:10]:
            for d in elements[:10]:
                assert interval[id(a)].is_ancestor_of(interval[id(d)]) == \
                    dewey[id(a)].is_ancestor_of(dewey[id(d)])

    def test_dewey_string_form(self):
        doc = parse_document("<a><b/><b><c/></b></a>")
        dewey = label_document(doc, dewey=True)
        c = list(doc.descendants())[-1]
        assert str(dewey[id(c)]) == "1.2.1"


class TestElementIndex:
    @pytest.fixture()
    def index(self):
        return ElementIndex(parse_document(
            '<r><a k="1"><b/><a><b/></a></a><b/></r>'))

    def test_postings_sorted(self, index):
        pres = [p.pre for p in index.postings("b")]
        assert pres == sorted(pres)
        assert len(pres) == 3

    def test_attribute_postings(self, index):
        assert index.cardinality("@k") == 1

    def test_unknown_name_empty(self, index):
        assert index.postings("zzz") == []

    def test_descendants_in(self, index):
        outer_a = index.postings("a")[0]
        inside = index.descendants_in("b", outer_a.label)
        assert len(inside) == 2

    def test_names(self, index):
        assert set(index.names()) >= {"r", "a", "b", "@k"}


class TestValueIndex:
    def test_leaf_element_lookup(self):
        idx = ValueIndex(parse_document(
            "<r><p>10</p><p>20</p><q>10</q></r>"))
        assert len(idx.lookup("p", "10")) == 1
        assert len(idx.lookup("p", "99")) == 0

    def test_attribute_lookup(self):
        idx = ValueIndex(parse_document('<r><x k="a"/><x k="b"/><x k="a"/></r>'))
        assert len(idx.lookup("@k", "a")) == 2

    def test_whitespace_normalized_keys(self):
        # regression (PR 4): raw-string keys made "  55 " invisible to a
        # "55" probe, so index and navigation plans disagreed
        idx = ValueIndex(parse_document(
            "<r><p>  55 </p><p>55</p><p>5 5</p></r>"))
        assert len(idx.lookup("p", "55")) == 2
        assert len(idx.lookup("p", " 55\t")) == 2
        assert len(idx.lookup("p", "5 5")) == 1

    def test_empty_leaf_indexed(self):
        idx = ValueIndex(parse_document("<r><p/><p>x</p></r>"))
        assert len(idx.lookup("p", "")) == 1


class TestStores:
    XML = "<inventory>" + "".join(
        f'<item sku="s{i}"><qty>{i}</qty></item>' for i in range(50)) + "</inventory>"

    @pytest.mark.parametrize("store_cls", [TextStore, TreeStore, TokenStore])
    def test_document_roundtrip(self, store_cls):
        store = store_cls(xml_text=self.XML)
        doc = store.document()
        assert len(doc.document_element().children) == 50

    def test_text_store_reparses(self):
        store = TextStore(xml_text=self.XML)
        assert store.document() is not store.document()

    def test_tree_store_shares(self):
        store = TreeStore(xml_text=self.XML)
        assert store.document() is store.document()

    def test_tree_store_indexes(self):
        store = TreeStore(xml_text=self.XML)
        assert store.element_index.cardinality("item") == 50
        assert len(store.value_index.lookup("qty", "7")) == 1

    def test_token_store_is_compact(self):
        text = TextStore(xml_text=self.XML)
        tokens = TokenStore(xml_text=self.XML)
        assert tokens.resident_bytes() < text.resident_bytes()

    def test_token_store_streams(self):
        store = TokenStore(xml_text=self.XML)
        stream = store.tokens()
        first = next(stream)
        from repro.tokens import Tok

        assert first.kind == Tok.BEGIN_DOCUMENT

    def test_unpooled_token_store(self):
        store = TokenStore(xml_text=self.XML, pooled=False)
        assert store.document().document_element().name.local == "inventory"

    @pytest.mark.parametrize("store_cls", [TextStore, TreeStore, TokenStore])
    def test_common_stats(self, store_cls):
        stats = store_cls(xml_text=self.XML).stats()
        assert stats.count("item") == 50
        assert stats.count("@sku") == 50
        assert stats.distinct_values["qty"] == 50
        assert stats.is_leaf_only("qty")
        assert not stats.is_leaf_only("item")
        assert not stats.has_namespaces

    @pytest.mark.parametrize("store_cls", [TextStore, TreeStore, TokenStore])
    def test_positional_and_missing_args_rejected(self, store_cls):
        # 2.0 removed the 1.2 positional shim: keyword-only
        with pytest.raises(TypeError, match="positional"):
            store_cls(self.XML)
        with pytest.raises(TypeError, match="xml_text"):
            store_cls()
