"""XDM nodes, accessors, document order, atomization."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TypeError_
from repro.qname import QName
from repro.xdm import (
    AtomicValue,
    atomize,
    doc_order_key,
    in_document_order,
    is_before,
    node_events,
    parse_document,
    string_value_of,
    untyped_atomic,
)
from repro.xdm.items import boolean, decimal, double, integer, string
from repro.xdm.nodes import AttributeNode, CommentNode, ElementNode, TextNode
from repro.xmlio import serialize_events
from repro.xsd import types as T


@pytest.fixture()
def book_doc():
    return parse_document(
        '<book year="1967" xmlns="www.amazon.com">'
        "<title>The politics of experience</title>"
        "<author>R.D. Laing</author></book>")


class TestAccessors:
    def test_document_element(self, book_doc):
        el = book_doc.document_element()
        assert el.name.clark == "{www.amazon.com}book"

    def test_node_kinds(self, book_doc):
        el = book_doc.document_element()
        assert book_doc.kind == "document"
        assert el.kind == "element"
        assert el.attributes[0].kind == "attribute"
        assert el.children[0].children[0].kind == "text"

    def test_string_value_concatenates_descendants(self, book_doc):
        el = book_doc.document_element()
        assert el.string_value == "The politics of experienceR.D. Laing"

    def test_attribute_string_value(self, book_doc):
        attr = book_doc.document_element().attributes[0]
        assert attr.string_value == "1967"

    def test_untyped_typed_value(self, book_doc):
        # the tutorial: typed-value(year attribute) = ("1967", xdt:untypedAtomic)
        attr = book_doc.document_element().attributes[0]
        tv = attr.typed_value()
        assert tv == [untyped_atomic("1967")]
        assert tv[0].type is T.UNTYPED_ATOMIC

    def test_untyped_element_annotation(self, book_doc):
        assert book_doc.document_element().type_annotation is T.UNTYPED

    def test_parent_navigation(self, book_doc):
        el = book_doc.document_element()
        title = el.children[0]
        assert title.parent is el
        assert el.parent is book_doc
        assert book_doc.parent is None

    def test_root(self, book_doc):
        deepest = book_doc.document_element().children[0].children[0]
        assert deepest.root() is book_doc

    def test_ancestors(self, book_doc):
        text = book_doc.document_element().children[0].children[0]
        kinds = [n.kind for n in text.ancestors()]
        assert kinds == ["element", "element", "document"]

    def test_descendants_preorder(self, book_doc):
        names = [n.name.local for n in book_doc.descendants()
                 if isinstance(n, ElementNode)]
        assert names == ["book", "title", "author"]

    def test_in_scope_namespaces(self, book_doc):
        el = book_doc.document_element()
        assert el.in_scope_namespaces()[""] == "www.amazon.com"

    def test_attribute_lookup(self, book_doc):
        el = book_doc.document_element()
        assert el.attribute(QName("", "year")).value == "1967"
        assert el.attribute(QName("", "nope")) is None

    def test_comment_and_pi_nodes(self):
        doc = parse_document("<a><!--c--><?t d?></a>")
        comment, pi = doc.document_element().children
        assert comment.string_value == "c"
        assert pi.string_value == "d"
        assert pi.node_name.local == "t"


class TestDocumentOrder:
    def test_preorder(self, book_doc):
        el = book_doc.document_element()
        title, author = el.children
        assert is_before(el, title)
        assert is_before(title, author)
        assert not is_before(author, title)

    def test_attributes_after_element_before_children(self, book_doc):
        el = book_doc.document_element()
        attr = el.attributes[0]
        assert is_before(el, attr)
        assert is_before(attr, el.children[0])

    def test_sort_and_dedup(self, book_doc):
        el = book_doc.document_element()
        title, author = el.children
        result = in_document_order([author, title, author, el])
        assert result == [el, title, author]

    def test_fewer_than_two_nodes_are_returned_as_is(self, book_doc,
                                                     monkeypatch):
        """0 or 1 node is already distinct and ordered: no set, no copy,
        no ``doc_order_key`` root walk — the duplicate *pair* still
        dedups, and DDO operators count ``ddo_sorts`` as before."""
        from repro import Engine, ExecutionOptions
        from repro.compiler.reference import ReferenceEngine
        from repro.xdm import order

        title, author = book_doc.document_element().children
        keyed = []
        real_key = order.doc_order_key
        monkeypatch.setattr(order, "doc_order_key",
                            lambda node: keyed.append(node) or real_key(node))
        empty, one = [], [title]
        assert in_document_order(empty) is empty
        assert in_document_order(one) is one
        assert keyed == []
        assert in_document_order([title, title]) == [title]
        assert in_document_order([author, title]) == [title, author]
        assert keyed
        sorts = set()
        for executor in (Engine, ReferenceEngine):
            result = executor(options=ExecutionOptions(
                optimize=False)).compile(
                "(/*/*[1]/text(), /*/nothing/text())").execute(
                context_item=book_doc)
            result.items()
            sorts.add(result.stats["ddo_sorts"])
        assert len(sorts) == 1 and sorts.pop() >= 1

    def test_cross_tree_order_stable(self):
        a = parse_document("<a/>")
        b = parse_document("<b/>")
        first = doc_order_key(a) < doc_order_key(b)
        # stable on re-query
        assert (doc_order_key(a) < doc_order_key(b)) == first

    @given(st.integers(min_value=2, max_value=30), st.data())
    @settings(max_examples=25, deadline=None)
    def test_order_matches_preorder_walk(self, n, data):
        # random tree: document-order keys must agree with the pre-order walk
        from repro.workloads.synthetic import random_tree

        seed = data.draw(st.integers(min_value=0, max_value=10_000))
        doc = parse_document(random_tree(n, seed=seed))
        walk = list(doc.descendants_or_self())
        keys = [doc_order_key(node) for node in walk]
        assert keys == sorted(keys)


class TestAtomization:
    def test_atomic_passthrough(self):
        assert list(atomize([integer(4)])) == [integer(4)]

    def test_node_atomizes_to_untyped(self, book_doc):
        title = book_doc.document_element().children[0]
        assert list(atomize([title])) == [untyped_atomic("The politics of experience")]

    def test_non_item_raises(self):
        with pytest.raises(TypeError_):
            list(atomize(["raw python string"]))

    def test_string_value_of_atomic(self):
        assert string_value_of(integer(42)) == "42"
        assert string_value_of(boolean(True)) == "true"
        assert string_value_of(double(1.5)) == "1.5"

    def test_typed_value_after_set_type(self):
        el = ElementNode(QName("", "n"))
        el.children.append(TextNode("5", el))
        el.set_type(T.XS_INTEGER, [AtomicValue(5, T.XS_INTEGER)])
        assert el.typed_value() == [AtomicValue(5, T.XS_INTEGER)]

    def test_element_only_content_typed_value_raises(self):
        from repro.xdm.nodes import NO_TYPED_VALUE

        el = ElementNode(QName("", "n"))
        el.set_type(T.ANY_TYPE, NO_TYPED_VALUE)
        with pytest.raises(TypeError_):
            el.typed_value()


class TestAtomicValueIdentity:
    def test_type_distinguishes_values(self):
        # the tutorial: (8, myNS:ShoeSize) is not the same as (8, xs:integer)
        registry = T.TypeRegistry()
        shoe = registry.derive(QName("myNS", "ShoeSize"), T.XS_INTEGER)
        assert AtomicValue(8, shoe) != AtomicValue(8, T.XS_INTEGER)

    def test_same_type_same_value(self):
        assert integer(8) == integer(8)

    def test_lexical_forms(self):
        assert integer(42).lexical == "42"
        assert boolean(False).lexical == "false"
        assert decimal("1.50").lexical == "1.50"
        assert string("x").lexical == "x"


class TestNodeEvents:
    def test_roundtrip(self, book_doc):
        out = serialize_events(node_events(book_doc))
        again = serialize_events(node_events(parse_document(out)))
        assert out == again

    def test_merged_text_nodes(self):
        doc = parse_document("<a>one&amp;two</a>")
        children = doc.document_element().children
        assert len(children) == 1
        assert children[0].content == "one&two"

    def test_attribute_standalone_serialization_fails(self):
        attr = AttributeNode(QName("", "x"), "1")
        with pytest.raises(Exception):
            list(node_events(attr))
