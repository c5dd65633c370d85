"""The from-scratch XML parser and serializer."""

import random

import pytest

from repro.errors import ParseError
from repro.xmlio import (
    Comment,
    EndElement,
    ProcessingInstruction,
    StartElement,
    Text,
    parse_events,
    serialize_events,
)
from repro.xmlio.serializer import escape_attribute, escape_text


def events(xml):
    return list(parse_events(xml))


def roundtrip(xml):
    return serialize_events(parse_events(xml))


class TestBasicParsing:
    def test_single_empty_element(self):
        evs = events("<a/>")
        kinds = [type(e).__name__ for e in evs]
        assert kinds == ["StartDocument", "StartElement", "EndElement", "EndDocument"]

    def test_element_with_text(self):
        evs = events("<a>hello</a>")
        texts = [e.content for e in evs if isinstance(e, Text)]
        assert texts == ["hello"]

    def test_attributes(self):
        start = next(e for e in events('<a x="1" y="2"/>') if isinstance(e, StartElement))
        assert {(n.local, v) for n, v in start.attributes} == {("x", "1"), ("y", "2")}

    def test_nested_elements(self):
        evs = events("<a><b><c/></b></a>")
        names = [e.name.local for e in evs if isinstance(e, StartElement)]
        assert names == ["a", "b", "c"]

    def test_xml_declaration_skipped(self):
        evs = events('<?xml version="1.0" encoding="UTF-8"?><a/>')
        assert any(isinstance(e, StartElement) for e in evs)

    def test_doctype_skipped(self):
        evs = events('<!DOCTYPE html [<!ENTITY x "y">]><a/>')
        assert any(isinstance(e, StartElement) for e in evs)

    def test_comment(self):
        evs = events("<a><!-- hi --></a>")
        assert any(isinstance(e, Comment) and e.content == " hi " for e in evs)

    def test_processing_instruction(self):
        evs = events("<a><?target some data?></a>")
        pi = next(e for e in evs if isinstance(e, ProcessingInstruction))
        assert pi.target == "target"
        assert pi.content == "some data"

    def test_cdata_becomes_text(self):
        evs = events("<a><![CDATA[<not markup> & stuff]]></a>")
        text = next(e for e in evs if isinstance(e, Text))
        assert text.content == "<not markup> & stuff"

    def test_parsing_is_lazy(self):
        # pulling only the first few events must not parse the rest —
        # even though the rest is malformed
        stream = parse_events("<a><b/>" + "<unclosed>")
        next(stream)  # StartDocument
        start = next(stream)
        assert isinstance(start, StartElement)


class TestEntities:
    def test_builtin_entities(self):
        evs = events("<a>&lt;&gt;&amp;&quot;&apos;</a>")
        text = next(e for e in evs if isinstance(e, Text))
        assert text.content == "<>&\"'"

    def test_numeric_entities(self):
        evs = events("<a>&#65;&#x42;</a>")
        text = next(e for e in evs if isinstance(e, Text))
        assert text.content == "AB"

    def test_entities_in_attributes(self):
        start = next(e for e in events('<a x="&amp;&#33;"/>')
                     if isinstance(e, StartElement))
        assert start.attributes[0][1] == "&!"

    def test_attribute_whitespace_normalization(self):
        start = next(e for e in events('<a x="a\nb\tc"/>')
                     if isinstance(e, StartElement))
        assert start.attributes[0][1] == "a b c"

    def test_undefined_entity_raises(self):
        with pytest.raises(ParseError):
            events("<a>&nope;</a>")


class TestNamespaces:
    def test_default_namespace(self):
        start = next(e for e in events('<a xmlns="u"><b/></a>')
                     if isinstance(e, StartElement))
        assert start.name.uri == "u"

    def test_default_namespace_inherited(self):
        starts = [e for e in events('<a xmlns="u"><b/></a>')
                  if isinstance(e, StartElement)]
        assert starts[1].name.uri == "u"

    def test_prefixed_names(self):
        starts = [e for e in events('<p:a xmlns:p="u1"><p:b/></p:a>')
                  if isinstance(e, StartElement)]
        assert all(s.name.uri == "u1" for s in starts)

    def test_attribute_not_in_default_ns(self):
        start = next(e for e in events('<a xmlns="u" x="1"/>')
                     if isinstance(e, StartElement))
        assert start.attributes[0][0].uri == ""

    def test_prefix_shadowing(self):
        starts = [e for e in events(
            '<p:a xmlns:p="u1"><p:b xmlns:p="u2"><p:c/></p:b></p:a>')
            if isinstance(e, StartElement)]
        assert [s.name.uri for s in starts] == ["u1", "u2", "u2"]

    def test_undeclared_prefix_raises(self):
        with pytest.raises(ParseError):
            events("<p:a/>")


class TestWellFormedness:
    @pytest.mark.parametrize("bad", [
        "<a>",                      # unclosed
        "<a></b>",                  # mismatched
        "<a/><b/>",                 # two roots
        "text only",                # no root
        "",                         # empty
        "<a x='1' x='2'/>",         # duplicate attribute
        "<a x=1/>",                 # unquoted attribute
        "<a><!-- -- --></a>",       # double hyphen in comment
        "<a>&unterminated",         # unterminated entity
        "<a><?xml bad?></a>",       # reserved PI target
        "<1a/>",                    # bad name
        '<a x="<"/>',               # '<' in attribute value
    ])
    def test_rejected(self, bad):
        with pytest.raises(ParseError):
            events(bad)

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            events("<a>\n<b></c></a>")
        assert err.value.line == 2


class TestSerializer:
    @pytest.mark.parametrize("xml", [
        "<a/>",
        "<a>text</a>",
        '<a x="1"><b>t</b><c/></a>',
        "<a><!--c--><?pi d?></a>",
        '<p:a xmlns:p="u"><p:b/></p:a>',
        '<a xmlns="u"><b/></a>',
    ])
    def test_roundtrip_stable(self, xml):
        once = roundtrip(xml)
        twice = serialize_events(parse_events(once))
        assert once == twice

    def test_escaping_text(self):
        assert escape_text("a<b&c>d") == "a&lt;b&amp;c&gt;d"

    def test_escaping_attribute(self):
        assert escape_attribute('a"b&c<d') == "a&quot;b&amp;c&lt;d"

    def test_escapes_roundtrip(self):
        xml = "<a>&lt;tag&gt; &amp; more</a>"
        assert roundtrip(xml) == xml

    def test_empty_element_collapsed(self):
        assert roundtrip("<a></a>") == "<a/>"

    def test_xml_decl_flag(self):
        out = serialize_events(parse_events("<a/>"), xml_decl=True)
        assert out.startswith("<?xml")

    def test_document_deeper_than_the_recursion_limit(self):
        # node events come off an explicit stack, not one Python frame
        # per level
        import sys

        from repro.engine import Engine

        depth = 20 * sys.getrecursionlimit()
        xml = "<a>" * depth + "</a>" * depth
        expected = "<a>" * (depth - 1) + "<a/>" + "</a>" * (depth - 1)
        for query in (".", "/a"):
            result = Engine().compile(query).execute(context_item=xml)
            assert result.serialize() == expected, query


def _reference_escape_text(value: str) -> str:
    return value.replace("&", "&amp;").replace("<", "&lt;") \
        .replace(">", "&gt;")


def _reference_escape_attribute(value: str) -> str:
    out = value.replace("&", "&amp;").replace("<", "&lt;")
    return out.replace('"', "&quot;").replace("\n", "&#10;") \
        .replace("\t", "&#9;")


class TestSerializerFastPath:
    def test_escape_differential_random(self):
        rng = random.Random(5)
        alphabet = 'ab<>&"\'\n\t é☃'
        for _ in range(500):
            s = "".join(rng.choice(alphabet)
                        for _ in range(rng.randrange(0, 40)))
            assert escape_text(s) == _reference_escape_text(s)
            assert escape_attribute(s) == _reference_escape_attribute(s)

    def test_flat_serializer_matches_chunks(self, xmark_small):
        from repro.xdm.build import node_events, parse_document
        from repro.xmlio.serializer import serialize_chunks

        doc = parse_document(xmark_small)
        flat = serialize_events(node_events(doc))
        chunked = "".join(serialize_chunks(node_events(doc)))
        assert flat == chunked

    def test_flat_serializer_xml_decl(self, bib_doc):
        from repro.xdm.build import node_events
        from repro.xmlio.serializer import serialize_chunks

        flat = serialize_events(node_events(bib_doc), xml_decl=True)
        chunked = "".join(serialize_chunks(node_events(bib_doc),
                                           xml_decl=True))
        assert flat == chunked
