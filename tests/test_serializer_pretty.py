"""Pretty-printing serialization and the new string functions."""

import pytest

from repro import execute_query
from repro.xmlio import parse_events, serialize_events


def pretty(xml, indent=2):
    return serialize_events(parse_events(xml), indent=indent)


class TestPrettyPrint:
    def test_element_only_content_indented(self):
        out = pretty("<a><b><c/></b><d/></a>")
        assert out == "<a>\n  <b>\n    <c/>\n  </b>\n  <d/>\n</a>\n"

    def test_text_elements_stay_inline(self):
        out = pretty("<a><name>Alice</name></a>")
        assert "<name>Alice</name>" in out

    def test_mixed_content_untouched(self):
        xml = "<p>hello <em>world</em> tail</p>"
        assert pretty(xml).strip() == xml

    def test_attributes_preserved(self):
        out = pretty('<a x="1"><b y="2"/></a>')
        assert '<a x="1">' in out
        assert '<b y="2"/>' in out

    def test_whitespace_only_text_dropped_in_blocks(self):
        out = pretty("<a>\n   <b/>\n</a>")
        assert out == "<a>\n  <b/>\n</a>\n"

    def test_comments_indented(self):
        out = pretty("<a><!--note--><b/></a>")
        assert "  <!--note-->" in out

    def test_indent_zero_is_compact(self):
        xml = "<a><b/></a>"
        assert serialize_events(parse_events(xml), indent=0) == xml

    def test_roundtrip_semantics_preserved(self):
        from repro.xdm.build import parse_document

        xml = '<site><people><person id="p"><name>A</name></person></people></site>'
        doc1 = parse_document(xml)
        doc2 = parse_document(pretty(xml))
        q = "string((//name)[1])"
        assert execute_query(q, context_item=doc1).values() == \
            execute_query(q, context_item=doc2).values()

    def test_result_serialize_indent(self):
        out = execute_query("<r><a/><b/></r>").serialize(indent=2)
        assert out == "<r>\n  <a/>\n  <b/>\n</r>\n"

    def test_result_serialize_indent_with_decl(self):
        out = execute_query("<r><a/></r>").serialize(xml_decl=True, indent=2)
        assert out.startswith('<?xml version="1.0" encoding="UTF-8"?>\n<r>')

    def test_deep_document_has_no_recursion_limit(self):
        # 20 000 levels: the top 2 000 element-only (one line each, so
        # well past the recursion limit), the rest under a text-bearing
        # element (one inline line).  All 20 000 block-rendered would be
        # 800 MB of indentation at indent=2.
        deep = ("<a>" * 2000 + "<b>t" + "<a>" * 17999
                + "</a>" * 17999 + "</b>" + "</a>" * 2000)
        out = execute_query(".", context_item=deep).serialize(indent=2)
        lines = out.splitlines()
        assert len(lines) == 4001
        assert lines[0] == "<a>" and lines[-1] == "</a>"
        assert lines[1999] == " " * 3998 + "<a>"
        assert lines[2000] == " " * 4000 + "<b>t" + "<a>" * 17998 \
            + "<a/>" + "</a>" * 17998 + "</b>"
        assert lines[2001] == " " * 3998 + "</a>"


class TestCodepointFunctions:
    def test_string_to_codepoints(self, values):
        assert values("string-to-codepoints('AB')") == [65, 66]
        assert values("string-to-codepoints('')") == []

    def test_codepoints_to_string(self, values):
        assert values("codepoints-to-string((104, 105))") == ["hi"]
        assert values("codepoints-to-string(())") == [""]

    def test_roundtrip(self, values):
        assert values(
            "codepoints-to-string(string-to-codepoints('déjà vu'))") == ["déjà vu"]

    def test_compare(self, values):
        assert values("(compare('a', 'b'), compare('b', 'b'), compare('c', 'b'))") \
            == [-1, 0, 1]
        assert values("compare((), 'x')") == []
