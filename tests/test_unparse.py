"""The unparser: core trees → XQuery text → same results."""

import pytest

from repro import Engine, execute_query
from repro.compiler.normalize import normalize_module
from repro.qname import QName
from repro.xquery.parser import parse_query
from repro.xquery.unparse import Unparsable, unparse

#: queries whose normalized cores must round-trip (no typed user
#: functions — ParamConvert has no surface syntax)
ROUNDTRIP_QUERIES = [
    "1 + 2 * 3",
    "(1, 2, (3, 4))",
    "1 to 5",
    "'a string'",
    "1.5",
    "2.5e3",
    "xs:date('2004-01-01')",
    "if (1 lt 2) then 'y' else 'n'",
    "some $x in (1, 2, 3) satisfies $x eq 2",
    "every $x in (1, 2) satisfies $x gt 0",
    "let $x := (1, 2, 3) return count($x)",
    "for $x at $i in ('a', 'b') return ($i, $x)",
    "for $x in (3, 1, 2) order by $x descending return $x",
    "for $x in (1 to 10) where $x mod 2 eq 0 return $x",
    "(1, 2) = (2, 3)",
    "'5' cast as xs:integer",
    "() cast as xs:integer?",
    "'x' castable as xs:date",
    "3 instance of xs:integer",
    "(3 treat as xs:integer) + 1",
    "typeswitch (3) case xs:string return 'S' case $v as xs:integer "
    "return $v default return 0",
    "element out { attribute k { 1 + 1 }, 'body', element inner {()} }",
    "document { element a {()} }",
    "comment { 'note' }",
    "processing-instruction tgt { 'data' }",
    "text { 'hi' }",
    "unordered { (1, 2) }",
    "-(3) + +(4)",
    "concat('a', 'b')",
    "fn:string-join(('x', 'y'), '-')",
]

PATH_QUERIES = [
    "/bib/book/title",
    "//book[@year = '1998']/title",
    "/bib/book[2]/author[1]/last",
    "//book[price < 30]/title/text()",
    "count(//author/..)",
    "(//book)[1]",
    "//book/self::node()",
    "for $b in //book return ($b/title, count($b/author))",
]


def roundtrip_values(query: str):
    module = parse_query(query)
    core, ctx = normalize_module(module)
    text = unparse(core)
    return execute_query(query).values(), execute_query(text).values(), text


class TestRoundTrip:
    @pytest.mark.parametrize("query", ROUNDTRIP_QUERIES)
    def test_values_agree(self, query):
        original, reparsed, text = roundtrip_values(query)
        assert original == reparsed, text

    @pytest.mark.parametrize("query", PATH_QUERIES)
    def test_paths_agree(self, query, bib_xml):
        module = parse_query(query)
        core, _ = normalize_module(module)
        text = unparse(core)
        assert execute_query(query, context_item=bib_xml).serialize() == \
            execute_query(text, context_item=bib_xml).serialize(), text

    def test_optimized_tree_roundtrips(self, bib_xml):
        engine = Engine()
        compiled = engine.compile(
            "for $b in //book where $b/price < 50 return $b/title")
        # the optimized tree reads the lifted 50 from $#l0;
        # to_xquery puts the literal back
        text = compiled.to_xquery()
        assert execute_query(text, context_item=bib_xml).serialize() == \
            compiled.execute(context_item=bib_xml).serialize()

    def test_namespaced_names_get_prolog(self):
        module = parse_query("declare namespace p = 'u1'; "
                             "for $x in $d//p:item return $x")
        core, _ = normalize_module(module, extra_vars=(QName("", "d"),))
        text = unparse(core)
        assert "declare namespace" in text
        assert "'u1'" in text
        parse_query(text.replace("$d", "()"))  # reparses cleanly

    def test_generated_variable_names_rewritten(self, bib_xml):
        # optimizer-generated names like #cse1 must become parseable
        engine = Engine()
        compiled = engine.compile("(count(//author), sum(//book/price))")
        text = unparse(compiled.optimized)
        assert "#" not in text
        assert execute_query(text, context_item=bib_xml).values() == \
            compiled.execute(context_item=bib_xml).values()

    def test_unparsable_param_convert(self):
        module = parse_query(
            "declare function local:f($x as xs:integer) { $x }; local:f(1)")
        core, _ = normalize_module(module)
        with pytest.raises(Unparsable):
            unparse(core)

    def test_boolean_literals(self):
        original, reparsed, text = roundtrip_values("fn:true()")
        assert original == reparsed == [True]
