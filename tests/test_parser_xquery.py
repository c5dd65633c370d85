"""The XQuery parser: shapes, precedence, lineage, and error cases."""

import pytest

from repro.errors import ParseError, UndefinedNameError
from repro.qname import FN_NS, QName
from repro.xquery import ast, parse_query


def body(q: str) -> ast.Expr:
    return parse_query(q).body


class TestPrecedence:
    def test_multiplication_binds_tighter(self):
        e = body("1 + 2 * 3")
        assert isinstance(e, ast.Arithmetic) and e.op == "+"
        assert isinstance(e.right, ast.Arithmetic) and e.right.op == "*"

    def test_comparison_over_arithmetic(self):
        e = body("1 + 2 eq 3")
        assert isinstance(e, ast.Comparison)
        assert isinstance(e.left, ast.Arithmetic)

    def test_and_over_or(self):
        e = body("1 eq 1 or 2 eq 2 and 3 eq 3")
        assert isinstance(e, ast.OrExpr)
        assert isinstance(e.right, ast.AndExpr)

    def test_range_below_additive(self):
        e = body("1 to 2 + 3")
        assert isinstance(e, ast.RangeExpr)
        assert isinstance(e.high, ast.Arithmetic)

    def test_union_below_multiplicative(self):
        e = body("$a/x * 2", )  # noqa: would need var; use literals instead

    def test_unary_minus_precedence(self):
        e = body("-1 + 2")
        assert isinstance(e, ast.Arithmetic) and e.op == "+"
        assert isinstance(e.left, ast.UnaryExpr)

    def test_comma_lowest(self):
        e = body("1 + 1, 2")
        assert isinstance(e, ast.SequenceExpr)
        assert len(e.items) == 2

    def test_instance_of_binds_tighter_than_plus(self):
        # per the W3C grammar InstanceofExpr sits BELOW additive:
        # 1 + 1 instance of T  ≡  1 + (1 instance of T)
        e = body("1 + 1 instance of xs:integer")
        assert isinstance(e, ast.Arithmetic)
        assert isinstance(e.right, ast.InstanceOf)

    def test_parenthesized_instance_of(self):
        e = body("(1 + 1) instance of xs:integer")
        assert isinstance(e, ast.InstanceOf)


class TestLineage:
    def test_positions_recorded(self):
        e = body("1 +\n  2 * 3")
        mult = e.right
        assert mult.pos[0] == 2  # line 2

    def test_module_keeps_source(self):
        module = parse_query("(: c :) 1 + 1")
        assert "(: c :)" in module.source


class TestComments:
    def test_simple_comment(self):
        assert isinstance(body("(: hello :) 42"), ast.Literal)

    def test_nested_comments(self):
        assert isinstance(body("(: outer (: inner :) still :) 42"), ast.Literal)

    def test_unterminated_comment(self):
        with pytest.raises(ParseError):
            body("(: oops 42")


class TestNames:
    def test_function_default_namespace(self):
        e = body("count(())")
        assert e.name == QName(FN_NS, "count")

    def test_declared_function_namespace(self):
        module = parse_query(
            "declare default function namespace 'u'; f(1)")
        assert module.body.name.uri == "u"

    def test_prefixed_function(self):
        e = body("fn:count(())")
        assert e.name.uri == FN_NS

    def test_variable_with_prefix(self):
        module = parse_query("declare namespace p = 'u'; "
                             "declare variable $p:x := 1; $p:x")
        assert module.body.name.uri == "u"


class TestProlog:
    def test_namespace_declaration(self):
        module = parse_query("declare namespace foo = 'uri-foo'; 1")
        assert module.prolog.namespaces["foo"] == "uri-foo"

    def test_default_element_namespace(self):
        module = parse_query("declare default element namespace 'u'; //x")
        assert module.prolog.default_element_ns == "u"

    def test_variable_declarations(self):
        module = parse_query(
            "declare variable $a := 1; "
            "declare variable $b as xs:integer external; 1")
        assert len(module.prolog.variables) == 2
        assert module.prolog.variables[1].external

    def test_function_declaration_shapes(self):
        module = parse_query(
            "declare function local:f($x as xs:integer, $y) as xs:string "
            "{ 'r' }; 1")
        decl = module.prolog.functions[0]
        assert decl.arity == 2
        assert decl.params[0][1] is not None
        assert decl.params[1][1] is None
        assert decl.return_type is not None

    def test_external_function(self):
        module = parse_query("declare function my:f() external; 1"
                             .replace("my:", "local:"))
        assert module.prolog.functions[0].external

    def test_schema_import_recorded(self):
        module = parse_query("import schema namespace s = 'uri-s'; 1")
        assert module.prolog.schema_imports == ["uri-s"]


class TestPathShapes:
    def test_abbreviations(self):
        e = body("$x/@year")  # attribute axis — will fail scope later but parses
        # unwrap DDO-free tree: parser emits PathExpr directly
        assert isinstance(e, ast.PathExpr)
        assert e.right.axis == "attribute"

    def test_dot_dot(self):
        e = body("$x/..")
        assert e.right.axis == "parent"

    def test_kind_tests(self):
        for test_text, kind in [("text()", "text"), ("comment()", "comment"),
                                ("node()", "node"),
                                ("processing-instruction()", "processing-instruction"),
                                ("element()", "element")]:
            e = body(f"$x/{test_text}")
            assert e.right.test.kind == kind, test_text

    def test_pi_target_test(self):
        e = body("$x/processing-instruction('tgt')")
        assert e.right.test.pi_target == "tgt"

    def test_double_slash_expansion(self):
        e = body("//a")
        # RootExpr / descendant-or-self::node() / child::a
        assert isinstance(e.left, ast.PathExpr)
        assert e.left.right.axis == "descendant-or-self"

    def test_predicates_nest(self):
        e = body("$x/a[1][2]")
        assert isinstance(e.right, ast.Filter)
        assert isinstance(e.right.base, ast.Filter)

    def test_full_axis_names(self):
        for axis in ("child", "descendant", "attribute", "self",
                     "descendant-or-self", "parent", "ancestor",
                     "ancestor-or-self", "following-sibling",
                     "preceding-sibling", "following", "preceding"):
            e = body(f"$x/{axis}::node()")
            assert e.right.axis == axis


class TestErrors:
    @pytest.mark.parametrize("bad", [
        "",                        # empty query
        "1 +",                     # dangling operator
        "for $x in",               # unfinished FLWOR
        "let $x := 1",             # missing return
        "if (1) then 2",           # missing else
        "<a><b></a>",              # mismatched constructor tags
        "<a x='1' x='2'/>",        # duplicate attribute? (parser may allow; runtime rejects)
        "$x[",                     # unclosed predicate
        "fn:count(1,",             # unclosed args
        "'unterminated",           # unterminated string
        "1 cast as",               # missing type
        "typeswitch (1) default return 1",  # no cases
        "element { 'n' }",         # ctor missing content braces
        "declare function local:f() as { 1 }; 1",  # bad return type
        "some $x in (1)",          # missing satisfies
    ])
    def test_rejected(self, bad):
        with pytest.raises(ParseError):
            parse_query(bad)

    def test_error_position_points_at_problem(self):
        with pytest.raises(ParseError) as err:
            parse_query("1 +\n+\n@")
        assert err.value.line >= 1

    def test_undeclared_prefix_in_step(self):
        with pytest.raises(ParseError):
            parse_query("$x/nope:a")

    @pytest.mark.parametrize("text", ["1 +", "(", "for $x in (1) return"])
    def test_end_of_input_is_reported_as_such(self, text):
        # "" is in every string: at the end, peek() once started a
        # string literal and reported it unterminated
        with pytest.raises(ParseError, match="unexpected end of input"):
            parse_query(text)

    def test_lone_slash_is_the_root(self):
        from repro.engine import Engine

        assert isinstance(body("/"), ast.RootExpr)
        result = Engine().compile("/").execute(context_item="<a><b/></a>")
        assert result.serialize() == "<a><b/></a>"


class TestConstructorsParsing:
    def test_nested_direct(self):
        e = body("<a><b/><c>text</c></a>")
        assert isinstance(e, ast.ElementCtor)
        assert len(e.content) == 2

    def test_attr_expr_parts(self):
        e = body('<a x="pre{1}post"/>')
        attr = e.attributes[0]
        assert len(attr.value_parts) == 3

    def test_namespace_decl_separated(self):
        e = body('<a xmlns:p="u" q="v"/>')
        assert e.ns_decls == (("p", "u"),)
        assert len(e.attributes) == 1

    def test_entity_in_content(self):
        e = body("<a>&amp;</a>")
        text_ctor = e.content[0]
        assert text_ctor.content.value.value == "&"

    def test_cdata(self):
        e = body("<a><![CDATA[{not an expr}]]></a>")
        assert e.content[0].content.value.value == "{not an expr}"
