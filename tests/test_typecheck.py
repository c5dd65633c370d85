"""Static type inference (the tutorial's type-system goals 1–3)."""

import pytest

from repro import Engine, ExecutionOptions, execute_query
from repro.compiler.normalize import normalize_module
from repro.compiler.sequencetype import resolve_sequence_type
from repro.compiler.typecheck import TypeChecker, infer_type
from repro.errors import StaticTypeError
from repro.qname import QName
from repro.xquery.ast import SequenceTypeAST
from repro.xquery.parser import parse_query


def typed(query: str, extra_vars=()):
    module = parse_query(query)
    core, ctx = normalize_module(module, extra_vars=tuple(
        QName("", v) for v in extra_vars))
    return infer_type(core, ctx)


class TestInference:
    """Goal 2: infer the result type of valid queries."""

    def test_integer_literal(self):
        t = typed("42")
        assert str(t) == "xs:integer"

    def test_arithmetic_result_types(self):
        assert str(typed("1 + 2")) == "xs:integer"
        assert str(typed("1 + 2.5")) == "xs:decimal"
        assert str(typed("1 + 2.5e0")) == "xs:double"
        assert str(typed("1 div 2")) == "xs:decimal"

    def test_empty_propagation_in_arithmetic(self):
        t = typed("() + 1")
        assert t.maybe_empty()

    def test_comparison_is_boolean(self):
        assert str(typed("(1, 2) = (2, 3)")) == "xs:boolean"

    def test_value_comparison_optional(self):
        t = typed("() eq 42")
        assert t.atomic.name.local == "boolean"
        assert t.maybe_empty()

    def test_sequence_occurrence(self):
        assert typed("(1, 2, 3)").occurrence == "+"
        assert typed("()").always_empty()

    def test_range_is_integer_star(self):
        t = typed("1 to 5")
        assert t.atomic.name.local == "integer"
        assert t.occurrence == "*"

    def test_for_occurrence(self):
        t = typed("for $x in (1, 2, 3) return $x * 2")
        assert t.occurrence in ("*", "+")

    def test_constructor_is_singleton_element(self):
        t = typed("<a/>")
        assert t.kind == "element"
        assert t.occurrence == ""

    def test_path_returns_nodes(self):
        t = typed("$d/a/b", extra_vars=("d",))
        assert t.kind == "element"

    def test_attribute_step(self):
        t = typed("$d/a/@x", extra_vars=("d",))
        assert t.kind == "attribute"

    def test_count_is_integer(self):
        assert str(typed("count($d/a)", extra_vars=("d",))) == "xs:integer"

    def test_cast_type(self):
        assert str(typed("'5' cast as xs:integer")) == "xs:integer"
        assert typed("() cast as xs:integer?").maybe_empty()

    def test_if_union(self):
        t = typed("if (1 eq 1) then 1 else 2")
        assert t.atomic.name.local == "integer"
        t = typed("if (1 eq 1) then 1 else 'x'")
        assert t.kind == "atomic"
        assert t.atomic is None  # integer | string → unknown atomic

    def test_user_function_return_type(self):
        t = typed("declare function local:f() as xs:date* { () }; local:f()")
        assert t.atomic.name.local == "date"

    def test_declared_variable_type(self):
        t = typed("declare variable $d as document-node() external; $d")
        assert t.kind == "document"

    def test_let_propagates(self):
        assert str(typed("let $x := 5 return $x")) == "xs:integer"

    def test_quantified_boolean(self):
        assert str(typed("some $x in (1, 2) satisfies $x eq 1")) == "xs:boolean"


class TestStaticErrors:
    """Goal 1: reject statically-impossible queries at compile time."""

    def test_arithmetic_on_boolean(self):
        with pytest.raises(StaticTypeError):
            typed("fn:true() + 1")

    def test_arithmetic_on_constructed_boolean(self):
        with pytest.raises(StaticTypeError):
            typed("(1 eq 1) * 2")

    def test_path_over_atomic(self):
        with pytest.raises(StaticTypeError):
            typed("(1 + 2)/a")

    def test_union_of_atomics(self):
        with pytest.raises(StaticTypeError):
            typed("(1, 2) union (3, 4)")

    def test_order_comparison_on_atomics(self):
        with pytest.raises(StaticTypeError):
            typed("1 << 2")

    def test_engine_surfaces_static_errors(self):
        with pytest.raises(StaticTypeError):
            Engine().compile("fn:true() - 1")

    def test_optimistic_on_unknowns(self):
        # untyped variables and node content can be anything: no error
        typed("$x + 1", extra_vars=("x",))
        typed("<a>1</a> + 1")
        typed("$x/a/b", extra_vars=("x",))


class TestCheckAgainst:
    """Goal 3: conformance against an expected type."""

    def _check(self, query: str, kind: str, type_name=None, occurrence=""):
        module = parse_query(query)
        core, ctx = normalize_module(module)
        checker = TypeChecker(ctx)
        expected = resolve_sequence_type(
            SequenceTypeAST(kind, type_name=type_name, occurrence=occurrence), ctx)
        return checker.check_against(core, expected)

    def test_conforming(self):
        from repro.qname import xs

        self._check("42", "atomic", xs("integer"))
        self._check("(1, 2)", "atomic", xs("integer"), "*")
        self._check("<a/>", "element")

    def test_statically_empty_vs_required(self):
        from repro.qname import xs

        with pytest.raises(StaticTypeError):
            self._check("()", "atomic", xs("integer"))

    def test_wrong_atomic_type(self):
        from repro.qname import xs

        with pytest.raises(StaticTypeError):
            self._check("'text'", "atomic", xs("date"))


class TestEngineIntegration:
    def test_static_type_on_compiled_query(self):
        compiled = Engine().compile("count((1, 2, 3))")
        assert str(compiled.static_type) == "xs:integer"

    def test_static_typing_can_be_disabled(self):
        engine = Engine(options=ExecutionOptions(static_typing=False))
        compiled = engine.compile("1 + 1")
        assert compiled.static_type is None

    def test_disabled_typing_defers_error_to_runtime(self):
        engine = Engine(options=ExecutionOptions(static_typing=False))
        compiled = engine.compile("fn:true() + 1")  # compiles fine
        from repro.errors import TypeError_

        with pytest.raises(TypeError_):
            compiled.execute().items()
