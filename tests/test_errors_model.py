"""The error model: W3C-style codes on every failure path."""

import pytest

from repro import execute_query
from repro.errors import (
    ArithmeticError_,
    CastError,
    DynamicError,
    ParseError,
    StaticError,
    StaticTypeError,
    TypeError_,
    UndefinedNameError,
    ValidationError,
    XQueryError,
)


class TestHierarchy:
    def test_all_are_xquery_errors(self):
        for cls in (ParseError, UndefinedNameError, StaticTypeError,
                    DynamicError, CastError, ArithmeticError_,
                    ValidationError, TypeError_):
            assert issubclass(cls, XQueryError)

    def test_static_family(self):
        assert issubclass(ParseError, StaticError)
        assert issubclass(UndefinedNameError, StaticError)

    def test_message_carries_code(self):
        err = TypeError_("boom")
        assert "err:XPTY0004" in str(err)
        assert err.message == "boom"

    def test_code_override(self):
        err = DynamicError("x", code="FODC0002")
        assert err.code == "FODC0002"
        assert "FODC0002" in str(err)

    def test_parse_error_position(self):
        err = ParseError("bad", line=3, column=7)
        assert err.line == 3 and err.column == 7
        assert "line 3" in str(err)


class TestCodesSurface:
    """Each failure class carries the right W3C code family."""

    def _code(self, query, **kw):
        try:
            execute_query(query, **kw).items()
        except XQueryError as exc:
            return exc.code
        raise AssertionError(f"{query!r} did not raise")

    def test_syntax_error(self):
        assert self._code("1 +") == "XPST0003"

    def test_undefined_variable(self):
        assert self._code("$nope") == "XPST0008"

    def test_unknown_function(self):
        assert self._code("fn:nope()") == "XPST0017"

    def test_static_type_error(self):
        assert self._code("fn:true() + 1") == "XPTY0004"

    def test_path_step_over_atomic(self):
        # the static checker raises the code the runtime raises
        assert self._code("(1, 2)/a") == "XPTY0019"

    def test_division_by_zero(self):
        assert self._code("1 idiv 0") == "FOAR0001"

    def test_cast_failure(self):
        assert self._code("'x' cast as xs:integer") == "FORG0001"

    def test_missing_document(self):
        assert self._code("doc('ghost')") == "FODC0002"

    def test_context_item_undefined(self):
        assert self._code(".") == "XPDY0002"

    def test_attribute_after_content(self):
        assert self._code("<a>{'t', attribute x {'v'}}</a>") == "XQTY0024"

    def test_duplicate_computed_attribute(self):
        assert self._code("<a x='1'>{attribute x {'2'}}</a>") == "XQDY0025"

    def test_cardinality_function(self):
        assert self._code("exactly-one((1, 2))") == "FORG0005"

    def test_user_error_code_passthrough(self):
        assert self._code("fn:error('MYER01', 'custom')") == "MYER01"

    def test_ebv_error(self):
        assert self._code("(1, 2) and fn:true()") == "FORG0006"
