"""The type system: hierarchy, lexical parsing, casting, facets,
schema parsing and validation."""

import math
from datetime import date, datetime
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CastError, ValidationError
from repro.qname import QName
from repro.xdm.build import parse_document
from repro.xsd import Schema, cast_value, castable, parse_lexical, validate, xs_type
from repro.xsd import types as T
from repro.xsd.casting import Duration, canonical_lexical
from repro.xsd.facets import MaxInclusive, MinInclusive, Pattern, check_facets


class TestHierarchy:
    def test_primitive_count(self):
        primitives = [t for t in T.builtin_types().values()
                      if t.base is T.ANY_ATOMIC and t is not T.UNTYPED_ATOMIC]
        assert len(primitives) == 19

    def test_integer_derives_from_decimal(self):
        assert T.XS_INTEGER.derives_from(T.XS_DECIMAL)

    def test_byte_tower(self):
        byte = xs_type("byte")
        for ancestor in ("short", "int", "long", "integer", "decimal"):
            assert byte.derives_from(xs_type(ancestor))

    def test_primitive_of_derived(self):
        assert xs_type("byte").primitive is T.XS_DECIMAL
        assert xs_type("NCName").primitive is T.XS_STRING

    def test_untyped_atomic_not_string(self):
        assert not T.UNTYPED_ATOMIC.derives_from(T.XS_STRING)

    def test_user_derived_type(self):
        registry = T.TypeRegistry()
        shoe = registry.derive(QName("ns", "ShoeSize"), T.XS_INTEGER)
        assert shoe.derives_from(T.XS_INTEGER)
        assert registry.lookup(QName("ns", "ShoeSize")) is shoe

    def test_duplicate_derive_rejected(self):
        registry = T.TypeRegistry()
        registry.derive(QName("ns", "X"), T.XS_STRING)
        with pytest.raises(ValueError):
            registry.derive(QName("ns", "X"), T.XS_STRING)

    def test_is_numeric(self):
        assert T.is_numeric(T.XS_INTEGER)
        assert T.is_numeric(T.XS_DOUBLE)
        assert not T.is_numeric(T.XS_STRING)

    def test_type_facts_match_the_derivation_chain(self):
        """The slots computed at construction say what walking the
        chain says, for every built-in and for schema-derived types."""
        registry = T.TypeRegistry()
        shoe = registry.derive(QName("ns", "Shoe"), xs_type("short"),
                               [MinInclusive(1)])
        wide = registry.derive(QName("ns", "Wide"), shoe, [MaxInclusive(60)])
        uri = registry.derive(QName("ns", "Uri"), T.XS_ANYURI)
        for t in list(T.builtin_types().values()) + [shoe, wide, uri]:
            chain = list(t.ancestry())
            numeric = [p for p in (T.XS_DECIMAL, T.XS_FLOAT, T.XS_DOUBLE)
                       if p in chain]
            assert T.is_numeric(t) == bool(numeric), t
            if numeric:
                assert t.numeric_rank == \
                    (T.XS_DECIMAL, T.XS_FLOAT, T.XS_DOUBLE).index(numeric[0])
            assert t.is_integer == (T.XS_INTEGER in chain), t
            assert t.string_like == (T.XS_STRING in chain
                                     or T.XS_ANYURI in chain
                                     or t is T.UNTYPED_ATOMIC), t
            assert t.facet_chain == tuple(f for a in chain for f in a.facets)
            assert t.primitive in chain and t.primitive.primitive is t.primitive
        assert wide.facet_chain == (MaxInclusive(60), MinInclusive(1))
        assert wide.primitive is T.XS_DECIMAL and wide.is_integer


class TestLexicalParsing:
    @pytest.mark.parametrize("type_name,lexical,expected", [
        ("integer", "42", 42),
        ("integer", "-7", -7),
        ("decimal", "1.50", Decimal("1.50")),
        ("double", "1.5e2", 150.0),
        ("double", "INF", math.inf),
        ("boolean", "true", True),
        ("boolean", "0", False),
        ("string", "hello", "hello"),
        ("date", "2004-09-14", date(2004, 9, 14)),
        ("hexBinary", "DEADBEEF", bytes.fromhex("deadbeef")),
        ("base64Binary", "aGk=", b"hi"),
        ("anyURI", " http://x ", "http://x"),
        ("byte", "127", 127),
        ("unsignedByte", "255", 255),
    ])
    def test_valid(self, type_name, lexical, expected):
        assert parse_lexical(xs_type(type_name), lexical) == expected

    def test_nan(self):
        assert math.isnan(parse_lexical(T.XS_DOUBLE, "NaN"))

    @pytest.mark.parametrize("type_name,lexical", [
        ("integer", "4.5"),
        ("integer", "abc"),
        ("boolean", "yes"),
        ("date", "2004-13-01"),
        ("date", "not a date"),
        ("byte", "128"),
        ("unsignedInt", "-1"),
        ("hexBinary", "XYZ"),
        ("duration", "P"),
    ])
    def test_invalid(self, type_name, lexical):
        with pytest.raises(CastError):
            parse_lexical(xs_type(type_name), lexical)

    @pytest.mark.parametrize("lexical,expected", [
        ("12", 12.0), ("-1.5", -1.5), ("+.5", 0.5), ("3.", 3.0),
        ("1e3", 1000.0), ("1.5E-2", 0.015), (" \t1e3\r\n", 1000.0),
        ("INF", math.inf), ("-INF", -math.inf), ("-0", -0.0),
    ])
    def test_double_lexical_space(self, lexical, expected):
        for target in (T.XS_DOUBLE, T.XS_FLOAT):
            value = parse_lexical(target, lexical)
            assert value == expected
            assert math.copysign(1, value) == math.copysign(1, expected)
            assert cast_value(lexical, T.UNTYPED_ATOMIC, target) == expected

    @pytest.mark.parametrize("lexical", [
        # what Python's float() takes and XML Schema 1.0 does not
        "1_0", "inf", "-inf", "Infinity", "nan", "NAN", "+INF", "infinity",
        "1e", "e3", ".", "", " ", "1 0", "0x10", "1d3", "\u0661\u0662",
        "1\u00a0",
    ])
    def test_double_rejects_python_float_lexicals(self, lexical):
        for target in (T.XS_DOUBLE, T.XS_FLOAT):
            with pytest.raises(CastError) as info:
                parse_lexical(target, lexical)
            assert info.value.code == "FORG0001"
            for source in (T.UNTYPED_ATOMIC, T.XS_STRING):
                assert not castable(lexical, source, target)
                with pytest.raises(CastError):
                    cast_value(lexical, source, target)

    def test_every_primitive_has_a_parser_or_none(self):
        # the table dispatch: abstract roots have no lexical space
        for abstract in (T.ANY_ATOMIC, T.ANY_SIMPLE_TYPE, T.ANY_TYPE):
            with pytest.raises(CastError):
                parse_lexical(abstract, "x")
        for name in ("gYear", "gYearMonth", "gMonthDay", "gDay", "gMonth"):
            with pytest.raises(CastError):
                parse_lexical(xs_type(name), "x")
        assert parse_lexical(xs_type("NOTATION"), "p:n") == QName("", "n", "p")
        assert parse_lexical(T.UNTYPED_ATOMIC, " as is ") == " as is "

    def test_datetime_with_timezone(self):
        value = parse_lexical(T.XS_DATETIME, "2004-09-14T12:30:00Z")
        assert value.tzinfo is not None
        assert value.hour == 12

    def test_duration_components(self):
        d = parse_lexical(xs_type("duration"), "P1Y2M3DT4H5M6S")
        assert d.months == 14
        assert d.seconds == 3 * 86400 + 4 * 3600 + 5 * 60 + 6

    def test_negative_duration(self):
        d = parse_lexical(xs_type("duration"), "-P1M")
        assert d.months == -1

    def test_year_month_duration_rejects_time(self):
        with pytest.raises(CastError):
            parse_lexical(T.YEAR_MONTH_DURATION, "P1Y2D")

    def test_gyear(self):
        assert parse_lexical(xs_type("gYear"), "1967") == "1967"


class TestCasting:
    def test_integer_to_string(self):
        assert cast_value(42, T.XS_INTEGER, T.XS_STRING) == "42"

    def test_string_to_integer(self):
        assert cast_value("42", T.XS_STRING, T.XS_INTEGER) == 42

    def test_untyped_to_double(self):
        assert cast_value("1.5", T.UNTYPED_ATOMIC, T.XS_DOUBLE) == 1.5

    def test_decimal_to_integer_truncates(self):
        assert cast_value(Decimal("3.9"), T.XS_DECIMAL, T.XS_INTEGER) == 3

    def test_double_to_decimal(self):
        assert cast_value(1.5, T.XS_DOUBLE, T.XS_DECIMAL) == Decimal("1.5")

    def test_nan_to_integer_fails(self):
        with pytest.raises(CastError):
            cast_value(math.nan, T.XS_DOUBLE, T.XS_INTEGER)

    def test_boolean_casts(self):
        assert cast_value(0, T.XS_INTEGER, T.XS_BOOLEAN) is False
        assert cast_value(True, T.XS_BOOLEAN, T.XS_INTEGER) == 1

    def test_datetime_to_date(self):
        dt = datetime(2004, 9, 14, 10, 0)
        assert cast_value(dt, T.XS_DATETIME, T.XS_DATE) == date(2004, 9, 14)

    def test_out_of_range_derived(self):
        with pytest.raises(CastError):
            cast_value(300, T.XS_INTEGER, xs_type("byte"))

    def test_no_cast_between_unrelated(self):
        with pytest.raises(CastError):
            cast_value(True, T.XS_BOOLEAN, T.XS_DATE)

    def test_castable_predicate(self):
        assert castable("5", T.XS_STRING, T.XS_INTEGER)
        assert not castable("x", T.XS_STRING, T.XS_INTEGER)

    def test_cast_to_abstract_fails(self):
        with pytest.raises(CastError):
            cast_value(1, T.XS_INTEGER, T.ANY_ATOMIC)

    @given(st.integers(min_value=-10**12, max_value=10**12))
    def test_integer_string_roundtrip(self, n):
        text = cast_value(n, T.XS_INTEGER, T.XS_STRING)
        assert cast_value(text, T.XS_STRING, T.XS_INTEGER) == n

    @given(st.decimals(allow_nan=False, allow_infinity=False,
                       min_value=Decimal("-1e10"), max_value=Decimal("1e10")))
    @settings(max_examples=50)
    def test_decimal_string_roundtrip(self, d):
        text = canonical_lexical(d, T.XS_DECIMAL)
        assert cast_value(text, T.XS_STRING, T.XS_DECIMAL) == d

    @given(st.booleans(),
           st.integers(min_value=0, max_value=1000),
           st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=50)
    def test_duration_lexical_roundtrip(self, negative, months, seconds):
        # XSD durations carry one sign for both components; mixed signs
        # (possible from arithmetic) have no lexical form
        sign = -1 if negative else 1
        d = Duration(sign * months, float(sign * seconds))
        back = parse_lexical(xs_type("duration"), d.lexical())
        assert back.months == d.months
        assert back.seconds == pytest.approx(d.seconds)


class TestFacets:
    def test_min_max(self):
        registry = T.TypeRegistry()
        shoe = registry.derive(QName("ns", "Size"), T.XS_INTEGER,
                               [MinInclusive(1), MaxInclusive(20)])
        assert cast_value(8, T.XS_INTEGER, shoe) == 8
        with pytest.raises(CastError):
            cast_value(21, T.XS_INTEGER, shoe)
        with pytest.raises(CastError):
            cast_value(0, T.XS_INTEGER, shoe)

    def test_pattern(self):
        registry = T.TypeRegistry()
        code = registry.derive(QName("ns", "Code"), T.XS_STRING,
                               [Pattern(r"[A-Z]{3}-\d+")])
        assert cast_value("ABC-42", T.XS_STRING, code) == "ABC-42"
        with pytest.raises(CastError):
            cast_value("nope", T.XS_STRING, code)

    def test_facets_checked_along_chain(self):
        registry = T.TypeRegistry()
        base = registry.derive(QName("ns", "Base"), T.XS_INTEGER, [MinInclusive(0)])
        narrow = registry.derive(QName("ns", "Narrow"), base, [MaxInclusive(10)])
        check_facets(narrow, 5)
        with pytest.raises(CastError):
            check_facets(narrow, -1)
        with pytest.raises(CastError):
            check_facets(narrow, 11)


BOOK_SCHEMA = """<schema>
  <type name="book-type">
    <sequence>
      <attribute name="year" type="xs:integer" use="required"/>
      <element name="title" type="xs:string"/>
      <sequence minoccurs="0" maxoccurs="unbounded">
        <element name="author" type="xs:string"/>
      </sequence>
    </sequence>
  </type>
  <element name="book" type="book-type"/>
</schema>"""


class TestSchemaValidation:
    @pytest.fixture()
    def schema(self):
        return Schema.from_text(BOOK_SCHEMA)

    def test_valid_document_annotated(self, schema):
        doc = parse_document(
            '<book year="1967"><title>T</title><author>A</author></book>')
        validate(doc, schema)
        el = doc.document_element()
        # the tutorial: after validation typed-value(year) = (1967, xs:integer)
        assert el.attributes[0].typed_value()[0].value == 1967
        assert el.attributes[0].typed_value()[0].type is T.XS_INTEGER
        assert el.children[0].typed_value()[0].type is T.XS_STRING

    def test_repeated_authors_allowed(self, schema):
        doc = parse_document(
            '<book year="1"><title>T</title><author>A</author>'
            "<author>B</author><author>C</author></book>")
        validate(doc, schema)

    def test_zero_authors_allowed(self, schema):
        validate(parse_document('<book year="1"><title>T</title></book>'), schema)

    def test_missing_title_rejected(self, schema):
        with pytest.raises(ValidationError):
            validate(parse_document('<book year="1"><author>A</author></book>'), schema)

    def test_wrong_order_rejected(self, schema):
        with pytest.raises(ValidationError):
            validate(parse_document(
                '<book year="1"><author>A</author><title>T</title></book>'), schema)

    def test_missing_required_attribute(self, schema):
        with pytest.raises(ValidationError):
            validate(parse_document("<book><title>T</title></book>"), schema)

    def test_bad_attribute_type(self, schema):
        with pytest.raises((ValidationError, CastError)):
            validate(parse_document(
                '<book year="sixty-seven"><title>T</title></book>'), schema)

    def test_undeclared_element_rejected(self, schema):
        with pytest.raises(ValidationError):
            validate(parse_document("<magazine/>"), schema)

    def test_undeclared_attribute_rejected(self, schema):
        with pytest.raises(ValidationError):
            validate(parse_document(
                '<book year="1" extra="x"><title>T</title></book>'), schema)

    def test_text_in_element_only_content_rejected(self, schema):
        with pytest.raises(ValidationError):
            validate(parse_document(
                '<book year="1">stray<title>T</title></book>'), schema)

    def test_choice_model(self):
        schema = Schema.from_text("""<schema>
          <type name="t"><choice>
            <element name="a" type="xs:string"/>
            <element name="b" type="xs:integer"/>
          </choice></type>
          <element name="r" type="t"/>
        </schema>""")
        validate(parse_document("<r><a>x</a></r>"), schema)
        validate(parse_document("<r><b>4</b></r>"), schema)
        with pytest.raises(ValidationError):
            validate(parse_document("<r><a>x</a><b>4</b></r>"), schema)

    def test_xsi_type_without_schema(self):
        doc = parse_document(
            '<a xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance" '
            'xsi:type="xs:integer">3</a>')
        validate(doc)
        assert doc.document_element().typed_value()[0].value == 3

    def test_simple_type_derivation_in_schema(self):
        schema = Schema.from_text("""<schema>
          <simple name="shoe" base="xs:integer" min="1" max="20"/>
          <element name="size" type="shoe"/>
        </schema>""")
        validate(parse_document("<size>8</size>"), schema)
        with pytest.raises((ValidationError, CastError)):
            validate(parse_document("<size>99</size>"), schema)
