"""Direct unit tests for the runtime semantics modules
(compare / arithmetic / ebv / sequencetype), independent of the parser."""

import math
from datetime import date, datetime, time
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler.sequencetype import (
    SequenceType,
    occurrence_union,
    resolve_sequence_type,
)
from repro.errors import ArithmeticError_, CastError, TypeError_
from repro.qname import QName
from repro.runtime.arithmetic import arithmetic, negate, unary_plus
from repro.runtime.compare import (
    _general_cascade,
    _general_pair,
    _value_cascade,
    compare_lane,
    general_compare,
    node_compare,
    value_compare,
)
from repro.runtime.ebv import effective_boolean_value
from repro.xdm.items import AtomicValue, boolean, decimal, double, integer, string, untyped_atomic
from repro.xdm.nodes import ElementNode
from repro.xquery.ast import SequenceTypeAST
from repro.xsd import types as T
from repro.xsd.casting import Duration, cast_value
from repro.xsd.facets import MaxInclusive, MinInclusive


class TestValueCompare:
    def test_numeric_cross_type(self):
        assert value_compare("eq", integer(1), decimal("1.0"))
        assert value_compare("lt", integer(1), double(1.5))
        assert value_compare("gt", decimal("2.5"), integer(2))

    def test_string_collation_is_codepoint(self):
        assert value_compare("lt", string("A"), string("a"))

    def test_untyped_is_string(self):
        assert value_compare("eq", untyped_atomic("42"), string("42"))
        with pytest.raises(TypeError_):
            value_compare("eq", untyped_atomic("42"), integer(42))

    def test_booleans(self):
        assert value_compare("lt", boolean(False), boolean(True))

    def test_dates(self):
        a = AtomicValue(date(2004, 1, 1), T.XS_DATE)
        b = AtomicValue(date(2004, 6, 1), T.XS_DATE)
        assert value_compare("lt", a, b)

    def test_duration_equality(self):
        a = AtomicValue(Duration(12, 0), T.XS_DURATION)
        b = AtomicValue(Duration(12, 0), T.XS_DURATION)
        assert value_compare("eq", a, b)

    def test_general_duration_ordering_rejected(self):
        a = AtomicValue(Duration(12, 0), T.XS_DURATION)
        b = AtomicValue(Duration(0, 100), T.XS_DURATION)
        with pytest.raises(TypeError_):
            value_compare("lt", a, b)

    def test_subtype_durations_ordered(self):
        a = AtomicValue(Duration(12, 0), T.YEAR_MONTH_DURATION)
        b = AtomicValue(Duration(24, 0), T.YEAR_MONTH_DURATION)
        assert value_compare("lt", a, b)

    def test_qname_eq_only(self):
        a = AtomicValue(QName("u", "x"), T.XS_QNAME)
        b = AtomicValue(QName("u", "x", "pfx"), T.XS_QNAME)
        assert value_compare("eq", a, b)  # prefix-insensitive
        with pytest.raises(TypeError_):
            value_compare("lt", a, b)

    def test_nan_semantics(self):
        nan = double(math.nan)
        assert not value_compare("eq", nan, nan)
        assert value_compare("ne", nan, nan)
        assert not value_compare("lt", nan, double(1.0))

    @given(st.integers(-10**9, 10**9), st.integers(-10**9, 10**9))
    def test_integer_ordering_total(self, a, b):
        ia, ib = integer(a), integer(b)
        assert value_compare("lt", ia, ib) == (a < b)
        assert value_compare("eq", ia, ib) == (a == b)


class TestGeneralCompare:
    def test_existential_lazy_left(self):
        def left():
            yield untyped_atomic("1")
            raise AssertionError("should not pull past the witness")

        assert general_compare("=", left(), [integer(1)])

    def test_empty_right_false(self):
        assert not general_compare("=", [integer(1)], [])

    def test_coercion_untyped_to_numeric(self):
        assert general_compare("<", [untyped_atomic("5")], [integer(7)])

    def test_coercion_untyped_to_date(self):
        target = AtomicValue(date(2004, 1, 1), T.XS_DATE)
        assert general_compare("=", [untyped_atomic("2004-01-01")], [target])

    def test_all_ops(self):
        assert general_compare("!=", [integer(1)], [integer(2)])
        assert general_compare("<=", [integer(2)], [integer(2)])
        assert general_compare(">=", [integer(3)], [integer(2)])
        assert general_compare(">", [integer(3)], [integer(2)])

    @pytest.mark.parametrize("lexical,smaller,typed,target", [
        ("P1D", True, Duration(0, 2 * 86400), T.DAY_TIME_DURATION),
        ("P3D", False, Duration(0, 2 * 86400), T.DAY_TIME_DURATION),
        ("P1Y", True, Duration(24, 0), T.YEAR_MONTH_DURATION),
        ("P2Y1M", False, Duration(24, 0), T.YEAR_MONTH_DURATION),
        ("2004-01-01", True, date(2004, 2, 1), T.XS_DATE),
        ("false", True, True, T.XS_BOOLEAN),
    ])
    def test_untyped_is_cast_to_the_other_operands_type(
            self, lexical, smaller, typed, target):
        """... not to its primitive: the xdt durations are ordered,
        xs:duration is not (this raised XPTY0004 for ``<`` while ``=``
        answered)."""
        untyped, other = [untyped_atomic(lexical)], [AtomicValue(typed, target)]
        assert general_compare("<", untyped, other) is smaller
        assert general_compare(">", other, untyped) is smaller
        assert general_compare(">=", untyped, other) is not smaller
        assert general_compare("!=", untyped, other)

    def test_untyped_against_a_subtype_keeps_its_lexical_space(self):
        # P1Y2D is an xs:duration but no yearMonthDuration: FORG0001
        other = [AtomicValue(Duration(24, 0), T.YEAR_MONTH_DURATION)]
        with pytest.raises(CastError):
            general_compare("=", [untyped_atomic("P1Y2D")], other)
        # plain xs:duration still answers = and refuses <
        plain = [AtomicValue(Duration(12, 0), T.XS_DURATION)]
        assert general_compare("=", [untyped_atomic("P1Y")], plain)
        with pytest.raises(TypeError_):
            general_compare("<", [untyped_atomic("P1Y")], plain)

    def test_untyped_against_any_anyuri_is_cast_to_string(self):
        # "an instance of xs:string or xs:anyURI": derived types too
        uri = T.TypeRegistry().derive(QName("ns", "Uri"), T.XS_ANYURI)
        for uri_type in (T.XS_ANYURI, uri):
            other = [AtomicValue(" x ", uri_type)]
            assert general_compare("=", [untyped_atomic(" x ")], other)
            assert not general_compare("=", [untyped_atomic("x")], other)


# -- the comparison lanes against the cascades they front -------------------

_SHOE = T.TypeRegistry().derive(
    QName("ns", "ShoeSize"), T.XS_INTEGER, [MinInclusive(1), MaxInclusive(60)])

_INTEGERS = st.one_of(
    st.integers(-3, 3),
    st.sampled_from([2 ** 53 - 1, 2 ** 53, 2 ** 53 + 1, -(2 ** 53) - 1,
                     10 ** 400]))
_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 2.0 ** 53,
                     2.0 ** 53 + 2, 1.5, -1.5, 0.1]),
    st.floats(allow_nan=True, allow_infinity=True, width=64))
_TEXT = st.sampled_from(["", "a", "A", "b", "1", "10", "9", " 1 ", "http://x"])
_DURATIONS = st.builds(Duration, st.integers(-2, 2),
                       st.sampled_from([0.0, 1.0, -1.0, 86400.0]))

#: the built-in lattice: 19 primitives, the string and integer towers,
#: xdt:untypedAtomic, both xdt durations, one schema type with facets
_VALUES = {name: strategy for names, strategy in [
    (("string", "normalizedString", "token", "language", "NMTOKEN", "Name",
      "NCName", "ID", "IDREF", "ENTITY", "anyURI"), _TEXT),
    (("boolean",), st.booleans()),
    (("decimal",), st.one_of(
        _INTEGERS.filter(lambda i: abs(i) < 10 ** 30).map(Decimal),
        st.sampled_from([Decimal("0.1"), Decimal("1.5"), Decimal("-0.0"),
                         Decimal("9007199254740993")]))),
    (("integer", "nonPositiveInteger", "negativeInteger", "long", "int",
      "short", "byte", "nonNegativeInteger", "unsignedLong", "unsignedInt",
      "unsignedShort", "unsignedByte", "positiveInteger"), _INTEGERS),
    (("float", "double"), _FLOATS),
    (("duration",), _DURATIONS),
    (("yearMonthDuration",),
     st.builds(Duration, st.integers(-2, 2), st.just(0.0))),
    (("dayTimeDuration",),
     st.builds(Duration, st.just(0), st.sampled_from([0.0, 1.0, 86400.0]))),
    (("dateTime",), st.sampled_from([datetime(2004, 1, 1),
                                     datetime(2004, 1, 1, 12)])),
    (("time",), st.sampled_from([time(1, 0), time(12, 30)])),
    (("date",), st.sampled_from([date(2004, 1, 1), date(2004, 6, 1)])),
    (("gYearMonth", "gYear", "gMonthDay", "gDay", "gMonth"),
     st.sampled_from(["2004", "2004-01", "--01-02", "---02", "--01"])),
    (("hexBinary", "base64Binary"), st.binary(max_size=2)),
    (("QName", "NOTATION"),
     st.sampled_from([QName("", "a"), QName("u", "a"), QName("u", "b")])),
    (("untypedAtomic",), st.sampled_from([
        "1", "1.5", " 2 ", "-0", "1e400", "INF", "NaN", "9007199254740993",
        "", "a", "A", "true", "2004-01-01", "12:30:00", "P1D", "P1Y", "P1Y2D",
        "1_0", "inf", "DEAD", "--01"])),
] for name in names}

_LATTICE = [T.xs_type(name) for name in _VALUES] + [_SHOE]


def _atoms_of(atype):
    if atype is _SHOE:
        return st.integers(1, 60).map(lambda v: AtomicValue(v, _SHOE))
    return _VALUES[atype.name.local].map(lambda v: AtomicValue(v, atype))


#: any type, with extra weight on the pairs the lanes decide
_ATOMS = st.one_of(
    st.sampled_from(_LATTICE).flatmap(_atoms_of),
    st.sampled_from([T.UNTYPED_ATOMIC, T.XS_DOUBLE, T.XS_FLOAT, T.XS_INTEGER,
                     T.XS_DECIMAL, T.XS_STRING]).flatmap(_atoms_of))
_VALUE_OPS = ("eq", "ne", "lt", "le", "gt", "ge")


def _outcome_of(fn, *args):
    try:
        return ("ok", fn(*args))
    except Exception as exc:  # noqa: BLE001 - compared structurally
        return ("err", type(exc), getattr(exc, "code", None), str(exc))


class TestLanesAgainstCascades:
    """The lanes are an optimisation of the cascades, never a second
    opinion: same boolean, or same exception class, code and message."""

    def test_lattice_is_the_whole_lattice(self):
        builtin = {t for t in T.builtin_types().values()
                   if t.derives_from(T.ANY_ATOMIC) and t is not T.ANY_ATOMIC}
        assert set(_LATTICE) == builtin | {_SHOE}
        assert sum(1 for t in builtin if t.primitive is t) == 19 + 1

    @pytest.mark.parametrize("type_a", _LATTICE, ids=str)
    @given(data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_pairwise(self, type_a, data):
        a = data.draw(_atoms_of(type_a))
        b = data.draw(_ATOMS)
        for op in _VALUE_OPS:
            for x, y in ((a, b), (b, a)):
                assert _outcome_of(value_compare, op, x, y) \
                    == _outcome_of(_value_cascade, op, x, y), (op, x, y)
                reference = _outcome_of(_general_cascade, op, x, y)
                assert _outcome_of(_general_pair, op, x, y) == reference, \
                    (op, x, y)
                # ... and bound as an invariant right operand
                assert _outcome_of(compare_lane(op, None, [y]), x) \
                    == reference, (op, x, y)

    def test_numeric_corners_exhaustively(self):
        """NaN, ±0, ±INF, integers beyond 2^53 against doubles,
        decimals against floats, untyped lexicals of each — every pair,
        every operator, all three lane-fronted entry points."""
        big = 2 ** 53
        corners = [integer(v) for v in (0, big - 1, big, big + 1, -big - 1,
                                        10 ** 400)]
        corners += [double(v) for v in (0.0, -0.0, math.nan, math.inf,
                                        -math.inf, float(big), float(big + 2),
                                        0.1)]
        corners += [AtomicValue(0.1, T.XS_FLOAT), AtomicValue(math.nan, T.XS_FLOAT),
                    decimal("0.1"), decimal(big + 1), decimal("-0.0")]
        corners += [untyped_atomic(v) for v in (
            "0", "-0", "0.1", str(big + 1), "NaN", "INF", "-INF", "1e400",
            "x")]
        for a in corners:
            for b in corners:
                for op in _VALUE_OPS:
                    assert _outcome_of(value_compare, op, a, b) \
                        == _outcome_of(_value_cascade, op, a, b), (op, a, b)
                    reference = _outcome_of(_general_cascade, op, a, b)
                    assert _outcome_of(_general_pair, op, a, b) == reference, \
                        (op, a, b)
                    assert _outcome_of(compare_lane(op, None, [b]), a) \
                        == reference, (op, a, b)

    @given(a=_ATOMS, rhs=st.lists(_ATOMS, max_size=2),
           target=st.sampled_from([None, T.XS_DOUBLE, T.XS_FLOAT,
                                   T.XS_DECIMAL, T.XS_INTEGER, T.XS_STRING,
                                   _SHOE]))
    @settings(max_examples=1500, deadline=None)
    def test_bound_lane(self, a, rhs, target):
        """``compare_lane`` = cast, then the cascade per right item."""
        def reference(op):
            left = a if target is None else AtomicValue(
                cast_value(a.value, a.type, target), target)
            return any(_general_cascade(op, left, b) for b in rhs)

        for op in _VALUE_OPS:
            lane = compare_lane(op, target, rhs)
            if not rhs:
                assert lane is None
                continue
            assert _outcome_of(lane, a) == _outcome_of(reference, op), \
                (op, target, a, rhs)


class TestNodeCompare:
    def test_identity(self):
        a = ElementNode(QName("", "x"))
        assert node_compare("is", a, a) is True
        assert node_compare("isnot", a, ElementNode(QName("", "x"))) is True

    def test_empty_propagates(self):
        assert node_compare("is", None, ElementNode(QName("", "x"))) is None

    def test_non_node_rejected(self):
        with pytest.raises(TypeError_):
            node_compare("is", integer(1), integer(1))


class TestArithmeticUnit:
    def test_integer_ops(self):
        assert arithmetic("+", integer(2), integer(3)).value == 5
        assert arithmetic("*", integer(2), integer(3)).value == 6
        assert arithmetic("-", integer(2), integer(3)).value == -1

    def test_div_always_decimal_for_integers(self):
        result = arithmetic("div", integer(1), integer(2))
        assert result.type is T.XS_DECIMAL
        assert result.value == Decimal("0.5")

    def test_result_type_promotion(self):
        assert arithmetic("+", integer(1), double(1.0)).type is T.XS_DOUBLE
        assert arithmetic("+", integer(1), decimal("1.0")).type is T.XS_DECIMAL
        assert arithmetic("+", decimal("1"),
                          AtomicValue(1.0, T.XS_FLOAT)).type is T.XS_FLOAT

    def test_empty_operand(self):
        assert arithmetic("+", None, integer(1)) is None

    def test_untyped_operand_to_double(self):
        result = arithmetic("+", untyped_atomic("4"), integer(1))
        assert result.type is T.XS_DOUBLE
        assert result.value == 5.0

    def test_division_by_zero_decimal(self):
        with pytest.raises(ArithmeticError_):
            arithmetic("div", integer(1), integer(0))

    def test_division_by_zero_double(self):
        assert math.isinf(arithmetic("div", double(1.0), double(0.0)).value)
        assert math.isnan(arithmetic("div", double(0.0), double(0.0)).value)

    def test_mod_zero_double_nan(self):
        assert math.isnan(arithmetic("mod", double(1.0), double(0.0)).value)

    def test_date_plus_duration(self):
        d = AtomicValue(date(2004, 1, 31), T.XS_DATE)
        month = AtomicValue(Duration(1, 0), T.XS_DURATION)
        assert arithmetic("+", d, month).value == date(2004, 2, 29)

    def test_date_minus_date(self):
        a = AtomicValue(date(2004, 3, 1), T.XS_DATE)
        b = AtomicValue(date(2004, 2, 28), T.XS_DATE)
        result = arithmetic("-", a, b)
        assert result.type is T.DAY_TIME_DURATION
        assert result.value.seconds == 2 * 86400

    def test_duration_scaling(self):
        d = AtomicValue(Duration(0, 3600), T.DAY_TIME_DURATION)
        assert arithmetic("*", d, integer(2)).value.seconds == 7200
        assert arithmetic("div", d, integer(2)).value.seconds == 1800

    def test_duration_sum(self):
        a = AtomicValue(Duration(1, 0), T.YEAR_MONTH_DURATION)
        b = AtomicValue(Duration(2, 0), T.YEAR_MONTH_DURATION)
        assert arithmetic("+", a, b).value.months == 3

    def test_incompatible_types(self):
        with pytest.raises(TypeError_):
            arithmetic("+", boolean(True), integer(1))

    def test_negate(self):
        assert negate(integer(5)).value == -5
        assert negate(decimal("1.5")).value == Decimal("-1.5")
        assert negate(None) is None
        with pytest.raises(TypeError_):
            negate(string("x"))

    def test_unary_plus_checks_type(self):
        assert unary_plus(integer(5)).value == 5
        with pytest.raises(TypeError_):
            unary_plus(boolean(True))

    @given(st.integers(-10**6, 10**6), st.integers(1, 10**6))
    @settings(max_examples=60)
    def test_idiv_mod_identity(self, a, b):
        # a eq b*(a idiv b) + (a mod b) — the spec's defining identity
        q = arithmetic("idiv", integer(a), integer(b)).value
        r = arithmetic("mod", integer(a), integer(b)).value
        assert a == b * q + r

    @given(st.decimals(allow_nan=False, allow_infinity=False,
                       min_value=-10**6, max_value=10**6),
           st.decimals(allow_nan=False, allow_infinity=False,
                       min_value=-10**6, max_value=10**6))
    @settings(max_examples=60)
    def test_decimal_addition_commutes(self, x, y):
        a, b = decimal(x), decimal(y)
        assert arithmetic("+", a, b) == arithmetic("+", b, a)


class TestEBV:
    def test_empty_false(self):
        assert effective_boolean_value([]) is False

    def test_first_node_true_lazily(self):
        def items():
            yield ElementNode(QName("", "a"))
            raise AssertionError("EBV must not pull past a first node")

        assert effective_boolean_value(items()) is True

    def test_singleton_rules(self):
        assert effective_boolean_value([boolean(True)]) is True
        assert effective_boolean_value([boolean(False)]) is False
        assert effective_boolean_value([string("")]) is False
        assert effective_boolean_value([string("x")]) is True
        assert effective_boolean_value([untyped_atomic("")]) is False
        assert effective_boolean_value([integer(0)]) is False
        assert effective_boolean_value([integer(7)]) is True
        assert effective_boolean_value([double(math.nan)]) is False

    def test_multi_atomic_errors(self):
        with pytest.raises(TypeError_):
            effective_boolean_value([integer(1), integer(2)])

    def test_date_has_no_ebv(self):
        with pytest.raises(TypeError_):
            effective_boolean_value([AtomicValue(date(2004, 1, 1), T.XS_DATE)])


class TestSequenceTypes:
    def _st(self, kind, occurrence="", type_name=None):
        return resolve_sequence_type(
            SequenceTypeAST(kind, type_name=type_name, occurrence=occurrence))

    def test_occurrence_matching(self):
        from repro.qname import xs

        st1 = self._st("atomic", "", xs("integer"))
        assert st1.matches([integer(1)])
        assert not st1.matches([])
        assert not st1.matches([integer(1), integer(2)])
        st_star = self._st("atomic", "*", xs("integer"))
        assert st_star.matches([])
        assert st_star.matches([integer(1), integer(2)])
        st_plus = self._st("atomic", "+", xs("integer"))
        assert not st_plus.matches([])
        st_opt = self._st("atomic", "?", xs("integer"))
        assert st_opt.matches([])
        assert not st_opt.matches([integer(1), integer(2)])

    def test_derived_type_matches_base(self):
        from repro.qname import xs

        st_decimal = self._st("atomic", "", xs("decimal"))
        assert st_decimal.matches([integer(1)])  # integer ⊆ decimal

    def test_untyped_does_not_match_string(self):
        from repro.qname import xs

        st_string = self._st("atomic", "", xs("string"))
        assert not st_string.matches([untyped_atomic("x")])

    def test_node_kind_tests(self):
        el = ElementNode(QName("", "book"))
        assert self._st("element").matches([el])
        assert self._st("node").matches([el])
        assert not self._st("attribute").matches([el])
        assert not self._st("element").matches([integer(1)])

    def test_named_element_test(self):
        el = ElementNode(QName("u", "book"))
        named = SequenceType("element", "", name=QName("u", "book"))
        assert named.matches_item(el)
        other = SequenceType("element", "", name=QName("u", "magazine"))
        assert not other.matches_item(el)
        wildcard = SequenceType("element", "", name=QName("*", "book"))
        assert wildcard.matches_item(el)

    def test_empty_type(self):
        empty = self._st("empty")
        assert empty.matches([])
        assert not empty.matches([integer(1)])

    def test_occurrence_union(self):
        assert occurrence_union("", "?") == "?"
        assert occurrence_union("0", "") == "?"
        assert occurrence_union("+", "*") == "*"
        assert occurrence_union("", "") == ""
