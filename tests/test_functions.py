"""The built-in function library."""

import math
from decimal import Decimal

import pytest

from repro.errors import DynamicError


def _run(executor, query):
    """``query``'s atomized values on the product or on the oracle."""
    from repro import Engine
    from repro.compiler.reference import ReferenceEngine

    engine = {"Engine": Engine, "ReferenceEngine": ReferenceEngine}[executor]()
    return engine.compile(query).execute().values()


class TestBooleans:
    def test_true_false(self, values):
        assert values("(fn:true(), fn:false())") == [True, False]

    def test_not(self, values):
        assert values("fn:not(())") == [True]

    def test_boolean(self, values):
        assert values("fn:boolean((1))") == [True]

    def test_empty_exists(self, values):
        assert values("(empty(()), empty((1)), exists(()), exists((1)))") == \
            [True, False, False, True]


class TestNumeric:
    def test_count(self, values):
        assert values("count((1, 2, 3))") == [3]
        assert values("count(())") == [0]

    def test_sum(self, values):
        assert values("sum((1, 2, 3))") == [6]
        assert values("sum(())") == [0]

    def test_sum_with_zero_default(self, values):
        assert values("sum((), 99)") == [99]

    def test_avg(self, values):
        assert values("avg((1, 2, 3))") == [2]
        assert values("avg(())") == []

    def test_min_max(self, values):
        assert values("(min((3, 1, 2)), max((3, 1, 2)))") == [1, 3]

    def test_abs(self, values):
        assert values("abs(-5)") == [5]

    def test_floor_ceiling(self, values):
        assert values("(floor(1.7), ceiling(1.2))") == [Decimal(1), Decimal(2)]

    def test_round(self, values):
        assert values("(round(2.5), round(-2.5), round(1.4))") == \
            [Decimal(3), Decimal(-2), Decimal(1)]

    def test_round_half_to_even(self, values):
        assert values("(round-half-to-even(2.5), round-half-to-even(3.5))") == \
            [Decimal(2), Decimal(4)]

    # F&O on xs:double: NaN and the infinities come back as they are,
    # a zero result keeps the argument's sign, and fn:round's tie test
    # is exact (0.49999999999999994 is below the half)
    @pytest.mark.parametrize("query,expected", [
        ('round(xs:double("NaN"))', "NaN"),
        ('floor(xs:double("NaN"))', "NaN"),
        ('ceiling(xs:double("NaN"))', "NaN"),
        ('round-half-to-even(xs:double("NaN"))', "NaN"),
        ('round(xs:double("INF"))', "INF"),
        ('floor(xs:double("INF"))', "INF"),
        ('ceiling(xs:double("-INF"))', "-INF"),
        ('round-half-to-even(xs:double("-INF"))', "-INF"),
        ('floor(xs:float("-INF"))', "-INF"),
        ("round(0.49999999999999994e0)", 0.0),
        ("round(2.5e0)", 3.0),
        ("round(-2.5e0)", -2.0),
        ("round-half-to-even(2.5e0)", 2.0),
        ("round-half-to-even(-1.5e0)", -2.0),
        ("floor(-0.5e0)", -1.0),
        ("ceiling(1.2e0)", 2.0),
    ])
    def test_double_rounding(self, values, query, expected):
        (value,) = values(query)
        if isinstance(expected, str):
            assert str(value) == str(float(expected))
        else:
            assert value == expected

    @pytest.mark.parametrize("query", [
        "round(-0.3e0)", "round(-0.5e0)", "ceiling(-0.5e0)",
        "floor(-0e0)", "round-half-to-even(-0.5e0)"])
    def test_zero_results_keep_the_sign(self, values, query):
        (value,) = values(query)
        assert value == 0 and math.copysign(1.0, value) == -1.0

    # F&O 15.4.3/15.4.4: a NaN anywhere in the sequence is the answer
    @pytest.mark.parametrize("query", [
        f"{fn}({args})" for fn in ("max", "min") for args in (
            '(xs:double("NaN"), 1, 2)', '(1, xs:double("NaN"), 2)',
            '(1, 2, xs:double("NaN"))', '(xs:float("NaN"), 3)',
            '(3, xs:float("NaN"))')])
    @pytest.mark.parametrize("executor", ["Engine", "ReferenceEngine"])
    def test_nan_wins_min_and_max_in_any_position(self, query, executor):
        (value,) = _run(executor, query)
        assert math.isnan(value)

    def test_number_nan_on_garbage(self, values):
        assert math.isnan(values("number('abc')")[0])

    @pytest.mark.parametrize("lexical", ["1_0", "inf", "Infinity", "nan"])
    def test_python_float_lexicals_are_not_doubles(self, values, lexical):
        """``float()`` takes these; xs:double must not (FORG0001 from
        every cast site, NaN / false from the total functions)."""
        assert math.isnan(values(f"number('{lexical}')")[0])
        assert math.isnan(values(f"number(<a>{lexical}</a>)")[0])
        assert values(f"'{lexical}' castable as xs:double") == [False]
        assert values(f"<a>{lexical}</a> castable as xs:float") == [False]
        for query in (f"xs:double('{lexical}')",
                      f"'{lexical}' cast as xs:double",
                      f"xs:float(<a>{lexical}</a>)",
                      f"<a x='{lexical}'/>/@x = 10",
                      f"10 >= <a>{lexical}</a>",
                      f"sum((<a>{lexical}</a>, <a>2</a>))",
                      f"max((<a>1</a>, <a>{lexical}</a>))",
                      f"<a>{lexical}</a> + 1"):
            with pytest.raises(DynamicError) as info:
                values(query)
            assert info.value.code == "FORG0001", query

    def test_schema_double_lexicals_still_cast(self, values):
        assert values("(xs:double(' 1e1 '), xs:double('-INF') lt 0, "
                      "<a>.5</a> = 0.5, number('NaN') ne number('NaN'))") == \
            [10.0, True, True, True]

    def test_number_on_untyped(self, values):
        assert values("number(<a>5</a>)") == [5.0]

    def test_sum_promotes_untyped(self, values):
        assert values("sum((<a>1</a>, <a>2</a>))") == [3.0]


class TestStrings:
    def test_concat(self, values):
        assert values("concat('a', 'b', 'c')") == ["abc"]

    def test_concat_skips_empty(self, values):
        assert values("concat('a', (), 'b')") == ["ab"]

    def test_string_join(self, values):
        assert values("string-join(('a', 'b'), '-')") == ["a-b"]

    def test_string_length(self, values):
        assert values("string-length('hello')") == [5]
        assert values("string-length(())") == [0]

    def test_substring(self, values):
        assert values("substring('12345', 2)") == ["2345"]
        assert values("substring('12345', 2, 3)") == ["234"]

    # F&O's fn:substring examples: positions are fn:round'ed (ties
    # toward positive infinity), and a NaN or -INF + INF bound keeps
    # nothing
    @pytest.mark.parametrize("query,expected", [
        ('substring("motor car", 6)', " car"),
        ('substring("metadata", 4, 3)', "ada"),
        ('substring("12345", 1.5, 2.6)', "234"),
        ('substring("12345", 0, 3)', "12"),
        ('substring("12345", 5, -3)', ""),
        ('substring("12345", -3, 5)', "1"),
        ('substring("12345", 0 div 0E0, 3)', ""),
        ('substring("12345", 1, 0 div 0E0)', ""),
        ('substring((), 1, 3)', ""),
        ('substring("12345", -42, 1 div 0E0)', "12345"),
        ('substring("12345", -1 div 0E0, 1 div 0E0)', ""),
        ('substring("12345", 2.5, 2)', "34"),
        ('substring("12345", -2.5, 5)', "12"),
        ('substring("12345", 1 div 0E0)', ""),
    ])
    def test_substring_spec_examples(self, values, query, expected):
        assert values(query) == [expected]

    @pytest.mark.parametrize("query", [
        'substring("abc", ())',
        'substring("abc", 1, ())',
        "subsequence((1, 2, 3), ())",
        "subsequence((1, 2, 3), 1, ())",
    ])
    @pytest.mark.parametrize("executor", ["Engine", "ReferenceEngine"])
    def test_empty_position_is_a_type_error(self, query, executor):
        """The positions are ``xs:double``, not ``xs:double?``."""
        from repro import Engine
        from repro.compiler.reference import ReferenceEngine
        from repro.errors import TypeError_

        engine = {"Engine": Engine,
                  "ReferenceEngine": ReferenceEngine}[executor]()
        with pytest.raises(TypeError_) as caught:
            engine.compile(query).execute().items()
        assert caught.value.code == "XPTY0004"

    def test_substring_before_after(self, values):
        assert values("substring-before('a=b', '=')") == ["a"]
        assert values("substring-after('a=b', '=')") == ["b"]
        assert values("substring-before('ab', 'x')") == [""]

    def test_contains_starts_ends(self, values):
        assert values("contains('banana', 'nan')") == [True]
        assert values("starts-with('banana', 'ba')") == [True]
        assert values("ends-with('banana', 'na')") == [True]

    def test_case_functions(self, values):
        assert values("(upper-case('aBc'), lower-case('aBc'))") == ["ABC", "abc"]

    def test_normalize_space(self, values):
        assert values("normalize-space('  a   b  ')") == ["a b"]

    def test_translate(self, values):
        assert values("translate('abcabc', 'abc', 'AB')") == ["ABAB"]

    def test_matches(self, values):
        assert values("matches('abc123', '[a-z]+\\d+')") == [True]
        assert values("matches('ABC', 'abc', 'i')") == [True]

    def test_replace(self, values):
        assert values("replace('a1b2', '\\d', 'x')") == ["axbx"]
        assert values("replace('john doe', '(\\w+) (\\w+)', '$2 $1')") == ["doe john"]

    # F&O 7.6.3: $0 is the whole match, $N a group (empty when past
    # the groups), \\$ and \\\\ are literals, any other $ or \\ is
    # FORX0004
    @pytest.mark.parametrize("query,expected", [
        ('replace("abc", "b", "$0$0")', "abbc"),
        ('replace("abracadabra", "a(.)", "a$1$1")', "abbraccaddabbra"),
        ('replace("darted", "^(.*?)d(.*)$", "$1c$2")', "carted"),
        ('replace("abracadabra", "bra", "*")', "a*cada*"),
        ('replace("abracadabra", "a.*?a", "*")', "*c*bra"),
        ('replace("abracadabra", "a", "")', "brcdbr"),
        ('replace("AAAA", "A+?", "b")', "bbbb"),
        ('replace("abc", "b", "$1")', "ac"),
        ('replace("abc", "(b)", "$10")', "ab0c"),
        ('replace("abc", "(b)|(x)", "[$2]")', "a[]c"),
        (r'replace("abc", "b", "\$")', "a$c"),
        (r'replace("abc", "b", "\$0")', "a$0c"),
        (r'replace("abc", "b", "\\")', "a\\c"),
    ])
    @pytest.mark.parametrize("executor", ["Engine", "ReferenceEngine"])
    def test_replace_spec_examples(self, query, expected, executor):
        assert _run(executor, query) == [expected]

    @pytest.mark.parametrize("replacement", ["$", "a$", "\\", "\\n"])
    @pytest.mark.parametrize("executor", ["Engine", "ReferenceEngine"])
    def test_replace_rejects_a_stray_dollar_or_backslash(self, replacement,
                                                        executor):
        with pytest.raises(DynamicError) as caught:
            _run(executor, f'replace("abc", "b", "{replacement}")')
        assert caught.value.code == "FORX0004"

    def test_tokenize(self, values):
        assert values("tokenize('a,b,,c', ',')") == ["a", "b", "", "c"]

    def test_string_of_node(self, values, bib_xml):
        assert values("string((//title)[1])", context_item=bib_xml) == \
            ["The politics of experience"]

    def test_string_of_context(self, values):
        assert values("(<a>hi</a>)/string()") == ["hi"]


class TestSequencesFns:
    def test_distinct_values(self, values):
        assert values("distinct-values((1, 2, 1, 3, 2))") == [1, 2, 3]

    def test_distinct_values_cross_type(self, values):
        # 1 and 1.0 compare equal
        assert values("count(distinct-values((1, 1.0)))") == [1]

    def test_distinct_nodes(self, values):
        q = "let $a := <a/> return count(distinct-nodes(($a, $a, <b/>)))"
        assert values(q) == [2]

    def test_index_of(self, values):
        assert values("index-of((10, 20, 10), 10)") == [1, 3]
        assert values("index-of((1, 2), 9)") == []

    def test_insert_before(self, values):
        assert values("insert-before((1, 2, 3), 2, (9))") == [1, 9, 2, 3]
        assert values("insert-before((1, 2), 9, (0))") == [1, 2, 0]

    def test_remove(self, values):
        assert values("remove((1, 2, 3), 2)") == [1, 3]
        assert values("remove((1, 2), 9)") == [1, 2]

    def test_reverse(self, values):
        assert values("reverse((1, 2, 3))") == [3, 2, 1]

    def test_subsequence(self, values):
        assert values("subsequence((1, 2, 3, 4), 2)") == [2, 3, 4]
        assert values("subsequence((1, 2, 3, 4), 2, 2)") == [2, 3]

    # F&O's fn:subsequence examples, and the same rounding and NaN/INF
    # rules as fn:substring
    @pytest.mark.parametrize("query,expected", [
        ("subsequence($seq, 4)", ["item4", "item5"]),
        ("subsequence($seq, 3, 2)", ["item3", "item4"]),
        ("subsequence(1 to 5, 0.5, 2)", [1, 2]),
        ("subsequence(1 to 5, 2.5, 1.5)", [3, 4]),
        ("subsequence((1, 2, 3), 2, xs:double('INF'))", [2, 3]),
        ("subsequence((1, 2, 3), xs:double('-INF'))", [1, 2, 3]),
        ("subsequence((1, 2, 3), xs:double('-INF'), xs:double('INF'))", []),
        ("subsequence((1, 2, 3), 0 div 0E0)", []),
        ("subsequence((1, 2, 3), 1, 0 div 0E0)", []),
        ("subsequence((1, 2, 3), 2, -1)", []),
    ])
    def test_subsequence_spec_examples(self, values, query, expected):
        seq = ('let $seq := ("item1", "item2", "item3", "item4", "item5") '
               "return ")
        assert values(seq + query) == expected

    def test_subsequence_pulls_nothing_past_its_window(self, run):
        result = run("subsequence(trace(1 to 10, 'p'), 2, 3)")
        assert result.values() == [2, 3, 4]
        assert result.stats.get("trace:p") == 4

    def test_cardinality_checks(self, values, run):
        assert values("exactly-one((5))") == [5]
        assert values("zero-or-one(())") == []
        assert values("one-or-more((1, 2))") == [1, 2]
        with pytest.raises(DynamicError):
            run("exactly-one((1, 2))").items()
        with pytest.raises(DynamicError):
            run("zero-or-one((1, 2))").items()
        with pytest.raises(DynamicError):
            run("one-or-more(())").items()

    def test_deep_equal(self, values):
        assert values("deep-equal(<a><b>1</b></a>, <a><b>1</b></a>)") == [True]
        assert values("deep-equal(<a><b>1</b></a>, <a><b>2</b></a>)") == [False]
        assert values("deep-equal((1, 2), (1, 2))") == [True]

    def test_fn_union_except(self, values):
        q = ("let $d := <r><a/><b/></r> "
             "return count(fn:union(($d/a), ($d/a, $d/b)))")
        assert values(q) == [2]


class TestNodeFunctions:
    def test_name_functions(self, values):
        q = "let $x := <p:a xmlns:p='u'/> return (name($x), local-name($x), namespace-uri($x))"
        assert values(q) == ["p:a", "a", "u"]

    def test_root(self, values, bib_xml):
        assert values("count(root((//title)[1])/bib)", context_item=bib_xml) == [1]

    def test_data(self, values):
        assert values("data((<a>1</a>, <b>x</b>))") == ["1", "x"]

    def test_node_name(self, values):
        assert values("string(node-name(<foo/>))") == ["foo"]


class TestDocFunctions:
    def test_doc(self, values):
        q = "count(doc('u:bib')//book)"
        assert values(q, documents={"u:bib": "<bib><book/><book/></bib>"}) == [2]

    def test_document_alias(self, values):
        # the tutorial spells it document("bib.xml")
        q = "count(document('bib.xml')/bib)"
        assert values(q, documents={"bib.xml": "<bib/>"}) == [1]

    def test_doc_caches_parse(self, run):
        result = run("doc('u') is doc('u')", documents={"u": "<a/>"})
        assert result.values() == [True]

    def test_missing_doc_errors(self, run):
        with pytest.raises(DynamicError):
            run("doc('nope')").items()

    def test_collection(self, run):
        from repro.xdm.build import parse_document

        docs = [parse_document("<a/>"), parse_document("<b/>")]
        from repro import Engine

        compiled = Engine().compile("count(collection('c'))")
        result = compiled.execute(collections={"c": docs})
        assert result.values() == [2]


class TestErrorsAndContext:
    def test_fn_error(self, run):
        with pytest.raises(DynamicError):
            run("fn:error()").items()

    def test_fn_error_with_description(self, run):
        with pytest.raises(DynamicError) as err:
            run("fn:error('X0001', 'boom')").items()
        assert "boom" in str(err.value)

    def test_position_and_last(self, values):
        xml = "<r><x/><x/><x/></r>"
        assert values("/r/x[position() eq last()]/count(.)", context_item=xml) == [1]

    def test_current_date_functions(self, values):
        result = values("(exists(current-dateTime()), exists(current-date()), "
                        "exists(current-time()))")
        assert result == [True, True, True]

    def test_date_components(self, values):
        q = "(year-from-date(xs:date('2004-09-14')), " \
            "month-from-date(xs:date('2004-09-14')), " \
            "day-from-date(xs:date('2004-09-14')))"
        assert values(q) == [2004, 9, 14]

    def test_tutorial_add_date(self, values):
        q = "string(add-date(xs:date('2004-01-31'), xs:duration('P1M')))"
        assert values(q) == ["2004-02-29"]

    def test_resolve_qname(self, values):
        q = "string(resolve-QName('p:x', <a xmlns:p='u'/>))"
        assert values(q) == ["p:x"]
