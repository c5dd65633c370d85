"""The unified public API: repro.compile/execute/explain, repro.xml,
keyword-only signatures, and compile-cache key normalization."""

import warnings

import pytest

import repro
from repro import Engine
from repro.xsd import types as T


class TestTopLevelAPI:
    def test_public_surface(self):
        for name in ("compile", "execute", "explain", "xml", "Engine",
                     "CompiledQuery", "Result", "CancellationToken",
                     "QueryCancelled", "QueryTimeout", "ServiceOverloaded"):
            assert name in repro.__all__
            assert hasattr(repro, name)

    def test_compile_returns_compiled_query(self):
        compiled = repro.compile("1 + 1")
        assert isinstance(compiled, repro.CompiledQuery)
        assert compiled.execute().values() == [2]

    def test_execute_one_shot(self):
        result = repro.execute("count(//b)", context_item="<a><b/><b/></a>")
        assert result.values() == [2]

    def test_execute_shares_default_engine_cache(self):
        from repro.api import default_engine

        engine = default_engine()
        misses0 = engine.compile_cache.misses
        hits0 = engine.compile_cache.hits
        repro.execute("7 * 6")
        repro.execute("7 * 6")
        assert engine.compile_cache.misses == misses0 + 1
        assert engine.compile_cache.hits == hits0 + 1

    def test_explain_matches_engine_explain(self):
        plain = repro.explain("count(//b)")
        assert "FunctionCall" in str(plain)
        analyzed = repro.explain("count(//b)", analyze=True,
                                 context_item="<a><b/></a>")
        assert analyzed.to_dict()["query"] == "count(//b)"


class TestXmlWrapper:
    def test_plain_str_binds_xs_string(self):
        result = repro.execute("$s", variables={"s": "<looks-like-xml/>"})
        (item,) = result.items()
        assert item.type is T.XS_STRING
        assert item.value == "<looks-like-xml/>"

    def test_xml_wrapper_binds_document(self):
        result = repro.execute("count($d//b)",
                               variables={"d": repro.xml("<a><b/><b/></a>")})
        assert result.values() == [2]

    def test_xml_wrapper_in_documents(self):
        result = repro.execute("count(doc('u')//b)",
                               documents={"u": repro.xml("<a><b/></a>")})
        assert result.values() == [1]

    def test_xml_rejects_non_str(self):
        with pytest.raises(TypeError):
            repro.xml(42)

    def test_context_item_str_still_parses(self):
        # unchanged: the context item is a document by convention
        assert repro.execute("count(//b)",
                             context_item="<a><b/></a>").values() == [1]


class TestKeywordOnlySignatures:
    def test_execute_rejects_positionals(self):
        # 2.0 removed the pre-1.1 positional shim
        compiled = repro.compile("$x + 1", variables=("x",))
        with pytest.raises(TypeError, match="positional"):
            compiled.execute("<a/>")
        with pytest.raises(TypeError, match="positional"):
            compiled.execute(None, {"x": 41})
        assert compiled.execute(variables={"x": 41}).values() == [42]

    def test_execute_keywords_do_not_warn(self):
        compiled = repro.compile("1")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert compiled.execute(context_item="<a/>").values() == [1]

    def test_explain_rejects_positionals(self):
        engine = Engine()
        with pytest.raises(TypeError, match="positional"):
            engine.explain("count(//b)", "<a><b/></a>", None, True)
        explained = engine.explain("count(//b)", context_item="<a><b/></a>",
                                   analyze=True)
        assert explained.to_dict()["engine_stats"] is not None


class TestCompileCacheKey:
    def test_variable_order_does_not_split_cache(self):
        engine = Engine()
        first = engine.compile("$a + $b", variables=("a", "b"))
        second = engine.compile("$a + $b", variables=("b", "a"))
        assert first is second
        assert engine.compile_cache.misses == 1
        assert engine.compile_cache.hits == 1

    def test_engines_with_equal_options_share_plans(self):
        # 3.0: no executor slot in the key — engines that differ in no
        # compile-relevant input reuse one another's plans
        shared_cache = Engine().compile_cache
        first = Engine(compile_cache=shared_cache)
        second = Engine(compile_cache=shared_cache)
        assert first.compile("(1, 2)") is second.compile("(1, 2)")
