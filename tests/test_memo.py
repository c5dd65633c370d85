"""Memoization: LRU, compile cache, inter-query result cache."""

import pytest

from repro import Engine, ExecutionOptions, parse_document
from repro.runtime.memo import LRUCache, ResultCache


class TestLRU:
    def test_put_get(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.get("b") is None

    def test_eviction_order(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")          # refresh a
        cache.put("c", 3)       # evicts b
        assert cache.get("a") == 1
        assert cache.get("b") is None
        assert cache.get("c") == 3

    def test_stats(self):
        cache = LRUCache(4)
        cache.put("k", 1)
        cache.get("k")
        cache.get("missing")
        assert cache.hits == 1
        assert cache.misses == 1

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            LRUCache(0)

    def test_overwrite(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("a", 2)
        assert cache.get("a") == 2
        assert len(cache) == 1


class TestCompileCache:
    def test_same_text_same_object(self):
        engine = Engine()
        a = engine.compile("1 + 1")
        b = engine.compile("1 + 1")
        assert a is b

    def test_different_text_different_object(self):
        engine = Engine()
        assert engine.compile("1 + 1") is not engine.compile("1 + 2")

    def test_variables_part_of_key(self):
        engine = Engine()
        a = engine.compile("$x", variables=("x",))
        b = engine.compile("$x", variables=("x", "y"))
        assert a is not b

    def test_disabled_cache(self):
        engine = Engine(options=ExecutionOptions(compile_cache_size=0))
        assert engine.compile("1") is not engine.compile("1")

    def test_schemas_bypass_cache(self):
        from repro.xsd import Schema

        schema = Schema.from_text(
            "<schema><element name='r' type='xs:string'/></schema>")
        engine = Engine()
        a = engine.compile("1", schemas=[schema])
        b = engine.compile("1", schemas=[schema])
        assert a is not b  # schema objects are not hashed into the key

    def test_cached_query_still_correct(self, bib_xml):
        engine = Engine()
        compiled = engine.compile("count(//book)")
        again = engine.compile("count(//book)")
        assert again.execute(context_item=parse_document(bib_xml)).values() == [3]

    def test_hits_observable(self):
        engine = Engine()
        engine.compile("7 * 6")
        assert engine.compile_cache.hits == 0
        engine.compile("7 * 6")
        assert engine.compile_cache.hits == 1

    def test_disabled_via_none(self):
        engine = Engine(compile_cache=None)
        assert engine.compile_cache is None
        assert engine.compile("1") is not engine.compile("1")

    def test_shared_cache_across_engines(self):
        shared = LRUCache(16)
        a = Engine(compile_cache=shared)
        b = Engine(compile_cache=shared)
        assert a.compile("2 + 2") is b.compile("2 + 2")
        assert shared.hits == 1

    def test_engine_flags_part_of_key(self):
        shared = LRUCache(16)
        plain = Engine(compile_cache=shared)
        unopt = Engine(options=ExecutionOptions(optimize=False),
                       compile_cache=shared)
        assert plain.compile("1 + 1") is not unopt.compile("1 + 1")

    def test_static_context_fingerprint_invalidates(self):
        from repro.compiler.context import StaticContext

        ctx_a = StaticContext()
        ctx_a.base_uri = "http://a/"
        ctx_b = StaticContext()
        ctx_b.base_uri = "http://b/"
        engine = Engine(base_context=ctx_a)
        first = engine.compile("3")
        engine.base_context = ctx_b
        assert engine.compile("3") is not first
        engine.base_context = ctx_a
        assert engine.compile("3") is first

    def test_fingerprint_tracks_declarations(self):
        from repro.compiler.context import StaticContext
        from repro.qname import QName

        ctx = StaticContext()
        before = ctx.fingerprint()
        assert before == ctx.fingerprint()
        ctx.declare_variable(QName("", "x"))
        after = ctx.fingerprint()
        assert after != before
        ctx.namespaces.bind("p", "http://p/")
        assert ctx.fingerprint() != after


class TestResultCache:
    def test_same_inputs_hit(self, bib_xml):
        engine = Engine()
        compiled = engine.compile("count(//book)")
        doc = parse_document(bib_xml)
        cache = ResultCache()
        first = cache.execute(compiled, doc)
        second = cache.execute(compiled, doc)
        assert first is second
        assert cache.stats["hits"] == 1

    def test_different_documents_miss(self, bib_xml):
        engine = Engine()
        compiled = engine.compile("count(//book)")
        cache = ResultCache()
        a = cache.execute(compiled, parse_document(bib_xml))
        b = cache.execute(compiled, parse_document(bib_xml))
        assert a is not b

    def test_partial_results_extend(self, bib_xml):
        engine = Engine()
        compiled = engine.compile("//book/title/text()")
        doc = parse_document(bib_xml)
        cache = ResultCache()
        seq = cache.execute(compiled, doc)
        first = next(iter(seq))
        # a second consumer gets the cached prefix plus the rest
        again = cache.execute(compiled, doc)
        items = list(again)
        assert items[0] is first
        assert len(items) == 3

    def test_cacheable_predicate(self, bib_xml):
        engine = Engine()
        pure = engine.compile("count(//book)")
        constructing = engine.compile("<a/>")
        assert ResultCache.cacheable(pure)
        assert not ResultCache.cacheable(constructing)

    def test_freed_query_never_replays_another_answer(self):
        # keyed by id(): once a compiled query is freed, the next one
        # may take its id — the entry must keep the keyed objects alive
        engine = Engine(compile_cache=None)
        cache = ResultCache()
        for i in range(200):
            answer = cache.execute(engine.compile(f"{i} + 0"))
            assert [item.value for item in answer] == [i]

    def test_invalidate(self, bib_xml):
        engine = Engine()
        compiled = engine.compile("count(//book)")
        doc = parse_document(bib_xml)
        cache = ResultCache()
        a = cache.execute(compiled, doc)
        cache.invalidate()
        b = cache.execute(compiled, doc)
        assert a is not b
