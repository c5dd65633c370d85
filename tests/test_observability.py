"""The observability layer: Profiler, EXPLAIN ANALYZE, CLI --profile.

Covers the tentpole surfaces: per-operator counters collected through
the guarded plan hooks, the annotated plan tree, the machine-readable
JSON dump, scanner fallback metrics riding on profiled parses, and the
perfsmoke guarantee that plans pay ~nothing while no profiler is
attached.
"""

from __future__ import annotations

import json
import statistics
import time

import pytest

from repro import Engine
from repro.compiler.reference import ReferenceEngine
from repro.observability import ExplainResult, OperatorStats, PlanNode, Profiler


class TestProfilerPrimitives:
    def test_operator_stats_accumulate(self):
        profiler = Profiler()
        profiler.record("x", items=3, seconds=0.5, widgets=2)
        profiler.record("x", items=1, seconds=0.25, widgets=1, gadgets=4)
        stats = profiler.operators["x"]
        assert stats.calls == 2
        assert stats.items == 4
        assert stats.seconds == pytest.approx(0.75)
        assert stats.counters == {"widgets": 3, "gadgets": 4}

    def test_count_creates_operator(self):
        profiler = Profiler()
        profiler.count("join.twigstack", "stack_pushes", 5)
        assert profiler.operators["join.twigstack"].counters["stack_pushes"] == 5

    def test_run_operator_counts_items_and_calls(self):
        profiler = Profiler()

        def plan(dctx):
            yield from (10, 20, 30)

        class _Dctx:
            pass

        out = list(profiler.run_operator(7, plan, _Dctx()))
        assert out == [10, 20, 30]
        stats = profiler.operators[7]
        assert (stats.calls, stats.items) == (1, 3)
        assert stats.seconds >= 0.0

    def test_to_dict_is_json_ready(self):
        profiler = Profiler()
        profiler.record(0, items=2, seconds=0.001)
        profiler.record("xmlio.scanner", items=9, fallback_comment=1)
        dump = json.loads(json.dumps(profiler.to_dict()))
        assert dump["0"]["items"] == 2
        assert dump["xmlio.scanner"]["counters"]["fallback_comment"] == 1


class TestExplain:
    def test_explain_without_analyze_has_tree_only(self, engine, bib_xml):
        explained = engine.explain("/bib/book/title")
        assert isinstance(explained, ExplainResult)
        assert not explained.analyzed
        kinds = [node.kind for node in explained.tree.walk()]
        assert "Step" in kinds and "RootExpr" in kinds
        text = str(explained)
        assert "static type" in text
        assert "Step" in text
        assert "calls=" not in text  # no metrics without analyze

    def test_analyze_counts_path_steps(self, bib_xml):
        # fused regions report counters at the region root: per-operator
        # rows are the oracle's diagnostic
        engine = ReferenceEngine()
        explained = engine.explain("/bib/book/title", context_item=bib_xml,
                                   analyze=True)
        assert explained.analyzed
        steps = [node for node in explained.tree.walk() if node.kind == "Step"]
        assert steps, "plan tree must contain path steps"
        for step in steps:
            stats = explained.profiler.operators[step.id]
            assert stats.calls >= 1
        # the title step produced the three titles
        title_step = [s for s in steps if "title" in s.detail][0]
        assert explained.profiler.operators[title_step.id].items == 3

    def test_analyze_counts_flwor_clauses(self, engine, bib_xml):
        explained = engine.explain(
            "for $b in /bib/book where $b/price > 30 return $b/title",
            context_item=bib_xml, analyze=True)
        for_nodes = [n for n in explained.tree.walk() if n.kind == "ForExpr"]
        assert for_nodes
        stats = explained.profiler.operators[for_nodes[0].id]
        assert stats.calls == 1
        assert stats.items == 2  # two books cost more than 30

    def test_analyze_records_scanner_operator(self, engine, bib_xml):
        explained = engine.explain("count(//book)", context_item=bib_xml,
                                   analyze=True)
        scanner = explained.profiler.operators["xmlio.scanner"]
        assert scanner.calls == 1
        assert scanner.items > 0  # parse events flowed through

    def test_render_includes_metrics_and_library_ops(self, engine, bib_xml):
        explained = engine.explain("/bib/book", context_item=bib_xml,
                                   analyze=True)
        text = explained.render()
        assert "calls=" in text and "time=" in text
        assert "xmlio.scanner" in text

    def test_to_dict_schema(self, engine, bib_xml):
        explained = engine.explain("/bib/book/title", context_item=bib_xml,
                                   analyze=True)
        dump = json.loads(json.dumps(explained.to_dict()))
        assert dump["query"] == "/bib/book/title"
        assert dump["analyze"] is True
        assert isinstance(dump["static_type"], str)
        plan = dump["plan"]
        for key in ("id", "kind", "detail", "calls", "items", "time_ms"):
            assert key in plan
        assert isinstance(dump["operators"], dict)

        # every node id in the tree is unique
        ids: list[int] = []

        def collect(node):
            ids.append(node["id"])
            for child in node.get("children", ()):
                collect(child)

        collect(plan)
        assert len(ids) == len(set(ids))

    def test_never_executed_operators_are_flagged(self, bib_xml):
        # the else branch of a where-clause IfExpr never runs when every
        # book matches; in the product that branch is inlined in the
        # generated function, which is not the same as dead
        query = "for $b in /bib/book where $b/price > 0 return $b"
        text = ReferenceEngine().explain(query, context_item=bib_xml,
                                         analyze=True).render()
        assert "(never executed)" in text
        assert "(fused into generated code)" not in text
        text = Engine().explain(query, context_item=bib_xml,
                                analyze=True).render()
        assert "(fused into generated code)" in text
        assert "(never executed)" not in text

    def test_operators_by_time_sorted(self, engine, bib_xml):
        explained = engine.explain("/bib/book/title", context_item=bib_xml,
                                   analyze=True)
        pairs = explained.operators_by_time()
        assert pairs
        times = [stats.seconds for _node, stats in pairs]
        assert times == sorted(times, reverse=True)

    def test_one_profiler_spans_plan_and_twig_joins(self, engine, bib_xml):
        from repro.joins import TwigPattern, evaluate_pattern
        from repro.storage import ElementIndex
        from repro.xdm.build import parse_document

        compiled = engine.compile("/bib/book")
        profiler = Profiler()
        compiled.execute(context_item=bib_xml, profiler=profiler).items()
        index = ElementIndex(parse_document(bib_xml))
        evaluate_pattern(index, TwigPattern.chain("book", ("title", "child")),
                         "twigstack", profiler=profiler)
        text = ExplainResult(compiled, profiler).render()
        assert "join.twigstack" in text
        assert profiler.operators["join.twigstack"].items == 3

    def test_plan_tree_survives_compile_cache(self, bib_xml):
        engine = Engine()
        first = engine.compile("/bib/book")
        again = engine.compile("/bib/book")
        assert again is first
        assert isinstance(first.plan_tree, PlanNode)
        # a cached compile still profiles
        profiler = Profiler()
        again.execute(context_item=bib_xml, profiler=profiler).items()
        assert profiler.operators[first.plan_tree.id].calls == 1


class TestCounterKinds:
    def test_semantics_and_diaries(self):
        from repro.observability.counters import is_diary, split_counters

        for key in ("ddo_sorts", "access_path.actual_rows",
                    "access_path.value_index", "twig.elements_scanned"):
            assert is_diary(key), key
        # navigation fallbacks, built nodes, trace labels — and
        # anything not yet named a diary
        for key in ("access_path.fallback_navigation",
                    "twig.fallback_navigation", "elements_constructed",
                    "trace:x", "some.new_counter"):
            assert not is_diary(key), key
        assert split_counters({"ddo_sorts": 2, "elements_constructed": 1}) \
            == ({"elements_constructed": 1}, {"ddo_sorts": 2})


class TestExecuteIntegration:
    def test_result_profiler_property(self, engine, bib_xml):
        compiled = engine.compile("count(//book)")
        assert compiled.execute(context_item=bib_xml).profiler is None
        profiler = Profiler()
        result = compiled.execute(context_item=bib_xml, profiler=profiler)
        assert result.profiler is profiler

    def test_profiled_run_same_answer(self, engine, bib_xml):
        compiled = engine.compile(
            "for $b in //book order by $b/title return string($b/title)")
        plain = compiled.execute(context_item=bib_xml).values()
        profiled = compiled.execute(context_item=bib_xml,
                                    profiler=Profiler()).values()
        assert profiled == plain

    def test_profiled_parse_counts_fallbacks(self):
        profiler = Profiler()
        profiler.parse_document("<a><!--note--><b><![CDATA[x]]></b></a>")
        counters = profiler.operators["xmlio.scanner"].counters
        assert counters["fallback_comment"] == 1
        assert counters["fallback_cdata"] == 1


class TestCliProfile:
    def _run(self, argv, capsys):
        from repro.cli import main

        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_profile_emits_result_and_json(self, tmp_path, capsys, bib_xml):
        xml_file = tmp_path / "bib.xml"
        xml_file.write_text(bib_xml)
        code, out, err = self._run(
            ["--profile", "/bib/book/title", "-i", str(xml_file)], capsys)
        assert code == 0
        assert "<title>" in out
        dump = json.loads(err.strip().splitlines()[-1])
        assert dump["analyze"] is True
        assert dump["plan"]["calls"] >= 1
        assert "xmlio.scanner" in dump["operators"]

    def test_explain_profile_prints_annotated_tree(self, tmp_path, capsys,
                                                   bib_xml):
        xml_file = tmp_path / "bib.xml"
        xml_file.write_text(bib_xml)
        code, out, err = self._run(
            ["--explain", "--profile", "/bib/book/title", "-i", str(xml_file)],
            capsys)
        assert code == 0
        assert "calls=" in out and "Step" in out
        assert json.loads(err.strip().splitlines()[-1])["analyze"] is True

    def test_plain_explain_unchanged(self, tmp_path, capsys, bib_xml):
        xml_file = tmp_path / "bib.xml"
        xml_file.write_text(bib_xml)
        code, out, _err = self._run(
            ["--explain", "/bib/book/title", "-i", str(xml_file)], capsys)
        assert code == 0
        assert "static type" in out and "Step" in out
        assert "calls=" not in out


@pytest.mark.perfsmoke
def test_profiler_off_overhead_under_three_percent():
    """Hooked plans with no profiler attached stay within 3% of plans
    compiled without hooks.  Like with like: both sides are the
    product's emitter over one optimized core, with and without the
    root hook, walking one pre-parsed XMark document (a parse in the
    timed region adds more noise than the hook costs)."""
    from repro.compiler.analysis import analyze
    from repro.compiler.normalize import normalize_module
    from repro.compiler.pysource import SourcePlanCompiler
    from repro.compiler.rewriter import RewriteEngine, default_rules
    from repro.runtime.dynamic import DynamicContext
    from repro.workloads import generate_xmark
    from repro.xdm.build import parse_document
    from repro.xquery.parser import parse_query

    doc = parse_document(generate_xmark(scale=0.2, seed=2004))
    core, static_ctx = normalize_module(parse_query("count(/site//*)"))
    optimized = RewriteEngine(default_rules(), static_ctx).rewrite(core)
    analyze(optimized, static_ctx)
    hooked_plan = SourcePlanCompiler(static_ctx).compile_root(optimized)
    bare_plan = SourcePlanCompiler(static_ctx,
                                   instrument=False).compile_root(optimized)

    def run(plan):
        return list(plan(DynamicContext(static_ctx).with_focus(doc, 1, 1)))

    assert run(hooked_plan)[0].value == run(bare_plan)[0].value

    def timed(plan) -> float:
        t0 = time.perf_counter()
        run(plan)
        return time.perf_counter() - t0

    # paired runs, each pair's order alternating, so both sides see the
    # same machine; the median pair ignores a lucky or an unlucky run
    ratios = []
    for i in range(31):
        if i % 2:
            bare_t = timed(bare_plan)
            hooked_t = timed(hooked_plan)
        else:
            hooked_t = timed(hooked_plan)
            bare_t = timed(bare_plan)
        ratios.append(hooked_t / bare_t)
    ratio = statistics.median(ratios)
    assert ratio <= 1.03, (
        f"profiler-off overhead too high: hooked/bare {ratio:.3f}x, the "
        f"median of {len(ratios)} pairs")
