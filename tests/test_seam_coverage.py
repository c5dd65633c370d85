"""Seam coverage of the default (compile-to-source) backend.

ROADMAP item 2b as a test: for every query of three corpora — the XMark
suite, the W3C XMP use cases, and the 22 templates of the end-to-end
benchmark (``benchmarks/e2e/queries.py``, imported read-only) — count
how often an execution crosses from generated code into the closure
interpreter (``codegen.fallback_closure``).  Benchmark templates must
never cross; the other corpora may only cross for the expression kinds
deliberately left on the closure interpreter (:data:`LEFT_ON_CLOSURE`).

The summary this file computes is the table in DESIGN.md's
compile-to-source section; :func:`test_design_table_is_current` keeps
the two from drifting apart.
"""

from __future__ import annotations

import importlib.util
import random
import sys
from pathlib import Path

import pytest

import repro
from repro import Engine, ExecutionOptions, parse_document
from repro.workloads import generate_xmark
from repro.workloads.xmark_queries import QUERIES as XMARK_QUERIES

from tests.test_codegen_source import W3C_XMP_QUERIES
from tests.test_w3c_use_cases import BIB, REVIEWS

ROOT = Path(__file__).resolve().parents[1]

#: expression kinds with no emitter, by design: (label, query, why) —
#: each must still count its seam (the counter is the observability of
#: this list) and is a row of the DESIGN.md table
LEFT_ON_CLOSURE = [
    ("typeswitch",
     "typeswitch (//book[1]) case element() return 1 default return 0",
     "per-case variable scoping over a materialized operand; rare"),
    ("validate",
     "validate { <a/> }",
     "schema machinery, not a loop to fuse"),
    ("FLWOR with group by",
     "for $b in //book group by $y := string($b/@year) return $y",
     "regrouping rebinds every variable per group"),
    ("recursive user function",
     "declare function local:f($n) { if ($n le 0) then 0 "
     "else $n + local:f($n - 1) }; local:f(3)",
     "normalization inlines every non-recursive call; recursion keeps "
     "the closure calling convention (one seam at the outermost call)"),
]


def _e2e_templates():
    """The benchmark's own templates (read-only: nothing under
    ``benchmarks/e2e`` is imported by product code or edited here)."""
    spec = importlib.util.spec_from_file_location(
        "e2e_queries", ROOT / "benchmarks" / "e2e" / "queries.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


E2E = _e2e_templates()
TEMPLATES = E2E.templates(n_people=12)

#: the templates the benchmark runs over ``collection()``
COLLECTION_TEMPLATES = ("count_pred", "sum_ages", "exists_current",
                        "scan_names", "positional", "order_income")

assert ExecutionOptions().codegen == "source"  # what "default" means here


def _seams(result) -> int:
    result.items()
    return result.stats.get("codegen.fallback_closure", 0)


@pytest.fixture(scope="module")
def xmark_doc(xmark_small):
    return parse_document(xmark_small)


@pytest.fixture(scope="module")
def shop():
    """One indexed catalog document, the way the server holds it."""
    cat = repro.catalog()
    cat.add("auction", generate_xmark(scale=0.05, seed=1))
    cat.add("second", generate_xmark(scale=0.05, seed=2))
    return Engine(catalog=cat)


def _run_template(engine, name, source):
    template = TEMPLATES[name]
    params = template.sample(random.Random(f"seams:{name}"))
    compiled = engine.compile(E2E.source_text(template, source),
                              variables=tuple(template.params))
    return compiled.execute(variables=params)


@pytest.mark.parametrize("key", list(XMARK_QUERIES))
def test_xmark_suite_is_seamless(key, xmark_doc):
    result = Engine().compile(XMARK_QUERIES[key].text).execute(
        context_item=xmark_doc)
    assert _seams(result) == 0


@pytest.mark.parametrize("index", range(len(W3C_XMP_QUERIES)))
def test_w3c_use_cases_are_seamless(index):
    result = Engine().compile(W3C_XMP_QUERIES[index]).execute(
        documents={"bib.xml": BIB, "reviews.xml": REVIEWS})
    assert _seams(result) == 0


@pytest.mark.parametrize("name", list(TEMPLATES))
def test_benchmark_templates_are_seamless(name, shop):
    assert _seams(_run_template(shop, name, "$auction")) == 0


@pytest.mark.parametrize("name", COLLECTION_TEMPLATES)
def test_benchmark_collection_templates_are_seamless(name, shop):
    assert _seams(_run_template(shop, name, "collection()")) == 0


@pytest.mark.parametrize("label,query,_why", LEFT_ON_CLOSURE,
                         ids=[row[0] for row in LEFT_ON_CLOSURE])
def test_kinds_left_on_closure_count_their_seam(label, query, _why,
                                                bib_xml):
    result = Engine().compile(query).execute(context_item=bib_xml)
    assert _seams(result) >= 1


def test_all_benchmark_templates_are_covered():
    assert len(TEMPLATES) == 22
    assert set(COLLECTION_TEMPLATES) <= set(TEMPLATES)


def design_table(xmark_doc, shop) -> str:
    """The seam-coverage table of DESIGN.md, computed."""
    def row(corpus, counts):
        crossing = ", ".join(f"{name}: {n}" for name, n in counts if n) \
            or "—"
        zero = sum(1 for _, n in counts if not n)
        return f"| {corpus} | {len(counts)} | {zero} | {crossing} |"

    corpora = [
        ("XMark suite (`repro.workloads.xmark_queries`)",
         [(key, _seams(Engine().compile(q.text).execute(
             context_item=xmark_doc)))
          for key, q in XMARK_QUERIES.items()]),
        ("W3C XMP use cases (`tests/test_codegen_source.py`)",
         [(f"Q{i}", _seams(Engine().compile(text).execute(
             documents={"bib.xml": BIB, "reviews.xml": REVIEWS})))
          for i, text in enumerate(W3C_XMP_QUERIES, 1)]),
        ("e2e benchmark templates over `$auction`",
         [(name, _seams(_run_template(shop, name, "$auction")))
          for name in TEMPLATES]),
        ("e2e benchmark templates over `collection()`",
         [(name, _seams(_run_template(shop, name, "collection()")))
          for name in COLLECTION_TEMPLATES]),
    ]
    lines = ["| corpus | queries | zero seams | seams by query |",
             "|---|---|---|---|"]
    lines += [row(corpus, counts) for corpus, counts in corpora]
    return "\n".join(lines)


def test_design_table_is_current(xmark_doc, shop):
    design = (ROOT / "DESIGN.md").read_text(encoding="utf-8")
    assert design_table(xmark_doc, shop) in design
    for label, _query, _why in LEFT_ON_CLOSURE:
        assert f"| {label} |" in design, label
