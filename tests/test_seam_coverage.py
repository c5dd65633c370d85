"""One executor: the default backend runs every query on generated code.

For every query of the corpora below, a default :class:`Engine` run
must succeed, and the whole run must never import the closure
interpreter, :mod:`repro.compiler.reference` — the differential oracle
(``ReferenceEngine``) is for the test suites only.  The corpora:

- the XMark suite;
- the W3C XMP use cases;
- the 22 templates of the end-to-end benchmark
  (``benchmarks/e2e/queries.py``, imported read-only) over ``$auction``,
  and the 6 it runs over ``collection()``;
- the four kinds that ran on the closure interpreter before 4.0
  (:data:`FORMER_CLOSURE_KINDS`);
- the deeply nested queries of ``TestDeepNesting``.

This process imports the oracle for its differential suites, so the
corpus runs in one child process (:func:`boundary`), which reports
per query; the tests below read that report.
"""

from __future__ import annotations

import importlib.util
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.workloads.xmark_queries import QUERIES as XMARK_QUERIES

from tests.test_codegen_source import W3C_XMP_QUERIES, TestDeepNesting

ROOT = Path(__file__).resolve().parents[1]

#: the expression kinds that crossed into the closure interpreter until
#: the emitter learned them: (label, query)
FORMER_CLOSURE_KINDS = [
    ("typeswitch",
     "typeswitch (//book[1]) case element() return 1 default return 0"),
    ("validate", "validate { <a/> }"),
    ("FLWOR with group by",
     "for $b in //book group by $y := string($b/@year) return $y"),
    ("recursive user function",
     "declare function local:f($n) { if ($n le 0) then 0 "
     "else $n + local:f($n - 1) }; local:f(3)"),
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


def _template_case(name, source):
    template = TEMPLATES[name]
    params = template.sample(random.Random(f"seams:{name}"))
    return {"text": E2E.source_text(template, source), "on": "catalog",
            "variables": params}


def _cases() -> dict[str, dict]:
    cases = {}
    for key, query in XMARK_QUERIES.items():
        cases[f"xmark:{key}"] = {"text": query.text, "on": "xmark"}
    for i, text in enumerate(W3C_XMP_QUERIES):
        cases[f"w3c:{i}"] = {"text": text, "on": "documents"}
    for name in TEMPLATES:
        cases[f"e2e:{name}"] = _template_case(name, "$auction")
    for name in COLLECTION_TEMPLATES:
        cases[f"collection:{name}"] = _template_case(name, "collection()")
    for label, text in FORMER_CLOSURE_KINDS:
        cases[f"kind:{label}"] = {"text": text, "on": "bib"}
    for i, text in enumerate(TestDeepNesting.DEEP):
        cases[f"deep:{i}"] = {"text": text, "on": "bib"}
    return cases


#: the child: runs every case on a default Engine, reports per case how
#: it ended, and whether the oracle module was ever imported
_CHILD = r"""
import json, sys
import repro
from repro import Engine, parse_document
from repro.workloads import generate_xmark

spec = json.load(sys.stdin)
xmark = parse_document(generate_xmark(scale=0.05, seed=1))
bib = parse_document(spec["bib"])
cat = repro.catalog()
cat.add("auction", generate_xmark(scale=0.05, seed=1))
cat.add("second", generate_xmark(scale=0.05, seed=2))
engines = {"catalog": Engine(catalog=cat)}
report = {}
for key, case in spec["cases"].items():
    engine = engines.get(case["on"]) or Engine()
    variables = case.get("variables") or {}
    run = {"xmark": {"context_item": xmark}, "bib": {"context_item": bib},
           "documents": {"documents": spec["documents"]},
           "catalog": {"variables": variables}}[case["on"]]
    try:
        compiled = engine.compile(case["text"], variables=tuple(variables))
        compiled.execute(**run).serialize()
        outcome = "ok"
    except Exception as exc:
        outcome = f"{type(exc).__name__} {getattr(exc, 'code', '')}"
    report[key] = {"outcome": outcome}
print(json.dumps({"cases": report,
                  "reference": "repro.compiler.reference" in sys.modules}))
"""


@pytest.fixture(scope="module")
def boundary(bib_xml):
    """The child's report: ``{"cases": {key: {outcome}},
    "reference": imported?}``."""
    from tests.test_w3c_use_cases import BIB, REVIEWS

    spec = {"cases": _cases(), "bib": bib_xml,
            "documents": {"bib.xml": BIB, "reviews.xml": REVIEWS}}
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    child = subprocess.run([sys.executable, "-c", _CHILD],
                           input=json.dumps(spec), capture_output=True,
                           text=True, env=env, timeout=600, check=True)
    return json.loads(child.stdout.strip().splitlines()[-1])


def _on_generated_code(boundary, key) -> None:
    case = boundary["cases"][key]
    assert case == {"outcome": "ok"}, (key, case)


def test_default_backend_never_imports_the_oracle(boundary):
    assert boundary["reference"] is False
    assert set(boundary["cases"]) == set(_cases())


@pytest.mark.parametrize("key", list(XMARK_QUERIES))
def test_xmark_suite_is_seamless(key, boundary):
    _on_generated_code(boundary, f"xmark:{key}")


@pytest.mark.parametrize("index", range(len(W3C_XMP_QUERIES)))
def test_w3c_use_cases_are_seamless(index, boundary):
    _on_generated_code(boundary, f"w3c:{index}")


@pytest.mark.parametrize("name", list(TEMPLATES))
def test_benchmark_templates_are_seamless(name, boundary):
    _on_generated_code(boundary, f"e2e:{name}")


@pytest.mark.parametrize("name", COLLECTION_TEMPLATES)
def test_benchmark_collection_templates_are_seamless(name, boundary):
    _on_generated_code(boundary, f"collection:{name}")


@pytest.mark.parametrize("label", [row[0] for row in FORMER_CLOSURE_KINDS])
def test_former_closure_kinds_are_seamless(label, boundary):
    _on_generated_code(boundary, f"kind:{label}")


@pytest.mark.parametrize("index", range(len(TestDeepNesting.DEEP)))
def test_deep_nests_are_seamless(index, boundary):
    _on_generated_code(boundary, f"deep:{index}")


def test_all_benchmark_templates_are_covered():
    assert len(TEMPLATES) == 22
    assert set(COLLECTION_TEMPLATES) <= set(TEMPLATES)
