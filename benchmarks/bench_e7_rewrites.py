"""E7 — rewrite-rule ablation.

Claim: "Code rewritings goals: reduce the level of abstraction, reduce
the execution cost" — each rule family in the tutorial's list (LET
folding, FLWOR unnesting, constant folding, DDO elision, loop-invariant
hoisting) should individually reduce execution cost on queries
exhibiting its pattern.

Series reported: per workload query, runtime with the full rule
library vs no rules vs the library minus one family (leave-one-out).
Shape target: full ≤ leave-one-out ≤ none, with each family's removal
visible on the query that targets it.
"""

import pytest

from repro import Engine
from repro.compiler.reference import CodeGenerator
from repro.compiler.normalize import normalize_module
from repro.compiler.rewriter import RewriteEngine, default_rules
from repro.qname import QName
from repro.workloads import EBXML_QUERY, generate_ebxml
from repro.workloads.synthetic import nested_sections
from repro.xquery.parser import parse_query

#: query name → (query text, data-variable name or None, rule family it targets)
QUERIES = {
    "ddo-paths": (
        "declare variable $d as document-node() external; "
        "count($d/doc/section/section//title)", "d", "ddo-elimination"),
    "hoisting": (
        "declare variable $d as document-node() external; "
        "for $i in (1 to 200) return count($d//title) + $i", "d",
        "for-let-hoisting"),
    "let-folding": (
        "let $a := 2 let $b := $a * 3 let $c := $b + 1 return "
        "for $i in (1 to 2000) return $c * $i", None, "let-folding"),
    "ebxml-transform": (EBXML_QUERY, "input", None),
}

_section_doc = nested_sections(depth=7, fanout=2)
_ebxml = generate_ebxml(n_partners=6, seed=7)


def _compile_with_rules(query_text: str, rules, data_var):
    module = parse_query(query_text)
    extra = (QName("", data_var),) if data_var else ()
    core, ctx = normalize_module(module, extra_vars=extra)
    if rules is not None:
        core = RewriteEngine(rules, ctx).rewrite(core)
    else:
        from repro.compiler.analysis import analyze

        analyze(core, ctx)
    plan = CodeGenerator(ctx).compile(core)
    return plan, ctx


def _execute(plan, ctx, data_var, name):
    from repro.runtime.dynamic import DynamicContext

    dctx = DynamicContext(ctx)
    if data_var:
        from repro.xdm.build import parse_document

        data = _ebxml if name == "ebxml-transform" else _section_doc
        dctx = dctx.bind(QName("", data_var), [parse_document(data)])
    return list(plan(dctx))


def _variants(target_family):
    full = default_rules()
    out = {"all-rules": full, "no-rules": None}
    if target_family:
        out[f"without-{target_family}"] = [
            (name, rule) for name, rule in full if name != target_family]
    return out


for _qname, (_text, _var, _family) in QUERIES.items():
    pass  # parametrization below


@pytest.mark.parametrize("query_name", list(QUERIES))
@pytest.mark.parametrize("variant", ["all-rules", "no-rules", "leave-one-out"])
def test_ablation(benchmark, query_name, variant):
    text, data_var, family = QUERIES[query_name]
    if variant == "leave-one-out" and family is None:
        pytest.skip("no single target family for this query")
    rules = default_rules() if variant == "all-rules" else \
        None if variant == "no-rules" else \
        [(n, r) for n, r in default_rules() if n != family]
    plan, ctx = _compile_with_rules(text, rules, data_var)
    benchmark.group = f"E7 {query_name}"
    benchmark.name = variant if variant != "leave-one-out" else f"without-{family}"
    result = benchmark(_execute, plan, ctx, data_var, query_name)
    assert result


@pytest.mark.parametrize("query_name", list(QUERIES))
def test_rewrites_preserve_semantics(query_name):
    text, data_var, _family = QUERIES[query_name]
    outputs = []
    for rules in (default_rules(), None):
        plan, ctx = _compile_with_rules(text, rules, data_var)
        items = _execute(plan, ctx, data_var, query_name)
        from repro.xdm.items import AtomicValue

        outputs.append([i.value if isinstance(i, AtomicValue) else i.string_value
                        for i in items])
    assert outputs[0] == outputs[1]
