"""Differential property testing with randomly generated queries.

Three oracles over randomly generated queries and documents:

1. optimized engine ≡ unoptimized engine (every rewrite is sound);
2. unparse → reparse ≡ original (the unparser is faithful);
3. projected document ≡ full document (projection never under-keeps),
   whenever the query is projectable.

Errors count as outcomes: both sides must fail with the same error
*family* or produce identical values.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Engine, ExecutionOptions, execute_query, parse_document
from repro.errors import XQueryError
from repro.workloads.synthetic import random_tree

# ---------------------------------------------------------------------------
# query generator: a recursive grammar over tags {a, b, c}
# ---------------------------------------------------------------------------

_paths = st.sampled_from([
    "//a", "//b", "//c", "/root/a", "/root/a/b", "//a/b", "//a//c",
    "//b[c]", "//a[1]", "(//b)[1]", "//a/b/c",
])

_atoms = st.one_of(
    st.integers(min_value=-5, max_value=20).map(str),
    st.sampled_from(["'leaf'", "'x'", "()", "1.5", "2.0e0"]),
    _paths.map(lambda p: f"count({p})"),
    _paths.map(lambda p: f"string(({p})[1])"),
    _paths.map(lambda p: f"exists({p})"),
)


def _exprs(depth: int):
    if depth == 0:
        return _atoms
    sub = _exprs(depth - 1)
    return st.one_of(
        _atoms,
        st.tuples(sub, st.sampled_from(["+", "-", "*"]), sub)
          .map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
        st.tuples(sub, st.sampled_from(["=", "!=", "<", "<=", ">", ">="]), sub)
          .map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
        st.tuples(sub, sub, sub)
          .map(lambda t: f"(if ({t[0]}) then {t[1]} else {t[2]})"),
        st.tuples(sub, sub)
          .map(lambda t: f"(let $v := {t[0]} return ({t[1]}, $v))"),
        st.tuples(_paths, sub)
          .map(lambda t: f"(for $w in {t[0]} return {t[1]})"),
        st.tuples(_paths, sub)
          .map(lambda t: f"(some $q in {t[0]} satisfies exists(({t[1]})))"),
        st.tuples(sub, sub).map(lambda t: f"({t[0]}, {t[1]})"),
        sub.map(lambda q: f"count(({q}))"),
    )


QUERY = _exprs(2)

_fast = Engine()
_slow = Engine(options=ExecutionOptions(optimize=False))


def _outcome(engine: Engine, query: str, doc) -> tuple:
    try:
        compiled = engine.compile(query)
        values = compiled.execute(context_item=doc).values()
        # normalize node items to their string values for comparison
        return ("ok", [v if not hasattr(v, "string_value") else v.string_value
                       for v in values])
    except XQueryError as exc:
        return ("err", type(exc).__name__)


class TestDifferential:
    @given(query=QUERY, n=st.integers(min_value=5, max_value=40),
           seed=st.integers(0, 10_000))
    @settings(max_examples=120, deadline=None)
    def test_optimizer_is_sound(self, query, n, seed):
        doc = parse_document(random_tree(n, tags=("a", "b", "c"), seed=seed))
        assert _outcome(_fast, query, doc) == _outcome(_slow, query, doc), query

    @given(query=QUERY, seed=st.integers(0, 1_000))
    @settings(max_examples=80, deadline=None)
    def test_unparse_is_faithful(self, query, seed):
        from repro.compiler.normalize import normalize_module
        from repro.xquery.parser import parse_query
        from repro.xquery.unparse import Unparsable, unparse

        doc = parse_document(random_tree(20, tags=("a", "b", "c"), seed=seed))
        module = parse_query(query)
        core, _ = normalize_module(module)
        try:
            text = unparse(core)
        except Unparsable:
            return
        assert _outcome(_slow, query, doc) == _outcome(_slow, text, doc), text

    @given(n=st.integers(min_value=5, max_value=60), seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_group_by_partitions_exactly(self, n, seed):
        # groups partition the input: counts sum to the total, keys unique
        doc = parse_document(random_tree(n, tags=("a", "b", "c"), seed=seed))
        counts = execute_query(
            "for $x in //a group by $k := count($x/b) return count($x)",
            context_item=doc).values()
        keys = execute_query(
            "for $x in //a group by $k := count($x/b) return $k",
            context_item=doc).values()
        total = execute_query("count(//a)", context_item=doc).values()[0]
        assert sum(counts) == total
        assert len(keys) == len(set(keys))

    @given(query=QUERY, n=st.integers(min_value=5, max_value=40),
           seed=st.integers(0, 10_000))
    @settings(max_examples=80, deadline=None)
    def test_projection_never_underkeeps(self, query, n, seed):
        from repro.stream.projection import project_text, projection_spec

        xml = random_tree(n, tags=("a", "b", "c"), seed=seed)
        doc = parse_document(xml)
        try:
            compiled = _fast.compile(query)
        except XQueryError:
            return
        spec = projection_spec(compiled.optimized)
        if spec is None:
            return
        pruned = project_text(xml, spec)
        assert _outcome(_fast, query, pruned) == _outcome(_fast, query, doc), query
