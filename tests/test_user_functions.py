"""The user-function calling convention, on both executors.

A function body sees its parameters and the prolog's variables — never
a variable of the caller, and never the caller's focus — whether
normalization inlines the call or keeps it (recursion, or a body that
reads the focus).  The source-vs-reference differential cannot catch a
mistake here that both executors share, so every case asserts the
expected answer or error code, on ``source`` (:class:`Engine`) and
``closure`` (:class:`ReferenceEngine`), with the optimizer on and off.
"""

from __future__ import annotations

import pytest

import repro
from repro import Engine, ExecutionOptions
from repro.compiler.reference import ReferenceEngine
from repro.xquery import ast

#: the two executors, by the label the test ids carry
EXECUTORS = {"source": Engine, "closure": ReferenceEngine}

#: (executor label, optimize)
CONFIGS = [(label, optimize) for label in EXECUTORS
           for optimize in (True, False)]


def _config_id(config) -> str:
    label, optimize = config
    return f"{label}-opt{int(optimize)}"


def _engine(config, **wiring) -> Engine:
    label, optimize = config
    return EXECUTORS[label](options=ExecutionOptions(optimize=optimize),
                            **wiring)


def _outcome(config, query, **execute):
    try:
        result = _engine(config).compile(
            query, variables=tuple(execute.get("variables") or ())) \
            .execute(**execute)
        return result.serialize()
    except Exception as exc:  # noqa: BLE001 - compared by code
        return getattr(exc, "code", type(exc).__name__)


REC = ("declare function local:f($n) { if ($n le 0) then 0 "
       "else $n + local:f($n - 1) }; ")

#: (query, expected serialization or error code)
CASES = [
    # arguments bind to fresh parameter names: an argument reading a
    # variable named like another parameter is not captured
    ("declare function local:sw($a, $b) { $a - $b }; "
     "let $b := 10, $a := 3 return local:sw($b, $a)", "7"),
    ("declare function local:f($x, $y) { ($x, $y) }; "
     "for $x in 1, $y in 2 return local:f($y, $x)", "2 1"),
    # ... nor by a variable the body binds
    ("declare function local:f($a) { for $y in (1, 2) return $a }; "
     "for $y in (5) return local:f($y)", "5 5"),
    ("for $b in (7) return let $a := $b return for $b in (1, 2) return $a",
     "7 7"),
    # a body's free variables are the prolog's, inlined or not
    ("declare variable $g := 1; declare function local:f() { $g }; "
     "for $g in (5) return local:f()", "1"),
    ("declare variable $g := 1; declare function local:f($n) "
     "{ if ($n le 0) then $g else local:f($n - 1) }; local:f(2)", "1"),
    ("declare variable $g := 1; declare function local:f($n) "
     "{ if ($n le 0) then $g else local:f($n - 1) }; "
     "for $g in (5) return local:f(2)", "1"),
    ("declare variable $g := <a/>; declare function local:f($n) "
     "{ if ($n le 0) then $g else local:f($n - 1) }; "
     "local:f(3) is $g", "true"),
    # through a function it calls, mutually recursive
    ("declare variable $g := 10; "
     "declare function local:a($n) { if ($n le 0) then $g "
     "else local:b($n - 1) }; "
     "declare function local:b($n) { local:a($n) + 1 }; "
     "for $g in (0) return local:a(3)", "13"),
    # the focus is undefined in a function body
    ("declare function local:g() { count(.//a) }; local:g()", "XPDY0002"),
    ("declare function local:g($n) { if ($n le 0) then name(.) "
     "else local:g($n - 1) }; local:g(2)", "XPDY0002"),
    ("declare function local:g($e) { count($e//a) }; local:g(.)", "2"),
    # recursion deeper than the interpreter's stack is an implementation
    # limit, not a crash
    (REC + "local:f(100000)", "XPDY0130"),
    (REC + "local:f(100)", "5050"),
]


@pytest.mark.parametrize("config", CONFIGS, ids=_config_id)
@pytest.mark.parametrize("query,expected", CASES)
def test_calling_convention(config, query, expected):
    assert _outcome(config, query,
                    context_item="<r><a/><a/></r>") == expected


@pytest.mark.parametrize("config", CONFIGS, ids=_config_id)
def test_external_variables_are_the_prologs(config):
    query = ("declare variable $x external; "
             "declare function local:f() { $x }; "
             "declare function local:r($n) { if ($n le 0) then $x "
             "else local:r($n - 1) }; "
             "for $x in (5) return (local:f(), local:r(2))")
    assert _outcome(config, query, variables={"x": 1}) == "1 1"


#: (query, expected) over a catalog of two documents, three persons
CATALOG_CASES = [
    # collection() and string($e) read no focus: the body is inlined
    ("declare function local:all() { collection()//person }; "
     "count(local:all())", "3"),
    ("declare function local:nm($e) { string($e/name) }; "
     "local:nm(($bib//person)[1])", "A"),
    # a kept (recursive) body's collection() and catalog variables bind
    ("declare function local:c($n) { if ($n le 0) then "
     "count(collection()//person) else local:c($n - 1) }; local:c(2)", "3"),
    ("declare function local:r($n) { if ($n le 0) then "
     "count($bib//person) else local:r($n - 1) }; local:r(2)", "2"),
]


@pytest.mark.parametrize("config", CONFIGS, ids=_config_id)
@pytest.mark.parametrize("query,expected", CATALOG_CASES)
def test_function_bodies_read_the_catalog(config, query, expected):
    catalog = repro.catalog()
    catalog.add("bib", "<site><person><name>A</name></person>"
                       "<person><name>B</name></person></site>")
    catalog.add("more", "<site><person><name>C</name></person></site>")
    compiled = _engine(config, catalog=catalog).compile(query)
    assert compiled.execute().serialize() == expected
    recursive = "local:c(" in query or "local:r(" in query
    kept = [e for e in compiled.optimized.walk()
            if isinstance(e, ast.FunctionCall) and e.decl is not None]
    assert bool(kept) == recursive


@pytest.mark.parametrize("label", ["source", "closure"])
def test_the_limit_leaves_the_engine_usable(label):
    engine = EXECUTORS[label]()
    compiled = engine.compile(REC + "local:f($n)", variables=("n",))
    for _ in range(2):
        with pytest.raises(Exception) as info:
            compiled.execute(variables={"n": 100000}).serialize()
        assert getattr(info.value, "code", None) == "XPDY0130"
    assert compiled.execute(variables={"n": 10}).serialize() == "55"
