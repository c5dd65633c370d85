"""The loop-nest printer (:mod:`repro.compiler.loopnest`).

Unit tests of what it writes — indentation, ``pass``, poll collapse,
``Loop.pre`` placement, the prologue and tail — and of outlining: nests
past CPython's 20 blocks / 100 indentation levels, compiled and run,
with moved parts that assign locals read after them and that yield.
"""

from __future__ import annotations

from types import SimpleNamespace

from repro.compiler.loopnest import (
    MAX_BLOCKS,
    MAX_INDENT,
    POLL,
    Block,
    Func,
    Loop,
    Try,
    print_module,
)


def _func(name="f", params=("dctx",)):
    return Func(name, list(params))


def _load(func: Func):
    """Print ``func`` (once: outlining moves bodies in place) and
    compile it: ``(text, run)``, ``run(*args)`` draining its
    generator."""
    text = print_module([func])
    namespace: dict = {}
    exec(compile(text, "<loopnest-test>", "exec"), namespace)
    dctx = SimpleNamespace(_shared=SimpleNamespace(cancellation=None))
    return text, lambda *args: list(namespace[func.name](dctx, *args))


def _depth(text: str) -> int:
    return max((len(line) - len(line.lstrip(" "))) // 4
               for line in text.splitlines() if line.strip())


class TestPrinter:
    def test_prologue_indentation_and_tail(self):
        func = _func("g", ["dctx", "a"])
        outer = Block("if a:")
        outer.body.append("x = 1")
        inner = Block("else:")
        inner.body.append("x = 2")
        func.body += [outer, inner, "yield x"]
        assert print_module([func]) == (
            "def g(dctx, a):\n"
            "    _tok = dctx._shared.cancellation\n"
            "    if a:\n"
            "        x = 1\n"
            "    else:\n"
            "        x = 2\n"
            "    yield x\n"
            "    return\n"
            "    yield None\n")

    def test_functions_print_in_order(self):
        text = print_module([_func("a"), _func("b")])
        assert text.index("def a(") < text.index("def b(")
        assert text.endswith("    yield None\n")

    def test_empty_bodies_pass(self):
        func = _func()
        func.body += [Block("if x:"), Loop("for y in z:", func)]
        lines = print_module([func]).splitlines()
        assert lines[2:6] == ["    if x:", "        pass",
                              "    for y in z:", "        pass"]

    def test_a_poll_directly_after_a_poll_is_dropped(self):
        func = _func()
        block = Block("if x:")
        block.body += [POLL, "y = 1", POLL]
        func.body += [POLL, POLL, block, POLL]
        text = print_module([func])
        assert text.count("_tok.check()") == 4
        assert "    if _tok is not None:\n        _tok.check()\n    if x:" \
            in text

    def test_pre_runs_before_its_header(self):
        func = _func()
        outer = Loop("for a in b:", func)
        inner = Loop("for c in d:", outer)
        inner.body.append("yield c")
        outer.body += ["e = 1", inner]
        outer.pre.append("h = _ABSENT")
        inner.pre.append("k = _ABSENT")
        func.body.append(outer)
        assert print_module([func]).splitlines()[2:8] == [
            "    h = _ABSENT",
            "    for a in b:",
            "        e = 1",
            "        k = _ABSENT",
            "        for c in d:",
            "            yield c"]

    def test_try_and_its_handler(self):
        func = _func()
        node, handler = Try(), Block("except ValueError as e:", 2)
        node.body.append("yield int('x')")
        handler.body.append("yield str(e)")
        func.body += [node, handler]
        _text, run = _load(func)
        assert run() == ["invalid literal for int() with base 10: 'x'"]

    def test_shallow_functions_define_no_closure(self):
        func = _func()
        body = func.body
        for level in range(MAX_BLOCKS):
            loop = Loop(f"for i{level} in (1,):", func)
            body.append(loop)
            body = loop.body
        body.append("yield i0")
        text, run = _load(func)
        assert "def _nest" not in text
        assert run() == [1]


def _loop_nest(depth: int) -> Func:
    """``depth`` nested loops, two iterations at the top: each level
    counts its entries into ``n<level>`` (initialised in the loop's
    ``pre`` or at the top) and the innermost yields and records itself;
    after the nest the function yields what the moved parts assigned."""
    func = _func()
    func.body.append("total = 0")
    body, outer = func.body, func
    for level in range(depth):
        loop = Loop(f"for i{level} in {(0, 1) if level == 0 else (0,)}:",
                    outer)
        loop.pre.append(f"n{level} = 0")
        loop.body += [f"n{level} += 1", POLL]
        body.append(loop)
        body, outer = loop.body, loop
    body += ["total += 1", "last = i0", "yield ('inner', i0)"]
    func.body.append(f"yield (total, last, n0, n{depth - 1})")
    return func


def _if_nest(depth: int) -> Func:
    """``if x == 0: ... else: if x == 1: ...`` ``depth`` levels deep:
    each branch assigns ``hit`` (read after the nest), the innermost
    else yields, and a try/except sits at the bottom."""
    func = _func(params=("dctx", "x"))
    body = func.body
    for level in range(depth):
        then = Block(f"if x == {level}:")
        then.body.append(f"hit = {level}")
        orelse = Block("else:")
        body += [then, orelse]
        body = orelse.body
    guard, handler = Try(), Block("except ZeroDivisionError as e:", 2)
    guard.body.append("hit = 1 // 0")
    handler.body += [f"hit = {depth}", "yield 'innermost'"]
    body += [guard, handler]
    func.body.append("yield hit")
    return func


class TestOutlining:
    def test_deep_loop_nest_runs(self):
        text, run = _load(_loop_nest(45))
        assert "def _nest1():" in text and "yield from _nest" in text
        assert "nonlocal" in text
        assert run() == [("inner", 0), ("inner", 1), (2, 1, 2, 1)]

    def test_deep_if_nest_runs(self):
        text, run = _load(_if_nest(250))
        assert _depth(text) <= MAX_INDENT
        assert text.count("def _nest") == 2  # 98 + 97 + 96 levels
        for x, expected in ((0, [0]), (98, [98]), (99, [99]), (249, [249]),
                            (250, ["innermost", 250]),
                            (-1, ["innermost", 250])):
            assert run(x) == expected, x

    def test_a_moved_part_that_does_not_yield_is_a_plain_call(self):
        func = _func()
        body = func.body
        for level in range(MAX_BLOCKS + 2):
            loop = Loop(f"for i{level} in (1,):", func)
            body.append(loop)
            body = loop.body
        body.append("found = i0 + 1")
        func.body.append("yield found")
        text, run = _load(func)
        assert "yield from _nest" not in text
        assert "        nonlocal found" in text
        assert run() == [2]

    def test_a_named_handler_counts_two_blocks(self):
        # 18 loops + the handler's 2 + one loop in it: 21
        func = _func()
        body = func.body
        for level in range(MAX_BLOCKS - 2):
            loop = Loop(f"for i{level} in (1,):", func)
            body.append(loop)
            body = loop.body
        guard, handler = Try(), Block("except KeyError as e:", 2)
        guard.body.append("{}[1]")
        inner = Loop("for j in e.args:", func)
        inner.body.append("yield j")
        handler.body.append(inner)
        body += [guard, handler]
        text, run = _load(func)
        assert "def _nest1():" in text
        assert run() == [1]

    def test_locals_of_the_moved_part_stay_its_own(self):
        func = _func()
        body = func.body
        for level in range(MAX_BLOCKS + 1):
            loop = Loop(f"for i{level} in (1,):", func)
            body.append(loop)
            body = loop.body
        body += ["scratch = 3", "yield scratch"]
        text, run = _load(func)
        assert "nonlocal" not in text
        assert run() == [3]

    def test_a_local_only_the_closures_share_is_held_by_their_function(self):
        # each branch's deep body assigns `out`; the function only
        # reads it: it binds `out` first so both closures reach it
        func = _func(params=("dctx", "x"))
        then, orelse = Block("if x:"), Block("else:")
        for block, value in ((then, 1), (orelse, 2)):
            body = block.body
            for level in range(MAX_BLOCKS + 1):
                loop = Loop(f"for i{level} in (1,):", func)
                body.append(loop)
                body = loop.body
            body.append(f"out = {value}")
        func.body += [then, orelse, "yield out"]
        text, run = _load(func)
        assert "    out = None" in text
        assert run(True) == [1]
        assert run(False) == [2]

    def test_comprehensions_are_not_closures(self):
        # two comprehensions in the function share their target and
        # their implicit `.0`: neither is a local of the function
        func = _func()
        func.body += ["a = [r for r in (1, 2)]", "b = [r * 2 for r in a]"]
        body = func.body
        for level in range(MAX_BLOCKS + 1):
            loop = Loop(f"for i{level} in b[:1]:", func)
            body.append(loop)
            body = loop.body
        body.append("c = [r + i0 for r in a]")
        func.body.append("yield (a, b, c)")
        text, run = _load(func)
        assert "def _nest1():" in text
        assert "    c = None" in text and "r = None" not in text
        assert run() == [([1, 2], [2, 4], [3, 4])]
