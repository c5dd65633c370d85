"""The generated code as a loop nest, and the one printer that writes it.

:class:`~repro.compiler.pysource.SourcePlanCompiler` builds each
generated function as a tree, not as text: a :class:`Func` holds a
body, and a body is a list of plain statement strings, :data:`POLL`
markers and compound nodes — :class:`Block` (``if``/``else``/
``except``), :class:`Loop` (whose ``pre`` statements run once per
activation, just before its header) and :class:`Try`.  What the
emitter knows about the code — the loop a variable was bound under,
where an invariant is held — refers to these nodes.

:func:`print_module` writes the module once: indentation, ``pass`` for
an empty body, a poll only where the statement before it is not one,
each ``pre`` before its loop header, and every function's prologue and
tail.  It also keeps every function within CPython's limits
(:data:`MAX_BLOCKS`, :data:`MAX_INDENT`): a body that would open a
level past either moves, whole, into a closure defined at the top of
the function and is called in its place — with ``yield from`` when it
yields.  The emitter writes no ``break`` or ``continue`` and ``return``
only in a tail, so any body may move.  Locals the closures share with
the rest of the function become ``nonlocal``, found by :mod:`symtable`:
Python's own scope analysis of the printed text.
"""

from __future__ import annotations

import symtable

#: statically nested loop/try/except blocks CPython compiles per function
MAX_BLOCKS = 20
#: indentation levels the tokenizer accepts (``def`` at 0, lines to 99)
MAX_INDENT = 99

#: every generated function binds the cancellation token first ...
PROLOGUE = "_tok = dctx._shared.cancellation"
#: ... and is a generator, whatever its body yields
TAIL = ("return", "yield None")


class Func:
    """A generated generator function of the module."""

    __slots__ = ("name", "params", "body")
    #: no loop encloses a function (see :attr:`Loop.outer`)
    outer = None

    def __init__(self, name: str, params: list[str]):
        self.name = name
        self.params = params
        self.body: list = []


class Block:
    """``header`` over an indented body (``if``, ``else``, ``except``);
    ``opens``: the nested blocks CPython counts for the body — two for a
    named ``except`` handler (the handler, the cleanup of its name)."""

    __slots__ = ("header", "body", "opens")

    def __init__(self, header: str, opens: int = 0):
        self.header = header
        self.body: list = []
        self.opens = opens


class Loop(Block):
    """A ``for``/``while`` loop; ``outer`` is the Loop (or Func) open
    around it, ``pre`` what runs once per activation."""

    __slots__ = ("outer", "pre")

    def __init__(self, header: str, outer):
        super().__init__(header, 1)
        self.outer = outer
        self.pre: list[str] = []


class Try(Block):
    """``try:`` — its handler is the ``except`` Block after it."""

    __slots__ = ()

    def __init__(self):
        super().__init__("try:", 1)


#: a cancellation poll (free when no token is attached)
POLL = Block("if _tok is not None:")
POLL.body.append("_tok.check()")


def print_module(funcs: list[Func]) -> str:
    """The module text of ``funcs``, in order.  Outlining moves bodies
    in place: a tree is printed once."""
    out: list[str] = []
    for func in funcs:
        header = f"def {func.name}({', '.join(func.params)}):"
        body = [PROLOGUE, *func.body, *TAIL]
        # every moved body is a closure ``_nest<k>`` defined at the top
        # (bodies moved out of a closure too: none nests in another)
        closures: list[tuple[str, list]] = []
        _cut(body, 1, 0, closures)
        for _name, moved in closures:  # grows as moved bodies are cut again
            _cut(moved, 2, 0, closures)
        if closures:
            out.extend(_outline(header, body, closures))
        else:
            out.append(header)
            _write(body, 1, out)
        out.append("")
    return "\n".join(out)


def _write(body: list, indent: int, out: list[str]) -> None:
    """Append ``body``'s lines, ``indent`` levels in."""
    pad = "    " * indent
    prev = None
    for stmt in body:
        if type(stmt) is str:
            out.append(pad + stmt)
        elif stmt is not POLL or prev is not POLL:
            if type(stmt) is Loop:
                out.extend(pad + line for line in stmt.pre)
            out.append(pad + stmt.header)
            if stmt.body:
                _write(stmt.body, indent + 1, out)
            else:
                out.append(pad + "    pass")
        prev = stmt


def _outline(header: str, body: list, closures: list) -> list[str]:
    """The lines of a function whose moved bodies are ``closures``."""
    def lines(nonlocals: dict, prebound: list) -> list[str]:
        out = [header, *(f"    {name} = None" for name in prebound)]
        for name, moved in closures:
            out.append(f"    def {name}():")
            if name in nonlocals:
                out.append(f"        nonlocal {', '.join(nonlocals[name])}")
            _write(moved, 2, out)
        _write(body, 1, out)
        return out

    return lines(*_shared("\n".join(lines({}, []))))


def _cut(body: list, indent: int, blocks: int, closures: list) -> None:
    """Move into ``closures`` each body, ``body`` or one nested in it,
    holding a statement whose body would open a level past a limit
    (``indent`` levels in, ``blocks`` nested blocks open around it)."""
    if any(type(stmt) is not str and (indent >= MAX_INDENT
                                      or blocks + stmt.opens > MAX_BLOCKS)
           for stmt in body):
        name = f"_nest{len(closures) + 1}"
        closures.append((name, body[:]))
        body[:] = [f"yield from {name}()" if _yields(body) else f"{name}()"]
        return
    for stmt in body:
        if type(stmt) is not str:
            _cut(stmt.body, indent + 1, blocks + stmt.opens, closures)


def _yields(body: list) -> bool:
    stack = [body]
    while stack:
        for stmt in stack.pop():
            if type(stmt) is not str:
                stack.append(stmt.body)
            elif stmt.startswith("yield "):
                return True
    return False


def _shared(text: str) -> tuple[dict[str, list[str]], list[str]]:
    """Which locals of the function in ``text`` its closures share:
    ``({closure: names it assigns and declares nonlocal}, names the
    function binds to None first)`` — the function holds every local
    more than one scope uses, and binds first one that only closures
    assign, so each ``nonlocal`` finds it."""
    function = symtable.symtable(text, "<loopnest>", "exec").get_children()[0]
    # the closures only: a comprehension is a child scope too, with
    # locals (``.0``, its targets) the function must not bind
    closures = [table for table in function.get_children()
                if table.get_name().startswith("_nest")]
    uses: dict[str, list] = {}
    for table in (function, *closures):
        for symbol in table.get_symbols():
            bound = symbol.is_assigned() or symbol.is_parameter()
            if bound or symbol.is_referenced():
                uses.setdefault(symbol.get_name(), []).append((table, bound))
    nonlocals: dict[str, list[str]] = {}
    prebound = []
    for name, where in sorted(uses.items()):
        binders = [table for table, bound in where if bound]
        if len(where) < 2 or not binders:
            continue  # one scope's own, or a global
        for table in binders:
            if table is not function:
                nonlocals.setdefault(table.get_name(), []).append(name)
        if function not in binders:
            prebound.append(name)
    return nonlocals, prebound
