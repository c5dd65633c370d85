"""Literal lifting: the texts of one *shape* share one compiled plan.

A client that formats a value into a query string sends texts that
differ only in a literal (``... >= 45000.1``, then ``... >= 51230.7``).
:func:`lift_literals` parses such a text and replaces each liftable
literal by a reference to ``$#lN``, declared ``as xs:T external`` with
the literal's exact type (``#`` names cannot be written in XQuery), so
the compiled plan reads the value from the dynamic context.  The
engine keys its compile cache on the *shape* — the text with each
lifted literal replaced by a per-type placeholder — and binds the
literals at execute (DESIGN.md, "Literal lifting").

What lifts, in the main module body only (never in a function body or
a prolog initialiser): an operand of a value or general comparison, of
arithmetic or of a unary sign, and the operand of ``cast as``,
``castable as`` or of a one-argument ``xs:``/``xdt:`` constructor.
Everything else stays a literal because the compiler reads its value:
a literal predicate (``[3]``), function arguments (``fn:doc`` URIs,
regex flags, ``subsequence`` bounds), constructor content, and bare
``if``/``and``/``or``/typeswitch operands.

One more guard keeps every result and the phase of every error what it
is unlifted.  Constant folding evaluates an operator whose operands
are constants, and a folded constant can decide a branch the rewriter
then drops: ``if (1 = 1) then 2 else foo()`` never compiles ``foo()``.
So a literal lifts only where its value flows into an operator that
folding cannot evaluate — one with an operand no rewrite turns into a
constant (:meth:`_Lifter.constant` errs towards "might").

:func:`scan_literals` finds the literal spans of a text without
parsing it: the engine's pre-parse key (DESIGN.md, "Literal lifting").
"""

from __future__ import annotations

import re
from decimal import Decimal
from typing import NamedTuple

from repro.qname import QName, XDT_NS, XS_NS
from repro.xdm.items import AtomicValue
from repro.xquery import ast
from repro.xquery.parser import Parser
from repro.xquery.unparse import unparse
from repro.xsd import types as T

#: local-name prefix of the variables lifted literals become
PREFIX = "#l"

#: (lifted variable, the literal's value) pairs, in text order
Bindings = tuple[tuple[QName, AtomicValue], ...]

#: kinds no rewrite turns into a constant, whatever their operands
#: (a comparison gets here only as a node or order comparison)
_NEVER_CONSTANT = (ast.ContextItem, ast.RootExpr, ast.Step, ast.Filter,
                   ast.Quantified, ast.InstanceOf, ast.CastExpr,
                   ast.CastableExpr, ast.TreatExpr, ast.RangeExpr, ast.SetOp,
                   ast.ValidateExpr, ast.ElementCtor, ast.AttributeCtor,
                   ast.TextCtor, ast.CommentCtor, ast.PICtor,
                   ast.DocumentCtor, ast.Comparison)


def is_lifted(name: QName) -> bool:
    """Is ``$name`` a lifted literal?"""
    return not name.uri and name.local.startswith(PREFIX) \
        and name.local[len(PREFIX):].isdigit()


def describe(bindings: Bindings) -> list[str]:
    """``$#l0 = 45000.1 (xs:decimal)`` per lifted literal."""
    return [f"${name} = {unparse(ast.Literal(value))} ({value.type.name})"
            for name, value in bindings]


class Lifted(NamedTuple):
    """What :func:`lift_literals` makes of one text."""

    #: each lifted literal a ``$#lN`` reference, each declared external
    module: ast.Module
    #: the values to bind
    bindings: Bindings
    #: the shape key, None when nothing lifted
    shape: tuple | None
    #: the ``(start, end)`` text span of each lifted literal, in order
    spans: tuple[tuple[int, int], ...]


def _placeholder(atomic: T.AtomicType, first: str) -> str:
    """A literal's stand-in in a key: its type and its first character
    when that is a quote or the ``.`` of ``.5``."""
    return atomic.name.local + (first if first in "'\"." else "")


def lift_literals(text: str) -> Lifted:
    """Parse ``text`` and lift its liftable literals.

    Texts with equal shape keys lift to the same module: the key keeps
    every character outside the lifted spans, and each placeholder the
    literal's type and first character, which are all the parser reads
    of a literal it is not inside.
    """
    parser = Parser(text)
    module = parser.parse_module()
    spans = parser.literal_spans
    lifter = _Lifter(module, spans)
    lifter.visit(module.body, lifter.prolog_scope(), False)
    if not lifter.chosen:
        return Lifted(module, (), None, ())
    chosen = sorted(lifter.chosen, key=spans.__getitem__)
    refs: dict[ast.Literal, ast.VarRef] = {}
    shape: list = []
    done = 0
    for n, literal in enumerate(chosen):
        name = QName("", f"{PREFIX}{n}")
        refs[literal] = ast.VarRef(name, literal.pos)
        atomic = literal.value.type
        module.prolog.variables.append(ast.VariableDecl(
            name, ast.SequenceTypeAST("atomic", None, atomic.name), None,
            external=True))
        start, end = spans[literal]
        shape += [text[done:start], _placeholder(atomic, text[start])]
        done = end
    shape.append(text[done:])

    def rebuild(expr: ast.Expr) -> ast.Expr:
        ref = refs.get(expr)
        return ref if ref is not None else expr.with_children(rebuild)

    module.body = rebuild(module.body)
    bindings = tuple((refs[literal].name, literal.value) for literal in chosen)
    return Lifted(module, bindings, tuple(shape),
                  tuple(spans[literal] for literal in chosen))


#: one token of the literal scanner.  Names are matched so that their
#: digits (``a1``, ``$x.5``) are no literal; numbers and strings follow
#: the parser's lexing (``_parse_numeric_literal``: ``1.`` is a decimal
#: unless a name starts after the dot; ``_string_literal_value``: a
#: doubled quote escapes one).  A quoted run holding ``&``, ``{`` or
#: ``}`` is no string token (an entity's value is not its text; an
#: attribute value template holds expressions): its quote is stepped
#: over and the scan goes on inside.
_TOKEN = re.compile(r"""
    [A-Za-z_][\w.\-]*
  | (?P<number>(?:\d+(?:\.\d+|\.(?![A-Za-z_]))?|\.\d+)(?P<exp>[eE][+-]?\d+)?)
  | (?P<string>"(?:[^"&{}]|"")*"|'(?:[^'&{}]|'')*')
""", re.VERBOSE | re.ASCII)


class Scan(NamedTuple):
    """What :func:`scan_literals` makes of one text."""

    #: the pre-parse key: ``(None, segment, placeholder, ..., segment)``
    #: — the leading None keeps it apart from every text (a str) and
    #: every shape key (strs only)
    key: tuple
    #: the ``(start, end)`` text span of each literal token, in order
    spans: tuple[tuple[int, int], ...]


def scan_literals(text: str) -> Scan | None:
    """The string and numeric literal tokens of ``text``, found by one
    regex pass instead of a parse; None when the text holds a comment
    or a non-ASCII character (where the regex classes and the parser's
    ``str.isalpha`` part ways).

    The scan does not know where it is: a quote or digit in
    constructor content is a token too, and a lone quote is stepped
    over.  So a token is a literal only where the parser put one at
    the same span; the engine stores a pre-parse entry only when every
    lifted literal is such a token, and matches every other token byte
    for byte (DESIGN.md, "Literal lifting").
    """
    if "(:" in text or not text.isascii():
        return None
    key: list = [None]
    spans = []
    done = 0
    for match in _TOKEN.finditer(text):
        kind = match.lastgroup
        if kind is None:  # a name
            continue
        start, end = match.span()
        if kind == "string":
            atomic = T.XS_STRING
        elif match.group("exp"):
            atomic = T.XS_DOUBLE
        elif "." in match.group():
            atomic = T.XS_DECIMAL
        else:
            atomic = T.XS_INTEGER
        key += [text[done:start], _placeholder(atomic, text[start])]
        spans.append((start, end))
        done = end
    key.append(text[done:])
    return Scan(tuple(key), tuple(spans))


def literal_value(token: str) -> AtomicValue:
    """The value the parser gives the literal ``token`` (a string or
    numeric token of :func:`scan_literals`)."""
    first = token[0]
    if first in "'\"":
        return AtomicValue(token[1:-1].replace(first + first, first),
                           T.XS_STRING)
    if "e" in token or "E" in token:
        return AtomicValue(float(token), T.XS_DOUBLE)
    if "." in token:
        return AtomicValue(Decimal(token), T.XS_DECIMAL)
    return AtomicValue(int(token), T.XS_INTEGER)


def _folds(expr: ast.Expr) -> bool:
    """Does constant folding evaluate ``expr`` once its operands are
    constants?"""
    return isinstance(expr, (ast.Arithmetic, ast.UnaryExpr)) or (
        isinstance(expr, ast.Comparison)
        and expr.family in ("value", "general"))


def _is_cast(expr: ast.Expr) -> bool:
    return isinstance(expr, (ast.CastExpr, ast.CastableExpr)) or (
        isinstance(expr, ast.FunctionCall) and len(expr.args) == 1
        and expr.name.uri in (XS_NS, XDT_NS))


class _Lifter:
    """One walk over a parsed main body: which literals lift.

    A *scope* maps each variable in scope to whether rewriting may
    substitute a constant for it (a ``let`` of one, a typeswitch case
    over one); variables it does not name — external, application and
    catalog ones — never are."""

    def __init__(self, module: ast.Module, spans: dict):
        self.module = module
        self.spans = spans
        #: user functions, which inlining may turn into a constant
        self.functions = {(d.name, d.arity) for d in module.prolog.functions}
        self.chosen: list[ast.Literal] = []
        self._memo: dict[int, bool] = {}

    def prolog_scope(self) -> dict[QName, bool]:
        """The main body's scope: a prolog variable is constant when its
        initialiser may be (assuming so of every other one first)."""
        variables = self.module.prolog.variables
        scope = {var.name: var.value is not None for var in variables}
        return {var.name: var.value is not None
                and self.constant(var.value, scope) for var in variables}

    # -- might rewriting make it a constant? ---------------------------------

    def constant(self, expr: ast.Expr, scope: dict) -> bool:
        key = id(expr)
        if key not in self._memo:
            self._memo[key] = self._constant(expr, scope)
        return self._memo[key]

    def _constant(self, expr: ast.Expr, scope: dict) -> bool:
        if isinstance(expr, (ast.Literal, ast.EmptySequence)):
            return True
        if isinstance(expr, ast.VarRef):
            return scope.get(expr.name, False)
        if _folds(expr):
            return all(self.constant(c, scope) for c in expr.children())
        if isinstance(expr, ast.FunctionCall):
            return (expr.name, len(expr.args)) in self.functions
        if isinstance(expr, _NEVER_CONSTANT):
            return False
        if isinstance(expr, ast.IfExpr):
            return self.constant(expr.cond, scope) and (
                self.constant(expr.then, scope)
                or self.constant(expr.orelse, scope))
        if isinstance(expr, (ast.AndExpr, ast.OrExpr)):
            return self.constant(expr.left, scope) \
                or self.constant(expr.right, scope)
        if isinstance(expr, ast.PathExpr):  # ``E/self::node()`` is E
            return self.constant(expr.left, scope)
        if isinstance(expr, ast.Typeswitch):
            return self.constant(expr.operand, scope) and any(
                self.constant(case.body, inner)
                for case, inner in self._cases(expr, scope))
        if isinstance(expr, ast.FLWOR):
            _, clauses, returned = self._flwor_scopes(expr, scope)
            return self.constant(expr.ret, returned) or (
                expr.where is not None
                and self.constant(expr.where, clauses))
        # sequences, ordered{}, and whatever else: only from constants
        return all(self.constant(c, scope) for c in expr.children())

    def _cases(self, expr: ast.Typeswitch, scope: dict):
        operand = self.constant(expr.operand, scope)
        for case in [*expr.cases, expr.default]:
            inner = scope if case.var is None \
                else {**scope, case.var: operand}
            yield case, inner

    def _flwor_scopes(self, expr: ast.FLWOR, scope: dict):
        """The scope each clause's expression sees, the scope of the
        where clause and group keys, and that of order by and return
        (after ``group by``)."""
        before = []
        inner = scope
        for clause in expr.clauses:
            before.append(inner)
            flag = self.constant(clause.expr, inner)
            inner = {**inner, clause.var: flag}
            if isinstance(clause, ast.ForClause) and clause.pos_var:
                inner[clause.pos_var] = flag
        returned = dict(inner)
        for var, key in expr.group:
            returned[var] = self.constant(key, inner)
        return before, inner, returned

    # -- the walk --------------------------------------------------------------

    def visit(self, expr: ast.Expr, scope: dict, safe: bool) -> None:
        """Collect the literals under ``expr`` that lift; ``safe``:
        ``expr``'s value flows only into operators folding never
        evaluates."""
        if isinstance(expr, ast.Literal):
            if safe and expr in self.spans:
                self.chosen.append(expr)
            return
        if _folds(expr):
            safe = safe or not self.constant(expr, scope)
            for child in expr.children():
                self.visit(child, scope, safe)
            return
        if _is_cast(expr):
            for child in expr.children():
                self.visit(child, scope, True)
            return
        if isinstance(expr, ast.FLWOR):
            before, clauses, returned = self._flwor_scopes(expr, scope)
            for clause, inner in zip(expr.clauses, before):
                self.visit(clause.expr, inner, False)
            for sub in [expr.where] if expr.where is not None else []:
                self.visit(sub, clauses, False)
            for _var, key in expr.group:
                self.visit(key, clauses, False)
            for spec in expr.order:
                self.visit(spec.expr, returned, False)
            self.visit(expr.ret, returned, False)
            return
        if isinstance(expr, ast.Quantified):
            self.visit(expr.seq, scope, False)
            inner = {**scope, expr.var: self.constant(expr.seq, scope)}
            self.visit(expr.cond, inner, False)
            return
        if isinstance(expr, ast.Typeswitch):
            self.visit(expr.operand, scope, False)
            for case, inner in self._cases(expr, scope):
                self.visit(case.body, inner, False)
            return
        for child in expr.children():
            self.visit(child, scope, False)
