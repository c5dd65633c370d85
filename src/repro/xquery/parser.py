"""Recursive-descent XQuery parser.

One pass over the source text, producing the expression tree of
:mod:`repro.xquery.ast`.  The scanner and parser are fused because
XQuery's grammar switches lexical modes inside direct element
constructors (XML syntax with ``{...}`` escapes embedded in query
syntax); a token-stream design needs mode flags everywhere, while a
scanner-driven design just calls a different scanning routine.

XQuery has no reserved words ("for" is a fine element name), so
keywords are recognized positionally, with backtracking marks for the
genuinely ambiguous spots (computed constructors, ``validate {``).

The supported grammar is the large subset inventoried in DESIGN.md:
prolog declarations, FLWOR with stable order-by, quantifiers,
typeswitch, if/then/else, the four comparison families, arithmetic,
set operators, full path expressions with predicates, direct and
computed constructors, type operators, and ``validate``.
"""

from __future__ import annotations

from decimal import Decimal

from repro.errors import ParseError
from repro.qname import FN_NS, NamespaceBindings, QName
from repro.xdm.items import AtomicValue
from repro.xquery import ast
from repro.xsd import types as T

_WS = " \t\r\n"
_BUILTIN_ENTITIES = {"lt": "<", "gt": ">", "amp": "&", "quot": '"', "apos": "'"}

_AXES = (
    "child", "descendant-or-self", "descendant", "attribute", "self",
    "ancestor-or-self", "ancestor", "parent", "following-sibling",
    "preceding-sibling", "following", "preceding",
)

_VALUE_COMP = ("eq", "ne", "lt", "le", "gt", "ge")
_GENERAL_COMP = ("!=", "<=", ">=", "=", "<", ">")  # longest match first
_NODE_COMP = ("isnot", "is")
_ORDER_COMP = ("<<", ">>")


def _is_name_start(ch: str) -> bool:
    return ch.isalpha() or ch == "_"


def _is_name_char(ch: str) -> bool:
    return ch.isalnum() or ch in "_-."


class _Scanner:
    """Character scanner with marks, line tracking, and QName support."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.length = len(text)

    # -- position / errors ----------------------------------------------------

    def location(self, pos: int | None = None) -> tuple[int, int]:
        p = self.pos if pos is None else pos
        line = self.text.count("\n", 0, p) + 1
        col = p - (self.text.rfind("\n", 0, p) + 1) + 1
        return (line, col)

    def error(self, message: str) -> ParseError:
        line, col = self.location()
        return ParseError(message, line, col)

    def mark(self) -> int:
        return self.pos

    def reset(self, mark: int) -> None:
        self.pos = mark

    # -- whitespace / comments ---------------------------------------------

    def skip_ws(self) -> None:
        text = self.text
        while self.pos < self.length:
            ch = text[self.pos]
            if ch in _WS:
                self.pos += 1
            elif text.startswith("(:", self.pos):
                depth = 1
                self.pos += 2
                while self.pos < self.length and depth:
                    if text.startswith("(:", self.pos):
                        depth += 1
                        self.pos += 2
                    elif text.startswith(":)", self.pos):
                        depth -= 1
                        self.pos += 2
                    else:
                        self.pos += 1
                if depth:
                    raise self.error("unterminated comment '(:'")
            else:
                return

    # -- matching ---------------------------------------------------------------

    def peek(self, offset: int = 0) -> str:
        i = self.pos + offset
        return self.text[i] if i < self.length else ""

    def startswith(self, literal: str) -> bool:
        return self.text.startswith(literal, self.pos)

    def match(self, literal: str) -> bool:
        """Consume ``literal`` if present (after whitespace)."""
        self.skip_ws()
        if self.text.startswith(literal, self.pos):
            self.pos += len(literal)
            return True
        return False

    def expect(self, literal: str) -> None:
        if not self.match(literal):
            raise self.error(f"expected {literal!r}")

    def match_word(self, word: str) -> bool:
        """Consume ``word`` only if followed by a non-name character."""
        self.skip_ws()
        if not self.text.startswith(word, self.pos):
            return False
        end = self.pos + len(word)
        if end < self.length and _is_name_char(self.text[end]):
            return False
        self.pos = end
        return True

    def peek_word(self, word: str) -> bool:
        mark = self.pos
        ok = self.match_word(word)
        self.pos = mark
        return ok

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= self.length

    # -- names ----------------------------------------------------------------

    def scan_ncname(self) -> str:
        self.skip_ws()
        if self.pos >= self.length or not _is_name_start(self.text[self.pos]):
            raise self.error("expected a name")
        start = self.pos
        self.pos += 1
        while self.pos < self.length and _is_name_char(self.text[self.pos]):
            self.pos += 1
        return self.text[start: self.pos]

    def scan_lexical_qname(self) -> str:
        """``ncname`` or ``ncname:ncname`` (no whitespace around ':')."""
        name = self.scan_ncname()
        if self.peek() == ":" and _is_name_start(self.peek(1)):
            self.pos += 1
            return name + ":" + self.scan_ncname()
        return name

    def at_name(self) -> bool:
        self.skip_ws()
        return self.pos < self.length and _is_name_start(self.text[self.pos])


class Parser:
    """Parses one main module."""

    def __init__(self, text: str):
        self.s = _Scanner(text)
        self.ns = NamespaceBindings()
        self.prolog = ast.Prolog()
        #: the ``(start, end)`` text span of every string and numeric
        #: literal written in expression position (not constructor
        #: content or prolog URIs): what literal lifting may replace
        self.literal_spans: dict[ast.Literal, tuple[int, int]] = {}

    # =====================================================================
    # Module & prolog
    # =====================================================================

    def parse_module(self) -> ast.Module:
        self._parse_prolog()
        body = self.parse_expr()
        self.s.skip_ws()
        if not self.s.at_end():
            raise self.s.error(f"unexpected trailing input {self.s.peek()!r}")
        return ast.Module(self.prolog, body, self.s.text)

    def _parse_prolog(self) -> None:
        s = self.s
        while True:
            mark = s.mark()
            if s.match_word("declare"):
                if s.match_word("namespace"):
                    prefix = s.scan_ncname()
                    s.expect("=")
                    uri = self._string_literal_value()
                    self.prolog.namespaces[prefix] = uri
                    self.ns.bind(prefix, uri)
                    s.match(";")
                elif s.match_word("default"):
                    if s.match_word("element"):
                        s.expect("namespace")
                        uri = self._string_literal_value()
                        self.prolog.default_element_ns = uri
                    elif s.match_word("function"):
                        s.expect("namespace")
                        uri = self._string_literal_value()
                        self.prolog.default_function_ns = uri
                    else:
                        raise s.error("expected 'element' or 'function' after 'default'")
                    s.match(";")
                elif s.match_word("variable"):
                    s.expect("$")
                    name = self._var_name()
                    type_decl = None
                    if s.match_word("as"):
                        type_decl = self.parse_sequence_type()
                    if s.match_word("external"):
                        self.prolog.variables.append(
                            ast.VariableDecl(name, type_decl, None, external=True))
                    elif s.match(":="):
                        value = self.parse_expr_single()
                        self.prolog.variables.append(
                            ast.VariableDecl(name, type_decl, value))
                    elif s.match("{"):
                        value = self.parse_expr()
                        s.expect("}")
                        self.prolog.variables.append(
                            ast.VariableDecl(name, type_decl, value))
                    else:
                        raise s.error("expected ':=', '{' or 'external' in variable declaration")
                    s.match(";")
                elif s.match_word("function"):
                    self._parse_function_decl()
                    s.match(";")
                else:
                    # not a prolog declaration we know: back out, let the
                    # body parser handle it (or fail with a better message)
                    s.reset(mark)
                    return
            elif s.match_word("import"):
                if s.match_word("schema"):
                    # "import schema namespace p = 'uri';" — recorded, the
                    # engine binds actual Schema objects at compile time
                    if s.match_word("namespace"):
                        prefix = s.scan_ncname()
                        s.expect("=")
                        uri = self._string_literal_value()
                        self.ns.bind(prefix, uri)
                    else:
                        uri = self._string_literal_value()
                    self.prolog.schema_imports.append(uri)
                    s.match(";")
                else:
                    raise s.error("only 'import schema' is supported")
            else:
                return

    def _parse_function_decl(self) -> None:
        s = self.s
        lexical = s.scan_lexical_qname()
        name = self._function_qname(lexical)
        s.expect("(")
        params: list[tuple[QName, ast.SequenceTypeAST | None]] = []
        if not s.match(")"):
            while True:
                s.expect("$")
                pname = self._var_name()
                ptype = self.parse_sequence_type() if s.match_word("as") else None
                params.append((pname, ptype))
                if not s.match(","):
                    break
            s.expect(")")
        return_type = self.parse_sequence_type() if s.match_word("as") else None
        if s.match_word("external"):
            self.prolog.functions.append(
                ast.FunctionDecl(name, params, return_type, None, external=True))
            return
        s.expect("{")
        body = self.parse_expr()
        s.expect("}")
        self.prolog.functions.append(
            ast.FunctionDecl(name, params, return_type, body))

    # =====================================================================
    # Expressions
    # =====================================================================

    def parse_expr(self) -> ast.Expr:
        """Expr := ExprSingle ("," ExprSingle)*"""
        pos = self.s.location()
        first = self.parse_expr_single()
        if not self.s.match(","):
            return first
        items = [first, self.parse_expr_single()]
        while self.s.match(","):
            items.append(self.parse_expr_single())
        return ast.SequenceExpr(items, pos)

    def parse_expr_single(self) -> ast.Expr:
        s = self.s
        s.skip_ws()
        pos = s.location()
        if (s.peek_word("for") or s.peek_word("let")) and self._next_nonword_is("$"):
            return self._parse_flwor(pos)
        if (s.peek_word("some") or s.peek_word("every")) and self._next_nonword_is("$"):
            return self._parse_quantified(pos)
        if s.peek_word("if") and self._next_nonword_is("("):
            return self._parse_if(pos)
        if s.peek_word("typeswitch") and self._next_nonword_is("("):
            return self._parse_typeswitch(pos)
        return self._parse_or()

    def _next_nonword_is(self, ch: str) -> bool:
        """After the *next word*, is the following non-space char ``ch``?"""
        s = self.s
        mark = s.mark()
        try:
            s.scan_ncname()
        except ParseError:
            s.reset(mark)
            return False
        s.skip_ws()
        result = s.peek() == ch
        s.reset(mark)
        return result

    # -- FLWOR -----------------------------------------------------------------

    def _parse_flwor(self, pos) -> ast.Expr:
        s = self.s
        clauses: list[ast.ForClause | ast.LetClause] = []
        while True:
            if s.match_word("for"):
                while True:
                    s.expect("$")
                    var = self._var_name()
                    type_decl = self.parse_sequence_type() if s.match_word("as") else None
                    pos_var = None
                    if s.match_word("at"):
                        s.expect("$")
                        pos_var = self._var_name()
                    s.expect("in")
                    expr = self.parse_expr_single()
                    clauses.append(ast.ForClause(var, expr, pos_var, type_decl))
                    if not s.match(","):
                        break
            elif s.match_word("let"):
                while True:
                    s.expect("$")
                    var = self._var_name()
                    type_decl = self.parse_sequence_type() if s.match_word("as") else None
                    s.expect(":=")
                    expr = self.parse_expr_single()
                    clauses.append(ast.LetClause(var, expr, type_decl))
                    if not s.match(","):
                        break
            else:
                break
        where = None
        if s.match_word("where"):
            where = self.parse_expr_single()
        group: list[tuple[QName, ast.Expr]] = []
        if s.match_word("group"):
            s.expect("by")
            while True:
                s.expect("$")
                gvar = self._var_name()
                if s.match(":="):
                    key = self.parse_expr_single()
                else:
                    key = ast.VarRef(gvar, s.location())
                group.append((gvar, key))
                if not s.match(","):
                    break
        stable = False
        order: list[ast.OrderSpec] = []
        mark = s.mark()
        if s.match_word("stable"):
            if s.peek_word("order"):
                stable = True
            else:
                s.reset(mark)
        if s.match_word("order"):
            s.expect("by")
            while True:
                key = self.parse_expr_single()
                descending = False
                if s.match_word("descending"):
                    descending = True
                else:
                    s.match_word("ascending")
                empty_least = True
                if s.match_word("empty"):
                    if s.match_word("greatest"):
                        empty_least = False
                    else:
                        s.expect("least")
                order.append(ast.OrderSpec(key, descending, empty_least))
                if not s.match(","):
                    break
        s.expect("return")
        ret = self.parse_expr_single()
        return ast.FLWOR(clauses, where, order, ret, stable, pos, group)

    def _parse_quantified(self, pos) -> ast.Expr:
        s = self.s
        kind = "some" if s.match_word("some") else ("every" if s.match_word("every") else None)
        if kind is None:
            raise s.error("expected 'some' or 'every'")
        bindings: list[tuple[QName, ast.Expr]] = []
        while True:
            s.expect("$")
            var = self._var_name()
            if s.match_word("as"):
                self.parse_sequence_type()  # accepted, unchecked here
            s.expect("in")
            seq = self.parse_expr_single()
            bindings.append((var, seq))
            if not s.match(","):
                break
        s.expect("satisfies")
        cond = self.parse_expr_single()
        # normalize multi-variable quantifiers into nesting now
        expr = cond
        for var, seq in reversed(bindings[1:]):
            expr = ast.Quantified(kind, var, seq, expr, pos)
        return ast.Quantified(kind, bindings[0][0], bindings[0][1], expr, pos)

    def _parse_if(self, pos) -> ast.Expr:
        s = self.s
        s.expect("if")
        s.expect("(")
        cond = self.parse_expr()
        s.expect(")")
        s.expect("then")
        then = self.parse_expr_single()
        s.expect("else")
        orelse = self.parse_expr_single()
        return ast.IfExpr(cond, then, orelse, pos)

    def _parse_typeswitch(self, pos) -> ast.Expr:
        s = self.s
        s.expect("typeswitch")
        s.expect("(")
        operand = self.parse_expr()
        s.expect(")")
        cases: list[ast.TypeswitchCase] = []
        while s.match_word("case"):
            var = None
            mark = s.mark()
            if s.match("$"):
                var = self._var_name()
                if not s.match_word("as"):
                    s.reset(mark)
                    var = None
            seq_type = self.parse_sequence_type()
            s.expect("return")
            body = self.parse_expr_single()
            cases.append(ast.TypeswitchCase(var, seq_type, body))
        if not cases:
            raise s.error("typeswitch requires at least one case")
        s.expect("default")
        dvar = None
        if s.match("$"):
            dvar = self._var_name()
        s.expect("return")
        dbody = self.parse_expr_single()
        return ast.Typeswitch(operand, cases, ast.TypeswitchCase(dvar, None, dbody), pos)

    # -- binary operator ladder ----------------------------------------------

    def _parse_or(self) -> ast.Expr:
        left = self._parse_and()
        while self.s.match_word("or"):
            pos = self.s.location()
            left = ast.OrExpr(left, self._parse_and(), pos)
        return left

    def _parse_and(self) -> ast.Expr:
        left = self._parse_comparison()
        while self.s.match_word("and"):
            pos = self.s.location()
            left = ast.AndExpr(left, self._parse_comparison(), pos)
        return left

    def _parse_comparison(self) -> ast.Expr:
        s = self.s
        left = self._parse_range()
        pos = s.location()
        for op in _VALUE_COMP:
            if s.match_word(op):
                return ast.Comparison(op, "value", left, self._parse_range(), pos)
        for op in _NODE_COMP:
            if s.match_word(op):
                return ast.Comparison(op, "node", left, self._parse_range(), pos)
        s.skip_ws()
        for op in _ORDER_COMP:
            if s.startswith(op):
                s.pos += len(op)
                return ast.Comparison(op, "order", left, self._parse_range(), pos)
        for op in _GENERAL_COMP:
            if s.startswith(op):
                s.pos += len(op)
                return ast.Comparison(op, "general", left, self._parse_range(), pos)
        return left

    def _parse_range(self) -> ast.Expr:
        left = self._parse_additive()
        if self.s.match_word("to"):
            pos = self.s.location()
            return ast.RangeExpr(left, self._parse_additive(), pos)
        return left

    def _parse_additive(self) -> ast.Expr:
        s = self.s
        left = self._parse_multiplicative()
        while True:
            s.skip_ws()
            if s.peek() == "+":
                s.pos += 1
                pos = s.location()
                left = ast.Arithmetic("+", left, self._parse_multiplicative(), pos)
            elif s.peek() == "-":
                s.pos += 1
                pos = s.location()
                left = ast.Arithmetic("-", left, self._parse_multiplicative(), pos)
            else:
                return left

    def _parse_multiplicative(self) -> ast.Expr:
        s = self.s
        left = self._parse_union()
        while True:
            s.skip_ws()
            pos = s.location()
            if s.peek() == "*" and not self._star_is_name_test():
                s.pos += 1
                left = ast.Arithmetic("*", left, self._parse_union(), pos)
            elif s.match_word("div"):
                left = ast.Arithmetic("div", left, self._parse_union(), pos)
            elif s.match_word("idiv"):
                left = ast.Arithmetic("idiv", left, self._parse_union(), pos)
            elif s.match_word("mod"):
                left = ast.Arithmetic("mod", left, self._parse_union(), pos)
            else:
                return left

    def _star_is_name_test(self) -> bool:
        # after an expression, '*' is always the operator in this grammar
        return False

    def _parse_union(self) -> ast.Expr:
        s = self.s
        left = self._parse_intersect_except()
        while True:
            pos = s.location()
            if s.match_word("union"):
                left = ast.SetOp("union", left, self._parse_intersect_except(), pos)
                continue
            s.skip_ws()
            if s.peek() == "|" and s.peek(1) != "|":
                s.pos += 1
                left = ast.SetOp("union", left, self._parse_intersect_except(), pos)
                continue
            return left

    def _parse_intersect_except(self) -> ast.Expr:
        s = self.s
        left = self._parse_instance_of()
        while True:
            pos = s.location()
            if s.match_word("intersect"):
                left = ast.SetOp("intersect", left, self._parse_instance_of(), pos)
            elif s.match_word("except"):
                left = ast.SetOp("except", left, self._parse_instance_of(), pos)
            else:
                return left

    def _parse_instance_of(self) -> ast.Expr:
        left = self._parse_treat()
        s = self.s
        mark = s.mark()
        if s.match_word("instance"):
            if s.match_word("of"):
                pos = s.location()
                return ast.InstanceOf(left, self.parse_sequence_type(), pos)
            s.reset(mark)
        return left

    def _parse_treat(self) -> ast.Expr:
        left = self._parse_castable()
        s = self.s
        mark = s.mark()
        if s.match_word("treat"):
            if s.match_word("as"):
                pos = s.location()
                return ast.TreatExpr(left, self.parse_sequence_type(), pos)
            s.reset(mark)
        return left

    def _parse_castable(self) -> ast.Expr:
        left = self._parse_cast()
        s = self.s
        mark = s.mark()
        if s.match_word("castable"):
            if s.match_word("as"):
                pos = s.location()
                name, optional = self._parse_single_type()
                return ast.CastableExpr(left, name, optional, pos)
            s.reset(mark)
        return left

    def _parse_cast(self) -> ast.Expr:
        left = self._parse_unary()
        s = self.s
        mark = s.mark()
        if s.match_word("cast"):
            if s.match_word("as"):
                pos = s.location()
                name, optional = self._parse_single_type()
                return ast.CastExpr(left, name, optional, pos)
            s.reset(mark)
        return left

    def _parse_single_type(self) -> tuple[QName, bool]:
        lexical = self.s.scan_lexical_qname()
        name = self._type_qname(lexical)
        optional = self.s.match("?")
        return name, optional

    def _parse_unary(self) -> ast.Expr:
        s = self.s
        s.skip_ws()
        pos = s.location()
        if s.peek() == "-" :
            s.pos += 1
            return ast.UnaryExpr("-", self._parse_unary(), pos)
        if s.peek() == "+":
            s.pos += 1
            return ast.UnaryExpr("+", self._parse_unary(), pos)
        return self._parse_value_expr()

    def _parse_value_expr(self) -> ast.Expr:
        return self._parse_path()

    # =====================================================================
    # Paths
    # =====================================================================

    def _parse_path(self) -> ast.Expr:
        s = self.s
        s.skip_ws()
        pos = s.location()
        if s.startswith("//"):
            s.pos += 2
            root = ast.RootExpr(pos)
            ds = ast.Step("descendant-or-self", ast.NodeTest("node"), pos)
            left = ast.PathExpr(root, ds, pos)
            return self._parse_relative_path(left)
        if s.peek() == "/":
            s.pos += 1
            s.skip_ws()
            if self._at_step_start():
                return self._parse_relative_path(ast.RootExpr(pos))
            return ast.RootExpr(pos)
        return self._parse_relative_path(None)

    def _at_step_start(self) -> bool:
        s = self.s
        s.skip_ws()
        ch = s.peek()
        if not ch:
            return False  # end of input ("" is in every string)
        if ch in "@*(.$'\"":
            return ch in "@*." or _is_name_start(ch) or ch == "$" or ch == "("
        return _is_name_start(ch)

    def _parse_relative_path(self, left: ast.Expr | None) -> ast.Expr:
        s = self.s
        step = self._parse_step()
        expr = step if left is None else ast.PathExpr(left, step, step.pos)
        while True:
            s.skip_ws()
            pos = s.location()
            if s.startswith("//"):
                s.pos += 2
                ds = ast.Step("descendant-or-self", ast.NodeTest("node"), pos)
                expr = ast.PathExpr(expr, ds, pos)
                expr = ast.PathExpr(expr, self._parse_step(), pos)
            elif s.peek() == "/":
                s.pos += 1
                expr = ast.PathExpr(expr, self._parse_step(), pos)
            else:
                return expr

    def _parse_step(self) -> ast.Expr:
        """StepExpr := AxisStep Predicates | FilterExpr (primary + predicates)."""
        s = self.s
        s.skip_ws()
        pos = s.location()
        step: ast.Expr | None = None

        if s.startswith(".."):
            s.pos += 2
            step = ast.Step("parent", ast.NodeTest("node"), pos)
        elif s.peek() == "@":
            s.pos += 1
            test = self._parse_node_test(default_kind="attribute")
            step = ast.Step("attribute", test, pos)
        else:
            axis = self._try_parse_axis()
            if axis is not None:
                default_kind = "attribute" if axis == "attribute" else "element"
                test = self._parse_node_test(default_kind=default_kind)
                step = ast.Step(axis, test, pos)
            else:
                # soft keywords (computed constructors, ordered{}) win over
                # same-named element steps when their syntax actually follows
                step = self._try_special_primary(pos)
                if step is None:
                    if self._at_kind_test() or s.peek() == "*" or (
                            s.at_name() and self._name_is_step()):
                        test = self._parse_node_test(default_kind="element")
                        step = ast.Step("child", test, pos)
                    else:
                        step = self._parse_primary()

        # predicates
        while True:
            s.skip_ws()
            if s.peek() == "[":
                s.pos += 1
                ppos = s.location()
                predicate = self.parse_expr()
                s.expect("]")
                step = ast.Filter(step, predicate, ppos)
            else:
                return step

    def _try_special_primary(self, pos) -> ast.Expr | None:
        """Computed constructors, validate{}, ordered/unordered blocks."""
        s = self.s
        if s.peek_word("validate"):
            mark = s.mark()
            s.match_word("validate")
            mode = "strict"
            for candidate in ("strict", "lax", "skip"):
                if s.match_word(candidate):
                    mode = candidate
                    break
            if s.match("{"):
                operand = self.parse_expr()
                s.expect("}")
                return ast.ValidateExpr(operand, mode, pos)
            s.reset(mark)
        for keyword in ("element", "attribute", "document", "text", "comment",
                        "processing-instruction"):
            if s.peek_word(keyword):
                return self._try_parse_computed_constructor(keyword, pos)
        if s.peek_word("ordered") or s.peek_word("unordered"):
            mark = s.mark()
            ordered = s.match_word("ordered")
            if not ordered:
                s.match_word("unordered")
            if s.match("{"):
                inner = self.parse_expr()
                s.expect("}")
                return ast.OrderedExpr(inner, ordered, pos)
            s.reset(mark)
        return None

    def _try_parse_axis(self) -> str | None:
        s = self.s
        s.skip_ws()
        for axis in _AXES:
            if s.startswith(axis):
                end = s.pos + len(axis)
                rest = s.text[end: end + 2]
                if rest == "::":
                    s.pos = end + 2
                    return axis
        # legacy spelling in the tutorial: "ancestors::"
        if s.startswith("ancestors::"):
            s.pos += len("ancestors::")
            return "ancestor"
        if s.startswith("descendent::"):
            s.pos += len("descendent::")
            return "descendant"
        return None

    _KIND_TESTS = ("node", "text", "comment", "processing-instruction",
                   "element", "attribute", "document-node", "item")

    def _at_kind_test(self) -> bool:
        s = self.s
        s.skip_ws()
        for kind in self._KIND_TESTS:
            if s.startswith(kind):
                end = s.pos + len(kind)
                rest = s.text[end:].lstrip(_WS)
                if rest.startswith("(") and not _is_name_char(s.text[end: end + 1] or " "):
                    return True
        return False

    def _name_is_step(self) -> bool:
        """A bare name begins a step unless it's a function call —
        function calls are primary expressions handled elsewhere but
        they also *are* steps per the grammar; we just parse them in
        _parse_primary.  Returns False when 'name(' looks like a call.
        """
        s = self.s
        mark = s.mark()
        try:
            s.scan_lexical_qname()
        except ParseError:
            s.reset(mark)
            return False
        s.skip_ws()
        is_call = s.peek() == "("
        s.reset(mark)
        return not is_call

    def _parse_node_test(self, default_kind: str) -> ast.NodeTest:
        s = self.s
        s.skip_ws()
        if self._at_kind_test():
            return self._parse_kind_test()
        # name test, possibly with wildcards
        if s.peek() == "*":
            s.pos += 1
            if s.peek() == ":" and _is_name_start(s.peek(1)):
                s.pos += 1
                local = s.scan_ncname()
                return ast.NodeTest(default_kind, QName("*", local))
            return ast.NodeTest(default_kind, None)
        name = s.scan_ncname()
        if s.peek() == ":" and s.peek(1) == "*":
            s.pos += 2
            uri = self.ns.lookup(name)
            if uri is None:
                raise s.error(f"undeclared namespace prefix '{name}'")
            return ast.NodeTest(default_kind, QName(uri, "*", name))
        if s.peek() == ":" and _is_name_start(s.peek(1)):
            s.pos += 1
            local = s.scan_ncname()
            uri = self.ns.lookup(name)
            if uri is None:
                raise s.error(f"undeclared namespace prefix '{name}'")
            return ast.NodeTest(default_kind, QName(uri, local, name))
        default_uri = self.prolog.default_element_ns if default_kind == "element" else ""
        return ast.NodeTest(default_kind, QName(default_uri, name))

    def _parse_kind_test(self) -> ast.NodeTest:
        s = self.s
        kind = None
        for candidate in self._KIND_TESTS:
            if s.startswith(candidate):
                kind = candidate
                s.pos += len(candidate)
                break
        assert kind is not None
        s.expect("(")
        name: QName | None = None
        type_name: QName | None = None
        pi_target: str | None = None
        if not s.match(")"):
            if kind == "processing-instruction":
                s.skip_ws()
                if s.peek() in "'\"":
                    pi_target = self._string_literal_value()
                else:
                    pi_target = s.scan_ncname()
            elif kind in ("element", "attribute", "document-node"):
                s.skip_ws()
                if s.peek() == "*":
                    s.pos += 1
                else:
                    lexical = s.scan_lexical_qname()
                    default_uri = self.prolog.default_element_ns if kind != "attribute" else ""
                    name = QName.parse(lexical, self.ns, default_uri)
                if s.match(","):
                    lexical = s.scan_lexical_qname()
                    type_name = self._type_qname(lexical)
            s.expect(")")
        if kind == "document-node":
            kind = "document"
        return ast.NodeTest(kind, name, type_name, pi_target)

    # =====================================================================
    # Primary expressions
    # =====================================================================

    def _parse_primary(self) -> ast.Expr:
        s = self.s
        s.skip_ws()
        pos = s.location()
        ch = s.peek()
        if not ch:
            raise s.error("unexpected end of input")

        if ch == "$":
            s.pos += 1
            return ast.VarRef(self._var_name(), pos)
        if ch == "(":
            s.pos += 1
            if s.match(")"):
                return ast.EmptySequence(pos)
            inner = self.parse_expr()
            s.expect(")")
            return inner
        if ch == ".":
            nxt = s.peek(1)
            if not nxt.isdigit():
                s.pos += 1
                return ast.ContextItem(pos)
        if ch in "'\"" or ch.isdigit() or (ch == "." and s.peek(1).isdigit()):
            start = s.pos
            if ch in "'\"":
                literal = ast.Literal(AtomicValue(self._string_literal_value(),
                                                  T.XS_STRING), pos)
            else:
                literal = self._parse_numeric_literal(pos)
            self.literal_spans[literal] = (start, s.pos)
            return literal
        if ch == "<":
            return self._parse_direct_constructor(pos)

        # computed constructors (with backtracking: these are soft keywords)
        for keyword in ("element", "attribute", "document", "text", "comment",
                        "processing-instruction"):
            if s.peek_word(keyword):
                ctor = self._try_parse_computed_constructor(keyword, pos)
                if ctor is not None:
                    return ctor
                break

        if s.peek_word("ordered") or s.peek_word("unordered"):
            mark = s.mark()
            ordered = s.match_word("ordered")
            if not ordered:
                s.match_word("unordered")
            if s.match("{"):
                inner = self.parse_expr()
                s.expect("}")
                return ast.OrderedExpr(inner, ordered, pos)
            s.reset(mark)

        if s.at_name():
            lexical = s.scan_lexical_qname()
            s.skip_ws()
            if s.peek() == "(":
                s.pos += 1
                args: list[ast.Expr] = []
                if not s.match(")"):
                    while True:
                        args.append(self.parse_expr_single())
                        if not s.match(","):
                            break
                    s.expect(")")
                return ast.FunctionCall(self._function_qname(lexical), args, pos)
            raise s.error(f"unexpected name {lexical!r} in expression position")
        raise s.error(f"unexpected character {ch!r}")

    def _parse_numeric_literal(self, pos) -> ast.Literal:
        s = self.s
        start = s.pos
        while s.peek().isdigit():
            s.pos += 1
        is_decimal = False
        if s.peek() == "." and s.peek(1).isdigit():
            is_decimal = True
            s.pos += 1
            while s.peek().isdigit():
                s.pos += 1
        elif s.peek() == "." and not _is_name_start(s.peek(1)):
            # "125." is a decimal literal
            is_decimal = True
            s.pos += 1
        is_double = False
        if s.peek() in "eE":
            mark = s.pos
            s.pos += 1
            if s.peek() in "+-":
                s.pos += 1
            if s.peek().isdigit():
                is_double = True
                while s.peek().isdigit():
                    s.pos += 1
            else:
                s.pos = mark
        text = s.text[start: s.pos]
        if is_double:
            return ast.Literal(AtomicValue(float(text), T.XS_DOUBLE), pos)
        if is_decimal:
            return ast.Literal(AtomicValue(Decimal(text), T.XS_DECIMAL), pos)
        return ast.Literal(AtomicValue(int(text), T.XS_INTEGER), pos)

    def _string_literal_value(self) -> str:
        s = self.s
        s.skip_ws()
        quote = s.peek()
        if quote not in "'\"":
            raise s.error("expected a string literal")
        s.pos += 1
        out: list[str] = []
        while True:
            if s.pos >= s.length:
                raise s.error("unterminated string literal")
            ch = s.text[s.pos]
            if ch == quote:
                if s.peek(1) == quote:  # doubled quote escape
                    out.append(quote)
                    s.pos += 2
                    continue
                s.pos += 1
                return "".join(out)
            if ch == "&":
                out.append(self._entity_ref())
                continue
            out.append(ch)
            s.pos += 1

    def _entity_ref(self) -> str:
        s = self.s
        semi = s.text.find(";", s.pos + 1)
        if semi < 0:
            raise s.error("unterminated entity reference")
        name = s.text[s.pos + 1: semi]
        s.pos = semi + 1
        if name.startswith("#x") or name.startswith("#X"):
            return chr(int(name[2:], 16))
        if name.startswith("#"):
            return chr(int(name[1:]))
        if name in _BUILTIN_ENTITIES:
            return _BUILTIN_ENTITIES[name]
        raise s.error(f"undefined entity &{name};")

    # =====================================================================
    # Constructors
    # =====================================================================

    def _try_parse_computed_constructor(self, keyword: str, pos) -> ast.Expr | None:
        s = self.s
        mark = s.mark()
        s.match_word(keyword)
        s.skip_ws()

        if keyword in ("document", "text", "comment"):
            if not s.match("{"):
                s.reset(mark)
                return None
            if s.match("}"):
                content: ast.Expr = ast.EmptySequence(pos)
            else:
                content = self.parse_expr()
                s.expect("}")
            if keyword == "document":
                return ast.DocumentCtor(content, pos)
            if keyword == "text":
                return ast.TextCtor(content, pos)
            return ast.CommentCtor(content, pos)

        # element / attribute / processing-instruction: name or {name-expr}
        name: QName | None = None
        name_expr: ast.Expr | None = None
        target: str | None = None
        if s.match("{"):
            name_expr = self.parse_expr()
            s.expect("}")
        elif s.at_name():
            lexical = s.scan_lexical_qname()
            if keyword == "processing-instruction":
                target = lexical
            else:
                default_uri = self.prolog.default_element_ns if keyword == "element" else ""
                name = QName.parse(lexical, self.ns, default_uri)
        else:
            s.reset(mark)
            return None
        if not s.match("{"):
            s.reset(mark)
            return None
        if s.match("}"):
            content = ast.EmptySequence(pos)
        else:
            content = self.parse_expr()
            s.expect("}")

        if keyword == "element":
            return ast.ElementCtor(name, [], [content], (), name_expr, pos)
        if keyword == "attribute":
            return ast.AttributeCtor(name, [content], name_expr, pos)
        return ast.PICtor(target, content, name_expr, pos)

    def _parse_direct_constructor(self, pos) -> ast.Expr:
        s = self.s
        if s.startswith("<!--"):
            end = s.text.find("-->", s.pos + 4)
            if end < 0:
                raise s.error("unterminated comment constructor")
            content = s.text[s.pos + 4: end]
            s.pos = end + 3
            return ast.CommentCtor(ast.Literal(AtomicValue(content, T.XS_STRING), pos), pos)
        if s.startswith("<?"):
            end = s.text.find("?>", s.pos + 2)
            if end < 0:
                raise s.error("unterminated PI constructor")
            body = s.text[s.pos + 2: end]
            s.pos = end + 2
            target, _, rest = body.partition(" ")
            return ast.PICtor(target, ast.Literal(AtomicValue(rest, T.XS_STRING), pos), None, pos)

        s.expect("<")
        lexical = s.scan_lexical_qname()

        attributes: list[ast.Expr] = []
        raw_attrs: list[tuple[str, list[ast.Expr], tuple[int, int]]] = []
        ns_decls: list[tuple[str, str]] = []

        # scan attributes (values may contain enclosed expressions)
        while True:
            s.skip_ws()
            if s.peek() in ("/", ">", ""):
                break
            aname = s.scan_lexical_qname()
            if any(existing == aname for existing, _, _ in raw_attrs) or \
                    any(f"xmlns:{prefix}" == aname or (prefix == "" and aname == "xmlns")
                        for prefix, _ in ns_decls):
                raise s.error(f"duplicate attribute {aname!r} in constructor")
            apos = s.location()
            s.expect("=")
            parts = self._parse_attr_value()
            if aname == "xmlns" or aname.startswith("xmlns:"):
                if len(parts) != 1 or not isinstance(parts[0], ast.Literal):
                    raise s.error("namespace declaration value must be a literal")
                prefix = aname[6:] if aname.startswith("xmlns:") else ""
                uri = parts[0].value.value
                ns_decls.append((prefix, uri))
            else:
                raw_attrs.append((aname, parts, apos))

        # open a namespace scope covering the element's own declarations
        self.ns.push(dict(ns_decls))
        try:
            default_uri = self.ns.lookup("") or self.prolog.default_element_ns
            name = QName.parse(lexical, self.ns, default_uri)
            for aname, parts, apos in raw_attrs:
                aqname = QName.parse(aname, self.ns, default_uri="")
                attributes.append(ast.AttributeCtor(aqname, parts, None, apos))

            content: list[ast.Expr] = []
            if s.match("/>"):
                return ast.ElementCtor(name, attributes, content, ns_decls, None, pos)
            s.expect(">")
            self._parse_element_content(content)
            # closing tag
            closing = s.scan_lexical_qname()
            if closing != lexical:
                raise s.error(f"mismatched closing tag </{closing}>, expected </{lexical}>")
            s.skip_ws()
            s.expect(">")
            return ast.ElementCtor(name, attributes, content, ns_decls, None, pos)
        finally:
            self.ns.pop()

    def _parse_attr_value(self) -> list[ast.Expr]:
        """Parse a quoted attribute value with embedded ``{expr}``."""
        s = self.s
        s.skip_ws()
        quote = s.peek()
        if quote not in "'\"":
            raise s.error("attribute value must be quoted")
        s.pos += 1
        parts: list[ast.Expr] = []
        buffer: list[str] = []
        pos = s.location()

        def flush() -> None:
            if buffer:
                parts.append(ast.Literal(AtomicValue("".join(buffer), T.XS_STRING), pos))
                buffer.clear()

        while True:
            if s.pos >= s.length:
                raise s.error("unterminated attribute value")
            ch = s.text[s.pos]
            if ch == quote:
                if s.peek(1) == quote:
                    buffer.append(quote)
                    s.pos += 2
                    continue
                s.pos += 1
                flush()
                return parts
            if ch == "{":
                if s.peek(1) == "{":
                    buffer.append("{")
                    s.pos += 2
                    continue
                flush()
                s.pos += 1
                parts.append(self.parse_expr())
                s.expect("}")
                continue
            if ch == "}":
                if s.peek(1) == "}":
                    buffer.append("}")
                    s.pos += 2
                    continue
                raise s.error("unescaped '}' in attribute value")
            if ch == "&":
                buffer.append(self._entity_ref())
                continue
            buffer.append(ch)
            s.pos += 1

    def _parse_element_content(self, content: list[ast.Expr]) -> None:
        """Parse direct element content up to (and consuming) ``</``."""
        s = self.s
        buffer: list[str] = []

        def flush(keep_boundary_ws: bool = False) -> None:
            if not buffer:
                return
            text = "".join(buffer)
            buffer.clear()
            if not text:
                return
            if not keep_boundary_ws and not text.strip():
                return  # boundary whitespace is stripped by default policy
            pos = s.location()
            content.append(ast.TextCtor(
                ast.Literal(AtomicValue(text, T.XS_STRING), pos), pos))

        while True:
            if s.pos >= s.length:
                raise s.error("unterminated element constructor content")
            ch = s.text[s.pos]
            if ch == "<":
                if s.startswith("</"):
                    flush()
                    s.pos += 2
                    return
                if s.startswith("<![CDATA["):
                    end = s.text.find("]]>", s.pos + 9)
                    if end < 0:
                        raise s.error("unterminated CDATA section")
                    cdata = s.text[s.pos + 9: end]
                    s.pos = end + 3
                    if cdata:
                        pos = s.location()
                        content.append(ast.TextCtor(
                            ast.Literal(AtomicValue(cdata, T.XS_STRING), pos), pos))
                    continue
                flush()
                pos = s.location()
                content.append(self._parse_direct_constructor(pos))
                continue
            if ch == "{":
                if s.peek(1) == "{":
                    buffer.append("{")
                    s.pos += 2
                    continue
                flush()
                s.pos += 1
                content.append(self.parse_expr())
                s.expect("}")
                continue
            if ch == "}":
                if s.peek(1) == "}":
                    buffer.append("}")
                    s.pos += 2
                    continue
                raise s.error("unescaped '}' in element content")
            if ch == "&":
                buffer.append(self._entity_ref())
                continue
            buffer.append(ch)
            s.pos += 1

    # =====================================================================
    # Types and names
    # =====================================================================

    def parse_sequence_type(self) -> ast.SequenceTypeAST:
        s = self.s
        s.skip_ws()
        if s.match_word("empty"):
            s.expect("(")
            s.expect(")")
            return ast.SequenceTypeAST("empty")
        if self._at_kind_test():
            test = self._parse_kind_test()
            occ = self._occurrence()
            kind = "item" if test.kind == "item" else test.kind
            return ast.SequenceTypeAST(kind, test.name, test.type_name, occ)
        lexical = s.scan_lexical_qname()
        name = self._type_qname(lexical)
        occ = self._occurrence()
        return ast.SequenceTypeAST("atomic", None, name, occ)

    def _occurrence(self) -> str:
        s = self.s
        # occurrence indicators bind tightly; '*' here is never multiplication
        if s.peek() in "?*+":
            ch = s.peek()
            s.pos += 1
            return ch
        return ""

    def _var_name(self) -> QName:
        lexical = self.s.scan_lexical_qname()
        if ":" in lexical:
            return QName.parse(lexical, self.ns, "")
        return QName("", lexical)

    def _function_qname(self, lexical: str) -> QName:
        if ":" in lexical:
            return QName.parse(lexical, self.ns, "")
        default = self.prolog.default_function_ns
        return QName(default if default is not None else FN_NS, lexical)

    def _type_qname(self, lexical: str) -> QName:
        if ":" in lexical:
            return QName.parse(lexical, self.ns, "")
        return QName("", lexical)


def parse_query(text: str) -> ast.Module:
    """Parse an XQuery main module."""
    return Parser(text).parse_module()
