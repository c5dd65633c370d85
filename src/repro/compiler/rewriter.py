"""The rewrite engine.

"Our optimizer: a library of rewriting rules (~100), and a hard-coded
strategy (trial and error ...).  Rewriting rules contract:
expr1 → expr2 with type(expr2) ⊆ type(expr1) and
freeVars(expr2) ⊆ freeVars(expr1).  Simple: no rewriting alternatives,
no cost model."

The engine applies every rule at every node, bottom-up, re-running the
analysis pass between sweeps, until a fixpoint (or the sweep cap).
Each rule is a function ``rule(expr, static_ctx) -> Expr | None``;
None means "no change".  In debug mode the engine enforces the
free-variables half of the paper's contract.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from repro.compiler.analysis import analyze, analyze_incremental, free_vars
from repro.compiler.context import StaticContext
from repro.xquery import ast

Rule = Callable[[ast.Expr, StaticContext], Optional[ast.Expr]]


class RewriteEngine:
    """Applies a rule library to fixpoint."""

    MAX_SWEEPS = 10

    def __init__(self, rules: Sequence[tuple[str, Rule]],
                 static_ctx: StaticContext | None = None,
                 check_contract: bool = False):
        self.rules = list(rules)
        self.ctx = static_ctx or StaticContext()
        self.check_contract = check_contract
        #: rule name → number of times it fired (the E7 claim tests read this)
        self.fired: dict[str, int] = {}

    def rewrite(self, expr: ast.Expr) -> ast.Expr:
        for _sweep in range(self.MAX_SWEEPS):
            analyze(expr, self.ctx)
            new_expr, changed = self._sweep(expr)
            expr = new_expr
            if not changed:
                break
        analyze(expr, self.ctx)
        return expr

    def _sweep(self, expr: ast.Expr) -> tuple[ast.Expr, bool]:
        changed = False

        def visit(node: ast.Expr) -> ast.Expr:
            nonlocal changed
            rebuilt = node.with_children(visit)
            if rebuilt is not node:
                changed = True
                analyze_incremental(rebuilt, self.ctx)
            current = rebuilt
            for name, rule in self.rules:
                replacement = rule(current, self.ctx)
                if replacement is not None and replacement is not current:
                    if self.check_contract:
                        before = free_vars(current)
                        after = free_vars(replacement)
                        if not after <= before:
                            raise AssertionError(
                                f"rule {name} introduced free variables "
                                f"{after - before}")
                    self.fired[name] = self.fired.get(name, 0) + 1
                    changed = True
                    analyze_incremental(replacement, self.ctx)
                    current = replacement
            return current

        return visit(expr), changed


def default_rules() -> list[tuple[str, Rule]]:
    """The standard rule library, in application order."""
    from repro.compiler.rules import basic, flwor, lets, paths

    return [
        ("constant-folding", basic.constant_folding),
        ("boolean-simplification", basic.boolean_simplification),
        ("if-simplification", basic.if_simplification),
        ("typeswitch-to-if", basic.typeswitch_shortcut),
        ("path-simplification", paths.path_simplification),
        ("descendant-collapse", paths.descendant_collapse),
        ("parent-elimination", paths.parent_elimination),
        ("ddo-elimination", paths.ddo_elimination),
        ("let-folding", lets.let_folding),
        ("dead-let-elimination", lets.dead_let_elimination),
        ("common-subexpression", lets.common_subexpression),
        ("for-unnesting", flwor.for_unnesting),
        ("for-let-hoisting", flwor.loop_invariant_hoisting),
        ("for-minimization", flwor.for_minimization),
    ]
