"""Compile-to-source: emit specialized Python per query.

The executor: every query runs on the code this module writes.  Where
the closure interpreter (the differential oracle) builds a tree of
generator closures — one Python frame per operator per item — this
module walks the post-planner core tree and writes one flat Python
generator function per fused region: whole FLWOR bodies (the
``for``/``let``/``if`` chains normalization produces), path chains,
predicate filters, and aggregate tails collapse into plain loops with
no per-operator calls.
It is the paper's "compile the query into an executable" move (XQRL
compiles queries to Java; we compile to Python and ``compile()`` the
text in-process).  Every core expression kind has an emitter: a query
runs on generated code alone.

Contracts:

- **Byte-identical semantics.**  Every emission mirrors the matching
  ``_c_`` closure of the differential oracle,
  :mod:`repro.compiler.reference` — evaluation order, laziness, error
  codes, and cancellation-poll placement included; the operators whose
  work is more than a line or two call the same kernel
  (:mod:`repro.runtime.kernels`).  The differential suites
  (``tests/test_codegen_source.py``) enforce this over the
  XMark/bib/seeded-random corpus.  What may differ is how *often* a
  pure operand or an invariant filter base is evaluated — held once
  per loop activation (:meth:`SourcePlanCompiler._held`), or turned
  into a hash lane (:meth:`SourcePlanCompiler._join_plan`) — which
  only the diary counters (:mod:`repro.observability.counters`) may
  show.
- **Sub-regions.**  A lazily bound value (``let``, a lazy builtin's
  argument, a user function's argument) and a multi-site producer
  feeding a whole loop body continue in a fresh generator function
  (:meth:`SourcePlanCompiler._subregion`); each user function kept as
  a call is one generated generator function.  Depth is not a reason:
  the emitter builds a loop nest (:mod:`repro.compiler.loopnest`), and
  its printer moves whatever would pass CPython's nesting limits into
  a closure.
- **Observability.**  The root region is registered as a hooked
  :class:`~repro.observability.explain.PlanNode` (tagged
  ``codegen=source``) so EXPLAIN ANALYZE item counts match the closure
  interpreter's root operator; fused operators appear as
  ``codegen=fused`` nodes, and no per-region counters are written —
  per-operator timing is the oracle's diagnostic
  (``ReferenceEngine().explain(q, analyze=True)``).  The generated
  text is registered with :mod:`linecache` for as long as the compiled
  plan is alive, so tracebacks out of generated loops show real source
  lines and an evicted plan frees its text.

Early exit (EBV, ``fn:exists``, general comparisons, positional
filters) uses the :class:`_Early` control exception *with a per-site
token*: each consumption site only absorbs its own escapes and
re-raises the rest, so a lazily-satisfied inner consumer never causes
an outer producer to keep running (which would diverge from the
closure interpreter's pull semantics).
"""

from __future__ import annotations

import itertools
import linecache
import weakref
from contextlib import ExitStack, contextmanager
from typing import Any, Callable, Iterator, NamedTuple

from repro.compiler.analysis import (
    free_vars,
    is_constructor_call,
    pure_path,
    pure_scalar,
    uses_last,
)
from repro.compiler.context import StaticContext
from repro.compiler.lift import is_lifted
from repro.compiler.loopnest import POLL, Block, Func, Loop, Try, print_module
from repro.compiler.sequencetype import resolve_atomic, resolve_sequence_type
from repro.errors import DynamicError, TypeError_, UndefinedNameError
from repro.qname import FN_NS, QName
from repro.runtime import functions as fnlib
from repro.runtime.arithmetic import arithmetic, negate, unary_plus
from repro.runtime.constructors import (
    construct_attribute_from_parts,
    construct_comment,
    construct_document,
    construct_element,
    construct_pi,
    construct_text,
)
from repro.runtime.compare import (
    _GENERAL_TO_VALUE,
    HashLane,
    _general_pair,
    compare_lane,
    node_compare,
    order_compare,
    value_compare,
)
from repro.runtime.dynamic import DynamicContext
from repro.runtime.ebv import _atomic_ebv, effective_boolean_value
from repro.runtime.iterators import BufferedSequence
from repro.runtime.kernels import (
    OrderKey,
    access_path_candidates,
    all_nodes,
    castable,
    computed_name,
    function_convert,
    group_key,
    group_rows,
    indexed_value,
    opt_integer,
    opt_single_node,
    order_key_value,
    twig_nodes,
    validate_node,
)
from repro.runtime.paths import compile_step_fn
from repro.xdm.atomize import atomize_item
from repro.xdm.items import AtomicValue, boolean, integer
from repro.xdm.nodes import ElementNode, Node, TextNode
from repro.xdm.order import in_document_order
from repro.xquery import ast
from repro.xsd import types as T
from repro.xsd.casting import cast_value

#: a generated plan: ``plan(dctx) -> Iterator[item]``
Plan = Callable[[DynamicContext], Iterator[Any]]

#: sequence for generated-module filenames (linecache keys)
_source_seq = itertools.count()


class _Early(Exception):
    """Control-flow escape for early-exit consumers.

    Carries the consumption site's token as ``args[0]``; every
    ``except _Early`` the emitter writes re-raises foreign tokens so an
    escape always unwinds to the site that requested it.
    """


#: sentinel for "no first item seen yet" in EBV accumulation
_ABSENT = object()


def _filter_keep(result, pos):
    """The item-mode predicate decision over a materialized result.

    Mirrors ``_c_Filter``: an all-numeric result filters positionally
    (including the 2003-draft ``author[1 to 2]`` sequence form), any
    other result is taken by effective boolean value.
    """
    if result and all(isinstance(v, AtomicValue) and T.is_numeric(v.type)
                      for v in result):
        return any(float(v.value) == pos for v in result)
    return effective_boolean_value(iter(result))


def _ddo_list(items, dctx):
    """Distinct-doc-order over a materialized list (mirrors ``_c_DDO``)."""
    if not items:
        return ()
    any_nodes = False
    all_nodes = True
    for item in items:
        if isinstance(item, Node):
            any_nodes = True
        else:
            all_nodes = False
    if all_nodes:
        dctx.count("ddo_sorts")
        return in_document_order(items)
    if any_nodes:
        raise TypeError_("path result mixes nodes and atomic values",
                         code="XPTY0018")
    return items


def _set_result(op, left_nodes, right_nodes):
    """Combine validated node lists for a SetOp (mirrors ``_c_SetOp``)."""
    right_ids = {id(n) for n in right_nodes}
    if op == "union":
        result = left_nodes + right_nodes
    elif op == "intersect":
        result = [n for n in left_nodes if id(n) in right_ids]
    else:
        result = [n for n in left_nodes if id(n) not in right_ids]
    return in_document_order(result)


#: names every generated module can see (the emitter adds per-query
#: constants — literals, QNames, types, step kernels — on top)
_BASE_ENV = {
    "_Early": _Early,
    "_ABSENT": _ABSENT,
    "_atomize_item": atomize_item,
    "_ebv_atom": _atomic_ebv,
    "_general_pair": _general_pair,
    "_compare_lane": compare_lane,
    "_HashLane": HashLane,
    "_value_compare": value_compare,
    "_node_compare": node_compare,
    "_order_compare": order_compare,
    "_arith": arithmetic,
    "_negate": negate,
    "_uplus": unary_plus,
    "_integer": integer,
    "_boolean": boolean,
    "_AtomicValue": AtomicValue,
    "_cast_value": cast_value,
    "_Node": Node,
    "_Elem": ElementNode,
    "_Text": TextNode,
    "_TypeError_": TypeError_,
    "_DynamicError": DynamicError,
    "_BufferedSequence": BufferedSequence,
    "_filter_keep": _filter_keep,
    "_ddo_list": _ddo_list,
    "_set_result": _set_result,
    "_all_nodes": all_nodes,
    "_opt_integer": opt_integer,
    "_opt_single_node": opt_single_node,
    "_indexed_value": indexed_value,
    "_access_path_candidates": access_path_candidates,
    "_twig_nodes": twig_nodes,
    "_computed_name": computed_name,
    "_construct_element": construct_element,
    "_construct_attribute": construct_attribute_from_parts,
    "_construct_text": construct_text,
    "_construct_comment": construct_comment,
    "_construct_pi": construct_pi,
    "_construct_document": construct_document,
    "_function_convert": function_convert,
    "_order_key_value": order_key_value,
    "_OrderKey": OrderKey,
    "_castable": castable,
    "_group_key": group_key,
    "_group_rows": group_rows,
    "_validate": validate_node,
}

#: fn: builtins whose EBV equals their (boolean-singleton) value — used
#: to route fused predicates through the static-boolean EBV emission
_EBV_FUSED_BUILTINS = ("not", "boolean", "exists", "empty")


def _nodes_only_path(expr) -> bool:
    """Can the expression statically produce only nodes, without
    raising while being produced?

    True for axis steps and chains of them (with DDO wrappers): node
    inputs through name/kind tests never yield atomics and never
    raise, so their effective boolean value equals ``fn:exists`` — a
    predicate of this shape may early-exit instead of materializing.
    """
    if isinstance(expr, ast.Step):
        return True
    if isinstance(expr, ast.DDO):
        return _nodes_only_path(expr.operand)
    if isinstance(expr, ast.PathExpr):
        return _nodes_only_path(expr.left) and isinstance(expr.right, ast.Step)
    return False


def _peel_ddo(expr):
    """Strip DDO wrappers (sound when only existence is observed)."""
    while isinstance(expr, ast.DDO):
        expr = expr.operand
    return expr


def _key_steps(expr) -> tuple | None:
    """The key ``K`` of a hash lane as its steps: ``.`` (no step) or a
    relative path of child / attribute steps; None for anything else."""
    if isinstance(expr, ast.ContextItem):
        return ()
    steps = []
    expr = _peel_ddo(expr)
    while isinstance(expr, ast.PathExpr) and isinstance(expr.right, ast.Step):
        steps.append(expr.right)
        expr = _peel_ddo(expr.left)
    if not isinstance(expr, ast.Step):
        return None
    steps.append(expr)
    if any(step.axis not in ("child", "attribute") for step in steps):
        return None
    return tuple(reversed(steps))


def _yields_only_nodes(expr) -> bool:
    """Is every item the expression yields a node?  (Errors are fine —
    this is weaker than :func:`_nodes_only_path` — so the per-item
    XPTY0019 guard downstream of the expression is dead code.)"""
    if isinstance(expr, ast.Step):
        return True
    if isinstance(expr, ast.DDO):
        # DDO passes atomic-only sequences through, so the operand
        # must itself be nodes-only
        return _yields_only_nodes(expr.operand)
    if isinstance(expr, ast.PathExpr):
        # a step on the right means every output item came off an axis
        # walk, whatever the left produced
        return _yields_only_nodes(expr.right)
    if isinstance(expr, ast.Filter):
        return _yields_only_nodes(expr.base)
    if isinstance(expr, (ast.AccessPath, ast.TwigJoin)):
        # the index side yields elements; the navigation side is the
        # path the operator replaced
        return _yields_only_nodes(expr.fallback)
    return False


def _static_boolean(expr) -> bool:
    """Is the expression statically a boolean singleton?

    For such predicates ``_filter_keep`` always takes the EBV branch
    (booleans are not numeric), so the emitter may skip materializing
    the predicate result entirely.
    """
    if isinstance(expr, (ast.Comparison, ast.AndExpr, ast.OrExpr,
                         ast.Quantified, ast.InstanceOf, ast.CastableExpr)):
        return True
    if isinstance(expr, ast.Literal):
        return expr.value.type.derives_from(T.XS_BOOLEAN)
    if isinstance(expr, ast.FunctionCall) and expr.name.uri == FN_NS:
        if expr.name.local in _EBV_FUSED_BUILTINS and len(expr.args) == 1:
            return True
        if expr.name.local in ("true", "false") and not expr.args:
            return True
        return False
    if isinstance(expr, ast.IfExpr):
        return _static_boolean(expr.then) and _static_boolean(expr.orelse)
    return False


# ---------------------------------------------------------------------------
# Sinks: code-emitting consumers
# ---------------------------------------------------------------------------
#
# A sink receives each *produced item* as a code string at every
# production site.  Convention: producers pre-assign effectful
# expressions to temps before calling ``sink.item`` (``_as_local``), so
# a sink may duplicate or discard the code string freely; and a sink's
# ``item`` may be invoked at several sites (e.g. both branches of an
# if), so everything it emits must be self-contained.  Only sinks
# marked ``inline`` (a line or two per site) are actually invoked at
# several sites: for the others — whole loop bodies — a multi-site
# producer funnels its items through one site (``_one_site``), or
# nested ``for $x in (a, b)`` clauses would double the emitted text
# per level.


class _YieldSink:
    inline = True

    def item(self, em: "SourcePlanCompiler", code: str) -> None:
        em.w(f"yield {code}")


class _CollectSink:
    inline = True

    def __init__(self, target: str):
        self.target = target

    def item(self, em, code):
        em.w(f"{self.target}.append({code})")


class _AtomizeSink:
    inline = True

    def __init__(self, target: str):
        self.target = target

    def item(self, em, code):
        em.w(f"{self.target}.extend(_atomize_item({code}))")


class _CountSink:
    inline = True

    def __init__(self, counter: str):
        self.counter = counter

    def item(self, em, code):
        em.w(f"{self.counter} += 1")


class _DistinctCountSink:
    """Streaming distinct count for ``count(DDO(...))``: nodes are
    deduped by identity (the key ``_ddo_list`` uses) without buffering
    or sorting; atomic items are tallied so the caller can reproduce
    the XPTY0018 mixed-sequence check after the drain."""

    def __init__(self, seen: str, nodes: str, atoms: str):
        self.seen = seen
        self.nodes = nodes
        self.atoms = atoms

    def item(self, em, code):
        t = em._as_local(code)
        with em.block(f"if isinstance({t}, _Node):"):
            k = em.fresh("k")
            em.w(f"{k} = id({t})")
            with em.block(f"if {k} not in {self.seen}:"):
                em.w(f"{self.seen}.add({k})")
                em.w(f"{self.nodes} += 1")
        with em.block("else:"):
            em.w(f"{self.atoms} += 1")


class _ExistsSink:
    inline = True

    def __init__(self, flag: str, token: int):
        self.flag = flag
        self.token = token

    def item(self, em, code):
        em.w(f"{self.flag} = True")
        em.w(f"raise _Early({self.token})")


class _EBVSink:
    """Generic effective-boolean-value accumulation.

    The second-item check precedes the node check: a node as the
    *second* item alongside a non-node first is still err:FORG0006,
    exactly as :func:`effective_boolean_value` raises it.
    """

    def __init__(self, result: str, first: str, token: int):
        self.result = result
        self.first = first
        self.token = token

    def item(self, em, code):
        code = em._as_local(code)
        with em.block(f"if {self.first} is not _ABSENT:"):
            em.w('raise _TypeError_("effective boolean value of a '
                 'multi-item atomic sequence", code="FORG0006")')
        with em.block(f"if isinstance({code}, _Node):"):
            em.w(f"{self.result} = True")
            em.w(f"raise _Early({self.token})")
        em.w(f"{self.first} = {code}")


class _SingletonAtomSink:
    """Streaming ``_opt_atomic_value``: err:XPTY0004 the moment a
    second atomized value appears."""

    def __init__(self, var: str):
        self.var = var

    def item(self, em, code):
        code = em._as_local(code)
        t = em.fresh("t")
        with em.loop(f"for {t} in _atomize_item({code}):"):
            with em.block(f"if {self.var} is not None:"):
                em.w('raise _TypeError_("expected at most one atomic '
                     'value", code="XPTY0004")')
            em.w(f"{self.var} = {t}")


class _GCLeftSink:
    """General-comparison left loop: lazy, early-exit on first match.

    ``lane`` is the per-activation comparator of a hoisted right
    operand (:func:`repro.runtime.compare.compare_lane`); without one
    every left value meets every item of ``right_list``."""

    def __init__(self, result: str, value_op: str, token: int,
                 right_list: str | None = None, lane: str | None = None):
        self.result = result
        self.value_op = value_op
        self.token = token
        self.right_list = right_list
        self.lane = lane

    def item(self, em, code):
        code = em._as_local(code)
        a = em.fresh("a")
        with em.loop(f"for {a} in _atomize_item({code}):"):
            if self.lane is not None:
                with em.block(f"if {self.lane}({a}):"):
                    em.w(f"{self.result} = True")
                    em.w(f"raise _Early({self.token})")
                return
            b = em.fresh("b")
            with em.loop(f"for {b} in {self.right_list}:"):
                with em.block(
                        f"if _general_pair({self.value_op!r}, {a}, {b}):"):
                    em.w(f"{self.result} = True")
                    em.w(f"raise _Early({self.token})")


class _NthSink:
    """Static-index filter ``base[N]``: lazy early exit at the Nth item."""

    def __init__(self, counter: str, index: int, out, token: int):
        self.counter = counter
        self.index = index
        self.out = out
        self.token = token

    def item(self, em, code):
        code = em._as_local(code)
        em.w(f"{self.counter} += 1")
        with em.block(f"if {self.counter} == {self.index}:"):
            self.out.item(em, code)
            em.w(f"raise _Early({self.token})")


class _QuantSink:
    """some/every loop body: EBV the condition, early-exit on decision."""

    def __init__(self, expr: ast.Quantified, flag: str, token: int, parent):
        self.expr = expr
        self.flag = flag
        self.token = token
        self.parent = parent

    def item(self, em, code):
        item = em._as_local(code)
        with em.under(self.parent):
            with em.bound(self.expr.var, item, "item"):
                holds = em._emit_ebv(self.expr.cond)
        if self.expr.kind == "some":
            with em.block(f"if {holds}:"):
                em.w(f"{self.flag} = True")
                em.w(f"raise _Early({self.token})")
        else:
            with em.block(f"if not {holds}:"):
                em.w(f"{self.flag} = False")
                em.w(f"raise _Early({self.token})")


class _ForSink:
    """One ``for`` binding: cancellation poll, bind, emit the body —
    the whole-FLWOR fusion workhorse (a normalized FLWOR is a chain of
    ForExpr/LetExpr/IfExpr nodes, so the nested sinks flatten it into
    one loop nest).  ``body`` emits whatever runs per bound item: a
    ForExpr's body into the outer sink, or an ordered FLWOR's next
    clause."""

    def __init__(self, var, pos_var, pos_counter, parent, body):
        self.var = var
        self.pos_var = pos_var
        self.pos_counter = pos_counter
        self.parent = parent
        self.body = body

    def item(self, em, code):
        item = em._as_local(code)
        em.poll()
        with em.under(self.parent):
            if self.pos_counter is None:
                with em.bound(self.var, item, "item"):
                    self.body()
            else:
                em.w(f"{self.pos_counter} += 1")
                pv = em.fresh("pv")
                em.w(f"{pv} = _integer({self.pos_counter})")
                with em.bound(self.var, item, "item"), \
                        em.bound(self.pos_var, pv, "item"):
                    self.body()


class _FilterSink:
    """Generic filter: per-item poll, local focus, materialized
    predicate through ``_filter_keep``."""

    def __init__(self, expr: ast.Filter, out, pos_counter, parent):
        self.expr = expr
        self.out = out
        self.pos_counter = pos_counter
        self.parent = parent

    def item(self, em, code):
        item = em._as_local(code)
        em.poll()
        em.w(f"{self.pos_counter} += 1")
        with em.under(self.parent):
            em._emit_predicate_keep(self.expr.predicate, item,
                                    self.pos_counter, "0", item, self.out)


class _FusedFilterSink:
    """Streaming fused step+filter candidate: position counter plus an
    inline predicate, no candidate list (predicate proven last()-free)."""

    def __init__(self, predicate, pos_counter: str, out, parent):
        self.predicate = predicate
        self.pos_counter = pos_counter
        self.out = out
        self.parent = parent

    def item(self, em, code):
        cand = em._as_local(code)
        em.w(f"{self.pos_counter} += 1")
        with em.under(self.parent):
            em._emit_predicate_keep(self.predicate, cand, self.pos_counter,
                                    "0", cand, self.out)


class _PathSink:
    """PathExpr per-left-item body: node check, poll, focus, right side.

    ``pos_counter`` is None when the right side never observes the
    outer focus position (a bare step, or a fused step+filter whose
    predicate sees its own per-candidate focus) — no counter is
    maintained in that case.  The XPTY0019 node guard is elided when
    the left producer yields only nodes."""

    def __init__(self, expr: ast.PathExpr, out, pos_counter, parent):
        self.expr = expr
        self.out = out
        self.pos_counter = pos_counter
        self.parent = parent

    def item(self, em, code):
        item = em._as_local(code)
        if not _yields_only_nodes(self.expr.left):
            with em.block(f"if not isinstance({item}, _Node):"):
                em.w('raise _TypeError_("path step applied to a non-node", '
                     'code="XPTY0019")')
        em.poll()
        if self.pos_counter is not None:
            em.w(f"{self.pos_counter} += 1")
        with em.under(self.parent):
            em._emit_path_right(self.expr.right, item,
                                self.pos_counter or "0", self.out,
                                em._invariant_anchor(self.expr.left))


# ---------------------------------------------------------------------------
# The compiler
# ---------------------------------------------------------------------------


class _Binding(NamedTuple):
    """An in-scope variable of the code being emitted."""

    local: str  #: the Python local holding it (may alias another binding's)
    kind: str  #: "item" | "seq"
    anchor: Loop | Func  #: the innermost loop (or function) bound under


class SourcePlanCompiler:
    """Compiles a core expression tree to generated Python source.

    With ``instrument=True`` (the default) every operator is registered
    in a :class:`~repro.observability.explain.PlanNode` tree
    (:attr:`plan_tree`), and the root region is hooked through the
    guarded profiler check the closure interpreter puts on every
    operator, which keeps EXPLAIN ANALYZE item counts comparable
    across backends.
    """

    def __init__(self, static_ctx: StaticContext, instrument: bool = True,
                 catalog=None):
        self.ctx = static_ctx
        self.instrument = instrument
        #: document catalog: AccessPath/TwigJoin operators resolve their
        #: posting lists through it at run time
        self.catalog = catalog
        #: root of the PlanNode tree, the operators under construction,
        #: and the next operator id (instrumented compiles only)
        self.plan_tree = None
        self._node_stack: list = []
        self._op_counter = 0
        self.env: dict[str, Any] = dict(_BASE_ENV)
        #: in-scope variables
        self.scope: dict[QName, _Binding] = {}
        #: local focus: None (ambient dctx focus) or a (item, position,
        #: size) triple of identifiers / integer literals
        self.focus: tuple[str, str, str] | None = None
        #: the open loop (or function) the focus item is invariant to
        #: every loop inside of (None: unknown) — set for a path's
        #: right side
        self._focus_anchor: Loop | Func | None = None
        #: locals an axis walk or access path proved to hold a node
        self._nodes: set[str] = set()
        #: the generated functions; the body being written; the
        #: innermost open loop (or the function when none is)
        self._funcs: list[Func] = []
        self._body: list | None = None
        self._loop: Loop | Func | None = None
        #: generated function of each user function kept as a call
        self._user_functions: dict[ast.FunctionDecl, str] = {}
        self._counter = 0
        self._early_counter = 0
        self._const_ids: dict[tuple[str, int], str] = {}
        #: focus-size locals holding a ``BufferedSequence.length`` bound
        #: method instead of an int (bases buffered for fn:last())
        self._lazy_sizes: set[str] = set()
        #: set while a hoisted operand's own code is being emitted
        self._hoisting = False
        #: the emitted module text (set by compile_root)
        self.generated_source: str | None = None
        self.filename: str | None = None
        self.entry_point = None

    # -- loop-nest building (printed by repro.compiler.loopnest) -------------

    def fresh(self, prefix: str) -> str:
        self._counter += 1
        return f"_{prefix}{self._counter}"

    def w(self, line: str) -> None:
        self._body.append(line)

    @contextmanager
    def _open(self, node: Block):
        """Append ``node``; what is written inside goes to its body."""
        self._body.append(node)
        outer, self._body = self._body, node.body
        try:
            yield
        finally:
            self._body = outer

    def block(self, header: str):
        return self._open(Block(header))

    @contextmanager
    def loop(self, header: str):
        """A ``for`` / ``while`` block.  While it is open, a
        loop-invariant operand in its body may ask for a line to run
        once per activation, just before ``header`` (see :meth:`_held`)."""
        node = self._loop = Loop(header, self._loop)
        try:
            with self._open(node):
                yield
        finally:
            self._loop = node.outer

    @contextmanager
    def function(self, name: str, params: list[str]):
        func = Func(name, params)
        self._funcs.append(func)
        saved = self._body, self._loop, self._focus_anchor
        self._body = func.body
        self._loop = func
        # a captured focus is a parameter: invariant to every loop here
        self._focus_anchor = None if self.focus is None else func
        try:
            yield
        finally:
            self._body, self._loop, self._focus_anchor = saved

    @contextmanager
    def early(self):
        """An early-exit consumption site: yields its token; sinks raise
        ``_Early(token)`` and foreign tokens are re-raised onward."""
        self._early_counter += 1
        token = self._early_counter
        with self._open(Try()):
            yield token
        ex = f"_ex{token}"
        with self._open(Block(f"except _Early as {ex}:", 2)), \
                self.block(f"if {ex}.args[0] != {token}:"):
            self.w("raise")

    def const(self, value: Any, prefix: str = "k") -> str:
        key = (prefix, id(value))
        name = self._const_ids.get(key)
        if name is None:
            name = self.fresh(prefix)
            self._const_ids[key] = name
            self.env[name] = value
        return name

    def poll(self) -> None:
        """A cancellation poll (the printer drops one that directly
        follows another)."""
        self._body.append(POLL)

    def _as_local(self, code: str) -> str:
        """Pin a produced expression to a temp (producers call this so
        sinks may duplicate/discard the code string safely)."""
        if code.isidentifier():
            return code
        tmp = self.fresh("t")
        self.w(f"{tmp} = {code}")
        return tmp

    # -- loop-invariant operands --------------------------------------------

    def _holdable(self, expr) -> bool:
        """May ``expr`` be evaluated once per loop activation instead
        of once per use?  (A pure scalar or a pure path: see
        :func:`repro.compiler.analysis.pure_scalar`.)"""
        return pure_scalar(expr) or pure_path(expr)

    def _innermost(self, anchors) -> Loop | Func:
        """The innermost of ``anchors`` open in this function (the
        function when none is: an anchor elsewhere is a parameter's)."""
        node = self._loop
        while node.outer is not None and node not in anchors:
            node = node.outer
        return node

    def _inside(self, anchor: Loop | Func) -> Loop | None:
        """The open loop directly inside ``anchor`` (None: none is)."""
        node, inner = self._loop, None
        while node is not anchor:
            node, inner = node.outer, node
        return inner

    def _anchor(self, expr) -> Loop | Func:
        """Where the innermost of ``expr``'s free variables was bound:
        ``expr`` is invariant to every loop inside it."""
        return self._innermost([self.scope[var].anchor
                                for var in free_vars(expr)
                                if var in self.scope])

    def _invariant_anchor(self, expr) -> Loop | Func | None:
        """Like :meth:`_anchor` for an expression whose *value*
        repeats wherever it runs (no focus, no new nodes), whether or
        not its evaluation may be skipped; None otherwise."""
        ann = expr.annotations
        if ann.get("uses_focus", True) or ann.get("creates_nodes", True):
            return None
        return self._anchor(expr)

    def _held(self, expr, prefix: str) -> str | None:
        """A local that holds ``expr``'s value for a whole loop
        activation, or None when ``expr`` is not holdable or no open
        loop of this function is one it is invariant to.

        The local is initialised to ``_ABSENT`` just before the
        outermost open loop that binds none of ``expr``'s free
        variables; the caller fills it under :meth:`_first_use` — at
        the first use inside the loop, which is where, and only if, the
        unhoisted code would have evaluated ``expr`` first."""
        if self._hoisting or not self._holdable(expr):
            return None
        loop = self._inside(self._anchor(expr))
        if loop is None:
            return None
        held = self.fresh(prefix)
        loop.pre.append(f"{held} = _ABSENT")
        return held

    @contextmanager
    def _first_use(self, held: str):
        with self.block(f"if {held} is _ABSENT:"):
            self._hoisting = True  # its own operands ride along
            try:
                yield
            finally:
                self._hoisting = False

    # -- scope / focus -----------------------------------------------------

    @contextmanager
    def bound(self, var: QName, local: str, kind: str):
        had = var in self.scope
        old = self.scope.get(var)
        self.scope[var] = _Binding(local, kind, self._loop)
        try:
            yield
        finally:
            if had:
                self.scope[var] = old
            else:
                del self.scope[var]

    @contextmanager
    def focused(self, item: str, position: str, size: str,
                anchor: Loop | Func | None = None):
        """A local focus; ``anchor`` as :attr:`_focus_anchor`."""
        old = self.focus, self._focus_anchor
        self.focus, self._focus_anchor = (item, position, size), anchor
        try:
            yield
        finally:
            self.focus, self._focus_anchor = old

    # -- plan-tree bookkeeping ---------------------------------------------

    def _pnode(self, expr, tag: str = "fused"):
        if not self.instrument:
            return None
        from repro.observability.explain import PlanNode

        node = PlanNode.for_expr(self._op_counter, expr)
        self._op_counter += 1
        node.info["codegen"] = tag
        stack = self._node_stack
        if stack:
            stack[-1].children.append(node)
        elif self.plan_tree is None:
            self.plan_tree = node
        return node

    def pnode(self, expr, tag: str = "fused"):
        return self.under(self._pnode(expr, tag))

    @contextmanager
    def under(self, node):
        """Enter a PlanNode — a new one (:meth:`pnode`), or one created
        before (sink bodies run while the producer's subtree is on the
        stack; this restores nesting)."""
        if node is None:
            yield None
            return
        self._node_stack.append(node)
        try:
            yield node
        finally:
            self._node_stack.pop()

    def _here(self):
        stack = self._node_stack
        return stack[-1] if stack else None

    # -- dispatch ------------------------------------------------------------

    def emit(self, expr, sink) -> None:
        """Emit ``expr``'s production into ``sink``."""
        with self.pnode(expr):
            self._dispatch(expr, sink)

    def _dispatch(self, expr, sink) -> None:
        """Dispatch without registering a PlanNode (the root region's
        node is created by compile_root)."""
        getattr(self, f"_e_{type(expr).__name__}")(expr, sink)

    # -- sub-regions ---------------------------------------------------------

    def _subregion(self, expr, dispatch: bool = False) -> str:
        """Emit ``expr`` as its own generator function, yielding its
        items; returns the call expression.  ``dispatch``: ``expr``
        already has its plan node (the sub-region is a second emission
        of it).  Captured scope locals (and identifier focus parts)
        pass as parameters under their own names, so the scope map and
        focus stay valid inside."""
        emit = self._dispatch if dispatch else self.emit
        name = self.fresh("r")
        captured: list[str] = []
        for binding in self.scope.values():
            if binding.local not in captured:
                captured.append(binding.local)
        if self.focus is not None:
            for part in self.focus:
                if part.isidentifier() and part not in captured:
                    captured.append(part)
        with self.function(name, ["dctx"] + captured):
            emit(expr, _YieldSink())
        args = "".join(", " + c for c in captured)
        return f"{name}(dctx{args})"

    # -- scalar emission helpers ---------------------------------------------

    def _emit_ebv(self, expr) -> str:
        """Emit the effective boolean value of ``expr`` into a plain
        Python bool local; statically-boolean shapes skip the generic
        first/second-item machinery."""
        if isinstance(expr, (ast.AndExpr, ast.OrExpr)):
            with self.pnode(expr):
                return self._emit_logic(expr)
        if isinstance(expr, ast.IfExpr):
            with self.pnode(expr):
                cond = self._emit_ebv(expr.cond)
                out = self.fresh("b")
                with self.block(f"if {cond}:"):
                    then = self._emit_ebv(expr.then)
                    self.w(f"{out} = {then}")
                with self.block("else:"):
                    orelse = self._emit_ebv(expr.orelse)
                    self.w(f"{out} = {orelse}")
            return out
        if isinstance(expr, ast.Quantified):
            with self.pnode(expr):
                return self._emit_quantified_flag(expr)
        if isinstance(expr, ast.Comparison):
            with self.pnode(expr):
                if expr.family == "general":
                    return self._emit_general(expr)
                if expr.family == "value":
                    a = self._emit_atom_opt(expr.left)
                    b = self._emit_atom_opt(expr.right)
                    out = self.fresh("b")
                    self.w(f"{out} = False")
                    with self.block(f"if {a} is not None and "
                                    f"{b} is not None:"):
                        self.w(f"{out} = _value_compare({expr.op!r}, "
                               f"{a}, {b})")
                    return out
                result = self._emit_node_compare(expr)
                out = self.fresh("b")
                self.w(f"{out} = bool({result})")  # None (empty) -> False
                return out
        if isinstance(expr, ast.FunctionCall) and expr.name.uri == FN_NS \
                and len(expr.args) == 1 \
                and expr.name.local in _EBV_FUSED_BUILTINS \
                and fnlib.lookup(expr.name, 1) is not None:
            local = expr.name.local
            with self.pnode(expr):
                if local == "boolean":
                    return self._emit_ebv(expr.args[0])
                if local == "exists":
                    return self._emit_exists(expr.args[0])
                if local == "not":
                    inner = self._emit_ebv(expr.args[0])
                    out = self.fresh("b")
                    self.w(f"{out} = not {inner}")
                    return out
                flag = self._emit_exists(expr.args[0])
                out = self.fresh("b")
                self.w(f"{out} = not {flag}")
                return out
        if isinstance(expr, ast.Literal):
            with self.pnode(expr):
                out = self.fresh("b")
                self.w(f"{out} = _ebv_atom({self.const(expr.value)})")
            return out
        if _nodes_only_path(expr):
            # nodes-only sequences: EBV is True exactly when non-empty
            # (first item decides; FORG0006 cannot arise), so exist —
            # and dedup/sort is unobservable, so the DDO peels off
            return self._emit_exists(_peel_ddo(expr))

        result = self.fresh("b")
        first = self.fresh("v")
        self.w(f"{result} = False")
        self.w(f"{first} = _ABSENT")
        with self.early() as token:
            self.emit(expr, _EBVSink(result, first, token))
            with self.block(f"if {first} is not _ABSENT:"):
                self.w(f"{result} = _ebv_atom({first})")
        return result

    def _emit_logic(self, expr) -> str:
        """``and`` / ``or`` into a plain Python bool local: the right
        operand runs only when the left does not decide."""
        left = self._emit_ebv(expr.left)
        out = self.fresh("b")
        conjunction = isinstance(expr, ast.AndExpr)
        self.w(f"{out} = {not conjunction}")
        with self.block(f"if {left}:" if conjunction else f"if not {left}:"):
            self.w(f"{out} = {self._emit_ebv(expr.right)}")
        return out

    def _emit_boolean(self, value: str, sink) -> None:
        """Produce the ``xs:boolean`` of the Python bool ``value``."""
        t = self.fresh("t")
        self.w(f"{t} = _boolean({value})")
        sink.item(self, t)

    def _emit_collected(self, expr, sink_cls=_CollectSink) -> str:
        """Drain ``expr`` into a fresh list local (items, or atomized
        values with ``_AtomizeSink``); returns the local."""
        items = self.fresh("l")
        self.w(f"{items} = []")
        self.emit(expr, sink_cls(items))
        return items

    def _emit_exists(self, expr) -> str:
        flag = self.fresh("b")
        self.w(f"{flag} = False")
        with self.early() as token:
            self.emit(expr, _ExistsSink(flag, token))
        return flag

    def _emit_count(self, expr) -> str:
        counter = self.fresh("n")
        self.w(f"{counter} = 0")
        self.emit(expr, _CountSink(counter))
        return counter

    def _emit_general(self, expr: ast.Comparison) -> str:
        """General comparison: right buffered first (empty right short-
        circuits to False without touching left), left lazy with
        early exit — exactly :func:`general_compare`.

        A loop-invariant right operand is buffered once per loop
        activation, into a comparator (``_compare_lane``) the loop body
        calls per left value; a left operand that is a cast hands the
        lane its uncast value, so ``xs:double(path) >= $x`` allocates
        nothing per item."""
        value_op = _GENERAL_TO_VALUE[expr.op]
        left = expr.left
        lane = self._held(expr.right, "ln")
        casts = lane is not None and self._is_cast(left)
        if lane is None:
            right_list = self._emit_collected(expr.right, _AtomizeSink)
            guard = right_list
        else:
            with self._first_use(lane):
                right_list = self._emit_collected(expr.right, _AtomizeSink)
                target = self.const(self._cast_type(left), "ty") \
                    if casts else None
                self.w(f"{lane} = _compare_lane({value_op!r}, {target}, "
                       f"{right_list})")
            guard = f"{lane} is not None"
        result = self.fresh("b")
        self.w(f"{result} = False")
        with self.block(f"if {guard}:"):
            if casts:
                # zero-or-one left value: nothing to exit early from
                with self.pnode(left), self._cast_operand(left) as atom:
                    with self.block(f"if {lane}({atom}):"):
                        self.w(f"{result} = True")
            else:
                with self.early() as token:
                    self.emit(left, _GCLeftSink(result, value_op, token,
                                                right_list, lane))
        return result

    def _emit_node_compare(self, expr: ast.Comparison) -> str:
        """node/order comparison into a local holding True/False/None.

        The left operand drains and validates before the right is
        evaluated, matching closure argument order."""
        fn = "_node_compare" if expr.family == "node" else "_order_compare"
        la = self._emit_collected(expr.left)
        na = self.fresh("nd")
        self.w(f"{na} = _opt_single_node({la})")
        lb = self._emit_collected(expr.right)
        nb = self.fresh("nd")
        self.w(f"{nb} = _opt_single_node({lb})")
        result = self.fresh("cmp")
        self.w(f"{result} = {fn}({expr.op!r}, {na}, {nb})")
        return result

    def _emit_atom_opt(self, expr) -> str:
        """Zero-or-one atomized value (streaming err:XPTY0004 on a
        second value, like ``_opt_atomic_value``).  A literal is its
        own value; a loop-invariant operand is evaluated at its first
        use per loop activation."""
        if isinstance(expr, ast.Literal):
            self._pnode(expr)
            return self.const(expr.value)
        held = self._held(expr, "h")
        if held is not None:
            with self._first_use(held):
                self.w(f"{held} = {self._emit_atom_opt(expr)}")
            return held
        var = self.fresh("v")
        self.w(f"{var} = None")
        self.emit(expr, _SingletonAtomSink(var))
        return var

    def _emit_int_opt(self, expr, what: str) -> str:
        """Optional integer operand; drains fully before validating,
        like ``_opt_integer`` (always a local, never a literal)."""
        lst = self._emit_collected(expr, _AtomizeSink)
        out = self.fresh("n")
        self.w(f"{out} = _opt_integer({lst}, {what!r})")
        return out

    def _emit_quantified_flag(self, expr: ast.Quantified) -> str:
        is_some = expr.kind == "some"
        flag = self.fresh("b")
        self.w(f"{flag} = {not is_some}")
        parent = self._here()
        with self.early() as token:
            self.emit(expr.seq, _QuantSink(expr, flag, token, parent))
        return flag

    def _context_item(self) -> str:
        if self.focus is not None:
            return self.focus[0]
        ci = self.fresh("ci")
        self.w(f"{ci} = dctx.context_item()")
        return ci

    # -- expression emitters --------------------------------------------------

    def _e_Literal(self, expr: ast.Literal, sink) -> None:
        sink.item(self, self.const(expr.value))

    def _e_EmptySequence(self, expr, sink) -> None:
        pass

    def _e_VarRef(self, expr: ast.VarRef, sink) -> None:
        binding = self.scope.get(expr.name)
        if binding is not None:
            if binding.kind == "item":
                sink.item(self, binding.local)
            else:
                self._produce(binding.local, sink)
            return
        qn = self.const(expr.name, "qn")
        v = self.fresh("v")
        if is_lifted(expr.name):
            # the engine binds a lifted literal as one atomic value
            self.w(f"{v} = dctx.variable({qn})[0]")
            sink.item(self, v)
            return
        self.w(f"{v} = dctx.variable({qn})")
        with self.block(f"if not isinstance({v}, (list, tuple, "
                        f"_BufferedSequence)):"):
            self.w(f"{v} = ({v},)")
        self._produce(v, sink)

    def _produce(self, iterable: str, sink, nodes: bool = False) -> None:
        """Feed the sink every item of the Python iterable ``iterable``
        (``nodes``: each is proven to be a node)."""
        t = self.fresh("t")
        if nodes:
            self._nodes.add(t)
        with self.loop(f"for {t} in {iterable}:"):
            sink.item(self, t)

    def _e_ContextItem(self, expr, sink) -> None:
        sink.item(self, self._context_item())

    def _one_site(self, expr, sink) -> bool:
        """Called by emitters that would invoke ``sink.item`` at several
        sites: for a sink that is not ``inline``, produce ``expr``
        through a sub-region generator instead — one loop, one site —
        and return True."""
        if getattr(sink, "inline", False):
            return False
        t = self.fresh("t")
        with self.loop(f"for {t} in {self._subregion(expr)}:"):
            sink.item(self, t)
        return True

    def _e_SequenceExpr(self, expr: ast.SequenceExpr, sink) -> None:
        if len(expr.items) > 1 and self._one_site(expr, sink):
            return
        for item in expr.items:
            self.emit(item, sink)

    def _e_RangeExpr(self, expr: ast.RangeExpr, sink) -> None:
        low = self._emit_int_opt(expr.low, "range start")
        high = self._emit_int_opt(expr.high, "range end")
        with self.block(f"if {low} is not None and {high} is not None:"):
            i = self.fresh("i")
            with self.loop(f"for {i} in range({low}, {high} + 1):"):
                t = self.fresh("t")
                self.w(f"{t} = _integer({i})")
                sink.item(self, t)

    # -- binding forms ---------------------------------------------------------

    def _e_LetExpr(self, expr: ast.LetExpr, sink) -> None:
        self._emit_let(expr.var, expr.value,
                       lambda: self.emit(expr.body, sink))

    def _emit_for(self, var, pos_var, seq, body) -> None:
        """``for $var [at $pos_var] in seq``: ``body()`` emits the code
        that runs per bound item."""
        pos_counter = None
        if pos_var is not None:
            pos_counter = self.fresh("p")
            self.w(f"{pos_counter} = 0")
        self.emit(seq, _ForSink(var, pos_var, pos_counter, self._here(),
                                body))

    def _emit_let(self, var, value, body) -> None:
        # lazy binding: the value is a sub-region generator behind a
        # BufferedSequence — pulled at most once, or never if unused
        call = self._subregion(value)
        binding = self.fresh("let")
        self.w(f"{binding} = _BufferedSequence({call}, cancellation=_tok)")
        with self.bound(var, binding, "seq"):
            body()

    def _e_ForExpr(self, expr: ast.ForExpr, sink) -> None:
        self._emit_for(expr.var, expr.pos_var, expr.seq,
                       lambda: self.emit(expr.body, sink))

    def _e_Quantified(self, expr: ast.Quantified, sink) -> None:
        self._emit_boolean(self._emit_quantified_flag(expr), sink)

    def _e_IfExpr(self, expr: ast.IfExpr, sink) -> None:
        if not isinstance(expr.then, ast.EmptySequence) \
                and not isinstance(expr.orelse, ast.EmptySequence) \
                and self._one_site(expr, sink):
            return
        cond = self._emit_ebv(expr.cond)
        with self.block(f"if {cond}:"):
            self.emit(expr.then, sink)
        with self.block("else:"):
            self.emit(expr.orelse, sink)

    # -- logic / comparison / arithmetic --------------------------------------

    def _e_AndExpr(self, expr: ast.AndExpr, sink) -> None:
        self._emit_boolean(self._emit_logic(expr), sink)

    def _e_OrExpr(self, expr: ast.OrExpr, sink) -> None:
        self._emit_boolean(self._emit_logic(expr), sink)

    def _e_Comparison(self, expr: ast.Comparison, sink) -> None:
        if expr.family == "general":
            self._emit_boolean(self._emit_general(expr), sink)
            return
        if expr.family == "value":
            a = self._emit_atom_opt(expr.left)
            b = self._emit_atom_opt(expr.right)
            with self.block(f"if {a} is not None and {b} is not None:"):
                self._emit_boolean(f"_value_compare({expr.op!r}, {a}, {b})",
                                   sink)
            return
        result = self._emit_node_compare(expr)
        with self.block(f"if {result} is not None:"):
            self._emit_boolean(result, sink)

    def _e_Arithmetic(self, expr: ast.Arithmetic, sink) -> None:
        a = self._emit_atom_opt(expr.left)
        b = self._emit_atom_opt(expr.right)
        result = self.fresh("t")
        self.w(f"{result} = _arith({expr.op!r}, {a}, {b})")
        with self.block(f"if {result} is not None:"):
            sink.item(self, result)

    def _e_UnaryExpr(self, expr: ast.UnaryExpr, sink) -> None:
        value = self._emit_atom_opt(expr.operand)
        fn = "_negate" if expr.op == "-" else "_uplus"
        result = self.fresh("t")
        self.w(f"{result} = {fn}({value})")
        with self.block(f"if {result} is not None:"):
            sink.item(self, result)

    def _e_SetOp(self, expr: ast.SetOp, sink) -> None:
        # left is drained and node-validated before right evaluates
        la = self._emit_collected(expr.left)
        self.w(f"{la} = _all_nodes({la}, {expr.op!r})")
        lb = self._emit_collected(expr.right)
        self.w(f"{lb} = _all_nodes({lb}, {expr.op!r})")
        self._produce(f"_set_result({expr.op!r}, {la}, {lb})", sink)

    # -- paths ------------------------------------------------------------------

    def _e_RootExpr(self, expr, sink) -> None:
        ci = self._context_item()
        if ci not in self._nodes:
            with self.block(f"if not isinstance({ci}, _Node):"):
                self.w('raise _TypeError_("\'/\' requires a node context '
                       'item", code="XPDY0050")')
        t = self.fresh("t")
        self.w(f"{t} = {ci}.root()")
        sink.item(self, t)

    def _e_Step(self, expr: ast.Step, sink) -> None:
        ci = self._context_item()
        if ci not in self._nodes:
            with self.block(f"if not isinstance({ci}, _Node):"):
                self.w(f'raise _TypeError_("axis step {expr.axis}:: on a '
                       f'non-node item", code="XPTY0020")')
        self._emit_step_walk(expr, ci, sink)

    @contextmanager
    def _sized_loop(self, base):
        """``for pos, item in enumerate(<base, buffered>, 1):`` for a
        consumer that reads fn:last(): like the closure operators, the
        base sits behind a BufferedSequence whose ``length`` resolves —
        and drains the base — only when last() is actually called.
        Yields the ``(item, pos, size)`` locals inside the loop body."""
        call = self._subregion(base)
        seq = self.fresh("bs")
        self.w(f"{seq} = _BufferedSequence({call}, cancellation=_tok)")
        size = self.fresh("sz")
        self.w(f"{size} = {seq}.length")
        self._lazy_sizes.add(size)
        pos, item = self.fresh("i"), self.fresh("t")
        with self.loop(f"for {pos}, {item} in enumerate({seq}, 1):"):
            yield item, pos, size

    def _e_PathExpr(self, expr: ast.PathExpr, sink) -> None:
        right = expr.right
        if isinstance(right, ast.Step) or \
                (isinstance(right, ast.Filter) and
                 isinstance(right.base, ast.Step)):
            # neither shape reads the outer focus position: the step
            # walk only needs the context node, and a fused filter's
            # predicate gets its own per-candidate focus
            pos_counter = None
        elif uses_last(right):
            with self._sized_loop(expr.left) as (item, pos, size):
                self.poll()
                with self.block(f"if not isinstance({item}, _Node):"):
                    self.w('raise _TypeError_("path step applied to a '
                           'non-node", code="XPTY0019")')
                with self.focused(item, pos, size):
                    self.emit(right, sink)
            return
        else:
            pos_counter = self.fresh("i")
            self.w(f"{pos_counter} = 0")
        self.emit(expr.left, _PathSink(expr, sink, pos_counter, self._here()))

    def _emit_path_right(self, right, item: str, pos: str, sink,
                         anchor: Loop | Func | None = None) -> None:
        """The per-left-item right side of a path (focus = left item,
        invariant to the loops inside ``anchor`` when the left is)."""
        if isinstance(right, ast.Step):
            with self.pnode(right):
                with self.focused(item, pos, "0"):
                    self._emit_step_walk(right, item, sink)
            return
        with self.focused(item, pos, "0", anchor):
            join = self._join_plan(right) \
                if isinstance(right, ast.Filter) else None
        if isinstance(right, ast.Filter) and isinstance(right.base, ast.Step) \
                and join is None:
            # fused step+filter: the candidate sequence is per-parent,
            # so position()/last() in the predicate see the item-mode
            # focus over this parent's candidates
            with self.pnode(right) as filter_node:
                step = right.base
                predicate = right.predicate
                if not isinstance(predicate, ast.Literal) and \
                        not uses_last(predicate):
                    # streaming: no candidate list — walk the step and
                    # test each candidate in place
                    cpos = self.fresh("cp")
                    self.w(f"{cpos} = 0")
                    with self.pnode(step):
                        self._emit_step_walk(
                            step, item,
                            _FusedFilterSink(predicate, cpos, sink,
                                             filter_node))
                    return
                candidates = self.fresh("c")
                self.w(f"{candidates} = []")
                with self.pnode(step):
                    self._emit_step_walk(step, item, _CollectSink(candidates))
                if isinstance(predicate, ast.Literal) and \
                        predicate.value.type.derives_from(T.XS_INTEGER):
                    index = int(predicate.value.value)
                    if index >= 1:
                        with self.block(f"if len({candidates}) >= {index}:"):
                            t = self.fresh("t")
                            self.w(f"{t} = {candidates}[{index - 1}]")
                            sink.item(self, t)
                    return
                size = self.fresh("cs")
                self.w(f"{size} = len({candidates})")
                cpos = self.fresh("cp")
                cand = self.fresh("cc")
                self._nodes.add(cand)
                with self.loop(f"for {cpos}, {cand} in "
                               f"enumerate({candidates}, 1):"):
                    self._emit_predicate_keep(predicate, cand, cpos, size,
                                              cand, sink)
            return
        # generic right side (it never reads last(): _e_PathExpr took
        # the sized loop otherwise)
        with self.focused(item, pos, "0", anchor):
            self.emit(right, sink)

    def _emit_predicate_keep(self, predicate, item: str, pos: str, size: str,
                             keep: str, sink) -> None:
        """Emit "does ``item`` at ``pos`` satisfy ``predicate``; if so
        feed ``keep`` to the sink" with the item-mode decision rules."""
        if _static_boolean(predicate) or _nodes_only_path(predicate):
            # boolean singletons never take _filter_keep's numeric
            # branch, and nodes-only sequences decide on existence —
            # either way the EBV emission applies (with its early exit)
            with self.focused(item, pos, size):
                holds = self._emit_ebv(predicate)
            with self.block(f"if {holds}:"):
                sink.item(self, keep)
            return
        with self.focused(item, pos, size):
            result = self._emit_collected(predicate)
        with self.block(f"if _filter_keep({result}, {pos}):"):
            sink.item(self, keep)

    def _e_Filter(self, expr: ast.Filter, sink) -> None:
        join = self._join_plan(expr)
        if join is not None:
            self._emit_join(expr, join, sink)
            return
        predicate = expr.predicate
        if isinstance(predicate, ast.Literal) and \
                predicate.value.type.derives_from(T.XS_INTEGER):
            index = int(predicate.value.value)
            if index < 1:
                return  # statically empty; the base is never evaluated
            counter = self.fresh("n")
            self.w(f"{counter} = 0")
            with self.early() as token:
                self.emit(expr.base, _NthSink(counter, index, sink, token))
            return
        if uses_last(predicate):
            with self._sized_loop(expr.base) as (item, pos, size):
                self.poll()
                self._emit_predicate_keep(predicate, item, pos, size,
                                          item, sink)
            return
        pos_counter = self.fresh("i")
        self.w(f"{pos_counter} = 0")
        self.emit(expr.base,
                  _FilterSink(expr, sink, pos_counter, self._here()))

    # -- join detection: correlated equality filters ---------------------------

    def _join_plan(self, expr: ast.Filter):
        """``(key steps, probe, context, loop)`` when ``expr`` is a
        correlated equality filter ``B[K = $v]`` worth a hash lane, else
        None: K a relative path of child/attribute steps (or ``.``),
        ``$v`` a pure scalar, ``B`` invariant to the open ``loop`` while
        ``$v`` varies inside it.  ``B`` is either a step from a focus
        that repeats across that loop (``context`` names it: one table
        per context node) or a holdable expression (``context`` None:
        one table)."""
        pred = expr.predicate
        if self._hoisting or isinstance(self._loop, Func) \
                or not isinstance(pred, ast.Comparison) \
                or pred.family != "general" or pred.op != "=":
            return None
        for key, probe in ((pred.left, pred.right), (pred.right, pred.left)):
            steps = _key_steps(key)
            if steps is not None and pure_scalar(probe):
                break
        else:
            return None
        base = expr.base
        if isinstance(base, ast.Step):
            if self.focus is None or self._focus_anchor is None:
                return None
            context, anchor = self.focus[0], self._focus_anchor
        elif self._holdable(base):
            context, anchor = None, self._anchor(base)
        else:
            return None
        loop = self._inside(anchor)
        if loop is None or \
                self._innermost([anchor, self._anchor(probe)]) is anchor:
            return None
        return steps, probe, context, loop

    def _emit_join(self, expr: ast.Filter, join, sink) -> None:
        """``B[K = $v]`` through a :class:`~repro.runtime.compare.
        HashLane` held for one activation of the loop ``B`` is invariant
        to: the lane's table (built at first use) answers a string-like
        probe; anything else — an unusable table, a probe the table does
        not decide — runs the filter as written, lazily, from a
        sub-region.  An empty ``B`` yields nothing without evaluating
        ``$v``, as the scan would."""
        steps, probe, context, loop = join
        base = expr.base
        spec = (None if context is None
                else compile_step_fn(base.axis, base.test),
                tuple(compile_step_fn(step.axis, step.test)
                      for step in steps))
        lane = self.fresh("hj")
        loop.pre.append(f"{lane} = _HashLane({self.const(spec, 'hs')}, _tok)")
        if self.instrument:
            self._here().info["join"] = "hash"
        hits = self.fresh("s")
        if context is None:
            self.w(f"{hits} = {lane}.table(None, {self._subregion(base)})")
        else:
            self.w(f"{hits} = {lane}.table({context})")
        with self.block(f"if {hits}:"):
            atoms = self._emit_collected(probe, _AtomizeSink)
            self.w(f"{hits} = {hits}.probe({atoms})")
        with self.block(f"if {hits} is None:"):
            self.w(f"{hits} = {self._subregion(expr, dispatch=True)}")
        self._produce(hits, sink, nodes=context is not None)

    def _e_DDO(self, expr: ast.DDO, sink) -> None:
        if isinstance(sink, _CountSink):
            # count(DDO(...)) observes only the post-dedup cardinality,
            # so the document-order sort is unobservable: count distinct
            # nodes by identity (same key _ddo_list dedups on) as they
            # stream past, keeping the mixed-sequence check and the
            # ddo_sorts accounting of the materialized path
            seen = self.fresh("dd")
            nodes = self.fresh("dn")
            atoms = self.fresh("da")
            self.w(f"{seen} = set()")
            self.w(f"{nodes} = 0")
            self.w(f"{atoms} = 0")
            self.emit(expr.operand,
                      _DistinctCountSink(seen, nodes, atoms))
            with self.block(f"if {nodes} and {atoms}:"):
                self.w("raise _TypeError_("
                       "'path result mixes nodes and atomic values', "
                       "code='XPTY0018')")
            with self.block(f"if {nodes}:"):
                self.w("dctx.count('ddo_sorts')")
            self.w(f"{sink.counter} += {nodes} + {atoms}")
            return
        items = self._emit_collected(expr.operand)
        self._produce(f"_ddo_list({items}, dctx)", sink)

    def _e_OrderedExpr(self, expr: ast.OrderedExpr, sink) -> None:
        self.emit(expr.operand, sink)

    # -- index-backed operators ---------------------------------------------------

    def _var_value(self, name: QName) -> str:
        """Code for the *value* bound to ``$name`` (what
        ``dctx.variable`` returns under the closure backend)."""
        binding = self.scope.get(name)
        if binding is None:
            return f"dctx.variable({self.const(name, 'qn')})"
        return self._bound_value(binding)

    def _deferred_value(self, expr) -> str:
        """Code for ``expr``'s value (an item or a sequence), to run
        in a ``lambda``: the argument of a kernel that decides itself
        whether, and when, to evaluate it."""
        if isinstance(expr, ast.Literal):
            return f"({self.const(expr.value)},)"
        if isinstance(expr, ast.VarRef):
            return self._var_value(expr.name)
        return self._subregion(expr)

    @staticmethod
    def _bound_value(binding: _Binding) -> str:
        return f"({binding.local},)" if binding.kind == "item" \
            else binding.local

    def _emit_indexed(self, expr, prefix: str, sink, index_side) -> None:
        """The shared frame of AccessPath and TwigJoin: run
        ``index_side(stored, doc)`` (returns the local holding its node
        list) when ``$var`` is the pinned indexed tree the plan was
        costed for, else count ``<prefix>.fallback_navigation`` and run
        the embedded navigation expression."""
        fallback = self._subregion(expr.fallback)
        stored, doc = self.fresh("sd"), self.fresh("d")
        self.w(f"{stored}, {doc} = _indexed_value("
               f"{self.const(self.catalog, 'cat')}, "
               f"{self._var_value(expr.var)})")
        nodes = self.fresh("l")
        with self.block(f"if {stored} is None:"):
            self.w(f"dctx.count({prefix + '.fallback_navigation'!r})")
            self.w(f"{nodes} = {fallback}")
        with self.block("else:"):
            self.w(f"{nodes} = {index_side(stored, doc)}")
        n = self.fresh("n")
        self._nodes.add(n)
        with self.loop(f"for {n} in {nodes}:"):
            self.poll()
            sink.item(self, n)

    def _e_AccessPath(self, expr: ast.AccessPath, sink) -> None:
        def index_side(stored: str, doc: str) -> str:
            # the probe is evaluated by the shared kernel, lazily
            probe = "None" if expr.pred is None \
                else f"lambda: {self._deferred_value(expr.pred[2])}"
            nodes = self.fresh("l")
            self.w(f"{nodes} = _access_path_candidates({stored}, {doc}, "
                   f"{self.const(expr, 'x')}, {probe}, dctx)")
            if expr.predicate is not None:
                # re-verify every index candidate with the original
                # predicate (see _c_AccessPath)
                size, verified = self.fresh("cs"), self.fresh("l")
                self.w(f"{size} = len({nodes})")
                self.w(f"{verified} = []")
                pos, cand = self.fresh("cp"), self.fresh("cc")
                self._nodes.add(cand)
                with self.loop(f"for {pos}, {cand} in "
                               f"enumerate({nodes}, 1):"):
                    self.poll()
                    with self.focused(cand, pos, size):
                        holds = self._emit_ebv(expr.predicate)
                    with self.block(f"if {holds}:"):
                        self.w(f"{verified}.append({cand})")
                nodes = verified
            self.w(f"dctx.count('access_path.actual_rows', len({nodes}))")
            return nodes

        self._emit_indexed(expr, "access_path", sink, index_side)

    def _e_TwigJoin(self, expr: ast.TwigJoin, sink) -> None:
        self._emit_indexed(
            expr, "twig", sink,
            lambda stored, _doc:
                f"_twig_nodes({stored}, {self.const(expr, 'x')}, dctx)")

    # -- FLWOR with order by -------------------------------------------------------

    def _e_FLWOR(self, expr: ast.FLWOR, sink) -> None:
        """Mirrors ``_c_FLWOR`` pass for pass: materialize every binding
        tuple (where applied), regroup them (``group by``), then compute
        every tuple's order keys, sort, and run the return body — fused
        into the outer sink — per sorted tuple.  A tuple is the Python
        tuple of the clause variables' locals."""
        bound_vars: list[tuple[QName, str]] = []  # (variable, kind)
        for cl in expr.clauses:
            if isinstance(cl, ast.ForClause):
                bound_vars.append((cl.var, "item"))
                if cl.pos_var is not None:
                    bound_vars.append((cl.pos_var, "item"))
            else:
                bound_vars.append((cl.var, "seq"))
        rows = self.fresh("rows")
        self.w(f"{rows} = []")

        def tuple_of(names) -> str:
            return "(" + "".join(f"{name}, " for name in names) + ")"

        def clause(depth: int, put) -> None:
            """Clauses ``depth`` on; ``put(row)`` takes each tuple."""
            if depth == len(expr.clauses):
                row = tuple_of(self.scope[var].local for var, _ in bound_vars)
                if expr.where is None:
                    put(row)
                else:
                    holds = self._emit_ebv(expr.where)
                    with self.block(f"if {holds}:"):
                        put(row)
                return
            # (a clause body may be emitted at several production sites
            # of its source, like any sink)
            cl = expr.clauses[depth]
            if isinstance(cl, ast.ForClause):
                self._emit_for(cl.var, cl.pos_var, cl.expr,
                               lambda: clause(depth + 1, put))
            else:
                self._emit_let(cl.var, cl.expr,
                               lambda: clause(depth + 1, put))

        clause(0, lambda row: self.w(f"{rows}.append({row})"))

        @contextmanager
        def each_row(rows: str, decorated: bool = False):
            """A loop over ``rows`` (``(keys, row)`` pairs when
            ``decorated``) with the tuple's variables back in scope;
            yields the row local."""
            row = self.fresh("row")
            locals_ = [self.fresh("fv") for _ in bound_vars]
            target = f"_, {row}" if decorated else row
            with self.loop(f"for {target} in {rows}:"):
                self.w(f"{tuple_of(locals_)} = {row}")
                with ExitStack() as stack:
                    for (var, kind), local in zip(bound_vars, locals_):
                        stack.enter_context(self.bound(var, local, kind))
                    yield row

        if expr.group:
            # the keys of every tuple, in tuple order, then the partition;
            # each group is one tuple binding every variable to the
            # concatenation of its members' values, and each grouping
            # variable to its key
            keyed = self.fresh("rows")
            self.w(f"{keyed} = []")
            with each_row(rows) as row:
                keys = []
                for _gvar, key in expr.group:
                    values = self._emit_collected(key, _AtomizeSink)
                    keys.append(self.fresh("k"))
                    self.w(f"{keys[-1]} = _group_key({values})")
                self.w(f"{keyed}.append(({tuple_of(keys)}, {row}))")
            rows = self.fresh("rows")
            members, key_items = self.fresh("m"), self.fresh("k")
            r, x = self.fresh("r"), self.fresh("x")
            merged = [f"[{r}[{i}] for {r} in {members}]" if kind == "item"
                      else f"[{x} for {r} in {members} for {x} in {r}[{i}]]"
                      for i, (_var, kind) in enumerate(bound_vars)]
            merged += [f"[{key_items}[{i}]] if {key_items}[{i}] is not None "
                       f"else []" for i in range(len(expr.group))]
            self.w(f"{rows} = [{tuple_of(merged)} for {members}, {key_items} "
                   f"in _group_rows({keyed})]")
            bound_vars = [(var, "seq") for var, _kind in bound_vars] \
                + [(gvar, "seq") for gvar, _key in expr.group]

        if expr.order:
            decorated = self.fresh("rows")
            self.w(f"{decorated} = []")
            with each_row(rows) as row:
                keys = []
                for spec in expr.order:
                    values = self._emit_collected(spec.expr, _AtomizeSink)
                    keys.append(self.fresh("k"))
                    self.w(f"{keys[-1]} = _order_key_value({values})")
                self.w(f"{decorated}.append(({tuple_of(keys)}, {row}))")
            specs = [(None, spec.descending, spec.empty_least)
                     for spec in expr.order]
            self.w(f"{decorated}.sort(key=_OrderKey.factory("
                   f"{self.const(specs, 'os')}))")
            rows = decorated
        with each_row(rows, decorated=bool(expr.order)):
            self.emit(expr.ret, sink)

    # -- type operators ------------------------------------------------------------

    def _seq_type(self, seq_type) -> str:
        return self.const(resolve_sequence_type(seq_type, self.ctx), "ty")

    def _e_InstanceOf(self, expr: ast.InstanceOf, sink) -> None:
        seq_type = self._seq_type(expr.seq_type)
        items = self._emit_collected(expr.operand)
        t = self.fresh("t")
        self.w(f"{t} = _boolean({seq_type}.matches({items}))")
        sink.item(self, t)

    def _e_TreatExpr(self, expr: ast.TreatExpr, sink) -> None:
        resolved = resolve_sequence_type(expr.seq_type, self.ctx)
        seq_type = self.const(resolved, "ty")
        items = self._emit_collected(expr.operand)
        with self.block(f"if not {seq_type}.matches({items}):"):
            message = f"treat as {resolved}: value does not conform"
            self.w(f"raise _TypeError_({message!r}, code='XPDY0050')")
        self._produce(items, sink)

    def _is_cast(self, expr) -> bool:
        """``cast as``, or a constructor function ``xs:T(..)`` of an
        atomic type (any other ``xs:`` call is an unknown function)."""
        return isinstance(expr, ast.CastExpr) or (
            is_constructor_call(expr) and len(expr.args) == 1
            and isinstance(self.ctx.lookup_type(expr.name), T.AtomicType))

    def _cast_type(self, expr) -> T.AtomicType:
        """The target type of a ``cast as`` / constructor call."""
        if isinstance(expr, ast.CastExpr):
            return resolve_atomic(expr.type_name, self.ctx)
        return self.ctx.lookup_type(expr.name)

    @contextmanager
    def _cast_operand(self, expr):
        """The operand of a ``cast as`` or constructor call, atomized
        and checked down to one value: yields the code of that source
        value inside the block that runs when there is one."""
        if isinstance(expr, ast.CastExpr):
            values = self._emit_collected(expr.operand, _AtomizeSink)
            with self.block(f"if not {values}:"):
                if not expr.optional:
                    message = f"cast as {self._cast_type(expr)}: empty operand"
                    self.w(f"raise _TypeError_({message!r}, code='XPTY0004')")
            header = "else:"
            many = "'cast requires a single value', code='XPTY0004'"
        else:
            values = self._emit_collected(expr.args[0], _AtomizeSink)
            header = f"if {values}:"
            many = '"constructor function requires one value"'
        with self.block(header):
            with self.block(f"if len({values}) > 1:"):
                self.w(f"raise _TypeError_({many})")
            yield f"{values}[0]"

    def _e_CastExpr(self, expr, sink) -> None:
        """``cast as`` — and the constructor functions, which are casts."""
        target = self.const(self._cast_type(expr), "ty")
        with self._cast_operand(expr) as atom:
            v0, t = self.fresh("v"), self.fresh("t")
            self.w(f"{v0} = {atom}")
            self.w(f"{t} = _AtomicValue(_cast_value({v0}.value, {v0}.type, "
                   f"{target}), {target})")
            sink.item(self, t)

    def _e_CastableExpr(self, expr: ast.CastableExpr, sink) -> None:
        target = self.const(resolve_atomic(expr.type_name, self.ctx), "ty")
        values = self._emit_collected(expr.operand, _AtomizeSink)
        t = self.fresh("t")
        self.w(f"{t} = _boolean(_castable({values}, {target}, "
               f"{expr.optional!r}))")
        sink.item(self, t)

    def _e_ParamConvert(self, expr: ast.ParamConvert, sink) -> None:
        # the function conversion rules of an inlined user function:
        # lazy over its operand, like the closure operator
        call = self._subregion(expr.operand)
        t = self.fresh("t")
        with self.loop(f"for {t} in _function_convert({call}, "
                       f"{self._seq_type(expr.seq_type)}, {expr.role!r}):"):
            sink.item(self, t)

    def _e_Typeswitch(self, expr: ast.Typeswitch, sink) -> None:
        """A chain of ``SequenceType.matches`` tests over the operand,
        collected once; each case body is a production site, bound to
        the collected items when the case names a variable."""
        if self._one_site(expr, sink):
            return
        items = self._emit_collected(expr.operand)
        header = "if"
        for case in [*expr.cases, expr.default]:
            if case.seq_type is None:  # the default
                guard = "else:"
            else:
                guard = f"{header} {self._seq_type(case.seq_type)}" \
                        f".matches({items}):"
                header = "elif"
            with self.block(guard), ExitStack() as stack:
                if case.var is not None:
                    stack.enter_context(self.bound(case.var, items, "seq"))
                self.emit(case.body, sink)

    def _e_ValidateExpr(self, expr: ast.ValidateExpr, sink) -> None:
        items = self._emit_collected(expr.operand)
        t = self.fresh("t")
        self.w(f"{t} = _validate({items}, "
               f"{self.const(self.ctx.schemas, 'sc')})")
        sink.item(self, t)

    # -- constructors ----------------------------------------------------------------

    def _ctor_name(self, expr) -> str:
        if expr.name_expr is None:
            return self.const(expr.name, "qn")
        items = self._emit_collected(expr.name_expr)
        name = self.fresh("qn")
        self.w(f"{name} = _computed_name({items}, "
               f"{self.const(self.ctx.namespaces, 'ns')})")
        return name

    def _e_ElementCtor(self, expr: ast.ElementCtor, sink) -> None:
        self.w("dctx.count('elements_constructed')")
        name = self._ctor_name(expr)
        attrs, content = self.fresh("l"), self.fresh("l")
        for target, parts in ((attrs, expr.attributes),
                              (content, expr.content)):
            self.w(f"{target} = []")
            for part in parts:
                self.emit(part, _CollectSink(target))
        t = self.fresh("t")
        self.w(f"{t} = _construct_element({name}, {attrs}, {content}, "
               f"{self.const(expr.ns_decls, 'nd')})")
        sink.item(self, t)

    def _e_AttributeCtor(self, expr: ast.AttributeCtor, sink) -> None:
        name = self._ctor_name(expr)
        parts = [self._emit_collected(part) for part in expr.value_parts]
        t = self.fresh("t")
        self.w(f"{t} = _construct_attribute({name}, [{', '.join(parts)}])")
        sink.item(self, t)

    def _e_TextCtor(self, expr: ast.TextCtor, sink) -> None:
        t = self.fresh("t")
        self.w(f"{t} = _construct_text({self._emit_collected(expr.content)})")
        with self.block(f"if {t} is not None:"):
            sink.item(self, t)

    def _e_CommentCtor(self, expr: ast.CommentCtor, sink) -> None:
        t = self.fresh("t")
        self.w(f"{t} = _construct_comment("
               f"{self._emit_collected(expr.content)})")
        sink.item(self, t)

    def _e_PICtor(self, expr: ast.PICtor, sink) -> None:
        if expr.target_expr is not None:
            value = self._emit_atom_opt(expr.target_expr)
            with self.block(f"if {value} is None:"):
                self.w("raise _DynamicError('computed PI target is empty', "
                       "code='XPTY0004')")
            target = f"str({value}.value)"
        else:
            target = repr(expr.target)
        t = self.fresh("t")
        self.w(f"{t} = _construct_pi({target}, "
               f"{self._emit_collected(expr.content)})")
        sink.item(self, t)

    def _e_DocumentCtor(self, expr: ast.DocumentCtor, sink) -> None:
        t = self.fresh("t")
        self.w(f"{t} = _construct_document("
               f"{self._emit_collected(expr.content)})")
        sink.item(self, t)

    # -- axis-step loops --------------------------------------------------------

    def _emit_step_walk(self, step: ast.Step, node: str, sink) -> None:
        """One axis step over the node in ``node``, streamed to the sink.

        The hot shapes (the same set
        :func:`repro.runtime.paths.compile_step_fn` specializes:
        child/descendant name tests, ``descendant-or-self::node()``,
        attribute name tests, ``child::text()``) are inlined as flat
        loops; anything else calls a generic kernel constant.  Guard
        conditions and traversal order mirror ``compile_step_fn``.
        """
        axis, test = step.axis, step.test
        kind, name = test.kind, test.name
        plain = test.type_name is None and test.pi_target is None

        def name_cond(var: str) -> str:
            conds = []
            if name.local != "*":
                conds.append(f"{var}.name.local == {name.local!r}")
            if name.uri != "*":
                conds.append(f"{var}.name.uri == {name.uri!r}")
            return " and ".join(conds) if conds else "True"

        if plain and kind in ("node", "element") and name is not None \
                and axis in ("child", "descendant", "descendant-or-self"):
            if axis == "child":
                c = self.fresh("n")
                self._nodes.add(c)
                with self.loop(f"for {c} in {node}.children:"):
                    with self.block(f"if isinstance({c}, _Elem) and "
                                    f"{name_cond(c)}:"):
                        sink.item(self, c)
                return
            # the walk every descendant aggregate is bound by: reversed
            # slices instead of reversed() iterators, and an only child
            # (XMark's leaf elements hold one text node) is pushed —
            # or, not being an element, dropped — without a slice
            stack = self.fresh("st")
            if axis == "descendant-or-self":
                # an element context node is the walk's first candidate
                self.w(f"{stack} = [{node}] if isinstance({node}, _Elem) "
                       f"else {node}.children[::-1]")
            else:
                self.w(f"{stack} = {node}.children[::-1]")
            n = self.fresh("n")
            self._nodes.add(n)
            with self.loop(f"while {stack}:"):
                self.w(f"{n} = {stack}.pop()")
                with self.block(f"if isinstance({n}, _Elem):"):
                    with self.block(f"if {name_cond(n)}:"):
                        sink.item(self, n)
                    ch = self.fresh("ch")
                    self.w(f"{ch} = {n}._children")
                    with self.block(f"if {ch}:"):
                        with self.block(f"if len({ch}) == 1:"):
                            only = self.fresh("n")
                            self.w(f"{only} = {ch}[0]")
                            with self.block(f"if isinstance({only}, _Elem):"):
                                self.w(f"{stack}.append({only})")
                        with self.block("else:"):
                            self.w(f"{stack}.extend({ch}[::-1])")
            return

        if plain and kind == "node" and name is None:
            if axis == "child":
                c = self.fresh("n")
                self._nodes.add(c)
                with self.loop(f"for {c} in {node}.children:"):
                    sink.item(self, c)
                return
            if axis == "self":
                sink.item(self, node)
                return
            if axis == "descendant-or-self":
                stack = self.fresh("st")
                self.w(f"{stack} = [{node}]")
                n = self.fresh("n")
                self._nodes.add(n)
                with self.loop(f"while {stack}:"):
                    self.w(f"{n} = {stack}.pop()")
                    sink.item(self, n)
                    ch = self.fresh("ch")
                    self.w(f"{ch} = {n}.children")
                    with self.block(f"if {ch}:"):
                        self.w(f"{stack}.extend({ch}[::-1])")
                return

        if plain and axis == "attribute" and kind in ("node", "attribute") \
                and name is not None:
            a = self.fresh("n")
            self._nodes.add(a)
            with self.loop(f"for {a} in {node}.attributes:"):
                with self.block(f"if {name_cond(a)}:"):
                    sink.item(self, a)
            return

        if plain and kind == "text" and axis == "child":
            c = self.fresh("n")
            self._nodes.add(c)
            with self.loop(f"for {c} in {node}.children:"):
                with self.block(f"if isinstance({c}, _Text):"):
                    sink.item(self, c)
            return

        kernel = self.const(compile_step_fn(axis, test), "s")
        self._produce(f"{kernel}({node})", sink, nodes=True)

    # -- function calls ---------------------------------------------------------

    def _e_FunctionCall(self, expr: ast.FunctionCall, sink) -> None:
        name = expr.name
        arity = len(expr.args)

        if self._is_cast(expr):
            # constructor function: a cast
            self._e_CastExpr(expr, sink)
            return

        builtin = fnlib.lookup(name, arity)
        if builtin is None:
            if expr.decl is not None:
                self._emit_user_call(expr, sink)
                return
            for arg in expr.args:  # compile errors in arguments come first
                self._emit_collected(arg)
            raise UndefinedNameError(f"unknown function {name}#{arity}",
                                     code="XPST0017")

        if builtin.lazy and name.local in ("count", "exists", "empty",
                                           "not", "boolean"):
            # the fused aggregate tails
            local = name.local
            arg = expr.args[0]
            t = self.fresh("t")
            if local == "count":
                counter = self._emit_count(arg)
                self.w(f"{t} = _integer({counter})")
            elif local == "exists":
                flag = self._emit_exists(arg)
                self.w(f"{t} = _boolean({flag})")
            elif local == "empty":
                flag = self._emit_exists(arg)
                self.w(f"{t} = _boolean(not {flag})")
            elif local == "not":
                value = self._emit_ebv(arg)
                self.w(f"{t} = _boolean(not {value})")
            else:  # boolean
                value = self._emit_ebv(arg)
                self.w(f"{t} = _boolean({value})")
            sink.item(self, t)
            return

        if not expr.args and name.uri == FN_NS and self.focus is not None:
            # focus accessors read the emitted focus locals directly
            if name.local == "position":
                t = self.fresh("t")
                self.w(f"{t} = _integer({self.focus[1]})")
                sink.item(self, t)
                return
            if name.local == "last" and self.focus[2] != "0":
                size = self.focus[2]
                if size in self._lazy_sizes:
                    size += "()"  # drains the buffered base on demand
                t = self.fresh("t")
                self.w(f"{t} = _integer({size})")
                sink.item(self, t)
                return

        if builtin.lazy:
            # lazy builtins (distinct-values, subsequence, data, ...)
            # pull their arguments: each is a sub-region generator
            arg_lists = [self._subregion(arg) for arg in expr.args]
        else:
            # eager builtin: arguments materialize in order, then one call
            arg_lists = [self._emit_collected(arg) for arg in expr.args]
        impl = self.const(builtin.impl, "f")
        if builtin.context_sensitive and self.focus is not None:
            dctx_expr = self.fresh("fd")
            fi, fp, fs = self.focus
            self.w(f"{dctx_expr} = dctx.with_focus({fi}, {fp}, {fs})")
        else:
            dctx_expr = "dctx"
        args = "".join(", " + lst for lst in arg_lists)
        self._produce(f"{impl}({dctx_expr}{args})", sink)

    def _emit_user_call(self, expr: ast.FunctionCall, sink) -> None:
        """A call of a user function normalization kept as a call
        (mirrors ``_c_FunctionCall``): each argument a lazy
        ``BufferedSequence`` over a sub-region, converted to its
        declared type as it is pulled; the body runs as the function's
        generator, with only its parameters bound and no focus."""
        decl = expr.decl
        args = []
        for arg, (_name, ptype) in zip(expr.args, decl.params):
            binding = self.scope.get(arg.name) \
                if isinstance(arg, ast.VarRef) else None
            if binding is not None and ptype is None:
                # already a replayable value: buffering it again would
                # chain one more generator per level of a recursion that
                # passes it on (the prolog variables a body reads)
                args.append(self._bound_value(binding))
                continue
            value = self._subregion(arg)
            if ptype is not None:
                value = f"_function_convert({value}, " \
                        f"{self._seq_type(ptype)}, 'argument')"
            args.append(self.fresh("a"))
            self.w(f"{args[-1]} = _BufferedSequence({value}, "
                   f"cancellation=_tok)")
        call = f"{self._user_function(decl)}(dctx.function_frame({{}})" \
               + "".join(", " + a for a in args) + ")"
        if decl.return_type is not None:
            call = f"_function_convert({call}, " \
                   f"{self._seq_type(decl.return_type)}, 'return')"
        self._produce(call, sink)

    def _user_function(self, decl: ast.FunctionDecl) -> str:
        """The generated generator function of ``decl``, emitted at its
        first call — reserved before its body, so recursion ends."""
        name = self._user_functions.get(decl)
        if name is not None:
            return name
        name = self._user_functions[decl] = self.fresh("uf")
        params = [self.fresh("a") for _ in decl.params]
        saved = self.scope, self.focus, self._hoisting
        self.scope, self.focus, self._hoisting = {}, None, False
        try:
            with self.function(name, ["dctx"] + params), ExitStack() as stack:
                for (var, _type), local in zip(decl.params, params):
                    stack.enter_context(self.bound(var, local, "seq"))
                self.emit(decl.body, _YieldSink())
        finally:
            self.scope, self.focus, self._hoisting = saved
        return name

    # -- entry point ------------------------------------------------------------

    def compile_root(self, expr) -> Plan:
        """Compile ``expr`` to a generated-source plan.

        The returned plan observes the item protocol
        (``plan(dctx) -> Iterator[item]``) and is hooked through the
        profiler exactly like a closure root operator.
        """
        with self.pnode(expr, "source") as root_node, \
                self.function("_q0", ["dctx"]):
            self._dispatch(expr, _YieldSink())
        fn = self._finish()
        if root_node is None:
            return fn
        op_id = root_node.id

        def plan(dctx, _fn=fn, _op=op_id):
            profiler = dctx._shared.profiler
            if profiler is None:
                return _fn(dctx)
            return profiler.run_operator(_op, _fn, dctx)

        return plan

    def _finish(self) -> Callable[[DynamicContext], Iterator[Any]]:
        source = print_module(self._funcs)
        self.generated_source = source
        self.filename = f"<repro-pysource-{next(_source_seq)}>"
        code = compile(source, self.filename, "exec")
        namespace = dict(self.env)
        exec(code, namespace)
        # the entry point is only ever called through the returned plan:
        # out of the namespace, it is no part of the module's
        # function/globals cycle and dies with the plan by refcount
        fn = namespace.pop("_q0")
        # linecache registration keeps tracebacks and profilers readable
        # — for as long as the plan lives: eviction from a compile cache
        # must free the text (a never-repeated ad-hoc stream would
        # otherwise grow linecache.cache by one module per query)
        linecache.cache[self.filename] = (
            len(source), None, source.splitlines(keepends=True), self.filename)
        weakref.finalize(fn, linecache.cache.pop, self.filename, None)
        #: keeps the registration alive while this compiler object does
        self.entry_point = fn
        return fn
