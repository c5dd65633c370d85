"""Twig patterns and the plan-level entry points.

A twig pattern is a small tree of name tests connected by child (``/``)
or descendant (``//``) edges — the common core of path queries that
structural-join algorithms accept::

    book//author/last        TwigPattern.chain(("book", "//"), ("author", "/"), ...)
    book[.//year]//title     a branching twig

``evaluate_pattern`` runs one pattern through any of the competing
physical plans — navigation, binary structural joins, holistic
TwigStack, a mixed binary/holistic plan, or ``"auto"`` (the
pattern-level cost model in :mod:`repro.compiler.planner` picks) —
and returns the matches of the *output node*, so E6 and the
differential harness compare identical logical work.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Literal, Optional

from repro.storage.indexes import ElementIndex, Posting
from repro.joins.stacktree import stack_tree_desc

EdgeKind = Literal["child", "descendant"]

#: engine-facing strategy names → internal algorithm names ("holistic"
#: is the knob vocabulary for the TwigStack plan)
ALGORITHM_ALIASES = {
    "holistic": "twigstack",
    "twigstack": "twigstack",
    "binary": "binary",
    "navigation": "navigation",
    "mixed": "mixed",
    "auto": "auto",
}


@dataclass
class TwigNode:
    """One pattern node: a tag name plus outgoing edges."""

    name: str
    children: list["TwigEdge"] = field(default_factory=list)
    #: marks the node whose matches the query returns
    is_output: bool = False

    def add(self, child: "TwigNode", kind: EdgeKind = "descendant") -> "TwigNode":
        self.children.append(TwigEdge(kind, child))
        return child

    def __repr__(self) -> str:
        return f"TwigNode({self.name}{'*' if self.is_output else ''})"


@dataclass
class TwigEdge:
    kind: EdgeKind
    child: TwigNode


class TwigPattern:
    """A rooted twig pattern."""

    def __init__(self, root: TwigNode):
        self.root = root
        names = [n.name for n in self.nodes()]
        if len(names) != len(set(names)):
            # bindings are keyed by name throughout the join plans — the
            # standard simplification in this literature's experiments
            raise ValueError("twig pattern nodes must have distinct names")
        outputs = [n for n in self.nodes() if n.is_output]
        if not outputs:
            # default: the last leaf in definition order
            leaves = [n for n in self.nodes() if not n.children]
            leaves[-1].is_output = True
            outputs = [leaves[-1]]
        if len(outputs) > 1:
            raise ValueError("twig pattern must have exactly one output node")
        self.output = outputs[0]

    def nodes(self) -> Iterator[TwigNode]:
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            for edge in node.children:
                stack.append(edge.child)

    def leaves(self) -> list[TwigNode]:
        return [n for n in self.nodes() if not n.children]

    def edges(self) -> list[tuple[str, EdgeKind, str]]:
        """All pattern edges as ``(parent name, kind, child name)``."""
        out: list[tuple[str, EdgeKind, str]] = []
        for node in self.nodes():
            for edge in node.children:
                out.append((node.name, edge.kind, edge.child.name))
        return out

    def to_spec(self) -> tuple:
        """An immutable, hashable form of the pattern: nested
        ``(name, is_output, ((kind, child_spec), ...))`` tuples — what
        the planner embeds in :class:`repro.xquery.ast.TwigJoin` nodes
        (AST nodes must not share mutable pattern state)."""
        def spec(node: TwigNode) -> tuple:
            return (node.name, node.is_output,
                    tuple((e.kind, spec(e.child)) for e in node.children))
        return spec(self.root)

    @classmethod
    def from_spec(cls, spec: tuple) -> "TwigPattern":
        """Rebuild a pattern from :meth:`to_spec` output."""
        def build(part: tuple) -> TwigNode:
            name, is_output, children = part
            node = TwigNode(name, is_output=is_output)
            for kind, child_spec in children:
                node.add(build(child_spec), kind)
            return node
        return cls(build(spec))

    @classmethod
    def chain(cls, *steps: tuple[str, EdgeKind] | str) -> "TwigPattern":
        """A linear path pattern.

        ``TwigPattern.chain("a", ("b", "descendant"), ("c", "child"))``
        is ``a//b/c`` with ``c`` as output.
        """
        normalized: list[tuple[str, EdgeKind]] = []
        for step in steps:
            if isinstance(step, str):
                normalized.append((step, "descendant"))
            else:
                normalized.append(step)
        root = TwigNode(normalized[0][0])
        current = root
        for name, kind in normalized[1:]:
            current = current.add(TwigNode(name), kind)
        current.is_output = True
        return cls(root)

    def __repr__(self) -> str:
        def fmt(node: TwigNode) -> str:
            if not node.children:
                return node.name + ("*" if node.is_output else "")
            parts = []
            for edge in node.children:
                sep = "/" if edge.kind == "child" else "//"
                parts.append(sep + fmt(edge.child))
            label = node.name + ("*" if node.is_output else "")
            if len(parts) == 1:
                return label + parts[0]
            return label + "[" + "][".join(parts) + "]"
        return f"TwigPattern({fmt(self.root)})"


# ---------------------------------------------------------------------------
# Plans
# ---------------------------------------------------------------------------


def evaluate_pattern(index: ElementIndex, pattern: TwigPattern,
                     algorithm: str = "twigstack",
                     profiler=None, cancellation=None,
                     counters: Optional[dict[str, int]] = None,
                     stats=None,
                     holistic_branches=()) -> list[Posting]:
    """Matches of the pattern's output node, distinct, in document order.

    ``algorithm`` is one of ``twigstack`` (alias ``holistic``),
    ``binary``, ``navigation``, ``mixed``, or ``auto``.  ``auto`` asks
    the pattern-level cost model (:func:`repro.compiler.planner.
    choose_twig_strategy`) to pick, in calibrated microseconds, from
    the document's ingest statistics — pass ``stats`` (a
    :class:`repro.storage.stats.DocumentStats`).  Without statistics
    ``auto`` falls back to TwigStack, the plan that scans the fewest
    postings: a claim about scans, not speed — on the XMark shapes of
    E16 TwigStack runs 4-7x slower than the mixed plan.  ``mixed``
    runs binary semi-joins down the output chain with side branches
    pre-filtered; branches named in ``holistic_branches`` are filtered
    holistically (TwigStack on the sub-twig) instead of by cascaded
    binary semi-joins.

    With a :class:`repro.observability.Profiler` attached, records a
    ``join.<algorithm>`` operator under the *resolved* algorithm name
    (items = output postings, wall time, plus algorithm counters:
    ``elements_scanned`` for all plans,
    ``stack_pushes``/``path_solutions``/``output_matches`` and
    per-edge ``edge.<parent>><child>.pairs`` where they apply).
    ``elements_scanned`` is E6's counted unit (``tests/test_claims.py``
    pins it per plan): holistic ≤ binary ≤ navigation, which is not
    the order of their wall times.  An explicit ``counters``
    dict collects the same metrics without a profiler (the compiled
    TwigJoin operator uses this).

    ``cancellation`` (an optional
    :class:`repro.runtime.cancellation.CancellationToken`) is polled
    inside every algorithm's scan loop, so a deadline interrupts a join
    mid-scan instead of after it.
    """
    try:
        algorithm = ALGORITHM_ALIASES[algorithm]
    except KeyError:
        raise ValueError(f"unknown algorithm {algorithm!r}") from None
    if algorithm == "auto":
        if stats is None:
            algorithm = "twigstack"
        else:
            from repro.compiler.planner import choose_twig_strategy

            choice = choose_twig_strategy(stats, pattern)
            algorithm = choice.algorithm
            holistic_branches = choice.holistic_branches
    if counters is None and profiler is not None:
        counters = {}
    if profiler is not None:
        from time import perf_counter

        t0 = perf_counter()
    if algorithm == "twigstack":
        from repro.joins.twigstack import twig_stack

        matches = twig_stack(index, pattern, counters=counters,
                             cancellation=cancellation)
        if counters is not None:
            _count_match_edges(pattern, matches, counters)
        result = _distinct_postings(m[pattern.output.name] for m in matches)
    elif algorithm == "binary":
        result = binary_join_plan(index, pattern, counters=counters,
                                  cancellation=cancellation)
    elif algorithm == "navigation":
        from repro.joins.navigation import navigate_pattern

        result = navigate_pattern(index, pattern, counters=counters,
                                  cancellation=cancellation)
    else:  # mixed
        result = mixed_join_plan(index, pattern, counters=counters,
                                 cancellation=cancellation,
                                 holistic_branches=holistic_branches)
    if profiler is not None:
        profiler.record(f"join.{algorithm}", items=len(result),
                        seconds=perf_counter() - t0, **counters)
    return result


def binary_join_plan(index: ElementIndex, pattern: TwigPattern,
                     counters: Optional[dict[str, int]] = None,
                     cancellation=None) -> list[Posting]:
    """Evaluate the twig as a sequence of binary structural joins.

    Each edge runs one stack-tree join; intermediate results are
    (bindings per pattern node) tuples — the representation whose
    possible blow-up motivated holistic twig joins.  ``counters``
    accumulates per-join ``elements_scanned``/``stack_pushes`` plus
    ``intermediate_rows`` (the blow-up the holistic join avoids).
    """
    # intermediate: list of dict name → Posting
    rows: list[dict[str, Posting]] = [
        {pattern.root.name: p} for p in index.postings(pattern.root.name)]

    def process(node: TwigNode, rows: list[dict[str, Posting]]) -> list[dict[str, Posting]]:
        for edge in node.children:
            child = edge.child
            # join current rows' bindings of `node` with child postings
            alist = _distinct_postings(row[node.name] for row in rows)
            pairs = list(stack_tree_desc(alist, index.postings(child.name),
                                         parent_child=(edge.kind == "child"),
                                         counters=counters,
                                         cancellation=cancellation))
            if counters is not None:
                key = f"edge.{node.name}>{child.name}.pairs"
                counters[key] = counters.get(key, 0) + len(pairs)
            # group descendants by ancestor pre
            by_anc: dict[int, list[Posting]] = {}
            for a, d in pairs:
                by_anc.setdefault(a.pre, []).append(d)
            new_rows: list[dict[str, Posting]] = []
            for row in rows:
                anchor = row[node.name]
                for d in by_anc.get(anchor.pre, ()):
                    new_row = dict(row)
                    new_row[child.name] = d
                    new_rows.append(new_row)
            if counters is not None:
                counters["intermediate_rows"] = \
                    counters.get("intermediate_rows", 0) + len(new_rows)
            rows = process(child, new_rows)
        return rows

    rows = process(pattern.root, rows)
    return _distinct_postings(row[pattern.output.name] for row in rows)


def mixed_join_plan(index: ElementIndex, pattern: TwigPattern,
                    counters: Optional[dict[str, int]] = None,
                    cancellation=None,
                    holistic_branches=()) -> list[Posting]:
    """Binary joins down the output chain, side branches pre-filtered.

    The root→output chain is evaluated as a cascade of stack-tree
    joins, but each chain node's posting list is first reduced to the
    elements satisfying its side-branch predicates — by bottom-up
    binary *semi*-joins (never materializing cross-branch row products,
    the binary plan's blow-up), or, for branches named in
    ``holistic_branches``, by a TwigStack run over just that sub-twig
    (the cost model picks holistic filtering for skewed branches where
    the coordinated pass skips most of the dense lists).
    """
    chain = _root_to_output(pattern)
    chain_names = {q.name for q, _ in chain}
    holistic = set(holistic_branches)

    def survivors(qnode: TwigNode) -> list[Posting]:
        """Postings of ``qnode`` that embed the sub-twig below it,
        via bottom-up binary semi-joins."""
        current = index.postings(qnode.name)
        for edge in qnode.children:
            current = _semi_join(current, survivors(edge.child),
                                 edge, qnode.name)
        return current

    def _semi_join(alist: list[Posting], dlist: list[Posting],
                   edge: TwigEdge, parent_name: str) -> list[Posting]:
        npairs = 0
        seen: set[int] = set()
        out: list[Posting] = []
        for a, _d in stack_tree_desc(alist, dlist,
                                     parent_child=(edge.kind == "child"),
                                     counters=counters,
                                     cancellation=cancellation):
            npairs += 1
            if a.pre not in seen:
                seen.add(a.pre)
                out.append(a)
        if counters is not None:
            key = f"edge.{parent_name}>{edge.child.name}.pairs"
            counters[key] = counters.get(key, 0) + npairs
        out.sort(key=lambda p: p.pre)
        return out

    def _holistic_filter(qnode: TwigNode, edge: TwigEdge,
                         current: list[Posting]) -> list[Posting]:
        """Reduce ``current`` to postings embedding one branch, by a
        TwigStack pass over the ``qnode[branch]`` sub-twig."""
        from repro.joins.twigstack import twig_stack

        root = TwigNode(qnode.name, is_output=True)
        root.add(_copy_subtree(edge.child), edge.kind)
        sub = TwigPattern(root)
        matches = twig_stack(index, sub, counters=counters,
                             cancellation=cancellation)
        if counters is not None:
            _count_match_edges(sub, matches, counters)
        allowed = {m[qnode.name].pre for m in matches}
        return [p for p in current if p.pre in allowed]

    filtered: list[list[Posting]] = []
    for qnode, _kind in chain:
        current = index.postings(qnode.name)
        for edge in qnode.children:
            if edge.child.name in chain_names:
                continue  # the chain itself is joined below
            if edge.child.name in holistic:
                current = _holistic_filter(qnode, edge, current)
            else:
                current = _semi_join(current, survivors(edge.child),
                                     edge, qnode.name)
        filtered.append(current)

    result = filtered[0]
    for i in range(1, len(chain)):
        _qnode, kind = chain[i]
        npairs = 0
        out: list[Posting] = []
        last_pre = -1
        for _a, d in stack_tree_desc(result, filtered[i],
                                     parent_child=(kind == "child"),
                                     counters=counters,
                                     cancellation=cancellation):
            npairs += 1
            if d.pre != last_pre:
                out.append(d)
                last_pre = d.pre
        if counters is not None:
            key = f"edge.{chain[i - 1][0].name}>{chain[i][0].name}.pairs"
            counters[key] = counters.get(key, 0) + npairs
        result = out
    return _distinct_postings(result)


def _root_to_output(pattern: TwigPattern) -> list[tuple[TwigNode, EdgeKind]]:
    """The root→output path as (qnode, kind-of-edge-entering-it) pairs."""
    target = pattern.output

    def find(qnode: TwigNode, kind: EdgeKind):
        if qnode is target:
            return [(qnode, kind)]
        for edge in qnode.children:
            tail = find(edge.child, edge.kind)
            if tail is not None:
                return [(qnode, kind)] + tail
        return None

    chain = find(pattern.root, "descendant")
    assert chain is not None, "output node must be in the pattern"
    return chain


def _copy_subtree(node: TwigNode) -> TwigNode:
    """A deep copy with output marks cleared (sub-twig evaluation must
    not mutate or share the caller's pattern nodes)."""
    copy = TwigNode(node.name)
    for edge in node.children:
        copy.add(_copy_subtree(edge.child), edge.kind)
    return copy


def _count_match_edges(pattern: TwigPattern, matches, counters) -> None:
    """Per-edge distinct (parent, child) pairs realized in full matches.

    The holistic plan never materializes raw per-edge join pairs, so
    its ``edge.<p>><c>.pairs`` counters report the pairs participating
    in complete twig matches — a lower bound on what the binary plan's
    identically-named counters would scan for the same edge.
    """
    if not matches:
        return
    for parent, _kind, child in pattern.edges():
        pairs = {(m[parent].pre, m[child].pre) for m in matches}
        key = f"edge.{parent}>{child}.pairs"
        counters[key] = counters.get(key, 0) + len(pairs)


def _distinct_postings(postings) -> list[Posting]:
    seen: set[int] = set()
    out: list[Posting] = []
    for posting in postings:
        if posting.pre not in seen:
            seen.add(posting.pre)
            out.append(posting)
    out.sort(key=lambda p: p.pre)
    return out
