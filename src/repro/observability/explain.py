"""The annotated plan tree: EXPLAIN and EXPLAIN ANALYZE surfaces.

The code generator assigns every compiled operator a :class:`PlanNode`
(id, expression kind, one-line detail, optimizer annotations) and
nests them into a tree that mirrors plan structure.  An
:class:`ExplainResult` pairs that tree with a
:class:`~repro.observability.profiler.Profiler` from an actual run and
renders both a human-readable annotated tree and the machine-readable
JSON dump the CLI's ``--profile`` prints.

Timing is *inclusive* (an operator's time contains its inputs'), as in
the usual EXPLAIN ANALYZE convention.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator, Optional

from repro.compiler.lift import describe
from repro.observability.profiler import Profiler

#: detail strings are clipped so wide constructor plans stay readable
_DETAIL_LIMIT = 96


@dataclass
class PlanNode:
    """One operator in the compiled plan tree."""

    id: int
    kind: str
    detail: str = ""
    #: optimizer annotation flags that were set (lineage of rewrites)
    annotations: tuple[str, ...] = ()
    children: list["PlanNode"] = field(default_factory=list)
    #: valued annotations (``access_path.chosen = value_index``, ...) —
    #: rendered as ``key=value`` and merged into the JSON node dict
    info: dict[str, Any] = field(default_factory=dict)

    def walk(self) -> Iterator["PlanNode"]:
        yield self
        for child in self.children:
            yield from child.walk()

    @classmethod
    def for_expr(cls, op_id: int, expr) -> "PlanNode":
        detail = repr(expr)
        if len(detail) > _DETAIL_LIMIT:
            detail = detail[:_DETAIL_LIMIT - 3] + "..."
        annotations = getattr(expr, "annotations", {})
        flagged = tuple(k for k, v in sorted(annotations.items())
                        if v and isinstance(v, bool))
        info = {k: v for k, v in sorted(annotations.items())
                if not isinstance(v, bool) and isinstance(v, (str, int, float))}
        return cls(op_id, type(expr).__name__, detail, flagged, info=info)


class ExplainResult:
    """An (optionally analyzed) plan: tree + per-operator metrics.

    ``str()`` renders the annotated tree; :meth:`to_dict` produces the
    JSON form (schema documented in README.md, "Observability").
    """

    def __init__(self, compiled, profiler: Optional[Profiler] = None,
                 query_text: str = "", engine_stats: Optional[dict] = None):
        self.compiled = compiled
        self.profiler = profiler
        self.query_text = query_text
        #: the dynamic context's cheap counters from the analyzed run
        self.engine_stats = dict(engine_stats or {})

    @property
    def tree(self) -> Optional[PlanNode]:
        return getattr(self.compiled, "plan_tree", None)

    @property
    def analyzed(self) -> bool:
        return self.profiler is not None

    def _lifted(self) -> list[str]:
        """``$#l0 = 45000.1 (xs:decimal)`` per literal the plan reads
        from a variable (:mod:`repro.compiler.lift`)."""
        return describe(self.compiled.lifted)

    # -- rendering ---------------------------------------------------------

    def render(self) -> str:
        """The annotated plan tree as indented text."""
        lines = [f"static type: {self.compiled.static_type}"]
        lines += [f"lifted {binding}" for binding in self._lifted()]
        root = self.tree
        if root is None:
            return "\n".join(lines + ["<plan tree unavailable>"])

        def walk(node: PlanNode, depth: int) -> None:
            parts = list(node.annotations)
            parts += [f"{k}={v}" for k, v in node.info.items()]
            note = "  {" + ", ".join(parts) + "}" if parts else ""
            metrics = ""
            if self.profiler is not None:
                stats = self.profiler.operators.get(node.id)
                if stats is not None:
                    metrics = (f"  (calls={stats.calls} items={stats.items} "
                               f"time={stats.seconds * 1000:.3f}ms)")
                elif node.info.get("codegen") == "fused":
                    metrics = "  (fused into generated code)"
                else:
                    metrics = "  (never executed)"
            lines.append("  " * depth + node.detail + note + metrics)
            for child in node.children:
                walk(child, depth + 1)

        walk(root, 0)
        if self.profiler is not None:
            for op_id, stats in sorted(self.profiler.operators.items(),
                                       key=lambda kv: str(kv[0])):
                if isinstance(op_id, str):
                    lines.append(f"{op_id}: {stats!r}")
        if self.engine_stats:
            pairs = ", ".join(f"{k}={v}"
                              for k, v in sorted(self.engine_stats.items()))
            lines.append(f"engine stats: {pairs}")
        return "\n".join(lines)

    __str__ = render

    # -- the machine-readable dump -----------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """The JSON-dump form (``json.dumps``-ready)."""
        profiler = self.profiler

        def node_dict(node: PlanNode) -> dict[str, Any]:
            out: dict[str, Any] = {"id": node.id, "kind": node.kind,
                                   "detail": node.detail}
            if node.annotations:
                out["annotations"] = list(node.annotations)
            if node.info:
                out.update(node.info)
            if profiler is not None:
                stats = profiler.operators.get(node.id)
                if stats is not None:
                    out.update(stats.to_dict())
                else:
                    out.update({"calls": 0, "items": 0, "time_ms": 0.0})
            if node.children:
                out["children"] = [node_dict(c) for c in node.children]
            return out

        result: dict[str, Any] = {
            "query": self.query_text,
            "analyze": self.analyzed,
            "static_type": str(self.compiled.static_type),
        }
        lifted = self._lifted()
        if lifted:
            result["lifted"] = lifted
        root = self.tree
        if root is not None:
            result["plan"] = node_dict(root)
        if profiler is not None:
            result["operators"] = profiler.to_dict()
        if self.engine_stats:
            result["engine_stats"] = dict(self.engine_stats)
        return result

    def operators_by_time(self) -> list[tuple[PlanNode, Any]]:
        """(plan node, stats) pairs, most expensive first (analyze only)."""
        if self.profiler is None or self.tree is None:
            return []
        pairs = [(node, self.profiler.operators[node.id])
                 for node in self.tree.walk()
                 if node.id in self.profiler.operators]
        pairs.sort(key=lambda pair: pair[1].seconds, reverse=True)
        return pairs
