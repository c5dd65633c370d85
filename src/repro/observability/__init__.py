"""Engine-wide observability: per-operator metrics and EXPLAIN ANALYZE.

The paper's performance story lives in the iterator pipeline — lazy
TokenStream consumption, rewriting decisions, structural/twig joins —
and credible comparisons of those strategies need per-operator
counters, not just end-to-end wall time.  This package supplies them
with zero dependencies and near-zero cost when disabled:

- :class:`Profiler` — a metrics sink carried on the dynamic context.
  Every compiled plan operator gets a *guarded hook*: one attribute
  load and an ``is None`` branch per operator invocation when no
  profiler is attached, full per-item counting and timing when one is.
  Library layers outside the compiled pipeline (structural joins, the
  stream broker, the fast-path scanner) record into the same sink
  under string operator keys (``join.twigstack``, ``stream.broker``,
  ``xmlio.scanner``).
- :class:`PlanNode` / :class:`ExplainResult` — the annotated plan
  tree behind ``Engine.explain(query, analyze=True)``, the CLI's
  ``--explain`` / ``--profile`` flags, and the machine-readable JSON
  dump ``--profile`` prints.

See README.md ("Observability") for the JSON schema.
"""

from repro.observability.explain import ExplainResult, PlanNode
from repro.observability.profiler import OperatorStats, Profiler

__all__ = ["ExplainResult", "OperatorStats", "PlanNode", "Profiler"]
