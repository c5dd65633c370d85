"""A placeholder for the retired scatter-gather router.

Every ``collection()`` query runs in one pool child, as an ordinary
``("execute", ...)`` call.  This module exists only because the e2e
harness's traced pass (``benchmarks/e2e/layers.py``,
``scatter_vs_single``) still imports :class:`ShardRouter` and reports
its ``service.sharding.*`` rows; the product never imports it.  The
next change to the harness drops those rows, and this module with them
(ROADMAP item 1(d)).
"""

from __future__ import annotations

from typing import Optional


class ShardRouter:
    """Answers ``None`` to every query: "run the single-worker path"."""

    def __init__(self, core, pool) -> None:
        self.core = core
        self.pool = pool

    def try_execute(self, tenant_name: str, query_text: str,
                    variables: Optional[dict] = None,
                    declared: Optional[tuple] = None,
                    form: str = "json", *rest) -> None:
        return None

    def shutdown(self) -> None:
        pass
