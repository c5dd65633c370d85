"""`ExecutionOptions`: every execution knob, in one frozen object.

``Engine``, ``QueryService``, the module-level
``repro.compile/execute/explain`` helpers, the CLI flags and the
server's tenant configuration all take their knobs (``optimize``,
``default_timeout``, the compile-cache size, the service pool bounds)
from this one object — it is the only way to pass them::

    opts = repro.ExecutionOptions(optimize=False)
    engine = repro.Engine(options=opts)
    svc = QueryService(options=opts.replace(max_workers=8))

The object is frozen (hashable, safe to share), serializes losslessly
through :meth:`to_dict`/:meth:`from_dict` (the server's per-tenant
configuration is exactly this serialization), and derives the
options-dependent part of the compiled-query cache key in one place
via :meth:`fingerprint` — so every surface that compiles queries keys
its cache identically by construction.
"""

from __future__ import annotations

import dataclasses
import math
import os
from dataclasses import dataclass
from typing import Any, Optional


@dataclass(frozen=True)
class ExecutionOptions:
    """Every tunable of query compilation and execution, frozen.

    Engine-level knob (shapes the compiled plan — the one input of
    :meth:`fingerprint`):

    - ``optimize`` — run the rewrite engine and the cost-based planner.
      Static type inference always runs, and the planner always picks
      each twig pattern's physical plan from ingest statistics.

    Caching:

    - ``compile_cache_size`` — LRU entries for compiled queries
      (0 disables caching).

    Service-level knobs (ignored by a bare :class:`~repro.engine.
    Engine`; honoured by :class:`~repro.service.QueryService` and the
    HTTP server):

    - ``max_workers`` / ``max_queue`` — the admission bound: at most
      ``max_workers`` queries execute while ``max_queue`` wait;
    - ``default_timeout`` — deadline (seconds) for requests that don't
      pass their own;
    - ``data_dir`` — a directory for persistent tenant catalogs
      (:mod:`repro.storage.persist`): the server opens each tenant's
      collection at ``<data_dir>/<tenant>``, so restarts come up warm.
      ``None`` (default) keeps catalogs in memory.  Deliberately NOT
      part of :meth:`fingerprint` — where documents live on disk does
      not shape a compiled plan.
    - ``shards`` — scatter-gather execution of multi-document
      collections across the pre-forked worker pool
      (:mod:`repro.service.sharding`): ``None`` (default) resolves to
      ``$REPRO_TEST_SHARDS`` or auto — one shard per pool worker, but
      no more than the CPUs in the server's affinity mask, and no
      scatter at all below two (on one core the children would only
      take turns) — ``0`` disables scattering, ``N > 0`` forces N
      shards on any number of CPUs.  Like
      ``data_dir``, NOT part of :meth:`fingerprint` — how a
      collection's documents are partitioned across processes does not
      change what a query compiles to (the merge operator guarantees
      byte-identical results either way).
    """

    # -- engine: plan-shaping ---------------------------------------------
    optimize: bool = True
    # -- caching -----------------------------------------------------------
    compile_cache_size: int = 64
    # -- service -----------------------------------------------------------
    max_workers: int = 4
    max_queue: int = 8
    default_timeout: Optional[float] = None
    # -- storage -----------------------------------------------------------
    data_dir: Optional[str] = None
    # -- scatter-gather ----------------------------------------------------
    shards: Optional[int] = None

    def __post_init__(self) -> None:
        if self.compile_cache_size < 0:
            raise ValueError("compile_cache_size must be >= 0")
        if self.max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        if self.max_queue < 0:
            raise ValueError("max_queue must be >= 0")
        if self.default_timeout is not None and not (
                math.isfinite(self.default_timeout)
                and self.default_timeout > 0):
            raise ValueError("default_timeout must be a positive finite "
                             "number (or None)")
        if self.data_dir is not None and not isinstance(self.data_dir, str):
            # accept Path objects but store a str: to_dict() must stay
            # JSON-serializable (the server's tenant-config wire format)
            object.__setattr__(self, "data_dir", os.fspath(self.data_dir))
        if self.shards is None:
            # the CI matrix forces shard counts via REPRO_TEST_SHARDS so
            # the scatter-gather path stays green on a dedicated leg
            env = os.environ.get("REPRO_TEST_SHARDS")
            if env:
                try:
                    object.__setattr__(self, "shards", int(env))
                except ValueError:
                    raise ValueError(
                        f"REPRO_TEST_SHARDS must be an integer, "
                        f"got {env!r}") from None
        if self.shards is not None and self.shards < 0:
            raise ValueError("shards must be None (auto), 0 (disabled), "
                             "or a positive shard count")

    # -- derivation --------------------------------------------------------

    def fingerprint(self) -> tuple:
        """The options-dependent part of the compiled-query cache key.

        Exactly the knobs that shape a compiled plan; object-identity
        inputs (base context, catalog) are keyed separately
        by the engine.  Deriving this in one place is what keeps the
        Engine / QueryService / CLI / server compile caches coherent.
        Service-level knobs — including ``data_dir`` — stay out: where
        a catalog lives does not change what a query compiles to.
        """
        return ("opts", self.optimize)

    def replace(self, **changes: Any) -> "ExecutionOptions":
        """A copy with ``changes`` applied (re-validated)."""
        return dataclasses.replace(self, **changes)

    # -- serialization (the server's tenant-config wire format) -----------

    def to_dict(self) -> dict[str, Any]:
        """A JSON-ready dict that round-trips through :meth:`from_dict`."""
        return {f.name: getattr(self, f.name)
                for f in dataclasses.fields(self)}

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ExecutionOptions":
        """Rebuild from :meth:`to_dict` output (unknown keys rejected)."""
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown ExecutionOptions keys: "
                             f"{sorted(unknown)} (known: {sorted(known)})")
        return cls(**data)
