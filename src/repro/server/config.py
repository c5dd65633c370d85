"""Server configuration: one frozen object, JSON round-trippable.

:class:`ServerConfig` mirrors the 1.5 options design — everything the
server needs is declarative data, so the CLI (``repro serve --config
server.json``), tests (:func:`repro.server.start_in_thread`), and the
benchmark harness construct servers the same way::

    ServerConfig(port=8820, processes=4,
                 options=ExecutionOptions(default_timeout=5.0))

``processes`` picks the execution mode:

- ``0`` (default) — in-process: requests run on a
  :class:`~repro.service.QueryService` thread pool sized by
  ``options.max_workers``, sharing one compile cache and one result
  cache;
- ``N > 0`` — pre-forked: a :class:`~repro.service.ForkWorkerPool` of
  ``N`` persistent children executes queries, each with its own warm
  caches inherited copy-on-write and rebuilt from the replay log after
  a crash.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.options import ExecutionOptions


@dataclass(frozen=True)
class ServerConfig:
    """Everything :class:`repro.server.XQueryServer` needs, frozen."""

    #: bind address; port 0 lets the OS pick (tests use this)
    host: str = "127.0.0.1"
    port: int = 8820
    #: 0 = in-process thread pool; N > 0 = pre-forked worker pool
    processes: int = 0
    #: execution knobs shared by every tenant engine (the server adds
    #: per-tenant catalogs on top; ``options.max_workers``/``max_queue``
    #: size the admission bound across tenants)
    options: ExecutionOptions = field(default_factory=ExecutionOptions)
    #: entries in the per-server result cache (0 disables it)
    result_cache_size: int = 128
    #: largest request body accepted (bytes) — 413 beyond this
    max_body: int = 8 * 1024 * 1024
    #: latency samples kept per endpoint for the percentile estimates
    metrics_window: int = 2048

    def __post_init__(self):
        if self.processes < 0:
            raise ValueError("processes must be >= 0")
        if self.result_cache_size < 0:
            raise ValueError("result_cache_size must be >= 0")
        if self.max_body < 1:
            raise ValueError("max_body must be positive")
        if not isinstance(self.options, ExecutionOptions):
            raise TypeError("options must be a repro.ExecutionOptions")

    def replace(self, **changes) -> "ServerConfig":
        return dataclasses.replace(self, **changes)

    def to_dict(self) -> dict[str, Any]:
        out = dataclasses.asdict(self)
        out["options"] = self.options.to_dict()
        return out

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ServerConfig":
        """Build from parsed JSON (``options`` may be a nested dict)."""
        if not isinstance(data, dict):
            raise TypeError(f"server config must be a JSON object, "
                            f"got {type(data).__name__}")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"unknown server config keys: {unknown}; "
                             f"expected a subset of {sorted(known)}")
        kwargs = dict(data)
        opts: Optional[Any] = kwargs.get("options")
        if isinstance(opts, dict):
            kwargs["options"] = ExecutionOptions.from_dict(opts)
        return cls(**kwargs)
