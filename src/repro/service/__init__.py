"""Concurrent query execution: pools and admission control.

- :class:`QueryService` — run queries on a bounded pool with deadlines,
  retry, and load shedding;
- :class:`ForkWorkerPool` — persistent pre-forked workers with warm
  per-process state, crash respawn, and a replay log (the server's
  multi-process mode);
- :class:`ShardRouter` — collection-level scatter-gather across the
  pool children (eligible queries run one shard per worker and merge
  in document order).
"""

from repro.service.queryservice import QueryService, RetryingDocumentLoader
from repro.service.sharding import ShardRouter, UncombinableShardResult
from repro.service.workers import ForkWorkerPool, WorkerCrashed

__all__ = [
    "QueryService",
    "RetryingDocumentLoader",
    "ForkWorkerPool",
    "WorkerCrashed",
    "ShardRouter",
    "UncombinableShardResult",
]
