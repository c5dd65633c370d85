"""The concurrent query service: a bounded pool with admission control.

:class:`QueryService` turns the engine into something a server can
embed: queries run on a bounded worker pool, each request gets a
deadline enforced by a cooperative
:class:`~repro.runtime.cancellation.CancellationToken`, transient
document-loader failures retry with exponential backoff, and admission
control sheds load *before* it queues unboundedly::

    opts = repro.ExecutionOptions(max_workers=4, max_queue=8)
    with QueryService(options=opts) as svc:
        future = svc.submit("count($d//item)", variables={"d": repro.xml(text)},
                            timeout=2.0)
        result = future.result()          # a repro.engine.Result, drained

Semantics:

- **admission control** — at most ``max_workers`` calls run and
  ``max_queue`` wait (:meth:`QueryService.call` admits any callable;
  :meth:`~QueryService.submit` admits a query); one more raises
  :class:`repro.errors.ServiceOverloaded` carrying the observed queue
  depth, so clients can shed or back off;
- **deadlines** — ``timeout=`` (or ``default_timeout``) attaches a
  token checked inside the hot iterator loops; a runaway query raises
  :class:`repro.errors.QueryTimeout` carrying the partial stats, and
  its worker is freed (cooperative: within one loop iteration);
- **retry** — a ``document_loader`` wrapped by the service retries
  transient failures (OSError family) with exponential backoff,
  counting ``service.loader_retries`` into the result stats.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Any, Optional

from repro.engine import Engine, Result
from repro.errors import QueryCancelled, ServiceOverloaded
from repro.options import ExecutionOptions
from repro.runtime.cancellation import CancellationToken

#: exception families the retrying loader treats as transient
_TRANSIENT = (OSError, TimeoutError)

#: longest single sleep inside a retry backoff: a ``cancel()`` from
#: another thread is observed within this slice, not after the full
#: (up to ``max_delay``) backoff
_BACKOFF_SLICE = 0.02


class RetryingDocumentLoader:
    """Wraps a ``loader(uri)`` with exponential-backoff retries.

    Only the OSError family (filesystem hiccups, network loaders built
    on sockets) is retried; query errors pass straight through.  Sleeps
    never overrun the request's cancellation token: the remaining
    deadline caps every backoff, and the token is checked between
    attempts.
    """

    def __init__(self, loader, retries: int = 2, base_delay: float = 0.05,
                 max_delay: float = 1.0, token: Optional[CancellationToken] = None,
                 stats: Optional[dict] = None):
        self._loader = loader
        self.retries = retries
        self.base_delay = base_delay
        self.max_delay = max_delay
        self.token = token
        #: stats dict to count retries into (the service folds it into
        #: the drained result's stats)
        self.stats = stats if stats is not None else {}
        #: prefetch calls the loader from several threads at once
        self._count_lock = threading.Lock()

    def __call__(self, uri: str):
        attempt = 0
        while True:
            if self.token is not None:
                self.token.check()
            try:
                return self._loader(uri)
            except _TRANSIENT:
                if attempt >= self.retries:
                    raise
                delay = min(self.base_delay * (2 ** attempt), self.max_delay)
                if self.token is None:
                    time.sleep(delay)
                else:
                    remaining = self.token.remaining()
                    if remaining is not None:
                        delay = min(delay, remaining)
                    # sleep in short slices, re-checking the token after
                    # each: a cancel() (or deadline) landing mid-backoff
                    # must interrupt the sleep, not be discovered only
                    # after the full backoff has elapsed
                    end = time.monotonic() + delay
                    while True:
                        self.token.check()
                        left = end - time.monotonic()
                        if left <= 0:
                            break
                        time.sleep(min(left, _BACKOFF_SLICE))
                    self.token.check()
                attempt += 1
                with self._count_lock:
                    self.stats["service.loader_retries"] = \
                        self.stats.get("service.loader_retries", 0) + 1


class QueryService:
    """Run queries concurrently with deadlines and admission control.

    Configuration is one frozen :class:`repro.ExecutionOptions`::

        QueryService(options=ExecutionOptions(max_workers=8))

    - ``options.max_workers`` / ``options.max_queue`` — the admission
      bound: at most ``max_workers`` queries execute while
      ``max_queue`` wait;
    - ``options.default_timeout`` — deadline (seconds) for requests
      that don't pass their own.

    Every request's ``document_loader`` retries transient failures
    under :class:`RetryingDocumentLoader`'s defaults (2 retries, 0.05 s
    base delay).

    ``engine`` overrides the service-built engine (e.g. one carrying a
    catalog).

    :meth:`call` is the admission door for any callable; :meth:`submit`
    is ``call`` on this service's query runner.  The in-process HTTP
    server admits every execute and explain as
    ``call(core.handle, command)`` — the same
    :meth:`~repro.server.AppCore.handle` a pre-forked child runs.
    """

    def __init__(self, engine: Optional[Engine] = None,
                 options: Optional[ExecutionOptions] = None):
        if options is None:
            options = ExecutionOptions()
        elif not isinstance(options, ExecutionOptions):
            raise TypeError(f"options must be a repro.ExecutionOptions, "
                            f"got {type(options).__name__}")
        #: the frozen :class:`repro.ExecutionOptions` this service runs
        #: under; the attributes below are read-only mirrors
        self.options = options
        if engine is None:
            engine = Engine(options=options)
        self.engine = engine
        self.max_workers = options.max_workers
        self.max_queue = options.max_queue
        self.default_timeout = options.default_timeout
        self._pool = ThreadPoolExecutor(max_workers=self.max_workers,
                                        thread_name_prefix="repro-svc")
        self._lock = threading.Lock()
        self._in_flight = 0
        self._counters = {"submitted": 0, "rejected": 0, "completed": 0,
                          "failed": 0, "timeouts": 0, "cancelled": 0}
        self._closed = False

    # -- admission ---------------------------------------------------------

    def call(self, fn, *args) -> Future:
        """Admit ``fn(*args)`` onto the pool; returns its Future.

        The one admission door: raises
        :class:`~repro.errors.ServiceOverloaded` immediately when
        ``max_workers`` calls are running and ``max_queue`` are
        already waiting.  A call that returns counts ``completed``;
        one that raises counts ``timeouts``/``cancelled``
        (:class:`~repro.errors.QueryCancelled`) or ``failed``.
        """
        if self._closed:
            raise RuntimeError("QueryService is shut down")
        with self._lock:
            if self._in_flight >= self.max_workers + self.max_queue:
                self._counters["rejected"] += 1
                raise ServiceOverloaded(
                    queue_depth=max(0, self._in_flight - self.max_workers),
                    max_queue=self.max_queue, max_workers=self.max_workers)
            self._in_flight += 1
            self._counters["submitted"] += 1
        try:
            return self._pool.submit(self._admitted, fn, args)
        except BaseException:
            with self._lock:
                self._in_flight -= 1
            raise

    def _admitted(self, fn, args):
        counter = "failed"
        try:
            out = fn(*args)
            counter = "completed"
            return out
        except QueryCancelled as exc:
            counter = "timeouts" if exc.reason == "deadline" \
                else "cancelled"
            raise
        finally:
            with self._lock:
                self._counters[counter] += 1
                self._in_flight -= 1

    # -- queries -----------------------------------------------------------

    def submit(self, query_text: str, *,
               context_item: Any = None,
               variables: Optional[dict[str, Any]] = None,
               documents: Optional[dict[str, Any]] = None,
               collections: Optional[dict[str, list]] = None,
               document_loader=None,
               profiler=None,
               timeout: Optional[float] = None,
               cancellation: Optional[CancellationToken] = None) -> Future:
        """Admit a query (:meth:`call`); returns a Future resolving to
        a drained :class:`~repro.engine.Result`.

        The Future raises what the query raised —
        :class:`~repro.errors.QueryTimeout` (with partial stats) on a
        blown deadline, :class:`~repro.errors.QueryCancelled` when the
        caller cancelled the token.
        """
        token = cancellation if cancellation is not None \
            else CancellationToken()
        deadline = timeout if timeout is not None else self.default_timeout
        if deadline is not None:
            token.tighten(deadline)
        return self.call(self._run, query_text, context_item, variables,
                         documents, collections, document_loader, profiler,
                         token)

    def execute(self, query_text: str, **kwargs) -> Result:
        """Blocking convenience: ``submit(...).result()``."""
        return self.submit(query_text, **kwargs).result()

    # -- the worker --------------------------------------------------------

    def _run(self, query_text, context_item, variables, documents,
             collections, document_loader, profiler,
             token: CancellationToken) -> Result:
        loader = None
        if document_loader is not None:
            loader = RetryingDocumentLoader(document_loader, token=token)
        try:
            compiled = self.engine.compile(
                query_text, variables=tuple(variables or ()))
            result = compiled.execute(
                context_item=context_item, variables=variables,
                documents=documents, collections=collections,
                document_loader=loader, profiler=profiler,
                cancellation=token)
            # drain in the worker: the deadline governs evaluation, and
            # the returned Result is fully buffered (re-iterable, free)
            result.items()
        except QueryCancelled as exc:
            if loader is not None:
                exc.stats.update(loader.stats)
            raise
        if loader is not None:
            # retries count into the stats of *this* result (or of the
            # cancellation above): a prefetch may call the loader
            # before either exists
            result.stats.update(loader.stats)
        return result

    # -- introspection / lifecycle ----------------------------------------

    def stats(self) -> dict[str, int]:
        """Service counters plus the instantaneous load."""
        with self._lock:
            out = dict(self._counters)
            out["in_flight"] = self._in_flight
            out["queue_depth"] = max(0, self._in_flight - self.max_workers)
        return out

    def shutdown(self, wait: bool = True) -> None:
        self._closed = True
        self._pool.shutdown(wait=wait)

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()
