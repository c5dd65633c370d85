"""Tenants and the transport-independent application core.

A *tenant* is one isolation domain: its own
:class:`~repro.catalog.DocumentCatalog`, its own registered queries,
and its own catalog-wired :class:`~repro.engine.Engine`.  What tenants
deliberately *share* is the compile cache — one
:class:`~repro.runtime.memo.LRUCache` spans every tenant engine, safe
because the cache key carries the catalog fingerprint: two tenants who
ingest different content under the same document name can never
exchange plans (their fingerprints differ by ingest generation), while
two requests from the *same* tenant for the same query text hit.

:class:`AppCore` is the server's application logic with no transport
in it: ingest, register, execute, serialize — taking and returning
plain data.  Every execute and explain request runs through
:meth:`AppCore.handle`, which returns a picklable reply dict: on a
:class:`~repro.service.QueryService` thread in-process, or in a
pre-forked child that inherited the core copy-on-write and receives
state mutations through the pool's replay broadcast.  The result cache
(:attr:`AppCore.result_cache`) is probed and filled only by the process
that owns the socket; ``handle`` never touches it.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Any, Optional
from urllib.parse import quote, unquote

from repro.catalog import DocumentCatalog
from repro.engine import Engine, Result, xml as xml_wrapper
from repro.errors import XQueryError
from repro.options import ExecutionOptions
from repro.runtime.memo import LRUCache
from repro.server.cache import ServerResultCache, cacheable
from repro.xdm import wire

#: response forms an execute request may ask for
FORMS = ("json", "xml")


class ApiError(Exception):
    """A request-level failure with an HTTP status and a short code.

    Engine failures keep their W3C-style codes
    (:class:`~repro.errors.XQueryError`); this class covers the purely
    HTTP-shaped ones — unknown tenant, malformed body, bad form.
    """

    def __init__(self, status: int, code: str, message: str):
        super().__init__(message)
        self.status = status
        self.code = code
        self.message = message


class RegisteredQuery:
    """A named, pre-compiled, parameterized query."""

    __slots__ = ("name", "query_text", "variables", "cacheable")

    def __init__(self, name: str, query_text: str,
                 variables: tuple[str, ...], cacheable_: bool):
        self.name = name
        self.query_text = query_text
        self.variables = variables
        self.cacheable = cacheable_

    def describe(self) -> dict:
        return {"name": self.name, "query": self.query_text,
                "variables": list(self.variables),
                "cacheable": self.cacheable}


class Tenant:
    """One tenant's catalog, engine, and registered queries.

    With ``data_dir`` set, the catalog is disk-backed at
    ``<data_dir>/<tenant>`` (the tenant name percent-encoded so any
    name is a safe directory) — documents persist across restarts and
    pre-forked children attach to the same files read-only.
    """

    def __init__(self, name: str, options: ExecutionOptions,
                 compile_cache: Optional[LRUCache],
                 data_dir: Optional[str] = None):
        self.name = name
        if data_dir:
            self.catalog = DocumentCatalog(
                Path(data_dir) / quote(name, safe=""))
        else:
            self.catalog = DocumentCatalog()
        self.engine = Engine(options=options, catalog=self.catalog,
                             compile_cache=compile_cache)
        self.queries: dict[str, RegisteredQuery] = {}


class TenantRegistry:
    """Name → :class:`Tenant`, created on first ingest/register."""

    def __init__(self, options: ExecutionOptions,
                 compile_cache: Optional[LRUCache],
                 data_dir: Optional[str] = None):
        self._options = options
        self._compile_cache = compile_cache
        self._data_dir = data_dir
        self._tenants: dict[str, Tenant] = {}

    def get_or_create(self, name: str) -> Tenant:
        if not name:
            raise ApiError(400, "bad_request", "empty tenant name")
        tenant = self._tenants.get(name)
        if tenant is None:
            tenant = self._tenants[name] = Tenant(
                name, self._options, self._compile_cache, self._data_dir)
        return tenant

    def get(self, name: str) -> Tenant:
        tenant = self._tenants.get(name)
        if tenant is None:
            raise ApiError(404, "not_found", f"unknown tenant {name!r}")
        return tenant

    def peek(self, name: str) -> Optional[Tenant]:
        """The tenant if it exists, else None (no creation, no error)."""
        return self._tenants.get(name)

    def names(self) -> list[str]:
        return sorted(self._tenants)


class CatalogEpochSource:
    """Durable result-cache epochs, read from / written to each
    tenant's catalog manifest (see :mod:`repro.storage.persist`).

    Wired into :class:`~repro.server.cache.ServerResultCache` only when
    ``data_dir`` is set — it is what makes the stale-after-restart
    cache bug impossible: the epoch a previous process bumped is the
    epoch this process starts from.
    """

    def __init__(self, registry: TenantRegistry):
        self._registry = registry

    def load(self, tenant: str) -> int:
        found = self._registry.peek(tenant)
        return found.catalog.result_epoch if found is not None else 0

    def bump(self, tenant: str) -> int:
        found = self._registry.peek(tenant)
        if found is None:
            return 1
        return found.catalog.bump_result_epoch()


def convert_variables(variables: Optional[dict]) -> dict[str, Any]:
    """JSON variable bindings → engine bindings.

    Scalars bind typed atomics (a str is ``xs:string`` — same rule as
    the Python API); ``{"xml": "<...>"}`` binds a parsed document;
    lists bind sequences; ``null`` binds the empty sequence.
    """
    out: dict[str, Any] = {}
    for name, value in (variables or {}).items():
        out[name] = _convert_value(name, value)
    return out


def _convert_value(name: str, value: Any) -> Any:
    if value is None:
        return []
    if isinstance(value, dict):
        if set(value) == {"xml"} and isinstance(value["xml"], str):
            return xml_wrapper(value["xml"])
        raise ApiError(400, "bad_request",
                       f"variable {name!r}: objects must be "
                       f'{{"xml": "<...>"}} document wrappers')
    if isinstance(value, list):
        return [_convert_value(name, v) for v in value]
    if isinstance(value, (bool, int, float, str)):
        return value
    raise ApiError(400, "bad_request",
                   f"variable {name!r}: unsupported JSON type "
                   f"{type(value).__name__}")


def result_payload(result: Result, form: str) -> dict:
    """Serialize a drained :class:`~repro.engine.Result` for transport.

    ``json`` form: nodes as markup strings, atomics as JSON scalars.
    ``xml`` form: the standard space-separated serialization, one text.
    Both are :mod:`repro.xdm.wire`'s encoding, in one pass.
    """
    return {**wire.payload(map(wire.entry, result), form),
            "stats": dict(result.stats)}


class AppCore:
    """Ingest / register / execute, transport-free.

    Every method takes and returns plain data.  The asyncio front end
    calls ``ingest``/``register`` directly and owns
    :attr:`result_cache`; every execute and explain goes through
    :meth:`handle`, on a :class:`~repro.service.QueryService` thread
    or in a :class:`~repro.service.ForkWorkerPool` child.
    """

    def __init__(self, options: ExecutionOptions,
                 result_cache_size: int = 128):
        self.options = options
        #: one compile cache across all tenant engines; the key's
        #: catalog fingerprint keeps tenants' plans apart
        self.compile_cache = LRUCache(options.compile_cache_size) \
            if options.compile_cache_size else None
        self.tenants = TenantRegistry(options, self.compile_cache,
                                      options.data_dir)
        epoch_source = CatalogEpochSource(self.tenants) \
            if options.data_dir else None
        self.result_cache = ServerResultCache(result_cache_size,
                                              epoch_source)
        if options.data_dir:
            self._open_existing_tenants(options.data_dir)

    def _open_existing_tenants(self, data_dir: str) -> None:
        """Warm restart: every collection directory under ``data_dir``
        becomes a live tenant whose documents load lazily from disk.
        Registered queries are transient by design — clients re-PUT
        them (they are code, not data)."""
        root = Path(data_dir)
        if not root.is_dir():
            return
        for child in sorted(root.iterdir()):
            if (child / "manifest.json").is_file():
                self.tenants.get_or_create(unquote(child.name))

    # -- state mutation (replayed in pool mode) ---------------------------

    def ingest(self, tenant_name: str, doc_name: str, xml_text: str,
               store: str = "tree", index: bool = True,
               durability: Optional[str] = None) -> dict:
        tenant = self.tenants.get_or_create(tenant_name)
        try:
            stored = tenant.catalog.add(doc_name, xml_text, store=store,
                                        index=index, durability=durability)
        except (TypeError, ValueError) as exc:
            raise ApiError(400, "bad_request", str(exc)) from exc
        # every cached response for this tenant may now be stale
        self.result_cache.invalidate_tenant(tenant_name)
        return {"tenant": tenant_name, "document": doc_name,
                "store": stored.store.kind, "indexed": stored.indexed,
                "generation": stored.generation}

    def attach(self, tenant_name: str) -> dict:
        """Pick up another process's commits: re-read the tenant's
        manifest and swap changed documents in (read-only — nothing is
        written).  This is what pool children run instead of replaying
        ingest XML when ``data_dir`` is set: the parent commits once,
        every child attaches to the same segment files."""
        tenant = self.tenants.get_or_create(tenant_name)
        changed = tenant.catalog.refresh()
        return {"tenant": tenant_name, "changed": changed}

    def register(self, tenant_name: str, query_name: str, query_text: str,
                 variables: tuple[str, ...] = ()) -> dict:
        tenant = self.tenants.get_or_create(tenant_name)
        # compile now: a bad query fails registration, not the first
        # execute; the plan lands in the shared compile cache, warm
        compiled = tenant.engine.compile(query_text, variables=variables)
        registered = RegisteredQuery(query_name, query_text,
                                     tuple(variables), cacheable(compiled))
        tenant.queries[query_name] = registered
        return {"tenant": tenant_name, "registered": registered.describe()}

    # -- lookup ------------------------------------------------------------

    def tenant_info(self, tenant_name: str) -> dict:
        tenant = self.tenants.get(tenant_name)
        return {
            "tenant": tenant_name,
            "documents": [{"name": s.name, "store": s.store.kind,
                           "indexed": s.indexed,
                           "generation": s.generation}
                          for s in tenant.catalog],
            "queries": [q.describe()
                        for _, q in sorted(tenant.queries.items())],
        }

    def resolve(self, tenant_name: str,
                query_name: str) -> tuple["Tenant", RegisteredQuery]:
        tenant = self.tenants.get(tenant_name)
        registered = tenant.queries.get(query_name)
        if registered is None:
            raise ApiError(404, "not_found",
                           f"tenant {tenant_name!r} has no registered "
                           f"query {query_name!r}")
        return tenant, registered

    # -- execution (what ``handle`` runs, wherever it runs) ---------------

    def execute_inline(self, tenant_name: str, query_text: str,
                       variables: Optional[dict] = None,
                       declared: Optional[tuple] = None,
                       form: str = "json",
                       timeout: Optional[float] = None) -> dict:
        """Compile (cached), execute, serialize — one picklable dict.

        Returns ``{"status", "payload", "cacheable", "elapsed_ms"}``;
        ``cacheable`` tells the caller's result cache whether it may
        keep the payload.  Engine errors come back as
        error payloads (status >= 400), so a pool child never lets a
        query failure look like a crash.
        """
        started = time.perf_counter()
        try:
            tenant = self.tenants.get(tenant_name)
            if form not in FORMS:
                raise ApiError(400, "bad_request",
                               f"form must be one of {list(FORMS)}")
            if declared is None:
                declared = tuple(variables or ())
            compiled = tenant.engine.compile(query_text, variables=declared)
            bindings = convert_variables(variables)
            result = compiled.execute(variables=bindings, deadline=timeout)
            result.items()  # drain under the deadline
            return {"status": 200, "payload": result_payload(result, form),
                    "cacheable": cacheable(compiled),
                    "elapsed_ms": ms_since(started)}
        except (ApiError, XQueryError) as exc:
            return error_reply(exc, started)

    def explain_inline(self, tenant_name: str, query_text: str,
                       variables: Optional[dict] = None,
                       analyze: bool = True,
                       timeout: Optional[float] = None) -> dict:
        """EXPLAIN (ANALYZE) as JSON — the profiler wired per-request."""
        started = time.perf_counter()
        try:
            tenant = self.tenants.get(tenant_name)
            bindings = convert_variables(variables)
            explained = tenant.engine.explain(
                query_text, variables=bindings or None,
                analyze=analyze, deadline=timeout)
            return {"status": 200, "payload": explained.to_dict(),
                    "cached": False, "elapsed_ms": ms_since(started)}
        except (ApiError, XQueryError) as exc:
            return error_reply(exc, started)

    def cache_stats(self) -> dict:
        """Compile-cache counters (this process's view)."""
        cache = self.compile_cache
        if cache is None:
            return {"compile_cache": {"hits": 0, "misses": 0, "entries": 0}}
        return {"compile_cache": {"hits": cache.hits, "misses": cache.misses,
                                  "entries": len(cache)}}

    # -- the command dispatcher -------------------------------------------

    def handle(self, command: tuple) -> Any:
        """Dispatch one command tuple: every execute and explain the
        server answers, on a service thread or in a forked child.

        In a child, state mutations (``ingest``, ``register``) arrive
        via the pool's replay broadcast, so a respawned child rebuilds
        the same tenants; ``execute`` arrives via ``call`` on whichever
        child is free.
        """
        kind = command[0]
        try:
            if kind == "ingest":
                _, tenant, doc, text, store, index = command
                return {"status": 200,
                        "payload": self.ingest(tenant, doc, text,
                                               store=store, index=index)}
            if kind == "attach":
                _, tenant = command
                return {"status": 200, "payload": self.attach(tenant)}
            if kind == "register":
                _, tenant, name, text, variables = command
                return {"status": 200,
                        "payload": self.register(tenant, name, text,
                                                 tuple(variables))}
            if kind == "execute":
                # the 8th slot (use_cache) is unused: only the front
                # caches; benchmarks/e2e/layers.py still sends it
                (_, tenant, text, variables, declared, form,
                 timeout, _use_cache) = command
                return self.execute_inline(
                    tenant, text, variables=variables,
                    declared=tuple(declared) if declared is not None
                    else None, form=form, timeout=timeout)
            if kind == "explain":
                _, tenant, text, variables, analyze, timeout = command
                return self.explain_inline(tenant, text,
                                           variables=variables,
                                           analyze=analyze, timeout=timeout)
            if kind == "cache_stats":
                return {"status": 200, "payload": self.cache_stats()}
        except (ApiError, XQueryError) as exc:
            return error_reply(exc)
        return {"status": 400, "error": "bad_request",
                "message": f"unknown command {kind!r}"}


def status_for(exc: XQueryError) -> int:
    """Map an engine error's code family onto an HTTP status.

    - static/type errors (``XPST``/``XQST``/``XPTY``) — the request's
      query is malformed: 400;
    - dynamic errors (``FORG``/``FOAR``/``FODC``/``XQDY``/…) — the
      query is well-formed but failed on this data: 422;
    - service errors: 503 overloaded, 504 deadline, 499 cancelled by
      the caller (the nginx convention), 502 worker crashed.
    """
    from repro.errors import (
        QueryCancelled,
        QueryTimeout,
        ServiceOverloaded,
        StaticError,
        TypeError_,
    )
    from repro.service.workers import WorkerCrashed

    if isinstance(exc, ServiceOverloaded):
        return 503
    if isinstance(exc, QueryTimeout):
        return 504
    if isinstance(exc, QueryCancelled):
        return 499
    if isinstance(exc, WorkerCrashed):
        return 502
    if isinstance(exc, (StaticError, TypeError_)):
        return 400
    code = getattr(exc, "code", "")
    if code.startswith(("XPST", "XQST", "XPTY")):
        return 400
    return 422


def error_reply(exc: Exception, started: Optional[float] = None) -> dict:
    """The one mapping from a request failure (:class:`ApiError` or any
    :class:`~repro.errors.XQueryError`) onto an error reply dict."""
    if isinstance(exc, ApiError):
        status, message = exc.status, exc.message
    else:
        status, message = status_for(exc), exc.message or str(exc)
    reply = {"status": status, "error": exc.code, "message": message}
    if started is not None:
        reply["elapsed_ms"] = ms_since(started)
    return reply


def ms_since(started: float) -> float:
    """Milliseconds elapsed since a ``time.perf_counter()`` reading."""
    return round((time.perf_counter() - started) * 1000, 3)
