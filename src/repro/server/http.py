"""The asyncio HTTP front end: XQuery as a multi-tenant service.

Stdlib only — :func:`asyncio.start_server` speaks just enough
HTTP/1.1 (keep-alive, Content-Length bodies) for real clients and the
load harness.  The event loop owns parsing, routing, the response
encoding and the one result cache; query execution never blocks it.

Every execute and explain takes one path: the front probes the result
cache, resolves the request's timeout (its own, else
``options.default_timeout``), then runs the command tuple through
:meth:`~repro.server.tenants.AppCore.handle` over one of two
transports, and caches a cacheable reply.  ``processes`` picks only
where ``handle`` runs:

- ``processes=0`` — on a :class:`~repro.service.QueryService` thread
  (:meth:`~repro.service.QueryService.call`: admission control,
  in-flight accounting), awaited via :func:`asyncio.wrap_future`;
- ``processes=N`` — in a persistent child through
  :meth:`~repro.service.ForkWorkerPool.call` (dispatched through a
  thread so the loop stays free; the pool adds the hard-timeout
  backstop).  Ingests and registrations broadcast to every child with
  replay, so a respawned child rebuilds the same tenants, and eligible
  collection queries may scatter across the children instead.

API (all responses JSON unless ``form=xml``)::

    GET  /health
    GET  /metrics
    GET  /tenants
    GET  /tenants/{t}
    PUT  /tenants/{t}/documents/{name}?store=tree&index=1   body: XML
    PUT  /tenants/{t}/queries/{name}     body: {"query", "variables"}
    POST /tenants/{t}/queries/{name}     body: {"variables", ...}
    POST /tenants/{t}/execute            body: {"query", "variables", ...}
    POST /tenants/{t}/explain            body: {"query", "variables", ...}

Execute bodies accept ``"form": "json" | "xml"``, ``"timeout"``
(a positive, finite number of seconds), and ``"cache": false`` to
bypass the result cache.
"""

from __future__ import annotations

import asyncio
import json
import math
import threading
import time
from typing import Any, Optional
from urllib.parse import parse_qs, unquote, urlsplit

from repro.errors import XQueryError
from repro.server.config import ServerConfig
from repro.server.metrics import ServerMetrics
from repro.server.tenants import ApiError, AppCore, FORMS, error_reply
from repro.service import ForkWorkerPool, QueryService
from repro.service.sharding import ShardRouter

_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 413: "Payload Too Large",
            422: "Unprocessable Entity", 499: "Client Closed Request",
            500: "Internal Server Error", 502: "Bad Gateway",
            503: "Service Unavailable", 504: "Gateway Timeout"}

#: extra headroom on the pool's SIGKILL backstop beyond the request's
#: cooperative deadline (the deadline is the real limit; this only
#: catches a worker wedged in non-cooperative code)
_HARD_TIMEOUT_SLACK = 10.0

#: after a rejected head, how long the client may go on sending, and
#: stay silent between reads, before its connection closes (seconds)
_LINGER_SECONDS = 5.0
_LINGER_IDLE = 1.0


class XQueryServer:
    """The server: one :class:`AppCore` behind HTTP; ``AppCore.handle``
    runs on a service thread or in a pool child."""

    def __init__(self, config: Optional[ServerConfig] = None):
        self.config = config or ServerConfig()
        self.core = AppCore(self.config.options,
                            self.config.result_cache_size)
        self.metrics = ServerMetrics(self.config.metrics_window)
        self.pool: Optional[ForkWorkerPool] = None
        self.service: Optional[QueryService] = None
        self.router: Optional[ShardRouter] = None
        if self.config.processes > 0:
            self.pool = ForkWorkerPool(
                self.core.handle, workers=self.config.processes,
                max_queue=self.config.options.max_queue)
            # collection-level scatter-gather across the pool children;
            # ShardRouter.enabled gates on options.shards, the pool size
            # and the CPUs in this process's affinity mask: on one core
            # might_scatter is False and collection queries go to one
            # child like any other
            self.router = ShardRouter(self.core, self.pool)
        else:
            self.service = QueryService(options=self.config.options)
        self._server: Optional[asyncio.AbstractServer] = None
        self.port: Optional[int] = None

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> asyncio.AbstractServer:
        if self.pool is not None:
            self.pool.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port,
            limit=self.config.max_body + 65536)
        self.port = self._server.sockets[0].getsockname()[1]
        return self._server

    async def serve_forever(self) -> None:
        server = await self.start()
        async with server:
            await server.serve_forever()

    def shutdown(self) -> None:
        if self._server is not None:
            self._server.close()
        if self.router is not None:
            self.router.shutdown()
        if self.pool is not None:
            self.pool.shutdown()
        if self.service is not None:
            self.service.shutdown()

    # -- connection handling -----------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except ApiError as exc:
                    # nothing past a rejected head can be trusted to
                    # start the next request: answer, then close
                    reply = _error_response(error_reply(exc), {})
                    self.metrics.observe("other", 0.0, reply[0])
                    await self._write_response(writer, *reply,
                                               keep_alive=False)
                    await _linger(reader, writer)
                    break
                if request is None:
                    break
                method, path, query, headers, body = request
                started = time.perf_counter()
                try:
                    status, payload, content_type, extra = \
                        await self._route(method, path, query, headers, body)
                except (ApiError, XQueryError) as exc:
                    status, payload, content_type, extra = \
                        _error_response(error_reply(exc), {})
                except Exception as exc:  # noqa: BLE001 - last resort
                    status = 500
                    payload = {"error": {"code": "internal",
                                         "message": f"{type(exc).__name__}: "
                                                    f"{exc}"}}
                    content_type, extra = "application/json", {}
                self.metrics.observe(_endpoint_class(method, path),
                                     time.perf_counter() - started, status)
                keep_alive = headers.get("connection", "").lower() != "close"
                await self._write_response(writer, status, payload,
                                           content_type, extra, keep_alive)
                if not keep_alive:
                    break
        except (asyncio.IncompleteReadError, asyncio.CancelledError,
                ConnectionError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, RuntimeError):
                pass

    async def _read_request(self, reader: asyncio.StreamReader):
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except (asyncio.IncompleteReadError, ConnectionError):
            return None
        except asyncio.LimitOverrunError:
            raise ApiError(400, "bad_request",
                           "request head is too long") from None
        lines = head.decode("latin-1").split("\r\n")
        try:
            method, target, _version = lines[0].split(" ", 2)
        except ValueError:
            raise ApiError(400, "bad_request",
                           f"malformed request line {lines[0]!r}") from None
        headers: dict[str, str] = {}
        for line in lines[1:]:
            if not line:
                continue
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        declared = headers.get("content-length") or "0"
        if not (declared.isascii() and declared.isdigit()):
            raise ApiError(400, "bad_request",
                           f"malformed Content-Length {declared!r}")
        length = int(declared)
        if length > self.config.max_body:
            raise ApiError(413, "payload_too_large",
                           f"body of {length} bytes exceeds the "
                           f"{self.config.max_body}-byte limit")
        body = await reader.readexactly(length) if length else b""
        split = urlsplit(target)
        query = {k: v[-1] for k, v in parse_qs(split.query).items()}
        return method.upper(), split.path, query, headers, body

    async def _write_response(self, writer: asyncio.StreamWriter,
                              status: int, payload: Any, content_type: str,
                              extra: dict, keep_alive: bool) -> None:
        if isinstance(payload, (dict, list)):
            body = json.dumps(payload).encode("utf-8")
        elif isinstance(payload, str):
            body = payload.encode("utf-8")
        else:
            body = payload or b""
        reason = _REASONS.get(status, "Unknown")
        head = [f"HTTP/1.1 {status} {reason}",
                f"Content-Type: {content_type}; charset=utf-8",
                f"Content-Length: {len(body)}",
                f"Connection: {'keep-alive' if keep_alive else 'close'}"]
        head.extend(f"{name}: {value}" for name, value in extra.items())
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1"))
        writer.write(body)
        await writer.drain()

    # -- routing -----------------------------------------------------------

    async def _route(self, method: str, path: str, query: dict,
                     headers: dict, body: bytes):
        """Returns (status, payload, content_type, extra_headers)."""
        parts = [unquote(p) for p in path.strip("/").split("/") if p]
        if parts == ["health"]:
            return 200, {"status": "ok", "mode": "prefork"
                         if self.pool is not None else "inprocess",
                         "version": _version()}, "application/json", {}
        if parts == ["metrics"]:
            return 200, self._metrics_payload(), "application/json", {}
        if parts == ["tenants"]:
            return 200, {"tenants": self.core.tenants.names()}, \
                "application/json", {}
        if len(parts) >= 2 and parts[0] == "tenants":
            tenant = parts[1]
            rest = parts[2:]
            if not rest and method == "GET":
                return 200, self.core.tenant_info(tenant), \
                    "application/json", {}
            if len(rest) == 2 and rest[0] == "documents" \
                    and method in ("PUT", "POST"):
                return await self._ingest(tenant, rest[1], query, body)
            if len(rest) == 2 and rest[0] == "queries" and method == "PUT":
                return await self._register(tenant, rest[1], body)
            if len(rest) == 2 and rest[0] == "queries" and method == "POST":
                return await self._execute_registered(tenant, rest[1],
                                                      query, body)
            if rest == ["execute"] and method == "POST":
                return await self._execute_adhoc(tenant, query, body)
            if rest == ["explain"] and method == "POST":
                return await self._explain(tenant, body)
        raise ApiError(404, "not_found", f"no route for {method} {path}")

    # -- endpoints ---------------------------------------------------------

    async def _ingest(self, tenant: str, doc: str, query: dict,
                      body: bytes):
        try:
            text = body.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ApiError(400, "bad_request",
                           f"document body is not UTF-8: {exc}") from exc
        store = query.get("store", "tree")
        index = query.get("index", "1") not in ("0", "false", "no")
        durability = query.get("durability")
        info = self.core.ingest(tenant, doc, text, store=store, index=index,
                                durability=durability)
        if self.pool is not None:
            if self.core.options.data_dir:
                # the parent committed the document to disk above;
                # children just re-read the manifest and mmap the same
                # segment — no XML crosses the pipe, and a respawned
                # child replays cheap attaches, not full re-parses
                command = ("attach", tenant)
            else:
                # replay=True: a respawned child re-ingests on its own
                command = ("ingest", tenant, doc, text, store, index)
            await asyncio.get_running_loop().run_in_executor(
                None, lambda: self.pool.broadcast(command, replay=True))
        return 200, info, "application/json", {}

    async def _register(self, tenant: str, name: str, body: bytes):
        data = _json_body(body)
        text = data.get("query")
        if not isinstance(text, str) or not text.strip():
            raise ApiError(400, "bad_request",
                           'registration body needs a "query" string')
        variables = data.get("variables", [])
        if not isinstance(variables, list) \
                or not all(isinstance(v, str) for v in variables):
            raise ApiError(400, "bad_request",
                           '"variables" must be a list of names')
        info = self.core.register(tenant, name, text, tuple(variables))
        if self.pool is not None:
            await asyncio.get_running_loop().run_in_executor(
                None, lambda: self.pool.broadcast(
                    ("register", tenant, name, text, tuple(variables)),
                    replay=True))
        return 200, info, "application/json", {}

    async def _execute_registered(self, tenant: str, name: str,
                                  query: dict, body: bytes):
        data = _json_body(body)
        _tenant_obj, registered = self.core.resolve(tenant, name)
        request = _ExecuteRequest.from_body(
            data, query, self.config.options.default_timeout)
        reply = await self._execute(tenant, registered.query_text,
                                    registered.variables, request)
        return _execute_response(reply, request.form)

    async def _execute_adhoc(self, tenant: str, query: dict, body: bytes):
        data = _json_body(body)
        text = data.get("query")
        if not isinstance(text, str) or not text.strip():
            raise ApiError(400, "bad_request",
                           'execute body needs a "query" string')
        request = _ExecuteRequest.from_body(
            data, query, self.config.options.default_timeout)
        reply = await self._execute(tenant, text, None, request)
        return _execute_response(reply, request.form)

    async def _explain(self, tenant: str, body: bytes):
        data = _json_body(body)
        text = data.get("query")
        if not isinstance(text, str) or not text.strip():
            raise ApiError(400, "bad_request",
                           'explain body needs a "query" string')
        variables = _variables_of(data)
        analyze = bool(data.get("analyze", True))
        timeout = _timeout_of(data, self.config.options.default_timeout)
        reply = await self._call(
            ("explain", tenant, text, variables, analyze, timeout), timeout)
        if reply["status"] != 200:
            return _error_response(reply, {})
        payload = reply["payload"]
        if analyze and self.router is not None:
            # EXPLAIN ANALYZE reports how the scatter path would run
            # this query: actually scatter it and surface the shard
            # stats next to the engine's own counters
            scatter = await asyncio.get_running_loop().run_in_executor(
                None, lambda: self.router.try_execute(
                    tenant, text, variables, None, "json", timeout,
                    _hard_timeout(timeout)))
            if scatter is not None and scatter.get("shard"):
                payload.setdefault("engine_stats", {}).update(
                    scatter["shard"])
        return 200, payload, "application/json", {}

    # -- execution ---------------------------------------------------------

    async def _execute(self, tenant: str, query_text: str,
                       declared: Optional[tuple],
                       request: "_ExecuteRequest") -> dict:
        """Probe the result cache, run the query, fill the cache.

        Ingests and registrations apply in this process before they
        are broadcast, so the keys it computes match the catalog any
        child executes against.
        """
        key = None
        if request.use_cache:
            key = self.core.result_cache.key(
                tenant, query_text, self.core.options.fingerprint(),
                self.core.tenants.get(tenant).catalog.fingerprint(),
                request.variables, request.form)
            hit = self.core.result_cache.get(key)
            if hit is not None:
                self.metrics.count("cache_hits")
                return {"status": 200, "payload": hit, "cached": True}
        reply = None
        if self.router is not None \
                and self.router.might_scatter(query_text, request.form):
            # scatter-gather for eligible collection queries; None
            # always means "use the normal single-worker path"
            reply = await asyncio.get_running_loop().run_in_executor(
                None, lambda: self.router.try_execute(
                    tenant, query_text, request.variables, declared,
                    request.form, request.timeout,
                    _hard_timeout(request.timeout)))
            if reply is not None:
                self.metrics.count("scattered")
        if reply is None:
            reply = await self._call(
                ("execute", tenant, query_text, request.variables,
                 declared, request.form, request.timeout, False),
                request.timeout)
        if key is not None and reply["status"] == 200 \
                and reply.get("cacheable"):
            self.core.result_cache.put(key, reply["payload"])
        self.metrics.count("cache_misses")
        if reply["status"] == 503:
            self.metrics.count("rejected")
        return reply

    async def _call(self, command: tuple, timeout: Optional[float]) -> dict:
        """``core.handle(command)`` where this server runs queries: in a
        pool child (with the hard-timeout backstop) or on a service
        thread; a rejected or lost call comes back as an error reply."""
        try:
            if self.pool is not None:
                return await asyncio.get_running_loop().run_in_executor(
                    None, lambda: self.pool.call(
                        command, hard_timeout=_hard_timeout(timeout)))
            return await asyncio.wrap_future(
                self.service.call(self.core.handle, command))
        except XQueryError as exc:
            return error_reply(exc)

    # -- metrics -----------------------------------------------------------

    def _metrics_payload(self) -> dict:
        out = {"server": self.metrics.snapshot()}
        result_cache = self.core.result_cache.stats()
        if self.pool is None:
            out["service"] = self.service.stats()
            out["caches"] = self.core.cache_stats()
        else:
            out["pool"] = self.pool.stats()
            replies = self.pool.broadcast(("cache_stats",))
            out["caches"] = _sum_cache_stats(
                [r["payload"] for r in replies
                 if isinstance(r, dict) and r.get("status") == 200])
            # the same cache under its pre-7.0 name, which
            # benchmarks/e2e/layers.py reads
            out["caches"]["parent_result_cache"] = result_cache
        out["caches"]["result_cache"] = result_cache
        if self.router is not None:
            out["sharding"] = self.router.stats()
        return out


class _ExecuteRequest:
    """The knobs an execute body/query-string may carry."""

    __slots__ = ("variables", "form", "timeout", "use_cache")

    def __init__(self, variables, form, timeout, use_cache):
        self.variables = variables
        self.form = form
        self.timeout = timeout
        self.use_cache = use_cache

    @classmethod
    def from_body(cls, data: dict, query: dict,
                  default_timeout: Optional[float]) -> "_ExecuteRequest":
        form = data.get("form") or query.get("form") or "json"
        if form not in FORMS:
            raise ApiError(400, "bad_request",
                           f"form must be one of {list(FORMS)}")
        use_cache = data.get("cache", True)
        if query.get("cache") in ("0", "false", "no"):
            use_cache = False
        return cls(_variables_of(data), form,
                   _timeout_of(data, default_timeout), bool(use_cache))


def _execute_response(reply: dict, form: str):
    status = reply["status"]
    extra = {"X-Repro-Cache": "hit" if reply.get("cached") else "miss"}
    if "elapsed_ms" in reply:
        extra["X-Repro-Elapsed-Ms"] = str(reply["elapsed_ms"])
    if status != 200:
        return _error_response(reply, extra)
    payload = reply["payload"]
    if form == "xml":
        return 200, payload["body"], "application/xml", extra
    out = dict(payload)
    out["cached"] = bool(reply.get("cached"))
    out.pop("form", None)
    return 200, out, "application/json", extra


def _error_response(reply: dict, extra: dict):
    """An error reply dict as (status, payload, content_type, headers)."""
    return reply["status"], {"error": {"code": reply["error"],
                                       "message": reply["message"]}}, \
        "application/json", extra


async def _linger(reader: asyncio.StreamReader,
                  writer: asyncio.StreamWriter) -> None:
    """After the reply to a rejected head: half-close, then read and
    drop what the client still sends until it closes, is idle for
    :data:`_LINGER_IDLE`, or :data:`_LINGER_SECONDS` pass.  Closing a
    socket with unread input resets the connection, and the client can
    lose the reply with it."""
    deadline = time.monotonic() + _LINGER_SECONDS
    try:
        writer.write_eof()
        while (left := deadline - time.monotonic()) > 0:
            if not await asyncio.wait_for(reader.read(65536),
                                          min(left, _LINGER_IDLE)):
                return
    except (asyncio.TimeoutError, ConnectionError):
        pass


def _json_body(body: bytes) -> dict:
    if not body:
        return {}
    try:
        data = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ApiError(400, "bad_request",
                       f"body is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ApiError(400, "bad_request", "body must be a JSON object")
    return data


def _variables_of(data: dict) -> Optional[dict]:
    variables = data.get("variables")
    if variables is None:
        return None
    if not isinstance(variables, dict):
        raise ApiError(400, "bad_request",
                       '"variables" must be an object of name → value')
    return variables


def _timeout_of(data: dict, default: Optional[float]) -> Optional[float]:
    timeout = data.get("timeout", default)
    if timeout is None:
        return None
    try:
        # JSON gives int, float or bool here; a bool is not a number
        seconds = float(timeout) if type(timeout) in (int, float) \
            else math.nan
    except OverflowError:  # an integer past the float range
        seconds = math.inf
    if not (math.isfinite(seconds) and seconds > 0):
        raise ApiError(400, "bad_request", '"timeout" must be a positive, '
                                           'finite number of seconds')
    return seconds


def _hard_timeout(timeout: Optional[float]) -> Optional[float]:
    return None if timeout is None else timeout + _HARD_TIMEOUT_SLACK


def _endpoint_class(method: str, path: str) -> str:
    if path.endswith("/execute") or "/queries/" in path and method == "POST":
        return "execute"
    if "/documents/" in path:
        return "ingest"
    if "/queries/" in path:
        return "register"
    if path.endswith("/explain"):
        return "explain"
    return "other"


def _sum_cache_stats(per_child: list[dict]) -> dict:
    """The children's compile caches, summed."""
    total = {"hits": 0, "misses": 0, "entries": 0}
    for stats in per_child:
        for field, value in stats["compile_cache"].items():
            total[field] += value
    return {"compile_cache": total}


def _version() -> str:
    from repro import __version__

    return __version__


class ServerHandle:
    """A running server on a background thread (tests, benchmarks)."""

    def __init__(self, server: XQueryServer, thread: threading.Thread,
                 loop: asyncio.AbstractEventLoop):
        self.server = server
        self.thread = thread
        self.loop = loop

    @property
    def port(self) -> int:
        return self.server.port

    @property
    def address(self) -> tuple[str, int]:
        return (self.server.config.host, self.server.port)

    def close(self) -> None:
        def _stop():
            self.server.shutdown()
            tasks = [t for t in asyncio.all_tasks(self.loop) if not t.done()]
            for task in tasks:
                task.cancel()

            async def _finish():
                # let the cancellations land (bounded: a task wedged in
                # a thread-pool call can't cancel until that returns)
                if tasks:
                    await asyncio.wait(tasks, timeout=5)
                self.loop.stop()

            self.loop.create_task(_finish())
        self.loop.call_soon_threadsafe(_stop)
        self.thread.join(timeout=15)


def start_in_thread(config: Optional[ServerConfig] = None) -> ServerHandle:
    """Start an :class:`XQueryServer` on a daemon thread; returns once
    the socket is bound (``handle.port`` is the real port — bind port 0
    to let the OS pick)."""
    server = XQueryServer(config)
    loop = asyncio.new_event_loop()
    started = threading.Event()
    failure: list[BaseException] = []

    def _run():
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(server.start())
        except BaseException as exc:  # noqa: BLE001 - reported to caller
            failure.append(exc)
            started.set()
            return
        started.set()
        try:
            loop.run_forever()
        finally:
            loop.close()

    thread = threading.Thread(target=_run, name="repro-server", daemon=True)
    thread.start()
    started.wait(timeout=30)
    if failure:
        raise failure[0]
    return ServerHandle(server, thread, loop)
