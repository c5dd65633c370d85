"""Sharded scatter-gather execution of persisted collections.

The source paper's engine pushes evaluation down to the storage token
stream; PR 9 made that storage durable (one segment per document,
read-only attach in pre-forked children).  This module exploits it for
multi-core scaling: a *collection-level router* partitions a catalog's
documents across the :class:`~repro.service.workers.ForkWorkerPool`
children, dispatches one compiled query per owning shard, and merges
the per-shard results back into a single reply that is byte-identical
to single-process execution.

The division of labour:

- :func:`repro.compiler.analysis.collection_shard_plan` decides
  *eligibility*: per-document-independent FLWOR/path shapes over the
  default collection shard as ``"scan"``; ``count``/``sum``/``exists``
  roots get a partial-aggregate + combine path; everything else falls
  back to single-worker execution (counted ``fallback_single``);
- :meth:`DocumentCatalog.shard_map` owns *placement*: a deterministic
  size-balanced assignment persisted in the manifest, so a document
  keeps landing on the worker that already has its segment warm;
- the child side (``AppCore.execute_shard``) evaluates the query once
  per owned document — the default collection bound to just that
  document — and returns per-document item transports;
- :class:`ShardRouter` (parent side) scatters, then merges in global
  sorted-name document order.

Merge invariants (what makes the output byte-identical):

- cross-document order: the default collection binds documents in
  sorted-name order and pins their tree ids in that order
  (:func:`repro.xdm.order.pin_tree_order`), so concatenating per-
  document results in sorted-name order *is* document order;
- first error in document order wins: the merge walks documents in
  global order and surfaces the first error entry it meets — exactly
  the error left-to-right single-process evaluation would raise;
- ``exists`` short-circuits like its lazy single-process counterpart:
  a ``true`` partial from an earlier document wins over a later
  document's error (single-process evaluation would never have
  reached that document);
- ``sum`` partials fold left-to-right in document order through the
  engine's own :func:`~repro.runtime.arithmetic.arithmetic`, so type
  promotion (integer → decimal → float → double) matches the global
  fold.

Atomic values never cross the pipe as pickles — the engine compares
``AtomicValue.type`` by identity (``is``), which a pickle round-trip
breaks.  Items travel as plain tuples (:func:`transport_items`) and
atomics are rebuilt against this process's type singletons
(:func:`rebuild_atomic`).
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from decimal import Decimal
from typing import Any, Optional

from repro.errors import QueryTimeout, XQueryError
from repro.runtime.arithmetic import arithmetic
from repro.service.workers import ForkWorkerPool, WorkerCrashed
from repro.xdm.items import AtomicValue, boolean, integer
from repro.xdm.nodes import Node
from repro.xsd import types as T


class UncombinableShardResult(Exception):
    """Per-shard partials the merge cannot fold (unexpected shape or
    type) — the router falls back to single-worker execution."""


# -- the item transport -----------------------------------------------------
#
# Per item: ("n", markup)                           node, serialized
#           ("a", json_value, lexical, type_local)  atomic; json_value is
#               the plain Python value when it is JSON-representable
#               (bool/int/float/str), else None (use the lexical form)
#           ("s", text)                             non-XDM stragglers


def transport_items(result) -> list[tuple]:
    """Encode a drained result sequence for the pipe."""
    out: list[tuple] = []
    for item in result:
        if isinstance(item, Node):
            out.append(("n", _serialize_node(item)))
        elif isinstance(item, AtomicValue):
            value = item.value
            if not isinstance(value, (bool, int, float, str)):
                value = None
            out.append(("a", value, item.lexical, item.type.name.local))
        else:
            out.append(("s", str(item)))
    return out


def _serialize_node(node: Node) -> str:
    from repro.xdm.build import node_events
    from repro.xmlio.serializer import serialize_events

    return serialize_events(node_events(node))


def rebuild_atomic(entry: tuple) -> AtomicValue:
    """Rebuild a typed atomic from its transport tuple.

    Only the types an aggregate partial can carry (the numeric tower
    and boolean) are rebuilt — anything else is
    :class:`UncombinableShardResult`, which the router turns into a
    single-worker fallback rather than a wrong answer.
    """
    if not (isinstance(entry, tuple) and entry and entry[0] == "a"):
        raise UncombinableShardResult(f"expected an atomic, got {entry!r}")
    _, json_value, lexical, local = entry
    try:
        type_ = T.xs_type(local)
    except KeyError:
        raise UncombinableShardResult(f"unknown type {local!r}") from None
    if type_ is T.XS_BOOLEAN:
        return boolean(json_value if isinstance(json_value, bool)
                       else lexical == "true")
    if type_.derives_from(T.XS_INTEGER):
        return AtomicValue(int(lexical), type_)
    if type_.derives_from(T.XS_DECIMAL):
        return AtomicValue(Decimal(lexical), type_)
    if type_ in (T.XS_FLOAT, T.XS_DOUBLE) or \
            type_.derives_from(T.XS_FLOAT) or type_.derives_from(T.XS_DOUBLE):
        if isinstance(json_value, (int, float)) \
                and not isinstance(json_value, bool):
            return AtomicValue(float(json_value), type_)
        return AtomicValue(float(lexical.replace("INF", "inf")), type_)
    raise UncombinableShardResult(f"cannot combine partials of type {local}")


def _json_item(entry: tuple) -> Any:
    """One transport entry → its ``form=json`` payload item (the exact
    shape ``result_payload`` produces)."""
    kind = entry[0]
    if kind == "n":
        return {"node": entry[1]}
    if kind == "a":
        return entry[1] if entry[1] is not None else entry[2]
    return entry[1]


def _merge_stats(total: dict, part: dict) -> None:
    for key, value in (part or {}).items():
        if isinstance(value, (int, float)):
            total[key] = total.get(key, 0) + value
        else:
            total[key] = value


class ShardRouter:
    """Parent-side scatter-gather for eligible collection queries.

    ``try_execute`` returns a reply dict shaped exactly like
    ``AppCore.execute_inline``'s (plus a ``"shard"`` stats block), or
    ``None`` — *None always means "run the normal single-worker
    path"*, never an error.  Scattering is read-only (children attach
    to committed segments), so falling back mid-flight is always safe.
    """

    def __init__(self, core, pool: ForkWorkerPool,
                 options=None) -> None:
        self.core = core
        self.pool = pool
        self.options = options if options is not None else core.options
        # enough threads that two concurrent scatters don't fully
        # serialize; per-worker pipes still bound actual parallelism
        self._threads = ThreadPoolExecutor(
            max_workers=max(4, pool.workers * 2),
            thread_name_prefix="repro-scatter")
        self._lock = threading.Lock()
        self._counters = {
            "scattered": 0,            # queries executed via scatter
            "fallback_single": 0,      # collection queries not eligible
            "merged_errors": 0,        # scatters resolved to an error
            "worker_crash_fallbacks": 0,
            "uncombinable_fallbacks": 0,
        }
        self._merge_ms_total = 0.0

    # -- configuration ------------------------------------------------------

    @property
    def enabled(self) -> bool:
        return (self.pool is not None and self.pool.workers >= 2
                and self.options.shards != 0)

    def shard_count(self) -> int:
        configured = self.options.shards
        if not configured:  # None → auto: one shard per pool worker
            return self.pool.workers
        return configured

    def might_scatter(self, query_text: str, form: str = "json") -> bool:
        """The free pre-check: False means ``try_execute`` returns None
        without looking further.  A text that never spells
        ``collection`` cannot read the default collection, so there is
        nothing to scatter and no reason to compile in the parent what
        the child compiles again — the common case, and for a
        never-repeated ad-hoc text that compile was most of the request.
        """
        return (self.enabled and form in ("json", "xml")
                and "collection" in query_text)

    # -- the scatter path ---------------------------------------------------

    def try_execute(self, tenant_name: str, query_text: str,
                    variables: Optional[dict] = None,
                    declared: Optional[tuple] = None,
                    form: str = "json",
                    timeout: Optional[float] = None,
                    hard_timeout: Optional[float] = None) -> Optional[dict]:
        started = time.perf_counter()
        if not self.might_scatter(query_text, form):
            return None
        tenant = self.core.tenants.peek(tenant_name)
        if tenant is None:
            return None
        if declared is None:
            declared = tuple(variables or ())
        try:
            compiled = tenant.engine.compile(query_text,
                                             variables=tuple(declared))
        except Exception:  # noqa: BLE001 - surface via the normal path
            return None
        if compiled.catalog_collection is None:
            # not a default-collection query: nothing to scatter and
            # nothing to count — this is the common case
            return None
        from repro.compiler.analysis import collection_shard_plan

        doc_names = [name for name, _ in compiled.catalog_collection]
        kind = collection_shard_plan(compiled.optimized)
        shards = min(self.shard_count(), len(doc_names))
        if kind is None or len(doc_names) < 2 or shards < 2:
            with self._lock:
                self._counters["fallback_single"] += 1
            return None
        assignment = tenant.catalog.shard_map(shards)
        shard_docs: dict[int, list[str]] = {}
        for name in doc_names:
            shard_docs.setdefault(assignment.get(name, 0), []).append(name)

        results: dict[int, Any] = {}
        failures: list[BaseException] = []
        try:
            with self.pool.admission():
                futures = {}
                for sid, names in sorted(shard_docs.items()):
                    command = ("execute_shard", tenant_name, query_text,
                               variables, tuple(declared), tuple(names),
                               timeout)
                    futures[sid] = self._threads.submit(
                        self.pool.call, command, hard_timeout,
                        sid % self.pool.workers, True)
                # always drain every future: an early exception must not
                # leave targeted calls in flight past the admission slot
                for sid, future in futures.items():
                    try:
                        results[sid] = future.result()
                    except BaseException as exc:  # noqa: BLE001
                        failures.append(exc)
        except XQueryError:
            # admission itself rejected (ServiceOverloaded): the normal
            # path would reject identically — let it say so
            return None
        for exc in failures:
            if isinstance(exc, QueryTimeout):
                from repro.server.tenants import status_for

                with self._lock:
                    self._counters["scattered"] += 1
                    self._counters["merged_errors"] += 1
                return {"status": status_for(exc), "error": exc.code,
                        "message": exc.message or str(exc),
                        "elapsed_ms": _ms_since(started)}
        if failures:
            with self._lock:
                self._counters["worker_crash_fallbacks"] += \
                    sum(1 for e in failures if isinstance(e, WorkerCrashed))
            return None

        merge_started = time.perf_counter()
        merged = self._merge(kind, doc_names, shard_docs, results, form)
        merge_ms = _ms_since(merge_started)
        with self._lock:
            self._merge_ms_total += merge_ms
        if merged is None:
            with self._lock:
                self._counters["uncombinable_fallbacks"] += 1
            return None
        payload_or_error, rows_per_shard = merged
        shard_info = {
            "shard.chosen": kind,
            "shard.shards_hit": len(shard_docs),
            "shard.rows_per_shard": {str(sid): rows
                                     for sid, rows
                                     in sorted(rows_per_shard.items())},
            "shard.merge_ms": merge_ms,
        }
        if "status" in payload_or_error:  # a merged per-document error
            with self._lock:
                self._counters["scattered"] += 1
                self._counters["merged_errors"] += 1
            payload_or_error["elapsed_ms"] = _ms_since(started)
            payload_or_error["shard"] = shard_info
            return payload_or_error
        from repro.server.cache import cacheable

        with self._lock:
            self._counters["scattered"] += 1
        return {"status": 200, "payload": payload_or_error,
                "cached": False, "cacheable": cacheable(compiled),
                "elapsed_ms": _ms_since(started), "shard": shard_info}

    # -- the merge operator -------------------------------------------------

    def _merge(self, kind: str, doc_names: list[str],
               shard_docs: dict[int, list[str]], results: dict[int, Any],
               form: str):
        """Combine per-shard replies in global document order.

        Returns ``(payload_dict, rows_per_shard)``, ``(error_reply,
        rows_per_shard)``, or ``None`` for "cannot combine, fall back".
        """
        owner = {name: sid for sid, names in shard_docs.items()
                 for name in names}
        per_doc: dict[str, tuple] = {}
        for sid, reply in results.items():
            if not isinstance(reply, dict) or reply.get("status") != 200:
                return None
            for entry in reply.get("docs", ()):
                per_doc[entry[0]] = tuple(entry)
        rows_per_shard: dict[int, int] = {sid: 0 for sid in shard_docs}

        def error_reply(entry: tuple):
            return ({"status": entry[2], "error": entry[3],
                     "message": entry[4]}, rows_per_shard)

        try:
            if kind == "exists":
                # lazy like fn:exists: the first true partial wins —
                # single-process evaluation would never have reached a
                # later document, so a later error must not surface
                for name in doc_names:
                    entry = per_doc.get(name)
                    if entry is None:
                        return None
                    if entry[1] == "error":
                        return error_reply(entry)
                    rows_per_shard[owner[name]] += len(entry[2])
                    partial = self._one_atomic(entry)
                    if not isinstance(partial.value, bool):
                        raise UncombinableShardResult("non-boolean exists")
                    if partial.value:
                        return (self._aggregate_payload(
                            boolean(True), per_doc, form), rows_per_shard)
                return (self._aggregate_payload(boolean(False), per_doc,
                                                form), rows_per_shard)

            # every other kind drains the whole collection: the first
            # error in document order wins, completeness is required
            ordered: list[tuple] = []
            for name in doc_names:
                entry = per_doc.get(name)
                if entry is None:
                    return None
                if entry[1] == "error":
                    return error_reply(entry)
                rows_per_shard[owner[name]] += len(entry[2])
                ordered.append(entry)

            if kind == "scan":
                return (self._scan_payload(ordered, form), rows_per_shard)
            if kind == "count":
                total = 0
                for entry in ordered:
                    partial = self._one_atomic(entry)
                    if not isinstance(partial.value, int) \
                            or isinstance(partial.value, bool):
                        raise UncombinableShardResult("non-integer count")
                    total += partial.value
                return (self._aggregate_payload(integer(total), per_doc,
                                                form), rows_per_shard)
            if kind == "sum":
                total: Optional[AtomicValue] = None
                for entry in ordered:
                    partial = self._one_atomic(entry)
                    total = partial if total is None \
                        else arithmetic("+", total, partial)
                return (self._aggregate_payload(total, per_doc, form),
                        rows_per_shard)
        except UncombinableShardResult:
            return None
        except XQueryError:
            # the combine arithmetic itself failed (e.g. mixed duration
            # promotion): fall back and let one worker raise it properly
            return None
        return None

    @staticmethod
    def _one_atomic(entry: tuple) -> AtomicValue:
        items = entry[2]
        if len(items) != 1:
            raise UncombinableShardResult(
                f"aggregate partial with {len(items)} items")
        return rebuild_atomic(items[0])

    @staticmethod
    def _scan_payload(ordered: list[tuple], form: str) -> dict:
        stats: dict = {}
        for entry in ordered:
            _merge_stats(stats, entry[3] if len(entry) > 3 else {})
        if form == "xml":
            parts: list[str] = []
            prev_atomic = False
            for entry in ordered:
                for item in entry[2]:
                    if item[0] == "n":
                        parts.append(item[1])
                        prev_atomic = False
                    else:
                        # the adjacent-atomic space rule applies across
                        # document boundaries too, exactly like
                        # Result.serialize over the whole sequence
                        if prev_atomic:
                            parts.append(" ")
                        parts.append(item[2] if item[0] == "a" else item[1])
                        prev_atomic = True
            return {"form": "xml", "body": "".join(parts), "stats": stats}
        items = [_json_item(item) for entry in ordered for item in entry[2]]
        return {"form": "json", "items": items, "count": len(items),
                "stats": stats}

    @staticmethod
    def _aggregate_payload(total: AtomicValue, per_doc: dict,
                           form: str) -> dict:
        stats: dict = {}
        for entry in per_doc.values():
            if entry[1] == "ok":
                _merge_stats(stats, entry[3] if len(entry) > 3 else {})
        if form == "xml":
            return {"form": "xml", "body": total.lexical, "stats": stats}
        value = total.value
        if not isinstance(value, (bool, int, float, str)):
            value = total.lexical
        return {"form": "json", "items": [value], "count": 1,
                "stats": stats}

    # -- introspection / shutdown ------------------------------------------

    def stats(self) -> dict:
        with self._lock:
            out = dict(self._counters)
            out["merge_ms_total"] = round(self._merge_ms_total, 3)
        out["enabled"] = self.enabled
        out["shards"] = self.shard_count() if self.enabled else 0
        return out

    def shutdown(self) -> None:
        self._threads.shutdown(wait=False)


def _ms_since(started: float) -> float:
    return round((time.perf_counter() - started) * 1000, 3)
