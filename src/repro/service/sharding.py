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
breaks.  Items travel as :mod:`repro.xdm.wire` transport tuples and
aggregate partials are rebuilt against this process's type singletons
(:func:`repro.xdm.wire.decode_atomic`).
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Optional

from repro.errors import QueryTimeout, XQueryError
from repro.runtime.arithmetic import arithmetic
from repro.service.workers import ForkWorkerPool, WorkerCrashed
from repro.xdm import wire
from repro.xdm.items import AtomicValue, boolean, integer


class UncombinableShardResult(Exception):
    """Per-shard partials the merge cannot fold (unexpected shape or
    type) — the router falls back to single-worker execution."""


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
        # lazy: repro.server imports this module
        from repro.server.cache import cacheable
        from repro.server.tenants import error_reply, ms_since

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
                with self._lock:
                    self._counters["scattered"] += 1
                    self._counters["merged_errors"] += 1
                return error_reply(exc, started)
        if failures:
            with self._lock:
                self._counters["worker_crash_fallbacks"] += \
                    sum(1 for e in failures if isinstance(e, WorkerCrashed))
            return None

        merge_started = time.perf_counter()
        merged = self._merge(kind, doc_names, shard_docs, results, form)
        merge_ms = ms_since(merge_started)
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
            payload_or_error["elapsed_ms"] = ms_since(started)
            payload_or_error["shard"] = shard_info
            return payload_or_error
        with self._lock:
            self._counters["scattered"] += 1
        return {"status": 200, "payload": payload_or_error,
                "cached": False, "cacheable": cacheable(compiled),
                "elapsed_ms": ms_since(started), "shard": shard_info}

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

        def doc_error(entry: tuple):
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
                        return doc_error(entry)
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
                    return doc_error(entry)
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
        try:
            return wire.decode_atomic(items[0])
        except ValueError as exc:
            raise UncombinableShardResult(str(exc)) from None

    @staticmethod
    def _scan_payload(ordered: list[tuple], form: str) -> dict:
        stats: dict = {}
        for entry in ordered:
            _merge_stats(stats, entry[3] if len(entry) > 3 else {})
        # one sequence across document boundaries, so the adjacent-atomic
        # space rule applies there too, exactly like Result.serialize
        entries = (item for entry in ordered for item in entry[2])
        return {**wire.payload(entries, form), "stats": stats}

    @staticmethod
    def _aggregate_payload(total: AtomicValue, per_doc: dict,
                           form: str) -> dict:
        stats: dict = {}
        for entry in per_doc.values():
            if entry[1] == "ok":
                _merge_stats(stats, entry[3] if len(entry) > 3 else {})
        return {**wire.payload(wire.encode([total]), form), "stats": stats}

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

