"""The server result cache: memoized responses, invalidated on ingest.

:class:`repro.runtime.memo.ResultCache` memoizes by *object identity*
(same compiled query, same document node) — right for an embedding
process, useless across HTTP requests where every input arrives as
data.  :class:`ServerResultCache` is the inter-process level the memo
module's docstring calls "semantic caching": the key is built from
values —

    (tenant, query text, options fingerprint, catalog fingerprint,
     canonical variables JSON, response form)

so two requests for the same registered query with the same bindings
against the same ingest generation hit, and a re-ingest misses
naturally (the catalog fingerprint moved).  On top of the natural miss,
:meth:`invalidate_tenant` actively drops a tenant's entries when it
re-ingests, so stale responses don't squat in the LRU window.

Only *cacheable* queries are stored: a query that constructs nodes
(fresh identities per run) or calls a non-deterministic function must
re-execute every time.  :func:`cacheable` decides that once per
compiled query.
"""

from __future__ import annotations

import json
import threading
from typing import Any, Optional

from repro.qname import XDT_NS, XS_NS
from repro.runtime import functions as fnlib
from repro.runtime.memo import LRUCache
from repro.xquery import ast


#: AST nodes that construct fresh nodes — checked structurally, not
#: via the ``creates_nodes`` annotation: access-path planning rebuilds
#: parts of the tree without re-running analysis, so annotations may be
#: absent on ancestors of a replaced subtree
_CONSTRUCTORS = (ast.ElementCtor, ast.AttributeCtor, ast.TextCtor,
                 ast.CommentCtor, ast.PICtor, ast.DocumentCtor)


def cacheable(compiled) -> bool:
    """May responses for this compiled query be reused verbatim?

    False when the optimized tree constructs nodes or calls a function
    the library doesn't prove deterministic (unknown functions are
    conservatively non-deterministic).
    """
    for node in compiled.optimized.walk():
        if isinstance(node, _CONSTRUCTORS) \
                or node.annotations.get("creates_nodes", False):
            return False
        if isinstance(node, ast.FunctionCall):
            if node.name.uri in (XS_NS, XDT_NS):
                continue  # constructor functions are casts: deterministic
            builtin = fnlib.lookup(node.name, len(node.args))
            if builtin is None or not builtin.deterministic:
                return False
    return True


def canonical_variables(variables: Optional[dict]) -> str:
    """A deterministic text form of the request's variable bindings.

    Sorted keys, no whitespace — two JSON bodies that bind the same
    values key the same cache entry regardless of field order.
    """
    if not variables:
        return ""
    return json.dumps(variables, sort_keys=True, separators=(",", ":"),
                      default=str)


class ServerResultCache:
    """A bounded LRU of serialized responses, partitioned by tenant.

    ``epoch_source`` (optional) makes the per-tenant invalidation
    epochs *durable*: epochs load from it on first use and bumps write
    through it.  The server wires a source backed by each tenant's
    catalog manifest when ``data_dir`` is set, so a restarted process
    resumes at the persisted epoch instead of 0 — without this, a
    restart could resurrect responses cached against content a previous
    process had already replaced.
    """

    #: bound on the canonical-bindings memo (entries, not bytes)
    _CANON_CAPACITY = 256

    def __init__(self, capacity: int = 128, epoch_source=None):
        self._cache = LRUCache(capacity) if capacity else None
        self._lock = threading.Lock()
        #: per-tenant epoch: bumping it orphans every key the tenant
        #: had, which the LRU then ages out — O(1) invalidation without
        #: scanning the cache
        self._epochs: dict[str, int] = {}
        #: None, or an object with ``load(tenant) -> int`` and
        #: ``bump(tenant) -> int`` (persisting the bump)
        self._epoch_source = epoch_source
        #: hashable-bindings → canonical JSON: key() runs on the hot
        #: path of every request, and the registered-query pattern
        #: re-sends the same few binding sets thousands of times —
        #: re-encoding them each time is pure allocation churn
        self._canon: dict[tuple, str] = {}
        self._encodes = 0

    @property
    def enabled(self) -> bool:
        return self._cache is not None

    @property
    def hits(self) -> int:
        return self._cache.hits if self._cache is not None else 0

    @property
    def misses(self) -> int:
        return self._cache.misses if self._cache is not None else 0

    def _epoch(self, tenant: str) -> int:
        epoch = self._epochs.get(tenant)
        if epoch is None:
            epoch = (self._epoch_source.load(tenant)
                     if self._epoch_source is not None else 0)
            self._epochs[tenant] = epoch
        return epoch

    def key(self, tenant: str, query_text: str, options_fp: tuple,
            catalog_fp: tuple, variables: Optional[dict],
            form: str) -> Optional[tuple]:
        if self._cache is None:
            return None
        try:
            canon = self._canonical(variables)
        except (TypeError, ValueError):
            return None  # unserializable bindings: just don't cache
        with self._lock:
            epoch = self._epoch(tenant)
        return (tenant, epoch, query_text, options_fp, catalog_fp,
                canon, form)

    def _canonical(self, variables: Optional[dict]) -> str:
        """Memoized :func:`canonical_variables`.

        Scalar bindings (the overwhelmingly common case) are hashable
        as ``tuple(sorted(items))`` and hit the memo; bindings holding
        lists or objects raise TypeError on hashing and fall through to
        a fresh encode.  Unserializable values still escape as
        TypeError/ValueError for the caller's don't-cache path.
        """
        if not variables:
            return ""
        try:
            memo_key = tuple(sorted(variables.items()))
            hash(memo_key)  # list/dict values poison the tuple's hash
        except TypeError:
            memo_key = None
        if memo_key is not None:
            with self._lock:
                cached = self._canon.get(memo_key)
            if cached is not None:
                return cached
        canon = canonical_variables(variables)
        with self._lock:
            self._encodes += 1
            if memo_key is not None:
                if len(self._canon) >= self._CANON_CAPACITY:
                    self._canon.clear()
                self._canon[memo_key] = canon
        return canon

    def get(self, key: Optional[tuple]) -> Any:
        if self._cache is None or key is None:
            return None
        with self._lock:
            return self._cache.get(key)

    def put(self, key: Optional[tuple], value: Any) -> None:
        if self._cache is None or key is None:
            return
        with self._lock:
            self._cache.put(key, value)

    def invalidate_tenant(self, tenant: str, persist: bool = True) -> None:
        """Drop every cached response for ``tenant`` (epoch bump).

        With an epoch source, the bump writes through it so the new
        epoch survives a restart.  ``persist=False`` bumps only this
        process's view — read-only attachers (pre-forked children
        picking up a parent commit) use it, since the parent already
        persisted the bump.
        """
        with self._lock:
            if self._epoch_source is not None and persist:
                self._epochs[tenant] = self._epoch_source.bump(tenant)
            else:
                self._epochs[tenant] = self._epoch(tenant) + 1

    def stats(self) -> dict[str, int]:
        if self._cache is None:
            return {"enabled": 0, "hits": 0, "misses": 0, "entries": 0,
                    "encodes": 0}
        with self._lock:
            return {"enabled": 1, "hits": self._cache.hits,
                    "misses": self._cache.misses,
                    "entries": len(self._cache),
                    "encodes": self._encodes}
