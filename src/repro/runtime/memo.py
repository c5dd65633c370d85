"""Memoization — the tutorial's caching triad.

"Memoization: cache results of expressions — common subexpressions
(intra-query), multi-query optimization (inter-query), semantic
caching (inter-process)."

Intra-query sharing is handled by the optimizer's CSE rule plus the
buffer-iterator factory.  This module supplies the *inter-query* level:

- :class:`LRUCache` — a small bounded map (compile cache backing);
- :class:`ResultCache` — memoizes materialized query results keyed by
  (compiled query, input identity), with explicit invalidation.

"Lazy memoization: cache partial results" happens naturally: a cached
:class:`~repro.runtime.iterators.BufferedSequence` holds exactly the
prefix any consumer has pulled so far, and later consumers extend it.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable, Hashable, Optional

from repro.runtime.iterators import BufferedSequence


class LRUCache:
    """A dead-simple bounded LRU map."""

    def __init__(self, capacity: int = 64):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._data: OrderedDict[Hashable, Any] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get(self, key: Hashable) -> Any:
        """The cached value (refreshing recency), or None; counts a hit
        or a miss."""
        value = self.find(key)
        if value is None:
            self.misses += 1
        else:
            self.hits += 1
        return value

    def find(self, key: Hashable) -> Any:
        """:meth:`get` without counting: for a caller that probes more
        than one key per lookup and counts the lookup itself."""
        value = self._data.get(key)
        if value is not None:
            self._data.move_to_end(key)
        return value

    def put(self, key: Hashable, value: Any) -> None:
        """Insert/refresh an entry, evicting the least recent overflow."""
        self._data[key] = value
        self._data.move_to_end(key)
        while len(self._data) > self.capacity:
            self._data.popitem(last=False)

    def __len__(self) -> int:
        return len(self._data)

    def clear(self) -> None:
        """Drop every entry (hit/miss counters are kept)."""
        self._data.clear()


class ResultCache:
    """Inter-query result memoization.

    Keyed by (compiled-query identity, input identity): running the
    same compiled query over the same document object returns the
    *same* :class:`BufferedSequence` — already-pulled items replay from
    cache, unpulled ones continue lazily (the slide's "cache data and
    state of query processing").

    Node-constructing queries are cached too; callers who need fresh
    identities per run should bypass the cache (the optimizer's
    ``creates_nodes`` annotation says which queries those are —
    :meth:`cacheable` checks it).
    """

    def __init__(self, capacity: int = 32):
        self._cache = LRUCache(capacity)

    @staticmethod
    def cacheable(compiled) -> bool:
        """Safe to memoize: re-running would return equal values with
        the same identities — i.e. the query creates no new nodes and
        every referenced function is deterministic."""
        annotations = getattr(compiled.optimized, "annotations", {})
        return not annotations.get("creates_nodes", True)

    def execute(self, compiled, context_item: Any = None,
                key_extra: Hashable = None, **kwargs) -> BufferedSequence:
        key = (id(compiled), id(context_item), key_extra)
        cached = self._cache.get(key)
        if cached is not None:
            return cached[2]
        result = compiled.execute(context_item=context_item, **kwargs)
        sequence = BufferedSequence(iter(result))
        # the entry holds the objects it is keyed on: while it lives,
        # no other object can take one of their ids
        self._cache.put(key, (compiled, context_item, sequence))
        return sequence

    def invalidate(self) -> None:
        """Forget all memoized results (call after data changes)."""
        self._cache.clear()

    @property
    def stats(self) -> dict[str, int]:
        return {"hits": self._cache.hits, "misses": self._cache.misses,
                "entries": len(self._cache)}
