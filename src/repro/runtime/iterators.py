"""Lazy-sequence plumbing: the TokenIterator ideas at item granularity.

- :class:`BufferedSequence` — the paper's *buffer iterator factory*:
  one producer, many consumers, items cached as first pulled.  Every
  LET variable and every memoized common subexpression binds to one of
  these, so laziness survives variable reuse.
- :class:`PullIterator` — the classic ``open/next/skip/close``
  interface over any item iterable, for code that wants the explicit
  protocol (and for tests demonstrating ``skip``).
- :func:`materialize` — the escape hatch: a plain list.

"Materialization + streaming possible; streaming + lazy evaluation
possible."  The design invariant: nothing in this module ever eagerly
drains a source unless a consumer actually asks for everything.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Optional


class _Failed:
    """The producer of a sequence that raised: every later pull raises
    the same error again."""

    __slots__ = ("error",)

    def __init__(self, error: Exception):
        self.error = error

    def __next__(self):
        raise self.error


class BufferedSequence:
    """A lazily-materialized, re-iterable view over a one-shot iterator.

    The first consumer pulls from the underlying producer and appends
    to a shared cache; later consumers (or re-iterations) replay the
    cache and continue pulling where it ends.  Memory cost is
    proportional to the *furthest* consumption point, not to the number
    of consumers.  A producer that raised raises the same error to
    every consumer that reaches that point — a replay must not end
    where the first pass failed (a hash lane whose build met the error
    hands the decision back to a scan of the same binding).
    """

    __slots__ = ("_source", "_cache", "_done", "_cancellation")

    def __init__(self, source: Iterable[Any], cancellation=None):
        self._source: Optional[Iterator[Any]] = iter(source)
        self._cache: list[Any] = []
        self._done = False
        #: optional CancellationToken polled on every fresh pull — the
        #: buffer sits under every LET binding, so a deadline fires even
        #: while a consumer drains one long-running binding
        self._cancellation = cancellation

    def __iter__(self) -> Iterator[Any]:
        index = 0
        token = self._cancellation
        while True:
            if index < len(self._cache):
                yield self._cache[index]
                index += 1
            elif self._done:
                return
            else:
                assert self._source is not None
                if token is not None:
                    token.check()
                try:
                    item = next(self._source)
                except StopIteration:
                    self._done = True
                    self._source = None
                    return
                except Exception as exc:
                    self._source = _Failed(exc)
                    raise
                self._cache.append(item)
                # another consumer may have advanced the cache meanwhile;
                # loop re-checks the cache before yielding
                continue

    def _advance(self) -> None:
        """Pull one more item into the cache (or find the end)."""
        assert self._source is not None
        if self._cancellation is not None:
            self._cancellation.check()
        try:
            self._cache.append(next(self._source))
        except StopIteration:
            self._done = True
            self._source = None
        except Exception as exc:
            self._source = _Failed(exc)
            raise

    def get(self, index: int) -> Any:
        """Item at ``index`` (0-based), pulling only as far as needed.

        Raises IndexError past the end.
        """
        while len(self._cache) <= index and not self._done:
            self._advance()
        return self._cache[index]

    def has_at_least(self, n: int) -> bool:
        """True when at least ``n`` items exist (pulls at most ``n``)."""
        try:
            self.get(n - 1)
            return True
        except IndexError:
            return False

    def length(self) -> int:
        """Total length (materializes the remainder)."""
        while not self._done:
            self._advance()
        return len(self._cache)

    def materialized_count(self) -> int:
        """How many items have been pulled so far (instrumentation)."""
        return len(self._cache)

    def is_fully_materialized(self) -> bool:
        """True once the underlying producer has been drained."""
        return self._done


class PullIterator:
    """The explicit ``open/next/skip/close`` protocol over items.

    ``next()`` returns the next item or None at end; ``skip()`` drops
    the next item without producing it (at token granularity this jumps
    whole subtrees; at item granularity an item *is* a subtree).
    """

    __slots__ = ("_source", "_iter", "_open")

    def __init__(self, source: Iterable[Any]):
        self._source = source
        self._iter: Optional[Iterator[Any]] = None
        self._open = False

    def open(self) -> None:
        """Prepare execution (the iterator-model contract)."""
        if self._open:
            raise RuntimeError("iterator already open")
        self._iter = iter(self._source)
        self._open = True

    def next(self) -> Any:
        """The next item, or None at end of stream."""
        if not self._open:
            raise RuntimeError("iterator not open")
        assert self._iter is not None
        try:
            return next(self._iter)
        except StopIteration:
            return None

    def skip(self, count: int = 1) -> int:
        """Skip up to ``count`` items; returns how many were skipped."""
        if not self._open:
            raise RuntimeError("iterator not open")
        assert self._iter is not None
        skipped = 0
        for _ in range(count):
            try:
                next(self._iter)
                skipped += 1
            except StopIteration:
                break
        return skipped

    def close(self) -> None:
        """Release resources; the iterator may be reopened."""
        closer = getattr(self._iter, "close", None)
        if closer is not None:
            closer()
        self._iter = None
        self._open = False


def materialize(sequence: Iterable[Any]) -> list[Any]:
    """Drain a sequence into a list (``BufferedSequence`` drains its cache)."""
    if isinstance(sequence, list):
        return sequence
    return list(sequence)


def singleton_or_none(sequence: Iterable[Any]) -> Any:
    """First item of a 0/1-item sequence, or None; does not check for extras."""
    for item in sequence:
        return item
    return None
