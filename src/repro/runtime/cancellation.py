"""Cooperative cancellation and deadlines for query evaluation.

The runtime is a pull-based iterator tree: there is no scheduler to
preempt a runaway query, so cancellation is *cooperative* — the hot
iterator loops (path steps, FOR bindings, FLWOR tuple streams, join
scans, broker routing) call :meth:`CancellationToken.check` once per
item and the token raises when the caller cancelled or the deadline
passed.

The design constraint mirrors the profiler hooks: a query executed
without a token pays one ``is None`` branch per loop iteration and
nothing else.  With a token attached, ``check()`` is one attribute
load, one flag test, and (when a deadline is set) one monotonic clock
read — cheap enough to run per item.

Block-at-a-time loops (the join scan loops) go one step further:
they poll once per :data:`POLL_INTERVAL` items instead of once per
item, so a token *without* a deadline costs a no-op reference-and-mask
check on the hot path and the method call fires per block.  Deadline
semantics stay bounded: a blown deadline is observed within one block
of work.

Tokens are shared freely across threads: ``cancel()`` publishes a
plain attribute write (atomic under the GIL) that every loop observes
on its next check, which is what lets one token stop a
:class:`~repro.service.QueryService` query that fanned subplans out to
a pool.
"""

from __future__ import annotations

from time import monotonic
from typing import Optional

from repro.errors import QueryCancelled, QueryTimeout

#: how many loop iterations a scan runs between ``check()`` calls —
#: a power of two so the poll gate is ``(i & POLL_MASK) == 0``
POLL_INTERVAL = 256
POLL_MASK = POLL_INTERVAL - 1


class CancellationToken:
    """A shared flag + optional deadline that cooperative loops poll.

    - ``CancellationToken()`` — pure cancellation, no deadline;
    - ``CancellationToken.with_timeout(2.0)`` — expires 2s from now;
    - ``token.cancel("client disconnected")`` — cancel explicitly.

    ``check()`` raises :class:`repro.errors.QueryCancelled` /
    :class:`repro.errors.QueryTimeout`; ``cancelled`` and
    ``remaining()`` are the non-raising probes.
    """

    __slots__ = ("_cancelled", "_reason", "_deadline_at", "_timeout",
                 "_started_at")

    def __init__(self, timeout: Optional[float] = None):
        self._cancelled = False
        self._reason = ""
        self._timeout = timeout
        self._started_at = monotonic()
        self._deadline_at = self._started_at + timeout \
            if timeout is not None else None

    @classmethod
    def with_timeout(cls, seconds: float) -> "CancellationToken":
        """A token whose deadline is ``seconds`` from now."""
        return cls(timeout=seconds)

    # -- state -------------------------------------------------------------

    def cancel(self, reason: str = "") -> None:
        """Cancel cooperatively: every loop polling this token raises
        :class:`QueryCancelled` at its next ``check()``."""
        self._reason = reason
        self._cancelled = True

    @property
    def cancelled(self) -> bool:
        """True once cancelled (does not consider the deadline)."""
        return self._cancelled

    @property
    def reason(self) -> str:
        return self._reason

    @property
    def timeout(self) -> Optional[float]:
        """The configured timeout in seconds, or None."""
        return self._timeout

    def expired(self) -> bool:
        """True when the deadline (if any) has passed."""
        return self._deadline_at is not None and monotonic() >= self._deadline_at

    def remaining(self) -> Optional[float]:
        """Seconds until the deadline (never negative), or None."""
        if self._deadline_at is None:
            return None
        return max(0.0, self._deadline_at - monotonic())

    def elapsed(self) -> float:
        """Seconds since the token was created."""
        return monotonic() - self._started_at

    def tighten(self, timeout: float) -> None:
        """Apply an (additional) deadline ``timeout`` seconds from now,
        keeping whichever deadline is earlier."""
        candidate = monotonic() + timeout
        if self._deadline_at is None or candidate < self._deadline_at:
            self._deadline_at = candidate
            self._timeout = timeout

    # -- the hot-path probe ------------------------------------------------

    def check(self) -> None:
        """Raise if cancelled or past the deadline; otherwise a no-op."""
        if self._cancelled:
            raise QueryCancelled(reason=self._reason)
        deadline_at = self._deadline_at
        if deadline_at is not None and monotonic() >= deadline_at:
            self._cancelled = True
            self._reason = "deadline"
            raise QueryTimeout(deadline=self._timeout or 0.0,
                               elapsed=self.elapsed())

    def __repr__(self) -> str:
        state = "cancelled" if self._cancelled else "live"
        if self._deadline_at is not None:
            state += f", {self.remaining():.3f}s remaining"
        return f"CancellationToken({state})"
