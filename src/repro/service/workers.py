"""A persistent pre-forked worker pool: multi-core serving that
survives across requests — the repo's one fork transport.

``workers`` children are forked **once**, each runs a framed
request/reply loop over a pipe pair, and each keeps its own warm state
(per-tenant engines, compile caches, pinned index trees) across
requests — so the fork cost and the compile cost are paid once per
process, not once per request.

The pool is deliberately generic: it transports pickled command tuples
to a ``handler`` callable that runs *in the child*.  State lives in the
handler's closure — forked children copy it copy-on-write, and a
respawned child rebuilds it by replaying the pool's replay log (the
commands recorded by ``broadcast(..., replay=True)``, e.g. document
ingests), so a crashed worker comes back with the same tenant state
its siblings have.

Failure semantics:

- a child that dies mid-request surfaces :class:`WorkerCrashed` to the
  caller (the server re-runs that request inline) and is respawned;
- a child that overruns ``hard_timeout`` (the cooperative deadline is
  the first line of defense — this is the backstop for a worker stuck
  in non-cooperative code) is SIGKILLed, respawned, and the caller
  gets :class:`~repro.errors.QueryTimeout`;
- admission control mirrors :class:`~repro.service.QueryService`: at
  most ``workers`` requests run while ``max_queue`` wait, one more
  raises :class:`~repro.errors.ServiceOverloaded`.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import select
import signal
import struct
import threading
from typing import Any, Callable, Optional

from repro.errors import QueryTimeout, ServiceError, ServiceOverloaded

_FORK_AVAILABLE = hasattr(os, "fork")

#: frame header: little-endian u64 payload length
_HEADER = struct.Struct("<Q")


class WorkerCrashed(ServiceError):
    """A pool worker died before replying (it has been respawned)."""

    code = "SVC0004"


def _write_frame(fd: int, obj: Any) -> None:
    payload = pickle.dumps(obj)
    data = _HEADER.pack(len(payload)) + payload
    offset = 0
    while offset < len(data):
        offset += os.write(fd, data[offset:offset + (1 << 20)])


def _read_exact(fd: int, n: int) -> Optional[bytes]:
    parts: list[bytes] = []
    remaining = n
    while remaining:
        chunk = os.read(fd, min(remaining, 1 << 20))
        if not chunk:
            return None  # EOF: peer died
        parts.append(chunk)
        remaining -= len(chunk)
    return b"".join(parts)


def _read_frame(fd: int) -> Optional[Any]:
    header = _read_exact(fd, _HEADER.size)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    payload = _read_exact(fd, length)
    if payload is None:
        return None
    return pickle.loads(payload)


class _Worker:
    """Parent-side handle: pid plus the two pipe ends the parent keeps.

    ``replayed`` counts how many replay-log commands this child has
    already applied — commands it replayed at spawn count immediately,
    and every replay broadcast delivered to it advances the counter.
    This is what makes the SIGKILL-respawn-during-broadcast sequence
    exactly-once: a child respawned *after* a command entered the log
    replays it at spawn, and the blocked broadcast then sees
    ``replayed`` past its log index and skips the duplicate delivery.
    """

    __slots__ = ("wid", "pid", "send_fd", "recv_fd", "replayed")

    def __init__(self, wid: int, pid: int, send_fd: int, recv_fd: int,
                 replayed: int = 0):
        self.wid = wid
        self.pid = pid
        self.send_fd = send_fd
        self.recv_fd = recv_fd
        self.replayed = replayed


class ForkWorkerPool:
    """``workers`` persistent forked children running ``handler``.

    - ``handler(command) -> reply`` runs in the child; both sides must
      pickle.  Exceptions escaping the handler come back to the caller
      as :class:`WorkerCrashed` — handlers should catch domain errors
      and encode them in the reply;
    - ``call(command)`` dispatches to a free worker, blocking while all
      are busy; admission is bounded by ``max_queue``.
      ``call(command, worker=wid)`` targets a *specific* worker — the
      scatter-gather router pins each shard to its owning child so
      shard-local warm state (materialized segments, per-document
      compile products) stays hot across requests;
    - ``broadcast(command, replay=True)`` sends to *every* worker (state
      mutation: ingests, registrations) and records the command so
      respawned workers replay it.  Broadcasts are serialized against
      each other and delivered worker-by-worker, tracking each child's
      replay-log position so a worker respawned mid-broadcast (the
      hard-timeout SIGKILL backstop) applies every logged command
      exactly once.
    """

    def __init__(self, handler: Callable[[Any], Any],
                 workers: Optional[int] = None, max_queue: int = 8):
        self.handler = handler
        self.workers = max(1, workers if workers is not None
                           else (os.cpu_count() or 2))
        self.max_queue = max_queue
        self._workers: dict[int, _Worker] = {}
        self._lock = threading.Lock()
        # worker ids not currently executing a command; guarded by
        # `_avail` (which wraps `_lock`, so counters stay coherent)
        self._free: set[int] = set()
        self._avail = threading.Condition(self._lock)
        # broadcasts serialize against each other so every child sees
        # replay-logged commands in log order
        self._bcast_lock = threading.Lock()
        self._replay_log: list[Any] = []
        self._in_flight = 0
        self._started = False
        self._closed = False
        self._counters = {"requests": 0, "broadcasts": 0, "rejected": 0,
                          "crashes": 0, "respawns": 0, "hard_kills": 0,
                          "replay_skips": 0}

    @property
    def available(self) -> bool:
        return _FORK_AVAILABLE

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "ForkWorkerPool":
        if not _FORK_AVAILABLE:
            raise RuntimeError("ForkWorkerPool requires os.fork()")
        if self._started:
            return self
        self._started = True
        for wid in range(self.workers):
            self._spawn(wid)
            with self._avail:
                self._free.add(wid)
                self._avail.notify_all()
        return self

    def _spawn(self, wid: int) -> None:
        send_r, send_w = os.pipe()   # parent → child commands
        recv_r, recv_w = os.pipe()   # child → parent replies
        # snapshot before forking: the child must close every pipe end
        # belonging to its siblings, or a dead sibling's pipes never
        # read EOF in the parent (the classic prefork fd leak)
        sibling_fds = [fd for worker in self._workers.values()
                       for fd in (worker.send_fd, worker.recv_fd)]
        replay = list(self._replay_log)
        pid = os.fork()
        if pid == 0:  # child
            try:
                os.close(send_w)
                os.close(recv_r)
                for fd in sibling_fds:
                    try:
                        os.close(fd)
                    except OSError:
                        pass
                signal.signal(signal.SIGINT, signal.SIG_IGN)
                self._child_loop(send_r, recv_w, replay)
            finally:
                os._exit(0)
        os.close(send_r)
        os.close(recv_w)
        # note: the caller owns marking `wid` free — a worker id stands
        # for a *slot*, in the free set exactly when no request holds
        # it.  The fresh child applied the full snapshot at startup, so
        # its replay position is the snapshot length.
        self._workers[wid] = _Worker(wid, pid, send_w, recv_r,
                                     replayed=len(replay))

    def _child_loop(self, recv_fd: int, send_fd: int, replay: list) -> None:
        handler = self.handler
        for command in replay:
            try:
                handler(command)
            except Exception:
                pass  # replayed state mutations best-effort: the
                # original broadcast already reported the error
        while True:
            command = _read_frame(recv_fd)
            if command is None or command == ("__shutdown__",):
                return
            try:
                reply = handler(command)
            except BaseException as exc:  # noqa: BLE001 - crosses a pipe
                reply = ("__handler_error__", f"{type(exc).__name__}: {exc}")
            _write_frame(send_fd, reply)

    # -- dispatch ----------------------------------------------------------

    def _acquire(self, worker: Optional[int] = None) -> int:
        """Take a worker slot: any free one, or a specific ``worker``."""
        with self._avail:
            if worker is None:
                while not self._free:
                    self._avail.wait()
                wid = min(self._free)
            else:
                wid = worker
                if wid not in self._workers:
                    raise ValueError(f"no such worker: {wid}")
                while wid not in self._free:
                    self._avail.wait()
            self._free.discard(wid)
            return wid

    def _release(self, wid: int) -> None:
        with self._avail:
            self._free.add(wid)
            self._avail.notify_all()

    @contextlib.contextmanager
    def admission(self):
        """Reserve one admission slot for a multi-call operation.

        The scatter-gather router fans one logical request out into one
        targeted :meth:`call` per shard; wrapping the scatter in
        ``admission()`` and passing ``admitted=True`` to the calls
        charges the request a single slot — the same admission cost as
        the single-worker execution it replaces.
        """
        if self._closed:
            raise RuntimeError("ForkWorkerPool is shut down")
        with self._lock:
            if self._in_flight >= self.workers + self.max_queue:
                self._counters["rejected"] += 1
                raise ServiceOverloaded(
                    queue_depth=self._in_flight - self.workers,
                    max_queue=self.max_queue, max_workers=self.workers)
            self._in_flight += 1
            self._counters["requests"] += 1
        try:
            yield
        finally:
            with self._lock:
                self._in_flight -= 1

    def call(self, command: Any, hard_timeout: Optional[float] = None,
             worker: Optional[int] = None, admitted: bool = False) -> Any:
        """Send ``command`` to a worker and return its reply.

        ``hard_timeout`` (seconds) is the non-cooperative backstop: a
        worker that hasn't replied by then is killed and respawned, and
        the call raises :class:`~repro.errors.QueryTimeout`.

        ``worker`` targets a specific worker id (blocking until that
        worker is free); the default picks any free worker.
        ``admitted=True`` skips admission accounting — only for calls
        already covered by an enclosing :meth:`admission` slot.
        """
        if self._closed:
            raise RuntimeError("ForkWorkerPool is shut down")
        slot = contextlib.nullcontext() if admitted else self.admission()
        with slot:
            wid = self._acquire(worker)
            try:
                handle = self._workers[wid]
                try:
                    _write_frame(handle.send_fd, command)
                    if hard_timeout is not None:
                        ready, _, _ = select.select([handle.recv_fd], [], [],
                                                    hard_timeout)
                        if not ready:
                            self._kill(handle)
                            self._respawn(wid)
                            with self._lock:
                                self._counters["hard_kills"] += 1
                            raise QueryTimeout(deadline=hard_timeout,
                                               elapsed=hard_timeout)
                    reply = _read_frame(handle.recv_fd)
                except OSError:
                    reply = None
                if reply is None:
                    with self._lock:
                        self._counters["crashes"] += 1
                    self._respawn(wid)
                    raise WorkerCrashed(f"worker {wid} died mid-request")
                if isinstance(reply, tuple) and reply \
                        and reply[0] == "__handler_error__":
                    raise WorkerCrashed(f"worker {wid} handler failed: "
                                        f"{reply[1]}")
                return reply
            finally:
                # the slot goes back in every path — after a respawn,
                # `wid` names the fresh replacement worker
                self._release(wid)

    def broadcast(self, command: Any, replay: bool = False) -> list:
        """Send ``command`` to every worker; returns their replies.

        ``replay=True`` records the command for respawned workers —
        use it for every state mutation that must survive a crash.
        Delivery is per-worker: the broadcast takes one worker at a
        time, so it never blocks behind *all* in-flight requests at
        once, and a worker respawned mid-broadcast (hard-timeout kill
        in a concurrent :meth:`call`) is detected by its replay-log
        position — the fresh child already applied the logged command
        at startup, so delivering it again would double-apply the
        mutation.  ``_bcast_lock`` keeps concurrent broadcasts in log
        order on every child.
        """
        if self._closed:
            raise RuntimeError("ForkWorkerPool is shut down")
        with self._bcast_lock:
            with self._lock:
                self._counters["broadcasts"] += 1
            idx = None
            if replay:
                idx = len(self._replay_log)
                self._replay_log.append(command)
            replies = []
            for wid in sorted(self._workers):
                self._acquire(wid)
                try:
                    worker = self._workers[wid]
                    if idx is not None and worker.replayed > idx:
                        with self._lock:
                            self._counters["replay_skips"] += 1
                        replies.append(("__replayed__",))
                        continue
                    try:
                        _write_frame(worker.send_fd, command)
                        reply = _read_frame(worker.recv_fd)
                    except OSError:
                        reply = None
                    if reply is None:
                        with self._lock:
                            self._counters["crashes"] += 1
                        self._respawn(wid)  # replays the log, incl. this
                        reply = ("__respawned__",)
                    elif idx is not None:
                        worker.replayed = idx + 1
                    replies.append(reply)
                finally:
                    self._release(wid)
        return replies

    # -- worker failure ----------------------------------------------------

    def _kill(self, worker: _Worker) -> None:
        try:
            os.kill(worker.pid, signal.SIGKILL)
        except OSError:
            pass

    def _respawn(self, wid: int) -> None:
        worker = self._workers.pop(wid, None)
        if worker is not None:
            for fd in (worker.send_fd, worker.recv_fd):
                try:
                    os.close(fd)
                except OSError:
                    pass
            try:
                os.waitpid(worker.pid, 0)
            except ChildProcessError:
                pass
        with self._lock:
            self._counters["respawns"] += 1
        self._spawn(wid)

    # -- introspection / shutdown -----------------------------------------

    def stats(self) -> dict[str, int]:
        with self._lock:
            out = dict(self._counters)
            out["workers"] = len(self._workers)
            out["in_flight"] = self._in_flight
            out["queue_depth"] = max(0, self._in_flight - self.workers)
            out["replay_log"] = len(self._replay_log)
        return out

    def shutdown(self) -> None:
        if self._closed or not self._started:
            self._closed = True
            return
        self._closed = True
        for worker in self._workers.values():
            try:
                _write_frame(worker.send_fd, ("__shutdown__",))
            except OSError:
                pass
        for worker in self._workers.values():
            for fd in (worker.send_fd, worker.recv_fd):
                try:
                    os.close(fd)
                except OSError:
                    pass
            try:
                os.waitpid(worker.pid, 0)
            except ChildProcessError:
                pass
        self._workers.clear()

    def __enter__(self) -> "ForkWorkerPool":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.shutdown()
