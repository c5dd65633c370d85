"""The load generator: one closed-loop client on a raw keep-alive socket.

Requests are encoded to bytes before a timed phase starts and replies
are kept raw and parsed after it ends, so inside the timed loop a
client only writes a buffer, finds the end of the head, reads
``Content-Length`` bytes and takes two clock readings.  What is timed
is the server, not ``http.client`` or ``json``.  There is one client,
on the calling thread: the machine has two cores, the server three
processes, and a second generator thread only measured the scheduler.

The client works through whole *cycles* (lists of operations with a
fixed template mix, see ``workloads``) until the round's deadline has
passed, so every round of a workload sees the same mix of operations.
"""

from __future__ import annotations

import json
import socket
import time
from collections import deque
from typing import NamedTuple, Optional

HOST = "127.0.0.1"


def encode_request(method: str, path: str, body: bytes = b"",
                   content_type: str = "application/json") -> bytes:
    head = (f"{method} {path} HTTP/1.1\r\nHost: {HOST}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n\r\n")
    return head.encode("latin-1") + body


def json_request(method: str, path: str, payload: dict) -> bytes:
    return encode_request(method, path, json.dumps(payload).encode("utf-8"))


class Reply(NamedTuple):
    status: int
    headers: dict
    body: bytes

    def json(self):
        return json.loads(self.body)


def parse_reply(raw: bytes) -> Reply:
    head, _, body = raw.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return Reply(int(lines[0].split(" ", 2)[1]), headers, body)


class Sample(NamedTuple):
    op: object               # workloads.Op
    start: float             # perf_counter at send
    latency: float           # seconds until the whole reply was read
    raw: Optional[bytes]     # None: refused, reset or timed out


class Client:
    """One keep-alive connection; reconnects after a failure."""

    def __init__(self, port: int, timeout: float = 30.0):
        self.port = port
        self.timeout = timeout
        self._sock: Optional[socket.socket] = None
        self._buf = bytearray()

    def _connected(self) -> socket.socket:
        if self._sock is None:
            sock = socket.create_connection((HOST, self.port),
                                            timeout=self.timeout)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._sock = sock
            self._buf.clear()
        return self._sock

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            finally:
                self._sock = None

    def exchange(self, request: bytes) -> bytes:
        """Send one request, return the raw reply (head and body)."""
        sock = self._connected()
        sock.sendall(request)
        buf = self._buf
        while True:
            end = buf.find(b"\r\n\r\n")
            if end >= 0:
                break
            chunk = sock.recv(65536)
            if not chunk:
                raise ConnectionError("server closed the connection")
            buf += chunk
        at = buf.find(b"Content-Length:", 0, end)
        length = int(buf[at + 15:buf.find(b"\r", at)]) if at >= 0 else 0
        need = end + 4 + length
        while len(buf) < need:
            chunk = sock.recv(max(65536, need - len(buf)))
            if not chunk:
                raise ConnectionError("server closed the connection")
            buf += chunk
        raw = bytes(buf[:need])
        del buf[:need]
        return raw

    def request(self, request: bytes) -> Reply:
        """Untimed convenience for set-up and checks."""
        return parse_reply(self.exchange(request))

    def run(self, cycles: deque, deadline: float) -> list[Sample]:
        """Work through whole cycles until ``deadline`` (perf_counter)
        has passed or ``cycles`` is used up."""
        clock = time.perf_counter
        out: list[Sample] = []
        while cycles and clock() < deadline:
            for op in cycles.popleft():
                t0 = clock()
                try:
                    raw = self.exchange(op.request)
                except (OSError, ValueError):
                    raw = None
                    self.close()
                out.append(Sample(op, t0, clock() - t0, raw))
        return out
