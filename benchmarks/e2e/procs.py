"""The server under test as a subprocess tree, observed through /proc.

The server is started exactly as a user would start it -- ``python -m
repro serve --port 0 --processes 2 --data-dir DIR`` and nothing else --
so a later change to a shipped default (``codegen``, ``batch_size``,
cache sizes) is measured, not masked by a flag the harness passes.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

SRC_DIR = Path(__file__).resolve().parents[2] / "src"
_TICK = os.sysconf("SC_CLK_TCK")
_PORT_LINE = re.compile(r"repro server on http://[^:]+:(\d+)")


def _stat_fields(pid: int) -> list[str] | None:
    """Fields of /proc/<pid>/stat after the command name (field 3 on)."""
    try:
        text = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    return text[text.rindex(")") + 2:].split()


def process_ended(pid: int) -> bool:
    """True once ``pid`` no longer runs (gone, or a zombie awaiting
    its reaper)."""
    fields = _stat_fields(pid)
    return fields is None or fields[0] in ("Z", "X")


def children_of(pid: int) -> list[int]:
    out = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _stat_fields(int(entry))
            if fields is not None and int(fields[1]) == pid \
                    and fields[0] not in ("Z", "X"):
                out.append(int(entry))
    return sorted(out)


class ServerProcess:
    """One ``repro serve`` process and its pre-forked children."""

    def __init__(self, data_dir: Path, log_path: Path):
        self.data_dir = Path(data_dir)
        self.log_path = Path(log_path)
        self.proc: subprocess.Popen | None = None
        self.port: int | None = None
        self._known_children: set[int] = set()

    def start(self, timeout: float = 30.0) -> "ServerProcess":
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC_DIR) + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self.data_dir.mkdir(parents=True, exist_ok=True)
        with open(self.log_path, "wb") as log:
            # its own session: one killpg reaches the pre-forked children
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--port", "0",
                 "--processes", "2", "--data-dir", str(self.data_dir)],
                stdin=subprocess.DEVNULL, stdout=log, stderr=log, env=env,
                start_new_session=True)
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            match = _PORT_LINE.search(
                self.log_path.read_text(errors="replace"))
            if match:
                self.port = int(match.group(1))
                self._known_children.update(children_of(self.proc.pid))
                return self
            if self.proc.poll() is not None:
                break
            time.sleep(0.005)
        log_text = self.log_path.read_text(errors="replace")
        self.kill()
        raise RuntimeError(f"server did not start: {log_text[-2000:]}")

    # -- observation --------------------------------------------------------

    def tree(self) -> list[int]:
        """The parent and its live children (respawned ones included)."""
        kids = children_of(self.proc.pid)
        self._known_children.update(kids)
        return [self.proc.pid] + kids

    def cpu_seconds(self) -> float:
        """User + system CPU of the tree so far.  The parent's
        ``cutime``/``cstime`` carry children it has already reaped."""
        ticks = 0
        for pid in self.tree():
            fields = _stat_fields(pid)
            if fields is None:
                continue
            ticks += int(fields[11]) + int(fields[12])
            if pid == self.proc.pid:
                ticks += int(fields[13]) + int(fields[14])
        return ticks / _TICK

    def peak_rss_mb(self) -> float:
        """Sum of ``VmHWM`` over the tree.  Pages a child still shares
        copy-on-write with its parent count once per process."""
        total_kb = 0
        for pid in self.tree():
            try:
                status = Path(f"/proc/{pid}/status").read_text()
            except OSError:
                continue
            match = re.search(r"VmHWM:\s+(\d+) kB", status)
            if match:
                total_kb += int(match.group(1))
        return total_kb / 1024

    # -- ending -------------------------------------------------------------

    def kill(self, timeout: float = 10.0) -> None:
        """SIGKILL the whole tree and wait until every process ended."""
        if self.proc is None:
            return
        pids = set(self._known_children)
        if self.proc.poll() is None:
            pids.update(children_of(self.proc.pid))
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        try:
            self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            pass
        deadline = time.monotonic() + timeout
        while any(not process_ended(pid) for pid in pids) \
                and time.monotonic() < deadline:
            time.sleep(0.005)

    def stop(self) -> None:
        """Ask for a clean shutdown (the path a user's Ctrl-C takes),
        then make sure nothing is left."""
        if self.proc is not None and self.proc.poll() is None:
            self.tree()
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=5.0)
            except subprocess.TimeoutExpired:
                pass
        self.kill()

    def __enter__(self) -> "ServerProcess":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


def dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in Path(path).rglob("*") if f.is_file())
