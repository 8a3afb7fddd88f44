"""A ``repro serve`` process under the benchmark's control.

The server runs with the ``repro serve`` defaults; the benchmark passes
only ``--port``, ``--workers`` and ``--artifacts``, so options that later
changes delete never appear here.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Longest a server may take from spawn to a healthy ``/healthz``.
START_TIMEOUT_S = 120.0


def free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _children(pid: int) -> list[int]:
    """Direct children of ``pid`` (shard workers of a sharded server)."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue
        if int(stat.rsplit(")", 1)[1].split()[1]) == pid:
            found.append(int(entry))
    return found


def _peak_rss_kb(pid: int) -> int:
    try:
        status = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return 0
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    return 0


class Server:
    """Spawn, probe and stop one server process.

    ``spans_out`` starts the server through ``traced_serve.py`` so its
    spans land in that file when it stops.
    """

    def __init__(self, log_path: Path, workers: int = 0,
                 artifacts: Path | None = None,
                 spans_out: Path | None = None):
        self.port = free_port()
        self.log_path = log_path
        self.spans_out = spans_out
        args = ["serve", "--port", str(self.port)]
        if workers:
            args += ["--workers", str(workers)]
        if artifacts is not None:
            args += ["--artifacts", str(artifacts)]
        if spans_out is None:
            self.command = [sys.executable, "-m", "repro", *args]
        else:
            self.command = [
                sys.executable, str(HERE / "traced_serve.py"),
                str(spans_out), *args,
            ]
        self.process: subprocess.Popen | None = None

    def start(self) -> float:
        """Spawn the server; returns seconds until ``/healthz`` said 200."""
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        started = time.monotonic()
        with open(self.log_path, "ab") as log:
            self.process = subprocess.Popen(
                self.command, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                stdout=log, stderr=subprocess.STDOUT, start_new_session=True,
            )
        while True:
            try:
                if self._get("/healthz", timeout=1.0) is not None:
                    return time.monotonic() - started
            except (OSError, urllib.error.URLError):
                pass
            if self.process.poll() is not None:
                raise RuntimeError(
                    f"server exited with {self.process.returncode} before "
                    f"it was healthy; see {self.log_path}"
                )
            if time.monotonic() - started > START_TIMEOUT_S:
                self.stop()
                raise RuntimeError(f"server not healthy; see {self.log_path}")
            time.sleep(0.01)

    def _get(self, path: str, timeout: float = 10.0):
        url = f"http://127.0.0.1:{self.port}{path}"
        try:
            with urllib.request.urlopen(url, timeout=timeout) as reply:
                return json.loads(reply.read())
        except urllib.error.HTTPError:
            return None

    def metrics(self) -> dict:
        return self._get("/metrics")

    def health(self) -> dict:
        return self._get("/healthz")

    def peak_rss_mb(self) -> float:
        """Sum of the peak RSS of the server and its worker processes."""
        pid = self.process.pid
        return sum(
            _peak_rss_kb(p) for p in [pid, *_children(pid)]
        ) / 1024.0

    def stop(self) -> None:
        """SIGTERM (graceful drain), then make sure the group is gone."""
        if self.process is None:
            return
        process, self.process = self.process, None
        if process.poll() is None:
            process.send_signal(signal.SIGTERM)
            try:
                process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                os.killpg(process.pid, signal.SIGKILL)
                process.wait()
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            try:
                os.killpg(process.pid, signal.SIGKILL)
            except ProcessLookupError:
                return
            time.sleep(0.05)
