"""Shared plumbing: clocks, process telemetry, spans and the gateway child.

Nothing here imports the store; the workload modules do.  Every path the
benchmark writes lives under ``<checkout>/.perfbench`` (see
:func:`out_dir`).
"""

from __future__ import annotations

import json
import os
import select
import shutil
import signal
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import List, Optional, Tuple

import numpy as np

#: The checkout root: ``perfbench/h2obench/common.py`` -> two levels up.
ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
CLK_TCK = os.sysconf("SC_CLK_TCK")


def out_dir(*parts: str) -> Path:
    """A directory under the checkout for run outputs (created)."""
    path = ROOT.joinpath(".perfbench", *parts)
    path.mkdir(parents=True, exist_ok=True)
    return path


def run_dir() -> Path:
    """This process's scratch directory; :func:`remove_run_dir` clears it."""
    return ROOT / ".perfbench" / f"run-{os.getpid()}"


def fresh_dir(*parts: str) -> Path:
    """An empty directory under :func:`run_dir` (old contents removed)."""
    path = run_dir().joinpath(*parts)
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def remove_run_dir() -> None:
    shutil.rmtree(run_dir(), ignore_errors=True)


@contextmanager
def one_cpu():
    """Pin this process, and the children it starts, to one CPU.

    The HTTP workloads run a closed loop between this process and the
    gateway: every request is a chain of wake-ups across processes and
    threads.  On a shared virtual machine a wake-up aimed at the other
    vCPU waits for the host to run it, which made the same stream run
    1.5-4x slower from one run to the next; on one CPU the hand-offs are
    plain context switches.  The scans of the in-process workloads keep
    every CPU.
    """
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def process_age_s() -> float:
    """Seconds since this process started (``/proc``, 1/CLK_TCK steps)."""
    with open("/proc/self/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    start_ticks = int(fields[19])  # field 22 of proc(5): starttime
    with open("/proc/uptime") as handle:
        uptime = float(handle.read().split()[0])
    return uptime - start_ticks / CLK_TCK


def cpu_seconds(pid: int) -> float:
    """User + system CPU of ``pid``, all threads (``/proc/<pid>/stat``)."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / CLK_TCK  # utime, stime


def peak_rss_mb(pid: int) -> float:
    """High-water resident set of ``pid`` (``VmHWM``) in MB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def p50(values) -> float:
    return float(np.median(np.asarray(values, dtype=np.float64)))


def percentile(values, q: float) -> float:
    return float(np.quantile(np.asarray(values, dtype=np.float64), q))


class Tracer:
    """In-memory spans: ``(name, start, end, parent, request_id)``.

    A span's parent is the innermost span open when it started, so the
    spans of one request nest as the calls do.  Written out once, when
    the run ends (:meth:`write`).
    """

    def __init__(self) -> None:
        self.spans: List[Optional[Tuple[str, float, float, Optional[int], str]]] = []
        self._open: List[int] = []
        #: Duration of the span closed most recently.
        self.last = 0.0

    @contextmanager
    def span(self, name: str, request_id: str):
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        self.spans.append(None)
        self._open.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans[index] = (name, start, end, parent, request_id)
            self.last = end - start

    def durations(self, name: str) -> List[float]:
        return [s[2] - s[1] for s in self.spans if s and s[0] == name]

    def write(self, path: Path) -> None:
        with open(path, "w") as handle:
            for index, span in enumerate(self.spans):
                name, start, end, parent, rid = span
                handle.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "request_id": rid,
                        }
                    )
                    + "\n"
                )


class GatewayProcess:
    """``python -m repro.gateway`` as a child process on a free port."""

    def __init__(
        self, data_dir: Path, snapshot_every: int, ready_timeout: float = 60.0
    ) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        env["PYTHONDONTWRITEBYTECODE"] = "1"
        self.log_path = data_dir.parent / f"{data_dir.name}.log"
        self._log = open(self.log_path, "ab")
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.gateway",
                "--data-dir",
                str(data_dir),
                "--port",
                "0",
                "--snapshot-every",
                str(snapshot_every),
            ],
            stdout=subprocess.PIPE,
            stderr=self._log,
            env=env,
            cwd=str(ROOT),
        )
        try:
            line = self._readline(ready_timeout)
        except BaseException:
            self.kill()
            raise
        #: Seconds from spawn to the readiness line (includes recovery).
        self.ready_s = time.perf_counter() - started
        host_port = line.rsplit(" ", 1)[1]
        self.host, port = host_port.rsplit(":", 1)
        self.port = int(port)

    @property
    def pid(self) -> int:
        return self.proc.pid

    def _readline(self, timeout: float) -> str:
        deadline = time.monotonic() + timeout
        stream = self.proc.stdout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise RuntimeError("gateway did not become ready in time")
            readable, _, _ = select.select([stream], [], [], remaining)
            if readable:
                line = stream.readline().decode().strip()
                if not line:
                    raise RuntimeError(
                        f"gateway exited early (see {self.log_path})"
                    )
                if "listening on" in line:
                    return line

    def client(self):
        from repro.gateway import GatewayClient

        return GatewayClient(self.host, self.port, timeout=60.0)

    def kill(self) -> None:
        """SIGKILL and reap (no graceful drain, no final checkpoint)."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGKILL)
        self.proc.wait(timeout=30)
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self._log.close()

    def __enter__(self) -> "GatewayProcess":
        return self

    def __exit__(self, *exc_info) -> None:
        self.kill()
