"""Spawn and stop the real daemon; state directories; CPU and RSS.

The daemon is ``python -m repro serve --port 0 --workers 2`` on a fresh
state directory under ``benchmarks/e2e/.work/`` — the repository's own
disk, not tmpfs, so the journal's fsync is paid.
"""

from __future__ import annotations

import itertools
import os
import re
import resource
import select
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional, Tuple

from repro.service.client import ServiceClient

__all__ = ["REPO_ROOT", "WORK", "WORKERS", "Daemon",
           "children_peak_rss_mb", "fresh_root"]

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]
WORK = HERE / ".work"
#: Wave width of every daemon the benchmark starts (the host has 2 cores).
WORKERS = 2

_BANNER_TIMEOUT_S = 120.0   # the first start in a checkout byte-compiles
_STOP_TIMEOUT_S = 30.0
_dir_ids = itertools.count()


def fresh_root() -> Path:
    """A new, empty state directory owned by this process."""
    root = WORK / f"{os.getpid()}-{next(_dir_ids)}"
    shutil.rmtree(root, ignore_errors=True)
    root.mkdir(parents=True)
    return root


def _children_cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def children_peak_rss_mb() -> float:
    """Largest resident set of any child reaped so far (Linux: KiB)."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


class Daemon:
    """One live ``repro serve`` subprocess.

    Construction returns once ``/api/health`` answers; :meth:`stop`
    sends SIGINT (the daemon compacts its journal), kills on timeout,
    reaps the process and returns its ``(cpu_s, wall_s)``.
    """

    def __init__(self, root: Path):
        self.root = root
        self._cpu0 = _children_cpu_s()
        self._t0 = time.perf_counter()
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(REPO_ROOT / "src")]
            + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        self.proc: Optional[subprocess.Popen] = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro", "serve", "--port", "0",
             "--workers", str(WORKERS), "--root", str(root)],
            stdout=subprocess.PIPE, text=True, env=env, cwd=REPO_ROOT,
        )
        try:
            self.url = self._read_banner()
            self.client = ServiceClient(self.url, timeout=30.0)
            self.client.health()
        except BaseException:
            self.stop()
            raise

    def _read_banner(self) -> str:
        ready, _, _ = select.select([self.proc.stdout], [], [],
                                    _BANNER_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else ""
        match = re.search(r"http://\S+", line)
        if match is None:
            raise RuntimeError(f"daemon printed no URL (got {line!r})")
        return match.group(0)

    def stop(self) -> Tuple[float, float]:
        proc, self.proc = self.proc, None
        if proc is None:
            return 0.0, 0.0
        if proc.poll() is None:
            proc.send_signal(signal.SIGINT)
            try:
                proc.wait(timeout=_STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
        proc.wait()
        proc.stdout.close()
        return (_children_cpu_s() - self._cpu0,
                time.perf_counter() - self._t0)
