"""Measurement plumbing shared by the workloads.

Statistics over repetitions, peak-memory accounting, the process-hygiene
check that runs after every repetition, and the provenance recorded with
every result.  Nothing here imports :mod:`repro`.
"""

from __future__ import annotations

import ctypes
import gc
import hashlib
import os
import platform
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Set

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: The operation kinds a repetition times: update batches, acknowledgements,
#: reads and dashboard polls.
OPS = ("update", "ack", "get", "dashboard")


@dataclass
class Rep:
    """What one repetition of a workload measured."""

    updates: int
    wall_s: float
    mem_mb: float
    samples: Dict[str, List[float]] = field(default_factory=lambda: {op: [] for op in OPS})
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    layers: Dict[str, float] = field(default_factory=dict)

    @property
    def rate(self) -> float:
        return self.updates / self.wall_s

    def timed(self, op: str, fn, *args):
        """Call ``fn(*args)`` as one operation; pool its latency under ``op``.

        ``op=None`` counts the operation without pooling a sample.  A
        raising operation counts as failed (its latency is not pooled) and
        returns ``None``.
        """
        self.attempted += 1
        start = time.perf_counter()
        try:
            out = fn(*args)
        except Exception as exc:  # one failed operation must not end the run
            self.failed += 1
            self.errors.append(f"{op or 'barrier'} failed: {type(exc).__name__}: {exc}")
            return None
        if op is not None:
            self.samples[op].append(time.perf_counter() - start)
        return out

    def check(self, ok: bool, message: str) -> None:
        """Record an oracle mismatch (the run then reports ``correct: false``)."""
        if not ok:
            self.errors.append(message)


def median(values: Iterable[float]) -> float:
    return float(np.median(np.asarray(list(values), dtype=np.float64)))


def pooled(reps: List[Rep], op: str, q: float) -> float:
    """Percentile ``q`` of every ``op`` sample of every repetition, pooled."""
    samples = np.concatenate([np.asarray(r.samples[op], dtype=np.float64) for r in reps])
    return float(np.percentile(samples, q))


# --------------------------------------------------------------------------- #
# memory
# --------------------------------------------------------------------------- #


def _status_kb(key: str, pid="self") -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith(key + ":"):
                    return int(line.split()[1])
    except (FileNotFoundError, ProcessLookupError):
        pass
    return 0


def settle() -> None:
    """Collect garbage and hand freed heap memory back to the system.

    Called before every memory baseline and every set-up sample, so neither
    depends on what an earlier repetition happened to leave cached.
    """
    gc.collect()
    ctypes.CDLL(None).malloc_trim(0)


def start_peak_window() -> float:
    """Settle the heap, reset this process's peak-RSS mark; return RSS in MB."""
    settle()
    with open("/proc/self/clear_refs", "w") as fh:
        fh.write("5")
    return _status_kb("VmRSS") / 1024.0


def peak_rss_mb() -> float:
    """Peak RSS since the last :func:`start_peak_window`, in MB."""
    return _status_kb("VmHWM") / 1024.0


# --------------------------------------------------------------------------- #
# process hygiene
# --------------------------------------------------------------------------- #


def _proc_table() -> Dict[int, tuple]:
    """``pid -> (ppid, state)`` for every process visible in /proc."""
    table = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        # The command name may contain spaces; fields resume after its ')'.
        fields = stat[stat.rfind(")") + 2:].split()
        table[int(name)] = (int(fields[1]), fields[0])
    return table


def descendants() -> Set[int]:
    """Live (non-zombie) processes below this one in the process tree."""
    table = _proc_table()
    children: Dict[int, List[int]] = {}
    for pid, (ppid, _state) in table.items():
        children.setdefault(ppid, []).append(pid)
    out, stack = set(), [os.getpid()]
    while stack:
        for pid in children.get(stack.pop(), ()):
            out.add(pid)
            stack.append(pid)
    return {pid for pid in out if table[pid][1] != "Z"}


def stop_resource_tracker() -> None:
    """Stop multiprocessing's resource tracker if anything started it."""
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()


def require_no_processes(timeout: float = 15.0) -> None:
    """Wait until every process this one started has ended.

    Raises RuntimeError if any is still running after ``timeout`` seconds.
    """
    stop_resource_tracker()
    deadline = time.monotonic() + timeout
    while True:
        left = descendants()
        if not left:
            return
        if time.monotonic() > deadline:
            raise RuntimeError(f"processes left running after a repetition: {sorted(left)}")
        time.sleep(0.02)


# --------------------------------------------------------------------------- #
# provenance
# --------------------------------------------------------------------------- #


def git_sha() -> str:
    """Commit of the checkout, read from .git without running git; '' if none."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return ""


def source_digest() -> str:
    """SHA-1 over the program's sources, for checkouts that are not git repos."""
    digest = hashlib.sha1()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def kernel_probe() -> float:
    """Median time of a fixed 1M-element ``np.sort``: host speed, not program speed."""
    x = np.random.default_rng(12345).random(1 << 20)
    times = []
    for _ in range(5):
        start = time.perf_counter()
        np.sort(x)
        times.append(time.perf_counter() - start)
    return median(times)


def provenance(seed: int, repetitions: int, probe_before: float, probe_after: float) -> dict:
    return {
        "git_sha": git_sha(),
        "source_sha1": source_digest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seed": seed,
        "repetitions": repetitions,
        "kernel_probe_s": {"before": probe_before, "after": probe_after},
    }
