"""In-memory spans around calls into the program's public functions.

The traced run patches public methods of :mod:`repro` classes from here,
never inside the program: each patched call records a span ``(id, parent,
request, name, start, end)``.  A span opened while no other span is open on
its thread starts a new request id, which every span it causes shares.
Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import functools
import itertools
import os
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

Span = Tuple[int, int, int, str, float, float]


class Tracer:
    """Records spans for the calls it wraps; :meth:`restore` unwraps them."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._requests = itertools.count(1)
        self._local = threading.local()
        self._patched: List[Tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        owner,
        attr: str,
        name: str,
        when: Optional[Callable] = None,
    ) -> None:
        """Replace ``owner.attr`` (function, method or property) with a span recorder.

        ``when(*args)`` (optional) decides per call whether it is recorded.
        A call made directly inside an open span of the same name is not
        recorded again.
        """
        original = owner.__dict__[attr]
        fn = original.fget if isinstance(original, property) else original

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            # A call nested in an open span of the same name (a sharded read
            # fanning out to in-process shard trackers) is part of that span.
            if (when is not None and not when(*args)) or (stack and stack[-1][2] == name):
                return fn(*args, **kwargs)
            span_id = next(self._ids)
            parent, request = stack[-1][:2] if stack else (0, next(self._requests))
            stack.append((span_id, request, name))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((span_id, parent, request, name, start, end))
            return result

        setattr(owner, attr, property(traced) if isinstance(original, property) else traced)
        self._patched.append((owner, attr, original))

    def restore(self) -> None:
        """Put every wrapped attribute back."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def mark(self) -> int:
        """Position in the span list; pass to :meth:`busy` / :meth:`calls`."""
        return len(self.spans)

    def calls(self, name: str, since: int = 0) -> int:
        return sum(1 for s in self.spans[since:] if s[3] == name)

    def busy(self, name: str, since: int = 0) -> float:
        """Total duration of the ``name`` spans recorded after ``since``."""
        return sum(s[5] - s[4] for s in self.spans[since:] if s[3] == name)

    def self_time(self, since: int = 0) -> Dict[str, float]:
        """Self time per span name: durations minus their child spans.

        Children run nested on their parent's thread, so a parent's covered
        time is the sum of its direct children's durations.
        """
        spans = self.spans[since:]
        child_time: Dict[int, float] = {}
        for span_id, parent, _req, _name, start, end in spans:
            if parent:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        out: Dict[str, float] = {}
        for span_id, _parent, _req, name, start, end in spans:
            out[name] = out.get(name, 0.0) + (end - start) - child_time.get(span_id, 0.0)
        return out

    def write(self, path: str) -> None:
        """Write every span as a tab-separated line (times in microseconds)."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        origin = self.spans[0][4] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write("id\tparent\trequest\tname\tstart_us\tend_us\n")
            for span_id, parent, request, name, start, end in self.spans:
                fh.write(
                    f"{span_id}\t{parent}\t{request}\t{name}\t"
                    f"{(start - origin) * 1e6:.1f}\t{(end - origin) * 1e6:.1f}\n"
                )


def instrument(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer the workloads call.

    A layer-1 flush is recorded where it happens: a ``wait`` or an ``nvals``
    read (the cascade's exact-size check) on a matrix holding pending tuples.
    """
    from repro import analytics
    from repro.core import HierarchicalMatrix
    from repro.core.reductions import IncrementalReductions
    from repro.distributed import (
        ShardedHierarchicalMatrix,
        ShardedIncrementalReductions,
        ShardRouter,
        ShardWorkerPool,
    )
    from repro.graphblas import Matrix
    from repro.service.coalesce import BatchCoalescer

    def pending(matrix) -> bool:
        return matrix.has_pending

    tracer.wrap(Matrix, "wait", "graphblas.flush", when=pending)
    tracer.wrap(Matrix, "nvals", "graphblas.flush", when=pending)
    tracer.wrap(HierarchicalMatrix, "update", "core.update")
    for read in ("row_traffic", "col_traffic", "row_fan", "col_fan", "total", "nnz"):
        tracer.wrap(IncrementalReductions, read, "core.tracker_read")
        tracer.wrap(ShardedIncrementalReductions, read, "core.tracker_read")
    tracer.wrap(ShardRouter, "route", "distributed.route")
    tracer.wrap(ShardedHierarchicalMatrix, "update", "distributed.update")
    tracer.wrap(ShardWorkerPool, "submit_ingest", "distributed.submit")
    tracer.wrap(ShardedHierarchicalMatrix, "get", "distributed.get")
    tracer.wrap(ShardedHierarchicalMatrix, "finalize", "distributed.finalize")
    tracer.wrap(BatchCoalescer, "add", "service.coalesce")
    tracer.wrap(BatchCoalescer, "flush", "service.coalesce")
    tracer.wrap(analytics, "degree_summary", "analytics.summary")


class Counters:
    """Deltas of the program's process-wide instrumentation counters."""

    def __init__(self) -> None:
        self._start = self._read()

    @staticmethod
    def _read() -> Dict[str, int]:
        from repro.graphblas import arena, coords

        return {
            "graphblas.pack_calls": coords.pack_calls(),
            "graphblas.arena_grow_calls": arena.grow_calls(),
            "graphblas.arena_concat_calls": arena.concat_calls(),
        }

    def delta(self) -> Dict[str, float]:
        now = self._read()
        return {k: float(now[k] - self._start[k]) for k in now}


def span_metrics(tracer: Tracer, since: int) -> Dict[str, float]:
    """Per-layer metrics every workload derives the same way from its spans."""
    own = tracer.self_time(since)
    out = {
        "graphblas.flush_calls": float(tracer.calls("graphblas.flush", since)),
        "graphblas.flush_busy_s": tracer.busy("graphblas.flush", since),
        "core.update_calls": float(tracer.calls("core.update", since)),
        "core.update_busy_s": tracer.busy("core.update", since),
        "core.tracker_read_busy_s": tracer.busy("core.tracker_read", since),
        "distributed.route_calls": float(tracer.calls("distributed.route", since)),
        "distributed.route_busy_s": tracer.busy("distributed.route", since),
        "distributed.get_busy_s": tracer.busy("distributed.get", since),
        "service.coalesce_busy_s": tracer.busy("service.coalesce", since),
        "analytics.summary_calls": float(tracer.calls("analytics.summary", since)),
        "analytics.summary_busy_s": tracer.busy("analytics.summary", since),
    }
    for name, seconds in own.items():
        key = name.split(".", 1)[0] + ".self_s"
        out[key] = out.get(key, 0.0) + seconds
    return out
