"""paper_stream: the paper's Section III stream into one HierarchicalMatrix.

Closed loop, one caller, one busy process.  Power-law edges (alpha 1.3,
2**22 distinct nodes scattered over 2**32 x 2**32), unit values, 8192-update
batches into a ``HierarchicalMatrix`` with the library-default cuts and the
reduction tracker on; a ``degree_summary`` poll every 128 batches; the
stream ends with ``wait()``.  1536 batches (12.6M updates) cascade layer 2
into layer 3 twice per repetition, so every repetition carries the same
cascade stalls.

Every 32 batches the caller reads back one coordinate of the batch just
sent.  That read-your-writes ``get`` merges layer 1's pending tuples first,
so it costs what a reader pays in a stream.  The in-process matrix applies
each batch before ``update`` returns, so the update call is its own
acknowledgement: ``ack`` samples are the update calls.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro import analytics
from repro.core import HierarchicalMatrix
from repro.workloads import powerlaw_edges

from .harness import Rep, peak_rss_mb, settle, start_peak_window
from .oracle import StreamOracle
from .tracing import Counters, Tracer, span_metrics

NAME = "paper_stream"
BUSY_PROCESSES = 1
#: ``setup_sample`` calls after each repetition (construction takes ~0.1 ms).
SETUP_SAMPLES = 10
BATCH = 8192
NBATCHES = 1536
POLL_EVERY = 128
READ_EVERY = 32


@dataclass
class Inputs:
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray
    reads: np.ndarray  # per read point, the stream position read back
    oracle: StreamOracle


def make_inputs(seed: int, nbatches: int = NBATCHES) -> Inputs:
    n = BATCH * nbatches
    rows, cols = powerlaw_edges(
        n, alpha=1.3, nnodes=2 ** 32, distinct_nodes=2 ** 22, seed=seed
    )
    values = np.ones(n, dtype=np.float64)
    rng = np.random.default_rng(seed)
    ends = np.arange(READ_EVERY * BATCH, n + 1, READ_EVERY * BATCH)
    reads = ends - 1 - rng.integers(0, BATCH, ends.size)
    return Inputs(rows, cols, values, reads, StreamOracle(rows, cols, values))


def _build() -> HierarchicalMatrix:
    return HierarchicalMatrix(2 ** 32, 2 ** 32)


def setup_sample(inputs: Inputs) -> float:
    """Seconds from constructing the matrix until it can take an update."""
    settle()
    start = time.perf_counter()
    H = _build()
    elapsed = time.perf_counter() - start
    del H
    return elapsed


def run_rep(inputs: Inputs, tracer: Tracer = None) -> Rep:
    rows, cols, values, oracle = inputs.rows, inputs.cols, inputs.values, inputs.oracle
    n = oracle.size
    base_mb = start_peak_window()
    counters = Counters()
    mark = tracer.mark() if tracer is not None else 0
    H = _build()
    rep = Rep(updates=n, wall_s=0.0, mem_mb=0.0)
    reads, polls = [], []
    t0 = time.perf_counter()
    for b, lo in enumerate(range(0, n, BATCH)):
        hi = lo + BATCH
        rep.timed("update", H.update, rows[lo:hi], cols[lo:hi], values[lo:hi])
        if (b + 1) % READ_EVERY == 0:
            pos = int(inputs.reads[len(reads)])
            r, c = int(rows[pos]), int(cols[pos])
            reads.append((r, c, hi, rep.timed("get", H.get, r, c)))
        if (b + 1) % POLL_EVERY == 0:
            polls.append((hi, rep.timed("dashboard", analytics.degree_summary, H)))
    rep.timed(None, H.wait)
    rep.wall_s = time.perf_counter() - t0
    rep.mem_mb = peak_rss_mb() - base_mb
    rep.samples["ack"] = rep.samples["update"]

    if tracer is not None:
        stats, inc = H.stats, H.incremental
        memory = H.memory_breakdown
        rep.layers = span_metrics(tracer, mark)
        rep.layers.update(counters.delta())
        rep.layers.update({
            "graphblas.stored_mb": memory["stored_bytes"] / 2 ** 20,
            "graphblas.pending_capacity_mb": memory["pending_capacity_bytes"] / 2 ** 20,
            "core.cascades_l1": float(stats.cascades[0]),
            "core.cascades_l2": float(stats.cascades[1]),
            "core.cascades_l3": float(stats.cascades[2]),
            "core.write_amplification": sum(stats.element_writes) / stats.total_updates,
            "core.tracker_piggybacked_drains": float(inc.piggybacked_drains),
            "core.tracker_full_drains": float(inc.full_drains),
        })
    rep.errors += oracle.errors(reads, polls, analytics.degree_summary(H), H.nvals)
    return rep
