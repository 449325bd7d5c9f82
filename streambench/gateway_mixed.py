"""gateway_mixed: a load-generator process writing and reading through the gateway.

One load-generator process, single thread, two connections to an
``IngestGateway`` (default coalescer) that runs in the benchmark process over
an in-process ``ShardedHierarchicalMatrix(2)``.  Busy: the client plus the
gateway's event-loop thread.

The writer connection streams ``synthetic_packets`` traffic (power-law
endpoints, 10% of packets on the top pair, log-normal byte values rounded up
to whole bytes, so frames carry values) in 4096-update frames and calls
``sync`` after every frame; each acknowledgement must count every update
sent.  Every 2 frames, after the sync, the reader connection reads back one
coordinate that sync acknowledged, and every 32 frames it also polls
``stats``.

Why not 1024-update frames and a sync every 16: about one sync in eight of
that cadence waits out a layer-1 cascade in a shard, so ``ack_p90_ms`` sat
between the fast and the stalled syncs and moved with the seed; a sync per
4096 updates stalls about one time in twenty.  And 1024-update frames left
each client call and sync mostly interpreter overhead, whose speed on a
shared host shifts by a third between minutes-long phases.  A read every 2
frames keeps ``get_p90_ms`` inside the body of the read latencies: a read
merges the owning shard's pending layer-1 tuples, and at 4 frames the
costliest tenth of reads began where the merges meet the rarer, far slower
reads.

This is the only workload through the client wire, frame decode,
``BatchCoalescer``, route lock and snapshot reads, and writes and reads
travel on separate connections.
"""

from __future__ import annotations

import contextlib
import multiprocessing as mp
import time
from dataclasses import dataclass

import numpy as np

from repro import analytics
from repro.distributed import ShardedHierarchicalMatrix
from repro.service import GatewayClient, IngestGateway
from repro.workloads import synthetic_packets

from .harness import Rep, peak_rss_mb, require_no_processes, start_peak_window
from .oracle import StreamOracle
from .tracing import Counters, Tracer, span_metrics

NAME = "gateway_mixed"
BUSY_PROCESSES = 2
#: ``setup_sample`` calls after each repetition.
SETUP_SAMPLES = 2
FRAME = 4096
NFRAMES = 512
#: Cadences, in frames: sync, read-your-writes get, stats poll.
SYNC_EVERY = 1
READ_EVERY = 2
STATS_EVERY = 32
#: Seconds the benchmark waits on the load generator before giving up.
CLIENT_TIMEOUT = 150.0


@dataclass
class Inputs:
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray
    reads: np.ndarray  # per read point, the stream position read back
    oracle: StreamOracle


def make_inputs(seed: int, nframes: int = NFRAMES) -> Inputs:
    n = FRAME * nframes
    (window,) = synthetic_packets(n, 1, seed=seed)
    rows, cols, values = window.sources, window.destinations, np.ceil(window.bytes)
    rng = np.random.default_rng(seed)
    window = READ_EVERY * FRAME
    ends = np.arange(window, n + 1, window)
    reads = ends - 1 - rng.integers(0, window, ends.size)
    return Inputs(rows, cols, values, reads, StreamOracle(rows, cols, values))


def _load_generator(pipe, inputs: Inputs) -> None:
    """Client process: connect, wait for the go, stream, send back a Rep."""
    rows, cols, values = inputs.rows, inputs.cols, inputs.values
    n = inputs.oracle.size
    address = pipe.recv()
    with GatewayClient(address, client_id="writer") as writer, GatewayClient(
        address, client_id="reader"
    ) as reader:
        pipe.send("ready")
        if pipe.recv() != "go":
            return
        rep = Rep(updates=n, wall_s=0.0, mem_mb=0.0)
        acks, reads, polls = [], [], []
        t0 = time.perf_counter()
        for f, lo in enumerate(range(0, n, FRAME)):
            hi = lo + FRAME
            rep.timed("update", writer.update, rows[lo:hi], cols[lo:hi], values[lo:hi])
            if (f + 1) % SYNC_EVERY:
                continue
            ack = rep.timed("ack", writer.sync)
            acks.append((hi, ack and ack["acked"]))
            rep.wall_s = time.perf_counter() - t0
            if (f + 1) % READ_EVERY == 0:
                pos = int(inputs.reads[len(reads)])
                r, c = int(rows[pos]), int(cols[pos])
                reads.append((r, c, hi, rep.timed("get", reader.get, r, c)))
            if (f + 1) % STATS_EVERY == 0:
                polls.append((hi, rep.timed("dashboard", reader.stats)))
    pipe.send((rep, acks, reads, polls))


def _recv(pipe):
    if not pipe.poll(CLIENT_TIMEOUT):
        raise RuntimeError("the load generator did not answer in time")
    return pipe.recv()


@contextlib.contextmanager
def _system(inputs: Inputs):
    """Fork the load generator, then start matrix and gateway and connect it.

    Yields ``(pipe to the client, matrix, gateway, setup seconds, baseline
    RSS in MB)``; on exit reaps the client, then stops gateway and matrix.
    """
    # Fork while this process has no other thread: the gateway's starts later.
    ctx = mp.get_context("fork")
    pipe, child_end = ctx.Pipe()
    client = ctx.Process(target=_load_generator, args=(child_end, inputs), daemon=True)
    client.start()
    child_end.close()
    S = gateway = None
    try:
        base_mb = start_peak_window()
        start = time.perf_counter()
        S = ShardedHierarchicalMatrix(2)
        gateway = IngestGateway(S).start()
        pipe.send(gateway.address)
        _recv(pipe)
        yield pipe, S, gateway, time.perf_counter() - start, base_mb
    finally:
        client.join(timeout=30)
        if client.is_alive():
            client.kill()
            client.join()
        pipe.close()
        if gateway is not None:
            # Let the loop see both clients hang up before it shuts down, so
            # no connection handler is cancelled mid-read.
            deadline = time.monotonic() + 5.0
            while gateway.metrics()["open_clients"] and time.monotonic() < deadline:
                time.sleep(0.001)
            gateway.close()
        if S is not None:
            S.close()
        require_no_processes()


def setup_sample(inputs: Inputs) -> float:
    """Seconds from constructing matrix and gateway until the client is connected."""
    with _system(inputs) as (pipe, _S, _gateway, setup_s, _base_mb):
        pipe.send("stop")
    return setup_s


def run_rep(inputs: Inputs, tracer: Tracer = None) -> Rep:
    oracle = inputs.oracle
    counters = Counters()
    mark = tracer.mark() if tracer is not None else 0
    with _system(inputs) as (pipe, S, gateway, _setup_s, base_mb):
        pipe.send("go")
        rep, acks, reads, polls = _recv(pipe)
        rep.mem_mb = peak_rss_mb() - base_mb
        metrics = gateway.metrics()
        if tracer is not None:
            rep.layers = span_metrics(tracer, mark)
            rep.layers.update(counters.delta())
            rep.layers.update({
                "service.updates_per_routed_batch": metrics["routed_updates"]
                / metrics["routed_batches"],
                "service.backpressure_waits": float(metrics["backpressure_waits"]),
                "service.max_buffered_updates": float(metrics["max_buffered_updates"]),
                "service.rejected_frames": float(metrics["rejected_frames"]),
                "service.errors": float(metrics["errors"]),
                "service.route_busy_s": tracer.busy("distributed.update", mark),
                "distributed.updates_per_shard_batch": metrics["routed_updates"]
                / tracer.calls("distributed.submit", mark),
                "distributed.shard_imbalance": S.imbalance(),
                "service.client_send_busy_s": sum(rep.samples["update"]),
            })
        for end, acked in acks:
            rep.check(acked == end, f"sync after {end} sent updates acknowledged {acked!r}")
        rep.check(
            metrics["received_updates"] == oracle.size == metrics["routed_updates"],
            f"gateway received {metrics['received_updates']} and routed "
            f"{metrics['routed_updates']} of {oracle.size} updates",
        )
        rep.errors += oracle.errors(reads, polls, analytics.degree_summary(S), S.nvals)
    return rep
