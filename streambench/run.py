"""Run one benchmark workload and print its metrics.

    python3 streambench/run.py --workload paper_stream --seed 1 --seconds 24 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: every end-to-end
metric with ``--trace 0``, every per-layer metric with ``--trace 1``.  The
line before it is the provenance record.  The full record (per-repetition
rates, sample counts, any oracle mismatch) goes to
``streambench/results/<workload>-seed<seed>-trace<t>.json``, and a traced
run's spans to ``streambench/results/<workload>-seed<seed>.spans.tsv``.
The exit code is 1 when any output disagrees with the reference.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

WORKLOADS = ("paper_stream", "gateway_mixed")

#: name -> unit; BENCHMARK.json lists the same metrics with their direction.
END_TO_END = {
    "ingest_rate": "updates/s",
    "update_p50_us": "us",
    "update_p99_ms": "ms",
    "ack_p50_ms": "ms",
    "ack_p90_ms": "ms",
    "get_p50_ms": "ms",
    "get_p90_ms": "ms",
    "dashboard_p50_ms": "ms",
    "setup_s": "s",
    "mem_peak_mb": "MB",
    "success_frac": "fraction",
}

PER_LAYER = {
    "graphblas.flush_calls": "count",
    "graphblas.flush_busy_s": "s",
    "graphblas.pack_calls": "count",
    "graphblas.arena_grow_calls": "count",
    "graphblas.arena_concat_calls": "count",
    "graphblas.stored_mb": "MB",
    "graphblas.pending_capacity_mb": "MB",
    "graphblas.self_s": "s",
    "core.update_calls": "count",
    "core.update_busy_s": "s",
    "core.cascades_l1": "count",
    "core.cascades_l2": "count",
    "core.cascades_l3": "count",
    "core.write_amplification": "ratio",
    "core.tracker_read_busy_s": "s",
    "core.tracker_piggybacked_drains": "count",
    "core.tracker_full_drains": "count",
    "core.self_s": "s",
    "distributed.route_calls": "count",
    "distributed.route_busy_s": "s",
    "distributed.updates_per_shard_batch": "updates",
    "distributed.get_busy_s": "s",
    "distributed.shard_imbalance": "ratio",
    "distributed.self_s": "s",
    "service.updates_per_routed_batch": "updates",
    "service.backpressure_waits": "count",
    "service.max_buffered_updates": "updates",
    "service.rejected_frames": "count",
    "service.errors": "count",
    "service.coalesce_busy_s": "s",
    "service.route_busy_s": "s",
    "service.client_send_busy_s": "s",
    "service.self_s": "s",
    "analytics.summary_calls": "count",
    "analytics.summary_busy_s": "s",
    "analytics.self_s": "s",
    "trace.overhead_frac": "fraction",
}

#: Measured repetitions a run makes at least, whatever ``--seconds`` says;
#: a traced run makes at least ``MIN_TRACED`` untraced and traced ones each.
MIN_REPS = 3
MIN_TRACED = 2


def measure(module, inputs, seconds: float, trace: bool, seed: int):
    """Warm up, then repeat the workload's fixed input for ``seconds``.

    Returns ``(result, details, repetitions)``: the JSON result line, a
    record of the run and the number of measured repetitions.  In a traced
    run, untraced and traced repetitions alternate so the tracing overhead
    is measured on the same host state.  The workload's set-up is timed
    ``SETUP_SAMPLES`` times after every measured repetition, so the
    samples spread over the run like the repetitions do.
    """
    from streambench import harness, tracing

    tracer = tracing.Tracer() if trace else None

    def one(traced: bool):
        if traced:
            tracing.instrument(tracer)
        try:
            rep = module.run_rep(inputs, tracer if traced else None)
        finally:
            if traced:
                tracer.restore()
        harness.require_no_processes()
        return rep

    warmup = one(False)
    plain, traced, setups = [], [], []
    start = time.perf_counter()
    while (
        time.perf_counter() - start < seconds
        or len(plain) < (MIN_TRACED if trace else MIN_REPS)
        or (trace and len(traced) < MIN_TRACED)
    ):
        if trace and len(traced) < len(plain):
            traced.append(one(True))
        else:
            plain.append(one(False))
        setups += [module.setup_sample(inputs) for _ in range(module.SETUP_SAMPLES)]

    every = [warmup] + plain + traced
    attempted = sum(r.attempted for r in every)
    failed = sum(r.failed for r in every)
    errors = [e for r in every for e in r.errors]
    if trace:
        values = {
            name: harness.median(r.layers.get(name, 0.0) for r in traced)
            for name in PER_LAYER
        }
        values["trace.overhead_frac"] = (
            harness.median(r.rate for r in plain) / harness.median(r.rate for r in traced) - 1.0
        )
        units = PER_LAYER
    else:
        values = {
            "ingest_rate": harness.median(r.rate for r in plain),
            "update_p50_us": harness.pooled(plain, "update", 50) * 1e6,
            "update_p99_ms": harness.pooled(plain, "update", 99) * 1e3,
            "ack_p50_ms": harness.pooled(plain, "ack", 50) * 1e3,
            "ack_p90_ms": harness.pooled(plain, "ack", 90) * 1e3,
            "get_p50_ms": harness.pooled(plain, "get", 50) * 1e3,
            "get_p90_ms": harness.pooled(plain, "get", 90) * 1e3,
            "dashboard_p50_ms": harness.pooled(plain, "dashboard", 50) * 1e3,
            "setup_s": harness.median(setups),
            "mem_peak_mb": harness.median(r.mem_mb for r in plain),
            "success_frac": (attempted - failed) / attempted,
        }
        units = END_TO_END
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    details = {
        "rates": {
            "warmup": warmup.rate,
            "plain": [r.rate for r in plain],
            "traced": [r.rate for r in traced],
        },
        "samples": {op: sum(len(r.samples[op]) for r in plain) for op in harness.OPS},
        "setup_samples": setups,
        "errors": errors[:50],
    }
    if trace:
        path = os.path.join(HERE, "results", f"{module.NAME}-seed{seed}.spans.tsv")
        tracer.write(path)
        details["spans_file"] = os.path.relpath(path, ROOT)
    return result, details, len(plain) + len(traced)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    from streambench import harness

    module = importlib.import_module(f"streambench.{args.workload}")
    probe_before = harness.kernel_probe()
    inputs = module.make_inputs(args.seed)
    result, details, repetitions = measure(
        module, inputs, args.seconds, bool(args.trace), args.seed
    )
    probe_after = harness.kernel_probe()

    record = {
        "workload": args.workload,
        "trace": args.trace,
        "busy_processes": module.BUSY_PROCESSES,
        "provenance": harness.provenance(args.seed, repetitions, probe_before, probe_after),
        **details,
        "result": result,
    }
    out_dir = os.path.join(HERE, "results")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    for error in details["errors"]:
        print(f"MISMATCH: {error}", file=sys.stderr)
    print(json.dumps({"provenance": record["provenance"]}))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
