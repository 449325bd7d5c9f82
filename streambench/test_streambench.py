"""The benchmark's own tests: count determinism, process hygiene, the oracle.

    PYTHONPATH=src python -m pytest -q streambench/test_streambench.py

Each workload runs on a short input so the file finishes in seconds.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from streambench import gateway_mixed, harness, paper_stream, tracing
from streambench.oracle import StreamOracle

#: Per-layer counts that repeat exactly for a seed on paper_stream (the
#: starred metrics).
EXACT_COUNTS = (
    "graphblas.flush_calls",
    "graphblas.pack_calls",
    "graphblas.arena_grow_calls",
    "graphblas.arena_concat_calls",
    "core.update_calls",
    "core.cascades_l1",
    "core.cascades_l2",
    "core.cascades_l3",
    "core.write_amplification",
    "core.tracker_piggybacked_drains",
    "core.tracker_full_drains",
    "analytics.summary_calls",
)

SHORT = {
    paper_stream: {"nbatches": 160},
    gateway_mixed: {"nframes": 32},
}


def traced_rep(module, inputs):
    tracer = tracing.Tracer()
    tracing.instrument(tracer)
    try:
        return module.run_rep(inputs, tracer)
    finally:
        tracer.restore()


def test_starred_counts_repeat_for_a_seed():
    module = paper_stream
    first = traced_rep(module, module.make_inputs(7, **SHORT[module]))
    second = traced_rep(module, module.make_inputs(7, **SHORT[module]))
    assert not first.errors and not second.errors
    counts = {name: first.layers.get(name, 0.0) for name in EXACT_COUNTS}
    assert counts == {name: second.layers.get(name, 0.0) for name in EXACT_COUNTS}
    assert counts["analytics.summary_calls"] > 0


@pytest.mark.parametrize("module", [paper_stream, gateway_mixed], ids=lambda m: m.NAME)
def test_repetition_leaves_no_process_running(module):
    inputs = module.make_inputs(3, **SHORT[module])
    rep = module.run_rep(inputs)
    module.setup_sample(inputs)
    assert not rep.errors and rep.failed == 0
    assert harness.descendants() == set()


def test_tampered_reference_is_reported():
    inputs = paper_stream.make_inputs(5, nbatches=16)
    wrong = inputs.values.copy()
    wrong[-1] += 1.0
    tampered = dataclasses.replace(
        inputs, oracle=StreamOracle(inputs.rows, inputs.cols, wrong)
    )
    rep = paper_stream.run_rep(tampered)
    assert any("total_traffic" in e or "get(" in e for e in rep.errors)


def test_oracle_prefix_answers_match_a_direct_count():
    rng = np.random.default_rng(0)
    rows = rng.integers(0, 8, 500).astype(np.uint64)
    cols = rng.integers(0, 8, 500).astype(np.uint64)
    values = rng.integers(1, 5, 500).astype(np.float64)
    oracle = StreamOracle(rows, cols, values)
    for end in (0, 1, 137, 500):
        pairs = set(zip(rows[:end].tolist(), cols[:end].tolist()))
        assert oracle.nnz(end) == len(pairs)
        assert oracle.total(end) == values[:end].sum()
        for r, c in list(pairs)[:5]:
            mask = (rows[:end] == r) & (cols[:end] == c)
            assert oracle.value(r, c, end) == values[:end][mask].sum()
