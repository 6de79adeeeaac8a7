"""Smoke test of the benchmark at tiny scale.

    PYTHONPATH=src python -m pytest e2ebench -q

Runs every workload through ``run.py --tiny`` untraced and traced, checks
each metric name of ``BENCHMARK.json`` appears with its unit, that the
traced counts repeat exactly for a fixed seed, and that the correctness
gate trips on corrupted answers.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import (  # noqa: E402
    K, KHopCapture, Workload, check_khop, check_points, edge_keys, spec_for,
)

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
EXACT_COUNTS = ["comm.messages", "engine.supersteps", "cache.hit_ratio",
                "wal.fsyncs", "durability.checkpoints", "index.rebuilds"]


def run(workload: str, trace: int, seed: int = 3) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_reported_with_its_unit(workload):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        res = run(workload, trace)
        assert set(res) == {"correct", "attempted", "failed", "metrics"}
        assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in BENCH[section]}
        got = {k: v["unit"] for k, v in res["metrics"].items()}
        assert got == want


@pytest.mark.parametrize("workload", ["khop-inproc", "mixed-durable"])
def test_traced_counts_repeat_for_a_seed(workload):
    a, b = run(workload, 1, seed=5), run(workload, 1, seed=5)
    for name in EXACT_COUNTS:
        assert a["metrics"][name]["value"] == b["metrics"][name]["value"], name


def test_scipy_oracle_matches_networkx_oracle():
    from repro.baselines.oracle import oracle_khop_reach

    w = Workload(spec_for("khop-inproc", tiny=True), 2, HERE / "out" / "unused")
    edges = w._graph()
    n = edges.num_vertices
    roots = np.arange(0, n, max(1, n // 16))
    want = [len(oracle_khop_reach(edges, int(r), 3)) for r in roots]
    assert check_khop(edge_keys(edges.src, edges.dst, n), n, 3, roots, want) == []


def test_gate_trips_on_corrupted_khop_answer():
    spec = spec_for("khop-inproc", tiny=True)
    capture = KHopCapture()
    capture.install()
    try:
        w = Workload(spec, 4, HERE / "out" / "unused")
        w.setup()
        capture.results.clear()
        for i in range(8):
            w.run_khop_wave(i)
    finally:
        capture.uninstall()
    w.close()
    w.check_khop_answers(capture.results, list(range(8)))
    assert w.errors == []
    for res in capture.results:
        res.reached[:] += 1  # every sampled root now over-counts
    w.check_khop_answers(capture.results, list(range(8)))
    assert w.errors and "oracle" in w.errors[0]


def test_gate_trips_on_corrupted_point_verdict(tmp_path):
    spec = spec_for("mixed-durable", tiny=True)
    w = Workload(spec, 4, tmp_path / "wal")
    w.setup()
    for _ in range(4):
        w.run_cycle()
    writes, src, tgt, verdicts = w.samples[0]
    keys = w.epoch_keys(writes)
    n, k = w.num_vertices, K
    assert check_points(keys, n, k, src, tgt, verdicts) == []
    flipped = verdicts.copy()
    flipped[0] = 1 - flipped[0]
    assert len(check_points(keys, n, k, src, tgt, flipped)) == 1
    w.close()
