"""One benchmark run of one workload, in a fresh process.

``run.py`` starts this file with ``PYTHONHASHSEED`` fixed and ``src`` on
the path.  Untraced (``--trace 0``) it sets up ``setup_reps`` times
(``setup_s`` is the median), calls ``gc.collect()``, then runs the closed
loop over ``seconds x rate`` units of work and reports the end-to-end
metrics.  Traced (``--trace 1``) it alternates untraced and traced blocks
of the same size and reports the per-layer metrics.  Both check the
answers off the clock.  The last line of standard output is the JSON
result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from tracing import SpanRecorder
from workloads import (
    BLOCK, CHECKPOINT_EVERY, WORKLOADS, WRITE_EVERY, KHopCapture, Workload,
    percentile, spec_for,
)

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"


def reference_work() -> float:
    """Seconds for a fixed numpy + interpreter workload (host-drift probe;
    recorded as metadata, never gated)."""
    times = []
    data = np.random.default_rng(0).random(1_000_000)
    for _ in range(3):
        t = time.perf_counter()
        np.sort(data)
        sum(i * i for i in range(300_000))
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=HERE.parent, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def tail(values) -> tuple[float, int, int]:
    """The highest of p99/p95/p90 with at least ten samples beyond it, as
    ``(value, percentile, samples beyond)``; the maximum when no
    percentile qualifies (fewer than 100 samples)."""
    for pct in (99, 95, 90):
        value = percentile(values, pct)
        beyond = int(sum(v > value for v in values))
        if beyond >= 10:
            return value, pct, beyond
    return float(max(values)), 100, 0


def build(spec, name: str, seed: int, instr=None) -> tuple:
    """Set up ``setup_reps`` times; keep the last instance for timing."""
    times, timings, errors = [], [], []
    for rep in range(spec.setup_reps):
        last = rep == spec.setup_reps - 1
        w = Workload(spec, seed, OUT / f"wal-{name}-{seed}-{rep}",
                     instrumentation=instr if last else None)
        times.append(w.setup())
        timings.append(w.timings)
        if not last:
            w.close()
            errors += w.errors
            del w
            gc.collect()
    return w, times, timings, errors


def run_units(w: Workload, units: int, start: int, rates=None) -> tuple:
    """The closed loop over ``units`` k-hop waves (ids from ``start``) or
    mixed cycles; returns ``(wall seconds, wave ids)``.  A raised error is a
    failed operation and stops the loop.  With ``rates``, appends the
    operations per second of every whole block of ``BLOCK`` units."""
    spec = w.spec
    done: list[int] = []
    t0 = time.perf_counter()
    mark = (t0, w.attempted)
    try:
        for u in range(units):
            if rates is not None and u and u % BLOCK == 0:
                now = time.perf_counter()
                rates.append((w.attempted - mark[1]) / (now - mark[0]))
                mark = (now, w.attempted)
            if spec.kind == "khop":
                w.run_khop_wave(start + u)
                done.append(start + u)
            else:
                w.run_cycle()
                first = start + u * WRITE_EVERY
                done.extend(range(first, first + WRITE_EVERY))
    except Exception:
        w.errors.append("raised: " + traceback.format_exc(limit=4))
        w.attempted += 1
        w.failed += 1
    end = time.perf_counter()
    if rates is not None and units % BLOCK == 0 and not w.errors:
        rates.append((w.attempted - mark[1]) / (end - mark[0]))
    return end - t0, done


def gate(w: Workload, captured, waves, first_cycle) -> None:
    """The correctness gate, off the clock."""
    if w.spec.kind == "khop":
        w.check_khop_answers(captured, waves)
    else:
        w.check_mixed_answers(captured, first_cycle)


def finish(w: Workload, errors: list, metrics: dict) -> dict:
    correct = not errors
    attempted = max(1, w.attempted)
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": w.failed if correct else attempted,
        "metrics": {k: {"value": float(v), "unit": u}
                    for k, (v, u) in metrics.items()},
        "_errors": errors,
    }


def untraced(spec, name, seed, seconds, meta) -> dict:
    capture = KHopCapture()
    capture.install()
    try:
        w, setup_times, timings, errors = build(spec, name, seed)
        capture.results.clear()
        first_cycle = getattr(w, "cycle", 0)
        units = max(1, round(seconds * spec.rate))
        gc.collect()
        rates: list[float] = []
        wall, waves = run_units(w, units, 0, rates)
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        gate(w, capture.results, waves, first_cycle)
    finally:
        capture.uninstall()
    w.close()
    errors += w.errors
    tail_s, pct, beyond = tail(w.latencies)
    metrics = {
        # median over blocks: robust to a burst of host contention
        "qps": (statistics.median(rates) if rates else w.attempted / wall,
                "queries/s"),
        "p50_ms": (percentile(w.latencies, 50) * 1e3, "ms"),
        "tail_ms": (tail_s * 1e3, "ms"),
        "setup_s": (statistics.median(setup_times), "s"),
        "rss_mb": (rss, "MiB"),
    }
    meta.update(
        timed_wall_s=wall, units=units, read_waves=len(w.latencies),
        mean_qps=w.attempted / wall, qps_blocks=len(rates),
        tail_percentile=f"p{pct}", tail_samples_beyond=beyond,
        setup_samples=setup_times, setup_parts=timings,
        graph_vertices=w.num_vertices, graph_edges=int(w.edges.num_edges),
    )
    describe_modes(w, meta)
    return finish(w, errors, metrics)


def describe_modes(w: Workload, meta: dict) -> None:
    """Latency modes and their shares (mixed only): read waves right after
    a write repack the index; every ``CHECKPOINT_EVERY``-th write
    checkpoints."""
    if w.spec.kind != "mixed":
        return
    lat = np.asarray(w.latencies) * 1e3
    slow = np.asarray(w.slow_wave)
    meta["read_modes"] = {
        "post_write_share": float(slow.mean()),
        "post_write_p50_ms": float(np.median(lat[slow])),
        "other_p50_ms": float(np.median(lat[~slow])),
    }
    wl = list(np.asarray(w.write_latencies) * 1e3)
    value, pct, beyond = tail(wl)
    meta["write_modes"] = {
        "writes": len(wl),
        "checkpoint_share": 1.0 / CHECKPOINT_EVERY,
        "p50_ms": float(np.median(wl)),
        f"p{pct}_ms": value,
        "samples_beyond_tail": beyond,
    }


def khop_counts(results) -> dict:
    push = sum(r.push_partition_steps for r in results)
    pull = sum(r.pull_partition_steps for r in results)
    return {
        "engine.supersteps": (sum(r.supersteps for r in results), "count"),
        "khop.edges_scanned": (sum(r.total_edges_scanned for r in results), "count"),
        "comm.messages": (sum(r.total_messages for r in results), "count"),
        "comm.bytes": (sum(r.total_bytes for r in results), "bytes"),
        "khop.pull_frac": (pull / (push + pull) if push + pull else 0.0, "ratio"),
    }


def worker_split(instr) -> dict:
    """Per-superstep worker compute walls from the telemetry compute spans."""
    by_step: dict[int, list[float]] = {}
    for s in instr.tracer.spans:
        if s.cat == "compute" and "wall_ms" in s.args:
            by_step.setdefault(s.parent_id, []).append(s.args["wall_ms"] / 1e3)
    return {
        "compute": sum(sum(v) for v in by_step.values()),
        "max": sum(max(v) for v in by_step.values()),
        "imbalance": sum(max(v) - sum(v) / len(v) for v in by_step.values()),
        "steps": len(by_step),
    }


def counters(w: Workload) -> dict:
    out = {"hits": 0, "misses": 0, "wal.fsyncs": 0, "wal.bytes": 0,
           "durability.checkpoints": 0, "recoveries": 0}
    if w.spec.kind == "mixed":
        out.update({
            "hits": w.cache.hits, "misses": w.cache.misses,
            "wal.fsyncs": w.durability.wal.fsyncs,
            "wal.bytes": w.durability.wal.bytes_written,
            "durability.checkpoints": w.durability.checkpoints,
        })
    if w.spec.backend == "pool":
        out["recoveries"] = w.session.pool().recoveries
    return out


# per-layer self-time metrics: metric name -> recorder layer
SELF_TIMES = {
    "scheduler.self_s": "scheduler",
    "session.self_s": "session",
    "khop.driver_s": "khop.driver",
    "khop.compute_s": "khop.compute",
    "engine.self_s": "engine",
    "comm.exchange_s": "comm.exchange",
    "comm.combine_s": "comm.combine",
    "index.lookup_s": "index.lookup",
    "cache.lookup_s": "cache.lookup",
    "dynamic.apply_s": "dynamic.apply",
    "index.patch_s": "index.patch",
    "index.repack_s": "index.repack",
    "wal.append_s": "wal.append",
    "wal.fsync_s": "wal.fsync",
    "durability.write_s": "durability.write",
    "durability.checkpoint_s": "durability.checkpoint",
}


def traced(spec, name, seed, meta) -> dict:
    """Untraced and traced blocks alternate (a traced k-hop block replays
    the roots of the untraced block before it; a mixed block continues the
    stream and holds exactly one checkpoint), so stream drift cancels out
    of ``trace.overhead``.  Per-layer numbers come from traced blocks."""
    from repro.telemetry.instrument import Instrumentation

    instr = None
    if spec.backend == "pool":
        # worker compute walls come from the telemetry compute spans
        instr = Instrumentation(flight_recorder_spans=1_000_000)
        instr.enabled = False
    capture = KHopCapture()
    capture.install()
    recorder = SpanRecorder()
    wall_a = wall_b = 0.0
    waves: list[int] = []
    traced_results: list = []
    writes_a: list[float] = []
    delta: dict[str, int] = {}
    try:
        w, setup_times, timings, errors = build(spec, name, seed, instr)
        capture.results.clear()
        first_cycle = getattr(w, "cycle", 0)
        gc.collect()
        origin = time.perf_counter()
        for b in range(0, spec.trace_units, BLOCK):
            units = min(BLOCK, spec.trace_units - b)
            start = b if spec.kind == "khop" else len(waves)
            n_writes = len(w.write_latencies)
            wall, done = run_units(w, units, start)
            wall_a += wall
            waves += done
            writes_a += w.write_latencies[n_writes:]
            # the traced twin block
            before = counters(w)
            routes = (w.routes_served, w.points_served)
            n_captured = len(capture.results)
            if instr is not None:
                instr.enabled = True
            recorder.install()
            try:
                start = b if spec.kind == "khop" else len(waves)
                wall, done = run_units(w, units, start)
            finally:
                recorder.uninstall()
                if instr is not None:
                    instr.enabled = False
            wall_b += wall
            waves += done
            traced_results += capture.results[n_captured:]
            after = counters(w)
            for key in after:
                delta[key] = delta.get(key, 0) + after[key] - before[key]
            delta["routes"] = delta.get("routes", 0) + w.routes_served - routes[0]
            delta["points"] = delta.get("points", 0) + w.points_served - routes[1]
        gate(w, capture.results, waves, first_cycle)
    finally:
        recorder.uninstall()
        capture.uninstall()
    trace_file = OUT / f"trace-{name}-s{seed}.json"
    recorder.write_chrome_trace(trace_file, origin)
    split = worker_split(instr) if instr is not None else None
    w.close()
    errors += w.errors
    worker_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    st = recorder.self_times()
    calls = recorder.counts()
    m = {key: (st.get(layer, 0.0), "s") for key, layer in SELF_TIMES.items()}
    m["pool.run_s"] = (recorder.totals().get("pool.run", 0.0), "s")
    m.update(khop_counts(traced_results))
    m["comm.combine_ratio"] = (
        recorder.combine_in / recorder.combine_out if recorder.combine_out else 0.0,
        "ratio",
    )
    pool_metrics = {"pool.worker_compute_s": 0.0, "pool.imbalance_s": 0.0,
                    "pool.ipc_s": 0.0, "pool.start_s": 0.0,
                    "pool.recoveries": 0, "pool.worker_rss_mb": 0.0}
    if split is not None:
        pool_metrics.update({
            "pool.worker_compute_s": split["compute"],
            "pool.imbalance_s": split["imbalance"],
            "pool.ipc_s": m["pool.run_s"][0] - split["max"],
            "pool.start_s": statistics.median(t["pool_start_s"] for t in timings),
            "pool.recoveries": delta["recoveries"],
            "pool.worker_rss_mb": worker_rss,
        })
    for key, v in pool_metrics.items():
        unit = ("count" if key.endswith("recoveries") else
                "MiB" if key.endswith("_mb") else "s")
        m[key] = (v, unit)
    m["index.route_frac"] = (
        delta["routes"] / delta["points"] if delta["points"] else 0.0, "ratio"
    )
    looks = delta["hits"] + delta["misses"]
    m["cache.hit_ratio"] = (delta["hits"] / looks if looks else 0.0, "ratio")
    m["index.rebuilds"] = (calls.get("index.rebuild", 0), "count")
    m["wal.fsyncs"] = (delta["wal.fsyncs"], "count")
    m["wal.bytes"] = (delta["wal.bytes"], "bytes")
    m["durability.checkpoints"] = (delta["durability.checkpoints"], "count")
    write_ms = [x * 1e3 for x in writes_a]
    m["write.p50_ms"] = (percentile(write_ms, 50) if write_ms else 0.0, "ms")
    m["write.tail_ms"] = (tail(write_ms)[0] if write_ms else 0.0, "ms")
    for part in ("graph_s", "index_build_s", "warmup_s"):
        vals = [t.get(part, 0.0) for t in timings]
        m[f"setup.{part}"] = (statistics.median(vals), "s")
    m["trace.overhead"] = (wall_b / wall_a, "ratio")
    m["trace.coverage"] = (sum(st.values()) / wall_b, "ratio")
    meta.update(
        untraced_wall_s=wall_a, traced_wall_s=wall_b,
        units_per_phase=spec.trace_units, setup_samples=setup_times,
        layer_calls=calls, graph_vertices=w.num_vertices,
        graph_edges=int(w.edges.num_edges),
        trace_file=str(trace_file.relative_to(HERE.parent)),
    )
    if write_ms:
        meta["write_tail_percentile"] = f"p{tail(write_ms)[1]}"
        meta["writes_untraced"] = len(write_ms)
    if split is not None:
        meta["pool_supersteps_traced"] = split["steps"]
    return finish(w, errors, m)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="shrunk inputs for the smoke test")
    args = ap.parse_args(argv)
    spec = spec_for(args.workload, args.tiny)
    cores = len(os.sched_getaffinity(0))
    if spec.backend == "pool" and cores < spec.machines:
        print(f"{args.workload} needs {spec.machines} cores", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    why = {w["name"]: w["why"] for w in bench["workloads"]}[args.workload]
    meta = {
        "workload": args.workload, "why": why, "seed": args.seed,
        "trace": args.trace, "git_sha": git_sha(), "cores": cores,
        "python": platform.python_version(), "numpy": np.__version__,
        "reference_work_s": reference_work(),
    }
    if args.trace:
        result = traced(spec, args.workload, args.seed, meta)
    else:
        result = untraced(spec, args.workload, args.seed, args.seconds, meta)
    errors = result.pop("_errors")
    meta.update(errors=errors[:20], attempted=result["attempted"],
                failed=result["failed"], metrics=result["metrics"])
    suffix = f"{args.workload}-s{args.seed}-t{args.trace}"
    (OUT / f"run-{suffix}.json").write_text(json.dumps(meta, indent=1, default=str))
    for line in errors[:20]:
        print(f"# error: {line}", file=sys.stderr)
    for key in ("workload", "seed", "git_sha", "cores", "python", "numpy",
                "reference_work_s", "graph_vertices", "graph_edges", "units",
                "read_waves", "tail_percentile", "tail_samples_beyond",
                "read_modes", "write_modes", "trace_file"):
        if key in meta:
            print(f"# {key}: {meta[key]}")
    print(f"# why: {why}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
