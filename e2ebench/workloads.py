"""The benchmark's workloads: seeded inputs, the closed client loop, and
the correctness gate.

The graphs and the write stream are a fixed dataset; ``--seed`` drives
the k-hop roots, the point pairs and their Zipf draws.  The program under
test only sees the generated inputs, through the public ``GraphSession`` /
``QueryService`` API.  One client drives a closed loop: the next wave is
submitted only after ``drain`` returned the previous one.
"""

from __future__ import annotations

import gc
import shutil
import time
from dataclasses import dataclass, replace

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from repro import GraphSession, QueryService
from repro.graph.generators import rmat_edges
from repro.qos.cache import ResultCache


K = 3  # hop budget of every query
ZIPF = 1.1  # skew of point-pair popularity
WRITE_EVERY = 4  # mixed: one write batch before every 4th wave
INSERTS = 4  # fresh edges per write batch
CHECKPOINT_EVERY = 8  # the durability manager's default
BLOCK = 8  # units per throughput sample and per traced/untraced block
WARMUP_WAVES = 2  # k-hop waves before the clock starts
#: The graph and the mixed write stream are a fixed dataset; ``--seed``
#: drives the k-hop roots, the point pairs and their Zipf draws.  Other
#: R-MAT instances, or other insert streams, change index size and repack
#: cost by more than the bounds the benchmark gates on.
GRAPH_SEED = 1


@dataclass(frozen=True)
class Spec:
    kind: str  # "khop" or "mixed"
    scale: int
    gen_edges: int
    machines: int
    #: Timed units (k-hop waves, or mixed cycles of one write and
    #: ``WRITE_EVERY`` waves) per ``--seconds`` of work: the rate measured
    #: on the reference 2-core host.  A run does a fixed amount of work, so
    #: it covers the same stream positions and sample counts on any host.
    rate: float
    trace_units: int  # per phase of the traced run
    backend: str = "inproc"
    wave: int = 64  # k-hop roots per wave (one bit-parallel batch)
    points: int = 0  # point-reachability queries per mixed wave
    pair_pool: int = 0
    setup_reps: int = 3  # setup_s is their median


#: Why each workload was chosen is recorded in ``BENCHMARK.json``.
WORKLOADS = {
    "khop-inproc": Spec(kind="khop", scale=16, gen_edges=800_000, machines=4,
                        rate=5.5, trace_units=40),
    "khop-pool": Spec(kind="khop", scale=16, gen_edges=800_000, machines=2,
                      backend="pool", rate=11.0, trace_units=80),
    "mixed-durable": Spec(kind="mixed", scale=12, gen_edges=60_000, machines=4,
                          wave=8, points=256, pair_pool=2048, rate=6.0,
                          trace_units=104),
}

#: Shrunk copies for the smoke test; same code paths, seconds not minutes.
TINY = {
    "khop-inproc": dict(scale=10, gen_edges=8_000, rate=40, trace_units=16,
                        setup_reps=2),
    "khop-pool": dict(scale=10, gen_edges=8_000, rate=40, trace_units=16,
                      setup_reps=2),
    "mixed-durable": dict(scale=8, gen_edges=1_500, points=32, pair_pool=128,
                          rate=16, trace_units=16, setup_reps=2),
}


def spec_for(name: str, tiny: bool = False) -> Spec:
    spec = WORKLOADS[name]
    return replace(spec, **TINY[name]) if tiny else spec


def percentile(values, pct: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), pct))


def edge_keys(src, dst, n: int) -> np.ndarray:
    return np.asarray(src, dtype=np.int64) * n + np.asarray(dst, dtype=np.int64)


# --------------------------------------------------------------------------- #
# the oracle: scipy BFS, independent of every repro traversal path
# --------------------------------------------------------------------------- #


def hop_distances(keys: np.ndarray, n: int, sources, k: int) -> np.ndarray:
    """Hop distance (inf beyond ``k``) from each source, on the edge set
    given as ``src * n + dst`` keys."""
    src, dst = np.divmod(np.asarray(keys, dtype=np.int64), n)
    adj = csr_matrix(
        (np.ones(src.size, dtype=np.float64), (src, dst)), shape=(n, n)
    )
    return dijkstra(adj, directed=True, indices=np.asarray(sources),
                    unweighted=True, limit=k)


def check_khop(keys, n: int, k: int, sources, reached) -> list[str]:
    """Reach counts (source included) against the oracle."""
    dist = hop_distances(keys, n, sources, k)
    want = np.isfinite(dist).sum(axis=1)
    bad = np.nonzero(want != np.asarray(reached))[0]
    return [
        f"k-hop reach of root {int(sources[i])}: service {int(reached[i])}, "
        f"oracle {int(want[i])}"
        for i in bad
    ]


def check_points(keys, n: int, k: int, sources, targets, verdicts) -> list[str]:
    """Point verdicts (is target within k hops) against the oracle."""
    uniq, inv = np.unique(np.asarray(sources), return_inverse=True)
    dist = hop_distances(keys, n, uniq, k)
    want = np.isfinite(dist[inv, np.asarray(targets)]).astype(np.int8)
    bad = np.nonzero(want != np.asarray(verdicts, dtype=np.int8))[0]
    return [
        f"point {int(sources[i])}->{int(targets[i])}: service "
        f"{int(verdicts[i])}, oracle {int(want[i])}"
        for i in bad
    ]


# --------------------------------------------------------------------------- #
# capturing the service's k-hop answers (both runs; one call per wave)
# --------------------------------------------------------------------------- #


class KHopCapture:
    """Keeps ``(sources, reached)`` of every k-hop batch the service runs.

    ``QueryService`` imports ``concurrent_khop`` from ``repro.core.khop`` at
    call time, so replacing the module attribute sees every dispatch.
    """

    def __init__(self):
        self.results: list = []
        self._orig = None

    def install(self) -> None:
        import repro.core.khop as khop

        self._orig = orig = khop.concurrent_khop
        results = self.results

        def capture(*args, **kwargs):
            res = orig(*args, **kwargs)
            results.append(res)
            return res

        khop.concurrent_khop = capture

    def uninstall(self) -> None:
        import repro.core.khop as khop

        if self._orig is not None:
            khop.concurrent_khop = self._orig
            self._orig = None


# --------------------------------------------------------------------------- #
# workloads
# --------------------------------------------------------------------------- #


class Workload:
    """One built instance: graph, session, service and input streams."""

    def __init__(self, spec: Spec, seed: int, workdir, instrumentation=None):
        self.spec = spec
        self.seed = int(seed)
        self.workdir = workdir
        self.instr = instrumentation
        self.timings: dict[str, float] = {}
        self.latencies: list[float] = []  # read waves, seconds
        self.slow_wave: list[bool] = []  # read wave right after a write
        self.write_latencies: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.pool_segments: list[str] = []
        self.routes_served = 0  # point queries answered by index or cache
        self.points_served = 0
        self.closed = False

    # -- inputs --------------------------------------------------------------- #

    def _graph(self):
        s = self.spec
        edges = rmat_edges(s.scale, s.gen_edges, seed=GRAPH_SEED)
        edges = edges.remove_self_loops()
        # k-hop graphs are symmetrised (social-network style); the mixed
        # graph stays directed so the index answers directed reachability
        return edges.symmetrize() if s.kind == "khop" else edges.deduplicate()

    def wave_roots(self, i: int, size: int) -> np.ndarray:
        rng = np.random.default_rng([self.seed, 11, i])
        return rng.integers(0, self.num_vertices, size)

    # -- set-up (everything setup_s covers) ------------------------------------ #

    def setup(self) -> float:
        s = self.spec
        t0 = time.perf_counter()
        self.edges = self._graph()
        self.num_vertices = int(self.edges.num_vertices)
        t1 = time.perf_counter()
        self.timings["graph_s"] = t1 - t0
        self.session = GraphSession(
            self.edges, num_machines=s.machines, backend=s.backend,
            instrumentation=self.instr,
        )
        if s.backend == "pool":
            t = time.perf_counter()
            pool = self.session.pool()
            self.timings["pool_start_s"] = time.perf_counter() - t
            self.pool_segments = pool.segment_names()
        if s.kind == "khop":
            self.service = QueryService(self.session, K)
        else:
            self._setup_mixed()
        t2 = time.perf_counter()
        self.warmup()
        t3 = time.perf_counter()
        self.timings["warmup_s"] = t3 - t2
        return t3 - t0

    def _setup_mixed(self) -> None:
        s = self.spec
        sess = self.session
        sess.dynamic()
        t = time.perf_counter()
        sess.index()
        self.timings["index_build_s"] = time.perf_counter() - t
        self.wal_dir = self.workdir
        shutil.rmtree(self.wal_dir, ignore_errors=True)
        self.durability = sess.enable_durability(
            self.wal_dir, fsync="batch", checkpoint_every=CHECKPOINT_EVERY
        )
        self.cache = ResultCache(capacity=4 * s.pair_pool)
        self.service = QueryService(
            sess, K, planner="hybrid", cache=self.cache
        )
        n = self.num_vertices
        rng = np.random.default_rng([self.seed, 5])
        pairs = rng.integers(0, n, (s.pair_pool, 2))
        self.pairs = pairs[pairs[:, 0] != pairs[:, 1]]
        weights = 1.0 / np.arange(1, len(self.pairs) + 1) ** ZIPF
        self.pair_cdf = np.cumsum(weights / weights.sum())
        self.base_keys = np.unique(edge_keys(self.edges.src, self.edges.dst, n))
        self.present = set(self.base_keys.tolist())
        self.write_rng = np.random.default_rng([GRAPH_SEED, 3])
        self.inserted: list[np.ndarray] = []  # applied write batches, in order
        self.samples: list[tuple] = []  # (writes applied, src, tgt, verdicts)
        self.cycle = 0

    def warmup(self) -> None:
        """Off the clock: pool task install, the first IncrementalIndex
        construction and first repack (mixed), first-touch of every plane."""
        if self.spec.kind == "khop":
            for i in range(WARMUP_WAVES):
                roots = np.random.default_rng([self.seed, 99, i]).integers(
                    0, self.num_vertices, self.spec.wave
                )
                t = time.perf_counter()
                self.service.submit_many(roots)
                self._check_report(self.service.drain(), self.spec.wave)
                if i == 0 and "pool_start_s" in self.timings:
                    # workers import and attach lazily: spawn counts
                    # until the first wave is answered
                    self.timings["pool_start_s"] += time.perf_counter() - t
        else:
            self.run_cycle(record=False)
        if self.errors:
            raise RuntimeError("warm-up failed: " + "; ".join(self.errors))

    # -- the timed units -------------------------------------------------------- #

    def _check_report(self, rep, expected: int) -> bool:
        ok = (
            rep.num_queries == expected
            and bool(np.isfinite(rep.finish_seconds).all())
            and not rep.degraded
            and rep.shed == 0
            and (rep.deadline_missed is None or not rep.deadline_missed.any())
        )
        if not ok:
            self.errors.append(
                f"bad report: {rep.num_queries}/{expected} queries, "
                f"degraded={rep.degraded}, shed={rep.shed}"
            )
        return ok

    def run_khop_wave(self, i: int) -> None:
        roots = self.wave_roots(i, self.spec.wave)
        t0 = time.perf_counter()
        self.service.submit_many(roots)
        rep = self.service.drain()
        self.latencies.append(time.perf_counter() - t0)
        self.slow_wave.append(False)
        self.attempted += roots.size
        if not self._check_report(rep, roots.size):
            self.failed += roots.size

    def _next_write(self) -> np.ndarray:
        n = self.num_vertices
        batch = []
        while len(batch) < INSERTS:
            u, v = (int(x) for x in self.write_rng.integers(0, n, 2))
            key = u * n + v
            if u != v and key not in self.present:
                self.present.add(key)
                batch.append((u, v))
        return np.array(batch, dtype=np.int64)

    def run_cycle(self, record: bool = True) -> None:
        """Mixed: one acknowledged write batch, then ``WRITE_EVERY`` waves."""
        s = self.spec
        ins = self._next_write()
        t0 = time.perf_counter()
        res = self.service.apply_mutations(ins)
        dt = time.perf_counter() - t0
        self.inserted.append(ins)
        if record:
            self.write_latencies.append(dt)
            self.attempted += 1
        if res.inserted.shape[0] != ins.shape[0]:
            self.errors.append(f"write {self.cycle}: {res.inserted.shape[0]} "
                               f"of {ins.shape[0]} inserts took effect")
            self.failed += int(record)
        rng = np.random.default_rng([self.seed, 13, self.cycle])
        for j in range(WRITE_EVERY):
            idx = np.searchsorted(self.pair_cdf, rng.random(s.points))
            idx = np.minimum(idx, len(self.pairs) - 1)
            src, tgt = self.pairs[idx, 0], self.pairs[idx, 1]
            roots = rng.integers(0, self.num_vertices, s.wave)
            t0 = time.perf_counter()
            self.service.submit_many(src, targets=tgt)
            self.service.submit_many(roots)
            rep = self.service.drain()
            dt = time.perf_counter() - t0
            total = s.points + s.wave
            ok = self._check_report(rep, total)
            if record:
                self.latencies.append(dt)
                self.slow_wave.append(j == 0)
                self.attempted += total
                self.failed += 0 if ok else total
                self.routes_served += int((rep.routes[: s.points] != "traversal").sum())
                self.points_served += s.points
            # sample every 8th wave for the oracle (cheap to keep: 256 int8)
            if record and (self.cycle * WRITE_EVERY + j) % 8 == 3:
                self.samples.append(
                    (len(self.inserted), src, tgt, rep.reachable[: s.points].copy())
                )
        self.cycle += 1

    # -- correctness gate (off the clock) ------------------------------------- #

    def check_khop_answers(self, captured, waves: list[int], sample: int = 4) -> None:
        """Seeded sample of timed roots vs the oracle; ``captured[i]`` is
        the k-hop result of timed wave ``waves[i]``."""
        n, k = self.num_vertices, K
        keys = edge_keys(self.edges.src, self.edges.dst, n)
        rng = np.random.default_rng([self.seed, 17])
        if len(captured) != len(waves):
            self.errors.append(
                f"{len(captured)} k-hop batches for {len(waves)} waves"
            )
            return
        picks = rng.choice(len(waves), size=min(8, len(waves)), replace=False)
        srcs, got = [], []
        for p in sorted(picks.tolist()):
            res = captured[p]
            want_roots = self.wave_roots(waves[p], self.spec.wave)
            if not np.array_equal(res.sources, want_roots):
                self.errors.append(f"wave {waves[p]}: batch roots differ")
                continue
            cols = rng.choice(res.sources.size, size=sample, replace=False)
            srcs.extend(res.sources[cols].tolist())
            got.extend(res.reached[cols].tolist())
        if srcs:
            self.errors += check_khop(keys, n, k, np.array(srcs), np.array(got))

    def epoch_keys(self, writes: int) -> np.ndarray:
        if writes == 0:
            return self.base_keys
        ins = np.concatenate(self.inserted[:writes])
        return np.concatenate(
            [self.base_keys, edge_keys(ins[:, 0], ins[:, 1], self.num_vertices)]
        )

    def check_mixed_answers(self, captured, first_cycle: int) -> None:
        """Sampled point verdicts and enumeration counts against the oracle
        on each wave's epoch edge set; the final edge set; a restart."""
        s, n = self.spec, self.num_vertices
        for writes, src, tgt, verdicts in self.samples:
            self.errors += check_points(
                self.epoch_keys(writes), n, K, src, tgt, verdicts
            )
        # enumeration batches: one per timed wave, cycles from first_cycle
        for i in range(0, len(captured), 16):
            writes = first_cycle + i // WRITE_EVERY + 1
            res = captured[i]
            self.errors += check_khop(
                self.epoch_keys(writes), n, K, res.sources, res.reached
            )
        want = np.sort(self.epoch_keys(len(self.inserted)))
        live = self.session.dynamic().materialize_edges()
        got = np.sort(edge_keys(live.src, live.dst, n))
        if not np.array_equal(got, want):
            self.errors.append("final edge set differs from base + stream")
        self.check_restart(want)

    def check_restart(self, want_keys: np.ndarray) -> None:
        """Every acknowledged write must survive a restart from the WAL."""
        from repro.runtime.durability import recover_session

        epoch = self.session.graph_epoch
        self.durability.close()
        rec = recover_session(self.wal_dir)
        try:
            if rec.graph_epoch != epoch:
                self.errors.append(
                    f"recovered epoch {rec.graph_epoch}, expected {epoch}"
                )
            live = rec.dynamic().materialize_edges()
            got = np.sort(edge_keys(live.src, live.dst, self.num_vertices))
            if not np.array_equal(got, want_keys):
                self.errors.append("recovered edge set differs")
        finally:
            rec.close()
            if rec.is_durable:
                rec._durability.close()

    # -- teardown ---------------------------------------------------------------- #

    def close(self) -> None:
        """Release processes and segments; report any that outlive close."""
        if self.closed:
            return
        self.closed = True
        import multiprocessing as mp
        from multiprocessing import shared_memory

        if self.spec.kind == "mixed" and self.session.is_durable:
            self.durability.close()
        self.session.close()
        leaked = [p.name for p in mp.active_children()
                  if p.name.startswith("repro-pool-")]
        for name in self.pool_segments:
            try:
                seg = shared_memory.SharedMemory(name=name)
            except FileNotFoundError:
                continue
            seg.close()
            leaked.append(name)
        if leaked:
            self.errors.append(f"leaked after close: {leaked}")
        if self.spec.kind == "mixed":
            shutil.rmtree(self.wal_dir, ignore_errors=True)
        gc.collect()
