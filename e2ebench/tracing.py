"""Wall-clock spans around the public callables of each ``repro`` layer.

Only the traced run installs these wrappers.  Each wrapper replaces the
name where its caller looks it up (a class attribute for methods, the
importing module's global for ``exchange_sync``), records one span per
call into an in-memory list, and is removed again by :meth:`uninstall`.
A layer's self time is the sum of its spans minus the time covered by
their child spans; spans nest strictly because the coordinator is one
thread.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path

# (layer, module, owner, attribute): ``owner`` None means a module global.
WRAPPED = [
    ("scheduler", "repro.runtime.scheduler", "QueryService", "drain"),
    ("scheduler", "repro.runtime.scheduler", "QueryService", "submit_many"),
    ("scheduler", "repro.runtime.scheduler", "QueryService", "apply_mutations"),
    ("session", "repro.runtime.session", "GraphSession", "apply_mutations"),
    ("session", "repro.runtime.session", "GraphSession", "run_batch"),
    ("session", "repro.runtime.session", "GraphSession", "run_batch_pool"),
    ("session", "repro.runtime.session", "GraphSession", "gather_batch"),
    ("khop.driver", "repro.core.khop", None, "concurrent_khop"),
    ("khop.compute", "repro.core.khop", "KHopPartitionTask", "compute"),
    ("khop.compute", "repro.core.khop", "KHopPartitionTask", "apply_inbox"),
    ("khop.compute", "repro.core.khop", "KHopPartitionTask", "finalize"),
    ("engine", "repro.runtime.engine", "SuperstepEngine", "run"),
    ("comm.exchange", "repro.runtime.engine", None, "exchange_sync"),
    ("comm.combine", "repro.runtime.message", "TaskBuffer", "merged"),
    ("pool.run", "repro.runtime.pool", "WorkerPool", "run"),
    ("index.lookup", "repro.index.planner", "IndexPlanner", "answer"),
    ("index.lookup", "repro.index.planner", "IndexPlanner", "answer_cached"),
    ("cache.lookup", "repro.qos.cache", "ResultCache", "lookup_many"),
    ("cache.lookup", "repro.qos.cache", "ResultCache", "store_many"),
    ("dynamic.apply", "repro.dynamic.delta", "DynamicGraph", "apply"),
    ("index.patch", "repro.index.incremental", "IncrementalIndex", "apply"),
    ("index.repack", "repro.index.incremental", "IncrementalIndex", "finalize"),
    ("index.rebuild", "repro.index.build", None, "build_hub_labels"),
    ("wal.append", "repro.dynamic.wal", "WriteAheadLog", "append"),
    ("wal.fsync", "repro.dynamic.wal", "WriteAheadLog", "sync"),
    ("durability.write", "repro.runtime.durability", "DurabilityManager", "on_mutation"),
    ("durability.checkpoint", "repro.runtime.durability", "DurabilityManager", "checkpoint"),
]


class SpanRecorder:
    """Installs the wrappers and keeps every span in memory."""

    def __init__(self):
        # one row per span: [layer, start, end, parent index, extra]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []
        #: MessageBatch tasks into / out of TaskBuffer.merged
        self.combine_in = 0
        self.combine_out = 0

    def _wrap(self, layer: str, fn, attr: str):
        spans, stack, perf = self.spans, self._stack, time.perf_counter
        count_combine = attr == "merged"

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([layer, perf(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = perf()
            if count_combine and out is not None:
                batches = args[0]._batches.get(args[1], ())
                self.combine_in += sum(b.num_tasks for b in batches)
                self.combine_out += out.num_tasks
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        import importlib

        for layer, modname, owner, attr in WRAPPED:
            mod = importlib.import_module(modname)
            target = getattr(mod, owner) if owner else mod
            original = target.__dict__[attr] if owner else getattr(mod, attr)
            setattr(target, attr, self._wrap(layer, original, attr))
            self._patched.append((target, attr, original))

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._patched):
            setattr(target, attr, original)
        self._patched.clear()

    # -- reading ------------------------------------------------------------ #

    def self_times(self) -> dict[str, float]:
        """Per-layer self seconds (span minus its direct children)."""
        child = [0.0] * len(self.spans)
        for layer, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (layer, start, end, _) in enumerate(self.spans):
            out[layer] += (end - start) - child[i]
        return dict(out)

    def totals(self) -> dict[str, float]:
        """Per-layer inclusive seconds of outermost spans of that layer."""
        out: dict[str, float] = defaultdict(float)
        for layer, start, end, parent in self.spans:
            if parent < 0 or self.spans[parent][0] != layer:
                out[layer] += end - start
        return dict(out)

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for row in self.spans:
            out[row[0]] += 1
        return dict(out)

    def write_chrome_trace(self, path: Path, origin: float) -> None:
        """Dump the spans as Chrome trace-event JSON (wall microseconds)."""
        events = [
            {
                "name": layer,
                "cat": layer.split(".")[0],
                "ph": "X",
                "ts": round((start - origin) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "pid": 1,
                "tid": 0,
                "args": {"span_id": i, "parent_id": parent},
            }
            for i, (layer, start, end, parent) in enumerate(self.spans)
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps({"traceEvents": events, "displayTimeUnit": "ms"})
        )
