"""Typed message batches and the inbox/outbox task buffers of Figure 4/5.

Each partition owns an *incoming task buffer* (inbox) and a *remote task
buffer* (outbox).  "Each task is associated with the destination vertex's
unique ID" — a :class:`MessageBatch` carries a destination-vertex array plus
a same-length payload array, following the mpi4py idiom of shipping numpy
buffers rather than per-object messages.

Batches destined for the same partition can be *combined* before (or after)
the wire: k-hop traversals combine by bitwise OR of query bit-masks, SSSP by
elementwise minimum.  Combining models the paper's observation that
concurrent queries share vertices — one message per vertex serves all
queries in the batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "MessageBatch",
    "TaskBuffer",
    "combine_or",
    "combine_min",
    "combine_sum",
    "route_by_owner",
]


@dataclass
class MessageBatch:
    """A batch of tasks for one destination partition.

    ``vertices`` are **global** destination vertex ids; ``payload`` is the
    per-vertex message value (``uint64`` query bits for traversals,
    ``float64`` distances for SSSP, etc.).
    """

    vertices: np.ndarray
    payload: np.ndarray

    def __post_init__(self) -> None:
        self.vertices = np.asarray(self.vertices)
        self.payload = np.asarray(self.payload)
        if self.vertices.shape[0] != self.payload.shape[0]:
            raise ValueError("vertices/payload length mismatch")

    @property
    def num_tasks(self) -> int:
        return int(self.vertices.size)

    def nbytes(self) -> int:
        """Wire size: what the network model charges for this batch."""
        return int(self.vertices.nbytes + self.payload.nbytes)


def combine_or(batch: MessageBatch) -> MessageBatch:
    """Deduplicate destinations, OR-ing payload bits (traversal combiner)."""
    return _combine(batch, np.bitwise_or)


def combine_min(batch: MessageBatch) -> MessageBatch:
    """Deduplicate destinations, keeping the minimum payload (SSSP combiner)."""
    return _combine(batch, np.minimum)


def combine_sum(batch: MessageBatch) -> MessageBatch:
    """Deduplicate destinations, summing payloads (GAS gather combiner)."""
    return _combine(batch, np.add)


def _combine(batch: MessageBatch, op) -> MessageBatch:
    """Deduplicate destinations, folding each vertex's payloads with ``op``.

    Output vertices are ascending and keep the input vertex dtype (the
    network model charges :meth:`MessageBatch.nbytes`).  OR, min and max
    scatter into a dense scratch span; any other ufunc — notably ``np.add``,
    whose float result depends on fold order — takes the sorted path.
    """
    if batch.num_tasks == 0:
        return batch
    identity = _dense_identity(op, batch.payload.dtype)
    if identity is None:
        return _combine_sorted(batch, op)
    return _combine_dense(batch, op, identity)


def _dense_identity(op, dtype: np.dtype):
    """``op``'s identity in ``dtype`` if it may take the dense path, else None."""
    if op is np.bitwise_or:
        return 0 if dtype.kind in "biu" else None
    if op is not np.minimum and op is not np.maximum:
        return None
    if dtype.kind == "f":
        top, bottom = np.inf, -np.inf
    elif dtype.kind in "iu":
        top, bottom = np.iinfo(dtype).max, np.iinfo(dtype).min
    elif dtype.kind == "b":
        top, bottom = True, False
    else:
        return None
    return top if op is np.minimum else bottom


def _combine_dense(batch: MessageBatch, op, identity) -> MessageBatch:
    """Scatter ``op.at`` into a scratch array over ``[v.min(), v.max()]``.

    ``op.at`` folds each vertex's payloads in arrival order starting from
    ``identity``.  For OR and integer min/max that is bit-identical to
    :func:`_combine_sorted`.  For floats ``reduceat`` is not a strict
    arrival-order fold, so the two may pick the other zero of a
    ``+0.0``/``-0.0`` tie or other NaN bits; every other value matches.
    Callers combine one destination partition's batches, so the span never
    exceeds that partition.
    """
    v, p = batch.vertices, batch.payload
    lo = int(v.min())
    span = int(v.max()) - lo + 1
    idx = v - lo
    scratch = np.full((span,) + p.shape[1:], identity, dtype=p.dtype)
    op.at(scratch, idx, p)
    seen = np.zeros(span, dtype=bool)
    seen[idx] = True
    hit = np.flatnonzero(seen)
    return MessageBatch((hit + lo).astype(v.dtype, copy=False), scratch[hit])


def _combine_sorted(batch: MessageBatch, op) -> MessageBatch:
    """Stable-sort by vertex, then ``op.reduceat`` over each vertex's run."""
    order = np.argsort(batch.vertices, kind="stable")
    v = batch.vertices[order]
    p = batch.payload[order]
    group_start = np.concatenate([[True], v[1:] != v[:-1]])
    starts = np.nonzero(group_start)[0]
    out_v = v[starts]
    out_p = op.reduceat(p, starts)
    return MessageBatch(out_v, out_p)


class TaskBuffer:
    """A partition's task buffer: per-source (or per-destination) batches.

    The outbox keys batches by destination partition; the inbox accumulates
    batches delivered by the exchange step.  ``nbytes``/``num_tasks`` feed the
    network cost model.
    """

    def __init__(self) -> None:
        self._batches: dict[int, list[MessageBatch]] = {}

    def append(self, partition_id: int, batch: MessageBatch) -> None:
        """Queue ``batch`` under ``partition_id`` (skip empty batches)."""
        if batch.num_tasks == 0:
            return
        self._batches.setdefault(partition_id, []).append(batch)

    def partitions(self) -> list[int]:
        """Partition ids that currently have queued batches."""
        return sorted(self._batches)

    def take(self, partition_id: int) -> list[MessageBatch]:
        """Remove and return all batches queued under ``partition_id``."""
        return self._batches.pop(partition_id, [])

    def take_all(self) -> dict[int, list[MessageBatch]]:
        """Drain the whole buffer."""
        out, self._batches = self._batches, {}
        return out

    def merged(self, partition_id: int, combiner=combine_or) -> MessageBatch | None:
        """Concatenate + combine every batch queued under ``partition_id``."""
        batches = self._batches.get(partition_id)
        if not batches:
            return None
        v = np.concatenate([b.vertices for b in batches])
        p = np.concatenate([b.payload for b in batches])
        return combiner(MessageBatch(v, p))

    @property
    def is_empty(self) -> bool:
        return not self._batches

    def num_tasks(self) -> int:
        return sum(b.num_tasks for bs in self._batches.values() for b in bs)

    def nbytes(self) -> int:
        return sum(b.nbytes() for bs in self._batches.values() for b in bs)


def route_by_owner(outbox: TaskBuffer, cluster, vertices, payload) -> None:
    """Queue each ``(vertex, payload)`` row in ``outbox`` under its owner.

    ``cluster.owner_of`` maps global vertices to machine ids.  One batch
    per destination is appended, destinations ascending, rows in arrival
    order.  Owner ids are grouped by a stable radix sort on the narrowest
    integer dtype that holds them, not a comparison sort.  The batches may
    alias ``vertices``/``payload``; callers hand them over.
    """
    owners = cluster.owner_of(vertices)
    counts = np.bincount(owners)
    dests = np.flatnonzero(counts)
    if dests.size == 1:
        outbox.append(int(dests[0]), MessageBatch(vertices, payload))
        return
    key = owners.astype(np.min_scalar_type(counts.size - 1), copy=False)
    order = np.argsort(key, kind="stable")
    ends = np.cumsum(counts)
    for dest in dests.tolist():
        sel = order[ends[dest] - counts[dest] : ends[dest]]
        outbox.append(dest, MessageBatch(vertices[sel], payload[sel]))
