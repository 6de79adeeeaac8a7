"""Unit tests for message batches, combiners and task buffers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.message import (
    MessageBatch,
    TaskBuffer,
    combine_min,
    combine_or,
    combine_sum,
    route_by_owner,
)
from repro.graph.partition import owner_of_bounds


class TestMessageBatch:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            MessageBatch(np.array([1, 2]), np.array([1.0]))

    def test_num_tasks(self):
        b = MessageBatch(np.array([1, 2, 3]), np.zeros(3, dtype=np.uint64))
        assert b.num_tasks == 3

    def test_nbytes_counts_both_arrays(self):
        v = np.array([1, 2], dtype=np.int64)
        p = np.array([1, 2], dtype=np.uint64)
        assert MessageBatch(v, p).nbytes() == v.nbytes + p.nbytes

    def test_empty_batch(self):
        b = MessageBatch(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.uint64))
        assert b.num_tasks == 0


class TestCombiners:
    def test_combine_or_merges_duplicates(self):
        b = MessageBatch(
            np.array([3, 1, 3]), np.array([1, 2, 4], dtype=np.uint64)
        )
        c = combine_or(b)
        assert c.vertices.tolist() == [1, 3]
        assert c.payload.tolist() == [2, 5]

    def test_combine_min(self):
        b = MessageBatch(np.array([7, 7, 2]), np.array([3.0, 1.0, 9.0]))
        c = combine_min(b)
        assert c.vertices.tolist() == [2, 7]
        assert c.payload.tolist() == [9.0, 1.0]

    def test_combine_sum(self):
        b = MessageBatch(np.array([0, 0, 1]), np.array([1.5, 2.5, 3.0]))
        c = combine_sum(b)
        assert c.vertices.tolist() == [0, 1]
        assert c.payload.tolist() == [4.0, 3.0]

    def test_combine_empty(self):
        b = MessageBatch(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.uint64))
        assert combine_or(b).num_tasks == 0

    def test_combine_never_grows(self):
        b = MessageBatch(np.array([5, 5, 5, 5]), np.array([1, 2, 4, 8], np.uint64))
        c = combine_or(b)
        assert c.num_tasks == 1
        assert c.payload[0] == 15

    @settings(max_examples=60, deadline=None)
    @given(
        pairs=st.lists(
            st.tuples(st.integers(0, 10), st.integers(0, 2**32)),
            min_size=1,
            max_size=40,
        )
    )
    def test_combine_or_equals_naive(self, pairs):
        v = np.array([a for a, _ in pairs], dtype=np.int64)
        p = np.array([b for _, b in pairs], dtype=np.uint64)
        c = combine_or(MessageBatch(v, p))
        expected = {}
        for a, b in pairs:
            expected[a] = expected.get(a, 0) | b
        got = dict(zip(c.vertices.tolist(), c.payload.tolist()))
        assert got == expected


class TestTaskBuffer:
    def test_append_and_take(self):
        buf = TaskBuffer()
        b = MessageBatch(np.array([1]), np.array([1], dtype=np.uint64))
        buf.append(2, b)
        assert buf.partitions() == [2]
        assert len(buf.take(2)) == 1
        assert buf.is_empty

    def test_empty_batches_skipped(self):
        buf = TaskBuffer()
        buf.append(0, MessageBatch(np.empty(0, np.int64), np.empty(0, np.uint64)))
        assert buf.is_empty

    def test_merged_combines_across_batches(self):
        buf = TaskBuffer()
        buf.append(1, MessageBatch(np.array([4]), np.array([1], np.uint64)))
        buf.append(1, MessageBatch(np.array([4]), np.array([2], np.uint64)))
        merged = buf.merged(1)
        assert merged.num_tasks == 1
        assert merged.payload[0] == 3

    def test_merged_missing_partition(self):
        assert TaskBuffer().merged(5) is None

    def test_take_all_drains(self):
        buf = TaskBuffer()
        buf.append(0, MessageBatch(np.array([1]), np.array([1], np.uint64)))
        buf.append(3, MessageBatch(np.array([2]), np.array([2], np.uint64)))
        drained = buf.take_all()
        assert set(drained) == {0, 3}
        assert buf.is_empty

    def test_accounting(self):
        buf = TaskBuffer()
        buf.append(0, MessageBatch(np.array([1, 2]), np.array([1, 2], np.uint64)))
        assert buf.num_tasks() == 2
        assert buf.nbytes() > 0


class _Bounds:
    """Just enough of a cluster for routing: ``owner_of`` over range bounds."""

    def __init__(self, bounds):
        self.bounds = np.asarray(bounds, dtype=np.int64)

    def owner_of(self, vertices):
        return owner_of_bounds(self.bounds, vertices)


class TestRouteByOwner:
    @settings(max_examples=80, deadline=None)
    @given(
        vs=st.lists(st.integers(0, 299), min_size=1, max_size=60),
        cuts=st.lists(st.integers(1, 299), max_size=6, unique=True),
    )
    def test_matches_per_owner_filter(self, vs, cuts):
        """One batch per owner, owners ascending, rows in arrival order."""
        cluster = _Bounds([0, *sorted(cuts), 300])
        v = np.array(vs, dtype=np.int32)
        p = np.arange(v.size, dtype=np.uint64)[:, None]
        buf = TaskBuffer()
        route_by_owner(buf, cluster, v, p)
        owners = cluster.owner_of(v)
        expected = [int(d) for d in np.unique(owners)]
        drained = buf.take_all()
        assert list(drained) == expected
        for dest in expected:
            (batch,) = drained[dest]
            sel = owners == dest
            assert batch.vertices.dtype == np.int32
            assert batch.vertices.tolist() == v[sel].tolist()
            assert batch.payload.tolist() == p[sel].tolist()

    def test_many_owners_use_narrow_keys(self):
        cluster = _Bounds(np.arange(0, 1025, 2))  # 512 machines: uint16 keys
        v = np.array([1023, 0, 511, 1, 1022], dtype=np.int64)
        buf = TaskBuffer()
        route_by_owner(buf, cluster, v, v.astype(np.float64))
        drained = buf.take_all()
        assert list(drained) == [0, 255, 511]
        assert drained[0][0].vertices.tolist() == [0, 1]
        assert drained[511][0].vertices.tolist() == [1023, 1022]
