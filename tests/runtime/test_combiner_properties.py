"""Algebraic property tests for the message-combining layer.

Combiners must be *semantically transparent*: combining before the wire can
never change what a receiver computes, because the receiving side applies
the same associative/commutative/idempotent-or-additive operation.  These
tests pin those algebra facts — the correctness foundation under the
paper's "one combined task per vertex" sharing.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.message import (
    MessageBatch,
    _combine,
    _combine_sorted,
    _dense_identity,
    combine_min,
    combine_or,
    combine_sum,
)

verts = st.lists(st.integers(0, 8), min_size=1, max_size=30)


def _or_batch(vs, ps):
    return MessageBatch(np.array(vs), np.array(ps, dtype=np.uint64))


def _float_batch(vs, ps):
    return MessageBatch(np.array(vs), np.array(ps, dtype=np.float64))


def _as_dict(batch):
    return dict(zip(batch.vertices.tolist(), batch.payload.tolist()))


class TestCombineOrAlgebra:
    @settings(max_examples=60, deadline=None)
    @given(vs=verts, data=st.data())
    def test_idempotent(self, vs, data):
        ps = data.draw(
            st.lists(st.integers(0, 2**63), min_size=len(vs), max_size=len(vs))
        )
        once = combine_or(_or_batch(vs, ps))
        twice = combine_or(once)
        assert _as_dict(once) == _as_dict(twice)

    @settings(max_examples=60, deadline=None)
    @given(vs=verts, data=st.data())
    def test_order_independent(self, vs, data):
        ps = data.draw(
            st.lists(st.integers(0, 2**63), min_size=len(vs), max_size=len(vs))
        )
        perm = data.draw(st.permutations(list(range(len(vs)))))
        a = combine_or(_or_batch(vs, ps))
        b = combine_or(_or_batch([vs[i] for i in perm], [ps[i] for i in perm]))
        assert _as_dict(a) == _as_dict(b)

    @settings(max_examples=40, deadline=None)
    @given(vs=verts, data=st.data())
    def test_split_then_combine_equals_combine(self, vs, data):
        """Combining partial batches then recombining = combining once —
        exactly the sender-side/receiver-side split of the exchange step."""
        ps = data.draw(
            st.lists(st.integers(0, 2**63), min_size=len(vs), max_size=len(vs))
        )
        cut = data.draw(st.integers(0, len(vs)))
        left = combine_or(
            MessageBatch(
                np.array(vs[:cut], dtype=np.int64),
                np.array(ps[:cut], dtype=np.uint64),
            )
        )
        right = combine_or(
            MessageBatch(
                np.array(vs[cut:], dtype=np.int64),
                np.array(ps[cut:], dtype=np.uint64),
            )
        )
        merged = combine_or(
            MessageBatch(
                np.concatenate([left.vertices, right.vertices]),
                np.concatenate([left.payload, right.payload]),
            )
        )
        direct = combine_or(_or_batch(vs, ps))
        assert _as_dict(merged) == _as_dict(direct)


class TestCombineMinSum:
    @settings(max_examples=50, deadline=None)
    @given(vs=verts, data=st.data())
    def test_min_matches_naive(self, vs, data):
        ps = data.draw(
            st.lists(st.floats(-100, 100), min_size=len(vs), max_size=len(vs))
        )
        combined = combine_min(_float_batch(vs, ps))
        expected = {}
        for v, p in zip(vs, ps):
            expected[v] = min(expected.get(v, np.inf), p)
        got = _as_dict(combined)
        assert set(got) == set(expected)
        for v in got:
            assert got[v] == pytest.approx(expected[v])

    @settings(max_examples=50, deadline=None)
    @given(vs=verts, data=st.data())
    def test_sum_matches_naive(self, vs, data):
        ps = data.draw(
            st.lists(st.floats(-50, 50), min_size=len(vs), max_size=len(vs))
        )
        combined = combine_sum(_float_batch(vs, ps))
        expected = {}
        for v, p in zip(vs, ps):
            expected[v] = expected.get(v, 0.0) + p
        got = _as_dict(combined)
        for v in got:
            assert got[v] == pytest.approx(expected[v], abs=1e-9)

    def test_sum_not_idempotent_but_stable_when_unique(self):
        """Sum combining is only applied pre-wire where keys are made
        unique — combining an already-combined batch is then a no-op."""
        b = combine_sum(_float_batch([1, 1, 2], [1.0, 2.0, 5.0]))
        again = combine_sum(b)
        assert _as_dict(b) == _as_dict(again)

    def test_vertices_sorted_after_combine(self):
        c = combine_or(_or_batch([5, 1, 3, 1], [1, 2, 4, 8]))
        assert c.vertices.tolist() == sorted(c.vertices.tolist())


class TestCombine2D:
    """Multi-word payloads (the wide engine) combine row-wise."""

    def test_or_2d(self):
        b = MessageBatch(
            np.array([2, 2, 1]),
            np.array([[1, 0], [4, 8], [2, 2]], dtype=np.uint64),
        )
        c = combine_or(b)
        assert c.vertices.tolist() == [1, 2]
        assert c.payload.tolist() == [[2, 2], [5, 8]]

    def test_min_2d(self):
        b = MessageBatch(
            np.array([0, 0]),
            np.array([[1.0, 9.0], [5.0, 2.0]]),
        )
        c = combine_min(b)
        assert c.payload.tolist() == [[1.0, 2.0]]

    def test_nbytes_2d(self):
        b = MessageBatch(
            np.array([0], dtype=np.int64),
            np.zeros((1, 8), dtype=np.uint64),
        )
        assert b.nbytes() == 8 + 64


# Float payloads where fold order is observable: signed zeros, infinities
# and NaNs with distinct sign/payload bits.
_QUIET_NAN_PAYLOAD = np.array([0x7FF8000000000001], np.uint64).view(np.float64)[0]
_SPECIAL_FLOATS = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, _QUIET_NAN_PAYLOAD]
special_floats = st.one_of(
    st.sampled_from(_SPECIAL_FLOATS), st.floats(-4.0, 4.0, width=16)
)


@st.composite
def _vertex_arrays(draw, max_size=40):
    """1-D vertex arrays in a narrow range that need not start at 0."""
    dtype = draw(st.sampled_from([np.int32, np.int64]))
    base = draw(st.integers(0, 1 << 20))
    width = draw(st.integers(1, 24))
    offs = draw(st.lists(st.integers(0, width - 1), min_size=1, max_size=max_size))
    return np.array([base + o for o in offs], dtype=dtype)


def _assert_bit_identical(got: MessageBatch, ref: MessageBatch) -> None:
    assert got.vertices.dtype == ref.vertices.dtype
    assert np.array_equal(got.vertices, ref.vertices)
    assert got.payload.dtype == ref.payload.dtype
    assert got.payload.shape == ref.payload.shape
    assert np.array_equal(
        np.ascontiguousarray(got.payload).view(np.uint8),
        np.ascontiguousarray(ref.payload).view(np.uint8),
    )
    assert got.nbytes() == ref.nbytes()


def _arrival_order_fold(batch: MessageBatch, op) -> MessageBatch:
    """Oracle: fold each vertex's payload rows pairwise in arrival order."""
    order = sorted(set(batch.vertices.tolist()))
    rows = []
    for vertex in order:
        first, *rest = np.flatnonzero(batch.vertices == vertex)
        acc = batch.payload[first].copy()
        for i in rest:
            acc = op(acc, batch.payload[i])
        rows.append(acc)
    return MessageBatch(
        np.array(order, dtype=batch.vertices.dtype),
        np.array(rows, dtype=batch.payload.dtype),
    )


class TestDenseMatchesSorted:
    """The dense scatter combine against the sorted ``reduceat`` reference.

    Vertex values and dtype, wire size and payload bits must match (float
    ties excepted, see below): the vertex dtype feeds ``nbytes()`` and
    through it every virtual clock.
    """

    @settings(max_examples=80, deadline=None)
    @given(v=_vertex_arrays(), words=st.sampled_from([1, 8]), data=st.data())
    def test_or_word_planes(self, v, words, data):
        flat = data.draw(
            st.lists(
                st.integers(0, 2**64 - 1),
                min_size=v.size * words, max_size=v.size * words,
            )
        )
        p = np.array(flat, dtype=np.uint64).reshape(v.size, words)
        assert _dense_identity(np.bitwise_or, p.dtype) is not None
        batch = MessageBatch(v, p)
        ref = _combine_sorted(batch, np.bitwise_or)
        _assert_bit_identical(combine_or(batch), ref)

    @settings(max_examples=120, deadline=None)
    @given(
        v=_vertex_arrays(),
        op=st.sampled_from([np.minimum, np.maximum]),
        cols=st.sampled_from([None, 1, 3]),
        data=st.data(),
    )
    def test_float_min_max_special_values(self, v, op, cols, data):
        n = v.size * (cols or 1)
        vals = data.draw(st.lists(special_floats, min_size=n, max_size=n))
        p = np.array(vals, dtype=np.float64)
        if cols is not None:
            p = p.reshape(v.size, cols)
        assert _dense_identity(op, p.dtype) is not None
        batch = MessageBatch(v, p)
        with np.errstate(invalid="ignore"):
            got = _combine(batch, op)
            ref = _combine_sorted(batch, op)
            fold = _arrival_order_fold(batch, op)
        _assert_bit_identical(got, fold)
        # ``reduceat`` is unrolled and canonicalises NaNs, so it is not an
        # arrival-order fold: it may pick the other zero of a +0.0/-0.0 tie
        # or other NaN bits.  Every other value matches bit for bit.
        assert np.array_equal(got.vertices, ref.vertices)
        assert got.vertices.dtype == ref.vertices.dtype
        assert got.nbytes() == ref.nbytes()
        g, r = got.payload.ravel(), ref.payload.ravel()
        differ = g.view(np.uint64) != r.view(np.uint64)
        tie = ((g == 0) & (r == 0)) | (np.isnan(g) & np.isnan(r))
        assert not (differ & ~tie).any()

    @settings(max_examples=60, deadline=None)
    @given(v=_vertex_arrays(), data=st.data())
    def test_int64_min(self, v, data):
        vals = data.draw(
            st.lists(
                st.integers(-(2**63), 2**63 - 1), min_size=v.size, max_size=v.size
            )
        )
        batch = MessageBatch(v, np.array(vals, dtype=np.int64))
        ref = _combine_sorted(batch, np.minimum)
        _assert_bit_identical(combine_min(batch), ref)

    def test_sum_keeps_sorted_path(self):
        """Float addition is order-sensitive: ``np.add`` never goes dense."""
        assert _dense_identity(np.add, np.dtype(np.float64)) is None
