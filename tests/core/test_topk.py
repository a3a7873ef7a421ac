"""Opt4 top-k tests: heap correctness and pruning equivalence."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.topk import (
    BoundedMaxHeap,
    merge_heaps_naive,
    merge_heaps_pruned,
    scan_topk_fast,
    scan_topk_fast_batch,
    scan_topk_fast_batch_flat,
    scan_topk_threaded,
)
from repro.errors import ConfigError


def exact_topk(values, ids, k):
    order = np.argsort(values, kind="stable")[:k]
    return values[order], ids[order]


class TestBoundedMaxHeap:
    def test_retains_k_smallest(self):
        rng = np.random.default_rng(0)
        v = rng.random(100).astype(np.float32)
        h = BoundedMaxHeap(10)
        h.push_many(v, np.arange(100))
        got_v, _ = h.sorted_ascending()
        np.testing.assert_allclose(np.sort(got_v), np.sort(v)[:10])

    def test_root_is_kth_best(self):
        h = BoundedMaxHeap(3)
        for i, v in enumerate([5.0, 1.0, 3.0, 2.0]):
            h.push(v, i)
        assert h.root == pytest.approx(3.0)

    def test_root_inf_until_full(self):
        h = BoundedMaxHeap(3)
        h.push(1.0, 0)
        assert h.root == float("inf")

    def test_rejects_worse_candidates(self):
        h = BoundedMaxHeap(2)
        h.push(1.0, 0)
        h.push(2.0, 1)
        assert not h.push(3.0, 2)
        assert h.push(0.5, 3)

    def test_heap_invariant_maintained(self):
        rng = np.random.default_rng(1)
        h = BoundedMaxHeap(16)
        h.push_many(rng.random(200).astype(np.float32), np.arange(200))
        v = h.values[: h.size]
        for i in range(h.size):
            left, right = 2 * i + 1, 2 * i + 2
            if left < h.size:
                assert v[i] >= v[left]
            if right < h.size:
                assert v[i] >= v[right]

    def test_comparison_counting(self):
        h = BoundedMaxHeap(4)
        h.push_many(np.arange(50, dtype=np.float32), np.arange(50))
        assert h.stats.comparisons > 0
        assert h.stats.insertions >= 4

    def test_invalid_capacity(self):
        with pytest.raises(ConfigError):
            BoundedMaxHeap(0)

    def test_ids_follow_values(self):
        v = np.array([4.0, 2.0, 3.0, 1.0], dtype=np.float32)
        h = BoundedMaxHeap(2)
        h.push_many(v, np.array([40, 20, 30, 10]))
        got_v, got_i = h.sorted_ascending()
        np.testing.assert_array_equal(got_i, [10, 20])


class TestMerge:
    def _make_heaps(self, seed, t=4, n=120, k=6):
        rng = np.random.default_rng(seed)
        v = rng.random(n).astype(np.float32)
        ids = np.arange(n)
        heaps = []
        for i in range(t):
            h = BoundedMaxHeap(k)
            h.push_many(v[i::t], ids[i::t])
            heaps.append(h)
        return heaps, v, ids, k

    def test_pruned_equals_naive_results(self):
        for seed in range(5):
            heaps_a, v, ids, k = self._make_heaps(seed)
            heaps_b, *_ = self._make_heaps(seed)
            pv, pi, _ = merge_heaps_pruned(heaps_a, k)
            nv, ni, _ = merge_heaps_naive(heaps_b, k)
            np.testing.assert_allclose(pv, nv)
            np.testing.assert_array_equal(pi, ni)

    def test_merge_equals_exact(self):
        heaps, v, ids, k = self._make_heaps(7)
        pv, pi, _ = merge_heaps_pruned(heaps, k)
        ev, ei = exact_topk(v, ids, k)
        np.testing.assert_allclose(pv, ev)

    def test_pruning_skips_work(self):
        """Figure 9/15: pruning skips a large share of insertions."""
        heaps_a, _, _, k = self._make_heaps(3, t=8, n=800, k=10)
        heaps_b, *_ = self._make_heaps(3, t=8, n=800, k=10)
        _, _, pruned_stats = merge_heaps_pruned(heaps_a, k)
        assert pruned_stats.pruned > 0

    def test_empty_heaps(self):
        heaps = [BoundedMaxHeap(5) for _ in range(3)]
        v, i, _ = merge_heaps_pruned(heaps, 5)
        assert v.size == 0


class TestScanTopk:
    @given(
        n=st.integers(1, 300),
        k=st.integers(1, 20),
        t=st.integers(1, 16),
        seed=st.integers(0, 2000),
        prune=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_threaded_scan_equals_exact(self, n, k, t, seed, prune):
        """Property: thread-striped scan + (pruned) merge == exact top-k,
        for any stripe count, k and input."""
        rng = np.random.default_rng(seed)
        v = rng.random(n).astype(np.float32)
        ids = rng.permutation(n).astype(np.int64)
        got_v, got_i, _ = scan_topk_threaded(v, ids, k, t, prune=prune)
        ev, ei = exact_topk(v, ids, min(k, n))
        np.testing.assert_allclose(got_v, ev)
        np.testing.assert_array_equal(got_i, ei)

    @given(
        n=st.integers(1, 500),
        k=st.integers(1, 20),
        t=st.integers(1, 16),
        seed=st.integers(0, 2000),
        prune=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_fast_scan_equals_exact(self, n, k, t, seed, prune):
        """Property: the vectorized fast path is result-identical."""
        rng = np.random.default_rng(seed)
        v = rng.random(n).astype(np.float32)
        ids = rng.permutation(n).astype(np.int64)
        got_v, got_i, _ = scan_topk_fast(v, ids, k, t, prune=prune)
        ev, ei = exact_topk(v, ids, min(k, n))
        np.testing.assert_allclose(got_v, ev)
        np.testing.assert_array_equal(got_i, ei)

    def test_fast_pruning_stats_positive(self):
        rng = np.random.default_rng(0)
        v = rng.random(2000).astype(np.float32)
        _, _, stats = scan_topk_fast(v, np.arange(2000), 10, 11, prune=True)
        assert stats.pruned > 0

    def test_pruned_does_less_merge_work_than_naive(self):
        """The paper reports 68 % of comparisons skipped; directionally,
        pruning must reduce total comparisons."""
        rng = np.random.default_rng(1)
        v = rng.random(5000).astype(np.float32)
        ids = np.arange(5000)
        _, _, pruned = scan_topk_fast(v, ids, 50, 11, prune=True)
        _, _, naive = scan_topk_fast(v, ids, 50, 11, prune=False)
        assert pruned.comparisons < naive.comparisons

    def test_invalid_tasklets(self):
        with pytest.raises(ConfigError):
            scan_topk_fast(np.ones(3, np.float32), np.arange(3), 1, 0)


def stats_tuple(s):
    return (s.comparisons, s.insertions, s.pruned, s.merge_comparisons)


class TestScanTopkBatch:
    """The grouped kernel's batched selection must match per-group calls
    exactly — results and the work statistics that feed charged cycles."""

    def assert_batch_matches_pergroup(self, values_list, ids_list, k, t, prune=True):
        batched = scan_topk_fast_batch(values_list, ids_list, k, t, prune=prune)
        assert len(batched) == len(values_list)
        for (bv, bi, bs), v, ids in zip(batched, values_list, ids_list):
            gv, gi, gs = scan_topk_fast(v, ids, k, t, prune=prune)
            np.testing.assert_array_equal(bv, gv)
            np.testing.assert_array_equal(bi, gi)
            assert stats_tuple(bs) == stats_tuple(gs)

    @given(
        n_groups=st.integers(1, 12),
        k=st.integers(1, 16),
        t=st.integers(1, 16),
        seed=st.integers(0, 2000),
        prune=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_batch_equals_per_group(self, n_groups, k, t, seed, prune):
        rng = np.random.default_rng(seed)
        values_list, ids_list = [], []
        for _ in range(n_groups):
            n = int(rng.integers(0, 120))
            values_list.append(rng.random(n).astype(np.float32))
            ids_list.append(rng.permutation(n).astype(np.int64))
        self.assert_batch_matches_pergroup(values_list, ids_list, k, t, prune)

    def test_k_exceeds_total_candidates(self):
        """k larger than any group's candidate count returns everything,
        sorted, with no padding artifacts."""
        rng = np.random.default_rng(2)
        values_list = [rng.random(n).astype(np.float32) for n in (3, 1, 7)]
        ids_list = [np.arange(v.shape[0], dtype=np.int64) for v in values_list]
        self.assert_batch_matches_pergroup(values_list, ids_list, 50, 11)
        batched = scan_topk_fast_batch(values_list, ids_list, 50, 11)
        for (bv, bi, _), v in zip(batched, values_list):
            assert bv.shape[0] == v.shape[0]
            np.testing.assert_array_equal(bv, np.sort(v))

    def test_duplicate_ids_across_replicas(self):
        """The same vector id appearing twice (replicated cluster) is
        kept twice — selection is by scan position, not id identity."""
        v = np.array([0.5, 0.1, 0.5, 0.1], dtype=np.float32)
        ids = np.array([7, 3, 7, 3], dtype=np.int64)
        self.assert_batch_matches_pergroup([v], [ids], 3, 4)
        (bv, bi, _), = scan_topk_fast_batch([v], [ids], 3, 4)
        np.testing.assert_array_equal(bi, [3, 3, 7])
        np.testing.assert_array_equal(bv, np.array([0.1, 0.1, 0.5], np.float32))

    def test_all_equal_distances_tiebreak_by_position(self):
        """Equal values select by earliest scan position, for any stripe
        count — the uniquely defined stable order."""
        for t in (1, 3, 11):
            v = np.full(20, 0.25, dtype=np.float32)
            ids = np.arange(100, 120, dtype=np.int64)
            self.assert_batch_matches_pergroup([v], [ids], 5, t)
            (bv, bi, _), = scan_topk_fast_batch([v], [ids], 5, t)
            np.testing.assert_array_equal(bi, ids[:5])

    def test_empty_groups_and_empty_list(self):
        empty_v = np.empty(0, dtype=np.float32)
        empty_i = np.empty(0, dtype=np.int64)
        self.assert_batch_matches_pergroup(
            [empty_v, np.array([0.5], np.float32)], [empty_i, np.array([9])], 4, 3
        )
        assert scan_topk_fast_batch([], [], 4, 3) == []
        (bv, bi, bs), = scan_topk_fast_batch([empty_v], [empty_i], 4, 3)
        assert bv.shape == (0,) and bi.shape == (0,)
        assert stats_tuple(bs) == (0, 0, 0, 0)

    def test_flat_form_matches_list_form(self):
        rng = np.random.default_rng(5)
        values_list = [rng.random(n).astype(np.float32) for n in (30, 0, 11, 64)]
        ids_list = [np.arange(v.shape[0], dtype=np.int64) for v in values_list]
        flat_v = np.concatenate(values_list)
        flat_i = np.concatenate(ids_list)
        n_arr = np.array([v.shape[0] for v in values_list], dtype=np.int64)
        from_list = scan_topk_fast_batch(values_list, ids_list, 6, 7)
        from_flat = scan_topk_fast_batch_flat(flat_v, flat_i, n_arr, 6, 7)
        for (lv, li, ls), (fv, fi, fs) in zip(from_list, from_flat):
            np.testing.assert_array_equal(lv, fv)
            np.testing.assert_array_equal(li, fi)
            assert stats_tuple(ls) == stats_tuple(fs)

    def test_invalid_tasklets(self):
        with pytest.raises(ConfigError):
            scan_topk_fast_batch([np.ones(3, np.float32)], [np.arange(3)], 1, 0)


#: Quantized values with many ties, both infinities, both signed zeros
#: and NaN with and without the sign bit.
PALETTE = np.array(
    [0.0, -0.0, 0.25, 0.5, 1.0, 3.0, -2.0, np.inf, -np.inf, np.nan, -np.nan],
    dtype=np.float32,
)
POWERS_OF_TWO = [1, 2, 4, 8, 16, 32, 64, 128]


@st.composite
def tie_heavy_groups(draw):
    """Per-group candidate values over a few palette entries; lengths
    include empty groups, n < k, exact powers of two and n < t."""
    out = []
    for _ in range(draw(st.integers(0, 8))):
        n = draw(st.one_of(st.integers(0, 24), st.sampled_from(POWERS_OF_TWO)))
        support = draw(
            st.lists(st.integers(0, len(PALETTE) - 1), min_size=1, max_size=4)
        )
        picks = draw(st.lists(st.sampled_from(support), min_size=n, max_size=n))
        out.append(PALETTE[np.array(picks, dtype=np.int64)].astype(np.float32))
    return out


class TestTopkEquivalenceProperty:
    """Batched == per-group ``scan_topk_fast``, bit for bit, where the
    threshold selection is most fragile: ties at the k-th value (the
    survivors ``v <= threshold`` outnumber k), infinities, NaN of either
    sign (ranked last, as ``np.argsort`` ranks it), signed zeros (equal,
    so ordered by scan position) and degenerate lengths."""

    @given(
        groups=tie_heavy_groups(),
        k=st.integers(1, 20),
        t=st.integers(1, 24),
        prune=st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_batch_equals_scalar(self, groups, k, t, prune):
        ids_list = [
            np.arange(1000 * g, 1000 * g + v.shape[0], dtype=np.int64)
            for g, v in enumerate(groups)
        ]
        batched = scan_topk_fast_batch(groups, ids_list, k, t, prune=prune)
        assert len(batched) == len(groups)
        for (bv, bi, bs), v, ids in zip(batched, groups, ids_list):
            gv, gi, gs = scan_topk_fast(v, ids, k, t, prune=prune)
            np.testing.assert_array_equal(bv.view(np.uint32), gv.view(np.uint32))
            np.testing.assert_array_equal(bi, gi)
            assert stats_tuple(bs) == stats_tuple(gs)
            # The pinned semantics: the stable argsort's first k.
            np.testing.assert_array_equal(gi, ids[np.argsort(v, kind="stable")[:k]])

    @pytest.mark.parametrize("scan", ["scalar", "batched"])
    def test_signed_nan_ranks_last(self, scan):
        v = np.array([3.0, 1.0, 2.0, -np.nan], dtype=np.float32)
        ids = np.arange(4, dtype=np.int64)
        if scan == "scalar":
            _, got, _ = scan_topk_fast(v, ids, 2, 3)
        else:
            ((_, got, _),) = scan_topk_fast_batch_flat(v, ids, [4], 2, 3)
        np.testing.assert_array_equal(got, [1, 2])

    def test_nan_in_short_stride_is_not_displaced_by_padding(self):
        """A NaN in a stride shorter than the others ranks after every
        real value and is still returned when k covers it."""
        v = np.array([1.0, 2.0, np.nan, 4.0, 5.0], dtype=np.float32)
        ids = np.arange(5, dtype=np.int64)
        gv, gi, _ = scan_topk_fast(v, ids, 5, 3)
        np.testing.assert_array_equal(gi, [0, 1, 3, 4, 2])
        assert np.isnan(gv[-1])

    @pytest.mark.parametrize("scan", ["scalar", "batched"])
    def test_numbers_rank_below_a_nan_threshold(self, scan):
        """With NaN as the k-th value, the finite value ahead of it
        counts as accepted by the merge (insertions = 2 local + 1)."""
        v = np.array([1.0, np.nan], dtype=np.float32)
        ids = np.arange(2, dtype=np.int64)
        if scan == "scalar":
            _, _, stats = scan_topk_fast(v, ids, 2, 1)
        else:
            ((_, _, stats),) = scan_topk_fast_batch_flat(v, ids, [2], 2, 1)
        assert stats_tuple(stats) == (7, 3, 0, 3)
