"""Opt4: top-k selection with thread-local heaps and pruning (section 4.4).

Each tasklet maintains a bounded *max*-heap of its local best k while
scanning distances.  At Barrier 3 the local heaps are merged into the
DPU-global top-k: each local heap is converted to a *min*-heap (i.e.
drained in ascending order) and its elements inserted under a semaphore
into the global max-heap — but as soon as a local heap's smallest
remaining value is no better than the global k-th best, the whole
remainder of that heap is pruned (Figure 9, grey nodes).

The paper reports this skips 68 % of redundant comparisons and speeds
the stage 3.1x.  All heaps count comparisons so benches can report the
same statistic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError


@dataclass
class HeapStats:
    """Work accounting for the top-k stage.

    ``merge_comparisons`` isolates the cross-tasklet merge's share of
    ``comparisons`` — the part Opt4's pruning reduces.
    """

    comparisons: int = 0
    insertions: int = 0
    pruned: int = 0
    merge_comparisons: int = 0

    def merge(self, other: "HeapStats") -> None:
        self.comparisons += other.comparisons
        self.insertions += other.insertions
        self.pruned += other.pruned
        self.merge_comparisons += other.merge_comparisons


class BoundedMaxHeap:
    """Array-based max-heap holding the k smallest values seen so far.

    The root is the *largest* retained value, so a new candidate only
    enters (evicting the root) when it beats the current k-th best —
    exactly the thread-local PQ of Figure 6.
    """

    __slots__ = ("k", "size", "values", "ids", "stats")

    def __init__(self, k: int) -> None:
        if k < 1:
            raise ConfigError("heap capacity must be >= 1")
        self.k = k
        self.size = 0
        self.values = np.empty(k, dtype=np.float32)
        self.ids = np.empty(k, dtype=np.int64)
        self.stats = HeapStats()

    @property
    def root(self) -> float:
        """Current k-th best (worst retained) value; inf when not full."""
        if self.size < self.k:
            return float("inf")
        return float(self.values[0])

    def push(self, value: float, ident: int) -> bool:
        """Offer a candidate; returns True if it was retained."""
        if self.size < self.k:
            i = self.size
            self.values[i] = value
            self.ids[i] = ident
            self.size += 1
            self._sift_up(i)
            self.stats.insertions += 1
            return True
        self.stats.comparisons += 1
        if value >= self.values[0]:
            return False
        self.values[0] = value
        self.ids[0] = ident
        self._sift_down(0)
        self.stats.insertions += 1
        return True

    def push_many(self, values: np.ndarray, ids: np.ndarray) -> None:
        """Bulk push preserving scan order (same result as a loop)."""
        for v, i in zip(values.tolist(), ids.tolist()):
            self.push(v, i)

    def _sift_up(self, i: int) -> None:
        values, ids = self.values, self.ids
        while i > 0:
            parent = (i - 1) >> 1
            self.stats.comparisons += 1
            if values[i] <= values[parent]:
                break
            values[i], values[parent] = values[parent], values[i]
            ids[i], ids[parent] = ids[parent], ids[i]
            i = parent

    def _sift_down(self, i: int) -> None:
        values, ids = self.values, self.ids
        n = self.size
        while True:
            left = 2 * i + 1
            right = left + 1
            largest = i
            if left < n:
                self.stats.comparisons += 1
                if values[left] > values[largest]:
                    largest = left
            if right < n:
                self.stats.comparisons += 1
                if values[right] > values[largest]:
                    largest = right
            if largest == i:
                return
            values[i], values[largest] = values[largest], values[i]
            ids[i], ids[largest] = ids[largest], ids[i]
            i = largest

    def sorted_ascending(self) -> tuple[np.ndarray, np.ndarray]:
        """Drain as a min-heap: (values, ids) in ascending value order.

        This is the "convert the thread-local max heaps into min heaps"
        step of section 4.4 — ascending order is what enables pruning.
        """
        order = np.argsort(self.values[: self.size], kind="stable")
        return self.values[order].copy(), self.ids[order].copy()


def merge_heaps_pruned(
    local_heaps: list[BoundedMaxHeap], k: int
) -> tuple[np.ndarray, np.ndarray, HeapStats]:
    """Pruned merge of thread-local heaps into the DPU-global top-k.

    Local heaps are drained ascending (min-heap order); the first value
    of a heap that fails to beat the global root proves every later
    value fails too, so the rest is pruned (counted in ``stats.pruned``).
    Returns (values, ids) ascending plus merged work stats.
    """
    total = BoundedMaxHeap(k)
    stats = HeapStats()
    for heap in local_heaps:
        stats.merge(heap.stats)
        values, ids = heap.sorted_ascending()
        for pos, (v, i) in enumerate(zip(values.tolist(), ids.tolist())):
            stats.comparisons += 1
            if total.size >= k and v >= total.root:
                stats.pruned += values.shape[0] - pos
                break
            total.push(v, i)
    stats.merge(total.stats)
    out_v, out_i = total.sorted_ascending()
    return out_v, out_i, stats


def merge_heaps_naive(
    local_heaps: list[BoundedMaxHeap], k: int
) -> tuple[np.ndarray, np.ndarray, HeapStats]:
    """Baseline merge: every local element is offered to the global heap.

    This is what PIM-naive does, and what Figure 15 compares against.
    """
    total = BoundedMaxHeap(k)
    stats = HeapStats()
    for heap in local_heaps:
        stats.merge(heap.stats)
        values, ids = heap.sorted_ascending()
        for v, i in zip(values.tolist(), ids.tolist()):
            total.push(v, i)
    stats.merge(total.stats)
    out_v, out_i = total.sorted_ascending()
    return out_v, out_i, stats


def scan_topk_fast(
    distances: np.ndarray,
    ids: np.ndarray,
    k: int,
    n_tasklets: int,
    *,
    prune: bool = True,
) -> tuple[np.ndarray, np.ndarray, HeapStats]:
    """Vectorized equivalent of :func:`scan_topk_threaded`.

    The thread strides are packed into one padded (tasklets, stride)
    matrix so the per-stride local top-k is a single row-wise stable
    argsort — no Python-level per-tasklet loop on the kernel hot path.
    Work statistics are analytic (a bounded max-heap scanning n
    random-order elements performs ~n root comparisons plus
    ~k(1 + ln(n/k)) successful insertions costing log2(k) sift
    comparisons each), computed with the exact same float64 expression
    per stride as the scalar form so the charged cycles they feed are
    reproduced bit-for-bit.

    Ties are broken stably by scan position: the result is always
    identical to ``np.argsort(distances, kind="stable")[:k]``, for any
    tasklet count — a uniquely defined output, so the vectorized and
    reference paths cannot drift apart on duplicate distances.  NaN
    ranks last, after +inf, whatever its sign bit: that is the order
    NumPy's sort, partition and lexsort all use, so this path and
    :func:`scan_topk_fast_batch_flat` agree without a key encoding, and
    a NaN distance can never displace a real neighbour.
    """
    if n_tasklets < 1:
        raise ConfigError("need at least one tasklet")
    distances = np.asarray(distances, dtype=np.float32)
    ids = np.asarray(ids, dtype=np.int64)
    stats = HeapStats()
    n = distances.shape[0]
    if n == 0:
        return distances[:0], ids[:0], stats
    t = n_tasklets
    stride = -(-n // t)  # ceil: max elements any tasklet scans
    # Column j of the (stride, t) layout is tasklet j's stride; pad with
    # NaN so short strides sort their live prefix first (NaN sorts last
    # and the stable sort keeps any real NaN ahead of padding — padding
    # sits at larger scan positions).
    pad = stride * t - n
    mat_v = np.concatenate(
        [distances, np.full(pad, np.nan, dtype=np.float32)]
    ).reshape(stride, t).T  # (t, stride): row i = distances[i::t]
    mat_p = np.arange(stride * t, dtype=np.int64).reshape(stride, t).T
    stride_len = np.full(t, n // t, dtype=np.int64)
    stride_len[: n % t] += 1
    k_local = np.minimum(k, stride_len)  # per-stride retained count

    kk = min(k, stride)
    order = np.argsort(mat_v, axis=1, kind="stable")[:, :kk]
    top_v = np.take_along_axis(mat_v, order, axis=1)
    top_p = np.take_along_axis(mat_p, order, axis=1)
    valid = np.arange(kk, dtype=np.int64)[None, :] < k_local[:, None]

    # Analytic local-scan work, per stride (same float64 chain as the
    # scalar formula; int truncation per stride, then summed).
    live = stride_len > 0
    n_f = stride_len.astype(np.float64)
    k_f = k_local.astype(np.float64)
    ratio = np.divide(n_f, k_f, out=np.ones_like(n_f), where=live)
    exp_ins = k_f * (1.0 + np.maximum(0.0, np.log(ratio, where=live, out=np.zeros_like(ratio))))
    comps = (
        n_f + exp_ins * np.maximum(1.0, np.log2(np.maximum(k_f, 2.0)))
    ).astype(np.int64)
    stats.comparisons += int(comps[live].sum())
    stats.insertions += int(k_local.sum())

    # Global merge: concatenate the ascending local lists in tasklet
    # order (the order the semaphore-guarded merge of section 4.4
    # consumes them), then select the k best by (value, scan position).
    flat_valid = valid.ravel()
    cat_v = top_v.ravel()[flat_valid]
    cat_p = top_p.ravel()[flat_valid]
    k_eff = min(k, cat_v.shape[0])
    if k_eff == 0:
        return cat_v[:0], ids[:0], stats
    sel = np.lexsort((cat_p, cat_v))[:k_eff]
    out_v = cat_v[sel].copy()
    out_i = ids[cat_p[sel]]
    threshold = out_v[-1]

    # Pruning statistic, recovered exactly from each ascending local
    # list: once a value fails against the final k-th best, everything
    # after it would have been pruned (Figure 9, grey nodes).
    merge_log_k = max(1.0, np.log2(max(k_eff, 2)))
    accepted = (_ranks_below(top_v, threshold) & valid).sum(axis=1)
    if prune:
        offered = np.minimum(accepted + 1, k_local)  # +1 failing probe
        stats.pruned += int((k_local - offered).sum())
    else:
        offered = k_local
    merge_work = int(
        (offered + (accepted * merge_log_k).astype(np.int64)).sum()
    )
    stats.comparisons += merge_work
    stats.merge_comparisons += merge_work
    stats.insertions += int(accepted.sum())
    return out_v, out_i, stats


def _ranks_below(values: np.ndarray, threshold) -> np.ndarray:
    """``values < threshold`` in the NaN-last order of the sort: below a
    NaN threshold lies every number."""
    return (values < threshold) | (np.isnan(threshold) & ~np.isnan(values))


def scan_topk_fast_batch(
    values_list: list[np.ndarray],
    ids_list: list[np.ndarray],
    k: int,
    n_tasklets: int,
    *,
    prune: bool = True,
) -> list[tuple[np.ndarray, np.ndarray, HeapStats]]:
    """:func:`scan_topk_fast` over many independent candidate groups.

    The grouped kernel calls this once per batch with one group per
    (DPU, query) pair, replacing thousands of small NumPy dispatches
    with a handful of fused ones.  Result- and stats-identical to
    calling :func:`scan_topk_fast` per group: both select by the same
    (value, scan position) order with NaN last, and the work statistics
    are computed with the same float64 expressions from the true
    lengths.
    """
    if len(values_list) == 0:
        return []
    n_arr = np.array([v.shape[0] for v in values_list], dtype=np.int64)
    if int(n_arr.sum()) == 0:
        flat_v = np.empty(0, dtype=np.float32)
        flat_i = np.empty(0, dtype=np.int64)
    else:
        flat_v = np.concatenate(
            [np.asarray(v, dtype=np.float32) for v in values_list]
        )
        flat_i = np.concatenate([np.asarray(i, dtype=np.int64) for i in ids_list])
    return scan_topk_fast_batch_flat(
        flat_v, flat_i, n_arr, k, n_tasklets, prune=prune
    )


def _group_thresholds(
    flat_v: np.ndarray, starts: np.ndarray, n_arr: np.ndarray, k_eff: np.ndarray
) -> np.ndarray:
    """Each group's ``k_eff``-th smallest value (NaN last), float32.

    Groups are bucketed by padded length class (next power of two) so
    each class runs one 2-D ``np.partition`` over a NaN-padded matrix
    instead of one small NumPy dispatch per group.  NaN padding ranks
    after every real value and ``k_eff <= n``, so it never reaches a
    row's order statistic.  Empty groups keep +inf.
    """
    th = np.full(n_arr.shape[0], np.inf, dtype=np.float32)
    live = n_arr > 0
    # Length class = smallest power of two >= n (exact integer search,
    # no float log rounding).
    pows = np.int64(1) << np.arange(40, dtype=np.int64)
    cls = np.searchsorted(pows, n_arr, side="left")
    cls[~live] = -1
    for c in np.flatnonzero(np.bincount(cls[live])).tolist():
        rows = np.flatnonzero(cls == c)
        span = np.arange(int(pows[c]), dtype=np.int64)
        idx = starts[rows, None] + span[None, :]
        padded = np.take(flat_v, idx, mode="clip")
        pad = span[None, :] >= n_arr[rows, None]
        np.copyto(padded, np.float32(np.nan), where=pad)
        kth = k_eff[rows] - 1
        padded.partition(np.flatnonzero(np.bincount(kth)), axis=1)
        th[rows] = padded[np.arange(rows.shape[0]), kth]
    return th


def scan_topk_fast_batch_flat(
    flat_v: np.ndarray,
    flat_i: np.ndarray,
    n_arr: np.ndarray,
    k: int,
    n_tasklets: int,
    *,
    prune: bool = True,
) -> list[tuple[np.ndarray, np.ndarray, HeapStats]]:
    """:func:`scan_topk_fast_batch` over pre-concatenated candidates.

    ``flat_v`` / ``flat_i`` hold every group's candidates back to back
    and ``n_arr`` gives the per-group lengths; callers that already own
    contiguous per-group slices (the grouped kernel) avoid a second
    concatenation pass.

    Selection is by threshold: each group's k-th smallest value
    (:func:`_group_thresholds`), then only the survivors ``v <= th`` —
    k per group plus any ties at the threshold — are ordered by (group,
    value, scan position) and cut to k.  The union of per-stride local
    top-k lists always contains the global (value, position)-smallest
    k, so selecting over the raw group is result-identical to
    local-select-then-merge.
    """
    if n_tasklets < 1:
        raise ConfigError("need at least one tasklet")
    t = n_tasklets
    n_arr = np.asarray(n_arr, dtype=np.int64)
    n_groups = int(n_arr.shape[0])
    if n_groups == 0:
        return []
    flat_v = np.ascontiguousarray(flat_v, dtype=np.float32)
    flat_i = np.asarray(flat_i, dtype=np.int64)
    starts = np.zeros(n_groups + 1, dtype=np.int64)
    np.cumsum(n_arr, out=starts[1:])
    k_eff = np.minimum(k, n_arr)
    offs = np.zeros(n_groups + 1, dtype=np.int64)
    np.cumsum(k_eff, out=offs[1:])

    th = _group_thresholds(flat_v, starts, n_arr, k_eff)
    keep = flat_v <= np.repeat(th, n_arr)
    nan_th = np.isnan(th)
    if nan_th.any():
        keep |= np.repeat(nan_th, n_arr)
    # Survivors arrive in position order, hence sorted by group; the
    # stable lexsort orders each group by value, ties by scan position,
    # and leaves the group column as it is.
    pos = np.flatnonzero(keep)
    grp = np.searchsorted(starts, pos, side="right") - 1
    pos = pos[np.lexsort((flat_v[pos], grp))]
    first = np.zeros(n_groups, dtype=np.int64)
    np.cumsum(np.bincount(grp, minlength=n_groups)[:-1], out=first[1:])
    sel = np.arange(pos.shape[0]) - first[grp] < k_eff[grp]
    pos, grp = pos[sel], grp[sel]
    val = flat_v[pos]

    # Analytic local-scan work — the same per-stride float64 chain as
    # scan_topk_fast, truncated per stride before summing.
    stride_len = (n_arr[:, None] // t) + (
        np.arange(t, dtype=np.int64)[None, :] < (n_arr[:, None] % t)
    )
    k_local = np.minimum(k, stride_len)
    live = stride_len > 0
    n_f = stride_len.astype(np.float64)
    k_f = k_local.astype(np.float64)
    ratio = np.divide(n_f, k_f, out=np.ones_like(n_f), where=live)
    logr = np.log(ratio, out=np.zeros_like(ratio), where=live)
    exp_ins = k_f * (1.0 + np.maximum(0.0, logr))
    comps = (
        n_f + exp_ins * np.maximum(1.0, np.log2(np.maximum(k_f, 2.0)))
    ).astype(np.int64)
    comps_g = np.where(live, comps, 0).sum(axis=1)
    ins_local_g = k_local.sum(axis=1)

    # Merge statistics.  A stride's accepted count — how many of its
    # ascending local list beat the final threshold — is its count of
    # elements ranking strictly below the threshold.  Fewer than k_eff
    # of those exist per group, so all of them are among the selected
    # entries, and counting over the selection alone is exact.
    below = _ranks_below(val, th[grp])
    stride = (pos - starts[grp]) % t
    accepted = np.bincount(
        (grp * t + stride)[below], minlength=n_groups * t
    ).reshape(n_groups, t)
    merge_log_k = np.maximum(1.0, np.log2(np.maximum(k_eff, 2)))
    if prune:
        offered = np.minimum(accepted + 1, k_local)
        pruned_g = (k_local - offered).sum(axis=1)
    else:
        offered = k_local
        pruned_g = np.zeros(n_groups, dtype=np.int64)
    merge_g = (
        offered + (accepted * merge_log_k[:, None]).astype(np.int64)
    ).sum(axis=1)

    out_i = flat_i[pos]
    offs_l = offs.tolist()
    stats = map(
        HeapStats,
        (comps_g + merge_g).tolist(),
        (ins_local_g + accepted.sum(axis=1)).tolist(),
        pruned_g.tolist(),
        merge_g.tolist(),
    )
    return [
        (val[o0:o1], out_i[o0:o1], st)
        for o0, o1, st in zip(offs_l[:-1], offs_l[1:], stats)
    ]


def estimate_scan_stats(n_points: float, k: int, n_tasklets: int) -> tuple[float, float]:
    """Analytic (comparisons, insertions) for a thread-striped scan.

    Used by the DPU charge model when the simulated list stands in for a
    ``workload_scale``-times longer one: a bounded heap's insertion count
    grows only logarithmically with the list length, so simulated counts
    cannot simply be multiplied by the scale factor.
    """
    if n_points <= 0:
        return 0.0, 0.0
    per_stride = max(1.0, n_points / n_tasklets)
    k_eff = min(k, per_stride)
    insertions_per_stride = k_eff * (1.0 + max(0.0, np.log(per_stride / k_eff)))
    insertions = n_tasklets * insertions_per_stride
    comparisons = n_points + insertions * max(1.0, np.log2(max(k_eff, 2)))
    return comparisons, insertions


def scan_topk_threaded(
    distances: np.ndarray,
    ids: np.ndarray,
    k: int,
    n_tasklets: int,
    *,
    prune: bool = True,
) -> tuple[np.ndarray, np.ndarray, HeapStats]:
    """Full Opt4 pipeline over one cluster's distances.

    Points are strided across ``n_tasklets`` thread-local heaps exactly
    as the DPU kernel distributes read chunks, then merged (pruned or
    naive).  Functionally equivalent to an exact top-k.
    """
    if n_tasklets < 1:
        raise ConfigError("need at least one tasklet")
    distances = np.asarray(distances, dtype=np.float32)
    ids = np.asarray(ids, dtype=np.int64)
    heaps = [BoundedMaxHeap(k) for _ in range(n_tasklets)]
    for t in range(n_tasklets):
        heaps[t].push_many(distances[t::n_tasklets], ids[t::n_tasklets])
    if prune:
        return merge_heaps_pruned(heaps, k)
    return merge_heaps_naive(heaps, k)
