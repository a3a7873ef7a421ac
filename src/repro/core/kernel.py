"""The per-DPU IVFPQ kernel: functional execution + cycle charging.

This module simulates what the UpANNS DPU program does for one query on
one DPU (paper Figure 6): for each assigned cluster, build the LUT from
the codebook (threads share the work), compute the co-occurrence partial
sums, stream encoded points from MRAM and accumulate distances, feeding
thread-local top-k heaps; after the last cluster, merge the local heaps
into the DPU top-k with pruning (Opt4).  Four barriers separate the
stages.

Every functional step charges the DPU's ledger with the instruction and
DMA-traffic counts a real 350 MHz DPU would incur, using the per-token
cost constants below.  The constants are order-of-magnitude calibrated
against the UPMEM characterization literature; the *structure* (what
scales with M, cluster size, token count, read size, tasklets) is what
reproduces the paper's figures.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigError
from repro.core.encoding import EncodedCluster, build_flat_table
from repro.core.cooccurrence import CooccurrenceModel, PackedCombos
from repro.core.topk import (
    HeapStats,
    estimate_scan_stats,
    scan_topk_fast,
    scan_topk_fast_batch_flat,
)
from repro.hardware.counters import StageCycles
from repro.hardware.dpu import DPU
from repro.hardware.mram import MAX_DMA_BYTES, round_up_dma
from repro.hardware.specs import DEFAULT_N_TASKLETS
from repro.ivfpq.adc import adc_distances, adc_distances_direct
from repro.ivfpq.lut import build_lut
from repro.ivfpq.pq import ProductQuantizer
from repro.telemetry.pipeline import (
    dma_observations,
    observe_dma,
    observe_dma_batch,
)

# --- Instruction cost constants (per element) -------------------------------
INSTR_PER_LUT_ENTRY_PER_DIM = 3.0  # load codeword elem, sub/mul, accumulate
# Per cached partial sum: one LUT load + add per combination element,
# plus store/bookkeeping.  (= 8 instructions at the default length 3.)
INSTR_PER_COMBO_ELEMENT = 2.0
INSTR_PER_COMBO_OVERHEAD = 2.0
# The ADC inner loop is tight on a DPU: a 32-bit WRAM load covers two
# uint16 tokens and the add dual-issues with the index increment, so the
# amortized cost is close to one instruction per token.  This makes the
# distance stage DMA-bound at small MRAM read sizes — the regime the
# paper's Figure 17 sweep exposes.
INSTR_PER_TOKEN = 1.2
INSTR_PER_VECTOR_OVERHEAD = 3.0  # id fetch + heap root compare + branch
INSTR_PER_HEAP_COMPARISON = 2.0
INSTR_PER_HEAP_INSERTION = 6.0
# The codebook is streamed at the maximum legal DMA size; imported from
# the spec module so the chunk tracks the hardware constraint.
CODEBOOK_CHUNK_BYTES = MAX_DMA_BYTES

# One 0.0 slot appended after the fused tables of an ADC gather, and
# the offset of a dead CAE slot: past the end of any fused table, so
# the gather's clip mode resolves dead slots to the sentinel instead of
# masking them out per batch.
_SENTINEL_ZERO = np.zeros(1, dtype=np.float32)
_DEAD_SLOT = 1 << 30


@dataclass
class ClusterPayload:
    """What one cluster replica stores in a DPU's MRAM.

    Plain form keeps raw PQ codes; CAE form keeps the direct-address
    re-encoding.  ``nbytes`` is the on-device footprint used for both
    MRAM capacity checks and DMA traffic charging.
    """

    cluster_id: int
    ids: np.ndarray
    codes: np.ndarray | None = None  # (s, m) uint8, plain path
    encoded: EncodedCluster | None = None  # CAE path
    cooc: CooccurrenceModel | None = None
    # Lazily precomputed ADC gather offsets, column-major (the payload's
    # codes and slot masks never change once placed, so the grouped
    # kernel reuses them across batches).  Host-side acceleration state
    # only; keyed by ksub.
    _gather_cols: np.ndarray | None = field(default=None, repr=False, compare=False)
    _gather_key: int = field(default=-1, repr=False, compare=False)

    def __post_init__(self) -> None:
        if (self.codes is None) == (self.encoded is None):
            raise ConfigError("payload must be exactly one of plain / CAE")

    def adc_gather_columns(self, ksub: int) -> np.ndarray:
        """ADC gather offsets, column-major ``(m, s)`` int32.

        Plain: ``code + subspace * ksub`` into the flattened (m, ksub)
        LUT.  CAE (``ksub`` unused): slot addresses into the flat
        [LUT | partial sums] table, with dead (past-length) slots set to
        ``_DEAD_SLOT``, which the fused gather resolves to a 0.0
        sentinel: the exact value sequence
        ``np.where(mask, table[addr], 0.0)`` produces, without building
        the mask per batch.
        """
        if self._gather_cols is None or self._gather_key != ksub:
            if self.codes is not None:
                m = self.codes.shape[1]
                offsets = np.arange(m, dtype=np.int32)[:, None] * ksub
                cols = self.codes.T + offsets
            else:
                assert self.encoded is not None
                enc = self.encoded
                width = enc.addresses.shape[1]
                live = np.arange(width)[:, None] < enc.lengths[None, :]
                cols = np.where(live, enc.addresses.T, _DEAD_SLOT)
            self._gather_cols = np.ascontiguousarray(cols, dtype=np.int32)
            self._gather_key = ksub
        return self._gather_cols

    @property
    def size(self) -> int:
        return int(self.ids.shape[0])

    @property
    def packed_combos(self) -> PackedCombos | None:
        """This CAE cluster's combinations in gather form; None if plain."""
        return self.cooc.packed if self.cooc is not None else None

    @property
    def is_cae(self) -> bool:
        return self.encoded is not None

    @property
    def nbytes(self) -> int:
        if self.codes is not None:
            return int(self.ids.nbytes + self.codes.nbytes)
        assert self.encoded is not None
        return int(self.ids.nbytes + self.encoded.nbytes)

    @property
    def token_count(self) -> int:
        """Total ADC tokens the distance stage must consume."""
        if self.codes is not None:
            return int(self.codes.shape[0] * self.codes.shape[1])
        assert self.encoded is not None
        return int(self.encoded.lengths.sum())

    @property
    def scan_bytes(self) -> int:
        """Bytes streamed from MRAM during the distance stage."""
        if self.codes is not None:
            return int(self.codes.nbytes)
        assert self.encoded is not None
        return int(2 * self.encoded.lengths.sum())


@dataclass(frozen=True)
class KernelConfig:
    """Knobs the ablations sweep."""

    k: int = 10
    n_tasklets: int = DEFAULT_N_TASKLETS
    read_vectors: int = 16
    prune_topk: bool = True
    lut_entry_bytes: int = 2
    codebook_entry_bytes: int = 1
    # Timing-only extrapolation: multiply every per-point charge (scan
    # traffic, distance instructions, heap scan comparisons) by this
    # factor to model the paper's billion-scale list lengths while
    # computing functionally on scaled-down lists.  1.0 = no scaling.
    workload_scale: float = 1.0


@dataclass
class QueryKernelOutput:
    """One query's result on one DPU."""

    ids: np.ndarray  # ascending-distance local top-k
    distances: np.ndarray
    stage: StageCycles  # (compute+dma) cycles already combined per stage
    heap_stats: HeapStats


def _read_chunk_bytes(payload: ClusterPayload, cfg: KernelConfig) -> int:
    """DMA chunk size for scanning this cluster's encoded points."""
    if payload.codes is not None:
        per_vec = payload.codes.shape[1]
    else:
        assert payload.encoded is not None
        per_vec = 2 * payload.encoded.m  # worst-case tokens, 2 B each
    chunk = min(cfg.read_vectors * per_vec, MAX_DMA_BYTES)
    return round_up_dma(chunk)


def run_query_on_dpu(
    dpu: DPU,
    pq: ProductQuantizer,
    centroids: np.ndarray,
    payloads: list[ClusterPayload],
    query: np.ndarray,
    cfg: KernelConfig,
    luts: dict[int, np.ndarray] | None = None,
) -> QueryKernelOutput:
    """Execute one query over its clusters assigned to ``dpu``.

    Functional result: the exact local top-k over all assigned clusters.
    Timing result: per-stage cycles charged to the DPU ledger and
    returned in ``stage`` (DMA overlap already applied per stage).
    ``luts`` optionally supplies precomputed per-cluster LUTs (the engine
    batches their computation per query); the DPU is charged for
    building them either way.
    """
    if not payloads:
        raise ConfigError("no clusters assigned for this query on this DPU")
    stage = StageCycles()
    all_ids: list[np.ndarray] = []
    all_d: list[np.ndarray] = []
    tasklets = dpu.n_tasklets

    for payload in payloads:
        centroid = centroids[payload.cluster_id]
        # --- Stage b: LUT construction (threads share the codebook scan).
        if luts is not None and payload.cluster_id in luts:
            lut = luts[payload.cluster_id]
        else:
            lut = build_lut(pq, query, centroid)
        codebook_bytes = pq.dim * 256 * cfg.codebook_entry_bytes
        dma = dpu.charge_mram_read(codebook_bytes, CODEBOOK_CHUNK_BYTES)
        instr = pq.m * pq.ksub * pq.dsub * INSTR_PER_LUT_ENTRY_PER_DIM
        dpu.charge_instructions(instr)
        compute = dpu.pipeline.compute_cycles(instr, tasklets)
        stage.lut_construction += dpu.combine_cycles(compute, dma)
        stage.lut_construction += dpu.charge_barrier()  # Barrier 1

        # --- Stage b': co-occurrence partial sums (Opt3, still "LUT" time:
        # the paper attributes the slight LUT-stage increase to this step).
        if payload.is_cae and payload.cooc is not None:
            flat_table = build_flat_table(lut, payload.cooc)
            instr = payload.cooc.n_slots * (
                INSTR_PER_COMBO_OVERHEAD
                + INSTR_PER_COMBO_ELEMENT * max(payload.cooc.combo_length, 1)
            )
            dpu.charge_instructions(instr)
            stage.lut_construction += dpu.pipeline.compute_cycles(instr, tasklets)
        else:
            flat_table = None
        stage.lut_construction += dpu.charge_barrier()  # Barrier 2

        # --- Stage c: distance calculation (memory-bound scan).
        if payload.is_cae:
            assert payload.encoded is not None and flat_table is not None
            dists = adc_distances_direct(
                payload.encoded.addresses,
                flat_table,
                payload.encoded.lengths.astype(np.int64),
            )
        else:
            assert payload.codes is not None
            dists = adc_distances(payload.codes, lut)

        chunk = _read_chunk_bytes(payload, cfg)
        scale = cfg.workload_scale
        dma = dpu.charge_mram_read(int(payload.scan_bytes * scale), chunk)
        instr = scale * (
            payload.token_count * INSTR_PER_TOKEN
            + payload.size * INSTR_PER_VECTOR_OVERHEAD
        )
        dpu.charge_instructions(instr)
        compute = dpu.pipeline.compute_cycles(instr, tasklets)
        stage.distance_calc += dpu.combine_cycles(compute, dma)
        stage.distance_calc += dpu.charge_barrier()  # Barrier 0 (next iter safety)

        all_ids.append(payload.ids)
        all_d.append(dists)

    # --- Stage d: top-k with thread-local heaps + pruned merge (Opt4).
    ids = np.concatenate(all_ids)
    dists = np.concatenate(all_d)
    out_v, out_i, heap_stats = scan_topk_fast(
        dists, ids, cfg.k, tasklets, prune=cfg.prune_topk
    )
    dpu.counters.heap_comparisons += heap_stats.comparisons
    dpu.counters.pruned_insertions += heap_stats.pruned
    # Charge the scan analytically at the *scaled* list length — heap
    # insertions grow logarithmically, so simulated counts cannot be
    # linearly rescaled.  The merge term keeps the simulated pruned /
    # naive split: its cost ratio is what Opt4 changes.
    scan_comps, scan_ins = estimate_scan_stats(
        ids.shape[0] * cfg.workload_scale, cfg.k, tasklets
    )
    instr = (
        scan_comps * INSTR_PER_HEAP_COMPARISON
        + scan_ins * INSTR_PER_HEAP_INSERTION
        + heap_stats.merge_comparisons * INSTR_PER_HEAP_COMPARISON
    )
    dpu.charge_instructions(instr)
    stage.topk_selection += dpu.pipeline.compute_cycles(instr, tasklets)
    stage.topk_selection += dpu.charge_barrier()  # Barrier 3
    # Result write-back to MRAM for the host to gather.
    stage.topk_selection += dpu.charge_mram_write(
        max(8, out_v.shape[0] * 8), CODEBOOK_CHUNK_BYTES
    )

    return QueryKernelOutput(
        ids=out_i, distances=out_v, stage=stage, heap_stats=heap_stats
    )


@dataclass
class DpuWorkLog:
    """Accumulated work of one DPU over a batch."""

    stage: StageCycles = field(default_factory=StageCycles)
    queries_served: int = 0
    pairs_served: int = 0
    # Top-k candidates actually produced (may be < queries_served * k on
    # small clusters); the result-gather transfer is sized from this.
    results_returned: int = 0

    @property
    def total_cycles(self) -> float:
        return self.stage.total


# --- Grouped (vectorized) execution path ------------------------------------
#
# The functions below reproduce run_query_on_dpu's *charges* float-for-
# float while fusing its *functional* work across a whole batch
# (compute_batch_functional) and replaying charges per DPU
# (replay_batch_charges).  The contract is strict: for any worklist,
# the grouped path must leave the DPU ledger, the per-stage cycle sums
# and the top-k outputs bit-identical to the per-pair loop (pinned by
# tests/sim/golden_timings.json and the grouped-equivalence tests).


@dataclass(frozen=True)
class PairCharges:
    """Precomputed cost of visiting one cluster payload for one query.

    Every term a (query, cluster) visit adds to the DPU ledger is a pure
    function of (payload, kernel config, tasklet count) — queries only
    change the *data*, never the modeled cost.  Planning the charges
    once per cluster and replaying them per visit is therefore exact:
    integer counter deltas add associatively, and the per-stage float
    terms are applied in the same order as the per-pair loop.
    """

    instructions: int  # sum of the per-charge int() truncations
    mram_read_bytes: int
    dma_transactions: int
    dma_cycles: int
    lut_combined: float  # combine_cycles(LUT compute, codebook DMA)
    is_cae: bool
    combo_compute: float  # partial-sum compute cycles (0.0 when plain)
    dist_combined: float  # combine_cycles(scan compute, scan DMA)
    # (total_bytes, chunk_bytes) of the two MRAM read streams, replayed
    # into telemetry per visit.
    dma_reads: tuple[tuple[int, int], ...]
    # The same streams pre-aggregated as (transfer size, count) pairs,
    # so batched replay skips the per-visit divmod/rounding.
    dma_read_observations: tuple[tuple[int, int], ...]


def plan_pair_charges(
    dpu: DPU, pq: ProductQuantizer, payload: ClusterPayload, cfg: KernelConfig
) -> PairCharges:
    """Plan one payload's visit charges without touching the ledger."""
    t = dpu.n_tasklets
    codebook_bytes = pq.dim * 256 * cfg.codebook_entry_bytes
    cb_dma = dpu.mram_model.bulk_transfer_cycles(codebook_bytes, CODEBOOK_CHUNK_BYTES)
    cb_tx = dpu.mram_model.transactions_for(codebook_bytes, CODEBOOK_CHUNK_BYTES)
    lut_instr = pq.m * pq.ksub * pq.dsub * INSTR_PER_LUT_ENTRY_PER_DIM
    lut_combined = dpu.combine_cycles(
        dpu.pipeline.compute_cycles(lut_instr, t), cb_dma
    )

    is_cae = payload.is_cae and payload.cooc is not None
    if is_cae:
        assert payload.cooc is not None
        combo_instr = payload.cooc.n_slots * (
            INSTR_PER_COMBO_OVERHEAD
            + INSTR_PER_COMBO_ELEMENT * max(payload.cooc.combo_length, 1)
        )
        combo_compute = dpu.pipeline.compute_cycles(combo_instr, t)
    else:
        combo_instr = 0.0
        combo_compute = 0.0

    chunk = _read_chunk_bytes(payload, cfg)
    scale = cfg.workload_scale
    scan_bytes = int(payload.scan_bytes * scale)
    scan_dma = dpu.mram_model.bulk_transfer_cycles(scan_bytes, chunk)
    scan_tx = dpu.mram_model.transactions_for(scan_bytes, chunk)
    dist_instr = scale * (
        payload.token_count * INSTR_PER_TOKEN
        + payload.size * INSTR_PER_VECTOR_OVERHEAD
    )
    dist_combined = dpu.combine_cycles(
        dpu.pipeline.compute_cycles(dist_instr, t), scan_dma
    )

    return PairCharges(
        instructions=int(lut_instr) + int(combo_instr) + int(dist_instr),
        mram_read_bytes=codebook_bytes + scan_bytes,
        dma_transactions=cb_tx + scan_tx,
        dma_cycles=int(cb_dma) + int(scan_dma),
        lut_combined=lut_combined,
        is_cae=is_cae,
        combo_compute=combo_compute,
        dist_combined=dist_combined,
        dma_reads=((codebook_bytes, CODEBOOK_CHUNK_BYTES), (scan_bytes, chunk)),
        dma_read_observations=dma_observations(codebook_bytes, CODEBOOK_CHUNK_BYTES)
        + dma_observations(scan_bytes, chunk),
    )


def apply_pair_charges(dpu: DPU, pc: PairCharges, stage: StageCycles) -> None:
    """Replay one visit's charges: ledger deltas + ordered stage floats."""
    counters = dpu.counters
    counters.instructions += pc.instructions
    counters.mram_read_bytes += pc.mram_read_bytes
    counters.dma_transactions += pc.dma_transactions
    counters.dma_cycles += pc.dma_cycles
    counters.barriers += 3  # Barriers 1, 2 and 0 of the per-pair loop
    for total_bytes, chunk in pc.dma_reads:
        observe_dma("read", total_bytes, chunk)
    barrier = dpu.barrier_model.barrier_cycles(dpu.n_tasklets)
    stage.lut_construction += pc.lut_combined
    stage.lut_construction += barrier
    if pc.is_cae:
        stage.lut_construction += pc.combo_compute
    stage.lut_construction += barrier
    stage.distance_calc += pc.dist_combined
    stage.distance_calc += barrier


def apply_topk_charges(
    dpu: DPU,
    stage: StageCycles,
    heap_stats: HeapStats,
    total_candidates: int,
    result_len: int,
    cfg: KernelConfig,
) -> None:
    """Charge the top-k stage exactly as run_query_on_dpu's stage d."""
    t = dpu.n_tasklets
    dpu.counters.heap_comparisons += heap_stats.comparisons
    dpu.counters.pruned_insertions += heap_stats.pruned
    scan_comps, scan_ins = estimate_scan_stats(
        total_candidates * cfg.workload_scale, cfg.k, t
    )
    instr = (
        scan_comps * INSTR_PER_HEAP_COMPARISON
        + scan_ins * INSTR_PER_HEAP_INSERTION
        + heap_stats.merge_comparisons * INSTR_PER_HEAP_COMPARISON
    )
    dpu.charge_instructions(instr)
    stage.topk_selection += dpu.pipeline.compute_cycles(instr, t)
    stage.topk_selection += dpu.charge_barrier()  # Barrier 3
    stage.topk_selection += dpu.charge_mram_write(
        max(8, result_len * 8), CODEBOOK_CHUNK_BYTES
    )


#: Fusion bound of compute_batch_functional: consecutive DPUs share one
#: ADC gather and one top-k dispatch while their candidate count stays
#: within this many rows.
_GATHER_CHUNK_ROWS = 1 << 16

#: Target rows per _gather_sum chunk (whole pairs, so a chunk runs past
#: it up to the next pair boundary): the (m, rows) float32 block (256 KB
#: at m=8) stays cache-resident between its gather and its sum.
_COLUMN_CHUNK_ROWS = 1 << 13


def _pairwise_rows(cols: np.ndarray, lo: int, n: int) -> None:
    """Sum rows ``lo .. lo+n`` of ``cols`` into ``cols[lo]``, in place.

    Reproduces the order NumPy's pairwise summation applies to one
    contiguous reduction of ``n`` elements: sequential below 8; eight
    strided accumulators, the tree ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))``
    and a sequential tail up to 128; above that, recursive halving at a
    multiple of 8.  Each step adds whole rows, so one NumPy call covers
    every reduction at once.
    """
    if n < 8:
        for i in range(lo + 1, lo + n):
            np.add(cols[lo], cols[i], out=cols[lo])
        return
    if n <= 128:
        acc = cols[lo : lo + 8]
        end = lo + n - n % 8
        for i in range(lo + 8, end, 8):
            np.add(acc, cols[i : i + 8], out=acc)
        np.add(acc[0::2], acc[1::2], out=acc[0::2])
        np.add(acc[0::4], acc[2::4], out=acc[0::4])
        np.add(acc[0], acc[4], out=acc[0])
        for i in range(end, lo + n):
            np.add(cols[lo], cols[i], out=cols[lo])
        return
    half = n // 2
    half -= half % 8
    _pairwise_rows(cols, lo, half)
    _pairwise_rows(cols, lo + half, n - half)
    np.add(cols[lo], cols[lo + half], out=cols[lo])


def _column_sum(cols: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``np.add.reduce(cols.T, axis=1, dtype=np.float32)``, bit for bit.

    ``cols`` is a ``(width, rows)`` float32 block, one row per summed
    column, and is used as scratch.  The reduction starts from the
    additive identity, so the result is ``0.0 + pairwise(row)``: the
    final add only turns an all-``-0.0`` sum into ``+0.0``.
    """
    _pairwise_rows(cols, 0, cols.shape[0])
    return np.add(cols[0], np.float32(0.0), out=out)


def _gather_sum(
    table: np.ndarray, cols: list[np.ndarray], bases: np.ndarray, sizes: np.ndarray
) -> np.ndarray:
    """Row sums of ``table`` gathered through every pair's columns.

    ``cols[i]`` is pair i's ``(width, sizes[i])`` column-major offset
    array and ``bases[i]`` the position of its table inside ``table``.
    Chunk by chunk (whole pairs, until a chunk holds at least
    ``_COLUMN_CHUNK_ROWS`` rows), the pairs' offsets are shifted into
    one reused index block, each column is gathered into one contiguous
    vector, and the columns are combined in the pairwise order of the
    axis-1 sum (:func:`_column_sum`).  So the result is bit-identical to
    the row-major gather and reduction of the looped oracle, while every
    NumPy call runs over a whole chunk instead of one row.
    """
    ends = np.cumsum(sizes)
    dists = np.empty(int(ends[-1]), dtype=np.float32)
    # Each chunk ends at the first pair boundary at or past a multiple
    # of _COLUMN_CHUNK_ROWS.
    marks = np.arange(_COLUMN_CHUNK_ROWS, ends[-1], _COLUMN_CHUNK_ROWS)
    bounds = np.unique(np.r_[0, np.searchsorted(ends, marks) + 1, len(cols)])
    rows = np.r_[0, ends][bounds]
    width = cols[0].shape[0]
    chunk = int(np.diff(rows).max())
    # Reused blocks: fresh multi-MB temporaries page-fault.
    idx = np.empty((width, chunk), dtype=np.intp)
    block = np.empty((width, chunk), dtype=np.float32)
    bounds_l, rows_l = bounds.tolist(), rows.tolist()
    for a, b, s, e in zip(bounds_l, bounds_l[1:], rows_l, rows_l[1:]):
        cidx = idx[:, : e - s]
        np.concatenate(cols[a:b], axis=1, out=cidx)
        np.add(cidx, np.repeat(bases[a:b], sizes[a:b]), out=cidx)
        vals = block[:, : e - s]
        for j in range(width):
            np.take(table, cidx[j], out=vals[j], mode="clip")
        _column_sum(vals, dists[s:e])
    return dists


def compute_pair_distances(
    pairs: list[tuple[ClusterPayload, np.ndarray]],
) -> list[np.ndarray]:
    """Fused ADC over many (payload, table) pairs.

    ``table`` is the (m, ksub) LUT for a plain payload or the flat
    [LUT | partial sums] table for a CAE payload.  Pairs are grouped by
    encoding and row width; each group's tables are concatenated, with
    one 0.0 sentinel at the end for dead CAE slots, and one
    :func:`_gather_sum` runs every pair's memoized column-major gather
    offsets over them.  Every row sums exactly the element sequence of
    the per-pair :func:`adc_distances` / :func:`adc_distances_direct`
    call, in the same order — the outputs are bit-identical.
    """
    out: list[np.ndarray] = [None] * len(pairs)  # type: ignore[list-item]
    groups: dict[tuple[bool, int], list[int]] = {}
    for i, (payload, _) in enumerate(pairs):
        if payload.encoded is not None:
            key = (True, payload.encoded.addresses.shape[1])
        else:
            assert payload.codes is not None
            key = (False, payload.codes.shape[1])
        groups.setdefault(key, []).append(i)

    for (cae, _width), idxs in groups.items():
        tables = [pairs[i][1] for i in idxs]
        ksub = 0 if cae else tables[0].shape[1]
        cols = [pairs[i][0].adc_gather_columns(ksub) for i in idxs]
        sizes = np.fromiter((c.shape[1] for c in cols), np.int64, len(cols))
        table_sizes = np.fromiter((t.size for t in tables), np.int64, len(tables))
        bases = np.zeros(len(idxs), dtype=np.int64)
        np.cumsum(table_sizes[:-1], out=bases[1:])
        assert bases[-1] + table_sizes[-1] <= _DEAD_SLOT
        flat = np.concatenate([t.reshape(-1) for t in tables] + [_SENTINEL_ZERO])
        dists = _gather_sum(flat, cols, bases, sizes)
        ends = np.cumsum(sizes).tolist()
        for i, start, end in zip(idxs, [0, *ends[:-1]], ends):
            out[i] = dists[start:end]
    return out


def compute_groups_functional(
    groups: list[tuple[int, list[ClusterPayload]]],
    tables: dict[int, dict[int, np.ndarray]],
    k: int,
    n_tasklets: int,
    *,
    prune: bool = True,
) -> tuple[list[tuple[np.ndarray, np.ndarray, HeapStats]], np.ndarray]:
    """Pure functional half of the grouped kernel: distances + top-k.

    Touches no ledger, no telemetry and no module state, so it is safe
    to run in a forked worker process (the ``repro.parallel`` executor
    ships exactly this computation out of process).  Returns the
    per-group ``(values, ids, HeapStats)`` triples in ``groups`` order
    plus the per-group candidate counts the charge replay needs.
    """
    pair_list: list[tuple[ClusterPayload, np.ndarray]] = []
    all_payloads: list[ClusterPayload] = []
    for qi, payloads in groups:
        if not payloads:
            raise ConfigError("no clusters assigned for this query on this DPU")
        for payload in payloads:
            pair_list.append((payload, tables[qi][payload.cluster_id]))
            all_payloads.append(payload)
    dists = compute_pair_distances(pair_list)

    # Pairs are already laid out in group order, so the per-group
    # candidate slices are just contiguous runs of one flat array.
    flat_v = dists[0] if len(dists) == 1 else np.concatenate(dists)
    flat_i = (
        all_payloads[0].ids
        if len(all_payloads) == 1
        else np.concatenate([p.ids for p in all_payloads])
    )
    pair_sizes = np.fromiter(
        (d.shape[0] for d in dists), np.int64, len(dists)
    )
    counts = np.fromiter((len(p) for _qi, p in groups), np.int64, len(groups))
    bounds = np.zeros(len(groups), dtype=np.int64)
    np.cumsum(counts[:-1], out=bounds[1:])
    group_sizes = np.add.reduceat(pair_sizes, bounds)
    topk = scan_topk_fast_batch_flat(
        flat_v, flat_i, group_sizes, k, n_tasklets, prune=prune
    )
    return topk, group_sizes


def compute_batch_functional(
    dpu_groups: list[tuple[int, list[tuple[int, list[ClusterPayload]]]]],
    tables: dict[int, dict[int, np.ndarray]],
    k: int,
    n_tasklets: int,
    *,
    prune: bool = True,
) -> dict[int, tuple[list[tuple[np.ndarray, np.ndarray, HeapStats]], np.ndarray]]:
    """Functional half of a whole batch: every DPU's worklist, fused.

    ``dpu_groups`` lists ``(dpu_id, [(query index, payloads)])`` in
    ascending DPU order.  Runs of consecutive DPUs whose candidate count
    stays within ``_GATHER_CHUNK_ROWS`` share one
    :func:`compute_groups_functional` call (one ADC gather, one top-k
    dispatch); a DPU above the bound runs alone.  Groups are independent,
    so the results are bit-identical to one call per DPU.  Returns
    ``{dpu_id: (topk triples, group_sizes)}`` for replay_batch_charges.
    """
    runs: list[list[tuple[int, list[tuple[int, list[ClusterPayload]]]]]] = []
    rows = 0
    for entry in dpu_groups:
        n = sum(p.size for _qi, payloads in entry[1] for p in payloads)
        if not runs or rows + n > _GATHER_CHUNK_ROWS:
            runs.append([])
            rows = 0
        runs[-1].append(entry)
        rows += n
    out: dict[int, tuple[list, np.ndarray]] = {}
    for run in runs:
        topk, group_sizes = compute_groups_functional(
            [group for _d, groups in run for group in groups],
            tables,
            k,
            n_tasklets,
            prune=prune,
        )
        start = 0
        for dpu_id, groups in run:
            end = start + len(groups)
            out[dpu_id] = (topk[start:end], group_sizes[start:end])
            start = end
    return out


def replay_batch_charges(
    dpu: DPU,
    pq: ProductQuantizer,
    groups: list[tuple[int, list[ClusterPayload]]],
    topk: list[tuple[np.ndarray, np.ndarray, HeapStats]],
    group_sizes: np.ndarray,
    cfg: KernelConfig,
    charge_cache: dict[tuple[int, int], PairCharges] | None = None,
) -> list[QueryKernelOutput]:
    """Ledger half of the grouped kernel: replay every visit's charges.

    Consumes one DPU's entry of :func:`compute_batch_functional`
    (wherever it was computed — inline or in a worker process) and
    charges the DPU ledger, stage cycles and DMA telemetry exactly as
    the per-pair reference loop would.  Must run in the parent process:
    this is the only half that mutates shared simulator state.

    ``charge_cache`` memoizes charges across calls and batches:
    :class:`PairCharges` per (cluster id, tasklets) and whole-group
    aggregates per ordered cluster-id tuple.
    """
    # Charge replay, batched.  Integer ledger deltas and DMA telemetry
    # increments add associatively, so they are accumulated locally and
    # flushed once; the per-stage cycle floats are the only
    # order-sensitive terms and are added in the per-pair loop's exact
    # sequence (each group's StageCycles starts from 0.0 as before).
    t = dpu.n_tasklets
    barrier = dpu.barrier_model.barrier_cycles(t)
    scale = cfg.workload_scale
    if charge_cache is None:
        charge_cache = {}
    instr_acc = read_bytes_acc = write_bytes_acc = 0
    tx_acc = dmac_acc = barriers_acc = 0
    heap_comp_acc = pruned_acc = 0
    read_obs: dict[int, int] = {}
    write_obs: dict[int, int] = {}

    outputs: list[QueryKernelOutput] = []
    for (_qi, payloads), (out_v, out_i, heap_stats), total in zip(
        groups, topk, group_sizes
    ):
        # Group-level memo: for a fixed tasklet count the whole group's
        # aggregated charges are determined by its ordered cluster-id
        # tuple — the stage floats are order-sensitive but deterministic,
        # so storing the summed result is bit-identical to re-summing.
        # Repeat traffic (the warm service path) hits this directly.
        gkey = ("group", tuple(p.cluster_id for p in payloads), t)
        agg = charge_cache.get(gkey)
        if agg is None:
            g_instr = g_read = g_tx = g_dmac = 0
            g_obs: dict[int, int] = {}
            lut_c = 0.0
            dist_c = 0.0
            for payload in payloads:
                key = (payload.cluster_id, t)
                pc = charge_cache.get(key)
                if pc is None:
                    pc = plan_pair_charges(dpu, pq, payload, cfg)
                    charge_cache[key] = pc
                g_instr += pc.instructions
                g_read += pc.mram_read_bytes
                g_tx += pc.dma_transactions
                g_dmac += pc.dma_cycles
                for size, count in pc.dma_read_observations:
                    g_obs[size] = g_obs.get(size, 0) + count
                lut_c += pc.lut_combined
                lut_c += barrier
                if pc.is_cae:
                    lut_c += pc.combo_compute
                lut_c += barrier
                dist_c += pc.dist_combined
                dist_c += barrier
            agg = (
                g_instr,
                g_read,
                g_tx,
                g_dmac,
                tuple(g_obs.items()),
                lut_c,
                dist_c,
                len(payloads),
            )
            charge_cache[gkey] = agg
        g_instr, g_read, g_tx, g_dmac, g_obs_items, lut_c, dist_c, n_pairs = agg
        instr_acc += g_instr
        read_bytes_acc += g_read
        tx_acc += g_tx
        dmac_acc += g_dmac
        barriers_acc += 3 * n_pairs  # Barriers 1, 2 and 0 per pair
        for size, count in g_obs_items:
            read_obs[size] = read_obs.get(size, 0) + count

        # Top-k stage, exactly as run_query_on_dpu's stage d.
        heap_comp_acc += heap_stats.comparisons
        pruned_acc += heap_stats.pruned
        skey = ("scan", int(total), t)
        scan = charge_cache.get(skey)
        if scan is None:
            scan = estimate_scan_stats(int(total) * scale, cfg.k, t)
            charge_cache[skey] = scan
        scan_comps, scan_ins = scan
        instr = (
            scan_comps * INSTR_PER_HEAP_COMPARISON
            + scan_ins * INSTR_PER_HEAP_INSERTION
            + heap_stats.merge_comparisons * INSTR_PER_HEAP_COMPARISON
        )
        instr_acc += int(instr)
        topk_c = dpu.pipeline.compute_cycles(instr, t)
        topk_c += barrier  # Barrier 3
        barriers_acc += 1
        wkey = ("write", out_v.shape[0], t)
        write = charge_cache.get(wkey)
        if write is None:
            nbytes = max(8, out_v.shape[0] * 8)
            cycles = dpu.mram_model.bulk_transfer_cycles(
                nbytes, CODEBOOK_CHUNK_BYTES
            )
            write = (
                cycles,
                nbytes,
                dpu.mram_model.transactions_for(nbytes, CODEBOOK_CHUNK_BYTES),
                int(cycles),
                dma_observations(nbytes, CODEBOOK_CHUNK_BYTES),
            )
            charge_cache[wkey] = write
        w_cycles, w_bytes, w_tx, w_dmac, w_observations = write
        write_bytes_acc += w_bytes
        tx_acc += w_tx
        dmac_acc += w_dmac
        for size, count in w_observations:
            write_obs[size] = write_obs.get(size, 0) + count
        topk_c += w_cycles

        outputs.append(
            QueryKernelOutput(
                ids=out_i,
                distances=out_v,
                stage=StageCycles(
                    lut_construction=lut_c,
                    distance_calc=dist_c,
                    topk_selection=topk_c,
                ),
                heap_stats=heap_stats,
            )
        )

    counters = dpu.counters
    counters.instructions += instr_acc
    counters.mram_read_bytes += read_bytes_acc
    counters.mram_write_bytes += write_bytes_acc
    counters.dma_transactions += tx_acc
    counters.dma_cycles += dmac_acc
    counters.barriers += barriers_acc
    counters.heap_comparisons += heap_comp_acc
    counters.pruned_insertions += pruned_acc
    observe_dma_batch("read", read_bytes_acc, read_obs)
    observe_dma_batch("write", write_bytes_acc, write_obs)
    return outputs
