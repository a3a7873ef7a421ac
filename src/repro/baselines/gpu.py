"""Faiss-GPU-like baseline: functional IVFPQ + A100 cost model.

The paper's profiling (Nsight, Figures 1 and 19) shows the A100 is *not*
bandwidth-bound on IVFPQ: distance calculation is fast behind 1.9 TB/s
HBM, but the low-parallelism top-k stage — CUDA stream synchronization
and k-selection — consumes 64-89 % of runtime and grows with k.  The
model therefore charges:

* filtering/LUT as GEMM FLOPs (negligible),
* the scan at a high fraction of HBM bandwidth,
* top-k as per-(query-tile, probe) k-select kernel launches plus
  synchronization, scaling with k — the dominant term.

The A100's 80 GB capacity is also modeled: an index whose working set
does not fit raises :class:`~repro.errors.DeviceOutOfMemoryError`,
reproducing the paper's blue-X DEEP1B markers in Figure 12.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import math

import numpy as np

from repro.core.validation import validate_queries
from repro.errors import DeviceOutOfMemoryError, NotTrainedError
from repro.baselines.cpu import BaselineBatchResult
from repro.hardware.counters import StageCycles
from repro.hardware.specs import A100_PCIE_80GB, GpuSpec
from repro.ivfpq.index import IVFPQIndex, SearchResult


@dataclass
class GpuEngine:
    """GPU IVFPQ engine with an analytic A100 timing + capacity model."""

    index: IVFPQIndex
    spec: GpuSpec = field(default_factory=lambda: A100_PCIE_80GB)
    workload_scale: float = 1.0
    flop_efficiency: float = 0.5
    scan_bandwidth_efficiency: float = 0.65
    # k-select: the paper's Nsight profiling shows GPU runtime dominated
    # (64-89 %) by low-parallelism k-selection + CUDA stream sync, not
    # bandwidth.  We charge a per-candidate selection cost that grows
    # mildly with k (Figure 18/19 trends) plus a per-tile sync term.
    query_tile: int = 256
    select_ns_per_candidate: float = 0.09
    select_k_coefficient: float = 0.02
    sync_us_per_tile: float = 45.0
    # Bytes per stored vector beyond PQ codes (ids + interleaved layout
    # padding); raw-vector re-ranking storage can be added per dataset
    # (DEEP1B-style float corpora need re-ranking to recover recall).
    id_bytes: int = 8
    rerank_bytes_per_vector: int = 0
    # Transient per-candidate selection state resident during the scan
    # (distance + index in the k-select working buffers, amortized over
    # the candidate stream).
    temp_bytes_per_candidate: float = 2.0
    # The capacity model can be evaluated at a different (usually full,
    # unscaled-dataset) size than the timing model: memory is about what
    # must be resident, not what a query touches.  None = workload_scale.
    memory_scale: float | None = None

    def required_bytes(self, nprobe: int) -> float:
        """Modeled device working set at the effective (scaled) size."""
        scale = self.memory_scale if self.memory_scale is not None else self.workload_scale
        n_eff = self.index.ntotal * scale
        static = n_eff * (self.index.m + self.id_bytes + self.rerank_bytes_per_vector)
        avg_cluster = n_eff / max(self.index.n_clusters, 1)
        temp = (
            self.query_tile
            * nprobe
            * avg_cluster
            * self.temp_bytes_per_candidate
        )
        return static + temp

    def check_memory(self, nprobe: int) -> None:
        need = self.required_bytes(nprobe)
        if need > self.spec.memory_bytes:
            raise DeviceOutOfMemoryError(
                f"GPU needs {need / 1e9:.1f} GB (index + k-select temporaries "
                f"at nprobe={nprobe}) but has {self.spec.memory_bytes / 1e9:.0f} GB"
            )

    def search_batch(
        self,
        queries: np.ndarray,
        k: int,
        nprobe: int,
        *,
        compute_results: bool = True,
    ) -> BaselineBatchResult:
        """Search a batch; ``compute_results=False`` models timing only."""
        if not self.index.is_trained:
            raise NotTrainedError("index must be trained")
        self.check_memory(nprobe)
        queries = validate_queries(queries, dim=self.index.dim)
        nq = queries.shape[0]
        if compute_results:
            result: SearchResult = self.index.search(queries, k, nprobe)
            ids, distances = result.ids, result.distances
        else:
            ids = np.full((nq, k), -1, dtype=np.int64)
            distances = np.full((nq, k), np.inf, dtype=np.float32)
        stage = self._stage_model(queries, k, nprobe)
        return BaselineBatchResult(
            ids=ids,
            distances=distances,
            stage_seconds=stage,
            total_seconds=stage.total,
        )

    def _stage_model(self, queries: np.ndarray, k: int, nprobe: int) -> StageCycles:
        nq = queries.shape[0]
        dim = self.index.dim
        m = self.index.m
        ksub = self.index.pq.ksub
        dsub = self.index.pq.dsub
        flops = self.spec.flops * self.flop_efficiency

        filter_s = 2.0 * nq * self.index.n_clusters * dim / flops
        lut_s = 2.0 * nq * nprobe * m * ksub * dsub / flops

        scanned = float(self.index.scanned_points(queries, nprobe).sum())
        scanned *= self.workload_scale
        bw = self.spec.bandwidth_bytes_per_s * self.scan_bandwidth_efficiency
        dist_s = scanned * m / bw

        # Top-k: per-candidate k-selection at low parallelism (grows
        # mildly with k) plus per-tile launch + stream synchronization.
        n_tiles = math.ceil(nq / self.query_tile)
        select_s = (
            scanned
            * self.select_ns_per_candidate
            * (1.0 + self.select_k_coefficient * k)
            * 1e-9
        )
        sync_s = (
            n_tiles
            * (self.sync_us_per_tile + nprobe * self.spec.kernel_launch_us / 64.0)
            * 1e-6
        )
        topk_s = select_s + sync_s

        return StageCycles(
            cluster_filter=filter_s,
            lut_construction=lut_s,
            distance_calc=dist_s,
            topk_selection=topk_s,
        )
