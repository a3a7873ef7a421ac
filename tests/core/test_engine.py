"""UpANNS engine tests: end-to-end correctness and accounting."""

import numpy as np
import pytest

from repro.baselines.pim_naive import PIM_NAIVE_CONFIG
from repro.config import IndexConfig, QueryConfig, SystemConfig, UpANNSConfig
from repro.core.engine import UpANNSEngine
from repro.errors import ConfigError, NotTrainedError
from repro.hardware.specs import PimSystemSpec


def make_config(upanns=None, nprobe=8, k=5, n_dpus=16, timing_scale=1.0):
    pim = PimSystemSpec(n_dimms=1, chips_per_dimm=n_dpus // 8 or 1, dpus_per_chip=8)
    return SystemConfig(
        index=IndexConfig(dim=32, n_clusters=32, m=8, train_iters=6),
        query=QueryConfig(nprobe=nprobe, k=k, batch_size=40),
        upanns=upanns if upanns is not None else UpANNSConfig(),
        pim=pim,
        timing_scale=timing_scale,
    )


@pytest.fixture(scope="module")
def built_engine(small_dataset, trained_index, history_queries):
    eng = UpANNSEngine(make_config())
    eng.build(
        small_dataset.vectors,
        history_queries=history_queries,
        prebuilt_index=trained_index,
    )
    return eng


class TestLifecycle:
    def test_search_before_build_raises(self):
        eng = UpANNSEngine(make_config())
        with pytest.raises(NotTrainedError):
            eng.search_batch(np.zeros((2, 32), np.float32))

    def test_refresh_before_build_raises(self):
        with pytest.raises(NotTrainedError):
            UpANNSEngine(make_config()).refresh_placement()

    def test_prebuilt_geometry_checked(self, small_dataset, trained_index):
        cfg = SystemConfig(
            index=IndexConfig(dim=32, n_clusters=16, m=8, train_iters=2),
            pim=PimSystemSpec(n_dimms=1, chips_per_dimm=2, dpus_per_chip=8),
        )
        eng = UpANNSEngine(cfg)
        with pytest.raises(ConfigError):
            eng.build(small_dataset.vectors, prebuilt_index=trained_index)

    def test_build_from_scratch(self, small_dataset):
        eng = UpANNSEngine(make_config())
        eng.build(small_dataset.vectors)
        assert eng.index.ntotal == small_dataset.n


class TestFunctionalExactness:
    @pytest.mark.parametrize(
        "upanns",
        [UpANNSConfig(), PIM_NAIVE_CONFIG, UpANNSConfig(enable_cae=False)],
        ids=["upanns", "pim-naive", "no-cae"],
    )
    def test_engine_matches_reference_index(
        self, small_dataset, trained_index, history_queries, small_queries, upanns
    ):
        """The paper: 'the optimizations in UpANNS do not impact the
        accuracy' — every engine variant returns the reference results."""
        eng = UpANNSEngine(make_config(upanns=upanns))
        eng.build(
            small_dataset.vectors,
            history_queries=history_queries,
            prebuilt_index=trained_index,
        )
        res = eng.search_batch(small_queries)
        ref = trained_index.search(small_queries, 5, 8)
        np.testing.assert_allclose(
            np.where(np.isfinite(res.distances), res.distances, -1),
            np.where(np.isfinite(ref.distances), ref.distances, -1),
            rtol=1e-4,
            atol=1e-4,
        )

    def test_k_override(self, built_engine, small_queries):
        res = built_engine.search_batch(small_queries, k=3)
        assert res.ids.shape == (len(small_queries), 3)

    def test_deterministic(self, built_engine, small_queries):
        a = built_engine.search_batch(small_queries)
        b = built_engine.search_batch(small_queries)
        np.testing.assert_array_equal(a.ids, b.ids)


class TestAccounting:
    def test_timing_components_positive(self, built_engine, small_queries):
        res = built_engine.search_batch(small_queries)
        t = res.timing
        assert t.host_filter_s > 0
        assert t.dpu_makespan_s > 0
        assert t.total_s == pytest.approx(
            t.host_filter_s
            + t.host_schedule_s
            + t.transfer_in_s
            + t.dpu_makespan_s
            + t.transfer_out_s
            + t.host_aggregate_s
        )

    def test_qps_consistent_with_total(self, built_engine, small_queries):
        res = built_engine.search_batch(small_queries)
        assert res.qps == pytest.approx(len(small_queries) / res.timing.total_s)

    def test_stage_seconds_sum_close_to_makespan(self, built_engine, small_queries):
        res = built_engine.search_batch(small_queries)
        dpu_stage_total = (
            res.stage_seconds.lut_construction
            + res.stage_seconds.distance_calc
            + res.stage_seconds.topk_selection
        )
        assert dpu_stage_total == pytest.approx(res.timing.dpu_makespan_s, rel=0.01)

    def test_heap_stats_collected(self, built_engine, small_queries):
        res = built_engine.search_batch(small_queries)
        assert res.heap_stats.comparisons > 0

    def test_trace_records_batches(self, small_dataset, trained_index, small_queries):
        eng = UpANNSEngine(make_config())
        eng.build(small_dataset.vectors, prebuilt_index=trained_index)
        before = eng.trace.total_observations
        eng.search_batch(small_queries)
        assert eng.trace.total_observations == before + small_queries.shape[0] * 8

    def test_mram_accounting(self, built_engine):
        used = built_engine.pim.total_mram_used()
        payload_bytes = sum(
            p.nbytes * len(built_engine.placement.replicas[c])
            for c, p in enumerate(built_engine._payloads)
            if p.size > 0
        )
        assert used == payload_bytes

    def test_timing_scale_slows_batch(
        self, small_dataset, trained_index, history_queries, small_queries
    ):
        slow = UpANNSEngine(make_config(timing_scale=1000.0))
        slow.build(
            small_dataset.vectors,
            history_queries=history_queries,
            prebuilt_index=trained_index,
        )
        fast = UpANNSEngine(make_config(timing_scale=1.0))
        fast.build(
            small_dataset.vectors,
            history_queries=history_queries,
            prebuilt_index=trained_index,
        )
        assert (
            slow.search_batch(small_queries).timing.dpu_makespan_s
            > 10 * fast.search_batch(small_queries).timing.dpu_makespan_s
        )  # per-pair fixed LUT costs dilute the ratio below 1000x


class TestOptimizationEffects:
    def test_placement_beats_naive_balance(
        self, small_dataset, trained_index, history_queries, small_queries
    ):
        smart = UpANNSEngine(make_config())
        smart.build(
            small_dataset.vectors,
            history_queries=history_queries,
            prebuilt_index=trained_index,
        )
        naive = UpANNSEngine(make_config(upanns=PIM_NAIVE_CONFIG))
        naive.build(
            small_dataset.vectors,
            history_queries=history_queries,
            prebuilt_index=trained_index,
        )
        r_smart = smart.search_batch(small_queries)
        r_naive = naive.search_batch(small_queries)
        assert r_smart.cycle_load_ratio < r_naive.cycle_load_ratio

    def test_cae_produces_length_reduction(self, built_engine):
        assert built_engine.length_reduction_rate() > 0.0

    def test_replication_factor_above_one_with_skew(self, built_engine):
        assert built_engine.replication_factor() > 1.0

    def test_refresh_placement_runs(self, small_dataset, trained_index, small_queries):
        eng = UpANNSEngine(make_config())
        eng.build(small_dataset.vectors, prebuilt_index=trained_index)
        eng.search_batch(small_queries)
        eng.refresh_placement()
        res = eng.search_batch(small_queries)
        ref = trained_index.search(small_queries, 5, 8)
        np.testing.assert_allclose(
            np.where(np.isfinite(res.distances), res.distances, -1),
            np.where(np.isfinite(ref.distances), ref.distances, -1),
            rtol=1e-4, atol=1e-4,
        )


TIMING_FIELDS = (
    "host_filter_s",
    "host_schedule_s",
    "transfer_in_s",
    "dpu_makespan_s",
    "transfer_out_s",
    "host_aggregate_s",
)


def timing_hex(timing):
    return tuple(getattr(timing, f).hex() for f in TIMING_FIELDS)


class TestGroupedKernel:
    """The vectorized grouped path must be bit-identical to the looped
    reference — results AND every charged timing float."""

    @pytest.fixture(scope="class")
    def engine_pair(self, small_dataset, trained_index, history_queries):
        engines = {}
        for mode in ("looped", "grouped"):
            eng = UpANNSEngine(make_config(UpANNSConfig(kernel_mode=mode)))
            eng.build(
                small_dataset.vectors,
                history_queries=history_queries,
                prebuilt_index=trained_index,
            )
            engines[mode] = eng
        return engines

    def test_grouped_matches_looped_bitwise(self, engine_pair, small_queries):
        looped = engine_pair["looped"].search_batch(small_queries)
        grouped = engine_pair["grouped"].search_batch(small_queries)
        np.testing.assert_array_equal(looped.ids, grouped.ids)
        np.testing.assert_array_equal(looped.distances, grouped.distances)
        assert timing_hex(looped.timing) == timing_hex(grouped.timing)

    def test_warm_repeat_batch_identical(self, engine_pair, small_queries):
        """Cross-batch caches (LUT tables, charge memos) must not change
        a repeated batch's results or charged time."""
        grouped = engine_pair["grouped"]
        first = grouped.search_batch(small_queries)
        second = grouped.search_batch(small_queries)
        np.testing.assert_array_equal(first.ids, second.ids)
        np.testing.assert_array_equal(first.distances, second.distances)
        assert timing_hex(first.timing) == timing_hex(second.timing)

    def test_clear_runtime_caches_is_functional_noop(
        self, engine_pair, small_queries
    ):
        grouped = engine_pair["grouped"]
        warm = grouped.search_batch(small_queries)
        grouped.clear_runtime_caches()
        cold = grouped.search_batch(small_queries)
        np.testing.assert_array_equal(warm.ids, cold.ids)
        assert timing_hex(warm.timing) == timing_hex(cold.timing)

    def test_lut_cache_hits_on_repeat_traffic(
        self, small_dataset, trained_index, history_queries, small_queries
    ):
        from repro.telemetry.registry import MetricsRegistry, set_registry

        mine = MetricsRegistry()
        previous = set_registry(mine)
        try:
            eng = UpANNSEngine(make_config())
            eng.build(
                small_dataset.vectors,
                history_queries=history_queries,
                prebuilt_index=trained_index,
            )
            eng.search_batch(small_queries)
            eng.search_batch(small_queries)
            families = {m["name"]: m for m in mine.snapshot()["metrics"]}
            hits = families["repro_lut_cache_hits_total"]["samples"][0]["value"]
            misses = families["repro_lut_cache_misses_total"]["samples"][0]["value"]
        finally:
            set_registry(previous)
        # Every (query, cluster) pair misses once, then hits on repeat.
        assert misses > 0
        assert hits >= misses


class TestFusedFunctionalPass:
    """One search_batch runs the functional kernel over many DPUs' worklists
    per call, split only at DPU boundaries above the fusion bound."""

    @staticmethod
    def count_calls(monkeypatch, module, name):
        calls: list = []
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)
        return calls

    def test_one_adc_and_topk_call_below_bound(
        self, built_engine, small_queries, monkeypatch
    ):
        from repro.core import kernel

        adc = self.count_calls(monkeypatch, kernel, "compute_pair_distances")
        topk = self.count_calls(monkeypatch, kernel, "scan_topk_fast_batch_flat")
        result = built_engine.search_batch(small_queries[:8])
        busy = sum(1 for pairs in result.assignment.per_dpu if pairs)
        assert built_engine.pim.n_dpus == 16 and busy > 1
        assert len(adc) == 1 and len(topk) == 1
        (pairs,) = adc[0]
        assert sum(p.size for p, _table in pairs) < kernel._GATHER_CHUNK_ROWS

    def test_splits_only_at_dpu_boundaries(
        self, built_engine, small_queries, monkeypatch
    ):
        from repro.core import engine as engine_mod, kernel

        batches = self.count_calls(
            monkeypatch, engine_mod, "compute_batch_functional"
        )
        reference = built_engine.search_batch(small_queries)
        dpu_groups = batches[0][0]
        rows = [
            sum(p.size for _qi, payloads in groups for p in payloads)
            for _d, groups in dpu_groups
        ]
        bound = 2 * int(np.median(rows))
        monkeypatch.setattr(kernel, "_GATHER_CHUNK_ROWS", bound)
        chunks = self.count_calls(monkeypatch, kernel, "compute_groups_functional")
        result = built_engine.search_batch(small_queries)

        np.testing.assert_array_equal(reference.ids, result.ids)
        np.testing.assert_array_equal(reference.distances, result.distances)
        dpu_groups = batches[1][0]
        flat = [group for _d, groups in dpu_groups for group in groups]
        boundaries = np.cumsum([0] + [len(groups) for _d, groups in dpu_groups])
        assert 1 < len(chunks) < len(dpu_groups)
        start = 0
        for groups, *_ in chunks:
            end = start + len(groups)
            assert start in boundaries and end in boundaries
            assert groups == flat[start:end]
            n_dpus = int(((boundaries > start) & (boundaries <= end)).sum())
            n_rows = sum(p.size for _qi, payloads in groups for p in payloads)
            assert n_rows <= bound or n_dpus == 1
            start = end
        assert start == len(flat)


class TestResultTransferBytes:
    def test_transfer_out_charged_for_actual_candidates(self, built_engine, small_queries):
        """Result DMA is sized by what the DPUs actually return: with k
        larger than every per-(query, DPU) candidate count, raising k
        further cannot change the bytes moved — the old nq*k*8 sizing
        would have doubled them.  Probing one known cluster pins the
        candidate count per (query, DPU) to that cluster's size."""
        sizes = built_engine.index.ivf.cluster_sizes()
        cluster = int(np.argmax(sizes))
        probes = np.full((len(small_queries), 1), cluster, dtype=np.int64)
        k_small = int(sizes[cluster]) + 10
        res_a = built_engine.search_batch(small_queries, k=k_small, probes=probes)
        res_b = built_engine.search_batch(
            small_queries, k=2 * k_small, probes=probes
        )
        assert res_a.timing.transfer_out_s == res_b.timing.transfer_out_s
        assert res_a.timing.transfer_out_s > 0.0
