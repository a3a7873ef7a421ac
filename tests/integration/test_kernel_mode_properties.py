"""Property: the grouped kernel is the looped reference, bit for bit.

For random geometries, probe counts (with per-batch ``nprobe=``
overrides), k, CAE on or off, tasklet counts, LUT-cache capacities and
DPU-death fault plans, ``kernel_mode="grouped"`` must return the same
ids, distances and heap statistics as ``"looped"`` and charge the same
DPU counters and stage cycles.  The grouped path must also probe its
LUT cache exactly once per live (query, cluster) key.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.config import IndexConfig, QueryConfig, SystemConfig, UpANNSConfig
from repro.core.engine import UpANNSEngine
from repro.core.lut_cache import query_digest
from repro.faults import FaultPlan
from repro.hardware.specs import PimSystemSpec
from repro.ivfpq import IVFPQIndex
from repro.telemetry.registry import MetricsRegistry, set_registry

DIM, N_CLUSTERS, N_DPUS = 16, 12, 8

_INDEXES: dict[int, tuple[IVFPQIndex, np.ndarray]] = {}


def trained(m):
    """One trained index per m, shared by every example."""
    if m not in _INDEXES:
        rng = np.random.default_rng(m)
        vectors = rng.normal(size=(900, DIM)).astype(np.float32)
        index = IVFPQIndex(DIM, N_CLUSTERS, m)
        index.train(vectors, n_iter=3, rng=rng)
        index.add(vectors)
        _INDEXES[m] = (index, vectors)
    return _INDEXES[m]


@st.composite
def cases(draw):
    m = draw(st.sampled_from([4, 8]))
    nprobe = draw(st.integers(1, N_CLUSTERS))
    overrides = draw(
        st.lists(st.none() | st.integers(1, nprobe), min_size=2, max_size=3)
    )
    return dict(
        m=m,
        nprobe=nprobe,
        overrides=overrides,
        k=draw(st.integers(1, 12)),
        cae=draw(st.booleans()),
        tasklets=draw(st.sampled_from([1, 4, 11])),
        # disabled, a couple of tables, the default
        cache=draw(st.sampled_from([0, 12_000, 64 << 20])),
        death=draw(st.none() | st.tuples(st.integers(0, N_DPUS - 1), st.integers(0, 1))),
        seed=draw(st.integers(0, 10_000)),
    )


def engine(case, mode):
    index, vectors = trained(case["m"])
    cfg = SystemConfig(
        index=IndexConfig(dim=DIM, n_clusters=N_CLUSTERS, m=case["m"], train_iters=3),
        query=QueryConfig(nprobe=case["nprobe"], k=case["k"], batch_size=8),
        upanns=UpANNSConfig(
            enable_cae=case["cae"],
            n_tasklets=case["tasklets"],
            kernel_mode=mode,
            lut_cache_bytes=case["cache"],
        ),
        pim=PimSystemSpec(n_dimms=1, chips_per_dimm=1, dpus_per_chip=N_DPUS),
    )
    eng = UpANNSEngine(cfg)
    eng.build(vectors, prebuilt_index=index, rng=np.random.default_rng(0))
    if case["death"] is not None:
        dpu, batch = case["death"]
        eng.inject(FaultPlan.from_specs([f"dpu:{dpu}@{batch}"], seed=1))
    return eng


def counter_totals(registry):
    families = {m["name"]: m for m in registry.snapshot()["metrics"]}

    def value(name):
        fam = families.get(name)
        return fam["samples"][0]["value"] if fam and fam["samples"] else 0.0

    return (
        value("repro_lut_cache_hits_total"),
        value("repro_lut_cache_misses_total"),
    )


def live_keys(eng, queries, result):
    return {
        (query_digest(queries[qi]), c)
        for pairs in result.assignment.per_dpu
        for qi, c in pairs
        if eng._payloads[c].size > 0
    }


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(case=cases())
def test_grouped_matches_looped(case):
    rng = np.random.default_rng(case["seed"])
    pool = rng.normal(size=(6, DIM)).astype(np.float32)
    looped, grouped = engine(case, "looped"), engine(case, "grouped")
    registry = MetricsRegistry()
    previous = set_registry(registry)
    try:
        for b, nprobe in enumerate(case["overrides"]):
            # Batches overlap, so later ones mix cache hits with misses.
            queries = pool[b : b + 4]
            ref = looped.search_batch(queries, nprobe=nprobe)
            ref_counters = [d.counters.copy() for d in looped.pim.dpus]
            before = counter_totals(registry)
            got = grouped.search_batch(queries, nprobe=nprobe)
            hits, misses = np.subtract(counter_totals(registry), before)

            np.testing.assert_array_equal(ref.ids, got.ids)
            np.testing.assert_array_equal(ref.distances, got.distances)
            assert ref.heap_stats == got.heap_stats
            assert ref.stage_seconds == got.stage_seconds
            assert ref.timing == got.timing
            assert ref_counters == [d.counters for d in grouped.pim.dpus]
            assert hits + misses == len(live_keys(grouped, queries, got))
            if b == 0 or case["cache"] == 0:
                assert hits == 0
    finally:
        set_registry(previous)
