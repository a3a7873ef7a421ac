"""Intake validation: malformed queries fail typed, at the door."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.cpu import CpuEngine
from repro.baselines.gpu import GpuEngine
from repro.config import IndexConfig, QueryConfig, SystemConfig, UpANNSConfig
from repro.core.flat_engine import IVFFlatPimEngine
from repro.core.multihost import MultiHostEngine
from repro.core.validation import validate_queries
from repro.errors import ConfigError, InvalidQueryError
from repro.hardware.specs import PimSystemSpec
from repro.ivfpq.ivfflat import IVFFlatIndex
from repro.serving import AdmissionPolicy, Request, ServingFrontend, TenantConfig
from repro.tracing.context import TraceContext

from tests.core.test_service import built_engine
from repro.core.service import OnlineService

DIM = 32


class TestValidateQueries:
    def test_single_vector_promoted_to_batch(self):
        out = validate_queries(np.zeros(DIM, dtype=np.float64), dim=DIM)
        assert out.shape == (1, DIM)
        assert out.dtype == np.float32
        assert out.flags["C_CONTIGUOUS"]

    def test_lists_accepted(self):
        out = validate_queries([[0.0] * DIM, [1.0] * DIM], dim=DIM)
        assert out.shape == (2, DIM)

    def test_empty_rejected(self):
        with pytest.raises(InvalidQueryError, match="empty"):
            validate_queries(np.empty((0, DIM), dtype=np.float32), dim=DIM)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(InvalidQueryError, match="dimension mismatch"):
            validate_queries(np.zeros((3, DIM + 1), dtype=np.float32), dim=DIM)

    def test_3d_rejected(self):
        with pytest.raises(InvalidQueryError, match="ndim"):
            validate_queries(np.zeros((2, 3, DIM), dtype=np.float32), dim=DIM)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected_with_row_index(self, bad):
        queries = np.zeros((4, DIM), dtype=np.float32)
        queries[2, 5] = bad
        with pytest.raises(InvalidQueryError, match="row: 2"):
            validate_queries(queries, dim=DIM)

    def test_non_numeric_rejected(self):
        with pytest.raises(InvalidQueryError, match="not a numeric array"):
            validate_queries([["a"] * DIM], dim=DIM)

    def test_invalid_query_error_is_a_value_error(self):
        with pytest.raises(ValueError):
            validate_queries([], dim=DIM)


class TestServiceIntake:
    @pytest.fixture
    def service(self, small_dataset, trained_index, history_queries):
        return OnlineService(
            engine=built_engine(small_dataset, trained_index, history_queries)
        )

    def test_empty_batch_rejected(self, service):
        with pytest.raises(InvalidQueryError, match="empty"):
            service.submit(np.empty((0, DIM), dtype=np.float32))

    def test_dim_mismatch_rejected(self, service):
        with pytest.raises(InvalidQueryError, match="dimension mismatch"):
            service.submit(np.zeros((2, DIM + 3), dtype=np.float32))

    def test_nan_rejected(self, service):
        queries = np.zeros((2, DIM), dtype=np.float32)
        queries[1, 0] = np.nan
        with pytest.raises(InvalidQueryError, match="non-finite"):
            service.submit(queries)

    def test_rejected_batch_leaves_no_state(self, service):
        with pytest.raises(InvalidQueryError):
            service.submit(np.empty((0, DIM), dtype=np.float32))
        assert service.works == [] and service.schedules == []
        assert service.latency.n_batches == 0

    @pytest.mark.parametrize("bad", ["nan", "dim", "ragged"])
    def test_rejected_batch_keeps_trace_counter(
        self, service, small_queries, bad
    ):
        """A rejected batch mints no trace ids: the next accepted batch
        still starts at q000000."""
        queries = {
            "nan": np.full((3, DIM), np.nan, dtype=np.float32),
            "dim": np.zeros((3, DIM + 1), dtype=np.float32),
            "ragged": [[0.0] * DIM, [0.0] * (DIM - 1)],
        }[bad]
        with pytest.raises(InvalidQueryError):
            service.submit(queries)
        assert service.works == [] and service._next_query == 0
        report = service.submit(small_queries[:4])
        spans = [
            s
            for tl in report.result.schedule.timelines.values()
            for s in tl.spans
            if s.trace is not None
        ]
        ids = {t for s in spans for t in s.trace.trace_ids}
        assert ids == {f"q{n:06d}" for n in range(4)}

    def test_trace_stream_position_mismatch_rejected(
        self, service, small_queries
    ):
        ctx = TraceContext.for_batch(len(small_queries), batch=3)
        with pytest.raises(ConfigError, match="stream"):
            service.submit(small_queries, trace=ctx)

    def test_trace_id_count_mismatch_rejected(self, service, small_queries):
        ctx = TraceContext.for_batch(len(small_queries) - 1, batch=0)
        with pytest.raises(ConfigError, match="ids for"):
            service.submit(small_queries, trace=ctx)

    def test_nprobe_override_bounds(self, service, small_queries):
        cfg = service.engine.config.query.nprobe
        with pytest.raises(ConfigError, match="outside"):
            service.submit(small_queries, nprobe=cfg + 1)
        with pytest.raises(ConfigError, match="outside"):
            service.submit(small_queries, nprobe=0)
        with pytest.raises(ConfigError, match="integer"):
            service.submit(small_queries, nprobe=2.5)

    def test_nprobe_override_scales_coverage(self, service, small_queries):
        cfg = service.engine.config.query.nprobe
        report = service.submit(small_queries, nprobe=cfg // 2)
        deg = report.result.degraded
        assert deg is not None
        assert np.allclose(deg.coverage, (cfg // 2) / cfg)
        assert report.coverage_floor == pytest.approx((cfg // 2) / cfg)


class TestFrontendIntake:
    def test_frontend_rejects_non_finite_queries(
        self, small_dataset, trained_index, history_queries
    ):
        """The frontend funnels through the same validation gate."""
        service = OnlineService(
            engine=built_engine(small_dataset, trained_index, history_queries)
        )
        frontend = ServingFrontend(
            service=service,
            tenants=(TenantConfig(name="solo", rate_qps=1.0),),
            policy=AdmissionPolicy(shedding=False),
            max_batch=2,
        )
        bad = np.zeros(DIM, dtype=np.float32)
        bad[0] = np.nan
        requests = [
            Request(
                trace_id=f"q{n:06d}",
                tenant="solo",
                query=bad,
                arrival_s=n * 1e-6,
            )
            for n in range(2)
        ]
        with pytest.raises(InvalidQueryError, match="non-finite"):
            frontend.run(requests)


def _engine_cfg(**upanns) -> SystemConfig:
    return SystemConfig(
        index=IndexConfig(dim=DIM, n_clusters=32, m=8, train_iters=4),
        query=QueryConfig(nprobe=8, k=5, batch_size=30),
        upanns=UpANNSConfig(**upanns),
        pim=PimSystemSpec(n_dimms=1, chips_per_dimm=2, dpus_per_chip=8),
    )


@pytest.fixture(scope="module")
def engines(small_dataset, trained_index, history_queries):
    """Every public engine, built once for the entry-validation matrix."""
    flat_index = IVFFlatIndex(dim=DIM, n_clusters=32)
    flat_index.train(small_dataset.vectors, n_iter=4, rng=np.random.default_rng(3))
    flat_index.add(small_dataset.vectors)
    flat = IVFFlatPimEngine(_engine_cfg(enable_cae=False))
    flat.build(
        small_dataset.vectors,
        history_queries=history_queries,
        prebuilt_index=flat_index,
    )
    multi = MultiHostEngine(host_configs=[_engine_cfg(), _engine_cfg()])
    multi.build(
        small_dataset.vectors,
        history_queries=history_queries,
        prebuilt_index=trained_index,
    )
    return {
        "upanns": built_engine(small_dataset, trained_index, history_queries),
        "flat": flat,
        "multihost": multi,
        "cpu": CpuEngine(trained_index),
        "gpu": GpuEngine(trained_index),
    }


_BAD_QUERIES = {
    "nan": (np.full((2, DIM), np.nan, dtype=np.float32), "non-finite"),
    "dim_mismatch": (np.zeros((2, DIM + 3), dtype=np.float32), "dimension mismatch"),
    "empty": (np.empty((0, DIM), dtype=np.float32), "empty"),
}


@pytest.mark.parametrize("bad", sorted(_BAD_QUERIES))
@pytest.mark.parametrize("name", ["upanns", "flat", "multihost", "cpu", "gpu"])
def test_engine_entry_rejects_bad_queries(engines, name, bad):
    """Every public ``search_batch`` fails typed at the door."""
    queries, match = _BAD_QUERIES[bad]
    engine = engines[name]
    with pytest.raises(InvalidQueryError, match=match):
        if name in ("cpu", "gpu"):
            engine.search_batch(queries, 5, 8)
        else:
            engine.search_batch(queries)
