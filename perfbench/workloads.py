"""The three benchmark workloads, their inputs, metrics and output checks.

Each workload runs *units* of fixed work: one 1,000-query batch
(``search_cold``), one frontend run over a fixed arrival horizon on a
fresh deployment (``serve_repeat``), one fixed churn episode on a fresh
deployment (``service_churn``).  Units repeat until the measuring window
is used up, never fewer than ``MIN_UNITS``.  Modeled metrics come from
the first ``MIN_UNITS`` units only, so they depend on the seed and
never on host speed; the check that they are bit-identical across
repeated units is one of the output checks.

Corpora, index builds and the fault plan are fixed (``CORPUS_SEED``),
like a benchmark dataset; ``--seed`` drives the traffic: query vectors
and arrivals.
Only public entry points are called, with their defaults: the
benchmark never sets ``sim_engine``, ``executor``, ``kernel_mode`` or
``lut_cache_bytes``.
"""

from __future__ import annotations

import gc
import hashlib
import resource
import statistics
import time
from dataclasses import dataclass, field, replace

import numpy as np

from repro.config import IndexConfig, QueryConfig, SystemConfig, UpANNSConfig
from repro.core.engine import UpANNSEngine
from repro.core.scheduling import AdaptivePolicy
from repro.core.service import OnlineService
from repro.data.groundtruth import compute_groundtruth
from repro.data.skew import zipf_weights
from repro.data.synthetic import SIFT1B, make_dataset, make_queries
from repro.faults import FaultEvent, FaultPlan
from repro.hardware.specs import PimSystemSpec
from repro.ivfpq import recall_at_k
from repro.sanitize import sanitize_schedule
from repro.serving import (
    STATUS_COMPLETED,
    AdmissionPolicy,
    ArrivalGenerator,
    ServingFrontend,
    TenantConfig,
)
from repro.telemetry.registry import get_registry
from repro.tracing.record import query_latencies
from repro.workload.batch import BatchGenerator

#: Seed of every corpus, history sample and index build.
CORPUS_SEED = 0
#: Units whose modeled metrics are reported and compared bit-for-bit.
MIN_UNITS = 2
#: Queries per unit whose results are checked against IVFPQIndex.search.
CHECK_SAMPLE = 24
#: Distance tolerance of benchmarks/bench_accuracy.py.
RTOL, ATOL = 1e-4, 1e-3
#: Host times are reported scaled to a host on which one HostSpeed
#: kernel takes this long (its typical time on the 2-vCPU Xeon VM this
#: benchmark was defined on).
REFERENCE_KERNEL_S = 0.050

# --- fig16 geometry (search_cold, service_churn) -------------------------

FIG16 = {
    "n_vectors": 40_000,
    "dim": 64,
    "pq_m": 8,
    "n_clusters": 128,
    "nprobe": 64,
    "k": 10,
    "n_dpus": 64,
    "train_iters": 4,
    "n_train": 20_000,
    "n_components": 32,
    "history_queries": 500,
}
COLD = {"batch_size": 1000, "zipf_alpha": 1.0, "check_queries": 100, "setups": 3}
CHURN = {
    "batch_size": 100,
    "batches": 16,
    "zipf_alpha": 1.0,
    "drift_per_batch": 0.35,
    "replicate_threshold": 0.008,
    "relocate_threshold": 0.5,
    "min_batches_between_refreshes": 3,
    "dpu_deaths": (("dpu", 5, 4), ("dpu", 40, 10)),
    "transfer_hazard": 0.01,
}

# --- repro.cli serve deployment (serve_repeat) --------------------------

SERVE = {
    "n_vectors": 4000,
    "dim": 32,
    "pq_m": 8,
    "n_clusters": 32,
    "nprobe": 8,
    "k": 5,
    "n_dpus": 16,
    "train_iters": 4,
    "n_components": 16,
    "history_queries": 300,
    "max_batch": 24,
    "max_delay_ms": 3.0,
    "queue_depth": 96,
    "refresh_threshold": 1.0,
    "slo_ms": 20.0,
    # Fixed absolute rates: twice the 7,530 qps `repro.cli serve`
    # calibrates on this deployment, split 2:1 as the CLI splits it.
    "interactive_qps": 10_040.0,
    "batchy_qps": 5_020.0,
    "horizon_s": 0.4,
    "pool_size": 300,
    "pool_zipf_alpha": 1.0,
    "batchy_zipf_alpha": 1.0,
}


class HostSpeed:
    """A fixed NumPy-and-interpreter kernel, timed around every unit.

    Other tenants slow a shared host for minutes at a time: the same
    serve_repeat set-up took 0.45 s (median of ten runs) in one set and
    0.59 s in the next.  The kernel mixes what the simulator does on the
    host (a memory-bound gather-sum, small matrix products, dict updates
    in the interpreter), so its time follows that drift.  It runs no
    ``repro`` code, so no change to the program can move it.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(12345)
        self.table = rng.random(4_000_000, dtype=np.float32)
        self.idx = rng.integers(0, self.table.size, 1_000_000)
        self.mat = rng.random((96, 96))

    def _once(self) -> float:
        t0 = time.perf_counter()
        for _ in range(4):
            float(self.table[self.idx].sum())
        m = self.mat
        for _ in range(30):
            m = np.tanh(m @ self.mat * 0.01)
        counts: dict[int, int] = {}
        for i in range(80_000):
            counts[i & 1023] = counts.get(i & 1023, 0) + i
        return time.perf_counter() - t0

    def factor(self) -> float:
        """The host's slowdown against the reference (median of three)."""
        return statistics.median(self._once() for _ in range(3)) / REFERENCE_KERNEL_S


@dataclass
class Outcome:
    """What one workload run measured."""

    #: Host seconds of each search_batch/submit call in the timed region.
    call_s: list[float] = field(default_factory=list)
    #: Host seconds inside the timed region.
    timed_s: float = 0.0
    #: Queries/requests brought to a terminal state in the timed region.
    terminal: int = 0
    #: Per-unit throughput: terminal queries/requests per host second.
    unit_qps: list[float] = field(default_factory=list)
    #: Per-unit host slowdown (HostSpeed factor before and after, averaged).
    unit_factor: list[float] = field(default_factory=list)
    #: Index into ``call_s`` of each unit's first call.
    unit_first_call: list[int] = field(default_factory=list)
    setup_s: list[float] = field(default_factory=list)
    #: Unit each set-up precedes (its host factor scales the set-up).
    setup_unit: list[int] = field(default_factory=list)
    units: int = 0
    #: Modeled metrics of the first MIN_UNITS units.
    modeled: dict = field(default_factory=dict)
    #: Modeled per-lane metrics of the same units.
    lanes: dict = field(default_factory=dict)
    #: Workload-property report.
    props: dict = field(default_factory=dict)
    #: Check name -> None (passed) or a failure message.
    checks: dict = field(default_factory=dict)
    #: Peak resident memory once the first MIN_UNITS units have run.
    peak_rss_mb: float = 0.0
    speed: HostSpeed = field(default_factory=HostSpeed, repr=False)

    def setup_done(self, seconds: float) -> None:
        self.setup_s.append(seconds)
        self.setup_unit.append(self.units)


# --- shared helpers -------------------------------------------------------


def _digest(vec: np.ndarray) -> bytes:
    return hashlib.blake2b(
        np.ascontiguousarray(vec, dtype=np.float32).tobytes(), digest_size=16
    ).digest()


def _registry_total(name: str) -> float:
    fam = get_registry().get(name)
    return sum(c.value for c in fam.children()) if fam is not None else 0.0


def _lut_counters() -> tuple[float, float]:
    return (
        _registry_total("repro_lut_cache_hits_total"),
        _registry_total("repro_lut_cache_misses_total"),
    )


def _repeat_share(queries: list[np.ndarray]) -> float:
    """Share of queries whose exact vector was already sent in the run."""
    seen: set[bytes] = set()
    repeats = total = 0
    for batch in queries:
        for row in np.atleast_2d(batch):
            d = _digest(row)
            repeats += d in seen
            seen.add(d)
            total += 1
    return repeats / total if total else 0.0


def _lane_metrics(schedules) -> dict[str, float]:
    """Modeled busy and queue-wait seconds per lane kind."""
    lanes = ("host_cpu", "pim_bus", "dpu")
    out = {f"modeled.{lane}.{kind}": 0.0 for lane in lanes for kind in ("busy_s", "wait_s")}
    for sched in schedules:
        for name, tl in sched.timelines.items():
            lane = "dpu" if name.startswith("dpu/") else name
            if lane not in lanes:
                continue
            for span in tl.spans:
                out[f"modeled.{lane}.busy_s"] += span.t1 - span.t0
                if span.trace is not None:
                    out[f"modeled.{lane}.wait_s"] += span.trace.wait_s
    return out


def _kernel_metrics(results) -> dict[str, float]:
    ratios = [r.cycle_load_ratio for r in results]
    pruned = sum(r.heap_stats.pruned for r in results)
    merged = sum(r.heap_stats.merge_comparisons for r in results)
    return {
        "modeled.dpu_load_ratio": float(np.mean(ratios)) if ratios else 0.0,
        "modeled.topk_pruned_share": pruned / (pruned + merged) if pruned + merged else 0.0,
    }


@dataclass
class _BatchSummary:
    """The modeled facts of one search_batch result (the result itself,
    with its schedule and work DAG, is too large to keep)."""

    nq: int
    total_s: float
    full: int
    latencies_ms: list[float]
    lanes: dict
    load_ratio: float
    pruned: int
    merged: int
    ids: np.ndarray | None
    distances: np.ndarray | None

    @classmethod
    def of(cls, res, *, keep_rows: bool) -> "_BatchSummary":
        return cls(
            nq=res.ids.shape[0],
            total_s=res.timing.total_s,
            full=int((_coverage(res) >= 1.0).sum()),
            latencies_ms=[v * 1e3 for v in query_latencies(res.schedule).values()],
            lanes=_lane_metrics([res.schedule]),
            load_ratio=res.cycle_load_ratio,
            pruned=res.heap_stats.pruned,
            merged=res.heap_stats.merge_comparisons,
            ids=res.ids if keep_rows else None,
            distances=res.distances if keep_rows else None,
        )


def _sum_dicts(dicts) -> dict[str, float]:
    total: dict[str, float] = {}
    for d in dicts:
        for key, value in d.items():
            total[key] = total.get(key, 0.0) + value
    return total


def _p99(values_ms) -> float:
    vals = np.asarray(list(values_ms), dtype=np.float64)
    return float(np.percentile(vals, 99)) if vals.size else 0.0


def _coverage(result) -> np.ndarray:
    nq = result.ids.shape[0]
    if result.degraded is None:
        return np.ones(nq)
    return np.asarray(result.degraded.coverage, dtype=np.float64)


def _rows_match(got_i, got_d, ref_i, ref_d) -> bool:
    """Same distances within tolerance; ids equal except among ties."""
    fin = np.isfinite(ref_d)
    if not np.array_equal(fin, np.isfinite(got_d)):
        return False
    if not np.allclose(got_d[fin], ref_d[fin], rtol=RTOL, atol=ATOL):
        return False
    for j in np.flatnonzero(got_i != ref_i):
        near = np.isclose(ref_d, ref_d[j], rtol=RTOL, atol=ATOL)
        if got_i[j] not in ref_i[near]:
            return False
    return True


def _groundtruth(base: np.ndarray, queries: np.ndarray, k: int):
    """Exact top-k, 100 queries at a time to bound the scan's memory."""
    parts = [compute_groundtruth(base, queries[i : i + 100], k) for i in range(0, len(queries), 100)]
    return np.concatenate([d for d, _ in parts]), np.concatenate([i for _, i in parts])


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _check_sample(index, queries, ids, dists, nprobes, k) -> str | None:
    """Compare rows with IVFPQIndex.search at each row's nprobe."""
    bad = 0
    for q, gi, gd, npb in zip(queries, ids, dists, nprobes):
        ref = index.search(q[None, :], k, int(npb))
        if not _rows_match(gi, gd, ref.ids[0], ref.distances[0]):
            bad += 1
    return None if bad == 0 else f"{bad}/{len(ids)} sampled rows differ from IVFPQIndex.search"


def _fingerprint(values: dict) -> str:
    """Exact (repr-level) fingerprint of a modeled-metric dict."""
    return hashlib.sha256(repr(sorted(values.items())).encode()).hexdigest()


def _units(out: Outcome, seconds: float, fixed_units: int | None):
    """Unit indices to run: until ``seconds`` of timed work and at least
    MIN_UNITS, or exactly ``fixed_units`` when given (traced runs)."""
    unit = 0
    while (
        unit < fixed_units
        if fixed_units is not None
        else unit < MIN_UNITS or out.timed_s < seconds
    ):
        yield unit
        unit += 1


def _clock_region(out: Outcome, terminal: int):
    """Context timing one unit: adds its host time to ``out.timed_s``, its
    throughput (``terminal`` queries or requests) to ``out.unit_qps`` and
    the host's HostSpeed factor around it to ``out.unit_factor``."""

    class _Region:
        def __enter__(self):
            self.factor = out.speed.factor()
            out.unit_first_call.append(len(out.call_s))
            gc.collect()
            self.t0 = time.perf_counter()

        def __exit__(self, *exc):
            elapsed = time.perf_counter() - self.t0
            out.unit_factor.append((self.factor + out.speed.factor()) / 2)
            out.timed_s += elapsed
            out.unit_qps.append(terminal / elapsed)
            out.terminal += terminal
            out.units += 1

    return _Region()


def _timed(fn, samples: list[float]):
    """``fn`` that appends each call's host seconds to ``samples``."""

    def timed(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            samples.append(time.perf_counter() - t0)

    return timed


def _add_lut(total: list[float], before, after) -> None:
    """Accumulate LUT-cache [hits, lookups] between two counter reads."""
    hits = after[0] - before[0]
    total[0] += hits
    total[1] += hits + after[1] - before[1]


# --- fig16 corpus -----------------------------------------------------------


def _fig16_corpus():
    rng = np.random.default_rng(CORPUS_SEED)
    spec = replace(SIFT1B, dim=FIG16["dim"], pq_m=FIG16["pq_m"])
    ds = make_dataset(
        spec,
        FIG16["n_vectors"],
        n_components=FIG16["n_components"],
        correlated_subspaces=4,
        rng=rng,
    )
    history = make_queries(
        ds,
        FIG16["history_queries"],
        popularity=zipf_weights(FIG16["n_components"], 0.6),
        rng=rng,
    )
    return ds, history


def _fig16_engine(ds, history) -> UpANNSEngine:
    cfg = SystemConfig(
        index=IndexConfig(
            dim=FIG16["dim"],
            n_clusters=FIG16["n_clusters"],
            m=FIG16["pq_m"],
            train_iters=FIG16["train_iters"],
        ),
        query=QueryConfig(nprobe=FIG16["nprobe"], k=FIG16["k"]),
        upanns=UpANNSConfig(),
        pim=PimSystemSpec(n_dimms=1, chips_per_dimm=FIG16["n_dpus"] // 8, dpus_per_chip=8),
    )
    engine = UpANNSEngine(cfg)
    engine.build(
        ds.vectors,
        history_queries=history,
        train_vectors=ds.vectors[: FIG16["n_train"]],
        rng=np.random.default_rng(CORPUS_SEED),
    )
    return engine


# --- search_cold ------------------------------------------------------------


def search_cold(seed: int, seconds: float, fixed_units: int | None = None) -> Outcome:
    """Closed loop of fresh 1,000-query batches through search_batch."""
    out = Outcome()
    ds, history = _fig16_corpus()
    popularity = zipf_weights(FIG16["n_components"], COLD["zipf_alpha"])

    def batch(b: int) -> np.ndarray:
        return make_queries(
            ds, COLD["batch_size"], popularity=popularity, rng=np.random.default_rng([seed, b])
        )

    # Set up several times; every build serves the same small check
    # batch, whose modeled result must be bit-identical across builds.
    check = make_queries(
        ds, COLD["check_queries"], popularity=popularity, rng=np.random.default_rng([seed, 1 << 20])
    )
    prints = set()
    engine = None
    for _ in range(COLD["setups"]):
        engine = None
        gc.collect()
        t0 = time.perf_counter()
        engine = _fig16_engine(ds, history)
        out.setup_done(time.perf_counter() - t0)
        res = engine.search_batch(check)
        prints.add(_fingerprint({"total_s": res.timing.total_s, "ids": res.ids.tobytes()}))
    out.checks["modeled_identical_across_setups"] = (
        None if len(prints) == 1 else f"{len(prints)} distinct check-batch results"
    )
    # One untimed full batch first: it grows the heap to its working
    # size and fills the query-independent caches (per-cluster charges)
    # that a long-running service holds.
    engine.search_batch(batch(1 << 21))

    sent: list[np.ndarray] = []
    kept = []
    search = _timed(engine.search_batch, out.call_s)
    lut_before = _lut_counters()
    for b in _units(out, seconds, fixed_units):
        queries = batch(b)
        with _clock_region(out, queries.shape[0]):
            res = search(queries)
        sent.append(queries)
        if b < MIN_UNITS:
            kept.append(_BatchSummary.of(res, keep_rows=b == 0))
        del res
    lut = [0.0, 0.0]
    _add_lut(lut, lut_before, _lut_counters())
    out.peak_rss_mb = _peak_rss_mb()

    k = FIG16["k"]
    total_q = sum(s.nq for s in kept)
    modeled_s = sum(s.total_s for s in kept)
    full = sum(s.full for s in kept)
    q0, r0 = sent[0], kept[0]
    _, gt = _groundtruth(ds.vectors, q0, k)
    out.modeled = {
        "modeled_qps": total_q / modeled_s,
        "goodput_qps": full / modeled_s,
        "modeled_p99_ms": _p99(v for s in kept for v in s.latencies_ms),
        "served_share": full / total_q,
        "recall_at_k": recall_at_k(r0.ids, gt, k),
    }
    out.lanes = _sum_dicts(s.lanes for s in kept)
    out.lanes["modeled.dpu_load_ratio"] = float(np.mean([s.load_ratio for s in kept]))
    pruned = sum(s.pruned for s in kept)
    merged = sum(s.merged for s in kept)
    out.lanes["modeled.topk_pruned_share"] = pruned / (pruned + merged) if pruned + merged else 0.0
    out.checks["ivfpq_reference"] = _check_sample(
        engine.index,
        q0[:CHECK_SAMPLE],
        r0.ids[:CHECK_SAMPLE],
        r0.distances[:CHECK_SAMPLE],
        [FIG16["nprobe"]] * CHECK_SAMPLE,
        k,
    )
    out.props = {
        "query_repeat_share": _repeat_share(sent),
        "lut_cache_hit_ratio": lut[0] / lut[1] if lut[1] else 0.0,
        "batch_size_mean": float(COLD["batch_size"]),
        "refreshes": 0,
        "recoveries": 0,
        "sheds": 0,
        "retries": 0,
    }
    return out


# --- serve_repeat -----------------------------------------------------------


class _PoolQueries:
    """Query source drawing from a fixed pool with Zipf popularity.

    Duck-types ``BatchGenerator.next_queries`` for ArrivalGenerator, so
    a measured share of the tenant's requests repeats a vector exactly.
    """

    def __init__(self, pool: np.ndarray, alpha: float, rng: np.random.Generator):
        self.pool = pool
        self.weights = zipf_weights(pool.shape[0], alpha)
        self.rng = rng

    def next_queries(self, n: int) -> np.ndarray:
        idx = self.rng.choice(self.pool.shape[0], size=n, p=self.weights)
        return self.pool[idx]


class _FreshQueries:
    """Query source drawing fresh vectors with a fixed Zipf popularity."""

    def __init__(self, ds, alpha: float, rng: np.random.Generator):
        self.ds = ds
        self.popularity = zipf_weights(ds.mixture_centers.shape[0], alpha)
        self.rng = rng

    def next_queries(self, n: int) -> np.ndarray:
        return make_queries(self.ds, n, popularity=self.popularity, rng=self.rng)


def _serve_corpus():
    rng = np.random.default_rng(CORPUS_SEED)
    spec = replace(SIFT1B, dim=SERVE["dim"], pq_m=SERVE["pq_m"])
    ds = make_dataset(
        spec,
        SERVE["n_vectors"],
        n_components=SERVE["n_components"],
        correlated_subspaces=2,
        rng=rng,
    )
    history = make_queries(
        ds,
        SERVE["history_queries"],
        popularity=zipf_weights(SERVE["n_components"], 0.6),
        rng=rng,
    )
    return ds, history


def _serve_service(ds, history) -> OnlineService:
    cfg = SystemConfig(
        index=IndexConfig(
            dim=SERVE["dim"],
            n_clusters=SERVE["n_clusters"],
            m=SERVE["pq_m"],
            train_iters=SERVE["train_iters"],
        ),
        query=QueryConfig(nprobe=SERVE["nprobe"], k=SERVE["k"], batch_size=SERVE["max_batch"]),
        upanns=UpANNSConfig(),
        pim=PimSystemSpec(n_dimms=1, chips_per_dimm=SERVE["n_dpus"] // 8, dpus_per_chip=8),
    )
    engine = UpANNSEngine(cfg)
    engine.build(ds.vectors, history_queries=history, rng=np.random.default_rng(CORPUS_SEED))
    # Placement refresh belongs to service_churn.  Here a drift refresh
    # would land at a seed-dependent batch and empty the LUT cache, so
    # the host tail would measure where it landed, not serving cost.
    never = AdaptivePolicy(
        replicate_threshold=SERVE["refresh_threshold"],
        relocate_threshold=SERVE["refresh_threshold"],
    )
    return OnlineService(engine, policy=never)


SERVE_TENANTS = (
    TenantConfig(name="interactive", rate_qps=SERVE["interactive_qps"], slo_ms=SERVE["slo_ms"]),
    TenantConfig(
        name="batchy",
        rate_qps=SERVE["batchy_qps"],
        burst_factor=4.0,
        burst_period_s=0.05,
        burst_duty=0.25,
    ),
)


def _serve_requests(ds, seed: int):
    pool = make_queries(
        ds,
        SERVE["pool_size"],
        popularity=zipf_weights(SERVE["n_components"], SERVE["pool_zipf_alpha"]),
        rng=np.random.default_rng([seed, 0]),
    )
    sources = {
        "interactive": _PoolQueries(pool, SERVE["pool_zipf_alpha"], np.random.default_rng([seed, 1])),
        "batchy": _FreshQueries(ds, SERVE["batchy_zipf_alpha"], np.random.default_rng([seed, 2])),
    }
    gen = ArrivalGenerator(tenants=SERVE_TENANTS, seed=seed, horizon_s=SERVE["horizon_s"])
    return gen.generate(sources)


def _batch_order(report) -> tuple[str, ...]:
    """Trace ids of a submitted batch in row order (cluster-filter span)."""
    for span in report.result.schedule.timelines["host_cpu"].spans:
        if span.trace is not None and len(span.trace.trace_ids) == report.result.ids.shape[0]:
            return span.trace.trace_ids
    raise ValueError("batch schedule carries no batch-wide host span")


def _serve_checks(out: Outcome, ds, service, result) -> None:
    """Recall and output checks on one serve_repeat unit."""
    k = SERVE["k"]
    rows = {}
    for rep in result.reports:
        for row, tid in enumerate(_batch_order(rep)):
            rows[tid] = (rep.result, row)
    # Recall is measured once per distinct query vector (its first
    # completion), so the pool's few hottest vectors do not dominate it.
    seen: set[bytes] = set()
    completed = []
    for req in result.by_status(STATUS_COMPLETED):
        d = _digest(req.query)
        if d not in seen:
            seen.add(d)
            completed.append(req)
    queries = np.stack([r.query for r in completed])
    ids = np.stack([rows[r.trace_id][0].ids[rows[r.trace_id][1]] for r in completed])
    dists = np.stack([rows[r.trace_id][0].distances[rows[r.trace_id][1]] for r in completed])
    _, gt = _groundtruth(ds.vectors, queries, k)
    out.modeled["recall_at_k"] = recall_at_k(ids, gt, k)
    sample = np.linspace(0, len(completed) - 1, CHECK_SAMPLE).astype(int)
    out.checks["ivfpq_reference"] = _check_sample(
        service.engine.index,
        queries[sample],
        ids[sample],
        dists[sample],
        [completed[i].nprobe for i in sample],
        k,
    )
    findings = sanitize_schedule(result.schedule)
    out.checks["sanitize_stream"] = (
        None if not findings else f"{len(findings)} findings, first: {findings[0].render()}"
    )
    ledger = result.ledger()["totals"]
    out.checks["ledger_conserved"] = (
        None
        if ledger["offered"] == ledger["admitted"] + ledger["shed"] + ledger["timed_out"]
        else f"ledger does not conserve: {ledger}"
    )
    requests = result.requests
    interactive = [r.query for r in requests if r.tenant == "interactive"]
    out.props = {
        "query_repeat_share": _repeat_share([np.stack([r.query for r in requests])]),
        "interactive_repeat_share": _repeat_share([np.stack(interactive)]) if interactive else 0.0,
        "batch_size_mean": float(np.mean([r.result.ids.shape[0] for r in result.reports])),
        "refreshes": service.refresh_count,
        "recoveries": service.recovery_count,
        "sheds": ledger["shed"],
        "timed_out": ledger["timed_out"],
        "degraded_requests": sum(1 for r in requests if r.status == STATUS_COMPLETED and r.coverage < 1.0),
        "offered": ledger["offered"],
        "retries": 0,
    }


def serve_repeat(seed: int, seconds: float, fixed_units: int | None = None) -> Outcome:
    """Open-loop two-tenant overload through ServingFrontend.run."""
    out = Outcome()
    ds, history = _serve_corpus()
    prints = set()
    lut = [0.0, 0.0]
    for unit in _units(out, seconds, fixed_units):
        requests = _serve_requests(ds, seed)
        gc.collect()
        t0 = time.perf_counter()
        service = _serve_service(ds, history)
        frontend = ServingFrontend(
            service,
            SERVE_TENANTS,
            policy=AdmissionPolicy(max_queue_depth=SERVE["queue_depth"]),
            max_batch=SERVE["max_batch"],
            max_delay_s=SERVE["max_delay_ms"] / 1e3,
        )
        out.setup_done(time.perf_counter() - t0)
        service.submit = _timed(service.submit, out.call_s)
        before = _lut_counters()
        with _clock_region(out, len(requests)):
            result = frontend.run(requests)
        _add_lut(lut, before, _lut_counters())

        ledger = result.ledger()["totals"]
        completed = result.by_status(STATUS_COMPLETED)
        full = [r for r in completed if r.coverage >= 1.0]
        makespan = max(result.horizon_s, result.schedule.makespan)
        modeled = {
            "modeled_qps": len(completed) / makespan,
            "goodput_qps": result.goodput_qps(),
            "modeled_p99_ms": _p99(result.latencies_ms()),
            "served_share": len(full) / ledger["offered"],
        }
        lanes = {
            **_lane_metrics([result.schedule]),
            **_kernel_metrics([r.result for r in result.reports]),
        }
        prints.add(_fingerprint({**modeled, **lanes, **ledger}))
        if unit == 0:
            out.modeled, out.lanes = modeled, lanes
            _serve_checks(out, ds, service, result)
        if unit == MIN_UNITS - 1:
            out.peak_rss_mb = _peak_rss_mb()
        del service, frontend, result, requests
    out.checks["modeled_identical_across_units"] = (
        None if len(prints) == 1 else f"{len(prints)} distinct modeled results over {out.units} units"
    )
    out.props["lut_cache_hit_ratio"] = lut[0] / lut[1] if lut[1] else 0.0
    return out


# --- service_churn ----------------------------------------------------------


def _churn_service(ds, history) -> OnlineService:
    engine = _fig16_engine(ds, history)
    engine.inject(
        FaultPlan(
            events=tuple(FaultEvent(kind, target, batch) for kind, target, batch in CHURN["dpu_deaths"]),
            seed=CORPUS_SEED,
            transfer_hazard=CHURN["transfer_hazard"],
        )
    )
    return OnlineService(
        engine,
        policy=AdaptivePolicy(
            replicate_threshold=CHURN["replicate_threshold"],
            relocate_threshold=CHURN["relocate_threshold"],
        ),
        min_batches_between_refreshes=CHURN["min_batches_between_refreshes"],
    )


def _churn_checks(out: Outcome, ds, service, batches, reports) -> None:
    """Recall and output checks on one service_churn unit."""
    k = FIG16["k"]
    queries = np.concatenate(batches)
    ids = np.concatenate([r.result.ids for r in reports])
    dists = np.concatenate([r.result.distances for r in reports])
    cover = np.concatenate([_coverage(r.result) for r in reports])
    _, gt = _groundtruth(ds.vectors, queries, k)
    out.modeled["recall_at_k"] = recall_at_k(ids, gt, k)
    full_rows = np.flatnonzero(cover >= 1.0)
    sample = full_rows[np.linspace(0, full_rows.size - 1, CHECK_SAMPLE).astype(int)]
    out.checks["ivfpq_reference"] = _check_sample(
        service.engine.index, queries[sample], ids[sample], dists[sample],
        [FIG16["nprobe"]] * len(sample), k,
    )
    findings = sanitize_schedule(service.combined_schedule())
    out.checks["sanitize_combined"] = (
        None if not findings else f"{len(findings)} findings, first: {findings[0].render()}"
    )
    out.props = {
        "query_repeat_share": _repeat_share(batches),
        "batch_size_mean": float(CHURN["batch_size"]),
        "refreshes": service.refresh_count,
        "recoveries": service.recovery_count,
        "retries": sum(r.result.degraded.retries for r in reports if r.result.degraded),
        "sheds": 0,
    }


def service_churn(seed: int, seconds: float, fixed_units: int | None = None) -> Outcome:
    """Closed loop of submit under drift, placement refresh and DPU deaths."""
    out = Outcome()
    ds, history = _fig16_corpus()
    prints = set()
    lut = [0.0, 0.0]
    for unit in _units(out, seconds, fixed_units):
        gen = BatchGenerator(
            ds,
            batch_size=CHURN["batch_size"],
            zipf_alpha=CHURN["zipf_alpha"],
            drift_per_batch=CHURN["drift_per_batch"],
            rng=np.random.default_rng(seed),
        )
        batches = [gen.next_batch().queries for _ in range(CHURN["batches"])]
        gc.collect()
        t0 = time.perf_counter()
        service = _churn_service(ds, history)
        out.setup_done(time.perf_counter() - t0)
        submit = _timed(service.submit, out.call_s)
        before = _lut_counters()
        with _clock_region(out, sum(q.shape[0] for q in batches)):
            reports = [submit(queries) for queries in batches]
        _add_lut(lut, before, _lut_counters())

        results = [r.result for r in reports]
        total_q = sum(r.ids.shape[0] for r in results)
        full = sum(int((_coverage(r) >= 1.0).sum()) for r in results)
        modeled_s = service.wallclock_seconds()
        modeled = {
            "modeled_qps": total_q / modeled_s,
            "goodput_qps": full / modeled_s,
            "modeled_p99_ms": _p99(
                v * 1e3 for r in results for v in query_latencies(r.schedule).values()
            ),
            "served_share": full / total_q,
        }
        lanes = {**_lane_metrics([service.combined_schedule()]), **_kernel_metrics(results)}
        counts = (service.refresh_count, service.recovery_count)
        prints.add(_fingerprint({**modeled, **lanes, "counts": counts}))
        if unit == 0:
            out.modeled, out.lanes = modeled, lanes
            _churn_checks(out, ds, service, batches, reports)
        if unit == MIN_UNITS - 1:
            out.peak_rss_mb = _peak_rss_mb()
        del service, submit, reports, results
    out.checks["modeled_identical_across_units"] = (
        None if len(prints) == 1 else f"{len(prints)} distinct modeled results over {out.units} units"
    )
    out.props["lut_cache_hit_ratio"] = lut[0] / lut[1] if lut[1] else 0.0
    return out


WORKLOADS = {
    "search_cold": (search_cold, "search_batch", {**FIG16, **COLD}),
    "serve_repeat": (serve_repeat, "frontend_run", SERVE),
    "service_churn": (service_churn, "submit", {**FIG16, **CHURN}),
}
