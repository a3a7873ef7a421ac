"""Cross-batch LUT cache and the batch table builder (functional-path only).

Steady-state service traffic repeats queries and hot clusters, yet the
engine used to rebuild every (query, cluster) lookup table from scratch
each batch.  This byte-bounded LRU keeps the *functional* tables — the
(m, ksub) LUT for plain clusters, the flat [LUT | partial sums] table
for CAE clusters — across batches, keyed by

    (query digest, cluster id, codebook version)

so a repeated query skips the residual/LUT/partial-sum recomputation
entirely.  The cache never touches modeled time: each DPU is still
charged the full LUT-construction cost on every visit (the golden-timing
contract), exactly as the real hardware would rebuild its WRAM copy.

:func:`build_tables` is the one place tables are made: the engine and
the ``repro.parallel`` workers both call it once per batch.

Invalidation: the engine bumps its codebook version (making every old
key unreachable) and calls :meth:`LutCache.clear` whenever the index or
the placement changes — ``build()`` and ``refresh_placement()``.

Hit/miss totals are exposed through :mod:`repro.telemetry` as
``repro_lut_cache_hits_total`` / ``repro_lut_cache_misses_total``.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from collections.abc import Callable, Iterable

import numpy as np

from repro.core.cooccurrence import PackedCombos
from repro.core.encoding import build_flat_table
from repro.errors import ConfigError
from repro.ivfpq.lut import build_luts_for_probes
from repro.ivfpq.pq import ProductQuantizer
from repro.telemetry.registry import MetricsRegistry, get_registry

#: Cache key: (query digest, cluster id, codebook version).
CacheKey = tuple[bytes, int, int]


def query_digest(query: np.ndarray) -> bytes:
    """Stable 16-byte digest of a query vector's float32 contents."""
    data = np.ascontiguousarray(query, dtype=np.float32)
    return hashlib.blake2b(data.tobytes(), digest_size=16).digest()


class LutCache:
    """Byte-capacity LRU over per-(query, cluster) lookup tables.

    Entries are immutable NumPy arrays; eviction is by total stored
    bytes, least-recently-used first.  A capacity of 0 (or less)
    disables the cache: every lookup misses and nothing is retained.
    """

    def __init__(
        self, capacity_bytes: int, *, registry: MetricsRegistry | None = None
    ):
        self.capacity_bytes = int(capacity_bytes)
        self._registry = registry
        self._entries: OrderedDict[CacheKey, np.ndarray] = OrderedDict()
        self._bytes = 0
        # Cost-aware admission (off by default): per-cluster access
        # frequencies and the floor below which puts are skipped.
        self._admission_freq: np.ndarray | None = None
        self._admission_floor = 0.0
        self._admission_skips = 0

    @property
    def enabled(self) -> bool:
        return self.capacity_bytes > 0

    @property
    def nbytes(self) -> int:
        return self._bytes

    def __len__(self) -> int:
        return len(self._entries)

    def _counters(self):
        reg = self._registry if self._registry is not None else get_registry()
        return reg.cached(
            "lut_cache_counters",
            lambda: (
                reg.counter(
                    "repro_lut_cache_hits_total",
                    "cross-batch LUT cache hits",
                ),
                reg.counter(
                    "repro_lut_cache_misses_total",
                    "cross-batch LUT cache misses",
                ),
            ),
        )

    def get(self, key: CacheKey) -> np.ndarray | None:
        """The cached table, refreshed as most-recently-used; None on miss."""
        hits, misses = self._counters()
        entry = self._entries.get(key)
        if entry is None:
            misses.inc()
            return None
        self._entries.move_to_end(key)
        hits.inc()
        return entry

    def get_many(self, keys: list[CacheKey]) -> list[np.ndarray | None]:
        """Batched :meth:`get`: one entry per key, None on miss.

        Counter updates are coalesced into a single hit and a single
        miss increment, which keeps the per-(query, cluster) lookup cost
        out of the grouped engine's hot path.
        """
        hits, misses = self._counters()
        entries = self._entries
        out: list[np.ndarray | None] = []
        n_hits = 0
        for key in keys:
            entry = entries.get(key)
            if entry is not None:
                entries.move_to_end(key)
                n_hits += 1
            out.append(entry)
        if n_hits:
            hits.inc(n_hits)
        if len(out) > n_hits:
            misses.inc(len(out) - n_hits)
        return out

    def set_admission(
        self, frequencies: np.ndarray | None, floor: float = 0.0
    ) -> None:
        """Arm (or disarm) frequency-floor admission.

        ``frequencies`` is the per-cluster access distribution (summing
        to 1, e.g. :meth:`repro.workload.trace.AccessTrace.frequencies`);
        a :meth:`put` for a cluster whose frequency is below ``floor``
        is silently skipped, so one-shot tail clusters never evict the
        warm working set.  ``None`` or a floor of 0 admits everything.
        Functional no-op either way: admission only changes what is
        *retained*, never any computed value.
        """
        if frequencies is None or floor <= 0.0:
            self._admission_freq = None
            self._admission_floor = 0.0
            return
        self._admission_freq = np.asarray(frequencies, dtype=np.float64)
        self._admission_floor = float(floor)

    def _admits(self, cluster: int) -> bool:
        freq = self._admission_freq
        if freq is None or not 0 <= cluster < freq.shape[0]:
            return True
        return bool(freq[cluster] >= self._admission_floor)

    def put(self, key: CacheKey, table: np.ndarray) -> None:
        """Insert (or refresh) one table, evicting LRU entries to fit.

        A table larger than the whole capacity is simply not retained —
        the caller keeps its own reference for the current batch.  With
        admission armed, tables of below-floor clusters are skipped and
        counted in ``repro_lut_cache_admission_skips_total``.
        """
        if not self.enabled:
            return
        if table.nbytes > self.capacity_bytes:
            return
        if not self._admits(key[1]):
            self._admission_skips += 1
            reg = self._registry if self._registry is not None else get_registry()
            reg.counter(
                "repro_lut_cache_admission_skips_total",
                "LUT-cache puts skipped by the frequency-floor admission policy",
            ).inc()
            return
        old = self._entries.pop(key, None)
        if old is not None:
            self._bytes -= old.nbytes
        self._entries[key] = table
        self._bytes += table.nbytes
        while self._bytes > self.capacity_bytes:
            _, evicted = self._entries.popitem(last=False)
            self._bytes -= evicted.nbytes

    def clear(self) -> None:
        """Drop every entry (codebook or placement changed)."""
        self._entries.clear()
        self._bytes = 0

    def stats(self) -> dict[str, int]:
        """Current occupancy (counts are in the telemetry registry)."""
        return {
            "entries": len(self._entries),
            "bytes": self._bytes,
            "capacity_bytes": self.capacity_bytes,
            "admission_skips": self._admission_skips,
        }


def check_capacity(capacity_bytes: int) -> int:
    """Validate a configured capacity (negative = configuration error)."""
    if capacity_bytes < 0:
        raise ConfigError(
            f"lut_cache_bytes must be >= 0 (0 disables), got {capacity_bytes}"
        )
    return capacity_bytes


#: Most LUT rows built by one ``compute_luts`` call.  A 100-query batch
#: at nprobe 64 fits in one call; a 1,000-query batch takes a few, so
#: the transient LUT stack beside the finished tables stays bounded.
_STACK_ROWS = 8192

#: Per batch: ``tables[query row][cluster id]`` -> functional table.
Tables = dict[int, dict[int, np.ndarray]]


def build_tables(
    pq: ProductQuantizer,
    centroids: np.ndarray,
    queries: np.ndarray,
    groups: Iterable[tuple[int, Iterable[int]]],
    combos: Callable[[int], PackedCombos | None],
    cache: LutCache | None,
    version: int,
) -> Tables:
    """Every functional table one batch's kernel visits.

    ``groups`` lists (query row, cluster ids) worklists; each live
    (query, cluster) key gets one table: the (m, ksub) LUT of a plain
    cluster, or the flat [LUT | partial sums] row of a CAE cluster
    (``combos(c)`` is its :class:`PackedCombos`).  Rows carrying the
    same query vector share one key and one table.

    1. The cache is probed once, over every live key.
    2. All misses, sorted by cluster, are built by one ``compute_luts``
       GEMM over their stacked residuals (chunked above
       :data:`_STACK_ROWS` rows, at cluster boundaries).  A row's bytes
       depend only on its (query, cluster), so a table is identical
       whether it was built cold, as a lone miss or in a worker.
    3. Each probed cluster gets one block holding all its miss rows: a
       copy of the LUTs for a plain cluster, :func:`build_flat_table`
       for a CAE cluster.  Per-cluster blocks keep a cached table from
       pinning the whole batch's LUT stack.

    Misses are written through to the cache in key order.
    """
    canon: dict[int, int] = {}  # query row -> first row with its vector
    first: dict[bytes, int] = {}
    digests: dict[int, bytes] = {}
    wanted: dict[int, set[int]] = {}
    for qi, cluster_ids in groups:
        row = canon.get(qi)
        if row is None:
            digest = query_digest(queries[qi])
            row = canon[qi] = first.setdefault(digest, qi)
            digests[row] = digest
        wanted.setdefault(row, set()).update(cluster_ids)
    pairs = [(r, c) for r in sorted(wanted) for c in sorted(wanted[r])]
    keys = [(digests[r], c, version) for r, c in pairs]
    found = cache.get_many(keys) if cache is not None else [None] * len(keys)

    tables: Tables = {r: {} for r in wanted}
    for (r, c), table in zip(pairs, found):
        if table is not None:
            tables[r][c] = table
    miss = [i for i, table in enumerate(found) if table is None]
    miss.sort(key=lambda i: pairs[i][1])  # stable: rows stay ordered
    mq = np.array([pairs[i][0] for i in miss], dtype=np.int64)
    mc = np.array([pairs[i][1] for i in miss], dtype=np.int64)
    cuts = np.flatnonzero(np.diff(mc)) + 1  # where the cluster changes
    edges = [0, *cuts.tolist(), len(miss)] if miss else [0]
    chunks: list[list[tuple[int, int]]] = []
    for s, e in zip(edges[:-1], edges[1:]):
        if chunks and e - chunks[-1][0][0] <= _STACK_ROWS:
            chunks[-1].append((s, e))
        else:
            chunks.append([(s, e)])
    for runs in chunks:
        lo, hi = runs[0][0], runs[-1][1]
        luts = build_luts_for_probes(pq, queries[mq[lo:hi]], centroids, mc[lo:hi])
        for s, e in runs:
            c = int(mc[s])
            packed = combos(c)
            block = (
                luts[s - lo : e - lo].copy()
                if packed is None
                else build_flat_table(luts[s - lo : e - lo], packed)
            )
            for j, i in enumerate(miss[s:e]):
                tables[pairs[i][0]][c] = block[j]
    if cache is not None:
        for i in sorted(miss):
            r, c = pairs[i]
            cache.put(keys[i], tables[r][c])
    for qi, row in canon.items():
        tables[qi] = tables[row]
    return tables
