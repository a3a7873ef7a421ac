"""Worker-process entry points for the parallel DPU-group executor.

Each pool worker is initialized once with read-only shared-memory views
of the index (codebooks, centroids, every cluster payload array) and
then serves tasks that carry only *small* per-batch data: query rows and
(query, cluster-id) worklists.  The worker builds the functional tables
locally with the parent's own batch builder
(:func:`~repro.core.lut_cache.build_tables`) — a table's bytes depend
only on its (query, cluster), so they are bit-identical to the
parent's — and runs the pure half of the grouped kernel over its whole
shard of DPU worklists with the same batch-level entry the engine's
serial path calls (:func:`~repro.core.kernel.compute_batch_functional`).
Charges never happen here: the parent replays them from the returned
top-k and group sizes.

Module state is a single ``_STATE`` slot assigned by :func:`init_worker`
(simlint rule PAR001 bans any other module-level mutable state on the
paths reachable from :func:`run_task`).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from repro.core.cooccurrence import PackedCombos
from repro.core.encoding import EncodedCluster
from repro.core.kernel import ClusterPayload, compute_batch_functional
from repro.core.lut_cache import LutCache, build_tables
from repro.errors import ConfigError
from repro.ivfpq.pq import ProductQuantizer
from repro.telemetry.registry import MetricsRegistry

#: Sentinel task that kills the worker process mid-pool — the crash-path
#: test uses it to assert the executor surfaces a clean ExecutorError.
CRASH_TASK = "__crash_worker__"

#: One task: (epoch, version, k, n_tasklets, prune, entries, queries)
#: with entries = [(dpu_id, [(query slot, [cluster ids])])] and queries
#: the (n, dim) float32 rows the slots index into.
Task = tuple[int, int, int, int, bool, list, np.ndarray]


@dataclass
class _WorkerState:
    """Everything a worker keeps between tasks."""

    shm: object  # keeps the attached segment (and every view) alive
    pq: ProductQuantizer
    centroids: np.ndarray
    payloads: dict[int, ClusterPayload]
    # cluster id -> gather form of its combinations, for CAE flat tables.
    combos: dict[int, PackedCombos]
    # Private LUT cache: same keying as the engine's, but counting into
    # a detached registry so worker-side hits never skew the parent's
    # repro_lut_cache_* telemetry (bit-identical counters across
    # backends are part of the equivalence contract).
    tables: LutCache
    epoch: int = -1


_STATE = None  # per-process singleton, assigned once by init_worker


def init_worker(shm_name: str, manifest: dict, meta: dict) -> None:
    """Pool initializer: attach shared memory and rebuild the index view."""
    from repro.parallel.shm import attach_arrays

    global _STATE
    shm, views = attach_arrays(shm_name, manifest)
    pq_meta = meta["pq"]
    pq = ProductQuantizer(
        dim=pq_meta["dim"], m=pq_meta["m"], nbits=pq_meta["nbits"]
    )
    pq.codebooks = views["codebooks"]
    payloads: dict[int, ClusterPayload] = {}
    combos: dict[int, PackedCombos] = {}
    for p in meta["payloads"]:
        c = p["cluster_id"]
        if p["kind"] == "plain":
            payloads[c] = ClusterPayload(
                cluster_id=c, ids=views[f"c{c}:ids"], codes=views[f"c{c}:codes"]
            )
        else:
            payloads[c] = ClusterPayload(
                cluster_id=c,
                ids=views[f"c{c}:ids"],
                encoded=EncodedCluster(
                    addresses=views[f"c{c}:addr"],
                    lengths=views[f"c{c}:len"],
                    m=p["m"],
                    n_slots=p["n_slots"],
                ),
            )
            combos[c] = PackedCombos(
                pos=views[f"c{c}:cpos"], codes=views[f"c{c}:ccodes"]
            )
    _STATE = _WorkerState(
        shm=shm,
        pq=pq,
        centroids=views["centroids"],
        payloads=payloads,
        combos=combos,
        tables=LutCache(meta["lut_cache_bytes"], registry=MetricsRegistry()),
    )


def run_task(task):
    """Execute one chunk of DPU worklists; return picklable results.

    Returns ``[(dpu_id, group_sizes, [(values, ids, heap-stat 4-tuple)
    per group])]`` in the task's entry order.  HeapStats crosses the
    pipe as a plain ``(comparisons, insertions, pruned,
    merge_comparisons)`` tuple.
    """
    if task == CRASH_TASK:
        os._exit(13)
    state = _STATE
    if state is None:  # pragma: no cover - init_worker always ran
        raise ConfigError("worker used before init_worker")
    epoch, version, k, n_tasklets, prune, entries, queries = task
    if state.epoch != epoch:
        # The parent cleared its cross-batch caches (or this is the
        # first task after a rebuild): drop ours so cold stays cold.
        state.tables.clear()
        state.epoch = epoch
    tables = build_tables(
        state.pq,
        state.centroids,
        queries,
        (group for _d, groups in entries for group in groups),
        state.combos.get,
        state.tables,
        version,
    )
    functional = compute_batch_functional(
        [
            (dpu_id, [(q, [state.payloads[c] for c in cids]) for q, cids in groups])
            for dpu_id, groups in entries
        ],
        tables,
        k,
        n_tasklets,
        prune=prune,
    )
    return [
        (
            dpu_id,
            group_sizes,
            [
                (v, i, (hs.comparisons, hs.insertions, hs.pruned, hs.merge_comparisons))
                for v, i, hs in topk
            ],
        )
        for dpu_id, (topk, group_sizes) in functional.items()
    ]
