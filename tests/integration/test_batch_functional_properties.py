"""Property: the fused batch pass equals one functional call per DPU.

``compute_batch_functional`` concatenates consecutive DPUs' worklists
into bounded chunks.  For random DPU partitions over mixed plain and
CAE payloads (CAE address widths differ per cluster), one-pair groups
and fusion bounds of 1 row, the default and more than the whole batch,
it must return exactly what :func:`compute_groups_functional` returns
per DPU: the same values, ids, ``HeapStats`` and group sizes.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import kernel
from repro.core.encoding import EncodedCluster
from repro.core.kernel import (
    ClusterPayload,
    compute_batch_functional,
    compute_groups_functional,
)

KSUB = 16


def make_payload(rng, cluster_id, kind, size):
    ids = rng.permutation(10_000)[:size].astype(np.int64)
    if kind == "plain":
        m = int(rng.choice([4, 8]))
        codes = rng.integers(0, KSUB, size=(size, m), dtype=np.uint8)
        return ClusterPayload(cluster_id=cluster_id, ids=ids, codes=codes)
    width = int(rng.integers(1, 7))
    n_slots = int(rng.integers(0, 20))
    table_len = width * KSUB + n_slots
    addresses = rng.integers(0, table_len, size=(size, width)).astype(np.int32)
    lengths = rng.integers(1, width + 1, size=size).astype(np.int16)
    addresses[np.arange(width)[None, :] >= lengths[:, None]] = -1
    encoded = EncodedCluster(
        addresses=addresses, lengths=lengths, m=width, n_slots=n_slots
    )
    return ClusterPayload(cluster_id=cluster_id, ids=ids, encoded=encoded)


def make_table(rng, payload, ties):
    if payload.is_cae:
        enc = payload.encoded
        shape = (enc.m * KSUB + enc.n_slots,)
    else:
        shape = (payload.codes.shape[1], KSUB)
    if ties:  # small integers: many equal distances
        return rng.integers(-3, 4, size=shape).astype(np.float32)
    return rng.normal(size=shape).astype(np.float32)


@st.composite
def batches(draw):
    n_clusters = draw(st.integers(1, 6))
    kinds = draw(
        st.lists(
            st.sampled_from(["plain", "cae"]),
            min_size=n_clusters,
            max_size=n_clusters,
        )
    )
    # Size 1 clusters make one-candidate pairs.
    sizes = draw(
        st.lists(st.integers(1, 40), min_size=n_clusters, max_size=n_clusters)
    )
    n_queries = draw(st.integers(1, 4))
    dpu_ids = sorted(
        draw(st.sets(st.integers(0, 31), min_size=1, max_size=8))
    )
    worklists = []
    for d in dpu_ids:
        queries = draw(
            st.lists(
                st.integers(0, n_queries - 1), min_size=1, max_size=n_queries,
                unique=True,
            )
        )
        groups = [
            (
                qi,
                draw(
                    st.lists(
                        st.integers(0, n_clusters - 1),
                        min_size=1,
                        max_size=n_clusters,
                        unique=True,
                    )
                ),
            )
            for qi in queries
        ]
        worklists.append((d, groups))
    return dict(
        kinds=kinds,
        sizes=sizes,
        n_queries=n_queries,
        worklists=worklists,
        k=draw(st.integers(1, 12)),
        tasklets=draw(st.sampled_from([1, 4, 11])),
        prune=draw(st.booleans()),
        ties=draw(st.booleans()),
        bound=draw(st.sampled_from([1, None, 1 << 30])),
        seed=draw(st.integers(0, 10_000)),
    )


@settings(max_examples=60, deadline=None)
@given(case=batches())
def test_fused_equals_per_dpu(case):
    rng = np.random.default_rng(case["seed"])
    payloads = [
        make_payload(rng, c, kind, size)
        for c, (kind, size) in enumerate(zip(case["kinds"], case["sizes"]))
    ]
    tables = {
        qi: {p.cluster_id: make_table(rng, p, case["ties"]) for p in payloads}
        for qi in range(case["n_queries"])
    }
    dpu_groups = [
        (d, [(qi, [payloads[c] for c in cids]) for qi, cids in groups])
        for d, groups in case["worklists"]
    ]
    k, t, prune = case["k"], case["tasklets"], case["prune"]
    with pytest.MonkeyPatch.context() as mp:
        if case["bound"] is not None:
            mp.setattr(kernel, "_GATHER_CHUNK_ROWS", case["bound"])
        fused = compute_batch_functional(dpu_groups, tables, k, t, prune=prune)

    assert list(fused) == [d for d, _groups in dpu_groups]
    for d, groups in dpu_groups:
        ref_topk, ref_sizes = compute_groups_functional(
            groups, tables, k, t, prune=prune
        )
        got_topk, got_sizes = fused[d]
        np.testing.assert_array_equal(ref_sizes, got_sizes)
        assert len(got_topk) == len(ref_topk)
        for (rv, ri, rs), (gv, gi, gs) in zip(ref_topk, got_topk):
            np.testing.assert_array_equal(rv, gv)
            np.testing.assert_array_equal(ri, gi)
            assert rs == gs
