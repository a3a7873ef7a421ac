"""Pin the ADC summation order against NumPy's own reduction.

The fused ADC gathers one column at a time and combines the columns in
the order ``np.add.reduce(axis=1)`` uses for one contiguous row
(NumPy's pairwise sum), so its distances are bit-identical to the
looped oracle's row-major gather and sum.  A NumPy release that changes
that order must fail here, by name, and not only in the goldens.
"""

import numpy as np
import pytest

from repro.core.encoding import EncodedCluster
from repro.core.kernel import (
    ClusterPayload,
    _column_sum,
    _COLUMN_CHUNK_ROWS,
    compute_pair_distances,
)
from repro.ivfpq.adc import adc_distances, adc_distances_direct

KSUB = 256


def bits(x):
    return np.ascontiguousarray(x, dtype=np.float32).view(np.uint32)


def mixed_rows(rng, rows, width):
    """float32 rows mixing magnitudes 1e-40..1e30 (subnormals included),
    both signs and both signed zeros."""
    mant = rng.standard_normal((rows, width))
    x = (mant * 10.0 ** rng.integers(-44, 31, (rows, width))).astype(np.float32)
    x[rng.random((rows, width)) < 0.05] = 0.0
    x[rng.random((rows, width)) < 0.05] = -0.0
    x[0] = -0.0  # an all-negative-zero row sums to +0.0
    return x


def test_numpy_version_recorded():
    print(f"numpy {np.__version__}")


@pytest.mark.parametrize("width", range(1, 301))
def test_column_sum_matches_axis1_reduce(width):
    rng = np.random.default_rng(width)
    x = mixed_rows(rng, 257, width)
    expected = np.add.reduce(x, axis=1, dtype=np.float32)
    got = _column_sum(np.ascontiguousarray(x.T), np.empty(x.shape[0], np.float32))
    np.testing.assert_array_equal(bits(got), bits(expected))


def plain_payload(rng, cluster_id, size, m):
    codes = rng.integers(0, KSUB, size=(size, m), dtype=np.uint8)
    ids = np.arange(size, dtype=np.int64)
    return ClusterPayload(cluster_id=cluster_id, ids=ids, codes=codes)


def cae_payload(rng, cluster_id, size, width, n_slots):
    table_len = width * KSUB + n_slots
    addresses = rng.integers(0, table_len, size=(size, width)).astype(np.int32)
    lengths = rng.integers(0, width + 1, size=size).astype(np.int16)
    addresses[np.arange(width)[None, :] >= lengths[:, None]] = -1
    encoded = EncodedCluster(
        addresses=addresses, lengths=lengths, m=width, n_slots=n_slots
    )
    ids = np.arange(size, dtype=np.int64)
    return ClusterPayload(cluster_id=cluster_id, ids=ids, encoded=encoded)


def oracle(payload, table):
    if payload.is_cae:
        enc = payload.encoded
        return adc_distances_direct(
            enc.addresses, table, enc.lengths.astype(np.int64)
        )
    return adc_distances(payload.codes, table)


def table_for(rng, payload):
    if payload.is_cae:
        shape = (payload.encoded.m * KSUB + payload.encoded.n_slots,)
    else:
        shape = (payload.codes.shape[1], KSUB)
    table = rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4, shape)
    return table.astype(np.float32)


@pytest.mark.parametrize("widths", [(1,), (3, 5, 7), (8,), (9, 16), (33, 130)])
@pytest.mark.parametrize("kind", ["plain", "cae"])
def test_pair_distances_match_looped_oracle(kind, widths):
    """Fused and single pairs, widths on both sides of 8 and 128, CAE
    rows with dead slots (length 0 included)."""
    rng = np.random.default_rng(sum(widths))
    pairs = []
    for c, width in enumerate(widths * 3):
        size = int(rng.integers(1, 60))
        if kind == "plain":
            payload = plain_payload(rng, c, size, width)
        else:
            payload = cae_payload(rng, c, size, width, int(rng.integers(0, 9)))
        pairs.append((payload, table_for(rng, payload)))
    for group in (pairs, pairs[:1]):
        got = compute_pair_distances(group)
        for (payload, table), dists in zip(group, got):
            np.testing.assert_array_equal(bits(dists), bits(oracle(payload, table)))


def test_pair_distances_across_row_chunks():
    """Groups spanning several column chunks, pairs longer than one
    chunk, and plain and CAE pairs in one call."""
    rng = np.random.default_rng(7)
    pairs = []
    for c, size in enumerate((_COLUMN_CHUNK_ROWS - 5, 40, _COLUMN_CHUNK_ROWS + 3)):
        payload = plain_payload(rng, c, size, 8)
        pairs.append((payload, table_for(rng, payload)))
        payload = cae_payload(rng, 10 + c, size, 6, 4)
        pairs.append((payload, table_for(rng, payload)))
    got = compute_pair_distances(pairs)
    for (payload, table), dists in zip(pairs, got):
        np.testing.assert_array_equal(bits(dists), bits(oracle(payload, table)))
