"""``repro.util.keys`` and the residency matrix built on it.

``sorted_unique`` must be ``np.unique`` for integer keys, and
``node_part_incidence`` (canonical CSR straight from sorted
``node * p + part`` keys) must equal the scipy COO construction it
replaced: the same ``indptr``, ``indices`` and ``data``, the same
dtypes and the same canonical flags.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.partition import Partition
from repro.partition.metrics import node_part_incidence
from repro.util.keys import run_starts, sorted_unique


@settings(max_examples=200, deadline=None)
@given(
    hnp.arrays(
        st.sampled_from([np.int32, np.int64, np.uint64]),
        hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=30),
        elements=st.integers(0, 50),
    )
)
def test_sorted_unique_is_np_unique(keys):
    got = sorted_unique(keys)
    want = np.unique(keys)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    ordered = np.sort(keys, axis=None)
    starts = np.unique(ordered, return_index=True)[1]
    assert np.array_equal(run_starts(ordered), starts)


def incidence_by_coo(mesh, partition):
    """The residency matrix by scipy's COO -> CSR conversion: the
    oracle."""
    tets = mesh.tets
    mat = sp.csr_matrix(
        (
            np.ones(tets.size, dtype=np.int8),
            (tets.ravel(), np.repeat(partition.parts.astype(np.int64), 4)),
        ),
        shape=(mesh.num_nodes, partition.num_parts),
    )
    mat.data[:] = 1
    return mat


@settings(max_examples=60, deadline=None)
@given(p=st.integers(1, 40), seed=st.integers(0, 2**32 - 1), blocks=st.booleans())
def test_incidence_equals_coo_construction(demo_mesh, p, seed, blocks):
    rng = np.random.default_rng(seed)
    m = demo_mesh.num_elements
    if blocks:
        # Contiguous runs, like a real partition; some parts may be empty.
        parts = np.sort(rng.integers(0, p, m))
    else:
        parts = rng.integers(0, p, m)
    partition = Partition(parts, p)
    got = node_part_incidence(demo_mesh, partition)
    want = incidence_by_coo(demo_mesh, partition)
    assert got.shape == want.shape
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert got.has_canonical_format == want.has_canonical_format is True
    assert got.has_sorted_indices == want.has_sorted_indices is True
