"""Section 3.1 bench: measure T_f for the local SMVP on this host.

This is the bench where pytest-benchmark earns its keep: the local
SMVP kernel, ``csr``, is timed properly (multiple rounds), and the
resulting T_f values populate the Section 3.1 table next to the
paper's Cray measurements.
"""

import numpy as np
import pytest

from repro.fem.assembly import assemble_stiffness
from repro.fem.material import materials_from_model
from repro.mesh.instances import get_instance
from repro.smvp.kernels import get_kernel
from repro.tables.sec3_tf import table_sec3_tf


@pytest.fixture(scope="module")
def matrix():
    inst = get_instance("sf10e")
    mesh, _ = inst.build()
    materials = materials_from_model(mesh, inst.model())
    return assemble_stiffness(mesh, materials)


def test_local_smvp_kernel(benchmark, matrix):
    x = np.random.default_rng(0).standard_normal(matrix.shape[1])
    k = get_kernel("csr")
    state = k.prepare(matrix)  # conversion stays outside the timed region
    y = benchmark(k.product, state, x)
    assert np.allclose(y, matrix @ x)
    tf_ns = 1e9 * benchmark.stats["mean"] / (2 * matrix.nnz)
    # A modern host should land somewhere between "faster than a T3E"
    # and "not absurdly slow".
    assert 0.01 < tf_ns < 1000.0


def test_sec3_tf_table(emit):
    emit("sec3_tf", table_sec3_tf())
