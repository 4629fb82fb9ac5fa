"""Section 3.1 bench: measure T_f for the local SMVP on this host.

This is the bench where pytest-benchmark earns its keep: the local
SMVP kernels are timed properly (multiple rounds), and the resulting
T_f values populate the Section 3.1 table next to the paper's Cray
measurements.
"""

import numpy as np
import pytest

from repro.fem.assembly import assemble_stiffness
from repro.fem.material import materials_from_model
from repro.mesh.instances import get_instance
from repro.smvp.kernels import get_kernel
from repro.tables.sec3_tf import table_sec3_tf


@pytest.fixture(scope="module")
def matrices():
    inst = get_instance("sf10e")
    mesh, _ = inst.build()
    materials = materials_from_model(mesh, inst.model())
    csr = assemble_stiffness(mesh, materials, fmt="csr")
    bsr = assemble_stiffness(mesh, materials, fmt="bsr")
    rng = np.random.default_rng(0)
    x = rng.standard_normal(csr.shape[1])
    return csr, bsr, x


@pytest.mark.parametrize("kernel", ["csr", "bsr3x3", "symmetric-upper"])
def test_local_smvp_kernel(benchmark, matrices, kernel):
    csr, bsr, x = matrices
    matrix = bsr if kernel == "bsr3x3" else csr
    k = get_kernel(kernel)
    state = k.prepare(matrix)  # conversion stays outside the timed region
    y = benchmark(k.product, state, x)
    assert np.allclose(y, csr @ x)
    flops = 2 * csr.nnz
    tf_ns = 1e9 * benchmark.stats["mean"] / flops
    # Interpreted overhead aside, a modern host should land somewhere
    # between "faster than a T3E" and "not absurdly slow".
    assert 0.01 < tf_ns < 1000.0


def test_sec3_tf_table(emit):
    emit("sec3_tf", table_sec3_tf())
