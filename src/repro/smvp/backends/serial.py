"""The serial backend: the historical in-process loop, bit for bit."""

from __future__ import annotations

from typing import List, Sequence

import numpy as np
import scipy.sparse as sp

from repro.smvp.backends.base import ExecutionBackend
from repro.smvp.kernels import Kernel
from repro.telemetry.registry import count


class SerialBackend(ExecutionBackend):
    """Per-PE products one after another in the calling thread."""

    name = "serial"

    def setup(self, kernel: Kernel, matrices: Sequence[sp.spmatrix]) -> None:
        super().setup(kernel, matrices)
        self.states = [kernel.prepare(m) for m in matrices]

    def compute(self, x_locals: Sequence[np.ndarray]) -> List[np.ndarray]:
        count("repro_backend_compute_phases_total", backend=self.name)
        product = self.kernel.product
        return [product(state, x) for state, x in zip(self.states, x_locals)]

    def compute_into(
        self, x_locals: Sequence[np.ndarray], outs: List[np.ndarray]
    ) -> List[np.ndarray]:
        count("repro_backend_compute_phases_total", backend=self.name)
        into = self.kernel.product_into
        for state, x, out in zip(self.states, x_locals, outs):
            into(state, x, out)
        return outs

    def compute_one(self, pe: int, x: np.ndarray) -> np.ndarray:
        return self.kernel.product(self.states[pe], x)
