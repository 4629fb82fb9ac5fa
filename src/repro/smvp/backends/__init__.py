"""Execution backends for the compute phase.

The compute phase of a superstep is an embarrassingly parallel list of
per-PE local products ``y_i = K_i @ x_i``.  *Where* that list of calls
runs on the host is the backend's one decision
(:meth:`ExecutionBackend.map`), orthogonal to the kernel and to the
exchange protocol:

``serial``
    One call after another in the calling thread — the historical
    executor semantics, bit for bit.

``threaded``
    The per-PE calls on a thread pool.  The local products release
    the GIL, so on a multi-core host the compute phase genuinely speeds up
    (this is the intra-node half of hybrid MPI+OpenMP SMVP
    decompositions).  Results are ordered by PE index and bit-identical
    to ``serial`` — each product is the same code on the same data.

``overlap``
    ``serial`` under an older name: the flat schedule, bit for bit.  It
    stays only because the benchmark's block workload still names it.

On top of ``map`` the base class offers one whole compute phase:
``setup(kernel, matrices)`` prepares per-PE kernel states once (format
conversion happens here, never per product) and returns them;
``compute(x_locals)``
maps ``kernel.product`` over them; ``close()`` releases pools.  Select
a backend by name through :func:`make_backend` or
``DistributedSMVP(backend=...)``.
"""

from __future__ import annotations

from typing import Dict, Type

from repro.smvp.backends.base import ExecutionBackend
from repro.smvp.backends.serial import OverlapBackend, SerialBackend
from repro.smvp.backends.threaded import ThreadedBackend

#: Name -> backend class.  Register new execution strategies here.
BACKENDS: Dict[str, Type[ExecutionBackend]] = {
    SerialBackend.name: SerialBackend,
    ThreadedBackend.name: ThreadedBackend,
    OverlapBackend.name: OverlapBackend,
}


def backend_names():
    """Sorted registered backend names."""
    return sorted(BACKENDS)


def make_backend(backend) -> ExecutionBackend:
    """Resolve a backend instance from a name (or pass one through)."""
    if isinstance(backend, ExecutionBackend):
        return backend
    try:
        cls = BACKENDS[backend]
    except (KeyError, TypeError):
        raise ValueError(
            f"unknown backend {backend!r}; options: {backend_names()}"
        ) from None
    return cls()


__all__ = [
    "BACKENDS",
    "ExecutionBackend",
    "OverlapBackend",
    "SerialBackend",
    "ThreadedBackend",
    "backend_names",
    "make_backend",
]
