"""A Spark98-style kernel suite.

The paper's postscript points to Spark98, "a collection of 10 portable
sequential and parallel SMVP kernels" distilled from the Quake codes.
This module is our equivalent: named end-to-end SMVP configurations —
one per execution style, all on the ``csr`` kernel — each runnable on
any named instance, used by the ``repro-measure`` CLI.

Kernel naming loosely follows Spark98 (``smv`` sequential matrix-
vector, ``lmv`` local/partitioned, ``mmv`` message-passing style):

========  =============================================================
name       meaning
========  =============================================================
smv0       sequential: the global product
lmv        partitioned local products only (no exchange) — the
           computation phase in isolation
mmv        full distributed SMVP with pairwise exchange (the paper's
           parallel kernel, executed in-process)
========  =============================================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.pipeline import Problem
from repro.smvp.kernels import CSR
from repro.telemetry.registry import count, set_gauge
from repro.util.clock import now


@dataclass(frozen=True)
class KernelRun:
    """Timing result for one Spark98-style kernel execution."""

    kernel: str
    instance: str
    num_parts: int
    flops: int
    seconds_per_smvp: float
    backend: str = "serial"  # execution backend (partitioned kernels)
    rhs: int = 1  # right-hand-side columns per (block) SMVP

    @property
    def tf_ns(self) -> float:
        """Amortized ns per flop (the paper's T_f).

        ``flops`` already counts every column of a block run, so tf_ns
        stays per-flop-per-column and comparable to the paper's tables
        at any ``rhs``.
        """
        return 1e9 * self.seconds_per_smvp / self.flops if self.flops else 0.0

    @property
    def mflops(self) -> float:
        return 1e3 / self.tf_ns if self.tf_ns > 0 else float("inf")


#: All suite kernel names in canonical order.
SUITE = ("smv0", "lmv", "mmv")


def run_kernel(
    kernel: str,
    instance: str = "sf10e",
    num_parts: int = 8,
    repetitions: int = 3,
    seed: int = 0,
    backend: str = "serial",
    rhs: int = 1,
    trace_sink=None,
    profile: bool = False,
) -> KernelRun:
    """Build the instance, assemble, and time one suite kernel.

    ``num_parts`` and ``backend`` only affect the partitioned kernels
    (lmv/mmv).  Flop accounting follows the paper: 2 flops per stored
    nonzero, summed over PEs for the partitioned kernels (replicated
    shared blocks genuinely cost extra flops, as they do in the real
    codes), times ``rhs`` columns for block runs.  Kernel states are
    prepared once, before the timed loop — the measurement covers
    products, never format conversion.

    ``trace_sink`` / ``profile`` attach the superstep tracer (and the
    critical-path profiler's per-PE spans) to the ``mmv`` kernel's
    executor; the ``smv0`` and ``lmv`` kernels have no supersteps to
    trace and ignore both.
    """
    if kernel not in SUITE:
        raise ValueError(f"unknown kernel {kernel!r}; options: {SUITE}")
    if rhs < 1:
        raise ValueError("rhs must be >= 1")
    count("repro_spark98_runs_total", kernel=kernel, instance=instance)
    problem = Problem.from_instance(instance)
    rng = np.random.default_rng(seed)
    # rhs == 1 runs the vector product, like the paper's tables.
    tail = (rhs,) if rhs > 1 else ()

    if kernel == "smv0":
        matrix = problem.stiffness
        state = CSR.prepare(matrix)
        x = rng.standard_normal((matrix.shape[1],) + tail)
        CSR.product(state, x)  # warmup
        t0 = now()
        for _ in range(repetitions):
            CSR.product(state, x)
        elapsed = (now() - t0) / repetitions
        set_gauge(
            "repro_spark98_seconds_per_smvp", elapsed, kernel=kernel
        )
        return KernelRun(
            kernel=kernel,
            instance=instance,
            num_parts=1,
            flops=2 * matrix.nnz * rhs,
            seconds_per_smvp=elapsed,
            rhs=rhs,
        )

    dist_smvp = problem.executor(
        problem.partition(num_parts, seed=seed),
        backend=backend,
        trace_sink=trace_sink if kernel == "mmv" else None,
        profile=profile,
    )
    try:
        x = rng.standard_normal((problem.num_dofs,) + tail)
        x_locals = dist_smvp.scatter(x)
        flops = int(dist_smvp.flops_per_pe().sum()) * rhs
        if kernel == "lmv":
            dist_smvp.compute_phase(x_locals)  # warmup
            t0 = now()
            for _ in range(repetitions):
                dist_smvp.compute_phase(x_locals)
            elapsed = (now() - t0) / repetitions
        else:  # mmv
            dist_smvp.multiply(x)  # warmup
            t0 = now()
            for _ in range(repetitions):
                dist_smvp.multiply(x)
            elapsed = (now() - t0) / repetitions
    finally:
        dist_smvp.close()
    set_gauge("repro_spark98_seconds_per_smvp", elapsed, kernel=kernel)
    return KernelRun(
        kernel=kernel,
        instance=instance,
        num_parts=num_parts,
        flops=flops,
        seconds_per_smvp=elapsed,
        backend=dist_smvp.backend_name,
        rhs=rhs,
    )


def run_suite(
    instance: str = "sf10e",
    num_parts: int = 8,
    repetitions: int = 3,
    kernels=SUITE,
    backend: str = "serial",
    rhs: int = 1,
    trace_sink=None,
    profile: bool = False,
) -> Dict[str, KernelRun]:
    """Run several suite kernels and return their timing records."""
    return {
        k: run_kernel(
            k,
            instance=instance,
            num_parts=num_parts,
            repetitions=repetitions,
            backend=backend,
            rhs=rhs,
            trace_sink=trace_sink,
            profile=profile,
        )
        for k in kernels
    }
