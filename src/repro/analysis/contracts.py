"""Opt-in runtime contracts (``REPRO_CONTRACTS=1``).

The static linter proves properties of the *code*; these contracts
check the same invariants on the *data* actually flowing through a
run.  They are wired into the hot construction paths —
``smvp/distribution.py`` (partition cover), ``smvp/executor.py``
(CSR structure + exchange schedule), ``smvp/layout.py`` (every
compiled exchange plan), ``simulate/bsp.py`` (exchange schedule) — and
cost nothing unless the ``REPRO_CONTRACTS``
environment variable is ``1``, so production runs and the default test
suite are unaffected.  CI runs the tier-1 suite once with contracts on.

A violated contract raises :class:`ContractViolation` with every
broken invariant listed, rather than letting a silently asymmetric
schedule or corrupted CSR produce plausible-but-wrong numbers.
"""

from __future__ import annotations

import os
from typing import Optional

from repro.analysis.schedule_check import check_schedule


class ContractViolation(RuntimeError):
    """A contract failed: a runtime contract under
    ``REPRO_CONTRACTS=1``, or one of the superstep layout's always-on
    construction checks and guards, which also name the PE (``pe``)
    and the superstep phase (``phase``) at fault."""

    def __init__(
        self, message: str, pe: Optional[int] = None, phase: Optional[str] = None
    ) -> None:
        super().__init__(message)
        self.pe = pe
        self.phase = phase


def contracts_enabled() -> bool:
    """Whether runtime contract checking is switched on."""
    return os.environ.get("REPRO_CONTRACTS", "") == "1"


def check_schedule_contract(schedule, distribution=None) -> None:
    """BSP-invariant contract: symmetry, parity, coverage.

    No-op unless contracts are enabled.  ``distribution`` (when
    available) additionally enables the shared-node coverage check.
    """
    if not contracts_enabled():
        return
    report = check_schedule(schedule, distribution)
    if not report.ok:
        raise ContractViolation(
            f"exchange-schedule contract failed: {report.summary()}"
        )


def check_plan_contract(plan) -> None:
    """Exchange-plan contract: each round's destinations are unique (a
    repeat would make ``buffer[dst] += ...`` keep one contribution) and
    the rounds tile the snapshot — every word sent — exactly once."""
    if not contracts_enabled():
        return
    import numpy as np

    problems = []
    covered = 0
    for k, (dst, lo, hi) in enumerate(plan.rounds):
        if lo != covered or hi - lo != len(dst):
            problems.append(f"round {k} does not continue at word {covered}")
        if np.unique(dst).size != len(dst):
            problems.append(f"round {k} repeats a destination")
        covered = hi
    if not covered == plan.send_pos.size == plan.words_sent.sum():
        problems.append(f"rounds cover {covered} of {plan.send_pos.size} words")
    if problems:
        raise ContractViolation(
            "exchange-plan contract failed: " + "; ".join(problems)
        )


def check_csr_contract(matrix, context: str = "sparse matrix") -> None:
    """Structural contract for CSR matrices feeding the SMVP.

    Checks the index arrays (monotone ``indptr`` starting at 0 and
    ending at ``nnz``, column indices in range) and that the
    values are finite — a corrupted local stiffness matrix is the
    classic way a distributed product goes quietly wrong.
    """
    if not contracts_enabled():
        return
    import numpy as np

    problems = []
    indptr = getattr(matrix, "indptr", None)
    indices = getattr(matrix, "indices", None)
    if indptr is None or indices is None:
        problems.append("matrix has no CSR index structure")
    else:
        if len(indptr) == 0 or indptr[0] != 0:
            problems.append("indptr does not start at 0")
        if np.any(np.diff(indptr) < 0):
            problems.append("indptr is not non-decreasing")
        if len(indptr) and indptr[-1] != len(indices):
            problems.append(
                f"indptr[-1]={indptr[-1]} but {len(indices)} stored "
                "column indices"
            )
        col_bound = matrix.shape[1]
        if len(indices) and (indices.min() < 0 or indices.max() >= col_bound):
            problems.append(
                f"column indices outside [0, {col_bound})"
            )
    data = getattr(matrix, "data", None)
    if data is not None and not np.all(np.isfinite(data)):
        problems.append("matrix values contain NaN/Inf")
    if problems:
        raise ContractViolation(
            f"CSR contract failed for {context}: " + "; ".join(problems)
        )


def check_partition_cover_contract(partition, mesh) -> None:
    """Partition-cover contract: the element->PE map is a true cover.

    Every element must be assigned exactly one valid PE, and (whenever
    there are at least as many elements as PEs) no PE may be empty —
    an empty PE silently drops out of the exchange and skews every
    per-PE maximum the model consumes.
    """
    if not contracts_enabled():
        return
    import numpy as np

    problems = []
    parts = np.asarray(partition.parts)
    if parts.shape != (mesh.num_elements,):
        problems.append(
            f"partition covers {parts.shape[0] if parts.ndim else 0} "
            f"elements, mesh has {mesh.num_elements}"
        )
    elif parts.size:
        if parts.min() < 0 or parts.max() >= partition.num_parts:
            problems.append(
                f"part indices outside [0, {partition.num_parts})"
            )
        else:
            sizes = np.bincount(parts, minlength=partition.num_parts)
            empties = np.flatnonzero(sizes == 0)
            if len(empties) and mesh.num_elements >= partition.num_parts:
                problems.append(
                    f"PEs {empties.tolist()} own no elements"
                )
    if problems:
        raise ContractViolation(
            "partition-cover contract failed: " + "; ".join(problems)
        )
