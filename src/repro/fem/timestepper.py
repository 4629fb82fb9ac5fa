"""Explicit central-difference time integration.

The paper's simulations run 6000 explicit time steps, each dominated by
one SMVP — "because an explicit time-stepping method is used, there are
no other parallel operations (such as dot products or preconditioning)"
(Section 2.2).  This module is that integrator:

``M u'' + C u' + K u = f``  with lumped (diagonal) M and mass-
proportional damping ``C = alpha M``, stepped by

``u_next = [2 u - (1 - alpha dt/2) u_prev + dt^2 M^{-1} (f - K u)]
           / (1 + alpha dt/2)``

Each step performs exactly one SMVP (``K u``) plus vector updates — the
computational shape the whole paper models.  The vector updates are as
bandwidth-bound as the SMVP, so a warm step allocates no full-length
array: the state rotates through three buffers the stepper owns, the
product lands in a fourth, and the update walks cache-sized row blocks
(see :meth:`ExplicitTimeStepper.step`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np
import scipy.sparse as sp

from repro.faults.detection import check_finite as _check_finite
from repro.faults.errors import NumericalFaultError
from repro.fem.material import ElementMaterials
from repro.geometry import tet_shortest_edges
from repro.mesh.core import TetMesh

#: Elements per row block of the in-place update (256 KiB of float64):
#: a block's five input streams and two scratch arrays sit in L2 while
#: the eight ufunc passes run over them, so each stream leaves DRAM once.
_BLOCK_ELEMENTS = 32_768


def stable_timestep(
    mesh: TetMesh, materials: ElementMaterials, safety: float = 0.5
) -> float:
    """CFL-style stable time step estimate.

    ``dt = safety * min_e (shortest_edge_e / Vp_e)`` — the usual
    explicit-dynamics bound for linear tets.
    """
    materials.check_covers(mesh)
    if not 0 < safety <= 1:
        raise ValueError("safety must be in (0, 1]")
    edges = tet_shortest_edges(mesh.points, mesh.tets)
    vp = materials.vp()
    return float(safety * np.min(edges / vp))


def _peak(a: np.ndarray) -> float:
    """``max |a|`` without the ``|a|`` temporary; NaN if ``a`` has one."""
    return float(max(a.max(), -a.min()))


@dataclass
class StepRecord:
    """Per-step diagnostics returned by the stepper."""

    step: int
    time: float
    max_displacement: float
    kinetic_proxy: float  # ||u - u_prev||^2 / dt^2, a cheap energy proxy


class ExplicitTimeStepper:
    """Central-difference integrator with lumped mass.

    Parameters
    ----------
    stiffness:
        Global (or local) sparse stiffness matrix, 3n x 3n.
    mass:
        Lumped mass vector, length 3n, strictly positive.
    dt:
        Time step (use :func:`stable_timestep`).
    damping_alpha:
        Mass-proportional Rayleigh damping coefficient (1/s): either a
        scalar, or a per-dof vector of length 3n (which is how the
        :class:`~repro.fem.boundary.SpongeLayer` absorbing boundaries
        plug in).
    smvp:
        Override the SMVP operation (the distributed executor passes
        itself in here — that is the integration point between the
        solver and the parallel SMVP machinery).  An operator with a
        ``multiply(x, out=)`` method, as the executor has, is asked to
        write into the stepper's product buffer; any other callable
        ``x -> K x`` returns an array of its own.
    check_finite:
        When True, every new state is guarded for NaN/Inf and a
        :class:`~repro.faults.NumericalFaultError` pinpoints the step a
        blow-up (or an undetected corrupt exchange) first appeared.
        Off by default; the guard reads the step's peak displacement,
        so the state is scanned again only to word the error.
    guard_growth:
        Optional per-step growth bound: raise a
        :class:`~repro.faults.NumericalFaultError` when the new state's
        peak magnitude exceeds ``guard_growth`` times the previous
        peak.  An escaped exponent-bit corruption multiplies a dof by
        ~2^k, which no legitimate explicit step under the CFL bound
        does — this is the cheap timestepper-level invariant backing up
        the per-superstep ABFT checks.  The guard only engages once the
        state is nonzero (a cold start legitimately grows from zero).
    rhs:
        Number of independent right-hand-side scenarios integrated in
        lock step (default 1).  With ``rhs > 1`` the state is a
        (3n, rhs) block, each step performs one *block* SMVP (one
        matrix traversal amortized over all scenarios), and every
        vector update broadcasts per column — column j of the
        trajectory is bit-identical to an ``rhs=1`` run with that
        column's forcing.  ``rhs=1`` keeps the historical vector path,
        bit for bit.

    State lifetime
    --------------
    The stepper owns three state buffers that rotate: a step writes the
    new state into the spare, which becomes ``u``; ``u`` becomes
    ``u_prev``; the old ``u_prev`` becomes the spare.  So an array read
    as ``.u`` *is* ``.u_prev`` after the next step, and after the one
    after it is the spare, which the stepper overwrites — ``.copy()``
    whatever must outlive that (seismograms, snapshots, checkpoints).
    An array assigned to ``.u`` or ``.u_prev`` joins the rotation the
    same way; :meth:`set_state` copies its arguments instead and is
    the way to load a state.
    """

    def __init__(
        self,
        stiffness: sp.spmatrix,
        mass: np.ndarray,
        dt: float,
        damping_alpha=0.0,
        smvp: Optional[Callable[[np.ndarray], np.ndarray]] = None,
        check_finite: bool = False,
        guard_growth: Optional[float] = None,
        rhs: int = 1,
    ) -> None:
        mass = np.asarray(mass, dtype=np.float64)
        if stiffness.shape[0] != stiffness.shape[1]:
            raise ValueError("stiffness must be square")
        if mass.shape != (stiffness.shape[0],):
            raise ValueError("mass vector length must match stiffness")
        if np.any(mass <= 0):
            raise ValueError("lumped mass must be strictly positive")
        if dt <= 0:
            raise ValueError("dt must be positive")
        self.stiffness = stiffness.tocsr() if smvp is None else stiffness
        self.mass = mass
        self.inv_mass = 1.0 / mass
        self.dt = float(dt)
        damping = np.asarray(damping_alpha, dtype=np.float64)
        if damping.ndim not in (0, 1):
            raise ValueError("damping_alpha must be a scalar or a vector")
        if damping.ndim == 1 and damping.shape != (stiffness.shape[0],):
            raise ValueError("damping vector length must be 3n")
        if np.any(damping < 0):
            raise ValueError("damping must be non-negative")
        self.damping_alpha = damping
        self._smvp = smvp if smvp is not None else (lambda x: self.stiffness @ x)
        self.check_finite = bool(check_finite)
        if guard_growth is not None and guard_growth <= 1.0:
            raise ValueError("guard_growth must exceed 1.0")
        self.guard_growth = guard_growth
        if rhs < 1:
            raise ValueError("rhs must be >= 1")
        self.rhs = int(rhs)
        n = stiffness.shape[0]
        self._shape = (n, self.rhs) if self.rhs > 1 else (n,)
        self.u = np.zeros(self._shape)
        self.u_prev = np.zeros(self._shape)
        self.step_index = 0
        # The third state buffer, the product buffer (filled only by an
        # operator offering ``multiply(x, out=)``) and the update's two
        # block-sized scratch arrays; untouched pages cost nothing.
        self._spare = np.empty(self._shape)
        self._ku = np.empty(self._shape)
        self._block_rows = max(1, _BLOCK_ELEMENTS // self.rhs)
        block = (min(n, self._block_rows),) + self._shape[1:]
        self._w, self._b = np.empty(block), np.empty(block)

    @property
    def time(self) -> float:
        return self.step_index * self.dt

    @property
    def smvp(self) -> Callable[[np.ndarray], np.ndarray]:
        """The SMVP operation each step applies (read via
        :meth:`rebind_smvp` for the mutable path)."""
        return self._smvp

    def rebind_smvp(
        self, smvp: Callable[[np.ndarray], np.ndarray]
    ) -> None:
        """Swap the SMVP operation mid-run.

        The central-difference state is the pair ``(u, u_prev)`` plus
        ``step_index`` — nothing in the stepper caches the operator —
        so after a PE eviction the resilience supervisor rebinds the
        reconfigured P-1 executor here and stepping continues
        bit-consistently.
        """
        self._smvp = smvp

    def set_state(
        self, u: np.ndarray, u_prev: np.ndarray, step_index: int
    ) -> None:
        """Load an explicit ``(u, u_prev, step_index)`` state.

        This is the splice point for recovery: the state fully
        determines the trajectory, so loading a reconstructed pair and
        continuing reproduces an uninterrupted run exactly.  The values
        are copied into the stepper's own state buffers; the arguments
        may be (views of) this stepper's ``.u`` / ``.u_prev``.
        """
        u = np.asarray(u, dtype=np.float64)
        u_prev = np.asarray(u_prev, dtype=np.float64)
        if u.shape != self._shape or u_prev.shape != self._shape:
            raise ValueError("state vectors must have length 3n")
        if step_index < 0:
            raise ValueError("step_index must be non-negative")
        if np.may_share_memory(u_prev, self.u):
            u_prev = u_prev.copy()  # the first copy below would clobber it
        np.copyto(self.u, u)
        np.copyto(self.u_prev, u_prev)
        self.step_index = int(step_index)

    def _checked_force(self, force) -> Optional[np.ndarray]:
        """``force`` as a float64 array that broadcasts against a state
        block row-wise, or a ``ValueError`` naming the shapes."""
        if force is None:
            return None
        force = np.asarray(force, dtype=np.float64)
        n = self._shape[0]
        if force.shape == self._shape:
            return force
        if force.shape == (n,):  # one forcing shared by every column
            return force[:, None]
        expected = f"({n},)" + (f" or {self._shape}" if self.rhs > 1 else "")
        raise ValueError(
            f"force has shape {force.shape}; expected {expected}"
        )

    def _free_spare(self) -> np.ndarray:
        """The buffer the next state is written to.  The rotation hands
        back the old ``u_prev``; one that a caller's assignment to
        ``.u`` / ``.u_prev`` left aliasing the live state, or unfit to
        hold a state, is replaced."""
        spare = self._spare
        if (
            spare.shape != self._shape
            or spare.dtype != np.float64
            or np.may_share_memory(spare, self.u)
            or np.may_share_memory(spare, self.u_prev)
        ):
            spare = self._spare = np.empty(self._shape)
        return spare

    def step(self, force: Optional[np.ndarray] = None) -> StepRecord:
        """Advance one time step; returns diagnostics.

        With ``rhs > 1`` a 1-D ``force`` broadcasts to every scenario
        column; a (3n, rhs) force drives each column independently.
        Any other shape is a ``ValueError``.

        The new state is built in the spare buffer, block of rows by
        block of rows, with the arithmetic of the formula in the module
        docstring in a fixed order — ``w = f - Ku; w = M^-1 w;
        w = dt^2 w; o = 2 u; b = (1 - a) u_prev; o = o - b; o = o + w;
        o = o / (1 + a)`` with ``a = alpha dt / 2`` — so every dof sees
        exactly the operations of the whole-array expression and the
        trajectory does not depend on the block size.  The diagnostics
        are read off each block while it is in cache;
        ``kinetic_proxy`` is therefore summed block by block and is not
        bit-stable across block sizes (``max_displacement`` is exact).

        Nothing of ``(u, u_prev, step_index)`` changes until the new
        state has passed every check: a step that raises — a malformed
        force, a faulting operator, ``check_finite``, ``guard_growth``
        — leaves the stepper as it was, and can be retried.
        """
        f = self._checked_force(force)
        u, u_prev, dt = self.u, self.u_prev, self.dt
        nxt = self._free_spare()
        # One SMVP, into the stepper's product buffer when the operator
        # is an executor (a plain callable returns its own array).
        multiply = getattr(self._smvp, "multiply", None)
        ku = self._smvp(u) if multiply is None else multiply(u, out=self._ku)

        per_dof = (slice(None), None) if self.rhs > 1 else slice(None)
        inv_mass = self.inv_mass[per_dof]
        alpha = self.damping_alpha
        peaks, kinetic = [], 0.0
        for lo in range(0, self._shape[0], self._block_rows):
            rows = slice(lo, lo + self._block_rows)
            o = nxt[rows]
            w, b = self._w[: len(o)], self._b[: len(o)]
            half = 0.5 * (alpha[rows][per_dof] if alpha.ndim else alpha) * dt
            keep, gain = 1.0 - half, 1.0 + half
            np.subtract(0.0 if f is None else f[rows], ku[rows], out=w)
            np.multiply(inv_mass[rows], w, out=w)
            np.multiply(dt * dt, w, out=w)
            np.multiply(2.0, u[rows], out=o)
            np.multiply(keep, u_prev[rows], out=b)
            np.subtract(o, b, out=o)
            np.add(o, w, out=o)
            np.divide(o, gain, out=o)
            peaks.append(_peak(o))
            np.subtract(o, u[rows], out=w)
            np.multiply(w, w, out=w)
            kinetic += w.sum()
        peak = float(np.max(peaks))

        step = self.step_index + 1
        if self.check_finite and not math.isfinite(peak):
            _check_finite(
                nxt,
                f"displacement at step {step}",
                step=step,
                phase="timestep",
            )
        if self.guard_growth is not None:
            prev_peak = max(_peak(u), _peak(u_prev))
            if prev_peak > 0.0 and peak > self.guard_growth * prev_peak:
                raise NumericalFaultError(
                    f"displacement grew {peak / prev_peak:.1f}x in one "
                    f"step (bound {self.guard_growth:.1f}x) — likely an "
                    "escaped corruption",
                    step=step,
                    phase="timestep",
                )
        self.u_prev, self.u, self._spare = u, nxt, u_prev
        self.step_index = step
        return StepRecord(
            step=step,
            time=self.time,
            max_displacement=peak,
            kinetic_proxy=float(kinetic / (dt * dt)),
        )

    def run(
        self,
        num_steps: int,
        force_at: Optional[Callable[[float], np.ndarray]] = None,
        record_nodes: Optional[np.ndarray] = None,
        checkpoint=None,
        trace_sink=None,
    ):
        """Run ``num_steps`` steps.

        Parameters
        ----------
        force_at:
            ``t -> force vector`` callback evaluated every step.
        record_nodes:
            Node indices whose 3 displacement dofs are recorded every
            step (seismograms).
        checkpoint:
            Optional :class:`~repro.faults.CheckpointManager` (anything
            with a ``maybe_save(stepper)`` method): the run snapshots
            its state at the manager's interval, so a killed run can
            resume from the latest checkpoint and reproduce the
            uninterrupted trajectory exactly.
        trace_sink:
            Optional callable receiving one
            :class:`~repro.smvp.trace.SuperstepTrace` per time step
            (each step is exactly one superstep).  Requires the SMVP to
            be a tracing executor — a
            :class:`~repro.smvp.executor.DistributedSMVP`; the sink is
            attached for the duration of the run and the executor's
            previous sink restored afterwards.

        Returns
        -------
        (records, seismograms)
            ``records`` is the list of :class:`StepRecord`;
            ``seismograms`` is ``(num_steps, len(record_nodes), 3)``
            (with an extra trailing ``rhs`` axis when ``rhs > 1``) or
            ``None``.
        """
        previous_sink = None
        if trace_sink is not None:
            if not hasattr(self._smvp, "trace_sink"):
                raise ValueError(
                    "trace_sink needs an SMVP that emits SuperstepTrace "
                    "records (a DistributedSMVP); the sequential matvec "
                    "has no superstep phases to trace"
                )
            previous_sink = self._smvp.trace_sink
            self._smvp.trace_sink = trace_sink
        try:
            records: List[StepRecord] = []
            seis = None
            if record_nodes is not None:
                record_nodes = np.asarray(record_nodes, dtype=np.int64)
                shape = (num_steps, len(record_nodes), 3)
                if self.rhs > 1:
                    shape = shape + (self.rhs,)
                seis = np.zeros(shape)
            for k in range(num_steps):
                force = force_at(self.time) if force_at is not None else None
                rec = self.step(force)
                records.append(rec)
                if seis is not None:
                    dof = (3 * record_nodes[:, None] + np.arange(3)).ravel()
                    if self.rhs > 1:
                        seis[k] = self.u[dof].reshape(-1, 3, self.rhs)
                    else:
                        seis[k] = self.u[dof].reshape(-1, 3)
                if checkpoint is not None:
                    checkpoint.maybe_save(self)
            return records, seis
        finally:
            if trace_sink is not None:
                self._smvp.trace_sink = previous_sink
