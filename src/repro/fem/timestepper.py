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
product lands in a fourth, and the update is one compiled pass
(``timestep.c``, built on first use by :mod:`repro.util.native`;
:func:`timestep_library`) that reads each input once per entry and
returns the step's diagnostics with the state.  Without ``cffi`` or
``gcc`` a numpy walk over cache-sized row blocks gives the same state
bits (see :meth:`ExplicitTimeStepper.step`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, List, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from repro.faults.detection import check_finite as _check_finite
from repro.faults.errors import NumericalFaultError
from repro.fem.material import ElementMaterials
from repro.geometry import tet_shortest_edges
from repro.mesh.core import TetMesh
from repro.util.native import compiled

#: The update's C source, built by :mod:`repro.util.native`.
_TIMESTEP_SOURCE = Path(__file__).with_name("timestep.c")
_TIMESTEP_CDEF = """
void timestep_update(int64_t n, int64_t r, const double *f, int64_t f_row,
                     int64_t f_col, const double *ku, const double *u,
                     const double *u_prev, const double *inv_mass,
                     const double *alpha, int64_t alpha_step, double dt,
                     double *out, double *diag);
"""

#: What the compiled pass reads as "no force": one 0.0 at stride 0.
_NO_FORCE = np.zeros(1)

#: Elements per row block of the numpy fallback (256 KiB of float64):
#: a block's five input streams and two scratch arrays sit in L2 while
#: the eight ufunc passes run over them, so each stream leaves DRAM once.
_BLOCK_ELEMENTS = 32_768


def timestep_library() -> Optional[Tuple[Any, Any]]:
    """The compiled update as ``(ffi, lib)``, built on first use;
    ``None`` when ``cffi`` or ``gcc`` is missing or the build or load
    fails — the stepper then walks numpy row blocks, with the same
    state bits."""
    return compiled(_TIMESTEP_SOURCE, _TIMESTEP_CDEF)


def _c_float64(a: np.ndarray) -> np.ndarray:
    """``a`` as a C-contiguous float64 array, copied only if it is not."""
    if a.dtype == np.float64 and a.flags.c_contiguous:
        return a
    return np.ascontiguousarray(a, dtype=np.float64)


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
        if stiffness.shape[0] == 0:
            raise ValueError("the system has no degrees of freedom")
        if mass.shape != (stiffness.shape[0],):
            raise ValueError("mass vector length must match stiffness")
        # Written so that NaN fails them: NaN compares false.
        if not np.all(mass > 0):
            raise ValueError("lumped mass must be strictly positive")
        if not np.all(np.isfinite(mass)):
            raise ValueError("lumped mass must be finite")
        if not 0 < dt < math.inf:
            raise ValueError("dt must be positive and finite")
        self.stiffness = stiffness.tocsr() if smvp is None else stiffness
        self.mass = mass
        self.inv_mass = 1.0 / mass
        self.dt = float(dt)
        # A copy, so the pass reads one contiguous array the caller
        # cannot change under it.
        damping = np.array(damping_alpha, dtype=np.float64)
        if damping.ndim not in (0, 1):
            raise ValueError("damping_alpha must be a scalar or a vector")
        if damping.ndim == 1 and damping.shape != (stiffness.shape[0],):
            raise ValueError("damping vector length must be 3n")
        if not np.all(damping >= 0):
            raise ValueError("damping must be non-negative")
        if not np.all(np.isfinite(damping)):
            raise ValueError("damping must be finite")
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
        # operator offering ``multiply(x, out=)``) and the numpy
        # fallback's two block-sized scratch arrays; untouched pages
        # cost nothing.
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
        """``force`` as a float64 array of the state's shape or, with
        ``rhs > 1``, one (3n,) forcing shared by every column; else a
        ``ValueError`` naming the shapes (or refusing complex input,
        which a float64 cast would cut to its real part)."""
        if force is None:
            return None
        if np.iscomplexobj(force):
            raise ValueError("force must be real, not complex")
        force = np.asarray(force, dtype=np.float64)
        n = self._shape[0]
        if force.shape in (self._shape, (n,)):
            return force
        expected = f"({n},)" + (f" or {self._shape}" if self.rhs > 1 else "")
        raise ValueError(
            f"force has shape {force.shape}; expected {expected}"
        )

    def _free_spare(self) -> np.ndarray:
        """The buffer the next state is written to.  The rotation hands
        back the old ``u_prev``; one that a caller's assignment to
        ``.u`` / ``.u_prev`` left aliasing the live state, or unfit to
        be written as one contiguous state, is replaced."""
        spare = self._spare
        if (
            spare.shape != self._shape
            or spare.dtype != np.float64
            or not spare.flags.c_contiguous
            or not spare.flags.writeable
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

        The new state is built in the spare buffer by one compiled pass
        (:func:`timestep_library`) that reads ``f``, ``Ku``, ``u``,
        ``u_prev``, ``M^-1`` and ``alpha`` once per entry, with the
        arithmetic of the formula in the module docstring in a fixed
        order — ``w = f - Ku; w = M^-1 w; w = dt^2 w; o = 2 u;
        b = (1 - a) u_prev; o = o - b; o = o + w; o = o / (1 + a)`` with
        ``a = alpha dt / 2`` (``0.0 - Ku`` without a force) — so every
        dof sees exactly the operations of the whole-array expression,
        and column j of an ``rhs > 1`` run is the ``rhs=1`` run of that
        column bit for bit.  A non-contiguous or non-float64 input is
        copied once first.  ``max_displacement`` is exact (NaN when the
        state has one); ``kinetic_proxy`` is summed in the pass's own
        order, so its last bits are not pinned.  Without the library the
        same arithmetic runs as numpy ufuncs over cache-sized row blocks,
        giving the same state.

        Nothing of ``(u, u_prev, step_index)`` changes until the new
        state has passed every check: a step that raises — a malformed
        force, a faulting operator, ``check_finite``, ``guard_growth``
        — leaves the stepper as it was, and can be retried.
        """
        f = self._checked_force(force)
        u, u_prev = self.u, self.u_prev
        nxt = self._free_spare()
        # One SMVP, into the stepper's product buffer when the operator
        # is an executor (a plain callable returns its own array).
        multiply = getattr(self._smvp, "multiply", None)
        ku = self._smvp(u) if multiply is None else multiply(u, out=self._ku)
        for name, a in (("u", u), ("u_prev", u_prev), ("K u", ku)):
            if np.shape(a) != self._shape:
                raise ValueError(
                    f"{name} has shape {np.shape(a)}; expected {self._shape}"
                )
        library = timestep_library()
        if library is None:
            peak, kinetic = self._update_blocks(f, ku, u, u_prev, nxt)
        else:
            peak, kinetic = self._update_compiled(
                *library, f, ku, u, u_prev, nxt
            )

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
            kinetic_proxy=kinetic / (self.dt * self.dt),
        )

    def _update_compiled(
        self, ffi: Any, lib: Any, f, ku, u, u_prev, nxt
    ) -> Tuple[float, float]:
        """The new state into ``nxt`` by the compiled pass; returns
        ``(peak, kinetic sum)``."""
        n, r = self._shape[0], self.rhs
        if f is None:
            f, f_row, f_col = _NO_FORCE, 0, 0
        elif f.ndim < len(self._shape):  # one forcing for every column
            f, f_row, f_col = _c_float64(f), 1, 0
        else:
            f, f_row, f_col = _c_float64(f), r, 1
        # inv_mass and damping_alpha are the constructor's own
        # contiguous arrays, of length 3n (alpha: or a 0-d scalar).
        alpha = self.damping_alpha
        diag = np.empty(2)
        buf = ffi.from_buffer
        lib.timestep_update(
            n, r, buf("double[]", f), f_row, f_col,
            buf("double[]", _c_float64(ku)),
            buf("double[]", _c_float64(u)),
            buf("double[]", _c_float64(u_prev)),
            buf("double[]", self.inv_mass),
            buf("double[]", alpha), alpha.ndim, self.dt,
            buf("double[]", nxt), buf("double[]", diag),
        )
        return float(diag[0]), float(diag[1])

    def _update_blocks(self, f, ku, u, u_prev, nxt) -> Tuple[float, float]:
        """The same update as numpy ufuncs over row blocks of
        ``_BLOCK_ELEMENTS``, where the compiled pass is unavailable."""
        dt = self.dt
        per_dof = (slice(None), None) if self.rhs > 1 else slice(None)
        if f is not None and f.ndim < len(self._shape):
            f = f[:, None]
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
        return float(np.max(peaks)), float(kinetic)

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
            step (seismograms); checked before the first step — an id
            that is negative, not below ``num_nodes`` or not a whole
            number is a ``ValueError``.
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
        dof, seis = None, None
        if record_nodes is not None:
            dof = self._record_dofs(record_nodes)
            shape = (num_steps, len(dof) // 3, 3) + self._shape[1:]
            seis = np.zeros(shape)
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
            for k in range(num_steps):
                force = force_at(self.time) if force_at is not None else None
                rec = self.step(force)
                records.append(rec)
                if seis is not None:
                    seis[k] = self.u[dof].reshape(seis.shape[1:])
                if checkpoint is not None:
                    checkpoint.maybe_save(self)
            return records, seis
        finally:
            if trace_sink is not None:
                self._smvp.trace_sink = previous_sink

    def _record_dofs(self, record_nodes) -> np.ndarray:
        """The state rows of each recorded node's three dofs, node by
        node; a ``ValueError`` naming every id that is not an integer
        in ``[0, num_nodes)``."""
        ids = np.asarray(record_nodes)
        if ids.ndim != 1 or ids.dtype.kind not in "iuf":
            raise ValueError("record_nodes must be a 1-D array of node ids")
        num_nodes = self._shape[0] // 3
        # Written so that NaN fails it.
        ok = (ids >= 0) & (ids < num_nodes) & (ids == np.floor(ids))
        if not ok.all():
            raise ValueError(
                f"record_nodes {ids[~ok].tolist()} are not node ids: "
                f"integers in [0, {num_nodes})"
            )
        ids = ids.astype(np.int64)
        return (3 * ids[:, None] + np.arange(3)).ravel()
