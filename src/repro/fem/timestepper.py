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
array: the state rotates through three buffers the stepper owns, and
the update is one compiled pass (``timestep.c``, in the native library
of :mod:`repro.util.native`) that reads each input once per entry and
returns the step's diagnostics with the state (see
:meth:`ExplicitTimeStepper.step`).

**One time loop, one state form.**  Each of the three state buffers is
a :class:`~repro.smvp.layout.SlicedBuffer` over the bound operator's
layout for the whole run, as Quake keeps its vectors on their PEs.  A
distributed executor, guarded or not, brings its own layout (it offers
:meth:`~repro.smvp.executor.DistributedSMVP.multiply_resident`); a
matrix or a plain callable ``x -> K x`` is wrapped once, when it is
bound, as an operator over a private one-slice layout whose every row
is its own owner.  A step is the same body either way: the product
(compute → exchange; or the callable on the whole state) → the update,
run on every dof's owner row → each owner row copied over the dof's
other copies (nothing to copy on one slice).  No global ``u`` or
``K u`` is built for an executor, and the state, ``max displacement``
and ``kinetic_proxy`` are bit for bit the same over an executor and
over the same executor behind a plain callable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.faults.detection import check_finite as _check_finite
from repro.faults.errors import NumericalFaultError
from repro.fem.element import min_edge_time
from repro.fem.material import ElementMaterials
from repro.mesh.core import TetMesh
from repro.smvp.layout import SlicedBuffer
from repro.util.native import native

#: What the compiled pass reads as "no force": one 0.0 at stride 0.
_NO_FORCE = np.zeros(1)


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
    explicit-dynamics bound for linear tets (one compiled pass,
    :func:`repro.fem.element.min_edge_time`).  Raises ``ValueError``
    naming the first element with a non-finite coordinate.
    """
    materials.check_covers(mesh)
    if not 0 < safety <= 1:
        raise ValueError("safety must be in (0, 1]")
    return float(safety * min_edge_time(mesh, materials.vp()))


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


class _OneSlice:
    """The layout a matrix or a plain callable runs on: one slice of
    all ``n`` rows, each row its dof's owner, so the owner-row copy has
    nothing to do and gather / scatter are plain copies."""

    def __init__(self, n: int) -> None:
        self.offsets = np.array([0, n], dtype=np.int64)
        self.owner_pos = np.arange(n, dtype=np.int64)
        self.offsets.flags.writeable = self.owner_pos.flags.writeable = False

    def copy_from_owners(self, whole: np.ndarray) -> None:
        """Every row is an owner row: nothing to copy."""

    def gather(self, buffer: np.ndarray, out: np.ndarray) -> np.ndarray:
        np.copyto(out, buffer)
        return out

    def scatter_into(self, x: np.ndarray, whole: np.ndarray) -> np.ndarray:
        np.copyto(whole, x)
        return whole


class _OnOneSlice:
    """A matrix product or a plain callable ``x -> K x`` as an operator
    over a :class:`_OneSlice` layout: the product of the whole state."""

    def __init__(self, product, layout: _OneSlice, shape) -> None:
        self.product, self.layout, self.shape = product, layout, shape

    def multiply_resident(self, x: SlicedBuffer) -> np.ndarray:
        ku = self.product(x.whole)
        if np.shape(ku) != self.shape:
            raise ValueError(
                f"K u has shape {np.shape(ku)}; expected {self.shape}"
            )
        return ku


class ExplicitTimeStepper:
    """Central-difference integrator with lumped mass.

    Parameters
    ----------
    stiffness:
        Global (or local) sparse stiffness matrix, 3n x 3n.  May be
        ``None`` when an ``smvp`` is given: the size is then the mass
        vector's, and nothing reads a matrix.
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
        solver and the parallel SMVP machinery).  An operator offering
        ``layout`` and ``multiply_resident``, as an executor does,
        keeps the state in its layout's buffer form; any other callable
        ``x -> K x`` runs on a one-slice layout (see the module
        docstring).  An operator whose layout does not have the mass
        vector's 3n dofs is a ``ValueError`` naming both counts.
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

    State
    -----
    The stepper owns the state: three buffers over the bound operator's
    layout that rotate — a step writes the new state into the spare,
    which becomes ``u``; ``u`` becomes ``u_prev``; the old ``u_prev``
    becomes the spare.  ``.u`` and ``.u_prev`` are read-only, and valid
    until the next step or the next assignment or :meth:`set_state`: on
    a multi-PE layout they are copies gathered from the owner rows at
    every read; on the one-slice layout of a matrix or a plain callable
    they are views of the buffers, which a step overwrites after the
    next and a load overwrites at once.  ``.copy()`` whatever must
    outlive them (seismograms, snapshots, checkpoints).  Assigning
    ``.u`` or ``.u_prev``, like :meth:`set_state`, copies the value into
    the buffers; only :meth:`set_state` loads both from views of this
    stepper's state safely (``s.u, s.u_prev = s.u_prev, s.u`` swaps
    over an executor but leaves both the old ``u_prev`` on one slice,
    whose ``u`` view the first assignment overwrote).
    :meth:`rebind_smvp` moves the state only when the new operator's
    layout is not the old one's.
    """

    def __init__(
        self,
        stiffness: Optional["scipy.sparse.spmatrix"],
        mass: np.ndarray,
        dt: float,
        damping_alpha=0.0,
        smvp: Optional[Callable[[np.ndarray], np.ndarray]] = None,
        check_finite: bool = False,
        guard_growth: Optional[float] = None,
        rhs: int = 1,
    ) -> None:
        mass = np.asarray(mass, dtype=np.float64)
        if stiffness is None:
            if smvp is None:
                raise ValueError("a stiffness matrix is needed without an smvp")
            n = mass.size
        elif stiffness.shape[0] != stiffness.shape[1]:
            raise ValueError("stiffness must be square")
        else:
            n = stiffness.shape[0]
        if n == 0:
            raise ValueError("the system has no degrees of freedom")
        if mass.shape != (n,):
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
        if damping.ndim == 1 and damping.shape != (n,):
            raise ValueError("damping vector length must be 3n")
        if not np.all(damping >= 0):
            raise ValueError("damping must be non-negative")
        if not np.all(np.isfinite(damping)):
            raise ValueError("damping must be finite")
        self.damping_alpha = damping
        self.check_finite = bool(check_finite)
        if guard_growth is not None and guard_growth <= 1.0:
            raise ValueError("guard_growth must exceed 1.0")
        self.guard_growth = guard_growth
        if rhs < 1:
            raise ValueError("rhs must be >= 1")
        self.rhs = int(rhs)
        self._shape = (n, self.rhs) if self.rhs > 1 else (n,)
        self.step_index = 0
        # The one-slice layout of every matrix or callable bound, made
        # on the first such bind; the state's layout, set by _bind.
        self._one_slice: Optional[_OneSlice] = None
        self._layout = None
        rest = np.zeros(self._shape)
        self._bind(
            smvp if smvp is not None else (lambda x: self.stiffness @ x),
            (rest, rest),
        )

    @property
    def time(self) -> float:
        return self.step_index * self.dt

    @property
    def u(self) -> np.ndarray:
        """The displacement (see "State")."""
        return self._public(self._u)

    @u.setter
    def u(self, value: np.ndarray) -> None:
        self._load(self._u, value)

    @property
    def u_prev(self) -> np.ndarray:
        """The previous step's displacement (see "State")."""
        return self._public(self._u_prev)

    @u_prev.setter
    def u_prev(self, value: np.ndarray) -> None:
        self._load(self._u_prev, value)

    def _public(self, state: SlicedBuffer) -> np.ndarray:
        """``state`` as callers see it, read-only: the one slice's
        read-only view, or a gathered copy of the owner rows."""
        if isinstance(self._layout, _OneSlice):
            return state.frozen[0]
        out = self._gathered(state)
        out.flags.writeable = False
        return out

    def _gathered(self, state: SlicedBuffer) -> np.ndarray:
        """A fresh array of ``state``'s global values."""
        return self._layout.gather(state.whole, np.empty(self._shape))

    def _load(self, state: SlicedBuffer, value: np.ndarray) -> None:
        """Copy ``value``, a global state, into every row of ``state``."""
        value = np.asarray(value, dtype=np.float64)
        if value.shape != self._shape:
            raise ValueError(
                f"state has shape {value.shape}; expected {self._shape}"
            )
        self._layout.scatter_into(value, state.whole)

    def _bind(self, smvp, state=None) -> None:
        """Bind ``smvp`` (a matrix or a callable wrapped over the
        one-slice layout); move the state, ``state`` (global ``(u,
        u_prev)``) or else the current one, onto its layout when that
        is not the state's.  Nothing changes when the layout's dof count
        is not the stepper's."""
        if hasattr(smvp, "multiply_resident"):
            operator = smvp
        else:
            if self._one_slice is None:
                self._one_slice = _OneSlice(self._shape[0])
            operator = _OnOneSlice(smvp, self._one_slice, self._shape)
        layout = operator.layout
        if layout.owner_pos.size != self._shape[0]:
            raise ValueError(
                f"the SMVP has {layout.owner_pos.size} dofs; the stepper "
                f"has {self._shape[0]} (the mass vector's length)"
            )
        if layout is not self._layout:
            if state is None:
                state = self._gathered(self._u), self._gathered(self._u_prev)
            tail = self._shape[1:]
            u, u_prev, spare = (
                SlicedBuffer(layout.offsets, tail) for _ in range(3)
            )
            layout.scatter_into(state[0], u.whole)
            layout.scatter_into(state[1], u_prev.whole)
            self._u, self._u_prev, self._spare = u, u_prev, spare
            self._layout = layout
        self._smvp, self._operator = smvp, operator

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
        bit-consistently.  The state moves only when the new operator's
        layout is not the old one's (executor ↔ one slice, or P → P-1):
        rebinding the same executor, or one callable for another, costs
        nothing.  An operator of another dof count is a ``ValueError``
        that leaves the operator, the layout and the state as they were.
        """
        self._bind(smvp)

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
        if np.may_share_memory(u_prev, self._u.whole):
            u_prev = u_prev.copy()  # the first load below would clobber it
        self._load(self._u, u)
        self._load(self._u_prev, u_prev)
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

    def step(self, force: Optional[np.ndarray] = None) -> StepRecord:
        """Advance one time step; returns diagnostics.

        With ``rhs > 1`` a 1-D ``force`` broadcasts to every scenario
        column; a (3n, rhs) force drives each column independently.
        Any other shape is a ``ValueError``.

        The step is the operator's product of ``u`` (an executor's
        superstep body, or the one-slice product) → the new state into
        the spare buffer by one compiled pass (``timestep_update``) →
        the layout's owner-row copy.  The pass reads ``f``, ``Ku``,
        ``u``, ``u_prev``, ``M^-1`` and ``alpha`` once per entry — ``Ku``,
        ``u`` and ``u_prev`` at every dof's owner row, writing the new
        state there, ``f``, ``M^-1`` and ``alpha`` at the dof — with the
        arithmetic of the formula in the module docstring in a fixed
        order — ``w = f - Ku; w = M^-1 w; w = dt^2 w; o = 2 u;
        b = (1 - a) u_prev; o = o - b; o = o + w; o = o / (1 + a)`` with
        ``a = alpha dt / 2`` (``0.0 - Ku`` without a force) — so every
        dof sees exactly the operations of the whole-array expression,
        and column j of an ``rhs > 1`` run is the ``rhs=1`` run of that
        column bit for bit.  A non-contiguous or non-float64 input is
        copied once first.  ``max_displacement`` is exact (NaN when the
        state has one); ``kinetic_proxy`` is summed in the pass's own
        order, so its last bits are not pinned.

        Nothing of ``(u, u_prev, step_index)`` changes until the new
        state has passed every check: a step that raises — a malformed
        force, a faulting operator, ``check_finite``, ``guard_growth``
        — leaves the stepper as it was, and can be retried.
        """
        f = self._checked_force(force)
        layout, u, u_prev, nxt = self._layout, self._u, self._u_prev, self._spare
        ku = self._operator.multiply_resident(u)
        peak, kinetic = self._update(
            f, ku, u.whole, u_prev.whole, nxt.whole, layout.owner_pos
        )
        layout.copy_from_owners(nxt.whole)

        step = self.step_index + 1
        if self.check_finite and not math.isfinite(peak):
            _check_finite(
                self._gathered(nxt),
                f"displacement at step {step}",
                step=step,
                phase="timestep",
            )
        if self.guard_growth is not None:
            prev_peak = max(_peak(u.whole), _peak(u_prev.whole))
            if prev_peak > 0.0 and peak > self.guard_growth * prev_peak:
                raise NumericalFaultError(
                    f"displacement grew {peak / prev_peak:.1f}x in one "
                    f"step (bound {self.guard_growth:.1f}x) — likely an "
                    "escaped corruption",
                    step=step,
                    phase="timestep",
                )
        self._u_prev, self._u, self._spare = u, nxt, u_prev
        self.step_index = step
        return StepRecord(
            step=step,
            time=self.time,
            max_displacement=peak,
            kinetic_proxy=kinetic / (self.dt * self.dt),
        )

    def _update(self, f, ku, u, u_prev, nxt, pos) -> Tuple[float, float]:
        """The new state into ``nxt`` by the compiled pass; returns
        ``(peak, kinetic sum)``.  ``ku``, ``u``, ``u_prev`` and ``nxt``
        are read and written at row ``pos[d]`` (every dof's owner row),
        the rest at ``d``."""
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
        ffi, lib = native()
        buf = ffi.from_buffer
        lib.timestep_update(
            n, r, buf("double[]", f), f_row, f_col,
            buf("double[]", _c_float64(ku)),
            buf("double[]", _c_float64(u)),
            buf("double[]", _c_float64(u_prev)),
            buf("double[]", self.inv_mass),
            buf("double[]", alpha), alpha.ndim, self.dt,
            buf("double[]", nxt), buf("double[]", diag),
            buf("int64_t[]", pos),
        )
        return float(diag[0]), float(diag[1])

    def _update_numpy(self, f, ku, u, u_prev, nxt, pos):
        """:meth:`_update`'s specification: the same operations in the
        same order as whole-array numpy ufuncs, so the state bits are the
        pass's (``kinetic`` is summed in numpy's order).  No step calls
        it; the tests run the stepper on it in place of the pass."""
        ku, u, u_prev = ku[pos], u[pos], u_prev[pos]
        per_dof = (slice(None), None) if self.rhs > 1 else slice(None)
        if f is not None and f.ndim < len(self._shape):
            f = f[:, None]
        alpha, dt = self.damping_alpha, self.dt
        half = 0.5 * (alpha[per_dof] if alpha.ndim else alpha) * dt
        w = (0.0 if f is None else f) - ku
        w = self.inv_mass[per_dof] * w
        w = (dt * dt) * w
        o = 2.0 * u
        o = o - (1.0 - half) * u_prev
        o = o + w
        o = o / (1.0 + half)
        nxt[pos] = o
        d = o - u
        return _peak(o), float((d * d).sum())

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
            dof, seis = self.recorder(num_steps, record_nodes)
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
                    seis[k] = self.state_rows(dof)[0].reshape(seis.shape[1:])
                if checkpoint is not None:
                    checkpoint.maybe_save(self)
            return records, seis
        finally:
            if trace_sink is not None:
                self._smvp.trace_sink = previous_sink

    def state_rows(self, dof: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Rows ``dof`` (an integer array) of ``u`` and of ``u_prev``,
        as new arrays read from their owner rows, so nothing is gathered
        whole."""
        rows = self._layout.owner_pos[dof]
        return self._u.whole[rows], self._u_prev.whole[rows]

    def recorder(
        self, num_steps: int, record_nodes
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(dof, seismograms)`` for recording ``record_nodes`` over
        ``num_steps`` steps: the state rows of each node's three dofs,
        node by node, for :meth:`state_rows`, and the zeroed
        seismograms :meth:`run` returns, one row per step.  A
        ``ValueError`` names every id that is not an integer in
        ``[0, num_nodes)``."""
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
        dof = (3 * ids[:, None] + np.arange(3)).ravel()
        return dof, np.zeros((num_steps, len(ids), 3) + self._shape[1:])
