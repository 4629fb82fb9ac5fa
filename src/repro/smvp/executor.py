"""The distributed SMVP executor.

This is a faithful in-process execution of the paper's parallel SMVP
(Section 2.3): each PE holds a local stiffness matrix assembled from
its own elements over its own (replicated-shared) node set, computes a
local product, and then exchanges-and-sums partial y values with every
PE it shares nodes with.  The result is directly comparable to the
global product — tests assert the distributed product equals the
global sparse product to floating-point tolerance.

The paper's SMVP is *one* bulk-synchronous superstep, and so is this
module's: :meth:`DistributedSMVP.multiply` is the only code that
sequences scatter → compute → exchange → gather, over the per-PE-sliced
buffers and flat index maps of :mod:`repro.smvp.layout`.  The layers it
integrates are each swappable on their own:

* **kernel** (:mod:`repro.smvp.kernels`) — the local product, ``csr``:
  ``prepare`` once at setup, ``product`` per PE per compute phase.
* **backend** (:mod:`repro.smvp.backends`) — where a compute phase's
  list of per-PE ``kernel.product`` calls runs (``backend.map``):
  ``serial`` (historical semantics, bit-identical) or ``threaded``
  (thread pool; the local products release the GIL).  ``overlap`` is
  ``serial`` under an older name.
* **exchange** (:mod:`repro.smvp.exchange`) — the pairwise
  exchange-and-sum: the pair table compiled into one flat reduction
  plan over the whole buffer; whoever needs individual messages (the
  fault protocol from :mod:`repro.faults`, ``wire`` spans, the checking
  observers) reads them as segments of that plan.
* **observers** — SDC injection / ABFT (:mod:`repro.smvp.abft`) and
  the race sanitizer (:mod:`repro.analysis.sanitizer`) hook into the
  pipeline at fixed points; :class:`~repro.smvp.trace.PhaseClock`
  turns its clock marks into the per-superstep trace.

The executor doubles as the ground truth for the performance model:
its per-PE flop counts and the communication schedule's word/block
counts are exactly the F, C_i, and B_i the model consumes.
"""

from __future__ import annotations

from functools import partial
from typing import List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from repro.analysis.contracts import (
    check_csr_contract,
    check_schedule_contract,
)
from repro.analysis.sanitizer import SuperstepSanitizer, sanitizer_enabled
from repro.faults.detection import FaultStats
from repro.faults.injector import FaultInjector
from repro.fem.assembly import assemble_subdomain_stiffness
from repro.fem.material import ElementMaterials
from repro.mesh.core import TetMesh
from repro.partition.base import Partition
from repro.profile.spans import SpanRecorder
from repro.smvp.abft import SdcEvent, SdcGuard
from repro.smvp.backends import make_backend
from repro.smvp.distribution import (
    DataDistribution,
    redistribute_after_addition,
    redistribute_after_eviction,
)
from repro.smvp.exchange import Exchange, ExchangeRecord, FaultMiddleware
from repro.smvp.kernels import get_kernel
from repro.smvp.layout import SuperstepLayout
from repro.smvp.schedule import CommSchedule
from repro.smvp.trace import PhaseClock, TraceSink
from repro.telemetry.registry import count, record_executor_setup
from repro.util.clock import now

__all__ = ["DistributedSMVP", "ExchangeRecord"]


class DistributedSMVP:
    """A p-PE distributed ``y = K x`` over a partitioned mesh.

    **One superstep.**  :meth:`multiply` runs scatter → compute →
    exchange → gather for every flag combination.  Checking observers
    are called at its fixed hook points (begin, after scatter / compute
    / exchange / gather, end), each handed the per-PE arrays and
    allowed to replace one.  The observer tuple is built once, here, in
    a fixed order: the SDC/ABFT guard, then the sanitizer; the phase
    clock wraps both (it closes a phase's window before they run and a
    ``verify`` window after) and is live only while a ``trace_sink`` is
    attached.  With no observer and no sink no hook is called at all.

    **One buffer, one plan.**  Scatter is one take into the layout's
    x buffer, each PE's product is written into its slice of the y
    buffer, the exchange is the layout's compiled plan (a snapshot take
    and a few vectorised rounds) and gather one take — no Python
    iteration over pairs or blocks.  An attached injector, profiler or
    checking observer reads the same plan's messages as segments of its
    snapshot (fault middleware, ``wire`` spans, ``after_exchange``);
    nothing else changes.  Same slices, same summation order, same
    bits.

    A compute phase is ``backend.map`` of ``kernel.product`` over
    per-PE (state, x slice, y slice); the states are the ones this
    executor's own ``backend.setup`` call prepared, so a backend
    instance shared with another executor never lends it that one's
    matrices.  No superstep starts a thread of its own.  The paper's
    comm/comp overlap (footnote 1) is a model here, not a schedule:
    the BSP simulator's ``overlap`` mode.

    Parameters
    ----------
    mesh, partition, materials:
        The global problem.
    kernel:
        The local kernel: ``"csr"`` (:func:`~repro.smvp.kernels.get_kernel`)
        or a :class:`~repro.smvp.kernels.Kernel` instance.
    injector:
        Optional :class:`~repro.faults.FaultInjector`.  When enabled,
        the exchange phase runs through the checksummed, retransmitting
        :class:`~repro.smvp.exchange.FaultMiddleware`: injected
        drops/corruptions are detected (timeout / CRC mismatch) and
        recovered by resending from the sender's partial, duplicates
        are delivered once, and the per-exchange ``FaultStats`` are
        attached to the :class:`ExchangeRecord`.  The middleware
        transmits each message's segment of the plan's snapshot and
        writes what arrived back into it, so the rounds sum exactly the
        delivered payloads — bit for bit the fault-free sums.
    backend:
        Execution-backend name (``serial`` / ``threaded``; ``overlap``
        is ``serial`` under an older name) or an
        :class:`~repro.smvp.backends.ExecutionBackend` instance.  The
        backend decides where the compute phase's per-PE products run;
        results are bit-identical across backends.
    trace_sink:
        Optional callable receiving a
        :class:`~repro.smvp.trace.SuperstepTrace` after every
        ``multiply`` (per-phase wall times, per-PE traffic, fault
        stats).  ``None`` (default) keeps the hot path clock-free.
    abft:
        Enable algorithm-based fault tolerance (see
        :class:`repro.smvp.abft.SdcGuard`): every ``multiply`` verifies
        each PE's input vector (exact CRC against the scatter
        snapshot), local product (checksum row ``w_i = 1ᵀK_i``), and
        post-exchange partial (incoming-payload sum) in O(n_i) per PE,
        heals inline by recomputation, and raises
        :class:`~repro.faults.SdcFaultError` blaming a specific PE and
        phase when inline recovery is exhausted (a sticky fault).  The
        guard is also attached, check-less, when the injector has SDC
        fault modes configured.
    pe_ids:
        Physical identity of each PE slot (default ``0..P-1``).  The
        SDC injector keys its draws on *physical* ids, so a sticky
        "bad core" follows the same hardware through post-eviction
        renumbering instead of silently migrating to an innocent
        survivor.
    sanitizer:
        Attach the superstep race sanitizer
        (:mod:`repro.analysis.sanitizer`): every phase runs on tracked
        views and the recorded access sets are checked against the
        ownership map and exchange schedule.  ``None`` (default) defers
        to the ``REPRO_SAN=1`` environment opt-in; the instance is
        readable as ``.sanitizer``.
    profile:
        Record per-PE / per-message spans (see :mod:`repro.profile`)
        on every *traced* multiply and attach them to the emitted
        :class:`~repro.smvp.trace.SuperstepTrace` as ``pe_spans``.
        Spans are only recorded when a trace sink is attached at call
        time, so ``profile=True`` with no sink — and the default
        ``profile=False`` everywhere — keeps the hot path clock-free
        and bit-identical.
    """

    def __init__(
        self,
        mesh: TetMesh,
        partition: Partition,
        materials: ElementMaterials,
        kernel: str = "csr",
        injector: Optional[FaultInjector] = None,
        backend: str = "serial",
        trace_sink: Optional[TraceSink] = None,
        abft: bool = False,
        pe_ids: Optional[Sequence[int]] = None,
        sanitizer: Optional[bool] = None,
        profile: bool = False,
    ) -> None:
        self.kernel = get_kernel(kernel) if isinstance(kernel, str) else kernel
        self.kernel_name = self.kernel.name
        self.backend = make_backend(backend)
        self.backend_name = self.backend.name
        self.injector = injector
        self.trace_sink = trace_sink
        self.profile = bool(profile)
        # Recorder of the in-flight profiled multiply; None otherwise.
        self._live_rec: Optional[SpanRecorder] = None
        self._superstep = 0  # exchange counter; keys the fault streams
        self._quarantined: frozenset = frozenset()
        self.mesh = mesh
        self.partition = partition
        self.materials = materials
        self.distribution = DataDistribution(mesh, partition)
        self.schedule = CommSchedule(self.distribution)

        # Index maps every phase runs on: scatter rows, the schedule's
        # pair table, gather maps.
        self.layout = SuperstepLayout(self.schedule)
        self.local_nodes = self.layout.local_nodes
        self.local_matrices: List[sp.spmatrix] = []
        for part, nodes in enumerate(self.local_nodes):
            local_k = assemble_subdomain_stiffness(
                mesh,
                materials,
                self.distribution.local_elements(part),
                nodes,
            )
            check_csr_contract(local_k, context=f"PE {part} local stiffness")
            self.local_matrices.append(local_k)
        check_schedule_contract(self.schedule, self.distribution)

        # This executor's prepared states, kept here: the backend's own
        # ``states`` is rebound by the next executor it is set up for.
        self._states = self.backend.setup(self.kernel, self.local_matrices)

        if pe_ids is None:
            pe_ids = range(partition.num_parts)
        self.pe_ids = np.asarray(list(pe_ids), dtype=np.int64)
        if self.pe_ids.shape != (partition.num_parts,):
            raise ValueError(
                f"pe_ids must have one entry per PE "
                f"({partition.num_parts}), got {self.pe_ids.shape}"
            )
        # Cumulative transport (in-flight) fault tally across exchanges;
        # shared with reconfiguration successors.
        self.transport_stats = FaultStats()
        record_executor_setup(
            self.kernel_name, self.backend_name, self.schedule
        )

        # -- observers, in their fixed order (see the class docstring) --
        self.abft_enabled = bool(abft)
        self._guard = SdcGuard(
            self.local_matrices,
            self.pe_ids,
            self.layout.dof_rows,
            injector,
            self.abft_enabled,
            self._recompute,
        )
        # Superstep sanitizer (REPRO_SAN=1, or sanitizer=True): checks
        # every multiply's access sets against the ownership map and
        # exchange schedule.
        self.sanitizer: Optional[SuperstepSanitizer] = None
        if sanitizer_enabled() if sanitizer is None else sanitizer:
            self.sanitizer = SuperstepSanitizer.for_layout(self.layout)
        candidates = (self._guard if self._guard.active else None, self.sanitizer)
        self._checkers = tuple(o for o in candidates if o is not None)
        self._clock = PhaseClock(
            self.kernel_name, self.backend_name, profile=self.profile
        )

    @property
    def num_parts(self) -> int:
        return self.partition.num_parts

    @property
    def sdc_stats(self) -> FaultStats:
        """Cumulative SDC tally (shared across reconfigurations)."""
        return self._guard.stats

    @property
    def sdc_events(self) -> List[SdcEvent]:
        """Every SDC lifecycle event so far, for blame reporting."""
        return self._guard.events

    def close(self) -> None:
        """Release backend resources (the thread pool)."""
        self.backend.close()

    def __enter__(self) -> "DistributedSMVP":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def reset_superstep(self, step: int = 0) -> None:
        """Rewind the exchange counter (reproducible fault histories)."""
        self._superstep = step

    # -- resilience hooks --------------------------------------------------

    @property
    def quarantined(self) -> frozenset:
        """PEs whose links are currently circuit-broken."""
        return self._quarantined

    def quarantine(self, pe: int) -> None:
        """Circuit-break one PE's links: its exchange blocks take the
        verified slow path (no fault draws) from the next superstep on.

        Numerically a no-op — the same clean payloads are summed in the
        same order — so quarantine never perturbs the bit-level result.
        """
        if not 0 <= pe < self.num_parts:
            raise ValueError(f"PE {pe} out of range")
        self._quarantined = self._quarantined | {pe}

    def unquarantine(self, pe: int) -> None:
        """Restore a quarantined PE's links to the normal wire."""
        self._quarantined = self._quarantined - {pe}

    def _successor(
        self, partition: Partition, pe_ids, quarantined: frozenset, **event
    ) -> "DistributedSMVP":
        """The executor that continues this run on a new partition.

        Keeps this one's kernel, backend kind, injector, trace sink and
        flags; inherits the superstep counter (the fault history keeps
        evolving, not restarting) and — shared, not copied — the
        transport tally, the SDC history and the sanitizer's run-level
        report (the new sanitizer is freshly bound to the *new*
        ownership map, rebuilt atomically with the distribution).
        """
        new = DistributedSMVP(
            self.mesh,
            partition,
            self.materials,
            kernel=self.kernel,
            injector=self.injector,
            backend=self.backend_name,
            trace_sink=self.trace_sink,
            abft=self.abft_enabled,
            pe_ids=pe_ids,
            sanitizer=self.sanitizer is not None,
            profile=self.profile,
        )
        new._superstep = self._superstep
        new._quarantined = quarantined
        if self.sanitizer is not None:
            new.sanitizer.adopt(self.sanitizer)
        new._guard.adopt(self._guard)
        new.transport_stats = self.transport_stats
        count("repro_smvp_reconfigurations_total", **event)
        return new

    def reconfigure_without(self, dead_pe: int):
        """Build the P-1 executor that continues after ``dead_pe`` dies.

        Redistributes the dead PE's elements onto the survivors
        (:func:`~repro.smvp.distribution.redistribute_after_eviction`),
        reassembles local matrices, and rebuilds the schedule, exchange
        pairs, and gather maps for the compacted ``0 .. P-2`` numbering.
        The quarantine set carries over remapped through the survivor
        map; see :meth:`_successor` for what else is inherited.

        Returns ``(new_executor, redistribution)``; the caller owns
        closing both executors.
        """
        new_partition, redistribution = redistribute_after_eviction(
            self.mesh, self.partition, dead_pe
        )
        survivors = redistribution.survivor_map
        survivor_ids = np.empty(new_partition.num_parts, dtype=np.int64)
        for old_slot, new_slot in survivors.items():
            survivor_ids[new_slot] = self.pe_ids[old_slot]
        quarantined = frozenset(
            survivors[pe] for pe in self._quarantined if pe in survivors
        )
        new = self._successor(
            new_partition, survivor_ids, quarantined, dead_pe=dead_pe
        )
        return new, redistribution

    def reconfigure_with(
        self, physical_id: Optional[int] = None, target_size=None
    ):
        """Build the P+1 executor that continues after adding one PE.

        The mirror of :meth:`reconfigure_without`: a fresh region is
        peeled off the heaviest donors in BFS-affinity waves
        (:func:`~repro.smvp.distribution.redistribute_after_addition`),
        local matrices are reassembled, and the schedule, exchange
        pairs, and gather maps are rebuilt for ``0 .. P`` — existing
        PE ids are stable, so the quarantine set carries over
        unchanged and the new PE joins unquarantined.  The new slot's
        *physical* id defaults to one past the largest live id (fault
        streams key on physical ids, so fresh hardware gets a fresh
        fault history); pass an evicted PE's physical id to re-admit
        that hardware, history and all.  The state vectors need no
        splicing: growth loses no rows, every dof the new layout
        scatters is already present in the global ``(u, u_prev)``.

        Returns ``(new_executor, redistribution)``; the caller owns
        closing both executors.
        """
        new_partition, redistribution = redistribute_after_addition(
            self.mesh, self.partition, target_size=target_size
        )
        if physical_id is None:
            physical_id = int(self.pe_ids.max()) + 1
        new = self._successor(
            new_partition,
            np.append(self.pe_ids, np.int64(physical_id)),
            self._quarantined,
            new_pe=redistribution.new_pe,
        )
        return new, redistribution

    def flops_per_pe(self) -> np.ndarray:
        """Actual F_i = 2 * nnz of each PE's local matrix."""
        return np.array([2 * k.nnz for k in self.local_matrices], dtype=np.int64)

    # -- phases -----------------------------------------------------------

    def scatter(self, x_global: np.ndarray) -> List[np.ndarray]:
        """Distribute a global vector (3n,) — or an n x r block of
        right-hand sides (3n, r) — to per-PE local arrays.

        The arrays returned by this and by :meth:`compute_phase` are
        the per-PE slices of the layout's persistent buffers: valid
        until the next call of the same method (or the next
        :meth:`multiply`), which overwrites them in place.
        """
        return self.layout.scatter(self.layout.check_x(x_global))

    def compute_phase(self, x_locals: List[np.ndarray]) -> List[np.ndarray]:
        """Local SMVPs on every PE (the computation phase), each
        written into its PE's slice of the layout's y buffer."""
        count("repro_backend_compute_phases_total", backend=self.backend_name)
        tail = x_locals[0].shape[1:] if x_locals else ()
        outs = self.layout.product_slices(tail)
        states = self._states
        if self._live_rec is None:
            return self.backend.map(self.kernel.product, states, x_locals, outs)
        # A profiled multiply wants a ``compute`` span around each product.
        return self.backend.map(
            partial(self._spanned, "compute"),
            range(len(states)),
            states,
            x_locals,
            outs,
        )

    def _spanned(
        self, kind: str, pe: int, state, x: np.ndarray, out=None
    ) -> np.ndarray:
        """One PE's ``kernel.product(state, x, out)`` — inside a
        ``kind`` span for ``pe`` when a profiled multiply is in flight
        (the clock is read in whichever thread runs the call, so a
        concurrent backend's spans genuinely overlap)."""
        rec = self._live_rec
        if rec is None:
            return self.kernel.product(state, x, out)
        return rec.timed(kind, pe, self.kernel.product, state, x, out)

    def _recompute(self, pe: int, x: np.ndarray) -> np.ndarray:
        """One PE's local product again, vector or block (ABFT healing)
        — same prepared state, same kernel code, so it heals a transient
        corruption exactly; its ``recovery`` span keeps healing time out
        of the surrounding verify window's bucket."""
        return self._spanned("recovery", pe, self._states[pe], x)

    def _open_exchange(
        self, buffer: np.ndarray, step: Optional[int] = None
    ) -> Exchange:
        """Start one exchange over ``buffer``, the whole y buffer.

        The one place the superstep counter advances: a multiply that
        fails before its exchange starts leaves it untouched, one that
        fails during or after leaves it advanced, on every backend.
        """
        if step is None:
            step = self._superstep
        self._superstep = step + 1
        injector = self.injector
        middleware = (
            FaultMiddleware(injector, self._quarantined)
            if injector is not None and injector.comm_enabled
            else None
        )
        return Exchange(
            self.layout.plan(),
            buffer,
            step,
            middleware,
            self._live_rec,
            self.transport_stats,
        )

    def communication_phase(
        self, y_locals: List[np.ndarray], step: Optional[int] = None
    ) -> Tuple[List[np.ndarray], ExchangeRecord]:
        """Pairwise exchange-and-sum of shared partial y values.

        Send buffers are snapshotted from the pre-exchange partials (as
        real message passing would), then all contributions are summed
        — nodes shared by three or more PEs receive every other owner's
        partial exactly once.  The fault protocol, when an injector is
        enabled, rides along as middleware on the plan's messages (see
        :mod:`repro.smvp.exchange`).  Arrays that are not the layout's
        own slices are copied in, and the sums copied back into them in
        place.

        ``step`` keys the fault injector's per-superstep streams; it
        defaults to an internal counter so repeated SMVPs (time
        stepping) see an evolving fault history.
        """
        slices = list(y_locals)
        exchange = self._open_exchange(self.layout.holding(slices), step=step)
        exchange.transmit_all()
        record = exchange.sum_deliveries()
        for y, own in zip(y_locals, slices):
            if y is not own:
                y[...] = own
        return y_locals, record

    def gather(
        self,
        y_locals: List[np.ndarray],
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Collect the (now globally summed) y into one global array.

        ``out``, when given, receives the result in place (its previous
        contents are fully overwritten — ownership covers every global
        dof exactly once).  Passing a warm buffer across repeated
        multiplies avoids re-faulting the output pages each call, which
        dominates gather time for wide blocks on large instances.
        """
        tail = y_locals[0].shape[1:] if y_locals else ()
        out = self.layout.out_buffer(tail, out)
        return self.layout.gather(self.layout.holding(list(y_locals)), out)

    def _hook(self, clock: Optional[PhaseClock], window: str, point: str, *arrays):
        """One fixed hook point: the clock closes the ``window`` host
        window; then every checking observer, in order, is handed the
        per-PE ``arrays`` live here — ``after_scatter(x_locals)``,
        ``after_compute(x_locals, y_locals)``, ``after_exchange(
        x_locals, messages, y_locals)``, ``after_gather(y_locals)`` —
        and returns the last one or its replacement (tracked views,
        healed products); their time becomes a ``verify`` window."""
        if clock is not None:
            clock.mark(window, now())
        *held, last = arrays
        if self._checkers:
            for observer in self._checkers:
                last = getattr(observer, point)(*held, last)
            if clock is not None:
                clock.mark("verify", now())
        return last

    def multiply(
        self, x_global: np.ndarray, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """The full distributed SMVP: scatter, compute, exchange, gather.

        With a ``trace_sink`` attached, emits one
        :class:`~repro.smvp.trace.SuperstepTrace` per call; without
        one, the path reads no clock at all.

        ``out``, when given, receives the result in place and is
        returned (see :meth:`gather`); reusing a warm buffer across
        time steps keeps the output pages resident.  Omitted, a fresh
        array is allocated.  A malformed ``x_global`` or ``out`` is
        rejected before any work, on every flag combination.
        """
        count(
            "repro_smvp_supersteps_total",
            kernel=self.kernel_name,
            backend=self.backend_name,
        )
        layout = self.layout
        x_global = layout.check_x(x_global)
        out = layout.out_buffer(x_global.shape[1:], out)
        checkers = self._checkers
        clock = self._clock if self.trace_sink is not None else None
        rec = None if clock is None else clock.recorder
        observed = clock is not None or bool(checkers)
        step = self._superstep
        ok = False
        if clock is not None:
            clock.begin(now())
        self._live_rec = rec
        for observer in checkers:
            # The *current* distribution: the sanitizer re-checks it
            # against the ownership map it was bound to.
            observer.begin(step, x_global, self.distribution)
        try:
            x_locals = layout.scatter(x_global)
            if observed:
                x_locals = self._hook(clock, "scatter", "after_scatter", x_locals)

            # Computation phase: every row, into the layout's y buffer.
            partials = self.compute_phase(x_locals)
            if observed:
                partials = self._hook(
                    clock, "compute", "after_compute", x_locals, partials
                )

            # Communication phase, on the buffer holding the partials
            # (an observer may have replaced a slot).
            exchange = self._open_exchange(layout.holding(partials))
            exchange.transmit_all()
            record = exchange.sum_deliveries()
            if observed:
                partials = self._hook(
                    clock,
                    "exchange",
                    "after_exchange",
                    x_locals,
                    exchange.messages() if checkers else (),
                    partials,
                )

            layout.gather(layout.holding(partials), out)
            if observed:
                self._hook(clock, "gather", "after_gather", partials)
            ok = True
        finally:
            self._live_rec = None
            for observer in checkers:
                observer.end(ok)
        if clock is not None:
            rhs = x_global.shape[1] if x_global.ndim == 2 else 1
            clock.emit(
                self.trace_sink, step, rhs, record, self._guard.step_stats
            )
        return out

    __call__ = multiply

    def verify_against_global(
        self, global_stiffness: sp.spmatrix, rng_seed: int = 0
    ) -> float:
        """Max relative error of the distributed product vs the global one.

        Used by tests and by ``examples/quickstart.py`` to demonstrate
        correctness end to end.
        """
        rng = np.random.default_rng(rng_seed)
        x = rng.standard_normal(3 * self.mesh.num_nodes)
        y_dist = self.multiply(x)
        y_ref = global_stiffness @ x
        scale = float(np.abs(y_ref).max()) or 1.0
        return float(np.abs(y_dist - y_ref).max() / scale)
