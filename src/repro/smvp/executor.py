"""The distributed SMVP executor.

This is a faithful in-process execution of the paper's parallel SMVP
(Section 2.3): each PE holds a local stiffness matrix assembled from
its own elements over its own (replicated-shared) node set, computes a
local product, and then exchanges-and-sums partial y values with every
PE it shares nodes with.  The result is directly comparable to the
global product — tests assert the distributed product equals the
global sparse product to floating-point tolerance.

The paper's SMVP is *one* bulk-synchronous superstep, and so is this
module's: one body sequences compute → exchange, over the per-PE-sliced
buffers and flat index maps of :mod:`repro.smvp.layout`.
:meth:`DistributedSMVP.multiply` is scatter + that body + gather, on
global vectors; :meth:`DistributedSMVP.multiply_resident` is the body
alone, on a vector a time loop keeps in the layout's buffer form (as
Quake keeps every vector distributed across its PEs).  The layers it
integrates are each swappable on their own:

* **kernel** (:mod:`repro.smvp.kernels`) — the local product, ``csr``:
  each PE's packed state built once at setup, straight from its
  elements (or ``prepare`` of its assembled K_i), plus one range table
  over every PE's state; a compute phase is one compiled call per
  range of PEs.
* **backend** (:mod:`repro.smvp.backends`) — where a compute phase's
  PE ranges run (``backend.map``): ``serial`` (the whole phase as one
  range) or ``threaded`` (one range per worker, balanced by nonzeros;
  the compiled range releases the GIL).  ``overlap`` is ``serial``
  under an older name.
* **exchange** (:mod:`repro.smvp.exchange`) — the pairwise
  exchange-and-sum: the pair table compiled into one flat reduction
  plan over the whole buffer; whoever needs individual messages (the
  fault protocol from :mod:`repro.faults`, ``wire`` spans, the ABFT
  guard) reads them as segments of that plan.
* **observer** — SDC injection / ABFT (:mod:`repro.smvp.abft`) hooks
  into the body after compute and after exchange, so it runs the same
  on either entry; :class:`~repro.smvp.trace.PhaseClock`
  turns its clock marks into the per-superstep trace.

Races are ruled out by construction, not watched for: the layout's
construction checks prove the slices, the gather map and the plan
(:func:`~repro.smvp.layout.check_layout`), the compute phase reads
read-only inputs, and a replaced per-PE slot is checked as it is copied
into the buffer (:meth:`~repro.smvp.layout.SuperstepLayout.holding`).

The executor doubles as the ground truth for the performance model:
its per-PE flop counts and the communication schedule's word/block
counts are exactly the F, C_i, and B_i the model consumes.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from repro.faults.detection import FaultStats
from repro.faults.injector import FaultInjector
from repro.fem.assembly import (
    assemble_subdomain_packed,
    assemble_subdomain_stiffness,
)
from repro.fem.material import ElementMaterials
from repro.mesh.core import TetMesh
from repro.partition.base import Partition
from repro.profile.spans import SpanRecorder
from repro.smvp.abft import AbftChecker, SdcEvent, SdcGuard
from repro.smvp.backends import make_backend
from repro.smvp.backends.base import ranged_products
from repro.smvp.distribution import (
    DataDistribution,
    redistribute_after_eviction,
)
from repro.smvp.exchange import Exchange, ExchangeRecord, FaultMiddleware
from repro.smvp.kernels import CsrKernel, PackedState, get_kernel
from repro.smvp.layout import ContractViolation, SlicedBuffer, SuperstepLayout
from repro.smvp.schedule import CommSchedule
from repro.smvp.trace import PhaseClock, TraceSink
from repro.telemetry.registry import count, record_executor_setup
from repro.util.clock import now

__all__ = ["DistributedSMVP", "ExchangeRecord"]


class DistributedSMVP:
    """A p-PE distributed ``y = K x`` over a partitioned mesh.

    **One superstep.**  :meth:`multiply` runs scatter → compute →
    exchange → gather for every flag combination; :meth:`multiply_resident`
    runs the same compute → exchange body on a vector already in the
    layout's buffer form, with no scatter and no gather.  The SDC/ABFT guard,
    when active, is called at its fixed hook points in that body (begin,
    after compute / exchange, end), handed the per-PE arrays: it may
    replace a product slot.  So a guarded executor runs resident too.
    The phase clock wraps it (it closes a phase's window before the
    guard runs and a ``verify`` window after) and is live only while a
    ``trace_sink`` is attached.  With no guard and no sink no hook is
    called at all.

    **One buffer, one plan.**  Scatter is one take into the layout's
    x buffer, each PE's product is written into its slice of the y
    buffer, the exchange is the layout's compiled plan (the snapshot
    and the sums in one compiled pass) and gather one take — no Python
    iteration over pairs, blocks or PEs.  An attached injector, profiler or
    the ABFT guard reads the same plan's messages as segments of its
    snapshot (fault middleware, ``wire`` spans, ``after_exchange``);
    nothing else changes.  Same slices, same summation order, same
    bits.

    A compute phase is ``backend.map`` over ranges of PEs, each range
    one compiled call of the states' range table (``csr``'s
    :class:`~repro.smvp.kernels.PackedTable`) from the whole x buffer
    into the whole y buffer — or, under a profiled multiply, one call
    per PE inside its ``compute`` span.  Without a table (scipy's path,
    a custom kernel) each PE is one ``kernel.product`` of its read-only
    x slice into its y slice: the same bits.  The states and the table
    are the ones this executor's own ``backend.setup`` call prepared,
    so a backend instance shared with another executor never lends it
    that one's matrices; each state is checked, when the executor is
    built, to have its slice's shape.  No superstep starts a thread of
    its own.  The paper's
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
        backend decides where the compute phase's PE ranges run;
        results are bit-identical across backends.
    trace_sink:
        Optional callable receiving a
        :class:`~repro.smvp.trace.SuperstepTrace` after every
        ``multiply`` (per-phase wall times, per-PE traffic, fault
        stats).  ``None`` (default) keeps the hot path clock-free.
    abft:
        Enable algorithm-based fault tolerance (see
        :class:`repro.smvp.abft.SdcGuard`): every superstep verifies
        each PE's local product (checksum row ``w_i = 1ᵀK_i``) and
        post-exchange partial (incoming-payload sum) in O(n_i) per PE,
        heals a failed product by one recompute, and raises
        :class:`~repro.faults.SdcFaultError` blaming a specific PE and
        phase when that recompute fails too (a sticky fault) or the
        exchange check fails.  The guard is also attached, check-less,
        when the injector has SDC fault modes configured.
    pe_ids:
        Physical identity of each PE slot (default ``0..P-1``).  The
        SDC injector keys its draws on *physical* ids, so a sticky
        "bad core" follows the same hardware through post-eviction
        renumbering instead of silently migrating to an innocent
        survivor.
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
        # Index maps every phase runs on: scatter rows, the compiled
        # exchange plan, gather maps — checked once, here.
        self.layout = SuperstepLayout(
            CommSchedule(DataDistribution(mesh, partition))
        )
        self.local_nodes = self.layout.local_nodes
        self.abft_enabled = bool(abft)
        checker = AbftChecker() if self.abft_enabled else None

        # This executor's prepared states — the one copy of each local
        # stiffness it holds — and their range table, kept here: the
        # backend's own are rebound by the next executor it is set up
        # for.  Each state must have its slice's shape: the range entry
        # indexes the slices by the states' row counts.
        self._states = self.backend.adopt(
            self.kernel, list(self._local_states(checker))
        )
        self.layout.check_states(self._states)
        self._table = self.backend.table
        self._table_kernel = self.kernel
        self._costs = self.flops_per_pe()

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

        # -- the observer (see the class docstring) --
        self._guard = SdcGuard(checker, self.pe_ids, injector, self._recompute)
        self._observer: Optional[SdcGuard] = (
            self._guard if self._guard.active else None
        )
        self._clock = PhaseClock(
            self.kernel_name, self.backend_name, profile=self.profile
        )

    def _local_states(self, checker: Optional[AbftChecker]):
        """Each PE's prepared state, in PE order, one PE at a time.

        With ``csr``, a PE's packed state comes straight from its
        elements (:func:`~repro.fem.assembly.assemble_subdomain_packed`):
        no CSR is assembled or packed.  A PE that pass leaves to the CSR
        route and a custom kernel assemble K_i, prepare it and drop
        it.  The ABFT checksum rows read the assembled CSR
        either way — on the direct route ``state.tocsr()``, which
        rebuilds it exactly, only when ABFT is on."""
        mesh, materials = self.mesh, self.materials
        dist = self.distribution
        packed = type(self.kernel) is CsrKernel
        groups = dist.elements_by_part()
        for nodes, elements in zip(self.local_nodes, groups):
            arrays = None
            if packed:
                arrays = assemble_subdomain_packed(
                    mesh, materials, elements, nodes
                )
            if arrays is None:
                state = None
                matrix = assemble_subdomain_stiffness(
                    mesh, materials, elements, nodes
                )
            else:
                state = PackedState((3 * len(nodes),) * 2, *arrays)
                matrix = state.tocsr() if checker is not None else None
            if checker is not None:
                checker.add(matrix)
            if state is None:
                state = self.kernel.prepare(matrix)
            # Dropped before the next PE's is assembled.
            del matrix
            yield state

    @property
    def num_parts(self) -> int:
        return self.partition.num_parts

    @property
    def distribution(self) -> DataDistribution:
        """The distribution the layout was built and checked over."""
        return self.layout.distribution

    @property
    def schedule(self) -> CommSchedule:
        """The schedule the layout's plan was compiled from."""
        return self.layout.schedule

    @property
    def local_matrices(self) -> List[sp.csr_matrix]:
        """Every PE's local stiffness, rebuilt from its prepared state
        (:meth:`local_matrix`)."""
        return [self.local_matrix(pe) for pe in range(self.num_parts)]

    def local_matrix(self, pe: int) -> sp.csr_matrix:
        """PE ``pe``'s local stiffness exactly as assembled, rebuilt on
        demand from its prepared state — the executor holds no CSR of
        its own (``state.tocsr()``: a new matrix from a packed state,
        the matrix itself from scipy's)."""
        return self._states[pe].tocsr()

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

    def reconfigure_without(self, dead_pe: int):
        """Build the P-1 executor that continues after ``dead_pe`` dies.

        Redistributes the dead PE's elements onto the survivors
        (:func:`~repro.smvp.distribution.redistribute_after_eviction`),
        reassembles local matrices, and rebuilds the schedule, exchange
        pairs, and gather maps for the compacted ``0 .. P-2`` numbering.
        The quarantine set carries over remapped through the survivor
        map.  The new executor keeps this one's kernel, backend kind,
        injector, trace sink and flags; it inherits the superstep
        counter (the fault history keeps evolving, not restarting) and
        — shared, not copied — the transport tally and the SDC history.
        Its layout is built, and checked, over the new distribution.

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
        new = DistributedSMVP(
            self.mesh,
            new_partition,
            self.materials,
            kernel=self.kernel,
            injector=self.injector,
            backend=self.backend_name,
            trace_sink=self.trace_sink,
            abft=self.abft_enabled,
            pe_ids=survivor_ids,
            profile=self.profile,
        )
        new._superstep = self._superstep
        new._quarantined = frozenset(
            survivors[pe] for pe in self._quarantined if pe in survivors
        )
        new._guard.adopt(self._guard)
        new.transport_stats = self.transport_stats
        count("repro_smvp_reconfigurations_total", dead_pe=dead_pe)
        return new, redistribution

    def flops_per_pe(self) -> np.ndarray:
        """Actual F_i = 2 * nnz of each PE's local matrix (its state's
        ``nnz``, the CSR's either way)."""
        return np.array([2 * s.nnz for s in self._states], dtype=np.int64)

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

    def compute_phase(
        self,
        x_locals: Sequence[np.ndarray],
        x: Optional[SlicedBuffer] = None,
    ) -> List[np.ndarray]:
        """Local SMVPs on every PE (the computation phase), each
        written into its PE's slice of the layout's y buffer.

        On the slices of a buffer of the layout — ``x``, by default the
        last scatter's — with the kernel's range table (``csr``'s
        packed states) the phase is one compiled call per backend range
        — per PE, each inside its ``compute`` span, under a profiled
        multiply; otherwise one ``kernel.product`` per PE.  A product
        that writes a read-only input (the superstep hands the phase
        read-only views) raises :class:`ContractViolation` naming the
        PE."""
        count("repro_backend_compute_phases_total", backend=self.backend_name)
        tail = x_locals[0].shape[1:] if x_locals else ()
        outs = self.layout.product_slices(tail)
        run = None
        if self._table is not None and self.kernel is self._table_kernel:
            buffers = self.layout.buffers_of(x_locals, x)
            if buffers is not None:
                run = self._table.bind(*buffers)
        phase = ranged_products(
            self.kernel, self._states, x_locals, outs, run, self._live_rec
        )
        try:
            return self.backend.map(phase, self._costs)
        except ValueError as err:
            self._name_input_writer(x_locals, outs, err)
            raise

    def _name_input_writer(
        self, x_locals: Sequence[np.ndarray], outs, err: ValueError
    ) -> None:
        """The error path of a compute phase that raised ``err``: rerun
        it one PE at a time, and raise :class:`ContractViolation` for
        the first product refused a write into its read-only input."""
        for pe, (state, x, out) in enumerate(zip(self._states, x_locals, outs)):
            try:
                self.kernel.product(state, x, out)
            except ValueError as again:
                if x.flags.writeable or "read-only" not in str(again):
                    return
                raise ContractViolation(
                    f"PE {pe}'s product wrote its input during the compute "
                    "phase; inputs are read-only after scatter",
                    pe=pe,
                    phase="compute",
                ) from err

    def _recompute(self, pe: int, x: np.ndarray) -> np.ndarray:
        """One PE's local product again, vector or block (ABFT healing)
        — same prepared state, same kernel code, so it heals a transient
        corruption exactly; its ``recovery`` span keeps healing time out
        of the surrounding verify window's bucket."""
        rec, product = self._live_rec, self.kernel.product
        if rec is None:
            return product(self._states[pe], x)
        return rec.timed("recovery", pe, product, self._states[pe], x)

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
            self.layout.plan,
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
        own slices are copied in (a mis-shaped or aliased one raises
        :class:`ContractViolation`), and the sums copied back into them
        in place.

        ``step`` keys the fault injector's per-superstep streams; it
        defaults to an internal counter so repeated SMVPs (time
        stepping) see an evolving fault history.
        """
        slices = list(y_locals)
        exchange = self._open_exchange(self.layout.holding(slices), step=step)
        record = exchange.run()
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
        buffer = self.layout.holding(list(y_locals), "exchange")
        return self.layout.gather(buffer, out)

    def _hook(self, clock: Optional[PhaseClock], window: str, point: str, *arrays):
        """One fixed hook point of the body: the clock closes the
        ``window`` host window; then the observer is handed the per-PE
        ``arrays`` live here — ``after_compute(x_locals, y_locals)``,
        ``after_exchange(x_locals, messages, y_locals)`` — and returns
        the last one, possibly with healed slots; its time becomes a
        ``verify`` window."""
        if clock is not None:
            clock.mark(window, now())
        *held, last = arrays
        if self._observer is not None:
            last = getattr(self._observer, point)(*held, last)
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
        calls keeps the output pages resident.  Omitted, a fresh
        array is allocated.  A malformed ``x_global`` or ``out`` is
        rejected before any work, on every flag combination.
        """
        layout = self.layout
        x_global = layout.check_x(x_global)
        out = layout.out_buffer(x_global.shape[1:], out)
        self._run(x_global, out)
        return out

    __call__ = multiply

    def multiply_resident(self, x: SlicedBuffer) -> np.ndarray:
        """The superstep body alone — compute, exchange — on ``x``, a
        vector or block in :attr:`layout`'s buffer form (every
        copy of a dof holding the same row).  Returns the layout's whole
        y buffer after the exchange; its owner rows (``layout.owner_pos``)
        are bit for bit what :meth:`multiply` would gather, its other
        copies' sums may differ in the last bits.  The buffer is
        overwritten by the next superstep: see the layout's lifetime
        rule.  Traces carry no scatter and no gather window."""
        rows = self.layout.offsets
        if x.offsets is not rows and not np.array_equal(x.offsets, rows):
            raise ValueError("x is not sliced over this executor's layout")
        return self._run(x, None)

    def _run(self, x, out: Optional[np.ndarray]) -> np.ndarray:
        """One superstep on ``x``: a validated global input, scattered
        first and gathered into ``out`` after; or a :class:`SlicedBuffer`
        of the layout, which the body reads as it is.  Returns the whole
        y buffer."""
        count(
            "repro_smvp_supersteps_total",
            kernel=self.kernel_name,
            backend=self.backend_name,
        )
        layout = self.layout
        resident = isinstance(x, SlicedBuffer)
        observer = self._observer
        clock = self._clock if self.trace_sink is not None else None
        rec = None if clock is None else clock.recorder
        step = self._superstep
        ok = False
        if clock is not None:
            clock.begin(now())
        self._live_rec = rec
        if observer is not None:
            observer.begin(step)
        try:
            if not resident:
                layout.scatter(x)
                if clock is not None:
                    clock.mark("scatter", now())
            partials, record = self._body(
                x if resident else layout.x_buffer, clock, observer
            )
            y = layout.holding(partials, "exchange")
            if not resident:
                layout.gather(y, out)
                if clock is not None:
                    clock.mark("gather", now())
            ok = True
        finally:
            self._live_rec = None
            if observer is not None:
                observer.end(ok)
        if clock is not None:
            tail = y.shape[1:]
            clock.emit(
                self.trace_sink,
                step,
                tail[0] if tail else 1,
                record,
                self._guard.step_stats,
            )
        return y

    def _body(
        self,
        x: SlicedBuffer,
        clock: Optional[PhaseClock],
        observer: Optional[SdcGuard],
    ) -> Tuple[List[np.ndarray], ExchangeRecord]:
        """The superstep body: compute from the read-only twins of
        ``x``'s slices into the layout's y buffer, then the exchange on
        the buffer holding the partials (the guard may have replaced a
        slot), with the hooks after each.  Returns the per-PE partials
        and the exchange's record."""
        layout = self.layout
        observed = clock is not None or observer is not None
        x_locals = x.frozen
        partials = self.compute_phase(x_locals, x)
        if observed:
            partials = self._hook(
                clock, "compute", "after_compute", x_locals, partials
            )
        exchange = self._open_exchange(layout.holding(partials))
        record = exchange.run()
        if observed:
            partials = self._hook(
                clock,
                "exchange",
                "after_exchange",
                x_locals,
                exchange.messages() if observer is not None else (),
                partials,
            )
        return partials, record

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
