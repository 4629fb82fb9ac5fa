"""The pairwise exchange-and-sum: one plan, and per-message steps.

The paper's communication phase (Section 2.3) is one fixed data flow:
for every PE pair sharing nodes, each side sends its partial y values
for the shared nodes and adds what it receives.  Both forms of it here
run over the same per-PE-sliced buffer of :mod:`repro.smvp.layout`.

**The flat plan** (:class:`ExchangePlan` / :class:`FlatExchange`) is
what a superstep runs when nobody needs individual messages.  The pair
table is compiled once into flat positions over the buffer: one
``np.take`` snapshots every send position (the pre-exchange partials,
as real message passing would), then at most (max residency - 1)
vectorised rounds ``buffer[dst_k] += snapshot[lo_k:hi_k]`` apply them.
Round k holds every destination dof's k-th contribution in send order
(pair-table order, a→b before b→a); destinations are unique inside a
round, so each dof sums its contributions in exactly the order of the
per-message walk and the bits are identical.  The cost is per word:
no Python iteration over pairs or blocks.

**The per-message walk** (:class:`Exchange`) is the one implementation
for whoever needs individual messages — the fault protocol, ``wire``
spans, the ABFT and sanitizer exchange checks (``delivered``), a caller
handing in per-PE arrays of its own.  It is three explicit steps, so
the fault protocol composes as *middleware* instead of forking the
loop:

1. :func:`build_sends` — snapshot the pre-exchange partials into
   directed send buffers;
2. a *transport* delivers each directed block: :class:`CleanTransport`
   is a lossless wire, :class:`FaultMiddleware` wraps the same
   delivery in the checksum + retransmit protocol driven by a
   :class:`~repro.faults.FaultInjector`;
3. :func:`apply_sends` — sum every delivered payload into the
   receiver's partial, in deterministic (pair, direction) order.

Both are driven the same way by both executor schedules:
``transmit_all`` (flat schedule), or ``start`` … interior rows compute
… ``join`` (overlapped schedule), then ``sum_deliveries``.  Between
``start`` and ``join`` the per-message walk delivers on a wire thread;
the plan's snapshot is one short copy and is taken inside ``start`` —
on a thread it would only contend with the interior products.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.ownership import exchange_phase, reads_ghosts
from repro.faults.detection import FaultStats, block_checksum, verify_block
from repro.faults.errors import ExchangeFaultError
from repro.faults.injector import BlockFault, FaultInjector
from repro.telemetry.registry import get_registry, record_fault_stats


@dataclass(frozen=True)
class ExchangeRecord:
    """Observed traffic for one executed SMVP (sanity-checkable against
    the static schedule).

    With fault injection active, ``words_sent``/``blocks_sent`` count
    every transmission that actually happened — retransmits and
    duplicates included — so they can exceed the static schedule; the
    ``faults`` tally explains exactly by how much and why.  On the
    flat-plan path no message exists individually: the counts are the
    plan's static ones (read-only, shared across records).
    """

    words_sent: np.ndarray  # per PE
    blocks_sent: np.ndarray  # per PE
    faults: Optional[FaultStats] = None  # None on the fault-free path


@dataclass(frozen=True)
class BlockSend:
    """One directed block: PE ``src`` owes PE ``dst`` these partials.

    ``dof_dst`` are the positions in the destination's partial array
    the payload sums into (the transports never interpret them);
    ``payload`` is a snapshot of the sender's partials (its own copy —
    later mutation of the sender's vector cannot leak in).
    """

    src: int
    dst: int
    dof_dst: np.ndarray
    payload: np.ndarray


#: One shared-node pair: (part_a, part_b, positions of the shared dofs
#: in a's partial array, in b's).  Positions are precomputed once per
#: layout — local dof rows when the partials are full per-PE vectors,
#: boundary-buffer positions when they are the overlap backend's
#: boundary buffers — so a superstep does no index arithmetic per pair.
PairTable = Sequence[Tuple[int, int, np.ndarray, np.ndarray]]


@reads_ghosts("y_locals")
def build_sends(y_locals: List[np.ndarray], pairs: PairTable) -> List[BlockSend]:
    """Snapshot the directed send buffers for every sharing pair.

    Order is deterministic and load-bearing: for each pair ``(a, b)``
    the a→b block precedes the b→a block, and pairs appear in table
    order — the summation order downstream reproduces the historical
    executor loop bit for bit.  Advanced indexing already snapshots
    the partials (fresh arrays, never views).
    """
    sends: List[BlockSend] = []
    for a, b, pos_a, pos_b in pairs:
        sends.append(BlockSend(a, b, pos_b, y_locals[a][pos_a]))
        sends.append(BlockSend(b, a, pos_a, y_locals[b][pos_b]))
    return sends


@exchange_phase("y_locals")
def apply_sends(
    y_locals: List[np.ndarray], delivered: Sequence[Tuple[BlockSend, np.ndarray]]
) -> List[np.ndarray]:
    """Sum every delivered payload into its receiver, in order."""
    for send, payload in delivered:
        y_locals[send.dst][send.dof_dst] += payload
    return y_locals


class CleanTransport:
    """Lossless delivery: every block arrives intact on the first try."""

    def transmit(
        self,
        send: BlockSend,
        step: int,
        stats: Optional[FaultStats],
        words_sent: np.ndarray,
        blocks_sent: np.ndarray,
    ) -> np.ndarray:
        words_sent[send.src] += send.payload.size
        blocks_sent[send.src] += 1
        return send.payload

    def make_stats(self) -> Optional[FaultStats]:
        """Per-exchange stats object (clean wire keeps none)."""
        return None


class FaultMiddleware:
    """Checksum + retransmit protocol around an injected-fault wire.

    Every directed block runs a small reliability protocol: the sender
    computes a CRC-32 over the payload; the injector may drop the block
    (detected by the receiver's timeout against the static schedule —
    it knows what it is owed), flip a bit in flight (detected by the
    checksum), or deliver it twice (deduplicated by sequence id, i.e.
    applied once).  Failed deliveries are retransmitted from the
    sender's still-intact partial, so the summed result is bit-identical
    to the clean transport whenever recovery succeeds.

    ``quarantined`` PEs have their links circuit-broken: blocks
    touching one are routed over the verified control channel instead
    of the flaky wire (no fault draws, one clean transmission), the
    resilience supervisor's intermediate escalation between
    retry-with-backoff and eviction.
    """

    def __init__(
        self,
        injector: FaultInjector,
        quarantined: Optional[frozenset] = None,
    ) -> None:
        self.injector = injector
        self.quarantined = frozenset(quarantined or ())

    def make_stats(self) -> FaultStats:
        return FaultStats()

    def transmit(
        self,
        send: BlockSend,
        step: int,
        stats: FaultStats,
        words_sent: np.ndarray,
        blocks_sent: np.ndarray,
    ) -> np.ndarray:
        injector = self.injector
        src, dst, clean = send.src, send.dst, send.payload
        if src in self.quarantined or dst in self.quarantined:
            stats.quarantined_blocks += 1
            words_sent[src] += clean.size
            blocks_sent[src] += 1
            return clean.copy()
        checksum = block_checksum(clean)
        max_attempts = injector.config.max_retries + 1
        for attempt in range(max_attempts):
            if attempt > 0:
                stats.retransmits += 1
                stats.words_retransmitted += clean.size
            payload = clean.copy()
            words_sent[src] += payload.size
            blocks_sent[src] += 1
            fault = injector.block_fault(src, dst, step, attempt)
            if fault is BlockFault.DROP:
                stats.injected_drops += 1
                stats.detected_missing += 1  # receiver's timeout fires
                continue
            if fault is BlockFault.BITFLIP:
                stats.injected_corruptions += 1
                injector.corrupt(payload, src, dst, step, attempt)
            elif fault is BlockFault.DUPLICATE:
                stats.injected_duplicates += 1
                stats.duplicates_ignored += 1
                # The redundant copy is real traffic, applied zero times.
                words_sent[src] += payload.size
                blocks_sent[src] += 1
            if not verify_block(payload, checksum):
                stats.detected_corrupt += 1
                continue
            return payload
        raise ExchangeFaultError(
            f"block {src}->{dst} (superstep {step}) failed "
            f"{max_attempts} transmission attempts; raise max_retries or "
            "lower the fault rates",
            src=src,
            dst=dst,
            step=step,
        )


def make_transport(
    injector: Optional[FaultInjector],
    quarantined: Optional[frozenset] = None,
):
    """The transport an executor should use for its current injector.

    ``quarantined`` PEs (if any) get the circuit-broken verified path
    through the :class:`FaultMiddleware`; with no enabled injector the
    clean transport already never faults, so quarantine is moot.  Only
    *communication* faults (drops / in-flight bit-flips / duplicates)
    route through the middleware — an injector that only corrupts
    memory or compute (SDC) keeps the clean wire: those faults happen
    before or after the exchange, and the executor's ABFT checks, not
    the transport CRC, are the defense.
    """
    if injector is not None and injector.comm_enabled:
        return FaultMiddleware(injector, quarantined)
    return CleanTransport()


class ExchangePlan:
    """A pair table compiled into flat positions over one buffer.

    ``offsets[pe]`` is where PE ``pe``'s slice starts in the buffer the
    table's positions refer to.  The words of every directed block are
    laid out by (round, destination): ``send_pos`` are their source
    positions in that order, and ``rounds`` is a list of ``(dst, lo,
    hi)`` — round k adds ``snapshot[lo:hi]`` into ``buffer[dst]``,
    where ``dst`` are unique.  A destination dof's k-th contribution
    in send order is in round k, so there are (max residency - 1)
    rounds and every dof sums in the per-message order.

    ``words_sent`` / ``blocks_sent`` are the static per-PE traffic of
    one exchange (rows per PE: multiply by the block width for words).
    """

    def __init__(self, pairs: PairTable, offsets: np.ndarray) -> None:
        num_parts = len(offsets) - 1
        self.words_sent = np.zeros(num_parts, dtype=np.int64)
        self.blocks_sent = np.zeros(num_parts, dtype=np.int64)
        src_blocks: List[np.ndarray] = [np.empty(0, dtype=np.int64)]
        dst_blocks: List[np.ndarray] = [np.empty(0, dtype=np.int64)]
        for a, b, pos_a, pos_b in pairs:
            at_a, at_b = offsets[a] + pos_a, offsets[b] + pos_b
            src_blocks += (at_a, at_b)  # a→b, then b→a: the send order
            dst_blocks += (at_b, at_a)
            self.words_sent[a] += pos_a.size
            self.words_sent[b] += pos_b.size
            self.blocks_sent[a] += 1
            self.blocks_sent[b] += 1
        src = np.concatenate(src_blocks)
        dst = np.concatenate(dst_blocks)
        # rank[w]: how many earlier words (in send order) share word
        # w's destination — its round.
        by_dst = np.argsort(dst, kind="stable")
        sorted_dst = dst[by_dst]
        first = np.ones(dst.size, dtype=bool)
        first[1:] = sorted_dst[1:] != sorted_dst[:-1]
        starts = np.flatnonzero(first)
        group = np.cumsum(first) - 1
        rank = np.empty(dst.size, dtype=np.int64)
        rank[by_dst] = np.arange(dst.size) - starts[group]
        order = np.lexsort((dst, rank))
        self.send_pos = src[order]
        dst = dst[order]
        bounds = np.concatenate(([0], np.cumsum(np.bincount(rank))))
        self.rounds = [
            (dst[lo:hi], int(lo), int(hi))
            for lo, hi in zip(bounds[:-1], bounds[1:])
        ]
        for counts in (self.words_sent, self.blocks_sent):
            counts.flags.writeable = False  # shared by every record
        self._snapshot: Optional[np.ndarray] = None

    def snapshot_buffer(self, tail: Tuple[int, ...]) -> np.ndarray:
        """The persistent send snapshot for payloads of width ``tail``."""
        shape = (self.send_pos.size,) + tuple(tail)
        if self._snapshot is None or self._snapshot.shape != shape:
            self._snapshot = np.empty(shape)
        return self._snapshot


@exchange_phase("buffer")
@reads_ghosts("buffer")
def apply_rounds(buffer: np.ndarray, snapshot: np.ndarray, rounds) -> np.ndarray:
    """Sum a plan's snapshotted sends into ``buffer``, round by round
    (cross-PE writes into ghost entries: this *is* the exchange)."""
    for dst, lo, hi in rounds:
        buffer[dst] += snapshot[lo:hi]
    return buffer


class FlatExchange:
    """One superstep's exchange-and-sum as whole-buffer operations.

    ``buffer`` is the per-PE-sliced array the ``plan`` was compiled
    over.  :meth:`transmit_all` is the snapshot of every send (before
    any summation), :meth:`sum_deliveries` the plan's rounds.  No
    message exists individually: ``delivered`` is empty and the record
    carries the plan's static traffic counts and no fault tally.
    """

    delivered: Tuple = ()

    def __init__(self, plan: ExchangePlan, buffer: np.ndarray) -> None:
        self.plan = plan
        self.buffer = buffer
        self.snapshot = plan.snapshot_buffer(buffer.shape[1:])

    def transmit_all(self) -> None:
        np.take(
            self.buffer, self.plan.send_pos, axis=0, out=self.snapshot,
            mode="clip",
        )

    # The overlapped schedule's protocol.  The snapshot is one short
    # copy, so it is taken inline: on a wire thread it contends with
    # the interior products for memory bandwidth and the GIL, hides no
    # time, and makes step times depend on thread scheduling (measured
    # at r=16 on sf5e/8: 0.4 ms inline, 3.7 ms +/- 2.4 on a thread with
    # the interior products 10% slower).  The interior rows still
    # compute between the posted sends and their summation.
    start = transmit_all

    def join(self) -> None:
        """Nothing is in flight: :meth:`start` already took the snapshot."""

    def sum_deliveries(self) -> ExchangeRecord:
        plan = self.plan
        apply_rounds(self.buffer, self.snapshot, plan.rounds)
        width = math.prod(self.buffer.shape[1:])  # block columns
        record = ExchangeRecord(
            plan.words_sent if width == 1 else plan.words_sent * width,
            plan.blocks_sent,
        )
        if get_registry() is not None:
            _record_exchange_metrics(record)
        return record


class Exchange:
    """One superstep's exchange-and-sum over ``partials``, message by
    message.

    Construction snapshots the send buffers *before* any summation (as
    real message passing would), so nodes shared by three or more PEs
    receive every other owner's pre-exchange partial exactly once.
    :meth:`transmit_all` delivers each block through the transport —
    inline, or on a wire thread between :meth:`start` and :meth:`join`
    — and :meth:`sum_deliveries` sums them into ``partials``.

    ``delivered`` keeps every ``(send, payload)`` in application order
    (the ABFT and sanitizer exchange checks read it); ``totals``, when
    given, accumulates each exchange's fault tally in place.
    """

    def __init__(
        self,
        partials: List[np.ndarray],
        pairs: PairTable,
        transport,
        step: int,
        totals: Optional[FaultStats] = None,
    ) -> None:
        self.partials = partials
        self.transport = transport
        self.step = step
        self.totals = totals
        self.sends = build_sends(partials, pairs)
        self.delivered: List[Tuple[BlockSend, np.ndarray]] = []
        self.stats = transport.make_stats()
        self.words_sent = np.zeros(len(partials), dtype=np.int64)
        self.blocks_sent = np.zeros(len(partials), dtype=np.int64)
        self._wire: Optional[threading.Thread] = None
        self._failure: Optional[BaseException] = None

    def transmit_all(self) -> None:
        """Deliver every block through the transport, in send order."""
        transmit = self.transport.transmit
        tally = (self.step, self.stats, self.words_sent, self.blocks_sent)
        for send in self.sends:
            self.delivered.append((send, transmit(send, *tally)))

    def start(self) -> None:
        """Run :meth:`transmit_all` on a background wire thread."""
        self._wire = threading.Thread(
            target=self._run_wire, name="repro-overlap-wire"
        )
        self._wire.start()

    def _run_wire(self) -> None:
        try:
            self.transmit_all()
        except BaseException as exc:  # re-raised by join()
            self._failure = exc

    def join(self) -> None:
        """Wait for the wire thread; re-raise whatever it raised."""
        self._wire.join()
        if self._failure is not None:
            raise self._failure

    def sum_deliveries(self) -> ExchangeRecord:
        """Sum the deliveries into the partials; record the traffic."""
        apply_sends(self.partials, self.delivered)
        record = ExchangeRecord(
            self.words_sent, self.blocks_sent, faults=self.stats
        )
        if get_registry() is not None:
            _record_exchange_metrics(record)
        if self.totals is not None and self.stats is not None:
            self.totals.add(self.stats)
        return record


def _record_exchange_metrics(record: ExchangeRecord) -> None:
    """Fold one exchange's observed traffic into the installed registry."""
    reg = get_registry()
    reg.counter(
        "repro_exchange_rounds_total", "completed exchange phases"
    ).inc()
    words = reg.counter(
        "repro_exchange_words_total",
        "words sent per PE (retransmits and duplicates included)",
    )
    blocks = reg.counter(
        "repro_exchange_blocks_total",
        "blocks sent per PE (retransmits and duplicates included)",
    )
    for pe in range(len(record.words_sent)):
        words.inc(int(record.words_sent[pe]), pe=pe)
        blocks.inc(int(record.blocks_sent[pe]), pe=pe)
    if record.faults is not None:
        record_fault_stats(record.faults, "exchange")
