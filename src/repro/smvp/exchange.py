"""The pairwise exchange-and-sum: one compiled plan, read as messages.

The paper's communication phase (Section 2.3) is one fixed data flow:
for every PE pair sharing nodes, each side sends its partial y values
for the shared nodes and adds what it receives.  It has one executor
here, :class:`ExchangePlan`, over the per-PE-sliced buffer of
:mod:`repro.smvp.layout`.

**The plan.**  The pair table is compiled once into flat positions over
the buffer, every word laid out by (round, destination): round k holds
every destination dof's k-th contribution in send order (pair-table
order, a→b before b→a), so there are (max residency - 1) rounds and
destinations are unique inside a round.  An exchange snapshots every
send position (the pre-exchange partials, as real message passing
would), then sums each word into its destination: one compiled pass
over the words in that order (:func:`sum_sends`, ``exchange_sum`` in
``nodal.c``), so each dof adds its contributions in exactly the order
of a message-by-message walk and the bits are identical.  Without the
compiled pass the same sums run as numpy rounds ``buffer[dst_k] +=
snapshot[lo_k:hi_k]`` (:func:`apply_rounds`), same bits.  The cost is
per word: no Python iteration over pairs, blocks or PEs.

**Messages are segments of the plan.**  Whoever needs individual
messages — the fault protocol, ``wire`` spans, the ABFT exchange
check — reads them off the same snapshot.  The plan's message
table (:meth:`ExchangePlan.segments`, built on first request, so an
unobserved run never holds it) lists every directed message in send
order: ``src``, ``dst``, the dst-local positions it sums into and where
its words sit in the snapshot.  :meth:`Exchange.run` runs one
superstep's exchange over it in two steps:

1. the snapshot — under a span recorder taken message by message, each
   inside its ``wire`` span; with a :class:`FaultMiddleware`, each
   message's segment then runs the checksum + retransmit protocol and
   the delivered payload is written back into its segment;
2. the sums, through the same pass, so what is summed is exactly what
   was delivered, observed or not.  Unobserved, the snapshot is taken
   by that pass too.

The executor runs it after every PE's product.  No exchange starts a
thread.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.faults.detection import FaultStats, block_checksum, verify_block
from repro.faults.errors import ExchangeFaultError
from repro.faults.injector import BlockFault, FaultInjector
from repro.telemetry.registry import get_registry, record_fault_stats
from repro.util.clock import now
from repro.util.native import native


@dataclass(frozen=True)
class ExchangeRecord:
    """Observed traffic for one executed SMVP (sanity-checkable against
    the static schedule).

    With fault injection active, ``words_sent``/``blocks_sent`` count
    every transmission that actually happened — retransmits and
    duplicates included — so they can exceed the static schedule; the
    ``faults`` tally explains exactly by how much and why.  Without it
    the counts are the plan's static ones (read-only, shared across
    records).
    """

    words_sent: np.ndarray  # per PE
    blocks_sent: np.ndarray  # per PE
    faults: Optional[FaultStats] = None  # None on the fault-free path


#: One shared-node pair: (part_a, part_b, positions of the shared dofs
#: in a's partial array, in b's).  Positions are local dof rows,
#: precomputed once per layout, so a superstep does no index arithmetic
#: per pair.
PairTable = Sequence[Tuple[int, int, np.ndarray, np.ndarray]]


class Segment(NamedTuple):
    """One directed message of a plan, as positions."""

    src: int
    dst: int
    dof_dst: np.ndarray  # dst-local positions its words sum into
    at: np.ndarray  # where its words sit in the snapshot
    send_pos: np.ndarray  # where they are read from in the buffer


class Delivery(NamedTuple):
    """One directed message of an executed exchange, for observers."""

    src: int
    dst: int
    dof_dst: np.ndarray
    payload: np.ndarray  # the words the rounds summed into dof_dst


def _send_positions(
    pairs: PairTable, offsets: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """The buffer position every word is read from and summed into, in
    send order (pair-table order, a→b before b→a)."""
    src: List[np.ndarray] = [np.empty(0, dtype=np.int64)]
    dst: List[np.ndarray] = [np.empty(0, dtype=np.int64)]
    for a, b, pos_a, pos_b in pairs:
        at_a, at_b = offsets[a] + pos_a, offsets[b] + pos_b
        src += (at_a, at_b)
        dst += (at_b, at_a)
    return np.concatenate(src), np.concatenate(dst)


def _round_order(dst: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``rank[w]`` — how many earlier words (in send order) share word
    ``w``'s destination, i.e. its round — and the words' (round,
    destination) order."""
    by_dst = np.argsort(dst, kind="stable")
    sorted_dst = dst[by_dst]
    first = np.ones(dst.size, dtype=bool)
    first[1:] = sorted_dst[1:] != sorted_dst[:-1]
    starts = np.flatnonzero(first)
    group = np.cumsum(first) - 1
    rank = np.empty(dst.size, dtype=np.int64)
    rank[by_dst] = np.arange(dst.size) - starts[group]
    return rank, np.lexsort((dst, rank))


class FaultMiddleware:
    """Checksum + retransmit protocol around an injected-fault wire.

    Every directed message runs a small reliability protocol: the
    sender computes a CRC-32 over the payload; the injector may drop
    the block (detected by the receiver's timeout against the static
    schedule — it knows what it is owed), flip a bit in flight
    (detected by the checksum), or deliver it twice (deduplicated by
    sequence id, i.e. applied once).  Failed deliveries are
    retransmitted from the sender's still-intact partial, so the summed
    result is bit-identical to a fault-free exchange whenever recovery
    succeeds.

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

    def transmit(
        self,
        src: int,
        dst: int,
        clean: np.ndarray,
        step: int,
        stats: FaultStats,
        words_sent: np.ndarray,
        blocks_sent: np.ndarray,
    ) -> np.ndarray:
        """Deliver ``clean`` from ``src`` to ``dst``; returns the
        payload that arrived intact (raises
        :class:`~repro.faults.ExchangeFaultError` when the retry budget
        runs out)."""
        injector = self.injector
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


class ExchangePlan:
    """A pair table compiled into flat positions over one buffer.

    ``offsets[pe]`` is where PE ``pe``'s slice starts in the buffer the
    table's positions refer to.  The words of every directed block are
    laid out by (round, destination): ``send_pos`` are their source
    positions in that order, ``recv_pos`` the positions they are summed
    into, and ``rounds`` is a list of ``(dst, lo, hi)`` — round k adds
    ``snapshot[lo:hi]`` into ``buffer[dst]``, ``dst`` being
    ``recv_pos[lo:hi]``, whose entries are unique.  The index arrays
    are read-only.  A destination dof's k-th contribution
    in send order is in round k, so there are (max residency - 1)
    rounds and every dof sums in the per-message order.

    ``words_sent`` / ``blocks_sent`` are the static per-PE traffic of
    one exchange (rows per PE: multiply by the block width for words).
    """

    def __init__(self, pairs: PairTable, offsets: np.ndarray) -> None:
        self.pairs = pairs
        self.offsets = offsets
        num_parts = len(offsets) - 1
        self.words_sent = np.zeros(num_parts, dtype=np.int64)
        self.blocks_sent = np.zeros(num_parts, dtype=np.int64)
        for a, b, pos_a, pos_b in pairs:
            self.words_sent[a] += pos_a.size
            self.words_sent[b] += pos_b.size
            self.blocks_sent[a] += 1
            self.blocks_sent[b] += 1
        src, dst = _send_positions(pairs, offsets)
        rank, order = _round_order(dst)
        self.send_pos = src[order]
        self.recv_pos = dst[order]
        # Read-only: the counts are shared by every record, and the
        # positions are what the layout's construction checks proved.
        for index in (
            self.words_sent, self.blocks_sent, self.send_pos, self.recv_pos
        ):
            index.flags.writeable = False
        bounds = np.concatenate(([0], np.cumsum(np.bincount(rank))))
        self.rounds = [
            (self.recv_pos[lo:hi], int(lo), int(hi))
            for lo, hi in zip(bounds[:-1], bounds[1:])
        ]
        self._snapshot: Optional[np.ndarray] = None
        self._segments: Optional[List[Segment]] = None
        self._positions: Optional[Tuple] = None

    def snapshot_buffer(self, tail: Tuple[int, ...]) -> np.ndarray:
        """The persistent send snapshot for payloads of width ``tail``."""
        shape = (self.send_pos.size,) + tuple(tail)
        if self._snapshot is None or self._snapshot.shape != shape:
            self._snapshot = np.empty(shape)
        return self._snapshot

    def segments(self) -> List[Segment]:
        """The message table: every directed message in send order,
        its words as an index array into the snapshot (a message's
        words spread over as many rounds as its destinations'
        residency).  Built on the first request."""
        if self._segments is None:
            src, dst = _send_positions(self.pairs, self.offsets)
            at = np.empty(src.size, dtype=np.int64)
            at[_round_order(dst)[1]] = np.arange(src.size)
            table, lo = [], 0
            for a, b, pos_a, pos_b in self.pairs:
                for s, d, dof in ((a, b, pos_b), (b, a, pos_a)):
                    hi = lo + dof.size
                    table.append(
                        Segment(int(s), int(d), dof, at[lo:hi], src[lo:hi])
                    )
                    lo = hi
            self._segments = table
        return self._segments


def apply_rounds(buffer: np.ndarray, snapshot: np.ndarray, rounds) -> np.ndarray:
    """Sum a plan's snapshotted sends into ``buffer``, round by round
    (cross-PE writes into ghost entries: this *is* the exchange) — the
    numpy form of :func:`sum_sends`, which runs it without the compiled
    pass."""
    for dst, lo, hi in rounds:
        buffer[dst] += snapshot[lo:hi]
    return buffer


def sum_sends(
    plan: ExchangePlan, buffer: np.ndarray, snapshot: np.ndarray, take: bool
) -> None:
    """The plan's exchange over ``buffer``: with ``take``, first the
    snapshot of every send position; then every word summed into its
    destination.  One compiled pass (``exchange_sum`` in ``nodal.c``)
    walks the words in the plan's (round, destination) order, so each
    destination adds its contributions in round order, one add each —
    the bits of :func:`apply_rounds`, which runs instead (after an
    ``np.take``) for a buffer or snapshot that is not C-contiguous
    float64."""
    if buffer.shape[0] != plan.offsets[-1] or snapshot.shape != (
        (plan.send_pos.size,) + buffer.shape[1:]
    ):
        raise ValueError(
            f"an exchange over {int(plan.offsets[-1])} rows and "
            f"{plan.send_pos.size} words got a buffer of shape "
            f"{buffer.shape} and a snapshot of shape {snapshot.shape}"
        )
    if not all(
        a.dtype == np.float64 and a.flags.c_contiguous
        for a in (buffer, snapshot)
    ):
        if take:
            np.take(buffer, plan.send_pos, axis=0, out=snapshot, mode="clip")
        apply_rounds(buffer, snapshot, plan.rounds)
        return
    ffi, lib = native()
    if plan._positions is None:  # the index arrays, as the pass reads them
        plan._positions = (
            ffi.from_buffer("int64_t[]", plan.send_pos),
            ffi.from_buffer("int64_t[]", plan.recv_pos),
        )
    lib.exchange_sum(
        plan.send_pos.size,
        math.prod(buffer.shape[1:]),
        *plan._positions,
        take,
        ffi.from_buffer("double[]", snapshot, require_writable=True),
        ffi.from_buffer("double[]", buffer, require_writable=True),
    )


class Exchange:
    """One superstep's exchange-and-sum over ``buffer``, the
    per-PE-sliced array the ``plan`` was compiled over.

    :meth:`run` is the snapshot of every send (before any summation),
    then the plan's sums.  Two attachments walk the plan's messages to
    take the snapshot: a
    :class:`FaultMiddleware` (``step`` keys its fault draws; the record
    then counts every transmission and carries the fault tally, which
    ``totals``, when given, accumulates in place) and a span
    ``recorder`` (one ``wire`` span per message).  With neither, no
    message exists individually and the record carries the plan's
    static traffic counts.
    """

    def __init__(
        self,
        plan: ExchangePlan,
        buffer: np.ndarray,
        step: int = 0,
        middleware: Optional[FaultMiddleware] = None,
        recorder=None,
        totals: Optional[FaultStats] = None,
    ) -> None:
        self.plan = plan
        self.buffer = buffer
        self.snapshot = plan.snapshot_buffer(buffer.shape[1:])
        self.step = step
        self.middleware = middleware
        self.recorder = recorder
        self.totals = totals
        self.stats: Optional[FaultStats] = None

    def run(self) -> ExchangeRecord:
        """Snapshot every send, before any summation, then sum the
        snapshot into the buffer (:func:`sum_sends`); record the
        traffic.  Unobserved, the snapshot and the sums are one compiled
        pass."""
        observed = self.middleware is not None or self.recorder is not None
        if observed:
            self._transmit_messages()
        sum_sends(self.plan, self.buffer, self.snapshot, take=not observed)
        plan = self.plan
        if self.stats is None:
            width = math.prod(self.buffer.shape[1:])  # block columns
            record = ExchangeRecord(
                plan.words_sent if width == 1 else plan.words_sent * width,
                plan.blocks_sent,
            )
        else:
            record = ExchangeRecord(
                self.words_sent, self.blocks_sent, faults=self.stats
            )
            if self.totals is not None:
                self.totals.add(self.stats)
        if get_registry() is not None:
            _record_exchange_metrics(record)
        return record

    def _transmit_messages(self) -> None:
        """The snapshot, message by message: under a recorder each
        message's words are snapshotted inside its ``wire`` span (same
        positions, same bits); under the middleware each message's
        segment is transmitted and what arrived is written back into
        it."""
        buffer, snapshot = self.buffer, self.snapshot
        rec, middleware = self.recorder, self.middleware
        if rec is None:
            np.take(
                buffer, self.plan.send_pos, axis=0, out=snapshot, mode="clip"
            )
        if middleware is not None:
            self.stats = FaultStats()
            self.words_sent = np.zeros_like(self.plan.words_sent)
            self.blocks_sent = np.zeros_like(self.plan.blocks_sent)
            tally = (self.step, self.stats, self.words_sent, self.blocks_sent)
        for seg in self.plan.segments():
            if rec is not None:
                t_start = now()
                payload = buffer[seg.send_pos]
                snapshot[seg.at] = payload
            else:
                payload = snapshot[seg.at]
            if middleware is not None:
                snapshot[seg.at] = middleware.transmit(
                    seg.src, seg.dst, payload, *tally
                )
            if rec is not None:
                rec.add(
                    "wire", seg.src, t_start, now(),
                    words=int(payload.size), dst=seg.dst,
                )

    def messages(self) -> List[Delivery]:
        """Every directed message in send order, each payload read out
        of its segment of the snapshot — what the rounds sum."""
        snapshot = self.snapshot
        return [
            Delivery(seg.src, seg.dst, seg.dof_dst, snapshot[seg.at])
            for seg in self.plan.segments()
        ]


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
