"""Communication schedule for the SMVP exchange phase.

Once per SMVP, every pair of PEs sharing mesh nodes exchanges one
message each way carrying the partial y values for the shared nodes
(3 words — the x, y, z degrees of freedom — per node, 64-bit words).
:class:`CommSchedule` is the one derivation of that flow; the paper's
per-PE model quantities fall straight out of its ``messages``:

* ``C_i`` / ``B_i`` — words / blocks sent plus received by PE i,
* ``C_max``, ``B_max`` — their maxima over PEs, ``M_avg`` the average
  message size, and the (p, p) word matrix ``m_ij`` for bisection.

Its ``pairs`` (the shared dof rows per sharing pair, built on first
request) are what the superstep layout compiles its exchange plan
from, and its ``word_matrix`` what the layout checks that plan
against; :meth:`CommSchedule.comm_busy` and
:meth:`CommSchedule.eq2_terms` are the one Eq. (2) accounting that the
simulator and the models evaluate.

Every message from i to j is matched by one from j to i of equal
length, so all ``C_i`` are even, and divisible by 3 (three degrees of
freedom) — the invariants the paper points out under Figure 7.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.smvp.distribution import DataDistribution

#: Degrees of freedom (vector words) per mesh node.
WORDS_PER_NODE = 3

#: Bytes per 64-bit communication word.
BYTES_PER_WORD = 8


def node_dofs(nodes: np.ndarray) -> np.ndarray:
    """Flat dof indices (3 per node, node order) of ``nodes``."""
    return (3 * nodes[:, None] + np.arange(3)).ravel()


@dataclass(frozen=True)
class Message:
    """One directed block transfer in the exchange phase."""

    src: int
    dst: int
    nodes: int  # shared node count carried

    @property
    def words(self) -> int:
        return WORDS_PER_NODE * self.nodes

    @property
    def bytes(self) -> int:
        return BYTES_PER_WORD * self.words


class CommSchedule:
    """Per-SMVP communication schedule and its summary statistics."""

    def __init__(self, distribution: DataDistribution) -> None:
        self.distribution = distribution

    @property
    def num_parts(self) -> int:
        return self.distribution.num_parts

    @cached_property
    def messages(self) -> List[Message]:
        """All directed messages, both directions of every sharing pair."""
        out = []
        for (a, b), nodes in self.distribution.pair_shared_nodes.items():
            count = len(nodes)
            out.append(Message(src=a, dst=b, nodes=count))
            out.append(Message(src=b, dst=a, nodes=count))
        return out

    @cached_property
    def pairs(self) -> List[Tuple[int, int, np.ndarray, np.ndarray]]:
        """The pair table: per unordered sharing pair ``(a, b)``, in
        ``messages`` order, the shared dof rows local to ``a`` and to
        ``b`` (the same shared nodes, so entry k on each side is the
        same dof).  Built on the first request: per PE, one lookup of
        all its pairs' nodes in its local numbering
        (:meth:`~repro.smvp.distribution.DataDistribution.numbering`)."""
        dist = self.distribution
        shared = dist.pair_shared_nodes
        # (pair, side) of every pair on each PE, side 0 for a, 1 for b.
        on_pe: List[List[Tuple[int, int]]] = [[] for _ in range(self.num_parts)]
        for pair, (a, b) in enumerate(shared):
            on_pe[a].append((pair, 0))
            on_pe[b].append((pair, 1))
        nodes = list(shared.values())
        sides = [[None, None] for _ in nodes]
        for pe, wanted in enumerate(on_pe):
            if not wanted:
                continue
            lists = [nodes[pair] for pair, _ in wanted]
            with dist.numbering(pe) as local:
                dofs = node_dofs(local(np.concatenate(lists)).astype(np.int64))
            cuts = np.cumsum([3 * len(n) for n in lists[:-1]])
            for (pair, side), rows in zip(wanted, np.split(dofs, cuts)):
                sides[pair][side] = rows
        return [(a, b, *sides[pair]) for pair, (a, b) in enumerate(shared)]

    @cached_property
    def word_matrix(self) -> np.ndarray:
        """(p, p) dense array: words sent from PE i to PE j.

        Symmetric by construction; zero diagonal.  This is the matrix
        ``m`` of the paper's Section 4.2 bisection computation.
        """
        p = self.num_parts
        mat = np.zeros((p, p), dtype=np.int64)
        for msg in self.messages:
            mat[msg.src, msg.dst] = msg.words
        return mat

    @cached_property
    def words_per_pe(self) -> np.ndarray:
        """C_i: words sent plus received by each PE."""
        mat = self.word_matrix
        return mat.sum(axis=0) + mat.sum(axis=1)

    @cached_property
    def blocks_per_pe(self) -> np.ndarray:
        """B_i: messages sent plus received by each PE (maximal blocks)."""
        mat = self.word_matrix
        nonzero = mat > 0
        return (nonzero.sum(axis=0) + nonzero.sum(axis=1)).astype(np.int64)

    @cached_property
    def incoming_per_pe(self) -> np.ndarray:
        """Messages *received* by each PE per exchange (its queue depth).

        Every partial-sum block targeting a PE lands around the same
        time, so this is the depth of the receive queue each incoming
        message must be matched against — the quantity the queue-search
        contention model of Bienz, Gropp & Olson charges for.  Equal to
        half of ``blocks_per_pe`` (every pair exchanges both ways).
        """
        return (self.word_matrix > 0).sum(axis=0).astype(np.int64)

    @property
    def q_max(self) -> int:
        """Maximum incoming messages queued at any PE per exchange."""
        return int(self.incoming_per_pe.max()) if self.num_parts else 0

    @property
    def c_max(self) -> int:
        """Maximum words communicated by any PE."""
        return int(self.words_per_pe.max()) if self.num_parts else 0

    @property
    def b_max(self) -> int:
        """Maximum blocks communicated by any PE."""
        return int(self.blocks_per_pe.max()) if self.num_parts else 0

    @property
    def total_words(self) -> int:
        """Total words crossing the network per SMVP (all PEs)."""
        return int(self.word_matrix.sum())

    @property
    def total_blocks(self) -> int:
        """Total messages per SMVP."""
        return len(self.messages)

    @property
    def m_avg(self) -> float:
        """Average message size in words (total volume / total messages)."""
        blocks = self.total_blocks
        return self.total_words / blocks if blocks else 0.0

    def neighbors_of(self, part: int) -> np.ndarray:
        """PEs that exchange messages with ``part``, ascending."""
        mat = self.word_matrix
        return np.flatnonzero(mat[part] > 0)

    def comm_busy(self, machine, rhs: int = 1) -> np.ndarray:
        """Per-PE busy time of one exchange at block width ``rhs``:
        ``B_i T_l + C_i (T_w r)``, plus ``T_q q_i**2`` under contention
        (queue matching is per message, so that term ignores r)."""
        busy = self.blocks_per_pe * machine.tl + self.words_per_pe * (
            machine.tw * rhs
        )
        if machine.tq is not None:
            incoming = self.incoming_per_pe.astype(np.float64)
            busy = busy + machine.tq * incoming * incoming
        return busy

    def eq2_terms(self, machine, rhs: int = 1) -> Tuple[float, float]:
        """The paper's Equation (2) as its two terms, latency
        ``B_max T_l`` and bandwidth ``C_max (T_w r)``, in
        :meth:`comm_busy`'s float order."""
        return (
            float(self.b_max * machine.tl),
            float(self.c_max * (machine.tw * rhs)),
        )

    def bisection_words(self, boundary: Optional[int] = None) -> int:
        """Words crossing the PE-number bisection per SMVP.

        Counts both directions between PEs ``< boundary`` and PEs ``>=
        boundary`` (default: ``ceil(p/2)``).  Because the recursive
        partitioners number parts by bisection, with ``ceil(p/2)`` parts
        left of the root cut, the default boundary corresponds to the
        top-level geometric cut — the paper's Section 4.2 measure.
        """
        p = self.num_parts
        if boundary is None:
            boundary = (p + 1) // 2
        if not 0 <= boundary <= p:
            raise ValueError("boundary out of range")
        mat = self.word_matrix
        return int(
            mat[:boundary, boundary:].sum() + mat[boundary:, :boundary].sum()
        )


@dataclass(frozen=True)
class ScheduleDelta:
    """How the exchange schedule's model quantities moved across a
    reconfiguration (a PE eviction).

    Evicting a PE concentrates its rows and its shared-node traffic on
    the survivors, so ``C_max``/``B_max`` typically *rise* even though
    a PE left — the delta quantifies that against Eq. (2) and the β
    bound of :mod:`repro.stats.beta`.  ``pairs_removed`` and
    ``pairs_added`` count the communicating PE pairs that disappeared
    and appeared (in the *after* numbering, via the caller's id map):
    the dead PE's links go, and regrown adjacency among the survivors
    comes.
    """

    num_parts_before: int
    num_parts_after: int
    c_max_before: int
    c_max_after: int
    b_max_before: int
    b_max_after: int
    total_words_before: int
    total_words_after: int
    beta_before: float
    beta_after: float
    q_max_before: int = 0
    q_max_after: int = 0
    pairs_removed: int = 0
    pairs_added: int = 0


def schedule_delta(
    before: CommSchedule,
    after: CommSchedule,
    id_map: Optional[Dict[int, int]] = None,
) -> ScheduleDelta:
    """Summarize the model-quantity shift between two schedules.

    ``id_map`` maps *before* PE ids to *after* ids (an eviction's
    survivor map).  Pairs with an endpoint absent from the map (the
    dead PE's links) count as removed; pairs present only in the after
    schedule (regrown adjacency) count as added.  ``None`` means the
    identity map over the before ids.
    """
    # Local import: stats builds on smvp's schedule quantities, so the
    # module-level direction must stay smvp <- stats.
    from repro.stats.beta import beta_bound

    if id_map is None:
        id_map = {pe: pe for pe in range(before.num_parts)}
    mapped_before = set()
    dropped = 0
    for a, b, _, _ in before.pairs:
        if a in id_map and b in id_map:
            na, nb = id_map[a], id_map[b]
            mapped_before.add((min(na, nb), max(na, nb)))
        else:
            dropped += 1
    after_pairs = {(a, b) for a, b, _, _ in after.pairs}
    return ScheduleDelta(
        num_parts_before=before.num_parts,
        num_parts_after=after.num_parts,
        c_max_before=before.c_max,
        c_max_after=after.c_max,
        b_max_before=before.b_max,
        b_max_after=after.b_max,
        total_words_before=before.total_words,
        total_words_after=after.total_words,
        beta_before=beta_bound(before.words_per_pe, before.blocks_per_pe),
        beta_after=beta_bound(after.words_per_pe, after.blocks_per_pe),
        q_max_before=before.q_max,
        q_max_after=after.q_max,
        pairs_removed=dropped + len(mapped_before - after_pairs),
        pairs_added=len(after_pairs - mapped_before),
    )
