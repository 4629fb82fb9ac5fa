"""Data distribution for the parallel SMVP.

Implements the storage scheme of the paper's Section 2.3 / Figure 3:

* every element belongs to exactly one PE (the partition);
* a node resides on every PE owning an element that touches it; nodes
  touched by several PEs are *shared* and their vector entries are
  replicated;
* the stiffness block ``K_ij`` resides on every PE where nodes i and j
  both reside — concretely, each PE assembles its local matrix from its
  own elements only, so shared blocks hold partial sums that the
  communication phase completes.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from repro.analysis.contracts import check_partition_cover_contract
from repro.mesh.core import TetMesh
from repro.mesh.topology import unique_edges
from repro.partition.base import Partition
from repro.partition.metrics import node_part_incidence


class DataDistribution:
    """Residency maps induced by an element partition.

    Parameters
    ----------
    mesh:
        The global mesh.
    partition:
        Element-to-PE assignment with ``num_parts`` PEs.
    """

    def __init__(self, mesh: TetMesh, partition: Partition) -> None:
        if partition.num_elements != mesh.num_elements:
            raise ValueError("partition does not match mesh")
        check_partition_cover_contract(partition, mesh)
        self.mesh = mesh
        self.partition = partition

    @property
    def num_parts(self) -> int:
        return self.partition.num_parts

    # -- residency ---------------------------------------------------------

    @cached_property
    def node_parts(self) -> sp.csr_matrix:
        """Boolean (num_nodes, num_parts) residency matrix."""
        return node_part_incidence(self.mesh, self.partition)

    @cached_property
    def node_residency(self) -> np.ndarray:
        """Number of PEs each node resides on (>= 1)."""
        return np.asarray(self.node_parts.sum(axis=1)).ravel().astype(np.int64)

    @cached_property
    def shared_nodes(self) -> np.ndarray:
        """Global indices of nodes residing on two or more PEs."""
        return np.flatnonzero(self.node_residency >= 2)

    @cached_property
    def exclusive_nodes(self) -> List[np.ndarray]:
        """Per-PE sorted global indices of nodes residing *only* there.

        These are the rows whose vector state is unrecoverable from
        other PEs when a PE dies — the rows the resilience layer's
        shadow store (or a checkpoint) must cover.
        """
        single = self.node_residency == 1
        return [
            nodes[single[nodes]] for nodes in self._part_nodes
        ]

    @cached_property
    def ownership_hash(self) -> int:
        """CRC-32 fingerprint of (num_parts, per-node owner).

        The owner of a node is its lowest resident PE — the same rule
        the executor's gather uses.  Checkpoints embed this hash so a
        restore onto a different distribution (different PE count, or
        the same count with different row ownership, e.g. after an
        eviction) is detected instead of silently mis-splicing.
        """
        csr = self.node_parts.tocsr()
        counts = np.diff(csr.indptr)
        owner = np.full(self.mesh.num_nodes, -1, dtype=np.int64)
        resident = counts > 0
        owner[resident] = csr.indices[csr.indptr[:-1][resident]]
        return zlib.crc32(
            np.int64(self.num_parts).tobytes() + owner.tobytes()
        )

    def local_elements(self, part: int) -> np.ndarray:
        """Element indices owned by one PE."""
        return self.partition.elements_of(part)

    @cached_property
    def _part_nodes(self) -> List[np.ndarray]:
        """Per-PE sorted global node index arrays."""
        csc = self.node_parts.tocsc()
        out = []
        for part in range(self.num_parts):
            nodes = csc.indices[csc.indptr[part] : csc.indptr[part + 1]]
            out.append(np.sort(nodes.astype(np.int64)))
        return out

    def local_nodes(self, part: int) -> np.ndarray:
        """Sorted global indices of the nodes residing on one PE."""
        return self._part_nodes[part]

    def global_to_local(self, part: int, global_nodes: np.ndarray) -> np.ndarray:
        """Map global node indices to a PE's local numbering.

        The local numbering is the position within the sorted
        ``local_nodes(part)`` array.  Raises if a node does not reside
        on the PE.
        """
        local = self._part_nodes[part]
        pos = np.searchsorted(local, global_nodes)
        if np.any(pos >= len(local)) or np.any(local[np.minimum(pos, len(local) - 1)] != global_nodes):
            raise ValueError(f"node not resident on PE {part}")
        return pos

    # -- per-PE structural counts -------------------------------------------

    @cached_property
    def local_counts(self) -> Dict[str, np.ndarray]:
        """Per-PE structural sizes: nodes, edges, elements, nonzeros, flops.

        ``nonzeros[p]`` is the nonzero count of PE p's local 3n x 3n
        stiffness matrix: 9 * (local_nodes + 2 * local_edges) (one 3x3
        block per node and per edge direction).  ``flops[p] = 2 *
        nonzeros[p]`` — one multiply and one add per nonzero, the
        paper's F.
        """
        p = self.num_parts
        nodes = np.zeros(p, dtype=np.int64)
        edges = np.zeros(p, dtype=np.int64)
        elements = np.zeros(p, dtype=np.int64)
        tets = self.mesh.tets
        for part in range(p):
            elem_ids = self.local_elements(part)
            elements[part] = len(elem_ids)
            nodes[part] = len(self._part_nodes[part])
            edges[part] = len(unique_edges(tets[elem_ids]))
        nonzeros = 9 * (nodes + 2 * edges)
        return {
            "nodes": nodes,
            "edges": edges,
            "elements": elements,
            "nonzeros": nonzeros,
            "flops": 2 * nonzeros,
        }

    @cached_property
    def boundary_flops(self) -> np.ndarray:
        """Per-PE flops on matrix rows of *shared* nodes, exactly.

        These are the flops that must complete before the exchange
        phase can start when overlapping communication with interior
        computation (the paper's footnote-1 modification; consumed by
        the BSP simulator's overlap mode).  A shared local node's three
        rows hold ``9 * (1 + local_degree)`` nonzeros; flops are twice
        that.
        """
        p = self.num_parts
        shared_mask = self.node_residency >= 2
        tets = self.mesh.tets
        out = np.zeros(p, dtype=np.int64)
        for part in range(p):
            elem_ids = self.local_elements(part)
            edges = unique_edges(tets[elem_ids])
            local_nodes = self._part_nodes[part]
            shared_local = shared_mask[local_nodes].sum()
            # An edge (i, j) contributes one off-diagonal block to row i
            # and one to row j; blocks landing in shared rows are the
            # (edge, shared-endpoint) incidences.
            blocks_in_shared_rows = int(shared_mask[edges].sum())
            nnz_shared = 9 * (shared_local + blocks_in_shared_rows)
            out[part] = 2 * nnz_shared
        return out

    @cached_property
    def pair_shared_counts(self) -> sp.csr_matrix:
        """(p, p) matrix: entry (i, j) = number of nodes shared by PEs i, j.

        The diagonal holds each PE's resident node count.
        """
        inc = self.node_parts.astype(np.int64)
        return (inc.T @ inc).tocsr()

    @cached_property
    def pair_shared_nodes(self) -> Dict[Tuple[int, int], np.ndarray]:
        """Sorted global node lists for each unordered PE pair (i < j).

        Only pairs that actually share nodes appear.  Both PEs of a pair
        use the same (sorted) list, which is what lets the exchange
        phase match send and receive buffers entry by entry.
        """
        csr = self.node_parts.tocsr()
        indptr, indices = csr.indptr, csr.indices
        out: Dict[Tuple[int, int], List[int]] = {}
        for node in self.shared_nodes:
            parts = indices[indptr[node] : indptr[node + 1]]
            for a in range(len(parts)):
                for b in range(a + 1, len(parts)):
                    key = (int(parts[a]), int(parts[b]))
                    out.setdefault(key, []).append(int(node))
        return {
            key: np.array(nodes, dtype=np.int64)
            for key, nodes in sorted(out.items())
        }


@dataclass(frozen=True)
class EvictionRedistribution:
    """How a dead PE's elements were regrown onto the survivors.

    ``survivor_map`` maps old PE ids to the compacted P-1 numbering;
    ``affinity_flops`` counts the (node, candidate-part) affinity
    additions the regrowth performed — the work term of the
    reconfiguration cost model.
    """

    dead_pe: int
    orphan_elements: int
    waves: int
    affinity_flops: int
    reseeded_islands: int
    survivor_map: Dict[int, int]


def redistribute_after_eviction(
    mesh: TetMesh, partition: Partition, dead_pe: int
) -> Tuple[Partition, EvictionRedistribution]:
    """Rebuild a P-1 partition after a permanent PE failure.

    The survivors keep every element they already own — their local
    matrices, kernel states, and checkpointed rows stay valid — and
    the dead PE's elements are regrown onto them in deterministic BFS
    waves: each wave assigns every orphan element that touches surviving
    territory to the survivor sharing the most of its nodes (ties to
    the lighter, then lower-numbered, PE), exactly the greedy-growing
    idiom of :mod:`repro.partition.growing` seeded from the survivor
    layout instead of from scratch.  Orphan islands with no surviving
    contact (a PE dead in the mesh interior) are reseeded on the
    least-loaded survivor.  Part numbers are then compacted to
    ``0 .. P-2`` preserving survivor order.
    """
    p = partition.num_parts
    if not 0 <= dead_pe < p:
        raise ValueError(f"dead PE {dead_pe} out of range for {p} parts")
    if p < 2:
        raise ValueError("cannot evict the last surviving PE")
    parts = partition.parts.astype(np.int64)
    orphans = np.flatnonzero(parts == dead_pe)
    parts = parts.copy()
    tets = mesh.tets
    # Node -> part coverage of the *current* assignment, survivors only;
    # dense (num_nodes, p) bool is fine at eviction frequency.
    inc = node_part_incidence(mesh, partition).toarray().astype(bool)
    inc[:, dead_pe] = False
    loads = np.bincount(parts[parts != dead_pe], minlength=p)
    survivors = np.array(
        [q for q in range(p) if q != dead_pe], dtype=np.int64
    )

    remaining = [int(e) for e in orphans]
    waves = 0
    flops = 0
    islands = 0
    while remaining:
        waves += 1
        assigned: List[Tuple[int, int]] = []
        next_remaining: List[int] = []
        for e in remaining:
            nodes = tets[e]
            affinity = inc[nodes].sum(axis=0)
            flops += 4 * p
            best = int(affinity.max())
            if best == 0:
                next_remaining.append(e)
                continue
            cand = np.flatnonzero(affinity == best)
            # Ties: lighter survivor first, then lower PE number.
            chosen = int(cand[np.lexsort((cand, loads[cand]))[0]])
            assigned.append((e, chosen))
        if not assigned:
            # A disconnected orphan island: reseed its lowest-numbered
            # element on the least-loaded survivor and keep growing.
            islands += 1
            e = next_remaining.pop(0)
            chosen = int(
                survivors[np.lexsort((survivors, loads[survivors]))[0]]
            )
            assigned.append((e, chosen))
        # Frontier semantics: updates land after the wave, so the
        # result does not depend on within-wave iteration order.
        for e, chosen in assigned:
            parts[e] = chosen
            loads[chosen] += 1
            inc[tets[e], chosen] = True
        remaining = next_remaining

    remap = np.full(p, -1, dtype=np.int64)
    remap[survivors] = np.arange(p - 1)
    new_partition = Partition(
        remap[parts].astype(np.int32),
        p - 1,
        method=f"{partition.method}-evict{dead_pe}",
    )
    return new_partition, EvictionRedistribution(
        dead_pe=dead_pe,
        orphan_elements=int(len(orphans)),
        waves=waves,
        affinity_flops=flops,
        reseeded_islands=islands,
        survivor_map={int(q): int(remap[q]) for q in survivors},
    )


@dataclass(frozen=True)
class AdditionRedistribution:
    """How a fresh PE's region was peeled off the heaviest donors.

    The inverse record of :class:`EvictionRedistribution`: ``new_pe``
    is the added part id (always the old ``num_parts`` — existing ids
    are stable, so no survivor map is needed), ``donor_counts`` maps
    each donor PE to the elements it ceded, and ``affinity_flops``
    counts the (element, frontier) affinity additions — the work term
    of the reconfiguration cost model.
    """

    new_pe: int
    moved_elements: int
    waves: int
    affinity_flops: int
    target_size: int
    donor_counts: Dict[int, int]


def redistribute_after_addition(
    mesh: TetMesh, partition: Partition, target_size: Optional[int] = None
) -> Tuple[Partition, AdditionRedistribution]:
    """Grow a P+1 partition online by peeling a region for a new PE.

    The mirror image of :func:`redistribute_after_eviction`: every
    existing PE keeps its id (so quarantine sets, health records, and
    kernel state need no renumbering) and keeps every element it does
    not cede, and the new PE ``P`` is grown in deterministic BFS-
    affinity waves seeded on the heaviest donor.  Each wave considers
    the elements adjacent to the new PE's territory whose owner is
    still above the post-growth ideal load, assigns the highest-
    affinity candidates first (ties to the lower element id), and
    expands the frontier only between waves — the same greedy-growing
    idiom, run in reverse.  When the connected wave stalls (every
    adjacent donor at the floor) it re-seeds on the heaviest remaining
    donor, so growth reaches ``target_size`` (default: the post-growth
    ideal ``E // (P+1)``) whenever the donors collectively have that
    much surplus above the ideal.
    """
    p = partition.num_parts
    parts = partition.parts.astype(np.int64).copy()
    total = parts.size
    ideal = total // (p + 1)
    if target_size is None:
        target_size = ideal
    if target_size < 1:
        raise ValueError(
            f"cannot grow: {total} elements across {p + 1} PEs leaves "
            "no room for a new region"
        )
    if target_size > total - p:
        raise ValueError(
            f"target_size {target_size} would empty a donor "
            f"({total} elements on {p} PEs)"
        )
    loads = np.bincount(parts, minlength=p + 1).astype(np.int64)
    floor = max(ideal, 1)
    tets = mesh.tets
    order_key = np.lexsort((np.arange(p), -loads[:p]))
    heaviest = int(order_key[0])
    if loads[heaviest] <= floor:
        raise ValueError(
            "partition too small to peel a new PE: every donor is "
            f"already at or below the post-growth ideal of {floor} "
            "elements"
        )
    new_pe = p
    # Seed: the heaviest donor's lowest-numbered element.
    seed = int(partition.elements_of(heaviest)[0])
    in_new = np.zeros(mesh.num_nodes, dtype=bool)
    parts[seed] = new_pe
    loads[heaviest] -= 1
    loads[new_pe] += 1
    in_new[tets[seed]] = True
    donor_counts: Dict[int, int] = {heaviest: 1}
    moved = 1
    waves = 0
    flops = 0
    while moved < target_size:
        waves += 1
        # Frontier: elements touching the new territory, owned by a
        # donor that can still cede without dropping below the ideal.
        affinity = in_new[tets].sum(axis=1)
        flops += 4 * int(total)
        eligible = np.flatnonzero(
            (affinity > 0) & (parts != new_pe) & (loads[parts] > floor)
        )
        if eligible.size == 0:
            # The connected wave stalled: every donor adjacent to the
            # new territory is at the floor.  Re-seed on the heaviest
            # donor that still has surplus (ties to the lower PE id,
            # lowest element id within it) — the new region may become
            # more than one component, but the floor guarantee holds
            # and the target is still reached deterministically.
            surplus = np.flatnonzero(loads[:p] > floor)
            if surplus.size == 0:
                break
            donor = int(
                surplus[np.lexsort((surplus, -loads[surplus]))[0]]
            )
            reseed = int(np.flatnonzero(parts == donor)[0])
            parts[reseed] = new_pe
            loads[donor] -= 1
            loads[new_pe] += 1
            donor_counts[donor] = donor_counts.get(donor, 0) + 1
            in_new[tets[reseed]] = True
            moved += 1
            continue
        # Highest affinity first, ties to the lower element id;
        # frontier (``in_new``) expands only after the wave, donor
        # loads update live so the floor is never crossed.
        order = eligible[np.lexsort((eligible, -affinity[eligible]))]
        taken: List[int] = []
        for e in order:
            if moved >= target_size:
                break
            owner = int(parts[e])
            if loads[owner] <= floor:
                continue
            parts[e] = new_pe
            loads[owner] -= 1
            loads[new_pe] += 1
            donor_counts[owner] = donor_counts.get(owner, 0) + 1
            taken.append(int(e))
            moved += 1
        if not taken:
            break
        for e in taken:
            in_new[tets[e]] = True
    new_partition = Partition(
        parts.astype(np.int32),
        p + 1,
        method=f"{partition.method}+grow{new_pe}",
    )
    return new_partition, AdditionRedistribution(
        new_pe=new_pe,
        moved_elements=moved,
        waves=waves,
        affinity_flops=flops,
        target_size=int(target_size),
        donor_counts={
            int(pe): int(n) for pe, n in sorted(donor_counts.items())
        },
    )
