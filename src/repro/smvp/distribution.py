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
from typing import Dict, List, Tuple

import numpy as np
import scipy.sparse as sp

from repro.geometry.tetra import TET_EDGES
from repro.mesh.core import TetMesh
from repro.partition.base import Partition, PartitionError
from repro.partition.metrics import node_part_incidence
from repro.util.keys import run_starts, sorted_unique
from repro.util.native import native
from repro.util.numbering import local_numbering


class DataDistribution:
    """Residency maps induced by an element partition.

    Parameters
    ----------
    mesh:
        The global mesh.
    partition:
        Element-to-PE assignment with ``num_parts`` PEs, every one of
        which owns an element (else
        :class:`~repro.partition.base.PartitionError` names the first
        empty PE).
    """

    def __init__(self, mesh: TetMesh, partition: Partition) -> None:
        if partition.num_elements != mesh.num_elements:
            raise ValueError("partition does not match mesh")
        # An empty PE would drop out of the exchange and skew every
        # per-PE maximum the model reads.
        empty = np.flatnonzero(partition.part_sizes() == 0)
        if empty.size:
            raise PartitionError(
                f"PE {int(empty[0])} owns no elements "
                f"({empty.size} of {partition.num_parts} PEs are empty)"
            )
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
        return np.diff(self.node_parts.indptr).astype(np.int64, copy=False)

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
        """Element indices owned by one PE, ascending."""
        return self.partition.elements_of(part)

    def elements_by_part(self) -> List[np.ndarray]:
        """Every PE's :meth:`local_elements` at once: one stable grouping
        of the partition's labels, split by part, rather than one scan
        per PE.  Not kept: views of one array, freed with the list."""
        parts = self.partition.parts
        order = np.argsort(parts, kind="stable")
        sizes = np.bincount(parts, minlength=self.num_parts)
        return np.split(order, np.cumsum(sizes)[:-1])

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

    def numbering(self, part: int):
        """PE ``part``'s local numbering as a context manager: the
        lookup ``local(global_nodes) -> positions`` in the sorted
        ``local_nodes(part)``, through the one reusable dense map of
        :func:`~repro.util.numbering.local_numbering`.  ``ValueError``
        ("node not resident on PE ...") for an id outside the mesh's
        nodes or not resident on the PE, or a ``local_nodes`` that is
        not strictly ascending."""
        return local_numbering(
            self.mesh.num_nodes,
            self._part_nodes[part],
            f"node not resident on PE {part}",
        )

    def global_to_local(self, part: int, global_nodes: np.ndarray) -> np.ndarray:
        """Map global node indices to a PE's local numbering.

        The local numbering is the position within the sorted
        ``local_nodes(part)`` array.  Raises ``ValueError`` if a node
        does not reside on the PE (:meth:`numbering`).
        """
        with self.numbering(part) as local:
            return local(global_nodes).astype(np.int64)

    # -- per-PE structural counts -------------------------------------------

    @cached_property
    def _edge_counts(self) -> Tuple[np.ndarray, np.ndarray]:
        """Per-PE local edges, and per-PE edge blocks in shared rows.

        One pass over the partition, no per-PE loop.  A node of
        residency 1 has all its elements on one PE, so an edge with such
        an endpoint lies on that PE only.  An edge with both endpoints
        shared lies on every PE owning an element that holds both.

        The second array counts, per PE, the off-diagonal blocks that
        land in shared rows: an edge adds one per shared endpoint on
        each PE it lies on (1 for a residency-1 edge with a shared
        other end, 2 for a both-shared edge).

        Compiled (``edge_counts`` in ``fem/assembly.c``): the residency-1
        ends' rows of the cached ``mesh.node_graph`` count the first
        kind, and the elements with two or more shared corners, grouped
        by part, stamp each both-shared edge's slot in that graph with
        the last PE that counted it, so no corner gather and no sort
        runs.  For a graph or elements it does not take (int64 ids, a
        non-contiguous ``tets``), :meth:`_edge_counts_numpy`, the same
        arrays.
        """
        graph = self.mesh.node_graph
        tets, parts = self.mesh.tets, self.partition.parts
        if (
            graph.nbr.dtype == np.int32
            and len(tets) < 2**31
            and tets.dtype == np.int64
            and tets.flags.c_contiguous
        ):
            ffi, lib = native()
            buf = ffi.from_buffer
            p, csr = self.num_parts, self.node_parts
            shared = (self.node_residency >= 2).view(np.uint8)
            edges = np.empty(p, dtype=np.int64)
            blocks = np.empty(p, dtype=np.int64)
            bad = lib.edge_counts(
                self.mesh.num_nodes, len(tets), buf("int64_t[]", tets),
                buf("int32_t[]", np.ascontiguousarray(parts, np.int32)), p,
                buf("uint8_t[]", shared),
                buf("int64_t[]", np.asarray(csr.indptr, np.int64)),
                buf("int32_t[]", np.asarray(csr.indices, np.int32)),
                buf("int64_t[]", graph.ptr), buf("int32_t[]", graph.nbr),
                buf("int64_t[]", np.empty(p + 1, np.int64)),
                buf("int32_t[]", np.empty(len(tets), np.int32)),
                buf("int32_t[]", np.empty(len(graph.nbr), np.int32)),
                buf("int64_t[]", edges), buf("int64_t[]", blocks),
            )
            if bad == 0:
                return edges, blocks
        return self._edge_counts_numpy()

    def _edge_counts_numpy(self) -> Tuple[np.ndarray, np.ndarray]:
        """:attr:`_edge_counts` in numpy: one ``bincount`` over
        ``mesh.edges`` for the edges with a residency-1 end, and the
        distinct ``(edge, PE)`` pairs of the both-shared ones from one
        sort (:func:`~repro.util.keys.sorted_unique`) over the elements
        with two or more shared corners.  The compiled walk's oracle."""
        p = self.num_parts
        shared = self.node_residency >= 2
        csr = self.node_parts
        i, j = self.mesh.edges[:, 0], self.mesh.edges[:, 1]
        i_shared, j_shared = shared[i], shared[j]
        # The residency-1 endpoint (i when both are) names the PE: the
        # one entry of its residency row.
        exclusive = ~(i_shared & j_shared)
        anchor = np.where(i_shared, j, i)[exclusive]
        single_pe = csr.indices[csr.indptr[anchor]]
        one_shared = (i_shared ^ j_shared)[exclusive]

        tets = self.mesh.tets
        candidates = np.flatnonzero(shared[tets].sum(axis=1) >= 2)
        # (element, edge) corner pairs with both ends shared, as ranks
        # among the shared nodes, so a (node pair, PE) key stays far
        # inside int64 on any mesh.
        rank = np.cumsum(shared) - 1
        num_shared = int(np.count_nonzero(shared))
        ends = tets[candidates][:, TET_EDGES]
        both = shared[ends].all(axis=2)
        u, v = rank[ends[..., 0][both]], rank[ends[..., 1][both]]
        pes = np.broadcast_to(
            self.partition.parts[candidates, None], both.shape
        )
        keys = np.minimum(u, v) * num_shared + np.maximum(u, v)
        pair_pe = sorted_unique(keys * p + pes[both]) % p

        on_pair = np.bincount(pair_pe, minlength=p)
        edges = np.bincount(single_pe, minlength=p) + on_pair
        blocks = np.bincount(single_pe[one_shared], minlength=p) + 2 * on_pair
        return edges, blocks

    @cached_property
    def local_counts(self) -> Dict[str, np.ndarray]:
        """Per-PE structural sizes: nodes, edges, elements, nonzeros, flops.

        ``nonzeros[p]`` is the nonzero count of PE p's local 3n x 3n
        stiffness matrix: 9 * (local_nodes + 2 * local_edges) (one 3x3
        block per node and per edge direction).  ``flops[p] = 2 *
        nonzeros[p]`` — one multiply and one add per nonzero, the
        paper's F.  Nodes are the residency matrix's column counts,
        elements the partition's part sizes and edges one vectorized
        pass (``_edge_counts``); no per-PE sub-mesh is formed.
        """
        p = self.num_parts
        nodes = np.bincount(self.node_parts.indices, minlength=p)
        edges = self._edge_counts[0]
        elements = self.partition.part_sizes()
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
        that.  The off-diagonal blocks in shared rows come from the
        same pass as the edge counts (``_edge_counts``).
        """
        csr = self.node_parts
        shared_entries = np.repeat(
            self.node_residency >= 2, np.diff(csr.indptr)
        )
        shared_local = np.bincount(
            csr.indices[shared_entries], minlength=self.num_parts
        )
        return 2 * 9 * (shared_local + self._edge_counts[1])

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

        Only pairs that actually share nodes appear, in ascending pair
        order.  Both PEs of a pair use the same (sorted) list, which is
        what lets the exchange phase match send and receive buffers
        entry by entry.  Built without a per-node loop: shared nodes are
        grouped by residency r, each group's sorted PE lists form an
        (n_r, r) table, every column pair gives one ``(a, b)`` key per
        node, and one ``lexsort`` by (key, node) orders them for a split.
        """
        p = self.num_parts
        csr = self.node_parts
        residency = self.node_residency
        key_parts, node_parts = [], []
        for r in sorted_unique(residency[residency >= 2]).tolist():
            nodes = np.flatnonzero(residency == r)
            table = np.sort(
                csr.indices[csr.indptr[nodes][:, None] + np.arange(r)], axis=1
            ).astype(np.int64)
            a, b = np.triu_indices(r, 1)
            key_parts.append((table[:, a] * p + table[:, b]).ravel())
            node_parts.append(np.repeat(nodes, len(a)))
        if not key_parts:
            return {}
        keys = np.concatenate(key_parts)
        nodes = np.concatenate(node_parts)
        order = np.lexsort((nodes, keys))
        keys, nodes = keys[order], nodes[order]
        starts = run_starts(keys)
        pair_keys = keys[starts].tolist()
        return {
            (key // p, key % p): group
            for key, group in zip(pair_keys, np.split(nodes, starts[1:]))
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
    the lighter, then lower-numbered, PE), the classic greedy
    graph-growing idiom seeded from the survivor layout instead of from
    a single element.  Orphan islands with no surviving
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
