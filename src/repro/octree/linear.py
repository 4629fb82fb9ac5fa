"""A linear (pointerless) octree forest with vectorized refinement.

Cells are identified by ``(level, i, j, k)``: at level ``L`` the domain is
conceptually tiled by ``base_shape * 2**L`` cubic cells of edge length
``base_size / 2**L``, and ``(i, j, k)`` indexes into that tiling.  The
octree stores, per level, the integer coordinates of its *leaf* cells as a
``(n, 3)`` array; there are no per-cell Python objects anywhere, so
octrees with millions of leaves are cheap.

The domain need not be a cube: it is covered by a ``base_shape`` grid of
cubic root cells (e.g. the 50 km x 50 km x 10 km earth volume uses a
5 x 5 x 1 grid of 10 km roots), and all levels share a single global
integer coordinate system, so neighbor queries never need to know which
root a cell descends from.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Tuple

import numpy as np

from repro.geometry import AABB
from repro.util.keys import sorted_unique
from repro.velocity.sizing import SizingField

#: Bits reserved per axis in the packed cell key (supports coords < 2^21).
_KEY_BITS = 21
_KEY_MASK = (1 << _KEY_BITS) - 1

#: The 26 unit offsets to a cell's face/edge/corner neighbors.
_NEIGHBOR_OFFSETS = np.array(
    [
        (dx, dy, dz)
        for dx in (-1, 0, 1)
        for dy in (-1, 0, 1)
        for dz in (-1, 0, 1)
        if (dx, dy, dz) != (0, 0, 0)
    ],
    dtype=np.int64,
)

#: Child offsets within a split cell (bit d of the index selects axis d).
_CHILD_OFFSETS = np.array(
    [((c >> 0) & 1, (c >> 1) & 1, (c >> 2) & 1) for c in range(8)],
    dtype=np.int64,
)


#: The 9 sizing samples of a unit cell: its center, then its corners
#: pulled slightly inward so boundary cells sample inside the domain.
_SAMPLE_OFFSETS = np.vstack(
    [[0.5, 0.5, 0.5], _CHILD_OFFSETS * (1 - 2 * 1e-6) + 1e-6]
)


def encode_cells(coords: np.ndarray) -> np.ndarray:
    """Pack (n, 3) integer cell coordinates into sortable int64 keys."""
    c = np.asarray(coords, dtype=np.int64)
    if c.size and (c.min() < 0 or c.max() > _KEY_MASK):
        raise ValueError("cell coordinate out of key range")
    return (c[:, 0] << (2 * _KEY_BITS)) | (c[:, 1] << _KEY_BITS) | c[:, 2]


def _hash_unit(coords: np.ndarray, level: int, seed: int) -> np.ndarray:
    """Deterministic per-cell uniform draws in [0, 1) (splitmix64 mix)."""
    k = encode_cells(coords).astype(np.uint64)
    mask = (1 << 64) - 1
    salt = (((level + 1) * 0x9E3779B97F4A7C15) ^ ((seed + 1) * 0xBF58476D1CE4E5B9)) & mask
    k ^= np.uint64(salt)
    k = (k ^ (k >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    k = (k ^ (k >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    k = k ^ (k >> np.uint64(31))
    return k.astype(np.float64) / float(2**64)


def decode_cells(keys: np.ndarray) -> np.ndarray:
    """Inverse of :func:`encode_cells`; returns an (n, 3) int64 array."""
    k = np.asarray(keys, dtype=np.int64)
    out = np.empty((k.shape[0], 3), dtype=np.int64)
    out[:, 0] = k >> (2 * _KEY_BITS)
    out[:, 1] = (k >> _KEY_BITS) & _KEY_MASK
    out[:, 2] = k & _KEY_MASK
    return out


class LinearOctree:
    """Sizing-driven octree forest over a box domain.

    Construct with :meth:`build`, which refines until every leaf's edge
    length is no larger than the sizing field anywhere inside it, then
    call :meth:`balance` to enforce the 2:1 rule.

    Attributes
    ----------
    domain:
        The covered box.
    base_shape:
        Number of cubic root cells along each axis.
    base_size:
        Edge length of a root cell (m); all roots are cubes.
    levels:
        Mapping ``level -> (n, 3) int64 array`` of leaf coordinates.
    """

    def __init__(
        self,
        domain: AABB,
        base_shape: Tuple[int, int, int],
        levels: Optional[Dict[int, np.ndarray]] = None,
    ) -> None:
        self.domain = domain
        self.base_shape = tuple(int(b) for b in base_shape)
        if any(b < 1 for b in self.base_shape):
            raise ValueError("base_shape entries must be >= 1")
        sizes = domain.size / np.asarray(self.base_shape, dtype=float)
        if not np.allclose(sizes, sizes[0], rtol=1e-9):
            raise ValueError(
                f"base_shape {self.base_shape} does not tile domain "
                f"{domain.size} into cubes (cell sizes {sizes})"
            )
        self.base_size = float(sizes[0])
        if levels is None:
            roots = np.stack(
                np.meshgrid(
                    np.arange(self.base_shape[0]),
                    np.arange(self.base_shape[1]),
                    np.arange(self.base_shape[2]),
                    indexing="ij",
                ),
                axis=-1,
            ).reshape(-1, 3)
            levels = {0: roots.astype(np.int64)}
        self.levels: Dict[int, np.ndarray] = {
            int(l): np.asarray(c, dtype=np.int64).reshape(-1, 3)
            for l, c in levels.items()
            if len(c)
        }

    # -- construction -----------------------------------------------------

    @classmethod
    def for_domain(cls, domain: AABB, target_root_size: float) -> "LinearOctree":
        """Root forest whose cubes are as close as possible to a target size.

        Picks, for each axis, the cell count whose cube size divides the
        domain; raises if the domain aspect does not admit a common cube.
        """
        counts = np.maximum(1, np.rint(domain.size / target_root_size)).astype(int)
        return cls(domain, tuple(counts))

    @classmethod
    def build(
        cls,
        domain: AABB,
        sizing: SizingField,
        base_shape: Tuple[int, int, int],
        max_level: int = 12,
        size_factor: float = 1.0,
        dither: bool = False,
        dither_seed: int = 0,
    ) -> "LinearOctree":
        """Refine a fresh forest against ``sizing`` and 2:1-balance it.

        A cell is split while its edge length exceeds
        ``size_factor * min(h)`` over a 9-point sample (center plus
        corners) of the cell.
        """
        tree = cls(domain, base_shape)
        tree.refine(
            sizing,
            max_level=max_level,
            size_factor=size_factor,
            dither=dither,
            dither_seed=dither_seed,
        )
        tree.balance()
        return tree

    def refine(
        self,
        sizing: SizingField,
        max_level: int = 12,
        size_factor: float = 1.0,
        dither: bool = False,
        dither_seed: int = 0,
    ) -> None:
        """Split every leaf whose edge exceeds the local sizing target.

        With ``dither=True``, cells whose edge is between 0.5x and 1.0x
        the split threshold are additionally split with a probability
        that rises linearly across that band, decided by a deterministic
        hash of the cell coordinates (so the mesh is reproducible).
        Dithering removes the coarse count plateaus the power-of-two
        cell sizes otherwise impose, mimicking the mixed local densities
        of a Delaunay-refinement mesh and giving the calibration knob a
        continuous response.
        """
        if size_factor <= 0:
            raise ValueError("size_factor must be positive")
        level = 0
        while level <= max_level:
            coords = self.levels.get(level)
            if coords is None or len(coords) == 0:
                if level >= max(self.levels, default=0):
                    break
                level += 1
                continue
            size = self.cell_size(level)
            if level == max_level:
                break
            h_local = self._min_sizing_in_cells(sizing, coords, level)
            ratio = size / (size_factor * h_local)
            split = ratio > 1.0
            if dither:
                band = (ratio > 0.5) & ~split
                if np.any(band):
                    prob = 2.0 * ratio[band] - 1.0
                    draws = _hash_unit(coords[band], level, dither_seed)
                    band_split = np.zeros_like(split)
                    band_split[np.flatnonzero(band)[draws < prob]] = True
                    split = split | band_split
            if np.any(split):
                keep = coords[~split]
                children = self._children(coords[split])
                if len(keep):
                    self.levels[level] = keep
                else:
                    self.levels.pop(level, None)
                self._add_cells(level + 1, children)
            level += 1

    def _min_sizing_in_cells(
        self, sizing: SizingField, coords: np.ndarray, level: int
    ) -> np.ndarray:
        """Minimum of the sizing field over 9 sample points per cell, all
        ``9 n`` points in one sizing call (a minimum is exact in any
        order, and a NaN sample still makes the cell's minimum NaN)."""
        size = self.cell_size(level)
        lo = np.asarray(self.domain.lo) + coords * size
        pts = lo[None, :, :] + (_SAMPLE_OFFSETS * size)[:, None, :]
        h = sizing.h(pts.reshape(-1, 3)).reshape(len(_SAMPLE_OFFSETS), -1)
        return h.min(axis=0)

    @staticmethod
    def _children(coords: np.ndarray) -> np.ndarray:
        """All eight children of each cell, shape (8n, 3), at level+1."""
        doubled = coords * 2
        return (doubled[:, None, :] + _CHILD_OFFSETS[None, :, :]).reshape(-1, 3)

    def _add_cells(self, level: int, coords: np.ndarray) -> None:
        existing = self.levels.get(level)
        if existing is not None and len(existing):
            keys = np.concatenate([encode_cells(existing), encode_cells(coords)])
        else:
            keys = encode_cells(coords)
        self.levels[level] = decode_cells(sorted_unique(keys))

    # -- 2:1 balance ------------------------------------------------------

    def balance(self) -> int:
        """Enforce the 2:1 rule across faces, edges, and corners.

        After this call, any two leaves sharing a face, edge, or corner
        differ by at most one level.  Returns the number of splits
        performed.  Single descending sweep (splits only ever create
        cells at shallower levels than the one being processed, so one
        pass suffices — the classic linear-octree balance argument).

        Each level asks that the parents of its leaves' 26 neighbours
        exist as cells.  Those parents need no neighbours: write a leaf
        as ``c = 2 p + d`` with ``d`` in {0, 1}^3.  Along each axis a
        neighbour ``c_k + o_k`` (``o_k`` in {-1, 0, 1}) has parent
        ``p_k + ((d_k + o_k) >> 1)``, which is ``p_k`` or
        ``p_k + 2 d_k - 1`` — and ``p_k + 2 d_k - 1`` lies in the
        domain exactly when some neighbour reaching it does.  So the
        parents are ``p + e`` with each ``e_k`` in {0, 2 d_k - 1}: eight
        candidates per leaf (``p`` itself among them, reached by the
        neighbour whose every ``o_k`` points inward), bounds-tested at
        ``level - 1``.
        """
        if not self.levels:
            return 0
        splits = 0
        for level in range(max(self.levels), 1, -1):
            coords = self.levels.get(level)
            if coords is None or len(coords) == 0:
                continue
            targets = self._neighbor_parents(coords, level)
            splits += self._ensure_refined(targets, level - 1)
        return splits

    def _neighbor_parents(self, coords: np.ndarray, level: int) -> np.ndarray:
        """Parents (at level-1) of all in-bounds neighbors of ``coords``,
        from eight candidates per leaf (see :meth:`balance`)."""
        parents = coords >> 1
        step = 2 * (coords & 1) - 1
        shape = np.asarray(self.base_shape, dtype=np.int64) << (level - 1)
        reach = parents + step
        inside = (reach >= 0) & (reach < shape)
        # Candidate b steps along axis k when bit k of b is set; its key
        # is the parent's key plus the steps' keys (a step stays in its
        # field once the candidate is in bounds).
        key_step = step << np.array([2 * _KEY_BITS, _KEY_BITS, 0], dtype=np.int64)
        keys = np.empty((len(coords), 8), dtype=np.int64)
        ok = np.empty((len(coords), 8), dtype=bool)
        keys[:, 0] = encode_cells(parents)
        ok[:, 0] = True
        for axis in range(3):
            have, new = slice(0, 1 << axis), slice(1 << axis, 2 << axis)
            np.add(keys[:, have], key_step[:, axis, None], out=keys[:, new])
            np.logical_and(ok[:, have], inside[:, axis, None], out=ok[:, new])
        return decode_cells(sorted_unique(keys[ok]))

    def _ensure_refined(self, targets: np.ndarray, target_level: int) -> int:
        """Split leaves shallower than ``target_level`` that cover targets.

        ``targets`` are cells at ``target_level`` that must exist either
        as leaves or as internal (further subdivided) cells.
        """
        if len(targets) == 0:
            return 0
        splits = 0
        for level in range(0, target_level):
            leaves = self.levels.get(level)
            if leaves is None or len(leaves) == 0:
                continue
            shift = target_level - level
            ancestors = sorted_unique(encode_cells(targets >> shift))
            leaf_keys = encode_cells(leaves)
            at = np.searchsorted(ancestors, leaf_keys)
            to_split = ancestors[np.minimum(at, len(ancestors) - 1)] == leaf_keys
            if not np.any(to_split):
                continue
            splits += int(to_split.sum())
            keep = leaves[~to_split]
            children = self._children(leaves[to_split])
            if len(keep):
                self.levels[level] = keep
            else:
                self.levels.pop(level, None)
            self._add_cells(level + 1, children)
        return splits

    def is_balanced(self) -> bool:
        """Check the 2:1 invariant (used by tests)."""
        leaf_levels = sorted(self.levels)
        # Build a lookup of all leaf keys per level.
        keys = {l: np.sort(encode_cells(c)) for l, c in self.levels.items()}
        for level in leaf_levels:
            coords = self.levels[level]
            shape = np.asarray(self.base_shape, dtype=np.int64) * (1 << level)
            nbrs = (coords[:, None, :] + _NEIGHBOR_OFFSETS[None, :, :]).reshape(-1, 3)
            inside = np.all((nbrs >= 0) & (nbrs < shape), axis=1)
            nbrs = nbrs[inside]
            # A neighbor region is covered by some leaf at level' where
            # |level' - level| must be <= 1.  Violations are leaves at
            # level' <= level - 2 containing a neighbor.
            for shallow in range(0, level - 1):
                if shallow not in keys:
                    continue
                anc = encode_cells(nbrs >> (level - shallow))
                if np.any(np.isin(anc, keys[shallow])):
                    return False
        return True

    # -- queries ----------------------------------------------------------

    def cell_size(self, level: int) -> float:
        """Edge length (m) of cells at ``level``."""
        return self.base_size / (1 << level)

    @property
    def leaf_count(self) -> int:
        return sum(len(c) for c in self.levels.values())

    @property
    def max_level(self) -> int:
        return max(self.levels) if self.levels else 0

    def iter_leaves(self) -> Iterator[Tuple[int, np.ndarray]]:
        """Yield ``(level, coords)`` pairs, shallow levels first."""
        for level in sorted(self.levels):
            yield level, self.levels[level]

    def leaf_centers_and_sizes(self) -> Tuple[np.ndarray, np.ndarray]:
        """Physical centers (n, 3) and edge lengths (n,) of all leaves."""
        centers = []
        sizes = []
        lo = np.asarray(self.domain.lo)
        for level, coords in self.iter_leaves():
            s = self.cell_size(level)
            centers.append(lo + (coords + 0.5) * s)
            sizes.append(np.full(len(coords), s))
        if not centers:
            return np.empty((0, 3)), np.empty(0)
        return np.vstack(centers), np.concatenate(sizes)
