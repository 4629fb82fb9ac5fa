"""Direct conforming tetrahedralization of a balanced octree.

Qhull's divide-and-conquer degrades badly on point sets with the
200:1 density contrast our wavelength grading produces (tens of seconds
for 25k points, unusable at the sf2/sf1 scales), so large meshes are
built by *stuffing* the balanced octree with tetrahedra directly — the
same family of technique the Quake project itself later adopted for its
octree-based meshers.

Scheme
------
Nodes are (a) every leaf-cell corner and (b) every leaf-cell center.
Each leaf is tetrahedralized by triangulating each of its six faces and
coning the triangles to the cell center.  Conformity between neighboring
leaves reduces to both sides triangulating the shared face identically,
which is guaranteed by making the face triangulation a function of the
face alone:

* Each face knows which of its nine lattice positions (4 corners, 4 edge
  midpoints, 1 center) exist as mesh nodes.  Midpoints/centers appear
  exactly where finer neighbors contribute their corners (the 2:1
  balance, enforced over faces *and* edges *and* vertices, means no
  other hanging positions can occur).
* If the face center exists, fan around it.
* Else if any edge midpoint exists, fan around the first present
  midpoint in canonical order (skipping collinear triangles).
* Else split along the diagonal through the face's unique corner with
  odd coordinates in units of the face size.  The odd-odd rule is what
  makes coarse-against-fine faces agree: the center of a coarse face is
  always the odd-odd corner of each quarter face, so the coarse fan and
  the fine cells' diagonals coincide.

Each level of leaves looks its 27 lattice positions (corners, edge
midpoints, face centers, cell center) up in the sorted node keys once;
every face's pattern and triangles read that lookup.  The tets are
counted first and then written once into one (m, 4) array, in the
order level, face, template group, leaf, triangle.

A deterministic post-jitter moves nodes off the lattice (making the mesh
statistics behave like a genuinely unstructured mesh) while provably
keeping every element positively oriented: jitter that inverts an
element is withdrawn node by node.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.geometry import tet_signed_volumes
from repro.mesh.core import TetMesh
from repro.octree.linear import LinearOctree
from repro.util.keys import run_starts

# ---------------------------------------------------------------------------
# Face lattice positions, in (u, v) units of half the face size (H = S/2):
#   0..3 corners, 4..7 edge midpoints (bottom, right, top, left), 8 center.
_POS_UV = np.array(
    [
        (0, 0),  # 0 corner (0,0)
        (2, 0),  # 1 corner (S,0)
        (2, 2),  # 2 corner (S,S)
        (0, 2),  # 3 corner (0,S)
        (1, 0),  # 4 midpoint bottom
        (2, 1),  # 5 midpoint right
        (1, 2),  # 6 midpoint top
        (0, 1),  # 7 midpoint left
        (1, 1),  # 8 center
    ],
    dtype=np.int64,
)

#: Boundary cycle of the face (counter-clockwise in (u, v)).
_CYCLE = (0, 4, 1, 5, 2, 6, 3, 7)


def _collinear(a: int, b: int, c: int) -> bool:
    """Whether three lattice positions lie on one line (degenerate tri)."""
    pa, pb, pc = _POS_UV[a], _POS_UV[b], _POS_UV[c]
    return (pb[0] - pa[0]) * (pc[1] - pa[1]) == (pb[1] - pa[1]) * (pc[0] - pa[0])


def _face_template(pattern: int, anti_diagonal: bool) -> Tuple[Tuple[int, int, int], ...]:
    """Triangulation of a face, as triples of lattice-position labels.

    ``pattern`` is a 5-bit mask over (m_bottom, m_right, m_top, m_left,
    center) presence; ``anti_diagonal`` selects the diagonal when
    ``pattern == 0`` (ignored otherwise).
    """
    present_mid = [p for bit, p in enumerate((4, 5, 6, 7)) if pattern & (1 << bit)]
    has_center = bool(pattern & (1 << 4))
    boundary = [p for p in _CYCLE if p < 4 or p in present_mid]
    if has_center:
        pivot = 8
        ring = boundary
    elif present_mid:
        pivot = present_mid[0]
        k = boundary.index(pivot)
        ring = boundary[k:] + boundary[:k]
        ring = ring[1:]  # fan over the others, cyclically from the pivot
        tris = []
        for a, b in zip(ring, ring[1:]):
            if not _collinear(pivot, a, b):
                tris.append((pivot, a, b))
        return tuple(tris)
    else:
        if anti_diagonal:
            return ((1, 2, 3), (1, 3, 0))
        return ((0, 1, 2), (0, 2, 3))
    tris = []
    n = len(ring)
    for i in range(n):
        a, b = ring[i], ring[(i + 1) % n]
        if not _collinear(pivot, a, b):
            tris.append((pivot, a, b))
    return tuple(tris)


def _build_templates() -> Dict[Tuple[int, bool], np.ndarray]:
    templates = {}
    for pattern in range(32):
        for anti in (False, True):
            tris = _face_template(pattern, anti)
            templates[(pattern, anti)] = np.array(tris, dtype=np.int64)
    return templates


_TEMPLATES = _build_templates()

#: For each axis, the two in-face axes (u, v), chosen canonically.
_FACE_AXES = {0: (1, 2), 1: (0, 2), 2: (0, 1)}

#: Bits per axis in a lattice key.
_KEY_BITS = 21

#: A leaf's 27 lattice positions, offsets (i, j, k) in {0, 1, 2}^3 in
#: units of half its size, at ``9 i + 3 j + k``: corners, edge
#: midpoints, face centers and (13) the cell center.
_CELL_CENTER = 13
_OFFSETS27 = np.array(
    [(i, j, k) for i in range(3) for j in range(3) for k in range(3)],
    dtype=np.int64,
)

#: ``_FACE27[axis, side, p]``: which of the 27 positions face
#: (``axis``, ``side``)'s lattice position ``p`` (``_POS_UV``) is.
_FACE27 = np.empty((3, 2, 9), dtype=np.int64)
for _axis, (_u, _v) in _FACE_AXES.items():
    for _side in (0, 1):
        _off = np.zeros((9, 3), dtype=np.int64)
        _off[:, _axis] = 2 * _side
        _off[:, _u] = _POS_UV[:, 0]
        _off[:, _v] = _POS_UV[:, 1]
        _FACE27[_axis, _side] = _off @ np.array([9, 3, 1])

#: Triangles of each face group ``2 * pattern + anti``.
_GROUP_TRIS = np.array(
    [len(_TEMPLATES[(g // 2, bool(g % 2))]) for g in range(64)],
    dtype=np.int64,
)


def _encode(coords: np.ndarray) -> np.ndarray:
    c = np.asarray(coords, dtype=np.int64)
    return (c[:, 0] << 42) | (c[:, 1] << 21) | c[:, 2]


def _leaf_positions(
    node_keys: np.ndarray, is_corner: np.ndarray, base: np.ndarray, half
):
    """``(idx, present)``, each (n, 27): the node index of each leaf's 27
    lattice positions (``_OFFSETS27`` times ``half`` from ``base``), by
    one sorted lookup, and whether the position is a corner node.

    Keys add: ``base`` plus an offset never carries across a field, so
    the key of the sum is the sum of the keys.
    """
    keys = _encode(base)[:, None] + _encode(_OFFSETS27 * half)[None, :]
    idx = np.searchsorted(node_keys, keys)
    np.minimum(idx, len(node_keys) - 1, out=idx)
    present = node_keys[idx] == keys
    present &= is_corner[idx]
    return idx, present


def _face_groups(coords: np.ndarray, present: np.ndarray) -> np.ndarray:
    """Each leaf's six face groups ``2 * pattern + anti`` (n, 6), face
    ``2 * axis + side``: ``pattern`` masks which of the five optional
    positions are corner nodes, and ``anti`` picks the diagonal by the
    odd-odd corner rule in face-size units."""
    groups = np.empty((len(coords), 6), dtype=np.int8)
    for axis in range(3):
        u_ax, v_ax = _FACE_AXES[axis]
        # Mixed parity -> anti.
        anti = (coords[:, u_ax] ^ coords[:, v_ax]) & 1
        for side in (0, 1):
            opt = present[:, _FACE27[axis, side, 4:9]]
            pattern = opt @ (1 << np.arange(5))
            groups[:, 2 * axis + side] = 2 * pattern + anti
    return groups


def stuff_octree(tree: LinearOctree) -> Tuple[TetMesh, np.ndarray]:
    """Tetrahedralize a 2:1-balanced octree.

    Returns ``(mesh, spacing)`` where ``spacing[i]`` is the local element
    scale at node ``i`` (edge of the smallest leaf the node touches),
    used by the jitter stage.

    Raises ``ValueError`` if the tree is not balanced (conformity of the
    face templates relies on the 2:1 invariant), or so deep that a
    lattice coordinate needs more than 21 bits (node keys would collide).
    """
    if not tree.levels:
        raise ValueError("empty octree")
    deepest = tree.max_level
    scale_bits = deepest + 1  # lattice resolves cell centers of deepest leaves
    top = max(
        int(((coords.max(axis=0) + 1) << (scale_bits - level)).max())
        for level, coords in tree.iter_leaves()
    )
    if top >= 1 << _KEY_BITS:
        raise ValueError("octree too deep for its lattice keys")

    # ---- gather node lattice coordinates -------------------------------
    corner_keys: List[np.ndarray] = []
    corner_sizes: List[np.ndarray] = []
    center_keys: List[np.ndarray] = []
    center_sizes: List[np.ndarray] = []
    child_offsets = np.array(
        [((c >> 0) & 1, (c >> 1) & 1, (c >> 2) & 1) for c in range(8)],
        dtype=np.int64,
    )
    for level, coords in tree.iter_leaves():
        shift = scale_bits - level
        base = coords << shift
        half = 1 << (shift - 1)
        corners = (base[:, None, :] + (child_offsets << shift)[None, :, :]).reshape(-1, 3)
        corner_keys.append(_encode(corners))
        corner_sizes.append(np.full(len(corners), tree.cell_size(level)))
        center_keys.append(_encode(base + half))
        center_sizes.append(np.full(len(coords), tree.cell_size(level)))

    ckeys = np.concatenate(corner_keys)
    csizes = np.concatenate(corner_sizes)
    order = np.argsort(ckeys, kind="stable")
    ckeys, csizes = ckeys[order], csizes[order]
    start = run_starts(ckeys)
    uniq_ckeys = ckeys[start]
    uniq_csizes = np.minimum.reduceat(csizes, start)

    zkeys = np.concatenate(center_keys)
    zsizes = np.concatenate(center_sizes)
    # Centers are unique by construction and disjoint from corners.
    node_keys = np.concatenate([uniq_ckeys, zkeys])
    node_sizes = np.concatenate([uniq_csizes, zsizes])
    sorter = np.argsort(node_keys, kind="stable")
    node_keys = node_keys[sorter]
    node_sizes = node_sizes[sorter]
    if np.any(node_keys[1:] == node_keys[:-1]):
        raise ValueError("octree produced coincident corner/center nodes")

    # Only *corner* nodes can sit on faces; presence tests ask for them.
    is_corner = np.zeros(len(node_keys), dtype=bool)
    is_corner[np.searchsorted(node_keys, uniq_ckeys)] = True

    # ---- per-leaf faces: one lookup per level, then counts ---------------
    index = np.int32 if len(node_keys) < 2**31 else np.int64
    per_level = []
    m = 0
    for level, coords in tree.iter_leaves():
        coords = np.asarray(coords, dtype=np.int64)
        shift = scale_bits - level
        half = np.int64(1) << (shift - 1)
        idx, present = _leaf_positions(
            node_keys, is_corner, coords << shift, half
        )
        groups = _face_groups(coords, present)
        m += int(_GROUP_TRIS[groups].sum())
        per_level.append((idx.astype(index), groups))
        del idx, present

    # ---- the tets, written once in emission order ------------------------
    # Level, face (axis, side), group ascending, then leaf order and
    # template triangle order: each face's triangle coned to the center.
    tets = np.empty((m, 4), dtype=np.int64)
    row = 0
    for idx, groups in per_level:
        for face in range(6):
            labels = _FACE27[face // 2, face % 2]
            group = groups[:, face]
            for g in np.flatnonzero(np.bincount(group, minlength=64)):
                tpl = _TEMPLATES[(int(g) // 2, bool(g % 2))]
                if len(tpl) == 0:
                    continue
                sel = idx[group == g]
                stop = row + len(sel) * len(tpl)
                out = tets[row:stop]
                out[:, 0] = np.repeat(sel[:, _CELL_CENTER], len(tpl))
                out[:, 1:] = sel[:, labels[tpl.ravel()]].reshape(-1, 3)
                row = stop
    del per_level

    # ---- physical coordinates & orientation ------------------------------
    unit = tree.base_size / (1 << scale_bits)
    lattice = np.empty((len(node_keys), 3), dtype=np.float64)
    lattice[:, 0] = node_keys >> 42
    lattice[:, 1] = (node_keys >> 21) & ((1 << 21) - 1)
    lattice[:, 2] = node_keys & ((1 << 21) - 1)
    points = np.asarray(tree.domain.lo) + lattice * unit

    vols = tet_signed_volumes(points, tets)
    flip = np.flatnonzero(vols < 0)
    tets[flip, 2:] = tets[flip, 3:1:-1]
    if np.any(vols == 0):
        raise AssertionError("stuffing produced a degenerate element")

    mesh = TetMesh(points, tets, copy=False)
    return mesh, node_sizes


def jitter_mesh(
    mesh: TetMesh,
    spacing: np.ndarray,
    amplitude: float = 0.15,
    seed: int = 0,
    max_rounds: int = 10,
) -> TetMesh:
    """Perturb node positions without inverting any element.

    Nodes move by a deterministic uniform jitter of half-range
    ``amplitude * spacing`` per axis; components normal to a domain
    boundary plane the node lies on are frozen so the mesh keeps filling
    the exact box.  After jittering, any element with non-positive volume
    causes its nodes' jitter to be withdrawn; this repeats (monotonically
    shrinking the set of moved nodes) until all elements are positive.
    """
    if amplitude == 0.0:
        return mesh
    if not 0.0 < amplitude < 0.5:
        raise ValueError("amplitude must be in (0, 0.5)")
    pts0 = mesh.points
    spc = np.asarray(spacing, dtype=float)
    if spc.shape != (mesh.num_nodes,):
        raise ValueError("spacing must have one entry per node")
    rng = np.random.default_rng(seed)
    delta = rng.uniform(-1.0, 1.0, size=pts0.shape) * (amplitude * spc)[:, None]
    lo = pts0.min(axis=0)
    hi = pts0.max(axis=0)
    tol = 1e-9 * float(max(hi - lo))
    frozen = (np.abs(pts0 - lo) <= tol) | (np.abs(pts0 - hi) <= tol)
    delta[frozen] = 0.0

    active = np.ones(mesh.num_nodes, dtype=bool)
    for _ in range(max_rounds):
        pts = pts0 + delta * active[:, None]
        vols = tet_signed_volumes(pts, mesh.tets)
        bad = vols <= 0
        if not np.any(bad):
            return TetMesh(pts, mesh.tets, copy=False)
        bad_nodes = np.unique(mesh.tets[bad].ravel())
        if not np.any(active[bad_nodes]):
            raise AssertionError(
                "inverted elements persist with jitter fully withdrawn"
            )
        active[bad_nodes] = False
    pts = pts0 + delta * active[:, None]
    vols = tet_signed_volumes(pts, mesh.tets)
    if np.any(vols <= 0):
        return mesh
    return TetMesh(pts, mesh.tets, copy=False)
