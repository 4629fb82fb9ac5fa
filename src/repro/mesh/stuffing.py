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
  balance means no other hanging positions can occur).  A tree that
  breaks it across a face or an edge leaves a node on a quarter point
  of a face, which no template sees; such a node needs the half point
  it splits to be a node too, so only the quarter points beside a
  present midpoint or center are looked up, and a hit is refused with
  :class:`UnbalancedOctreeError`.
* If the face center exists, fan around it.
* Else if any edge midpoint exists, fan around the first present
  midpoint in canonical order (skipping collinear triangles).
* Else split along the diagonal through the face's unique corner with
  odd coordinates in units of the face size.  The odd-odd rule is what
  makes coarse-against-fine faces agree: the center of a coarse face is
  always the odd-odd corner of each quarter face, so the coarse fan and
  the fine cells' diagonals coincide.

Nodes are numbered in lattice-key order (numpy sorts the keys).  Each
leaf then looks its 27 lattice positions (corners, edge midpoints, face
centers, cell center) up once; its six faces' groups (pattern and
diagonal) and its tet count read that lookup.  The tets are counted
first and then written once into one (m, 4) array, in the order level,
face, template group, leaf, triangle, each coned triangle wound so the
tet is positive.  The lookups and the writes are one compiled pass per
level each (``stuffing.c``, in the native library of
:mod:`repro.util.native`): the corner nodes sit in an open-addressing
hash table, not a sorted array (on sf5e, 2 vCPUs: the level passes take
≈ 3 ms per build, numpy's ``searchsorted`` alone ≈ 8 ms).  Numpy's
sorted lookups and per-group writes (:func:`_numpy_tets`) are the
passes' specification, with the same bits: the tests' oracle, and the
path of a tree with 2**31 nodes or more, past the passes' int32
indices.

A deterministic post-jitter moves nodes off the lattice (making the mesh
statistics behave like a genuinely unstructured mesh) while provably
keeping every element positively oriented: jitter that inverts an
element is withdrawn node by node.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.geometry import tet_signed_volumes
from repro.mesh.core import TetMesh
from repro.octree.linear import LinearOctree
from repro.util.keys import sorted_unique
from repro.util.native import native

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


def _wound(tri: np.ndarray) -> np.ndarray:
    """Three of the 27 positions, ordered so that the cell center and
    they make a positive tet."""
    a, b, c = _OFFSETS27[tri] - _OFFSETS27[_CELL_CENTER]
    return tri if a @ np.cross(b, c) > 0 else tri[[0, 2, 1]]


#: ``_FACE_TRIS[face, group, t]``: triangle ``t`` of the template of
#: face ``face`` (``2 * axis + side``) and ``group``, as three of the 27
#: positions, wound by :func:`_wound` (rows past ``_GROUP_TRIS[group]``
#: are unused).
_FACE_TRIS = np.zeros((6, 64, 8, 3), dtype=np.int8)
for _face in range(6):
    _labels = _FACE27[_face // 2, _face % 2]
    for _g in range(64):
        for _t, _tri in enumerate(_TEMPLATES[(_g // 2, bool(_g % 2))]):
            _FACE_TRIS[_face, _g, _t] = _wound(_labels[_tri])


#: The quarter points each optional position (an edge midpoint or a
#: face center among the 27) splits, in units of a quarter of the leaf:
#: every coordinate equal to 1 in half units takes 1 and 3, the others
#: stay at 0 or 4.  Point ``_QUARTER_OFFSETS[j]`` splits position
#: ``_QUARTER_OWNER[j]`` (48 points: ``QUARTERS`` in ``stuffing.c``).
_QUARTER_POINTS = [
    (p, point)
    for p, pos in enumerate(_OFFSETS27.tolist())
    if 0 < pos.count(1) < 3
    for point in itertools.product(*((1, 3) if c == 1 else (2 * c,) for c in pos))
]
_QUARTER_OWNER = np.array([p for p, _ in _QUARTER_POINTS], dtype=np.int64)
_QUARTER_OFFSETS = np.array([q for _, q in _QUARTER_POINTS], dtype=np.int64)

class UnbalancedOctreeError(ValueError):
    """The octree is not 2:1 balanced: a node sits on a face of the leaf
    ``leaf`` (coordinates at ``level``) where that face's template
    cannot see it, so the mesh would not conform."""

    def __init__(self, level: int, leaf) -> None:
        self.level = level
        self.leaf: Tuple[int, ...] = tuple(int(c) for c in leaf)
        super().__init__(
            f"octree is not 2:1 balanced: leaf {self.leaf} at level {level} "
            "has a node on a face its template cannot see"
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


def _first_hidden(
    node_keys: np.ndarray,
    is_corner: np.ndarray,
    base: np.ndarray,
    quarter,
    present: np.ndarray,
) -> Optional[int]:
    """The first leaf with a corner node on a quarter point beside one
    of its present edge midpoints or face centers, or ``None``."""
    leaf, point = np.nonzero(present[:, _QUARTER_OWNER])
    if len(leaf) == 0:
        return None
    keys = _encode(base)[leaf] + _encode(_QUARTER_OFFSETS * quarter)[point]
    at = np.minimum(np.searchsorted(node_keys, keys), len(node_keys) - 1)
    hidden = np.flatnonzero((node_keys[at] == keys) & is_corner[at])
    return int(leaf[hidden[0]]) if len(hidden) else None


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


def _numpy_tets(
    leaves: List[Tuple[int, np.ndarray]],
    scale_bits: int,
    node_keys: np.ndarray,
    corner_ids: np.ndarray,
) -> np.ndarray:
    """The tets by sorted lookups into ``node_keys`` (the oracle of the
    compiled passes)."""
    # Only *corner* nodes can sit on faces; presence tests ask for them.
    is_corner = np.zeros(len(node_keys), dtype=bool)
    is_corner[corner_ids] = True

    # ---- per-leaf faces: one lookup per level, then counts ---------------
    index = np.int32 if len(node_keys) < 2**31 else np.int64
    per_level = []
    m = 0
    for level, coords in leaves:
        shift = scale_bits - level
        half = np.int64(1) << (shift - 1)
        base = coords << shift
        idx, present = _leaf_positions(node_keys, is_corner, base, half)
        if shift >= 2:
            leaf = _first_hidden(node_keys, is_corner, base, half >> 1, present)
            if leaf is not None:
                raise UnbalancedOctreeError(level, coords[leaf])
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
            group = groups[:, face]
            for g in np.flatnonzero(np.bincount(group, minlength=64)):
                tpl = _FACE_TRIS[face, g, : _GROUP_TRIS[g]]
                sel = idx[group == g]
                stop = row + len(sel) * len(tpl)
                out = tets[row:stop]
                out[:, 0] = np.repeat(sel[:, _CELL_CENTER], len(tpl))
                out[:, 1:] = sel[:, tpl.ravel()].reshape(-1, 3)
                row = stop
    return tets


def _compiled_tets(
    leaves: List[Tuple[int, np.ndarray]],
    scale_bits: int,
    corner_keys: np.ndarray,
    corner_ids: np.ndarray,
    center_ids: np.ndarray,
) -> np.ndarray:
    """The tets by the compiled passes: a hash table over the corner
    nodes, then one pass per level for the lookups, groups and counts,
    and one per level for the writes."""
    ffi, lib = native()
    buf = ffi.from_buffer
    bits = max(1, (2 * len(corner_keys) - 1).bit_length())
    table = np.empty(2 << bits, dtype=np.int64)
    lib.stuff_table(
        len(corner_keys),
        buf("int64_t[]", corner_keys),
        buf("int64_t[]", corner_ids),
        bits,
        buf("int64_t[]", table),
    )
    face27 = buf("int64_t[]", _FACE27)
    group_tris = buf("int64_t[]", _GROUP_TRIS)
    quarters = buf("int64_t[]", _QUARTER_OFFSETS)
    owners = buf("int64_t[]", _QUARTER_OWNER)
    per_level = []
    m = 0
    start = 0
    for level, coords in leaves:
        n = len(coords)
        idx = np.empty((n, 27), dtype=np.int32)
        groups = np.empty((n, 6), dtype=np.int8)
        count = lib.stuff_level(
            n,
            buf("int64_t[]", coords),
            scale_bits - level,
            buf("int64_t[]", center_ids[start : start + n]),
            buf("int64_t[]", table),
            bits,
            face27,
            group_tris,
            quarters,
            owners,
            buf("int32_t[]", idx),
            buf("int8_t[]", groups),
        )
        if count < 0:
            raise UnbalancedOctreeError(level, coords[-1 - count])
        m += count
        start += n
        per_level.append((idx, groups))
    del table

    tets = np.empty((m, 4), dtype=np.int64)
    row = 0
    for idx, groups in per_level:
        row = lib.stuff_write(
            len(idx),
            buf("int32_t[]", idx),
            buf("int8_t[]", groups),
            buf("int8_t[]", _FACE_TRIS),
            group_tris,
            row,
            buf("int64_t[]", tets),
        )
    return tets


def stuff_octree(tree: LinearOctree) -> Tuple[TetMesh, np.ndarray]:
    """Tetrahedralize a 2:1-balanced octree.

    Returns ``(mesh, spacing)`` where ``spacing[i]`` is the local element
    scale at node ``i`` (edge of the smallest leaf the node touches),
    used by the jitter stage.

    Raises :class:`UnbalancedOctreeError` (a ``ValueError``) naming the
    first leaf, levels ascending, that has a node on one of its faces
    where that face's template cannot see it (the tree is not balanced,
    so the mesh would not conform), and ``ValueError`` for an empty
    tree, overlapping leaves (coincident nodes) or a tree so deep that a
    lattice coordinate needs more than 21 bits (node keys would
    collide).
    """
    leaves, scale_bits, node_keys, node_sizes, corner_keys, node_ids = (
        _lattice_nodes(tree)
    )
    corner_ids = node_ids[: len(corner_keys)]
    if len(node_keys) >= 2**31:
        tets = _numpy_tets(leaves, scale_bits, node_keys, corner_ids)
    else:
        tets = _compiled_tets(
            leaves, scale_bits, corner_keys, corner_ids,
            node_ids[len(corner_keys) :],
        )
    return _oriented_mesh(tree, scale_bits, node_keys, tets), node_sizes


def _lattice_nodes(tree: LinearOctree) -> tuple:
    """The nodes of :func:`stuff_octree`: ``(leaves, scale_bits,
    node_keys, node_sizes, corner_keys, node_ids)`` — each level's
    leaves as contiguous int64 coordinates, the lattice's bits, every
    node's key (ascending) and element scale, the distinct corner keys
    (ascending), and the node id of each corner (``corner_keys`` order)
    then each center (leaf order).  Raises the refusals of
    :func:`stuff_octree` but the unbalanced tree."""
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
    leaves = [
        (level, np.ascontiguousarray(coords, dtype=np.int64))
        for level, coords in tree.iter_leaves()
    ]

    # ---- nodes: leaf corners and centers, by lattice key ----------------
    # Each corner takes the edge of the smallest leaf it touches: levels
    # ascending, so a deeper leaf's size overwrites a shallower one's.
    child_offsets = np.array(
        [((c >> 0) & 1, (c >> 1) & 1, (c >> 2) & 1) for c in range(8)],
        dtype=np.int64,
    )
    level_corners = []
    center_keys = []
    center_sizes = []
    for level, coords in leaves:
        shift = scale_bits - level
        base = _encode(coords << shift)
        level_corners.append(
            sorted_unique(base[:, None] + _encode(child_offsets << shift))
        )
        center_keys.append(base + _encode(np.full((1, 3), 1 << (shift - 1))))
        center_sizes.append(np.full(len(coords), tree.cell_size(level)))
    uniq_ckeys = sorted_unique(np.concatenate(level_corners))
    uniq_csizes = np.empty(len(uniq_ckeys))
    for (level, _), keys in zip(leaves, level_corners):
        uniq_csizes[np.searchsorted(uniq_ckeys, keys)] = tree.cell_size(level)
    del level_corners

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
    # The node id of each corner (``uniq_ckeys`` order) and each center
    # (leaf order).
    node_ids = np.empty(len(sorter), dtype=np.int64)
    node_ids[sorter] = np.arange(len(sorter))
    return leaves, scale_bits, node_keys, node_sizes, uniq_ckeys, node_ids


def _oriented_mesh(
    tree: LinearOctree, scale_bits: int, node_keys: np.ndarray, tets: np.ndarray
) -> TetMesh:
    """The mesh of the lattice nodes ``node_keys`` and ``tets``, each tet
    wound positive in float coordinates (in place)."""
    unit = tree.base_size / (1 << scale_bits)
    lattice = np.empty((len(node_keys), 3), dtype=np.float64)
    lattice[:, 0] = node_keys >> 42
    lattice[:, 1] = (node_keys >> 21) & ((1 << 21) - 1)
    lattice[:, 2] = node_keys & ((1 << 21) - 1)
    points = np.asarray(tree.domain.lo) + lattice * unit

    # The templates are wound positive on the lattice; the float volumes
    # orient any tet that rounding would still see inverted.
    vols = tet_signed_volumes(points, tets)
    flip = np.flatnonzero(vols < 0)
    tets[flip, 2:] = tets[flip, 3:1:-1]
    if np.any(vols == 0):
        raise AssertionError("stuffing produced a degenerate element")

    return TetMesh(points, tets, copy=False)


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
