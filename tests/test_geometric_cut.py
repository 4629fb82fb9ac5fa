"""The geometric partitioner's compiled cut against its numpy oracle.

``_cut`` is ``cut_map`` (lift, centerpoint, conformal map) and
``cut_score`` (the scoring of every candidate), the passes ``cut_tree``
runs for each cut, and ``_score`` the scoring alone; ``_cut_numpy``
and ``_score_numpy`` run the numpy functions, one candidate at a time.
The two must agree on the winning
candidate and its mask, on inputs built to reach every branch: ties,
repeated rows, NaN projections, ``target_left`` at 0, 1, n - 1 and n,
cuts of one and two elements, sizes on both sides of the sampled
bracket, and more candidates than one 64-bit flag word holds.

The float orders the partitioner owns (the ``n x 4`` products in
OpenBLAS's ``gemv`` order, the 4-long ones in its ``ddot`` order, one
chain of fused multiply-adds) are checked against references computed
step by step, on inputs where the other orders round differently; a
static check and a patched run show the partitioner calls no BLAS.
"""

from __future__ import annotations

import ast
import ctypes
import ctypes.util
import math
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.partition import geometric, partition_mesh
from repro.partition.geometric import (
    _conformal_map_numpy,
    _cut,
    _cut_numpy,
    _dot4,
    _fused_sumsq,
    _score,
    _score_numpy,
    _node_words,
    _stereographic_lift_numpy,
    conformal_map_to_center,
    stereographic_lift,
)
from repro.util.native import native
from tests.conftest import geometric_recursion


def assert_same_cut(got, want, target_left):
    winner, mask = got
    assert mask.dtype == bool and int(mask.sum()) == target_left
    assert winner == want[0]
    assert np.array_equal(mask, want[1])


def draw_target(data, n):
    return data.draw(
        st.sampled_from([0, 1, n - 1, n]) | st.integers(0, n), label="target"
    ) % (n + 1)


def draw_draws(data, rng):
    """Candidate draws: up to 70 (73 candidates with the axes, more than
    one flag word), a zero row now and then (dropped: norm < 1e-12)."""
    k = data.draw(st.sampled_from([1, 2, 12, 61, 62, 70]), label="draws")
    draws = rng.standard_normal((k, 4))
    if data.draw(st.booleans(), label="zero row"):
        draws[rng.integers(0, k)] = 0.0
    return draws


class TestCutEqualsOracle:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_whole_cut(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        num_nodes = data.draw(st.integers(1, 40), label="nodes")
        m = data.draw(st.integers(1, 90), label="elements")
        tets = rng.integers(0, num_nodes, (m, 4))
        centroids = rng.standard_normal((m, 3)) * 10.0 ** rng.integers(-3, 4)
        layout = data.draw(st.sampled_from(["spread", "repeated", "nan"]))
        if layout == "repeated":
            centroids = centroids[rng.integers(0, max(m // 4, 1), m)]
        elif layout == "nan":
            # One NaN centroid makes the whole cut NaN: every
            # projection is NaN and the ties go by index.
            centroids[rng.integers(0, m)] = np.nan
        n = data.draw(st.sampled_from([1, 2, m]) | st.integers(1, m), label="n")
        n = min(n, m)
        ids = rng.choice(m, n, replace=False)
        if data.draw(st.booleans(), label="sorted"):
            ids.sort()
        target = draw_target(data, n)
        draws = draw_draws(data, rng)
        args = (centroids, tets, num_nodes, ids, draws, target)
        with np.errstate(invalid="ignore"):
            got = _cut(*args)
            want = _cut_numpy(*args)
        assert_same_cut(got, want, target)

    @pytest.mark.parametrize("instance", ["demo", "sf10e"])
    def test_mesh_cuts(self, request, instance):
        """Every cut of a p = 16 recursion."""
        mesh = request.getfixturevalue(f"{instance}_mesh")
        centroids, tets = mesh.element_centroids, mesh.tets
        rng = np.random.default_rng(11)
        stack = [np.arange(mesh.num_elements, dtype=np.int64)]
        while len(stack) < 16:
            ids = stack.pop(0)
            target = len(ids) // 2
            draws = rng.standard_normal((12, 4))
            args = (centroids, tets, mesh.num_nodes, ids, draws, target)
            got = _cut(*args)
            want = _cut_numpy(*args)
            assert_same_cut(got, want, target)
            stack += [ids[got[1]], ids[~got[1]]]

    def test_scoring_leaves_the_node_words_as_it_found_them(self, sf10e_mesh):
        """``cut_score`` hands back each node's OR / AND words as 0 / ~0,
        so one pair of them serves every cut of a subtree."""
        ffi, lib = native()
        buf = ffi.from_buffer
        mesh = sf10e_mesh
        n, num_nodes = mesh.num_elements, mesh.num_nodes
        ids = np.random.default_rng(2).permutation(n)
        mapped = np.random.default_rng(3).standard_normal((n, 4))
        units = np.ascontiguousarray(
            geometric._candidate_normals(np.ones((70, 4)) + np.eye(70, 4))
        )
        acc, nodes = _node_words(num_nodes)
        flags = np.empty(n, dtype=np.uint64)
        winner = lib.cut_score(
            n, buf("double[]", mapped), buf("int64_t[]", mesh.tets), n,
            buf("int64_t[]", ids), num_nodes, n // 2, buf("double[]", units),
            len(units), buf("double[]", np.empty(3 * n)),
            buf("uint64_t[]", flags), buf("uint64_t[]", acc),
            buf("int64_t[]", nodes),
        )
        assert 0 <= winner < len(units)
        local, totals = geometric._local_corners(
            mesh.tets, ids, np.empty(num_nodes, dtype=np.int32)
        )
        left = (flags >> np.uint64(63)).astype(bool)
        assert geometric._shared_nodes(local, totals, left) > 0
        assert not acc[0::2].any()
        assert (acc[1::2] == ~np.uint64(0)).all()


#: Sizes on both sides of the sampled bracket (2048) and of its stride
#: changes, and the tiny cuts.
SCORE_SIZES = [1, 2, 3, 17, 2047, 2048, 5000, 40000]


class TestScoreEqualsOracle:
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    @example(data=None)
    def test_scoring(self, data):
        if data is None:
            # A fixed case: sorted values with many ties and a few NaNs.
            rng = np.random.default_rng(0)
            n, levels, nan_share, order, target = 5000, 7, 0.001, "sorted", 4990
            draws = rng.standard_normal((12, 4))
        else:
            rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
            n = data.draw(st.sampled_from(SCORE_SIZES), label="n")
            levels = data.draw(st.sampled_from([None, 2, 7]), label="levels")
            nan_share = data.draw(st.sampled_from([0.0, 0.001, 0.3]))
            order = data.draw(st.sampled_from(["as drawn", "sorted"]))
            target = draw_target(data, n)
            draws = draw_draws(data, rng)
        if levels is None:
            mapped = rng.standard_normal((n, 4))
        else:
            # Few distinct values: most projections tie.
            mapped = rng.integers(-levels, levels + 1, (n, 4)) / levels
        if order == "sorted":
            mapped = mapped[np.argsort(mapped[:, 0], kind="stable")]
        # NaN rows: their projections are NaN, so they sort last.
        mapped[rng.random(n) < nan_share] = np.nan
        num_nodes = max(n // 3, 1)
        tets = rng.integers(0, num_nodes, (n, 4))
        ids = rng.permutation(n)
        args = (mapped, tets, num_nodes, ids, draws, target)
        got = _score(*args)
        want = _score_numpy(*args)
        assert_same_cut(got, want, target)


    def test_bracket_that_misses_the_rank(self):
        """Values the sample sees are all 0 and the rest 1, and the
        target is the first 1: the bracket holds only the 0s, so the
        full selection must take over.  The sampled positions are the
        compiled search's own (one per run of 16, at an offset from its
        generator)."""
        n, shift = 4096, 4
        state, sampled = 0x9E3779B97F4A7C15, []
        for i in range(n >> shift):
            state = (state * 6364136223846793005 + 1442695040888963407) % 2**64
            sampled.append((i << shift) + (state >> (64 - shift)))
        mapped = np.zeros((n, 4))
        mapped[:, 0] = 1.0
        mapped[sampled, 0] = 0.0
        rng = np.random.default_rng(5)
        tets = rng.integers(0, 1000, (n, 4))
        args = (mapped, tets, 1000, np.arange(n), np.ones((1, 4)), len(sampled) + 1)
        got = _score(*args)
        want = _score_numpy(*args)
        assert_same_cut(got, want, len(sampled) + 1)


    @pytest.mark.parametrize("blind", [69, 70])
    def test_a_candidate_past_the_first_flag_word_wins(self, blind):
        """Two clusters with no node in common, apart along the first
        axis only; ``blind`` draws blind to that axis come first, so the
        first axis plane (candidate ``blind``, in the second flag word,
        the first or the second of its pass's two) is the only cut that
        shares no node."""
        rng = np.random.default_rng(8)
        half = 100
        mapped = rng.standard_normal((2 * half, 4)) * 10.0
        mapped[:, 0] = np.repeat([-1.0, 1.0], half)
        tets = np.concatenate(
            [rng.integers(0, 50, (half, 4)), rng.integers(50, 100, (half, 4))]
        )
        draws = rng.standard_normal((blind, 4))
        draws[:, 0] = 0.0
        args = (mapped, tets, 100, np.arange(2 * half), draws, half)
        got = _score(*args)
        want = _score_numpy(*args)
        assert_same_cut(got, want, half)
        assert got[0] == blind


def step_by_step_dot4(row, u):
    """``(r0 u0 + r2 u2) + (r1 u1 + r3 u3)``, every operation rounded on
    its own from exact rationals."""
    p = [float(Fraction(r) * Fraction(v)) for r, v in zip(row, u)]
    left = float(Fraction(p[0]) + Fraction(p[2]))
    right = float(Fraction(p[1]) + Fraction(p[3]))
    return float(Fraction(left) + Fraction(right))


def libm_fma():
    libm = ctypes.CDLL(ctypes.util.find_library("m"))
    fma = libm.fma
    fma.restype = ctypes.c_double
    fma.argtypes = [ctypes.c_double] * 3
    return fma


def libm_sumsq(x, fma):
    """``fma(x3, x3, fma(x2, x2, fma(x1, x1, x0 x0)))`` by the C library."""
    total = x[0] * x[0]
    for v in x[1:]:
        total = fma(v, v, total)
    return total


def other_sumsq_orders(x):
    """``x @ x`` in unfused orders: sequential and pairwise."""
    sq = [v * v for v in x]
    return ((sq[0] + sq[1]) + sq[2]) + sq[3], (sq[0] + sq[1]) + (sq[2] + sq[3])


class TestOwnedOrders:
    def test_gemv_order(self):
        """Rows where the sequential and the (01)(23) sums differ from
        the (02)(13) one: ``_dot4`` takes the latter, and so does the
        compiled conformal map (it rotates by ``l . v``)."""
        rng = np.random.default_rng(3)
        table = rng.standard_normal((20000, 4)) * 10.0 ** rng.integers(
            -8, 9, (20000, 4)
        )
        u = rng.standard_normal(4)
        p = table * u
        sequential = ((p[:, 0] + p[:, 1]) + p[:, 2]) + p[:, 3]
        adjacent = (p[:, 0] + p[:, 1]) + (p[:, 2] + p[:, 3])
        owned = _dot4(table, u)
        split = (owned != sequential) & (owned != adjacent)
        assert split.sum() > 100
        rows = table[split]
        for row, got in zip(rows, owned[split]):
            assert got == step_by_step_dot4(row, u)
        # The compiled map rotates the same rows by the same products.
        lifted = rows / np.sqrt(np.sum(rows * rows, axis=1))[:, None]
        center = np.array([0.3, -0.1, 0.2, 0.4])
        assert np.array_equal(
            conformal_map_to_center(lifted, center),
            _conformal_map_numpy(lifted, center),
        )

    def test_ddot_order(self):
        """Vectors where one fused chain rounds differently from both
        unfused orders: ``_fused_sumsq`` is the C library's chain."""
        fma = libm_fma()
        rng = np.random.default_rng(4)
        found = 0
        for x in rng.uniform(0.5, 2.0, (4000, 4)) * 10.0 ** rng.integers(
            -3, 4, (4000, 1)
        ):
            x = [float(v) for v in x]
            want = libm_sumsq(x, fma)
            assert _fused_sumsq(x) == want
            if want not in other_sumsq_orders(x):
                found += 1
                # The compiled map normalizes the centerpoint the same way.
                lifted = np.random.default_rng(found).standard_normal((8, 4))
                center = np.array(x) / (4.0 * math.sqrt(want))
                assert np.array_equal(
                    conformal_map_to_center(lifted, center),
                    _conformal_map_numpy(lifted, center),
                )
        assert found > 100

    @pytest.mark.parametrize(
        "x",
        [
            [0.0, 0.0, 0.0, 0.0],
            [1e200, 1e200, 0.0, 0.0],  # a product overflows
            [1e-200, 3e-170, 0.0, 1e-300],  # products underflow
            [np.inf, 1.0, 0.0, 0.0],
            [1.0, np.nan, 0.0, 0.0],
        ],
    )
    def test_ddot_order_at_the_edges(self, x):
        got = _fused_sumsq(np.array(x))
        want = libm_sumsq(x, libm_fma())
        assert got == want or (math.isnan(got) and math.isnan(want))

    @pytest.mark.parametrize("n", [*range(1, 42), 101, 1001])
    def test_lift_scale_is_numpys_percentile(self, n):
        """The compiled lift's 90th-percentile radius (a selection and
        numpy's interpolation) gives numpy's bits: every fractional
        index (0.5 at n = 6, where the interpolation changes side), ties,
        integer indices (n - 1 a multiple of 10) and, with points spread
        over three orders of magnitude, neighbours whose difference
        rounds."""
        rng = np.random.default_rng(n)
        spread = [
            rng.standard_normal((n, 3)) * 10.0 ** rng.uniform(0, 3, (n, 1))
            for _ in range(20)
        ]
        for pts in (
            rng.standard_normal((n, 3)),
            rng.integers(-2, 3, (n, 3)).astype(float),
            *spread,
        ):
            assert np.array_equal(
                stereographic_lift(pts), _stereographic_lift_numpy(pts)
            )


#: Names whose use in the partitioner would hand a product to BLAS.
BLAS_NAMES = {"dot", "matmul", "einsum", "linalg", "inner", "vdot", "tensordot"}


def test_geometric_module_spells_out_every_product():
    source = Path(geometric.__file__).read_text()
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(
            node.op, ast.MatMult
        ):
            found.append(f"line {node.lineno}: @")
        elif isinstance(node, ast.Attribute) and node.attr in BLAS_NAMES:
            found.append(f"line {node.lineno}: .{node.attr}")
        elif isinstance(node, ast.Name) and node.id in BLAS_NAMES:
            found.append(f"line {node.lineno}: {node.id}")
    assert not found


@pytest.mark.parametrize("path", ["compiled", "numpy"])
def test_partitions_call_no_blas(demo_mesh, path):
    def refuse(*args, **kwargs):
        raise AssertionError("the partitioner called a BLAS product")

    want = partition_mesh(demo_mesh, 8, "geometric", seed=3).parts
    patches = [
        mock.patch.object(np, name, refuse)
        for name in ("dot", "matmul", "einsum", "inner", "vdot", "tensordot")
    ] + [mock.patch.object(np.linalg, "norm", refuse)]
    for patch in patches:
        patch.start()
    try:
        if path == "numpy":
            got = geometric_recursion(demo_mesh, 8, 3, _cut_numpy)
        else:
            got = partition_mesh(demo_mesh, 8, "geometric", seed=3).parts
    finally:
        for patch in patches:
            patch.stop()
    assert np.array_equal(got, want)
