"""The geometric partitioner's compiled bisection tree against the
Python recursion.

``GeometricBisection.partition`` draws every cut's candidates up front
and runs the tree in ``cut.c``: the root cut on the calling thread,
then one ``cut_tree`` call per subtree, on two threads with two or more
cores and one after the other on one.  The
oracle is ``recursive_bisection`` driving ``_cut`` one cut at a time
(the compiled cut, itself checked against the numpy cut in
``test_geometric_cut.py``), and on a few trees the numpy cut itself
(``_cut_numpy``).
Both core counts are forced by patching
:func:`repro.util.cores.usable_cores`.
"""

from __future__ import annotations

import sys
import threading
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

from repro.mesh.core import TetMesh
from repro.partition import geometric, partition_mesh
from repro.partition.geometric import GeometricBisection, _cut, _cut_numpy
from repro.util.native import native
from tests.conftest import geometric_recursion

#: Part counts of the comparison: every tree shape up to 17, then the
#: sweep's deep ones.
PARTS = [*range(1, 18), 32, 64, 128]


def on_cores(count: int):
    return mock.patch("repro.util.cores.usable_cores", lambda: count)


@pytest.mark.parametrize("instance", ["demo", "sf10e"])
def test_tree_equals_the_recursion(request, instance):
    mesh = request.getfixturevalue(f"{instance}_mesh")
    for seed in (0, 3):
        for p in PARTS:
            want = geometric_recursion(mesh, p, seed, _cut)
            for cores in (1, 2):
                with on_cores(cores):
                    got = partition_mesh(mesh, p, "geometric", seed=seed).parts
                assert np.array_equal(got, want), (p, seed, cores)


@pytest.mark.parametrize("cores", [1, 2])
def test_tree_equals_the_numpy_cut(demo_mesh, cores):
    for p, seed in ((3, 0), (5, 3), (16, 0), (17, 3)):
        want = geometric_recursion(demo_mesh, p, seed, _cut_numpy)
        with on_cores(cores):
            got = partition_mesh(demo_mesh, p, "geometric", seed=seed).parts
        assert np.array_equal(got, want), (p, seed)


def python_left_size(n: int, q: int) -> int:
    """``recursive_bisection``'s left side: Python's round (half to
    even) of the true quotient."""
    return min(max(int(round(n * ((q + 1) // 2) / q)), 0), n)


def test_left_sizes_round_half_to_even_as_python_does():
    """Every quotient ``n ceil(q/2) / q`` that is exactly half-way
    (q even, n odd), and others, from both ends of the range."""
    _, lib = native()
    cases = [(n, q) for n in range(1, 400) for q in range(2, 40) if q <= n]
    cases += [
        (n, q)
        for n in (2**31 + 1, 2**40 - 1, 2**40 + 1, 10**12 + 7)
        for q in (2, 3, 4, 6, 7, 10, 128, 1000)
    ]
    halfway = 0
    for n, q in cases:
        halfway += (2 * n * ((q + 1) // 2)) % (2 * q) == q
        assert lib.cut_left_size(n, q) == python_left_size(n, q), (n, q)
    assert halfway > 1000


def test_one_draw_for_all_cuts_is_the_sequential_stream():
    """``rng.normal(size=(p - 1, k, 4))`` is the p - 1 draws of
    ``(k, 4)`` the recursion takes one cut at a time, so a numpy change
    names itself here before any pinned partition moves."""
    for seed in (0, 3, 12345):
        for p, k in ((2, 12), (17, 12), (128, 12), (9, 1), (5, 70)):
            together = np.random.default_rng(seed).normal(size=(p - 1, k, 4))
            rng = np.random.default_rng(seed)
            one_by_one = np.stack(
                [rng.normal(size=(k, 4)) for _ in range(p - 1)]
            )
            assert np.array_equal(together, one_by_one)


def loose_tets(m: int) -> TetMesh:
    """``m`` elements with no node in common: every cut of them shares
    no node, so every candidate ties at cost 0."""
    rng = np.random.default_rng(m)
    corners = rng.standard_normal((m, 1, 3)) * 10.0 + rng.random((m, 4, 3))
    return TetMesh(corners.reshape(-1, 3), np.arange(4 * m).reshape(m, 4))


@pytest.mark.parametrize("candidates", [1, 2, 12, 70])
@pytest.mark.parametrize("cores", [1, 2])
def test_ties_go_to_the_first_candidate(candidates, cores):
    mesh = loose_tets(301)
    for p in (2, 3, 8):
        want = geometric_recursion(mesh, p, 5, _cut, candidates)
        with on_cores(cores):
            got = GeometricBisection(candidates).partition(mesh, p, seed=5)
        assert np.array_equal(got.parts, want), p


class FakeMesh(SimpleNamespace):
    """The attributes the partitioner reads, with no check of its own."""


@pytest.mark.parametrize("cores", [1, 2])
def test_a_corner_out_of_range_raises_as_before(two_tet_mesh, cores):
    mesh = FakeMesh(
        tets=two_tet_mesh.tets.copy(),
        element_centroids=two_tet_mesh.element_centroids,
        num_nodes=4,
        num_elements=2,
    )
    mesh.tets[1, 3] = 4
    with on_cores(cores), pytest.raises(IndexError):
        GeometricBisection().partition(mesh, 2)


@pytest.mark.parametrize("cores", [1, 2])
def test_every_thread_is_joined(demo_mesh, cores):
    before = threading.active_count()
    with on_cores(cores):
        for p in (1, 2, 7, 64):
            partition_mesh(demo_mesh, p, "geometric", seed=1)
            assert threading.active_count() == before


def test_concurrent_partitions_keep_their_bits(demo_mesh):
    """Four callers partition at once, with a short switch interval, on
    two cores: each call's worker and buffers are its own, so every
    result is the one a lone call gives."""
    cases = [(p, seed) for p in (2, 5, 16, 33) for seed in (0, 1)]
    want = {
        case: partition_mesh(demo_mesh, case[0], "geometric", seed=case[1]).parts
        for case in cases
    }
    got = {}

    def caller(offset: int) -> None:
        for case in cases[offset:] + cases[:offset]:
            parts = partition_mesh(demo_mesh, case[0], "geometric", seed=case[1])
            got.setdefault(case, []).append(parts.parts)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with on_cores(2):
            callers = [
                threading.Thread(target=caller, args=(k,)) for k in range(4)
            ]
            for thread in callers:
                thread.start()
            for thread in callers:
                thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in callers)
    for case in cases:
        assert len(got[case]) == 4
        assert all(np.array_equal(parts, want[case]) for parts in got[case])


def test_carved_buffers_are_zeroed_aligned_and_disjoint():
    layout = [(np.int64, 5), (np.float64, 4 * 7), (np.uint64, 3), (np.int32, 1)]
    arrays = geometric._carve(layout)
    for array, (dtype, count) in zip(arrays, layout):
        assert array.dtype == dtype and array.shape == (count,)
        assert array.ctypes.data % 64 == 0 and array.flags.writeable
        assert not array.any()
    for k, array in enumerate(arrays):
        array[:] = k + 1
    assert [int(a[0]) for a in arrays] == [1, 2, 3, 4]


def test_split_is_stable_on_both_sides():
    """``cut_split`` puts the left side (bit 63) first, each side in its
    old order, as ``ids[mask]`` and ``ids[~mask]`` do."""
    ffi, lib = native()
    rng = np.random.default_rng(9)
    for n in (1, 2, 7, 1000):
        ids = rng.permutation(10 * n)[:n].astype(np.int64)
        left = rng.random(n) < 0.4
        flags = rng.integers(0, 2**63, n, dtype=np.uint64) | (
            left.astype(np.uint64) << np.uint64(63)
        )
        want = np.concatenate([ids[left], ids[~left]])
        buf = ffi.from_buffer
        lib.cut_split(n, buf("int64_t[]", ids), buf("uint64_t[]", flags))
        assert np.array_equal(ids, want)
