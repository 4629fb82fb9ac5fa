"""The geometric partitioner's kept root cuts.

Every even p of a sweep cuts the root with the same inputs: the first
draw row, half the elements on the left.  ``geometric._ROOT_CUTS``
keeps that cut's left side per mesh, a bit per element, and a kept root
skips the root's map and scoring.  Partitions must not move: each one
is compared by CRC with the one a cold memo gives, with the memo
cleared and then warm, on one core and on two, with the sweep ascending
and then descending.  A root cut is counted as a call of the library's
``cut_map``, which the tree makes for the root alone.
"""

from __future__ import annotations

import gc
import sys
import threading
import weakref
import zlib
from unittest import mock

import numpy as np
import pytest

from repro.mesh.core import TetMesh
from repro.mesh.instances import get_instance
from repro.partition import geometric, partition_mesh
from repro.partition.geometric import GeometricBisection
from repro.util.native import native

#: Every tree shape up to 17, then the sweep's deep ones.
PARTS = [*range(1, 18), 32, 64, 128]


def on_cores(count: int):
    return mock.patch("repro.util.cores.usable_cores", lambda: count)


def crc(mesh, p: int, seed: int) -> int:
    parts = partition_mesh(mesh, p, "geometric", seed=seed).parts
    return zlib.crc32(np.ascontiguousarray(parts, dtype="<i4").tobytes())


class Counting:
    """The compiled library, counting its root cuts (``cut_map``)."""

    def __init__(self, lib) -> None:
        self.lib, self.roots = lib, 0

    def __getattr__(self, name):
        if name == "cut_map":
            self.roots += 1
        return getattr(self.lib, name)


@pytest.fixture()
def counted():
    """The library the partitioner loads, counting root cuts, with the
    memo cleared before and after."""
    ffi, lib = native()
    counting = Counting(lib)
    geometric._ROOT_CUTS.clear()
    try:
        with mock.patch.object(geometric, "native", lambda: (ffi, counting)):
            yield counting
    finally:
        geometric._ROOT_CUTS.clear()


@pytest.mark.parametrize("instance", ["demo", "sf10e", "sf5e"])
def test_partitions_are_the_same_cold_warm_and_cleared(request, instance):
    if instance == "sf5e":
        mesh = get_instance("sf5e").build()[0]
    else:
        mesh = request.getfixturevalue(f"{instance}_mesh")
    threads = threading.active_count()
    # Each seed sweeps up on one core count, then down on the other.
    for seed, (up, down) in ((0, (1, 2)), (3, (2, 1))):
        cold = {}
        with on_cores(2):
            for p in PARTS:
                geometric._ROOT_CUTS.clear()
                cold[p] = crc(mesh, p, seed)
        geometric._ROOT_CUTS.clear()
        for cores, sweep in ((up, PARTS), (down, PARTS[::-1])):
            with on_cores(cores):
                for p in sweep:
                    assert crc(mesh, p, seed) == cold[p], (p, seed, cores)
        assert mesh in geometric._ROOT_CUTS
    assert threading.active_count() == threads


def test_only_the_same_root_hits(demo_mesh, counted):
    def roots(p, seed=0, candidates=12):
        before = counted.roots
        GeometricBisection(candidates).partition(demo_mesh, p, seed=seed)
        return counted.roots - before

    assert roots(4) == 1
    assert [roots(p) for p in (2, 8, 16, 64, 4)] == [0] * 5
    assert roots(4, seed=1) == 1  # another first draw row
    assert roots(5) == 1 and roots(7) == 1  # another left size
    assert roots(8, candidates=11) == 1  # another draw row length
    assert roots(1) == 0  # no cut at all
    kept = geometric._ROOT_CUTS[demo_mesh]
    assert len(kept) == geometric._ROOTS_PER_MESH
    for packed in kept.values():
        assert packed.dtype == np.uint8
        assert packed.shape == (-(-demo_mesh.num_elements // 8),)


def test_the_least_recently_used_root_goes_first(demo_mesh, counted):
    seeds = range(geometric._ROOTS_PER_MESH + 1)
    for seed in seeds:
        partition_mesh(demo_mesh, 2, "geometric", seed=seed)
    assert counted.roots == len(seeds)
    partition_mesh(demo_mesh, 2, "geometric", seed=seeds[-1])
    assert counted.roots == len(seeds)
    partition_mesh(demo_mesh, 2, "geometric", seed=0)  # dropped
    assert counted.roots == len(seeds) + 1


def test_an_entry_goes_with_its_mesh(demo_mesh, counted):
    mesh = TetMesh(demo_mesh.points, demo_mesh.tets)
    before = len(geometric._ROOT_CUTS)
    partition_mesh(mesh, 4, "geometric", seed=0)
    assert len(geometric._ROOT_CUTS) == before + 1
    gone = weakref.ref(mesh)
    del mesh
    gc.collect()
    assert gone() is None
    assert len(geometric._ROOT_CUTS) == before


def test_a_copy_of_a_mesh_cuts_its_own_root(demo_mesh, counted):
    partition_mesh(demo_mesh, 4, "geometric", seed=0)
    twin = TetMesh(demo_mesh.points, demo_mesh.tets)
    partition_mesh(twin, 4, "geometric", seed=0)
    assert counted.roots == 2


def test_concurrent_callers_on_a_cold_memo_keep_their_bits(demo_mesh):
    """Four callers race on a cold memo (even p share their root), with
    a short switch interval, on two cores: each gets the bits a lone
    cold call gives, and every thread is joined."""
    cases = [(p, seed) for p in (2, 5, 16, 32) for seed in (0, 1)]
    want = {}
    for case in cases:
        geometric._ROOT_CUTS.clear()
        want[case] = crc(demo_mesh, *case)
    geometric._ROOT_CUTS.clear()
    threads = threading.active_count()
    got = {}

    def caller(offset: int) -> None:
        for case in cases[offset:] + cases[:offset]:
            got.setdefault(case, []).append(crc(demo_mesh, *case))

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
    assert threading.active_count() == threads
    assert got == {case: [want[case]] * 4 for case in cases}
