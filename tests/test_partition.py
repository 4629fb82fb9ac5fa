"""Tests for repro.partition (base, both methods, metrics).

``golden/partitions.json`` pins the CRC-32 of ``Partition.parts`` (as
little-endian int32) under the key ``method/instance/p<p>/seed<seed>``.
It was generated at the commit *before* the partitioner's cut scoring
and balanced split were rewritten, so it proves that rewrite — and any
later one — moves no element.  Regenerate it (only when a partition is
meant to change) by dumping ``golden_crc`` over ``GOLDEN_CASES``.

The geometric partitioner's cut runs compiled (``cut.c``); its numpy
functions are its specification.  The ``path`` fixture runs a test on
each (``[compiled]`` / ``[numpy]``, the latter calling the numpy
functions and the numpy recursion directly), and ``TestCompiledCut``
compares the two bit for bit (``test_geometric_cut.py`` compares the
whole cut).
"""

import json
import os
import subprocess
import sys
import warnings
import zlib
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.mesh.core import TetMesh
from repro.mesh.instances import get_instance
from repro.partition import (
    PARTITIONERS,
    Partition,
    partition_mesh,
    partition_metrics,
    recursive_bisection,
)
from repro.partition import geometric as geometric_module
from repro.partition.base import Partitioner, PartitionError
from repro.partition.geometric import (
    _conformal_map_numpy,
    _cut,
    _cut_numpy,
    _local_corners,
    _shared_nodes,
    _stereographic_lift_numpy,
    _weiszfeld_numpy,
    conformal_map_to_center,
    stereographic_lift,
    weiszfeld_median,
)
from repro.model.machine import CRAY_T3E
from repro.pipeline import Problem
from repro.simulate.bsp import BspSimulator
from repro.smvp.distribution import DataDistribution
from repro.smvp.schedule import CommSchedule
from repro.stats import smvp_statistics
from repro.tables.common import clear_caches, instance_stats
from repro.tables.reliability import simulate_reliability
from tests.conftest import geometric_recursion

ALL_METHODS = sorted(PARTITIONERS)


GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "partitions.json").read_text()
)
#: (method, instance, p, seed) of every pinned partition.
GOLDEN_CASES = [
    (method, instance, p, seed)
    for instance in ("demo", "sf10e")
    for method in ALL_METHODS
    for p in (2, 3, 6, 8, 16, 64)
    for seed in (0, 3)
] + [("geometric", "sf5e", 8, 0), ("geometric", "sf5e", 128, 0)]


@pytest.fixture(params=["compiled", "numpy"])
def path(request):
    """The geometric partitioner's passes: compiled, or their numpy
    functions (and the numpy recursion) called directly."""
    if request.param == "compiled":
        return SimpleNamespace(
            parts=lambda mesh, p, seed: partition_mesh(
                mesh, p, "geometric", seed=seed
            ).parts,
            lift=stereographic_lift,
            median=weiszfeld_median,
            conformal=conformal_map_to_center,
        )
    return SimpleNamespace(
        parts=lambda mesh, p, seed: geometric_recursion(
            mesh, p, seed, _cut_numpy
        ),
        lift=_stereographic_lift_numpy,
        median=lambda pts: _weiszfeld_numpy(pts, 12),
        conformal=_conformal_map_numpy,
    )


def golden_key(method, instance, p, seed):
    return f"{method}/{instance}/p{p}/seed{seed}"


def golden_crc(mesh, method, p, seed):
    """CRC-32 of one partition's ``parts`` as little-endian int32."""
    parts = partition_mesh(mesh, p, method, seed=seed).parts
    return zlib.crc32(np.ascontiguousarray(parts, dtype="<i4").tobytes())


def cases_of(method):
    return pytest.mark.parametrize(
        "case",
        [c for c in GOLDEN_CASES if c[0] == method],
        ids=lambda c: golden_key(*c),
    )


def case_mesh(request, instance):
    if instance == "sf5e":
        # The benchmark's characterization mesh, pinned at both ends of
        # its sweep.
        return get_instance("sf5e").build()[0]
    return request.getfixturevalue(f"{instance}_mesh")


class TestGoldenPartitions:
    """No element changes part: both methods, two meshes, six p, two
    seeds, one test id per pinned partition."""

    def test_every_registered_method_is_pinned(self):
        assert sorted(GOLDEN) == sorted(golden_key(*c) for c in GOLDEN_CASES)
        assert {c[0] for c in GOLDEN_CASES} == set(PARTITIONERS)

    @cases_of("random")
    def test_random_crc_matches_golden(self, request, case):
        method, instance, p, seed = case
        mesh = case_mesh(request, instance)
        assert golden_crc(mesh, method, p, seed) == GOLDEN[golden_key(*case)]

    @cases_of("geometric")
    def test_geometric_crc_matches_golden(self, request, path, case):
        _, instance, p, seed = case
        mesh = case_mesh(request, instance)
        parts = path.parts(mesh, p, seed)
        crc = zlib.crc32(np.ascontiguousarray(parts, dtype="<i4").tobytes())
        assert crc == GOLDEN[golden_key(*case)]


def split_by_stable_argsort(values, target_left):
    """The balanced split as it was before selection replaced the sort."""
    order = np.argsort(values, kind="stable")
    mask = np.zeros(len(values), dtype=bool)
    mask[order[:target_left]] = True
    return mask


#: Few distinct values, so most draws tie; signed zeros and infinities
#: compare as the sort compares them, and NaN must sort last.
TIED_FLOATS = st.sampled_from(
    [0.0, -0.0, 1.0, -1.0, 1.0 + 2**-52, np.inf, -np.inf, np.nan]
)


class TestSplitByOrder:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.one_of(TIED_FLOATS, st.floats(allow_nan=True)), max_size=40
        ),
        st.data(),
    )
    def test_equals_stable_argsort(self, values, data):
        values = np.array(values, dtype=float)
        n = len(values)
        for k in (0, n, data.draw(st.integers(0, n))):
            mask = Partitioner.split_by_order(values, k)
            assert mask.dtype == bool
            assert np.array_equal(mask, split_by_stable_argsort(values, k))

    def test_integer_and_strided_input(self):
        values = np.array([[3, 9], [1, 9], [3, 9], [0, 9], [3, 9]])[:, 0]
        for k in range(len(values) + 1):
            assert np.array_equal(
                Partitioner.split_by_order(values, k),
                split_by_stable_argsort(values, k),
            )

    def test_target_out_of_range(self):
        for k in (-1, 4):
            with pytest.raises(ValueError, match="target_left"):
                Partitioner.split_by_order(np.zeros(3), k)


def _shared_nodes_across(tets, ids, left_mask):
    """Number of mesh nodes touched by elements on both sides of a cut.

    The geometric partitioner's cut cost as it was scored before the
    one-pass count replaced it; kept verbatim as the oracle.
    """
    left_nodes = np.unique(tets[ids[left_mask]].ravel())
    right_nodes = np.unique(tets[ids[~left_mask]].ravel())
    return len(np.intersect1d(left_nodes, right_nodes, assume_unique=True))


class TestCutCost:
    @pytest.mark.parametrize("instance", ["demo", "sf10e"])
    def test_one_pass_count_equals_set_intersection(self, request, instance):
        mesh = request.getfixturevalue(f"{instance}_mesh")
        tets, n = mesh.tets, mesh.num_elements
        rng = np.random.default_rng(7)
        # One scratch table across all sub-meshes, never cleared, as in
        # the recursion.
        scratch = np.empty(mesh.num_nodes, dtype=np.int32)
        sizes = [n, 1, 1, 2, 5, n // 2] + list(rng.integers(1, n, size=6))
        for size in sizes:
            ids = np.sort(rng.choice(n, size=size, replace=False))
            local, totals = _local_corners(tets, ids, scratch)
            assert local.dtype == np.int32 and local.shape == (size, 4)
            nodes = np.unique(tets[ids])
            assert totals.sum() == 4 * size and len(totals) == len(nodes)
            assert np.all(totals > 0)
            masks = [np.zeros(size, bool), np.ones(size, bool)]
            masks += [rng.random(size) < f for f in (0.1, 0.5, 0.5, 0.9)]
            for mask in masks:
                assert _shared_nodes(local, totals, mask) == (
                    _shared_nodes_across(tets, ids, mask)
                )

    def test_local_numbering_is_a_bijection(self, two_tet_mesh):
        scratch = np.empty(two_tet_mesh.num_nodes, dtype=np.int32)
        tets = two_tet_mesh.tets
        local, totals = _local_corners(tets, np.array([0, 1]), scratch)
        assert sorted(totals) == [1, 1, 2, 2, 2]
        pairs = set(zip(tets.ravel().tolist(), local.ravel().tolist()))
        assert len(pairs) == 5  # one local id per node, one node per id
        assert _shared_nodes(local, totals, np.array([True, False])) == 3


def same_bits(a, b):
    """Whether two arrays agree in dtype, shape and every byte."""
    return a.dtype == b.dtype and a.shape == b.shape and (
        a.tobytes() == b.tobytes()
    )


#: Where numpy's pairwise sum changes shape: sequential below 8 terms,
#: eight accumulators up to 128, halving above, and around the 8192-term
#: buffer and a large power of two.
WEISZFELD_SIZES = [*range(1, 10), 127, 128, 129, 8191, 8192, 8193]
WEISZFELD_SIZES += [2**17, 2**17 + 9]


class TestCompiledCut:
    """The compiled passes against their numpy functions, bit for bit."""

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.sampled_from(WEISZFELD_SIZES),
        seed=st.integers(0, 2**32 - 1),
        scale=st.floats(-8, 8),
        distinct=st.sampled_from([None, 1, 2, 3]),
        iterations=st.integers(0, 12),
    )
    @example(n=8193, seed=0, scale=0.0, distinct=1, iterations=12)
    @example(n=5, seed=0, scale=-400.0, distinct=1, iterations=12)
    def test_weiszfeld_bitwise(self, n, seed, scale, distinct, iterations):
        rng = np.random.default_rng(seed)
        if distinct is None:
            pts = rng.standard_normal((n, 4)) * 10.0**scale
        else:
            # Coincident points: distances reach the 1e-12 floor.
            rows = rng.standard_normal((distinct, 4)) * 10.0**scale
            pts = rows[rng.integers(0, distinct, size=n)]
        got = weiszfeld_median(pts, iterations)
        assert same_bits(got, _weiszfeld_numpy(pts, iterations))

    def test_weiszfeld_lifted_points_bitwise(self, sf10e_mesh):
        lifted = stereographic_lift(sf10e_mesh.element_centroids)
        assert same_bits(weiszfeld_median(lifted), _weiszfeld_numpy(lifted, 12))

    def test_weiszfeld_other_layouts_run_numpy(self):
        # A Fortran-order table sums its columns pairwise in numpy.
        pts = np.asfortranarray(np.random.default_rng(4).random((300, 4)))
        assert same_bits(weiszfeld_median(pts), _weiszfeld_numpy(pts, 12))

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.sampled_from(WEISZFELD_SIZES[:-2]),
        seed=st.integers(0, 2**32 - 1),
        scale=st.floats(-160, 160),
        layout=st.sampled_from(["spread", "duplicates", "centered"]),
    )
    @example(n=1, seed=0, scale=0.0, layout="spread")
    @example(n=9, seed=0, scale=150.0, layout="centered")
    @example(n=9, seed=0, scale=-150.0, layout="duplicates")
    def test_lift_and_conformal_map_bitwise(self, n, seed, scale, layout):
        rng = np.random.default_rng(seed)
        pts = rng.standard_normal((n, 3)) * 10.0**scale
        if layout == "duplicates":
            pts = pts[rng.integers(0, max(n // 3, 1), size=n)]
        elif layout == "centered":
            # Mirrored pairs plus zero rows: the centroid is (within
            # rounding) the origin, where the zero rows sit.
            half = pts[: n // 2]
            rest = np.zeros((n - 2 * len(half), 3))
            pts = np.concatenate([half, -half, rest])
        # Past 1e154 the squared radii overflow: both paths give the
        # same infinities and NaNs, which numpy would warn about.
        with np.errstate(over="ignore", invalid="ignore"):
            lifted = stereographic_lift(pts)
            assert same_bits(lifted, _stereographic_lift_numpy(pts))
        centers = [
            weiszfeld_median(lifted),
            rng.standard_normal(4) * 0.4,
            np.array([0.0, 0.0, 0.0, 0.5]),  # on the pole axis: no rotation
            np.zeros(4),  # already the center: no map
        ]
        for center in centers:
            mapped = conformal_map_to_center(lifted, center)
            assert same_bits(mapped, _conformal_map_numpy(lifted, center))

    def test_lift_and_map_of_other_layouts_run_numpy(self):
        """A non-contiguous view takes the numpy functions, same bits."""
        table = np.random.default_rng(5).random((300, 8))
        pts, lifted = table[:, 1:4], table[:, ::2]
        center = np.array([0.1, -0.2, 0.3, 0.4])
        with mock.patch.object(
            geometric_module, "_stereographic_lift_numpy",
            wraps=_stereographic_lift_numpy,
        ) as lift, mock.patch.object(
            geometric_module, "_conformal_map_numpy",
            wraps=_conformal_map_numpy,
        ) as conformal:
            got_lift = stereographic_lift(pts)
            got_map = conformal_map_to_center(lifted, center)
        assert lift.call_count == conformal.call_count == 1
        assert same_bits(got_lift, _stereographic_lift_numpy(pts))
        assert same_bits(got_map, _conformal_map_numpy(lifted, center))

    def test_out_of_range_input_raises_as_numpy_does(self, two_tet_mesh):
        tets, centroids = two_tet_mesh.tets, two_tet_mesh.element_centroids
        draws = np.ones((2, 4))
        with pytest.raises(IndexError):
            _cut(centroids, tets, two_tet_mesh.num_nodes, np.array([0, 2]),
                 draws, 1)
        # A corner outside the node numbering.
        with pytest.raises(IndexError):
            _cut(centroids, tets, 4, np.array([0, 1]), draws, 1)
        for target in (-1, 3):
            with pytest.raises(ValueError, match="target_left"):
                _cut(centroids, tets, 5, np.array([0, 1]), draws, target)


class TestNumPartsValidation:
    """Bad part counts fail at the boundary, promptly and typed."""

    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_more_parts_than_elements(self, two_tet_mesh, method):
        with pytest.raises(PartitionError, match=r"\[1, 2\]"):
            partition_mesh(two_tet_mesh, 4, method=method)

    @pytest.mark.parametrize("bad", [0, -3, 2.0, "4", None])
    def test_not_a_positive_integer(self, two_tet_mesh, bad):
        with pytest.raises(PartitionError):
            partition_mesh(two_tet_mesh, bad)
        with pytest.raises(PartitionError):
            recursive_bisection(two_tet_mesh, bad, lambda *a: None)

    def test_numpy_integer_accepted(self, two_tet_mesh):
        part = partition_mesh(two_tet_mesh, np.int64(2))
        assert list(part.part_sizes()) == [1, 1]

    def test_fractional_count_raises_instead_of_hanging(self):
        # p = 2.5 used to halve forever (2.5 -> 1.5 -> 0.5 -> 0.0 ...);
        # run it in a child so a regression fails here on the timeout
        # instead of hanging the suite.
        code = (
            "import numpy as np\n"
            "from repro.mesh.core import TetMesh\n"
            "from repro.partition.base import PartitionError, partition_mesh\n"
            "pts = np.array([[0.,0,0],[1,0,0],[0,1,0],[0,0,1],[.3,.3,-1]])\n"
            "mesh = TetMesh(pts, np.array([[0,1,2,3],[0,2,1,4]]))\n"
            "try:\n"
            "    partition_mesh(mesh, 2.5, 'geometric')\n"
            "except PartitionError:\n"
            "    raise SystemExit(42)\n"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        done = subprocess.run([sys.executable, "-c", code], env=env, timeout=60)
        assert done.returncode == 42

    def test_non_integer_parts_rejected(self):
        with pytest.raises(PartitionError, match="integers"):
            Partition(np.array([0.0, 1.9]), 2)
        with pytest.raises(PartitionError, match="integers"):
            Partition([True, False], 2)

    def test_wide_integer_parts_range_checked_before_narrowing(self):
        with pytest.raises(PartitionError, match="out of range"):
            Partition(np.array([0, 2**32]), 2)


class TestNonFiniteCoordinates:
    """A NaN or infinite node fails at the boundary, before any cut."""

    def mesh_with(self, mesh, value):
        points = mesh.points.copy()
        points[len(points) // 2, 1] = value
        return TetMesh(points, mesh.tets)

    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_nan_rejected(self, cube_mesh, method):
        mesh = self.mesh_with(cube_mesh, np.nan)
        with pytest.raises(PartitionError, match="non-finite"):
            partition_mesh(mesh, 2, method=method)

    @pytest.mark.parametrize("method", ALL_METHODS)
    @pytest.mark.parametrize("value", [np.inf, -np.inf], ids=["+inf", "-inf"])
    def test_infinity_rejected(self, cube_mesh, method, value):
        mesh = self.mesh_with(cube_mesh, value)
        with pytest.raises(PartitionError, match="non-finite"):
            partition_mesh(mesh, 2, method=method)


class TestNoEmptyParts:
    @pytest.mark.parametrize("method", ALL_METHODS)
    @pytest.mark.parametrize(
        "mesh_name", ["cube_mesh", "two_tet_mesh", "single_tet_mesh"]
    )
    def test_every_part_count_up_to_num_elements(
        self, request, mesh_name, method
    ):
        mesh = request.getfixturevalue(mesh_name)
        n = mesh.num_elements
        for p in range(1, n + 1):
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # no NaN centerpoints either
                sizes = partition_mesh(mesh, p, method=method).part_sizes()
            assert sizes.sum() == n
            # "within one element of ideal balance": floor or ceil of n/p.
            assert sizes.min() >= 1, (p, sizes)
            assert sizes.max() - sizes.min() <= 1, (p, sizes)


class TestPartitionType:
    def test_basic(self):
        p = Partition(np.array([0, 1, 0, 1]), 2, method="x")
        assert p.num_elements == 4
        assert list(p.part_sizes()) == [2, 2]
        assert list(p.elements_of(1)) == [1, 3]
        assert p.imbalance() == 1.0

    def test_label_above_range_refused(self):
        with pytest.raises(
            PartitionError, match=r"labels out of range \[0, 2\): min 0, max 2"
        ):
            Partition(np.array([0, 2]), 2)

    def test_negative_label_refused(self):
        with pytest.raises(
            PartitionError, match=r"labels out of range \[0, 2\): min -1"
        ):
            Partition(np.array([-1]), 2)

    def test_two_dimensional_parts_refused(self):
        with pytest.raises(PartitionError, match="1-D array, got 2 dim"):
            Partition(np.zeros((2, 2), dtype=int), 2)

    @pytest.mark.parametrize("count", [0, -1])
    def test_part_count_below_one_refused(self, count):
        with pytest.raises(
            PartitionError, match=f"num_parts must be >= 1, got {count}"
        ):
            Partition(np.zeros(0, dtype=int), count)

    def test_elements_of_range_checked(self):
        p = Partition(np.array([0]), 1)
        for part in (1, -1):
            with pytest.raises(
                PartitionError, match=rf"part {part} out of range \[0, 1\)"
            ):
                p.elements_of(part)

    def test_refusals_stay_value_errors(self):
        assert issubclass(PartitionError, ValueError)

    def test_imbalance(self):
        p = Partition(np.array([0, 0, 0, 1]), 2)
        assert p.imbalance() == pytest.approx(1.5)


class TestRecursiveBisection:
    @pytest.mark.parametrize("p", [2, 3, 8, 13])
    def test_part_numbering_is_bisection_order(self, demo_mesh, p):
        # Every cut splits on x and the left side takes the lower part
        # numbers, so the parts are slabs numbered along x.
        x = demo_mesh.element_centroids[:, 0]

        def split_on_x(mesh, ids, rng, target_left):
            return Partitioner.split_by_order(x[ids], target_left)

        parts = recursive_bisection(demo_mesh, p, split_on_x)
        for k in range(p - 1):
            assert x[parts == k].max() <= x[parts == k + 1].min(), k

    @pytest.mark.parametrize("p", [3, 5, 6, 12])
    def test_non_power_of_two(self, demo_mesh, p):
        sizes = partition_mesh(demo_mesh, p).part_sizes()
        assert sizes.sum() == demo_mesh.num_elements
        assert sizes.max() - sizes.min() <= 1

    def test_bad_bisect_detected(self, demo_mesh):
        def cheat(mesh, ids, rng, target_left):
            mask = np.zeros(len(ids), dtype=bool)
            mask[: max(target_left - 1, 0)] = True  # wrong count
            return mask

        with pytest.raises(ValueError, match="expected"):
            recursive_bisection(demo_mesh, 4, cheat)

    def test_single_part(self, demo_mesh):
        part = partition_mesh(demo_mesh, 1)
        assert np.all(part.parts == 0)


class TestAllMethods:
    @pytest.mark.parametrize("p", [2, 8, 33])
    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_valid_balanced_partition(self, demo_mesh, method, p):
        part = partition_mesh(demo_mesh, p, method=method, seed=0)
        assert part.num_parts == p
        assert part.num_elements == demo_mesh.num_elements
        sizes = part.part_sizes()
        assert sizes.min() > 0
        assert part.imbalance() < 1.01

    @pytest.mark.parametrize("p", [4, 33])
    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_deterministic_given_seed(self, demo_mesh, method, p):
        a = partition_mesh(demo_mesh, p, method=method, seed=3)
        b = partition_mesh(demo_mesh, p, method=method, seed=3)
        assert np.array_equal(a.parts, b.parts)

    @pytest.mark.parametrize("name", ["metis", "", "Geometric"])
    def test_unknown_method(self, demo_mesh, name):
        with pytest.raises(
            PartitionError,
            match=(
                rf"unknown method '{name}'; "
                r"available: \['geometric', 'random'\]"
            ),
        ):
            partition_mesh(demo_mesh, 4, method=name)

    def test_default_is_geometric(self, demo_mesh):
        part = partition_mesh(demo_mesh, 8, seed=3)
        assert part.method == "geometric"
        assert np.array_equal(
            part.parts, partition_mesh(demo_mesh, 8, "geometric", seed=3).parts
        )

    def test_geometric_beats_random(self, demo_mesh):
        random_shared = partition_metrics(
            demo_mesh, partition_mesh(demo_mesh, 16, method="random")
        ).shared_nodes
        shared = partition_metrics(
            demo_mesh, partition_mesh(demo_mesh, 16, method="geometric")
        ).shared_nodes
        assert shared < 0.7 * random_shared


class TestRandomPartition:
    @pytest.mark.parametrize("p", [1, 2, 3, 7, 16, 64])
    def test_deals_one_permutation_into_near_equal_blocks(self, demo_mesh, p):
        parts = partition_mesh(demo_mesh, p, "random", seed=5).parts
        sizes = np.bincount(parts, minlength=p)
        assert sizes.max() - sizes.min() <= 1
        perm = np.random.default_rng(5).permutation(demo_mesh.num_elements)
        # Dealt in blocks: part labels never decrease along the draw.
        assert np.all(np.diff(parts[perm]) >= 0)

    def test_seed_changes_the_scatter(self, demo_mesh):
        a = partition_mesh(demo_mesh, 8, "random", seed=0).parts
        b = partition_mesh(demo_mesh, 8, "random", seed=1).parts
        assert not np.array_equal(a, b)


class TestOneDefault:
    """Every caller that takes a PE count partitions geometrically."""

    @pytest.fixture(scope="class")
    def geometric(self, demo_mesh):
        return partition_mesh(demo_mesh, 8, "geometric")

    def test_reliability_sweep(self, demo_mesh, geometric):
        dist = DataDistribution(demo_mesh, geometric)
        baseline = BspSimulator(
            dist.local_counts["flops"].astype(np.float64),
            CommSchedule(dist),
            CRAY_T3E,
        ).run("barrier")
        point = simulate_reliability("demo", 8, 0.0, num_steps=1)
        assert point.t_step == baseline.t_smvp

    def test_problem_partition_and_executor(self, geometric):
        problem = Problem.from_instance("demo")
        assert np.array_equal(problem.partition(8).parts, geometric.parts)
        with problem.executor(8) as smvp:
            assert np.array_equal(smvp.partition.parts, geometric.parts)

    def test_smvp_statistics_and_table_helpers(self, demo_mesh, geometric):
        expected = smvp_statistics(demo_mesh, partition=geometric)
        clear_caches()
        for stats in (
            smvp_statistics(demo_mesh, num_parts=8),
            instance_stats(get_instance("demo"), 8),
        ):
            assert stats.partition_method == "geometric"
            assert (stats.c_max, stats.b_max, stats.total_words) == (
                expected.c_max, expected.b_max, expected.total_words
            )


class TestGeometricInternals:
    def test_stereographic_on_sphere(self, path):
        rng = np.random.default_rng(0)
        pts = rng.standard_normal((100, 3))
        lifted = path.lift(pts)
        assert np.allclose(np.linalg.norm(lifted, axis=1), 1.0)

    def test_weiszfeld_median_of_symmetric_cloud(self, path):
        rng = np.random.default_rng(1)
        pts = rng.standard_normal((500, 4))
        pts = np.vstack([pts, -pts])  # symmetric about the origin
        med = path.median(pts)
        assert np.linalg.norm(med) < 0.05

    def test_conformal_map_centers_points(self, path):
        rng = np.random.default_rng(2)
        # Cluster of sphere points near one pole: centerpoint far from
        # origin; after the map, the median should move toward origin.
        raw = rng.standard_normal((400, 4)) * 0.2 + np.array([0, 0, 0, 1.0])
        sphere = raw / np.linalg.norm(raw, axis=1, keepdims=True)
        center = path.median(sphere)
        mapped = path.conformal(sphere, center)
        assert np.allclose(np.linalg.norm(mapped, axis=1), 1.0, atol=1e-9)
        new_center = path.median(mapped)
        assert np.linalg.norm(new_center) < np.linalg.norm(center)


def metrics_oracle(mesh, parts):
    """(shared nodes, summed residency, worst residency, cut faces) by a
    walk over every element: a node's parts are its elements' parts,
    and a face is cut when its two elements' parts differ."""
    node_parts = [set() for _ in range(mesh.num_nodes)]
    face_parts = {}
    for tet, part in zip(mesh.tets.tolist(), parts.tolist()):
        for node in tet:
            node_parts[node].add(part)
        for skip in range(4):
            face = tuple(sorted(tet[:skip] + tet[skip + 1:]))
            face_parts.setdefault(face, []).append(part)
    residency = [len(s) for s in node_parts]
    cut = sum(1 for ps in face_parts.values() if len(ps) == 2 and ps[0] != ps[1])
    return (
        sum(r >= 2 for r in residency), sum(residency), max(residency), cut
    )


class TestMetrics:
    @pytest.mark.parametrize("p", [2, 8, 33])
    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_equal_to_the_element_walk(self, demo_mesh, method, p):
        part = partition_mesh(demo_mesh, p, method)
        m = partition_metrics(demo_mesh, part)
        shared, residencies, worst, cut = metrics_oracle(demo_mesh, part.parts)
        assert (m.shared_nodes, m.max_node_parts, m.cut_faces) == (
            shared, worst, cut
        )
        assert m.replication == residencies / demo_mesh.num_nodes

    def test_two_tet_split(self, two_tet_mesh):
        part = Partition(np.array([0, 1]), 2, method="manual")
        m = partition_metrics(two_tet_mesh, part)
        assert m.shared_nodes == 3  # the shared face
        assert m.cut_faces == 1
        assert m.replication == pytest.approx(8 / 5)
        assert m.max_node_parts == 2

    def test_single_part_no_sharing(self, two_tet_mesh):
        part = Partition(np.zeros(2, dtype=int), 1)
        m = partition_metrics(two_tet_mesh, part)
        assert m.shared_nodes == 0
        assert m.cut_faces == 0
        assert m.replication == 1.0

    def test_mismatched_partition_rejected(self, two_tet_mesh):
        with pytest.raises(ValueError):
            partition_metrics(two_tet_mesh, Partition(np.zeros(3, dtype=int), 1))

    def test_str(self, two_tet_mesh):
        m = partition_metrics(two_tet_mesh, Partition(np.array([0, 1]), 2))
        assert "shared=3" in str(m)
