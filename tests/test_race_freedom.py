"""Race freedom by construction: the five race modes, each refused.

A BSP superstep can go wrong in five ways, and each is now ruled out
by the layout's construction checks or by a guard that costs nothing
per superstep.  Every mode below raises
:class:`~repro.smvp.layout.ContractViolation` naming the PE and
the phase:

* ``aliased-output`` — two PEs' products handed back as overlapping
  views (or one mis-shaped slot): ``SuperstepLayout.holding`` refuses
  the slot before copying it into the y buffer;
* ``input-mutation`` — a product that writes its input: the compute
  phase reads read-only views, and the error path names the writer;
* ``ghost-gather`` — gather reading a non-owner's copy: ``owner_pos``
  is read-only, and a layout whose owner map was tampered with fails
  :func:`~repro.smvp.layout.check_layout` — as does one whose
  owner-row copy (what keeps a resident time-loop vector whole) skips a
  non-owner row (``stale-copy``) or reads one (``copy-from-ghost``);
* ``skip-exchange`` / ``unscheduled-exchange`` — a plan compiled from
  a pair table missing a scheduled pair, or carrying one the schedule
  never had (or a pair twice), or whose rounds repeat a destination or
  miss a word: the plan checks refuse it when the executor is built.

The runtime modes run on ``serial`` and ``threaded``, vector and r=5,
under every subset of the superstep flags (with ABFT on, the guard
meets an aliased product first: it detects and heals the clobbered PE,
blaming it in its event log).  The construction modes are refused
before any product exists, so they run per backend at executor level,
and every construction check refuses its tampered map over five
partitioners at p = 7 and 16.  Clean layouts pass the checks at p = 1,
7 and 16, and every eviction successor is built and checked over its
own distribution.
"""

from __future__ import annotations

import copy
from contextlib import contextmanager
from functools import cached_property

import numpy as np
import pytest

from repro.partition.base import partition_mesh
from repro.smvp.backends import SerialBackend, ThreadedBackend
from repro.smvp.distribution import DataDistribution
from repro.smvp.exchange import ExchangePlan
from repro.smvp.executor import DistributedSMVP
from repro.smvp.layout import ContractViolation, SuperstepLayout, check_layout
from repro.smvp.schedule import CommSchedule
from repro.smvp.trace import TraceLog
from tests.conftest import FLAG_SUBSETS, layout_index_maps

PES = 4
R = 5
BACKENDS = {"serial": SerialBackend, "threaded": ThreadedBackend}
WIDTHS = {"vector": None, "block": R}
#: (method, pes) of every real layout checked: the paper's partitioner
#: over odd, even and large part counts, and the random scatter (every
#: node shared, the densest plans) where its layouts stay cheap.
LAYOUTS = [("geometric", p) for p in (3, 7, 16, 33, 64)]
LAYOUTS += [("random", p) for p in (3, 7, 16)]


def flag_ids(flags):
    return "+".join(flags) or "plain"


@pytest.fixture(scope="module")
def partition4(demo_mesh):
    return partition_mesh(demo_mesh, PES, seed=2)


@pytest.fixture(scope="module")
def clean(demo_mesh, partition4, demo_materials):
    """Per width: (x, the clean product)."""
    rng = np.random.default_rng(31)
    n = 3 * demo_mesh.num_nodes
    inputs = {
        name: rng.standard_normal(n if r is None else (n, r))
        for name, r in WIDTHS.items()
    }
    with DistributedSMVP(demo_mesh, partition4, demo_materials) as ds:
        return {name: (x, ds.multiply(x)) for name, x in inputs.items()}


@pytest.fixture(scope="module")
def executors(demo_mesh, partition4, demo_materials):
    """``get(backend, flags)``: one executor per backend and constructor
    flag set (``out`` is a call argument), shared by the runtime modes,
    which swap its backend or kernel only inside :func:`swapped`."""
    made = {}

    def get(backend, flags):
        key = (backend, tuple(f for f in flags if f != "out"))
        if key not in made:
            made[key] = DistributedSMVP(
                demo_mesh, partition4, demo_materials, backend=backend,
                abft="abft" in flags, profile="profile" in flags,
                trace_sink=(
                    TraceLog() if {"profile", "sink"} & set(flags) else None
                ),
            )
        return made[key]

    yield get
    for ds in made.values():
        ds.close()


@contextmanager
def swapped(ds, name, value):
    """``ds.<name>`` is ``value`` inside the block."""
    kept = getattr(ds, name)
    setattr(ds, name, value)
    try:
        yield value
    finally:
        setattr(ds, name, kept)


def out_for(x, flags):
    return np.full(x.shape, np.nan) if "out" in flags else None


def refused(err, pe, phase):
    """The violation names ``pe`` (or one of the PEs ``pe`` lists) and
    ``phase``, in its attributes and its message."""
    violation = err.value
    assert violation.phase == phase
    assert violation.pe in (pe if isinstance(pe, tuple) else (pe,))
    assert f"PE {violation.pe}" in str(violation)


# ---------------------------------------------------------------------------
# aliased-output: a replaced slot is checked as holding() copies it in


def aliasing(base):
    """``base`` whose compute phase hands PEs 1 and 2 back as
    overlapping views of one scratch buffer (last writer wins)."""

    class Aliasing(base):
        def map(self, fn, *columns):
            ys = super().map(fn, *columns)
            na, nb = ys[1].shape[0], ys[2].shape[0]
            buf = np.empty((na + nb - 3,) + ys[1].shape[1:])
            buf[:na] = ys[1]
            buf[na - 3:] = ys[2]
            ys[1], ys[2] = buf[:na], buf[na - 3:]
            return ys

    return Aliasing()


def narrowing(base, slot):
    """``base`` whose compute phase hands PE 1 back as ``slot(y)``."""

    class Narrowing(base):
        def map(self, fn, *columns):
            ys = super().map(fn, *columns)
            ys[1] = slot(ys[1])
            return ys

    return Narrowing()


class TestAliasedOutput:
    @pytest.mark.parametrize("flags", FLAG_SUBSETS, ids=flag_ids)
    @pytest.mark.parametrize("width", sorted(WIDTHS))
    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_overlapping_outputs_refused(
        self, executors, clean, backend, width, flags
    ):
        x, want = clean[width]
        ds = executors(backend, flags)
        events = len(ds.sdc_events)
        with swapped(ds, "backend", aliasing(BACKENDS[backend])) as racy:
            try:
                if "abft" in flags:
                    # The guard sees PE 1's clobbered tail first, blames
                    # and heals it: the slot it hands on is fresh.
                    y = ds.multiply(x, out=out_for(x, flags))
                    assert np.array_equal(y, want)
                    blamed = {
                        (e.pe, e.phase, e.action)
                        for e in ds.sdc_events[events:]
                    }
                    assert (1, "compute", "detected") in blamed
                else:
                    with pytest.raises(
                        ContractViolation, match="shares memory"
                    ) as err:
                        ds.multiply(x, out=out_for(x, flags))
                    refused(err, 1, "compute")
            finally:
                racy.close()
        assert np.array_equal(ds.multiply(x, out=out_for(x, flags)), want)

    @pytest.mark.parametrize("width", sorted(WIDTHS))
    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_narrow_output_refused_not_broadcast(
        self, executors, clean, backend, width
    ):
        """A slot one column (block) or one word (vector) wide would
        broadcast into the whole slice without the shape check."""
        x, want = clean[width]
        ds = executors(backend, ())
        narrow = narrowing(BACKENDS[backend], lambda y: y[..., :1].copy())
        with swapped(ds, "backend", narrow):
            try:
                with pytest.raises(ContractViolation, match="shape") as err:
                    ds.multiply(x)
            finally:
                narrow.close()
        refused(err, 1, "compute")
        assert np.array_equal(ds.multiply(x), want)

    def test_block_slot_one_column_wide_refused(self, executors, demo_mesh):
        """The (n_i, 1) slot handed back for an (n_i, r) product."""
        x = np.random.default_rng(3).standard_normal((3 * demo_mesh.num_nodes, 3))
        ds = executors("serial", ())
        y_locals = [y.copy() for y in ds.compute_phase(ds.scatter(x))]
        y_locals[2] = y_locals[2][:, :1].copy()
        with pytest.raises(ContractViolation) as err:
            ds.communication_phase(y_locals)
        refused(err, 2, "compute")

    def test_vector_slot_one_word_wide_refused(self, executors, clean):
        x, _ = clean["vector"]
        ds = executors("serial", ())
        y_locals = [y.copy() for y in ds.compute_phase(ds.scatter(x))]
        y_locals[3] = np.full(1, 7.0)
        with pytest.raises(ContractViolation) as err:
            ds.communication_phase(y_locals)
        with pytest.raises(ContractViolation) as gathered:
            ds.gather(y_locals)
        refused(err, 3, "compute")
        refused(gathered, 3, "exchange")

    def test_slot_viewing_another_slice_refused(self, executors, clean):
        """A slot that is a view of another PE's slice of the y buffer
        would be read while that slice is overwritten."""
        x, _ = clean["vector"]
        ds = executors("serial", ())
        y_locals = ds.compute_phase(ds.scatter(x))
        n0 = y_locals[0].shape[0]
        y_locals[0] = ds.layout._y.whole[1:n0 + 1]
        with pytest.raises(ContractViolation, match="shares memory") as err:
            ds.communication_phase(y_locals)
        refused(err, 0, "compute")


# ---------------------------------------------------------------------------
# input-mutation: the compute phase reads read-only inputs


class InputWriter:
    """The executor's kernel, except that the product for ``victim``'s
    state writes into its input first."""

    def __init__(self, kernel, victim) -> None:
        self.kernel = kernel
        self.name = kernel.name
        self.victim = victim

    def product(self, state, x, out=None):
        if state is self.victim:
            x[0] += 1.0
        return self.kernel.product(state, x, out)


class TestInputMutation:
    @pytest.mark.parametrize("flags", FLAG_SUBSETS, ids=flag_ids)
    @pytest.mark.parametrize("width", sorted(WIDTHS))
    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_input_write_refused_and_blamed(
        self, executors, clean, backend, width, flags
    ):
        x, want = clean[width]
        ds = executors(backend, flags)
        step = ds._superstep
        with swapped(ds, "kernel", InputWriter(ds.kernel, ds._states[2])):
            with pytest.raises(ContractViolation, match="wrote its input") as err:
                ds.multiply(x, out=out_for(x, flags))
        refused(err, 2, "compute")
        # The write never landed, and the exchange never opened.
        assert np.array_equal(ds.layout._x.views[2], x[ds.layout.dof_rows[2]])
        assert ds._superstep == step
        assert np.array_equal(ds.multiply(x, out=out_for(x, flags)), want)

    def test_other_value_errors_pass_through(self, executors, clean):
        """Only a refused input write is blamed on a PE; any other
        ValueError of a product is re-raised as it was."""

        class Failing:
            name = "csr"

            def product(self, state, x, out=None):
                raise ValueError("no product today")

        x, _ = clean["vector"]
        ds = executors("serial", ())
        with swapped(ds, "kernel", Failing()):
            with pytest.raises(ValueError, match="no product today"):
                ds.multiply(x)


# ---------------------------------------------------------------------------
# ghost-gather: gather reads every dof from its owner's slice


def ghost_copy(layout):
    """A global dof that resides on two PEs, and the buffer row of its
    copy on the PE that does not own it."""
    rows_cat, owner_pos = layout.rows_cat, layout.owner_pos
    ghosts = np.flatnonzero(owner_pos[rows_cat] != np.arange(rows_cat.size))
    row = int(ghosts[0])
    return int(rows_cat[row]), row


def pe_of_row(layout, row):
    return int(np.searchsorted(layout.offsets, row, side="right") - 1)


class TestGhostGather:
    @pytest.mark.parametrize("width", sorted(WIDTHS))
    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_owner_map_is_read_only(self, executors, clean, backend, width):
        x, want = clean[width]
        ds = executors(backend, ())
        dof, row = ghost_copy(ds.layout)
        with pytest.raises(ValueError, match="read-only"):
            ds.layout.owner_pos[dof] = row
        assert np.array_equal(ds.multiply(x), want)


# ---------------------------------------------------------------------------
# skip-exchange / unscheduled-exchange: the plan is the schedule's


@pytest.fixture
def tampered_pairs(monkeypatch):
    """``tamper(edit)``: from now on every schedule's pair table is
    ``edit(pairs, schedule)``; the schedule's word matrix stays the
    one derived from the distribution."""

    def tamper(edit):
        original = CommSchedule.pairs.func

        def pairs(schedule):
            return edit(list(original(schedule)), schedule)

        monkeypatch.setattr(CommSchedule, "pairs", cached_property(pairs))
        CommSchedule.pairs.__set_name__(CommSchedule, "pairs")

    return tamper


def unshared_pair(pairs, p):
    shared = {(a, b) for a, b, _, _ in pairs}
    return next(
        (a, b) for a in range(p) for b in range(a + 1, p)
        if (a, b) not in shared
    )


class TestScheduledExchange:
    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_skipped_pair_refused(
        self, demo_mesh, partition4, demo_materials, tampered_pairs, backend
    ):
        dropped = []

        def skip(pairs, schedule):
            dropped.append(pairs.pop(1)[:2])
            return pairs

        tampered_pairs(skip)
        with pytest.raises(ContractViolation, match="the schedule sends") as err:
            DistributedSMVP(
                demo_mesh, partition4, demo_materials, backend=backend
            )
        refused(err, dropped[0][0], "exchange")

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_unscheduled_pair_refused(
        self, demo_mesh, demo_materials, tampered_pairs, backend
    ):
        partition = partition_mesh(demo_mesh, 8, seed=2)
        bogus = []

        def invent(pairs, schedule):
            a, b = unshared_pair(pairs, schedule.num_parts)
            bogus.append((a, b))
            dofs = np.arange(3, dtype=np.int64)  # local node 0 on both
            return [*pairs, (a, b, dofs, dofs)]

        tampered_pairs(invent)
        with pytest.raises(ContractViolation) as err:
            DistributedSMVP(demo_mesh, partition, demo_materials, backend=backend)
        refused(err, bogus[0], "exchange")  # either end sends a stray word

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_duplicate_pair_refused(
        self, demo_mesh, partition4, demo_materials, tampered_pairs, backend
    ):
        tampered_pairs(lambda pairs, schedule: [*pairs, pairs[0]])
        with pytest.raises(ContractViolation, match="twice") as err:
            DistributedSMVP(
                demo_mesh, partition4, demo_materials, backend=backend
            )
        refused(err, 0, "exchange")


# ---------------------------------------------------------------------------
# Every construction check refuses its tampered map, on every layout


@pytest.fixture(scope="module")
def layouts(demo_mesh):
    """``get(method, pes)``: the layout of a seed-0 partition, built
    (and checked) once."""
    made = {}

    def get(method, pes):
        if (method, pes) not in made:
            partition = partition_mesh(demo_mesh, pes, method=method, seed=0)
            made[method, pes] = SuperstepLayout(
                CommSchedule(DataDistribution(demo_mesh, partition))
            )
        return made[method, pes]

    return get


def doctored(layout, **maps):
    """A shallow copy of ``layout`` with some of its maps replaced."""
    copied = copy.copy(layout)
    for name, value in maps.items():
        setattr(copied, name, value)
    return copied


def with_pairs(layout, pairs):
    return doctored(layout, plan=ExchangePlan(pairs, layout.offsets))


def ghost_owner(layout):
    """gather reads a shared dof from a non-owner's copy."""
    dof, row = ghost_copy(layout)
    owner_pos = layout.owner_pos.copy()
    owner_pos[dof] = row
    pe = pe_of_row(layout, row)
    return doctored(layout, owner_pos=owner_pos), pe, "gather", "owner is PE"


def other_dof_owner(layout):
    """gather reads global dofs 0 and 1 from each other's rows."""
    owner_pos = layout.owner_pos.copy()
    owner_pos[[0, 1]] = owner_pos[[1, 0]]
    pe = pe_of_row(layout, layout.owner_pos[1])
    return doctored(layout, owner_pos=owner_pos), pe, "gather", "global dof 0"


def overlapping_slices(layout):
    offsets = layout.offsets.copy()
    offsets[2] = offsets[3] + 1
    return doctored(layout, offsets=offsets), 2, "compute", "tile"


def skipped_pair(layout):
    pairs = list(layout.schedule.pairs)
    a, b = pairs.pop(1)[:2]
    return with_pairs(layout, pairs), (a, b), "exchange", "the schedule sends"


def unscheduled_dofs(layout):
    """The first pair's words summed into the next node's dofs."""
    a, b, pos_a, pos_b = layout.schedule.pairs[0]
    size_b = int(layout.offsets[b + 1] - layout.offsets[b])
    pairs = [(a, b, pos_a, (pos_b + 3) % size_b), *layout.schedule.pairs[1:]]
    return with_pairs(layout, pairs), (a, b), "exchange", "sums it into"


def duplicate_pair(layout):
    pairs = layout.schedule.pairs
    a, b = pairs[0][:2]
    return with_pairs(layout, [*pairs, pairs[0]]), min(a, b), "exchange", "twice"


def reversed_pair(layout):
    pairs = layout.schedule.pairs
    a, b, pos_a, pos_b = pairs[0]
    tampered = [*pairs, (b, a, pos_b, pos_a)]
    return with_pairs(layout, tampered), min(a, b), "exchange", "twice"


def self_pair(layout):
    pairs = layout.schedule.pairs
    a, _, pos_a, _ = pairs[0]
    tampered = [*pairs, (a, a, pos_a, pos_a)]
    return with_pairs(layout, tampered), a, "exchange", "itself"


def dof_twice(layout):
    """Same words per PE pair, same dofs — but one shared dof sent
    twice and another not at all."""
    a, b, pos_a, pos_b = layout.schedule.pairs[0]
    pos_a, pos_b = pos_a.copy(), pos_b.copy()
    pos_a[1], pos_b[1] = pos_a[0], pos_b[0]
    pairs = [(a, b, pos_a, pos_b), *layout.schedule.pairs[1:]]
    return with_pairs(layout, pairs), (a, b), "exchange", "summed twice"


def misreported_traffic(layout):
    plan = copy.copy(layout.plan)
    plan.words_sent = plan.words_sent.copy()
    plan.words_sent[1] += 3
    return doctored(layout, plan=plan), 1, "exchange", "reports"


def with_rounds(layout, recv_pos, rounds):
    plan = copy.copy(layout.plan)
    plan.recv_pos, plan.rounds = recv_pos, rounds
    return doctored(layout, plan=plan)


def repeated_destination(layout):
    """Round 0 sums its second word into its first word's destination:
    ``buffer[dst] += ...`` would keep one of the two."""
    recv = layout.plan.recv_pos.copy()
    recv[1] = recv[0]
    rounds = [(recv[lo:hi], lo, hi) for _, lo, hi in layout.plan.rounds]
    pe = pe_of_row(layout, recv[0])
    return with_rounds(layout, recv, rounds), pe, "exchange", "two words"


def dropped_last_word(layout):
    plan = layout.plan
    dst, lo, hi = plan.rounds[-1]
    rounds = [*plan.rounds[:-1], (dst[:-1], lo, hi - 1)]
    pe = pe_of_row(layout, plan.recv_pos[-1])
    return with_rounds(layout, plan.recv_pos, rounds), pe, "exchange", "tile"


def misrouted_round(layout):
    """Round 0's destinations are not the plan's (the numpy rounds and
    the compiled pass would sum into different rows)."""
    plan = layout.plan
    dst, lo, hi = plan.rounds[0]
    dst = dst.copy()
    dst[1] = dst[0]
    rounds = [(dst, lo, hi), *plan.rounds[1:]]
    pe = pe_of_row(layout, plan.recv_pos[lo + 1])
    return with_rounds(layout, plan.recv_pos, rounds), pe, "exchange", "not into"


def stale_copy(layout):
    """The owner-row copy skips one non-owner row, which would keep the
    previous step's value."""
    dst, src = layout.copy_dst, layout.copy_src
    k = dst.size // 2
    keep = np.arange(dst.size) != k
    tampered = doctored(layout, copy_dst=dst[keep], copy_src=src[keep])
    return tampered, pe_of_row(layout, dst[k]), "gather", "tile the buffer once"


def copy_from_ghost(layout):
    """One non-owner row is copied from another non-owner copy of its
    dof (from itself where its dof has no other), not from the owner."""
    dst = layout.copy_dst
    dofs = layout.rows_cat[dst]
    order = np.argsort(dofs, kind="stable")
    twins = np.flatnonzero(dofs[order][1:] == dofs[order][:-1])
    if twins.size:
        k, ghost = order[twins[0] + 1], dst[order[twins[0]]]
    else:
        k, ghost = 0, dst[0]
    src = layout.copy_src.copy()
    src[k] = ghost
    return doctored(layout, copy_src=src), pe_of_row(layout, ghost), "gather", "owner row is"


TAMPERS = [
    ghost_owner, other_dof_owner, stale_copy, copy_from_ghost,
    overlapping_slices, skipped_pair,
    unscheduled_dofs, duplicate_pair, reversed_pair, self_pair, dof_twice,
    misreported_traffic, repeated_destination, dropped_last_word,
    misrouted_round,
]


class TestConstructionChecks:
    @pytest.mark.parametrize("method, pes", LAYOUTS)
    @pytest.mark.parametrize("tamper", TAMPERS, ids=lambda t: t.__name__)
    def test_tampered_map_refused(self, layouts, tamper, method, pes):
        layout = layouts(method, pes)
        tampered, pe, phase, match = tamper(layout)
        with pytest.raises(ContractViolation, match=match) as err:
            check_layout(tampered)
        refused(err, pe, phase)
        check_layout(layout)  # the original is untouched

    def test_maps_outside_the_buffer_refused(self, layouts):
        """Neither an index nor a PE to blame: the phase alone."""
        layout = layouts("geometric", 7)
        rows = layout.rows_cat.size
        owner_pos = layout.owner_pos.copy()
        owner_pos[0] = rows
        with pytest.raises(ContractViolation, match="outside") as err:
            check_layout(doctored(layout, owner_pos=owner_pos))
        assert (err.value.pe, err.value.phase) == (None, "gather")
        (a, b, pos_a, pos_b), *rest = layout.schedule.pairs
        tampered = with_pairs(layout, [(a, b, pos_a, pos_b + rows), *rest])
        with pytest.raises(ContractViolation, match="outside") as err:
            check_layout(tampered)
        assert (err.value.pe, err.value.phase) == (None, "exchange")


# ---------------------------------------------------------------------------
# Clean layouts pass; the maps stay read-only; successors are rebuilt


class TestCleanLayouts:
    @pytest.mark.parametrize(
        "method, pes", LAYOUTS + [("geometric", 1), ("random", 1)]
    )
    def test_real_layouts_pass_with_read_only_maps(self, layouts, method, pes):
        layout = layouts(method, pes)
        check_layout(layout)  # also ran in the constructor
        assert not any(a.flags.writeable for a in layout_index_maps(layout))
        assert len(layout.plan.rounds) == (
            layout.distribution.node_residency.max() - 1
        )

    @pytest.mark.parametrize("dead", range(PES))
    def test_every_eviction_successor_is_built_and_checked(
        self, demo_mesh, partition4, demo_materials, clean, monkeypatch, dead
    ):
        import repro.smvp.layout as layout_module

        checked = []
        real = layout_module.check_layout

        def counted(layout):
            checked.append(layout)
            real(layout)

        monkeypatch.setattr(layout_module, "check_layout", counted)
        x, _ = clean["block"]
        first = DistributedSMVP(demo_mesh, partition4, demo_materials)
        new, _ = first.reconfigure_without(dead)
        first.close()
        with new:
            assert checked == [first.layout, new.layout]
            assert new.distribution is new.layout.distribution
            assert new.schedule is new.layout.schedule
            assert new.distribution.num_parts == PES - 1
            assert not any(a.flags.writeable for a in layout_index_maps(new.layout))
            with DistributedSMVP(
                demo_mesh, new.partition, demo_materials
            ) as fresh:
                assert np.array_equal(new.multiply(x), fresh.multiply(x))

    def test_distribution_cannot_be_swapped(
        self, demo_mesh, partition4, demo_materials
    ):
        """The ownership map and the distribution are one value: there
        is no executor attribute to point at another distribution."""
        with DistributedSMVP(demo_mesh, partition4, demo_materials) as ds:
            swapped = DataDistribution(demo_mesh, partition_mesh(demo_mesh, 8))
            with pytest.raises(AttributeError):
                ds.distribution = swapped
            with pytest.raises(AttributeError):
                ds.schedule = CommSchedule(swapped)
