"""Tests for the superstep sanitizer (REPRO_SAN=1) and the race fixtures.

The guarantees under test:

* a clean engine run reports zero findings and is bit-identical to the
  unsanitized path on every backend;
* every seeded race mode in :mod:`repro.smvp.racy` is detected with
  exact ``(pe, step, phase, dof)`` blame (``verify_detection`` finds
  nothing missed);
* with the sanitizer off the executor takes the historical path
  (``sanitizer is None``) and produces the same bits;
* eviction atomicity: a distribution swapped under a live sanitizer is
  flagged (``stale-ownership-map``), while the supported path —
  ``reconfigure_without`` — rebinds the map and carries the report;
* the ``repro-san`` CLI exits 0 clean, 1 on findings, and 4 when an
  injected race goes undetected.
"""

import json

import numpy as np
import pytest

from repro.analysis.sanitizer import (
    SanFinding,
    SanitizerError,
    SuperstepSanitizer,
    TrackedArray,
    _AccessLog,
    sanitizer_enabled,
)
from repro.cli import main_san
from repro.partition.base import partition_mesh
from repro.smvp.distribution import DataDistribution
from repro.smvp.executor import DistributedSMVP
from repro.smvp.racy import (
    RACE_MODES,
    InjectedRace,
    RacyThreadedBackend,
    make_racy,
    verify_detection,
)

BACKENDS = ("serial", "threaded")


@pytest.fixture(scope="module")
def partition4(demo_mesh):
    return partition_mesh(demo_mesh, 4, seed=2)


@pytest.fixture(scope="module")
def partition8(demo_mesh):
    return partition_mesh(demo_mesh, 8, seed=2)


@pytest.fixture(scope="module")
def x_global(demo_mesh):
    return np.random.default_rng(11).standard_normal(3 * demo_mesh.num_nodes)


@pytest.fixture(scope="module")
def reference(demo_mesh, partition4, demo_materials, x_global):
    """The unsanitized serial result — the bit-identity anchor."""
    with DistributedSMVP(demo_mesh, partition4, demo_materials) as ds:
        assert ds.sanitizer is None
        return ds.multiply(x_global)


class TestTrackedArray:
    def test_wrap_is_bit_identical(self):
        base = np.arange(12, dtype=np.float64)
        view = TrackedArray.wrap(base, _AccessLog(), pe=0)
        assert np.array_equal(np.asarray(view), base)
        assert np.shares_memory(view, base)

    def test_records_reads_and_writes_with_dof_precision(self):
        log = _AccessLog()
        view = TrackedArray.wrap(np.zeros(10), log, pe=3)
        _ = view[2:5]
        view[np.array([7, 9])] = 1.0
        kinds = [(pe, kind, list(dofs)) for pe, kind, _, dofs in log.records]
        assert kinds == [(3, "r", [2, 3, 4]), (3, "w", [7, 9])]

    def test_phase_stamped_from_shared_log(self):
        log = _AccessLog()
        view = TrackedArray.wrap(np.zeros(4), log, pe=0)
        _ = view[0]
        log.phase = "gather"
        _ = view[1]
        assert [phase for _, _, phase, _ in log.records] == [
            "compute",
            "gather",
        ]

    def test_derived_views_are_inert(self):
        log = _AccessLog()
        view = TrackedArray.wrap(np.zeros(8), log, pe=0)
        sliced = view[1:4]  # records the parent read...
        n = len(log.records)
        _ = sliced[0]  # ...but the child records nothing
        _ = (view * 2.0)[0]  # ufunc results are inert too
        assert len(log.records) == n

    def test_writes_pass_through_to_base(self):
        base = np.zeros(5)
        view = TrackedArray.wrap(base, _AccessLog(), pe=0)
        view[2] = 7.0
        assert base[2] == 7.0


class TestCleanRuns:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_zero_findings_and_bit_identity(
        self, demo_mesh, partition4, demo_materials, x_global, backend, reference
    ):
        with DistributedSMVP(
            demo_mesh,
            partition4,
            demo_materials,
            backend=backend,
            sanitizer=True,
        ) as ds:
            y = ds.multiply(x_global)
            san = ds.sanitizer
        assert san.findings == []
        assert san.steps_checked == 1
        assert np.array_equal(y, reference)

    def test_accesses_are_tracked(
        self, demo_mesh, partition4, demo_materials, x_global
    ):
        with DistributedSMVP(
            demo_mesh, partition4, demo_materials, sanitizer=True
        ) as ds:
            ds.multiply(x_global)
            stats = ds.sanitizer.summary()
        assert stats["reads_tracked"] > 0
        assert stats["writes_tracked"] > 0
        assert stats["by_kind"] == {}

    def test_multi_step_run_stays_clean(
        self, demo_mesh, partition4, demo_materials, x_global
    ):
        with DistributedSMVP(
            demo_mesh, partition4, demo_materials, sanitizer=True
        ) as ds:
            x = x_global
            for _ in range(3):
                y = ds.multiply(x)
                x = y / np.linalg.norm(y)
            assert ds.sanitizer.steps_checked == 3
            assert ds.sanitizer.findings == []


class TestEnvGating:
    def test_env_flag(self, monkeypatch):
        monkeypatch.delenv("REPRO_SAN", raising=False)
        assert not sanitizer_enabled()
        monkeypatch.setenv("REPRO_SAN", "1")
        assert sanitizer_enabled()
        monkeypatch.setenv("REPRO_SAN", "0")
        assert not sanitizer_enabled()

    def test_env_builds_sanitizer(
        self, monkeypatch, demo_mesh, partition4, demo_materials
    ):
        monkeypatch.setenv("REPRO_SAN", "1")
        with DistributedSMVP(demo_mesh, partition4, demo_materials) as ds:
            assert ds.sanitizer is not None

    def test_param_overrides_env(
        self, monkeypatch, demo_mesh, partition4, demo_materials
    ):
        monkeypatch.setenv("REPRO_SAN", "1")
        with DistributedSMVP(
            demo_mesh, partition4, demo_materials, sanitizer=False
        ) as ds:
            assert ds.sanitizer is None

    def test_off_is_the_historical_path(
        self, monkeypatch, demo_mesh, partition4, demo_materials, x_global, reference
    ):
        monkeypatch.delenv("REPRO_SAN", raising=False)
        with DistributedSMVP(demo_mesh, partition4, demo_materials) as ds:
            assert ds.sanitizer is None
            assert np.array_equal(ds.multiply(x_global), reference)


class TestRaceDetection:
    @pytest.mark.parametrize("mode", sorted(RACE_MODES))
    def test_every_injected_race_is_blamed_exactly(
        self, demo_mesh, partition8, demo_materials, x_global, mode
    ):
        smvp = make_racy(
            demo_mesh, partition8, demo_materials, mode, seed=3, strict=False
        )
        try:
            x = x_global
            for _ in range(3):
                y = smvp.multiply(x)
                x = y / np.linalg.norm(y)
        finally:
            smvp.close()
        injected = smvp.injected
        findings = smvp.sanitizer.findings
        assert injected, "fixture recorded no ground truth"
        assert findings, "sanitizer saw nothing"
        assert verify_detection(injected, findings) == []
        kind, phase = RACE_MODES[mode]
        assert any(
            f.kind == kind and f.phase == phase for f in findings
        )

    def test_strict_mode_raises_at_step_end(
        self, demo_mesh, partition8, demo_materials, x_global
    ):
        smvp = make_racy(
            demo_mesh,
            partition8,
            demo_materials,
            "input-mutation",
            seed=3,
            strict=True,
        )
        try:
            with pytest.raises(SanitizerError) as err:
                smvp.multiply(x_global)
        finally:
            smvp.close()
        assert any(f.kind == "input-mutation" for f in err.value.findings)

    def test_racy_map_takes_the_spanned_call_shape(self):
        # A profiled executor maps (pe, state, x, out); the saboteur
        # must still find x_locals and inject, not raise TypeError.
        x_locals = [np.zeros(4), np.zeros(4)]
        with RacyThreadedBackend("input-mutation", seed=0) as backend:
            ys = backend.map(
                lambda pe, state, x, out: x * state,
                range(2), [2.0, 3.0], x_locals, [None, None],
            )
        (race,) = backend.injected
        assert x_locals[race.pe][race.dofs[0]] == 1e-9
        assert len(ys) == 2

    def test_verify_detection_reports_misses(self):
        race = InjectedRace("input-mutation", 0, 2, "compute", (5,))
        assert verify_detection([race], []) == [race]
        wrong_pe = SanFinding(
            "input-mutation", 3, 0, "compute", (5,), "detail"
        )
        assert verify_detection([race], [wrong_pe]) == [race]
        exact = SanFinding(
            "input-mutation", 2, 0, "compute", (4, 5, 6), "detail"
        )
        assert verify_detection([race], [exact]) == []

    def test_finding_format_carries_exact_blame(self):
        f = SanFinding("ghost-read", 1, 4, "gather", (9, 12), "stale dofs")
        text = f.format()
        assert "step 4" in text
        assert "gather" in text
        assert "pe 1" in text
        assert "ghost-read" in text
        assert "9,12" in text


class TestEvictionAtomicity:
    def test_swapped_distribution_is_flagged(
        self, demo_mesh, partition4, partition8, demo_materials, x_global
    ):
        with DistributedSMVP(
            demo_mesh, partition4, demo_materials, sanitizer=True
        ) as ds:
            ds.sanitizer.strict = False
            swapped = DataDistribution(demo_mesh, partition8)
            assert swapped.ownership_hash != ds.distribution.ownership_hash
            ds.distribution = swapped
            ds.multiply(x_global)
            kinds = {f.kind for f in ds.sanitizer.findings}
        assert "stale-ownership-map" in kinds

    def test_reconfigure_rebinds_and_carries_report(
        self, demo_mesh, partition4, demo_materials, x_global
    ):
        ds = DistributedSMVP(
            demo_mesh, partition4, demo_materials, sanitizer=True
        )
        try:
            ds.multiply(x_global)
            old_san = ds.sanitizer
            new, _redist = ds.reconfigure_without(3)
        finally:
            ds.close()
        try:
            assert new.sanitizer is not None
            assert new.sanitizer is not old_san
            # Bound to the *new* map: hashes agree, so no stale-map noise.
            assert (
                new.sanitizer.ownership_hash
                == new.distribution.ownership_hash
            )
            y = new.multiply(np.asarray(x_global))
            assert new.sanitizer.findings == []
            # adopt() carried the run-level tallies across the eviction.
            assert new.sanitizer.steps_checked == 2
            assert np.all(np.isfinite(y))
        finally:
            new.close()


class TestSanCli:
    def test_clean_run_exits_zero(self, capsys):
        rc = main_san(
            ["--instance", "demo", "--pes", "4", "--steps", "2"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "0 finding(s) over 2 superstep(s)" in out

    def test_racy_run_exits_one_and_detects_all(self, capsys):
        rc = main_san(
            [
                "--instance",
                "demo",
                "--pes",
                "8",
                "--steps",
                "2",
                "--racy",
                "skip-exchange",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 1
        assert "stale-ghost" in out
        assert "detected 4/4 injected race(s)" in out

    def test_json_report(self, capsys):
        rc = main_san(
            [
                "--instance",
                "demo",
                "--pes",
                "8",
                "--steps",
                "1",
                "--racy",
                "ghost-gather",
                "--json",
            ]
        )
        report = json.loads(capsys.readouterr().out)
        assert rc == 1
        assert report["summary"]["findings"] >= 1
        assert report["missed"] == []
        kinds = {f["kind"] for f in report["findings"]}
        assert "ghost-read" in kinds

    def test_usage_error_exits_two(self, capsys):
        with pytest.raises(SystemExit) as err:
            main_san(["--racy", "not-a-mode"])
        capsys.readouterr()
        assert err.value.code == 2


class TestSanitizerUnit:
    def _mini(self, strict=True):
        return SuperstepSanitizer(
            num_parts=2,
            local_sizes=[6, 6],
            owned_dofs=[np.arange(6), np.arange(3, 6)],
            expected_sends={(0, 1): np.arange(3), (1, 0): np.arange(3, 6)},
            ownership_hash=0xBEEF,
            strict=strict,
        )

    class _Dist:
        def __init__(self, h):
            self.ownership_hash = h

    def test_duplicate_delivery_is_flagged(self):
        san = self._mini(strict=False)
        san.begin_step(0, self._Dist(0xBEEF))

        class Send:
            def __init__(self, src, dst, dofs):
                self.src, self.dst, self.dof_dst = src, dst, dofs

        ab = Send(0, 1, np.arange(3))
        ba = Send(1, 0, np.arange(3, 6))
        san.check_exchange([ab, ab, ba])
        san.end_step()
        kinds = [f.kind for f in san.findings]
        assert kinds == ["duplicate-delivery"]
        assert san.findings[0].pe == 1

    def test_strict_raises_only_on_new_findings(self):
        san = self._mini(strict=True)
        san.begin_step(0, self._Dist(0xBEEF))
        san.check_exchange([])  # both scheduled sends missing
        with pytest.raises(SanitizerError):
            san.end_step()
        assert {f.kind for f in san.findings} == {"stale-ghost"}

    def test_render_report_tail(self):
        san = self._mini(strict=False)
        text = san.render_report()
        assert "0 finding(s) over 0 superstep(s)" in text
