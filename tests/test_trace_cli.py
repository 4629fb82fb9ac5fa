"""``repro-trace``: one traced run, or one saved log, and every view.

One test per invocation of the commands ``repro-trace`` absorbed
(``repro-profile``, ``repro-metrics`` and ``repro-quake``), in its new
form; the peak-displacement line, pinned against an untraced run of the
same load; the stdout contract (a view written to ``-`` is the only
thing on stdout); every file view written into a directory that does
not exist yet; and the UX guarantee that an unknown backend or kernel
name fed to ``repro-trace`` / ``repro-measure`` exits 2 with the
registered names in the message instead of a traceback.

Every run is the demo instance on 4 PEs for at most 3 steps; the
``--from-trace`` / ``--regress`` tests share one module-scoped saved
log.
"""

import json
import re

import pytest

from repro.cli import main_measure, main_trace
from repro.pipeline import Problem
from repro.smvp.trace import TraceLog
from repro.telemetry.registry import get_registry, set_registry


@pytest.fixture(autouse=True)
def _no_registry_leaks():
    assert get_registry() is None
    yield
    set_registry(None)


QUICK = ["--instance", "demo", "--pes", "4", "--steps", "2"]

#: One line of the Prometheus text exposition: a comment or a sample.
PROMETHEUS_LINE = re.compile(
    r"# (HELP|TYPE) \w+ .+|\w+(\{[^}]*\})? ([-+0-9.eE]+|\+Inf|NaN)"
)
#: One line of flamegraph folded stacks: ``frame;frame count``.
FOLDED_LINE = re.compile(r"[^ ]+ \d+")


@pytest.fixture(scope="module")
def saved_log(tmp_path_factory):
    """``repro-trace --profile --json PATH``: a profiled demo log."""
    path = tmp_path_factory.mktemp("trace") / "log.json"
    assert main_trace(QUICK + ["--profile", "--json", str(path)]) == 0
    set_registry(None)
    return path


def _scaled(path, factor, out):
    """A copy of the saved log at ``path`` with every time (the ``t_*``
    fields and every span's start and end) multiplied by ``factor``."""
    payload = json.loads(path.read_text())
    for step in payload["supersteps"]:
        for key in [k for k in step if k.startswith("t_")]:
            step[key] *= factor
        for span in step["pe_spans"]:
            span["t_start"] *= factor
            span["t_end"] *= factor
    out.write_text(json.dumps(payload))
    return str(out)


class TestUnknownNames:
    def test_trace_unknown_backend_exits_two_with_options(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main_trace(["--backend", "bogus"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unknown backend 'bogus'" in err
        assert "serial" in err  # registered names are listed

    def test_measure_unknown_kernel_exits_two_with_suite(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main_measure(["--kernels", "warp9"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unknown kernel 'warp9'" in err
        assert "smv0" in err and "mmv" in err


class TestRun:
    def test_step_table(self, capsys):
        assert main_trace(QUICK) == 0
        out = capsys.readouterr().out
        assert out.startswith("instance=demo pes=4 kernel=csr")
        assert "t_comm ms" in out and "\ntotal " in out

    def test_json_to_stdout_is_the_trace_log(self, capsys):
        assert main_trace(QUICK + ["--json", "-"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema_version"] == 2
        assert len(payload["supersteps"]) == 2
        assert "pe_spans" not in payload["supersteps"][0]  # unprofiled

    def test_profile_prints_blame_table_after_step_table(self, capsys):
        assert main_trace(QUICK + ["--profile"]) == 0
        out = capsys.readouterr().out
        assert out.index("\ntotal ") < out.index("critical-path profile")
        assert "modeled" not in out

    def test_profile_machine_models_buckets(self, capsys):
        assert main_trace(QUICK + ["--profile", "--machine", "t3e"]) == 0
        out = capsys.readouterr().out
        assert re.search(r"bucket +seconds +share +modeled", out)

    def test_check_and_folded_turn_profile_on(self, tmp_path, capsys):
        folded = tmp_path / "run.folded"
        assert main_trace(QUICK + ["--check", "--folded", str(folded)]) == 0
        out = capsys.readouterr().out
        assert "critical-path profile" in out
        assert "critical-path identity ok" in out
        lines = folded.read_text().splitlines()
        assert lines and all(FOLDED_LINE.fullmatch(line) for line in lines)

    def test_profile_json_is_the_log_with_spans(self, saved_log):
        log = TraceLog.from_json(saved_log.read_text())
        assert len(log.traces) == 2
        assert all(t.pe_spans is not None for t in log.traces)

    def test_metrics_out_json_carries_phase_histograms(self, tmp_path):
        out = tmp_path / "m.json"
        assert main_trace(QUICK + ["--metrics-out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["version"] == 1
        supersteps = payload["counters"]["repro_smvp_supersteps_total"]
        assert supersteps["total"] == 2
        assert "repro_exchange_rounds_total" in payload["counters"]
        for name in ("repro_smvp_t_smvp_seconds", "repro_smvp_t_comm_seconds"):
            assert payload["histograms"][name]["count"] == 2
        assert payload["spans"]  # stage spans were recorded

    def test_metrics_out_dash_is_prometheus_on_stdout(self, capsys):
        assert main_trace(QUICK + ["--metrics-out", "-"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_smvp_supersteps_total counter" in out
        assert "repro_exchange_words_total" in out
        assert "repro_smvp_t_smvp_seconds_bucket" in out
        assert "repro_smvp_t_comm_seconds_bucket" in out

    def test_timeline_out_is_a_chrome_trace(self, tmp_path):
        out = tmp_path / "timeline.json"
        assert main_trace(QUICK + ["--timeline-out", str(out)]) == 0
        doc = json.loads(out.read_text())
        events = doc["traceEvents"]
        assert events
        for event in events:
            assert {"ph", "ts", "pid", "tid"} <= set(event)
            assert event["ph"] in ("M", "X", "C")
            if event["ph"] == "X":
                assert "name" in event and event["dur"] >= 0
        # Both the superstep phases and the upstream stage spans appear.
        names = {e.get("name") for e in events if e["ph"] == "X"}
        assert {"compute", "exchange"} <= names
        assert any(n.startswith("partition.") for n in sorted(names))

    def test_drift_against_a_host_fit(self, capsys):
        argv = QUICK[:4] + ["--steps", "3", "--drift", "--max-drift", "1e6"]
        assert main_trace(argv) == 0
        out = capsys.readouterr().out
        assert "machine=host-fit" in out
        assert len(re.findall(r"^ +2 ", out, re.M)) == 2  # table + drift

    def test_drift_against_a_preset_fails_a_tight_gate(self, capsys):
        argv = QUICK + ["--drift", "--machine", "t3e", "--max-drift", "1e-9"]
        assert main_trace(argv) == 1
        captured = capsys.readouterr()
        assert "machine=Cray T3E" in captured.out
        assert "DRIFT FAILURE" in captured.err


class TestFromSavedLog:
    def test_timeline(self, saved_log, tmp_path):
        out = tmp_path / "timeline.json"
        argv = ["--from-trace", str(saved_log), "--timeline-out", str(out)]
        assert main_trace(argv) == 0
        doc = json.loads(out.read_text())
        steps = {
            e["args"]["step"]
            for e in doc["traceEvents"]
            if e["ph"] == "X" and "step" in e.get("args", {})
        }
        assert steps == {0, 1}
        events = doc["traceEvents"]
        tracks = {e["args"]["name"] for e in events if e["ph"] == "M"}
        assert "wire" in tracks  # the saved spans came along

    def test_profile_check_and_folded(self, saved_log, tmp_path, capsys):
        folded = tmp_path / "saved.folded"
        argv = ["--from-trace", str(saved_log), "--check"]
        assert main_trace(argv + ["--folded", str(folded)]) == 0
        out = capsys.readouterr().out
        assert out.startswith(f"from-trace={saved_log} kernel=csr")
        assert "critical-path identity ok" in out
        assert "peak displacement" not in out  # a saved log ran nothing
        stacks = folded.read_text().splitlines()
        assert any(line.startswith("wire;") for line in stacks)

    def test_regress_passes_on_identical_logs(self, saved_log, capsys):
        argv = ["--regress", str(saved_log), str(saved_log)]
        assert main_trace(argv) == 0
        assert "no regression" in capsys.readouterr().out

    def test_regress_fails_on_a_slowdown(self, saved_log, tmp_path, capsys):
        # 10x, not CI's 2x: two demo steps can differ enough for the
        # noise-widened band (2 * CV) to pass a doubling.
        slow = _scaled(saved_log, 10.0, tmp_path / "slow.json")
        assert main_trace(["--regress", str(saved_log), slow]) == 1
        captured = capsys.readouterr()
        assert "[REGRESSION]" in captured.out
        assert "PROFILE REGRESSION" in captured.err
        # --threshold sets the base band: +900% passes a 1000% one.
        argv = ["--regress", str(saved_log), slow, "--threshold", "10"]
        assert main_trace(argv) == 0


#: Every view that can write to ``-``, with the grammar of its output.
def _every_line(grammar):
    def parse(text):
        for line in text.splitlines():
            assert grammar.fullmatch(line), line

    return parse


STDOUT_VIEWS = {
    "--json": json.loads,
    "--timeline-out": json.loads,
    "--metrics-out": _every_line(PROMETHEUS_LINE),
    "--folded": _every_line(FOLDED_LINE),
}


@pytest.mark.parametrize("view", sorted(STDOUT_VIEWS))
def test_a_view_on_stdout_is_all_of_stdout(view, tmp_path, capsys):
    """The other views' files still get written; their notices, the
    step table and the blame table go to stderr."""
    others = [
        arg
        for flag in sorted(STDOUT_VIEWS)
        if flag != view
        for arg in (flag, str(tmp_path / f"{flag[2:]}.json"))
    ]
    argv = QUICK + ["--profile", view, "-"] + others
    assert main_trace(argv) == 0
    captured = capsys.readouterr()
    assert captured.out.strip()
    STDOUT_VIEWS[view](captured.out)
    assert "critical-path profile" in captured.err
    assert "finite=True" in captured.err
    assert captured.err.count("wrote ") == len(STDOUT_VIEWS) - 1


class TestTheEarthquake:
    """The run ``repro-quake`` made, now ``repro-trace``'s: a point
    source, lightly damped, and its peak-displacement line after the
    phase table."""

    @pytest.mark.parametrize("backend", ["serial", "threaded"])
    @pytest.mark.parametrize("rhs", [1, 2])
    def test_peak_line_is_the_untraced_runs(self, capsys, rhs, backend):
        argv = ["--instance", "demo", "--pes", "4", "--steps", "5"]
        argv += ["--rhs", str(rhs), "--backend", backend]
        assert main_trace(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        problem = Problem.from_instance("demo")
        with problem.executor(4, backend=backend) as smvp:
            stepper = problem.stepper(smvp, rhs=rhs, damping_alpha=0.02)
            records, _ = stepper.run(5, force_at=problem.point_source())
        peak = max(r.max_displacement for r in records)
        assert peak > 0.0
        line = (
            f"ran 5 steps to t={stepper.time:.2f}s; "
            f"peak displacement {peak:.3e} m; finite=True"
        )
        assert lines[lines.index(line) - 1].startswith("total ")

    def test_metrics_and_timeline_restore_the_registry(self, tmp_path):
        metrics = tmp_path / "m.prom"
        timeline = tmp_path / "t.json"
        argv = ["--metrics-out", str(metrics), "--timeline-out", str(timeline)]
        assert main_trace(QUICK + argv) == 0
        assert "repro_smvp_supersteps_total" in metrics.read_text()
        json.loads(timeline.read_text())  # valid JSON document
        assert get_registry() is None  # previous registry restored


@pytest.mark.parametrize("view", sorted(STDOUT_VIEWS))
def test_a_view_creates_its_missing_directory(view, tmp_path, capsys):
    """A finished run is not lost to a path whose directory does not
    exist yet: every view that writes a file creates its parent first."""
    path = tmp_path / "a" / "b" / "view.out"
    assert main_trace(QUICK + [view, str(path)]) == 0
    assert path.read_text()
    assert f"to {path}" in capsys.readouterr().err
