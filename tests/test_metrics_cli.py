"""CLI surface tests: ``repro-metrics`` and the telemetry flags.

Also covers the UX guarantee that an unknown backend name fed to
``repro-quake`` / ``repro-measure`` exits non-zero with the registered
names in the message instead of dumping a traceback.
"""

import json

import pytest

from repro.cli import main_measure, main_metrics, main_quake, main_trace
from repro.telemetry.registry import get_registry, set_registry


@pytest.fixture(autouse=True)
def _no_registry_leaks():
    assert get_registry() is None
    yield
    set_registry(None)


QUICK = ["--instance", "demo", "--pes", "4", "--steps", "2"]


class TestUnknownNames:
    def test_metrics_unknown_backend_exits_two_with_options(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main_metrics(["snapshot", "--backend", "bogus"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unknown backend 'bogus'" in err
        assert "serial" in err  # registered names are listed

    def test_quake_unknown_backend_exits_two_with_options(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main_quake(["--backend", "gpu"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unknown backend 'gpu'" in err
        assert "serial" in err

    def test_measure_unknown_kernel_exits_two_with_suite(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main_measure(["--kernels", "warp9"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unknown kernels" in err
        assert "smv0" in err and "mmv" in err


class TestMetricsSnapshot:
    def test_prints_prometheus_by_default(self, capsys):
        assert main_metrics(["snapshot"] + QUICK) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_smvp_supersteps_total counter" in out
        assert "repro_exchange_words_total" in out
        assert "repro_smvp_t_smvp_seconds_bucket" in out

    def test_json_out_file(self, tmp_path, capsys):
        out = tmp_path / "snap.json"
        assert main_metrics(["snapshot", "--out", str(out)] + QUICK) == 0
        payload = json.loads(out.read_text())
        assert payload["version"] == 1
        supersteps = payload["counters"]["repro_smvp_supersteps_total"]
        assert supersteps["total"] == 2
        assert payload["spans"]  # stage spans were recorded


class TestMetricsTimeline:
    def test_emits_schema_valid_chrome_trace(self, tmp_path):
        out = tmp_path / "timeline.json"
        assert main_metrics(["timeline", "--out", str(out)] + QUICK) == 0
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

    def test_from_trace_conversion(self, tmp_path, capsys):
        assert main_trace(QUICK + ["--json"]) == 0
        report = capsys.readouterr().out
        trace_path = tmp_path / "trace.json"
        trace_path.write_text(report)
        out = tmp_path / "timeline.json"
        assert (
            main_metrics(
                ["timeline", "--from-trace", str(trace_path),
                 "--out", str(out)]
            )
            == 0
        )
        doc = json.loads(out.read_text())
        steps = {
            e["args"]["step"]
            for e in doc["traceEvents"]
            if e["ph"] == "X" and "step" in e.get("args", {})
        }
        assert steps == {0, 1}


class TestMetricsDrift:
    def test_simulator_drift_is_zero(self, capsys):
        rc = main_metrics(
            ["drift", "--source", "simulate", "--max-drift", "1e-9"]
            + QUICK
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "[ok]" in out
        assert "comp=0.00%" in out and "comm=0.00%" in out

    def test_faulty_run_fails_tight_threshold(self, capsys):
        rc = main_metrics(
            ["drift", "--source", "simulate", "--fault-rate", "0.2",
             "--seed", "3", "--max-drift", "1e-6", "--steps", "5"]
            + QUICK[:4]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert "DRIFT FAILURE" in err

    def test_json_report(self, capsys):
        rc = main_metrics(
            ["drift", "--source", "simulate", "--json"] + QUICK
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == 1
        assert payload["machine"] == "Cray T3E"
        assert payload["beta_violated"] is False
        assert len(payload["supersteps"]) == 2


class TestFlagExtensions:
    def test_quake_writes_metrics_and_timeline(self, tmp_path, capsys):
        metrics = tmp_path / "m.prom"
        timeline = tmp_path / "t.json"
        rc = main_quake(
            QUICK
            + ["--metrics-out", str(metrics), "--timeline-out",
               str(timeline)]
        )
        assert rc == 0
        assert "repro_smvp_supersteps_total" in metrics.read_text()
        json.loads(timeline.read_text())  # valid JSON document
        assert get_registry() is None  # previous registry restored

    def test_trace_metrics_out(self, tmp_path, capsys):
        out = tmp_path / "m.json"
        rc = main_trace(QUICK + ["--metrics-out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert "repro_exchange_rounds_total" in payload["counters"]
