"""The command line's contract, pinned.

* **Surface snapshot** — every entry point's flags with their defaults
  and choices equal ``golden/cli_surface.json``, generated from the
  commit *before* ``cli.py`` was rebuilt on the shared flag table
  (PR 13).  The only differences are the listed ones: registry flags
  that were free strings there and are validated against the registry
  now.  ``main_trace`` was re-pinned on purpose when ``repro-profile``
  and ``repro-metrics`` were folded into it (19 settable values where
  the three commands had 50).  ``main_chaos`` lost its four
  elastic-growth flags on purpose when growth was retired (eviction is
  the only reconfiguration; README lists them).  ``main_san`` was
  removed with ``repro-san``, when race freedom became a property the
  superstep layout proves at construction (README lists the
  replacements).  ``main_quake`` and ``main_faults`` were removed when
  ``repro-trace`` became the one command that runs the time loop and
  the fault tables joined ``repro-tables``, and ``main_measure`` lost
  ``--profile`` / ``--metrics-out`` with them (README's old → new
  table).
* **Error paths** — bad values exit 2 with a usage message instead of a
  traceback from inside the run.
* **Console scripts** — every ``[project.scripts]`` target imports and
  is callable.
* **One builder** — ``Problem.from_instance("demo").executor`` commits
  the golden serial bits at the golden's stored partition, a PE count
  builds the geometric partition's executor, and the traffic
  ``repro-trace`` reports is pinned.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import cli
from repro.mesh.instances import instance_names
from repro.partition import Partition, partition_mesh
from repro.pipeline import Problem
from repro.smvp.spark98 import SUITE

ROOT = Path(__file__).parent.parent
GOLDEN_DIR = Path(__file__).parent / "golden"

ENTRY_POINTS = (
    "main_tables main_measure main_mesh main_lint main_trace main_chaos"
).split()

#: Where the surface legitimately differs from the pre-PR-13 snapshot:
#: these flags took any string (and died in a traceback, or by a
#: hand-written check, on an unregistered one); they now carry the
#: registry's ``choices`` like the same flag on every other command.
NOW_REGISTRY_CHECKED = {
    ("main_measure", "--instance"): sorted(instance_names()),
    ("main_measure", "--kernels"): sorted(SUITE),
}


class _Captured(Exception):
    """Carries a fully-built parser out of a ``main_*`` before it runs."""


def _describe(parser: argparse.ArgumentParser) -> dict:
    out = {}
    for action in parser._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                for key, value in _describe(sub).items():
                    out[f"{name} {key}"] = value
            continue
        out["/".join(action.option_strings) or action.dest] = {
            "default": action.default,
            "choices": (
                sorted(action.choices) if action.choices is not None else None
            ),
            "nargs": action.nargs,
            "kind": type(action).__name__.strip("_"),
        }
    return out


def _surface(monkeypatch, name: str) -> dict:
    def capture(self, args=None, namespace=None):
        raise _Captured(self)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", capture)
    with pytest.raises(_Captured) as caught:
        getattr(cli, name)([])
    return _describe(caught.value.args[0])


class TestSurfaceSnapshot:
    @pytest.fixture(scope="class")
    def golden(self):
        return json.loads((GOLDEN_DIR / "cli_surface.json").read_text())

    def test_same_entry_points(self, golden):
        assert sorted(golden) == sorted(ENTRY_POINTS)

    @pytest.mark.parametrize("name", ENTRY_POINTS)
    def test_flags_defaults_choices_unchanged(self, monkeypatch, golden, name):
        expected = copy.deepcopy(golden[name])
        for (command, flag), choices in NOW_REGISTRY_CHECKED.items():
            if command == name:
                assert expected[flag]["choices"] is None  # was a free string
                expected[flag]["choices"] = choices
        assert _surface(monkeypatch, name) == expected


@pytest.fixture(scope="module")
def saved_files(tmp_path_factory) -> dict:
    """``@name`` in a USAGE_ERRORS argv -> a file it names: a one-step
    trace log with and without profiler spans, and what is not one; a
    checkpoint directory no rejected run may create."""
    from repro.profile import HOST, PeSpan, SuperstepSpans
    from repro.smvp.trace import SuperstepTrace, TraceLog

    root = tmp_path_factory.mktemp("saved")
    trace = SuperstepTrace(
        step=0,
        kernel="csr",
        backend="serial",
        t_scatter=0.0,
        t_comp=1e-3,
        t_comm=0.0,
        t_gather=0.0,
        t_smvp=1e-3,
        words_sent=np.zeros(1, dtype=np.int64),
        blocks_sent=np.zeros(1, dtype=np.int64),
    )
    spans = SuperstepSpans(
        (PeSpan("compute", HOST, 0.0, 1e-3), PeSpan("compute", 0, 0.0, 1e-3))
    )
    texts = {
        "not_json": "not json\n",
        "wrong_schema": json.dumps({"schema": "repro-profile/1"}),
        "empty": TraceLog().render_json(),
    }
    for name, pe_spans in (("unprofiled", None), ("profiled", spans)):
        log = TraceLog()
        log(dataclasses.replace(trace, pe_spans=pe_spans))
        texts[name] = log.render_json()
    files = {
        "@missing": str(root / "missing.json"),
        "@checkpoints": str(root / "checkpoints"),
    }
    for name, text in texts.items():
        (root / f"{name}.json").write_text(text)
        files["@" + name] = str(root / f"{name}.json")
    return files


USAGE_ERRORS = [
    # --instance: the copy that had no choices=
    ("main_measure", ["--instance", "bogus"], "unknown instance 'bogus'"),
    # a backend that is not (or no longer) registered, on every parser
    # that takes --backend
    ("main_chaos", ["--smoke", "--backend", "bogus"], "unknown backend 'bogus'"),
    ("main_measure", ["--backend", "bogus"], "unknown backend 'bogus'"),
    ("main_trace", ["--backend", "shared-memory"], "unknown backend 'shared-memory'"),
    # --pes 0: "num_parts must be >= 1" from the partitioner
    ("main_trace", ["--pes", "0"], "--pes must be >= 1"),
    ("main_chaos", ["--pes", "0"], "--pes must be >= 1"),
    # --pes above the mesh's element count: PartitionError from the
    # partitioner, after the mesh and materials were built
    ("main_trace", ["--pes", "100000"], "--pes must be <= 19200"),
    ("main_measure", ["--instance", "demo", "--pes", "100000"], "--pes must be <= 19200"),
    ("main_chaos", ["--instance", "demo", "--pes", "100000"], "--pes must be <= 19200"),
    # --steps 0: "no profiled supersteps" from the report builder
    ("main_trace", ["--profile", "--steps", "0"], "--steps must be >= 1"),
    # the vacuous drift gate: one superstep is all calibration
    (
        "main_trace",
        ["--drift", "--steps", "1", "--max-drift", "1e-12"],
        "--steps >= 2",
    ),
    # a gate threshold that gates nothing: nan and inf pass any
    # slowdown or drift, and a bound <= 0 is no bound
    *[
        ("main_trace", argv + [value], f"{argv[-1]} must be finite and > 0")
        for argv in (
            ["--regress", "@profiled", "@profiled", "--threshold"],
            ["--drift", "--max-drift"],
        )
        for value in ("nan", "inf", "-1", "0")
    ],
    ("main_trace", ["--threshold", "0.2"], "--threshold only applies to"),
    # two views on stdout would interleave two documents
    ("main_trace", ["--json", "-", "--folded", "-"], "at most one view"),
    ("main_trace", ["--metrics-out", "-", "--timeline-out", "-"], "at most one view"),
    # what a saved log cannot answer: the run's flops, schedule, registry
    ("main_trace", ["--from-trace", "@profiled", "--drift"], "--drift needs a run"),
    ("main_trace", ["--from-trace", "@profiled", "--machine", "t3e"], "--machine needs a run"),
    ("main_trace", ["--from-trace", "@profiled", "--metrics-out", "m.prom"], "--metrics-out needs a run"),
    # saved-file inputs that are not a (profiled) trace log
    ("main_trace", ["--from-trace", "@missing"], "not a readable trace log"),
    ("main_trace", ["--from-trace", "@not_json"], "not a readable trace log"),
    ("main_trace", ["--from-trace", "@wrong_schema"], "unsupported trace log version"),
    ("main_trace", ["--from-trace", "@empty"], "holds no supersteps"),
    ("main_trace", ["--from-trace", "@unprofiled", "--check"], "carries no profiler spans"),
    ("main_trace", ["--regress", "@missing", "@profiled"], "not a readable trace log"),
    ("main_trace", ["--regress", "@profiled", "@not_json"], "not a readable trace log"),
    ("main_trace", ["--regress", "@wrong_schema", "@profiled"], "unsupported trace log version"),
    ("main_trace", ["--regress", "@profiled", "@unprofiled"], "carries no profiler spans"),
    ("main_trace", ["--regress", "@profiled", "@profiled", "--profile"], "it takes no view"),
    # a link-fault mix above 1/3 cannot be a probability distribution
    ("main_chaos", ["--smoke", "--fault-rate", "0.5"], "--fault-rate must be"),
    # a kill the run never reaches would evict nothing and pass the
    # survivor-equivalence gate vacuously (--smoke runs supersteps 0..9)
    ("main_chaos", ["--smoke", "--kill", "99:1"], "superstep 99 never fires: the run has 10 steps"),
    ("main_chaos", ["--smoke", "--kill", "10:1"], "superstep 10 never fires: the run has 10 steps"),
    # values the run would only refuse with a traceback
    (
        "main_chaos",
        ["--smoke", "--checkpoint-dir", "@checkpoints", "--checkpoint-interval", "0"],
        "--checkpoint-interval must be >= 1",
    ),
    ("main_chaos", ["--smoke", "--sticky", "1", "--sticky-from", "-3"], "--sticky-from must be >= 0"),
    (
        "main_chaos",
        ["--smoke", "--checkpoint-dir", "@checkpoints", "--checkpoint-interval", "-1"],
        "--checkpoint-interval must be >= 1",
    ),
    # the retired elastic flags: eviction is the only reconfiguration
    *[
        ("main_chaos", ["--smoke", *flag], f"unrecognized arguments: {' '.join(flag)}")
        for flag in (["--grow", "3:1"], ["--probation", "4"], ["--autoscale"])
    ],
    # kill schedules no run can carry out as written
    ("main_chaos", ["--smoke", "--kill", "12-3"], "bad kill token '12-3'"),
    ("main_chaos", ["--smoke", "--kill=-1:1"], "kill entries must be non-negative"),
    ("main_chaos", ["--smoke", "--kill", "1:2,3:2"], "a PE can only be killed once"),
    ("main_chaos", ["--smoke", "--kill", "3:17"], "kill targets PE 17, but only 6 PEs exist"),
    ("main_chaos", ["--smoke", "--kills", "6"], "count must leave at least one survivor"),
    ("main_chaos", ["--smoke", "--kills", "0"], "--kills must be >= 1"),
    ("main_chaos", ["--smoke", "--kills", "-2"], "--kills must be >= 1"),
    # corruption flags outside their range, and shadows off with no
    # checkpoint to roll back to
    ("main_chaos", ["--smoke", "--flip", "0.5"], "--flip must be in [0, 0.4]"),
    ("main_chaos", ["--smoke", "--flip", "nan"], "--flip must be in [0, 0.4]"),
    ("main_chaos", ["--smoke", "--sticky", "9"], "--sticky targets PE 9, but only 6 PEs exist"),
    ("main_chaos", ["--smoke", "--sticky", "a"], "bad --sticky list 'a'"),
    ("main_chaos", ["--smoke", "--no-shadow"], "--no-shadow requires --checkpoint-dir"),
    # a preset without T_l/T_w cannot price communication
    ("main_trace", ["--machine", "t3d"], "does not define T_l"),
]


@pytest.mark.parametrize(
    "name, argv, message",
    USAGE_ERRORS,
    ids=[f"{n[5:]} {' '.join(a)}" for n, a, _ in USAGE_ERRORS],
)
def test_bad_values_are_usage_errors(
    capsys, saved_files, name, argv, message
):
    argv = [saved_files.get(arg, arg) for arg in argv]
    with pytest.raises(SystemExit) as exc:
        getattr(cli, name)(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("usage: repro-")
    assert message in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""  # rejected before any work was done


def test_drift_report_never_passes_on_nothing():
    from repro.telemetry import DriftReport, DriftThresholds

    report = DriftReport(
        machine="host-fit",
        beta=1.0,
        eq2_t_comm=1.0,
        exact_t_comm=1.0,
        thresholds=DriftThresholds(),
    )
    assert report.violations() == ["no supersteps observed"]
    assert not report.ok


def test_console_scripts_resolve():
    text = (ROOT / "pyproject.toml").read_text()
    section = text.split("[project.scripts]")[1].split("\n[")[0]
    scripts = dict(re.findall(r'^([\w-]+) = "([\w.:]+)"$', section, re.M))
    assert sorted(target.split(":")[1] for target in scripts.values()) == (
        sorted(ENTRY_POINTS)
    )
    for script, target in scripts.items():
        module, function = target.split(":")
        assert callable(getattr(importlib.import_module(module), function)), (
            script
        )


class TestOneBuilder:
    def test_problem_executor_commits_the_golden_bits(self):
        """The golden bits at the golden's own parts, and a PE count
        builds exactly the executor of the geometric partition."""
        golden = np.load(GOLDEN_DIR / "smvp_serial_golden.npz")
        num_parts = int(golden["num_parts"])
        problem = Problem.from_instance("demo")
        rng = np.random.default_rng(int(golden["x_seed"]))
        x = rng.standard_normal(problem.num_dofs)
        with problem.executor(Partition(golden["parts"], num_parts)) as smvp:
            assert np.array_equal(smvp.multiply(x), golden["y_csr"])
        geometric = partition_mesh(problem.mesh, num_parts, "geometric")
        with problem.executor(num_parts) as by_count:
            assert np.array_equal(by_count.partition.parts, geometric.parts)
            y = by_count.multiply(x).copy()
        with problem.executor(geometric) as by_partition:
            assert np.array_equal(by_partition.multiply(x), y)

    def test_run_never_imports_scipy_spatial(self):
        """Import, mesh, partition and executor in a fresh interpreter:
        nothing on the path loads ``scipy.spatial`` (≈ 7.6 MiB RSS)."""
        code = (
            "import sys\n"
            "import repro\n"
            "from repro.pipeline import Problem\n"
            "problem = Problem.from_instance('demo')\n"
            "problem.executor(problem.partition(8)).close()\n"
            "assert 'scipy.spatial' not in sys.modules\n"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, timeout=120,
            capture_output=True, text=True,
        )
        assert done.returncode == 0, done.stderr

    @pytest.mark.parametrize("backend", ["serial", "overlap"])
    def test_trace_traffic_unchanged(self, capsys, backend):
        """Per-PE words/blocks of every demo/p=8 superstep over the
        geometric partition, as ``repro-trace --json -`` prints them."""
        argv = ["--instance", "demo", "--pes", "8", "--steps", "3"]
        argv += ["--backend", backend, "--json", "-"]
        assert cli.main_trace(argv) == 0
        steps = json.loads(capsys.readouterr().out)["supersteps"]
        assert len(steps) == 3
        for step in steps:
            assert step["words_sent"] == [270, 450, 270, 450, 450, 270, 450, 270]
            assert step["blocks_sent"] == [3, 5, 3, 5, 5, 3, 5, 3]
