"""Command-line entry points.

``repro-tables``
    Regenerate the paper's tables and figures (all, or a selection),
    the reliability sweep and the executor's fault-recovery table
    included (``repro-tables reliability fault-recovery``).

``repro-mesh``
    Build a named mesh instance, report its statistics, optionally
    export it.

``repro-measure``
    Run the Spark98-style kernel suite and print T_f per kernel.

``repro-trace``
    The one command that runs the time loop, and the one inspect
    command: run the earthquake (a Ricker point source, lightly damped)
    through the distributed executor with a trace log attached, print
    the per-step phase table and the peak-displacement line, or load a
    saved log with ``--from-trace``, and derive every view from that
    one log: the log itself (``--json``), the critical-path blame table
    (``--profile``), folded stacks, the Chrome timeline, the metrics
    snapshot, model drift, the critical-path identity check;
    ``--regress`` compares two saved profiled logs and exits 1 on a
    slowdown.

``repro-lint``
    Determinism / units / BSP-invariant static analysis over the
    source tree (and golden ``*schedule*.json`` files).  Exits 1 on
    findings; gates CI.

``repro-chaos``
    Self-healing exercise: run under the superstep supervisor with a
    seeded schedule of permanent PE failures, evict the dead PEs
    online, and prove survivor equivalence (a fresh P-1 run from the
    spliced state matches bit for bit).  Exits 1 when the proof fails;
    gates CI's chaos job.

Every command builds its run from :class:`repro.pipeline.Problem`, and
every flag more than one command takes is declared once, in
:data:`SHARED_FLAGS`; a command lists the ones it wants through
:func:`workload_args`.  Bad values are rejected by the flag's ``type=``
validator at parse time — and ``--pes`` against the instance's mesh by
:func:`pes_within` right after it — with a usage message and exit 2,
never by a traceback from inside the run.  Every file a command writes
gets its parent directory created first.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import nullcontext
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.mesh.instances import get_instance, instance_names
from repro.model.machine import MACHINES
from repro.pipeline import Problem
from repro.profile import ProfileReport, build_report, render_report
from repro.smvp.backends import backend_names
from repro.smvp.trace import TraceLog
from repro.telemetry import (
    MetricsRegistry,
    render_chrome_trace,
    render_prometheus,
    use_registry,
    write_metrics,
)
from repro.util.clock import now

# -- typed arguments ---------------------------------------------------------


def positive_int(flag: str) -> Callable[[str], int]:
    """``type=`` for a count: a whole number >= 1."""

    def parse(text: str) -> int:
        value = int(text)
        if value < 1:
            raise argparse.ArgumentTypeError(f"{flag} must be >= 1")
        return value

    parse.__name__ = "int"  # argparse words a ValueError with this name
    return parse


def rate(flag: str, maximum: float) -> Callable[[str], float]:
    """``type=`` for a fault probability in ``[0, maximum]``."""

    def parse(text: str) -> float:
        value = float(text)
        if not 0.0 <= value <= maximum:
            raise argparse.ArgumentTypeError(
                f"{flag} must be in [0, {maximum}]"
            )
        return value

    parse.__name__ = "float"
    return parse


def finite_positive(flag: str) -> Callable[[str], float]:
    """``type=`` for a gate's threshold: a finite number > 0 (``nan``,
    ``inf`` or a negative value would turn the gate off)."""

    def parse(text: str) -> float:
        value = float(text)
        if not (math.isfinite(value) and value > 0.0):
            raise argparse.ArgumentTypeError(f"{flag} must be finite and > 0")
        return value

    parse.__name__ = "float"
    return parse


def registered(kind: str, options: Sequence[str]) -> Callable[[str], str]:
    """``type=`` for a registry name; the error lists what is registered."""

    def parse(text: str) -> str:
        if text not in options:
            raise argparse.ArgumentTypeError(
                f"unknown {kind} {text!r}; options: {list(options)}"
            )
        return text

    return parse


def comm_machine(text: str) -> str:
    """``type=`` for ``--machine``: a preset that defines T_l and T_w
    (everything the CLI models with a machine prices communication)."""
    name = registered("machine", sorted(MACHINES))(text)
    try:
        MACHINES[name].require_comm("communication modeling")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return name


def pes_within(
    parser: argparse.ArgumentParser, pes: int, *instances: str
) -> None:
    """The half of ``--pes``' validation its ``type=`` cannot see: a
    partition needs at least one element per PE, so ``pes`` above the
    element count of an instance it is to partition is a usage error.
    Every command taking ``--pes`` calls this right after parsing (the
    mesh built here is the run's own, cached); gated instances are left
    to the run, which skips them."""
    for name in instances:
        instance = get_instance(name)
        if not instance.is_enabled():
            continue
        elements = instance.build()[0].num_elements
        if pes > elements:
            parser.error(
                f"--pes must be <= {elements}, the elements of instance "
                f"{name} (one element per PE at least)"
            )


def _registry_flag(kind: str, options: Sequence[str], **kwargs) -> dict:
    """A flag whose values come from a registry: validated by name
    (``registered``) and listed in ``--help`` (``choices=``)."""
    options = list(options)
    return dict(type=registered(kind, options), choices=options, **kwargs)


#: Every flag more than one command takes, declared once: name ->
#: ``add_argument`` keywords.  Commands pick theirs with
#: :func:`workload_args`, passing their own defaults as data.
SHARED_FLAGS: Dict[str, dict] = {
    "instance": _registry_flag(
        "instance",
        instance_names(),
        default="demo",
        help="mesh instance (default: %(default)s)",
    ),
    "pes": dict(type=positive_int("--pes"), default=8, help="number of PEs"),
    "steps": dict(
        type=positive_int("--steps"),
        default=10,
        help="time steps (one superstep each) to run",
    ),
    "backend": _registry_flag(
        "backend",
        backend_names(),
        default="serial",
        help="execution backend for the compute phase "
        "(default: %(default)s)",
    ),
    "rhs": dict(
        type=positive_int("--rhs"),
        default=1,
        metavar="R",
        help="right-hand-side columns per superstep (block SMVP; "
        "1 = the historical vector path)",
    ),
    "seed": dict(type=int, default=0, help="seed of every random draw"),
    "fault_rate": dict(
        type=rate("--fault-rate", 0.3),
        default=0.0,
        help="uniform drop/bitflip/duplicate rate through the exchange "
        "middleware (0 = clean path)",
    ),
    "machine": dict(
        type=comm_machine,
        choices=sorted(MACHINES),
        default="t3e",
        help="machine preset (needs T_l/T_w, e.g. t3e)",
    ),
}


def workload_args(
    parser: argparse.ArgumentParser,
    *names: str,
    defaults: Optional[Dict[str, object]] = None,
    help: Optional[Dict[str, str]] = None,
) -> None:
    """Add the named :data:`SHARED_FLAGS` to ``parser``.

    ``defaults`` / ``help`` override a flag's default or help text for
    this command; everything else (type, choices, validation) is the
    table's, so a flag means the same thing on every command.
    """
    for name in names:
        spec = dict(SHARED_FLAGS[name])
        if defaults and name in defaults:
            spec["default"] = defaults[name]
        if help and name in help:
            spec["help"] = help[name]
        parser.add_argument("--" + name.replace("_", "-"), **spec)


# -- output files ------------------------------------------------------------


def _write_text(text: str, path: str, what: str) -> None:
    """Write ``text`` to ``path`` (``-`` = stdout).  The notice goes to
    stderr, so a view written to stdout stays parseable."""
    if path == "-":
        sys.stdout.write(text)
    else:
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(text)
        print(f"wrote {what} to {path}", file=sys.stderr)


# -- entry points ------------------------------------------------------------


def main_tables(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``repro-tables``."""
    from repro.tables.report import TABLES, generate

    parser = argparse.ArgumentParser(
        prog="repro-tables",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "tables",
        nargs="*",
        help=f"tables to generate (default all): {', '.join(TABLES)}",
    )
    args = parser.parse_args(argv)
    try:
        sys.stdout.write(generate(args.tables or None))
    except ValueError as exc:
        parser.error(str(exc))
    return 0


def main_mesh(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``repro-mesh``: build, inspect, and export meshes."""
    from repro.mesh.io import save_mesh, save_mesh_text
    from repro.mesh.quality import quality_report

    parser = argparse.ArgumentParser(
        prog="repro-mesh",
        description="Generate a named instance mesh and report/export it.",
    )
    workload_args(parser, "instance", defaults={"instance": "sf10e"})
    parser.add_argument(
        "--out", default=None, help="write the mesh to this .npz path"
    )
    parser.add_argument(
        "--out-text", default=None, help="write the portable text format"
    )
    parser.add_argument(
        "--no-cache", action="store_true", help="force a fresh build"
    )
    args = parser.parse_args(argv)

    inst = get_instance(args.instance)
    if not inst.is_enabled():
        parser.error(
            f"instance {args.instance} is gated; set {inst.gate}=1"
        )
    mesh, report = inst.build(use_cache=not args.no_cache)
    print(f"{args.instance}: {mesh}")
    if report is not None:
        print(
            f"  generated in {report.seconds_total:.1f}s "
            f"(octree stuffing: {report.octree_leaves} leaves, depth "
            f"{report.octree_max_level})"
        )
    print(f"  quality: {quality_report(mesh)}")
    if inst.paper_mesh_sizes:
        paper = inst.paper_mesh_sizes
        print(
            f"  paper ({inst.paper_name}): nodes={paper['nodes']:,} "
            f"elements={paper['elements']:,} edges={paper['edges']:,}"
        )
    if args.out:
        save_mesh(mesh, args.out)
        print(f"  wrote {args.out}")
    if args.out_text:
        save_mesh_text(mesh, args.out_text)
        print(f"  wrote {args.out_text}")
    return 0


def main_lint(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``repro-lint``: the static-analysis gate."""
    from repro.analysis import (
        ALL_RULES,
        lint_paths,
        render_json,
        render_text,
    )

    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=(
            "Static analysis for reproducibility: determinism lints "
            "(unseeded RNG, wall-clock reads, set-order iteration) "
            "and dimensional consistency of the Eq. (1)/(2) model code."
        ),
        epilog=(
            "Suppress an intentional finding with an inline "
            "`# repro-lint: ignore[rule]` pragma. Exit status: 0 clean, "
            "1 findings, 2 usage error."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit a machine-readable JSON report instead of text",
    )
    parser.add_argument(
        "--rules",
        nargs="*",
        default=None,
        metavar="RULE",
        help="restrict to these rules (default: all)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )
    parser.add_argument(
        "--pragma-report",
        action="store_true",
        help=(
            "also print the pragma budget: every "
            "`# repro-lint: ignore` suppression under the target "
            "paths, tallied by rule and file"
        ),
    )
    parser.add_argument(
        "--pragma-budget",
        type=int,
        default=None,
        metavar="N",
        help=(
            "fail (exit 1) when the pragma count exceeds N "
            "(implies --pragma-report)"
        ),
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        from repro.analysis.core import _ensure_rules_loaded

        _ensure_rules_loaded()
        for name, rule in ALL_RULES.items():
            print(f"{name:<22} {rule.description}")
        return 0
    try:
        findings = lint_paths(args.paths, rules=args.rules)
    except (FileNotFoundError, ValueError) as exc:
        parser.error(str(exc))
    over_budget = False
    if args.pragma_report or args.pragma_budget is not None:
        from repro.analysis.core import pragma_report, render_pragma_report

        report = pragma_report(args.paths)
        sys.stdout.write(render_pragma_report(report))
        if (
            args.pragma_budget is not None
            and report["total"] > args.pragma_budget
        ):
            print(
                f"pragma budget exceeded: {report['total']} > "
                f"{args.pragma_budget}"
            )
            over_budget = True
    if args.json:
        print(render_json(findings))
    else:
        sys.stdout.write(render_text(findings))
    return 1 if findings or over_budget else 0


def main_measure(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``repro-measure``: the Spark98-style suite."""
    from repro.smvp.spark98 import SUITE, run_suite

    parser = argparse.ArgumentParser(
        prog="repro-measure",
        description="Measure T_f for the Spark98-style kernel suite.",
    )
    workload_args(
        parser,
        "instance", "pes", "backend", "rhs",
        defaults={"instance": "sf10e"},
        help={
            "backend": "execution backend for the partitioned kernels "
            "(lmv/mmv)",
            "rhs": "right-hand-side columns per SMVP (block kernels; flops "
            "count every column so T_f stays per-flop-per-column)",
        },
    )
    parser.add_argument(
        "--repetitions", type=positive_int("--repetitions"), default=3
    )
    parser.add_argument(
        "--kernels",
        **_registry_flag(
            "kernel", SUITE, nargs="*", default=None, help=f"subset of {SUITE}"
        ),
    )
    args = parser.parse_args(argv)
    pes_within(parser, args.pes, args.instance)
    results = run_suite(
        instance=args.instance,
        num_parts=args.pes,
        repetitions=args.repetitions,
        kernels=tuple(args.kernels) if args.kernels else SUITE,
        backend=args.backend,
        rhs=args.rhs,
    )
    if args.rhs > 1:
        print(f"rhs={args.rhs} (block SMVP; flops count every column)")
    print(
        f"{'kernel':<8} {'p':>4} {'backend':<13} {'flops':>12} "
        f"{'s/SMVP':>12} {'T_f ns':>9} {'MFLOPS':>8}"
    )
    for name, run in results.items():
        print(
            f"{name:<8} {run.num_parts:>4} {run.backend:<13} {run.flops:>12,} "
            f"{run.seconds_per_smvp:>12.6f} {run.tf_ns:>9.2f} "
            f"{run.mflops:>8.0f}"
        )
    return 0


#: Absolute slack on the critical-path identity gate (seconds).  The
#: host windows tile [0, t_smvp] by construction, so the error is pure
#: float-addition roundoff — nanoseconds would already be a failure.
PROFILE_IDENTITY_TOL = 1e-9

#: The views ``repro-trace`` writes to a file, by dest; ``-`` sends one
#: to stdout (at most one may, so stdout stays one parseable document).
FILE_VIEWS = ("json", "folded", "metrics_out", "timeline_out")


def _load_log(
    parser: argparse.ArgumentParser, path: str, flag: str
) -> TraceLog:
    """A saved ``repro-trace --json`` log; a file that is missing,
    unreadable, not JSON, of another schema or empty is a usage error."""
    # A malformed record fails wherever from_dict first reads it.
    broken = (OSError, ValueError, LookupError, TypeError, AttributeError)
    try:
        log = TraceLog.from_json(Path(path).read_text())
    except broken as exc:
        parser.error(f"{flag} {path}: not a readable trace log ({exc})")
    if not log.traces:
        parser.error(f"{flag} {path}: the log holds no supersteps")
    return log


def _profiled_report(
    parser: argparse.ArgumentParser, log: TraceLog, source: str
) -> ProfileReport:
    try:
        return build_report(log)
    except ValueError:
        parser.error(
            f"{source} carries no profiler spans; record it with --profile"
        )


def main_trace(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``repro-trace``: the one run and inspect command.

    Runs the earthquake — the instance's Ricker point source with
    ``damping_alpha=0.02`` — through the distributed executor with a
    :class:`~repro.smvp.trace.TraceLog` attached, or loads a saved log
    (``--from-trace``), and derives every view from that log: the
    per-step phase table, the log JSON, the blame table, folded stacks,
    the timeline, the metrics snapshot, drift and the critical-path
    identity check.  A run also prints its peak-displacement line after
    the phase table.  ``--regress OLD NEW`` instead compares two saved
    profiled logs and exits 1 on a slowdown.
    """
    from repro.profile import (
        DEFAULT_REGRESS_THRESHOLD,
        compare_reports,
        render_folded,
    )

    parser = argparse.ArgumentParser(
        prog="repro-trace",
        description=(
            "Run the earthquake through the distributed executor (or load "
            "a saved log) and derive every view from the one trace log: "
            "per-phase wall times, per-PE traffic and faults per "
            "superstep, the peak displacement, the critical-path blame "
            "table, folded stacks, a Perfetto timeline, a metrics "
            "snapshot, and drift against the Eq. (1)/(2) model."
        ),
        epilog="Exit status: 0 ok, 1 a gate failed (--check, --max-drift, "
        "--regress), 2 usage error.",
    )
    workload_args(
        parser,
        "instance", "pes", "steps", "backend", "fault_rate",
        "rhs", "seed", "machine",
        defaults={"machine": None},
        help={
            "machine": "price the run on this preset: the modeled buckets "
            "beside the measured ones (--profile) and the drift baseline "
            "(--drift; default: a host machine fitted from the first "
            "steps)",
        },
    )
    parser.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="write a metrics snapshot after the run (.json = JSON, "
        "anything else = Prometheus text, '-' = Prometheus text on stdout)",
    )
    parser.add_argument(
        "--timeline-out",
        default=None,
        metavar="PATH",
        help="write a Chrome-trace/Perfetto JSON timeline ('-' = stdout; "
        "per-PE and wire-thread tracks when profiled)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="record per-PE spans and print a critical-path blame "
        "summary after the run",
    )
    parser.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="write the trace log (spans included when profiled; "
        "'-' = stdout); --from-trace and --regress read these",
    )
    parser.add_argument(
        "--from-trace",
        default=None,
        metavar="PATH",
        help="derive the views from a saved --json log instead of "
        "running a workload",
    )
    parser.add_argument(
        "--folded",
        default=None,
        metavar="PATH",
        help="write flamegraph folded stacks ('-' = stdout); implies "
        "--profile",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="fail (exit 1) unless the critical-path identity "
        "|path - t_smvp| holds on every superstep; implies --profile",
    )
    parser.add_argument(
        "--drift",
        action="store_true",
        help="compare measured phase times against the Eq. (1)/(2) model",
    )
    parser.add_argument(
        "--max-drift",
        type=finite_positive("--max-drift"),
        default=None,
        metavar="FRACTION",
        help="fail (exit 1) when |relative drift| of T_comp or T_comm "
        "exceeds this fraction, or the beta bound is violated; implies "
        "--drift",
    )
    parser.add_argument(
        "--regress",
        nargs=2,
        default=None,
        metavar=("OLD", "NEW"),
        help="compare two profiled --json logs instead of running a "
        "workload; exit 1 on a slowdown beyond the noise-aware threshold",
    )
    parser.add_argument(
        "--threshold",
        type=finite_positive("--threshold"),
        default=None,
        metavar="FRACTION",
        help="base relative-slowdown threshold for --regress "
        "(widened automatically on noisy baselines; default 0.10)",
    )
    args = parser.parse_args(argv)

    profile = args.profile or args.check or args.folded is not None
    drift = args.drift or args.max_drift is not None
    views = [d for d in FILE_VIEWS if getattr(args, d) is not None]
    to_stdout = [d for d in views if getattr(args, d) == "-"]
    if args.threshold is not None and not args.regress:
        parser.error("--threshold only applies to --regress")
    if args.regress and (profile or drift or views or args.from_trace):
        parser.error("--regress compares two saved logs; it takes no view")
    if len(to_stdout) > 1:
        parser.error(
            "at most one view may write to stdout ('-'); got "
            + " and ".join("--" + d.replace("_", "-") for d in to_stdout)
        )
    if args.from_trace:
        for flag, wanted in (
            ("--drift", drift),
            ("--machine", args.machine),
            ("--metrics-out", args.metrics_out),
        ):
            if wanted:
                parser.error(
                    f"{flag} needs a run (its flops, schedule and "
                    "metrics); it cannot read --from-trace"
                )
    elif drift and args.machine is None and args.steps < 2:
        parser.error(
            "--drift without --machine needs --steps >= 2: the first "
            "supersteps calibrate the host machine, and at least one "
            "more must be left to observe"
        )

    if args.regress:
        old, new = (
            _profiled_report(
                parser, _load_log(parser, path, "--regress"), path
            )
            for path in args.regress
        )
        base = args.threshold or DEFAULT_REGRESS_THRESHOLD
        ok, lines = compare_reports(old, new, base_threshold=base)
        print("\n".join(lines))
        if not ok:
            print("PROFILE REGRESSION", file=sys.stderr)
            return 1
        print("no regression")
        return 0

    registry = flops = schedule = None
    peak_line = None
    if args.from_trace:
        log = _load_log(parser, args.from_trace, "--from-trace")
        source = f"from-trace={args.from_trace}"
    else:
        pes_within(parser, args.pes, args.instance)
        log = TraceLog()
        if args.metrics_out or args.timeline_out:
            registry = MetricsRegistry(clock=now)
        with nullcontext() if registry is None else use_registry(registry):
            problem = Problem.from_instance(args.instance)
            with problem.executor(
                args.pes,
                backend=args.backend,
                fault_rate=args.fault_rate,
                seed=args.seed,
                profile=profile,
            ) as smvp:
                stepper = problem.stepper(
                    smvp, rhs=args.rhs, damping_alpha=0.02
                )
                records, _ = stepper.run(
                    args.steps,
                    force_at=problem.point_source(),
                    trace_sink=log,
                )
                flops, schedule = smvp.flops_per_pe(), smvp.schedule
        peak = max(r.max_displacement for r in records)
        peak_line = (
            f"ran {args.steps} steps to t={stepper.time:.2f}s; "
            f"peak displacement {peak:.3e} m; finite={np.isfinite(peak)}"
        )
        source = f"instance={args.instance} pes={args.pes}"
    report = _profiled_report(parser, log, source) if profile else None

    # With a view on stdout, everything meant for a reader goes to stderr.
    out = sys.stderr if to_stdout else sys.stdout
    last = log.traces[-1]
    fault_rate = "" if args.from_trace else f" fault_rate={args.fault_rate}"
    print(
        f"{source} kernel={last.kernel} backend={last.backend}"
        f"{fault_rate} rhs={last.rhs}",
        file=out,
    )
    print(log.render_table(), file=out)
    if peak_line is not None:
        print(peak_line, file=out)
    if report is not None:
        modeled = None
        if args.machine:
            from repro.simulate.bsp import modeled_critical_path

            per_step = modeled_critical_path(
                flops, schedule, MACHINES[args.machine], rhs=args.rhs
            )
            # The report totals over the run; scale the per-superstep
            # prediction to match.
            modeled = {k: v * report.steps for k, v in per_step.items()}
        print(file=out)
        print(render_report(report, modeled=modeled), file=out)
    status = 0
    if drift:
        drift_report = _drift_report(
            log, flops, schedule, args.machine, args.rhs, args.max_drift
        )
        print(file=out)
        print(drift_report.render_table(), file=out)
        if args.max_drift is not None and not drift_report.ok:
            for problem in drift_report.violations():
                print(f"DRIFT FAILURE: {problem}", file=sys.stderr)
            status = 1

    if args.json:
        _write_text(log.render_json() + "\n", args.json, "trace log")
    if args.folded:
        _write_text(render_folded(log), args.folded, "folded stacks")
    if args.metrics_out:
        for trace in log.traces:
            registry.histogram(
                "repro_smvp_t_smvp_seconds", help_text="superstep wall time"
            ).observe(trace.t_smvp)
            registry.histogram(
                "repro_smvp_t_comm_seconds",
                help_text="communication-phase wall time",
            ).observe(trace.t_comm)
        if args.metrics_out == "-":
            sys.stdout.write(render_prometheus(registry))
        else:
            path = write_metrics(registry, args.metrics_out)
            print(f"wrote metrics to {path}", file=sys.stderr)
    if args.timeline_out:
        _write_text(
            render_chrome_trace(log, registry), args.timeline_out, "timeline"
        )

    if args.check:
        if report.identity_max_err > PROFILE_IDENTITY_TOL:
            print(
                f"PROFILE CHECK FAILURE: critical-path identity "
                f"max error {report.identity_max_err:.3e}s exceeds "
                f"{PROFILE_IDENTITY_TOL:.0e}s",
                file=sys.stderr,
            )
            return 1
        print(
            f"critical-path identity ok "
            f"(max error {report.identity_max_err:.3e}s over "
            f"{report.steps} supersteps)",
            file=out,
        )
    return status


def _drift_report(log, flops, schedule, machine_name, rhs, max_drift):
    """Measured phase times against Eq. (1)/(2): on the preset
    ``machine_name``, or on a host machine fitted from the first <= 3
    supersteps (the rest are observed against it)."""
    from repro.telemetry import DriftMonitor, DriftThresholds, fit_machine

    thresholds = None
    if max_drift is not None:
        thresholds = DriftThresholds(
            max_comp_drift=max_drift,
            max_comm_drift=max_drift,
            max_efficiency_delta=1.0,  # gated by the time drifts above
        )
    observed = log.traces
    if machine_name:
        machine = MACHINES[machine_name]
    else:
        calibrate = observed[: min(3, len(observed) - 1)]
        machine = fit_machine(calibrate, flops, schedule)
        observed = observed[len(calibrate):]
        rhs = 1  # the fitted T_f and T_w already absorb the block width
    monitor = DriftMonitor(
        flops, schedule, machine, thresholds=thresholds, rhs=rhs
    )
    for trace in observed:
        monitor.observe(trace)
    return monitor.report()


def main_chaos(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``repro-chaos``: supervised kill-schedule runs."""
    from repro.resilience import (
        KillSchedule,
        RecoveryPolicy,
        render_chaos_report,
        run_chaos,
    )

    parser = argparse.ArgumentParser(
        prog="repro-chaos",
        description=(
            "Run a time-stepped distributed simulation under the "
            "self-healing supervisor with a seeded schedule of permanent "
            "PE failures, then prove survivor equivalence: a fresh P-1 "
            "run from the spliced state must match the supervised run "
            "bit for bit."
        ),
    )
    workload_args(
        parser,
        "instance", "pes", "steps", "backend", "machine",
        "fault_rate", "seed",
        defaults={"instance": "sf10e", "steps": 40},
        help={
            "pes": "initial PEs",
            "machine": "machine preset pricing the reconfiguration "
            "(needs T_l/T_w)",
            "fault_rate": "transient link-fault rate riding along with "
            "the kills",
        },
    )
    parser.add_argument(
        "--kill",
        default=None,
        help=(
            "kill schedule 'superstep:pe[,superstep:pe...]' "
            "(default: one seeded random kill)"
        ),
    )
    parser.add_argument(
        "--kills",
        type=positive_int("--kills"),
        default=1,
        help="random kills to draw when --kill is not given",
    )
    parser.add_argument(
        "--flip",
        type=rate("--flip", 0.4),
        default=0.0,
        metavar="RATE",
        help=(
            "silent-data-corruption rate: per PE per superstep, flip a "
            "high-order bit in the local input/output vectors at RATE "
            "and in the assembled matrix block at RATE/2; implies ABFT "
            "verification, and the exit code demands every flip "
            "detected, blamed, and healed bit-exactly"
        ),
    )
    parser.add_argument(
        "--sticky",
        default=None,
        metavar="PE[,PE...]",
        help=(
            "physical PE ids with a bad core: their kernel output is "
            "corrupted on every compute (recovery recomputes included), "
            "so the run must escalate them to eviction"
        ),
    )
    parser.add_argument(
        "--sticky-from",
        type=int,
        default=0,
        metavar="STEP",
        help="first superstep at which sticky PEs start corrupting",
    )
    parser.add_argument(
        "--checkpoint-dir",
        default=None,
        help="enable checkpointing (and the rollback recovery path)",
    )
    parser.add_argument(
        "--checkpoint-interval",
        type=positive_int("--checkpoint-interval"),
        default=10,
    )
    parser.add_argument(
        "--no-shadow",
        action="store_true",
        help="disable buddy shadows; force checkpoint rollback recovery",
    )
    parser.add_argument(
        "--no-verify",
        action="store_true",
        help="skip the survivor-equivalence proof run",
    )
    parser.add_argument(
        "--json", action="store_true", help="machine-readable summary"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI-sized run: demo instance, 6 PEs, 10 steps",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        instance, pes, steps = "demo", 6, 10
    else:
        instance, pes, steps = args.instance, args.pes, args.steps
    pes_within(parser, pes, instance)
    sticky: tuple = ()
    if args.sticky:
        try:
            sticky = tuple(
                int(token) for token in args.sticky.split(",") if token.strip()
            )
        except ValueError:
            parser.error(f"bad --sticky list {args.sticky!r}")
        for pe in sticky:
            if not 0 <= pe < pes:
                parser.error(
                    f"--sticky targets PE {pe}, but only {pes} PEs exist"
                )
    if args.sticky_from < 0:
        parser.error("--sticky-from must be >= 0")
    if args.no_shadow and args.checkpoint_dir is None:
        parser.error("--no-shadow requires --checkpoint-dir")
    # Everything below cross-checks one flag against another, which no
    # per-flag type= can see; the schedule parser raises ValueError
    # with the message to show.
    try:
        if args.kill:
            kills = KillSchedule.parse(args.kill)
        elif args.flip > 0 or sticky:
            # SDC runs stand alone by default: no permanent kills, the
            # corruption ladder supplies any evictions.
            kills = KillSchedule(())
        else:
            kills = KillSchedule.random(args.seed, pes, steps, args.kills)
    except ValueError as exc:
        parser.error(str(exc))
    for step, pe in kills.kills:
        if pe >= pes:
            parser.error(f"kill targets PE {pe}, but only {pes} PEs exist")
        if step >= steps:
            parser.error(
                f"kill at superstep {step} never fires: the run has "
                f"{steps} steps (supersteps 0..{steps - 1})"
            )

    report = run_chaos(
        instance=instance,
        pes=pes,
        steps=steps,
        kills=kills,
        backend=args.backend,
        policy=RecoveryPolicy(prefer_shadow=not args.no_shadow),
        machine_name=args.machine,
        fault_rate=args.fault_rate,
        seed=args.seed,
        checkpoint_dir=args.checkpoint_dir,
        checkpoint_interval=args.checkpoint_interval,
        verify=not args.no_verify,
        flip_rate=args.flip,
        sticky=sticky,
        sticky_from=args.sticky_from,
    )
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        for line in render_chaos_report(report):
            print(line)
    if not report.passed:
        print(
            f"CHAOS FAILURE: {'; '.join(report.failed_gates)} broken",
            file=sys.stderr,
        )
        return 1
    return 0
