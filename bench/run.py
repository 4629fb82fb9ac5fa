#!/usr/bin/env python3
"""The repo's benchmark: one command, every metric by name.

Two ways in, one code path underneath:

* **trial** (``--trace 0|1`` given; what the driver calls)::

      python3 bench/run.py --workload W --seed S --seconds T --trace 0|1

  runs one trial of one workload in this process and prints, as the
  last line, ``{"correct", "attempted", "failed", "metrics"}`` - the
  end-to-end metrics with tracing off (``--trace 0``) or the per-layer
  metrics of the traced pass (``--trace 1``).

* **suite** (no ``--trace``)::

      python3 bench/run.py [--workload W] [--trials N] [--seed S]
                           [--seconds T] [--out FILE] [--quick] [--aa]

  runs every workload as fresh trial subprocesses, interleaved, plus
  one traced pass each, and prints medians, quartiles and sample
  counts; ``--aa`` runs two such sets of the same code and fails when
  they disagree beyond the bounds in BENCHMARK.json.

Exit status is non-zero when any output check or operation failed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import harness  # noqa: E402
from harness import END_TO_END, PER_LAYER, quartiles  # noqa: E402

WORKLOAD_NAMES = tuple(w["name"] for w in harness.BENCHMARK["workloads"])
QUICK_SECONDS = 0.3


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="bench/run.py", description=__doc__.split("\n\n")[0]
    )
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, default=None)
    parser.add_argument("--seed", type=int, default=0,
                        help="partition seed and source locations")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per trial (default: "
                        "run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="run ONE trial: 0 = end-to-end metrics, "
                        "1 = traced pass with per-layer metrics")
    parser.add_argument("--trials", type=int, default=3,
                        help="suite: untraced trials per workload")
    parser.add_argument("--out", default=None, help="suite: write the record")
    parser.add_argument("--record", default=None,
                        help="trial: write the full trial record here")
    parser.add_argument("--quick", action="store_true",
                        help="demo instance, short runs (self-tests)")
    parser.add_argument("--aa", action="store_true",
                        help="suite: two sets of the same code must agree")
    args = parser.parse_args(argv)
    if args.trace is not None and args.workload is None:
        parser.error("--trace runs one trial and needs --workload")
    if args.seconds is None:
        args.seconds = (
            QUICK_SECONDS if args.quick
            else float(harness.BENCHMARK["run_seconds"])
        )
    return args


def format_entry(name: str, entry: dict) -> str:
    if entry["value"] is None:
        return f"  {name:42s} null  ({entry['reason']})"
    return (
        f"  {name:42s} {entry['value']:.6g} {entry['unit']}"
        f"  [{entry['kind']}]"
    )


def driver_line(result: dict, names) -> str:
    """The contract's last line: every named metric as a number; a
    metric this trial could not measure reads 0 (reason in the record)."""
    metrics = {}
    for name, spec in names.items():
        entry = result["metrics"].get(name)
        value = entry["value"] if entry and entry["value"] is not None else 0.0
        metrics[name] = {"value": value, "unit": spec[0]}
    return json.dumps(
        {
            "correct": result["correct"],
            "attempted": int(result["attempted"]),
            "failed": int(result["failed"]),
            "metrics": metrics,
        }
    )


def trial_main(args: argparse.Namespace) -> int:
    try:
        import workloads
    except ImportError as exc:
        print(f"bench: cannot import the program under test: {exc}",
              file=sys.stderr)
        return 2
    host = harness.fingerprint()
    result = workloads.run_trial(
        args.workload, args.seed, args.seconds, bool(args.trace),
        quick=args.quick,
    )
    result["host"] = host
    print(f"{args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    for check in result["checks"]:
        print(f"  check {check['name']:28s} "
              f"{'ok' if check['ok'] else 'FAILED'}  {check['detail']}")
    for error in result["errors"]:
        print(f"  error {error}")
    for name, entry in result["metrics"].items():
        print(format_entry(name, entry))
    print(f"  ops_attempted {result['attempted']}  ops_failed {result['failed']}")
    if args.record:
        Path(args.record).write_text(json.dumps(result))
    print(driver_line(result, PER_LAYER if args.trace else END_TO_END))
    return 0 if result["correct"] else 1


def spawn_trial(args, name: str, trace: int, trial: int, tmp: Path) -> dict:
    record = tmp / f"{name}.{trace}.{trial}.json"
    cmd = [
        sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(trace), "--record", str(record),
    ] + (["--quick"] if args.quick else [])
    done = subprocess.run(cmd, capture_output=True, text=True)
    if not record.exists():
        sys.stderr.write(done.stdout + done.stderr)
        raise RuntimeError(f"trial {name} trace={trace} wrote no record")
    result = json.loads(record.read_text())
    result["trial"] = trial
    print(f"  {name} trial {trial} trace={trace}: "
          f"{'ok' if result['correct'] else 'FAILED'}", flush=True)
    return result


def run_set(args, names) -> dict:
    """One full set: interleaved untraced trials, then a traced pass."""
    host = harness.fingerprint()
    per: Dict[str, dict] = {n: {"trials": []} for n in names}
    with tempfile.TemporaryDirectory(prefix=".bench-", dir=BENCH_DIR) as tmp:
        for trial in range(args.trials):
            for name in names:  # interleaved: host drift hits all alike
                per[name]["trials"].append(
                    spawn_trial(args, name, 0, trial, Path(tmp))
                )
        for name in names:
            per[name]["traced"] = spawn_trial(args, name, 1, 0, Path(tmp))
    for entry in per.values():
        results = entry["trials"] + [entry["traced"]]
        entry["end_to_end"] = {}
        for metric, (unit, _bound) in END_TO_END.items():
            values = [
                t["metrics"][metric]["value"]
                for t in entry["trials"] if metric in t["metrics"]
            ]
            if values:  # a trial whose timed loop raised reports none
                entry["end_to_end"][metric] = dict(quartiles(values), unit=unit)
        entry["per_layer"] = entry["traced"]["metrics"]
        entry["spans"] = entry["traced"].pop("spans", None)
        entry["ops_attempted"] = sum(r["attempted"] for r in results)
        entry["ops_failed"] = sum(r["failed"] for r in results)
        entry["checks"] = [c for r in results for c in r["checks"]]
        entry["errors"] = [e for r in results for e in r["errors"]]
    return {
        "schema": harness.SCHEMA, "host": host, "seed": args.seed,
        "seconds": args.seconds, "trials": args.trials, "quick": args.quick,
        "workloads": per,
    }


def print_set(record: dict) -> None:
    for name, entry in record["workloads"].items():
        print(f"\n== {name}")
        for metric, q in entry["end_to_end"].items():
            print(f"  {metric:42s} median {q['median']:.6g} {q['unit']}  "
                  f"[q1 {q['q1']:.6g}, q3 {q['q3']:.6g}]  n={q['n']}")
        print(f"  ops_attempted = {entry['ops_attempted']}  "
              f"ops_failed = {entry['ops_failed']}")
        for check in entry["checks"]:
            if not check["ok"]:
                print(f"  FAILED check {check['name']}: {check['detail']}")
        for error in entry["errors"]:
            print(f"  error {error}")
        for metric, value in entry["per_layer"].items():
            print(format_entry(metric, value))


def suite_main(args: argparse.Namespace) -> int:
    import compare

    names = [args.workload] if args.workload else list(WORKLOAD_NAMES)
    sets = []
    for label in ("A", "B") if args.aa else ("A",):
        print(f"set {label}: {args.trials} trials x {len(names)} workloads "
              f"+ traced pass, {args.seconds:g} s each", flush=True)
        sets.append(run_set(args, names))
    record = sets[0]
    print_set(record)
    status = 0
    if any(w["ops_failed"] for s in sets for w in s["workloads"].values()):
        status = 1
    if args.aa:
        record["aa_second_set"] = sets[1]
        rows = compare.compare_records(sets[0], sets[1])
        print("\n== A/A: second set against the first")
        print(compare.render(rows))
        drift = compare.count_drift(sets[0], sets[1])
        for line in drift:
            print(f"  count metric differs: {line}")
        if drift or any(abs(r["rel_change"]) > r["bound"] for r in rows):
            print("A/A FAILED: same code disagrees beyond the bounds")
            status = 1
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1))
        print(f"\nwrote {args.out}")
    return status


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if args.trace is not None:
        return trial_main(args)
    return suite_main(args)


if __name__ == "__main__":
    sys.exit(main())
