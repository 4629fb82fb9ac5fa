#!/usr/bin/env python3
"""Compare two suite records: ``python3 bench/compare.py old.json new.json``.

Applies the per-metric bounds of BENCHMARK.json to every (workload,
end-to-end metric) pair, each in its own row:

* ``regression`` - the new median is worse than the old by more than
  the bound;
* ``unresolved`` - the run-to-run spread (interquartile distance over
  the median, either side) exceeds the bound, unless every run of one
  side beats every run of the other;
* ``ok`` / ``improved`` otherwise.

Exits 1 when any row is a regression.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import List

from harness import END_TO_END


def _spread(q: dict) -> float:
    return (q["q3"] - q["q1"]) / q["median"] if q["median"] else float("inf")


def compare_records(old: dict, new: dict) -> List[dict]:
    rows = []
    for name, old_w in old["workloads"].items():
        new_w = new["workloads"].get(name)
        if new_w is None:
            continue
        for metric, (unit, bound) in END_TO_END.items():
            a = old_w["end_to_end"].get(metric)
            b = new_w["end_to_end"].get(metric)
            if a is None or b is None:
                continue
            rel = (b["median"] - a["median"]) / a["median"]
            separated = (
                max(b["values"]) < min(a["values"])
                or max(a["values"]) < min(b["values"])
            )
            noisy = max(_spread(a), _spread(b)) > bound and not separated
            if noisy:
                verdict = "unresolved"
            elif rel > bound:
                verdict = "regression"
            elif rel < -bound:
                verdict = "improved"
            else:
                verdict = "ok"
            rows.append(
                {
                    "workload": name, "metric": metric, "unit": unit,
                    "old": a, "new": b, "rel_change": rel, "bound": bound,
                    "verdict": verdict,
                }
            )
    return rows


def count_drift(old: dict, new: dict) -> List[str]:
    """Exact (count / computed) per-layer metrics that differ."""
    out = []
    for name, old_w in old["workloads"].items():
        new_layer = new["workloads"].get(name, {}).get("per_layer", {})
        for metric, a in old_w["per_layer"].items():
            b = new_layer.get(metric)
            if a["kind"] in ("count", "computed") and b is not None:
                if a["value"] != b["value"]:
                    out.append(f"{name} {metric}: {a['value']} -> {b['value']}")
    return out


def render(rows: List[dict]) -> str:
    lines = []
    for r in rows:
        a, b = r["old"], r["new"]
        lines.append(
            f"  {r['workload']:28s} {r['metric']:12s} "
            f"{a['median']:.5g} [{a['q1']:.5g}, {a['q3']:.5g}] n={a['n']} -> "
            f"{b['median']:.5g} [{b['q1']:.5g}, {b['q3']:.5g}] n={b['n']} "
            f"{r['unit']}  {100 * r['rel_change']:+.1f}% "
            f"(bound {100 * r['bound']:.0f}%)  {r['verdict']}"
        )
    return "\n".join(lines)


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    old, new = (json.loads(Path(path).read_text()) for path in argv)
    rows = compare_records(old, new)
    print(render(rows))
    for line in count_drift(old, new):
        print(f"  count metric differs: {line}")
    return 1 if any(r["verdict"] == "regression" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
