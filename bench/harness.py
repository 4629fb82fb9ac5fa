"""Bench-side plumbing: metric table, spans, quantiles, host fingerprint.

Nothing here imports ``repro``; the program under test is only touched
from :mod:`workloads` and :mod:`probes`.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np
import scipy

SCHEMA = "repro-bench/1"
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

#: The paper's PE counts (Figs 6-7); the characterize workload sweeps them.
SWEEP_PES = (4, 8, 16, 32, 64, 128)
KERNELS = ("csr", "bsr3x3", "symmetric-upper")
BACKENDS = ("serial", "threaded", "shared-memory", "overlap")


#: The contract a driver reads; the one place bounds, workload names
#: and the run length are fixed.
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

#: End-to-end metrics, name -> (unit, regression bound); all lower-is-
#: better.
END_TO_END = {
    m["name"]: (m["unit"], m["bound"]) for m in BENCHMARK["end_to_end"]
}


def _per_layer_table() -> Dict[str, tuple]:
    """name -> (unit, kind, better) for every per-layer metric."""
    m = "measured"
    table = {
        "setup.wall_s": ("s", m, "lower"),
        "setup.kernel_s": ("s", m, "lower"),
        "mesh.build_s": ("s", m, "lower"),
        "mesh.nodes": ("count", "count", "lower"),
        "mesh.elements": ("count", "count", "lower"),
        "material.build_s": ("s", m, "lower"),
        "partition.geometric_s": ("s", m, "lower"),
        "partition.imbalance": ("ratio", "computed", "lower"),
        "assembly.global_s": ("s", m, "lower"),
        "assembly.global_nnz": ("count", "count", "lower"),
        "assembly.subdomain_s": ("s", m, "lower"),
        "distribution.build_s": ("s", m, "lower"),
        "schedule.build_s": ("s", m, "lower"),
        "executor.construct_s": ("s", m, "lower"),
        "executor.warmup_s": ("s", m, "lower"),
        "timeloop.steps": ("count", m, "higher"),
        "timeloop.step_ms_p50": ("ms", m, "lower"),
        "timeloop.step_ms_p95": ("ms", m, "lower"),
        "source.force_ms_p50": ("ms", m, "lower"),
        "timestepper.update_ms_p50": ("ms", m, "lower"),
        "executor.multiply_ms_p50": ("ms", m, "lower"),
        "executor.scatter_ms_p50": ("ms", m, "lower"),
        "executor.gather_ms_p50": ("ms", m, "lower"),
        "executor.unattributed_frac": ("ratio", m, "lower"),
        "backend.compute_ms_p50": ("ms", m, "lower"),
        "kernel.flops_per_step": ("flop", "count", "lower"),
        "kernel.bytes_per_step_computed": ("bytes", "computed", "lower"),
        "kernel.gflops": ("Gflop/s", m, "higher"),
        "exchange.comm_ms_p50": ("ms", m, "lower"),
        "exchange.words_per_step": ("words", "count", "lower"),
        "exchange.blocks_per_step": ("blocks", "count", "lower"),
        "schedule.c_max_words": ("words", "count", "lower"),
        "schedule.b_max_blocks": ("blocks", "count", "lower"),
        "schedule.m_avg_words": ("words", "computed", "higher"),
        "schedule.q_max": ("blocks", "count", "lower"),
        "stats.beta": ("ratio", "computed", "lower"),
        "stats.f_over_c": ("flop/word", "computed", "higher"),
        "executor.step_ms_p50.abft": ("ms", m, "lower"),
        "executor.step_ms_p50.profiled": ("ms", m, "lower"),
        "trace.overhead_frac": ("ratio", m, "lower"),
        "stats.compute_s": ("s", m, "lower"),
        "model.eval_s": ("s", m, "lower"),
        "sim.host_s": ("s", m, "lower"),
        "host.tf_ns": ("ns", m, "lower"),
        "host.tl_us": ("us", m, "lower"),
        "host.tw_ns": ("ns", m, "lower"),
        "host.tq_ns": ("ns", m, "lower"),
        "model.eq2_rel_residual_rms": ("ratio", m, "lower"),
        "model.contended_rel_residual_rms": ("ratio", m, "lower"),
    }
    for k in KERNELS:
        table[f"kernel.tf_ns.{k}"] = ("ns", m, "lower")
    for b in BACKENDS:
        table[f"backend.compute_ms_p50.{b}"] = ("ms", m, "lower")
    for p in SWEEP_PES:
        table[f"partition.geometric_s.p{p}"] = ("s", m, "lower")
        table[f"schedule.c_max_words.p{p}"] = ("words", "count", "lower")
        table[f"schedule.b_max_blocks.p{p}"] = ("blocks", "count", "lower")
        table[f"sim.t_comm_us.p{p}"] = ("us", "simulated", "lower")
        table[f"model.eq2_t_comm_us.p{p}"] = ("us", "computed", "lower")
        table[f"exchange.comm_ms_p50.p{p}"] = ("ms", m, "lower")
        table[f"model.eq2_fit_ms.p{p}"] = ("ms", m, "lower")
    return table


PER_LAYER = _per_layer_table()


class Metrics:
    """Named values of one trial; every entry carries unit and kind.

    A per-layer probe that cannot run records ``None`` plus the reason
    for that metric alone (:meth:`guard`), so a refactor that removes
    a probed API can never fail the end-to-end numbers.
    """

    def __init__(self, table: Dict[str, tuple]) -> None:
        self._table = table
        self.entries: Dict[str, dict] = {}

    def put(self, name: str, value: float) -> None:
        unit, kind = self._table[name][:2]
        self.entries[name] = {"value": float(value), "unit": unit, "kind": kind}

    def skip(self, names: Iterable[str], reason: str) -> None:
        for name in names:
            unit, kind = self._table[name][:2]
            self.entries[name] = {
                "value": None, "unit": unit, "kind": kind, "reason": reason,
            }

    def guard(self, names: Sequence[str], probe) -> None:
        """Run ``probe()`` -> {name: value}; on any error null ``names``."""
        try:
            values = probe()
            found = [(name, values[name]) for name in names]
        except Exception as exc:  # boundary: the trial must keep running
            self.skip(names, f"{type(exc).__name__}: {exc}")
            return
        for name, value in found:
            self.put(name, value)

    def fill_missing(self, reason: str) -> None:
        self.skip([n for n in self._table if n not in self.entries], reason)


class _NullSpan:
    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class _Span:
    __slots__ = ("tracer", "row", "kernel")

    def __init__(self, tracer: "Tracer", name: str, kernel: bool) -> None:
        self.tracer = tracer
        self.row = [name, 0.0, 0.0, -1, 0.0]
        self.kernel = kernel

    def __enter__(self):
        tr = self.tracer
        self.row[3] = tr._open[-1] if tr._open else -1
        tr._open.append(len(tr.rows))
        tr.rows.append(self.row)
        if self.kernel:
            self.row[4] = -os.times().system
        self.row[1] = time.perf_counter()
        return None

    def __exit__(self, *exc):
        self.row[2] = time.perf_counter()
        if self.kernel:
            self.row[4] += os.times().system
        self.tracer._open.pop()
        return False


class Tracer:
    """In-memory span recorder around the bench's calls into each layer.

    Rows are ``[name, start, end, parent_index, kernel_s]``; workload
    and trial are shared by every span of the tracer.  ``kernel_s`` is
    the process's system CPU time inside the span, read only for the
    coarse stage spans that ask for it (see :class:`StageClock` for
    why).  While ``enabled`` is False ``span`` hands back a shared
    no-op, so the end-to-end pass runs with tracing off.
    """

    def __init__(self, workload: str, trial: int, enabled: bool) -> None:
        self.workload = workload
        self.trial = trial
        self.enabled = enabled
        self.rows: List[list] = []
        self._open: List[int] = []

    def span(self, name: str, kernel: bool = False):
        return _Span(self, name, kernel) if self.enabled else _NULL_SPAN

    def durations(self, name: str) -> List[float]:
        """Wall seconds, net of kernel time where the span read it."""
        return [r[2] - r[1] - r[4] for r in self.rows if r[0] == name]

    def self_times(self) -> List[float]:
        """Per span: its duration minus the part its children cover."""
        out = [r[2] - r[1] for r in self.rows]
        for r in self.rows:
            if r[3] >= 0:
                out[r[3]] -= r[2] - r[1]
        return out

    def self_durations(self, name: str) -> List[float]:
        selfs = self.self_times()
        return [selfs[i] for i, r in enumerate(self.rows) if r[0] == name]

    def to_record(self) -> dict:
        names = sorted({r[0] for r in self.rows})
        index = {n: i for i, n in enumerate(names)}
        return {
            "workload": self.workload,
            "trial": self.trial,
            "columns": ["name", "start", "end", "parent", "kernel_s"],
            "names": names,
            "rows": [[index[r[0]]] + r[1:] for r in self.rows],
        }


#: Stands in wherever spans must not be recorded (set-up's warm-up steps).
NO_TRACE = Tracer("", 0, enabled=False)


def p50(values: Sequence[float]) -> float:
    return float(np.percentile(values, 50))


def p95(values: Sequence[float]) -> float:
    return float(np.percentile(values, 95))


def ms(seconds: float) -> float:
    return 1e3 * seconds


def quartiles(values: Sequence[float]) -> dict:
    """Median and quartiles the way the driver takes them."""
    vals = sorted(float(v) for v in values)
    if len(vals) >= 2:
        q1, med, q3 = statistics.quantiles(vals, n=4)
    else:
        q1 = med = q3 = vals[0]
    return {"median": med, "q1": q1, "q3": q3, "n": len(vals), "values": vals}


class StageClock:
    """Wall and kernel (system CPU) seconds of one interval.

    On this class of host (a microVM whose guest memory is backed
    lazily) first touch of fresh pages costs 3-5 ms of *system* time
    per 2 MiB page and varies 2x run to run; the program does the same
    work each time.  ``net`` = wall - kernel removes that term and
    keeps compute, waits and I/O stalls.  See README "setup_s".
    """

    def __enter__(self) -> "StageClock":
        self._sys0 = os.times().system
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        self.wall = time.perf_counter() - self._t0
        self.kernel = os.times().system - self._sys0
        self.net = self.wall - self.kernel
        return False


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def git_commit() -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def fingerprint() -> dict:
    """Where and on what this record was taken; env is read, never set."""
    blas_env = {
        k: os.environ.get(k)
        for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    }
    return {
        "schema": SCHEMA,
        "git_commit": git_commit(),
        "cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "blas_thread_env": blas_env,
        "loadavg_at_start": list(os.getloadavg()),
        "argv": sys.argv[1:],
    }
