"""Output checks; each one is an operation counted in attempted/failed."""

from __future__ import annotations

import json
from typing import Dict, List

import numpy as np

from repro.fem import ExplicitTimeStepper
from repro.smvp.executor import DistributedSMVP

from harness import BENCH_DIR, SWEEP_PES

VERIFY_TOL = 1e-10
TRAJECTORY_RTOL = 1e-9
BETA_MAX = 2.0
EXPECTED_SEED0 = BENCH_DIR / "expected_seed0.json"


def _check(name: str, ok: bool, detail: str) -> dict:
    return {"name": name, "ok": bool(ok), "detail": detail}


def _guarded(name: str, fn) -> dict:
    try:
        ok, detail = fn()
    except Exception as exc:  # a check that cannot run has failed
        return _check(name, False, f"{type(exc).__name__}: {exc}")
    return _check(name, ok, detail)


def quake_checks(q, bit_identity: bool) -> List[dict]:
    """Checks of workloads 1-3; advances ``q`` to its check step.

    ``bit_identity`` adds the ``array_equal`` comparisons against a
    second, serial r=1 executor on the block/overlap workload.  Building
    that executor costs about as much again as the checks it serves, so
    only the traced pass (one per set) asks for them.
    """
    w = q.workload
    out = [_guarded("verify_against_global", lambda: _verify(q))]
    q.advance(w.check_steps - q.stepper.step_index)
    out.append(_guarded("trajectory_vs_global", lambda: _trajectory(q)))
    if bit_identity and (w.backend != "serial" or w.rhs > 1):
        with DistributedSMVP(
            q.mesh, q.partition, q.materials, kernel="csr", backend="serial"
        ) as serial:
            out.append(
                _guarded("column0_vs_serial_r1", lambda: _column0(q, serial))
            )
            out.append(
                _guarded("multiply_vs_serial", lambda: _multiply(q, serial))
            )
    return out


def _verify(q):
    err = q.smvp.verify_against_global(q.stiffness)
    return err <= VERIFY_TOL, f"max rel err {err:.3e} (tol {VERIFY_TOL:g})"


def _reference(q, smvp, column=None) -> ExplicitTimeStepper:
    """Replay the forcing from rest to the step ``q`` has reached."""
    damping = q.stepper.damping_alpha
    ref = ExplicitTimeStepper(
        q.stiffness, q.mass, q.dt, damping_alpha=damping, smvp=smvp,
        rhs=1 if column is not None else q.workload.rhs,
    )
    for _ in range(q.stepper.step_index):
        ref.step(q.force(ref.time, column=column))
    return ref


def _trajectory(q):
    ref = _reference(q, smvp=None)  # global K @ u
    scale = float(np.abs(ref.u).max())
    if not scale > 0.0:
        return False, "reference trajectory is identically zero"
    err = max(
        float(np.abs(q.stepper.u - ref.u).max()),
        float(np.abs(q.stepper.u_prev - ref.u_prev).max()),
    ) / scale
    return (
        err <= TRAJECTORY_RTOL,
        f"step {ref.step_index}: rel err {err:.3e} (tol {TRAJECTORY_RTOL:g})",
    )


def _column0(q, serial):
    ref = _reference(q, smvp=serial, column=0)
    mine = q.stepper.u[:, 0] if q.workload.rhs > 1 else q.stepper.u
    return np.array_equal(mine, ref.u), f"step {ref.step_index}, array_equal"


def _multiply(q, serial):
    x = np.random.default_rng(1).standard_normal(q.stepper.u.shape)
    return np.array_equal(q.smvp.multiply(x), serial.multiply(x)), "array_equal"


def sweep_counts(mesh, rows: Dict[int, dict]) -> dict:
    """The exact counts the seed-0 pin compares."""
    return {
        "nodes": int(mesh.num_nodes),
        "elements": int(mesh.num_elements),
        "per_p": {
            str(p): {
                "c_max": int(rows[p]["schedule"].c_max),
                "b_max": int(rows[p]["schedule"].b_max),
                "total_words": int(rows[p]["schedule"].total_words),
                "total_blocks": int(rows[p]["schedule"].total_blocks),
            }
            for p in SWEEP_PES
        },
    }


def characterize_checks(mesh, rows, seed: int, pinned: bool) -> List[dict]:
    def beta():
        worst = max(rows[p]["stats"].beta for p in SWEEP_PES)
        return worst <= BETA_MAX, f"max beta {worst:.3f} (bound {BETA_MAX:g})"

    def bracket():
        for p in SWEEP_PES:
            v = rows[p]["validation"]
            sim, eq2 = v.simulated_t_comm, v.modeled_t_comm
            if not sim * (1 - 1e-12) <= eq2 <= v.beta * sim * (1 + 1e-9):
                return False, f"p={p}: sim {sim:.3e} eq2 {eq2:.3e} beta {v.beta:.3f}"
        return True, "simulated <= Eq.(2) <= beta * simulated at every p"

    def counts():
        got = sweep_counts(mesh, rows)
        if pinned and seed == 0:
            want = json.loads(EXPECTED_SEED0.read_text())
            return got == want, "exact counts vs expected_seed0.json"
        for p, c in got["per_p"].items():
            # 3 words per shared node per direction; blocks come in pairs.
            ok = (
                c["total_words"] % 6 == 0 and c["total_blocks"] % 2 == 0
                and 0 < c["b_max"] <= 2 * (int(p) - 1)
                and 0 < c["c_max"] <= c["total_words"]
            )
            if not ok:
                return False, f"p={p}: inconsistent counts {c}"
        return True, "count invariants"

    return [
        _guarded("beta_bound", beta),
        _guarded("eq2_brackets_simulation", bracket),
        _guarded("schedule_counts", counts),
    ]
