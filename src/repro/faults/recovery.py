"""Fault recovery: retransmit timing and checkpoint/restart.

**Retransmit with exponential backoff.**  A lost (or checksum-failed)
block is detected by timeout: the receiver waits ``timeout_factor``
times the block's nominal transfer time, then requests a retransmit;
each further failure doubles the wait (``backoff_factor``).  The total
simulated-time cost of delivering a block that failed ``f`` times is

    cost(f) = (attempts) * (T_l + words * T_w)           (wire time)
            + sum_{k<f} timeout * backoff_factor**k       (stalls)

which :func:`retransmit_penalty` computes for the BSP simulator.

**Checkpoint/restart.**  :class:`CheckpointManager` snapshots the time
stepper's complete state (``u``, ``u_prev``, ``step_index``, ``dt``) to
CRC-protected ``.npz`` files so a killed run can resume from the latest
valid checkpoint and reproduce the uninterrupted run exactly (the
central-difference recurrence is fully determined by that state).
Corrupt or truncated checkpoint files are detected and skipped, never
trusted.
"""

from __future__ import annotations

import os
import re
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence, Union

import numpy as np

from repro.faults.errors import CheckpointCompatibilityError, CheckpointError
from repro.telemetry.registry import count

PathLike = Union[str, os.PathLike]

_CKPT_PATTERN = re.compile(r"^ckpt-(\d{9})\.npz$")


def retransmit_penalty(
    base_cost: float,
    failures: int,
    timeout_factor: float = 4.0,
    backoff_factor: float = 2.0,
    jitters: Optional[Sequence[float]] = None,
) -> float:
    """Extra simulated seconds caused by ``failures`` failed attempts.

    ``base_cost`` is the block's nominal transfer time
    ``T_l + words * T_w``; the timeout before each retransmit starts at
    ``timeout_factor * base_cost`` and grows by ``backoff_factor`` per
    retry.  The successful attempt's own wire time is *not* included —
    callers already account one nominal transfer.

    ``jitters``, when given, scales the k-th stall by ``jitters[k]`` —
    the deterministic seeded factors from
    :meth:`~repro.faults.injector.FaultInjector.backoff_jitter`, which
    desynchronize concurrent retries without sacrificing
    reproducibility.  ``None`` keeps the historical un-jittered stalls
    bit for bit.
    """
    if failures <= 0:
        return 0.0
    timeout = timeout_factor * base_cost
    if jitters is not None:
        if len(jitters) < failures:
            raise ValueError(
                f"need one jitter factor per failure ({failures}), "
                f"got {len(jitters)}"
            )
        stalls = sum(
            timeout * backoff_factor**k * jitters[k] for k in range(failures)
        )
    elif backoff_factor == 1.0:
        stalls = failures * timeout
    else:
        stalls = timeout * (backoff_factor**failures - 1.0) / (backoff_factor - 1.0)
    # Each failed attempt also occupied the wire for its nominal time.
    return stalls + failures * base_cost


@dataclass(frozen=True)
class Checkpoint:
    """One recovered snapshot of a time-stepper run.

    ``num_pes`` and ``ownership_hash`` describe the data distribution
    active when the snapshot was taken (see
    :attr:`repro.smvp.distribution.DataDistribution.ownership_hash`);
    they are ``None`` for checkpoints written without one (sequential
    runs, or files from before the header existed).
    """

    step_index: int
    dt: float
    u: np.ndarray
    u_prev: np.ndarray
    num_pes: Optional[int] = None
    ownership_hash: Optional[int] = None

    def matches(self, distribution) -> bool:
        """Whether this snapshot was taken under ``distribution``.

        True when the checkpoint carries no distribution header (there
        is nothing to contradict) or when both the PE count and the
        row-ownership hash agree.
        """
        if self.num_pes is None or self.ownership_hash is None:
            return True
        return (
            self.num_pes == distribution.num_parts
            and self.ownership_hash == distribution.ownership_hash
        )

    def restore(self, stepper, distribution=None) -> None:
        """Load this snapshot into an :class:`ExplicitTimeStepper`.

        The stepper must have been constructed with the same problem
        (state size and ``dt``); mismatches raise
        :class:`CheckpointError` rather than silently resuming a
        different simulation.  Passing the
        :class:`~repro.smvp.distribution.DataDistribution` the caller
        is about to resume on additionally validates the checkpoint's
        distribution header — a snapshot from a different PE count or
        row ownership raises :class:`CheckpointCompatibilityError`
        instead of silently mis-splicing state across layouts.
        """
        if distribution is not None and not self.matches(distribution):
            raise CheckpointCompatibilityError(
                f"checkpoint at step {self.step_index} was taken on "
                f"{self.num_pes} PEs (ownership hash "
                f"{self.ownership_hash:#x}), but the active distribution "
                f"has {distribution.num_parts} PEs (hash "
                f"{distribution.ownership_hash:#x}); splice the state "
                "through the resilience layer instead of restoring"
            )
        if stepper.u.shape != self.u.shape:
            raise CheckpointError(
                f"checkpoint state has {self.u.shape[0]} dofs, "
                f"stepper has {stepper.u.shape[0]}"
            )
        if abs(stepper.dt - self.dt) > 1e-15 * max(1.0, abs(self.dt)):
            raise CheckpointError(
                f"checkpoint dt={self.dt!r} does not match stepper "
                f"dt={stepper.dt!r}"
            )
        stepper.set_state(self.u, self.u_prev, self.step_index)


class CheckpointManager:
    """Periodic CRC-protected snapshots of a time-stepper run.

    Parameters
    ----------
    directory:
        Where checkpoint files live (created if missing).
    interval:
        Snapshot every this many steps (:meth:`maybe_save`).
    keep:
        Retain at most this many most-recent checkpoints (0 = all).
    """

    def __init__(
        self, directory: PathLike, interval: int = 100, keep: int = 3
    ) -> None:
        if interval < 1:
            raise ValueError("interval must be at least 1")
        if keep < 0:
            raise ValueError("keep must be non-negative")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.interval = int(interval)
        self.keep = int(keep)

    def _path(self, step_index: int) -> Path:
        return self.directory / f"ckpt-{step_index:09d}.npz"

    def steps(self) -> List[int]:
        """Step indices with a checkpoint file on disk, ascending."""
        out = []
        for entry in self.directory.iterdir():
            match = _CKPT_PATTERN.match(entry.name)
            if match:
                out.append(int(match.group(1)))
        return sorted(out)

    def save(self, stepper, distribution=None) -> Path:
        """Snapshot the stepper's state now (atomic write + CRC).

        When the run is distributed, pass the active
        :class:`~repro.smvp.distribution.DataDistribution`: the file
        then carries the PE count and row-ownership hash, and a later
        restore onto a *different* distribution fails with a typed
        error instead of silently mis-splicing.
        """
        # Read once: a resident stepper gathers each on every read.
        u, u_prev = stepper.u, stepper.u_prev
        state = np.concatenate([u, u_prev])
        crc = zlib.crc32(np.ascontiguousarray(state).tobytes())
        path = self._path(stepper.step_index)
        tmp = path.with_suffix(path.suffix + ".tmp")
        fields = {}
        if distribution is not None:
            fields["num_pes"] = np.int64(distribution.num_parts)
            fields["ownership_hash"] = np.uint64(
                distribution.ownership_hash
            )
        with open(tmp, "wb") as f:
            np.savez_compressed(
                f,
                u=u,
                u_prev=u_prev,
                step_index=np.int64(stepper.step_index),
                dt=np.float64(stepper.dt),
                crc=np.uint64(crc),
                **fields,
            )
        os.replace(tmp, path)
        self._prune()
        count("repro_checkpoint_saves_total")
        return path

    def maybe_save(self, stepper, distribution=None) -> Optional[Path]:
        """Snapshot if the stepper just crossed the interval boundary."""
        if stepper.step_index % self.interval == 0:
            return self.save(stepper, distribution=distribution)
        return None

    def load(self, step_index: int) -> Checkpoint:
        """Load and verify one checkpoint; raises :class:`CheckpointError`."""
        path = self._path(step_index)
        try:
            with np.load(path) as data:
                required = {"u", "u_prev", "step_index", "dt", "crc"}
                if not required.issubset(data.files):
                    raise CheckpointError(
                        f"{path} is missing fields "
                        f"{sorted(required - set(data.files))}"
                    )
                u = data["u"]
                u_prev = data["u_prev"]
                stored = Checkpoint(
                    step_index=int(data["step_index"]),
                    dt=float(data["dt"]),
                    u=u,
                    u_prev=u_prev,
                    num_pes=(
                        int(data["num_pes"]) if "num_pes" in data.files else None
                    ),
                    ownership_hash=(
                        int(data["ownership_hash"])
                        if "ownership_hash" in data.files
                        else None
                    ),
                )
                crc = zlib.crc32(
                    np.ascontiguousarray(
                        np.concatenate([u, u_prev])
                    ).tobytes()
                )
                if crc != int(data["crc"]):
                    raise CheckpointError(f"{path} failed its CRC check")
        except CheckpointError:
            count("repro_checkpoint_load_errors_total")
            raise
        except Exception as exc:  # zipfile/OSError/ValueError zoo
            count("repro_checkpoint_load_errors_total")
            raise CheckpointError(f"{path} is unreadable: {exc}") from exc
        count("repro_checkpoint_loads_total")
        return stored

    def latest(self) -> Optional[Checkpoint]:
        """The newest *valid* checkpoint, or ``None``.

        Corrupt files are skipped (graceful degradation): a crash while
        writing the last snapshot must not make every older one
        unreachable.
        """
        for step_index in reversed(self.steps()):
            try:
                return self.load(step_index)
            except CheckpointError:
                continue
        return None

    def _prune(self) -> None:
        if self.keep == 0:
            return
        steps = self.steps()
        for step_index in steps[: -self.keep]:
            try:
                self._path(step_index).unlink()
            except OSError:
                pass
