"""Seeded race-injection fixtures: the sanitizer's proving ground.

A race detector that has never seen a race is an assertion, not a
tool.  This module builds *deliberately racy* variants of the engine —
a backend that scribbles on a neighbour's input, output slots aliased
into one buffer, an exchange that drops (or invents) a scheduled
message, a gather that reads ghost dofs — each injection seeded,
recorded with exact ``(pe, step, phase, dof)`` coordinates, and
checkable against the sanitizer's findings with
:func:`verify_detection`.  The CI ``race`` job runs these and requires
every injected race to be blamed exactly.

Nothing here registers with the backend table — racy variants are
reachable only by explicit construction (:func:`make_racy` or the
``repro-san --racy`` CLI), never by configuration accident.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.sanitizer import SanFinding
from repro.smvp.backends.threaded import ThreadedBackend
from repro.smvp.executor import DistributedSMVP

__all__ = [
    "RACE_MODES",
    "InjectedRace",
    "RacySMVP",
    "RacyThreadedBackend",
    "make_racy",
    "verify_detection",
]

#: mode -> (sanitizer finding kind, phase) it must provoke.
RACE_MODES: Dict[str, Tuple[str, str]] = {
    "input-mutation": ("input-mutation", "compute"),
    "aliased-output": ("racy-write-write", "compute"),
    "ghost-gather": ("ghost-read", "gather"),
    "skip-exchange": ("stale-ghost", "exchange"),
    "unscheduled-exchange": ("unscheduled-exchange-write", "exchange"),
}


@dataclass(frozen=True)
class InjectedRace:
    """Ground truth for one injected race (what must be blamed)."""

    mode: str
    step: int
    pe: int
    phase: str
    dofs: Tuple[int, ...]


class RacyThreadedBackend(ThreadedBackend):
    """The threaded backend with a seeded saboteur in the pool.

    ``input-mutation``
        Before dispatch, one worker's-eye write lands on a *different*
        PE's input slot — the classic shared-memory bug the private
        per-PE x copies are supposed to preclude.

    ``aliased-output``
        The per-PE products are repacked as overlapping views of one
        scratch buffer; the second PE's tail write clobbers the first
        PE's — last-writer-wins, exactly what aliased output slots do
        under concurrency.

    The executor syncs ``race_step`` before each compute so the
    recorded :class:`InjectedRace` coordinates match the sanitizer's
    superstep numbering.
    """

    name = "racy-threaded"

    def __init__(
        self, mode: str, seed: int = 0, workers: Optional[int] = None
    ) -> None:
        super().__init__(workers=workers)
        if mode not in ("input-mutation", "aliased-output"):
            raise ValueError(f"not a backend race mode: {mode!r}")
        self.mode = mode
        self.rng = np.random.default_rng(seed)
        self.injected: List[InjectedRace] = []
        self.race_step = 0

    def _inject_input_mutation(self, x_locals: Sequence[np.ndarray]) -> None:
        victim = int(self.rng.integers(len(x_locals)))
        dof = int(self.rng.integers(x_locals[victim].shape[0]))
        # The write below IS the injected race the fixture exists for.
        # On a block slot it lands on every column of the dof's row —
        # still exactly one mutated dof.
        x_locals[victim][dof] += 1e-9  # repro-lint: ignore[bsp-ownership]
        self.injected.append(
            InjectedRace(self.mode, self.race_step, victim, "compute", (dof,))
        )

    def _inject_aliased_output(
        self, y: List[np.ndarray]
    ) -> List[np.ndarray]:
        a, b = sorted(
            int(i)
            for i in self.rng.choice(len(y), size=2, replace=False)
        )
        na, nb = y[a].shape[0], y[b].shape[0]
        overlap = int(min(3, na, nb))
        buf = np.empty((na + nb - overlap,) + y[a].shape[1:], dtype=np.float64)
        buf[:na] = y[a]
        buf[na - overlap :] = y[b]  # last writer wins: clobbers y[a]'s tail
        y[a] = buf[:na]
        y[b] = buf[na - overlap :]
        self.injected.append(
            InjectedRace(
                self.mode,
                self.race_step,
                a,
                "compute",
                tuple(range(na - overlap, na)),
            )
        )
        return y

    def map(self, fn, *columns):
        """The executor's compute phase, sabotaged: the columns end
        ``(..., x_locals, outs)`` whether or not the call is spanned."""
        if self.mode == "input-mutation":
            self._inject_input_mutation(columns[-2])
            return super().map(fn, *columns)
        # The saboteur's arrays replace two of the executor's clean
        # per-PE slices in the returned list.
        return self._inject_aliased_output(super().map(fn, *columns))


class RacySMVP(DistributedSMVP):
    """An executor with one seeded BSP-discipline violation built in.

    Executor-level modes tamper with the engine's own maps — the bug
    classes a refactor of the exchange or gather path could introduce:

    ``skip-exchange``
        One scheduled shared-node pair is dropped from the pair table;
        both endpoints keep stale partial sums on their shared dofs.

    ``unscheduled-exchange``
        A bogus pair between two PEs that share no nodes is appended;
        the exchange plan delivers writes the schedule never authorized.

    ``ghost-gather``
        The gather map (``owner_pos``) reads a few global dofs from one
        PE's ghost copies instead of their owners — the committed
        values now depend on exchange completeness and summation order.

    Backend-level modes (``input-mutation``, ``aliased-output``)
    delegate to :class:`RacyThreadedBackend`.  All modes run with the
    sanitizer forced on; :attr:`injected` holds the ground truth.
    """

    def __init__(
        self,
        mesh,
        partition,
        materials,
        mode: str,
        seed: int = 0,
        backend: str = "threaded",
        strict: bool = True,
    ) -> None:
        if mode not in RACE_MODES:
            raise ValueError(
                f"unknown race mode {mode!r}; options: {sorted(RACE_MODES)}"
            )
        self.mode = mode
        self._race_rng = np.random.default_rng(seed)
        self._executor_injected: List[InjectedRace] = []
        if mode in ("input-mutation", "aliased-output"):
            backend = RacyThreadedBackend(mode, seed=seed)
        super().__init__(
            mesh,
            partition,
            materials,
            backend=backend,
            sanitizer=True,
        )
        self.sanitizer.strict = strict
        if mode == "skip-exchange":
            self._install_skip_exchange()
        elif mode == "unscheduled-exchange":
            self._install_unscheduled_exchange()
        elif mode == "ghost-gather":
            self._install_ghost_gather()

    # -- executor-level injections ----------------------------------------

    def _install_skip_exchange(self) -> None:
        pairs = list(self.layout.pairs)
        drop = int(self._race_rng.integers(len(pairs)))
        a, b, dof_a, dof_b = pairs.pop(drop)
        self.layout.replace_pairs(pairs)
        self._skip_blame = [
            (b, tuple(int(d) for d in dof_b)),
            (a, tuple(int(d) for d in dof_a)),
        ]

    def _install_unscheduled_exchange(self) -> None:
        shared = {(a, b) for a, b, _, _ in self.schedule.pairs}
        p = self.num_parts
        unshared = [
            (a, b) for a in range(p) for b in range(a + 1, p)
            if (a, b) not in shared
        ]
        if not unshared:
            raise ValueError(
                "unscheduled-exchange needs two PEs sharing no nodes; "
                "use a larger PE count"
            )
        a, b = unshared[0]
        dofs = np.arange(3, dtype=np.int64)  # local node 0 on both sides
        self.layout.replace_pairs([*self.layout.pairs, (a, b, dofs, dofs)])
        self._bogus_blame = [
            (a, (0, 1, 2)),  # a->b delivery, blamed on the writer a
            (b, (0, 1, 2)),  # b->a delivery
        ]

    def _install_ghost_gather(self) -> None:
        victim = int(self._race_rng.integers(self.num_parts))
        n_local = 3 * len(self.local_nodes[victim])
        ghosts = np.setdiff1d(
            np.arange(n_local, dtype=np.int64), self.layout.gather_src[victim]
        )
        if ghosts.size == 0:  # pragma: no cover - shared nodes always exist
            raise ValueError(f"PE {victim} owns every local dof")
        pick = ghosts[
            np.sort(
                self._race_rng.choice(
                    ghosts.size, size=min(3, ghosts.size), replace=False
                )
            )
        ]
        nodes = self.local_nodes[victim][pick // 3]
        # Gather now reads those global dofs from the victim's ghost
        # copies instead of their owners' slices.
        self.layout.owner_pos[3 * nodes + pick % 3] = (
            self.layout.offsets[victim] + pick
        )
        self._ghost_blame = (victim, tuple(int(d) for d in pick))

    # -- ground-truth bookkeeping ------------------------------------------

    @property
    def injected(self) -> List[InjectedRace]:
        """All injections so far, executor- and backend-level."""
        out = list(self._executor_injected)
        if isinstance(self.backend, RacyThreadedBackend):
            out.extend(self.backend.injected)
        return sorted(out, key=lambda r: (r.step, r.pe, r.phase))

    def multiply(
        self, x_global: np.ndarray, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        step = self._superstep
        if isinstance(self.backend, RacyThreadedBackend):
            self.backend.race_step = step
        elif self.mode == "skip-exchange":
            for pe, dofs in self._skip_blame:
                self._executor_injected.append(
                    InjectedRace(self.mode, step, pe, "exchange", dofs)
                )
        elif self.mode == "unscheduled-exchange":
            for pe, dofs in self._bogus_blame:
                self._executor_injected.append(
                    InjectedRace(self.mode, step, pe, "exchange", dofs)
                )
        elif self.mode == "ghost-gather":
            pe, dofs = self._ghost_blame
            self._executor_injected.append(
                InjectedRace(self.mode, step, pe, "gather", dofs)
            )
        return super().multiply(x_global, out)

    __call__ = multiply


#: Build a seeded racy executor (sanitizer on, ground truth kept).
make_racy = RacySMVP


def verify_detection(
    injected: Sequence[InjectedRace], findings: Sequence[SanFinding]
) -> List[InjectedRace]:
    """Injected races the findings do *not* blame exactly (empty = all
    caught): a finding matches when its kind/phase fit the mode, its
    (pe, step) equal the injection's, and its dof set covers the
    injected dofs."""
    missed: List[InjectedRace] = []
    for race in injected:
        kind, phase = RACE_MODES[race.mode]
        hit = any(
            f.kind == kind
            and f.phase == phase
            and f.pe == race.pe
            and f.step == race.step
            and set(race.dofs) <= set(f.dofs)
            for f in findings
        )
        if not hit:
            missed.append(race)
    return missed
