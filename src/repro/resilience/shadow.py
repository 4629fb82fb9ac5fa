"""In-memory shadow copies of each PE's exclusive vector rows.

The replicated-shared-node storage (paper Section 2.3) gives most of
PE failure recovery away for free: a node resident on several PEs has
its vector entries replicated bit-identically on all of them, so when
one PE dies every *shared* row survives on a neighbor.  The only rows
lost with a PE are its **exclusive** nodes — residency exactly 1
(:attr:`~repro.smvp.distribution.DataDistribution.exclusive_nodes`).

:class:`ShadowStore` models buddy replication of exactly those rows:
after every completed step, each PE's exclusive segment of ``(u,
u_prev)`` is snapshotted to its buddy (the next surviving PE,
cyclically).  The store is tiny — exclusive rows only, roughly ``1/P``
of the state per PE — and keeps recovery at **zero recompute**: splice
the buddy's segment into the survivors' rows and step on.  When the
store is stale or disabled, the supervisor falls back to checkpoint
rollback plus deterministic recompute.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.smvp.distribution import DataDistribution

#: Words of time-stepper state per mesh node: 3 dofs each in ``u``
#: and ``u_prev`` (64-bit words).
STATE_WORDS_PER_NODE = 6


class ShadowSegment:
    """One PE's shadowed exclusive state at a known step."""

    __slots__ = ("dofs", "u", "u_prev", "step_index")

    def __init__(
        self,
        dofs: np.ndarray,
        u: np.ndarray,
        u_prev: np.ndarray,
        step_index: int,
    ) -> None:
        self.dofs = dofs
        self.u = u
        self.u_prev = u_prev
        self.step_index = step_index

    @property
    def words(self) -> int:
        return 2 * int(self.dofs.size)


class ShadowStore:
    """Buddy snapshots of every PE's exclusive dofs.

    Capture the state *after* each completed step (and once at
    construction, so an eviction during the very first superstep is
    covered).  ``segment(pe, step_index)`` returns the PE's shadowed
    rows only if they are current for that step — a stale shadow is
    reported as missing, never silently spliced.
    """

    def __init__(self, distribution: DataDistribution) -> None:
        self.distribution = distribution
        dof3 = np.arange(3)
        self._dofs: List[np.ndarray] = [
            (3 * nodes[:, None] + dof3).ravel()
            for nodes in distribution.exclusive_nodes
        ]
        self._segments: Dict[int, ShadowSegment] = {}
        self.captures = 0

    @property
    def num_parts(self) -> int:
        return self.distribution.num_parts

    def buddy_of(self, pe: int) -> int:
        """The PE holding ``pe``'s shadow (next PE, cyclically)."""
        return (pe + 1) % self.num_parts

    @property
    def words_per_capture(self) -> int:
        """Replication traffic per capture: every exclusive dof, twice."""
        return 2 * sum(int(d.size) for d in self._dofs)

    def capture(
        self, u: np.ndarray, u_prev: np.ndarray, step_index: int
    ) -> None:
        """Snapshot every PE's exclusive segment of the given state."""
        self._capture(lambda dofs: (u[dofs], u_prev[dofs]), step_index)

    def capture_from(self, stepper) -> None:
        """Snapshot straight from an ``ExplicitTimeStepper``, reading
        only the shadowed rows (``stepper.state_rows``: a state resident
        on the executor's PEs is not gathered whole)."""
        self._capture(stepper.state_rows, stepper.step_index)

    def _capture(self, rows, step_index: int) -> None:
        """One segment per PE from ``rows(dofs) -> (u, u_prev)``, new
        arrays of the state's rows ``dofs``."""
        for pe, dofs in enumerate(self._dofs):
            u, u_prev = rows(dofs)
            self._segments[pe] = ShadowSegment(dofs, u, u_prev, int(step_index))
        self.captures += 1

    def segment(
        self, pe: int, step_index: int
    ) -> Optional[ShadowSegment]:
        """The PE's shadowed segment iff current for ``step_index``."""
        seg = self._segments.get(pe)
        if seg is None or seg.step_index != step_index:
            return None
        return seg

    def coverage(self, pe: int) -> Tuple[int, int]:
        """(exclusive dofs shadowed, total state words) for one PE."""
        dofs = int(self._dofs[pe].size)
        return dofs, 2 * dofs
