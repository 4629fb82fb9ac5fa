"""Partition result type, partitioner interface, and recursion driver."""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Dict, Type

import numpy as np

from repro.mesh.core import TetMesh
from repro.telemetry.registry import get_registry, stage_span


class PartitionError(ValueError):
    """A partition request or result is malformed.

    Raised for an unknown method name, for a part count that is not an
    integer in ``[1, num_elements]``, for a mesh with non-finite node
    coordinates, for part labels that are not a 1-D integer array in
    ``[0, num_parts)``, for a part index out of range and, by
    :class:`~repro.smvp.distribution.DataDistribution`, for a partition
    with an empty PE.  Subclasses
    ``ValueError`` so callers that caught the old untyped errors keep
    working.
    """


def _checked_num_parts(num_parts: int, num_elements: int) -> int:
    """``num_parts`` as a Python int, or :class:`PartitionError`.

    A fractional count would halve forever in the recursion and a count
    above ``num_elements`` would leave subdomains empty, so both are
    refused before any work is done.
    """
    try:
        count = operator.index(num_parts)
    except TypeError:
        raise PartitionError(
            f"num_parts must be an integer, got {num_parts!r}"
        ) from None
    if not 1 <= count <= num_elements:
        raise PartitionError(
            f"num_parts must be in [1, {num_elements}] (one element per "
            f"part at least), got {count}"
        )
    return count


@dataclass(frozen=True)
class Partition:
    """An assignment of mesh elements to ``num_parts`` subdomains.

    Attributes
    ----------
    parts:
        ``(num_elements,)`` integer array; ``parts[e]`` is the
        subdomain (PE index) owning element ``e``.
    num_parts:
        Number of subdomains ``p``.
    method:
        Name of the partitioner that produced the assignment.
    """

    parts: np.ndarray
    num_parts: int
    method: str = "unknown"

    def __post_init__(self) -> None:
        parts = np.asarray(self.parts)
        if parts.dtype.kind not in "iu":
            raise PartitionError(
                f"parts must be integers, got dtype {parts.dtype}"
            )
        if parts.ndim != 1:
            raise PartitionError(
                f"parts must be a 1-D array, got {parts.ndim} dimensions"
            )
        if self.num_parts < 1:
            raise PartitionError(
                f"num_parts must be >= 1, got {self.num_parts}"
            )
        if parts.size and (parts.min() < 0 or parts.max() >= self.num_parts):
            raise PartitionError(
                f"part labels out of range [0, {self.num_parts}): "
                f"min {parts.min()}, max {parts.max()}"
            )
        object.__setattr__(self, "parts", parts.astype(np.int32, copy=False))

    @property
    def num_elements(self) -> int:
        return self.parts.shape[0]

    def part_sizes(self) -> np.ndarray:
        """Number of elements in each subdomain, shape (num_parts,)."""
        return np.bincount(self.parts, minlength=self.num_parts)

    def elements_of(self, part: int) -> np.ndarray:
        """Element indices assigned to one subdomain."""
        if not 0 <= part < self.num_parts:
            raise PartitionError(
                f"part {part} out of range [0, {self.num_parts})"
            )
        return np.flatnonzero(self.parts == part)

    def imbalance(self) -> float:
        """``max_part_size / ideal_size`` (1.0 = perfectly balanced)."""
        sizes = self.part_sizes()
        ideal = self.num_elements / self.num_parts
        return float(sizes.max() / ideal) if ideal > 0 else 1.0


#: A bisection function: given (mesh, element_ids, rng, target_left_count)
#: return a boolean mask over element_ids selecting the "left" side with
#: exactly target_left_count True entries.
BisectFn = Callable[[TetMesh, np.ndarray, np.random.Generator, int], np.ndarray]


def recursive_bisection(
    mesh: TetMesh,
    num_parts: int,
    bisect: BisectFn,
    seed: int = 0,
) -> np.ndarray:
    """Drive a bisection function down to ``num_parts`` subdomains.

    Parts are numbered so that each bisection splits a contiguous part
    range: the root cut separates parts ``[0, ceil(p/2))`` from
    ``[ceil(p/2), p)``.  For non-power-of-two ``p``, element counts are
    divided proportionally to the part counts on each side, keeping all
    final parts within one element of ideal balance.

    Raises :class:`PartitionError` unless ``num_parts`` is an integer in
    ``[1, mesh.num_elements]``.
    """
    num_parts = _checked_num_parts(num_parts, mesh.num_elements)
    parts = np.zeros(mesh.num_elements, dtype=np.int32)
    rng = np.random.default_rng(seed)
    stack = [(np.arange(mesh.num_elements, dtype=np.int64), 0, num_parts)]
    while stack:
        ids, first_part, p = stack.pop()
        if p == 1:
            parts[ids] = first_part
            continue
        p_left = (p + 1) // 2
        target_left = int(round(len(ids) * p_left / p))
        target_left = min(max(target_left, 0), len(ids))
        left_mask = bisect(mesh, ids, rng, target_left)
        if left_mask.dtype != bool or left_mask.shape != ids.shape:
            raise ValueError("bisect must return a boolean mask over ids")
        if int(left_mask.sum()) != target_left:
            raise ValueError(
                f"bisect returned {int(left_mask.sum())} left elements, "
                f"expected {target_left}"
            )
        stack.append((ids[left_mask], first_part, p_left))
        stack.append((ids[~left_mask], first_part + p_left, p - p_left))
    return parts


class Partitioner:
    """Base class: subclasses implement :meth:`partition`."""

    #: Registry name; subclasses must override.
    name = "abstract"

    def partition(
        self, mesh: TetMesh, num_parts: int, seed: int = 0
    ) -> Partition:
        raise NotImplementedError

    @staticmethod
    def split_by_order(values: np.ndarray, target_left: int) -> np.ndarray:
        """Boolean mask marking the ``target_left`` smallest ``values``.

        Ties are broken deterministically by index — the mask is the one
        a stable argsort would give (NaN last, ``-0.0 == 0.0``) — so
        exact balance is always achievable even with duplicate values.
        Found by selection, not by sorting: ``np.partition`` for the
        ``target_left``-th value, one comparison pass, and the
        highest-index ties dropped if the pass took too many.
        """
        values = np.asarray(values)
        n = len(values)
        if not 0 <= target_left <= n:
            raise ValueError(
                f"target_left must be in [0, {n}], got {target_left}"
            )
        if target_left == 0:
            return np.zeros(n, dtype=bool)
        kth = np.partition(values, target_left - 1)[target_left - 1]
        # Every number sorts before every NaN, and no comparison sees a
        # NaN, so a NaN cut value takes them all and ties on NaN-ness.
        nan_cut = bool(np.isnan(kth))
        mask = np.ones(n, dtype=bool) if nan_cut else values <= kth
        surplus = int(np.count_nonzero(mask)) - target_left
        if surplus:
            tied = np.flatnonzero(np.isnan(values) if nan_cut else values == kth)
            mask[tied[len(tied) - surplus :]] = False
        return mask


#: The partitioners :func:`partition_mesh` dispatches to, by name:
#: ``geometric`` and ``random``.  Filled by :mod:`repro.partition`,
#: which every import of this module runs first.
PARTITIONERS: Dict[str, Type[Partitioner]] = {}


def partition_mesh(
    mesh: TetMesh,
    num_parts: int,
    method: str = "geometric",
    seed: int = 0,
) -> Partition:
    """Partition a mesh's elements into ``num_parts`` subdomains.

    ``method`` is ``"geometric"`` (the paper's recursive sphere-cut
    bisection, the default) or ``"random"`` (the no-locality baseline).
    Raises :class:`PartitionError` for any other name, for a
    ``num_parts`` that is not an integer in ``[1, mesh.num_elements]``
    (so no subdomain is ever empty), and when a node coordinate is NaN
    or infinite, which no cut can place.
    """
    try:
        cls = PARTITIONERS[method]
    except KeyError:
        raise PartitionError(
            f"unknown method {method!r}; available: {sorted(PARTITIONERS)}"
        ) from None
    num_parts = _checked_num_parts(num_parts, mesh.num_elements)
    finite = np.isfinite(mesh.points).all(axis=1)
    if not finite.all():
        raise PartitionError(
            f"{np.count_nonzero(~finite)} node(s) have non-finite "
            f"coordinates (first: node {np.argmin(finite)})"
        )
    with stage_span(f"partition.{method}", track="partition"):
        part = cls().partition(mesh, num_parts, seed=seed)
    reg = get_registry()
    if reg is not None:
        reg.counter(
            "repro_partitions_total", "meshes partitioned"
        ).inc(method=method)
        reg.gauge(
            "repro_partition_imbalance", "last partition imbalance"
        ).set(part.imbalance(), method=method)
    return part
