"""Element sizing fields.

A sizing field assigns to every point in the domain the target edge
length ``h(x)`` for mesh elements near that point.  The paper (Section
2.1): "the size of elements in any region of the mesh must be matched to
the wavelength of ground motion, which is shorter in softer soils and
longer in hard rock."  :class:`WavelengthSizingField` implements exactly
that rule:

``h(x) = clamp(Vs(x) * period / points_per_wavelength, h_min, h_max)``

where ``Vs * period`` is the local shear wavelength for the highest
resolved frequency and ``points_per_wavelength`` is the number of mesh
nodes required per wavelength for numerical stability (about 8-10 for
linear elements).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.velocity.basin import BasinModel


class SizingField:
    """Interface: target element size at arbitrary points."""

    def h(self, points: np.ndarray) -> np.ndarray:
        """Target edge length (m) at each point, shape (n,)."""
        raise NotImplementedError

    def h_min(self) -> float:
        """A lower bound on ``h`` anywhere (used to bound octree depth)."""
        raise NotImplementedError


@dataclass
class UniformSizingField(SizingField):
    """Constant element size everywhere (structured-mesh baseline)."""

    size: float

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError("size must be positive")

    def h(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return np.full(pts.shape[0], self.size, dtype=float)

    def h_min(self) -> float:
        return self.size


@dataclass
class WavelengthSizingField(SizingField):
    """Wavelength-matched element sizes over a :class:`BasinModel`.

    Parameters
    ----------
    model:
        The ground model supplying ``Vs``.
    period:
        Shortest resolved wave period in seconds (the "10" in sf10).
    points_per_wavelength:
        Mesh nodes per shear wavelength (the resolution requirement).
    floor, ceiling:
        Absolute clamps on element size (m).  The ceiling keeps rock
        elements from exceeding the domain thickness; the floor guards
        against pathological profiles.
    """

    model: BasinModel
    period: float
    points_per_wavelength: float = 10.0
    floor: float = 25.0
    ceiling: float = 5_000.0

    def __post_init__(self) -> None:
        if self.period <= 0:
            raise ValueError("period must be positive")
        if self.points_per_wavelength <= 0:
            raise ValueError("points_per_wavelength must be positive")
        if not 0 < self.floor <= self.ceiling:
            raise ValueError("need 0 < floor <= ceiling")

    def h(self, points: np.ndarray) -> np.ndarray:
        vs = self.model.vs(points)
        raw = vs * self.period / self.points_per_wavelength
        return np.clip(raw, self.floor, self.ceiling)

    def h_min(self) -> float:
        raw = self.model.min_vs() * self.period / self.points_per_wavelength
        return float(np.clip(raw, self.floor, self.ceiling))
