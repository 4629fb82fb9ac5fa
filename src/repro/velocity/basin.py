"""Three-dimensional basin geometry.

:class:`BasinModel` combines a rectangular earth domain, a smooth
elliptical basin surface (depth-to-basement as a function of map
position), and two material profiles (sediment inside the basin, rock
outside/below).  Evaluation is vectorized over point arrays.

Coordinate convention (used everywhere in this project): ``x`` and ``y``
are map coordinates in meters, ``z`` is elevation in meters with the free
surface at ``z = 0`` and the bottom of the domain at ``z = -depth``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.geometry import AABB
from repro.velocity.profiles import (
    LinearGradientProfile,
    PowerLawSedimentProfile,
    VelocityProfile,
)


@dataclass
class BasinModel:
    """A sediment-filled elliptical basin embedded in rock.

    The basement surface under map point ``(x, y)`` lies at depth

    ``d(x, y) = depth_max * max(0, 1 - r2)^bowl_exponent``

    where ``r2`` is the squared normalized elliptical radius of ``(x, y)``
    around ``(center_x, center_y)`` with semi-axes ``(semi_x, semi_y)``.
    Points above the basement (and below the free surface) are sediment;
    everything else is rock.

    Parameters
    ----------
    domain:
        The rectangular earth volume being modeled.
    center_x, center_y:
        Map position of the deepest basin point.
    semi_x, semi_y:
        Basin footprint semi-axes (m).
    depth_max:
        Maximum sediment thickness (m).
    bowl_exponent:
        Controls how steep-sided the bowl is (1 = paraboloid).
    sediment, rock:
        Material profiles; sediment profiles are evaluated with depth
        below the free surface, rock profiles likewise.
    """

    domain: AABB = field(
        default_factory=lambda: AABB((0.0, 0.0, -10_000.0), (50_000.0, 50_000.0, 0.0))
    )
    center_x: float = 25_000.0
    center_y: float = 22_000.0
    semi_x: float = 17_000.0
    semi_y: float = 11_000.0
    depth_max: float = 1_800.0
    bowl_exponent: float = 1.0
    sediment: VelocityProfile = field(default_factory=PowerLawSedimentProfile)
    rock: VelocityProfile = field(default_factory=LinearGradientProfile)

    def __post_init__(self) -> None:
        if self.semi_x <= 0 or self.semi_y <= 0:
            raise ValueError("basin semi-axes must be positive")
        if self.depth_max < 0:
            raise ValueError("depth_max must be non-negative")
        if self.depth_max > -self.domain.lo[2]:
            raise ValueError("basin deeper than the domain")

    # -- geometry ---------------------------------------------------------

    def basement_depth(self, x, y) -> np.ndarray:
        """Sediment thickness (m) under map point(s) ``(x, y)``."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        r2 = ((x - self.center_x) / self.semi_x) ** 2 + (
            (y - self.center_y) / self.semi_y
        ) ** 2
        bowl = np.maximum(0.0, 1.0 - r2) ** self.bowl_exponent
        return self.depth_max * bowl

    def in_sediment(self, points: np.ndarray) -> np.ndarray:
        """Boolean mask: which points lie inside the sediment body."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        depth = -pts[:, 2]
        return (depth >= 0) & (depth < self.basement_depth(pts[:, 0], pts[:, 1]))

    # -- materials --------------------------------------------------------

    def _locate(self, points: np.ndarray):
        """``(depth, sed)``: each point's depth below the free surface
        (clamped at 0) and whether it lies in the sediment body."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return np.maximum(-pts[:, 2], 0.0), self.in_sediment(pts)

    def _profile(self, name: str, depth: np.ndarray, sed: np.ndarray):
        """Property ``name`` of the sediment profile where ``sed``, of
        the rock profile elsewhere."""
        out = np.empty(depth.shape[0], dtype=float)
        if np.any(sed):
            out[sed] = getattr(self.sediment, name)(depth[sed])
        if np.any(~sed):
            out[~sed] = getattr(self.rock, name)(depth[~sed])
        return out

    def vs(self, points: np.ndarray) -> np.ndarray:
        """Shear-wave velocity (m/s) at each point, shape (n,)."""
        return self._profile("vs", *self._locate(points))

    def vp(self, points: np.ndarray) -> np.ndarray:
        """Pressure-wave velocity (m/s) at each point."""
        return self._profile("vp", *self._locate(points))

    def rho(self, points: np.ndarray) -> np.ndarray:
        """Density (kg/m^3) at each point."""
        return self._profile("rho", *self._locate(points))

    def sample(self, points: np.ndarray):
        """Lame parameters and density ``(lambda, mu, rho)`` at each
        point, the sediment mask and the depths found once.

        ``mu = rho Vs^2`` and ``lambda = rho (Vp^2 - 2 Vs^2)``, with
        ``Vs``, ``Vp`` and ``rho`` the values of :meth:`vs`, :meth:`vp`
        and :meth:`rho`.
        """
        where = self._locate(points)
        vs, vp, rho = (
            self._profile(name, *where) for name in ("vs", "vp", "rho")
        )
        mu = rho * vs**2
        lam = rho * (vp**2 - 2.0 * vs**2)
        return lam, mu, rho

    def min_vs(self) -> float:
        """Smallest shear velocity anywhere in the model (at the surface)."""
        probe = np.array(
            [[self.center_x, self.center_y, 0.0], [self.domain.lo[0], self.domain.lo[1], 0.0]]
        )
        return float(self.vs(probe).min())


@dataclass(frozen=True)
class Bowl:
    """One elliptical sediment bowl of a :class:`MultiBasinModel`."""

    center_x: float
    center_y: float
    semi_x: float
    semi_y: float
    depth_max: float
    exponent: float = 1.0

    def depth(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        r2 = ((x - self.center_x) / self.semi_x) ** 2 + (
            (y - self.center_y) / self.semi_y
        ) ** 2
        return self.depth_max * np.maximum(0.0, 1.0 - r2) ** self.exponent


@dataclass
class MultiBasinModel(BasinModel):
    """Several sediment bowls in one rock domain.

    Southern California valleys are rarely single bowls; this variant
    takes the pointwise-deepest of a list of :class:`Bowl` shapes.  All
    material behaviour is inherited from :class:`BasinModel` — only the
    basement surface changes.
    """

    bowls: Sequence["Bowl"] = field(default_factory=list)

    def __post_init__(self) -> None:
        # The single-bowl parameters of the base class are ignored;
        # validate the bowls instead.
        if not self.bowls:
            raise ValueError("MultiBasinModel needs at least one bowl")
        deepest = max(b.depth_max for b in self.bowls)
        if deepest > -self.domain.lo[2]:
            raise ValueError("a bowl is deeper than the domain")
        for bowl in self.bowls:
            if bowl.semi_x <= 0 or bowl.semi_y <= 0 or bowl.depth_max < 0:
                raise ValueError("bowl axes must be positive, depth >= 0")

    def basement_depth(self, x, y) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        depth = np.zeros(np.broadcast(x, y).shape)
        for bowl in self.bowls:
            depth = np.maximum(depth, bowl.depth(x, y))
        return depth

    def min_vs(self) -> float:
        probe_points = [[b.center_x, b.center_y, 0.0] for b in self.bowls]
        probe_points.append([self.domain.lo[0], self.domain.lo[1], 0.0])
        return float(self.vs(np.array(probe_points)).min())


def default_san_fernando_like_model() -> BasinModel:
    """The calibrated basin used by the named sf10e..sf1e instances.

    A single basin whose footprint covers roughly a quarter of the 50 km x
    50 km map area, with ~1.8 km of sediments at its deepest point — the
    same order as published San Fernando Valley structure.
    """
    return BasinModel()
