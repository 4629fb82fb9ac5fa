"""Per-element material properties.

The solver needs the Lame parameters and density of each element;
:func:`materials_from_model` samples a :class:`BasinModel` at element
centroids, which is the usual piecewise-constant material assignment
for wave propagation on meshes whose elements already follow material
boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.mesh.core import TetMesh
from repro.velocity.basin import BasinModel


@dataclass(frozen=True)
class ElementMaterials:
    """Isotropic elastic properties per element.

    Attributes
    ----------
    lam, mu:
        Lame parameters (Pa), shape (num_elements,).
    rho:
        Density (kg/m^3), shape (num_elements,).
    """

    lam: np.ndarray
    mu: np.ndarray
    rho: np.ndarray

    def __post_init__(self) -> None:
        lam = np.asarray(self.lam, dtype=np.float64)
        mu = np.asarray(self.mu, dtype=np.float64)
        rho = np.asarray(self.rho, dtype=np.float64)
        if not (lam.shape == mu.shape == rho.shape) or lam.ndim != 1:
            raise ValueError("lam, mu, rho must be equal-length 1D arrays")
        if np.any(mu < 0) or np.any(rho <= 0):
            raise ValueError("need mu >= 0 and rho > 0")
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "rho", rho)

    @property
    def num_elements(self) -> int:
        return self.lam.shape[0]

    def check_covers(self, mesh: TetMesh) -> None:
        """Raise ``ValueError`` unless there is one entry per element of
        ``mesh`` (one element's values never broadcast over a mesh)."""
        if self.num_elements != mesh.num_elements:
            raise ValueError("materials must cover the full mesh")

    @classmethod
    def homogeneous(
        cls, num_elements: int, vs: float = 1000.0, vp: float = 1732.0, rho: float = 2000.0
    ) -> "ElementMaterials":
        """Uniform material (used heavily by tests)."""
        mu = rho * vs**2
        lam = rho * (vp**2 - 2 * vs**2)
        return cls(
            np.full(num_elements, lam),
            np.full(num_elements, mu),
            np.full(num_elements, rho),
        )

    def vp(self) -> np.ndarray:
        """Pressure wave velocity per element."""
        return np.sqrt((self.lam + 2 * self.mu) / self.rho)

    def vs(self) -> np.ndarray:
        """Shear wave velocity per element."""
        return np.sqrt(self.mu / self.rho)


def materials_from_model(mesh: TetMesh, model: BasinModel) -> ElementMaterials:
    """Sample a ground model at element centroids (one pass over the
    basin: :meth:`BasinModel.sample`)."""
    return ElementMaterials(*model.sample(mesh.element_centroids))
