"""Named Quake-like problem instances.

The paper's four applications (sf10, sf5, sf2, sf1) resolve waves with
10/5/2/1-second periods over the San Fernando model.  Our synthetic
equivalents are named with a trailing "e" (sf10e etc.) to make clear
they are calibrated stand-ins, not the original meshes.  A fifth "demo"
instance (20-second period, ~1.5k nodes) exists so tests and examples
run in well under a second.

Instance meshes are deterministic (fixed seed), cached in-process, and
optionally cached on disk under ``$REPRO_MESH_CACHE``.

Large instances are *gated*: sf2e (~380k nodes) only builds when the
environment variable ``REPRO_LARGE=1`` is set, sf1e (~1.9M nodes) only
when ``REPRO_HUGE=1``.  This keeps the default test/benchmark runs fast
while leaving the full-scale reproduction one environment variable away.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional, Tuple

from repro import paperdata
from repro.mesh.core import TetMesh
from repro.mesh.generator import MeshBuildReport, generate_mesh
from repro.mesh.io import MeshIOError, load_mesh, save_mesh
from repro.telemetry.registry import count
from repro.velocity.basin import BasinModel, default_san_fernando_like_model


@dataclass(frozen=True)
class QuakeInstance:
    """A named, reproducible mesh configuration.

    Attributes
    ----------
    name:
        Registry key, e.g. ``"sf5e"``.
    period:
        Shortest resolved wave period (seconds).
    paper_name:
        The paper application this instance stands in for (``None`` for
        the demo instance).
    gate:
        ``None`` (always enabled) or the name of the environment
        variable that must be "1" for :meth:`build` to proceed.
    points_per_wavelength:
        Per-instance calibration constant — the *effective* mesh nodes
        per shear wavelength, tuned so node counts land on the paper's
        Figure 2 (the meshes are uniformly coarser than a physically
        accurate simulation would use, with identical grading
        structure); see :mod:`repro.mesh.generator` for the full story.
    seed:
        Mesh generation seed (see :func:`repro.mesh.generate_mesh`).
    """

    name: str
    period: float
    paper_name: Optional[str] = None
    gate: Optional[str] = None
    points_per_wavelength: float = 1.35
    seed: int = 0

    @property
    def paper_mesh_sizes(self) -> Optional[Dict[str, int]]:
        """The paper's Figure 2 row for this instance, if any."""
        if self.paper_name is None:
            return None
        return paperdata.MESH_SIZES[self.paper_name]

    def is_enabled(self) -> bool:
        """Whether the gating environment variable (if any) is set."""
        if self.gate is None:
            return True
        return os.environ.get(self.gate, "0") == "1"

    def model(self) -> BasinModel:
        """The ground model all standard instances share."""
        return default_san_fernando_like_model()

    def build(
        self, use_cache: bool = True
    ) -> Tuple[TetMesh, Optional[MeshBuildReport]]:
        """Generate (or fetch from cache) this instance's mesh.

        Raises ``RuntimeError`` when the instance is gated off; callers
        that want to skip instead should check :meth:`is_enabled` first.
        The build report is ``None`` for disk-cache hits.
        """
        if not self.is_enabled():
            raise RuntimeError(
                f"instance {self.name} is disabled; set {self.gate}=1 to "
                "enable it"
            )
        if use_cache:
            cached = _MEMORY_CACHE.get(self.name)
            if cached is not None:
                count(
                    "repro_mesh_cache_total",
                    instance=self.name,
                    result="memory-hit",
                )
                return cached
            disk = self._disk_cache_path()
            if disk is not None and disk.exists():
                try:
                    mesh = load_mesh(disk)
                except MeshIOError as exc:
                    # Graceful degradation: a corrupt/truncated/stale
                    # cache file costs a rebuild, never a crash.
                    warnings.warn(
                        f"mesh cache for {self.name} is unusable "
                        f"({exc}); deleting and rebuilding",
                        RuntimeWarning,
                        stacklevel=2,
                    )
                    try:
                        disk.unlink()
                    except OSError:
                        pass
                else:
                    count(
                        "repro_mesh_cache_total",
                        instance=self.name,
                        result="disk-hit",
                    )
                    result = (mesh, None)
                    _MEMORY_CACHE[self.name] = result
                    return result
        count(
            "repro_mesh_cache_total", instance=self.name, result="miss"
        )
        mesh, report = generate_mesh(
            self.model(),
            period=self.period,
            points_per_wavelength=self.points_per_wavelength,
            seed=self.seed,
        )
        result = (mesh, report)
        if use_cache:
            _MEMORY_CACHE[self.name] = result
            disk = self._disk_cache_path()
            if disk is not None:
                disk.parent.mkdir(parents=True, exist_ok=True)
                save_mesh(mesh, disk)
        return result

    def _disk_cache_path(self) -> Optional[Path]:
        root = os.environ.get("REPRO_MESH_CACHE")
        if not root:
            return None
        return Path(root) / f"{self.name}-seed{self.seed}.npz"


_MEMORY_CACHE: Dict[str, Tuple[TetMesh, Optional[MeshBuildReport]]] = {}


def clear_mesh_cache() -> None:
    """Drop all in-process cached meshes (tests use this)."""
    _MEMORY_CACHE.clear()


#: The instance registry.  sf2e/sf1e are gated by environment variables
#: because they take minutes and gigabytes to build.
INSTANCES: Dict[str, QuakeInstance] = {
    inst.name: inst
    for inst in (
        QuakeInstance(name="demo", period=25.0, points_per_wavelength=1.1111),
        QuakeInstance(
            name="sf10e",
            period=10.0,
            paper_name="sf10",
            points_per_wavelength=1.3514,
        ),
        QuakeInstance(
            name="sf5e",
            period=5.0,
            paper_name="sf5",
            points_per_wavelength=1.8018,
        ),
        QuakeInstance(
            name="sf2e",
            period=2.0,
            paper_name="sf2",
            gate="REPRO_LARGE",
            points_per_wavelength=2.4691,
        ),
        QuakeInstance(
            name="sf1e",
            period=1.0,
            paper_name="sf1",
            gate="REPRO_HUGE",
            points_per_wavelength=2.8571,
        ),
    )
}


def get_instance(name: str) -> QuakeInstance:
    """Look up an instance by name; raises ``KeyError`` with the options."""
    try:
        return INSTANCES[name]
    except KeyError:
        raise KeyError(
            f"unknown instance {name!r}; available: {sorted(INSTANCES)}"
        ) from None


def instance_names(enabled_only: bool = False) -> Tuple[str, ...]:
    """Registry names in increasing problem size order."""
    ordered = ("demo", "sf10e", "sf5e", "sf2e", "sf1e")
    if enabled_only:
        return tuple(n for n in ordered if INSTANCES[n].is_enabled())
    return ordered
