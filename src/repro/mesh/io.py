"""Mesh persistence.

Two formats:

* ``.npz`` — compact binary, used by the on-disk mesh cache.  Files
  carry a CRC-32 of their payload, and every way a cache file can be
  bad — truncated zip, missing arrays, bit rot, wrong shapes — is
  reported as a typed :class:`MeshIOError` so callers (the instance
  cache) can delete-and-rebuild instead of crashing on a raw
  ``zipfile``/``KeyError`` surprise.
* a portable text format modeled on the Spark98 mesh files the paper's
  postscript distributes: a header line with counts followed by node
  coordinates and element corner indices, whitespace separated.  Slow
  but human-readable and diff-able.
"""

from __future__ import annotations

import os
import zlib
from pathlib import Path
from typing import Union

import numpy as np

from repro.mesh.core import TetMesh
from repro.telemetry.registry import count

PathLike = Union[str, os.PathLike]

_TEXT_MAGIC = "repro-tetmesh-v1"


class MeshIOError(ValueError):
    """A mesh file is corrupt, truncated, stale, or not a mesh file.

    Subclasses ``ValueError`` so pre-existing callers that caught the
    loader's old untyped errors keep working; new callers (the instance
    cache) catch ``MeshIOError`` and delete-and-rebuild.
    """


def _payload_crc(points: np.ndarray, tets: np.ndarray) -> int:
    crc = zlib.crc32(np.ascontiguousarray(points, dtype=np.float64).tobytes())
    return zlib.crc32(
        np.ascontiguousarray(tets, dtype=np.int64).tobytes(), crc
    )


def save_mesh(mesh: TetMesh, path: PathLike) -> None:
    """Write a mesh to a ``.npz`` file (created atomically, with CRC);
    a missing parent directory is created."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    with open(tmp, "wb") as f:
        np.savez_compressed(
            f,
            points=mesh.points,
            tets=mesh.tets,
            crc=np.uint64(_payload_crc(mesh.points, mesh.tets)),
        )
    os.replace(tmp, path)
    count("repro_mesh_io_saves_total", format="npz")


def load_mesh(path: PathLike) -> TetMesh:
    """Read a mesh written by :func:`save_mesh`.

    Raises
    ------
    FileNotFoundError
        When the file simply is not there (not a corruption case).
    MeshIOError
        For every kind of bad file: truncated/corrupt zip containers,
        missing arrays, CRC mismatches, or shapes that are not a mesh.
    """
    path = Path(path)
    try:
        # numpy is handed an open file, not the path: on a corrupt zip
        # it raises without closing a file it opened itself.
        with open(path, "rb") as f, np.load(f) as data:
            if "points" not in data or "tets" not in data:
                raise MeshIOError(f"{path} is not a repro mesh file")
            points = data["points"]
            tets = data["tets"]
            if "crc" in data and _payload_crc(points, tets) != int(data["crc"]):
                raise MeshIOError(f"{path} failed its CRC check (bit rot?)")
    except FileNotFoundError:
        raise
    except MeshIOError:
        count("repro_mesh_io_errors_total", format="npz")
        raise
    except Exception as exc:  # zipfile.BadZipFile, OSError, EOFError, ...
        count("repro_mesh_io_errors_total", format="npz")
        raise MeshIOError(f"{path} is unreadable: {exc}") from exc
    try:
        mesh = TetMesh(points, tets)
    except (ValueError, IndexError) as exc:
        count("repro_mesh_io_errors_total", format="npz")
        raise MeshIOError(f"{path} holds invalid mesh arrays: {exc}") from exc
    count("repro_mesh_io_loads_total", format="npz")
    return mesh


def save_mesh_text(mesh: TetMesh, path: PathLike) -> None:
    """Write a mesh in the portable text format.

    Layout::

        repro-tetmesh-v1
        <num_nodes> <num_elements>
        x y z          (one line per node)
        a b c d        (one line per element, 0-based node indices)

    A missing parent directory is created.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as f:
        f.write(f"{_TEXT_MAGIC}\n")
        f.write(f"{mesh.num_nodes} {mesh.num_elements}\n")
        for x, y, z in mesh.points:
            f.write(f"{float(x)!r} {float(y)!r} {float(z)!r}\n")
        for a, b, c, d in mesh.tets:
            f.write(f"{int(a)} {int(b)} {int(c)} {int(d)}\n")
    count("repro_mesh_io_saves_total", format="text")


def load_mesh_text(path: PathLike) -> TetMesh:
    """Read a mesh written by :func:`save_mesh_text`."""
    path = Path(path)
    with open(path) as f:
        magic = f.readline().strip()
        if magic != _TEXT_MAGIC:
            raise MeshIOError(f"{path}: bad magic {magic!r}")
        header = f.readline().split()
        if len(header) != 2:
            raise MeshIOError(f"{path}: bad header")
        try:
            num_nodes, num_elements = int(header[0]), int(header[1])
            points = np.empty((num_nodes, 3), dtype=np.float64)
            for i in range(num_nodes):
                parts = f.readline().split()
                if len(parts) != 3:
                    raise MeshIOError(f"{path}: bad node line {i}")
                points[i] = [float(p) for p in parts]
            tets = np.empty((num_elements, 4), dtype=np.int64)
            for i in range(num_elements):
                parts = f.readline().split()
                if len(parts) != 4:
                    raise MeshIOError(f"{path}: bad element line {i}")
                tets[i] = [int(p) for p in parts]
        except MeshIOError:
            count("repro_mesh_io_errors_total", format="text")
            raise
        except ValueError as exc:  # unparseable numbers = truncation/rot
            count("repro_mesh_io_errors_total", format="text")
            raise MeshIOError(f"{path}: {exc}") from exc
    count("repro_mesh_io_loads_total", format="text")
    return TetMesh(points, tets, copy=False)
