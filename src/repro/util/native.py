"""The package's compiled loops: one builder for every C source.

Five sources are C: ``csr``'s node-block product (``smvp/nodal.c``),
the stiffness assembly (``fem/assembly.c``, which also holds the
element geometry, the node graph and a partition's per-PE edge counts),
the time step's update (``fem/timestep.c``), the geometric
partitioner's bisection tree (``partition/cut.c``: one call per
subtree, running every cut's lift, centerpoint, conformal map and
scoring of every candidate circle; the root's two subtrees on two
cores) and the mesher's octree stuffing (``mesh/stuffing.c``: a hash
table over the corner nodes, then per level one pass for the lookups,
face groups and counts and one for the tets; it keeps no static or
global state).  Each is built with ``gcc`` on first use into
``__pycache__`` beside its source, under a name hashing the source, the compile command, ``gcc -dumpfullversion`` and
the CPU's flags, and loaded through cffi's ABI mode (which releases the
GIL during a call).  Without ``cffi`` or ``gcc``, or when the build or
load fails, :func:`compiled` returns ``None`` and the caller runs its
numpy/scipy path, which gives the same bits.
"""

from __future__ import annotations

import functools
import hashlib
import os
import platform
import shutil
import subprocess
import tempfile
from pathlib import Path
from typing import Any, Optional, Tuple

#: No ``-ffast-math`` and no contraction: every loop's float order is
#: part of its contract.  ``-fno-math-errno`` changes no value: ``sqrt``
#: stops writing ``errno``, so a loop calling it can be vectorized.
_FLAGS = (
    "-O3",
    "-march=native",
    "-ffp-contract=off",
    "-fno-math-errno",
    "-fPIC",
    "-shared",
)


def _cpu_flags() -> str:
    """This CPU's feature flags line (``-march=native`` depends on it)."""
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("flags"):
                    return line
    except OSError:
        pass
    return " ".join(platform.uname())


def _build(source: Path) -> Path:
    """The shared library for ``source``, this compiler and this CPU,
    compiled first if no such build is cached.

    The file name hashes the source, the compile command, ``gcc
    -dumpfullversion`` and the CPU's flags, so a stale build, or one
    made for another CPU, is never loaded.  Each build goes to a
    temporary file renamed into place, so concurrent processes are
    safe.  Raises ``OSError`` / ``subprocess.SubprocessError`` when
    there is no ``gcc``, the cache is not writable or the build fails.
    """
    gcc = shutil.which("gcc")
    if gcc is None:
        raise FileNotFoundError("gcc is not on PATH")
    command = [gcc, *_FLAGS]
    version = subprocess.run(
        [gcc, "-dumpfullversion"], capture_output=True, check=True
    ).stdout
    key = hashlib.sha256()
    for part in (
        source.read_bytes(),
        " ".join(command).encode(),
        version,
        _cpu_flags().encode(),
    ):
        key.update(hashlib.sha256(part).digest())
    cache = source.parent / "__pycache__"
    target = cache / f"{source.stem}-{key.hexdigest()[:16]}.so"
    if target.exists():
        return target
    cache.mkdir(exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        dir=cache, prefix=f"{source.stem}-", suffix=".tmp"
    )
    os.close(fd)
    try:
        subprocess.run(
            command + ["-o", tmp, str(source)],
            capture_output=True,
            check=True,
        )
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return target


@functools.lru_cache(maxsize=None)
def compiled(source: Path, cdef: str) -> Optional[Tuple[Any, Any]]:
    """``source`` built (on first use) and loaded as ``(ffi, lib)`` with
    the declarations ``cdef``; ``None`` when ``cffi`` or ``gcc`` is
    missing or the build or load fails."""
    try:
        import cffi
    except ImportError:
        return None
    try:
        path = _build(source)
        ffi = cffi.FFI()
        ffi.cdef(cdef)
        return ffi, ffi.dlopen(str(path))
    except (OSError, subprocess.SubprocessError):
        return None
