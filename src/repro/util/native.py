"""The package's compiled loops: one builder for every C source.

Five sources are C: ``csr``'s node-block product (``smvp/nodal.c``),
the stiffness assembly (``fem/assembly.c``, which also holds the
element geometry, the node graph and a partition's per-PE edge counts),
the time step's update (``fem/timestep.c``), the geometric
partitioner's bisection tree (``partition/cut.c``: one call per
subtree, running every cut's lift, centerpoint, conformal map and
scoring of every candidate circle; the root's two subtrees on two
cores; and a partition's node -> part incidence, without a sort) and the mesher's octree stuffing (``mesh/stuffing.c``: a hash
table over the corner nodes, then per level one pass for the lookups,
face groups and counts and one for the tets; it keeps no static or
global state).  Each is built with ``gcc`` on first use into
``__pycache__`` beside its source, under a name hashing the source,
the compile command, ``gcc -dumpfullversion`` and the CPU's flags (the
last three probed once per process), and loaded through cffi's ABI mode
(which releases the GIL during a call), its C declarations parsed once
into an out-of-line module in the same cache.  Without ``cffi`` or
``gcc``, or when the build or load fails, :func:`compiled` returns
``None`` and the caller runs its numpy/scipy path, which gives the same
bits.
"""

from __future__ import annotations

import functools
import hashlib
import importlib.util
import io
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


@functools.lru_cache(maxsize=None)
def _toolchain() -> Tuple[Tuple[str, ...], bytes, str]:
    """The compile command, ``gcc -dumpfullversion``'s output and the
    CPU's flags line: probed once per process, for every source.
    Raises ``OSError`` / ``subprocess.SubprocessError`` when there is no
    ``gcc`` or it does not answer (nothing is cached then)."""
    gcc = shutil.which("gcc")
    if gcc is None:
        raise FileNotFoundError("gcc is not on PATH")
    version = subprocess.run(
        [gcc, "-dumpfullversion"], capture_output=True, check=True
    ).stdout
    return (gcc, *_FLAGS), version, _cpu_flags()


def _build(source: Path) -> Path:
    """The shared library for ``source``, this compiler and this CPU,
    compiled first if no such build is cached.

    The file name hashes the source, the compile command, ``gcc
    -dumpfullversion`` and the CPU's flags (:func:`_toolchain`, probed
    once per process), so a stale build, or one made for another CPU,
    is never loaded.  Each build goes to a
    temporary file renamed into place, so concurrent processes are
    safe.  Raises ``OSError`` / ``subprocess.SubprocessError`` when
    there is no ``gcc``, the cache is not writable or the build fails.
    """
    command, version, cpu_flags = _toolchain()
    key = hashlib.sha256()
    for part in (
        source.read_bytes(),
        " ".join(command).encode(),
        version,
        cpu_flags.encode(),
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
            [*command, "-o", tmp, str(source)],
            capture_output=True,
            check=True,
        )
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return target


def _declarations(source: Path, cdef: str, cffi: Any) -> Any:
    """An FFI holding the declarations ``cdef``.

    Parsing C declarations costs several ms per library, so the parse
    runs once: cffi's out-of-line module for ``cdef`` (ABI mode, no C
    compiler) is written into ``__pycache__`` beside ``source``, under
    a name hashing ``cdef`` and cffi's version, and every later process
    imports it.  Where the cache cannot be written, the declarations
    are parsed in this process instead."""
    key = hashlib.sha256(f"{cffi.__version__}\n{cdef}".encode())
    name = f"_{source.stem}_ffi_{key.hexdigest()[:16]}"
    path = source.parent / "__pycache__" / f"{name}.py"
    if not path.exists():
        from cffi import recompiler

        builder = cffi.FFI()
        builder.cdef(cdef)
        builder.set_source(name, None)
        text = io.StringIO()
        recompiler.make_py_source(builder, name, text)
        try:
            path.parent.mkdir(exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=path.parent, prefix=f"{name}-", suffix=".tmp"
            )
        except OSError:
            return builder
        try:
            with os.fdopen(fd, "w") as out:
                out.write(text.getvalue())
            os.replace(tmp, path)
        except OSError:
            return builder
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.ffi


@functools.lru_cache(maxsize=None)
def compiled(source: Path, cdef: str) -> Optional[Tuple[Any, Any]]:
    """``source`` built (on first use) and loaded as ``(ffi, lib)`` with
    the declarations ``cdef`` (:func:`_declarations`); ``None`` when
    ``cffi`` or ``gcc`` is missing or the build or load fails."""
    try:
        import cffi
    except ImportError:
        return None
    try:
        path = _build(source)
        ffi = _declarations(source, cdef, cffi)
        return ffi, ffi.dlopen(str(path))
    except (OSError, subprocess.SubprocessError):
        return None
