"""The package's compiled loops: one native library.

Five sources are C: ``csr``'s node-block product, the exchange's sums
and the owner-row copy (``smvp/nodal.c``), the stiffness assembly
(``fem/assembly.c``, which also holds the element geometry, the node
graph and a partition's per-PE edge counts), the time step's update
(``fem/timestep.c``), the geometric partitioner's bisection tree and a
partition's node -> part incidence (``partition/cut.c``) and the
mesher's octree stuffing (``mesh/stuffing.c``).  Each is its own
translation unit and includes ``native.h``, the one declaration file:
gcc checks every definition against it, and cffi reads it (its ``#``
lines dropped).

:func:`native` builds the five with one ``gcc`` command into one shared
object on first use, in ``repro/__pycache__``, under a name hashing
every source and the header (in :data:`SOURCES` order), the compile
command, ``gcc -dumpfullversion``, the CPU's flags and cffi's version,
so a stale build, or one made for another CPU, is never loaded.  The
header's declarations are parsed once into cffi's out-of-line module
beside it, under the same hash, and the library is loaded through
cffi's ABI mode (which releases the GIL during a call).  There is no
other path: without ``cffi`` or ``gcc``, with a cache that cannot be
written, or when the build or load fails, :func:`native` raises
:class:`NativeBuildError` naming the compile command, the cache and
gcc's complaint; nothing is cached then, so the next call tries again.
The numpy functions beside each caller are the passes' specifications
(their float order) and the tests' oracles, not a runtime.
"""

from __future__ import annotations

import hashlib
import importlib.util
import io
import os
import platform
import shutil
import subprocess
import tempfile
import threading
from pathlib import Path
from typing import Any, List, Optional, Tuple

#: The package directory, which holds ``native.h``.
_PACKAGE = Path(__file__).resolve().parent.parent

#: The one declaration file every source compiles against.
HEADER = _PACKAGE / "native.h"

#: The C sources, in the order the command lists them and the key
#: hashes them.
SOURCES = tuple(
    _PACKAGE / name
    for name in (
        "smvp/nodal.c",
        "fem/assembly.c",
        "fem/timestep.c",
        "partition/cut.c",
        "mesh/stuffing.c",
    )
)

#: Where the library and its parsed declarations are kept.
_CACHE = _PACKAGE / "__pycache__"

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


class NativeBuildError(RuntimeError):
    """The native library could not be built or loaded."""


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


def _command(gcc: str, target: Path) -> List[str]:
    """The one compile command, writing ``target``."""
    return [gcc, *_FLAGS, "-o", str(target), *map(str, SOURCES)]


def _failure(
    reason: str, command: List[str], stderr: bytes = b""
) -> NativeBuildError:
    """The error for a build that failed for ``reason``."""
    text = (
        f"the native library is unavailable: {reason}\n"
        f"  compile command: {' '.join(command)}\n"
        f"  cache directory: {_CACHE}"
    )
    if stderr:
        text += "\n  gcc said:\n" + stderr.decode(errors="replace").rstrip()
    return NativeBuildError(text)


def _cdef() -> str:
    """The header as cffi reads it: its ``#`` lines dropped."""
    return "".join(
        line
        for line in HEADER.read_text().splitlines(keepends=True)
        if not line.lstrip().startswith("#")
    )


def _declarations(name: str) -> str:
    """cffi's out-of-line module ``name`` (ABI mode) for the header, as
    source: the one place the declarations are parsed."""
    import cffi
    from cffi import recompiler

    builder = cffi.FFI()
    builder.cdef(_cdef())
    builder.set_source(name, None)
    text = io.StringIO()
    recompiler.make_py_source(builder, name, text)
    return text.getvalue()


def _write(path: Path, write) -> None:
    """``write(tmp)`` into a temporary file beside ``path``, renamed into
    place, so concurrent processes are safe."""
    path.parent.mkdir(exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        dir=path.parent, prefix=f"{path.stem}-", suffix=".tmp"
    )
    os.close(fd)
    try:
        write(tmp)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _load() -> Tuple[Any, Any]:
    """Build (when not cached) and load the library; raises
    :class:`NativeBuildError`."""
    planned = _command("gcc", _CACHE / "native-<key>.so")
    try:
        import _cffi_backend
    except ImportError as exc:
        raise _failure(f"cffi is not importable ({exc})", planned) from exc
    gcc = shutil.which("gcc")
    if gcc is None:
        raise _failure("gcc is not on PATH", planned)
    planned = _command(gcc, _CACHE / "native-<key>.so")
    try:
        version = subprocess.run(
            [gcc, "-dumpfullversion"], capture_output=True, check=True
        ).stdout
    except (OSError, subprocess.SubprocessError) as exc:
        reason = f"gcc -dumpfullversion failed ({exc})"
        raise _failure(reason, planned) from exc
    key = hashlib.sha256()
    for part in (
        *(path.read_bytes() for path in (HEADER, *SOURCES)),
        " ".join((gcc, *_FLAGS)).encode(),
        version,
        _cpu_flags().encode(),
        _cffi_backend.__version__.encode(),
    ):
        key.update(hashlib.sha256(part).digest())
    stem = f"native-{key.hexdigest()[:16]}"
    target = _CACHE / f"{stem}.so"
    command = _command(gcc, target)
    declarations = _CACHE / f"_{stem.replace('-', '_')}_ffi.py"
    try:
        if not target.exists():
            _write(
                target,
                lambda tmp: subprocess.run(
                    _command(gcc, Path(tmp)), capture_output=True, check=True
                ),
            )
        if not declarations.exists():
            source = _declarations(declarations.stem)
            _write(declarations, lambda tmp: Path(tmp).write_text(source))
    except ImportError as exc:
        raise _failure(f"cffi is not importable ({exc})", command) from exc
    except subprocess.CalledProcessError as exc:
        reason = f"gcc exited with status {exc.returncode}"
        raise _failure(reason, command, exc.stderr or b"") from exc
    except (OSError, subprocess.SubprocessError) as exc:
        reason = f"the cache cannot be written or gcc cannot run ({exc})"
        raise _failure(reason, command) from exc
    try:
        spec = importlib.util.spec_from_file_location(
            declarations.stem, declarations
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module.ffi, module.ffi.dlopen(str(target))
    except (OSError, ImportError, SyntaxError, AttributeError) as exc:
        raise _failure(f"the build did not load ({exc})", command) from exc


_handle: Optional[Tuple[Any, Any]] = None
_lock = threading.Lock()


def native() -> Tuple[Any, Any]:
    """The native library as ``(ffi, lib)``, built and loaded on first
    use and kept for the process; raises :class:`NativeBuildError`
    (and keeps nothing) when it cannot be built or loaded."""
    global _handle
    if _handle is None:
        with _lock:
            if _handle is None:
                _handle = _load()
    return _handle
