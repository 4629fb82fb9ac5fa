"""The package's one native library (``repro.util.native``).

* one compiler probe and one build per process, whose name hashes every
  source and the header in a fixed order, and declarations parsed once:
  later processes import cffi's out-of-line module from the cache;
* every entry ``native.h`` declares resolves on the loaded library;
* no silent fallback: without gcc, when the compile fails, when the
  cache cannot be written or without cffi, first use raises
  ``NativeBuildError`` naming the command and the cache, and nothing is
  kept, so the next call after the cause is gone loads;
* a package built from the tree ships every source and the header.
"""

import hashlib
import re
import shutil
import subprocess
import sys
from pathlib import Path
from unittest import mock

import _cffi_backend
import cffi
import pytest

from repro.util import native
from repro.util.native import NativeBuildError

ROOT = Path(__file__).resolve().parent.parent


def declared_entries():
    """The function names ``native.h`` declares."""
    code = re.sub(r"/\*.*?\*/", "", native._cdef(), flags=re.S)
    return re.findall(r"\b(\w+)\s*\(", code)


def library_name(gcc: str) -> str:
    """The name the build hashes: the header, then every source in
    ``SOURCES`` order, the command, ``gcc -dumpfullversion``, the CPU's
    flags line and cffi's version."""
    version = subprocess.run(
        [gcc, "-dumpfullversion"], capture_output=True, check=True
    ).stdout
    key = hashlib.sha256()
    for part in (
        *(path.read_bytes() for path in (native.HEADER, *native.SOURCES)),
        " ".join([gcc, *native._FLAGS]).encode(),
        version,
        native._cpu_flags().encode(),
        _cffi_backend.__version__.encode(),
    ):
        key.update(hashlib.sha256(part).digest())
    return f"native-{key.hexdigest()[:16]}.so"


@pytest.fixture
def fresh(monkeypatch):
    """``native()`` as at a process's first use (the loaded handle comes
    back after the test)."""
    native.native()
    monkeypatch.setattr(native, "_handle", None)
    return monkeypatch


def test_five_sources_one_header():
    package = ROOT / "src" / "repro"
    assert [p.relative_to(package).as_posix() for p in native.SOURCES] == [
        "smvp/nodal.c",
        "fem/assembly.c",
        "fem/timestep.c",
        "partition/cut.c",
        "mesh/stuffing.c",
    ]
    for source in native.SOURCES:
        assert '#include "../native.h"' in source.read_text()


def test_one_probe_one_build_declarations_parsed_once(fresh):
    runs = []
    run = native.subprocess.run

    def spy(command, *args, **kwargs):
        runs.append(command)
        return run(command, *args, **kwargs)

    def refused(self, *args, **kwargs):
        raise AssertionError("the declarations were parsed again")

    fresh.setattr(native.subprocess, "run", spy)
    fresh.setattr(cffi.FFI, "cdef", refused)
    ffi, lib = native.native()
    assert native.native() == (ffi, lib)
    # The cached build is found by its name: the one process-wide probe
    # runs and nothing compiles.
    assert len(runs) == 1 and "-dumpfullversion" in runs[0]
    name = library_name(shutil.which("gcc"))
    assert (native._CACHE / name).is_file()
    stem = name[: -len(".so")].replace("-", "_")
    assert (native._CACHE / f"_{stem}_ffi.py").is_file()


def test_every_declared_entry_resolves():
    names = declared_entries()
    assert len(names) == len(set(names)) == 28
    _, lib = native.native()
    assert sorted(dir(lib)) == sorted(names)
    assert all(callable(getattr(lib, name)) for name in names)


def assert_names_the_build(error, cache):
    text = str(error.value)
    assert "-march=native" in text and "stuffing.c" in text
    assert f"cache directory: {cache}" in text


def test_no_gcc_raises_and_is_not_kept(fresh):
    fresh.setattr(native.shutil, "which", lambda name: None)
    with pytest.raises(NativeBuildError, match="gcc is not on PATH") as error:
        native.native()
    assert_names_the_build(error, native._CACHE)
    assert native._handle is None
    fresh.undo()  # gcc is back; the handle too, so drop it again
    fresh.setattr(native, "_handle", None)
    ffi, lib = native.native()
    assert lib.cut_left_size(10, 3) > 0


def test_failed_compile_names_gcc_stderr(fresh, tmp_path):
    fresh.setattr(native, "_CACHE", tmp_path / "cache")
    run = native.subprocess.run

    def failing(command, *args, **kwargs):
        if "-shared" in command:
            raise subprocess.CalledProcessError(
                1, command, b"", b"nodal.c:1:1: error: expected nothing"
            )
        return run(command, *args, **kwargs)

    fresh.setattr(native.subprocess, "run", failing)
    with pytest.raises(NativeBuildError, match="status 1") as error:
        native.native()
    assert_names_the_build(error, tmp_path / "cache")
    assert "error: expected nothing" in str(error.value)
    assert native._handle is None
    assert list((tmp_path / "cache").iterdir()) == []  # no partial build


def test_unwritable_cache_raises_and_is_not_kept(fresh, tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    real = native._CACHE
    fresh.setattr(native, "_CACHE", blocker / "cache")
    with pytest.raises(NativeBuildError, match="cannot be written") as error:
        native.native()
    assert_names_the_build(error, blocker / "cache")
    assert native._handle is None
    fresh.setattr(native, "_CACHE", real)
    native.native()
    assert native._handle is not None


def test_no_cffi_raises(fresh):
    with mock.patch.dict(sys.modules, {"_cffi_backend": None}):
        with pytest.raises(NativeBuildError, match="cffi is not importable"):
            native.native()
    assert native._handle is None


def test_a_built_package_ships_every_source_and_the_header(tmp_path):
    """``setup.py build_py`` on a copy of the tree, as from a clean
    archive, copies every file the build compiles."""
    setuptools = pytest.importorskip("setuptools")
    if int(setuptools.__version__.split(".")[0]) < 61:
        pytest.skip("setuptools < 61 does not read pyproject.toml")
    for name in ("pyproject.toml", "setup.py", "README.md"):
        shutil.copy(ROOT / name, tmp_path / name)
    shutil.copytree(
        ROOT / "src",
        tmp_path / "src",
        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"),
    )
    subprocess.run(
        [sys.executable, "setup.py", "-q", "build_py", "--build-lib", "built"],
        cwd=tmp_path,
        capture_output=True,
        check=True,
    )
    package = ROOT / "src" / "repro"
    for path in (native.HEADER, *native.SOURCES):
        built = tmp_path / "built" / "repro" / path.relative_to(package)
        assert built.read_bytes() == path.read_bytes(), path.name
