"""The builder of the package's compiled loops (``repro.util.native``).

* the compiler and the CPU are probed once per process, for every
  source, and the library names hash what they always hashed;
* each library's C declarations are parsed once: later processes import
  cffi's out-of-line module for them from ``__pycache__``, and where
  that cannot be written the declarations are parsed in the process.
"""

import hashlib
import shutil
from pathlib import Path

import pytest

from repro.util import native

try:
    import cffi
except ImportError:
    cffi = None

pytestmark = pytest.mark.skipif(
    cffi is None or shutil.which("gcc") is None,
    reason="cffi or gcc is unavailable here",
)

SRC = Path(native.__file__).resolve().parent.parent
SOURCES = [
    SRC / "smvp" / "nodal.c",
    SRC / "fem" / "assembly.c",
    SRC / "fem" / "timestep.c",
    SRC / "partition" / "cut.c",
    SRC / "mesh" / "stuffing.c",
]


def library_name(source: Path, version: bytes, cpu_flags: str) -> str:
    """The file name the build has always used: the stem, then 16 hex
    digits of a hash over the source, the command, ``gcc
    -dumpfullversion`` and the CPU's flags line."""
    command = " ".join([shutil.which("gcc"), *native._FLAGS])
    key = hashlib.sha256()
    for part in (source.read_bytes(), command.encode(), version,
                 cpu_flags.encode()):
        key.update(hashlib.sha256(part).digest())
    return f"{source.stem}-{key.hexdigest()[:16]}.so"


def test_one_probe_for_every_source(monkeypatch):
    native._toolchain.cache_clear()
    probes, reads = [], []
    run, flags = native.subprocess.run, native._cpu_flags

    def spy_run(command, *args, **kwargs):
        if "-dumpfullversion" in command:
            probes.append(command)
        return run(command, *args, **kwargs)

    def spy_flags():
        reads.append(1)
        return flags()

    monkeypatch.setattr(native.subprocess, "run", spy_run)
    monkeypatch.setattr(native, "_cpu_flags", spy_flags)
    try:
        names = [native._build(source).name for source in SOURCES]
    finally:
        native._toolchain.cache_clear()
    assert len(probes) == 1 and len(reads) == 1
    _, version, cpu_flags = native._toolchain()
    assert names == [
        library_name(source, version, cpu_flags) for source in SOURCES
    ]


CDEF = "typedef struct { int64_t lo, hi; } span; int64_t twice(int64_t x);"


def test_declarations_are_parsed_once(tmp_path, monkeypatch):
    source = tmp_path / "probe.c"
    source.write_text("")
    first = native._declarations(source, CDEF, cffi)
    written = list((tmp_path / "__pycache__").glob("_probe_ffi_*.py"))
    assert len(written) == 1

    def refused(self, *args, **kwargs):
        raise AssertionError("the declarations were parsed again")

    monkeypatch.setattr(cffi.FFI, "cdef", refused)
    again = native._declarations(source, CDEF, cffi)
    for ffi in (first, again):
        assert ffi.sizeof("span") == 16
        assert ffi.new("span[2]")[1].hi == 0


def test_unwritable_cache_parses_in_process(tmp_path, monkeypatch):
    source = tmp_path / "probe.c"
    source.write_text("")

    def no_space(*args, **kwargs):
        raise OSError("no space left on device")

    monkeypatch.setattr(native.tempfile, "mkstemp", no_space)
    ffi = native._declarations(source, CDEF, cffi)
    assert ffi.sizeof("span") == 16
    assert not list((tmp_path / "__pycache__").glob("_probe_ffi_*.py"))
