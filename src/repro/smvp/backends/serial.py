"""The serial backend: the historical in-process loop, bit for bit."""

from __future__ import annotations

from repro.smvp.backends.base import ExecutionBackend


class SerialBackend(ExecutionBackend):
    """Per-PE calls one after another in the calling thread."""

    name = "serial"

    def map(self, fn, *columns):
        return [fn(*row) for row in zip(*columns)]


class OverlapBackend(SerialBackend):
    """``serial`` under the name ``overlap``: the flat schedule, bit
    for bit.

    The name outlives the overlapped schedule it once selected only
    because the benchmark's block workload still builds
    ``backend="overlap"``.  ROADMAP item 1(d) retargets that workload
    to ``serial`` and deletes this class.
    """

    name = "overlap"
