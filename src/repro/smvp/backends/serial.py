"""The serial backend: the historical in-process loop, bit for bit."""

from __future__ import annotations

from repro.smvp.backends.base import ExecutionBackend


class SerialBackend(ExecutionBackend):
    """Per-PE calls one after another in the calling thread."""

    name = "serial"

    def map(self, fn, *columns):
        return [fn(*row) for row in zip(*columns)]


class OverlapBackend(SerialBackend):
    """The serial runner, marked for the overlapped schedule.

    The paper's footnote-1 modification (and the "vector mode +
    overlap" hybrid of Schubert et al.) is a *schedule* of the same
    superstep, not another way to run a list of calls: the executor
    reads ``supports_overlap`` and, when nothing attached needs each
    PE's full pre-exchange partial, maps the boundary rows, starts the
    exchange, and maps the interior rows while it is in flight (see
    :class:`~repro.smvp.executor.DistributedSMVP`).
    """

    name = "overlap"
    supports_overlap = True
