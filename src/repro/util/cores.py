"""How many cores this process may run on: the one answer for every
part of the package that sizes a pool of workers."""

from __future__ import annotations

import os


def usable_cores() -> int:
    """The cores this process may use: its CPU affinity set (which
    honours ``taskset`` and cpusets), or ``os.cpu_count()`` where the
    platform has no affinity call; at least 1."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):
        return os.cpu_count() or 1
