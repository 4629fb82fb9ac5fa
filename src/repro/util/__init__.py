"""Shared utilities with no scientific content.

:mod:`repro.util.clock` is the single audited wall-clock access point
enforced by ``repro-lint``; :func:`repro.util.cores.usable_cores` is
the one answer to "how many cores may this process use".
"""

from repro.util.clock import now, stopwatch

__all__ = ["now", "stopwatch"]
