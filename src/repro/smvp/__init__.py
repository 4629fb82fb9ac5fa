"""The parallel sparse matrix-vector product (SMVP).

This subpackage implements the paper's Section 2.3: the data
distribution induced by an element partition, the pairwise
exchange-and-sum communication schedule for shared nodes, the local
SMVP kernels, and a distributed executor that runs the whole global
SMVP ``y = K x`` the way ``p`` PEs would — verifiably equal to the
sequential product.

* :mod:`~repro.smvp.distribution` — node/element residency: which nodes
  live on which PEs, with replicated storage for shared nodes.
* :mod:`~repro.smvp.schedule` — the communication schedule: one message
  per ordered neighbor pair carrying 3 words (x/y/z displacement) per
  shared node; per-PE word and block counts (the C_i and B_i of the
  paper's model).
* :mod:`~repro.smvp.kernels` — the local SMVP kernel, ``csr``, behind
  the prepare/product :class:`~repro.smvp.kernels.Kernel` protocol, and
  T_f measurement.
* :mod:`~repro.smvp.backends` — where the compute phase's per-PE
  products run: ``serial`` or ``threaded`` (``overlap``: ``serial``
  under an older name).
* :mod:`~repro.smvp.layout` — the flat index maps (scatter rows, the
  compiled exchange plan, gather maps) every phase runs on, and the
  construction checks that make them race-free.
* :mod:`~repro.smvp.exchange` — the exchange-and-sum as one compiled
  plan; fault middleware, wire spans and the ABFT guard read its
  messages as segments.
* :mod:`~repro.smvp.trace` — per-superstep instrumentation records,
  trace sinks, and the phase clock that builds them.
* :mod:`~repro.smvp.abft` — algorithm-based fault tolerance: checksum
  rows that verify every PE's product and exchange in O(n_i), catching
  the silent memory/compute corruption the wire CRCs never see; the
  guard that injects, checks, heals and escalates as an observer.
* :mod:`~repro.smvp.executor` — the two-phase bulk-synchronous
  distributed SMVP: one superstep pipeline tying the layers together.
* :mod:`~repro.smvp.spark98` — a Spark98-style named kernel suite.
"""

from repro.smvp.distribution import DataDistribution
from repro.smvp.schedule import CommSchedule, Message
from repro.smvp.kernels import (
    Kernel,
    get_kernel,
    measure_tf,
)
from repro.smvp.backends import (
    BACKENDS,
    ExecutionBackend,
    backend_names,
    make_backend,
)
from repro.smvp.exchange import ExchangeRecord
from repro.smvp.trace import PhaseBreakdown, SuperstepTrace, TraceLog
from repro.smvp.abft import (
    AbftCheck,
    AbftChecker,
    SdcEvent,
    verify_flops_per_pe,
)
from repro.smvp.executor import DistributedSMVP

__all__ = [
    "DataDistribution",
    "CommSchedule",
    "Message",
    "Kernel",
    "get_kernel",
    "measure_tf",
    "BACKENDS",
    "ExecutionBackend",
    "backend_names",
    "make_backend",
    "ExchangeRecord",
    "PhaseBreakdown",
    "SuperstepTrace",
    "TraceLog",
    "AbftCheck",
    "AbftChecker",
    "SdcEvent",
    "verify_flops_per_pe",
    "DistributedSMVP",
]
