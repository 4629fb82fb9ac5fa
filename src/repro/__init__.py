"""repro — reproduction of "Architectural Implications of a Family of
Irregular Applications" (O'Hallaron, Shewchuk, Gross; HPCA 1998).

The package builds the paper's whole stack from scratch:

* a synthetic San-Fernando-style basin ground model
  (:mod:`repro.velocity`) and a graded unstructured tetrahedral mesher
  (:mod:`repro.octree`, :mod:`repro.mesh`),
* linear-elasticity finite elements with explicit time stepping
  (:mod:`repro.fem`),
* the paper's recursive geometric (sphere-cut) mesh partitioner, with
  a random no-locality baseline (:mod:`repro.partition`),
* the parallel SMVP — distribution, communication schedule, kernels,
  and a verifiable distributed executor (:mod:`repro.smvp`),
* the application statistics of Figures 6-7 (:mod:`repro.stats`),
* the performance models of Equations (1)-(2) and the Section 4
  requirement analyses (:mod:`repro.model`),
* a BSP machine simulator validating the model (:mod:`repro.simulate`),
* self-healing execution — superstep supervisor, online PE eviction,
  and the chaos harness proving survivor equivalence
  (:mod:`repro.resilience`),
* end-to-end telemetry — metrics registry, Perfetto timelines, and
  model-vs-measured drift monitoring (:mod:`repro.telemetry`),
* and regeneration of every table and figure (:mod:`repro.tables`).

Quick start::

    from repro import get_instance, partition_mesh, smvp_statistics

    mesh, _ = get_instance("sf10e").build()
    stats = smvp_statistics(mesh, num_parts=64)
    print(stats)            # F, C_max, B_max, M_avg, F/C, beta

See ``examples/quickstart.py`` for the full tour.
"""

from repro.mesh import (
    TetMesh,
    generate_mesh,
    get_instance,
    instance_names,
    INSTANCES,
    QuakeInstance,
)
from repro.partition import Partition, partition_mesh, partition_metrics
from repro.pipeline import Problem
from repro.smvp import (
    CommSchedule,
    DataDistribution,
    DistributedSMVP,
    SuperstepTrace,
    TraceLog,
    backend_names,
    get_kernel,
)
from repro.stats import smvp_statistics, SmvpStats, beta_bound
from repro.model import (
    Machine,
    ModelInputs,
    CURRENT_100MFLOPS,
    FUTURE_200MFLOPS,
    CRAY_T3D,
    CRAY_T3E,
    required_tc,
    sustained_bandwidth_bytes,
    half_bandwidth_targets,
)
from repro.resilience import (
    KillSchedule,
    RecoveryPolicy,
    SuperstepSupervisor,
    run_chaos,
)
from repro.simulate import BspSimulator, validate_model
from repro.telemetry import (
    DriftMonitor,
    DriftReport,
    MetricsRegistry,
    get_registry,
    render_chrome_trace,
    render_prometheus,
    set_registry,
    use_registry,
    write_metrics,
)
from repro.velocity import BasinModel, default_san_fernando_like_model

__version__ = "1.0.0"

__all__ = [
    "TetMesh",
    "generate_mesh",
    "get_instance",
    "instance_names",
    "INSTANCES",
    "QuakeInstance",
    "Partition",
    "partition_mesh",
    "partition_metrics",
    "Problem",
    "CommSchedule",
    "DataDistribution",
    "DistributedSMVP",
    "SuperstepTrace",
    "TraceLog",
    "backend_names",
    "get_kernel",
    "smvp_statistics",
    "SmvpStats",
    "beta_bound",
    "Machine",
    "ModelInputs",
    "CURRENT_100MFLOPS",
    "FUTURE_200MFLOPS",
    "CRAY_T3D",
    "CRAY_T3E",
    "required_tc",
    "sustained_bandwidth_bytes",
    "half_bandwidth_targets",
    "BspSimulator",
    "validate_model",
    "KillSchedule",
    "RecoveryPolicy",
    "SuperstepSupervisor",
    "run_chaos",
    "DriftMonitor",
    "DriftReport",
    "MetricsRegistry",
    "get_registry",
    "render_chrome_trace",
    "render_prometheus",
    "set_registry",
    "use_registry",
    "write_metrics",
    "BasinModel",
    "default_san_fernando_like_model",
    "__version__",
]
