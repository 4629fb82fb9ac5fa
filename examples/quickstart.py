"""Quickstart: the full pipeline in one page.

Builds a Quake-style mesh, partitions it, runs the distributed SMVP,
verifies it against the sequential product, and asks the paper's
question: what does this application demand from the network?

Run:  python examples/quickstart.py
"""

from repro import (
    CURRENT_100MFLOPS,
    FUTURE_200MFLOPS,
    DistributedSMVP,
    ModelInputs,
    get_instance,
    half_bandwidth_targets,
    partition_mesh,
    smvp_statistics,
    sustained_bandwidth_bytes,
)
from repro.fem import assemble_stiffness, materials_from_model


def main() -> None:
    # 1. Build the synthetic San Fernando instance for 10-second waves.
    instance = get_instance("sf10e")
    mesh, report = instance.build()
    print(f"mesh: {mesh}")
    if report is not None:
        print(
            f"  built in {report.seconds_total:.1f}s "
            f"(octree stuffing: {report.octree_leaves} leaves)"
        )

    # 2. Partition the elements across 64 PEs (paper Section 2.2).
    partition = partition_mesh(mesh, 64)
    print(f"partition: {partition.num_parts} PEs, imbalance "
          f"{partition.imbalance():.3f}")

    # 3. Execute the distributed SMVP and verify it bit-for-bit-ish
    #    against the sequential sparse product (paper Section 2.3).
    #    Backends are swappable: "serial" (the reference) or "threaded"
    #    (per-PE products on a thread pool) — bit-identical, pick with
    #    backend=.
    materials = materials_from_model(mesh, instance.model())
    stiffness = assemble_stiffness(mesh, materials)
    with DistributedSMVP(
        mesh, partition, materials, backend="threaded"
    ) as smvp:
        error = smvp.verify_against_global(stiffness)
        print(
            f"distributed SMVP ({smvp.backend_name} backend) max relative "
            f"error vs sequential: {error:.2e}"
        )

    # 4. The application statistics of the paper's Figure 7.
    stats = smvp_statistics(mesh, partition=partition)
    print(f"stats: {stats}")

    # 5. What must the network sustain? (Equation 1 / Figure 9.)
    inputs = ModelInputs.from_stats(stats, label="sf10e/64")
    for machine in (CURRENT_100MFLOPS, FUTURE_200MFLOPS):
        bw = sustained_bandwidth_bytes(inputs, 0.9, machine)
        print(
            f"  {machine.name}: needs {bw / 1e6:.0f} MB/s sustained per PE "
            "for 90% efficiency"
        )

    # 6. And the balanced latency/bandwidth design point (Figure 11).
    target = half_bandwidth_targets(inputs, 0.9, FUTURE_200MFLOPS)
    print(
        f"  half-bandwidth target: {target.burst_bandwidth_bytes / 1e6:.0f} "
        f"MB/s burst with {target.half_tl * 1e6:.1f} us block latency"
    )


if __name__ == "__main__":
    main()
