"""Scaling study: how the communication character evolves with problem
size and PE count.

Reproduces the paper's Section 4.1 observations on live meshes:

* F/C_max rises with problem size but only like n^(1/3) — you cannot
  outgrow the network by just running bigger problems;
* average message size M_avg stays small even as meshes grow;
* each PE talks to a couple dozen neighbors at most, between
  nearest-neighbor grids and all-to-all FFTs.

Run:  python examples/scaling_study.py
(REPRO_LARGE=1 includes the 380k-node sf2e instance.)
"""

from repro import get_instance, instance_names, smvp_statistics
from repro.mesh.instances import INSTANCES
from repro.tables.render import Table


def main() -> None:
    instances = [
        INSTANCES[name]
        for name in instance_names(enabled_only=True)
        if name != "demo"
    ]
    pe_counts = (4, 16, 64, 128)

    table = Table(
        title="Scaling of the SMVP communication character",
        headers=["instance", "nodes", "p", "F/C_max", "M_avg (words)",
                 "max neighbors", "beta"],
    )
    ratio_by_instance = {}
    for inst in instances:
        mesh, _ = inst.build()
        for p in pe_counts:
            stats = smvp_statistics(mesh, num_parts=p)
            if p == 64:
                ratio_by_instance[inst.name] = stats.f_over_c
            table.add_row(
                inst.name,
                mesh.num_nodes,
                p,
                round(stats.f_over_c, 1),
                round(stats.m_avg),
                stats.b_max // 2,
                round(stats.beta, 2),
            )
    print(table)

    names = [inst.name for inst in instances]
    if len(names) >= 2:
        first, last = names[0], names[-1]
        n_ratio = (
            INSTANCES[last].build()[0].num_nodes
            / INSTANCES[first].build()[0].num_nodes
        )
        r_ratio = ratio_by_instance[last] / ratio_by_instance[first]
        print(
            f"\n{last} has {n_ratio:.0f}x the nodes of {first}, but only "
            f"{r_ratio:.1f}x the computation/communication ratio at p=64 — "
            f"the paper's n^(1/3) law (predicted {n_ratio ** (1 / 3):.1f}x)."
        )


if __name__ == "__main__":
    main()
