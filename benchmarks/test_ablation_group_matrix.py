"""Ablation: the group-matrix spectrum between F-Matrix and the vector
protocols (Sec. 3.2.2's tunable partition size).

Expected shape: at a long client transaction length, coarse groups abort
like Datacycle (false conflicts) while fine groups approach F-Matrix's
abort behaviour — at the cost of more control bits per cycle.  The sweet
spot depends on the workload; the bench prints the whole trade-off curve.
"""

from repro.experiments.figures import ablation_group_matrix
from repro.experiments.report import format_table
from repro.sim.config import SimulationConfig

GROUPS = (1, 4, 16, 64)


def test_ablation_group_matrix(bench_txns, bench_seed):
    result = ablation_group_matrix(
        max(bench_txns // 2, 30), group_counts=GROUPS, seed=bench_seed
    )
    print()
    print(format_table(result))

    series = result.series["group-matrix"]

    # finer groups mean fewer false conflicts: restarts shrink
    # monotonically-ish from 1 group to 64 groups
    assert series.restart_at(64) < series.restart_at(1)

    # cycle length grows with group count (more control info per cycle)
    cycle = lambda g: SimulationConfig(
        protocol="group-matrix", num_groups=g
    ).cycle_bits
    assert cycle(1) < cycle(4) < cycle(16) < cycle(64)
