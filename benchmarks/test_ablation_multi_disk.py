"""Ablation: multi-speed broadcast disks under skewed client access.

The paper analyses single-speed disks ("we consider only single speed
disks") but builds on the broadcast-disk framework, where hot data can be
broadcast more often.  The library implements the hot/cold two-speed
layout; this bench measures the wait-time effect: with strongly skewed
client access, spinning the hot disk faster cuts response time relative
to the flat layout, and the protocol guarantees are untouched (the
control snapshot is per *major* cycle).
"""

from repro.sim.config import SimulationConfig
from repro.sim.simulation import run_simulation


def test_ablation_multi_disk(bench_txns, bench_seed):
    base = SimulationConfig(
        num_objects=120,
        num_client_transactions=max(bench_txns // 2, 40),
        client_txn_length=4,
        server_txn_interval=2_000_000.0,   # quiet server: isolate wait time
        client_access_skew=0.9,
        hot_fraction=0.1,
        seed=bench_seed,
    )

    rows = [("flat", run_simulation(base))]
    for freq in (2, 4, 8):
        cfg = base.replace(layout_kind="multi-disk", hot_frequency=freq)
        rows.append((f"multi x{freq}", run_simulation(cfg)))
    print()
    print("== hot/cold broadcast disks, 90% of reads on 10% of objects ==")
    print(f"{'layout':>10} | {'cycle bits':>11} | {'resp (x1e6)':>12} | {'restarts':>9}")
    for name, result in rows:
        print(
            f"{name:>10} | {result.config.layout().cycle_bits:>11d} | "
            f"{result.response_time.mean / 1e6:>12.3f} | "
            f"{result.restart_ratio.mean:>9.2f}"
        )

    flat = rows[0][1]
    best = min(result.response_time.mean for _name, result in rows[1:])
    # some hot frequency beats the flat layout under this skew
    assert best < flat.response_time.mean
