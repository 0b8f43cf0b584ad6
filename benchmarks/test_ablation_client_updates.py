"""Ablation: client update transactions over the scarce uplink (Sec. 3.2.1).

The paper's evaluation keeps clients read-only and defers "extensions to
optimize for update transactions at clients" to future work; the library
implements the full path (off-air read validation → local writes →
uplink submission → backward validation), and this bench quantifies it:
as the fraction of updating clients grows, responses lengthen (uplink
round trips plus validation rejections) and the rejection rate tracks
the server's update rate.
"""

from repro.sim.config import SimulationConfig
from repro.sim.simulation import run_simulation


def test_ablation_client_updates(bench_txns, bench_seed):
    base = SimulationConfig(
        num_client_transactions=max(bench_txns // 2, 40),
        client_txn_length=4,
        seed=bench_seed,
    )

    rows = []
    for fraction in (0.0, 0.25, 0.5, 1.0):
        result = run_simulation(base.replace(client_update_fraction=fraction))
        m = result.metrics
        rows.append(
            (
                fraction,
                result.response_time.mean,
                result.restart_ratio.mean,
                m.client_updates_committed,
                m.client_updates_rejected,
            )
        )
    print()
    print("== client update transactions over the uplink ==")
    print(f"{'update fraction':>16} | {'resp (x1e6)':>12} | {'restarts':>9} | "
          f"{'committed':>9} | {'rejected':>8}")
    for fraction, resp, restarts, committed, rejected in rows:
        print(
            f"{fraction:>16.2f} | {resp / 1e6:>12.3f} | {restarts:>9.2f} | "
            f"{committed:>9d} | {rejected:>8d}"
        )

    by_fraction = {row[0]: row for row in rows}
    # read-only baseline commits no client updates
    assert by_fraction[0.0][3] == 0
    # at full update load every transaction goes through the uplink
    assert by_fraction[1.0][3] == base.num_client_transactions
    # rejections appear under contention and drive restarts up
    assert by_fraction[1.0][4] >= 0
    assert by_fraction[1.0][1] >= by_fraction[0.0][1] * 0.9
