"""Ablation: tuning time (battery) per committed transaction.

The paper's case for broadcast validation is partly about client
*battery*: reception is cheap, transmission expensive, and listening
time matters (Secs. 2.1, 3.2.1's delta discussion).  The simulator
charges each off-air read its slot's bit-time, giving a tuning-time
metric the paper argues about only qualitatively:

* F-Matrix slots are ~23% longer (the column rides along), **but** its
  fewer restarts mean fewer re-reads — at longer client transactions it
  ends up *listening less per commit* than R-Matrix/Datacycle;
* quasi-caching slashes tuning time outright (hits cost nothing).
"""

from repro.sim.config import SimulationConfig
from repro.sim.simulation import run_simulation


def test_ablation_tuning_time(bench_txns, bench_seed):
    base = SimulationConfig(
        num_client_transactions=max(bench_txns // 2, 40),
        client_txn_length=8,
        seed=bench_seed,
    )

    rows = []
    for protocol in ("datacycle", "r-matrix", "f-matrix"):
        result = run_simulation(base.replace(protocol=protocol))
        rows.append((protocol, result))
    cached = run_simulation(
        base.replace(
            protocol="f-matrix",
            server_txn_interval=2_000_000.0,
            cache_currency_bound=float(base.cycle_bits) * 8,
        )
    )
    rows.append(("f-matrix+cache", cached))
    print()
    print("== tuning time (bits listened per committed transaction) ==")
    print(f"{'protocol':>16} | {'listen/commit':>13} | {'restarts':>8} | {'slot bits':>9}")
    listening = {}
    for name, result in rows:
        per_commit = result.metrics.mean_listening_per_commit()
        listening[name] = per_commit
        print(
            f"{name:>16} | {per_commit:>13.0f} | "
            f"{result.restart_ratio.mean:>8.2f} | "
            f"{result.config.layout().slot_bits:>9d}"
        )

    # at client length 8, F-Matrix's restart advantage beats its longer
    # slots: less total listening than both vector protocols
    assert listening["f-matrix"] < listening["r-matrix"]
    assert listening["f-matrix"] < listening["datacycle"]
    # caching reduces listening further (hits are free)
    assert listening["f-matrix+cache"] < listening["f-matrix"]
