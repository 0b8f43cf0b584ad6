"""Ablation: sensitivity to the modelling substitutions (DESIGN.md §4).

The paper leaves the server completion-gap distribution, the first-read
think time and the wire timestamp width unspecified; we chose defaults.
This bench re-runs a representative configuration under each alternative
and asserts the response time moves little — the reproduction's
conclusions do not hinge on our choices.  (Modulo timestamps are *exactly*
equivalent by construction; the distributional switches jitter within a
few percent.)
"""

from repro.experiments.sensitivity import VARIANTS, sensitivity_table
from repro.sim.config import SimulationConfig


def test_ablation_sensitivity(bench_txns, bench_seed):
    config = SimulationConfig(
        num_client_transactions=max(bench_txns // 2, 40),
        client_txn_length=6,
        seed=bench_seed,
    )

    rows = sensitivity_table(config, replications=3)
    print()
    print("== modelling-substitution sensitivity (response time) ==")
    print(f"{'variant':>22} | {'baseline':>10} | {'variant':>10} | {'dev':>7}")
    for row in rows:
        print(
            f"{row.variant:>22} | {row.baseline_mean / 1e6:>10.3f} | "
            f"{row.variant_mean / 1e6:>10.3f} | {row.relative_deviation:>+6.1%}"
        )

    by_name = {row.variant: row for row in rows}
    # modulo timestamps are decision-identical: zero deviation
    assert by_name["modulo-timestamps"].relative_deviation == 0.0
    # the distributional knobs stay within a modest band
    assert abs(by_name["deterministic-gaps"].relative_deviation) < 0.25
    assert abs(by_name["delay-first-op"].relative_deviation) < 0.25
    assert len(rows) == len(VARIANTS)
