"""Ablation: quasi-caching under weak currency bounds (Sec. 3.3).

The paper proposes the mechanism but defers its evaluation to future
work; this bench quantifies it.  Expected shape at a moderate server
update rate: cache hits eliminate broadcast-slot waits, so response time
falls as the currency bound T grows — until staleness aborts start to
claw the benefit back.  Consistency is never given up (the sim-level
trace cross-check in the test suite covers cached reads).
"""

from repro.experiments.figures import ablation_caching
from repro.experiments.report import format_table

BOUNDS = (0.0, 1.0, 4.0, 16.0)


def test_ablation_caching(bench_txns, bench_seed):
    result = ablation_caching(
        max(bench_txns // 2, 30),
        currency_bounds_cycles=BOUNDS,
        seed=bench_seed,
    )
    print()
    print(format_table(result))

    series = result.series["f-matrix"]

    # at the configured (moderate) update rate a generous currency bound
    # buys a real response-time improvement over no caching
    assert series.response_at(16.0) < series.response_at(0.0)
