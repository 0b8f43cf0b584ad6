"""Figure 3(b): response time vs server transaction rate.

Paper shape (Sec. 4.4): the x-axis is the inter-completion time (rate
*decreases* left to right); response time improves as the rate drops.
F-Matrix stays close to the ideal F-Matrix-No, beats R-Matrix, which
beats Datacycle; Datacycle is especially poor at high rates while
F-Matrix shows almost no degradation.
"""

from repro.experiments.figures import fig3b_server_txn_rate
from repro.experiments.report import format_table

INTERVALS = (50_000, 150_000, 250_000, 350_000, 450_000)


def test_fig3b_server_txn_rate(bench_txns, bench_seed):
    result = fig3b_server_txn_rate(bench_txns, intervals=INTERVALS, seed=bench_seed)
    print()
    print(format_table(result))

    fm = result.series["f-matrix"]
    rm = result.series["r-matrix"]
    dc = result.series["datacycle"]
    ideal = result.series["f-matrix-no"]

    hot, cold = INTERVALS[0], INTERVALS[-1]

    # response improves (or at worst holds) as the server slows down
    assert dc.response_at(cold) < dc.response_at(hot)
    assert rm.response_at(cold) < rm.response_at(hot)

    # ordering at the highest rate: Datacycle worst, F-Matrix best
    assert fm.response_at(hot) < rm.response_at(hot) < dc.response_at(hot)

    # F-Matrix barely degrades with rate; Datacycle degrades heavily
    degradation = lambda s: s.response_at(hot) / s.response_at(cold)
    assert degradation(fm) < degradation(dc)
    assert degradation(fm) < 2.0  # "almost no degradation"

    # F-Matrix hugs the ideal baseline across the sweep
    for interval in INTERVALS:
        assert fm.response_at(interval) < 2.0 * ideal.response_at(interval)
