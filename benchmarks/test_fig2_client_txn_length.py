"""Figure 2(a)/(b): response time and restarts vs client transaction length.

Paper shape (Sec. 4.2):

* all four algorithms comparable up to length ~4;
* beyond 6, Datacycle deteriorates sharply (its length-10 point left the
  paper's y-axis and is skipped here the same way);
* at length 8, F-Matrix's response time is a small fraction of
  R-Matrix's (≈12% in the paper) and its curve is nearly flat;
* restart counts correlate with response times, F-Matrix's being ~zero.
"""

from repro.experiments.figures import fig2_client_txn_length
from repro.experiments.report import format_table

LENGTHS = (2, 4, 6, 8, 10)


def test_fig2_client_txn_length(bench_txns, bench_seed):
    result = fig2_client_txn_length(bench_txns, lengths=LENGTHS, seed=bench_seed)
    print()
    print(format_table(result))

    fm = result.series["f-matrix"]
    rm = result.series["r-matrix"]
    dc = result.series["datacycle"]
    ideal = result.series["f-matrix-no"]

    # beyond length 6 Datacycle deteriorates sharply
    assert dc.response_at(8) > 2.0 * rm.response_at(8)
    assert dc.restart_at(8) > rm.restart_at(8)

    # F-Matrix beats R-Matrix decisively at length 8 (paper: ~12%)
    assert fm.response_at(8) < 0.8 * rm.response_at(8)
    assert fm.restart_at(8) < rm.restart_at(8)

    # F-Matrix scales: its growth from length 2 to 8 is the smallest of
    # the three realizable protocols
    growth = lambda s: s.response_at(8) / s.response_at(2)
    assert growth(fm) < growth(rm) < growth(dc)

    # F-Matrix tracks the ideal baseline within a small factor at len 8
    assert fm.response_at(8) < 2.0 * ideal.response_at(8)

    # restart/response correlation (Fig. 2a vs 2b): protocol order is the
    # same under both metrics at length 8
    by_response = sorted(("f-matrix", "r-matrix", "datacycle"),
                         key=lambda p: result.series[p].response_at(8))
    by_restarts = sorted(("f-matrix", "r-matrix", "datacycle"),
                         key=lambda p: result.series[p].restart_at(8))
    assert by_response == by_restarts
