"""Figure 4(b): response time vs object size.

Paper shape (Sec. 4.6): bigger objects stretch the broadcast cycle, so
response times rise for every protocol; F-Matrix scales better than
R-Matrix and Datacycle, and — because the *relative* control-information
overhead shrinks with object size — F-Matrix and the ideal F-Matrix-No
approach each other as objects grow.
"""

from repro.experiments.figures import fig4b_object_size
from repro.experiments.report import format_table

SIZES_KB = (0.5, 1.0, 2.0, 4.0)


def test_fig4b_object_size(bench_txns, bench_seed):
    result = fig4b_object_size(bench_txns, sizes_kb=SIZES_KB, seed=bench_seed)
    print()
    print(format_table(result))

    fm = result.series["f-matrix"]
    rm = result.series["r-matrix"]
    dc = result.series["datacycle"]
    ideal = result.series["f-matrix-no"]

    # response time grows with object size for every protocol
    for series in (fm, rm, dc, ideal):
        assert series.response_at(4.0) > series.response_at(0.5)

    # ordering at the largest size: F-Matrix best realizable
    assert fm.response_at(4.0) < rm.response_at(4.0)
    assert fm.response_at(4.0) < dc.response_at(4.0)

    # the F-Matrix / F-Matrix-No gap narrows as objects grow
    gap = lambda kb: fm.response_at(kb) / ideal.response_at(kb)
    assert gap(4.0) < gap(0.5)
    assert gap(4.0) < 1.25  # nearly indistinguishable at 4 KB
