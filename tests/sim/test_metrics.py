"""Tests for metrics and confidence intervals (repro.sim.metrics)."""

import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import SimulationConfig
from repro.sim import metrics as metrics_mod
from repro.sim.metrics import (
    MetricsCollector,
    TransactionSample,
    _t_quantile_975,
    summarize,
)


class TestSummarize:
    def test_mean_and_stddev(self):
        stat = summarize([1.0, 2.0, 3.0])
        assert stat.mean == pytest.approx(2.0)
        assert stat.stddev == pytest.approx(1.0)
        assert stat.count == 3

    def test_single_sample(self):
        stat = summarize([7.0])
        assert stat.mean == 7.0 and stat.ci_halfwidth == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_ci_contains_mean_band(self):
        stat = summarize([10.0, 12.0, 8.0, 11.0, 9.0])
        low, high = stat.ci
        assert low < stat.mean < high

    def test_ci_relative_width(self):
        stat = summarize([100.0] * 50)
        assert stat.ci_relative_width == 0.0
        stat2 = summarize([0.0, 0.0])
        assert stat2.ci_relative_width == 0.0  # zero-mean guard

    def test_ci_uses_t_distribution(self, monkeypatch):
        # t quantile for small dof exceeds the normal 1.96 — whatever is
        # installed: an unimportable scipy must not change the interval
        monkeypatch.setitem(sys.modules, "scipy", None)
        stat = summarize([1.0, 2.0, 3.0])
        se = stat.stddev / (3 ** 0.5)
        assert stat.ci_halfwidth > 1.96 * se
        assert stat.ci_halfwidth == pytest.approx(4.3026527297494639 * se, rel=1e-12)

    @pytest.mark.parametrize(
        "dof,quantile",
        [
            (1, 12.706204736174705),
            (2, 4.3026527297494639),
            (5, 2.5705818356363155),
            (30, 2.0422724563012383),
            (249, 1.9695368676403509),
            (499, 1.9647293909876891),
            (10**6, 1.959966356814107),
        ],
    )
    def test_t_quantile_matches_the_table(self, dof, quantile):
        """Literal 97.5% quantiles (40-digit arithmetic, rounded to 17)."""
        assert _t_quantile_975(dof) == pytest.approx(quantile, rel=1e-9)

    def test_t_quantile_matches_scipy(self):
        stats = pytest.importorskip("scipy.stats")
        for dof in range(1, 2001):
            assert _t_quantile_975(dof) == pytest.approx(
                float(stats.t.ppf(0.975, dof)), rel=1e-11
            ), dof


class TestMetricsCollector:
    def _fill(self, collector, n=10):
        for k in range(n):
            collector.record_commit(f"t{k}", k * 100.0, k * 100.0 + 50 + k, restarts=k % 3)

    def test_steady_state_trims_prefix(self):
        m = MetricsCollector()
        self._fill(m, 10)
        window = m.steady_state(0.5)
        assert len(window) == 5
        assert window[0].tid == "t5"

    def test_full_window(self):
        m = MetricsCollector()
        self._fill(m, 4)
        assert len(m.steady_state(1.0)) == 4

    def test_invalid_fraction(self):
        m = MetricsCollector()
        with pytest.raises(ValueError):
            m.steady_state(0.0)

    def test_response_time_summary(self):
        m = MetricsCollector()
        m.record_commit("a", 0.0, 100.0, 0)
        m.record_commit("b", 50.0, 250.0, 1)
        stat = m.response_time(1.0)
        assert stat.mean == pytest.approx(150.0)

    def test_restart_ratio_summary(self):
        m = MetricsCollector()
        m.record_commit("a", 0, 1, 2)
        m.record_commit("b", 0, 1, 4)
        assert m.restart_ratio(1.0).mean == pytest.approx(3.0)

    def test_sample_response_time(self):
        m = MetricsCollector()
        m.record_commit("a", 10.0, 35.0, 0)
        assert m.samples[0].response_time == 25.0

    def test_accumulators_grow_past_initial_capacity(self):
        # append-only columns: nothing special happens at any size
        m = MetricsCollector()
        n = 515
        self._fill(m, n)
        samples = m.samples
        assert len(samples) == n
        assert samples[-1].tid == f"t{n - 1}"
        assert samples[-1].submit_time == (n - 1) * 100.0
        assert samples[-1].restarts == (n - 1) % 3

    def test_samples_cache_reused_and_refreshed(self):
        """There is no cache to go stale: every access builds the list
        from the columns, so a held list is a snapshot."""
        m = MetricsCollector()
        self._fill(m, 3)
        first = m.samples
        assert m.samples == first and m.samples is not first
        m.record_commit("late", 0.0, 1.0, 0)
        refreshed = m.samples
        assert len(first) == 3
        assert len(refreshed) == 4 and refreshed[-1].tid == "late"

    def test_samples_preserve_recording_order(self):
        m = MetricsCollector()
        m.record_commit("z", 0.0, 50.0, 0)
        m.record_commit("a", 0.0, 10.0, 1)
        assert [s.tid for s in m.samples] == ["z", "a"]

    def test_steady_state_breaks_commit_ties_by_tid(self):
        """Same-instant commits order by tid, not by recording order."""
        m1, m2 = MetricsCollector(), MetricsCollector()
        commits = [("b", 0.0, 100.0, 0), ("a", 0.0, 100.0, 1), ("c", 0.0, 99.0, 2)]
        for c in commits:
            m1.record_commit(*c)
        for c in reversed(commits):
            m2.record_commit(*c)
        order1 = [s.tid for s in m1.steady_state(1.0)]
        order2 = [s.tid for s in m2.steady_state(1.0)]
        assert order1 == order2 == ["c", "a", "b"]

    def test_restarts_materialise_as_python_ints(self):
        m = MetricsCollector()
        m.record_commit("a", 0.0, 1.0, 5)
        assert type(m.samples[0].restarts) is int
        assert type(m.samples[0].commit_time) is float

    def test_commit_count_without_materialising_samples(self, monkeypatch):
        """Counting, the statistics and the public column accessors read
        the columns: no sample object is ever built for them."""

        def refuse(*_args):
            raise AssertionError("a TransactionSample was built")

        m = MetricsCollector()
        self._fill(m, 7)
        monkeypatch.setattr(metrics_mod, "TransactionSample", refuse)
        assert m.commit_count == 7
        assert m.response_time(1.0).count == 7
        assert m.restart_ratio(0.5).count == 4
        assert m.response_times().tolist() == [50.0 + k for k in range(7)]
        assert m.restart_counts().tolist() == [0, 1, 2, 0, 1, 2, 0]
        with pytest.raises(AssertionError, match="was built"):
            m.samples

    def test_keep_samples_off_refuses_sample_objects(self):
        """The knob is gone, with no shim: ``keep_samples=False`` is itself
        what is refused — the constructor argument is a TypeError and a
        recorded config naming the field is an unknown-field error."""
        with pytest.raises(TypeError):
            MetricsCollector(keep_samples=False)
        document = SimulationConfig().to_dict()
        assert "keep_samples" not in document
        with pytest.raises(ValueError, match="keep_samples"):
            SimulationConfig.from_dict({**document, "keep_samples": False})

    def test_summary_paths_agree_with_sample_objects(self):
        """Array statistics ≡ the object path, including tid tie-breaks."""
        m = MetricsCollector()
        m.record_commit("b", 0.0, 100.0, 0)
        m.record_commit("a", 0.0, 100.0, 4)
        m.record_commit("c", 5.0, 90.0, 2)
        window = m.steady_state(0.5)
        stat = m.response_time(0.5)
        assert stat.count == len(window)
        assert stat.mean == pytest.approx(
            sum(s.response_time for s in window) / len(window)
        )
        assert m.restart_ratio(0.5).mean == pytest.approx(
            sum(s.restarts for s in window) / len(window)
        )


class TestMergeFrom:
    def _filled(self, tids, counter_bump=0):
        m = MetricsCollector()
        for k, tid in enumerate(tids):
            m.record_commit(tid, k * 10.0, k * 10.0 + 5.0, k)
        m.reads_delivered = counter_bump
        m.listening_bits = float(counter_bump)
        return m

    def test_counters_sum_and_samples_append(self):
        a = self._filled(["a0", "a1"], counter_bump=3)
        b = self._filled(["b0", "b1", "b2"], counter_bump=4)
        a.merge_from(b)
        assert a.commit_count == 5
        assert a.reads_delivered == 7
        assert a.listening_bits == 7.0
        assert [s.tid for s in a.samples] == ["a0", "a1", "b0", "b1", "b2"]
        # the donor is untouched
        assert b.commit_count == 3 and b.reads_delivered == 4

    def test_merge_grows_capacity(self):
        a = self._filled([f"a{k}" for k in range(5)])
        big = MetricsCollector()
        n = 263
        for k in range(n):
            big.record_commit(f"b{k}", float(k), float(k) + 1.0, 0)
        a.merge_from(big)
        assert a.commit_count == 5 + n
        assert a.samples[-1].tid == f"b{n - 1}"
        assert a.samples[-1].submit_time == float(n - 1)

    def test_merge_order_does_not_affect_statistics(self):
        parts = [
            self._filled(["a", "b"]),
            self._filled(["c"]),
            self._filled(["d", "e", "f"]),
        ]
        forward = MetricsCollector()
        for p in parts:
            forward.merge_from(p)
        backward = MetricsCollector()
        for p in reversed(parts):
            backward.merge_from(p)
        assert (
            forward.response_time(1.0).mean == backward.response_time(1.0).mean
        )
        assert sorted(s.tid for s in forward.samples) == sorted(
            s.tid for s in backward.samples
        )

    def test_merge_empty_collector_is_identity(self):
        a = self._filled(["a0"], counter_bump=2)
        a.merge_from(MetricsCollector())
        assert a.commit_count == 1 and a.reads_delivered == 2

    def test_merge_invalidates_stale_sample_cache(self):
        """A merge shows in the next ``samples`` access even if the
        attribute was read before it (nothing is cached)."""
        a = self._filled(["a0", "a1"])
        before = a.samples
        a.merge_from(self._filled(["b0"]))
        assert [s.tid for s in before] == ["a0", "a1"]
        assert [s.tid for s in a.samples] == ["a0", "a1", "b0"]


# a tid as the kernel builds one (``cl{client}.c{n}``, decimal widths vary),
# a free-form one (non-ASCII, common prefixes) or one of a few repeats
_TIDS = st.one_of(
    st.builds("cl{}.c{}".format, st.integers(0, 120), st.integers(1, 12)),
    st.text(
        st.characters(blacklist_characters="\0", blacklist_categories=("Cs",)),
        max_size=4,
    ),
    st.sampled_from(["a", "ab", "é", "cl2.c1", "cl10.c1"]),
)
_COMMITS = st.lists(
    st.tuples(
        _TIDS,
        st.floats(-5.0, 5.0, allow_nan=False),
        st.integers(0, 6).map(float),  # few instants: most commits tie
        st.integers(0, 9),
    ),
    min_size=1,
    max_size=60,
)


class TestSteadyWindow:
    """The window is the one a ``lexsort`` over the tids as unicode gives,
    however the tids were packed and merged."""

    @settings(max_examples=150, deadline=None)
    @given(
        commits=_COMMITS,
        cuts=st.lists(st.integers(0, 60), max_size=4),
        pack=st.sampled_from([1, 2, 3, 7, metrics_mod._PACK]),
        fraction=st.sampled_from([0.5, 1.0, 0.3]),
    )
    def test_window_matches_the_unicode_sort(self, commits, cuts, pack, fraction):
        bounds = sorted({0, len(commits), *(c for c in cuts if c < len(commits))})
        with mock.patch.object(metrics_mod, "_PACK", pack):
            merged = MetricsCollector()
            for lo, hi in zip(bounds, bounds[1:]):
                part = MetricsCollector()
                for commit in commits[lo:hi]:
                    part.record_commit(*commit)
                merged.merge_from(part)
        tids, submits, times, restarts = (list(column) for column in zip(*commits))
        order = np.lexsort((np.asarray(tids), np.array(times)))
        window = order[int(len(order) * (1 - fraction)) :]
        expected = [TransactionSample(*commits[i]) for i in window]

        assert merged.samples == [TransactionSample(*c) for c in commits]
        assert merged.steady_state(fraction) == expected
        assert merged.response_time(fraction) == summarize(
            (np.array(times) - np.array(submits))[window].tolist()
        )
        assert merged.restart_ratio(fraction) == summarize(
            np.array(restarts)[window].astype(np.float64).tolist()
        )

    def test_the_window_follows_a_later_commit(self):
        m = MetricsCollector()
        m.record_commit("b", 0.0, 1.0, 0)
        assert m.response_time(1.0).mean == 1.0
        m.record_commit("a", 0.0, 3.0, 0)
        assert m.response_time(1.0).mean == 2.0
        assert [s.tid for s in m.steady_state(1.0)] == ["b", "a"]

    def test_a_tid_holding_nul_is_refused(self):
        """Fixed-width bytes pad with NUL, so a packed tid could not keep one."""
        m = MetricsCollector()
        m.record_commit("a\0", 0.0, 1.0, 0)
        with pytest.raises(ValueError, match="NUL"):
            m.response_time(1.0)


def test_a_commit_record_costs_bytes_not_a_string():
    """100,000 commits with tids built per commit, as the kernel builds
    them: the record keeps 20 bytes of columns and the packed tid (31 B a
    commit; a ``str`` each held 91), and the two statistics add the sort,
    the window and one window of floats (54 B a commit at the peak; a
    unicode copy of every tid took it to 147)."""
    n = 100_000
    tracemalloc.start()
    try:
        baseline = tracemalloc.get_traced_memory()[0]
        m = MetricsCollector()
        for k in range(n):
            m.record_commit(f"cl{k % 8192}.c{k // 8192 + 1}", k * 1.0, k + 1.5, k % 3)
        retained = tracemalloc.get_traced_memory()[0] - baseline
        tracemalloc.reset_peak()
        m.response_time()
        m.restart_ratio()
        peak = tracemalloc.get_traced_memory()[1] - baseline
    finally:
        tracemalloc.stop()
    assert retained <= 40 * n
    assert peak <= 80 * n
