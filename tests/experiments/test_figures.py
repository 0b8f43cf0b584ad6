"""Tests for the per-figure experiment entries (repro.experiments.figures).

Each figure runner is executed at a very small scale to pin its wiring:
the right parameter varies, the right protocols appear, and the headline
shape holds where tiny runs are statistically stable enough to check it.
The full-shape assertions live in the benchmark suite (larger runs).
"""

import subprocess
import sys

import pytest

from repro.experiments.figures import (
    EXPERIMENTS,
    ablation_caching,
    ablation_group_matrix,
    fig2_client_txn_length,
    fig3a_server_txn_length,
    fig3b_server_txn_rate,
    fig4a_num_objects,
    fig4b_object_size,
    table1_overheads,
)

TXNS = 12


class TestFig2:
    def test_series_and_skip(self):
        result = fig2_client_txn_length(
            TXNS, lengths=(2, 10), protocols=("datacycle", "f-matrix"), seed=1
        )
        assert result.series["f-matrix"].xs == (2.0, 10.0)
        # datacycle's length-10 point is skipped like the paper's chart
        assert result.series["datacycle"].xs == (2.0,)

    def test_tail_can_be_included(self):
        result = fig2_client_txn_length(
            5,
            lengths=(10,),
            protocols=("datacycle",),
            seed=1,
            include_datacycle_tail=True,
        )
        assert result.series["datacycle"].xs == (10.0,)


class TestFig3:
    def test_fig3a_varies_server_length(self):
        result = fig3a_server_txn_length(
            TXNS, lengths=(2, 8), protocols=("f-matrix",), seed=1
        )
        assert result.series["f-matrix"].xs == (2.0, 8.0)

    def test_fig3b_varies_interval(self):
        result = fig3b_server_txn_rate(
            TXNS, intervals=(100_000, 400_000), protocols=("r-matrix",), seed=1
        )
        assert result.series["r-matrix"].xs == (100_000.0, 400_000.0)


class TestFig4:
    def test_fig4a_varies_objects(self):
        result = fig4a_num_objects(TXNS, sizes=(50, 100), protocols=("f-matrix",), seed=1)
        assert result.series["f-matrix"].xs == (50.0, 100.0)

    def test_fig4b_varies_object_size(self):
        result = fig4b_object_size(
            TXNS, sizes_kb=(0.5, 1.0), protocols=("f-matrix",), seed=1
        )
        series = result.series["f-matrix"]
        assert series.xs == (0.5, 1.0)
        # bigger objects, longer cycles, higher response times
        assert series.response_at(1.0) > series.response_at(0.5)


class TestTable1:
    def test_paper_overhead_numbers(self):
        overheads = table1_overheads()
        assert overheads["f-matrix"] == pytest.approx(0.2266, abs=2e-3)
        assert overheads["r-matrix"] == pytest.approx(0.00097, abs=2e-4)
        assert overheads["datacycle"] == overheads["r-matrix"]
        assert overheads["f-matrix-no"] == 0.0


class TestAblations:
    def test_group_matrix_sweep(self):
        result = ablation_group_matrix(TXNS, group_counts=(1, 8), seed=1)
        assert result.series["group-matrix"].xs == (1.0, 8.0)

    def test_caching_sweep(self):
        result = ablation_caching(TXNS, currency_bounds_cycles=(0.0, 4.0), seed=1)
        assert result.series["f-matrix"].xs == (0.0, 4.0)


class TestRegistry:
    def test_every_experiment_registered(self):
        assert set(EXPERIMENTS) == {
            "fig2",
            "fig3a",
            "fig3b",
            "fig4a",
            "fig4b",
            "ablation-groups",
            "ablation-caching",
        }


# peak RSS is read as VmHWM: ru_maxrss survives exec, so in a child it
# starts at whatever the pytest process that spawned it had reached
_FOOTPRINT = """
import re, sys
from repro.experiments.figures import fig4a_num_objects
from repro.sim import SimulationConfig, run_simulation

assert run_simulation(SimulationConfig(num_client_transactions=50)).metrics.commit_count == 50
fig4a_num_objects(8)
status = open("/proc/self/status").read()
print(int(re.search(r"VmHWM:\\s+(\\d+) kB", status).group(1)) // 1024)
print(*sorted({"scipy", "matplotlib"} & set(sys.modules)))
"""


def test_a_run_and_a_sweep_import_no_optional_package():
    """What a user runs — one Table-1 simulation, one figure sweep — pulls
    in neither scipy (the interval's quantile is stdlib) nor matplotlib,
    and peaks under 80 MiB; importing scipy.stats alone used to put the
    process at ~102 MiB, on every perfbench workload."""
    proc = subprocess.run(
        [sys.executable, "-c", _FOOTPRINT], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    peak_mib, imported = proc.stdout.split("\n")[:2]
    assert imported == ""
    assert int(peak_mib) < 80
