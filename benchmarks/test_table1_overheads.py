"""Table 1 / Sec. 4.1: parameter defaults and control-info overheads.

Regenerates the paper's overhead arithmetic — F-Matrix spends ≈23% of the
broadcast cycle on control information at the Table 1 defaults, the
vector protocols ≈0.1% — and the cycle lengths behind those fractions.
"""

import pytest

from repro.experiments.figures import table1_overheads
from repro.experiments.report import format_overheads
from repro.sim.config import SimulationConfig


def test_table1_overhead_fractions():
    overheads = table1_overheads()
    print()
    print(format_overheads(overheads))
    assert overheads["f-matrix"] == pytest.approx(0.2266, abs=2e-3)  # "about 23%"
    assert overheads["r-matrix"] == pytest.approx(0.000976, abs=1e-4)  # "about 0.1%"
    assert overheads["datacycle"] == overheads["r-matrix"]
    assert overheads["f-matrix-no"] == 0.0


def test_table1_cycle_lengths():
    lengths = {
        protocol: SimulationConfig(protocol=protocol).cycle_bits
        for protocol in ("f-matrix", "datacycle", "f-matrix-no")
    }
    assert lengths["f-matrix"] == 300 * 8192 + 300 * 300 * 8
    assert lengths["datacycle"] == 300 * 8192 + 300 * 8
    assert lengths["f-matrix-no"] == 300 * 8192
    print(f"\ncycle bits: {lengths}")

