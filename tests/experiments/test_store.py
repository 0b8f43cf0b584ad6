"""Tests for the results store (repro.experiments.store)."""

import json

import pytest

from repro.experiments.store import load_result, save_result
from repro.experiments.sweeps import ExperimentResult, Point, Series
from repro.sim.metrics import SummaryStat


def stat(mean, half=0.1):
    return SummaryStat(mean, 1.0, 20, half)


def make_result(scale=1.0):
    result = ExperimentResult("figX", "knob")
    for protocol, base in (("f-matrix", 1e6), ("datacycle", 3e6)):
        series = Series(protocol)
        for x in (2.0, 4.0):
            series.points.append(
                Point(x, stat(base * x * scale, half=base * 0.01), stat(0.5), 1e7, 42)
            )
        result.series[protocol] = series
    return result


class TestRoundTrip:
    def test_save_load_identity(self, tmp_path):
        path = tmp_path / "figX.json"
        original = make_result()
        save_result(original, path)
        loaded = load_result(path)
        assert loaded.name == "figX" and loaded.xlabel == "knob"
        assert set(loaded.series) == set(original.series)
        for protocol in original.series:
            for a, b in zip(original.series[protocol].points, loaded.series[protocol].points):
                assert a == b

    def test_atomic_write_leaves_no_tmp(self, tmp_path):
        path = tmp_path / "r.json"
        save_result(make_result(), path)
        assert not (tmp_path / "r.json.tmp").exists()

    def test_version_checked(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format_version": 99}))
        with pytest.raises(ValueError):
            load_result(path)

    def test_json_is_stable(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_result(make_result(), a)
        save_result(make_result(), b)
        assert a.read_text() == b.read_text()
