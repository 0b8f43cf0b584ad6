"""Tests for the report generator (repro.experiments.suite)."""

import pytest

from repro.experiments.store import load_result
from repro.experiments.suite import generate_report


@pytest.fixture(scope="module")
def tiny_report(tmp_path_factory):
    out = tmp_path_factory.mktemp("report")
    path = generate_report(
        out, transactions=6, seed=3, experiments=["fig4b"]
    )
    return out, path


class TestGenerateReport:
    def test_report_written(self, tiny_report):
        out, path = tiny_report
        assert path.name == "REPORT.md"
        text = path.read_text()
        assert "Reproduction report" in text
        assert "fig4b" in text
        assert "f-matrix" in text

    def test_archives_written(self, tiny_report):
        out, _path = tiny_report
        assert (out / "fig4b.json").exists()
        assert (out / "fig4b.csv").exists()
        assert (out / "fig4b.txt").exists()
        loaded = load_result(out / "fig4b.json")
        assert "f-matrix" in loaded.series

    def test_progress_callback(self, tmp_path):
        calls = []
        generate_report(
            tmp_path,
            transactions=6,
            seed=3,
            experiments=["fig4b"],
            progress=lambda name, secs: calls.append(name),
        )
        assert calls == ["fig4b"]

    def test_unknown_experiment_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            generate_report(tmp_path, transactions=5, experiments=["figz"])
