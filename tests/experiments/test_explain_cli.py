"""Tests for the repro-explain CLI (repro.experiments.explain_cli)."""

import pytest

from repro.experiments.explain_cli import build_parser, main


class TestExplainCli:
    def test_example_1(self, capsys):
        code = main(
            ["r1[IBM] w2[IBM] c2 r3[IBM] r3[Sun] w4[Sun] c4 r1[Sun] c1 c3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "APPROX: accepted" in out
        assert "legal (update consistent): yes" in out

    def test_no_exact_flag(self, capsys):
        code = main(["w1[x] c1 r2[x] c2", "--no-exact"])
        assert code == 0
        out = capsys.readouterr().out
        assert "legal" not in out

    def test_parse_error(self, capsys):
        code = main(["z9[?"])
        assert code == 2
        assert "cannot parse" in capsys.readouterr().err

    def test_parser_requires_history(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestChartFlag:
    def test_cli_chart_output(self, capsys, tmp_path):
        from repro.experiments.cli import main as experiments_main

        code = experiments_main(
            ["fig4b", "--transactions", "6", "--seed", "3", "--out", str(tmp_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "response time" in out
        assert "F=f-matrix" in out  # the chart legend, printed
        assert "F=f-matrix" in (tmp_path / "fig4b.txt").read_text()  # and written
