"""Tests for the experiment CLI (repro.experiments.cli)."""

import json

import pytest

from repro.analysis.consistency.explore import main as explore_main
from repro.experiments.cli import audit_main, build_audit_parser, build_parser, main
from repro.obs.trace_cli import main as trace_main


class TestParser:
    def test_known_experiments(self):
        parser = build_parser()
        args = parser.parse_args(["fig2", "--transactions", "50"])
        assert args.experiment == "fig2"
        assert args.transactions == 50

    def test_unknown_experiment_rejected(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["figz"])


class TestMain:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig2" in out and "table1" in out

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "overhead" in out and "f-matrix" in out

    def test_run_small_experiment(self, capsys, tmp_path):
        code = main(
            ["fig4b", "--transactions", "6", "--seed", "3", "--csv", str(tmp_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "fig4b" in out
        csv_file = tmp_path / "fig4b.csv"
        assert csv_file.exists()
        assert "fig4b,f-matrix" in csv_file.read_text()


class TestFaults:
    def test_parser_accepts_faults(self):
        args = build_parser().parse_args(["faults", "--output", "x.json"])
        assert args.experiment == "faults"
        assert str(args.output) == "x.json"

    def test_faults_report_runs_and_writes_json(self, capsys, tmp_path):
        out_path = tmp_path / "faults.json"
        code = main(
            ["faults", "--transactions", "4", "--seed", "3",
             "--output", str(out_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "f-matrix" in out and "audit" in out
        summaries = json.loads(out_path.read_text())
        assert [s["protocol"] for s in summaries] == [
            "f-matrix", "r-matrix", "datacycle"
        ]
        assert all(s["audit_ok"] for s in summaries)
        assert all(s["consistency_ok"] for s in summaries)
        assert all(s["commits"] == 12 for s in summaries)  # 3 clients x 4
        assert "consist" in out  # the report table gained a column


AUDIT_ARGS = ["--transactions", "8", "--objects", "10", "--seed", "5"]


class TestAuditConsistency:
    """repro-audit --consistency: stable exit codes and JSON coverage."""

    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as err:
            build_audit_parser().parse_args(["--consistency", "strictness"])
        assert err.value.code == 2

    def test_unknown_invariant_exits_2(self):
        with pytest.raises(SystemExit) as err:
            audit_main(["--invariant", "no-such-invariant"])
        assert err.value.code == 2

    def test_clean_run_exits_0_text(self, capsys):
        code = audit_main(
            ["--protocol", "datacycle", "--consistency", "all",
             "--consistency", "update"] + AUDIT_ARGS
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "serializability: PASS" in out
        assert "update consistency:" in out

    def test_json_covers_invariants_and_consistency(self, capsys):
        code = audit_main(
            ["--protocol", "f-matrix", "--format", "json",
             "--consistency", "causal", "--consistency", "update"]
            + AUDIT_ARGS
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["config"]["protocol"] == "f-matrix"
        assert payload["invariants"]["ok"] is True
        assert payload["invariants"]["checked"]
        levels = [v["level"] for v in payload["consistency"]["verdicts"]]
        assert levels == ["causal"]
        assert payload["update_consistency"]["ok"] is True
        assert payload["update_consistency"]["readers"]

    def test_all_expands_every_level_once(self, capsys):
        code = audit_main(
            ["--protocol", "datacycle", "--format", "json",
             "--consistency", "all", "--consistency", "serializability"]
            + AUDIT_ARGS
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        levels = [v["level"] for v in payload["consistency"]["verdicts"]]
        assert len(levels) == len(set(levels)) == 6

    def test_violation_exits_1_with_witness_json(self, capsys):
        # a full f-matrix history is *not* serializable at this seed
        # (readers observe incomparable orders) — requesting SER on it is
        # the deliberate anomaly path: exit 1 and a rendered witness
        code = audit_main(
            ["--protocol", "f-matrix", "--format", "json",
             "--consistency", "serializability", "--transactions", "40",
             "--objects", "20", "--seed", "42"]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert payload["invariants"]["ok"] is True  # invariants still clean
        verdict = payload["consistency"]["verdicts"][0]
        assert verdict["ok"] is False
        assert verdict["witness"]["transactions"]
        assert verdict["witness"]["description"]


def assert_usage_error(err, capsys):
    """Exit 2 with exactly one ``error:`` line and no traceback; -> stdout."""
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    return captured.out


class TestExitCodeContract:
    """The documented CLI exit-code contract, asserted as one suite.

    Module docstring contract: 0 = every requested check passed,
    1 = a violation / envelope miss / replay divergence, 2 = usage
    errors.  Every entry point (repro-experiments, repro-audit,
    repro-trace) honours it, including the scenario subcommand.
    """

    def test_experiments_success_is_0(self):
        assert main(["list"]) == 0

    def test_experiments_usage_error_is_2(self):
        with pytest.raises(SystemExit) as err:
            main(["no-such-experiment"])
        assert err.value.code == 2

    def test_experiments_bad_flag_is_2(self):
        with pytest.raises(SystemExit) as err:
            main(["fig2", "--no-such-flag"])
        assert err.value.code == 2

    @pytest.mark.parametrize(
        "entry, argv",
        [
            (main, ["fig2", "--transactions", "0"]),
            (main, ["fig2", "--transactions", "-1"]),
            (trace_main, ["run", "--transactions", "0"]),
            (trace_main, ["run", "--shards", "0"]),
            (audit_main, ["--transactions", "0"]),
        ],
        ids=[
            "experiments-transactions-0",
            "experiments-transactions-negative",
            "trace-transactions-0",
            "trace-shards-0",
            "audit-transactions-0",
        ],
    )
    def test_non_positive_count_is_2(self, entry, argv, capsys):
        """A count SimulationConfig rejects is a usage error, not a crash."""
        with pytest.raises(SystemExit) as err:
            entry(argv)
        assert_usage_error(err, capsys)

    @pytest.mark.parametrize(
        "argv",
        [
            ["fig4b", "--transactions", "3", "--output", "x.json"],
            ["faults", "--csv", "out"],
            ["faults", "--workers", "2"],
            ["table1", "--chart"],
            ["list", "--workers", "1"],
        ],
        ids=["sweep-output", "faults-csv", "faults-workers", "table1-chart",
             "list-workers"],
    )
    def test_flag_the_experiment_ignores_is_2(self, argv, capsys):
        """A flag that would do nothing is refused before anything runs."""
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert assert_usage_error(err, capsys) == ""

    @pytest.mark.parametrize(
        "content",
        [None, "not json", '{"traceEvents": 3}'],
        ids=["missing", "not-json", "wrong-shape"],
    )
    def test_summarize_bad_input_is_2(self, content, tmp_path, capsys):
        path = tmp_path / "trace.json"
        if content is not None:
            path.write_text(content)
        with pytest.raises(SystemExit) as err:
            trace_main(["summarize", str(path)])
        assert_usage_error(err, capsys)

    @pytest.mark.parametrize(
        "entry, argv",
        [
            (main, ["fig2", "--transactions", "2", "--csv", "{taken}"]),
            (main, ["scenario", "record", "table1-baseline", "--out", "{taken}/x.json"]),
            (main, ["faults", "--transactions", "5", "--output", "{taken}/x.json"]),
            (main, ["scenario", "run", "table1-baseline", "--output", "{taken}/x.json"]),
            (trace_main, ["run", "--out", "{taken}/x.json"]),
            (trace_main, ["run", "--spans", "{taken}/x.jsonl"]),
            (explore_main, ["--scope", "smallest", "--output", "{taken}/x.json"]),
        ],
        ids=[
            "csv-is-a-file",
            "out-parent-is-a-file",
            "faults-output",
            "scenario-run-output",
            "trace-out",
            "trace-spans",
            "explore-output",
        ],
    )
    def test_unusable_output_path_is_2(self, entry, argv, tmp_path, capsys):
        """Refused before the simulation runs, not after (losing it)."""
        taken = tmp_path / "taken"
        taken.write_text("")
        with pytest.raises(SystemExit) as err:
            entry([arg.format(taken=taken) for arg in argv])
        stdout = assert_usage_error(err, capsys)
        assert stdout == ""  # nothing was simulated first

    def test_record_creates_the_parent_of_out(self, tmp_path):
        out = tmp_path / "not" / "there" / "x.json"
        assert main(["scenario", "record", "table1-baseline", "--out", str(out)]) == 0
        assert out.is_file()

    def test_scenario_envelope_miss_is_1(self, tmp_path, capsys):
        import json as _json

        from repro.scenarios import get_scenario

        doc = get_scenario("quasi-cache-fleet").to_dict()
        doc["envelope"] = {"commits": [100000, 200000]}
        path = tmp_path / "impossible.json"
        path.write_text(_json.dumps(doc))
        assert main(["scenario", "run", str(path)]) == 1
        assert "ENVELOPE MISS" in capsys.readouterr().out

    def test_scenario_usage_error_is_2(self):
        with pytest.raises(SystemExit) as err:
            main(["scenario", "run", "no-such-scenario"])
        assert err.value.code == 2

    def test_audit_success_is_0(self):
        assert audit_main(AUDIT_ARGS) == 0

    def test_audit_usage_error_is_2(self):
        with pytest.raises(SystemExit) as err:
            audit_main(["--invariant", "no-such-invariant"])
        assert err.value.code == 2
