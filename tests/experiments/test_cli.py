"""Tests for the experiment CLI (repro.experiments.cli)."""

import json

import pytest

from repro.analysis.consistency.explore import main as explore_main
from repro.experiments.cli import build_parser, main
from repro.experiments.suite import generate_report
from repro.obs.trace_cli import main as trace_main
from repro.scenarios import get_scenario
from repro.scenarios.cli import build_scenario_parser


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
            ["fig4b", "--transactions", "6", "--seed", "3", "--out", str(tmp_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "fig4b" in out and f"wrote {tmp_path / 'REPORT.md'}" in out
        assert (tmp_path / "fig4b.txt").read_text() in out
        csv_file = tmp_path / "fig4b.csv"
        assert "fig4b,f-matrix" in csv_file.read_text()

    def test_out_writes_what_generate_report_writes(self, tmp_path):
        """The command is the library call: the same files, and archives
        byte for byte — under one worker or two."""
        cli, lib, pooled = (tmp_path / name for name in ("cli", "lib", "pooled"))
        argv = ["fig4b", "--transactions", "6", "--seed", "3", "--out"]
        assert main([*argv, str(cli), "--workers", "1"]) == 0
        generate_report(lib, transactions=6, seed=3, experiments=["fig4b"])
        assert main([*argv, str(pooled), "--workers", "2"]) == 0
        files = sorted(path.name for path in lib.iterdir())
        assert files == ["REPORT.md", "fig4b.csv", "fig4b.json", "fig4b.txt"]
        for other in (cli, pooled):
            assert sorted(path.name for path in other.iterdir()) == files
            for name in ("fig4b.csv", "fig4b.json", "fig4b.txt"):
                assert (other / name).read_bytes() == (lib / name).read_bytes()


def write_document(tmp_path, name, base=None, config=None, **patches):
    """A scenario file: ``base`` (a library name) patched, or a bare
    Table-1 document; ``config`` entries are merged into its section."""
    if base is not None:
        doc = get_scenario(base).to_dict()
    else:
        doc = {"format_version": 1, "seed": 5, "config": {}}
    doc["name"] = name
    doc.update(patches)
    doc["config"].update(config or {})
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    return path


def scenario_run(*argv):
    return main(["scenario", "run", *map(str, argv)])


class TestFaults:
    """The headline fault run is a library document behind the one door."""

    def test_parser_accepts_faults(self):
        args = build_scenario_parser().parse_args(
            ["run", "hostile-wrap", "--audit", "--output", "x.json"]
        )
        assert args.names == ["hostile-wrap"] and args.audit
        assert str(args.output) == "x.json"
        with pytest.raises(SystemExit):  # the bespoke experiment is gone
            build_parser().parse_args(["faults"])

    def test_faults_report_runs_and_writes_json(self, capsys, tmp_path):
        out_path = tmp_path / "faults.json"
        path = write_document(
            tmp_path, "hostile-small", base="hostile-wrap", seed=3,
            config={"num_client_transactions": 4},
        )
        code = scenario_run(
            path, "--audit", "--consistency", "update", "--no-envelope",
            "--output", out_path,
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "hostile-small/f-matrix" in out and "audit:" in out
        assert "update consistency:" in out
        payload = json.loads(out_path.read_text())
        runs = payload["runs"]
        assert [r["protocol"] for r in runs] == ["f-matrix", "r-matrix", "datacycle"]
        assert all(r["audit"]["ok"] for r in runs)
        assert all(r["update_consistency"]["ok"] for r in runs)
        assert all(r["metrics"]["commits"] == 12 for r in runs)  # 3 clients x 4
        assert payload["ok"] is True and payload["unchecked"] == []


#: the Table-1 defaults at a size the level checkers search in well under
#: a second (with ``write_document``'s seed 5)
SMALL = {"num_client_transactions": 8, "num_objects": 10}


class TestAuditConsistency:
    """scenario run --audit --consistency: stable exit codes, JSON coverage."""

    def test_usage_error_exits_2(self, capsys):
        with pytest.raises(SystemExit) as err:
            scenario_run("quasi-cache-fleet", "--consistency", "strictness")
        stdout = assert_usage_error(err, capsys)
        assert stdout == ""  # refused before any run

    def test_clean_run_exits_0_text(self, capsys, tmp_path):
        path = write_document(
            tmp_path, "small", protocols=["datacycle"], config=SMALL
        )
        code = scenario_run(
            path, "--audit", "--consistency", "all", "--consistency", "update"
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "no invariant violations" in out
        assert "serializability: PASS" in out
        assert "update consistency:" in out

    def test_json_covers_invariants_and_consistency(self, tmp_path):
        path = write_document(tmp_path, "small", config=SMALL)
        out_path = tmp_path / "out.json"
        code = scenario_run(
            path, "--audit", "--consistency", "causal", "--consistency",
            "update", "--output", out_path,
        )
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert payload["ok"] is True
        (run,) = payload["runs"]
        assert run["protocol"] == "f-matrix"
        assert run["audit"]["ok"] is True
        assert run["audit"]["checked"]
        levels = [v["level"] for v in run["consistency"]["verdicts"]]
        assert levels == ["causal"]
        assert run["update_consistency"]["ok"] is True
        assert run["update_consistency"]["readers"]

    def test_all_expands_every_level_once(self, tmp_path):
        path = write_document(
            tmp_path, "small", protocols=["datacycle"], config=SMALL
        )
        out_path = tmp_path / "out.json"
        code = scenario_run(
            path, "--consistency", "all", "--consistency", "serializability",
            "--output", out_path,
        )
        assert code == 0
        (run,) = json.loads(out_path.read_text())["runs"]
        levels = [v["level"] for v in run["consistency"]["verdicts"]]
        assert len(levels) == len(set(levels)) == 6
        assert "audit" not in run  # certification alone does not audit

    def test_violation_exits_1_with_witness_json(self, tmp_path):
        # a full f-matrix history is *not* serializable at this seed
        # (readers observe incomparable orders) — requesting SER on it is
        # the deliberate anomaly path: exit 1 and a rendered witness
        path = write_document(
            tmp_path, "anomaly", seed=42,
            config={"num_client_transactions": 40, "num_objects": 20},
        )
        out_path = tmp_path / "out.json"
        code = scenario_run(
            path, "--audit", "--consistency", "serializability",
            "--output", out_path,
        )
        assert code == 1
        payload = json.loads(out_path.read_text())
        assert payload["ok"] is False
        (run,) = payload["runs"]
        assert run["audit"]["ok"] is True  # invariants still clean
        verdict = run["consistency"]["verdicts"][0]
        assert verdict["ok"] is False
        assert verdict["witness"]["transactions"]
        assert verdict["witness"]["description"]

    def test_a_documents_own_audit_is_reported_and_decides_the_exit_code(
        self, tmp_path, monkeypatch, capsys
    ):
        """``config: {audit: true}`` is a verdict like any other: in the
        JSON, and a violation exits 1 with the envelope inside its bounds."""
        path = write_document(
            tmp_path, "self-audited", base="quasi-cache-fleet",
            config={"audit": True},
        )
        out_path = tmp_path / "out.json"
        assert scenario_run(path, "--output", out_path) == 0
        (run,) = json.loads(out_path.read_text())["runs"]
        assert run["audit"]["checked"] and run["envelope"]["ok"]

        import repro.analysis
        from repro.analysis import AuditReport, Diagnostic

        broken = AuditReport(
            checked=("forced",),
            diagnostics=(Diagnostic(invariant="forced", message="forced"),),
        )
        monkeypatch.setattr(repro.analysis, "audit_simulation", lambda result: broken)
        capsys.readouterr()
        assert scenario_run(path, "--output", out_path) == 1
        assert "envelope ok" in capsys.readouterr().out
        payload = json.loads(out_path.read_text())
        assert payload["ok"] is False and payload["runs"][0]["envelope"]["ok"]


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
    errors.  Every entry point (repro-experiments, repro-trace) honours
    it, including the scenario subcommand — the one door a configuration
    is run, audited, certified and traced through.
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
        "argv, base, config",
        [
            (["fig2", "--transactions", "0"], None, None),
            (["fig2", "--transactions", "-1"], None, None),
            (["scenario", "run", "{doc}", "--summary"], "traced-replay",
             {"num_client_transactions": 0}),
            (["scenario", "run", "{doc}", "--summary"], "traced-replay",
             {"shards": 0}),
            (["scenario", "run", "{doc}", "--audit"], None,
             {"num_client_transactions": 0}),
        ],
        ids=[
            "experiments-transactions-0",
            "experiments-transactions-negative",
            "trace-transactions-0",
            "trace-shards-0",
            "audit-transactions-0",
        ],
    )
    def test_non_positive_count_is_2(self, argv, base, config, tmp_path, capsys):
        """A count SimulationConfig rejects is a usage error, not a crash —
        given as a flag or written in a scenario document."""
        doc = write_document(tmp_path, "bad-count", base=base, config=config)
        with pytest.raises(SystemExit) as err:
            main([arg.format(doc=doc) for arg in argv])
        assert assert_usage_error(err, capsys) == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["table1", "--out", "report"],
            ["list", "--workers", "1"],
        ],
        ids=["table1-out", "list-workers"],
    )
    def test_flag_the_experiment_ignores_is_2(self, argv, capsys):
        """A flag that would do nothing is refused before anything runs."""
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert assert_usage_error(err, capsys) == ""

    def test_a_figure_without_out_is_2(self, capsys):
        """A figure run writes its report: with nowhere to write it, nothing runs."""
        with pytest.raises(SystemExit) as err:
            main(["fig4b", "--transactions", "6"])
        assert assert_usage_error(err, capsys) == ""

    @pytest.mark.parametrize("flag", [["--csv", "results"], ["--chart"]])
    def test_the_old_report_flags_are_2(self, flag, tmp_path, capsys):
        with pytest.raises(SystemExit) as err:
            main(["fig4b", "--transactions", "6", "--out", str(tmp_path), *flag])
        assert err.value.code == 2
        assert capsys.readouterr().out == "" and not list(tmp_path.iterdir())

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
            (main, ["fig2", "--transactions", "2", "--out", "{taken}"]),
            (main, ["scenario", "record", "table1-baseline", "--out", "{taken}/x.json"]),
            (main, ["scenario", "run", "hostile-wrap", "--output", "{taken}/x.json"]),
            (main, ["scenario", "run", "table1-baseline", "--output", "{taken}/x.json"]),
            (main, ["scenario", "run", "traced-replay", "--trace-out", "{taken}/x.json"]),
            (main, ["scenario", "run", "traced-replay", "--spans", "{taken}/x.jsonl"]),
            (explore_main, ["--scope", "smallest", "--output", "{taken}/x.json"]),
            (main, ["scenario", "record", "table1-baseline", "--out", "{folder}"]),
            (main, ["scenario", "run", "table1-baseline", "--output", "{folder}"]),
            (main, ["scenario", "run", "traced-replay", "--trace-out", "{folder}"]),
            (main, ["scenario", "run", "traced-replay", "--spans", "{folder}"]),
            (explore_main, ["--scope", "smallest", "--output", "{folder}"]),
        ],
        ids=[
            "out-is-a-file",
            "out-parent-is-a-file",
            "faults-output",
            "scenario-run-output",
            "trace-out",
            "trace-spans",
            "explore-output",
            "out-is-a-directory",
            "scenario-run-output-is-a-directory",
            "trace-out-is-a-directory",
            "trace-spans-is-a-directory",
            "explore-output-is-a-directory",
        ],
    )
    def test_unusable_output_path_is_2(self, entry, argv, tmp_path, capsys):
        """Refused before the simulation runs, not after (losing it)."""
        taken = tmp_path / "taken"
        taken.write_text("")
        folder = tmp_path / "folder"
        folder.mkdir()
        with pytest.raises(SystemExit) as err:
            entry([arg.format(taken=taken, folder=folder) for arg in argv])
        stdout = assert_usage_error(err, capsys)
        assert stdout == ""  # nothing was simulated first
        assert sorted(tmp_path.iterdir()) == [folder, taken]  # nothing written
        assert not list(folder.iterdir())

    def test_record_creates_the_parent_of_out(self, tmp_path):
        out = tmp_path / "not" / "there" / "x.json"
        assert main(["scenario", "record", "table1-baseline", "--out", str(out)]) == 0
        assert out.is_file()

    def test_scenario_envelope_miss_is_1(self, tmp_path, capsys):
        path = write_document(
            tmp_path, "impossible", base="quasi-cache-fleet",
            envelope={"commits": [100000, 200000]},
        )
        assert scenario_run(path) == 1
        assert "ENVELOPE MISS" in capsys.readouterr().out

    def test_scenario_usage_error_is_2(self):
        with pytest.raises(SystemExit) as err:
            main(["scenario", "run", "no-such-scenario"])
        assert err.value.code == 2

    def test_audit_success_is_0(self, tmp_path):
        assert scenario_run(write_document(tmp_path, "small", config=SMALL), "--audit") == 0

    def test_audit_usage_error_is_2(self, capsys):
        """A check the named configuration cannot support is refused in the
        config's own words; under --all the run is listed as unchecked."""
        for flags in (["--audit"], ["--consistency", "update"]):
            with pytest.raises(SystemExit) as err:
                scenario_run("traced-replay", *flags)
            assert assert_usage_error(err, capsys) == ""

    def test_untraceable_run_under_all_is_unchecked_not_failed(
        self, tmp_path, monkeypatch, capsys
    ):
        import repro.scenarios.cli as cli

        library = {
            name: get_scenario(name)
            for name in ("quasi-cache-fleet", "traced-replay")
        }
        monkeypatch.setattr(cli, "builtin_scenarios", lambda: library)
        out_path = tmp_path / "out.json"
        assert scenario_run("--all", "--audit", "--output", out_path) == 0
        assert "not traceable: audit runs" in capsys.readouterr().out
        payload = json.loads(out_path.read_text())
        by_name = {run["scenario"]: run for run in payload["runs"]}
        assert "audit" in by_name["quasi-cache-fleet"]
        assert "audit" not in by_name["traced-replay"]
        assert by_name["traced-replay"]["envelope"]["ok"]
        (skipped,) = payload["unchecked"]
        assert skipped["scenario"] == "traced-replay" and skipped["reason"]

    def test_tracing_two_runs_is_2(self, capsys):
        with pytest.raises(SystemExit) as err:
            scenario_run("table1-baseline", "--summary")  # three protocols
        assert assert_usage_error(err, capsys) == ""

    def test_traced_run_reconciles_and_names_itself(self, tmp_path, capsys):
        trace, spans, out = (tmp_path / n for n in ("t.json", "s.jsonl", "o.json"))
        code = scenario_run(
            "traced-replay", "--trace-out", trace, "--spans", spans,
            "--summary", "--output", out,
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert "264 spans across 2 shard lane(s), 0 dropped, 60 commits" in stdout
        assert "timeline/cycle" in stdout and "counters:" in stdout
        assert len(spans.read_text().splitlines()) == 264
        assert trace_main(["summarize", str(trace)]) == 0
        assert "timeline/cycle" in capsys.readouterr().out
        (run,) = json.loads(out.read_text())["runs"]
        config = get_scenario("traced-replay").config_for()
        assert run["config_fingerprint"] == config.fingerprint()
        assert (run["shards"], run["timeline_mode"]) == (2, "replay")
        assert run["timeline_stats"]["mode"] == "replay"
        assert run["spans"] == 264 and run["spans_dropped"] == 0
