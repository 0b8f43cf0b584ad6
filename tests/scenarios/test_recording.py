"""Trace record/replay (repro.scenarios.recording)."""

import json

import pytest

from repro.scenarios import (
    RecordedTrace,
    get_scenario,
    parse_scenario,
    record_config,
    record_scenario,
    replay_trace,
    result_signature,
)
from repro.sim.config import SimulationConfig
from repro.sim.simulation import run_simulation

from tests.conftest import no_calendar, reference_run

#: names the reference executor: the recordings below are the oracle side
#: of the cross-executor replays
SMALL = SimulationConfig(
    num_objects=20,
    num_client_transactions=6,
    object_size_bits=512,
    seed=17,
    client_executor="process",
)


@pytest.fixture(scope="module")
def recorded():
    with no_calendar():
        _result, trace = record_config(SMALL)
    return trace


class TestRecord:
    def test_record_captures_config_and_observables(self, recorded):
        assert recorded.config == SMALL
        assert recorded.recorded_executor == "process"
        commits = recorded.observables["client_commits"]
        assert len(commits) == 6
        assert all(commit["reads"] for commit in commits)
        assert recorded.signature["commits"] == 6

    def test_signature_matches_result(self):
        result, trace = record_config(SMALL)
        assert trace.signature == result_signature(result)

    def test_analytic_recording_replays_through_process(self):
        _result, trace = record_config(SMALL.replace(client_executor="analytic"))
        assert trace.recorded_executor == "analytic"
        with no_calendar():
            _result, report = replay_trace(trace, executor="process")
        assert report.ok, report.describe()

    def test_record_rejects_sharded(self):
        with pytest.raises(ValueError, match="shard"):
            record_config(
                SMALL.replace(client_executor="cohort", shards=2)
            )

    def test_record_scenario_names_the_trace(self):
        scenario = get_scenario("table1-baseline")
        _result, trace = record_scenario(scenario, executor="process")
        assert trace.scenario == "table1-baseline"


class TestOmittedExecutor:
    """A document that names no executor runs the default one, and that
    run is the run of the same document naming the reference."""

    def test_recorded_trace_without_the_field_replays_under_cohort(self, recorded):
        document = recorded.to_dict()
        del document["config"]["client_executor"], document["recorded_executor"]
        loaded = RecordedTrace.from_dict(document)
        assert loaded.config.client_executor == loaded.recorded_executor == "cohort"
        # the observables in the file are the reference's (see ``recorded``)
        _result, report = replay_trace(loaded)
        assert report.executor == "cohort"
        assert report.ok, report.describe()

    def test_scenario_document_without_the_field_equals_it_naming_process(self):
        sizes = {"num_clients": 3, "num_objects": 20, "num_client_transactions": 4}
        document = {"format_version": 1, "name": "unnamed-executor", "seed": 17}
        default = parse_scenario({**document, "config": sizes}).config_for()
        named = parse_scenario(
            {**document, "config": {**sizes, "client_executor": "process"}}
        ).config_for()
        assert default.client_executor == "cohort"
        assert named == default.replace(client_executor="process")
        assert result_signature(run_simulation(default)) == result_signature(
            reference_run(named)
        )


class TestPersistence:
    def test_save_load_round_trip(self, recorded, tmp_path):
        path = tmp_path / "run.trace.json"
        recorded.save(path)
        loaded = RecordedTrace.load(path)
        assert loaded.config == recorded.config
        assert loaded.observables == recorded.observables
        assert loaded.signature == recorded.signature
        assert loaded.digest == recorded.digest

    def test_format_version_is_stamped(self, recorded, tmp_path):
        path = tmp_path / "run.trace.json"
        recorded.save(path)
        payload = json.loads(path.read_text())
        assert payload["format_version"] == 2
        assert payload["digest"] == recorded.digest

    def test_unknown_version_rejected(self, recorded, tmp_path):
        path = tmp_path / "run.trace.json"
        recorded.save(path)
        payload = json.loads(path.read_text())
        # 1: a trace whose config still carries the removed uplink keys
        for version in (1, 99):
            payload["format_version"] = version
            path.write_text(json.dumps(payload))
            with pytest.raises(ValueError, match="format_version"):
                RecordedTrace.load(path)

    def test_tampered_file_rejected(self, recorded, tmp_path):
        path = tmp_path / "run.trace.json"
        recorded.save(path)
        payload = json.loads(path.read_text())
        payload["observables"]["client_commits"][0]["tid"] = "forged"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="digest"):
            RecordedTrace.load(path)

    def test_unreadable_file_reports_path(self, tmp_path):
        with pytest.raises(ValueError, match="gone"):
            RecordedTrace.load(tmp_path / "gone.json")


class TestReplay:
    def test_same_executor_replay_is_bit_identical(self, recorded):
        _result, report = replay_trace(recorded)
        assert report.ok
        assert report.replayed_digest == recorded.digest
        assert "bit-identical" in report.describe()

    def test_cross_executor_replay_is_bit_identical(self, recorded):
        # the determinism contract: process and cohort produce the same
        # run, so a process recording replays exactly through cohort
        _result, report = replay_trace(recorded, executor="cohort")
        assert report.executor == "cohort"
        assert report.recorded_executor == "process"
        assert report.ok, report.describe()
        assert report.replayed_digest == recorded.digest

    def test_divergence_is_detected_and_located(self, recorded):
        forged_commits = [
            dict(commit) for commit in recorded.observables["client_commits"]
        ]
        forged_commits[2] = dict(forged_commits[2], tid="forged")
        forged = RecordedTrace(
            config=recorded.config,
            observables={
                "client_commits": forged_commits,
                "session_commits": recorded.observables["session_commits"],
            },
            signature=dict(recorded.signature, commits=7),
            recorded_executor=recorded.recorded_executor,
        )
        _result, report = replay_trace(forged)
        assert not report.ok
        where = [m.where for m in report.mismatches]
        assert "client_commits[2]" in where
        assert "signature.commits" in where
        assert report.replayed_digest != forged.digest

    def test_process_recording_replays_through_analytic(self, recorded):
        _result, report = replay_trace(recorded, executor="analytic")
        assert report.executor == "analytic"
        assert report.ok, report.describe()

    def test_faulted_scenario_replays_across_executors(self):
        # faults are simulated bit-identically by process and cohort;
        # record the doze scenario one way, replay it the other
        scenario = get_scenario("commuter-doze")
        _result, trace = record_scenario(scenario)
        assert trace.recorded_executor == "cohort"
        with no_calendar():
            _result, report = replay_trace(trace, executor="process")
        assert report.executor == "process"
        assert report.ok, report.describe()
