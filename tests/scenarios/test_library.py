"""The shipped scenario library: completeness, validity, round-trips."""

import json

import pytest

from repro.scenarios import (
    builtin_scenarios,
    get_scenario,
    library_paths,
    load_scenario,
    loads_scenario,
    MetricEnvelope,
    ScenarioError,
    parse_scenario,
)

EXPECTED_NAMES = {
    "table1-baseline",
    "flash-crowd-hotspot",
    "commuter-doze",
    "update-storm",
    "quasi-cache-fleet",
    "crash-midrun",
    "hostile-wrap",
    "traced-replay",
}

#: sharded and replayed: records no global trace to audit or certify
UNTRACEABLE = {"traced-replay"}

#: documents × checks at tier-1 size (the CLI runs them as written)
SHRUNK = {"hostile-wrap": {"num_client_transactions": 30}}

TRACEABLE_RUNS = [
    (name, protocol)
    for name, scenario in sorted(builtin_scenarios().items())
    if name not in UNTRACEABLE
    for protocol in scenario.protocols
]


class TestLibrary:
    def test_all_expected_scenarios_ship(self):
        assert set(builtin_scenarios()) == EXPECTED_NAMES

    def test_names_match_file_stems(self):
        for path in library_paths():
            assert load_scenario(path).name == path.stem

    def test_every_scenario_has_seed_and_envelope(self):
        for name, scenario in builtin_scenarios().items():
            assert isinstance(scenario.seed, int), name
            assert scenario.envelope is not None, name
            assert scenario.envelope.bounds, name
            assert scenario.description, name

    def test_every_scenario_builds_configs_for_all_protocols(self):
        for scenario in builtin_scenarios().values():
            for protocol in scenario.protocols:
                config = scenario.config_for(protocol)
                assert config.protocol == protocol
                assert config.seed == scenario.seed

    def test_document_round_trip_every_file(self):
        # to_dict() -> parse_scenario() must reproduce each scenario
        for scenario in builtin_scenarios().values():
            assert parse_scenario(scenario.to_dict()) == scenario

    def test_envelope_round_trip_every_file(self):
        for scenario in builtin_scenarios().values():
            envelope = scenario.envelope
            rebuilt = MetricEnvelope.from_dict(envelope.to_dict())
            assert rebuilt == envelope

    def test_json_form_loads_identically(self):
        # a YAML library scenario re-encoded as JSON parses to the same
        # Scenario: the format is the mapping, not the surface syntax
        scenario = get_scenario("table1-baseline")
        as_json = json.dumps(scenario.to_dict())
        assert loads_scenario(as_json, fmt="json") == scenario

    def test_zero_fault_anchor_is_replay_eligible(self):
        # the cross-executor replay check in CI records this scenario;
        # it must stay unfaulted, unsharded, and process/cohort-capable
        anchor = get_scenario("table1-baseline")
        config = anchor.config_for()
        assert config.faults is None
        assert config.shards == 1
        assert config.client_executor in ("process", "cohort")


class TestEveryDocumentIsChecked:
    """Every library run the auditor and the certifier can be asked of
    passes both — the checks are not wired to two bespoke configs."""

    @pytest.mark.parametrize("name, protocol", TRACEABLE_RUNS)
    def test_audits_clean_and_certifies_update_consistent(self, name, protocol):
        from repro.analysis.consistency import certify_update_consistency
        from repro.sim import run_simulation

        result = run_simulation(
            get_scenario(name).config_for(
                protocol, audit=True, **SHRUNK.get(name, {})
            )
        )
        assert result.audit_report.ok, result.audit_report.format()
        report = certify_update_consistency(
            result.trace.transactional_history(result.server.database)
        )
        assert report.ok, report.format()
        assert report.reader_verdicts  # a reader was actually certified

    @pytest.mark.parametrize("name", sorted(UNTRACEABLE))
    def test_a_run_with_no_global_trace_says_so(self, name):
        with pytest.raises(ValueError, match="audit runs"):
            get_scenario(name).config_for(audit=True)

    @pytest.mark.parametrize("name", sorted(UNTRACEABLE))
    def test_its_timeline_audits_clean_unsharded(self, name):
        """The same clients and timeline, one shard recomputing it: the
        history the sharded replay reproduces bit for bit."""
        from repro.analysis.consistency import certify_update_consistency
        from repro.sim import run_simulation

        for protocol in get_scenario(name).protocols:
            result = run_simulation(
                get_scenario(name).config_for(
                    protocol,
                    shards=1,
                    timeline_mode="recompute",
                    tracing=False,
                    audit=True,
                )
            )
            assert result.audit_report.ok, result.audit_report.format()
            report = certify_update_consistency(
                result.trace.transactional_history(result.server.database)
            )
            assert report.ok, report.format()
            assert report.reader_verdicts


class TestResolution:
    def test_get_scenario_by_name(self):
        assert get_scenario("commuter-doze").name == "commuter-doze"

    def test_get_scenario_by_path(self, tmp_path):
        scenario = get_scenario("update-storm")
        path = tmp_path / "copy.yaml"
        path.write_text(json.dumps(scenario.to_dict()))
        # JSON is a YAML subset, so the .yaml suffix still decodes
        assert get_scenario(str(path)) == scenario

    def test_unknown_name_lists_library(self):
        with pytest.raises(ScenarioError, match="unknown scenario"):
            get_scenario("no-such-scenario")

    def test_unreadable_file_reports_path(self, tmp_path):
        missing = tmp_path / "gone.yaml"
        with pytest.raises(ScenarioError, match="gone.yaml"):
            load_scenario(missing)
