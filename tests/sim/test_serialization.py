"""Config/fault/metrics serialization hooks (scenario + trace plumbing)."""

import copy
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.config import SimulationConfig
from repro.sim.faults import DozeInterval, FaultPlan, ServerCrash
from repro.sim.simulation import run_simulation


def full_plan():
    return FaultPlan(
        doze=(DozeInterval(0, 100.0, 50.0), DozeInterval(1, 10.0, 5.0)),
        crashes=(ServerCrash(5000.0, 100.0),),
        uplink_loss_probability=0.25,
    )


def _slots(node, path=()):
    """The path of every key / index in a JSON-like document, at any depth."""
    items = (
        node.items() if isinstance(node, dict)
        else enumerate(node) if isinstance(node, list)
        else ()
    )
    for key, value in items:
        yield path + (key,)
        yield from _slots(value, path + (key,))


#: what a hand-edited or truncated file puts where a value belonged; the
#: strings never parse as numbers, so a mutant stays as small as its source
_JUNK = st.one_of(
    st.none(),
    st.text(alphabet="xyz-", max_size=4),
    st.integers(max_value=-1),
    st.floats(max_value=-0.5, allow_nan=False, allow_infinity=False),
    st.just([[1], []]),
)


@st.composite
def one_mutation(draw, document):
    """``document`` with one key dropped, one unknown key added, or one
    value replaced by junk — anywhere in it (the document fuzz of
    ROADMAP aim 3; tests/scenarios/test_schema.py drives it too)."""
    mutant = copy.deepcopy(document)
    path = draw(st.sampled_from(list(_slots(mutant))))
    parent = mutant
    for key in path[:-1]:
        parent = parent[key]
    action = draw(st.sampled_from(["drop", "replace", "add"]))
    if action == "drop":
        del parent[path[-1]]
    elif action == "replace" or not isinstance(parent, dict):
        parent[path[-1]] = draw(_JUNK)
    else:
        parent["zz-" + draw(st.text(alphabet="xyz", max_size=3))] = draw(_JUNK)
    return mutant


class TestFaultPlanRoundTrip:
    def test_round_trip(self):
        plan = full_plan()
        assert FaultPlan.from_dict(plan.to_dict()) == plan

    def test_round_trip_through_json(self):
        plan = full_plan()
        rebuilt = FaultPlan.from_dict(json.loads(json.dumps(plan.to_dict())))
        assert rebuilt == plan

    def test_defaults_fill_missing_keys(self):
        plan = FaultPlan.from_dict({})
        assert plan == FaultPlan()

    def test_malformed_doze_rejected(self):
        with pytest.raises(ValueError, match="doze"):
            FaultPlan.from_dict({"doze": "nope"})

    @pytest.mark.parametrize(
        "document, named",
        [
            ({"dozee": [], "uplink_loss_probability": 0.1}, "dozee"),
            ({"doze": [{"client": 0}]}, "start"),
            ({"doze": [{"client": None, "start": 1.0, "duration": 2.0}]}, "client"),
            ({"doze": [3]}, "doze interval"),
            ({"crashes": [{"time": 5.0, "downtime": 1.0, "when": 2}]}, "when"),
            ({"uplink_loss_probability": [[1], []]}, "uplink_loss_probability"),
            ({"uplink_loss_probability": True}, "uplink_loss_probability"),
        ],
        ids=["unknown-key", "missing-field", "null-field", "entry-not-a-mapping",
             "unknown-nested-key", "nested-list", "bool"],
    )
    def test_typo_missing_or_ill_typed_entry_is_a_named_value_error(
        self, document, named
    ):
        """Not a silent default, a ``KeyError`` or a ``TypeError``."""
        with pytest.raises(ValueError, match=named):
            FaultPlan.from_dict(document)

    def test_seeded_horizon_must_be_finite(self):
        for horizon in (float("inf"), float("nan")):
            with pytest.raises(ValueError, match="horizon"):
                FaultPlan.seeded(
                    1,
                    num_clients=1,
                    horizon=horizon,
                    mean_time_between_dozes=1.0,
                    mean_doze_duration=1.0,
                )

    def test_interval_and_crash_round_trip(self):
        interval = DozeInterval(2, 7.5, 3.25)
        assert DozeInterval.from_dict(interval.to_dict()) == interval
        crash = ServerCrash(123.0, 45.0)
        assert ServerCrash.from_dict(crash.to_dict()) == crash


class TestConfigRoundTrip:
    def test_plain_config(self):
        config = SimulationConfig(num_objects=40, seed=5)
        assert SimulationConfig.from_dict(config.to_dict()) == config

    def test_config_with_faults_through_json(self):
        config = SimulationConfig(
            num_clients=2,
            client_executor="cohort",
            faults=full_plan(),
        )
        payload = json.loads(json.dumps(config.to_dict()))
        rebuilt = SimulationConfig.from_dict(payload)
        assert rebuilt == config
        assert rebuilt.fingerprint() == config.fingerprint()

    def test_unknown_key_rejected(self):
        payload = SimulationConfig().to_dict()
        payload["num_objcts"] = 10
        with pytest.raises(ValueError, match="num_objcts"):
            SimulationConfig.from_dict(payload)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("num_clients", "x"),
            ("num_clients", True),
            ("seed", None),
            ("audit", "yes"),
            ("cache_capacity", 2.5),
            ("restart_delay", [[1], []]),
        ],
        ids=["string", "bool", "null", "string-for-bool", "float-for-int",
             "nested-list"],
    )
    def test_ill_typed_field_is_a_named_value_error(self, field, value):
        with pytest.raises(ValueError, match=field):
            SimulationConfig.from_dict({field: value})

    @settings(max_examples=300, deadline=None)
    @given(
        one_mutation(
            SimulationConfig(
                num_clients=2, client_executor="cohort", faults=full_plan()
            ).to_dict()
        )
    )
    def test_mutated_document_parses_or_raises_value_error(self, document):
        try:
            SimulationConfig.from_dict(document)
        except ValueError:
            pass

    def test_non_mapping_faults_rejected(self):
        payload = SimulationConfig().to_dict()
        payload["faults"] = "nope"
        with pytest.raises(ValueError, match="faults"):
            SimulationConfig.from_dict(payload)

    def test_existing_plan_instance_accepted(self):
        payload = SimulationConfig(
            num_clients=2, client_executor="cohort"
        ).to_dict()
        payload["faults"] = full_plan()
        config = SimulationConfig.from_dict(payload)
        assert config.faults == full_plan()


class TestRunObservables:
    def test_counters_and_observables_are_json_ready(self):
        config = SimulationConfig(
            num_objects=20,
            num_client_transactions=4,
            object_size_bits=512,
            seed=3,
        )
        result = run_simulation(config, collect_trace=True)
        counters = result.metrics.counters()
        # 4 txns x 4 reads committed, plus any restarted attempts' reads
        assert counters["reads_delivered"] >= 16
        assert result.metrics.commit_count == 4
        observables = result.trace.observables()
        # a faithful JSON round-trip: lists/strings/numbers only
        assert json.loads(json.dumps(observables)) == observables
        assert len(observables["client_commits"]) == 4
        assert observables["session_commits"][0][0] == 0
