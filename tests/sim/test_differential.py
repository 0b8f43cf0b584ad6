"""Every execution path of a run ≡ the per-process reference (tests/differential.py).

Two drivers: the named corpus — every configuration an equivalence test
has used, plus one minimal row per defect the harness has found — and
generated scenario documents, each parsed by
:func:`repro.scenarios.schema.parse_scenario` before it runs, so the
schema is exercised on the way.
"""

import pytest
from hypothesis import HealthCheck, given, settings

from repro.scenarios.schema import parse_scenario
from repro.sim.config import SimulationConfig

from tests.conftest import reference_run
from tests.differential import CORPUS, admissible, check, check_modulo, documents

#: documents generated per tier-1 run (derandomized: the same ones each time)
DOCUMENTS = 16


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_corpus(name):
    check(CORPUS[name])


@pytest.mark.parametrize(
    "name", sorted(name for name, cfg in CORPUS.items() if cfg.faults is None)
)
def test_modulo_equals_absolute(name):
    check_modulo(CORPUS[name])


def test_modulo_equals_absolute_at_table1_size():
    """Table 1, F-Matrix at client transaction length 8, 8-bit modulo:
    0.1667 restarts a commit both ways."""
    check_modulo(
        SimulationConfig(
            protocol="f-matrix",
            client_txn_length=8,
            num_client_transactions=300,
            modulo_timestamps=True,
            seed=42,
        )
    )


@settings(
    max_examples=DOCUMENTS,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(document=documents())
def test_generated_documents(document):
    check(parse_scenario(document, source="generated").config_for())


def test_a_split_run_is_admissible_only_where_the_config_allows_one():
    """The settings come from the config's own rules: an update population
    with no bound never splits; the reference executor never shards."""
    unbounded = admissible(CORPUS["faults/uplink-loss/seed=7"])
    assert {(s.shards, s.timeline_mode) for s in unbounded} == {(1, "recompute")}
    bounded = admissible(CORPUS["faults/uplink-loss/bounded"])
    assert len(bounded) == 20
    assert not any(s.client_executor == "process" and s.shards > 1 for s in bounded)


def test_a_traced_row_fires_the_staleness_guard():
    """``test_corpus`` compares this row's spans, staleness aborts among
    them, under every executor against the traced reference — which is
    why the collapsed staleness lane (tests/sim/test_cohort.py) can run
    untraced."""
    assert reference_run(CORPUS["faults/doze-wrap/seed=7"]).metrics.aborts_staleness > 0


@pytest.mark.parametrize(
    "name", sorted(n for n in CORPUS if n.startswith("faults/uplink-exhausted/"))
)
def test_an_exhausted_row_runs_out_of_uplink_retries(name):
    """``test_corpus`` compares these rows' abort causes; the retry limit is
    fixed (repro.sim.faults.UPLINK_MAX_RETRIES), so the rows reach it only
    through their loss probability."""
    assert reference_run(CORPUS[name]).metrics.aborts_uplink > 0


def test_the_schedule_model_waves_a_dense_row():
    """``test_corpus`` runs cohort interleaved; here the model chooses,
    and on this row it waves the unsplit cohort runs (each shard of a
    split run holds too few readers to)."""
    runs = check(CORPUS["dense/waves"], model=True, client_executor="cohort")
    modes = {(s.shards, r.schedule.mode, r.schedule.wave) for s, r in runs}
    assert modes == {(1, "waved", 3), (2, "interleaved", 0)}
