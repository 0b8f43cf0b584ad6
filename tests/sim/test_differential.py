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

from tests.conftest import reference_run
from tests.differential import CORPUS, admissible, check, documents

#: documents generated per tier-1 run (derandomized: the same ones each time)
DOCUMENTS = 16


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_corpus(name):
    check(CORPUS[name])


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


def test_the_schedule_model_waves_a_dense_row():
    """``test_corpus`` runs cohort interleaved; here the model chooses,
    and on this row it waves the unsplit cohort runs (each shard of a
    split run holds too few readers to)."""
    runs = check(CORPUS["dense/waves"], model=True, client_executor="cohort")
    modes = {(s.shards, r.schedule.mode, r.schedule.wave) for s, r in runs}
    assert modes == {(1, "waved", 3), (2, "interleaved", 0)}
