"""Shard-layer and analytical-tier tests (repro.sim.shard/analytic).

That a sharded, replayed or analytic run changes nothing observable is
the differential harness's (tests/differential.py: every corpus row and
generated document runs under one and two shards, both timeline modes
and every executor).  Here: what the harness runs in-process cannot
show — real process pools, the timeline cache, the feed and its
fallbacks, worker failures and leaked segments, the slicing arithmetic,
the validation rules, and the analytical tier's waves.  The named
equivalence tests below are the harness's ``check`` narrowed to a
shard count, a timeline mode or the analytical tier.
"""

import json
import os
import signal
import subprocess
import sys
from concurrent.futures.process import BrokenProcessPool

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import (
    TIMELINE_CACHE,
    ShardExecutionError,
    SimulationConfig,
    reader_slices,
    run_sharded,
    run_simulation,
)
from repro.sim.simulation import BroadcastSimulation, ShardSlice

from tests.conftest import no_calendar, reference_run, shared_segments as _shared_segments
from tests.differential import CORPUS, SMALL, check, signature

#: the shard layer's base run (the harness's ``small/*`` corpus rows)
BASE = SimulationConfig(**SMALL)


# ----------------------------------------------------------------------
# the property: sharded ≡ shards=1, bit for bit
# ----------------------------------------------------------------------


def small_workload(seed, protocol, mixed):
    """The shard layer's base run; ``mixed`` adds a bounded update
    population (replicated on every shard)."""
    workload = dict(client_update_fraction=0.3, num_update_clients=3) if mixed else {}
    return BASE.replace(seed=seed, protocol=protocol, **workload)


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    shards=st.sampled_from([1, 2, 3, 8]),
    protocol=st.sampled_from(["f-matrix", "r-matrix", "datacycle"]),
    executor=st.sampled_from(["cohort", "analytic"]),
    mixed=st.booleans(),
)
def test_sharded_equals_unsharded(seed, shards, protocol, executor, mixed):
    check(
        small_workload(seed, protocol, mixed),
        client_executor=executor,
        shards=shards,
        timeline_mode="recompute",
    )


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    shards=st.sampled_from([1, 2, 3, 8]),
    protocol=st.sampled_from(["f-matrix", "r-matrix", "datacycle"]),
    executor=st.sampled_from(["cohort", "analytic"]),
    mixed=st.booleans(),
)
def test_replay_sharded_equals_unsharded(seed, shards, protocol, executor, mixed):
    """Arena replay is invisible to every observable.

    Cache interference across examples is intentional — a cacheable
    example may hit an arena stored by an earlier one, and bit-identity
    must hold either way.
    """
    runs = check(
        small_workload(seed, protocol, mixed),
        client_executor=executor,
        shards=shards,
        timeline_mode="replay",
    )
    for _, replayed in runs:
        assert replayed.timeline_stats["mode"] == "replay"


def test_run_simulation_dispatches_on_shards():
    base = BASE.replace(seed=9, client_executor="cohort", shards=2)
    assert signature(run_simulation(base)) == signature(
        reference_run(base.replace(shards=1))
    )


# ----------------------------------------------------------------------
# a real process pool (the harness runs every shard in-process)
# ----------------------------------------------------------------------


def test_sharded_with_real_process_pool():
    base = BASE.replace(seed=5, protocol="f-matrix")
    oracle = signature(reference_run(base))
    pooled = signature(
        run_sharded(
            base.replace(client_executor="cohort", shards=3), workers=2
        )
    )
    assert pooled == oracle


# ----------------------------------------------------------------------
# timeline replay: record once, replay everywhere, through the cache
# ----------------------------------------------------------------------


def test_replay_with_real_process_pool():
    base = BASE.replace(seed=5, protocol="f-matrix")
    oracle = signature(reference_run(base))
    pooled = run_sharded(
        base.replace(client_executor="cohort", shards=3, timeline_mode="replay"),
        workers=2,
    )
    assert signature(pooled) == oracle
    assert pooled.timeline_stats["shards"] == 3


def test_replay_cache_hit_reuses_the_timeline_across_runs():
    TIMELINE_CACHE.clear()
    base = BASE.replace(
        seed=11, client_executor="cohort", shards=2, timeline_mode="replay"
    )
    first = run_sharded(base, workers=0)
    assert first.timeline_stats["cache_hit"] is False
    # a client-side variation keeps the server fingerprint, so the
    # second run replays everything — primary included — from cache
    varied = base.replace(num_clients=12)
    hit = run_sharded(varied, workers=0)
    assert hit.timeline_stats["cache_hit"] is True
    assert hit.server is None  # no live broadcast pass ran at all
    oracle = signature(reference_run(BASE.replace(seed=11, num_clients=12)))
    assert signature(hit) == oracle
    assert TIMELINE_CACHE.stats.hits >= 1


def test_replay_cache_discards_on_horizon_overrun():
    TIMELINE_CACHE.clear()
    base = BASE.replace(
        seed=29, client_executor="cohort", shards=2, timeline_mode="replay"
    )
    run_sharded(base, workers=0)  # seeds the cache with a short horizon
    longer = base.replace(num_client_transactions=12)
    oracle = signature(
        reference_run(BASE.replace(seed=29, num_client_transactions=12))
    )
    rerecorded = run_sharded(longer, workers=0)
    assert signature(rerecorded) == oracle
    # the cached arena could not cover the longer run: it was dropped
    # and the run fell back to a fresh recording pass
    assert rerecorded.timeline_stats["cache_hit"] is False
    assert TIMELINE_CACHE.stats.horizon_discards == 1


def test_an_outgrown_cache_entry_is_rerecorded_with_the_pool_running():
    """The same second pass when the first one had workers in flight: the
    parent's own replay outgrows the cached horizon, the queued shards are
    cancelled, the first pass's segment is unlinked, the run records."""
    TIMELINE_CACHE.clear()
    base = BASE.replace(
        seed=29, client_executor="cohort", shards=3, timeline_mode="replay"
    )
    run_sharded(base, workers=1)
    before = _shared_segments()
    longer = base.replace(num_client_transactions=12)
    rerecorded = run_sharded(longer, workers=1)
    assert _shared_segments() == before
    assert signature(rerecorded) == signature(
        reference_run(BASE.replace(seed=29, num_client_transactions=12))
    )
    assert rerecorded.timeline_stats["cache_hit"] is False
    assert TIMELINE_CACHE.stats.horizon_discards == 1


def test_replay_with_updaters_is_never_cached():
    TIMELINE_CACHE.clear()
    base = BASE.replace(
        seed=3, client_update_fraction=0.3, num_update_clients=3
    )
    oracle = signature(reference_run(base))
    replayed = run_sharded(
        base.replace(
            client_executor="cohort", shards=2, timeline_mode="replay"
        ),
        workers=0,
    )
    assert signature(replayed) == oracle
    assert replayed.timeline_stats["cache_hit"] is False
    assert len(TIMELINE_CACHE) == 0  # update-laden timelines never cached


# ----------------------------------------------------------------------
# the feed: replay while recording, fall back past its end
# ----------------------------------------------------------------------


@pytest.mark.parametrize("workers", [0, 1])
def test_a_late_job_catches_up_from_the_first_chunk(workers):
    """Three shards on at most one worker: the last job starts when the
    feed is long closed (inline, ``workers=0``: every job does — nothing
    may block) and still reads every chunk, from the first."""
    TIMELINE_CACHE.clear()
    base = BASE.replace(seed=5)
    replayed = run_sharded(
        base.replace(client_executor="analytic", shards=3, timeline_mode="replay"),
        workers=workers,
    )
    assert signature(replayed) == signature(reference_run(base))
    stats = replayed.timeline_stats
    assert stats["chunks"] > 1  # the recording pass ran ahead and published
    assert stats["fallbacks"] == 0 and stats["cache_hit"] is False
    assert replayed.profile["stall"] >= 0.0


@pytest.mark.parametrize("workers", [0, 1])
@pytest.mark.parametrize("executor", ["analytic", "cohort"])
@pytest.mark.parametrize("seed", [2, 9])
def test_readers_that_outlive_the_feed_fall_back(monkeypatch, seed, executor, workers):
    """With no headroom recorded, slice 1's readers (these seeds: they
    outlive slice 0's) read past the closed feed; the shard recomputes
    itself and nothing observable moves."""
    import repro.sim.simulation as simulation_mod

    monkeypatch.setattr(simulation_mod, "_HORIZON_FACTOR", 1.0)
    monkeypatch.setattr(simulation_mod, "_HORIZON_SLACK_CYCLES", 0.0)
    TIMELINE_CACHE.clear()
    base = BASE.replace(seed=seed)
    replayed = run_sharded(
        base.replace(client_executor=executor, shards=2, timeline_mode="replay"),
        workers=workers,
    )
    assert replayed.timeline_stats["fallbacks"] >= 1
    assert signature(replayed) == signature(reference_run(base))


def _run_isolated(script):
    """``script`` in a fresh interpreter under ``-W error``, killed (with
    the pool it forked) if it hangs; segments must be as they were."""
    before = _shared_segments()
    child = subprocess.Popen(
        [sys.executable, "-W", "error", "-c", script],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    try:
        out, err = child.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        pytest.fail("the sharded run hung")
    assert child.returncode == 0, err
    assert _shared_segments() == before
    return out, err


_POOLED_COLD_REPLAY = """
from tests.differential import SMALL
from repro.sim import SimulationConfig, run_sharded
config = SimulationConfig(
    **SMALL, client_executor="analytic", shards=2, timeline_mode="replay"
)
"""


def test_a_pooled_cold_replay_leaves_the_resource_tracker_nothing_to_say():
    """The pool is forked before the first segment exists: were the
    tracker started after the fork, each worker would start its own on
    first attach and "clean up" the parent's segments at exit."""
    out, err = _run_isolated(
        _POOLED_COLD_REPLAY
        + "stats = run_sharded(config, workers=1).timeline_stats\n"
        "print(stats['chunks'], stats['fallbacks'])"
    )
    chunks, fallbacks = map(int, out.split())
    assert chunks > 1 and fallbacks == 0
    assert "resource_tracker" not in err and "leaked" not in err


def test_a_failed_recording_pass_wakes_the_blocked_worker():
    """The recorder raises after its first publication while the worker
    waits for the second: the feed is closed before the pool is joined
    (no hang), the recorder's own exception surfaces, no segment stays."""
    out, _ = _run_isolated(
        _POOLED_COLD_REPLAY
        + """
from repro.sim.simulation import BroadcastSimulation
publish = BroadcastSimulation.publish_timeline
def publish_once(self, horizon_time):
    if self.feed.chunks:
        raise RuntimeError("recorder exploded")
    publish(self, horizon_time)
BroadcastSimulation.publish_timeline = publish_once
try:
    run_sharded(config, workers=1)
except RuntimeError as exc:
    print(type(exc).__name__, exc)
"""
    )
    assert out.strip() == "RuntimeError recorder exploded"


#: /dev/shm is full by the feed's second chunk: creating its segment
#: raises ENOSPC in the parent (pool workers, forked with the patch, only
#: attach, which still works)
_FULL_SHM = """
import errno, types
from multiprocessing import shared_memory
import repro.sim.arena as arena
def full_on_second_chunk(name=None, create=False, size=0):
    if create and name.endswith("_1"):
        raise OSError(errno.ENOSPC, "No space left on device", name)
    return shared_memory.SharedMemory(name=name, create=create, size=size)
arena.shared_memory = types.SimpleNamespace(SharedMemory=full_on_second_chunk)
"""


def test_a_full_dev_shm_fails_the_run_and_leaks_no_segment():
    """The recording pass cannot publish its second chunk while the one
    worker replays the first: the run raises the OSError — it does not
    hang — and the first chunk's segment is unlinked."""
    out, _ = _run_isolated(
        _POOLED_COLD_REPLAY
        + _FULL_SHM
        + """
try:
    run_sharded(config, workers=1)
except OSError as exc:
    print(errno.errorcode[exc.errno])
"""
    )
    assert out.strip() == "ENOSPC"


def test_scenario_run_reports_a_full_dev_shm_in_one_line(tmp_path):
    document = tmp_path / "full-shm.json"
    config = dict(SMALL, client_executor="analytic", shards=2, timeline_mode="replay")
    document.write_text(
        json.dumps({"format_version": 1, "name": "full-shm", "seed": 5, "config": config})
    )
    out, err = _run_isolated(
        _FULL_SHM
        + f"""
from repro.experiments.cli import main
try:
    main(["scenario", "run", {str(document)!r}])
except SystemExit as exc:
    print("exit", exc.code)
"""
    )
    assert out.splitlines()[-1] == "exit 2"
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "No space left on device" in err


# ----------------------------------------------------------------------
# worker failures carry shard context and leave nothing behind
# ----------------------------------------------------------------------


def _explode(job):
    raise RuntimeError("worker exploded")


def _die(job):
    os._exit(1)  # no exception, no cleanup: the worker process is just gone


def _assert_failure_is_contained(monkeypatch, mode, workers, entry, cause):
    """A failing shard 1 surfaces as ShardExecutionError naming it and its
    reader range, with the worker's failure chained — and the arena's
    shared-memory segment is gone by the time the error reaches the caller.
    The patched entry point reaches pool workers too: they are forked."""
    import repro.sim.shard as shard_mod

    monkeypatch.setattr(shard_mod, "_run_shard", entry)
    TIMELINE_CACHE.clear()
    config = BASE.replace(client_executor="cohort", shards=2, timeline_mode=mode)
    slices = reader_slices(config)
    before = _shared_segments()
    with pytest.raises(ShardExecutionError) as excinfo:
        run_sharded(config, workers=workers)
    assert _shared_segments() == before
    err = excinfo.value
    assert err.shard_index == 1
    assert (err.reader_lo, err.reader_hi) == (
        slices[1].reader_lo,
        slices[1].reader_hi,
    )
    assert f"readers [{slices[1].reader_lo}, {slices[1].reader_hi})" in str(err)
    assert isinstance(err.__cause__, cause)
    return err


def test_worker_failure_carries_shard_context(monkeypatch):
    err = _assert_failure_is_contained(
        monkeypatch, "recompute", 0, _explode, RuntimeError
    )
    assert "worker exploded" in str(err)


@pytest.mark.parametrize(
    "mode,workers,entry,cause",
    [
        ("recompute", 1, _explode, RuntimeError),
        ("replay", 0, _explode, RuntimeError),
        ("replay", 1, _explode, RuntimeError),
        # hostile: the worker is killed mid-shard
        ("recompute", 1, _die, BrokenProcessPool),
        ("replay", 1, _die, BrokenProcessPool),
    ],
)
def test_a_failed_worker_is_named_and_leaves_no_segment(
    monkeypatch, mode, workers, entry, cause
):
    _assert_failure_is_contained(monkeypatch, mode, workers, entry, cause)


# ----------------------------------------------------------------------
# slicing arithmetic
# ----------------------------------------------------------------------


class TestReaderSlices:
    def test_partitions_are_contiguous_and_cover(self):
        config = BASE.replace(num_clients=11, client_executor="cohort", shards=3)
        slices = reader_slices(config)
        assert [s.primary for s in slices] == [True, False, False]
        assert slices[0].reader_lo == 0
        assert slices[-1].reader_hi == 11
        for left, right in zip(slices, slices[1:]):
            assert left.reader_hi == right.reader_lo
        # near-even: sizes differ by at most one, larger ones first
        sizes = [s.num_readers for s in slices]
        assert max(sizes) - min(sizes) <= 1
        assert sizes == sorted(sizes, reverse=True)

    def test_updaters_replicated_on_every_slice(self):
        config = BASE.replace(
            num_clients=10,
            client_executor="cohort",
            shards=2,
            client_update_fraction=0.5,
            num_update_clients=4,
        )
        slices = reader_slices(config)
        assert all(s.updaters == 4 for s in slices)
        assert slices[0].reader_lo == 4
        assert slices[-1].reader_hi == 10

    def test_shards_clamped_to_reader_count(self):
        config = BASE.replace(num_clients=3, client_executor="cohort", shards=8)
        slices = reader_slices(config)
        assert len(slices) == 3

    def test_single_slice_when_no_readers(self):
        config = BASE.replace(
            num_clients=4,
            client_executor="cohort",
            shards=4,
            client_update_fraction=0.5,
            num_update_clients=4,
        )
        slices = reader_slices(config)
        assert len(slices) == 1 and slices[0].primary


# ----------------------------------------------------------------------
# validation and guard rails
# ----------------------------------------------------------------------


class TestShardValidation:
    def test_process_executor_cannot_shard(self):
        with pytest.raises(ValueError, match="leave client_executor at its default"):
            BASE.replace(client_executor="process", shards=2)

    def test_default_executor_shards(self):
        """Naming no executor is enough: ``shards=2`` alone is a valid config."""
        config = BASE.replace(seed=7, shards=2)
        assert signature(run_sharded(config, workers=0)) == signature(
            reference_run(config.replace(shards=1))
        )

    def test_updates_need_explicit_bound(self):
        with pytest.raises(ValueError, match="num_update_clients"):
            BASE.replace(
                client_executor="cohort", shards=2, client_update_fraction=0.2
            )

    def test_audit_cannot_shard(self):
        with pytest.raises(ValueError, match="audit"):
            BASE.replace(client_executor="cohort", shards=2, audit=True)

    def test_sharded_trace_refused(self):
        config = BASE.replace(client_executor="cohort", shards=2)
        with pytest.raises(ValueError, match="trace"):
            run_simulation(config, collect_trace=True)

    def test_sliced_simulation_refuses_trace(self):
        config = BASE.replace(client_executor="cohort")
        slice_ = ShardSlice(updaters=0, reader_lo=0, reader_hi=4, primary=True)
        with pytest.raises(ValueError, match="shard"):
            BroadcastSimulation(config, collect_trace=True, slice_=slice_)


class TestAnalyticValidation:
    """The tier refuses nothing of its own: sharded, it keeps no global
    trace for the reason any executor's sharded run keeps none."""

    def test_updates_need_explicit_bound(self):
        with pytest.raises(ValueError, match="num_update_clients"):
            BASE.replace(
                client_executor="analytic", shards=2, client_update_fraction=0.2
            )

    def test_audit_refused(self):
        with pytest.raises(ValueError, match="audit"):
            BASE.replace(client_executor="analytic", shards=2, audit=True)

    def test_trace_refused_at_run_time(self):
        config = BASE.replace(client_executor="analytic", shards=2)
        with pytest.raises(ValueError, match="trace"):
            BroadcastSimulation(config, collect_trace=True).run()


# ----------------------------------------------------------------------
# the analytical tier's event count
# ----------------------------------------------------------------------


#: the kernel merge's collapsed lanes, by their corpus rows
LANES = {
    "cache+tracing+multi-disk": "tiny/lane/cache+multi-disk",
    "dense+cache+loss": "tiny/lane/dense+cache+loss",
    "restart-delay+delay-first+loss": "tiny/lane/restart-delay+delay-first+loss",
}


def analytic_matches_oracle(row, shards=1, timeline_mode="recompute"):
    """The corpus row, analytic tier against the reference, untraced and
    traced, its readers three to a wave (the harness's ``WAVE``)."""
    check(
        CORPUS[row],
        client_executor="analytic",
        shards=shards,
        timeline_mode=timeline_mode,
    )


class TestAnalyticTier:
    @pytest.mark.parametrize("protocol", ["f-matrix", "r-matrix", "datacycle"])
    @pytest.mark.parametrize("seed", [3, 77])
    def test_matches_oracle(self, protocol, seed):
        analytic_matches_oracle(f"small/{protocol}/seed={seed}")

    def test_matches_oracle_with_cache_and_loss(self):
        analytic_matches_oracle("small/cache+loss")

    def test_matches_oracle_with_updaters(self):
        analytic_matches_oracle("small/updaters")

    def test_matches_oracle_multi_disk(self):
        analytic_matches_oracle("small/multi-disk")

    @pytest.mark.parametrize("shards,mode", [(1, "recompute"), (2, "replay")])
    @pytest.mark.parametrize("lane", sorted(LANES))
    def test_matches_oracle_on_collapsed_lanes(self, lane, shards, mode):
        """The combinations the kernel merge folded into one code path."""
        analytic_matches_oracle(LANES[lane], shards, mode)

    def test_reader_events_cost_nothing(self):
        """Readers cost the analytic tier slot-bucket events, shared by a
        wave's members, never one per read: fewer than the oracle's."""
        base = BASE.replace(seed=31)
        oracle = reference_run(base)
        analytic = run_simulation(base.replace(client_executor="analytic"))
        assert analytic.events < oracle.events


# ----------------------------------------------------------------------
# the analytical tier's reader waves
# ----------------------------------------------------------------------


@pytest.fixture
def waves_of_three(monkeypatch):
    """The readers go three at a time, so every run below spans waves."""
    import repro.sim.analytic as analytic_mod

    monkeypatch.setattr(analytic_mod, "WAVE", 3)
    return analytic_mod


#: runs of more than one wave of three readers, by their corpus rows
WAVE_CASES = {
    "plain": "small/f-matrix/seed=3",
    "updaters": "small/updaters",
    "loss": "small/loss",
    "multi-disk": "small/multi-disk",
    # no update bound: every client may update, so all run in Phase A
    "all-updaters": "small/all-updaters",
}


class TestAnalyticWaves:
    @pytest.mark.parametrize("case", sorted(WAVE_CASES))
    def test_matches_oracle_across_waves(self, case):
        analytic_matches_oracle(WAVE_CASES[case])

    @pytest.mark.parametrize("mode", ["recompute", "replay"])
    def test_two_shards_match_oracle_across_waves(self, mode):
        TIMELINE_CACHE.clear()
        analytic_matches_oracle("small/sixteen-clients", 2, mode)

    def test_an_audited_run_across_waves_is_the_oracles(self, waves_of_three):
        """Updaters, a quasi-cache and radio loss: the waves leave one
        global trace that audits clean, certifies update-consistent and
        holds the reference run's commits, read for read."""
        from repro.analysis.consistency import certify_update_consistency
        from repro.scenarios import record_config

        base = BASE.replace(
            seed=29,
            num_clients=10,
            client_update_fraction=0.3,
            num_update_clients=3,
            cache_currency_bound=2e5,
            broadcast_loss_probability=0.1,
            audit=True,
        )
        with no_calendar():
            oracle, reference = record_config(base.replace(client_executor="process"))
        waved, recorded = record_config(base.replace(client_executor="analytic"))
        assert waved.audit_report.ok, waved.audit_report.format()
        report = certify_update_consistency(
            waved.trace.transactional_history(waved.server.database)
        )
        assert report.ok and report.reader_verdicts, report.format()
        assert recorded.observables == reference.observables
        assert signature(waved) == signature(oracle)
        assert waved.metrics.cache_hits and waved.metrics.broadcast_losses

    def test_a_later_wave_outlives_the_feed_and_falls_back(
        self, waves_of_three, monkeypatch
    ):
        """Seed 9, no headroom recorded: slice 1's first wave (readers
        4-6) replays within the closed feed, its second (reader 7) reads
        past it; the shard recomputes itself and nothing observable moves."""
        import repro.sim.simulation as simulation_mod
        from repro.sim.arena import TimelineExhausted, TimelineView
        from repro.sim.engine import Simulator

        steps = []

        class Wave(Simulator):
            def run(self):
                now = super().run()
                steps.append("drained")
                return now

        broadcast = TimelineView.broadcast

        def broadcast_spy(view, cycle):
            try:
                return broadcast(view, cycle)
            except TimelineExhausted:
                steps.append("exhausted")
                raise

        monkeypatch.setattr(waves_of_three, "Simulator", Wave)
        monkeypatch.setattr(TimelineView, "broadcast", broadcast_spy)
        monkeypatch.setattr(simulation_mod, "_HORIZON_FACTOR", 1.0)
        monkeypatch.setattr(simulation_mod, "_HORIZON_SLACK_CYCLES", 0.0)
        TIMELINE_CACHE.clear()
        base = BASE.replace(seed=9)
        replayed = run_sharded(
            base.replace(client_executor="analytic", shards=2, timeline_mode="replay"),
            workers=0,
        )
        # the recording pass's two waves, slice 1's first, then its second
        # runs out; the recompute runs both of slice 1's waves again
        assert steps == ["drained"] * 3 + ["exhausted"] + ["drained"] * 2
        assert replayed.timeline_stats["fallbacks"] == 1
        assert signature(replayed) == signature(reference_run(base))

    def test_a_run_holds_one_wave_of_readers_at_a_time(
        self, waves_of_three, monkeypatch
    ):
        """Every slot a reader hears, the kernels alive are at most the
        updaters and one wave: a drained wave's readers are gone, which
        is what keeps a shard's memory flat in its population."""
        import weakref

        import repro.sim.simulation as simulation_mod
        from repro.sim.cohort import CohortExecutor
        from repro.sim.kernel import ClientKernel

        alive = weakref.WeakSet()

        class Counted(ClientKernel):
            __slots__ = ("__weakref__",)

            def __init__(self, *args):
                super().__init__(*args)
                alive.add(self)

        peaks = []
        fire = CohortExecutor._fire

        def fire_spy(executor, time):
            peaks.append(len(alive))
            fire(executor, time)

        monkeypatch.setattr(simulation_mod, "ClientKernel", Counted)
        monkeypatch.setattr(CohortExecutor, "_fire", fire_spy)
        base = BASE.replace(
            seed=19, num_clients=20, client_update_fraction=0.4, num_update_clients=3
        )
        result = run_simulation(base.replace(client_executor="analytic"))
        assert result.metrics.commit_count == 20 * base.num_client_transactions
        assert max(peaks) <= 3 + 3 < base.num_clients
