"""Tests for the discrete-event kernel (repro.sim.engine)."""

import pytest

from repro.sim.engine import (
    SimClockError,
    Simulator,
    Timeout,
    WaitUntil,
    Waive,
)


class TestDirectives:
    def test_timeout_advances_clock(self):
        sim = Simulator()
        times = []

        def proc():
            for _ in range(3):
                yield Timeout(10)
                times.append(sim.now)

        sim.spawn(proc())
        sim.run()
        assert times == [10, 20, 30]

    def test_wait_until_absolute(self):
        sim = Simulator()
        seen = []

        def proc():
            yield WaitUntil(100)
            seen.append(sim.now)

        sim.spawn(proc())
        sim.run()
        assert seen == [100]

    def test_wait_until_past_rejected(self):
        sim = Simulator()

        def proc():
            yield Timeout(50)
            yield WaitUntil(10)

        sim.spawn(proc())
        with pytest.raises(SimClockError):
            sim.run()

    def test_negative_timeout_rejected(self):
        with pytest.raises(ValueError):
            Timeout(-1)

    def test_waive_keeps_time_but_yields(self):
        sim = Simulator()
        order = []

        def a():
            order.append("a1")
            yield Waive()
            order.append("a2")

        def b():
            order.append("b1")
            yield Waive()
            order.append("b2")

        sim.spawn(a())
        sim.spawn(b())
        sim.run()
        assert order == ["a1", "b1", "a2", "b2"]
        assert sim.now == 0

    def test_bad_directive_raises(self):
        sim = Simulator()

        def proc():
            yield "nonsense"

        sim.spawn(proc())
        with pytest.raises(TypeError):
            sim.run()


class TestScheduling:
    def test_same_time_fifo(self):
        sim = Simulator()
        order = []

        def proc(name):
            yield Timeout(5)
            order.append(name)

        sim.spawn(proc("first"))
        sim.spawn(proc("second"))
        sim.run()
        assert order == ["first", "second"]

    def test_callback_schedule(self):
        sim = Simulator()
        fired = []
        sim.schedule(42, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [42.0]

    def test_schedule_in_past_rejected(self):
        sim = Simulator()

        def proc():
            yield Timeout(10)
            sim.schedule(5, lambda: None)

        sim.spawn(proc())
        with pytest.raises(SimClockError):
            sim.run()

    def test_process_terminates(self):
        sim = Simulator()

        def proc():
            yield Timeout(1)

        handle = sim.spawn(proc())
        sim.run()
        assert not handle.alive


class TestRunLimits:
    def _ticker(self, sim, log):
        while True:
            yield Timeout(10)
            log.append(sim.now)

    def test_until_stops_before_later_events(self):
        sim = Simulator()
        log = []
        sim.spawn(self._ticker(sim, log))
        sim.run(until=35)
        assert log == [10, 20, 30]
        assert sim.now == 35

    def test_stop_when_predicate(self):
        sim = Simulator()
        log = []
        sim.spawn(self._ticker(sim, log))
        sim.run(stop_when=lambda: len(log) >= 5)
        assert len(log) == 5

    def test_max_events_guard(self):
        sim = Simulator()
        sim.spawn(self._ticker(sim, []))
        with pytest.raises(RuntimeError):
            sim.run(max_events=10)

    def test_resume_after_until(self):
        sim = Simulator()
        log = []
        sim.spawn(self._ticker(sim, log))
        sim.run(until=25)
        sim.run(until=45)
        assert log == [10, 20, 30, 40]

    def test_events_processed_counter(self):
        sim = Simulator()
        log = []
        sim.spawn(self._ticker(sim, log))
        sim.run(until=50)
        assert sim.events_processed == 6  # spawn step + 5 ticks

    def test_until_returned_when_queue_drains_early(self):
        # run(until=T) means "simulate through T": even when the last
        # event fires before T the clock ends (and the call returns) at T
        sim = Simulator()

        def proc():
            yield Timeout(10)

        sim.spawn(proc())
        assert sim.run(until=100) == 100
        assert sim.now == 100

    def test_until_on_empty_queue_advances_clock(self):
        sim = Simulator()
        assert sim.run(until=7) == 7
        assert sim.now == 7

    def test_until_in_past_of_drained_clock_is_noop(self):
        sim = Simulator()

        def proc():
            yield Timeout(10)

        sim.spawn(proc())
        sim.run()
        assert sim.now == 10
        assert sim.run(until=5) == 10  # never move time backwards

    def test_stop_when_beats_until_normalization(self):
        sim = Simulator()
        log = []
        sim.spawn(self._ticker(sim, log))
        assert sim.run(until=100, stop_when=lambda: len(log) >= 2) == 20

