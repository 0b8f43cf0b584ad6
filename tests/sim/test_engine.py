"""Tests for the discrete-event kernel (repro.sim.engine)."""

import pytest

from repro.sim.engine import SimClockError, Simulator, Timeout, WaitUntil


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
    def test_events_processed_counter(self):
        sim = Simulator()

        def ticker():
            for _ in range(5):
                yield Timeout(10)

        sim.spawn(ticker())
        assert sim.run() == 50  # the queue drains at the last event
        assert sim.events_processed == 6  # spawn step + 5 ticks
