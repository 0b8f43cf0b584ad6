"""Additional event-kernel coverage: mixed callbacks/processes, fairness."""

import pytest

from repro.sim.engine import Simulator, Timeout, WaitUntil


class TestMixedScheduling:
    def test_callbacks_interleave_with_processes(self):
        sim = Simulator()
        order = []

        def proc():
            yield Timeout(10)
            order.append(("proc", sim.now))
            yield Timeout(10)
            order.append(("proc", sim.now))

        sim.spawn(proc())
        sim.schedule(5, lambda: order.append(("cb", sim.now)))
        sim.schedule(15, lambda: order.append(("cb", sim.now)))
        sim.run()
        assert order == [("cb", 5.0), ("proc", 10.0), ("cb", 15.0), ("proc", 20.0)]

    def test_callback_can_spawn_process(self):
        sim = Simulator()
        seen = []

        def late():
            yield Timeout(1)
            seen.append(sim.now)

        sim.schedule(100, lambda: sim.spawn(late()))
        sim.run()
        assert seen == [101.0]

    def test_process_exception_propagates(self):
        sim = Simulator()

        def broken():
            yield Timeout(1)
            raise RuntimeError("boom")

        sim.spawn(broken())
        with pytest.raises(RuntimeError, match="boom"):
            sim.run()

    def test_zero_timeout_runs_after_due_events(self):
        sim = Simulator()
        order = []

        def a():
            order.append("a1")
            yield Timeout(0)
            order.append("a2")

        def b():
            order.append("b1")
            yield Timeout(0)
            order.append("b2")

        sim.spawn(a())
        sim.spawn(b())
        sim.run()
        assert order == ["a1", "b1", "a2", "b2"]

    def test_many_processes_all_complete(self):
        sim = Simulator()
        done = []

        def worker(k):
            yield Timeout(k % 7 + 1)
            yield WaitUntil(50)
            done.append(k)

        for k in range(100):
            sim.spawn(worker(k))
        sim.run()
        assert sorted(done) == list(range(100))
        assert sim.now == 50

    def test_float_times_supported(self):
        sim = Simulator()
        times = []

        def proc():
            yield Timeout(0.5)
            times.append(sim.now)
            yield Timeout(0.25)
            times.append(sim.now)

        sim.spawn(proc())
        sim.run()
        assert times == [0.5, 0.75]
