"""The DES kernel: ordering, cancellation, budgets, processes."""

import pytest

from repro.des.process import Timeout
from repro.des.simulator import Simulator
from repro.errors import SimulationError


class TestOrdering:
    def test_time_order(self):
        sim, log = Simulator(), []
        sim.schedule(2.0, log.append, "late")
        sim.schedule(1.0, log.append, "early")
        sim.run()
        assert log == ["early", "late"]

    def test_priority_breaks_ties(self):
        sim, log = Simulator(), []
        sim.schedule(1.0, log.append, "start", priority=1)
        sim.schedule(1.0, log.append, "end", priority=0)
        sim.run()
        assert log == ["end", "start"]

    def test_insertion_order_breaks_remaining_ties(self):
        sim, log = Simulator(), []
        for i in range(5):
            sim.schedule(1.0, log.append, i)
        sim.run()
        assert log == [0, 1, 2, 3, 4]

    def test_clock_advances(self):
        sim = Simulator()
        times = []
        sim.schedule(1.5, lambda: times.append(sim.now))
        sim.schedule(3.0, lambda: times.append(sim.now))
        sim.run()
        assert times == [1.5, 3.0]

    def test_callbacks_can_schedule_more(self):
        sim, log = Simulator(), []

        def chain(n):
            log.append(n)
            if n < 3:
                sim.schedule(1.0, chain, n + 1)

        sim.schedule(0.0, chain, 0)
        sim.run()
        assert log == [0, 1, 2, 3]
        assert sim.now == 3.0


class TestScheduleValidation:
    def test_negative_delay(self):
        with pytest.raises(SimulationError):
            Simulator().schedule(-1.0, print)

    def test_past_absolute_time(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(1.0, print)

    def test_nan_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule(float("nan"), print)


class TestCancel:
    def test_cancelled_event_skipped(self):
        sim, log = Simulator(), []
        handle = sim.schedule(1.0, log.append, "x")
        handle.cancel()
        sim.run()
        assert log == []
        assert handle.cancelled

    def test_cancel_idempotent(self):
        sim = Simulator()
        h = sim.schedule(1.0, lambda: None)
        h.cancel()
        h.cancel()
        sim.run()

    def test_cancel_after_execution_harmless(self):
        sim, log = Simulator(), []
        h = sim.schedule(1.0, log.append, "x")
        sim.run()
        h.cancel()
        assert log == ["x"]


class TestRunControls:
    def test_until_stops_and_advances_clock(self):
        sim, log = Simulator(), []
        sim.schedule(1.0, log.append, "a")
        sim.schedule(10.0, log.append, "b")
        sim.run(until=5.0)
        assert log == ["a"]
        assert sim.now == 5.0
        sim.run()
        assert log == ["a", "b"]

    def test_max_events_guard(self):
        sim = Simulator()

        def forever():
            sim.schedule(1.0, forever)

        sim.schedule(0.0, forever)
        with pytest.raises(SimulationError, match="max_events"):
            sim.run(max_events=50)

    def test_not_reentrant(self):
        sim = Simulator()

        def nested():
            sim.run()

        sim.schedule(0.0, nested)
        with pytest.raises(SimulationError, match="re-entrant"):
            sim.run()

    def test_step_returns_false_when_empty(self):
        assert Simulator().step() is False


class TestProcesses:
    def test_generator_process(self):
        sim, log = Simulator(), []

        def proc():
            log.append(("start", sim.now))
            yield Timeout(2.0)
            log.append(("mid", sim.now))
            yield Timeout(3.0)
            log.append(("end", sim.now))

        sim.process(proc())
        sim.run()
        assert log == [("start", 0.0), ("mid", 2.0), ("end", 5.0)]

    def test_negative_timeout_rejected(self):
        with pytest.raises(SimulationError):
            Timeout(-1.0)

    def test_bad_yield_raises(self):
        sim = Simulator()

        def proc():
            yield "not a timeout"

        sim.process(proc())
        with pytest.raises(SimulationError, match="Timeout"):
            sim.run()

    def test_two_processes_interleave(self):
        sim, log = Simulator(), []

        def proc(name, step):
            for _ in range(2):
                yield Timeout(step)
                log.append((name, sim.now))

        sim.process(proc("a", 1.0))
        sim.process(proc("b", 1.5))
        sim.run()
        assert log == [("a", 1.0), ("b", 1.5), ("a", 2.0), ("b", 3.0)]
