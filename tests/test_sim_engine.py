"""Unit tests for the discrete-event simulation core."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import SimulationError, Simulator


class TestScheduling:
    def test_clock_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_events_run_in_time_order(self):
        sim = Simulator()
        seen = []
        sim.schedule(2.0, seen.append, "late")
        sim.schedule(1.0, seen.append, "early")
        sim.run()
        assert seen == ["early", "late"]

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        sim.schedule(3.5, lambda: None)
        sim.run()
        assert sim.now == 3.5

    def test_ties_run_in_schedule_order(self):
        sim = Simulator()
        seen = []
        for label in ("a", "b", "c"):
            sim.schedule(1.0, seen.append, label)
        sim.run()
        assert seen == ["a", "b", "c"]

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule(-0.1, lambda: None)

    def test_nan_delay_rejected(self):
        # A NaN delay would make the clock NaN; the check must not be
        # written as ``delay < 0``, which NaN passes.
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(float("nan"), lambda: None)
        with pytest.raises(SimulationError):
            sim.schedule_at(float("nan"), lambda: None)
        assert sim.pending_events == 0

    def test_schedule_at_absolute_time(self):
        sim = Simulator()
        seen = []
        sim.schedule_at(5.0, seen.append, "x")
        sim.run()
        assert seen == ["x"]
        assert sim.now == 5.0

    def test_callbacks_can_schedule_more_events(self):
        sim = Simulator()
        seen = []

        def chain(n):
            seen.append(n)
            if n < 3:
                sim.schedule(1.0, chain, n + 1)

        sim.schedule(0.0, chain, 0)
        sim.run()
        assert seen == [0, 1, 2, 3]
        assert sim.now == 3.0


class TestCancellation:
    def test_cancelled_event_does_not_run(self):
        sim = Simulator()
        seen = []
        event = sim.schedule(1.0, seen.append, "never")
        event.cancel()
        sim.run()
        assert seen == []

    def test_cancelled_events_do_not_advance_clock(self):
        sim = Simulator()
        event = sim.schedule(9.0, lambda: None)
        sim.schedule(1.0, lambda: None)
        event.cancel()
        sim.run()
        assert sim.now == 1.0


class TestRunUntil:
    def test_run_until_stops_before_later_events(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, seen.append, "a")
        sim.schedule(5.0, seen.append, "b")
        sim.run(until=2.0)
        assert seen == ["a"]
        assert sim.now == 2.0

    def test_run_until_then_resume(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, seen.append, "a")
        sim.schedule(5.0, seen.append, "b")
        sim.run(until=2.0)
        sim.run()
        assert seen == ["a", "b"]
        assert sim.now == 5.0

    def test_run_until_advances_clock_with_empty_queue(self):
        sim = Simulator()
        sim.run(until=7.0)
        assert sim.now == 7.0


class TestStep:
    def test_step_runs_exactly_one_event(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, seen.append, "a")
        sim.schedule(2.0, seen.append, "b")
        assert sim.step() is True
        assert seen == ["a"]

    def test_step_on_empty_queue_returns_false(self):
        assert Simulator().step() is False

    def test_processed_event_counter(self):
        sim = Simulator()
        for _ in range(4):
            sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.processed_events == 4


class TestKernelHeapOrder:
    """The event heap must pop strictly in ``(time, seq)`` order.

    This property drives the flat array-backed heap through interleaved
    push / pop / cancel traffic and asserts the fire order equals the
    ``(time, insertion)`` sort of the surviving events — the determinism
    contract every trace digest in this repository depends on.
    """

    @given(
        batches=st.lists(
            st.lists(
                st.floats(
                    min_value=0.0,
                    max_value=10.0,
                    allow_nan=False,
                    allow_infinity=False,
                ),
                max_size=4,
            ),
            min_size=1,
            max_size=8,
        ),
        cancel_every=st.integers(min_value=0, max_value=3),
    )
    @settings(max_examples=100, deadline=None)
    def test_interleaved_push_pop_fire_order(self, batches, cancel_every):
        sim = Simulator()
        fired: list[int] = []
        created: list[tuple[float, int]] = []  # (absolute time, label)
        cancelled: set[int] = set()

        def push(delay: float) -> None:
            label = len(created)
            event = sim.schedule(delay, fired.append, label)
            created.append((sim.now + delay, label))
            if cancel_every and label % (cancel_every + 1) == cancel_every:
                event.cancel()
                cancelled.add(label)

        for delay in batches[0]:
            push(delay)
        # Interleave: one pop per remaining batch, pushing the batch's
        # events (relative to the advanced clock) after the pop.
        for batch in batches[1:]:
            sim.step()
            for delay in batch:
                push(delay)
        sim.run()

        expected = [
            label
            for _, label in sorted(
                (time, label)
                for time, label in created
                if label not in cancelled
            )
        ]
        assert fired == expected

    @given(count=st.integers(min_value=2, max_value=20))
    @settings(max_examples=50, deadline=None)
    def test_same_time_events_fire_in_schedule_order(self, count):
        sim = Simulator()
        fired: list[int] = []
        for i in range(count):
            sim.schedule(1.0, fired.append, i)
        sim.run()
        assert fired == list(range(count))
