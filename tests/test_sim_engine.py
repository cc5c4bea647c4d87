"""Unit tests for the event queue and simulator loop.

Every simulator test runs its scenario once per engine observation
mode (``run_in_observation_modes`` in ``conftest.py``), which also
checks that observation leaves the run unchanged.
"""

import pytest

from conftest import run_in_observation_modes

from repro.sim.engine import EventQueue


class TestEventQueue:
    def test_orders_by_time(self):
        q = EventQueue()
        q.push(30, "c")
        q.push(10, "a")
        q.push(20, "b")
        assert [q.pop()[1] for _ in range(3)] == ["a", "b", "c"]

    def test_ties_break_by_insertion_order(self):
        q = EventQueue()
        q.push(5, "first")
        q.push(5, "second")
        q.push(5, "third")
        assert [q.pop()[1] for _ in range(3)] == ["first", "second",
                                                  "third"]

    def test_peek_time(self):
        q = EventQueue()
        assert q.peek_time() is None
        q.push(42, "x")
        assert q.peek_time() == 42
        assert len(q) == 1

    def test_negative_time_rejected(self):
        q = EventQueue()
        with pytest.raises(ValueError):
            q.push(-1, "x")

    def test_clear_and_bool(self):
        q = EventQueue()
        assert not q
        q.push(1, "x")
        assert q
        q.clear()
        assert not q


class TestSimulator:
    def test_runs_actor_until_retired(self):
        def scenario(sim):
            calls = []

            def actor(now):
                calls.append(now)
                return now + 10 if len(calls) < 3 else None

            sim.schedule(0, actor)
            final = sim.run()
            assert calls == [0, 10, 20]
            assert final == 20

        run_in_observation_modes(scenario)

    def test_until_bound_is_respected(self):
        def scenario(sim):
            calls = []

            def actor(now):
                calls.append(now)
                return now + 10

            sim.schedule(0, actor)
            sim.run(until=25)
            assert calls == [0, 10, 20]
            # The simulation can be resumed where it stopped.
            sim.run(until=45)
            assert calls == [0, 10, 20, 30, 40]

        run_in_observation_modes(scenario)

    def test_interleaves_two_actors_by_time(self):
        def scenario(sim):
            order = []

            def make(name, period, n):
                state = {"count": 0}

                def actor(now):
                    order.append((name, now))
                    state["count"] += 1
                    return now + period if state["count"] < n else None
                return actor

            sim.schedule(0, make("fast", 5, 4))
            sim.schedule(0, make("slow", 12, 2))
            sim.run()
            times = [t for _n, t in order]
            assert times == sorted(times)
            assert ("slow", 12) in order and ("fast", 15) in order

        run_in_observation_modes(scenario)

    def test_global_hook_fires_between_events(self):
        def scenario(sim):
            hook_calls = []

            def actor(now):
                return now + 10 if now < 100 else None

            def hook(trigger):
                hook_calls.append(trigger)
                return trigger + 50 if trigger < 60 else None

            sim.schedule(0, actor)
            sim.set_global_hook(25, hook)
            sim.run()
            assert hook_calls == [25, 75]

        run_in_observation_modes(scenario)

    def test_hook_can_stop_rescheduling(self):
        def scenario(sim):

            def actor(now):
                return now + 10 if now < 50 else None

            def hook(trigger):
                return None            # one-shot hook

            sim.schedule(0, actor)
            sim.set_global_hook(15, hook)
            final = sim.run()
            assert final == 50

        run_in_observation_modes(scenario)

    def test_drain_rebuild_reschedules_everyone(self):
        def scenario(sim):
            seen = []

            def make(name):
                def actor(now):
                    seen.append((name, now))
                    return None
                return actor

            a, b = make("a"), make("b")
            sim.schedule(5, a)
            sim.schedule(7, b)
            sim.drain_rebuild(lambda actor: 100)
            sim.run()
            assert sorted(seen) == [("a", 100), ("b", 100)]

        run_in_observation_modes(scenario)

    def test_drain_rebuild_can_drop_actors(self):
        def scenario(sim):
            seen = []

            def actor(now):
                seen.append(now)
                return None

            sim.schedule(5, actor)
            sim.drain_rebuild(lambda a: None)
            sim.run()
            assert seen == []

        run_in_observation_modes(scenario)

    def test_actor_scheduled_mid_run_is_dispatched(self):
        def scenario(sim):
            seen = []

            def child(now):
                seen.append(("child", now))
                return None

            def parent(now):
                seen.append(("parent", now))
                if now == 0:
                    sim.schedule(5, child)
                    return 10
                return None

            sim.schedule(0, parent)
            sim.run()
            assert seen == [("parent", 0), ("child", 5), ("parent", 10)]
            assert sim.activations == 3

        run_in_observation_modes(scenario)
