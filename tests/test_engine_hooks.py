"""Tests for simulator hook / horizon interplay (checkpoint semantics).

Each test runs its scenario once per engine observation mode
(``run_in_observation_modes`` in ``conftest.py``): hook firings must
not depend on observation.
"""

from conftest import run_in_observation_modes


def endless_actor(period):
    def actor(now):
        return now + period
    return actor


class TestHookHorizon:
    def test_hook_due_within_until_fires_before_break(self):
        """A hook due inside the horizon fires even when the next actor
        event lies beyond it (a checkpoint at the boundary commits)."""
        def scenario(sim):
            fired = []

            def hook(trigger):
                fired.append(trigger)
                return None

            sim.schedule(0, endless_actor(1000))
            sim.set_global_hook(500, hook)
            sim.run(until=600)
            assert fired == [500]

        run_in_observation_modes(scenario)

    def test_hook_beyond_until_does_not_fire(self):
        def scenario(sim):
            fired = []

            def hook(trigger):
                fired.append(trigger)
                return None

            sim.schedule(0, endless_actor(100))
            sim.set_global_hook(5_000, hook)
            sim.run(until=1_000)
            assert fired == []
            # Resuming past the trigger fires it.
            sim.run(until=6_000)
            assert fired == [5_000]

        run_in_observation_modes(scenario)

    def test_hook_reschedules_itself(self):
        def scenario(sim):
            fired = []

            def hook(trigger):
                fired.append(trigger)
                return trigger + 300

            sim.schedule(0, endless_actor(50))
            sim.set_global_hook(100, hook)
            sim.run(until=1_000)
            assert fired == [100, 400, 700, 1_000]

        run_in_observation_modes(scenario)

    def test_hook_never_fires_without_pending_events(self):
        def scenario(sim):
            fired = []
            sim.set_global_hook(10, lambda t: fired.append(t))
            sim.run()
            assert fired == []

        run_in_observation_modes(scenario)

    def test_now_advances_through_hooks(self):
        def scenario(sim):

            def actor(now):
                return now + 400 if now < 400 else None

            sim.schedule(0, actor)
            sim.set_global_hook(200, lambda t: None)
            sim.run()
            assert sim.now == 400

        run_in_observation_modes(scenario)
