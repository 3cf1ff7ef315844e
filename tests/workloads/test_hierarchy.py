"""The H-MLBN registration load model: one plan cursor per campus.

``RegistrationLoadModel.install`` plans every modeled move up front and
arms a single self-advancing queue entry that walks the plan — one
event per move, one heap entry per campus.
"""

from repro.netsim import Simulator
from repro.workloads.hierarchy import HierarchyModel, RegistrationLoadModel


def _model(sim, n_hosts=500, moves_per_host=2, exported=None):
    return RegistrationLoadModel(
        sim,
        HierarchyModel(n_campuses=4, depth=2),
        campus=1,
        n_hosts=n_hosts,
        moves_per_host=moves_per_host,
        horizon=6.0,
        seed=11,
        exporter=None if exported is None else (
            lambda dst, arrival, record: exported.append((dst, arrival))
        ),
    )


class TestPlanCursor:
    def test_install_adds_exactly_one_queue_entry(self):
        sim = Simulator(seed=1)
        load = _model(sim)
        assert load.install() == 1000
        assert sim.queue.heap_size == 1 and len(sim.queue) == 1

    def test_one_event_per_planned_move(self):
        sim = Simulator(seed=1)
        load = _model(sim)
        planned = load.install()
        sim.run(until=6.0)
        assert sim.events_processed == planned
        assert load.moves_local + load.moves_cross == planned
        assert sim.queue.heap_size == 0

    def test_move_runs_once_per_planned_move_in_plan_order(self, monkeypatch):
        # Wrap the class attribute the way a layer profiler does: the
        # cursor must look ``_move`` up on every call.
        calls = []
        original = RegistrationLoadModel._move

        def counted(self, dst):
            calls.append((self.sim.now, dst))
            return original(self, dst)

        sim = Simulator(seed=1)
        load = _model(sim)
        load.install()
        monkeypatch.setattr(RegistrationLoadModel, "_move", counted)
        sim.run(until=6.0)
        assert calls == list(zip(load._times, load._dsts))

    def test_cross_campus_moves_export_at_now_plus_delay(self):
        exported = []
        sim = Simulator(seed=1)
        load = _model(sim, exported=exported)
        load.install()
        sim.run(until=6.0)
        assert len(exported) == load.moves_cross == load.updates_out > 0
        assert exported == [
            (dst, t + load.model.delay(1, dst))
            for t, dst in zip(load._times, load._dsts)
            if dst != 1
        ]

    def test_empty_plan_schedules_nothing(self):
        sim = Simulator(seed=1)
        load = _model(sim, n_hosts=0)
        assert load.install() == 0
        assert sim.queue.heap_size == 0
        sim.run(until=6.0)
        assert load.summary()["signaling_units"] == 0

    def test_signaling_counts_match_the_plan(self):
        sim = Simulator(seed=1)
        load = _model(sim)
        load.install()
        sim.run(until=6.0)
        levels = [load.model.lca_level(1, dst) for dst in load._dsts]
        summary = load.summary()
        assert summary["moves_cross"] == sum(1 for level in levels if level)
        assert summary["signaling_units"] == sum(1 + level for level in levels)
        assert summary["signaling_by_level"]["0"] == len(levels)


def test_same_seed_same_plan_and_summary():
    first, second = Simulator(seed=1), Simulator(seed=1)
    a, b = _model(first), _model(second)
    a.install()
    b.install()
    assert a._times == b._times and a._dsts == b._dsts
    first.run(until=6.0)
    second.run(until=6.0)
    assert a.summary() == b.summary()
    assert first.events_processed == second.events_processed == 1000
