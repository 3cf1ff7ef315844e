"""The health hub builds its journey index on first read; what it returns
must equal an index that streamed every entry from attach time."""

import pytest

from repro.scenario import Session
from repro.telemetry.health import ProtocolHealth
from repro.telemetry.journeys import JourneyIndex
from repro.wire.conformance import figure1_walkthrough_spec
from repro.workloads.topology import build_figure1

#: Small enough that the figure-1 walkthrough evicts journeys.
MAX_COMPLETED = 4


def _snapshot(index):
    return {
        "journeys": [
            (j.uid, [(s.time, s.node, s.kind, s.detail) for s in j.steps])
            for j in index
        ],
        "evicted": index.evicted,
        "entries_seen": index.entries_seen,
        "in_flight": [j.uid for j in index.in_flight()],
    }


def _figure1(until_attach=0.0):
    topo = build_figure1(seed=42)
    topo.m.attach_home(topo.net_b)
    if until_attach:
        topo.sim.run(until=until_attach)
    return topo


def _hub_and_reference(sim, nodes=None):
    hub = ProtocolHealth(max_completed_journeys=MAX_COMPLETED).attach(sim, nodes=nodes)
    reference = JourneyIndex(max_completed=MAX_COMPLETED).attach(sim.tracer, replay=True)
    return hub, reference


def _drive(topo, after=None):
    """The walkthrough's tail; ``after(t)`` runs at each checkpoint."""
    sim, s, m = topo.sim, topo.s, topo.m
    for until, action in (
        (5.0, lambda: m.attach(topo.net_d)),
        (12.0, lambda: s.ping(m.home_address)),
        (16.0, lambda: m.attach(topo.net_e)),
        (24.0, lambda: s.ping(m.home_address)),
        (28.0, None),
    ):
        sim.run(until=until)
        if after is not None:
            after(until)
        if action is not None:
            action()


def test_index_is_built_on_first_read():
    topo = _figure1()
    hub, reference = _hub_and_reference(topo.sim)
    _drive(topo)
    assert hub._index.entries_seen == 0, "nothing may be fed before the first read"
    assert _snapshot(hub.index) == _snapshot(reference)
    assert reference.evicted > 0 and hub.index.journeys()


def test_index_streams_after_first_read():
    topo = _figure1()
    hub, reference = _hub_and_reference(topo.sim)

    def read_midway(t):
        if t == 12.0:
            assert _snapshot(hub.index) == _snapshot(reference)

    _drive(topo, after=read_midway)
    seen = hub._index.entries_seen
    assert seen == reference.entries_seen, "the index must stream once read"
    assert _snapshot(hub.index) == _snapshot(reference)


def test_ring_bounded_tracer_streams_from_attach():
    topo = _figure1()
    topo.sim.tracer.limit(16)
    hub, reference = _hub_and_reference(topo.sim)
    _drive(topo)
    assert hub._index.entries_seen == reference.entries_seen
    assert topo.sim.tracer.dropped > 0
    assert _snapshot(hub.index) == _snapshot(reference)


def test_clear_mid_run():
    topo = _figure1()
    hub, reference = _hub_and_reference(topo.sim)

    def clear(t):
        if t in (12.0, 24.0):
            topo.sim.tracer.clear()

    _drive(topo, after=clear)
    assert _snapshot(hub.index) == _snapshot(reference)


def test_ring_bound_set_after_attach():
    topo = _figure1()
    hub, reference = _hub_and_reference(topo.sim)

    def bound(t):
        if t == 12.0:
            topo.sim.tracer.limit(8)

    _drive(topo, after=bound)
    assert topo.sim.tracer.dropped > 0
    assert _snapshot(hub.index) == _snapshot(reference)


def test_mid_run_attach():
    topo = _figure1(until_attach=3.0)
    assert topo.sim.tracer.entries
    hub, reference = _hub_and_reference(topo.sim)
    _drive(topo)
    assert _snapshot(hub.index) == _snapshot(reference)


def test_detach_freezes_the_index():
    topo = _figure1()
    hub, reference = _hub_and_reference(topo.sim)

    def detach(t):
        if t == 16.0:
            topo.sim.detach(hub)
            topo.sim.tracer.unsubscribe(reference.observe)

    _drive(topo, after=detach)
    assert _snapshot(hub.index) == _snapshot(reference)
    assert topo.sim.tracer.listeners() == []


def test_session_fork_reads_the_same_index():
    spec = figure1_walkthrough_spec()
    spec.checkpoint = 14.0
    spec.instruments = [{"kind": "health", "max_completed_journeys": MAX_COMPLETED}]

    cold = Session(spec)
    reference = JourneyIndex(max_completed=MAX_COMPLETED).attach(cold.sim.tracer)
    cold.run_full()

    snapshot = Session(spec).run_to_checkpoint().snapshot()
    for _ in range(2):
        forked = snapshot.fork()
        forked.install_tail()
        forked.run()
        assert _snapshot(forked.telemetry.index) == _snapshot(reference)
    assert _snapshot(cold.telemetry.index) == _snapshot(reference)


@pytest.mark.parametrize("subscribe_trace", [True, False])
def test_unattached_and_unsubscribed_hubs(subscribe_trace):
    assert len(ProtocolHealth().index) == 0
    assert ProtocolHealth(journey_index=False).index is None
    topo = _figure1()
    hub = ProtocolHealth().attach(topo.sim, subscribe_trace=subscribe_trace)
    _drive(topo)
    assert (len(hub.index) > 0) is subscribe_trace
