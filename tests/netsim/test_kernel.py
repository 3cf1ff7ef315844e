"""The event kernel: ``Simulator.run`` must be observably identical to
the naive reference loop ``while sim.step(): ...``.

``run()`` works on the queue and clock internals directly instead of
going through ``EventQueue.pop()`` once per event; these tests pin that
shortcut mechanically against the reference — randomized interleavings,
same-tick storms with cancellation, bulk entries, the ``until``
boundary, ``max_events`` stops, and exceptions thrown mid-tick.
Scenario-level byte identity is pinned by the golden figure-1 trace
(``tests/core/test_golden_trace.py``) and the conformance corpus
(``tests/wire/test_conformance.py``).
"""

import random
from functools import partial

import pytest

from repro.errors import SimulationError
from repro.netsim import Simulator
from repro.netsim.events import BULK_LABEL, EventQueue


def _reference_run(sim: Simulator) -> int:
    """Drain ``sim`` one ``step()`` at a time; returns events executed."""
    executed = 0
    while sim.step():
        executed += 1
    return executed


# ----------------------------------------------------------------------
# Randomized equivalence with the reference loop
# ----------------------------------------------------------------------
def _build_workload(sim: Simulator, seed: int, log: list) -> None:
    """A churny mixed schedule: same-tick storms, chained rescheduling,
    timers that cancel each other, and bulk entries."""
    rng = random.Random(seed)

    def note(tag):
        log.append((sim.now, tag))

    def chain(tag, depth):
        note(tag)
        if depth > 0:
            # Zero delays land on the current timestamp but with a later
            # sequence number, so they run after every existing tie.
            delay = rng.choice([0.0, 0.0, 0.25, 1.0])
            sim.schedule(delay, partial(chain, tag + "+", depth - 1))

    # Same-tick storms at a few instants, interleaved with chains.
    for storm in range(3):
        at = float(storm)
        for i in range(rng.randint(5, 20)):
            sim.schedule_at(at, partial(note, f"storm{storm}.{i}"))
        sim.schedule_at(at, partial(chain, f"chain{storm}", rng.randint(1, 4)))

    # Bulk entries sharing ticks with regular events.
    sim.schedule_bulk(1.0, [partial(note, f"bulk{i}") for i in range(8)])
    sim.schedule_many(
        (rng.choice([0.0, 1.0, 2.0, 2.5]), partial(note, f"many{i}"))
        for i in range(10)
    )

    # Timers: some fire, some are cancelled by an earlier event at the
    # very same timestamp.
    timers = [sim.timer(partial(note, f"timer{i}")) for i in range(6)]
    for i, timer in enumerate(timers):
        timer.start(rng.choice([0.5, 1.0, 2.0]))
    sim.schedule_at(1.0, lambda: timers[3].cancel())
    sim.schedule_at(2.0, lambda: (timers[5].cancel(), note("canceller"))[1])


def _run(seed: int, reference: bool):
    sim = Simulator(seed=0)
    log = []
    _build_workload(sim, seed, log)
    executed = _reference_run(sim) if reference else sim.run()
    return log, executed, sim.now, sim.events_processed, sim.queue.state_dict()


@pytest.mark.parametrize("seed", range(10))
def test_randomized_schedules_match_reference(seed):
    assert _run(seed, reference=False) == _run(seed, reference=True)


# ----------------------------------------------------------------------
# Same-tick semantics
# ----------------------------------------------------------------------
def _storm_with_same_tick_cancel(reference: bool):
    sim = Simulator()
    log = []
    for i in range(3):
        sim.schedule_at(1.0, partial(log.append, i))

    def killer():
        log.append("killer")
        victim.cancel()
        sim.queue.note_cancelled()

    sim.schedule_at(1.0, killer)
    victim = sim.schedule_at(1.0, partial(log.append, "victim"))
    sim.schedule_at(1.0, partial(log.append, "tail"))
    if reference:
        _reference_run(sim)
    else:
        sim.run()
    return log, sim.events_processed, len(sim.queue)


def test_same_tick_cancellation_matches_reference():
    kernel = _storm_with_same_tick_cancel(reference=False)
    assert kernel == _storm_with_same_tick_cancel(reference=True)
    assert kernel[0] == [0, 1, 2, "killer", "tail"]  # victim skipped


def test_bulk_entries_fire_fifo_among_ties(sim):
    order = []
    sim.schedule_bulk(1.0, [partial(order.append, i) for i in range(50)])
    sim.run()
    assert order == list(range(50))


def test_events_scheduled_at_the_current_tick_run_after_its_ties(sim):
    """A zero-delay event born at a tick gets a higher sequence number
    and must run after every pre-existing tie."""
    order = []
    sim.schedule_at(1.0, lambda: (order.append("first"), sim.schedule(0.0, partial(order.append, "born"))))
    sim.schedule_at(1.0, partial(order.append, "second"))
    sim.run()
    assert order == ["first", "second", "born"]


def test_until_boundary_between_ticks(sim):
    fired = []
    for t in (1.0, 1.0, 1.0, 2.0, 2.0):
        sim.schedule_at(t, partial(fired.append, t))
    executed = sim.run(until=1.5)
    assert fired == [1.0, 1.0, 1.0]
    assert executed == 3 and sim.now == 1.5
    sim.run()
    assert fired == [1.0, 1.0, 1.0, 2.0, 2.0]


# ----------------------------------------------------------------------
# Early stops inside a tick: counters stay exact, the tail survives
# ----------------------------------------------------------------------
def test_max_events_stops_inside_a_tick_and_resumes(sim):
    order = []
    for i in range(10):
        sim.schedule_at(1.0, partial(order.append, i))
    executed = sim.run(max_events=4)
    assert executed == 4
    assert order == [0, 1, 2, 3]
    assert sim.events_processed == 4
    assert len(sim.queue) == 6
    sim.run()
    assert order == list(range(10))
    assert sim.events_processed == 10 and not sim.queue


def test_exception_inside_a_tick_leaves_counters_exact(sim):
    order = []

    def boom():
        order.append("boom")
        raise RuntimeError("mid-tick failure")

    for i in range(5):
        sim.schedule_at(1.0, partial(order.append, i))
    sim.schedule_at(1.0, boom)
    for i in range(5, 9):
        sim.schedule_at(1.0, partial(order.append, i))
    with pytest.raises(RuntimeError):
        sim.run()
    # The raising event counts as executed; the unrun tail stays queued
    # and a later run completes it in order.
    assert order == [0, 1, 2, 3, 4, "boom"]
    assert sim.events_processed == 6
    assert len(sim.queue) == 4
    sim.run()
    assert order == [0, 1, 2, 3, 4, "boom", 5, 6, 7, 8]


def test_run_rejects_reentrant_calls(sim):
    caught = []

    def reenter():
        try:
            sim.run()
        except SimulationError as exc:
            caught.append(str(exc))

    sim.schedule_at(1.0, reenter)
    sim.run()
    assert caught and "re-entrantly" in caught[0]


# ----------------------------------------------------------------------
# Bulk entries through the queue's public contract
# ----------------------------------------------------------------------
class TestBulkQueueContract:
    def test_pop_wraps_bulk_entries_as_events(self):
        q = EventQueue()
        q.push_bulk(2.0, [lambda: "a", lambda: "b"])
        first = q.pop()
        assert first.time == 2.0 and first.label == BULK_LABEL
        assert first.sequence == 0
        assert q.pop().sequence == 1
        assert q.pop() is None

    def test_push_many_orders_by_time_then_insertion(self):
        q = EventQueue()
        tags = []
        q.push_many(
            [
                (3.0, partial(tags.append, "late")),
                (1.0, partial(tags.append, "early-a")),
                (1.0, partial(tags.append, "early-b")),
            ]
        )
        while (event := q.pop()) is not None:
            event.action()
        assert tags == ["early-a", "early-b", "late"]

    def test_iter_pending_sees_bulk_and_live_events(self):
        q = EventQueue()
        q.push(1.0, lambda: None, label="real")
        cancelled = q.push(1.0, lambda: None)
        cancelled.cancel()
        q.push_bulk(2.0, [lambda: None])
        labels = sorted(event.label for event in q.iter_pending())
        assert labels == [BULK_LABEL, "real"]

    def test_negative_times_rejected(self):
        q = EventQueue()
        with pytest.raises(SimulationError):
            q.push_bulk(-1.0, [lambda: None])
        with pytest.raises(SimulationError):
            q.push_many([(-0.5, lambda: None)])

    def test_schedule_many_rejects_past_times(self, sim):
        sim.schedule_at(1.0, lambda: None)
        sim.run(until=2.0)
        with pytest.raises(SimulationError):
            sim.schedule_many([(1.0, lambda: None)])


# ----------------------------------------------------------------------
# Queue counter snapshot round-trip (the _cancelled_pending regression)
# ----------------------------------------------------------------------
class TestQueueStateRoundTrip:
    def test_event_queue_load_state_restores_counters(self):
        q = EventQueue()
        events = [q.push(1.0, lambda: None) for _ in range(10)]
        for event in events[:4]:
            event.cancel()
            q.note_cancelled()
        fresh = EventQueue()
        fresh.load_state(q.state_dict())
        assert fresh.sequence == q.sequence == 10
        # Before load_state existed the estimate silently reset to 0
        # on restore, skewing when the restored queue would compact.
        assert fresh.cancelled_pending == q.cancelled_pending == 4
        assert fresh.compactions == q.compactions

    def test_simulator_load_state_restores_queue_counters(self):
        import copy

        churny = Simulator(seed=7)
        timers = [churny.timer(lambda: None) for _ in range(50)]
        for timer in timers:
            timer.start(5.0)
        for timer in timers[:30]:
            timer.cancel()
        state = churny.state_dict()

        restored = Simulator(seed=7)
        # Mimic the session snapshot: the heap (callables) rides the
        # deepcopy; state_dict carries only the bookkeeping.
        restored.queue._heap = copy.deepcopy(churny.queue._heap)
        restored.queue._live = len(churny.queue)
        restored.load_state(state)
        assert restored.queue.cancelled_pending == 30
        assert restored.queue.sequence == churny.queue.sequence

        # Compaction parity: drive both queues through identical further
        # churn and require them to compact at the same point.
        for _ in range(40):
            churny.queue.note_cancelled()
            restored.queue.note_cancelled()
            assert restored.queue.compactions == churny.queue.compactions
        assert churny.queue.compactions > 0
