"""Trace entries are immutable record-time snapshots formatted on read,
and tracer listeners can be filtered by category or deferred."""

import copy
import pickle

import pytest

from repro.ip.packet import IPPacket, RawPayload
from repro.ip.protocols import UDP
from repro.netsim.simulator import Simulator
from repro.netsim.trace import TraceEntry, Tracer


def _packet():
    return IPPacket(src="10.0.0.1", dst="10.2.0.10", protocol=UDP,
                    payload=RawPayload.of_size(12))


class TestTraceEntry:
    def test_keyword_construction_and_attributes(self):
        entry = TraceEntry(time=1.5, category="ip.send", node="S", detail={"uid": 7})
        assert (entry.time, entry.category, entry.node) == (1.5, "ip.send", "S")
        assert entry.detail == {"uid": 7}

    def test_positional_construction_and_default_detail(self):
        entry = TraceEntry(2.0, "arp", "R1")
        assert entry.detail == {}
        assert entry == TraceEntry(time=2.0, category="arp", node="R1", detail={})

    def test_detail_formats_labels_to_their_text(self):
        packet = _packet()
        entry = TraceEntry(0.0, "ip.send", "S", {"packet": packet.trace_label(), "uid": 3})
        assert entry.detail == {"packet": repr(packet), "uid": 3}
        assert type(entry.detail["packet"]) is str

    def test_label_and_text_entries_compare_equal(self):
        packet = _packet()
        labelled = TraceEntry(0.0, "ip.send", "S", {"packet": packet.trace_label()})
        text = TraceEntry(0.0, "ip.send", "S", {"packet": repr(packet)})
        assert labelled == text
        assert not labelled != text
        assert labelled != TraceEntry(0.0, "ip.send", "S", {"packet": "other"})
        assert labelled != TraceEntry(0.5, "ip.send", "S", {"packet": repr(packet)})

    def test_str_and_repr_show_formatted_detail(self):
        packet = _packet()
        entry = TraceEntry(0.25, "ip.send", "S", {"packet": packet.trace_label(), "uid": 3})
        assert str(entry) == (
            f"[  0.250000] ip.send        S            packet={packet!r} uid=3"
        )
        assert repr(entry) == (
            f"TraceEntry(time=0.25, category='ip.send', node='S', "
            f"detail={{'packet': {repr(packet)!r}, 'uid': 3}})"
        )

    def test_deep_copies_share_the_entry(self):
        entry = TraceEntry(0.0, "ip.send", "S", {"packet": _packet().trace_label()})
        assert copy.deepcopy(entry) is entry
        assert copy.copy(entry) == entry

    def test_pickle_round_trip(self):
        packet = _packet()
        entry = TraceEntry(0.0, "ip.send", "S", {"packet": packet.trace_label(), "uid": 1})
        restored = pickle.loads(pickle.dumps(entry))
        assert type(restored) is TraceEntry
        assert restored == entry
        assert restored.detail == {"packet": repr(packet), "uid": 1}

    def test_immutable_and_unhashable(self):
        entry = TraceEntry(0.0, "ip.send", "S")
        with pytest.raises(AttributeError):
            entry.time = 1.0
        with pytest.raises(TypeError):
            hash(entry)


class TestRecord:
    def test_simulator_trace_stores_its_own_kwargs_dict(self):
        sim = Simulator(seed=0)
        sim.trace("ip.send", "S", uid=1, reason="x")
        (entry,) = sim.tracer.entries
        assert entry == TraceEntry(0.0, "ip.send", "S", {"uid": 1, "reason": "x"})

    def test_record_accepts_keywords_or_a_fields_dict(self):
        tracer = Tracer()
        tracer.record(1.0, "ip.send", "S", uid=1)
        tracer.record(2.0, "ip.send", "S", {"uid": 2})
        # ``detail`` is an ordinary keyword, not the positional dict.
        tracer.record(3.0, "ip.send", "S", detail="d")
        assert [e.detail for e in tracer.entries] == [{"uid": 1}, {"uid": 2}, {"detail": "d"}]


class TestCategorySubscription:
    def test_filtered_listener_sees_only_its_categories(self):
        tracer = Tracer()
        everything, tunnels = [], []
        tracer.subscribe(everything.append)
        tracer.subscribe(tunnels.append, categories={"mhrp.tunnel"})
        for category in ("ip.send", "mhrp.tunnel", "link.tx", "mhrp.tunnel"):
            tracer.record(0.0, category, "n")
        assert len(everything) == 4
        assert [e.category for e in tunnels] == ["mhrp.tunnel"] * 2

    def test_unsubscribe_and_listener_count(self):
        tracer = Tracer()
        seen = []
        tracer.subscribe(seen.append, categories={"mhrp.loop"})
        assert tracer.state_dict()["n_listeners"] == 1
        tracer.record(0.0, "mhrp.loop", "n")
        assert tracer.unsubscribe(seen.append)
        assert not tracer.unsubscribe(seen.append)
        tracer.record(1.0, "mhrp.loop", "n")
        assert len(seen) == 1
        assert tracer.state_dict()["n_listeners"] == 0

    def test_filtered_listener_respects_restrict(self):
        tracer = Tracer()
        seen = []
        tracer.subscribe(seen.append, categories={"mhrp.loop"})
        tracer.restrict({"ip.send"})
        tracer.record(0.0, "mhrp.loop", "n")
        assert seen == []


class TestDeferredListener:
    def test_fed_on_catch_up_then_streams(self):
        tracer = Tracer()
        tracer.record(0.0, "ip.send", "n", seq=0)
        seen = []
        tracer.defer(seen.append)
        tracer.record(1.0, "ip.send", "n", seq=1)
        assert seen == []
        assert tracer.state_dict()["n_listeners"] == 1
        tracer.catch_up(seen.append)
        tracer.record(2.0, "ip.send", "n", seq=2)
        assert [e.detail["seq"] for e in seen] == [0, 1, 2]
        tracer.catch_up(seen.append)  # already live: nothing replayed
        assert len(seen) == 3

    def test_clear_feeds_deferred_listeners_first(self):
        tracer = Tracer()
        seen = []
        tracer.defer(seen.append)
        tracer.record(0.0, "ip.send", "n", seq=0)
        tracer.clear()
        tracer.record(1.0, "ip.send", "n", seq=1)
        assert [e.detail["seq"] for e in seen] == [0, 1]

    def test_switch_to_ring_feeds_deferred_listeners_first(self):
        tracer = Tracer()
        seen = []
        tracer.defer(seen.append)
        for i in range(4):
            tracer.record(float(i), "ip.send", "n", seq=i)
        tracer.limit(2)
        tracer.record(4.0, "ip.send", "n", seq=4)
        assert [e.detail["seq"] for e in seen] == [0, 1, 2, 3, 4]

    def test_ring_bounded_tracer_feeds_at_once(self):
        tracer = Tracer(max_entries=2)
        tracer.record(0.0, "ip.send", "n", seq=0)
        seen = []
        tracer.defer(seen.append)
        assert len(seen) == 1
        for i in range(1, 4):
            tracer.record(float(i), "ip.send", "n", seq=i)
        assert [e.detail["seq"] for e in seen] == [0, 1, 2, 3]

    def test_unsubscribe_feeds_what_is_owed(self):
        tracer = Tracer()
        seen = []
        tracer.defer(seen.append)
        tracer.record(0.0, "ip.send", "n")
        assert tracer.unsubscribe(seen.append)
        tracer.record(1.0, "ip.send", "n")
        assert len(seen) == 1
        assert tracer.listeners() == []
