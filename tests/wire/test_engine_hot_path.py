"""The engine hot path keeps its observable behaviour.

- every datagram the driver transmits on the small roaming benchmark
  spec hashes to a pinned digest, and its health summary and projected
  event sequences hash to pinned values;
- the retained event log pins no decoded packet (``EngineEvent.packet``
  is turn-scoped);
- the attachment directory answers exactly what a scan of the media
  answers;
- timer slots are dropped when a timer fires or is cancelled, and a
  stale queued fire never matches a re-armed slot.
"""

import gc
import hashlib
import importlib
import json
import random
import sys
from pathlib import Path

import pytest

from repro import backend
from repro.ip.packet import IPPacket
from repro.wire.conformance import figure1_walkthrough_spec, project_events
from repro.wire.driver import EngineDriver
from repro.wire.engine import EngineOutput, EngineWorld, TimerOp
from repro.wire.topo import build_engine_world

PERFBENCH = Path(__file__).resolve().parents[2] / "perfbench"

#: sha256 over every transmitted datagram (2-byte length + bytes), in
#: transmit order, and the counts behind it.
DATAGRAM_DIGEST = "de0785034e40eac72e0ccda458fddab910c60b1bba20748eeb01260f1b9c4824"
DATAGRAMS = 1312
EVENTS = 3224
#: sha256 of the JSON health summary and of the projected event
#: sequences of the same run through ``repro.backend.run``.
HEALTH_DIGEST = "5b4a1be8060da4bd0c2840c6c877720d1d8141f7f367780ec582f99215ca5945"
PROJECTION_DIGEST = "69e0a3b5a7ffce21d6f129f4e87d07fcebdd657f173f91c1dabe0c403c732930"


def roaming_small_spec():
    """The benchmark's roaming spec, shrunk: ``roaming_spec(1, moves=20,
    horizon=40.0, hosts=4)`` from ``perfbench/scenarios.py``."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        scenarios = importlib.import_module("scenarios")
    finally:
        sys.path.remove(str(PERFBENCH))
    return scenarios.roaming_spec(1, moves=20, horizon=40.0, hosts=4)


def _digest(value) -> str:
    return hashlib.sha256(
        json.dumps(value, sort_keys=True, default=str).encode()
    ).hexdigest()


def packets_reachable(root) -> list:
    """Every :class:`IPPacket` reachable from ``root`` through object
    references (classes, modules and functions are not followed)."""
    seen, found, stack = set(), [], [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, type(sys), type(len))):
            continue
        if callable(obj) and not isinstance(obj, (list, dict, tuple)):
            continue
        seen.add(id(obj))
        if isinstance(obj, IPPacket):
            found.append(obj)
        stack.extend(gc.get_referents(obj))
    return found


class TestByteIdentity:
    def test_transmitted_datagrams_match_the_pinned_digest(self):
        digest = hashlib.sha256()
        sent = []

        class Recording(EngineDriver):
            def _transmit(self, node, datagram):
                digest.update(len(datagram.data).to_bytes(2, "big") + datagram.data)
                sent.append(1)
                super()._transmit(node, datagram)

        spec = roaming_small_spec()
        driver = Recording(build_engine_world(spec.topology))
        driver.install_spec(spec)
        driver.run(until=spec.horizon)
        assert (len(sent), len(driver.events)) == (DATAGRAMS, EVENTS)
        assert digest.hexdigest() == DATAGRAM_DIGEST

    def test_health_and_projection_match_the_pinned_digests(self):
        result = backend.run(roaming_small_spec(), "engine")
        assert result.events == EVENTS
        assert _digest(result.health) == HEALTH_DIGEST
        assert _digest(project_events(e for _, e in result.trace)) == PROJECTION_DIGEST


class TestEventLog:
    def test_engine_log_pins_no_packet(self):
        result = backend.run(roaming_small_spec(), "engine")
        assert any(e.category.startswith("packet.") for _, e in result.trace)
        assert all(e.packet is None for _, e in result.trace)
        assert packets_reachable(result.trace) == []

    def test_live_log_pins_no_packet(self):
        run = backend.run(figure1_walkthrough_spec(), "live", speed=40.0).detail
        assert any(e.category.startswith("packet.") for _, e in run.events)
        assert packets_reachable(run.events) == []

    def test_packet_is_readable_during_the_turn(self):
        """The health feed sees the packet while the turn is processed."""
        seen = []

        class Probe:
            def consume(self, time, event):
                if event.category.startswith("packet."):
                    seen.append(event.packet)

        driver = EngineDriver(build_engine_world({"kind": "figure1"}))
        driver.feed = Probe()
        driver.schedule_move(0.0, 0, -1)
        driver.run(until=3.0)
        assert seen and all(isinstance(p, IPPacket) for p in seen)


# ----------------------------------------------------------------------
# Attachment directory
# ----------------------------------------------------------------------
def scan_medium_of(world: EngineWorld, node: str, iface: str):
    """The reference answer: the first medium, in order, listing it."""
    for medium, members in world.media.items():
        if (node, iface) in members:
            return medium
    return None


class TestAttachmentDirectory:
    NODES = ("A", "B", "C", "D")
    IFACES = ("eth0", "wlan0")
    MEDIA = ("lan", "cell0", "cell1", "cell2", "backbone")

    def _random_state(self, rng):
        media = {}
        for medium in rng.sample(self.MEDIA, rng.randrange(len(self.MEDIA) + 1)):
            media[medium] = [
                [rng.choice(self.NODES), rng.choice(self.IFACES)]
                for _ in range(rng.randrange(4))  # duplicates included
            ]
        return {"seed": 0, "media": media, "nodes": {}}

    @pytest.mark.parametrize("seed", range(20))
    def test_random_sequence_matches_a_scan(self, seed):
        rng = random.Random(seed)
        world = EngineWorld()
        for _ in range(300):
            roll = rng.random()
            node, iface = rng.choice(self.NODES), rng.choice(self.IFACES)
            if roll < 0.55:
                world.attach(rng.choice(self.MEDIA), node, iface)
            elif roll < 0.9:
                world.detach(node, iface)
            elif roll < 0.95:
                world.load_state(self._random_state(rng))
            else:
                world.load_state(json.loads(json.dumps(world.state_dict())))
            for n in self.NODES:
                for i in self.IFACES:
                    assert world.medium_of(n, i) == scan_medium_of(world, n, i)

    def test_interface_on_two_media_answers_the_earlier_medium(self):
        world = EngineWorld()
        world.attach("first", "X", "eth9")  # creates "first" before "second"
        world.detach("X", "eth9")
        world.attach("second", "A", "eth0")
        world.attach("first", "A", "eth0")
        assert world.medium_of("A", "eth0") == "first"
        world.detach("A", "eth0")
        assert world.medium_of("A", "eth0") is None

    def test_state_dict_shape_is_unchanged(self):
        world = EngineWorld(seed=7)
        world.attach("lan", "A", "eth0")
        assert world.state_dict() == {
            "seed": 7, "media": {"lan": [["A", "eth0"]]}, "nodes": {},
        }


# ----------------------------------------------------------------------
# Timer slots
# ----------------------------------------------------------------------
class TestTimerSlots:
    @pytest.mark.parametrize("first, again", [(3.0, 1.0), (1.0, 3.0)])
    def test_armed_cancelled_rearmed_fires_once(self, first, again):
        driver = EngineDriver(build_engine_world({"kind": "figure1"}))
        node = next(iter(driver.world.nodes.values()))
        fired = []

        def callback():
            fired.append(driver.now)
            # Stay installed, so only the driver can discard a stale fire.
            node._timers["unit-test"] = callback

        def turn(delay):
            out = EngineOutput()
            node._timers["unit-test"] = callback
            out.timers.append(TimerOp(key="unit-test", delay=delay))
            driver.process(node, out)

        turn(first)
        turn(None)  # cancel: the slot is dropped
        turn(again)
        driver.run(until=10.0)
        assert fired == [again]

    def test_slots_are_bounded_by_the_armed_timers(self):
        spec = roaming_small_spec()
        driver = EngineDriver(build_engine_world(spec.topology))
        driver.install_spec(spec)
        driver.run(until=spec.horizon)
        queued = sum(1 for _, _, action in driver._heap if action[0] == "timer")
        assert 0 < len(driver._timer_slots) <= queued
        armed = sum(len(node._timers) for node in driver.world.nodes.values())
        assert len(driver._timer_slots) <= armed
