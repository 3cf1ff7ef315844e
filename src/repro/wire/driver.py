"""Deterministic in-process driver for engine worlds.

The sans-io engines in :mod:`repro.wire.engine` never touch a clock or a
socket; someone has to deliver their datagrams, fire their timers, and
apply their schedules.  This module is the reference driver: a single
``(time, sequence)``-ordered event heap, per-medium propagation latency,
and an adapter that feeds every :class:`~repro.wire.engine.EngineEvent`
into :class:`~repro.telemetry.health.ProtocolHealth` through exactly the
channels the simulator uses (direct hooks for packet lifecycle and
telemetry feeds, synthesized :class:`~repro.netsim.trace.TraceEntry`
records for the ``mhrp.*`` tracer vocabulary).

The live UDP backend (:mod:`repro.live`) reuses :class:`HealthFeed` and
the schedule translation verbatim — only the transport and the clock
differ — which is what makes the cross-backend conformance diff
meaningful: both backends observe the protocol through the same lens.
"""

from __future__ import annotations

import heapq
import itertools
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.ip.address import IPAddress
from repro.netsim.trace import TraceEntry
from repro.wire.engine import Datagram, EngineEvent, EngineOutput, NodeEngine
from repro.wire.topo import EngineTopology

#: Media latencies mirroring the simulator topology builders' defaults.
LAN_LATENCY = 0.001
WIRELESS_LATENCY = 0.003


class HealthFeed:
    """Feed :class:`~repro.telemetry.health.ProtocolHealth` from engine
    events, through the same channels the simulator attachment uses.

    - ``packet.*`` events carry the decoded packet and map onto the
      direct packet-lifecycle hooks;
    - ``health.*`` events map onto the direct telemetry feeds;
    - everything else (``mhrp.*``, ``icmp.echo``, ``fault``) becomes a
      :class:`TraceEntry` pushed through the tracer channel, so the
      trace-driven analytics (tunnel chains, loop dissolution latency,
      registration give-ups) see the identical vocabulary.
    """

    def __init__(self, health) -> None:
        self.health = health

    def consume(self, time: float, event: EngineEvent) -> None:
        health = self.health
        category = event.category
        if category.startswith("packet."):
            if event.packet is None:
                return  # decode-error drops have no packet to account
            kind = category[len("packet."):]
            if kind == "sent":
                health.packet_sent(time, event.node, event.packet)
            elif kind == "forwarded":
                health.packet_forwarded(time, event.node, event.packet)
            elif kind == "delivered":
                health.packet_delivered(time, event.node, event.packet)
            elif kind == "dropped":
                health.packet_dropped(
                    time, event.node, event.packet, event.detail["reason"]
                )
        elif category.startswith("health."):
            kind = category[len("health."):]
            detail = event.detail
            if kind == "cache_lookup":
                health.cache_lookup(event.node, bool(detail["hit"]))
            elif kind == "mh_moved":
                health.mh_moved(time, event.node)
            elif kind == "registration_complete":
                health.registration_complete(
                    time, event.node, detail["agent"], detail["latency"]
                )
            elif kind == "tunnel_delivery":
                health.tunnel_delivery(
                    time, event.node, detail["mobile_host"],
                    detail["n_previous_sources"],
                )
        else:
            health._on_trace(TraceEntry(
                time=time, category=category, node=event.node,
                detail=dict(event.detail),
            ))


class ScheduleActions:
    """Scenario-schedule semantics shared by every engine backend
    (mirroring :class:`repro.scenario.session.Session`'s actions).

    Hosts must provide ``topo``, ``world``, ``now``, and
    ``process(node, output)``.
    """

    topo: EngineTopology

    def _apply_move(self, host_index: int, to: int) -> None:
        topo = self.topo
        index = host_index % len(topo.mobile_hosts)
        name = topo.mobile_hosts[index]
        mh = topo.mobile_host(index)
        attached = self.world.medium_of(name, mh.WIFI) is not None
        if to == -2:
            if not attached:
                return
            # Section 3 ordering: notifications go out while still
            # attached; the physical detach happens last.
            self.process(mh, mh.command(self.now, "disconnect"))
            self.world.detach(name, mh.WIFI)
            return
        self.world.detach(name, mh.WIFI)
        if to == -1:
            self.world.attach(topo.home_medium, name, mh.WIFI)
            self.process(mh, mh.command(self.now, "attach_home"))
        else:
            cell = topo.cells[to % len(topo.cells)]
            self.world.attach(cell, name, mh.WIFI)
            self.process(mh, mh.command(self.now, "attach"))

    def _apply_fault(self, name: str, kind: str) -> None:
        node_name = self.topo.fault_nodes.get(name)
        if node_name is None:
            return
        node = self.world.nodes[node_name]
        command = "crash" if kind == "crash" else "reboot"
        self.process(node, node.command(self.now, command))

    def _apply_ping(self, src_index: int, host_index: int) -> None:
        topo = self.topo
        sender = topo.correspondent(src_index % len(topo.correspondents))
        mh = topo.mobile_host(host_index % len(topo.mobile_hosts))
        self.process(
            sender, sender.command(self.now, "ping", dst=mh.home_address)
        )

    def _apply_flow(self, flow_id: int, entry: dict) -> None:
        """A scenario ``flow`` entry: start a CBR UDP stream on the
        correspondent engine (the engines' transport endpoints — the
        simulator runs :class:`repro.workloads.traffic.CBRStream`)."""
        topo = self.topo
        sender = topo.correspondent(entry["src"] % len(topo.correspondents))
        mh = topo.mobile_host(entry["host"] % len(topo.mobile_hosts))
        self.process(sender, sender.command(
            self.now, "flow",
            dst=mh.home_address,
            interval=entry["interval"],
            count=entry["count"],
            port=entry.get("port", 40000),
            payload_size=entry.get("payload_size", 64),
            flow_id=flow_id,
        ))

    def _apply_probe(self, src_index: int, host_index: int) -> None:
        topo = self.topo
        sender = topo.correspondent(src_index % len(topo.correspondents))
        mh = topo.mobile_host(host_index % len(topo.mobile_hosts))
        self.process(
            sender, sender.command(self.now, "probe", dst=mh.home_address)
        )


class EngineDriver(ScheduleActions):
    """Run an :class:`~repro.wire.topo.EngineTopology` deterministically.

    One heap orders everything — datagram arrivals, timer fires,
    scheduled commands — by ``(time, sequence)``, the same tiebreak the
    simulator's event queue uses, so two runs of the same schedule are
    byte-identical.

    Timer cancellation is generation-based: arming or cancelling a
    ``(node, key)`` timer bumps its generation, and a heap entry whose
    generation is stale is discarded on pop (the engine additionally
    pops its own callback on fire, so stale fires are doubly inert).
    """

    def __init__(
        self,
        topo: EngineTopology,
        health=None,
        obs=None,
        lan_latency: float = LAN_LATENCY,
        wireless_latency: float = WIRELESS_LATENCY,
    ) -> None:
        self.topo = topo
        self.world = topo.world
        self.now = 0.0
        self.lan_latency = lan_latency
        self.wireless_latency = wireless_latency
        self._wireless = set(topo.cells)
        self._heap: List[Tuple[float, int, tuple]] = []
        self._seq = itertools.count()
        self._timer_gen: Dict[Tuple[str, str], int] = {}
        #: Every engine event, time-stamped, in execution order — the
        #: conformance harness projects its comparisons out of this.
        self.events: List[Tuple[float, EngineEvent]] = []
        self.feed = HealthFeed(health) if health is not None else None
        #: The observability plane (:class:`repro.obs.ObsPlane`) when
        #: one is attached; every notification site is is-None guarded,
        #: so a detached run pays one attribute load per turn.
        self.obs = obs
        self.datagrams_delivered = 0
        self.datagrams_unresolved = 0
        # Boot turn: what the simulator runs at construction time
        # (periodic advertisers send their first broadcast here).
        for node in self.world.nodes.values():
            self.process(node, node.start(self.now))

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def _push(self, time: float, action: tuple) -> None:
        heapq.heappush(self._heap, (time, next(self._seq), action))

    def schedule_command(self, t: float, node: str, command: str, **kwargs) -> None:
        self._push(t, ("command", node, command, kwargs))

    def schedule_move(self, t: float, host_index: int, to: int) -> None:
        """A scenario ``move`` entry: cell index, ``-1`` home, ``-2``
        disconnect (same vocabulary as the session scheduler)."""
        self._push(t, ("move", host_index, to))

    def schedule_fault(self, t: float, node: str, kind: str) -> None:
        self._push(t, ("fault", node, kind))

    def schedule_ping(self, t: float, src_index: int, host_index: int) -> None:
        self._push(t, ("ping", src_index, host_index))

    def schedule_flow(self, t: float, flow_id: int, entry: dict) -> None:
        self._push(t, ("flow", flow_id, entry))

    def schedule_probe(self, t: float, src_index: int, host_index: int) -> None:
        self._push(t, ("probe", src_index, host_index))

    def install_spec(self, spec) -> None:
        """Install a ScenarioSpec schedule.

        Every spec entry kind runs here: flows and probes execute on the
        engines' own transport endpoints (a probe entry expands to a
        warm probe at ``t`` and a second one :data:`PROBE_GAP` seconds
        later, mirroring the session scheduler; the auditor watch on the
        second probe is a simulator-only instrument)."""
        from repro.scenario.spec import PROBE_GAP

        for entry in spec.moves:
            self.schedule_move(entry["t"], entry["host"], entry["to"])
        for entry in spec.faults:
            self.schedule_fault(entry["t"], entry["node"], entry["kind"])
        for flow_id, entry in enumerate(spec.flows):
            self.schedule_flow(entry["start"], flow_id, entry)
        for entry in spec.probes:
            self.schedule_probe(entry["t"], entry["src"], entry["host"])
            self.schedule_probe(
                entry["t"] + PROBE_GAP, entry["src"], entry["host"]
            )
        for entry in spec.pings:
            self.schedule_ping(entry["t"], entry["src"], entry["host"])

    # ------------------------------------------------------------------
    # Engine output processing
    # ------------------------------------------------------------------
    def process(self, node: NodeEngine, output: EngineOutput) -> None:
        obs = self.obs
        for event in output.events:
            self.events.append((self.now, event))
            if self.feed is not None:
                self.feed.consume(self.now, event)
            if obs is not None:
                obs.consume_event(self.now, event)
        for op in output.timers:
            slot = (node.name, op.key)
            generation = self._timer_gen.get(slot, 0) + 1
            self._timer_gen[slot] = generation
            if op.delay is not None:
                self._push(
                    self.now + op.delay,
                    ("timer", node.name, op.key, generation),
                )
        for datagram in output.datagrams:
            self._transmit(node, datagram)

    def _medium_latency(self, medium: str) -> float:
        if medium in self._wireless:
            return self.wireless_latency
        return self.lan_latency

    def _transmit(self, node: NodeEngine, datagram: Datagram) -> None:
        medium = self.world.medium_of(node.name, datagram.iface)
        if medium is None:
            # Detached interface: the bits go nowhere (a retransmit
            # racing a disconnect, exactly like the simulator).
            self.datagrams_unresolved += 1
            return
        arrival = self.now + self._medium_latency(medium)
        if datagram.broadcast:
            for member_node, member_iface in self.world.media[medium]:
                if member_node == node.name and member_iface == datagram.iface:
                    continue
                self._push(
                    arrival,
                    ("datagram", member_node, member_iface, datagram.data),
                )
            return
        target = self.world.resolve(medium, datagram.next_hop)
        if target is None:
            # No endpoint owns the next-hop address on this medium —
            # the simulator's ARP would have timed out the same way.
            self.datagrams_unresolved += 1
            return
        self._push(arrival, ("datagram", target[0], target[1], datagram.data))

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _dispatch(self, action: tuple) -> None:
        kind = action[0]
        if kind == "datagram":
            _, node_name, iface_name, data = action
            node = self.world.nodes[node_name]
            # The medium delivers to whoever was attached at send time;
            # a node that moved away in flight misses the bits.
            if self.world.medium_of(node_name, iface_name) is None:
                self.datagrams_unresolved += 1
                return
            self.datagrams_delivered += 1
            self.process(node, node.datagram_received(self.now, data, iface_name))
        elif kind == "timer":
            _, node_name, key, generation = action
            if self._timer_gen.get((node_name, key)) != generation:
                return  # re-armed or cancelled since this was queued
            node = self.world.nodes[node_name]
            self.process(node, node.timer_fired(self.now, key))
        elif kind == "command":
            _, node_name, command, kwargs = action
            node = self.world.nodes[node_name]
            self.process(node, node.command(self.now, command, **kwargs))
        elif kind == "move":
            self._apply_move(action[1], action[2])
        elif kind == "fault":
            self._apply_fault(action[1], action[2])
        elif kind == "flow":
            self._apply_flow(action[1], action[2])
        elif kind == "probe":
            self._apply_probe(action[1], action[2])
        elif kind == "ping":
            self._apply_ping(action[1], action[2])
        else:  # pragma: no cover - defensive
            raise ConfigurationError(f"unknown driver action {kind!r}")

    def run(self, until: float) -> int:
        """Process every queued action with ``time <= until``; the clock
        lands exactly on ``until``.  Returns the number processed.

        Per-action stage timing only exists when an obs plane is
        attached: the detached loop never reads a wall clock (the
        ``Tracer.active`` zero-cost discipline).
        """
        processed = 0
        obs = self.obs
        while self._heap and self._heap[0][0] <= until:
            time, _, action = heapq.heappop(self._heap)
            self.now = max(self.now, time)
            if obs is None:
                self._dispatch(action)
            else:
                started = perf_counter()
                self._dispatch(action)
                obs.time_stage("driver", action[0], perf_counter() - started)
            processed += 1
        self.now = max(self.now, until)
        return processed
