"""The live backend: sans-io engines on real UDP sockets.

Topology becomes a *port directory*: one loopback UDP socket per
``(node, interface)``, bound to an OS-assigned port.  A medium is the
set of member endpoints; unicast resolves the engine's requested
next-hop address to a member's port, broadcast fans out to every other
member.  Time is a :class:`VirtualClock` — wall seconds scaled by a
speed factor — so a 32-virtual-second scenario finishes in under two
wall seconds at the default speed while every engine-visible duration
(advertisement periods, registration retries, departure grace) keeps
its simulated value.

Known simplifications versus the simulator (documented in PROTOCOL.md):
no ARP (address resolution is the directory lookup), no link-layer
loss, and timer/datagram timing carries real scheduler jitter — which
is exactly why the conformance projections compare per-node event
*order* and timing-free counts, not timestamps.
"""

from __future__ import annotations

import asyncio
import json
import logging
from functools import partial
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from repro.wire.driver import HealthFeed, ScheduleActions
from repro.wire.engine import Datagram, EngineEvent, EngineOutput, NodeEngine
from repro.wire.topo import EngineTopology, build_engine_world

#: Default virtual-seconds-per-wall-second factor.  20x runs the 32 s
#: Figure-1 walkthrough in 1.6 s of wall clock while leaving ~50 ms of
#: wall time per virtual second — orders of magnitude above loopback
#: RTT and scheduler jitter.
DEFAULT_SPEED = 20.0

LOOPBACK = "127.0.0.1"

#: Wall seconds between runtime samples (event-loop lag, clock drift,
#: timer-wheel depth, JSONL snapshot rows).
RUNTIME_SAMPLE_WALL = 0.25

#: Sustained-drift warning: virtual seconds of wall-vs-virtual slip
#: that count as "behind", and how many consecutive behind samples
#: trigger the logged warning.  At high ``--speed`` factors the wall
#: scheduler cannot keep up and every timer lands late by
#: ``lag x speed`` virtual seconds — silently, before this existed.
DRIFT_WARN_VIRTUAL = 1.0
DRIFT_WARN_SAMPLES = 3

_log = logging.getLogger("repro.live")


class VirtualClock:
    """Wall time scaled into virtual scenario time.

    ``now()`` is virtual seconds since :meth:`start`; ``wall_delay``
    converts a virtual delay into the wall-clock delay to hand to the
    event loop.
    """

    def __init__(self, loop: asyncio.AbstractEventLoop, speed: float = DEFAULT_SPEED) -> None:
        if speed <= 0:
            raise ValueError("speed factor must be positive")
        self._loop = loop
        self.speed = speed
        self._start = loop.time()
        #: Latest / worst observed wall-vs-virtual slip, in *virtual*
        #: seconds: how far behind the virtual timeline the scheduler is
        #: actually running.  Updated by the runtime sampler via
        #: :meth:`note_lag`.
        self.drift_virtual = 0.0
        self.max_drift_virtual = 0.0

    def start(self) -> None:
        self._start = self._loop.time()

    def now(self) -> float:
        return (self._loop.time() - self._start) * self.speed

    def wall_delay(self, virtual_delay: float) -> float:
        return max(0.0, virtual_delay / self.speed)

    def note_lag(self, wall_lag: float) -> float:
        """Record a scheduler lag sample (wall seconds a callback ran
        late) and return the equivalent virtual-time slip."""
        drift = max(0.0, wall_lag) * self.speed
        self.drift_virtual = drift
        if drift > self.max_drift_virtual:
            self.max_drift_virtual = drift
        return drift


class _IfaceEndpoint(asyncio.DatagramProtocol):
    """The datagram protocol behind one (node, interface) socket."""

    def __init__(self, run: "LiveRun", node_name: str, iface_name: str) -> None:
        self.run = run
        self.node_name = node_name
        self.iface_name = iface_name

    def datagram_received(self, data: bytes, addr) -> None:
        self.run._on_datagram(self.node_name, self.iface_name, data)

    def error_received(self, exc) -> None:  # pragma: no cover - OS-dependent
        pass


class LiveRun(ScheduleActions):
    """One scenario executed over loopback UDP.

    Build, then ``asyncio.run(run.main())`` — or call
    ``repro.backend.run(spec, backend="live")``, which does both.
    After the run, ``events`` holds the full time-stamped protocol-event
    log in the same shape the deterministic driver produces, so the
    conformance harness can diff the two backends directly.
    """

    def __init__(
        self,
        spec,
        speed: float = DEFAULT_SPEED,
        health=None,
        obs=None,
        serve_metrics: bool = False,
        snapshot_path: Optional[str] = None,
        drift_warn_virtual: float = DRIFT_WARN_VIRTUAL,
        drift_warn_samples: int = DRIFT_WARN_SAMPLES,
    ) -> None:
        self.spec = spec
        self.speed = speed
        self.topo: EngineTopology = build_engine_world(spec.topology)
        self.world = self.topo.world
        self.horizon = float(spec.horizon)
        self.events: List[Tuple[float, EngineEvent]] = []
        self.feed = HealthFeed(health) if health is not None else None
        #: An :class:`repro.obs.ObsPlane` (or None); same is-None hot-path
        #: discipline as the simulator's ``sim.obs``.
        self.obs = obs
        #: Serve ``/metrics`` over loopback HTTP while running (needs obs).
        self.serve_metrics = serve_metrics
        self.metrics_port: Optional[int] = None
        self._metrics_server = None
        #: JSONL runtime snapshots, one row per sampler tick.
        self.snapshot_path = snapshot_path
        self._snapshot_file = None
        self.clock: Optional[VirtualClock] = None
        #: (node, iface) -> (transport, port); the medium directory
        #: resolves engine next-hops onto these.
        self._endpoints: Dict[Tuple[str, str], Tuple[asyncio.DatagramTransport, int]] = {}
        self._timer_gen: Dict[Tuple[str, str], int] = {}
        self._handles: List[asyncio.TimerHandle] = []
        self._closed = False
        self.datagrams_sent = 0
        self.datagrams_received = 0
        self.datagrams_unresolved = 0
        # Runtime sampler state (always on: the drift warning does not
        # require an obs plane).
        self.drift_warn_virtual = drift_warn_virtual
        self.drift_warn_samples = drift_warn_samples
        self.drift_warnings = 0
        self.runtime_samples = 0
        self._drift_streak = 0
        self._sampler_expected = 0.0
        #: (node, iface, direction) -> cached obs counter.
        self._endpoint_counters: Dict[Tuple[str, str, str], object] = {}

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        return 0.0 if self.clock is None else min(self.clock.now(), self.horizon)

    def port_of(self, node_name: str, iface_name: str) -> int:
        return self._endpoints[(node_name, iface_name)][1]

    # ------------------------------------------------------------------
    # Engine output processing
    # ------------------------------------------------------------------
    def process(self, node: NodeEngine, output: EngineOutput) -> None:
        now = self.now
        obs = self.obs
        for event in output.events:
            self.events.append((now, event))
            if self.feed is not None:
                self.feed.consume(now, event)
            if obs is not None:
                obs.consume_event(now, event)
        for op in output.timers:
            slot = (node.name, op.key)
            generation = self._timer_gen.get(slot, 0) + 1
            self._timer_gen[slot] = generation
            if op.delay is not None:
                loop = asyncio.get_running_loop()
                wall = self.clock.wall_delay(op.delay)
                handle = loop.call_later(
                    wall,
                    partial(
                        self._fire_timer, node.name, op.key, generation,
                        loop.time() + wall,
                    ),
                )
                self._handles.append(handle)
        for datagram in output.datagrams:
            self._transmit(node, datagram)

    def _endpoint_counter(self, node_name: str, iface_name: str, direction: str):
        """Cached per-endpoint datagram counter (obs attached only)."""
        key = (node_name, iface_name, direction)
        counter = self._endpoint_counters.get(key)
        if counter is None:
            counter = self.obs.metrics.counter(
                "live_datagrams_total",
                "datagrams per (node, interface, direction) endpoint",
                node=node_name, iface=iface_name, direction=direction,
            )
            self._endpoint_counters[key] = counter
        return counter

    def _transmit(self, node: NodeEngine, datagram: Datagram) -> None:
        obs = self.obs
        medium = self.world.medium_of(node.name, datagram.iface)
        if medium is None:
            self.datagrams_unresolved += 1
            if obs is not None:
                self._endpoint_counter(node.name, datagram.iface, "unresolved").inc()
            return
        transport = self._endpoints[(node.name, datagram.iface)][0]
        if datagram.broadcast:
            fanout = 0
            for member_node, member_iface in self.world.media[medium]:
                if member_node == node.name and member_iface == datagram.iface:
                    continue
                port = self.port_of(member_node, member_iface)
                transport.sendto(datagram.data, (LOOPBACK, port))
                fanout += 1
            self.datagrams_sent += fanout
            if obs is not None and fanout:
                self._endpoint_counter(node.name, datagram.iface, "tx").inc(fanout)
            return
        target = self.world.resolve(medium, datagram.next_hop)
        if target is None:
            self.datagrams_unresolved += 1
            if obs is not None:
                self._endpoint_counter(node.name, datagram.iface, "unresolved").inc()
            return
        transport.sendto(datagram.data, (LOOPBACK, self.port_of(*target)))
        self.datagrams_sent += 1
        if obs is not None:
            self._endpoint_counter(node.name, datagram.iface, "tx").inc()

    # ------------------------------------------------------------------
    # Inbound paths
    # ------------------------------------------------------------------
    def _on_datagram(self, node_name: str, iface_name: str, data: bytes) -> None:
        if self._closed or self.clock.now() > self.horizon:
            return
        obs = self.obs
        # The socket outlives medium membership; bits that arrive after
        # the interface left its medium are lost, like the driver's.
        if self.world.medium_of(node_name, iface_name) is None:
            self.datagrams_unresolved += 1
            if obs is not None:
                self._endpoint_counter(node_name, iface_name, "detached").inc()
            return
        self.datagrams_received += 1
        node = self.world.nodes[node_name]
        if obs is None:
            self.process(node, node.datagram_received(self.now, data, iface_name))
            return
        self._endpoint_counter(node_name, iface_name, "rx").inc()
        started = perf_counter()
        self.process(node, node.datagram_received(self.now, data, iface_name))
        obs.time_stage("live", "datagram", perf_counter() - started)

    def _fire_timer(
        self, node_name: str, key: str, generation: int,
        deadline: Optional[float] = None,
    ) -> None:
        if self._closed or self.clock.now() > self.horizon:
            return
        if self._timer_gen.get((node_name, key)) != generation:
            return
        node = self.world.nodes[node_name]
        obs = self.obs
        if obs is None:
            self.process(node, node.timer_fired(self.now, key))
            return
        if deadline is not None:
            lateness = asyncio.get_running_loop().time() - deadline
            obs.time_stage("live", "timer-lateness", max(0.0, lateness))
        started = perf_counter()
        self.process(node, node.timer_fired(self.now, key))
        obs.time_stage("live", "timer", perf_counter() - started)

    # ------------------------------------------------------------------
    # Runtime sampling
    # ------------------------------------------------------------------
    def _schedule_sample(self) -> None:
        loop = asyncio.get_running_loop()
        self._sampler_expected = loop.time() + RUNTIME_SAMPLE_WALL
        self._handles.append(loop.call_later(RUNTIME_SAMPLE_WALL, self._sample_runtime))

    def _sample_runtime(self) -> None:
        """One runtime sampler tick.

        Always on: measures how late the loop ran this callback (pure
        scheduler lag — the sample itself is the probe), converts it to
        virtual-time drift, and logs a warning after
        ``drift_warn_samples`` consecutive ticks over the threshold.
        With an obs plane attached it additionally publishes gauges,
        prunes the timer wheel, and appends a JSONL snapshot row.
        """
        if self._closed:
            return
        loop = asyncio.get_running_loop()
        now_wall = loop.time()
        wall_lag = max(0.0, now_wall - self._sampler_expected)
        self.runtime_samples += 1
        drift = self.clock.note_lag(wall_lag)
        if drift >= self.drift_warn_virtual:
            self._drift_streak += 1
            if self._drift_streak == self.drift_warn_samples:
                self.drift_warnings += 1
                _log.warning(
                    "virtual clock slipping: %.2fs virtual behind wall "
                    "(%d consecutive samples over %.2fs; speed=%gx) — "
                    "the event loop cannot keep up; lower --speed",
                    drift, self._drift_streak, self.drift_warn_virtual,
                    self.speed,
                )
        else:
            self._drift_streak = 0
        # Prune fired/cancelled handles so the wheel-depth gauge is honest
        # and long runs do not accumulate dead handles.
        self._handles = [
            h for h in self._handles
            if not h.cancelled() and h.when() > now_wall
        ]
        obs = self.obs
        if obs is not None:
            metrics = obs.metrics
            metrics.gauge(
                "event_loop_lag_seconds", "sampler callback scheduling lag"
            ).set(wall_lag)
            metrics.gauge(
                "clock_drift_virtual_seconds",
                "wall-vs-virtual slip in virtual seconds",
            ).set(drift)
            metrics.gauge(
                "timer_wheel_depth", "live pending timer handles"
            ).set(len(self._handles))
            metrics.gauge(
                "live_datagrams_sent", "total datagrams sent on loopback"
            ).set(self.datagrams_sent)
            metrics.gauge(
                "live_datagrams_received", "total datagrams received"
            ).set(self.datagrams_received)
            self._write_snapshot(drift, wall_lag)
        if self.clock.now() <= self.horizon:
            self._schedule_sample()

    def _write_snapshot(self, drift: float, wall_lag: float) -> None:
        obs = self.obs
        if obs is None or self._snapshot_file is None:
            return
        record = {
            "t_virtual": round(self.now, 6),
            "drift_virtual": round(drift, 6),
            "event_loop_lag": round(wall_lag, 6),
            "timer_wheel_depth": len(self._handles),
            "datagrams_sent": self.datagrams_sent,
            "datagrams_received": self.datagrams_received,
            "datagrams_unresolved": self.datagrams_unresolved,
            "spans": len(obs.spans),
            "metrics": obs.metrics.snapshot(),
        }
        if self.feed is not None:
            record["health"] = self.feed.health.summary()
        self._snapshot_file.write(json.dumps(record) + "\n")
        self._snapshot_file.flush()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def _open_endpoints(self) -> None:
        loop = asyncio.get_running_loop()
        for node in self.world.nodes.values():
            for iface_name in node.interfaces:
                transport, _ = await loop.create_datagram_endpoint(
                    partial(_IfaceEndpoint, self, node.name, iface_name),
                    local_addr=(LOOPBACK, 0),
                )
                port = transport.get_extra_info("sockname")[1]
                self._endpoints[(node.name, iface_name)] = (transport, port)

    def _install_schedule(self) -> None:
        from repro.scenario.spec import PROBE_GAP

        loop = asyncio.get_running_loop()
        entries = (
            [("move", e["t"], (e["host"], e["to"])) for e in self.spec.moves]
            + [("fault", e["t"], (e["node"], e["kind"])) for e in self.spec.faults]
            + [("flow", e["start"], (i, e)) for i, e in enumerate(self.spec.flows)]
            + [("probe", e["t"], (e["src"], e["host"])) for e in self.spec.probes]
            + [("probe", e["t"] + PROBE_GAP, (e["src"], e["host"]))
               for e in self.spec.probes]
            + [("ping", e["t"], (e["src"], e["host"])) for e in self.spec.pings]
        )
        actions = {
            "move": self._apply_move,
            "fault": self._apply_fault,
            "flow": self._apply_flow,
            "probe": self._apply_probe,
            "ping": self._apply_ping,
        }
        for kind, t, args in entries:
            handle = loop.call_later(
                self.clock.wall_delay(float(t)), partial(actions[kind], *args)
            )
            self._handles.append(handle)

    async def main(self) -> "LiveRun":
        """Open sockets, boot the engines, run the schedule to the
        horizon, tear down."""
        loop = asyncio.get_running_loop()
        self.clock = VirtualClock(loop, self.speed)
        await self._open_endpoints()
        if self.serve_metrics and self.obs is not None:
            from repro.obs.server import MetricsServer

            self._metrics_server = MetricsServer(self.obs.metrics)
            self.metrics_port = await self._metrics_server.start()
        if self.snapshot_path is not None:
            self._snapshot_file = open(self.snapshot_path, "w")
        self.clock.start()
        for node in self.world.nodes.values():
            self.process(node, node.start(self.now))
        self._install_schedule()
        self._schedule_sample()
        await asyncio.sleep(self.clock.wall_delay(self.horizon))
        # Drain one scheduler beat so in-flight datagrams at the horizon
        # are observed (or rejected by the horizon gate), then close.
        await asyncio.sleep(0)
        self._closed = True
        for handle in self._handles:
            handle.cancel()
        for transport, _ in self._endpoints.values():
            transport.close()
        if self._metrics_server is not None:
            await self._metrics_server.stop()
        if self._snapshot_file is not None:
            # One complete final row after the run is fully drained:
            # under load the periodic sampler can trail the horizon, so
            # tail-mode readers would otherwise see a mid-run row last.
            if self.obs is not None:
                self.runtime_samples += 1
                self._write_snapshot(self.clock.drift_virtual, 0.0)
            self._snapshot_file.close()
            self._snapshot_file = None
        await asyncio.sleep(0)
        return self
