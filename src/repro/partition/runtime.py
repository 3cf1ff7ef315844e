"""One partition of a hierarchical world, ready to run in windows.

A :class:`PartitionRuntime` is the per-partition analogue of
:class:`~repro.scenario.session.Session`: it instantiates *one campus*
of a partitioned :class:`~repro.scenario.spec.ScenarioSpec` (schema v2,
``partitions``/``hierarchy`` set) into its own
:class:`~repro.netsim.simulator.Simulator`, installs the slice of the
spec's schedule this partition owns, and exposes the window/exchange
surface the engine in :mod:`repro.partition.engine` drives:

- :meth:`run_window` — execute events up to a synchronization barrier
  (:meth:`~repro.netsim.simulator.Simulator.run_before`);
- :meth:`drain_outbox` — cross-partition events produced while running
  (pickled packets, host migrations, forwarded moves, load-model
  updates), each stamped with its arrival time and an export sequence
  number so the engine can order deliveries deterministically;
- :meth:`inject` — deliveries from other partitions, scheduled onto the
  local queue at their arrival times.

Everything is deterministic per partition: the simulator seed, the load
model seed and every installed schedule derive from ``(spec.seed,
partition index)``, and the process-global ID counters are reset at
build — every runner (the orchestrator or a worker process)
additionally scopes them per partition, so a process running a group of
partitions interleaved produces exactly what one process per partition
would.

Host migration (the PR 5 ``state_dict`` contract as wire format): the
home partition owns a host's schedule.  A move targeting a remote
campus exports a migration record — identity plus
:meth:`~repro.wire.roles.MobileHostRole.state_dict` — and deactivates
the local object; the destination materializes (or reuses) a *visitor*
:class:`~repro.core.mobile_host.MobileHost`, loads the state, and
attaches it to the target cell, which replays the paper's Section 3
move sequence (register with the new foreign agent, notify the home
agent and the previous foreign agent) across real gateway traffic.
Moves arriving while the host is away are chain-forwarded to the last
known location, like the paper's forwarding pointers.
"""

from __future__ import annotations

import hashlib
import pickle
from functools import partial
from typing import Dict, List, Optional, Set, Tuple

from repro.errors import ConfigurationError, SimulationError
from repro.ip.address import IPAddress, IPNetwork
from repro.ip.packet import IPPacket, RawPayload
from repro.ip.protocols import CONVERGENCE_PROBE as PROBE_PROTOCOL
from repro.netsim.simulator import Simulator
from repro.partition.gateway import BorderGateway
from repro.scenario.session import reset_global_counters
from repro.scenario.spec import PROBE_GAP, ScenarioSpec
from repro.wire.logic import DISCONNECTED
from repro.workloads.hierarchy import (
    HierarchyModel,
    RegistrationLoadModel,
    campus_address_base,
    campus_name_prefix,
)

#: Export payload kinds crossing partition boundaries.
EXPORT_KINDS = ("packet", "migrate", "control", "load")


def derive_partition_seed(seed: int, index: int) -> int:
    """Deterministic per-partition simulator seed."""
    return (seed * 1_000_003 + 7919 * (index + 1)) % (2**31)


def _discard_probe(packet, iface) -> None:
    """Convergence probes signal by delivery; the payload is discarded."""


class _FlowSender:
    """The sender half of a cross-partition CBR flow.

    Pacing and payload framing match
    :class:`~repro.workloads.traffic.CBRStream` exactly; only the
    receiver-side binding is split off (the receiver may live in — or
    migrate to — another partition)."""

    def __init__(
        self,
        sim,
        sender,
        dst_address: IPAddress,
        interval: float,
        port: int,
        start_at: float,
        count: int,
        payload_size: int = 64,
    ) -> None:
        self.sim = sim
        self.dst_address = dst_address
        self.interval = interval
        self.port = port
        self.start_at = start_at
        self.count = count
        self.payload_size = max(payload_size, 8)
        self.sent = 0
        self._sock = sender.udp.bind()

    def start(self) -> None:
        self.sim.schedule_at(self.start_at, self._tick, label="cbr-send")

    def _tick(self) -> None:
        if self.count is not None and self.sent >= self.count:
            return
        seq = self.sent
        self.sent += 1
        payload = seq.to_bytes(8, "big") + b"\x00" * (self.payload_size - 8)
        self._sock.send_to(payload, self.dst_address, self.port)
        if self.count is None or self.sent < self.count:
            self.sim.schedule(self.interval, self._tick, label="cbr-send")


class _FlowSink:
    """The receiver half: a counting UDP sink bound on a mobile host."""

    def __init__(self, mh, port: int) -> None:
        self.received = 0
        sock = mh.udp.bind(port)
        sock.on_receive = self._on_receive

    def _on_receive(self, data: bytes, src, src_port: int) -> None:
        self.received += 1


class PartitionRuntime:
    """One campus partition: simulator, world slice, owned schedule."""

    def __init__(
        self,
        spec: ScenarioSpec,
        model: Optional[HierarchyModel] = None,
        index: int = 0,
    ) -> None:
        from repro.workloads.topology import build_campus

        reset_global_counters()
        self.spec = spec
        self.model = model or HierarchyModel.from_spec(spec)
        self.index = index
        if not 0 <= index < self.model.n_campuses:
            raise ConfigurationError(
                f"partition {index} outside 0..{self.model.n_campuses - 1}"
            )
        self.sim = Simulator(seed=derive_partition_seed(spec.seed, index))
        if spec.trace_limit is not None:
            self.sim.tracer.limit(spec.trace_limit)

        params = dict(spec.topology)
        kind = params.pop("kind", "hierarchy")
        if kind not in ("hierarchy", "campus"):
            raise ConfigurationError(
                f"partitioned runs need a hierarchy/campus topology, got {kind!r}"
            )
        load_params = params.pop("load", None)
        self.hosts_per_campus = int(params.get("n_mobile_hosts", 0))
        self.cells_per_campus = int(params.get("n_cells", 1))
        self.corr_per_campus = int(params.get("n_correspondents", 1))

        base = campus_address_base(index)
        self.topo = build_campus(
            sim=self.sim,
            address_base=base,
            name_prefix=campus_name_prefix(index),
            **params,
        )
        backbone_net = IPNetwork(f"{base}.0.0.0/16")
        self.gateway = BorderGateway(
            self, index, self.topo.backbone, backbone_net, self.model.n_campuses
        )
        for other in range(self.model.n_campuses):
            if other == index:
                continue
            self.topo.home_router.routing_table.add_next_hop(
                IPNetwork(f"{campus_address_base(other)}.0.0.0/8"),
                backbone_net.host(250),
                "bb",
            )

        for mh in self.topo.mobile_hosts:
            mh.register_protocol(PROBE_PROTOCOL, _discard_probe)

        self._fault_nodes = {"HR": self.topo.home_router}
        for i, router in enumerate(self.topo.cell_routers):
            self._fault_nodes[f"FR{i}"] = router

        self._nodes = [
            self.topo.home_router,
            self.gateway.router,
            *self.topo.cell_routers,
            *self.topo.correspondents,
            *self.topo.mobile_hosts,
        ]
        for entry in spec.instruments:
            self._attach_instrument(entry)

        # -- cross-partition bookkeeping -------------------------------
        self._outbox: List[Tuple[int, float, str, bytes, int]] = []
        self._export_seq = 0
        #: Hosts (global indices) whose authoritative object lives here.
        self._here: Set[int] = set()
        #: Last known destination of hosts that migrated away from here.
        self._departed: Dict[int, int] = {}
        #: Global host index -> local MobileHost object (home or visitor).
        self._materialized: Dict[int, object] = {}
        self._sinks: Dict[Tuple[int, int], _FlowSink] = {}
        self._flows: List[object] = []
        self.counters: Dict[str, int] = {
            "packets_exported": 0,
            "events_injected": 0,
            "migrations_out": 0,
            "migrations_in": 0,
            "moves_forwarded": 0,
            "moves_unroutable": 0,
        }

        hpc = self.hosts_per_campus
        for local in range(hpc):
            h = index * hpc + local
            self._here.add(h)
            self._materialized[h] = self.topo.mobile_hosts[local]

        self.load: Optional[RegistrationLoadModel] = None
        if load_params is not None:
            load_params = dict(load_params)
            self.load = RegistrationLoadModel(
                self.sim,
                self.model,
                campus=index,
                n_hosts=int(load_params.pop("n_hosts", 1000)),
                moves_per_host=int(load_params.pop("moves_per_host", 2)),
                horizon=float(load_params.pop("horizon", spec.horizon)),
                start=float(load_params.pop("start", 0.1)),
                seed=derive_partition_seed(spec.seed, index) ^ 0x5EED,
                locality=float(load_params.pop("locality", 0.8)),
                exporter=self._export_load,
            )
            self.load.install()

        self._install_schedule()

    # ------------------------------------------------------------------
    # Build helpers
    # ------------------------------------------------------------------
    def _attach_instrument(self, entry: Dict[str, object]) -> None:
        params = dict(entry)
        kind = params.pop("kind", None)
        if kind == "health":
            from repro.telemetry import ProtocolHealth

            self.sim.attach(ProtocolHealth(**params), nodes=self._nodes)
        elif kind == "auditor":
            from repro.invariants import InvariantAuditor

            self.sim.attach(InvariantAuditor(**params))
        elif kind == "obs":
            from repro.obs import ObsPlane

            self.sim.attach(ObsPlane(**params))
        else:
            raise ValueError(f"unknown instrument kind {kind!r}")

    def home_campus(self, host: int) -> int:
        return host // self.hosts_per_campus

    def host_home_address(self, host: int) -> IPAddress:
        """A global host's permanent address, from the address plan alone
        (no object needed — the host may live in another partition)."""
        base = campus_address_base(self.home_campus(host))
        return IPNetwork(f"{base}.1.0.0/16").host(1 + host % self.hosts_per_campus)

    def _install_schedule(self) -> None:
        for kind, entry in self.spec.entries():
            getattr(self, f"_install_{kind}")(entry)

    def _install_move(self, entry: dict) -> None:
        host = int(entry["host"])
        if self.home_campus(host) != self.index:
            return
        self.sim.schedule_at(
            entry["t"],
            partial(self._apply_move, host, int(entry["to"])),
            label="scenario-move",
        )

    def _install_fault(self, entry: dict) -> None:
        if int(entry.get("campus", 0)) != self.index:
            return
        self.sim.schedule_at(
            entry["t"],
            partial(self._apply_fault, entry["node"], entry["kind"]),
            label="scenario-fault",
        )

    def _install_flow(self, entry: dict) -> None:
        host = int(entry["host"])
        port = int(entry["port"])
        if self.home_campus(host) == self.index:
            self._bind_sink(host, port)
        src = int(entry["src"])
        if src // self.corr_per_campus != self.index:
            return
        sender = self.topo.correspondents[src % self.corr_per_campus]
        flow = _FlowSender(
            self.sim,
            sender,
            dst_address=self.host_home_address(host),
            interval=float(entry["interval"]),
            port=port,
            start_at=float(entry["start"]),
            count=int(entry["count"]),
        )
        flow.start()
        self._flows.append(flow)

    def _install_probe(self, entry: dict) -> None:
        if int(entry["src"]) // self.corr_per_campus != self.index:
            return
        self.sim.schedule_at(
            entry["t"],
            partial(self._send_probe, int(entry["src"]), int(entry["host"]), False),
            label="scenario-probe-warm",
        )
        self.sim.schedule_at(
            entry["t"] + PROBE_GAP,
            partial(self._send_probe, int(entry["src"]), int(entry["host"]), True),
            label="scenario-probe-audited",
        )

    def _install_ping(self, entry: dict) -> None:
        if int(entry["src"]) // self.corr_per_campus != self.index:
            return
        self.sim.schedule_at(
            entry["t"],
            partial(self._send_ping, int(entry["src"]), int(entry["host"])),
            label="scenario-ping",
        )

    def _bind_sink(self, host: int, port: int) -> None:
        mh = self._materialized.get(host)
        if mh is None or (host, port) in self._sinks:
            return
        self._sinks[(host, port)] = _FlowSink(mh, port)

    # ------------------------------------------------------------------
    # Schedule actions
    # ------------------------------------------------------------------
    def _apply_move(self, host: int, to: int) -> None:
        if host not in self._here:
            # Not ours any more: chain-forward to the last known location.
            dst = self._departed.get(host)
            if dst is None or dst == self.index:
                self.counters["moves_unroutable"] += 1
                return
            self.counters["moves_forwarded"] += 1
            self.export(
                dst,
                self.sim.now + self.model.delay(self.index, dst),
                "control",
                ("move", host, to),
            )
            return
        mh = self._materialized[host]
        if to == -2:
            if mh.iface.attached:
                mh.disconnect()
            return
        target = self.home_campus(host) if to == -1 else to // self.cells_per_campus
        if target != self.index:
            self._migrate(host, target, to)
        elif to == -1:
            mh.attach_home(self.topo.home_lan)
        else:
            mh.attach(self.topo.cells[to % self.cells_per_campus])

    def _apply_fault(self, name: str, kind: str) -> None:
        node = self._fault_nodes.get(name)
        if node is None:
            return
        if kind == "crash":
            node.crash()
        else:
            node.reboot()

    def _send_probe(self, src: int, host: int, watched: bool) -> None:
        sender = self.topo.correspondents[src % self.corr_per_campus]
        packet = IPPacket(
            src=sender.primary_address,
            dst=self.host_home_address(host),
            protocol=PROBE_PROTOCOL,
            payload=RawPayload(b"convergence-probe"),
        )
        if watched and self.sim.auditor is not None:
            self.sim.auditor.expect_no_retunnels([packet.uid])
        sender.send(packet)

    def _send_ping(self, src: int, host: int) -> None:
        sender = self.topo.correspondents[src % self.corr_per_campus]
        sender.ping(self.host_home_address(host))

    # ------------------------------------------------------------------
    # Migration (the state_dict wire format)
    # ------------------------------------------------------------------
    def _migrate(self, host: int, target: int, to: int) -> None:
        mh = self._materialized[host]
        record = {"host": host, "to": to, "role": mh.state_dict()}
        self._deactivate(mh)
        self._here.discard(host)
        self._departed[host] = target
        self.counters["migrations_out"] += 1
        self.export(
            target,
            self.sim.now + self.model.delay(self.index, target),
            "migrate",
            record,
        )

    def _deactivate(self, mh) -> None:
        """Silence a local copy whose host just migrated away: pending
        timers are cancelled and the interface detached *without* running
        the disconnect protocol — the protocol-visible move happens at
        the destination when the loaded state re-attaches."""
        mh.port.cancel_timer(mh.WATCHDOG_KEY)
        for seq in list(mh.registrar._pending):
            mh.port.cancel_timer(f"reg-retry-{seq}")
        mh.registrar._pending.clear()
        mh._registering_with = None
        if mh.iface.attached:
            mh.iface.detach()
        mh.state = DISCONNECTED
        mh.current_foreign_agent = None
        mh.temp_address = None

    def _make_visitor(self, host: int):
        from repro.core.mobile_host import MobileHost

        home = self.home_campus(host)
        base = campus_address_base(home)
        home_prefix = IPNetwork(f"{base}.1.0.0/16")
        local = host % self.hosts_per_campus
        mh = MobileHost(
            self.sim,
            f"{campus_name_prefix(home)}M{local}",
            home_address=home_prefix.host(1 + local),
            home_network=home_prefix,
            home_agent=home_prefix.host(65534),
        )
        mh.register_protocol(PROBE_PROTOCOL, _discard_probe)
        self._materialized[host] = mh
        for entry in self.spec.flows:
            if int(entry["host"]) == host:
                self._bind_sink(host, int(entry["port"]))
        return mh

    def _arrive_migration(self, record: dict) -> None:
        host = int(record["host"])
        to = int(record["to"])
        mh = self._materialized.get(host)
        if mh is None:
            mh = self._make_visitor(host)
        mh.load_state(record["role"])
        self._here.add(host)
        self._departed.pop(host, None)
        self.counters["migrations_in"] += 1
        if to == -1 and self.home_campus(host) == self.index:
            mh.attach_home(self.topo.home_lan)
        else:
            mh.attach(self.topo.cells[to % self.cells_per_campus])

    # ------------------------------------------------------------------
    # Cross-partition exchange surface
    # ------------------------------------------------------------------
    def export(self, dst: int, arrival: float, kind: str, obj) -> None:
        """Queue ``obj`` for partition ``dst`` at time ``arrival``."""
        self._export_seq += 1
        self._outbox.append((dst, arrival, kind, pickle.dumps(obj), self._export_seq))

    def export_packet(self, dst: int, packet) -> None:
        self.counters["packets_exported"] += 1
        self.export(
            dst, self.sim.now + self.model.delay(self.index, dst), "packet", packet
        )

    def _export_load(self, dst: int, arrival: float, record: dict) -> None:
        self.export(dst, arrival, "load", record)

    def drain_outbox(self) -> List[Tuple[int, float, str, bytes, int]]:
        out, self._outbox = self._outbox, []
        return out

    def inject(self, deliveries) -> None:
        """Schedule deliveries ``(arrival, kind, blob)`` from other
        partitions, in the (already engine-sorted) order given."""
        for arrival, kind, blob in deliveries:
            obj = pickle.loads(blob)
            if kind == "packet":
                action = partial(self.gateway.inject, obj)
            elif kind == "migrate":
                action = partial(self._arrive_migration, obj)
            elif kind == "control":
                action = partial(self._apply_move, obj[1], obj[2])
            elif kind == "load":
                if self.load is None:
                    continue
                action = partial(self.load.remote_update, obj)
            else:
                raise SimulationError(f"unknown cross-partition kind {kind!r}")
            self.counters["events_injected"] += 1
            self.sim.schedule_at(arrival, action, label=f"partition-{kind}")

    # ------------------------------------------------------------------
    # Execution surface
    # ------------------------------------------------------------------
    def next_time(self) -> Optional[float]:
        return self.sim.queue.peek_time()

    def run_window(self, barrier: float, inclusive: bool = False) -> int:
        return self.sim.run_before(barrier, inclusive=inclusive)

    def finish(self, horizon: float) -> int:
        return self.sim.run(until=horizon)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def trace_fingerprint(self) -> str:
        digest = hashlib.sha256()
        for entry in self.sim.tracer:
            digest.update(
                f"{entry.time!r}|{entry.category}|{entry.node}|".encode()
            )
            for key, value in entry.detail.items():
                digest.update(f"{key}={value!r};".encode())
            digest.update(b"\n")
        return digest.hexdigest()

    def mobile_state(self) -> Dict[str, dict]:
        return {
            str(host): {
                "here": host in self._here,
                "state": self._materialized[host].state_dict(),
            }
            for host in sorted(self._materialized)
        }

    def result(self) -> dict:
        telemetry = self.sim.telemetry
        return {
            "partition": self.index,
            "events": self.sim.events_processed,
            "now": self.sim.now,
            "trace_entries": len(self.sim.tracer.entries),
            "trace_fingerprint": self.trace_fingerprint(),
            "health": telemetry.summary() if telemetry is not None else None,
            "counters": dict(self.counters),
            "flow_received": sum(s.received for s in self._sinks.values()),
            "load": self.load.summary() if self.load is not None else None,
            "mobile_state": self.mobile_state(),
        }
