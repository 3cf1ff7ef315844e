"""Which program functions belong to which layer, and the per-layer
metrics computed from a traced run.

Every target is a public (or role-level) function of one layer; the
benchmark wraps it from here, so nothing inside ``src/`` is changed.
"""

from __future__ import annotations

from typing import Dict

from spans import SpanRecorder


def _count_claims(counts: Dict[str, int], args: tuple, result: object) -> None:
    """A role hook claims the packet by returning a replacement."""
    counts["hook_calls"] = counts.get("hook_calls", 0) + 1
    if result is not None:
        counts["hook_claims"] = counts.get("hook_claims", 0) + 1


def _counter(name: str):
    def observe(counts: Dict[str, int], args: tuple, result: object) -> None:
        counts[name] = counts.get(name, 0) + 1
    return observe


def _encoded_bytes(counts: Dict[str, int], args: tuple, result: object) -> None:
    counts["codec_bytes"] = counts.get("codec_bytes", 0) + len(result)


def _decoded_bytes(counts: Dict[str, int], args: tuple, result: object) -> None:
    counts["codec_bytes"] = counts.get("codec_bytes", 0) + len(args[0])


def _outbox_bytes(counts: Dict[str, int], args: tuple, result: object) -> None:
    counts["export_bytes"] = counts.get("export_bytes", 0) + sum(
        len(item[3]) for item in result
    )


_ROLES = "repro.wire.roles:"
_HEALTH = "repro.telemetry.health:ProtocolHealth."

#: (target, layer, observe) — the layer names are the metric prefixes;
#: ``netsim`` spans are the kernel's root spans.
TARGETS = (
    ("repro.netsim.simulator:Simulator.run", "netsim", None),
    ("repro.netsim.simulator:Simulator.run_before", "netsim", None),
    ("repro.netsim.trace:Tracer.record", "netsim.trace", None),
    ("repro.link.medium:Medium.transmit", "link", _counter("frames")),
    ("repro.link.interface:NetworkInterface.receive_frame", "link", None),
    ("repro.ip.dataplane:Dataplane.outbound", "ip", _counter("ip_packets")),
    ("repro.ip.dataplane:Dataplane.ingress", "ip", _counter("ip_packets")),
    ("repro.ip.dataplane:Dataplane.forward", "ip", None),
    ("repro.ip.dataplane:Dataplane.local_delivery", "ip", None),
    ("repro.ip.dataplane:Dataplane.drop", "ip", _counter("ip_drops")),
    *(
        (f"{_ROLES}{role}.{hook}", "wire.roles", _count_claims)
        for role in ("CacheAgentRole", "HomeAgentRole", "ForeignAgentRole")
        for hook in ("outbound_hook", "transit_hook")
    ),
    (f"{_ROLES}Registrar.send", "wire.roles", _counter("registrations")),
    (f"{_ROLES}send_location_update", "wire.roles", _counter("location_updates")),
    ("repro.transport.udp:UDPStack.send_datagram", "transport", None),
    ("repro.transport.udp:UDPStack._handle_packet", "transport", None),
    *(
        (f"{_HEALTH}{name}", "telemetry", None)
        for name in (
            "packet_sent", "packet_forwarded", "packet_delivered",
            "packet_dropped", "cache_lookup", "tunnel_delivery", "_on_trace",
        )
    ),
    ("repro.wire.codec:encode_packet", "wire.codec", _encoded_bytes),
    ("repro.wire.codec:decode_packet", "wire.codec", _decoded_bytes),
    ("repro.wire.driver:EngineDriver.process", "wire.driver",
     _counter("driver_outputs")),
    ("repro.wire.driver:EngineDriver.run", "wire.driver", None),
    ("repro.workloads.hierarchy:RegistrationLoadModel._move", "workloads",
     _counter("moves")),
    ("repro.workloads.hierarchy:RegistrationLoadModel.remote_update", "workloads",
     None),
    ("repro.partition.runtime:PartitionRuntime.export", "partition", None),
    ("repro.partition.runtime:PartitionRuntime.drain_outbox", "partition",
     _outbox_bytes),
    ("repro.partition.runtime:PartitionRuntime.inject", "partition", None),
)

#: Per-layer metric -> unit, in report order.
METRICS = {
    "scenario.build_s": "s",
    "netsim.events": "count",
    "netsim.kernel_self_s": "s",
    "netsim.trace.records": "count",
    "netsim.trace.self_s": "s",
    "netsim.trace.retained": "count",
    "link.frames": "count",
    "link.self_s": "s",
    "ip.packets": "count",
    "ip.drops": "count",
    "ip.self_s": "s",
    "wire.roles.calls": "count",
    "wire.roles.self_s": "s",
    "wire.roles.hook_claim_ratio": "ratio",
    "wire.roles.registrations": "count",
    "wire.roles.location_updates": "count",
    "transport.datagrams": "count",
    "transport.self_s": "s",
    "telemetry.calls": "count",
    "telemetry.self_s": "s",
    "wire.codec.calls": "count",
    "wire.codec.bytes": "count",
    "wire.codec.self_s": "s",
    "wire.driver.outputs": "count",
    "wire.driver.self_s": "s",
    "workloads.moves": "count",
    "workloads.self_s": "s",
    "partition.windows": "count",
    "partition.exports": "count",
    "partition.export_bytes": "count",
    "partition.serialize_s": "s",
    "partition.speedup": "ratio",
    "bench.span_overhead_s": "s",
    "host.calib_s": "s",
}


def install() -> SpanRecorder:
    """A recorder with every layer target wrapped."""
    recorder = SpanRecorder()
    try:
        for target, layer, observe in TARGETS:
            recorder.patch(target, layer, observe)
    except BaseException:
        recorder.uninstall()
        raise
    return recorder


def layer_metrics(recorder: SpanRecorder) -> Dict[str, float]:
    """Span-derived per-layer metrics of one traced run."""
    calls = recorder.calls()
    self_s = recorder.self_times()
    counts = recorder.counts
    hook_calls = counts.get("hook_calls", 0)
    return {
        "netsim.kernel_self_s": self_s["netsim"],
        "netsim.trace.records": calls["netsim.trace"],
        "netsim.trace.self_s": self_s["netsim.trace"],
        "link.frames": counts.get("frames", 0),
        "link.self_s": self_s["link"],
        "ip.packets": counts.get("ip_packets", 0),
        "ip.drops": counts.get("ip_drops", 0),
        "ip.self_s": self_s["ip"],
        "wire.roles.calls": calls["wire.roles"],
        "wire.roles.self_s": self_s["wire.roles"],
        "wire.roles.hook_claim_ratio": (
            counts.get("hook_claims", 0) / hook_calls if hook_calls else 0.0
        ),
        "wire.roles.registrations": counts.get("registrations", 0),
        "wire.roles.location_updates": counts.get("location_updates", 0),
        "transport.datagrams": calls["transport"],
        "transport.self_s": self_s["transport"],
        "telemetry.calls": calls["telemetry"],
        "telemetry.self_s": self_s["telemetry"],
        "wire.codec.calls": calls["wire.codec"],
        "wire.codec.bytes": counts.get("codec_bytes", 0),
        "wire.codec.self_s": self_s["wire.codec"],
        "wire.driver.outputs": counts.get("driver_outputs", 0),
        "wire.driver.self_s": self_s["wire.driver"],
        "workloads.moves": counts.get("moves", 0),
        "workloads.self_s": self_s["workloads"],
        "partition.export_bytes": counts.get("export_bytes", 0),
        "partition.serialize_s": self_s["partition"],
    }

