"""Unit tests for the IP forwarding engine."""

import pytest

from repro.errors import ConfigurationError
from repro.ip import Host, IPNetwork, Router
from repro.ip.address import IPAddress
from repro.ip.icmp import (
    CODE_NET_UNREACHABLE,
    EchoMessage,
    ICMPError,
    TYPE_DEST_UNREACHABLE,
    TYPE_TIME_EXCEEDED,
)
from repro.ip.node import CONSUMED
from repro.ip.options import LSRROption
from repro.ip.packet import IPPacket, RawPayload
from repro.ip.protocols import UDP
from repro.link import LAN


class TestRouting:
    def test_forwarding_across_router(self, two_lans_one_router):
        sim, a, r, b, net_a, net_b = two_lans_one_router
        replies = []
        a.on_icmp(0, lambda p, m: replies.append(m))
        a.ping(net_b.host(1))
        sim.run_until_idle()
        assert len(replies) == 1
        assert r.packets_forwarded >= 1

    def test_host_does_not_forward(self, two_hosts_one_lan):
        sim, lan, a, b, net = two_hosts_one_lan
        # Hand B a transit packet: addressed elsewhere.
        packet = IPPacket(src=net.host(1), dst="99.0.0.1", protocol=UDP)
        b.packet_received(packet, b.interfaces["eth0"])
        assert b.packets_dropped == 1
        assert b.packets_forwarded == 0

    def test_ttl_decrements_per_router_hop(self, two_lans_one_router):
        sim, a, r, b, net_a, net_b = two_lans_one_router
        seen = []
        b.register_protocol(UDP, lambda p, i: seen.append(p))
        a.send(IPPacket(src=net_a.host(1), dst=net_b.host(1), protocol=UDP, ttl=10))
        sim.run_until_idle()
        assert len(seen) == 1
        assert seen[0].ttl == 9

    def test_ttl_expiry_generates_time_exceeded(self, two_lans_one_router):
        sim, a, r, b, net_a, net_b = two_lans_one_router
        errors = []
        a.on_icmp_error(lambda p, e: errors.append(e))
        a.send(IPPacket(src=net_a.host(1), dst=net_b.host(1), protocol=UDP, ttl=1))
        sim.run_until_idle()
        assert len(errors) == 1
        assert errors[0].icmp_type == TYPE_TIME_EXCEEDED

    def test_no_route_generates_net_unreachable(self, two_lans_one_router):
        sim, a, r, b, net_a, net_b = two_lans_one_router
        errors = []
        a.on_icmp_error(lambda p, e: errors.append(e))
        a.send(IPPacket(src=net_a.host(1), dst="203.0.113.1", protocol=UDP))
        sim.run_until_idle()
        assert len(errors) == 1
        assert errors[0].icmp_type == TYPE_DEST_UNREACHABLE
        assert errors[0].code == CODE_NET_UNREACHABLE

    def test_unknown_protocol_generates_unreachable(self, two_hosts_one_lan):
        sim, lan, a, b, net = two_hosts_one_lan
        errors = []
        a.on_icmp_error(lambda p, e: errors.append(e))
        a.send(IPPacket(src=net.host(1), dst=net.host(2), protocol=123))
        sim.run_until_idle()
        assert len(errors) == 1

    def test_no_error_about_an_error(self, two_hosts_one_lan):
        sim, lan, a, b, net = two_hosts_one_lan
        # Deliver an ICMP error to a dead protocol path: B must not reply
        # with an error about the error.
        inner = IPPacket(src=net.host(2), dst=net.host(1), protocol=UDP)
        err = ICMPError.unreachable(inner)
        from repro.ip.protocols import ICMP

        packet = IPPacket(src=net.host(1), dst=net.host(2), protocol=ICMP, payload=err)
        before = sim.tracer.count("icmp.error", node="B")
        b.packet_received(packet, b.interfaces["eth0"])
        sim.run_until_idle()
        assert sim.tracer.count("icmp.error", node="B") == before


class TestInterfaces:
    def test_duplicate_interface_name_rejected(self, sim):
        h = Host(sim, "H")
        net = IPNetwork("10.0.0.0/24")
        h.add_interface("eth0", net.host(1), net)
        with pytest.raises(ConfigurationError):
            h.add_interface("eth0", net.host(2), net)

    def test_address_must_be_in_network(self, sim):
        h = Host(sim, "H")
        with pytest.raises(ConfigurationError):
            h.add_interface("eth0", "192.168.1.1", IPNetwork("10.0.0.0/24"))

    def test_addresses_and_lookup(self, sim):
        h = Host(sim, "H")
        net = IPNetwork("10.0.0.0/24")
        h.add_interface("eth0", net.host(1), net)
        assert h.has_address(net.host(1))
        assert not h.has_address(net.host(2))
        assert h.interface_for_address(net.host(1)).name == "eth0"
        assert h.primary_address == net.host(1)

    def test_no_interface_errors(self, sim):
        h = Host(sim, "H")
        with pytest.raises(ConfigurationError):
            _ = h.primary_interface


class TestBroadcast:
    def test_limited_broadcast_delivered_to_all_on_lan(self, two_hosts_one_lan):
        sim, lan, a, b, net = two_hosts_one_lan
        seen = []
        b.register_protocol(UDP, lambda p, i: seen.append(p))
        a.send_broadcast("eth0", UDP, RawPayload(b"hi"))
        sim.run_until_idle()
        assert len(seen) == 1
        assert seen[0].dst == "255.255.255.255"

    def test_broadcast_not_forwarded(self, two_lans_one_router):
        sim, a, r, b, net_a, net_b = two_lans_one_router
        seen = []
        b.register_protocol(UDP, lambda p, i: seen.append(p))
        a.send_broadcast("eth0", UDP, RawPayload(b"hi"))
        sim.run_until_idle()
        assert seen == []


class TestExtensions:
    """Stage hooks registered on the dataplane (the extension seam)."""

    def test_outbound_extension_can_rewrite(self, two_hosts_one_lan):
        sim, lan, a, b, net = two_hosts_one_lan

        def rewrite(packet):
            if packet.protocol == UDP:
                return IPPacket(
                    src=packet.src, dst=net.host(2), protocol=UDP,
                    payload=packet.payload,
                )
            return None

        a.dataplane.register("outbound", rewrite)
        seen = []
        b.register_protocol(UDP, lambda p, i: seen.append(p))
        a.send(IPPacket(src=net.host(1), dst="99.9.9.9", protocol=UDP))
        sim.run_until_idle()
        assert len(seen) == 1

    def test_outbound_extension_can_consume(self, two_hosts_one_lan):
        sim, lan, a, b, net = two_hosts_one_lan
        eaten = []

        def sink(packet):
            eaten.append(packet)
            return CONSUMED

        a.dataplane.register("outbound", sink)
        a.send(IPPacket(src=net.host(1), dst=net.host(2), protocol=UDP))
        sim.run_until_idle()
        assert len(eaten) == 1

    def test_transit_extension_sees_forwarded_packets(self, two_lans_one_router):
        sim, a, r, b, net_a, net_b = two_lans_one_router
        seen = []

        def spy(packet, in_iface):
            seen.append(packet)
            return None

        r.dataplane.register("transit", spy)
        b.register_protocol(UDP, lambda p, i: None)
        a.send(IPPacket(src=net_a.host(1), dst=net_b.host(1), protocol=UDP))
        sim.run_until_idle()
        assert len(seen) == 1


class TestCrashAndReboot:
    def test_crashed_node_black_holes(self, two_lans_one_router):
        sim, a, r, b, net_a, net_b = two_lans_one_router
        seen = []
        b.register_protocol(UDP, lambda p, i: seen.append(p))
        r.crash()
        a.send(IPPacket(src=net_a.host(1), dst=net_b.host(1), protocol=UDP))
        sim.run_until_idle()
        assert seen == []

    def test_reboot_clears_arp_and_restores_service(self, two_lans_one_router):
        sim, a, r, b, net_a, net_b = two_lans_one_router
        seen = []
        b.register_protocol(UDP, lambda p, i: seen.append(p))
        a.send(IPPacket(src=net_a.host(1), dst=net_b.host(1), protocol=UDP))
        sim.run_until_idle()
        assert len(seen) == 1
        r.crash()
        r.reboot()
        assert r.arp["eth0"].cache == {}
        a.send(IPPacket(src=net_a.host(1), dst=net_b.host(1), protocol=UDP))
        sim.run_until_idle()
        assert len(seen) == 2


class TestLSRRForwarding:
    def test_lsrr_packet_visits_listed_hop(self, two_lans_one_router):
        sim, a, r, b, net_a, net_b = two_lans_one_router
        # Route to B "via" the router's address explicitly using LSRR:
        # dst = router, LSRR lists B.  The router consumes the entry,
        # records itself, and re-routes to B.
        seen = []
        b.register_protocol(UDP, lambda p, i: seen.append(p))
        lsrr = LSRROption(route=[net_b.host(1)])
        packet = IPPacket(
            src=net_a.host(1), dst=net_a.host(254), protocol=UDP, options=[lsrr]
        )
        a.send(packet)
        sim.run_until_idle()
        assert len(seen) == 1
        got = seen[0]
        opt = got.find_lsrr()
        assert opt.exhausted
        # The recorded route now holds the router's ingress address.
        assert opt.route[0] == net_a.host(254)
