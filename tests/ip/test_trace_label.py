"""Packet trace labels are record-time snapshots, and the IP value types'
cached hash, text and broadcast keep their values."""

from repro.core.encapsulation import encapsulate, retunnel
from repro.ip.address import IPAddress, IPNetwork
from repro.ip.options import LSRROption
from repro.ip.packet import BASE_HEADER_LEN, IPPacket, PacketLabel, RawPayload
from repro.ip.protocols import ICMP, MHRP, UDP
from repro.netsim.simulator import Simulator


def _packet(**kwargs):
    fields = dict(src="10.0.0.1", dst="10.2.0.10", protocol=UDP,
                  payload=RawPayload.of_size(12))
    fields.update(kwargs)
    return IPPacket(**fields)


class TestPacketLabel:
    def test_str_equals_repr(self):
        for packet in (
            _packet(),
            _packet(protocol=ICMP, ttl=1),
            _packet(protocol=200, ttl=255),
            _packet(options=[LSRROption(route=[IPAddress("10.9.0.1")])]),
        ):
            label = packet.trace_label()
            assert isinstance(label, PacketLabel)
            assert str(label) == repr(packet)

    def test_trace_keeps_values_from_record_time(self):
        """TTL, addresses, payload and the previous-source list all change
        in place after a packet is traced; its entries must not."""
        sim = Simulator(seed=0)
        packet = _packet()
        expected = []

        def trace(category):
            expected.append(repr(packet))
            sim.trace(category, "n", packet=packet.trace_label(), uid=packet.uid)

        trace("ip.send")
        packet.ttl -= 3
        packet.dst = IPAddress("10.5.0.7")
        trace("ip.forward")
        encapsulate(packet, IPAddress("10.3.0.1"), agent_address=IPAddress("10.0.0.254"))
        assert packet.protocol == MHRP
        trace("mhrp.tunnel")
        retunnel(packet, IPAddress("10.4.0.1"), IPAddress("10.3.0.1"))
        trace("mhrp.tunnel")
        packet.ttl = 9
        assert len(set(expected)) == 4, "every mutation must change the repr"
        assert [e.detail["packet"] for e in sim.tracer.entries] == expected
        assert [str(e).split("packet=")[1].split(" uid=")[0]
                for e in sim.tracer.entries] == expected

    def test_link_trace_labels_ip_frames(self):
        from repro.workloads.topology import build_figure1

        topo = build_figure1(seed=42)
        topo.m.attach_home(topo.net_b)
        topo.sim.run(until=2.0)
        topo.s.ping(topo.m.home_address)
        topo.sim.run(until=4.0)
        frames = [e.detail["frame"] for e in topo.sim.tracer.entries
                  if e.category in ("link.tx", "link.rx")]
        assert any(f.startswith("<IPPacket #") for f in frames)
        assert all(type(f) is str for f in frames)


class TestAddressCaches:
    def test_hash_value_is_unchanged(self):
        for text in ("0.0.0.0", "10.0.0.1", "255.255.255.255"):
            address = IPAddress(text)
            assert hash(address) == hash(("IPAddress", address.value))
            assert hash(IPAddress(address)) == hash(address)
            assert hash(IPAddress(address.value)) == hash(address)

    def test_text_is_cached_and_unchanged(self):
        address = IPAddress(0x0A02000A)
        assert str(address) == "10.2.0.10"
        assert str(address) is str(address)
        assert repr(address) == "IPAddress('10.2.0.10')"

    def test_equality_paths(self):
        address = IPAddress("10.0.0.1")
        assert address == IPAddress("10.0.0.1")
        assert address != IPAddress("10.0.0.2")
        assert address == "10.0.0.1"
        assert address == 0x0A000001
        assert address != "not an address"
        assert {address: 1}[IPAddress("10.0.0.1")] == 1

    def test_packet_shares_address_objects(self):
        src = IPAddress("10.0.0.1")
        packet = _packet(src=src)
        assert packet.src is src
        assert packet.dst == IPAddress("10.2.0.10")

    def test_broadcast_is_computed_once(self):
        network = IPNetwork("10.1.0.0/16")
        assert network.broadcast == IPAddress("10.1.255.255")
        assert network.broadcast is network.broadcast
        assert IPNetwork("10.0.0.0/32").broadcast == IPAddress("10.0.0.0")

    def test_header_length(self):
        assert _packet().header_length == BASE_HEADER_LEN
        with_option = _packet(options=[LSRROption(route=[IPAddress("10.9.0.1")])])
        assert with_option.header_length == BASE_HEADER_LEN + 8
        assert with_option.total_length == BASE_HEADER_LEN + 8 + 12
