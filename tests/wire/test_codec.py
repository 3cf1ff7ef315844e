"""The wire codec: pinned encodings, round-trip properties, strictness.

The ``struct`` codec must put the same bytes on the wire as the
byte-at-a-time encoder it replaced: the hex strings below were produced
by that encoder and are pinned verbatim.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.encapsulation import MHRPPayload
from repro.core.header import MHRPHeader
from repro.core.registration import ACK, HA_REGISTER, RegistrationMessage
from repro.errors import PacketError
from repro.ip.address import IPAddress
from repro.ip.icmp import (
    EchoMessage,
    ICMPError,
    LocationUpdate,
    RouterAdvertisement,
    TYPE_DEST_UNREACHABLE,
)
from repro.ip.packet import IPPacket, RawPayload
from repro.ip.protocols import ICMP, MHRP, MOBILE_CONTROL, TCP, UDP
from repro.transport.segments import UDPDatagram
from repro.wire.codec import OpaqueICMP, decode_packet, encode_packet

A = IPAddress


def _tunneled(n_previous: int) -> IPPacket:
    return IPPacket(
        src=A("10.1.0.1"), dst=A("10.3.0.254"), protocol=MHRP, ttl=61,
        identification=0x1234,
        payload=MHRPPayload(
            header=MHRPHeader(
                orig_protocol=UDP, mobile_host=A("10.2.0.7"),
                previous_sources=[A(f"10.9.{i}.1") for i in range(n_previous)],
            ),
            inner=UDPDatagram(40000, 40001, b"cbr-payload-0123"),
        ),
    )


def pinned_packets():
    request = EchoMessage.request(7, 3, b"ping-data-xyz")
    quoted = IPPacket(
        src=A("10.1.0.1"), dst=A("10.2.0.7"), protocol=UDP, ttl=1,
        identification=77, payload=UDPDatagram(5000, 6000, b"quoted body bytes"),
    )
    return {
        "echo-request": IPPacket(
            src=A("10.1.0.1"), dst=A("10.2.0.7"), protocol=ICMP,
            identification=41, payload=request,
        ),
        "echo-reply": IPPacket(
            src=A("10.2.0.7"), dst=A("10.1.0.1"), protocol=ICMP, ttl=63,
            identification=42, payload=EchoMessage.reply_to(request),
        ),
        "router-advertisement": IPPacket(
            src=A("10.3.0.254"), dst=A("255.255.255.255"), protocol=ICMP,
            ttl=1, identification=9,
            payload=RouterAdvertisement(
                router_address=A("10.3.0.254"), lifetime=30.0,
                is_home_agent=False, is_foreign_agent=True, boot_id=123456789,
            ),
        ),
        "location-update": IPPacket(
            src=A("10.0.0.2"), dst=A("10.1.0.1"), protocol=ICMP,
            identification=500,
            payload=LocationUpdate(
                mobile_host=A("10.2.0.7"), foreign_agent=A("10.3.0.254")
            ),
        ),
        "registration-request": IPPacket(
            src=A("10.3.0.254"), dst=A("10.2.0.254"), protocol=MOBILE_CONTROL,
            identification=600,
            payload=RegistrationMessage(
                kind=HA_REGISTER, seq=17, mobile_host=A("10.2.0.7"),
                agent=A("10.3.0.254"), hw_value=0xDEADBEEF, ok=False,
            ),
        ),
        "registration-reply": IPPacket(
            src=A("10.2.0.254"), dst=A("10.3.0.254"), protocol=MOBILE_CONTROL,
            identification=601,
            payload=RegistrationMessage(
                kind=ACK, seq=17, mobile_host=A("10.2.0.7"),
                agent=A("10.3.0.254"), hw_value=0, ok=True,
            ),
        ),
        "mhrp-udp-0": _tunneled(0),
        "mhrp-udp-1": _tunneled(1),
        "mhrp-udp-3": _tunneled(3),
        "icmp-error-full-quote": IPPacket(
            src=A("10.0.0.1"), dst=A("10.1.0.1"), protocol=ICMP,
            identification=700,
            payload=ICMPError.time_exceeded(quoted, quote_full=True),
        ),
    }


PINNED_HEX = {
    "echo-request": "4500002900290000400166a10a0100010a020007080000000007000370696e672d646174612d78797a",
    "echo-reply": "45000029002a00003f0167a00a0200070a010001000000000007000370696e672d646174612d78797a",
    "router-advertisement": "45000028000900000101aecc0a0300feffffffff090000000102001e0a0300fe075bcd1500000002",
    "location-update": "4500002401f40000400164e20a0000020a01000128000000000000000a0200070a0300fe",
    "registration-request": "450000260258000040fd61830a0300fe0a0200fe030000110a0200070a0300fe0000deadbeef",
    "registration-reply": "450000260259000040fd61820a0200fe0a0300fe040100110a0200070a0300fe000000000000",
    "mhrp-udp-0": "45000034123400003dfc55980a0100010a0300fe1100e4f60a0200079c409c41001800006362722d7061796c6f61642d30313233",
    "mhrp-udp-1": "45000038123400003dfc55940a0100010a0300fe1101daeb0a0200070a0900019c409c41001800006362722d7061796c6f61642d30313233",
    "mhrp-udp-3": "45000040123400003dfc558c0a0100010a0300fe1103c3d50a0200070a0900010a0901010a0902019c409c41001800006362722d7061796c6f61642d30313233",
    "icmp-error-full-quote": "4500004902bc0000400163f60a0000010a0100010b000000000000004500002d004d00000111a5690a0100010a020007138817700019000071756f74656420626f6479206279746573",
}


class TestPinnedEncodings:
    @pytest.mark.parametrize("name", sorted(PINNED_HEX))
    def test_encoding_is_byte_identical(self, name):
        assert encode_packet(pinned_packets()[name]).hex() == PINNED_HEX[name]

    @pytest.mark.parametrize("name", sorted(PINNED_HEX))
    def test_pinned_bytes_decode_and_re_encode(self, name):
        data = bytes.fromhex(PINNED_HEX[name])
        assert encode_packet(decode_packet(data)) == data


# ----------------------------------------------------------------------
# Round trip
# ----------------------------------------------------------------------
addresses = st.integers(min_value=0, max_value=2**32 - 1).map(IPAddress)
small_bytes = st.binary(max_size=64)


@st.composite
def packets(draw):
    kind = draw(st.sampled_from(["raw", "echo", "update", "registration", "mhrp"]))
    if kind == "raw":
        protocol = draw(st.sampled_from([UDP, TCP, 200]))
        payload = RawPayload(draw(small_bytes))
    elif kind == "echo":
        protocol = ICMP
        payload = EchoMessage.request(
            draw(st.integers(0, 0xFFFF)), draw(st.integers(0, 0xFFFF)),
            draw(small_bytes),
        )
    elif kind == "update":
        protocol = ICMP
        payload = LocationUpdate(
            mobile_host=draw(addresses), foreign_agent=draw(addresses)
        )
    elif kind == "registration":
        protocol = MOBILE_CONTROL
        payload = RegistrationMessage(
            kind=draw(st.sampled_from([HA_REGISTER, ACK])),
            seq=draw(st.integers(0, 0xFFFF)), mobile_host=draw(addresses),
            agent=draw(addresses), hw_value=draw(st.integers(0, 2**48 - 1)),
            ok=draw(st.booleans()),
        )
    else:
        protocol = MHRP
        payload = MHRPPayload(
            header=MHRPHeader(
                orig_protocol=draw(st.sampled_from([UDP, TCP, ICMP])),
                mobile_host=draw(addresses),
                previous_sources=draw(st.lists(addresses, max_size=8)),
            ),
            inner=RawPayload(draw(small_bytes)),
        )
        if payload.header.orig_protocol == ICMP:
            payload.inner = EchoMessage.request(1, 2, draw(small_bytes))
    return IPPacket(
        src=draw(addresses), dst=draw(addresses), protocol=protocol,
        payload=payload, ttl=draw(st.integers(0, 255)),
        tos=draw(st.integers(0, 255)),
        identification=draw(st.integers(0, 0xFFFF)),
    )


class TestRoundTrip:
    @given(packets())
    @settings(max_examples=200, deadline=None)
    def test_decode_inverts_encode(self, packet):
        data = encode_packet(packet)
        decoded = decode_packet(data)
        assert (decoded.src, decoded.dst, decoded.protocol) == (
            packet.src, packet.dst, packet.protocol,
        )
        assert (decoded.ttl, decoded.tos, decoded.identification) == (
            packet.ttl, packet.tos, packet.identification,
        )
        assert encode_packet(decoded) == data


class TestEncodeStrictness:
    def _packet(self, **kwargs):
        return IPPacket(src=A("10.0.0.1"), dst=A("10.0.0.2"), protocol=UDP, **kwargs)

    @pytest.mark.parametrize("ttl", [256, -1])
    def test_out_of_range_ttl_raises(self, ttl):
        packet = self._packet()
        packet.ttl = ttl  # the constructor checks; a rewrite does not
        with pytest.raises(PacketError):
            encode_packet(packet)

    @pytest.mark.parametrize("tos", [256, -1])
    def test_out_of_range_tos_raises(self, tos):
        with pytest.raises(PacketError):
            encode_packet(self._packet(tos=tos))

    def test_total_length_over_65535_raises(self):
        packet = self._packet(payload=RawPayload(bytes(65536 - 20)))
        with pytest.raises(PacketError):
            encode_packet(packet)
        # One byte less fits exactly.
        packet.payload = RawPayload(bytes(65535 - 20))
        assert len(encode_packet(packet)) == 65535

    @pytest.mark.parametrize("name", ["echo-request", "mhrp-udp-1"])
    def test_any_header_bit_flip_is_rejected(self, name):
        data = bytes.fromhex(PINNED_HEX[name])
        for bit in range(8 * 20):
            corrupt = bytearray(data)
            corrupt[bit // 8] ^= 0x80 >> (bit % 8)
            with pytest.raises(PacketError):
                decode_packet(bytes(corrupt))

    def test_out_of_range_mhrp_protocol_raises(self):
        header = MHRPHeader(orig_protocol=UDP, mobile_host=A("10.0.0.9"))
        header.orig_protocol = 256
        with pytest.raises(PacketError):
            header.to_bytes()


# ----------------------------------------------------------------------
# Opaque ICMP
# ----------------------------------------------------------------------
def _icmp_datagram(icmp: bytes) -> bytes:
    return encode_packet(IPPacket(
        src=A("10.0.0.1"), dst=A("10.0.0.2"), protocol=ICMP,
        payload=RawPayload(icmp), identification=5,
    ))


class TestOpaqueICMP:
    def test_unknown_type_keeps_header_bytes_4_to_7(self):
        # Type 13 (timestamp) is not interpreted: its id/seq must survive.
        icmp = bytes((13, 0, 0, 0)) + bytes.fromhex("12345678") + b"timestamps.."
        data = _icmp_datagram(icmp)
        decoded = decode_packet(data)
        assert isinstance(decoded.payload, OpaqueICMP)
        assert decoded.payload.rest == bytes.fromhex("12345678")
        assert decoded.payload.byte_length == len(icmp)
        assert encode_packet(decoded) == data

    def test_frag_needed_keeps_next_hop_mtu(self):
        # RFC 1191: bytes 6-7 of a frag-needed error carry the next-hop
        # MTU.  A partial quote (header + 8 bytes) stays opaque.
        original = encode_packet(IPPacket(
            src=A("10.0.0.2"), dst=A("10.9.0.1"), protocol=UDP,
            payload=RawPayload(bytes(100)), identification=6,
        ))
        icmp = bytes((TYPE_DEST_UNREACHABLE, 4, 0, 0, 0, 0, 0x05, 0xDC)) + original[:28]
        data = _icmp_datagram(icmp)
        decoded = decode_packet(data)
        assert isinstance(decoded.payload, OpaqueICMP)
        assert decoded.payload.rest == bytes((0, 0, 0x05, 0xDC))
        assert decoded.payload.byte_length == len(icmp)
        assert encode_packet(decoded) == data

    def test_default_rest_is_zero(self):
        message = OpaqueICMP(icmp_type=13, code=0, body=b"xy")
        assert message.to_bytes() == bytes((13, 0, 0, 0, 0, 0, 0, 0)) + b"xy"
        assert message.byte_length == 10
