"""Byte-accurate packet decoding — the inverse of ``IPPacket.to_bytes``.

The simulator ships packets as Python objects, so serialization was
write-only: every message type had a wire-exact ``to_bytes`` (the paper's
Section 7 overhead numbers are measured from them) but nothing ever
parsed bytes back.  The live UDP backend makes decoding load-bearing:
each node is a real socket endpoint and *only* bytes cross between them.

Decoding follows the same strictness rules the PR 4 trailing-bytes suite
pinned for the MHRP header: fixed-size messages reject truncation *and*
trailing bytes, checksums are verified, and unknown structure raises
:class:`~repro.errors.PacketError` rather than being papered over.

What round-trips and what does not:

- ``decode_packet(encode_packet(p))`` reproduces every protocol-visible
  field.  The ``uid`` does *not* survive — it is a per-process tracing
  handle, never on the wire — and each decode assigns a fresh one.
- IP options are rejected (the live backend routes statically and never
  emits them); fragments likewise.
- ICMP errors are decoded back into :class:`ICMPError` only when the
  quote is a complete, self-consistent packet; partial quotes decode as
  :class:`OpaqueICMP`, which re-serializes verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.encapsulation import MHRPPayload
from repro.core.header import FIXED_HEADER_LEN, MHRPHeader
from repro.core.registration import RegistrationMessage
from repro.errors import PacketError
from repro.ip.address import IPAddress
from repro.ip.checksum import checksum_from_sum
from repro.ip.icmp import (
    EchoMessage,
    ICMPError,
    LocationUpdate,
    RouterAdvertisement,
    RouterSolicitation,
    TYPE_DEST_UNREACHABLE,
    TYPE_ECHO_REPLY,
    TYPE_ECHO_REQUEST,
    TYPE_LOCATION_UPDATE,
    TYPE_ROUTER_ADVERTISEMENT,
    TYPE_ROUTER_SOLICITATION,
    TYPE_TIME_EXCEEDED,
)
from repro.ip.packet import BASE_HEADER_LEN, HEADER_STRUCT, IPPacket, RawPayload
from repro.ip.protocols import ICMP, MHRP, MOBILE_CONTROL

_ICMP_HEADER_LEN = 8


@dataclass(frozen=True)
class OpaqueICMP:
    """An ICMP message whose body we carry but do not interpret.

    Used for error messages with partial quotes (the quote's embedded
    length fields describe the *original* packet, not the quoted bytes,
    so a truncated quote cannot be rebuilt into an ``IPPacket``) and for
    unknown ICMP types, which RFC 1122 says to silently discard — the
    node layer does the discarding; the codec preserves the bytes.

    ``rest`` is header bytes 4-7, whose meaning depends on the type (the
    RFC 1191 next-hop MTU of a frag-needed error, an unknown type's
    id/seq); with it the message re-serializes verbatim.  (Bytes 2-3,
    the ICMP checksum, are written as zero, like every ICMP message of
    this codebase.)
    """

    icmp_type: int
    code: int
    body: bytes = b""
    rest: bytes = bytes(4)

    @property
    def is_error(self) -> bool:
        return self.icmp_type in (TYPE_DEST_UNREACHABLE, TYPE_TIME_EXCEEDED)

    @property
    def byte_length(self) -> int:
        return _ICMP_HEADER_LEN + len(self.body)

    def to_bytes(self) -> bytes:
        return bytes((self.icmp_type, self.code, 0, 0)) + self.rest + self.body


def _opaque(data: bytes) -> OpaqueICMP:
    return OpaqueICMP(
        icmp_type=data[0], code=data[1],
        body=bytes(data[_ICMP_HEADER_LEN:]), rest=bytes(data[4:8]),
    )


def _decode_icmp_error(data: bytes) -> object:
    """An error with a full self-consistent quote becomes an
    :class:`ICMPError`; anything shorter stays opaque."""
    quote = data[_ICMP_HEADER_LEN:]
    if len(quote) >= BASE_HEADER_LEN:
        declared = int.from_bytes(quote[2:4], "big")
        if declared == len(quote):
            try:
                quoted = decode_packet(quote)
            except PacketError:
                quoted = None
            if quoted is not None:
                return ICMPError(
                    icmp_type=data[0],
                    code=data[1],
                    quoted=quoted,
                    quote_full=True,
                )
    return _opaque(data)


def _decode_icmp(data: bytes) -> object:
    if len(data) < _ICMP_HEADER_LEN:
        raise PacketError(f"ICMP message truncated ({len(data)} bytes)")
    icmp_type = data[0]
    if icmp_type in (TYPE_ECHO_REQUEST, TYPE_ECHO_REPLY):
        return EchoMessage.from_bytes(data)
    if icmp_type == TYPE_LOCATION_UPDATE:
        return LocationUpdate.from_bytes(data)
    if icmp_type == TYPE_ROUTER_ADVERTISEMENT:
        return RouterAdvertisement.from_bytes(data)
    if icmp_type == TYPE_ROUTER_SOLICITATION:
        if len(data) != _ICMP_HEADER_LEN:
            raise PacketError(
                f"solicitation has {len(data) - _ICMP_HEADER_LEN} trailing byte(s)"
            )
        return RouterSolicitation(code=data[1])
    if icmp_type in (TYPE_DEST_UNREACHABLE, TYPE_TIME_EXCEEDED):
        return _decode_icmp_error(data)
    return _opaque(data)


def _decode_mhrp(data: bytes) -> MHRPPayload:
    """Split the self-delimiting MHRP header from the inner payload."""
    if len(data) < FIXED_HEADER_LEN:
        raise PacketError(f"MHRP payload truncated ({len(data)} bytes)")
    header_len = FIXED_HEADER_LEN + 4 * data[1]
    if len(data) < header_len:
        raise PacketError(
            f"MHRP header claims {data[1]} sources but only {len(data)} bytes present"
        )
    header = MHRPHeader.from_bytes(data[:header_len])
    if header.orig_protocol == MHRP:
        # encapsulate() refuses to nest tunnels, so a nested header can
        # only be corruption; rejecting it also bounds decode recursion.
        raise PacketError("nested MHRP encapsulation")
    inner = _decode_payload(header.orig_protocol, data[header_len:])
    return MHRPPayload(header=header, inner=inner)


def _decode_payload(protocol: int, data: bytes) -> object:
    if protocol == MHRP:
        return _decode_mhrp(data)
    if protocol == MOBILE_CONTROL:
        return RegistrationMessage.from_bytes(data)
    if protocol == ICMP:
        return _decode_icmp(data)
    return RawPayload(bytes(data))


def decode_packet(data: bytes) -> IPPacket:
    """Parse one datagram into an :class:`IPPacket`.

    Strict: bad version/IHL, length disagreement, checksum mismatch,
    fragments, and IP options all raise :class:`PacketError`, as does any
    malformed payload of a protocol the codec understands.  A fresh
    ``uid`` is assigned (uids are tracing handles, never on the wire).
    """
    if len(data) < BASE_HEADER_LEN:
        raise PacketError(f"IP packet truncated ({len(data)} bytes)")
    (version_ihl, tos, total_length, identification, fragment,
     ttl, protocol, checksum, src, dst) = HEADER_STRUCT.unpack_from(data)
    version, ihl_words = version_ihl >> 4, version_ihl & 0x0F
    if version != 4:
        raise PacketError(f"bad IP version {version}")
    if ihl_words != 5:
        # to_bytes emits options, but the live backend never does: the
        # LSRR experiments are simulator-only.  Reject rather than skip.
        raise PacketError(f"IP options not supported by codec (IHL={ihl_words})")
    if total_length != len(data):
        raise PacketError(
            f"IP total length {total_length} != datagram length {len(data)}"
        )
    if fragment:
        raise PacketError("fragmented packets not supported")
    # The header's word sum in closed form (see repro.ip.checksum): a
    # correct stored checksum makes the whole header check to 0.
    if checksum_from_sum(
        (version_ihl << 8) + tos + total_length + identification + fragment
        + (ttl << 8) + protocol + checksum + src + dst
    ):
        raise PacketError("IP header checksum mismatch")
    return IPPacket(
        src=IPAddress(src),
        dst=IPAddress(dst),
        protocol=protocol,
        payload=_decode_payload(protocol, data[BASE_HEADER_LEN:]),
        ttl=ttl,
        tos=tos,
        identification=identification,
    )


def encode_packet(packet: IPPacket) -> bytes:
    """Serialize ``packet`` for the wire (delegates to ``to_bytes``)."""
    return packet.to_bytes()
