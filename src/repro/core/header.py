"""The MHRP header (paper Figure 3).

MHRP does not nest a second IP header the way IP-in-IP does; it rewrites
fields of the *existing* IP header and inserts this small header between
the IP header and the transport header:

====================  =======  =============================================
field                 bytes    meaning
====================  =======  =============================================
Orig Protocol         1        IP protocol number displaced from the IP hdr
Count                 1        number of previous IP source addresses
MHRP Header Checksum  2        internet checksum over the MHRP header
IP Address of         4        original IP destination (the mobile host),
Mobile Host                    displaced from the IP header
Previous IP source    4 each   one per tunnel hop this packet has taken
addresses
====================  =======  =============================================

A sender-built header carries no previous sources (8 bytes); a header
built by a home agent or en-route cache agent carries one (12 bytes) —
the Section 7 overhead numbers fall straight out of this layout, and the
T1 bench measures them from :meth:`MHRPHeader.to_bytes`.

The previous-source list is *the* robustness structure of the protocol:
it identifies every out-of-date cache the packet consulted (Section 5.1),
reconnects rebooted foreign agents (Section 5.2), and detects routing
loops (Section 5.3).  Implementations may bound its length
(Section 4.4); :data:`DEFAULT_MAX_PREVIOUS_SOURCES` is this
implementation's default bound.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from functools import lru_cache
from typing import List

from repro.errors import PacketError
from repro.ip.address import IPAddress
from repro.ip.checksum import checksum_from_sum, internet_checksum
from repro.ip.packet import Payload

#: Default bound on the previous-source list (Section 4.4 allows "any
#: finite maximum length"); the A1 ablation bench sweeps this.
DEFAULT_MAX_PREVIOUS_SOURCES = 8

#: Fixed part of the header: orig proto + count + checksum + mobile host.
FIXED_HEADER_LEN = 8


@lru_cache(maxsize=256)
def _header_struct(count: int) -> struct.Struct:
    """The header layout with ``count`` previous sources (the count
    field is one byte, so at most 256 layouts exist)."""
    return struct.Struct(f"!BBHI{count}I")


@dataclass
class MHRPHeader:
    """The MHRP header carried inside a tunneled packet."""

    orig_protocol: int
    mobile_host: IPAddress
    previous_sources: List[IPAddress] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not 0 <= self.orig_protocol <= 255:
            raise PacketError(f"protocol out of range: {self.orig_protocol}")
        # Addresses are immutable: an IPAddress argument is shared as is.
        if type(self.mobile_host) is not IPAddress:
            self.mobile_host = IPAddress(self.mobile_host)

    @property
    def count(self) -> int:
        """Number of previous IP source addresses."""
        return len(self.previous_sources)

    @property
    def byte_length(self) -> int:
        """8 bytes fixed + 4 per previous source (Figure 3)."""
        return FIXED_HEADER_LEN + 4 * self.count

    @property
    def original_sender(self) -> IPAddress | None:
        """The packet's original source, if the list is non-empty.

        The first list entry is always the original sender (Section 5.1);
        when the list is empty the original sender never left the IP
        header's source field.
        """
        return self.previous_sources[0] if self.previous_sources else None

    def contains_source(self, address: IPAddress) -> bool:
        """Loop check: is ``address`` already recorded as a tunnel head?"""
        return address in self.previous_sources

    def to_bytes(self) -> bytes:
        """Exact wire encoding, with a valid internet checksum."""
        count = len(self.previous_sources)
        if count > 255:
            raise PacketError("previous-source list too long for count field")
        mobile_host = self.mobile_host._value
        sources = [address._value for address in self.previous_sources]
        # Word sum in closed form (see repro.ip.checksum).
        csum = checksum_from_sum(
            (self.orig_protocol << 8) + count + mobile_host + sum(sources)
        )
        try:
            return _header_struct(count).pack(
                self.orig_protocol, count, csum, mobile_host, *sources
            )
        except struct.error as exc:
            raise PacketError(f"MHRP header field out of range: {exc}") from None

    @classmethod
    def from_bytes(cls, data: bytes) -> "MHRPHeader":
        if len(data) < FIXED_HEADER_LEN:
            raise PacketError("MHRP header truncated")
        count = data[1]
        needed = FIXED_HEADER_LEN + 4 * count
        if len(data) < needed:
            raise PacketError(
                f"MHRP header claims {count} sources but only "
                f"{len(data)} bytes present"
            )
        if len(data) > needed:
            # Wire-format strictness: the header is self-delimiting via
            # the count field, so trailing bytes mean a corrupt count or
            # a framing bug upstream — never silently ignore them.
            raise PacketError(
                f"MHRP header has {len(data) - needed} trailing byte(s) "
                f"past the {count}-source header"
            )
        if internet_checksum(data) != 0:
            raise PacketError("MHRP header checksum mismatch")
        orig_protocol, _, _, mobile_host, *sources = _header_struct(count).unpack(data)
        return cls(
            orig_protocol=orig_protocol,
            mobile_host=IPAddress(mobile_host),
            previous_sources=[IPAddress(value) for value in sources],
        )

    def copy(self) -> "MHRPHeader":
        return MHRPHeader(
            orig_protocol=self.orig_protocol,
            mobile_host=self.mobile_host,
            previous_sources=list(self.previous_sources),
        )

    def __repr__(self) -> str:
        return (
            f"<MHRPHeader mh={self.mobile_host} proto={self.orig_protocol} "
            f"prev={[str(a) for a in self.previous_sources]}>"
        )
