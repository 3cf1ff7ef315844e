"""The internet checksum (RFC 1071).

Used by the IP header, ICMP messages, and the MHRP header (Figure 3 of the
paper includes an "MHRP Header Checksum" field).

The one's-complement sum of 16-bit words has a closed form: because
``2**16 ≡ 1 (mod 0xFFFF)``, a word's weight in the big-endian integer of
the data does not change its residue, so the folded sum is that integer
modulo ``0xFFFF`` — except that a non-zero multiple of ``0xFFFF`` folds
to ``0xFFFF``, not 0 (end-around carry never yields zero from non-zero
words).  One ``int.from_bytes`` replaces the per-word Python loop.
"""

from __future__ import annotations


def checksum_from_sum(total: int) -> int:
    """The stored checksum of data whose word sum is ``total``.

    ``total`` may be any non-negative integer congruent to the 16-bit
    word sum modulo ``0xFFFF`` that is zero only when every word is
    zero: the big-endian integer of the data, or a sum of its fields
    where a 32-bit field counts as one integer (``hi * 2**16 + lo``
    has the residue of ``hi + lo``).
    """
    folded = total % 0xFFFF
    if folded == 0 and total:
        folded = 0xFFFF
    return 0xFFFF - folded


def internet_checksum(data: bytes) -> int:
    """One's-complement sum of 16-bit words, per RFC 1071.

    Odd-length input is padded with a zero byte.  Returns the 16-bit
    checksum value to be stored in a header (i.e. already complemented).
    """
    if len(data) % 2:
        data = data + b"\x00"
    return checksum_from_sum(int.from_bytes(data, "big"))


def verify_checksum(data: bytes) -> bool:
    """True if ``data`` (including its embedded checksum field) verifies.

    A block whose stored checksum is correct sums to 0xFFFF before the
    final complement, i.e. :func:`internet_checksum` over it returns 0.
    """
    return internet_checksum(data) == 0
