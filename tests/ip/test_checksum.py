"""Unit tests for the internet checksum."""

from hypothesis import given, strategies as st

from repro.ip.checksum import checksum_from_sum, internet_checksum, verify_checksum


def reference_checksum(data: bytes) -> int:
    """RFC 1071 as written: sum 16-bit words, fold carries, complement."""
    if len(data) % 2:
        data = data + b"\x00"
    total = 0
    for i in range(0, len(data), 2):
        total += (data[i] << 8) | data[i + 1]
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return (~total) & 0xFFFF


class TestInternetChecksum:
    def test_rfc1071_example(self):
        # Example from RFC 1071 section 3: 0001 f203 f4f5 f6f7 -> sum ddf2,
        # checksum (complement) 220d.
        data = bytes.fromhex("0001f203f4f5f6f7")
        assert internet_checksum(data) == 0x220D

    def test_zero_data(self):
        assert internet_checksum(b"\x00\x00") == 0xFFFF

    def test_all_ones(self):
        assert internet_checksum(b"\xff\xff") == 0x0000

    def test_odd_length_padding(self):
        # Odd input is padded with a trailing zero byte.
        assert internet_checksum(b"\xab") == internet_checksum(b"\xab\x00")

    def test_empty(self):
        assert internet_checksum(b"") == 0xFFFF

    def test_verify_round_trip(self):
        data = bytes(range(40))
        csum = internet_checksum(data)
        # Insert the checksum into a block with a zeroed checksum slot.
        block = data[:10] + csum.to_bytes(2, "big") + data[12:]
        pre = data[:10] + b"\x00\x00" + data[12:]
        csum2 = internet_checksum(pre)
        block = pre[:10] + csum2.to_bytes(2, "big") + pre[12:]
        assert verify_checksum(block)

    def test_corruption_detected(self):
        pre = bytes(20)
        csum = internet_checksum(pre)
        block = bytearray(pre[:10] + csum.to_bytes(2, "big") + pre[12:])
        block[0] ^= 0x01
        assert not verify_checksum(bytes(block))


class TestClosedForm:
    """The modulo-0xFFFF closed form equals the word loop on any input."""

    @given(st.binary(max_size=200))
    def test_random_input(self, data):
        assert internet_checksum(data) == reference_checksum(data)

    @given(st.binary(max_size=99).filter(lambda d: len(d) % 2 == 1))
    def test_odd_length_input(self, data):
        assert internet_checksum(data) == reference_checksum(data)

    @given(st.integers(min_value=0, max_value=300))
    def test_all_zero_and_all_ones(self, length):
        for fill in (0x00, 0xFF):
            data = bytes([fill]) * length
            assert internet_checksum(data) == reference_checksum(data)

    def test_empty(self):
        assert internet_checksum(b"") == reference_checksum(b"") == 0xFFFF

    def test_non_zero_multiple_of_0xffff_folds_to_0xffff(self):
        # 0x8000 + 0x7FFF = 0xFFFF: the sum is a non-zero multiple of
        # 0xFFFF, so the checksum is 0, not the all-zero 0xFFFF.
        data = bytes.fromhex("80007fff")
        assert internet_checksum(data) == reference_checksum(data) == 0

    @given(st.lists(st.integers(min_value=0, max_value=0xFFFF), max_size=40))
    def test_from_word_sum(self, words):
        data = b"".join(w.to_bytes(2, "big") for w in words)
        assert checksum_from_sum(sum(words)) == reference_checksum(data)
