"""Big-endian bit-level writer/reader for the header of the fixed-point
state layout (``fingerprint.quantize_state``/``decode_state``)."""
from __future__ import annotations

from .errors import DecodeError


class BitWriter:
    """Whole bytes go to a bytearray; fewer than 8 pending bits wait in a
    small int, so the cost of a write does not grow with the stream."""

    __slots__ = ("_buf", "_acc", "_nacc")

    def __init__(self):
        self._buf = bytearray()
        self._acc = 0  # pending bits, MSB first
        self._nacc = 0  # count of pending bits, always < 8

    def write_uint(self, value: int, width: int) -> None:
        if value < 0 or value >> width:
            raise ValueError(f"value {value} does not fit in {width} bits")
        acc = (self._acc << width) | value
        n = self._nacc + width
        if n >= 8:
            rest = n & 7
            self._buf += (acc >> rest).to_bytes(n >> 3, "big")
            acc &= (1 << rest) - 1
            n = rest
        self._acc, self._nacc = acc, n

    def align_to_byte(self) -> None:
        if self._nacc:
            self.write_uint(0, 8 - self._nacc)

    @property
    def bit_length(self) -> int:
        return 8 * len(self._buf) + self._nacc

    def to_bytes(self) -> bytes:
        """Zero-pad to a byte boundary and return the buffer."""
        if not self._nacc:
            return bytes(self._buf)
        return bytes(self._buf) + bytes([self._acc << (8 - self._nacc)])


class BitReader:
    __slots__ = ("_data", "_pos")

    def __init__(self, data: bytes):
        self._data = data
        self._pos = 0

    @property
    def position(self) -> int:
        return self._pos

    def read_uint(self, width: int) -> int:
        end = self._pos + width
        if end > 8 * len(self._data):
            raise DecodeError("payload truncated", offset=self._pos)
        covering = int.from_bytes(self._data[self._pos >> 3 : (end + 7) >> 3], "big")
        self._pos = end
        return (covering >> (-end % 8)) & ((1 << width) - 1)

    def align_to_byte(self) -> None:
        pad = -self._pos % 8
        if pad and self.read_uint(pad):
            raise DecodeError("nonzero padding bits", offset=self._pos - pad)
