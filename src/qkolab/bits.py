"""Packed bit strings with explicit length.

Text form is ASCII '0'/'1', most significant position first; position 0 is
the leftmost character.
"""
from __future__ import annotations

import operator
from typing import Iterable

import numpy as np

from .errors import InputError


class BitString:
    """Immutable sequence of bits, packed MSB-first into bytes."""

    __slots__ = ("_packed", "_length")

    def __init__(self, bits: Iterable[int] | str):
        if isinstance(bits, str):
            if bits and set(bits) - {"0", "1"}:
                raise InputError(f"bit string text may contain only '0'/'1': {bits!r}")
            arr = np.frombuffer(bits.encode("ascii"), dtype=np.uint8) - ord("0")
        else:
            arr = np.asarray(bits if isinstance(bits, np.ndarray) else list(bits))
            if not ((arr == 0) | (arr == 1)).all():
                raise InputError("bits must be 0 or 1")
        self._length = int(arr.size)
        self._packed = np.packbits(arr.astype(np.uint8, copy=False)).tobytes()

    @classmethod
    def _from_packed(cls, packed: bytes, length: int) -> "BitString":
        obj = object.__new__(cls)
        obj._packed = packed
        obj._length = length
        return obj

    @classmethod
    def from_int(cls, value: int, width: int) -> "BitString":
        value = operator.index(value)
        if value < 0 or width < 0 or value >> width:
            raise InputError(f"value {value} does not fit in {width} bits")
        return cls._from_packed(
            (value << (-width % 8)).to_bytes((width + 7) // 8, "big"), width
        )

    @classmethod
    def zeros(cls, length: int) -> "BitString":
        return cls._from_packed(b"\x00" * ((length + 7) // 8), length)

    @classmethod
    def random(cls, length: int, rng: np.random.Generator) -> "BitString":
        return cls._from_packed(
            np.packbits(rng.integers(0, 2, length, dtype=np.uint8)).tobytes(), length
        )

    @property
    def length(self) -> int:
        return self._length

    @property
    def packed(self) -> bytes:
        """Packed bytes, MSB-first, zero-padded in the final byte."""
        return self._packed

    def bits(self) -> np.ndarray:
        """Bits as a fresh uint8 array."""
        return np.unpackbits(
            np.frombuffer(self._packed, dtype=np.uint8), count=self._length
        )

    def to_int(self) -> int:
        return int.from_bytes(self._packed, "big") >> (-self._length % 8)

    def to_text(self) -> str:
        return (self.bits() + ord("0")).tobytes().decode("ascii")

    def weight(self) -> int:
        return int(self.bits().sum())

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self._length:
            raise IndexError(f"bit index {i} out of range [0, {self._length})")
        return (self._packed[i >> 3] >> (7 - (i & 7))) & 1

    def __xor__(self, other: "BitString") -> "BitString":
        if self._length != other._length:
            raise InputError("xor requires equal lengths")
        return BitString.from_int(self.to_int() ^ other.to_int(), self._length)

    def __add__(self, other: "BitString") -> "BitString":
        return BitString.from_int(
            (self.to_int() << other._length) | other.to_int(), self._length + other._length
        )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, BitString)
            and self._length == other._length
            and self._packed == other._packed
        )

    def __hash__(self) -> int:
        return hash((self._packed, self._length))

    def __repr__(self) -> str:
        text = self.to_text()
        if len(text) > 64:
            text = text[:61] + "..."
        return f"BitString({text!r})"
