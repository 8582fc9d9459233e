import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qkolab.bitio import BitReader, BitWriter
from qkolab.bits import BitString
from qkolab.errors import DecodeError, InputError

bit_lists = st.lists(st.integers(0, 1), max_size=200)


@given(bit_lists)
def test_text_roundtrip(bits):
    b = BitString(bits)
    assert BitString(b.to_text()) == b
    assert len(b) == len(bits)


@given(st.integers(0, 2**30), st.integers(31, 40))
def test_int_roundtrip(value, width):
    assert BitString.from_int(value, width).to_int() == value


@given(bit_lists, bit_lists)
def test_concat_and_xor(a, b):
    sa, sb = BitString(a), BitString(b)
    assert (sa + sb).to_text() == sa.to_text() + sb.to_text()
    if len(a) == len(b):
        assert (sa ^ sb).bits().tolist() == [x ^ y for x, y in zip(a, b)]


def test_padding_bits_do_not_leak():
    assert BitString("101").packed == b"\xa0"


def test_validation():
    with pytest.raises(InputError):
        BitString("10x")
    with pytest.raises(InputError):
        BitString([0, 2])
    with pytest.raises(InputError):
        BitString("01") ^ BitString("011")


def test_zeros_random_weight():
    assert BitString.zeros(10).weight() == 0
    r = BitString.random(1000, np.random.default_rng(0))
    assert 400 < r.weight() < 600
    assert BitString.random(64, np.random.default_rng(5)) == BitString.random(
        64, np.random.default_rng(5)
    )


@given(st.lists(st.tuples(st.integers(0, 2**16 - 1), st.integers(17, 24)), max_size=30))
def test_bitio_roundtrip(fields):
    w = BitWriter()
    for value, width in fields:
        w.write_uint(value, width)
    r = BitReader(w.to_bytes())
    for value, width in fields:
        assert r.read_uint(width) == value


def test_bitio_truncation_reports_offset():
    r = BitReader(b"\xff")
    r.read_uint(6)
    with pytest.raises(DecodeError) as exc:
        r.read_uint(6)
    assert exc.value.offset == 6


def test_bitstring_validation_acceptance_set():
    assert BitString(np.array([1.0, 0.0])) == BitString("10")
    assert BitString(np.array([True, False, True])) == BitString("101")
    assert BitString(np.array([[0, 1], [1, 0]])) == BitString("0110")
    assert BitString([]) == BitString("")
    for bad in ([0.5], [np.nan], [-1], [2], ["0", "1"], np.array(["1"])):
        with pytest.raises(InputError):
            BitString(bad)


equal_length_pairs = st.integers(0, 100).flatmap(
    lambda n: st.tuples(*[st.lists(st.integers(0, 1), min_size=n, max_size=n)] * 2)
)


@given(equal_length_pairs, bit_lists)
def test_int_xor_concat_match_numpy(pair, c):
    a, b = (np.array(v, dtype=np.uint8) for v in pair)
    weights = 1 << np.arange(len(a) - 1, -1, -1).astype(object)
    assert BitString.from_int(int((a * weights).sum()), len(a)).bits().tolist() == a.tolist()
    sa, sb, sc = BitString(a), BitString(b), BitString(c)
    assert (sa ^ sb).bits().tolist() == (a ^ b).tolist()
    assert (sa + sc).bits().tolist() == np.concatenate([a, np.array(c, np.uint8)]).tolist()


def test_from_int_rejects_overflow():
    with pytest.raises(InputError):
        BitString.from_int(4, 2)
    with pytest.raises(InputError):
        BitString.from_int(-1, 8)
    assert BitString.from_int(0, 0) == BitString("")


def _reference_bytes(bits: list[int]) -> bytes:
    bits = bits + [0] * (-len(bits) % 8)
    return bytes(
        sum(bit << (7 - j) for j, bit in enumerate(bits[i : i + 8]))
        for i in range(0, len(bits), 8)
    )


_bitio_ops = st.lists(
    st.one_of(
        st.integers(0, 80).flatmap(
            lambda w: st.tuples(st.just("uint"), st.integers(0, 2**w - 1), st.just(w))
        ),
        st.just(("align", 0, 0)),
    ),
    max_size=40,
)


@given(_bitio_ops)
def test_bitio_matches_per_bit_reference(ops):
    w = BitWriter()
    ref: list[int] = []
    for kind, value, width in ops:
        if kind == "uint":
            w.write_uint(value, width)
            ref += [(value >> (width - 1 - i)) & 1 for i in range(width)]
        else:
            w.align_to_byte()
            ref += [0] * (-len(ref) % 8)
        assert w.bit_length == len(ref)
    data = w.to_bytes()
    assert data == _reference_bytes(ref)
    r = BitReader(data)
    for kind, value, width in ops:
        if kind == "uint":
            assert r.read_uint(width) == value
        else:
            r.align_to_byte()
    assert r.position == len(ref)


def test_write_uint_rejects_values_wider_than_width():
    for value, width in ((2**64, 64), (2**80, 70), (2, 1), (-1, 8)):
        with pytest.raises(ValueError):
            BitWriter().write_uint(value, width)


def test_bitio_rejects_nonzero_padding():
    r = BitReader(b"\x81")
    r.read_uint(1)
    with pytest.raises(DecodeError) as exc:
        r.align_to_byte()
    assert exc.value.offset == 1
