import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qkolab.bits import BitString
from qkolab.codes import (
    M_CAP,
    VERIFY_N_CAP,
    LinearCode,
    concatenated_code,
    decode_message,
    encode,
    encode_blocks,
    hadamard_code,
    simplex_code,
    verify_distance,
)
from qkolab.errors import CapError, InputError


def test_hadamard_generator_example():
    # position z carries the bit <x, z>; for n=2 the four positions are
    # 00,01,10,11 so E(10) = 0011 and E(11) = 0110
    code = hadamard_code(2)
    assert code.m == 4
    assert encode(code, BitString("10")).to_text() == "0011"
    assert encode(code, BitString("11")).to_text() == "0110"
    assert encode(code, BitString("00")).to_text() == "0000"


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 8])
def test_hadamard_delta_exact(n):
    code = hadamard_code(n)
    assert code.delta_verified == 0.5
    assert code.verification_mode == "exhaustive"


def test_simplex_properties():
    code = simplex_code(3)
    assert (code.n, code.m) == (3, 7)
    # every nonzero simplex codeword has weight 2^(n-1) = 4
    assert code.delta_verified == 1.0 - 4 / 7


def test_concatenated_code_deterministic_and_verified():
    a = concatenated_code(4, 4)
    b = concatenated_code(4, 4)
    assert (a.generator == b.generator).all()
    assert a.m == 16
    assert 0.0 <= a.delta_verified <= 1.0
    assert concatenated_code(1, 5).delta_verified == 0.0  # repetition code


def test_factory_counts_below_one_are_bad_input_and_above_the_cap_capped():
    for factory in (hadamard_code, simplex_code):
        with pytest.raises(InputError):
            factory(0)
        with pytest.raises(CapError):
            factory(17)
    with pytest.raises(CapError):
        concatenated_code(2, 10**30)  # m = n*c, checked before the generator exists
    assert concatenated_code(1, M_CAP).m == M_CAP


def _enumerated_delta(gen):
    """Oracle: 1 - (min nonzero codeword weight)/m over every message."""
    n, m = gen.shape
    weights = [
        int((np.array(x) @ gen % 2).sum())
        for x in itertools.product((0, 1), repeat=n)
        if any(x)
    ]
    return 1.0 - min(weights) / m


@given(st.integers(1, 10), st.integers(0, 30), st.booleans(), st.data())
def test_verify_distance_matches_enumeration(n, extra, deficient, data):
    m = n + extra
    bits = data.draw(st.lists(st.integers(0, 1), min_size=n * m, max_size=n * m))
    gen = np.array(bits, dtype=np.uint8).reshape(n, m)
    if deficient:  # a repeated (or, for n = 1, zero) row makes a nonzero codeword zero
        gen[-1] = gen[0] if n > 1 else 0
    delta, mode = verify_distance(LinearCode("random", n, m, gen, None, "unverified"))
    assert mode == "exhaustive"
    assert delta == _enumerated_delta(gen)
    if deficient:
        assert delta == 1.0


def test_verify_distance_modes():
    # one exact check for every n up to the cap; the mode is always exhaustive
    assert verify_distance(hadamard_code(13)) == (0.5, "exhaustive")
    assert hadamard_code(16).delta_verified == 0.5
    assert simplex_code(12).delta_verified == 1 - 2**11 / 4095
    n = VERIFY_N_CAP + 1
    wide = LinearCode("identity", n, n, np.eye(n, dtype=np.uint8), None, "unverified")
    with pytest.raises(CapError):
        verify_distance(wide)
    with pytest.raises(CapError):
        concatenated_code(n, 4)


@given(st.integers(2, 5), st.data())
def test_encode_linearity(n, data):
    code = hadamard_code(n)
    x = BitString(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    y = BitString(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    assert encode(code, x) ^ encode(code, y) == encode(code, x ^ y)


def test_encode_blocks_matches_per_block():
    code = hadamard_code(3)
    x = BitString("101110011")
    expected = (
        encode(code, BitString("101"))
        + encode(code, BitString("110"))
        + encode(code, BitString("011"))
    )
    assert encode_blocks(code, x) == expected
    with pytest.raises(InputError):
        encode_blocks(code, BitString("1011"))


@given(st.integers(1, 6), st.integers(2, 5), st.data())
def test_encode_blocks_matches_per_block_on_concatenated_codes(n, c, data):
    code = concatenated_code(n, c)  # m = c * n need not be a multiple of 8
    blocks = data.draw(st.lists(
        st.lists(st.integers(0, 1), min_size=n, max_size=n), min_size=1, max_size=9))
    expected = encode(code, BitString(blocks[0]))
    for block in blocks[1:]:
        expected = expected + encode(code, BitString(block))
    assert encode_blocks(code, BitString([b for block in blocks for b in block])) == expected


def test_decode_message_membership():
    code = hadamard_code(3)
    for v in range(8):
        x = BitString.from_int(v, 3)
        assert decode_message(code, encode(code, x)) == x
    flipped = encode(code, BitString("101")).bits()
    flipped[0] ^= 1
    assert decode_message(code, BitString(flipped)) is None
