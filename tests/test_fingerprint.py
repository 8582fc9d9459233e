import math
import time

import numpy as np
import pytest

from qkolab.bits import BitString
from qkolab.circuits import ANGLE_BITS_CAP, Circuit, apply_circuit
from qkolab.codes import concatenated_code, encode, hadamard_code, simplex_code
from qkolab.errors import CapError, DecodeError, InputError
from qkolab.fingerprint import (
    HEADER_BITS,
    HX_GATE_CAP,
    _hx_gate_count,
    build_fingerprint,
    build_hx_circuit,
    decode_state,
    extract_codeword,
    overlap,
    quantize_state,
)
from qkolab.states import StateVector, fidelity

RNG = np.random.default_rng(202)


def _all_messages(n):
    return [BitString.from_int(v, n) for v in range(2**n)]


def test_fingerprint_example_amplitudes():
    code = hadamard_code(2)
    fp = build_fingerprint(code, BitString("10"))  # E(10) = 0011
    expected = np.zeros(8)
    expected[[0, 2, 5, 7]] = 0.5  # |00>|0>, |01>|0>, |10>|1>, |11>|1>
    assert np.allclose(fp.amplitudes, expected)
    assert fp.q == 3


def test_fingerprint_zero_codeword():
    code = hadamard_code(2)
    fp = build_fingerprint(code, BitString("00"))
    assert np.allclose(fp.amplitudes[[0, 2, 4, 6]], 0.5)
    assert np.allclose(fp.amplitudes[[1, 3, 5, 7]], 0.0)


def test_fingerprint_non_power_of_two_m():
    code = concatenated_code(2, 3)  # m = 6
    fp = build_fingerprint(code, BitString("10"))
    assert fp.q == 4
    assert np.allclose(np.abs(fp.amplitudes[12:]), 0.0)
    assert abs(np.linalg.norm(fp.amplitudes) - 1.0) < 1e-12


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_overlap_matches_statevector_inner_product(n):
    code = hadamard_code(n)
    msgs = _all_messages(n)
    for x in msgs[:6]:
        for y in msgs[-6:]:
            o = overlap(code, x, y)
            a = build_fingerprint(code, x).amplitudes
            b = build_fingerprint(code, y).amplitudes
            assert abs(o - np.vdot(a, b).real) < 1e-12
            if x != y:
                assert o == 0.5  # Hadamard agreement is exactly half


def test_overlap_bounded_by_delta():
    for code in (hadamard_code(4), concatenated_code(4, 4)):
        msgs = _all_messages(code.n)
        for x in msgs:
            for y in msgs:
                if x != y:
                    assert overlap(code, x, y) <= code.delta_verified + 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_circuit_reproduces_fingerprint(n):
    code = hadamard_code(n)
    for x in _all_messages(n):
        circuit = build_hx_circuit(code, x)
        out = apply_circuit(circuit, StateVector.computational(circuit.q, 0))
        assert fidelity(out, build_fingerprint(code, x)) >= 1.0 - 1e-10


def test_circuit_requires_power_of_two():
    with pytest.raises(InputError):
        build_hx_circuit(concatenated_code(2, 3), BitString("10"))
    # m = 1 leaves the one-qubit index register half empty, so no circuit on
    # the 2-qubit fingerprint register is built (a lone X would be 1 qubit)
    with pytest.raises(InputError):
        build_hx_circuit(simplex_code(1), BitString("1"))


def test_hx_gate_count_closed_form():
    known = {4: 2140, 5: 12933, 6: 77734}
    for n in (3, 4, 5, 6):
        x = BitString.from_int(0b1011 % 2**n, n)
        word = encode(hadamard_code(n), x).bits()
        count = _hx_gate_count(n, np.flatnonzero(word).tolist())
        assert count == len(build_hx_circuit(hadamard_code(n), x).gates)
        assert count == known.get(n, count)


def test_hx_circuit_passes_the_full_circuit_check():
    # build_hx_circuit skips Circuit's per-gate check; that check accepts its output
    for n in (1, 3, 5):
        c = build_hx_circuit(hadamard_code(n), BitString.from_int(0b1011 % 2**n, n))
        assert Circuit(c.q, c.gates, c.basis, c.p) == c
    with pytest.raises(CapError):
        build_hx_circuit(hadamard_code(2), BitString("10"), p=ANGLE_BITS_CAP + 1)


def test_hx_gate_cap_is_checked_before_building():
    word = encode(hadamard_code(8), BitString.from_int(0b101, 8)).bits()
    assert _hx_gate_count(8, np.flatnonzero(word).tolist()) <= HX_GATE_CAP  # n = 8 builds
    for n in (9, 16):
        code, x = hadamard_code(n), BitString.from_int(0b101, n)
        start = time.perf_counter()
        with pytest.raises(CapError):
            build_hx_circuit(code, x)
        assert time.perf_counter() - start < 1.0


def test_circuit_gate_count_scaling():
    # gate count stays within const * m * (log m)^2 for the frozen
    # decomposition at desk scale
    for n in (2, 3, 4):
        code = hadamard_code(n)
        count = len(build_hx_circuit(code, BitString.from_int(1, n)).gates)
        assert count <= 40 * code.m * n**2


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_extraction_inverts_construction(n):
    code = hadamard_code(n)
    for x in _all_messages(n):
        res = extract_codeword(build_fingerprint(code, x), code)
        assert res.status == "exact"
        assert res.word == encode(code, x)
        assert res.message == x


def test_extraction_rejects_random_states():
    code = hadamard_code(4)
    rejected = 0
    for _ in range(100):
        res = extract_codeword(StateVector.random(5, RNG), code)
        rejected += res.status == "not_a_codeword"
    assert rejected >= 95


def test_extraction_tie_is_unrecoverable():
    code = hadamard_code(2)
    amps = np.zeros(8)
    amps[0] = amps[1] = 1 / math.sqrt(2)  # index 0 mass split exactly in half
    res = extract_codeword(StateVector(3, amps), code)
    assert res.status == "not_a_codeword"


def test_quantize_length_formula():
    s = StateVector.random(3, RNG)
    d = quantize_state(s, 2.0**-10)
    assert d.p == 10
    assert d.length_bits == 2**4 * 10 + HEADER_BITS
    assert d.length_bits - HEADER_BITS == 160
    # 1/eps_a rounds to 2^62 just below 2^-62, so p stays at the layout's limit
    assert quantize_state(s, math.nextafter(2.0**-62, 0)).p == 62


def test_quantize_roundtrip_bound_random_q6():
    # non-dyadic precision: the per-component rounding error is then
    # strictly below eps (for eps = 2^-p exactly, rounding can consume the
    # whole budget and the 2^{q-1} eps^2 deficit bound fails on average)
    eps = 1.99 * 2.0**-13
    bound = 2.0**5 * eps**2
    for _ in range(200):
        s = StateVector.random(6, RNG)
        back = decode_state(quantize_state(s, eps))
        assert 1.0 - fidelity(s, back) <= bound


def test_quantize_zero_state_is_near_exact():
    s = StateVector.computational(4, 0)
    back = decode_state(quantize_state(s, 2.0**-8))
    assert fidelity(s, back) >= 1.0 - 2.0**-14


def test_decode_state_errors():
    s = StateVector.random(2, RNG)
    d = quantize_state(s, 2.0**-8)
    with pytest.raises(DecodeError):
        decode_state(d.payload[:3])  # truncated
    bad = bytearray(d.payload)
    bad[0] = 0xFF  # implausible q
    with pytest.raises(DecodeError):
        decode_state(bytes(bad))
    with pytest.raises(InputError):
        quantize_state(s, 1.5)
    for eps_a in (2.0**-70, 1e-310, 5e-324):  # 1/5e-324 is inf
        with pytest.raises(InputError):
            quantize_state(s, eps_a)
