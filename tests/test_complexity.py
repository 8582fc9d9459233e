import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkolab.bits import BitString
from qkolab.circuits import Circuit, Gate, quantize_angle
from qkolab.codes import hadamard_code
from qkolab.complexity import (
    ENCODING_CAP_QUBITS,
    FORMAT_VERSION,
    bell_pair_circuit,
    cbe_upper,
    decode_circuit,
    encode_circuit,
    knet_upper,
    mixed_complexity_upper,
    observation1_experiment,
)
from qkolab.compressor import HEADER_BITS
from qkolab.errors import CapError, DecodeError, InputError
from qkolab.fingerprint import build_fingerprint, build_hx_circuit, quantize_state
from qkolab.states import DensityMatrix, StateVector, partial_trace

RNG = np.random.default_rng(303)


def test_empty_circuit_header_only():
    e = encode_circuit(Circuit(2, ()))
    assert e.payload_bits == 72  # 8+16+8+8+32 header
    assert len(e.payload) == 9
    assert decode_circuit(e) == Circuit(2, ())


def test_hand_encoding_oracle():
    # H(0);CNOT(0,1) on q=2: header 02 0002 00 00 00000002, then records
    # H: opcode 000001, delta target 0, pad -> 0000010 0 -> 0x04
    # CNOT: opcode 000110, deltas 0,1 -> 00011001 -> 0x19
    c = Circuit(2, (Gate("H", (0,)), Gate("CNOT", (0, 1))))
    e = encode_circuit(c)
    assert e.payload == bytes.fromhex("020002000000000002") + bytes([0x04, 0x19])
    assert decode_circuit(e) == c


def test_frozen_payload_hashes():
    code, x = hadamard_code(4), BitString("1011")
    payloads = {
        "bell500": encode_circuit(bell_pair_circuit(500)).payload,
        "hx": encode_circuit(build_hx_circuit(code, x)).payload,
        "fixed-point": quantize_state(build_fingerprint(code, x), 2.0**-16).payload,
    }
    assert {k: hashlib.sha256(v).hexdigest() for k, v in payloads.items()} == {
        "bell500": "a43006281150f98cdbc69575c7eb1f341047cb80548cff91e202cbea4b053b59",
        "hx": "a2e50fd1d80c43f79a5544862166e7ebc52dc5e9b33db95cd7df067757a7ee94",
        "fixed-point": "47e1c5247f049c1255a7a313b67b121af6069d0d8f0b1bc39e8cc4ed92eedddf",
    }


def test_roundtrip_with_angles():
    gates = (
        Gate("RZ", (0,), quantize_angle(1.234, 8)),
        Gate("RY", (2,), quantize_angle(5.0, 8)),
        Gate("CNOT", (2, 0)),
        Gate("T", (1,)),
    )
    c = Circuit(3, gates, basis="quantized", p=8)
    assert decode_circuit(encode_circuit(c)) == c


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_roundtrip_random_circuits(data):
    q = data.draw(st.integers(1, 9))
    gates = []
    for _ in range(data.draw(st.integers(0, 25))):
        name = data.draw(st.sampled_from(["H", "X", "Z", "S", "T", "CNOT", "RY", "RZ"]))
        if name == "CNOT":
            if q < 2:
                continue
            a = data.draw(st.integers(0, q - 1))
            b = data.draw(st.integers(0, q - 1).filter(lambda v: v != a))
            gates.append(Gate("CNOT", (a, b)))
        elif name in ("RY", "RZ"):
            angle = quantize_angle(data.draw(st.floats(0, 6.28)), 12)
            gates.append(Gate(name, (data.draw(st.integers(0, q - 1)),), angle))
        else:
            gates.append(Gate(name, (data.draw(st.integers(0, q - 1)),)))
    c = Circuit(q, tuple(gates), basis="quantized", p=12)
    assert decode_circuit(encode_circuit(c)) == c


def test_decode_errors_carry_offsets():
    with pytest.raises(DecodeError):
        decode_circuit(bytes([FORMAT_VERSION + 1]) + bytes(8))
    with pytest.raises(DecodeError):
        decode_circuit(bytes.fromhex("0200020000000000ff"))  # truncated count


def test_format_v2_qubit_range_is_the_same_both_ways():
    with pytest.raises(InputError):
        encode_circuit(Circuit(0, ()))
    with pytest.raises(CapError):
        encode_circuit(Circuit(ENCODING_CAP_QUBITS + 1, ()))
    top = Circuit(ENCODING_CAP_QUBITS, ())
    assert decode_circuit(encode_circuit(top)) == top
    for q in (0, ENCODING_CAP_QUBITS + 1, 2**16 - 1):
        header = bytes([FORMAT_VERSION]) + q.to_bytes(2, "big") + bytes(6)
        with pytest.raises(DecodeError):
            decode_circuit(header)


def test_knet_never_exceeds_raw_plus_header():
    for c in (bell_pair_circuit(8), Circuit(2, ()), bell_pair_circuit(1)):
        s = knet_upper(c)
        assert s.compressed_length_bits <= s.raw_length_bits + HEADER_BITS + 400
        assert knet_upper(c) == s  # deterministic


def test_repetitive_circuit_compresses_better_than_random():
    # spirit of "structured circuits have small descriptions": an
    # all-Hadamards circuit beats a PRNG-random circuit of equal gate count
    q, count = 8, 200
    hadamards = Circuit(q, tuple(Gate("H", (i % q,)) for i in range(count)))
    names = ["H", "X", "Z", "S", "T"]
    rnd = Circuit(
        q,
        tuple(
            Gate(names[int(RNG.integers(5))], (int(RNG.integers(q)),))
            for _ in range(count)
        ),
    )
    k_h = knet_upper(hadamards).compressed_length_bits
    k_r = knet_upper(rnd).compressed_length_bits
    assert k_h < k_r
    assert k_h < 0.3 * knet_upper(hadamards).raw_length_bits


def test_cbe_sparse_vs_haar():
    sparse = cbe_upper(StateVector.computational(10, 0), 2.0**-16)
    assert sparse.raw_length_bits == 2**11 * 16 + 64
    assert sparse.compressed_length_bits <= 0.1 * sparse.raw_length_bits
    haar = cbe_upper(StateVector.random(10, RNG), 2.0**-16)
    assert haar.compressed_length_bits >= 0.8 * haar.raw_length_bits


def test_mixed_complexity_filter_and_min():
    r = DensityMatrix.maximally_mixed(2)
    good = bell_pair_circuit(2)
    # a candidate preparing |0000> reduces to a pure state: fidelity far
    # below the admission threshold
    bad = Circuit(4, (Gate("X", (0,)),))
    res = mixed_complexity_upper(r, [good, bad], 1e-6, keep=(0, 2))
    assert res.candidates[0].admitted
    assert res.candidates[0].uhlmann_fidelity_sq > 1 - 1e-9
    assert not res.candidates[1].admitted
    assert res.candidates[1].knet_bits is None
    assert res.bits == knet_upper(good).compressed_length_bits
    with pytest.raises(InputError):
        mixed_complexity_upper(r, [bad], 1e-6, keep=(0, 2))
    with pytest.raises(InputError):
        mixed_complexity_upper(r, [], 1e-6)


def test_bell_pair_reduced_state():
    for n in (1, 2, 3):
        c = bell_pair_circuit(n)
        from qkolab.circuits import apply_circuit

        out = apply_circuit(c, StateVector.computational(2 * n, 0))
        red = partial_trace(out, range(0, 2 * n, 2))
        assert np.abs(red.entries - np.eye(2**n) / 2**n).max() < 1e-12


def test_bell_pair_encoding_sublinear():
    k8 = knet_upper(bell_pair_circuit(8)).compressed_length_bits
    k64 = knet_upper(bell_pair_circuit(64)).compressed_length_bits
    assert k64 <= 2 * k8


def test_observation1_rank_correlation():
    rep = observation1_experiment(hadamard_code(4), 120, seed=0)
    assert rep.corpus_size == 120
    assert len(rep.pairs) == 120
    assert rep.spearman >= 0.9
    with pytest.raises(InputError):
        observation1_experiment(hadamard_code(4), 10)


def test_fingerprint_circuit_knet_band():
    # compressed length sits in [0.5, 1.5] x (m + 116 (log m)^2) at n=4,
    # the calibration point for PRNG-random messages
    code = hadamard_code(4)
    center = code.m + 116 * 4**2
    for seed in range(3):
        x = BitString(np.random.default_rng(seed).integers(0, 2, 4, dtype=np.uint8))
        if x.weight() == 0:
            continue
        bits = knet_upper(build_hx_circuit(code, x)).compressed_length_bits
        assert 0.5 * center <= bits <= 1.5 * center
