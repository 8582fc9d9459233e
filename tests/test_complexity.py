import hashlib
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkolab import complexity
from qkolab.bitio import BitWriter
from qkolab.bits import BitString
from qkolab.circuits import (
    ANGLE_BITS_CAP,
    OPCODES,
    PARAMETRIZED,
    QUANTIZED_BASIS,
    Circuit,
    Gate,
    _mcx_gate_count,
    quantize_angle,
)
from qkolab.codes import hadamard_code
from qkolab.complexity import (
    ENCODING_CAP_QUBITS,
    FORMAT_VERSION,
    _spearman,
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


def reference_encode(c: Circuit) -> bytes:
    """Format v2 written one field at a time with BitWriter: the oracle for
    the array encoder."""
    tb = max(1, math.ceil(math.log2(c.q))) if c.q > 1 else 0
    w = BitWriter()
    w.write_uint(FORMAT_VERSION, 8)
    w.write_uint(c.q, 16)
    w.write_uint(1 if c.basis == "quantized" else 0, 8)
    w.write_uint(c.p, 8)
    w.write_uint(len(c.gates), 32)
    prev = 0
    for g in c.gates:
        w.write_uint(OPCODES[g.name], 6)
        for t in g.targets:
            if tb:
                w.write_uint((t - prev) % 2**tb, tb)
            prev = t
        if g.name in PARAMETRIZED:
            grid = round((g.angle % (2 * math.pi)) / (2 * math.pi) * 2**c.p) % 2**c.p
            w.write_uint(grid, c.p)
        w.align_to_byte()
    return w.to_bytes()


@st.composite
def circuits(draw):
    """Circuits over every target width 0..15 and every opcode, with any
    finite angle at any precision up to the cap."""
    q = draw(st.sampled_from([1, 2, 3, 5, 2**15]))
    quantized = draw(st.booleans())
    p = draw(st.integers(1, ANGLE_BITS_CAP)) if quantized else 0
    names = QUANTIZED_BASIS if quantized else QUANTIZED_BASIS[:6]
    targets = st.integers(0, q - 1)
    gates = []
    for name in draw(st.lists(st.sampled_from(names), max_size=30)):
        if name == "CNOT":
            if q > 1:
                a = draw(targets)
                gates.append(Gate(name, (a, draw(targets.filter(lambda b: b != a)))))
        elif name in PARAMETRIZED:
            angle = draw(st.floats(allow_nan=False, allow_infinity=False))
            gates.append(Gate(name, (draw(targets),), angle))
        else:
            gates.append(Gate(name, (draw(targets),)))
    return Circuit(q, tuple(gates), "quantized" if quantized else "exact", p)


@settings(max_examples=200, deadline=None)
@given(circuits())
def test_array_encoder_matches_the_field_by_field_oracle(c):
    e = encode_circuit(c)
    assert e.payload == reference_encode(c)
    assert e.payload_bits == 8 * len(e.payload)
    d = decode_circuit(e)
    assert (d.q, d.basis, d.p, len(d.gates)) == (c.q, c.basis, c.p, len(c.gates))
    assert encode_circuit(d).payload == e.payload
    assert [(g.name, g.targets) for g in d.gates] == [(g.name, g.targets) for g in c.gates]


@settings(max_examples=100, deadline=None)
@given(circuits(), st.integers(1, 7))
def test_encoding_in_chunks_matches_the_oracle(c, chunk):
    # a record's delta is taken against the previous row's target, across chunks too
    with mock.patch.object(complexity, "ENCODE_CHUNK", chunk):
        assert encode_circuit(c).payload == reference_encode(c)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_table_born_circuits_match_the_oracle_and_their_gate_born_form(data):
    kind = data.draw(st.sampled_from(["bell", "hx", "decoded"]))
    if kind == "bell":
        c = bell_pair_circuit(data.draw(st.integers(1, 300)))
    elif kind == "hx":
        n = data.draw(st.integers(2, 5))
        x = BitString.from_int(data.draw(st.integers(0, 2**n - 1)), n)
        c = build_hx_circuit(hadamard_code(n), x, data.draw(st.integers(n + 2, ANGLE_BITS_CAP)))
    else:
        c = decode_circuit(encode_circuit(data.draw(circuits())))
    assert encode_circuit(c).payload == reference_encode(c)
    assert Circuit(c.q, c.gates, c.basis, c.p) == c


def test_table_born_circuits_make_gates_only_on_demand(monkeypatch):
    made = []
    check = Gate.__post_init__
    monkeypatch.setattr(Gate, "__post_init__", lambda g: made.append(g) or check(g))
    bell = bell_pair_circuit(1000)
    hx = build_hx_circuit(hadamard_code(4), BitString("1011"))
    assert len(made) == _mcx_gate_count(4)  # the one MCX list that build_hx_circuit tiles
    decoded = [decode_circuit(encode_circuit(c)) for c in (bell, hx)]
    assert knet_upper(bell) and knet_upper(hx)
    assert len(made) == _mcx_gate_count(4)
    for c in (bell, hx, *decoded):
        made.clear()
        gates = c.gates
        assert gates is c.gates and len(gates) == len(c.ops)
        assert len(made) == len({id(g) for g in gates}) == len(set(gates))  # one per distinct row


@settings(max_examples=300, deadline=None)
@given(
    circuits(),
    st.lists(st.tuples(st.integers(0, 2**16), st.integers(1, 255)), max_size=3),
    st.binary(max_size=8),
    st.integers(0, 1),
)
def test_decoder_fuzz_raises_decode_error_or_reads_a_prefix(c, flips, tail, extra):
    # a valid header over the records of c with some bytes flipped, random
    # bytes appended and possibly one more record announced than encoded
    payload = bytearray(encode_circuit(c).payload)
    for at, mask in flips:
        if len(payload) > 9:
            payload[9 + at % (len(payload) - 9)] ^= mask
    payload[5:9] = (len(c.gates) + extra).to_bytes(4, "big")
    payload = bytes(payload + tail)
    try:
        d = decode_circuit(payload)
    except DecodeError:
        assert flips or extra
        return
    assert (d.q, d.basis, d.p, len(d.gates)) == (c.q, c.basis, c.p, len(c.gates) + extra)
    assert payload.startswith(encode_circuit(d).payload)


@pytest.mark.parametrize(
    "payload",
    [
        "020002000500000000",  # exact basis with p = 5
        "020002010000000000",  # quantized basis with p = 0
        "020002012100000000",  # quantized basis with p = 33, above the cap
        "020002000000000001" "18",  # CNOT whose deltas 0, 0 land on qubit 0 twice
        "020003000000000001" "07",  # H on target 3 with q = 3
        "020002000000000001" "1c",  # RY in an exact-basis payload
        "020002000000000001" "05",  # H with a nonzero pad bit
        "020002000000000001" "24",  # opcode 9
        "020002000000000002" "04",  # two records announced, one present
    ],
    ids=["exact-p5", "quantized-p0", "quantized-p33", "cnot-same-target", "target-ge-q",
         "rotation-in-exact", "nonzero-pad", "unknown-opcode", "truncated"],
)
def test_malformed_payloads_are_decode_errors(payload):
    with pytest.raises(DecodeError) as info:
        decode_circuit(bytes.fromhex(payload))
    assert info.value.offset is not None


def test_angle_precision_is_capped_both_ways():
    rz = (Gate("RZ", (0,), 1.0),)
    with pytest.raises(CapError):
        Circuit(2, rz, "quantized", 300)
    with pytest.raises(CapError):
        Circuit(2, rz, "quantized", ANGLE_BITS_CAP + 1)
    with pytest.raises(InputError):
        Circuit(2, rz, "quantized", 0)
    with pytest.raises(InputError):
        Circuit(2, (), "exact", 5)
    top = Circuit(2, rz, "quantized", ANGLE_BITS_CAP)
    assert encode_circuit(top).payload == reference_encode(top)
    assert decode_circuit(encode_circuit(top)).gates[0].angle == quantize_angle(1.0, ANGLE_BITS_CAP)


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
    # criterion 9's corpus: the value scipy.stats.spearmanr gave, to the bit
    assert observation1_experiment(hadamard_code(10), 200, seed=0).spearman == 0.9188857604579085


def test_spearman_matches_scipy_on_tied_ranks():
    stats = pytest.importorskip("scipy.stats")
    rng = np.random.default_rng(9)
    for _ in range(500):
        n = int(rng.integers(3, 60))
        a, b = (rng.integers(0, int(rng.integers(2, 6)), n) for _ in range(2))
        if len(set(a)) > 1 and len(set(b)) > 1:  # rho is undefined for a constant list
            assert abs(_spearman(a, b) - stats.spearmanr(a, b).statistic) <= 1e-12


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
