import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkolab.circuits import (
    ANGLE_BITS_CAP,
    Circuit,
    DEFAULT_ANGLE_BITS,
    EXACT_BASIS,
    QUANTIZED_BASIS,
    Gate,
    _mcx_gate_count,
    apply_circuit,
    gate_matrix,
    multi_controlled_x,
    quantize_angle,
)
from qkolab.complexity import decode_circuit, encode_circuit
from qkolab.errors import InputError
from qkolab.states import StateVector


def _dense_unitary(circuit: Circuit) -> np.ndarray:
    dim = 2**circuit.q
    cols = []
    for rank in range(dim):
        out = apply_circuit(circuit, StateVector.computational(circuit.q, rank))
        cols.append(out.amplitudes)
    return np.array(cols).T


def _mcx_dense(k: int) -> np.ndarray:
    dim = 2 ** (k + 1)
    u = np.eye(dim)
    u[dim - 2 :, dim - 2 :] = np.array([[0, 1], [1, 0]])
    return u


def test_gate_validation():
    with pytest.raises(InputError):
        Gate("NOPE", (0,))
    with pytest.raises(InputError):
        Gate("CNOT", (1, 1))
    with pytest.raises(InputError):
        Gate("H", (0,), angle=0.5)
    with pytest.raises(InputError):
        Gate("RZ", (0,))


def test_circuit_basis_validation():
    with pytest.raises(InputError):
        Circuit(2, (Gate("RZ", (0,), 0.5),), basis="exact")
    with pytest.raises(InputError):
        Circuit(2, (), basis="quantized", p=0)
    with pytest.raises(InputError):
        Circuit(1, (Gate("H", (3,)),))


def test_quantize_angle_grid():
    assert quantize_angle(math.pi, 4) == 8 * (2 * math.pi / 16)
    assert quantize_angle(0.0, 8) == 0.0
    assert quantize_angle(2 * math.pi - 1e-9, 8) == 0.0  # wraps


def test_fixed_gates_are_unitary():
    for name in EXACT_BASIS:
        if name == "CNOT":
            continue
        u = gate_matrix(Gate(name, (0,)))
        assert np.abs(u @ u.conj().T - np.eye(2)).max() < 1e-12


def test_cnot_action():
    c = Circuit(2, (Gate("CNOT", (0, 1)),))
    u = _dense_unitary(c)
    expected = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
    assert np.abs(u - expected).max() < 1e-12


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_multi_controlled_x_exact_up_to_global_phase(k):
    gates = multi_controlled_x(range(k), k, DEFAULT_ANGLE_BITS)
    c = Circuit(k + 1, tuple(gates), basis="quantized", p=DEFAULT_ANGLE_BITS)
    u = _dense_unitary(c)
    target = _mcx_dense(k)
    # align global phase on the first column
    phase = u[0, 0] / abs(u[0, 0])
    assert np.abs(u / phase - target).max() < 1e-9


def test_multi_controlled_x_frozen_gate_counts():
    # byte-for-byte reproducible encodings need a frozen decomposition
    counts = [len(multi_controlled_x(range(k), k)) for k in range(1, 6)]
    assert counts == [1, 23, 83, 263, 803]


def test_mcx_gate_count_closed_form():
    for k in range(7):
        assert _mcx_gate_count(k) == len(multi_controlled_x(range(k), k, k + 2))


def test_non_finite_angles_are_rejected():
    for angle in (math.nan, math.inf, -math.inf):
        with pytest.raises(InputError):
            Gate("RZ", (0,), angle)


def test_multi_controlled_x_validation():
    with pytest.raises(InputError):
        multi_controlled_x([0, 1], 1)
    with pytest.raises(InputError):
        multi_controlled_x(range(5), 5, p=4)  # p too small for 5 controls


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_apply_circuit_matches_kron_oracle(data):
    q = data.draw(st.integers(1, 7))
    qubit = st.sampled_from([0, q - 1]) | st.integers(0, q - 1)  # the end qubits often
    gates = []
    for _ in range(data.draw(st.integers(0, 12))):
        if gates and data.draw(st.booleans()):  # the same Gate object again
            gates.append(data.draw(st.sampled_from(gates)))
            continue
        name = data.draw(st.sampled_from(["H", "X", "Z", "S", "T", "CNOT", "RY", "RZ"]))
        if name == "CNOT":
            if q < 2:
                continue
            a = data.draw(qubit)
            b = data.draw(qubit.filter(lambda v: v != a))
            gates.append(Gate("CNOT", (a, b)))
        elif name in ("RY", "RZ"):
            angle = quantize_angle(data.draw(st.floats(0, 6.28)), 16)
            gates.append(Gate(name, (data.draw(qubit),), angle))
        else:
            gates.append(Gate(name, (data.draw(qubit),)))
    c = Circuit(q, tuple(gates), basis="quantized", p=16)

    u = np.eye(2**q, dtype=np.complex128)
    cnot = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
    for g in c.gates:
        if g.name == "CNOT":
            full = _embed_two(cnot, g.targets[0], g.targets[1], q)
        else:
            full = _embed_one(gate_matrix(g), g.targets[0], q)
        u = full @ u
    s0 = StateVector.random(q, np.random.default_rng(data.draw(st.integers(0, 99))))
    out = apply_circuit(c, s0)
    assert np.abs(out.amplitudes - u @ s0.amplitudes).max() < 1e-9


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_table_born_and_gate_born_circuits_apply_alike(data):
    q = data.draw(st.integers(1, 6))
    p = data.draw(st.integers(1, ANGLE_BITS_CAP))
    qubit = st.integers(0, q - 1)
    gates = []
    for name in data.draw(st.lists(st.sampled_from(QUANTIZED_BASIS), max_size=30)):
        if name == "CNOT":
            if q > 1:
                a = data.draw(qubit)
                gates.append(Gate(name, (a, data.draw(qubit.filter(lambda b: b != a)))))
        elif name in ("RY", "RZ"):
            angle = quantize_angle(data.draw(st.floats(0, 6.3)), p)
            gates.append(Gate(name, (data.draw(qubit),), angle))
        else:
            gates.append(Gate(name, (data.draw(qubit),)))
    gate_born = Circuit(q, tuple(gates), "quantized", p)
    table_born = decode_circuit(encode_circuit(gate_born))
    assert table_born == gate_born
    s0 = StateVector.random(q, np.random.default_rng(data.draw(st.integers(0, 99))))
    out = apply_circuit(table_born, s0).amplitudes
    assert np.array_equal(out, apply_circuit(gate_born, s0).amplitudes)


def _exact_circuit(q: int, count: int, seed: int) -> Circuit:
    """count exact-basis gates, each name in turn; qubits 0 and q - 1 and
    both CNOT orientations on them come first."""
    rng = np.random.default_rng(seed)
    names = ("H", "X", "Z", "S", "T", "CNOT")
    gates = [Gate("H", (0,)), Gate("T", (q - 1,)), Gate("CNOT", (0, q - 1)), Gate("CNOT", (q - 1, 0))]
    while len(gates) < count:
        name = names[len(gates) % len(names)]
        pair = tuple(int(t) for t in rng.choice(q, 2, replace=False))
        gates.append(Gate(name, pair if name == "CNOT" else pair[:1]))
    return Circuit(q, tuple(gates))


def _index_oracle(c: Circuit, amps: np.ndarray) -> np.ndarray:
    """The circuit's action by basis-index arithmetic, one gate at a time."""
    rank = np.arange(2**c.q)
    phase = {"Z": -1, "S": 1j, "T": np.exp(1j * math.pi / 4)}
    for g in c.gates:
        mask = [1 << (c.q - 1 - t) for t in g.targets]
        if g.name == "CNOT":
            amps = amps[np.where(rank & mask[0], rank ^ mask[1], rank)]
        elif g.name == "X":
            amps = amps[rank ^ mask[0]]
        elif g.name == "H":
            one = (rank & mask[0]) != 0
            amps = (np.where(one, -amps, amps) + amps[rank ^ mask[0]]) / math.sqrt(2)
        else:
            amps = np.where(rank & mask[0], phase[g.name] * amps, amps)
    return amps


def test_apply_circuit_matches_index_oracle_at_16_qubits():
    c = _exact_circuit(16, 60, seed=16)
    s0 = StateVector.random(16, np.random.default_rng(16))
    out = apply_circuit(c, s0)
    assert np.abs(out.amplitudes - _index_oracle(c, s0.amplitudes)).max() < 1e-12


def test_apply_circuit_peak_memory_stays_near_two_states():
    # the working buffer, its half-size scratch, and numpy's copy of one half
    # where a copy reads an interleaved half; no per-gate full-length array
    q = 16
    c = _exact_circuit(q, 60, seed=17)
    s0 = StateVector.computational(q, 5)
    tracemalloc.start()
    try:
        apply_circuit(c, s0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 16 * 2**q + 2**20


def _embed_one(m, qubit, q):
    ops = [np.eye(2)] * q
    ops[qubit] = m
    full = ops[0]
    for op in ops[1:]:
        full = np.kron(full, op)
    return full


def _embed_two(m, a, b, q):
    dim = 2**q
    full = np.zeros((dim, dim), dtype=np.complex128)
    for col in range(dim):
        bits = [(col >> (q - 1 - i)) & 1 for i in range(q)]
        sub_in = 2 * bits[a] + bits[b]
        for sub_out in range(4):
            amp = m[sub_out, sub_in]
            if amp == 0:
                continue
            nb = list(bits)
            nb[a], nb[b] = sub_out >> 1, sub_out & 1
            row = sum(v << (q - 1 - i) for i, v in enumerate(nb))
            full[row, col] += amp
    return full
