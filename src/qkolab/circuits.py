"""Gates, circuits, exact unitary application, and the multi-controlled-X
decomposition used by the fingerprint preparation circuits.

A ``Circuit`` holds its gates as one gate table of three arrays: ``ops``,
each gate's format-v2 opcode (uint8); ``targets``, one row of two uint16
qubits per gate, in which a one-qubit gate repeats its target; and
``angles`` (float64, 0 where the gate has no angle). Builders and the
decoder write the table and the encoder reads it, so none of them makes a
``Gate``. The ``gates`` tuple of a circuit built from a table is made on
first access, with one ``Gate`` per distinct row, and cached; a circuit
built from ``Gate`` objects keeps them and checks its table with array
checks.

``apply_circuit`` runs every gate in place on the ``states`` kernel's working
buffer (qubit 0 is the most significant index bit): X and CNOT exchange two
blocks, Z, S, T and RZ scale the two halves of their qubit by the diagonal,
and H and RY mix the halves. Each distinct table row's views are derived
once per run.

Two bases are declared. The exact-finite basis is {H, X, Z, S, T, CNOT}.
The quantized-rotation extension adds RY/RZ whose angles live on a 2^p-point
grid over [0, 2*pi); p is recorded on the circuit so encodings are bit-exact.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import CapError, InputError, check_count
from .states import StateVector, _Kernel

EXACT_BASIS = ("H", "X", "Z", "S", "T", "CNOT")
QUANTIZED_BASIS = EXACT_BASIS + ("RY", "RZ")

OPCODES = {name: i + 1 for i, name in enumerate(QUANTIZED_BASIS)}
OPNAMES = {v: k for k, v in OPCODES.items()}
PARAMETRIZED = frozenset({"RY", "RZ"})
TWO_QUBIT = frozenset({"CNOT"})

DEFAULT_ANGLE_BITS = 16
ANGLE_BITS_CAP = 32  # every format-v2 gate record then fits one 64-bit word

MCX_DECOMPOSITION_ID = "mcx-rootrec-v1"
TABLE_QUBIT_CAP = 2**16  # the gate table stores targets as uint16

_H, _X, _CNOT, _RY = (OPCODES[name] for name in ("H", "X", "CNOT", "RY"))  # RY, RZ: from _RY up


@dataclass(frozen=True, slots=True)
class Gate:
    name: str
    targets: tuple[int, ...]
    angle: float | None = None

    def __post_init__(self):
        if self.name not in OPCODES:
            raise InputError(f"unknown gate {self.name!r}")
        arity = 2 if self.name in TWO_QUBIT else 1
        if len(self.targets) != arity or len(set(self.targets)) != arity:
            raise InputError(f"{self.name} needs {arity} distinct target(s)")
        if (self.angle is not None) != (self.name in PARAMETRIZED):
            raise InputError(f"angle must be present iff the gate is parametrized")
        if self.angle is not None and not math.isfinite(self.angle):
            raise InputError(f"angle {self.angle} is not finite")


class Circuit:
    """A q-qubit gate sequence held as a gate table (see the module
    docstring). ``Circuit(q, gates, basis, p)`` checks the gates against the
    basis and q; a q above TABLE_QUBIT_CAP is a CapError. A circuit is
    immutable and compares by its table."""

    def __init__(self, q: int, gates: Iterable[Gate], basis: str = "exact", p: int = 0):
        if basis not in ("exact", "quantized"):
            raise InputError(f"unknown basis {basis!r}")
        if basis == "quantized":
            check_count("p", p, ANGLE_BITS_CAP)
        elif p != 0:
            raise InputError("the exact basis requires p == 0")
        if q > TABLE_QUBIT_CAP:
            raise CapError(f"q={q} exceeds the cap of {TABLE_QUBIT_CAP}")
        gates = tuple(gates)
        ops, targets, angles = _gate_table(gates)
        off_basis = ops > len(QUANTIZED_BASIS if basis == "quantized" else EXACT_BASIS)
        bad = off_basis | ((targets < 0) | (targets >= q)).any(axis=1)
        if bad.any():  # the first bad gate names the error
            i = int(bad.argmax())
            if off_basis[i]:
                raise InputError(f"gate {gates[i].name} not in the {basis} basis")
            raise InputError(f"gate target out of range for q={q}")
        _fill(self, q, basis, p, ops, targets, angles, gates)

    @property
    def gates(self) -> tuple[Gate, ...]:
        if self._gates is None:
            first, inverse = _distinct_rows(self)
            distinct = [
                Gate(OPNAMES[op], (a, b) if op == _CNOT else (a,), angle if op >= _RY else None)
                for op, a, b, angle in _rows(self, first)
            ]
            object.__setattr__(self, "_gates", tuple(map(distinct.__getitem__, inverse.tolist())))
        return self._gates

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: a Circuit is immutable")

    def __eq__(self, other):
        if not isinstance(other, Circuit):
            return NotImplemented
        return ((self.q, self.basis, self.p) == (other.q, other.basis, other.p)
                and np.array_equal(self.ops, other.ops)
                and np.array_equal(self.targets, other.targets)
                and np.array_equal(self.angles, other.angles))

    def __hash__(self):
        return hash((self.q, self.basis, self.p, self.ops.tobytes(), self.targets.tobytes(),
                     (self.angles + 0.0).tobytes()))  # + 0.0 makes -0.0 hash as 0.0

    def __repr__(self):
        return (f"Circuit(q={self.q}, gates=<{len(self.ops)} gates>, "
                f"basis={self.basis!r}, p={self.p})")


def _gate_table(gates: Sequence[Gate]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The gates' opcodes, targets (int64, one row of two per gate) and
    angles, unchecked."""
    n = len(gates)
    ops = np.fromiter((OPCODES[g.name] for g in gates), np.uint8, n)
    pairs = (t for g in gates for t in (g.targets[0], g.targets[-1]))
    targets = np.fromiter(pairs, np.int64, 2 * n).reshape(n, 2)
    angles = np.fromiter((g.angle or 0.0 for g in gates), np.float64, n)
    return ops, targets, angles


def _fill(c: Circuit, q, basis, p, ops, targets, angles, gates) -> Circuit:
    fields = {"q": q, "basis": basis, "p": p, "_gates": gates,
              "ops": ops.astype(np.uint8, copy=False),
              "targets": targets.astype(np.uint16, copy=False),
              "angles": angles.astype(np.float64, copy=False)}
    for attr, value in fields.items():
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
        object.__setattr__(c, attr, value)
    return c


def _trusted_circuit(q: int, ops: np.ndarray, targets: np.ndarray, angles: np.ndarray,
                     basis: str, p: int) -> Circuit:
    """Circuit of the given gate table and fields, none of them checked.

    For builders and the decoder, which have already checked q, p and every
    row the way Circuit would; its gates are made on first access.
    """
    return _fill(object.__new__(Circuit), q, basis, p, ops, targets, angles, None)


def _distinct_rows(c: Circuit) -> tuple[np.ndarray, np.ndarray]:
    """The index of one row of each distinct (opcode, targets, angle) in the
    gate table, and the position of every row among those distinct rows."""
    key = c.ops.astype(np.uint64) << 48 | c.targets[:, 0].astype(np.uint64) << 32
    low = c.targets[:, 1].astype(np.uint64)
    rotation = c.ops >= _RY  # one target, so the angle's rank takes the second's place
    if rotation.any():
        low[rotation] = np.unique(c.angles[rotation], return_inverse=True)[1]
    _, first, inverse = np.unique(key | low, return_index=True, return_inverse=True)
    return first, inverse


def _rows(c: Circuit, index: np.ndarray):
    """(opcode, first target, second target, angle) of the indexed rows, as
    Python numbers."""
    return zip(c.ops[index].tolist(), *c.targets[index].T.tolist(), c.angles[index].tolist())


def quantize_angle(theta: float, p: int) -> float:
    """Snap an angle to the 2^p-point grid over [0, 2*pi)."""
    step = 2.0 * math.pi / 2**p
    return (round((theta % (2.0 * math.pi)) / step) % 2**p) * step


_SQ2 = 1.0 / math.sqrt(2.0)
_FIXED_1Q = {
    "H": np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=np.complex128),
    "X": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "Z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
    "S": np.array([[1, 0], [0, 1j]], dtype=np.complex128),
    "T": np.array([[1, 0], [0, np.exp(1j * math.pi / 4)]], dtype=np.complex128),
}


def gate_matrix(g: Gate) -> np.ndarray:
    return _matrix(g.name, g.angle or 0.0)


def _matrix(name: str, angle: float) -> np.ndarray:
    if name in _FIXED_1Q:
        return _FIXED_1Q[name]
    half = angle / 2.0
    if name == "RY":
        c, s = math.cos(half), math.sin(half)
        return np.array([[c, -s], [s, c]], dtype=np.complex128)
    if name == "RZ":
        return np.array(
            [[np.exp(-1j * half), 0], [0, np.exp(1j * half)]], dtype=np.complex128
        )
    raise InputError(f"no matrix for gate {name}")


def apply_circuit(c: Circuit, s0: StateVector) -> StateVector:
    """Exact gate-by-gate unitary action; norm is preserved."""
    if c.q != s0.q:
        raise InputError(f"circuit has {c.q} qubits, state has {s0.q}")
    kernel = _Kernel(s0.amplitudes.copy())
    first, inverse = _distinct_rows(c)
    steps = [_row_step(kernel, *row) for row in _rows(c, first)]
    for i in inverse.tolist():
        steps[i]()
    return kernel.state()


def _row_step(kernel: _Kernel, op: int, a: int, b: int, angle: float):
    """The kernel step that applies one gate-table row."""
    if op == _CNOT:
        return kernel.exchange(((a, 1), (b, 0)), ((a, 1), (b, 1)))
    if op == _X:
        return kernel.exchange(((a, 0),), ((a, 1),))
    m = _matrix(OPNAMES[op], angle)
    if op in (_H, _RY):
        return kernel.mix(a, m)
    return kernel.scale(a, m[0, 0], m[1, 1])


def _cphase(control: int, target: int, theta: float, p: int) -> list[Gate]:
    # controlled phase diag(1,1,1,e^{i theta}) up to a global phase
    return [
        Gate("RZ", (control,), quantize_angle(theta / 2, p)),
        Gate("RZ", (target,), quantize_angle(theta / 2, p)),
        Gate("CNOT", (control, target)),
        Gate("RZ", (target,), quantize_angle(-theta / 2, p)),
        Gate("CNOT", (control, target)),
    ]


def _emit_mcxroot(
    controls: Sequence[int], target: int, s: int, sign: int, p: int, out: list[Gate]
) -> None:
    """Controlled X^(sign / 2^s) with the given controls, ancilla-free.

    Standard root recursion: C-V, C^{k-1}X, C-V^dag, C^{k-1}X, C^{k-1}V with
    V the square root of the current gate. Every recursive call keeps at
    least one control, so only a top-level call with no controls lands in
    the bare-X case (s = 0 there).
    """
    if not controls:
        out.append(Gate("X", (target,)))
        return
    if len(controls) == 1:
        if s == 0:
            out.append(Gate("CNOT", (controls[0], target)))
        else:
            out.append(Gate("H", (target,)))
            out.extend(_cphase(controls[0], target, sign * math.pi / 2**s, p))
            out.append(Gate("H", (target,)))
        return
    last, rest = controls[-1], controls[:-1]
    _emit_mcxroot([last], target, s + 1, sign, p, out)
    _emit_mcxroot(rest, last, 0, 1, p, out)
    _emit_mcxroot([last], target, s + 1, -sign, p, out)
    _emit_mcxroot(rest, last, 0, 1, p, out)
    _emit_mcxroot(rest, target, s + 1, sign, p, out)


@functools.lru_cache(maxsize=None)
def _mcx_gate_count(controls: int, s: int = 0) -> int:
    """Gates _emit_mcxroot emits for this many controls at root level s,
    counted without building them."""
    if controls == 0:
        return 1
    if controls == 1:
        return 1 if s == 0 else 7  # a CNOT, or H + controlled phase (5) + H
    return (2 * _mcx_gate_count(1, s + 1) + 2 * _mcx_gate_count(controls - 1)
            + _mcx_gate_count(controls - 1, s + 1))


def multi_controlled_x(
    controls: Iterable[int], target: int, p: int = DEFAULT_ANGLE_BITS
) -> list[Gate]:
    """Ancilla-free multi-controlled X over the quantized-rotation basis.

    Decomposition id: MCX_DECOMPOSITION_ID (frozen so encoded circuit
    lengths are reproducible byte for byte). The rotation angles are exact
    grid points for p >= len(controls) + 2; p above ANGLE_BITS_CAP, which no
    quantized Circuit admits, is a CapError.
    """
    controls = list(controls)
    check_count("p", p, ANGLE_BITS_CAP)
    if target in controls:
        raise InputError("target cannot also be a control")
    if len(controls) + 2 > p:
        raise InputError(f"p={p} too small for {len(controls)} controls")
    out: list[Gate] = []
    _emit_mcxroot(controls, target, 0, 1, p, out)
    return out
