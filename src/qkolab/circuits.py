"""Gates, circuits, exact unitary application, and the multi-controlled-X
decomposition used by the fingerprint preparation circuits.

``apply_circuit`` runs every gate through the ``states`` kernels: a 1-qubit
gate is one matmul on a reshape view (qubit 0 is the most significant index
bit), and a CNOT flips the target axis of the control = 1 half.

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

from .errors import InputError, check_count
from .states import StateVector, _apply_1q, _apply_controlled

EXACT_BASIS = ("H", "X", "Z", "S", "T", "CNOT")
QUANTIZED_BASIS = EXACT_BASIS + ("RY", "RZ")

OPCODES = {name: i + 1 for i, name in enumerate(QUANTIZED_BASIS)}
OPNAMES = {v: k for k, v in OPCODES.items()}
PARAMETRIZED = frozenset({"RY", "RZ"})
TWO_QUBIT = frozenset({"CNOT"})

DEFAULT_ANGLE_BITS = 16
ANGLE_BITS_CAP = 32  # every format-v2 gate record then fits one 64-bit word

MCX_DECOMPOSITION_ID = "mcx-rootrec-v1"


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


@dataclass(frozen=True)
class Circuit:
    q: int
    gates: tuple[Gate, ...]
    basis: str = "exact"  # "exact" | "quantized"
    p: int = 0  # angle bits; 0 for the exact basis

    def __post_init__(self):
        if self.basis not in ("exact", "quantized"):
            raise InputError(f"unknown basis {self.basis!r}")
        if self.basis == "quantized":
            check_count("p", self.p, ANGLE_BITS_CAP)
        elif self.p != 0:
            raise InputError("the exact basis requires p == 0")
        allowed = QUANTIZED_BASIS if self.basis == "quantized" else EXACT_BASIS
        for g in self.gates:
            if g.name not in allowed:
                raise InputError(f"gate {g.name} not in the {self.basis} basis")
            if any(t < 0 or t >= self.q for t in g.targets):
                raise InputError(f"gate target out of range for q={self.q}")


_GATE_NEW = object.__new__
_SET_NAME, _SET_TARGETS, _SET_ANGLE = (Gate.__dict__[f].__set__ for f in ("name", "targets", "angle"))


def _trusted_gate(name: str, targets: tuple[int, ...], angle: float | None) -> Gate:
    g = _GATE_NEW(Gate)
    _SET_NAME(g, name)
    _SET_TARGETS(g, targets)
    _SET_ANGLE(g, angle)
    return g


def _trusted_circuit(q: int, basis: str, p: int, names: Iterable[str],
                     targets: Iterable[tuple[int, ...]], angles: Iterable[float | None]) -> Circuit:
    """Circuit of the given gate fields, none of them validated.

    For decoders that have already checked the whole payload the way
    Gate and Circuit would: it skips both __post_init__ methods.
    """
    c = object.__new__(Circuit)
    gates = tuple(map(_trusted_gate, names, targets, angles))
    for attr, value in (("q", q), ("gates", gates), ("basis", basis), ("p", p)):
        object.__setattr__(c, attr, value)
    return c


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
    if g.name in _FIXED_1Q:
        return _FIXED_1Q[g.name]
    half = (g.angle or 0.0) / 2.0
    if g.name == "RY":
        c, s = math.cos(half), math.sin(half)
        return np.array([[c, -s], [s, c]], dtype=np.complex128)
    if g.name == "RZ":
        return np.array(
            [[np.exp(-1j * half), 0], [0, np.exp(1j * half)]], dtype=np.complex128
        )
    raise InputError(f"no matrix for gate {g.name}")


def apply_circuit(c: Circuit, s0: StateVector) -> StateVector:
    """Exact gate-by-gate unitary action; norm is preserved."""
    if c.q != s0.q:
        raise InputError(f"circuit has {c.q} qubits, state has {s0.q}")
    state = s0.amplitudes
    for g in c.gates:
        if g.name == "CNOT":
            control, target = g.targets
            state = _apply_controlled(state, control, c.q, lambda t: np.flip(t, target))
        else:
            state = _apply_1q(state, gate_matrix(g), g.targets[0])
    return StateVector(c.q, state / np.linalg.norm(state))


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
    grid points for p >= len(controls) + 2.
    """
    controls = list(controls)
    if target in controls:
        raise InputError("target cannot also be a control")
    if len(controls) + 2 > p:
        raise InputError(f"p={p} too small for {len(controls)} controls")
    out: list[Gate] = []
    _emit_mcxroot(controls, target, 0, 1, p, out)
    return out
