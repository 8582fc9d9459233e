"""Gates, circuits, exact unitary application, and the multi-controlled-X
decomposition used by the fingerprint preparation circuits.

``apply_circuit`` runs every gate in place on the ``states`` kernel's working
buffer (qubit 0 is the most significant index bit): X and CNOT exchange two
blocks, Z, S, T and RZ scale the two halves of their qubit by the diagonal,
and H and RY mix the halves. Each distinct gate's views are derived once
per run.

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


def _trusted_circuit(q: int, gates: tuple[Gate, ...], basis: str, p: int) -> Circuit:
    """Circuit of the given fields, none of them validated.

    For builders and decoders that have already checked q, p and every gate
    the way Gate and Circuit would: it skips Circuit.__post_init__.
    """
    c = object.__new__(Circuit)
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
    kernel = _Kernel(s0.amplitudes.copy())
    by_id, by_gate = {}, {}  # ids first: builders reuse Gate objects, and hashing one costs more
    for g in c.gates:
        step = by_id.get(id(g))  # c holds g for the whole run, so its id stays g's
        if step is None:
            if g not in by_gate:
                by_gate[g] = _gate_step(kernel, g)
            step = by_id[id(g)] = by_gate[g]
        step()
    return kernel.state()


def _gate_step(kernel: _Kernel, g: Gate):
    """The kernel step that applies g."""
    if g.name == "CNOT":
        control, target = g.targets
        return kernel.exchange(((control, 1), (target, 0)), ((control, 1), (target, 1)))
    (qubit,) = g.targets
    if g.name == "X":
        return kernel.exchange(((qubit, 0),), ((qubit, 1),))
    m = gate_matrix(g)
    if g.name in ("H", "RY"):
        return kernel.mix(qubit, m)
    return kernel.scale(qubit, m[0, 0], m[1, 1])


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
