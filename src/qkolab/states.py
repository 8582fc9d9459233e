"""Exact statevector and density-matrix simulation primitives.

Conventions: qubit 0 is the most significant bit of the computational basis
rank; a q-qubit statevector has 2^q complex amplitudes. Every gate, here and
in ``circuits``, is applied through one reshape view of the state; a
controlled gate permutes the control = 1 half. Global tolerances:
1e-10 for normalization, 1e-9 eigenvalue floor, 1e-12 for analytic
identities.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, check_count

NORM_TOL = 1e-10
EIG_FLOOR = 1e-9
STATE_QUBIT_CAP = 20
DENSITY_QUBIT_CAP = 10


@dataclass(frozen=True)
class StateVector:
    q: int
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self):
        check_count("q", self.q, STATE_QUBIT_CAP)
        amps = np.ascontiguousarray(self.amplitudes, dtype=np.complex128)
        if amps.shape != (2**self.q,):
            raise InputError(f"expected {2**self.q} amplitudes, got {amps.shape}")
        norm = np.linalg.norm(amps)
        if not abs(norm - 1.0) <= NORM_TOL:  # NaN fails every comparison
            raise InputError(f"state norm {norm} deviates from 1 beyond {NORM_TOL}")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def computational(cls, q: int, rank: int = 0) -> "StateVector":
        amps = np.zeros(2**q, dtype=np.complex128)
        amps[rank] = 1.0
        return cls(q, amps)

    @classmethod
    def random(cls, q: int, rng: np.random.Generator) -> "StateVector":
        """Haar-random pure state."""
        v = rng.standard_normal(2**q) + 1j * rng.standard_normal(2**q)
        return cls(q, v / np.linalg.norm(v))

    def to_json(self) -> str:
        """JSON array of [re, im] pairs indexed by basis rank."""
        return json.dumps([[a.real, a.imag] for a in self.amplitudes])

    @classmethod
    def from_json(cls, text: str) -> "StateVector":
        try:
            amps = np.array([complex(re, im) for re, im in json.loads(text)])
        except (TypeError, ValueError, RecursionError) as e:
            raise InputError(f"statevector JSON must be a list of [re, im] pairs: {e}") from e
        dim = len(amps)
        q = dim.bit_length() - 1
        if 2**q != dim:
            raise InputError(f"amplitude count {dim} is not a power of two")
        return cls(q, amps)


@dataclass(frozen=True)
class DensityMatrix:
    q: int
    entries: np.ndarray = field(repr=False)

    def __post_init__(self):
        check_count("q", self.q, DENSITY_QUBIT_CAP)
        mat = np.ascontiguousarray(self.entries, dtype=np.complex128)
        dim = 2**self.q
        if mat.shape != (dim, dim):
            raise InputError(f"expected {dim}x{dim} matrix")
        if not np.abs(mat - mat.conj().T).max() <= NORM_TOL:  # NaN fails here too
            raise InputError("matrix is not Hermitian within tolerance")
        if not abs(np.trace(mat).real - 1.0) <= NORM_TOL:
            raise InputError("trace deviates from 1 beyond tolerance")
        if np.linalg.eigvalsh(mat).min() < -EIG_FLOOR:
            raise InputError("matrix has an eigenvalue below the PSD floor")
        mat.setflags(write=False)
        object.__setattr__(self, "entries", mat)

    @classmethod
    def from_pure(cls, s: StateVector) -> "DensityMatrix":
        check_count("q", s.q, DENSITY_QUBIT_CAP)
        return cls(s.q, np.outer(s.amplitudes, s.amplitudes.conj()))

    @classmethod
    def maximally_mixed(cls, q: int) -> "DensityMatrix":
        check_count("q", q, DENSITY_QUBIT_CAP)
        return cls(q, np.eye(2**q) / 2**q)


def fidelity(a: StateVector, b: StateVector) -> float:
    """|<a|b>|^2."""
    if a.q != b.q:
        raise InputError(f"dimension mismatch: {a.q} vs {b.q} qubits")
    return float(abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)


def swap_test(a: StateVector, b: StateVector) -> tuple[float, float]:
    """Closed-form ancilla outcome distribution (P(0), P(1))."""
    p0 = (1.0 + fidelity(a, b)) / 2.0
    return p0, 1.0 - p0


def sample_swap_outcomes(p1: float, k: int, rng: np.random.Generator) -> np.ndarray:
    """Shared sampling path so simulations with equal p1 and seed agree."""
    return (rng.random(k) < p1).astype(np.uint8)


def swap_test_circuit(a: StateVector, b: StateVector) -> tuple[float, float]:
    """Outcome distribution of the literal (2q+1)-qubit test circuit.

    Ancilla (qubit 0) Hadamard, one controlled-SWAP per qubit pair, ancilla
    Hadamard, then the ancilla marginal. Serves as the internal oracle for
    the closed form.
    """
    if a.q != b.q:
        raise InputError(f"dimension mismatch: {a.q} vs {b.q} qubits")
    q = a.q
    total = 2 * q + 1
    check_count("q", total, STATE_QUBIT_CAP)
    state = np.kron([1.0 + 0j, 0.0], np.kron(a.amplitudes, b.amplitudes))
    state = _apply_1q(state, _HADAMARD, 0)
    for i in range(q):
        state = _apply_controlled(
            state, 0, total, lambda t: np.swapaxes(t, 1 + i, 1 + q + i)
        )
    state = _apply_1q(state, _HADAMARD, 0)
    probs = np.abs(state.reshape(2, -1)) ** 2
    p0 = float(probs[0].sum())
    return p0, 1.0 - p0


_HADAMARD = np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2)


# The two gate kernels. Qubit i is axis i of the state viewed as a q-axis
# tensor, so qubit 0 is the most significant index bit. Neither writes its
# input, and both stay private so a traced run does not span every gate.
def _apply_1q(state: np.ndarray, matrix: np.ndarray, qubit: int) -> np.ndarray:
    return (matrix @ state.reshape(2**qubit, 2, -1)).reshape(-1)


def _apply_controlled(state: np.ndarray, control: int, q: int, permute) -> np.ndarray:
    """Copy of state whose control = 1 half is taken from permute(t), an axis
    permutation (np.flip, np.swapaxes) of the q-axis view t."""
    t = state.reshape([2] * q)
    out = t.copy()
    half = (slice(None),) * control + (1,)
    out[half] = permute(t)[half]
    return out.reshape(-1)


def partial_trace(state: StateVector, keep) -> DensityMatrix:
    """Reduced density matrix of a pure state on the kept qubits (ascending
    order): the kept-by-traced amplitude matrix M gives M M^dagger."""
    keep = sorted(set(int(k) for k in keep))
    q = state.q
    if not keep:
        raise InputError("keep set must be nonempty")
    if keep[0] < 0 or keep[-1] >= q:
        raise InputError(f"keep indices must lie in [0, {q})")
    traced = [i for i in range(q) if i not in keep]
    t = np.transpose(state.amplitudes.reshape([2] * q), keep + traced)
    mat = t.reshape(2 ** len(keep), 2 ** len(traced))
    return DensityMatrix(len(keep), mat @ mat.conj().T)


def _psd_root(r: DensityMatrix) -> np.ndarray:
    vals, vecs = np.linalg.eigh(r.entries)
    return (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T


def uhlmann_fidelity(r: DensityMatrix, s: DensityMatrix) -> float:
    """F = tr sqrt(sqrt(r) s sqrt(r)) = nuclear norm of sqrt(r) sqrt(s).

    The singular-value form avoids the square root of clipped near-zero
    eigenvalues, which would amplify eigensolver noise.
    """
    if r.q != s.q:
        raise InputError(f"dimension mismatch: {r.q} vs {s.q} qubits")
    sv = np.linalg.svd(_psd_root(r) @ _psd_root(s), compute_uv=False)
    return float(min(1.0, sv.sum()))
