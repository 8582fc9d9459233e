"""Exact statevector and density-matrix simulation primitives.

Conventions: qubit 0 is the most significant bit of the computational basis
rank; a q-qubit statevector has 2^q complex amplitudes. Every gate, here and
in ``circuits``, runs on one in-place kernel: a run copies its input once
into a working buffer, and each gate updates that buffer through reshape
views, with one half-size scratch buffer for the whole run. A swap (X, CNOT,
controlled SWAP) exchanges two blocks, a diagonal gate scales the two halves
of its qubit, and H or RY mixes them. Global tolerances: 1e-10 for
normalization, 1e-9 eigenvalue floor, 1e-12 for analytic identities.
"""
from __future__ import annotations

import functools
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
    check_count("q", 2 * q + 1, STATE_QUBIT_CAP)
    buf = np.zeros(2 ** (2 * q + 1), dtype=np.complex128)
    ancilla0 = buf[: buf.size // 2]
    np.multiply.outer(a.amplitudes, b.amplitudes, out=ancilla0.reshape(2**q, 2**q))
    kernel = _Kernel(buf)
    hadamard = kernel.mix(0, _HADAMARD)
    hadamard()
    for i in range(1, q + 1):  # with the ancilla at 1, (i, q + i) = (0, 1) trades places with (1, 0)
        kernel.exchange(((0, 1), (i, 0), (q + i, 1)), ((0, 1), (i, 1), (q + i, 0)))()
    hadamard()
    p0 = float(np.vdot(ancilla0, ancilla0).real)
    return p0, 1.0 - p0


_HADAMARD = np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2)


class _Kernel:
    """In-place gate updates on one working buffer of 2^q amplitudes.

    Qubit i is axis i of the buffer viewed as a q-axis tensor, so qubit 0 is
    the most significant index bit. Each step method derives its reshape
    views once and returns a callable that updates the buffer through them,
    so a caller keeps one callable per distinct gate; a half-size scratch
    buffer serves every step. The steps stay private so that a traced run
    does not span every gate.
    """

    def __init__(self, amplitudes: np.ndarray):
        """Takes amplitudes, a fresh complex array, as the working buffer."""
        self.buf = amplitudes
        self.scratch = np.empty(amplitudes.size // 2, dtype=np.complex128)

    def _block(self, fixed) -> np.ndarray:
        """View of the amplitudes whose qubits hold the bits in fixed, a
        sequence of (qubit, bit) pairs, with its unit axes dropped."""
        shape, index, start = [], [], 0
        for qubit, bit in sorted(fixed):
            shape += (2 ** (qubit - start), 2)
            index += (slice(None), bit)
            start = qubit + 1
        return self.buf.reshape(shape + [-1])[tuple(index)].squeeze()

    def exchange(self, fixed_a, fixed_b):
        """Step that swaps block fixed_a with block fixed_b (same qubits)."""
        a, b = self._block(fixed_a), self._block(fixed_b)
        return functools.partial(_exchange, a, b, self.scratch[: a.size].reshape(a.shape))

    def scale(self, qubit: int, d0: complex, d1: complex):
        """Step that multiplies the qubit = 0 half by d0 and the qubit = 1
        half by d1."""
        if d0 == 1:
            b = self._block(((qubit, 1),))
            return functools.partial(np.multiply, b, d1, b)
        pair = self.buf.reshape(2**qubit, 2, -1)
        return functools.partial(np.multiply, pair, np.array([[d0], [d1]]), pair)

    def mix(self, qubit: int, m: np.ndarray):
        """Step that maps the halves (a, b) of qubit to m @ (a, b)."""
        a, b = self._block(((qubit, 0),)), self._block(((qubit, 1),))
        t = self.scratch.reshape(a.shape)
        if m[0, 0] == m[0, 1] == m[1, 0] == -m[1, 1]:  # a multiple of [[1, 1], [1, -1]]
            return functools.partial(_butterfly, a, b, t, self.buf, m[0, 0])
        return functools.partial(_mix, a, b, t, *m.flat)

    def state(self) -> StateVector:
        """The buffer, normalised in place, as the run's result."""
        self.buf /= np.linalg.norm(self.buf)
        return StateVector(self.buf.size.bit_length() - 1, self.buf)


# A ufunc that writes one half while it reads the other resolves their
# overlap exactly and makes no copy; a[...] = b copies b first when the two
# halves interleave, which still costs less than a ufunc on small blocks.
# The ufuncs take out as their third argument: a keyword costs more per call.
def _exchange(a, b, t):
    t[...] = a
    a[...] = b
    b[...] = t


def _butterfly(a, b, t, buf, x):
    """(a, b) <- x (a + b, a - b); buf holds exactly a and b."""
    t[...] = b
    np.subtract(a, b, b)
    a += t
    buf *= x


def _mix(a, b, t, m00, m01, m10, m11):
    """(a, b) <- (m00 a + m01 b, m10 a + m11 b), for RY; the two products
    with b are half-size temporaries."""
    np.multiply(a, m10, t)
    t += m11 * b
    a *= m00
    a += m01 * b
    b[...] = t


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
