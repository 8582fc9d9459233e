"""Independent references and correctness checks for benchmark jobs.

Every check returns a list of problems; an empty list means the job's
output is correct. The references here re-derive results from the
documented formats and closed forms with plain numpy and zlib, not by
calling the qkolab function under test. Statistical checks are two-sided
(or one-sided where only a bound is known) exact binomial tests at a total
false-alarm probability of at most 1e-6 per check, so a correct program,
whatever random-number scheme it uses, fails a job with probability at
most 1e-6.
"""
from __future__ import annotations

import math
import zlib

import numpy as np
from scipy.stats import binom

FALSE_ALARM = 1e-6
HEADER_BITS = 16  # kcl_upper's fixed header charge (method deflate9-raw+16)


# -- statistics -------------------------------------------------------------
def binomial_problems(label: str, hits: int, n: int, p: float, sides: str = "two") -> list[str]:
    """Problems when ``hits`` of ``n`` is implausible under rate ``p``.

    ``sides`` is "two", or "upper" when the true rate is only known to be
    at most ``p``.
    """
    if n == 0:
        return []
    alpha = FALSE_ALARM / 2 if sides == "two" else FALSE_ALARM
    problems = []
    if binom.sf(hits - 1, n, p) < alpha:
        problems.append(f"{label}: {hits}/{n} is too high for rate {p:.6g}")
    if sides == "two" and binom.cdf(hits, n, p) < alpha:
        problems.append(f"{label}: {hits}/{n} is too low for rate {p:.6g}")
    return problems


def close(a: float, b: float, rel: float = 1e-9, abs_: float = 1e-12) -> bool:
    return abs(a - b) <= max(abs_, rel * max(abs(a), abs(b)))


# -- compression --------------------------------------------------------------
def kcl_bits(data: bytes) -> int:
    """Raw DEFLATE level 9 plus the 16-bit header, recomputed here."""
    if not data:
        return HEADER_BITS
    co = zlib.compressobj(9, zlib.DEFLATED, -15)
    return 8 * len(co.compress(data) + co.flush()) + HEADER_BITS


# -- circuits and their encoding ----------------------------------------------
def encoded_bits(q: int, p: int, gates) -> int:
    """Length in bits of the format-2 circuit encoding, from its layout:
    a 72-bit header, then per gate a 6-bit opcode, ceil(log2 q) bits per
    target and p bits per angle, each record padded to a byte."""
    tb = max(1, math.ceil(math.log2(q))) if q > 1 else 0
    total = 72
    for g in gates:
        bits = 6 + tb * len(g.targets) + (p if g.angle is not None else 0)
        total += 8 * -(-bits // 8)
    return total


def circuit_problems(original, decoded, payload: bytes, payload_bits: int) -> list[str]:
    """Round trip and encoding-length checks for one circuit."""
    problems = []
    if (decoded.q, decoded.basis, decoded.p) != (original.q, original.basis, original.p):
        problems.append("decoded header differs")
    if len(decoded.gates) != len(original.gates):
        return problems + ["decoded gate count differs"]
    steps = 2**original.p if original.p else 1
    for i, (a, b) in enumerate(zip(original.gates, decoded.gates)):
        if a.name != b.name or tuple(a.targets) != tuple(b.targets):
            return problems + [f"gate {i} differs after decoding"]
        if (a.angle is None) != (b.angle is None) or (
            a.angle is not None
            and round(a.angle / (2 * math.pi) * steps) % steps
            != round(b.angle / (2 * math.pi) * steps) % steps
        ):
            return problems + [f"gate {i} angle differs after decoding"]
    want = encoded_bits(original.q, original.p, original.gates)
    if payload_bits != want or len(payload) != want // 8:
        problems.append(f"encoding has {payload_bits} bits, layout gives {want}")
    return problems


# -- states ---------------------------------------------------------------------
_SQ2 = 1.0 / math.sqrt(2.0)
_MATRICES = {
    "H": np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=np.complex128),
    "X": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "Z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
    "S": np.array([[1, 0], [0, 1j]], dtype=np.complex128),
    "T": np.array([[1, 0], [0, np.exp(1j * math.pi / 4)]], dtype=np.complex128),
}


def reference_apply(q: int, gates, amps: np.ndarray) -> np.ndarray:
    """Exact-basis gate sequence applied by index arithmetic (qubit 0 is the
    most significant bit). ``gates`` is a sequence of (name, targets)."""
    psi = np.array(amps, dtype=np.complex128)
    index = np.arange(2**q)
    for name, targets in gates:
        if name == "CNOT":
            c, t = (q - 1 - j for j in targets)
            sel = index[((index >> c) & 1 == 1) & ((index >> t) & 1 == 0)]
            flip = sel | (1 << t)
            psi[sel], psi[flip] = psi[flip], psi[sel].copy()
        else:
            (j,) = targets
            view = psi.reshape(2**j, 2, 2 ** (q - 1 - j))
            m = _MATRICES[name]
            a0, a1 = view[:, 0, :].copy(), view[:, 1, :].copy()
            view[:, 0, :] = m[0, 0] * a0 + m[0, 1] * a1
            view[:, 1, :] = m[1, 0] * a0 + m[1, 1] * a1
    return psi


def codeword(generator: np.ndarray, x_bits: np.ndarray) -> np.ndarray:
    return (x_bits.astype(np.int64) @ generator.astype(np.int64)) % 2


def fingerprint_amplitudes(word: np.ndarray) -> np.ndarray:
    """1/sqrt(m) on |i>|w_i> for i < m, on ceil(log2 m) + 1 qubits."""
    m = len(word)
    k = max(1, math.ceil(math.log2(m)))
    amps = np.zeros(2 ** (k + 1), dtype=np.complex128)
    amps[2 * np.arange(m) + word] = 1.0 / math.sqrt(m)
    return amps


def quantized_payload(amps: np.ndarray, eps_a: float) -> bytes:
    """The documented fixed-point layout: 16-bit q, 16-bit p, 32 reserved
    bits, then p-bit two's-complement real parts and imaginary parts at
    scale 2^(p-1), zero-padded to a byte."""
    q = len(amps).bit_length() - 1
    p = max(2, math.ceil(math.log2(1.0 / eps_a)))
    ints = np.round(np.concatenate([amps.real, amps.imag]) * 2.0 ** (p - 1))
    ints = np.clip(ints, -(2 ** (p - 1)), 2 ** (p - 1) - 1).astype(np.int64) & ((1 << p) - 1)
    header = (q << 48) | (p << 32)
    bits = [(header >> (63 - i)) & 1 for i in range(64)]
    body = (ints[:, None] >> np.arange(p - 1, -1, -1)) & 1
    return np.packbits(np.concatenate([np.array(bits, dtype=np.uint8), body.reshape(-1).astype(np.uint8)])).tobytes()


def min_distance_delta(generator: np.ndarray) -> float:
    """Agreement bound 1 - (min nonzero weight)/m by enumerating messages."""
    n, m = generator.shape
    msgs = (np.arange(1, 2**n)[:, None] >> np.arange(n - 1, -1, -1)) & 1
    weights = ((msgs @ generator.astype(np.int64)) % 2).sum(axis=1)
    return 1.0 - int(weights.min()) / m
