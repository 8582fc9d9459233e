"""Compression-based complexity estimators for circuits and states.

The circuit encoding is bit-exact and frozen (format version 2): an 8-bit
version, 16-bit qubit count q (encoder and decoder both hold q to [1, 2^15]),
8-bit basis flag, 8-bit angle precision p (0 for the exact basis) and a
32-bit gate count, followed by one record per gate: a 6-bit opcode, one
delta-coded target per operand (ceil(log2 q) bits each, relative to the
previously written target, modulo 2^bits) and a p-bit angle for parametrized
gates. Each gate record is zero-padded to a byte boundary, as is the header.

Targets are delta-coded and records byte-aligned so that structurally
repetitive circuits (the Bell-pair ladder, the per-position conditional
flips of the fingerprint preparation) present the compressor with repeating
byte patterns; with absolute bit-packed targets the compressed length of
the Bell-pair family grows linearly instead of staying near-constant.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.stats import spearmanr

from .bitio import BitReader, BitWriter
from .bits import BitString
from .circuits import (
    Circuit,
    Gate,
    OPCODES,
    OPNAMES,
    PARAMETRIZED,
    TWO_QUBIT,
    apply_circuit,
)
from .codes import LinearCode, encode_blocks
from .compressor import ComplexitySurrogate, kcl_upper
from .errors import CapError, DecodeError, InputError, check_count
from .fingerprint import quantize_state
from .states import DensityMatrix, StateVector, partial_trace, uhlmann_fidelity

FORMAT_VERSION = 2
ENCODING_CAP_QUBITS = 2**15


@dataclass(frozen=True)
class CircuitEncoding:
    payload: bytes = field(repr=False)
    payload_bits: int  # before byte padding


def _target_bits(q: int) -> int:
    return max(1, math.ceil(math.log2(q))) if q > 1 else 0


def encode_circuit(c: Circuit) -> CircuitEncoding:
    """Bit-exact serialization of a circuit; see the module docstring."""
    check_count("q", c.q, ENCODING_CAP_QUBITS)
    if len(c.gates) >= 2**32:
        raise CapError("gate count exceeds the 32-bit record")
    tb = _target_bits(c.q)
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
    return CircuitEncoding(w.to_bytes(), w.bit_length)


def decode_circuit(e: CircuitEncoding | bytes) -> Circuit:
    data = e.payload if isinstance(e, CircuitEncoding) else bytes(e)
    r = BitReader(data)
    version = r.read_uint(8)
    if version != FORMAT_VERSION:
        raise DecodeError(f"unsupported format version {version}", offset=0)
    q = r.read_uint(16)
    basis_flag = r.read_uint(8)
    p = r.read_uint(8)
    count = r.read_uint(32)
    if not 1 <= q <= ENCODING_CAP_QUBITS or basis_flag > 1:
        raise DecodeError("implausible header", offset=8)
    tb = _target_bits(q)
    gates = []
    prev = 0
    for _ in range(count):
        op = r.read_uint(6)
        if op not in OPNAMES:
            raise DecodeError(f"unknown opcode {op}", offset=r.position - 6)
        name = OPNAMES[op]
        arity = 2 if name in TWO_QUBIT else 1
        targets = []
        for _ in range(arity):
            delta = r.read_uint(tb) if tb else 0
            prev = (prev + delta) % 2**tb if tb else 0
            targets.append(prev)
        angle = None
        if name in PARAMETRIZED:
            angle = r.read_uint(p) * 2 * math.pi / 2**p
        r.align_to_byte()
        gates.append(Gate(name, tuple(targets), angle))
    basis = "quantized" if basis_flag else "exact"
    return Circuit(q, tuple(gates), basis, p)


def knet_upper(c: Circuit) -> ComplexitySurrogate:
    """Upper bound on the preparation-description length of the circuit's
    output state: compressed length of the circuit's encoding.

    This bounds the complexity of the *given* preparation; the true minimum
    over all preparing circuits is not searched.
    """
    return kcl_upper(encode_circuit(c).payload)


def cbe_upper(s: StateVector, eps_a: float) -> ComplexitySurrogate:
    """Compressed length of the fixed-point amplitude-list description."""
    return kcl_upper(quantize_state(s, eps_a).payload)


@dataclass(frozen=True)
class CandidateReport:
    index: int
    admitted: bool
    uhlmann_fidelity_sq: float
    knet_bits: int | None


@dataclass(frozen=True)
class MixedComplexityResult:
    bits: int
    candidates: tuple[CandidateReport, ...]


def mixed_complexity_upper(
    r: DensityMatrix,
    candidates: list[Circuit],
    eps: float,
    keep: tuple[int, ...] | None = None,
) -> MixedComplexityResult:
    """Minimum knet bound over candidate purification circuits whose reduced
    state matches r with squared Uhlmann fidelity at least 1 - eps.

    `keep` names the system qubits of the candidates; by default the first
    r.q qubits (use the even qubits for the interleaved Bell-pair layout).
    """
    if not candidates:
        raise InputError("no candidate circuits supplied")
    if keep is None:
        keep = tuple(range(r.q))
    if len(keep) != r.q:
        raise InputError(f"keep must name {r.q} qubits")
    reports = []
    best = None
    for i, cand in enumerate(candidates):
        if cand.q != 2 * r.q:
            raise InputError(
                f"candidate {i} acts on {cand.q} qubits; purifications of r need {2 * r.q}"
            )
        out = apply_circuit(cand, StateVector.computational(cand.q, 0))
        reduced = partial_trace(out, keep)
        fsq = uhlmann_fidelity(r, reduced) ** 2
        if fsq >= 1.0 - eps:
            bits = knet_upper(cand).compressed_length_bits
            reports.append(CandidateReport(i, True, fsq, bits))
            best = bits if best is None else min(best, bits)
        else:
            reports.append(CandidateReport(i, False, fsq, None))
    if best is None:
        raise InputError("no candidate met the fidelity admission threshold")
    return MixedComplexityResult(best, tuple(reports))


def bell_pair_circuit(n: int) -> Circuit:
    """n Hadamard+CNOT couples preparing (|00> + |11>)^{tensor n} / 2^{n/2}.

    Tracing out the second qubit of every couple leaves the maximally mixed
    state on n qubits.
    """
    check_count("n", n, ENCODING_CAP_QUBITS // 2)
    gates = []
    for i in range(n):
        gates.append(Gate("H", (2 * i,)))
        gates.append(Gate("CNOT", (2 * i, 2 * i + 1)))
    return Circuit(2 * n, tuple(gates))


@dataclass(frozen=True)
class Observation1Report:
    pairs: tuple[tuple[int, int], ...]  # (kcl(x), kcl(E(x))) per corpus string
    spearman: float
    corpus_size: int


def _mixed_corpus(code: LinearCode, size: int, rng: np.random.Generator) -> list[BitString]:
    """Strings spanning periodic to PRNG-random, with lengths a multiple of n.

    Four families: short-period block repetitions, vocabulary-limited block
    sequences, bit-biased noise, and full PRNG noise, over 20..200 blocks.
    """
    n = code.n
    corpus = []
    for i in range(size):
        nb = int(20 + 180 * (i / size))
        mode = i % 4
        if mode == 0:
            per = 1 + i % 6
            vocab = rng.integers(0, 2, (per, n), dtype=np.uint8)
            x = vocab[np.tile(np.arange(per), nb // per + 1)[:nb]].reshape(-1)
        elif mode == 1:
            v = 1 + int(rng.integers(1, max(2, nb // 2)))
            vocab = rng.integers(0, 2, (v, n), dtype=np.uint8)
            x = vocab[rng.integers(0, v, nb)].reshape(-1)
        elif mode == 2:
            prob = 0.05 + 0.45 * rng.random()
            x = (rng.random(nb * n) < prob).astype(np.uint8)
        else:
            x = rng.integers(0, 2, nb * n, dtype=np.uint8)
        corpus.append(BitString(x))
    return corpus


def observation1_experiment(
    code: LinearCode, corpus_size: int = 200, seed: int = 0
) -> Observation1Report:
    """Rank correlation between the compressed lengths of strings and of
    their blockwise encodings under an algorithmically simple code."""
    if corpus_size < 50:
        raise InputError(f"corpus too small ({corpus_size} < 50)")
    rng = np.random.default_rng(seed)
    corpus = _mixed_corpus(code, corpus_size, rng)
    pairs = tuple(
        (
            kcl_upper(x).compressed_length_bits,
            kcl_upper(encode_blocks(code, x)).compressed_length_bits,
        )
        for x in corpus
    )
    rho = float(spearmanr([a for a, _ in pairs], [b for _, b in pairs]).statistic)
    return Observation1Report(pairs, rho, corpus_size)
