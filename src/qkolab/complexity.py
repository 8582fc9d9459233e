"""Compression-based complexity estimators for circuits and states.

The circuit encoding is bit-exact and frozen (format version 2): an 8-bit
version, 16-bit qubit count q (encoder and decoder both hold q to [1, 2^15]),
8-bit basis flag, 8-bit angle precision p (0 for the exact basis; [1, 32]
for the quantized one, both ways) and a 32-bit gate count, followed by one
record per gate: a 6-bit opcode, one delta-coded target per operand
(ceil(log2 q) bits each, relative to the previously written target, modulo
2^bits) and a p-bit angle for parametrized gates. Each gate record is
zero-padded to a byte boundary, as is the header. With q and p capped a
record has at most 6 + 15 + 32 bits, so the codec handles each record as
one uint64 and the whole circuit as numpy arrays: the encoder reads the
circuit's gate table (see ``circuits``) and the decoder writes one, and
neither makes a ``Gate``. Because a one-qubit row repeats its target, the
target a record is delta-coded against is the previous row's second one.

Targets are delta-coded and records byte-aligned so that structurally
repetitive circuits (the Bell-pair ladder, the per-position conditional
flips of the fingerprint preparation) present the compressor with repeating
byte patterns; with absolute bit-packed targets the compressed length of
the Bell-pair family grows linearly instead of staying near-constant.
"""
from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .bits import BitString
from .circuits import (
    ANGLE_BITS_CAP,
    Circuit,
    OPCODES,
    OPNAMES,
    PARAMETRIZED,
    TWO_QUBIT,
    _trusted_circuit,
    apply_circuit,
)
from .codes import LinearCode, encode_blocks
from .compressor import ComplexitySurrogate, kcl_upper
from .errors import CapError, DecodeError, InputError, check_count
from .fingerprint import quantize_state
from .states import DensityMatrix, StateVector, partial_trace, uhlmann_fidelity

FORMAT_VERSION = 2
ENCODING_CAP_QUBITS = 2**15
ENCODE_CHUNK = 2**16  # gate records per array pass of the encoder

_HEADER = struct.Struct(">BHBBI")  # version, q, basis flag, p, gate count
_H, _CNOT, _RY, _RZ = (OPCODES[name] for name in ("H", "CNOT", "RY", "RZ"))


@dataclass(frozen=True)
class CircuitEncoding:
    payload: bytes = field(repr=False)
    payload_bits: int  # before byte padding


def _target_bits(q: int) -> int:
    return max(1, math.ceil(math.log2(q))) if q > 1 else 0


def _record_bits(tb: int, p: int) -> np.ndarray:
    """Record length in bits before padding, indexed by the 6-bit opcode;
    0 for the unassigned opcodes."""
    bits = np.zeros(64, dtype=np.uint8)
    for op, name in OPNAMES.items():
        bits[op] = 6 + tb * (2 if name in TWO_QUBIT else 1) + p * (name in PARAMETRIZED)
    return bits


def _record_bytes(c: Circuit, tb: int, lo: int, hi: int) -> bytes:
    """The records of rows lo..hi-1. Each is built as one uint64,
    (op << tb | t1) [<< tb | t2] [<< p | grid], then shifted to the top of
    its 64 bits, so that its pad bits are the zeros below it, and its first
    ceil(bits / 8) big-endian bytes are the record. The uint16 target
    differences wrap modulo 2^16, which 2^tb divides."""
    ops, targets = c.ops[lo:hi], c.targets[lo:hi]
    mask = 2**tb - 1
    prev = np.empty_like(targets[:, 1])
    prev[0] = c.targets[lo - 1, 1] if lo else 0
    prev[1:] = targets[:-1, 1]
    word = ops.astype(np.uint64) << tb | ((targets[:, 0] - prev) & mask)
    cnots = np.flatnonzero(ops == _CNOT)
    second = (targets[cnots, 1] - targets[cnots, 0]) & mask
    word[cnots] = word[cnots] << tb | second
    rotations = np.flatnonzero((ops == _RY) | (ops == _RZ))
    if rotations.size:
        steps = 2.0**c.p
        angles = c.angles[lo:hi][rotations]
        grid = np.remainder(np.round(np.remainder(angles, 2 * math.pi) / (2 * math.pi) * steps), steps)
        word[rotations] = word[rotations] << c.p | grid.astype(np.uint64)
    bits = _record_bits(tb, c.p)[ops]
    word <<= 64 - bits
    keep = np.arange(8) < ((bits + 7) // 8)[:, None]
    return word.astype(">u8").view(np.uint8).reshape(-1, 8)[keep].tobytes()


def encode_circuit(c: Circuit) -> CircuitEncoding:
    """Bit-exact serialization of a circuit; see the module docstring.

    The records are built ENCODE_CHUNK rows at a time, which bounds the
    temporaries whatever the gate count.
    """
    check_count("q", c.q, ENCODING_CAP_QUBITS)
    count = len(c.ops)
    if count >= 2**32:
        raise CapError("gate count exceeds the 32-bit record")
    header = _HEADER.pack(FORMAT_VERSION, c.q, c.basis == "quantized", c.p, count)
    tb = _target_bits(c.q)
    records = (_record_bytes(c, tb, lo, lo + ENCODE_CHUNK) for lo in range(0, count, ENCODE_CHUNK))
    payload = b"".join((header, *records))
    return CircuitEncoding(payload, 8 * len(payload))


def _decode_table(data: bytes, q: int, p: int, basis_flag: int, count: int):
    """The gate table (opcodes, targets, angles) of the records, after
    checking every record the way Gate and Circuit would."""
    tb = _target_bits(q)
    bits = _record_bits(tb, p)
    # the length of a record that starts at each byte, read off its opcode bits
    lengths = data.translate(((bits + 7) // 8)[np.arange(256) >> 2].tobytes())
    starts = []
    append = starts.append
    pos = _HEADER.size
    try:
        for _ in range(count):  # an unknown opcode has length 0 and is caught below
            append(pos)
            pos += lengths[pos]
    except IndexError:
        pos = len(data) + 1  # a record starts past the end
    if pos > len(data):
        raise DecodeError("payload truncated", offset=8 * len(data))
    at = np.array(starts, dtype=np.int64)
    del starts
    buf = np.frombuffer(data + bytes(7), dtype=np.uint8)
    ops = buf[at] >> 2
    nbits = bits[ops]
    if not nbits.all():
        i = int(nbits.argmin())
        raise DecodeError(f"unknown opcode {ops[i]}", offset=8 * int(at[i]))
    pad = -nbits % 8
    rec = sliding_window_view(buf, 8)[at].view(">u8")[:, 0].astype(np.uint64)
    rec >>= 64 - (nbits + pad)  # keep the record's whole bytes
    padding = rec & ((np.uint64(1) << pad) - np.uint64(1))
    rec >>= pad
    two = ops == _CNOT
    rotation = (ops == _RY) | (ops == _RZ)
    pbits = np.where(rotation, np.uint8(p), np.uint8(0))
    grid = rec & ((np.uint64(1) << pbits) - np.uint64(1))
    rec >>= pbits
    cnots = np.flatnonzero(two)
    second_delta = rec[cnots] & np.uint64(2**tb - 1)
    rec[cnots] >>= np.uint64(tb)
    first_at = np.arange(count)  # index of each record's first target in deltas
    first_at[1:] += np.cumsum(two[:-1])
    deltas = np.empty(count + cnots.size, dtype=np.uint64)
    deltas[first_at] = rec & np.uint64(2**tb - 1)
    deltas[first_at[cnots] + 1] = second_delta
    targets = np.cumsum(deltas) % np.uint64(2**tb)
    first, second = targets[first_at], targets[first_at + two]
    for bad, what in (
        (padding != 0, "nonzero padding bits"),
        ((first >= q) | (second >= q), f"gate target out of range for q={q}"),
        (two & (first == second), "CNOT targets coincide"),
        (rotation & (basis_flag == 0), "rotation gate in the exact basis"),
    ):
        if bad.any():
            i = int(bad.argmax())
            raise DecodeError(what, offset=8 * int(at[i]))
    angles = np.zeros(count)
    angles[rotation] = grid[rotation].astype(np.float64) * 2 * math.pi / 2**p
    return ops, np.column_stack((first, second)), angles


def decode_circuit(e: CircuitEncoding | bytes) -> Circuit:
    """Inverse of encode_circuit. Every malformed payload raises DecodeError
    with a bit offset, and the Circuit is built only after the whole payload
    has passed the checks that Gate and Circuit make; its gates are made on
    first access."""
    data = e.payload if isinstance(e, CircuitEncoding) else bytes(e)
    if not data:
        raise DecodeError("payload truncated", offset=0)
    if data[0] != FORMAT_VERSION:
        raise DecodeError(f"unsupported format version {data[0]}", offset=0)
    if len(data) < _HEADER.size:
        raise DecodeError("payload truncated", offset=8 * len(data))
    _, q, basis_flag, p, count = _HEADER.unpack_from(data)
    if not 1 <= q <= ENCODING_CAP_QUBITS or basis_flag > 1:
        raise DecodeError("implausible header", offset=8)
    if not (1 <= p <= ANGLE_BITS_CAP if basis_flag else p == 0):
        raise DecodeError(f"angle precision p={p} disagrees with the basis flag", offset=32)
    if count > len(data) - _HEADER.size:  # every record takes at least one byte
        raise DecodeError("payload truncated", offset=8 * len(data))
    ops, targets, angles = _decode_table(data, q, p, basis_flag, count)
    return _trusted_circuit(q, ops, targets, angles, "quantized" if basis_flag else "exact", p)


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
    firsts = np.repeat(np.arange(0, 2 * n, 2), 2)  # H(2i), then CNOT(2i, 2i + 1)
    targets = np.column_stack((firsts, firsts + np.tile([0, 1], n)))
    ops = np.tile(np.array([_H, _CNOT], dtype=np.uint8), n)
    return _trusted_circuit(2 * n, ops, targets, np.zeros(2 * n), "exact", 0)


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
    return Observation1Report(pairs, _spearman(*np.array(pairs).T), corpus_size)


def _spearman(a: np.ndarray, b: np.ndarray) -> float:
    """Spearman's rho: the correlation of the two rank vectors, in which
    tied values share the mean of the ranks 1..len(a) they span."""
    def ranks(values):
        _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
        last = np.cumsum(counts)
        return (last - (counts - 1) / 2.0)[inverse]

    return float(np.corrcoef(ranks(a), ranks(b))[0, 1])
