"""Fingerprint states over codewords: construction, overlap law, the
preparation circuit, codeword extraction, and fixed-point state descriptions.

A fingerprint for message x is the uniform superposition of |i>|E_i(x)>
over the m codeword positions, on ceil(log2 m) index qubits (at least one)
plus one value qubit (the least significant). The register width and the
fixed-point description length are defined here alone; ``smp`` reads them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bitio import BitReader, BitWriter
from .bits import BitString
from .circuits import (
    DEFAULT_ANGLE_BITS,
    OPCODES,
    Circuit,
    _gate_table,
    _mcx_gate_count,
    _trusted_circuit,
    multi_controlled_x,
)
from .codes import LinearCode, decode_message, encode
from .errors import CapError, DecodeError, InputError, check_count
from .states import STATE_QUBIT_CAP, NORM_TOL, StateVector, fidelity

HEADER_BITS = 64  # 16-bit q, 16-bit p, 32-bit reserved
HX_GATE_CAP = 2**22  # build_hx_circuit's gate count: admits n <= 8 (about 2.8M gates)


# The two layout facts and the precision rule. Each runs once per protocol
# trial, so they stay private: a traced run spans every public function call.
def _fingerprint_qubits(m: int) -> int:
    """Qubits of a fingerprint over m positions: ceil(log2 m) index qubits,
    at least one, plus the value qubit. It is also the width of one
    (position, codeword bit) message of the classical index protocols."""
    return max(1, (m - 1).bit_length()) + 1


def _description_bits(q: int, p: int) -> int:
    """Length of the fixed-point description of a q-qubit state at p bits per
    real component, header included and byte padding excluded."""
    if not 2 <= p <= 62:
        raise InputError(f"p={p} outside [2, 62], the fixed-point layout's range")
    return 2 ** (q + 1) * p + HEADER_BITS


def _precision_bits(eps_a: float) -> int:
    """p = max(2, ceil(log2(1/eps_a))) bits per real component; p is at most
    62, so an eps_a with log2(1/eps_a) > 62 is bad input, as is one outside (0, 1)."""
    if not 0 < eps_a < 1:
        raise InputError(f"need 0 < eps_a < 1, got {eps_a}")
    bits = math.log2(1.0 / eps_a)  # inf for a subnormal eps_a
    if not bits <= 62:
        raise InputError(f"eps_a={eps_a} needs more than 62 bits per real component")
    return max(2, math.ceil(bits))


def build_fingerprint(code: LinearCode, x: BitString) -> StateVector:
    """Exact statevector with amplitude 1/sqrt(m) on the m states |i>|E_i(x)>.

    For codes whose m is not a power of two the amplitudes above index m
    are zero; the overlap law is unchanged.
    """
    word = encode(code, x)
    q = _fingerprint_qubits(code.m)
    check_count("q", q, STATE_QUBIT_CAP)
    amps = np.zeros(2**q, dtype=np.complex128)
    amps[2 * np.arange(code.m) + word.bits()] = 1.0 / math.sqrt(code.m)
    return StateVector(q, amps)


def overlap(code: LinearCode, x: BitString, y: BitString) -> float:
    """Fraction of positions where E(x) and E(y) agree; equals <h_x|h_y>."""
    differ = (encode(code, x).to_int() ^ encode(code, y).to_int()).bit_count()
    return (code.m - differ) / code.m


def _hx_gate_count(k: int, ones: list[int]) -> int:
    """Gates of build_hx_circuit on k index qubits for the positions ``ones``:
    k Hadamards, then per position an X pair on each 0 bit and one MCX."""
    mcx = _mcx_gate_count(k)
    return k + sum(2 * (k - i.bit_count()) + mcx for i in ones)


def build_hx_circuit(
    code: LinearCode, x: BitString, p: int = DEFAULT_ANGLE_BITS
) -> Circuit:
    """Preparation circuit: Hadamards on the index qubits, then one
    multi-controlled X onto the value qubit per position carrying a 1.

    Requires m to fill the index register: a power of two, at least 2, since
    the register has at least one qubit. Controls matching a 0 bit of the
    position index are X-conjugated. The multi-controlled X uses the frozen
    ancilla-free decomposition (see circuits.MCX_DECOMPOSITION_ID), which
    needs the quantized-rotation basis for two or more controls. A gate
    count above HX_GATE_CAP is a CapError, raised before any gate is built.
    The one MCX gate list becomes table rows once; the circuit's table is
    those rows and the Hadamard and X rows, gathered in circuit order.
    """
    word = encode(code, x)
    q = _fingerprint_qubits(code.m)
    k = q - 1
    if 2**k != code.m:
        raise InputError(f"m={code.m} does not fill a {k}-qubit index register; "
                         "build the state directly")
    ones = np.flatnonzero(word.bits()).tolist()
    check_count("gates", _hx_gate_count(k, ones), HX_GATE_CAP)
    mcx_ops, mcx_targets, mcx_angles = _gate_table(multi_controlled_x(range(k), k, p))
    qubits = np.arange(k)
    # the rows to gather from: H on each index qubit, X on each, then the MCX block
    ops = np.concatenate((np.repeat(np.uint8([OPCODES["H"], OPCODES["X"]]), k), mcx_ops))
    singles = np.tile(qubits, 2)
    targets = np.concatenate((np.column_stack((singles, singles)), mcx_targets)).astype(np.uint16)
    angles = np.concatenate((np.zeros(2 * k), mcx_angles))
    block = np.arange(2 * k, len(ops))
    rows = [qubits]
    for i in ones:
        flips = k + np.flatnonzero(~(i >> (k - 1 - qubits)) & 1)  # X on each 0 bit of i
        rows += (flips, block, flips[::-1])
    rows = np.concatenate(rows)
    # every row has passed Circuit's checks: targets are below q, and mcx has checked p
    return _trusted_circuit(q, ops.take(rows), targets.take(rows, axis=0), angles.take(rows),
                            "quantized", p)


@dataclass(frozen=True)
class ExtractionResult:
    word: BitString
    status: str  # "exact" | "corrected" | "not_a_codeword"
    message: BitString | None = None


_TIE_REL_TOL = 1e-12


def extract_codeword(state: StateVector, code: LinearCode) -> ExtractionResult:
    """Read off the codeword bits from a (possibly perturbed) fingerprint.

    Position i's bit is 1 when more than half the squared amplitude mass at
    index i sits on value 1; an exact tie or zero mass is unrecoverable.
    The read word is then membership-tested against the code; it is never
    error-corrected toward a different codeword.
    """
    q = _fingerprint_qubits(code.m)
    if state.q != q:
        raise InputError(f"state has {state.q} qubits, fingerprints for this code need {q}")
    mass = (np.abs(state.amplitudes) ** 2).reshape(-1, 2)[: code.m]
    totals = mass.sum(axis=1)
    zeros = BitString.zeros(code.m)
    if (totals <= NORM_TOL).any():
        return ExtractionResult(zeros, "not_a_codeword")
    diff = mass[:, 1] - mass[:, 0]
    if (np.abs(diff) <= _TIE_REL_TOL * totals).any():
        return ExtractionResult(zeros, "not_a_codeword")
    word = BitString((diff > 0).astype(np.uint8))
    message = decode_message(code, word)
    if message is None:
        return ExtractionResult(word, "not_a_codeword")
    exact = fidelity(state, build_fingerprint(code, message)) >= 1.0 - 1e-10
    return ExtractionResult(word, "exact" if exact else "corrected", message)


@dataclass(frozen=True)
class QuantizedDescription:
    q: int
    p: int  # bits per real component
    payload: bytes = field(repr=False)
    length_bits: int  # _description_bits(q, p)


def quantize_state(s: StateVector, eps_a: float) -> QuantizedDescription:
    """Fixed-point description with p = _precision_bits(eps_a) bits per real.

    Layout (bit-exact, big-endian): 16-bit q, 16-bit p, 32-bit reserved,
    then the 2^q real parts followed by the 2^q imaginary parts in basis
    rank order, each a p-bit two's-complement integer at scale 2^(1-p),
    zero-padded to a byte boundary.
    """
    p = _precision_bits(eps_a)
    length = _description_bits(s.q, p)
    scale = 2.0 ** (p - 1)
    lo, hi = -(2 ** (p - 1)), 2 ** (p - 1) - 1
    reals = np.concatenate([s.amplitudes.real, s.amplitudes.imag])
    ints = np.clip(np.round(reals * scale), lo, hi).astype(np.int64)
    unsigned = (ints & ((1 << p) - 1)).astype(np.uint64)
    header = BitWriter()
    header.write_uint(s.q, 16)
    header.write_uint(p, 16)
    header.write_uint(0, 32)
    body_bits = (
        (unsigned[:, None] >> np.arange(p - 1, -1, -1, dtype=np.uint64)) & 1
    ).astype(np.uint8)
    payload = header.to_bytes() + np.packbits(body_bits).tobytes()
    return QuantizedDescription(s.q, p, payload, length)


def decode_state(d: QuantizedDescription | bytes) -> StateVector:
    """Inverse of quantize_state followed by renormalization."""
    data = d.payload if isinstance(d, QuantizedDescription) else bytes(d)
    reader = BitReader(data)
    q = reader.read_uint(16)
    p = reader.read_uint(16)
    if reader.read_uint(32):
        raise DecodeError("reserved field is nonzero", offset=32)
    try:
        check_count("q", q, STATE_QUBIT_CAP)
        length = _description_bits(q, p)
    except (CapError, InputError):
        raise DecodeError(f"implausible header q={q}, p={p}", offset=0) from None
    dim = 2**q
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8))
    if bits.size < length:
        raise DecodeError("payload truncated", offset=bits.size)
    body = bits[HEADER_BITS:length].reshape(2 * dim, p)
    unsigned = body @ (1 << np.arange(p - 1, -1, -1))
    vals = np.where(unsigned >= 1 << (p - 1), unsigned - (1 << p), unsigned).astype(
        np.float64
    )
    vals *= 2.0 ** (1 - p)
    amps = vals[:dim] + 1j * vals[dim:]
    norm = np.linalg.norm(amps)
    if norm == 0:
        raise DecodeError("decoded amplitudes are all zero")
    return StateVector(q, amps / norm)
