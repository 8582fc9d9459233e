"""Linear error-correcting codes over GF(2) with verified distance.

A code is an n x m generator matrix; codeword positions are indexed 0..m-1.
``delta_verified`` is the agreement bound: distinct codewords agree in at
most delta*m positions, i.e. the minimum distance is at least (1-delta)*m.
Verification is exact for every code with n <= 20: one Walsh-Hadamard
transform weighs all 2^n - 1 nonzero codewords.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bits import BitString
from .errors import InputError, check_count

VERIFY_N_CAP = 20  # max n for distance verification: a 2^n int64 histogram, 8 MiB at the cap
M_CAP = 2**16  # max code length, the m of hadamard_code(16)


@dataclass(frozen=True)
class LinearCode:
    name: str
    n: int
    m: int
    generator: np.ndarray = field(repr=False)  # n x m uint8, read-only
    delta_verified: float | None
    verification_mode: str  # "exhaustive" | "unverified"

    def __post_init__(self):
        if not (self.m >= self.n >= 1):
            raise InputError(f"need m >= n >= 1, got n={self.n}, m={self.m}")
        gen = np.ascontiguousarray(self.generator, dtype=np.uint8)
        if gen.shape != (self.n, self.m):
            raise InputError(f"generator must be {self.n}x{self.m}")
        gen.setflags(write=False)
        object.__setattr__(self, "generator", gen)


def encode(code: LinearCode, x: BitString) -> BitString:
    """x * G over GF(2)."""
    if x.length != code.n:
        raise InputError(f"message length {x.length} != code.n {code.n}")
    word = (x.bits() @ code.generator) & 1  # 0/1 by construction, so packed directly
    return BitString._from_packed(np.packbits(word).tobytes(), code.m)


def encode_blocks(code: LinearCode, x: BitString) -> BitString:
    """Encode a message whose length is a multiple of n, block by block."""
    if x.length == 0 or x.length % code.n:
        raise InputError(f"length {x.length} is not a positive multiple of n={code.n}")
    blocks = x.bits().reshape(-1, code.n)
    words = np.zeros((len(blocks), code.m), dtype=np.uint8)
    for j, row in enumerate(code.generator):  # XOR row j into the blocks with bit j set
        words[blocks[:, j] == 1] ^= row
    return BitString._from_packed(np.packbits(words).tobytes(), words.size)


def _bit_columns(values: np.ndarray, n: int) -> np.ndarray:
    """n x len(values) matrix whose column j holds values[j] in n bits, MSB first."""
    return ((values[None, :] >> np.arange(n - 1, -1, -1)[:, None]) & 1).astype(np.uint8)


def verify_distance(code: LinearCode) -> tuple[float, str]:
    """Exact agreement bound delta = 1 - (min distance)/m.

    For a linear code the minimum pairwise distance equals the minimum
    nonzero codeword weight. The codeword of message x has weight
    (m - W[x])/2, where W is the Walsh-Hadamard transform of the histogram
    of generator columns read as n-bit integers (MacWilliams & Sloane, The
    Theory of Error-Correcting Codes, ch. 1), so one O(n 2^n) transform
    weighs every nonzero message and the mode is always "exhaustive".
    """
    n, m = code.n, code.m
    check_count("n", n, VERIFY_N_CAP)
    columns = (1 << np.arange(n - 1, -1, -1)) @ code.generator
    w = np.bincount(columns, minlength=2**n)
    h = 1
    while h < w.size:
        pairs = w.reshape(-1, 2, h)  # a view: the butterflies update w in place
        low = pairs[:, 0].copy()
        pairs[:, 0] += pairs[:, 1]
        pairs[:, 1] = low - pairs[:, 1]
        h *= 2
    return 1.0 - int((m - w[1:]).min() // 2) / m, "exhaustive"


def _verified(name: str, n: int, m: int, gen: np.ndarray) -> LinearCode:
    delta, mode = verify_distance(LinearCode(name, n, m, gen, None, "unverified"))
    return LinearCode(name, n, m, gen, delta, mode)


def hadamard_code(n: int) -> LinearCode:
    """Code with m = 2^n positions z and bit values <x, z> mod 2.

    Positions run over all n-bit vectors in integer order; every nonzero
    codeword has weight 2^(n-1), so delta = 1/2 exactly.
    """
    check_count("n", n, 16)  # m = 2^n stays within M_CAP
    return _verified(f"hadamard-{n}", n, 2**n, _bit_columns(np.arange(2**n), n))


def simplex_code(n: int) -> LinearCode:
    """[2^n - 1, n] simplex code: columns are the nonzero n-bit vectors in
    integer order 1..2^n-1."""
    check_count("n", n, 16)
    return _verified(f"simplex-{n}", n, 2**n - 1, _bit_columns(np.arange(1, 2**n), n))


def _gf2_reduce(a: np.ndarray, ncols: int) -> list[int]:
    """Row-reduce the uint8 matrix ``a`` in place over GF(2) on its first
    ``ncols`` columns; row r of the result has its pivot in column
    pivot_cols[r], and the rows below len(pivot_cols) are zero there."""
    pivot_cols: list[int] = []
    for col in range(ncols):
        rank = len(pivot_cols)
        if rank == a.shape[0]:
            break
        below = np.flatnonzero(a[rank:, col])
        if not below.size:
            continue
        pivot = rank + int(below[0])
        a[[rank, pivot]] = a[[pivot, rank]]
        mask = a[:, col].copy()
        mask[rank] = 0
        a[mask == 1] ^= a[rank]
        pivot_cols.append(col)
    return pivot_cols


def concatenated_code(n: int, target_rate_c: int) -> LinearCode:
    """Deterministic rate-c code with m = c*n and measured distance.

    A full-rank seeded random generator stands in for an explicit
    concatenated construction; the distance is measured, never assumed.
    n = 1 degenerates to the repetition code (delta = 0).
    """
    if target_rate_c < 2:
        raise InputError(f"need target_rate_c >= 2, got {target_rate_c}")
    check_count("n", n, VERIFY_N_CAP)
    m = target_rate_c * n
    check_count("m", m, M_CAP)  # before the n x m generator is allocated
    if n == 1:
        return _verified(f"concat-1x{target_rate_c}", 1, m, np.ones((1, m), dtype=np.uint8))
    rng = np.random.default_rng(0x51ED_0000 + 65536 * n + target_rate_c)
    for _ in range(1000):
        gen = rng.integers(0, 2, (n, m), dtype=np.uint8)
        if len(_gf2_reduce(gen.copy(), m)) == n:
            return _verified(f"concat-{n}x{target_rate_c}", n, m, gen)
    raise InputError(f"could not build a full-rank generator for n={n}, c={target_rate_c}")


def decode_message(code: LinearCode, word: BitString) -> BitString | None:
    """Recover x with x*G = word, or None if word is not in the code.

    Membership testing only; this performs no error correction.
    """
    if word.length != code.m:
        raise InputError(f"word length {word.length} != code.m {code.m}")
    # Solve G^T x = w by elimination on the augmented (m x n+1) system.
    aug = np.concatenate([code.generator.T, word.bits().reshape(-1, 1)], axis=1)
    pivot_cols = _gf2_reduce(aug, code.n)
    if aug[len(pivot_cols):, code.n].any():
        return None  # inconsistent: not a codeword
    x = np.zeros(code.n, dtype=np.uint8)
    x[pivot_cols] = aug[: len(pivot_cols), code.n]
    return BitString(x)
