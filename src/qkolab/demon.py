"""Measurement demon on maximally mixed photons with total-entropy
bookkeeping: statistical entropy plus the algorithmic information of the
demon's records, and the Landauer work value of the ledger balance.

The measurement basis angle is encoded by the demon's random m-bit register
r as theta = k * pi / 2^m with k the integer value of r.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bits import BitString
from .compressor import METHOD_ID
from .complexity import cbe_upper
from .errors import InputError, check_count
from .states import StateVector

KB_JOULE_PER_KELVIN = 1.380649e-23

DEMON_M_CAP = 64
FORMULA_N_CAP = 16
SIMULATED_N_CAP = 8


@dataclass(frozen=True)
class DemonRecord:
    r: BitString
    outcome_bit: int
    full_record: BitString  # outcome bit then r; the binary fraction 0.br

    def __post_init__(self):
        if len(self.full_record) != len(self.r) + 1:
            raise InputError("full record must be the outcome bit plus r")


@dataclass(frozen=True)
class EntropyLedger:
    S_in: float
    I_in: float
    S_fin: float
    I_fin: float
    kB: float
    T: float
    strategy: str = "single"
    surrogate_method: str | None = None

    def __post_init__(self):
        # kB * T can overflow where each is finite; NaN fails every comparison
        if not (self.kB > 0 and self.T > 0 and math.isfinite(self.work_joules)):
            raise InputError(f"kB={self.kB} and T={self.T} must be > 0 with finite work")

    @property
    def delta_total(self) -> float:
        return (self.S_fin + self.I_fin) - (self.S_in + self.I_in)

    @property
    def work_joules(self) -> float:
        return self.delta_total * self.kB * self.T * math.log(2.0)


def _check_seed(seed: int) -> None:
    if seed < 0:
        raise InputError(f"seed must be >= 0, got {seed}")


def angle_from_record(r: BitString) -> float:
    """theta_k = k * pi / 2^m, k read from r most significant bit first."""
    m = len(r)
    if m < 1:
        raise InputError("record is empty")
    return r.to_int() * math.pi / 2**m


def demon_step(
    m: int, seed: int, kB: float = KB_JOULE_PER_KELVIN, T: float = 300.0
) -> tuple[DemonRecord, StateVector, EntropyLedger]:
    """One randomize-then-measure cycle on a maximally mixed photon.

    The demon draws r, measures in the basis {Psi_theta, orthogonal}; both
    outcomes have probability 1/2 for rho = I/2. The photon's entropy (1 bit)
    is converted into an (m+1)-bit record, so the ledger balance is m bits
    and the associated work is m*kB*T*ln2.
    """
    check_count("m", m, DEMON_M_CAP)
    _check_seed(seed)
    rng = np.random.default_rng(seed)
    r = BitString.random(m, rng)
    theta = angle_from_record(r)
    outcome = int(rng.random() < 0.5)
    c, s = math.cos(theta), math.sin(theta)
    amps = np.array([c, s] if outcome == 0 else [-s, c], dtype=np.complex128)
    record = DemonRecord(r, outcome, BitString([outcome]) + r)
    ledger = EntropyLedger(
        S_in=1.0, I_in=0.0, S_fin=0.0, I_fin=float(m + 1), kB=kB, T=T
    )
    return record, StateVector(1, amps), ledger


@dataclass(frozen=True)
class MultiphotonComparison:
    product: EntropyLedger
    entangled: EntropyLedger
    entangled_exceeds_product: bool


def multiphoton_ledger(
    n: int,
    m: int,
    eps: float,
    mode: str = "formula",
    kB: float = KB_JOULE_PER_KELVIN,
    T: float = 300.0,
    seed: int = 0,
) -> MultiphotonComparison:
    """n-photon measurement strategies compared on the same ledger.

    Product strategy repeats the single-photon cycle, balance n*m. The
    entangled strategy projects onto a joint n-qubit state whose record is
    an amplitude list: formula mode books 2^n*log2(1/eps) bits of record,
    simulated mode books the compressed length of an actual amplitude-list
    description of a seeded random projection target.
    """
    check_count("m", m, DEMON_M_CAP)
    if not 0 < eps < 1:
        raise InputError("need 0 < eps < 1")
    _check_seed(seed)
    if mode == "formula":
        check_count("n", n, FORMULA_N_CAP)
        i_fin = 2**n * -math.log2(eps)  # finite for subnormal eps, unlike 1/eps
        method = None
    elif mode == "simulated":
        check_count("n", n, SIMULATED_N_CAP)
        target = StateVector.random(n, np.random.default_rng(seed))
        i_fin = float(cbe_upper(target, eps).compressed_length_bits)
        method = METHOD_ID
    else:
        raise InputError(f"unknown mode {mode!r}")
    product = EntropyLedger(
        S_in=float(n), I_in=0.0, S_fin=0.0, I_fin=float(n * (m + 1)),
        kB=kB, T=T, strategy="product",
    )
    entangled = EntropyLedger(
        S_in=float(n), I_in=0.0, S_fin=0.0, I_fin=i_fin,
        kB=kB, T=T, strategy="entangled", surrogate_method=method,
    )
    return MultiphotonComparison(
        product, entangled, entangled.delta_total > product.delta_total
    )

