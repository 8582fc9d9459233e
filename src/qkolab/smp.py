"""Equality protocols in the simultaneous-message model: the classical
randomized index protocols, the quantum fingerprint protocol with SWAP-test
amplification, and its classical simulation by quantized state descriptions.
Includes the Monte Carlo harness and closed-form communication accounting.
Register widths and description lengths are read from ``fingerprint``, and
the protocol, mode and input-policy tables here are what the CLI offers.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .bits import BitString
from .codes import LinearCode, encode
from .errors import InputError, check_count
from .fingerprint import _description_bits, _fingerprint_qubits, _precision_bits, build_fingerprint
from .fingerprint import decode_state, overlap, quantize_state
from .states import sample_swap_outcomes

WILSON_Z99 = 2.5758293035489004  # two-sided 99% normal quantile
# The report's bit counts grow as 2^n: at n = 1024 they have about 310 digits,
# far inside the 4300-digit limit on printing a Python int.
REPORT_N_CAP = 1024
# SWAP-test copies, k floats drawn per trial; at agreement bound 1/2 an unequal
# pair passes all k tests with probability (5/8)^k, below 1e-200 at the cap.
K_CAP = 1024

EQUAL = "Equal"
NOT_EQUAL = "NotEqual"
RESTART = "Restart"


@dataclass(frozen=True)
class Transcript:
    classical_bits: int
    qubits: int
    decision: str


@dataclass(frozen=True)
class ExperimentConfig:
    code: LinearCode
    protocol: str  # a key of PROTOCOLS
    trials: int
    master_seed: int
    k: int = 1
    s: int | None = None  # indices per party for the multi-index variant
    eps_a: float | None = None
    mode: str = "threshold"  # classical-sim referee, a key of SIM_MODES
    inputs: str = "random-unequal"  # a key of INPUT_POLICIES

    def __post_init__(self):
        check_count("trials", self.trials)
        check_count("k", self.k, K_CAP)
        if self.s is not None:
            check_count("s", self.s)
        if self.eps_a is not None:
            _precision_bits(self.eps_a)
        if self.protocol not in PROTOCOLS:
            raise InputError(f"unknown protocol {self.protocol!r}")
        if self.inputs not in INPUT_POLICIES:
            raise InputError(f"unknown input policy {self.inputs!r}")
        if self.mode not in SIM_MODES:
            raise InputError(f"unknown mode {self.mode!r}")
        if self.protocol == "classical-sim" and self.eps_a is None:
            raise InputError("classical-sim requires eps_a")


def _code_delta(code: LinearCode) -> float:
    if not isinstance(code.delta_verified, (int, float)):
        raise InputError("code has no verified agreement bound")
    return float(code.delta_verified)


def _swap_decision(o: float, k: int, seed: int) -> str:
    """The quantum referee: k SWAP tests on states of overlap o; Equal only
    when every ancilla reads 0 (one-sided)."""
    p1 = (1.0 - o * o) / 2.0
    outcomes = sample_swap_outcomes(p1, k, np.random.default_rng(seed))
    return NOT_EQUAL if outcomes.any() else EQUAL


def run_classical_equality(
    x: BitString,
    y: BitString,
    code: LinearCode,
    variant: str = "single_index",
    s: int | None = None,
    seed: int = 0,
) -> Transcript:
    """Each party sends random (position, codeword bit) pairs; the referee
    compares bits at colliding positions, restarting when none collide.

    single_index sends one pair per party; multi_index sends s pairs
    (default s = ceil(sqrt(m ln 4)), making the no-collision probability
    about 1/2 per round). Each pair is as wide as the fingerprint register.
    """
    ex, ey = encode(code, x).bits(), encode(code, y).bits()
    m = code.m
    width = _fingerprint_qubits(m)
    rng = np.random.default_rng(seed)
    if variant == "single_index":
        i, j = int(rng.integers(m)), int(rng.integers(m))
        if i != j:
            decision = RESTART
        else:
            decision = EQUAL if ex[i] == ey[j] else NOT_EQUAL
        return Transcript(2 * width, 0, decision)
    if variant != "multi_index":
        raise InputError(f"unknown variant {variant!r}")
    if s is None:
        s = math.ceil(math.sqrt(m * math.log(4.0)))
    s = min(s, m)
    ia = rng.choice(m, s, replace=False)
    ib = rng.choice(m, s, replace=False)
    common = np.intersect1d(ia, ib)
    if common.size == 0:
        decision = RESTART
    else:
        decision = EQUAL if bool((ex[common] == ey[common]).all()) else NOT_EQUAL
    return Transcript(2 * s * width, 0, decision)


def run_quantum_equality(
    x: BitString, y: BitString, code: LinearCode, k: int = 1, seed: int = 0
) -> Transcript:
    """k-copy fingerprint protocol: the referee SWAP-tests each copy pair and
    declares Equal only when every ancilla reads 0 (one-sided)."""
    check_count("k", k)
    decision = _swap_decision(overlap(code, x, y), k, seed)
    return Transcript(0, 2 * k * _fingerprint_qubits(code.m), decision)


def run_classical_simulation_of_quantum(
    x: BitString,
    y: BitString,
    code: LinearCode,
    eps_a: float,
    mode: str = "threshold",
    k: int = 1,
    seed: int = 0,
) -> Transcript:
    """Parties send fixed-point descriptions of their fingerprints; the
    referee decodes both and computes the overlap estimate.

    threshold mode declares Equal iff the estimate reaches (1+Delta)/2, the
    midpoint between the equal-case overlap 1 and the worst unequal case.
    sampled mode draws the same k SWAP outcomes the quantum referee would,
    from the decoded states' overlap.
    """
    if mode not in SIM_MODES:
        raise InputError(f"unknown mode {mode!r}")
    da = quantize_state(build_fingerprint(code, x), eps_a)
    db = quantize_state(build_fingerprint(code, y), eps_a)
    sa, sb = decode_state(da), decode_state(db)
    o_hat = abs(np.vdot(sa.amplitudes, sb.amplitudes))
    decision = SIM_MODES[mode](o_hat, code, k, seed)
    return Transcript(da.length_bits + db.length_bits, 0, decision)


# Referee decisions of the classical simulation, from the decoded overlap.
SIM_MODES = {
    "threshold": lambda o, code, k, seed: (
        EQUAL if o >= (1.0 + _code_delta(code)) / 2.0 else NOT_EQUAL
    ),
    "sampled": lambda o, code, k, seed: _swap_decision(o, k, seed),
}

# One protocol run from the inputs, the config and the run seed.
PROTOCOLS = {
    "classical": lambda x, y, c, seed: run_classical_equality(x, y, c.code, seed=seed),
    "classical-multi": lambda x, y, c, seed: run_classical_equality(
        x, y, c.code, "multi_index", c.s, seed),
    "quantum": lambda x, y, c, seed: run_quantum_equality(x, y, c.code, c.k, seed),
    "classical-sim": lambda x, y, c, seed: run_classical_simulation_of_quantum(
        x, y, c.code, c.eps_a, c.mode, c.k, seed),
}

# Input policy -> whether the two parties hold equal inputs.
INPUT_POLICIES = {"random-unequal": False, "random-equal": True}


def trial_seed(master_seed: int, index: int) -> int:
    """Stable per-trial seed; independent of execution order."""
    digest = hashlib.blake2b(
        f"{master_seed}:{index}".encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")


@dataclass(frozen=True)
class ErrorReport:
    config: ExperimentConfig
    decided: int
    restarts: int
    false_equal: int  # Equal declared on unequal inputs
    false_not_equal: int  # NotEqual declared on equal inputs
    error_rate: float  # errors / decided trials
    wilson_99: tuple[float, float]
    mean_classical_bits: float
    mean_qubits: float


def wilson_interval(successes: int, trials: int, z: float = WILSON_Z99) -> tuple[float, float]:
    if trials == 0:
        return (0.0, 1.0)
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(
        phat * (1 - phat) / trials + z * z / (4 * trials * trials)
    )
    return (max(0.0, center - half), min(1.0, center + half))


def _random_pair(
    n: int, rng: np.random.Generator, equal: bool
) -> tuple[BitString, BitString]:
    x = BitString.random(n, rng)
    if equal:
        return x, x
    while True:
        y = BitString.random(n, rng)
        if y != x:
            return x, y


def monte_carlo(config: ExperimentConfig) -> ErrorReport:
    """Runs config.trials independent protocol executions with per-trial
    seeds derived from the master seed; aggregation is order-independent."""
    run = PROTOCOLS[config.protocol]
    equal_inputs = INPUT_POLICIES[config.inputs]
    decided = restarts = false_eq = false_neq = 0
    bits_total = 0
    qubits_total = 0
    for t in range(config.trials):
        seed = trial_seed(config.master_seed, t)
        rng = np.random.default_rng(seed)
        x, y = _random_pair(config.code.n, rng, equal_inputs)
        tr = run(x, y, config, trial_seed(seed, 1))
        bits_total += tr.classical_bits
        qubits_total += tr.qubits
        if tr.decision == RESTART:
            restarts += 1
            continue
        decided += 1
        if tr.decision == EQUAL and not equal_inputs:
            false_eq += 1
        elif tr.decision == NOT_EQUAL and equal_inputs:
            false_neq += 1
    errors = false_eq + false_neq
    rate = errors / decided if decided else 0.0
    return ErrorReport(
        config,
        decided,
        restarts,
        false_eq,
        false_neq,
        rate,
        wilson_interval(errors, decided),
        bits_total / config.trials,
        qubits_total / config.trials,
    )


@dataclass(frozen=True)
class CommunicationRow:
    protocol: str
    n: int
    q: int  # fingerprint qubit count, n + 1
    classical_bits: int
    qubits: int
    ratio: float  # log2(classical_bits) / qubits


def communication_report(
    n_range: range | list[int], k: int = 1, p: int = 16
) -> list[CommunicationRow]:
    """Closed-form accounting for the Hadamard-code family (m = 2^n): the
    quantum protocol sends 2k copies of the q-qubit fingerprint, and the
    classical simulation sends two fixed-point descriptions of q qubits at p
    bits per real component. q and the description length come from
    ``fingerprint``, which also rejects a p outside the fixed-point layout's
    range; the ratio column compares the log of the bits with the qubits.
    Every n is checked against ``REPORT_N_CAP`` before any row is built."""
    check_count("k", k, K_CAP)
    for n in n_range:  # stops at the first bad n
        check_count("n", n, REPORT_N_CAP)
    rows = []
    for n in n_range:
        q = _fingerprint_qubits(2**n)
        qubits = 2 * k * q
        bits = 2 * _description_bits(q, p)
        rows.append(
            CommunicationRow("classical-sim vs quantum", n, q, bits, qubits,
                             math.log2(bits) / qubits)
        )
    return rows
