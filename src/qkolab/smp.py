"""Equality protocols in the simultaneous-message model: the classical
randomized index protocols, the quantum fingerprint protocol with SWAP-test
amplification, and its classical simulation by quantized state descriptions.
Includes the Monte Carlo harness and closed-form communication accounting.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .bits import BitString
from .codes import LinearCode, encode
from .errors import InputError
from .fingerprint import build_fingerprint, overlap, quantize_state, decode_state
from .states import sample_swap_outcomes

WILSON_Z99 = 2.5758293035489004  # two-sided 99% normal quantile

EQUAL = "Equal"
NOT_EQUAL = "NotEqual"
RESTART = "Restart"


@dataclass(frozen=True)
class Transcript:
    messages: tuple[tuple[str, BitString | str], ...]
    classical_bits: int
    qubits: int
    decision: str


@dataclass(frozen=True)
class ExperimentConfig:
    code: LinearCode
    protocol: str  # "classical" | "classical-multi" | "quantum" | "classical-sim"
    trials: int
    master_seed: int
    k: int = 1
    s: int | None = None  # indices per party for the multi-index variant
    eps_a: float | None = None
    mode: str = "threshold"  # classical-sim referee: "threshold" | "sampled"
    inputs: str = "random-unequal"  # "random-unequal" | "random-equal"

    def __post_init__(self):
        if self.trials < 1:
            raise InputError("trials must be >= 1")
        if self.k < 1:
            raise InputError("k must be >= 1")
        if self.s is not None and self.s < 1:
            raise InputError("s must be >= 1")
        if self.protocol not in (
            "classical",
            "classical-multi",
            "quantum",
            "classical-sim",
        ):
            raise InputError(f"unknown protocol {self.protocol!r}")
        if self.inputs not in ("random-unequal", "random-equal"):
            raise InputError(f"unknown input policy {self.inputs!r}")


def _code_delta(code: LinearCode) -> float:
    if not isinstance(code.delta_verified, (int, float)):
        raise InputError("code has no verified agreement bound")
    return float(code.delta_verified)


def _index_message(i: int, bit: int, index_bits: int) -> BitString:
    return BitString.from_int(2 * i + bit, index_bits + 1)


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
    about 1/2 per round).
    """
    ex, ey = encode(code, x).bits(), encode(code, y).bits()
    m = code.m
    index_bits = max(1, math.ceil(math.log2(m)))
    rng = np.random.default_rng(seed)
    if variant == "single_index":
        i, j = int(rng.integers(m)), int(rng.integers(m))
        msgs = (
            ("Alice", _index_message(i, int(ex[i]), index_bits)),
            ("Bob", _index_message(j, int(ey[j]), index_bits)),
        )
        if i != j:
            decision = RESTART
        else:
            decision = EQUAL if ex[i] == ey[j] else NOT_EQUAL
        return Transcript(msgs, 2 * (index_bits + 1), 0, decision)
    if variant != "multi_index":
        raise InputError(f"unknown variant {variant!r}")
    if s is None:
        s = math.ceil(math.sqrt(m * math.log(4.0)))
    s = min(s, m)
    ia = rng.choice(m, s, replace=False)
    ib = rng.choice(m, s, replace=False)
    msgs = tuple(("Alice", _index_message(int(i), int(ex[i]), index_bits)) for i in ia)
    msgs += tuple(("Bob", _index_message(int(j), int(ey[j]), index_bits)) for j in ib)
    common = np.intersect1d(ia, ib)
    if common.size == 0:
        decision = RESTART
    else:
        decision = EQUAL if bool((ex[common] == ey[common]).all()) else NOT_EQUAL
    return Transcript(msgs, 2 * s * (index_bits + 1), 0, decision)


def run_quantum_equality(
    x: BitString, y: BitString, code: LinearCode, k: int = 1, seed: int = 0
) -> Transcript:
    """k-copy fingerprint protocol: the referee SWAP-tests each copy pair and
    declares Equal only when every ancilla reads 0 (one-sided)."""
    if k < 1:
        raise InputError("k must be >= 1")
    per_state = max(1, math.ceil(math.log2(code.m))) + 1
    o = overlap(code, x, y)
    p1 = (1.0 - o * o) / 2.0
    rng = np.random.default_rng(seed)
    outcomes = sample_swap_outcomes(p1, k, rng)
    decision = NOT_EQUAL if outcomes.any() else EQUAL
    msgs = (
        ("Alice", f"|h_x> tensor {k}"),
        ("Bob", f"|h_y> tensor {k}"),
    )
    return Transcript(msgs, 0, 2 * k * per_state, decision)


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
    da = quantize_state(build_fingerprint(code, x).state, eps_a)
    db = quantize_state(build_fingerprint(code, y).state, eps_a)
    sa, sb = decode_state(da), decode_state(db)
    o_hat = abs(np.vdot(sa.amplitudes, sb.amplitudes))
    msgs = (
        ("Alice", BitString.from_packed(da.payload, da.length_bits)),
        ("Bob", BitString.from_packed(db.payload, db.length_bits)),
    )
    bits = da.length_bits + db.length_bits
    if mode == "threshold":
        delta = _code_delta(code)
        decision = EQUAL if o_hat >= (1.0 + delta) / 2.0 else NOT_EQUAL
    elif mode == "sampled":
        p1 = (1.0 - o_hat * o_hat) / 2.0
        rng = np.random.default_rng(seed)
        decision = NOT_EQUAL if sample_swap_outcomes(p1, k, rng).any() else EQUAL
    else:
        raise InputError(f"unknown mode {mode!r}")
    return Transcript(msgs, bits, 0, decision)


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
    code = config.code
    equal_inputs = config.inputs == "random-equal"
    decided = restarts = false_eq = false_neq = 0
    bits_total = 0
    qubits_total = 0
    for t in range(config.trials):
        seed = trial_seed(config.master_seed, t)
        rng = np.random.default_rng(seed)
        x, y = _random_pair(code.n, rng, equal_inputs)
        run_seed = trial_seed(seed, 1)
        if config.protocol == "classical":
            tr = run_classical_equality(x, y, code, "single_index", seed=run_seed)
        elif config.protocol == "classical-multi":
            tr = run_classical_equality(
                x, y, code, "multi_index", s=config.s, seed=run_seed
            )
        elif config.protocol == "quantum":
            tr = run_quantum_equality(x, y, code, config.k, seed=run_seed)
        else:
            if config.eps_a is None:
                raise InputError("classical-sim requires eps_a")
            tr = run_classical_simulation_of_quantum(
                x, y, code, config.eps_a, config.mode, config.k, seed=run_seed
            )
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
        wilson_interval(errors, decided) if decided else (0.0, 1.0),
        bits_total / config.trials,
        qubits_total / config.trials,
    )


@dataclass(frozen=True)
class CommunicationRow:
    protocol: str
    n: int
    q: int  # fingerprint qubit count, log2(m) + 1
    classical_bits: int
    qubits: int
    ratio: float  # log2(classical_bits) / qubits


def communication_report(
    n_range: range | list[int], k: int = 1, p: int = 16
) -> list[CommunicationRow]:
    """Closed-form accounting for the Hadamard-code family: the quantum
    protocol sends 2k(n+1) qubits while the classical simulation sends
    2(2^{q+1} p + 64) bits, q = n+1; the ratio column compares their logs."""
    if k < 1:
        raise InputError("k must be >= 1")
    if not 2 <= p <= 62:
        raise InputError(f"p={p} outside [2, 62], the fixed-point layout's range")
    rows = []
    for n in n_range:
        if n < 1:
            raise InputError("n must be >= 1")
        q = n + 1
        qubits = 2 * k * q
        bits = 2 * (2 ** (q + 1) * p + 64)
        rows.append(
            CommunicationRow("classical-sim vs quantum", n, q, bits, qubits,
                             math.log2(bits) / qubits)
        )
    return rows
