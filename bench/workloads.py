"""The benchmark's three workloads, built from a seed.

A workload is a fixed list of jobs. Each job is one call into qkolab's
public API or one in-process ``qkolab.cli.main`` invocation; its check runs
afterwards, outside the timed region, against references computed here.
The same seed gives the same job list, and every round of a run repeats
that list, so per-round counts are exact.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks
from qkolab import circuits, cli, codes, complexity, fingerprint, states
from qkolab.bits import BitString

WORKLOADS = ("equality-mc", "description-length", "simulate-verify")

EPS_SIM = 2.0**-8  # classical-sim quantization for equality jobs
EPS_CBE = 2.0**-16  # amplitude-list precision for cbe_upper (the CLI default)
QUANTUM_K = 3
EXACT_GATES = ("H", "X", "Z", "S", "T", "CNOT")


@dataclass
class Job:
    name: str
    run: Callable[[], object]  # the timed call into qkolab
    check: Callable[[object], list[str]]  # problems; empty when correct
    work: Callable[[object], float] = lambda out: 0.0  # units for work_per_s
    out_path: str | None = None  # CLI output file, if any


@dataclass
class Workload:
    name: str
    jobs: list[Job]
    warmup: Job
    work_unit: str  # what work_per_s counts on this workload


def build(name: str, seed: int, out_dir: str, tiny: bool = False) -> Workload:
    """Job list for workload ``name``; ``tiny`` shrinks sizes for tests."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    os.makedirs(out_dir, exist_ok=True)
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    builder = {
        "equality-mc": _equality_mc,
        "description-length": _description_length,
        "simulate-verify": _simulate_verify,
    }[name]
    return builder(rng, out_dir, tiny)


# -- shared helpers --------------------------------------------------------------
def _cli_job(name: str, argv: list[str], out_dir: str, check_doc, work=None) -> Job:
    """A qkolab CLI run writing its report to a file; the check parses it
    and also requires identical bytes from every round."""
    path = os.path.join(out_dir, f"{name}.json")
    argv = argv + ["--out", path]
    first_text: list[str] = []

    def run():
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
            rc = cli.main(argv)
        return rc, err.getvalue()

    def check(out):
        rc, err = out
        if rc != 0:
            return [f"exit code {rc}: {err.strip()[:200]}"]
        try:
            with open(path) as fh:
                text = fh.read()
            doc = json.loads(text)
        except (OSError, ValueError) as e:
            return [f"unreadable report: {e}"]
        if not first_text:
            first_text.append(text)
        problems = [] if text == first_text[0] else ["report differs from the first round's"]
        return problems + check_doc(doc)

    return Job(name, run, check, work or (lambda out: 0.0), path)


def _random_bits(rng, n: int) -> BitString:
    while True:
        bits = rng.integers(0, 2, n, dtype=np.uint8)
        if bits.any():
            return BitString(bits)


def _once(compute: Callable[[], object]) -> Callable[[], object]:
    """Lazily computed reference, kept for later rounds."""
    cache: list = []

    def get():
        if not cache:
            cache.append(compute())
        return cache[0]

    return get


# -- equality-mc -------------------------------------------------------------------
def _equality_check(n: int, protocol: str, inputs: str, trials: int):
    m = 2**n
    def check(doc) -> list[str]:
        problems = []
        decided, restarts = doc["decided"], doc["restarts"]
        fe = doc["per_direction_errors"]["false_equal"]
        fne = doc["per_direction_errors"]["false_not_equal"]
        if decided + restarts != trials:
            problems.append(f"decided {decided} + restarts {restarts} != trials {trials}")
        if fne != 0:
            problems.append(f"{fne} NotEqual decisions on equal inputs")
        if inputs == "random-equal" and fe != 0:
            problems.append("false_equal counted on equal inputs")
        if decided and not checks.close(doc["error_rate"], (fe + fne) / decided):
            problems.append("error_rate does not match the error counts")
        bits, qubits = {
            "quantum": (0, 2 * QUANTUM_K * (n + 1)),
            "classical": (2 * (n + 1), 0),
            "classical-multi": (2 * min(m, math.ceil(math.sqrt(m * math.log(4.0)))) * (n + 1), 0),
            "classical-sim": (2 * (2 ** (n + 2) * math.ceil(math.log2(1 / EPS_SIM)) + 64), 0),
        }[protocol]
        if not (checks.close(doc["mean_bits"], bits) and checks.close(doc["mean_qubits"], qubits)):
            problems.append(f"mean bits/qubits {doc['mean_bits']}/{doc['mean_qubits']} != {bits}/{qubits}")
        if protocol in ("quantum", "classical-sim") and restarts:
            problems.append(f"{protocol} restarted")
        if protocol == "classical":
            problems += checks.binomial_problems("decided", decided, trials, 1 / m)
        if inputs == "random-unequal":
            if protocol == "quantum":
                problems += checks.binomial_problems("quantum error", fe, decided, 0.625**QUANTUM_K)
            elif protocol == "classical":
                problems += checks.binomial_problems("classical error", fe, decided, 0.5)
            elif protocol == "classical-multi":
                problems += checks.binomial_problems("multi error", fe, decided, 0.5, sides="upper")
            elif fe:
                problems.append(f"classical-sim made {fe} errors on a Hadamard code")
        return problems
    return check


def _equality_mc(rng, out_dir: str, tiny: bool) -> Workload:
    # trials per job: each job takes a few tens of milliseconds at the seed
    # commit, so a run holds hundreds of jobs across all sixteen configs
    trials = {
        ("quantum", 4): 200, ("quantum", 8): 200,
        ("classical", 4): 120, ("classical", 8): 120,
        ("classical-multi", 4): 36, ("classical-multi", 8): 12,
        ("classical-sim", 4): 100, ("classical-sim", 8): 60,
    }
    jobs = []
    for n in (4, 8):
        for protocol in ("quantum", "classical", "classical-multi", "classical-sim"):
            for inputs in ("random-unequal", "random-equal"):
                t = 4 if tiny else trials[protocol, n]
                jobs.append(_equality_job(f"{protocol}-n{n}-{inputs}", protocol, n, inputs, t,
                                          int(rng.integers(2**31)), out_dir))
    warmup = _equality_job("warmup", "quantum", 4, "random-unequal", 20, int(rng.integers(2**31)), out_dir)
    return Workload("equality-mc", jobs, warmup, "Monte Carlo trials")


def _equality_job(name, protocol, n, inputs, trials, job_seed, out_dir) -> Job:
    argv = ["equality", "--protocol", protocol, "--code", "hadamard", "--n", str(n),
            "--trials", str(trials), "--seed", str(job_seed), "--inputs", inputs]
    if protocol == "quantum":
        argv += ["--k", str(QUANTUM_K)]
    if protocol == "classical-sim":
        argv += ["--eps-a", repr(EPS_SIM), "--mode", "threshold"]
    return _cli_job(name, argv, out_dir, _equality_check(n, protocol, inputs, trials),
                    work=lambda out: trials)


# -- description-length ---------------------------------------------------------------
def _circuit_job(name: str, make: Callable, state=None, amps=None, expect_gates=None) -> Job:
    """Build a circuit, encode it, decode it back, bound it with knet_upper
    and (for fingerprints) the state with cbe_upper."""
    def run():
        c = make()
        enc = complexity.encode_circuit(c)
        dec = complexity.decode_circuit(enc)
        knet = complexity.knet_upper(c)
        cbe = complexity.cbe_upper(state, EPS_CBE) if state is not None else None
        return c, enc, dec, knet, cbe

    cbe_ref = _once(lambda: checks.kcl_bits(checks.quantized_payload(amps, EPS_CBE)))

    def check(out):
        c, enc, dec, knet, cbe = out
        problems = checks.circuit_problems(c, dec, enc.payload, enc.payload_bits)
        if expect_gates is not None and [(g.name, tuple(g.targets)) for g in c.gates] != expect_gates:
            problems.append("circuit differs from the Bell-pair ladder")
        if knet.compressed_length_bits != checks.kcl_bits(enc.payload):
            problems.append("knet_upper differs from the DEFLATE recompute")
        if knet.raw_length_bits != 8 * len(enc.payload):
            problems.append("knet_upper raw length differs from the payload")
        if state is not None and cbe.compressed_length_bits != cbe_ref():
            problems.append("cbe_upper differs from the fixed-point recompute")
        return problems

    return Job(name, run, check, work=lambda out: len(out[0].gates))


def _bell_ladder(n: int) -> list:
    return [g for i in range(n) for g in (("H", (2 * i,)), ("CNOT", (2 * i, 2 * i + 1)))]


def _report_check(circuit_ref: Callable, amps=None):
    cbe_ref = _once(lambda: checks.kcl_bits(checks.quantized_payload(amps, EPS_CBE)))

    def check(doc) -> list[str]:
        problems = []
        if doc["knet_upper_bits"] != circuit_ref():
            problems.append("knet_upper_bits differs from the recompute")
        if amps is not None and doc["cbe_upper_bits"] != cbe_ref():
            problems.append("cbe_upper_bits differs from the recompute")
        return problems
    return check


def _observation1_check(size: int):
    def check(rep) -> list[str]:
        # Spearman >= 0.9 is not gated: some corpus seeds fall just below.
        problems = []
        if rep.corpus_size != size or len(rep.pairs) != size:
            problems.append("corpus size differs from the request")
        if any(b < checks.HEADER_BITS or (b - checks.HEADER_BITS) % 8 for pair in rep.pairs for b in pair):
            problems.append("a compressed length is not 16 bits plus whole bytes")
        if not -1.0 <= rep.spearman <= 1.0:
            problems.append(f"spearman {rep.spearman} outside [-1, 1]")
        return problems
    return check


def _description_length(rng, out_dir: str, tiny: bool) -> Workload:
    jobs = []
    hx_sizes = (2, 3) if tiny else (3, 3, 4, 4, 5)
    for i, n in enumerate(hx_sizes):
        code = codes.hadamard_code(n)
        x = _random_bits(rng, n)
        amps = checks.fingerprint_amplitudes(checks.codeword(code.generator, x.bits()))
        jobs.append(_circuit_job(
            f"hx-n{n}-{i}", lambda code=code, x=x: fingerprint.build_hx_circuit(code, x),
            states.StateVector(n + 1, amps), amps,
        ))
    for nb in (10, 30) if tiny else (100, 300, 1000, 3000, 10000):
        jobs.append(_circuit_job(
            f"bell-{nb}", lambda nb=nb: complexity.bell_pair_circuit(nb), expect_gates=_bell_ladder(nb)
        ))
    for n in (2, 3) if tiny else (3, 4):
        code = codes.hadamard_code(n)
        x = _random_bits(rng, n)
        amps = checks.fingerprint_amplitudes(checks.codeword(code.generator, x.bits()))
        ref = _once(lambda code=code, x=x: checks.kcl_bits(
            complexity.encode_circuit(fingerprint.build_hx_circuit(code, x)).payload))
        jobs.append(_cli_job(
            f"report-fingerprint-n{n}",
            ["complexity", "report", "--target", "fingerprint", "--n", str(n), "--x", x.to_text()],
            out_dir, _report_check(ref, amps),
        ))
    nb = 20 if tiny else 500
    ref = _once(lambda: checks.kcl_bits(complexity.encode_circuit(complexity.bell_pair_circuit(nb)).payload))
    jobs.append(_cli_job(f"report-bell-{nb}", ["complexity", "report", "--target", "bell", "--n", str(nb)],
                         out_dir, _report_check(ref)))
    obs_code = codes.hadamard_code(4 if tiny else 10)
    size = 50 if tiny else 200
    obs_seed = int(rng.integers(2**31))
    jobs.append(Job("observation1", lambda: complexity.observation1_experiment(obs_code, size, obs_seed),
                    _observation1_check(size)))
    warmup = _circuit_job("warmup", lambda: complexity.bell_pair_circuit(100), expect_gates=_bell_ladder(100))
    return Workload("description-length", jobs, warmup, "gates built, encoded and decoded")


# -- simulate-verify -----------------------------------------------------------------
def _random_state(rng, q: int) -> np.ndarray:
    v = rng.standard_normal(2**q) + 1j * rng.standard_normal(2**q)
    return v / np.linalg.norm(v)


def _random_circuit(rng, q: int, count: int) -> list:
    gates = []
    for _ in range(count):
        name = EXACT_GATES[int(rng.integers(len(EXACT_GATES)))]
        if name == "CNOT":
            a, b = rng.choice(q, 2, replace=False)
            gates.append((name, (int(a), int(b))))
        else:
            gates.append((name, (int(rng.integers(q)),)))
    return gates


def _apply_job(name: str, circuit, s0, reference: Callable, fidelity_only: bool = False) -> Job:
    def check(out):
        ref = reference()
        if fidelity_only:  # equal up to a global phase
            f = abs(np.vdot(ref, out.amplitudes)) ** 2
            return [] if f >= 1 - 1e-9 else [f"fidelity {f} with the reference state"]
        err = float(np.abs(out.amplitudes - ref).max())
        return [] if err <= 1e-9 else [f"amplitudes differ from the reference by {err:.3g}"]

    units = len(circuit.gates) * 2**circuit.q
    return Job(name, lambda: circuits.apply_circuit(circuit, s0), check, work=lambda out: units)


def _random_apply_job(rng, q: int, count: int, name: str) -> Job:
    spec = _random_circuit(rng, q, count)
    circuit = circuits.Circuit(q, tuple(circuits.Gate(n, t) for n, t in spec))
    amps = _random_state(rng, q)
    return _apply_job(name, circuit, states.StateVector(q, amps),
                      _once(lambda: checks.reference_apply(q, spec, amps)))


def _hadamard_verify_check(n: int):
    def check(doc) -> list[str]:
        if (doc["n"], doc["m"], doc["delta_verified"]) != (n, 2**n, 0.5):
            return [f"hadamard-{n} reported n={doc['n']} m={doc['m']} delta={doc['delta_verified']}"]
        return []
    return check


def _concat_check(n: int, c: int):
    def check(code) -> list[str]:
        if (code.n, code.m) != (n, c * n):
            return [f"concatenated code is {code.n}x{code.m}"]
        want = checks.min_distance_delta(code.generator)
        if not checks.close(code.delta_verified, want):
            return [f"delta_verified {code.delta_verified} != enumerated {want}"]
        return []
    return check


def _extract_job(name, code, x: BitString, noise_rng=None) -> Job:
    amps = checks.fingerprint_amplitudes(checks.codeword(code.generator, x.bits()))
    status = "exact"
    if noise_rng is not None:
        amps = amps + 1e-3 * _random_state(noise_rng, int(math.log2(len(amps))))
        amps /= np.linalg.norm(amps)
        status = "corrected"
    state = states.StateVector(int(math.log2(len(amps))), amps)

    def check(res):
        if res.status != status or res.message != x:
            return [f"extraction gave {res.status} {res.message!r}, expected {status} {x!r}"]
        return []

    return Job(name, lambda: fingerprint.extract_codeword(state, code), check)


def _swap_job(rng, q: int) -> Job:
    a, b = _random_state(rng, q), _random_state(rng, q)
    sa, sb = states.StateVector(q, a), states.StateVector(q, b)
    p0 = (1 + abs(np.vdot(a, b)) ** 2) / 2

    def check(out):
        return [] if abs(out[0] - p0) <= 1e-10 and abs(sum(out) - 1) <= 1e-12 else [f"P(0) {out[0]} != {p0}"]

    return Job(f"swap-test-q{q}", lambda: states.swap_test_circuit(sa, sb), check)


def _mixed_job(n: int) -> Job:
    r = states.DensityMatrix.maximally_mixed(n)
    bell = complexity.bell_pair_circuit(n)
    product = circuits.Circuit(2 * n, (circuits.Gate("X", (0,)),))
    keep = tuple(range(0, 2 * n, 2))
    bell_bits = _once(lambda: checks.kcl_bits(complexity.encode_circuit(bell).payload))

    def check(res):
        good, bad = res.candidates
        problems = []
        if not (good.admitted and good.uhlmann_fidelity_sq >= 1 - 1e-9):
            problems.append("the Bell-pair purification was not admitted")
        # the product candidate leaves a pure reduced state: F^2 = 2^-n
        if bad.admitted or abs(bad.uhlmann_fidelity_sq - 2.0**-n) > 1e-9:
            problems.append(f"product candidate F^2 {bad.uhlmann_fidelity_sq} != {2.0**-n}")
        if res.bits != bell_bits():
            problems.append("bits differ from the Bell-pair knet recompute")
        return problems

    return Job(f"mixed-complexity-n{n}",
               lambda: complexity.mixed_complexity_upper(r, [bell, product], 1e-6, keep=keep), check)


def _demon_check(n: int, m: int):
    def check(doc) -> list[str]:
        prod, ent = doc["product"], doc["entangled"]
        problems = []
        if (prod["I_fin"], prod["delta_total_bits"]) != (n * (m + 1), n * m):
            problems.append("product ledger differs from n(m+1) record bits")
        i_fin = ent["I_fin"]
        if i_fin < checks.HEADER_BITS or (i_fin - checks.HEADER_BITS) % 8:
            problems.append(f"entangled record {i_fin} is not 16 bits plus whole bytes")
        if not checks.close(ent["delta_total_bits"], i_fin - n):
            problems.append("entangled balance differs from I_fin - S_in")
        for led in (prod, ent):
            work = led["delta_total_bits"] * led["kB"] * led["T"] * math.log(2)
            if not checks.close(led["work_joules"], work, abs_=0.0):  # joules are ~1e-20
                problems.append("work_joules differs from delta * kB * T * ln 2")
        if doc["entangled_exceeds_product"] != (ent["delta_total_bits"] > prod["delta_total_bits"]):
            problems.append("entangled_exceeds_product contradicts the ledgers")
        return problems
    return check


def _simulate_verify(rng, out_dir: str, tiny: bool) -> Workload:
    jobs = []
    for n in (2, 3) if tiny else (4, 5):  # fingerprint circuits on q = n + 1
        code = codes.hadamard_code(n)
        x = _random_bits(rng, n)
        circuit = fingerprint.build_hx_circuit(code, x)
        word = checks.codeword(code.generator, x.bits())
        jobs.append(_apply_job(f"apply-fingerprint-q{n + 1}", circuit,
                               states.StateVector.computational(n + 1, 0),
                               lambda word=word: checks.fingerprint_amplitudes(word), fidelity_only=True))
    # gate counts keep each random circuit near 0.02-0.3 s at the seed commit
    sizes = ((4, 20), (6, 20)) if tiny else ((8, 300), (10, 200), (12, 100), (14, 40), (16, 20), (18, 10))
    for q, count in sizes:
        jobs.append(_random_apply_job(rng, q, count, f"apply-random-q{q}"))
    for n in (4, 5) if tiny else (10, 11, 12, 13):
        argv = ["codes", "verify", "--code", "hadamard", "--n", str(n)]
        if 2**n > 4096:  # beyond the exhaustive cap of the seed commit
            argv += ["--mode", "sampled", "--samples", "2000"]
        jobs.append(_cli_job(f"verify-hadamard-n{n}", argv, out_dir, _hadamard_verify_check(n)))
    for n in (4, 6) if tiny else (6, 8, 10):
        jobs.append(Job(f"concatenated-n{n}", lambda n=n: codes.concatenated_code(n, 4), _concat_check(n, 4)))
    n_cv = 5 if tiny else 10
    concat_ref = _once(lambda: checks.min_distance_delta(codes.concatenated_code(n_cv, 4).generator))
    jobs.append(_cli_job(
        f"verify-concatenated-n{n_cv}", ["codes", "verify", "--code", "concatenated", "--n", str(n_cv), "--c", "4"],
        out_dir, lambda doc: [] if checks.close(doc["delta_verified"], concat_ref()) else ["delta differs"],
    ))
    n_ex = 3 if tiny else 8
    for code in (codes.hadamard_code(n_ex), codes.concatenated_code(n_ex, 4)):
        x = _random_bits(rng, n_ex)
        jobs.append(_extract_job(f"extract-{code.name}", code, x))
        jobs.append(_extract_job(f"extract-{code.name}-noisy", code, x, rng))
    for q in (2, 3) if tiny else (4, 6, 8):
        jobs.append(_swap_job(rng, q))
    for n in (2, 3) if tiny else (3, 4, 5):
        jobs.append(_mixed_job(n))
    for n in (2, 3) if tiny else (4, 6, 8):
        m = 8
        jobs.append(_cli_job(
            f"demon-multi-n{n}",
            ["demon", "multi", "--n", str(n), "--m", str(m), "--eps", repr(2.0**-10),
             "--mode", "simulated", "--seed", str(int(rng.integers(2**31)))],
            out_dir, _demon_check(n, m),
        ))
    warmup = _random_apply_job(rng, 6, 50, "warmup")
    return Workload("simulate-verify", jobs, warmup, "amplitude updates (sum of 2^q over gates)")
