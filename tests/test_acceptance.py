"""Acceptance suite: one test per criterion, each ending in a single
PASS/FAIL line. Statistical criteria use Wilson 99% or 3-sigma bands as
stated; exact criteria use the stated tolerances."""
import math
from contextlib import contextmanager

import numpy as np

from qkolab.bits import BitString
from qkolab.circuits import apply_circuit
from qkolab.cli import main
from qkolab.codes import encode, hadamard_code
from qkolab.complexity import (
    bell_pair_circuit,
    knet_upper,
    observation1_experiment,
)
from qkolab.demon import KB_JOULE_PER_KELVIN, demon_step, multiphoton_ledger
from qkolab.fingerprint import (
    HEADER_BITS,
    build_fingerprint,
    build_hx_circuit,
    decode_state,
    extract_codeword,
    overlap,
    quantize_state,
)
from qkolab.prefix import shannon_code
from qkolab.smp import (
    EQUAL,
    NOT_EQUAL,
    RESTART,
    ExperimentConfig,
    communication_report,
    monte_carlo,
    run_classical_equality,
)
from qkolab.states import (
    StateVector,
    fidelity,
    partial_trace,
    swap_test,
    swap_test_circuit,
    uhlmann_fidelity,
)


@contextmanager
def criterion(num: int, text: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:02d} FAIL: {text}")
        raise
    print(f"ACCEPTANCE {num:02d} PASS: {text}")


def _messages(n):
    return [BitString.from_int(v, n) for v in range(2**n)]


def _perturbed(state: StateVector, fid: float, rng) -> StateVector:
    noise = rng.standard_normal(len(state.amplitudes)) + 1j * rng.standard_normal(
        len(state.amplitudes)
    )
    noise -= np.vdot(state.amplitudes, noise) * state.amplitudes
    noise /= np.linalg.norm(noise)
    return StateVector(
        state.q, math.sqrt(fid) * state.amplitudes + math.sqrt(1 - fid) * noise
    )


def test_criterion_01_swap_test_law():
    with criterion(1, "SWAP-test outcome law, closed form and literal circuit"):
        rng = np.random.default_rng(1)
        for i in range(1000):
            q = 1 + i % 3
            a, b = StateVector.random(q, rng), StateVector.random(q, rng)
            p0, p1 = swap_test(a, b)
            target = (1.0 + abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2) / 2.0
            assert abs(p0 - target) <= 1e-12
            assert abs(p0 + p1 - 1.0) <= 1e-12
            if i < 150:  # literal (2q+1)-qubit circuit on a subsample
                lit0, lit1 = swap_test_circuit(a, b)
                assert abs(lit0 - p0) <= 1e-10
                assert abs(lit1 - p1) <= 1e-10


def test_criterion_02_overlap_bound_exhaustive():
    with criterion(2, "fingerprint overlap exactly 1/2 and <= delta, all pairs n <= 5"):
        for n in (2, 3, 4, 5):
            code = hadamard_code(n)
            msgs = _messages(n)
            for i, x in enumerate(msgs):
                for y in msgs[i + 1 :]:
                    o = overlap(code, x, y)
                    assert o == 0.5
                    assert o <= code.delta_verified


def test_criterion_03_quantum_error_rate():
    with criterion(3, "quantum protocol error within Wilson 99% of ((1+delta^2)/2)^k"):
        code = hadamard_code(4)
        for k, target in ((1, 0.625), (3, 0.625**3)):
            rep = monte_carlo(ExperimentConfig(code, "quantum", 100000, 20 + k, k=k))
            lo, hi = rep.wilson_99
            assert lo <= target <= hi
            assert rep.false_not_equal == 0  # one-sided


def test_criterion_04_classical_protocol():
    with criterion(4, "classical collision rate 1/m, conditional error 1/2, one-sided"):
        code = hadamard_code(4)
        x, y = BitString("1010"), BitString("0110")
        trials = 100000
        decided = errors = 0
        for seed in range(trials):
            tr = run_classical_equality(x, y, code, seed=seed)
            if tr.decision != RESTART:
                decided += 1
                errors += tr.decision == EQUAL
        p, m = decided / trials, code.m
        assert abs(p - 1 / m) <= 3 * math.sqrt((1 / m) * (1 - 1 / m) / trials)
        cond = errors / decided
        assert cond <= code.delta_verified + 3 * math.sqrt(0.25 / decided)
        assert abs(cond - 0.5) <= 3 * math.sqrt(0.25 / decided)
        for n in (2, 3, 4):  # equal inputs never misclassified, exhaustive
            c = hadamard_code(n)
            for xx in _messages(n):
                for seed in range(25):
                    for variant in ("single_index", "multi_index"):
                        assert (
                            run_classical_equality(xx, xx, c, variant, seed=seed).decision
                            != NOT_EQUAL
                        )


def test_criterion_05_preparation_circuit_forward():
    with criterion(5, "preparation circuit reproduces the fingerprint, all x, n <= 4"):
        for n in (1, 2, 3, 4):
            code = hadamard_code(n)
            for x in _messages(n):
                circuit = build_hx_circuit(code, x)
                out = apply_circuit(circuit, StateVector.computational(circuit.q, 0))
                assert fidelity(out, build_fingerprint(code, x)) >= 1 - 1e-10


def test_criterion_06_extraction_and_exclusion():
    with criterion(6, "no wrong-codeword extraction under the exclusion margin"):
        code = hadamard_code(5)
        delta = code.delta_verified
        eps = 1 - delta**2 - 0.05
        rng = np.random.default_rng(6)
        msgs = _messages(5)
        wrong = 0
        for t in range(10000):
            x = msgs[int(rng.integers(32))]
            word = encode(code, x)
            fid = 1 - eps * rng.random()  # fidelity >= 1 - eps
            state = _perturbed(build_fingerprint(code, x), fid, rng)
            res = extract_codeword(state, code)
            if res.status != "not_a_codeword" and res.word != word:
                wrong += 1
        assert wrong == 0
        for n in (2, 3, 4, 5):  # exact states decode perfectly
            c = hadamard_code(n)
            for x in _messages(n):
                res = extract_codeword(build_fingerprint(c, x), c)
                assert res.status == "exact" and res.message == x


def test_criterion_07_quantization_bound():
    with criterion(7, "roundtrip fidelity deficit <= 2^(q-1) eps^2, zero violations"):
        eps = 1.99 * 2.0**-13  # non-dyadic: rounding stays below eps
        p = math.ceil(math.log2(1 / eps))
        for q in (4, 6, 8, 10):
            rng = np.random.default_rng(700 + q)
            bound = 2.0 ** (q - 1) * eps**2
            for _ in range(10000):
                s = StateVector.random(q, rng)
                d = quantize_state(s, eps)
                assert d.length_bits == 2 ** (q + 1) * p + HEADER_BITS
                assert 1.0 - fidelity(s, decode_state(d)) <= bound


def test_criterion_08_description_length_gap():
    with criterion(8, "qubits linear in n, simulation bits doubling per qubit"):
        rows = communication_report(range(1, 11), k=1, p=16)
        for row in rows:
            assert row.qubits == 2 * (row.n + 1)
            assert row.classical_bits == 2 * (2 ** (row.q + 1) * 16 + 64)
        for prev, cur in zip(rows, rows[1:]):
            assert cur.qubits - prev.qubits == 2
            growth = (cur.classical_bits - 128) / (prev.classical_bits - 128)
            assert growth == 2.0


def test_criterion_09_observation1_rank_correlation():
    with criterion(9, "Spearman(kcl(x), kcl(E(x))) >= 0.9 over the frozen corpus"):
        rep = observation1_experiment(hadamard_code(10), 200, seed=0)
        assert rep.spearman >= 0.9


def test_criterion_10_maximally_mixed_state():
    with criterion(10, "Bell-pair reduced state = I/2^n; encoding grows sublinearly"):
        for n in (1, 2, 3, 4, 5):
            out = apply_circuit(
                bell_pair_circuit(n), StateVector.computational(2 * n, 0)
            )
            red = partial_trace(out, range(0, 2 * n, 2))
            assert np.abs(red.entries - np.eye(2**n) / 2**n).max() <= 1e-12
        k8 = knet_upper(bell_pair_circuit(8)).compressed_length_bits
        k64 = knet_upper(bell_pair_circuit(64)).compressed_length_bits
        assert k64 <= 2 * k8


def test_criterion_11_uhlmann_property():
    with criterion(11, "reduced-state fidelity dominates purification overlap"):
        rng = np.random.default_rng(11)
        for _ in range(10000):
            psi = StateVector.random(4, rng)
            eps = 0.5 * rng.random() + 1e-6
            ov = 1 - eps * rng.random()  # |<psi|phi>|^2 >= 1 - eps
            phi = _perturbed(psi, ov, rng)
            f = uhlmann_fidelity(
                partial_trace(psi, [0, 1]), partial_trace(phi, [0, 1])
            )
            assert f * f >= 1 - eps - 1e-9


def test_criterion_12_demon_ledger():
    with criterion(12, "ledger balance m, work m kB T ln2, formula values exact"):
        for m in range(1, 11):
            for seed in (0, 1, 2):
                _, _, ledger = demon_step(m, seed=seed, T=300.0)
                assert ledger.delta_total == m
                assert (
                    ledger.work_joules
                    == m * KB_JOULE_PER_KELVIN * 300.0 * math.log(2.0)
                )
        trials = 100000
        ones = sum(demon_step(3, seed=s)[0].outcome_bit for s in range(trials))
        assert abs(ones / trials - 0.5) <= 3 * math.sqrt(0.25 / trials)
        cmp_ = multiphoton_ledger(2, 3, eps=2.0**-4)
        assert cmp_.product.delta_total == 2 * 3
        assert cmp_.entangled.delta_total == 14
        assert multiphoton_ledger(4, 5, eps=2.0**-3).product.delta_total == 20


def test_criterion_13_shannon_code():
    with criterion(13, "Shannon code prefix-free with Kraft <= 1, 1000 fuzzed"):
        code = shannon_code([0.5, 0.25, 0.25])
        assert [c.to_text() for c in code.codewords] == ["0", "10", "11"]
        rng = np.random.default_rng(13)
        for _ in range(1000):
            size = int(rng.integers(1, 20))
            w = rng.random(size) + 0.01
            p = sorted(w / w.sum(), reverse=True)
            c = shannon_code(p)
            assert c.kraft_sum() <= 1.0 + 1e-12
            assert c.is_prefix_free()


CLI_RUNS = [
    ["codes", "verify", "--code", "hadamard", "--n", "3"],
    ["equality", "--protocol", "quantum", "--n", "4", "--k", "1",
     "--trials", "500", "--seed", "3"],
    ["equality", "--protocol", "classical", "--n", "3",
     "--trials", "500", "--seed", "3"],
    ["complexity", "report", "--target", "bell", "--n", "4"],
    ["fingerprint", "build", "--code", "hadamard", "--n", "2", "--x", "10"],
    ["demon", "run", "--m", "4", "--seed", "1"],
    ["demon", "multi", "--n", "2", "--m", "3", "--eps", "0.0625"],
    ["sweep", "--n-min", "1", "--n-max", "5", "--format", "csv"],
]


def test_criterion_14_cli_bytes_repeat_in_process_and_in_fresh_processes(tmp_path, fresh_cli):
    with criterion(14, "every subcommand byte-identical on repeat and in a fresh process"):
        extract_src = tmp_path / "state.json"
        assert main(
            ["fingerprint", "build", "--code", "hadamard", "--n", "2", "--x", "10",
             "--out", str(extract_src)]
        ) == 0
        runs = CLI_RUNS + [
            ["fingerprint", "extract", "--code", "hadamard", "--n", "2",
             "--state", str(extract_src)],
        ]
        for argv in runs:
            seen = []
            for i in range(3):
                out = tmp_path / f"out-{i}.dat"
                assert main(argv + ["--out", str(out)]) == 0
                seen.append(out.read_bytes())
            seen.append(fresh_cli(argv))  # another process, hash seed, cwd and --out
            assert seen[0] == seen[1] == seen[2] == seen[3]
