import math

import numpy as np
import pytest

from qkolab.bits import BitString
from qkolab.codes import concatenated_code, hadamard_code, simplex_code
from qkolab.errors import CapError, InputError
from qkolab.fingerprint import build_fingerprint, quantize_state
from qkolab.smp import (
    EQUAL,
    K_CAP,
    NOT_EQUAL,
    REPORT_N_CAP,
    RESTART,
    ExperimentConfig,
    communication_report,
    monte_carlo,
    run_classical_equality,
    run_classical_simulation_of_quantum,
    run_quantum_equality,
    trial_seed,
    wilson_interval,
)

CODE4 = hadamard_code(4)


def _all_messages(n):
    return [BitString.from_int(v, n) for v in range(2**n)]


def test_classical_single_index_accounting():
    tr = run_classical_equality(BitString("1010"), BitString("0101"), CODE4, seed=0)
    assert tr.classical_bits == 2 * (4 + 1)
    assert tr.decision in (EQUAL, NOT_EQUAL, RESTART)


def test_classical_multi_index_accounting():
    tr = run_classical_equality(
        BitString("1010"), BitString("0101"), CODE4, "multi_index", s=4, seed=0
    )
    assert tr.classical_bits == 2 * 4 * 5


def test_classical_one_sided_exhaustive():
    # equal inputs are never declared NotEqual, any variant, any seed
    for x in _all_messages(3):
        code = hadamard_code(3)
        for seed in range(40):
            for variant in ("single_index", "multi_index"):
                tr = run_classical_equality(x, x, code, variant, seed=seed)
                assert tr.decision != NOT_EQUAL


def test_quantum_equal_inputs_always_equal():
    for x in _all_messages(3):
        code = hadamard_code(3)
        for seed in range(30):
            assert run_quantum_equality(x, x, code, k=3, seed=seed).decision == EQUAL


def test_quantum_qubit_accounting():
    tr = run_quantum_equality(BitString("1010"), BitString("0101"), CODE4, k=3)
    assert tr.qubits == 2 * 3 * 5
    assert tr.classical_bits == 0


@pytest.mark.parametrize(
    "code", [hadamard_code(3), simplex_code(3), concatenated_code(3, 4)],
    ids=["hadamard-m8", "simplex-m7", "concatenated-m12"],
)
def test_transcript_widths_match_the_fingerprint(code):
    x, y = BitString("101"), BitString("011")
    q = build_fingerprint(code, x).q
    assert run_quantum_equality(x, y, code, k=2, seed=1).qubits == 2 * 2 * q
    single = run_classical_equality(x, y, code, seed=1)
    assert single.classical_bits == 2 * q
    s = min(math.ceil(math.sqrt(code.m * math.log(4.0))), code.m)
    multi = run_classical_equality(x, y, code, "multi_index", seed=1)
    assert multi.classical_bits == 2 * s * q


def test_classical_sim_threshold_decisions():
    x, y = BitString("1010"), BitString("0110")
    # unequal: decoded overlap sits near 1/2, far below the 0.75 threshold
    for seed in range(5):
        tr = run_classical_simulation_of_quantum(x, y, CODE4, 2.0**-10, seed=seed)
        assert tr.decision == NOT_EQUAL
    # equal: decoded overlap is near 1, above the threshold
    tr = run_classical_simulation_of_quantum(x, x, CODE4, 2.0**-10)
    assert tr.decision == EQUAL
    assert tr.classical_bits == 2 * (2**6 * 10 + 64)


def test_classical_sim_sampled_reproduces_quantum_decisions():
    # m = 16 makes every fingerprint amplitude an exact fixed-point value,
    # so the decoded overlap and hence the sampled outcomes agree bit for bit
    x, y = BitString("1010"), BitString("0110")
    for seed in range(300):
        tq = run_quantum_equality(x, y, CODE4, k=2, seed=seed)
        ts = run_classical_simulation_of_quantum(
            x, y, CODE4, 2.0**-10, "sampled", k=2, seed=seed
        )
        assert tq.decision == ts.decision


def test_monte_carlo_determinism_and_seeding():
    cfg = ExperimentConfig(CODE4, "quantum", 500, 11, k=1)
    a, b = monte_carlo(cfg), monte_carlo(cfg)
    assert a == b
    assert a.mean_qubits == 10.0
    assert trial_seed(11, 0) != trial_seed(11, 1)
    assert trial_seed(11, 0) == trial_seed(11, 0)


def test_monte_carlo_validation():
    with pytest.raises(InputError):
        ExperimentConfig(CODE4, "bogus", 10, 0)
    with pytest.raises(InputError):
        ExperimentConfig(CODE4, "quantum", 0, 0)
    with pytest.raises(InputError):
        monte_carlo(ExperimentConfig(CODE4, "classical-sim", 1, 0))  # no eps_a
    # both are caught when the config is built, before any trial runs
    with pytest.raises(InputError, match="eps_a"):
        ExperimentConfig(CODE4, "classical-sim", 1, 0)
    with pytest.raises(InputError, match="mode"):
        ExperimentConfig(CODE4, "quantum", 1, 0, mode="bogus")
    with pytest.raises(InputError, match="eps_a"):
        ExperimentConfig(CODE4, "quantum", 1, 0, eps_a=-3.0)  # quantum never reads it
    with pytest.raises(CapError):
        ExperimentConfig(CODE4, "quantum", 1, 0, k=K_CAP + 1)  # before k floats are drawn


def test_wilson_interval_basics():
    lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi
    assert wilson_interval(0, 100)[0] == 0.0
    assert wilson_interval(100, 100)[1] == 1.0


def test_communication_report_formulas():
    rows = communication_report(range(1, 11), k=1, p=16)
    for row in rows:
        assert row.q == row.n + 1
        assert row.qubits == 2 * row.q
        assert row.classical_bits == 2 * (2 ** (row.q + 1) * 16 + 64)
        assert row.ratio == math.log2(row.classical_bits) / row.qubits
    assert rows[0].classical_bits == 2 * (2**3 * 16 + 64)
    # the log-bits-to-qubits ratio crosses 0.9 only around n = 6
    by_n = {r.n: r.ratio for r in rows}
    assert by_n[6] > 0.9
    assert by_n[5] > 1.0


def test_communication_report_cap():
    (row,) = communication_report([REPORT_N_CAP], k=1, p=62)
    assert int(str(row.classical_bits)) == row.classical_bits  # still printable
    with pytest.raises(CapError):
        communication_report(range(1, 10**18))  # rejected before any row is built
    assert communication_report([1], k=K_CAP)[0].qubits == 2 * K_CAP * 2
    with pytest.raises(CapError):
        communication_report([1], k=10**308)


def test_communication_report_counts_the_built_states():
    k, p = 3, 10
    for row in communication_report(range(1, 9), k=k, p=p):
        state = build_fingerprint(hadamard_code(row.n), BitString.from_int(1, row.n))
        assert row.q == state.q
        assert row.qubits == 2 * k * state.q
        assert row.classical_bits == 2 * quantize_state(state, 2.0**-p).length_bits
