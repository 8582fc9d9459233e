import math

import numpy as np
import pytest

from qkolab.errors import CapError, InputError
from qkolab.states import (
    DensityMatrix,
    StateVector,
    fidelity,
    partial_trace,
    sample_swap_outcomes,
    swap_test,
    swap_test_circuit,
    uhlmann_fidelity,
)

RNG = np.random.default_rng(101)

BELL = StateVector(2, np.array([1, 0, 0, 1]) / math.sqrt(2))


def test_state_validation():
    with pytest.raises(InputError):
        StateVector(1, np.array([1.0, 1.0]))  # unnormalized
    with pytest.raises(InputError):
        StateVector(2, np.array([1.0, 0.0]))  # wrong dimension
    with pytest.raises(CapError):
        StateVector(21, np.zeros(2))
    with pytest.raises(InputError):
        StateVector(0, np.ones(1))  # below one qubit is bad input, not a cap


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_states_rejected(bad):
    with pytest.raises(InputError):
        StateVector(1, np.array([bad, 0.0]))
    with pytest.raises(InputError):
        DensityMatrix(1, np.array([[1.0, 0.0], [0.0, bad]]))


def test_state_json_roundtrip():
    s = StateVector.random(3, RNG)
    back = StateVector.from_json(s.to_json())
    assert back.q == 3
    assert np.allclose(back.amplitudes, s.amplitudes)


def test_caps_checked_before_allocation():
    # each raises before allocating its 32-64 MiB array
    a = StateVector.computational(10)
    with pytest.raises(CapError):
        swap_test_circuit(a, a)
    with pytest.raises(CapError):
        DensityMatrix.from_pure(StateVector.computational(11))
    with pytest.raises(CapError):
        DensityMatrix.maximally_mixed(11)


def test_density_validation():
    with pytest.raises(InputError):
        DensityMatrix(1, np.array([[1.0, 1.0], [0.0, 0.0]]))  # not Hermitian
    with pytest.raises(InputError):
        DensityMatrix(1, np.eye(2))  # trace 2
    with pytest.raises(InputError):
        DensityMatrix(1, np.diag([1.5, -0.5]))  # not PSD
    with pytest.raises(InputError):
        DensityMatrix(0, np.ones((1, 1)))


def test_swap_test_closed_form_on_known_pairs():
    zero = StateVector.computational(1, 0)
    one = StateVector.computational(1, 1)
    assert swap_test(zero, one) == (0.5, 0.5)
    assert swap_test(zero, zero) == (1.0, 0.0)
    plus = StateVector(1, np.array([1, 1]) / math.sqrt(2))
    p0, _ = swap_test(zero, plus)
    assert abs(p0 - 0.75) < 1e-12


@pytest.mark.parametrize("q", [1, 2, 3, 4, 5])
def test_swap_test_circuit_matches_closed_form(q):
    for _ in range(25):
        a, b = StateVector.random(q, RNG), StateVector.random(q, RNG)
        exact = swap_test(a, b)
        lit = swap_test_circuit(a, b)
        assert abs(exact[0] - lit[0]) < 1e-10
        assert abs(exact[1] - lit[1]) < 1e-10


def test_sample_swap_outcomes_shared_path():
    a = sample_swap_outcomes(0.3, 50, np.random.default_rng(9))
    b = sample_swap_outcomes(0.3, 50, np.random.default_rng(9))
    assert (a == b).all()


def test_partial_trace_pure_oracle():
    # Bell pair: either side reduces to I/2
    for keep in ([0], [1]):
        red = partial_trace(BELL, keep)
        assert np.abs(red.entries - np.eye(2) / 2).max() < 1e-12
    # product state reduces to its factor
    s = StateVector(2, np.kron([1, 0], [1, 1] / np.sqrt(2)))
    red = partial_trace(s, [1])
    assert np.abs(red.entries - 0.5 * np.ones((2, 2))).max() < 1e-12


def test_uhlmann_fidelity_properties():
    r = DensityMatrix.maximally_mixed(1)
    assert abs(uhlmann_fidelity(r, r) - 1.0) < 1e-12
    p0 = DensityMatrix.from_pure(StateVector.computational(1, 0))
    p1 = DensityMatrix.from_pure(StateVector.computational(1, 1))
    assert uhlmann_fidelity(p0, p1) < 1e-9
    # pure states: F equals |<a|b>|
    a, b = StateVector.random(2, RNG), StateVector.random(2, RNG)
    f = uhlmann_fidelity(DensityMatrix.from_pure(a), DensityMatrix.from_pure(b))
    assert abs(f - math.sqrt(fidelity(a, b))) < 1e-10
