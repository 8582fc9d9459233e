import math

import numpy as np
import pytest

from qkolab.bits import BitString
from qkolab.demon import (
    KB_JOULE_PER_KELVIN,
    angle_from_record,
    demon_step,
    multiphoton_ledger,
)
from qkolab.errors import CapError, InputError


def test_angle_from_record_examples():
    assert angle_from_record(BitString("0000")) == 0.0
    assert angle_from_record(BitString("1011")) == 11 * math.pi / 16
    assert angle_from_record(BitString("1")) == math.pi / 2
    with pytest.raises(InputError):
        angle_from_record(BitString(""))


@pytest.mark.parametrize("m", [1, 3, 8, 64])
def test_demon_step_ledger(m):
    record, post, ledger = demon_step(m, seed=7, T=300.0)
    assert ledger.delta_total == m
    assert ledger.work_joules == m * KB_JOULE_PER_KELVIN * 300.0 * math.log(2.0)
    assert (ledger.S_in, ledger.I_in, ledger.S_fin, ledger.I_fin) == (1, 0, 0, m + 1)
    assert ledger.delta_total == (ledger.S_fin + ledger.I_fin) - (
        ledger.S_in + ledger.I_in
    )
    assert len(record.full_record) == m + 1
    assert record.full_record[0] == record.outcome_bit
    assert abs(np.linalg.norm(post.amplitudes) - 1.0) < 1e-12


def test_demon_post_state_matches_basis_vector():
    record, post, _ = demon_step(4, seed=12)
    theta = angle_from_record(record.r)
    expected = (
        np.array([math.cos(theta), math.sin(theta)])
        if record.outcome_bit == 0
        else np.array([-math.sin(theta), math.cos(theta)])
    )
    assert np.abs(post.amplitudes - expected).max() < 1e-12


def test_demon_caps():
    with pytest.raises(CapError):
        demon_step(65, seed=0)
    with pytest.raises(InputError):
        demon_step(0, seed=0)


def test_multiphoton_formula_values():
    cmp_ = multiphoton_ledger(2, 3, eps=2.0**-4)
    assert cmp_.product.delta_total == 6  # n * m
    assert cmp_.entangled.delta_total == 14  # 2^n log2(1/eps) - n
    assert cmp_.entangled_exceeds_product == (14 > 6)
    small = multiphoton_ledger(1, 8, eps=0.5)
    assert small.product.delta_total == 8
    assert small.entangled.delta_total == 1  # 2*1 - 1
    assert not small.entangled_exceeds_product
    # -log2(eps) stays finite where 1/eps overflows
    assert multiphoton_ledger(2, 3, eps=5e-324).entangled.I_fin == 4 * 1074


def test_multiphoton_simulated_mode():
    cmp_ = multiphoton_ledger(2, 3, eps=2.0**-4, mode="simulated", seed=5)
    assert cmp_.entangled.surrogate_method is not None
    assert cmp_.entangled.delta_total == cmp_.entangled.I_fin - 2
    # same seed reproduces the surrogate exactly
    again = multiphoton_ledger(2, 3, eps=2.0**-4, mode="simulated", seed=5)
    assert again.entangled.I_fin == cmp_.entangled.I_fin
    with pytest.raises(CapError):
        multiphoton_ledger(9, 3, eps=0.5, mode="simulated")
    with pytest.raises(CapError):
        multiphoton_ledger(17, 3, eps=0.5)


def test_kB_T_overflow_is_bad_input():
    # kB and T are each finite, the work they price is not
    with pytest.raises(InputError, match="kB"):
        demon_step(4, seed=1, kB=1e300, T=1e300)
    with pytest.raises(InputError, match="kB"):
        multiphoton_ledger(2, 3, eps=0.0625, kB=1e300, T=1e300)
    # here only the entangled balance, 2^16 * 1074 bits, overflows
    with pytest.raises(InputError, match="kB"):
        multiphoton_ledger(16, 64, eps=5e-324, kB=1e150, T=1e155)
