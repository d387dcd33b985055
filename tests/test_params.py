import math

import pytest

from spintex.errors import InvalidParameter
from spintex.io_text import RunConfig
from spintex.params import (derive_params, derived_table,
                            helix_kinetic_energy, quadratic_zeeman,
                            trap_curvatures_hhz_um2)


@pytest.fixture(scope="module")
def derived():
    return derive_params(RunConfig())


def test_scattering_length_combinations(derived):
    assert abs(derived.abar_nm - (2 * 5.31 + 5.39) / 3.0) < 1e-12
    assert abs(derived.delta_a_nm - (5.31 - 5.39) / 3.0) < 1e-12
    # dipolar length vs the spin-dependent scattering scale
    ratio = derived.a_d_nm / abs(derived.delta_a_nm)
    assert abs(ratio - 0.348777) < 1e-6


def test_contact_couplings(derived):
    assert abs(derived.c0 - 7.799405) < 1e-6
    assert abs(derived.c2 - (-0.038973)) < 1e-6
    assert abs(derived.c_dd - 3.245033e-3) < 1e-9
    # spin-exchange coupling is ferromagnetic (negative) for 87Rb F=1
    assert derived.c2 < 0
    assert abs(derived.c_dd / abs(derived.c2) - 0.0832644) < 1e-6


def test_densities(derived):
    assert derived.n0_um3 == 230.0
    # peak column density through the sigma_y Gaussian: sqrt(2 pi) sigma n0
    sigma = RunConfig().sigma_y_um
    assert abs(derived.n2d_peak - math.sqrt(2 * math.pi) * sigma * 230.0) \
        < 1e-9
    assert abs(derived.n2d_peak - 464.0933) < 1e-4


def test_planar_couplings(derived):
    # 2D couplings: peak-matched reduction through the transverse Gaussian
    sigma = RunConfig().sigma_y_um
    overlap = math.sqrt(2.0 * math.pi) * sigma
    assert abs(derived.c0_2d - derived.c0 / overlap) < 1e-12
    assert abs(derived.c0_2d - 3.8653074376) < 1e-9
    assert abs(derived.c2_2d - (-0.0193144656)) < 1e-9
    # peak interaction scales
    assert abs(derived.c0 * 230.0 - 1793.8632) < 1e-4
    assert abs(derived.c2 * 230.0 - (-8.96371)) < 1e-5


def test_spin_healing_length(derived):
    # xi_s = hbar / sqrt(2 m |c2| n0): the full value, frozen
    assert abs(derived.xi_s_um - 2.5470166619) < 1e-9


def test_quadratic_zeeman(derived):
    assert abs(derived.q_hz - 1.949310) < 1e-6
    assert abs(derived.q_hz / 2.0 - 0.974655) < 1e-6
    assert abs(quadratic_zeeman(165.0, 71.6) - 71.6 * 0.165**2) < 1e-12
    # quadratic in the field
    assert abs(quadratic_zeeman(330.0, 71.6)
               - 4.0 * quadratic_zeeman(165.0, 71.6)) < 1e-12


def test_dipolar_energy_scale(derived):
    assert abs(derived.e_d_hz - 4.689503) < 1e-6
    assert 4.0 <= derived.e_d_hz <= 5.5


def test_larmor_frequency(derived):
    assert abs(derived.larmor_hz - 115469.02) < 0.01


def test_helix_relations():
    # winding energy per atom at 50 um pitch stays below h x 1 Hz
    e50 = helix_kinetic_energy(2 * math.pi / 50.0)
    assert abs(e50 - 0.4591359246) < 1e-9
    assert e50 / 2.0 < 0.5
    # characteristic modulation scale hbar^2 k^2 / 8m
    e_mod = helix_kinetic_energy(2 * math.pi / 10.0) / 2.0
    assert abs(e_mod - 5.739199) < 1e-5


def test_trap_curvatures():
    vx, vz = trap_curvatures_hhz_um2(RunConfig())
    assert abs(vx - 6.5390954926) < 1e-9
    assert abs(vz - 0.0758380306) < 1e-9
    # m omega^2 x^2 / 2 at 1 um, converted to h*Hz
    assert vx / vz == pytest.approx((39.0 / 4.2) ** 2, rel=1e-12)


def test_validation_errors():
    import dataclasses
    base = RunConfig()
    for bad in (dict(n0_cm3=-1.0), dict(b0_mg=-1.0), dict(sigma_y_um=0.0),
                dict(a0_nm=0.0)):
        with pytest.raises(InvalidParameter, match=next(iter(bad))):
            dataclasses.replace(base, **bad).validate()


def test_derived_table(derived):
    table = derived_table(RunConfig())
    assert "xi_s" in table
    assert "2.547017" in table
    assert "4.689503" in table
    assert "0.348777" in table
