import math

import numpy as np

from spintex import constants as cn


def test_si_constants():
    assert cn.H_SI == 6.62607015e-34
    assert cn.HBAR_SI == 1.054571817e-34
    assert abs(cn.HBAR_SI - cn.H_SI / (2 * math.pi)) / cn.HBAR_SI < 1e-9
    assert cn.MU0_SI == 1.25663706212e-6
    assert cn.MUB_SI == 9.2740100783e-24
    assert cn.MASS_RB87_SI == 1.4431609e-25


def test_unit_conversions():
    assert cn.RADPMS_PER_HHZ == 2.0 * math.pi * 1e-3
    # one h*Hz of energy advances phase by 2 pi per second
    assert abs(cn.RADPMS_PER_HHZ * 1000.0 - 2.0 * math.pi) < 1e-15


def test_kinetic_coefficient():
    # hbar^2 k^2 / 2m expressed in h*Hz for k in rad/um
    expected = cn.HBAR_SI**2 / (2.0 * cn.MASS_RB87_SI) / cn.H_SI / cn.UM**2
    assert abs(cn.EKIN_HHZ_PER_K2 - expected) == 0.0
    assert abs(cn.EKIN_HHZ_PER_K2 - 58.150244) < 1e-5
    # the propagator coefficient is tied to the same constant exactly
    assert cn.KIN_COEF == cn.EKIN_HHZ_PER_K2 * cn.RADPMS_PER_HHZ


def test_larmor_rate():
    # gF muB B / h for gF = 1/2, per gauss
    expected = 0.5 * cn.MUB_SI / cn.H_SI * 1e-4
    assert abs(cn.LARMOR_HZ_PER_G - expected) / expected < 1e-5
    assert abs(cn.LARMOR_HZ_PER_G - 6.99812e5) < 20.0


def test_contact_coupling():
    # c = 4 pi hbar^2 a / m in h*Hz um^3 for a in nm
    val = cn.contact_coupling_hhz_um3(5.0)
    expected = (4.0 * math.pi * cn.HBAR_SI**2 * 5.0e-9
                / cn.MASS_RB87_SI / cn.H_SI / cn.UM**3)
    assert abs(val - expected) / expected < 1e-12
    assert cn.contact_coupling_hhz_um3(0.0) == 0.0
    # linear in the scattering length
    assert abs(cn.contact_coupling_hhz_um3(10.0) - 2.0 * val) < 1e-12 * val


def test_dipole_length():
    # a_d = mu0 (gF muB)^2 m / (12 pi hbar^2), about 0.0093 nm for 87Rb
    a_d = cn.dipole_length_nm()
    expected = (cn.MU0_SI * (0.5 * cn.MUB_SI)**2 * cn.MASS_RB87_SI
                / (12.0 * math.pi * cn.HBAR_SI**2)) / cn.NM
    assert abs(a_d - expected) / expected < 1e-12
    assert abs(a_d - 0.009301) < 1e-6


def test_dipolar_coupling_strength():
    # c_dd = mu0 (gF muB)^2 / (4 pi) in h*Hz um^3
    expected = (cn.MU0_SI * (0.5 * cn.MUB_SI)**2 / (4.0 * math.pi)
                / cn.H_SI / cn.UM**3)
    assert abs(cn.CDD_HHZ_UM3 - expected) / expected < 1e-12
    assert abs(cn.CDD_HHZ_UM3 - 3.245033e-3) < 1e-9
