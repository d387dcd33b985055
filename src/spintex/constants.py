"""Physical constants and unit conversions.

Internal unit system used throughout the package:

    length   micrometre (um)
    time     millisecond (ms)
    energy   h * Hz  (Planck constant times hertz; stored as the plain
             frequency E/h in Hz)

The propagator works with phase rates in rad/ms; an energy E/h in Hz
contributes a phase rate of ``RADPMS_PER_HHZ * (E/h)`` rad/ms.
"""

import math

# fixed constant table (CODATA 2018), SI
HBAR_SI = 1.054571817e-34        # J s
H_SI = 6.62607015e-34            # J s
MU0_SI = 1.25663706212e-6        # N A^-2
MUB_SI = 9.2740100783e-24        # J T^-1

# rubidium-87, F=1 manifold
MASS_RB87_SI = 1.4431609e-25     # kg
GF = 0.5                         # Lande g-factor magnitude

# metric prefixes
UM = 1e-6                        # m per um
MS = 1e-3                        # s per ms
NM = 1e-9                        # m per nm
G_PER_T = 1e4                    # gauss per tesla

# h*Hz -> rad/ms
RADPMS_PER_HHZ = 2.0 * math.pi * 1e-3

# hbar^2 k^2/(2 m) in h*Hz for k in rad/um
EKIN_HHZ_PER_K2 = HBAR_SI**2 / (2.0 * MASS_RB87_SI) / H_SI / UM**2

# hbar/(2 m) in um^2/ms: a plane wave of wavevector k rad/um advances its
# phase by KIN_COEF * k^2 rad per ms under the kinetic term; tied to
# EKIN_HHZ_PER_K2 so spectral phases and measured energies agree exactly
KIN_COEF = EKIN_HHZ_PER_K2 * RADPMS_PER_HHZ

# magnetic moment of a |m_F| = 1 state and the dipolar coupling
# c_dd = mu0 (gF muB)^2 / (4 pi), h*Hz um^3
MU_ATOM_SI = GF * MUB_SI
CDD_HHZ_UM3 = MU0_SI * MU_ATOM_SI**2 / (4.0 * math.pi) / H_SI / UM**3

# Larmor frequency per gauss: gF muB / h
LARMOR_HZ_PER_G = GF * MUB_SI / H_SI / G_PER_T

# phase-winding rate of a field gradient: kappa accumulates at
# GRAD_COEF * B' rad per ms per um for B' in mG/cm
MG_CM_TO_G_UM = 1e-3 / 1e4               # G/um per mG/cm
GRAD_COEF = (GF * MUB_SI / HBAR_SI) / G_PER_T * MG_CM_TO_G_UM * MS


def contact_coupling_hhz_um3(a_nm: float) -> float:
    """Contact coupling g = 4 pi hbar^2 a / m in h*Hz um^3."""
    g_si = 4.0 * math.pi * HBAR_SI**2 * (a_nm * NM) / MASS_RB87_SI
    return g_si / H_SI / UM**3


def dipole_length_nm() -> float:
    """Dipolar length a_d = mu0 gF^2 muB^2 m / (12 pi hbar^2) in nm."""
    return MU0_SI * MU_ATOM_SI**2 * MASS_RB87_SI / (12.0 * math.pi * HBAR_SI**2) / NM


def dipolar_energy_hhz(n0_um3: float) -> float:
    """Dipolar energy scale E_d = mu0 (gF muB)^2 n0 / 2, h*Hz; n0 in um^-3."""
    return MU0_SI * MU_ATOM_SI**2 * (n0_um3 / UM**3) / 2.0 / H_SI
