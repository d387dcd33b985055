"""Closed-form quantities derived from the physical inputs of a run.

All derived energies are expressed as E/h in Hz, lengths in um, times
in ms.  The functions here read the physical fields of a validated
``RunConfig`` by name (scattering lengths, density, field, trap,
transverse width); ``DerivedParams`` is a pure function of them:
identical inputs give bit-identical outputs.
"""

import math
from dataclasses import dataclass

from . import constants as cn
from .errors import InvalidParameter

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class DerivedParams:
    """Closed-form quantities computed once from a RunConfig."""

    abar_nm: float          # (2 a2 + a0)/3
    delta_a_nm: float       # (a2 - a0)/3, signed
    a_d_nm: float           # dipolar length
    c0: float               # h*Hz um^3
    c2: float               # h*Hz um^3, negative for this species
    c_dd: float             # h*Hz um^3
    xi_s_um: float          # spin healing length
    q_hz: float             # quadratic Zeeman energy at b0, h*Hz
    e_d_hz: float           # uniform-vs-wound dipole energy scale, h*Hz
    n0_um3: float           # peak 3D density in um^-3
    n2d_peak: float         # sqrt(2 pi) sigma_y n0, um^-2
    c0_2d: float            # h*Hz um^2
    c2_2d: float            # h*Hz um^2
    larmor_hz: float        # gF muB B0 / h (documentation; dynamics are
                            # integrated in the frame rotating at this rate)


def derive_params(cfg) -> DerivedParams:
    """Populate every derived field from a validated RunConfig."""
    abar = (2.0 * cfg.a2_nm + cfg.a0_nm) / 3.0
    delta_a = (cfg.a2_nm - cfg.a0_nm) / 3.0
    a_d = cn.dipole_length_nm()
    c0 = cn.contact_coupling_hhz_um3(abar)
    c2 = cn.contact_coupling_hhz_um3(delta_a)
    c_dd = cn.CDD_HHZ_UM3
    n0_um3 = cfg.n0_cm3 * 1e-12
    # xi_s = (8 pi |delta_a| n0)^(-1/2), lengths in a common unit
    xi_s = 1.0 / math.sqrt(8.0 * math.pi * abs(delta_a) * 1e-3 * n0_um3)
    q_hz = quadratic_zeeman(cfg.b0_mg, cfg.q_coeff_hz_g2)
    e_d_hz = cn.dipolar_energy_hhz(n0_um3)
    column = math.sqrt(TWO_PI) * cfg.sigma_y_um
    return DerivedParams(
        abar_nm=abar,
        delta_a_nm=delta_a,
        a_d_nm=a_d,
        c0=c0,
        c2=c2,
        c_dd=c_dd,
        xi_s_um=xi_s,
        q_hz=q_hz,
        e_d_hz=e_d_hz,
        n0_um3=n0_um3,
        n2d_peak=column * n0_um3,
        c0_2d=c0 / column,
        c2_2d=c2 / column,
        larmor_hz=cn.LARMOR_HZ_PER_G * cfg.b0_mg * 1e-3,
    )


def quadratic_zeeman(b0_mg: float, q_coeff_hz_g2: float) -> float:
    """Quadratic Zeeman energy q = q_coeff * B0^2 in h*Hz for B0 in mG."""
    if b0_mg < 0:
        raise InvalidParameter(f"field must be >= 0, got {b0_mg!r}")
    return q_coeff_hz_g2 * (b0_mg * 1e-3) ** 2


def helix_kinetic_energy(kappa: float) -> float:
    """Kinetic energy per atom of a transverse helix: hbar^2 kappa^2 / 4m, h*Hz."""
    if kappa < 0:
        raise InvalidParameter(f"kappa must be >= 0, got {kappa!r}")
    return cn.EKIN_HHZ_PER_K2 * kappa**2 / 2.0


def trap_curvatures_hhz_um2(cfg) -> tuple:
    """(vx, vz) with V(x,z) = vx x^2 + vz z^2 in h*Hz for x, z in um."""
    ox = TWO_PI * cfg.trap_x_hz
    oz = TWO_PI * cfg.trap_z_hz
    vx = cn.MASS_RB87_SI * ox**2 * cn.UM**2 / (2.0 * cn.H_SI)
    vz = cn.MASS_RB87_SI * oz**2 * cn.UM**2 / (2.0 * cn.H_SI)
    return vx, vz


def derived_table(cfg) -> str:
    """Human-readable table of inputs and every derived quantity."""
    d = derive_params(cfg)
    ek50 = helix_kinetic_energy(TWO_PI / 50.0)
    ek_mod = cn.EKIN_HHZ_PER_K2 * (TWO_PI / 10.0) ** 2 / 4.0
    rows = [
        ("a0", f"{cfg.a0_nm:.4f} nm"),
        ("a2", f"{cfg.a2_nm:.4f} nm"),
        ("abar = (2 a2 + a0)/3", f"{d.abar_nm:.6f} nm"),
        ("delta_a = (a2 - a0)/3", f"{d.delta_a_nm:.6f} nm"),
        ("a_d", f"{d.a_d_nm:.6f} nm"),
        ("a_d / |delta_a|", f"{d.a_d_nm / abs(d.delta_a_nm):.6f}"),
        ("n0", f"{cfg.n0_cm3:.4e} cm^-3"),
        ("peak column density", f"{d.n2d_peak:.4f} um^-2"),
        ("sigma_y", f"{cfg.sigma_y_um:.6f} um"),
        ("c0", f"{d.c0:.6f} h Hz um^3"),
        ("c2", f"{d.c2:.6f} h Hz um^3"),
        ("c_dd", f"{d.c_dd:.6e} h Hz um^3"),
        ("c0 n0", f"{d.c0 * d.n0_um3:.4f} h Hz"),
        ("c2 n0", f"{d.c2 * d.n0_um3:.5f} h Hz"),
        ("xi_s", f"{d.xi_s_um:.6f} um"),
        ("B0", f"{cfg.b0_mg:.2f} mG"),
        ("q", f"{d.q_hz:.6f} h Hz"),
        ("q/2", f"{d.q_hz / 2.0:.6f} h Hz"),
        ("E_d = mu0 gF^2 muB^2 n0 / 2", f"{d.e_d_hz:.6f} h Hz"),
        ("E_kappa at pitch 50 um", f"{ek50:.6f} h Hz"),
        ("hbar^2 k_mod^2/8m at 10 um", f"{ek_mod:.6f} h Hz"),
        ("Larmor frequency", f"{d.larmor_hz:.2f} Hz"),
    ]
    width = max(len(k) for k, _ in rows)
    return "\n".join(f"{k:<{width}}  {v}" for k, v in rows)
