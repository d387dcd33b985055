"""Cross-validation battery comparing fast paths to independent references.

Each check evaluates the production code against a slower method built
from different mathematics (adaptive quadrature, explicit lattice sums,
a high-order ODE solver, dense matrix exponentials) and reports a
maximum error against a fixed tolerance.  The whole battery is a fresh
correctness audit that runs in well under five minutes.
"""

import logging
import math
import time
from dataclasses import dataclass

import numpy as np
from scipy import linalg, special

from . import constants as cn
from . import oracles
from .dipole import (DipolarCoupling, erfcx, interaction_kernel,
                     planar_tensor)
from .dynamics import Evolver, evolve
from .field import rotate_spinor, spin_matrices, zeeman_like_apply
from .grid import Grid2D
from .io_text import RunConfig
from .params import derive_params

SIGMA_Y = RunConfig.sigma_y_um
log = logging.getLogger("spintex")


@dataclass(frozen=True)
class CheckResult:
    name: str
    max_err: float
    tol: float
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.max_err <= self.tol


def check_kernel_quadrature() -> CheckResult:
    """Closed-form planar kernel vs adaptive integration over ky."""
    pts = [(0.0, 0.0), (0.3, 0.0), (0.0, 0.3), (0.7, -0.4), (1.5, 2.0),
           (-2.5, 0.9), (0.05, 0.0), (4.0, 4.0)]
    err = 0.0
    for kx, kz in pts:
        closed = planar_tensor(np.array(kx), np.array(kz), SIGMA_Y)
        quad = oracles.planar_tensor_quadrature(kx, kz, SIGMA_Y)
        err = max(err, float(np.abs(closed - quad).max()))
    return CheckResult("planar kernel vs ky quadrature", err, 1e-9)


def check_erfcx() -> CheckResult:
    """The kernel's own erfcx vs scipy.special.erfcx over [0, 1e6]."""
    x = np.concatenate([np.linspace(0.0, 10.0, 20001),
                        np.geomspace(1e-6, 1e6, 2001), [0.0, np.inf]])
    ref = special.erfcx(x)
    diff = np.abs(erfcx(x) - ref)
    # erfcx(inf) = 0 on both sides; every other reference value is > 0
    err = float(np.where(ref > 0, diff / np.where(ref > 0, ref, 1.0),
                         diff).max())
    return CheckResult("erfcx vs scipy.special.erfcx", err, 2e-15)


def check_larmor_average() -> CheckResult:
    """Precession-averaged kernel vs an explicit rotation average."""
    grid = Grid2D(nx=16, nz=16, lx=8.0, lz=8.0)
    bare = interaction_kernel(grid, SIGMA_Y, "bare")
    fast = interaction_kernel(grid, SIGMA_Y, "larmor")
    slow = oracles.phi_averaged_kernel(bare, n_phi=32)
    err = float(np.abs(fast - slow).max())
    return CheckResult("precession-averaged kernel vs phi sweep", err, 1e-10)


def check_fft_vs_direct() -> CheckResult:
    """DipolarCoupling.field_of vs explicit double lattice sum, both
    taking their kernel from one lattice table."""
    rng = np.random.default_rng(7)
    err = 0.0
    for nx, nz in ((16, 16), (8, 16)):
        grid = Grid2D(nx=nx, nz=nz, lx=nx / 2.0, lz=nz / 2.0)
        table = oracles.lattice_kernel_table(grid, SIGMA_Y)
        s = rng.standard_normal((3, nx, nz))
        # the production convolution, with the table's transform as kernel
        coupling = DipolarCoupling(
            grid, -grid.cell_area * np.fft.rfft2(table, axes=(-2, -1)),
            cn.CDD_HHZ_UM3)
        b_fft = coupling.field_of(s)
        b_dir = oracles.direct_lattice_field(s, table, cn.CDD_HHZ_UM3,
                                             grid.cell_area)
        scale = float(np.abs(b_dir).max())
        err = max(err, float(np.abs(b_fft - b_dir).max()) / scale)
    return CheckResult("field_of vs direct lattice sum", err, 1e-6)


def check_column_closed_form() -> CheckResult:
    """Closed-form wound-column energy vs 1D adaptive quadrature."""
    derived = derive_params(RunConfig())
    n0 = derived.n0_um3
    err = 0.0
    for kappa in (0.0, 2 * math.pi / 50, 2 * math.pi / 10, 2 * math.pi / 5,
                  2 * math.pi / 2):
        closed = oracles.helix_column_energy(kappa, SIGMA_Y, n0)
        quad = oracles.column_energy_quadrature(kappa, SIGMA_Y, n0)
        err = max(err, abs(closed - quad) / derived.e_d_hz)
    return CheckResult("column energy closed form vs quadrature", err, 1e-9)


def check_column_3d() -> CheckResult:
    """Wound-column energy vs direct 3D real-space integration."""
    derived = derive_params(RunConfig())
    n0 = derived.n0_um3
    err = 0.0
    vals = []
    for kappa in (2 * math.pi / 50, 2 * math.pi / 10, 2 * math.pi / 5):
        closed = oracles.helix_column_energy(kappa, SIGMA_Y, n0)
        full = oracles.column_energy_numeric3d(kappa, SIGMA_Y, n0)
        rel = abs(closed - full) / max(abs(closed), 0.1 * derived.e_d_hz)
        vals.append(f"kappa={kappa:.3f}: {closed:+.4f} vs {full:+.4f} h*Hz")
        err = max(err, rel)
    return CheckResult("column energy vs 3D integration", err, 0.05,
                       detail="; ".join(vals))


def check_single_site() -> CheckResult:
    """Grid stepper on a uniform field vs an adaptive ODE reference."""
    grid = Grid2D(nx=8, nz=8, lx=4.0, lz=4.0)
    derived = derive_params(RunConfig())
    nbar = derived.n2d_peak
    dt = 1e-3
    evolver = Evolver(grid, dt, q_hz=derived.q_hz, c0_2d=derived.c0_2d,
                      c2_2d=derived.c2_2d, sigma_y_um=SIGMA_Y,
                      c_dd=derived.c_dd, kernel_mode="bare")
    psi_site = rotate_spinor(np.array([0.0, 0.0, 1.0], dtype=complex),
                             (0.0, 1.0, 0.0), -math.pi / 3.0)
    psi = np.tile(psi_site[:, None, None] * math.sqrt(nbar),
                  (1, grid.nx, grid.nz)).astype(complex)
    t_final = 5.0
    psi = evolve(psi, evolver, int(round(t_final / dt)))

    # interaction kernel at k = 0 (minus the planar tensor's diagonal)
    q0 = np.diag([2.0 / 3.0, -4.0 / 3.0, 2.0 / 3.0]) \
        * math.sqrt(math.pi) / SIGMA_Y
    ref = oracles.single_site_reference(
        psi_site * math.sqrt(nbar), [0.0, t_final], q_hz=derived.q_hz,
        c0n_hz=derived.c0_2d * nbar, c2_2d=derived.c2_2d,
        c_dd=derived.c_dd, q0_tensor=q0)[-1]
    err = float(np.abs(psi[:, 0, 0] - ref).max()) / math.sqrt(nbar)
    return CheckResult("uniform-field stepper vs ODE reference", err, 1e-8)


def check_sign_audit() -> CheckResult:
    """Side-by-side spins must repel, head-to-tail must attract."""
    grid = Grid2D(nx=32, nz=32, lx=16.0, lz=16.0)
    e_side, e_chain = (oracles.pair_interaction_energy(
        axis, grid, SIGMA_Y, cn.CDD_HHZ_UM3) for axis in "zx")
    scale = max(abs(e_side), abs(e_chain))
    # error is the magnitude of any wrong-signed contribution
    err = (max(0.0, -e_side) + max(0.0, e_chain)) / scale
    return CheckResult("pair interaction sign audit", err, 0.0,
                       detail=f"side-by-side {e_side:+.3e}, "
                              f"head-to-tail {e_chain:+.3e} h*Hz")


def check_expm() -> CheckResult:
    """Closed-form spin rotation (u = q = 0) and split local step vs the
    dense exponential of v.F and the dense product of the step's factors."""
    rng = np.random.default_rng(11)
    fx, fy, fz = spin_matrices()
    err = 0.0
    cases = [(rng.normal(), rng.normal(), rng.normal(size=3))
             for _ in range(40)]
    # v = 0 and |v| near zero, where the rotation takes its limits
    cases += [(1.3, 0.0, np.zeros(3)), (0.0, 2.0, np.zeros(3)),
              (0.7, 1e-9, np.array([1e-9, 0.0, 0.0]))]
    dt = 0.37
    basis = np.eye(3, dtype=complex)  # [component, site] = 3 columns
    for u, q, v in cases:
        rot = linalg.expm(-1j * dt * (v[0] * fx + v[1] * fy + v[2] * fz))
        half_q = linalg.expm(-0.5j * dt * q * (fz @ fz))
        dense = np.exp(-1j * dt * u) * half_q @ rot @ half_q
        got_rot = zeeman_like_apply(basis, dt, 0.0, 0.0, *v)
        got = zeeman_like_apply(basis, dt, u, q, *v)
        err = max(err, float(np.abs(got_rot - rot).max()),
                  float(np.abs(got - dense).max()))
    return CheckResult("local step factors vs dense expm", err, 1e-12)


ALL_CHECKS = (check_erfcx, check_kernel_quadrature, check_larmor_average,
              check_fft_vs_direct, check_column_closed_form,
              check_column_3d, check_single_site, check_sign_audit,
              check_expm)


def run_selfcheck() -> bool:
    """Run every cross-check; report to the "spintex" logger at INFO level
    and return overall pass."""
    t0 = time.time()
    all_passed = True
    for check in ALL_CHECKS:
        result = check()
        all_passed &= result.passed
        log.info("[%s] %s: max err %.3e (tol %.0e)",
                 "pass" if result.passed else "FAIL", result.name,
                 result.max_err, result.tol)
        if result.detail:
            log.info("       %s", result.detail)
    log.info("[info] elapsed %.1f s", time.time() - t0)
    log.info("all checks passed" if all_passed else "SELF-CHECK FAILED")
    return all_passed
