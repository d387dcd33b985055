"""Reduced-cost cross-checks of the independent reference implementations.

The selfcheck battery runs the full-size comparisons; here the same
oracles are exercised at small sizes so the suite stays fast while
still catching regressions in either side of each pair.
"""

import math

import numpy as np
import pytest

from spintex import constants as cn
from spintex import oracles
from spintex.dipole import DipolarCoupling, interaction_kernel, planar_tensor
from spintex.errors import InvalidParameter
from spintex.field import spin_density
from spintex.grid import Grid2D

SIGMA_Y = 1.8 / math.sqrt(5.0)


def test_planar_tensor_vs_quadrature():
    worst = 0.0
    for kx, kz in [(0.0, 0.0), (0.7, 0.0), (0.0, 1.3), (0.9, 2.1)]:
        closed = planar_tensor(np.array(kx), np.array(kz), SIGMA_Y)
        quad = oracles.planar_tensor_quadrature(kx, kz, SIGMA_Y)
        worst = max(worst, np.abs(closed - quad).max())
    assert worst < 1e-9


def test_larmor_kernel_is_phi_average():
    g = Grid2D(nx=8, nz=8, lx=6.0, lz=6.0)
    kzr = 2 * math.pi * np.fft.rfftfreq(g.nz, d=g.dz)
    bare = interaction_kernel(g, SIGMA_Y, "bare")
    lar = interaction_kernel(g, SIGMA_Y, "larmor")
    avg = oracles.phi_averaged_kernel(bare, n_phi=48)
    assert np.abs(avg - lar).max() < 1e-12
    assert kzr.shape[0] == lar.shape[-1]


def test_fft_field_matches_direct_sum():
    g = Grid2D(nx=8, nz=8, lx=6.0, lz=6.0)
    table = oracles.lattice_kernel_table(g, SIGMA_Y, images=1, nodes=32)
    rng = np.random.default_rng(4)
    s = rng.standard_normal((3, 8, 8))
    direct = oracles.direct_lattice_field(s, table, cn.CDD_HHZ_UM3,
                                          g.cell_area)
    coupling = DipolarCoupling(
        g, -g.cell_area * np.fft.rfft2(table, axes=(-2, -1)), cn.CDD_HHZ_UM3)
    fast = coupling.field_of(s)
    scale = np.abs(direct).max()
    assert np.abs(fast - direct).max() / scale < 1e-10


def test_column_quadrature_vs_closed_form():
    for kappa in (0.0, 2 * math.pi / 10.0, 2 * math.pi / 4.0):
        closed = oracles.helix_column_energy(kappa, SIGMA_Y, 230.0)
        quad = oracles.column_energy_quadrature(kappa, SIGMA_Y, 230.0)
        assert quad == pytest.approx(closed, abs=1e-9)


def test_column_3d_vs_closed_form():
    kappa = 2 * math.pi / 10.0
    closed = oracles.helix_column_energy(kappa, SIGMA_Y, 230.0)
    brute = oracles.column_energy_numeric3d(kappa, SIGMA_Y, 230.0,
                                            n_r=200, n_theta=64, n_phi=48)
    assert brute == pytest.approx(closed, rel=5e-2)
    # independence from the helix phase at the probe atom
    shifted = oracles.column_energy_numeric3d(kappa, SIGMA_Y, 230.0,
                                              phase0=1.1, n_r=200,
                                              n_theta=64, n_phi=48)
    assert shifted == pytest.approx(brute, rel=1e-6)


def test_single_site_reference_basics():
    psi0 = np.array([0.5, 1.0 / math.sqrt(2.0), 0.5], dtype=complex)
    t = np.linspace(0.0, 2.0, 9)
    traj = oracles.single_site_reference(psi0, t, q_hz=0.0, c0n_hz=0.0,
                                         c2_2d=0.0, c_dd=0.0)
    # free spinor is stationary
    assert np.abs(traj - psi0).max() < 1e-10
    traj = oracles.single_site_reference(psi0, t, q_hz=3.0, c0n_hz=5.0,
                                         c2_2d=-0.4, c_dd=0.1,
                                         q0_tensor=np.diag([0.5, 0.5, -1.0]))
    norms = np.einsum("ti,ti->t", traj.conj(), traj).real
    assert np.abs(norms - 1.0).max() < 1e-10
    # quadratic Zeeman shortens the transverse spin but the symmetry
    # keeps it in the plane
    s_end = spin_density(traj[-1])
    assert abs(s_end[2]) < 1e-8


def test_pair_energy_validation():
    g = Grid2D(nx=16, nz=16, lx=8.0, lz=8.0)
    with pytest.raises(InvalidParameter):
        oracles.pair_interaction_energy("y", g, SIGMA_Y, cn.CDD_HHZ_UM3)
