import math

import numpy as np
import pytest

from spintex import constants as cn
from spintex.dipole import (DipolarCoupling, helix_column_energy,
                            interaction_kernel, normalize_mode, planar_tensor)
from spintex.errors import InvalidParameter
from spintex.grid import Grid2D
from spintex.io_text import RunConfig
from spintex.params import derive_params

SIGMA_Y = 1.8 / math.sqrt(5.0)

# column energies for sigma = 1.8/sqrt(5) um, n0 = 230 um^-3,
# frozen from the closed form after cross-checking against direct
# quadrature and the 3D integral (see tests/test_oracles.py)
COLUMN_CASES = [
    (0.0, 1.5631676409812456),
    (2 * math.pi / 50.0, 1.4497431543),
    (2 * math.pi / 10.0, 0.4703312728),
    (2 * math.pi / 5.0, -0.6215924971),
    (2 * math.pi / 2.0, -2.1667799635),
]


def test_normalize_mode():
    assert normalize_mode("Bare") == "bare"
    assert normalize_mode(" LARMOR ") == "larmor"
    with pytest.raises(InvalidParameter):
        normalize_mode("full")


def test_planar_tensor_zero_mode():
    d = planar_tensor(np.array(0.0), np.array(0.0), SIGMA_Y)
    i0 = math.sqrt(math.pi) / SIGMA_Y
    assert d[0, 0] == pytest.approx(-2.0 / 3.0 * i0, rel=1e-12)
    assert d[1, 1] == pytest.approx(4.0 / 3.0 * i0, rel=1e-12)
    assert d[2, 2] == pytest.approx(-2.0 / 3.0 * i0, rel=1e-12)
    assert d[0, 0] == pytest.approx(-1.467899, abs=5e-7)
    assert d[1, 1] == pytest.approx(2.935798, abs=5e-7)
    assert np.abs(d - np.diag(np.diagonal(d))).max() == 0.0


def test_planar_tensor_symmetric_traceless():
    kx = np.linspace(0.0, 3.0, 7)
    kz = np.linspace(0.0, 2.0, 7)
    d = planar_tensor(kx[:, None], kz[None, :], SIGMA_Y)
    assert d.shape == (3, 3, 7, 7)
    assert np.abs(d - np.swapaxes(d, 0, 1)).max() < 1e-14
    trace = d[0, 0] + d[1, 1] + d[2, 2]
    assert np.abs(trace).max() < 1e-12 * np.abs(d).max()
    # no coupling into the tightly confined axis
    assert np.abs(d[0, 1]).max() == 0.0
    assert np.abs(d[1, 2]).max() == 0.0


def test_planar_tensor_inplane_asymptotics():
    # at |k| sigma >> 1 the tensor approaches the in-plane projector
    # form: along-k component -> +1/2 loses to perpendicular... fix by
    # direct limits: D_xx -> -2 I(k) ... just pin the ratios instead
    k = 40.0
    d_along = planar_tensor(np.array(k), np.array(0.0), SIGMA_Y)
    d_perp = planar_tensor(np.array(0.0), np.array(k), SIGMA_Y)
    # x is the field axis in both cases; swapping propagation direction
    # exchanges the xx and zz entries
    assert d_along[0, 0] == pytest.approx(d_perp[2, 2], rel=1e-12)
    assert d_along[2, 2] == pytest.approx(d_perp[0, 0], rel=1e-12)
    # longitudinal response is attractive (negative energy kernel sign
    # handled downstream); transverse-to-k decays to the y-dominated
    # limit with opposite sign
    assert d_along[0, 0] > 0.0
    assert d_along[2, 2] < 0.0


def test_interaction_kernel_modes():
    g = Grid2D(nx=16, nz=32, lx=8.0, lz=16.0)
    kzr = 2 * math.pi * np.fft.rfftfreq(g.nz, d=g.dz)
    d = planar_tensor(g.kx[:, None], kzr[None, :], SIGMA_Y)
    bare = interaction_kernel(g, SIGMA_Y, "bare")
    assert bare.shape == (3, 3, 16, 17)
    assert np.allclose(bare, -d, atol=1e-15)
    lar = interaction_kernel(g, SIGMA_Y, "larmor")
    assert np.allclose(lar[0, 0], 0.5 * d[2, 2], atol=1e-15)
    assert np.allclose(lar[1, 1], 0.5 * d[2, 2], atol=1e-15)
    assert np.allclose(lar[2, 2], -d[2, 2], atol=1e-15)
    off_diag = lar - np.array([[lar[i, j] if i == j else 0 * lar[0, 0]
                                for j in range(3)] for i in range(3)])
    assert np.abs(off_diag).max() == 0.0
    assert interaction_kernel(g, SIGMA_Y, "off") is None


def test_coupling_off_is_inert():
    g = Grid2D(nx=8, nz=8, lx=4.0, lz=4.0)
    c = DipolarCoupling(g, SIGMA_Y, "off", cn.CDD_HHZ_UM3)
    s = np.ones((3, 8, 8))
    assert np.abs(c.field_of(s)).max() == 0.0
    assert c.energy(s) == 0.0


def test_field_of_is_the_full_tensor_product():
    # field_of multiplies only the non-zero kernel entries; the entries
    # it skips must be zero and the result the full 3x3 product
    g = Grid2D(nx=16, nz=32, lx=8.0, lz=20.0)
    s = np.random.default_rng(4).standard_normal((3, 16, 32))
    for mode in ("bare", "larmor"):
        c = DipolarCoupling(g, SIGMA_Y, mode, cn.CDD_HHZ_UM3)
        for i, j in ((0, 1), (1, 0), (1, 2), (2, 1)):
            assert not c.kernel[i, j].any()
        sk = np.fft.rfft2(s, axes=(-2, -1))
        bk = np.einsum("ij...,j...->i...", c.kernel, sk)
        full = cn.CDD_HHZ_UM3 * np.fft.irfft2(bk, s=g.shape, axes=(-2, -1))
        assert np.abs(c.field_of(s) - full).max() \
            <= 1e-12 * np.abs(full).max()


def test_coupling_energy_definition():
    g = Grid2D(nx=16, nz=16, lx=8.0, lz=8.0)
    c = DipolarCoupling(g, SIGMA_Y, "bare", cn.CDD_HHZ_UM3)
    rng = np.random.default_rng(2)
    s = rng.standard_normal((3, 16, 16))
    b = c.field_of(s)
    assert c.energy(s) == pytest.approx(-0.5 * (b * s).sum() * g.cell_area)
    # linear response: field scales with the source
    assert np.allclose(c.field_of(2.0 * s), 2.0 * b, atol=1e-12)


def test_pair_sign_conventions():
    from spintex.oracles import pair_interaction_energy
    g = Grid2D(nx=32, nz=32, lx=16.0, lz=16.0)
    e_side = pair_interaction_energy("z", g, SIGMA_Y, cn.CDD_HHZ_UM3)
    e_chain = pair_interaction_energy("x", g, SIGMA_Y, cn.CDD_HHZ_UM3)
    assert e_side == pytest.approx(8.061e-4, rel=1e-3)
    assert e_chain == pytest.approx(-1.143e-3, rel=1e-3)
    assert pair_interaction_energy("z", g, SIGMA_Y, cn.CDD_HHZ_UM3,
                                   flip_sign=True) \
        == pytest.approx(-e_side, rel=1e-12)


def test_helix_column_energy_frozen():
    for kappa, expected in COLUMN_CASES:
        got = helix_column_energy(kappa, SIGMA_Y, 230.0)
        assert got == pytest.approx(expected, abs=5e-9), f"kappa {kappa}"


def test_helix_column_energy_limits():
    d = derive_params(RunConfig())
    e_d = d.e_d_hz
    assert helix_column_energy(0.0, SIGMA_Y, 230.0) \
        == pytest.approx(e_d / 3.0, rel=1e-12)
    # tight winding releases exactly E_d relative to the uniform state
    tight = helix_column_energy(4000.0, SIGMA_Y, 230.0)
    assert tight == pytest.approx(-2.0 * e_d / 3.0, rel=1e-6)
    drop = helix_column_energy(0.0, SIGMA_Y, 230.0) - tight
    assert drop == pytest.approx(e_d, rel=1e-6)
    # stable far into the asymptotic tail (x >= 700 overflows a naive
    # exp(x) E1(x) evaluation)
    x_big = 60.0 / SIGMA_Y
    assert np.isfinite(helix_column_energy(x_big, SIGMA_Y, 230.0))


def test_helix_column_energy_monotone():
    kappas = np.linspace(0.0, 6.0, 40)
    vals = [helix_column_energy(k, SIGMA_Y, 230.0) for k in kappas]
    assert np.all(np.diff(vals) < 0.0)


def test_helix_column_energy_validation():
    with pytest.raises(InvalidParameter):
        helix_column_energy(-1.0, SIGMA_Y, 230.0)
    with pytest.raises(InvalidParameter):
        helix_column_energy(1.0, 0.0, 230.0)
    with pytest.raises(InvalidParameter):
        helix_column_energy(1.0, SIGMA_Y, -5.0)
