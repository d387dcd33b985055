import math

import numpy as np
import pytest
from scipy import linalg

from spintex.errors import GridMismatch, InvalidParameter
from spintex.field import (InitialState, MagnetizationField, add_noise,
                           imprint_helix, magnetization,
                           number_density, prepare_initial, rotate_spinor,
                           spin_density, spin_matrices, thomas_fermi_density,
                           transverse_state, zeeman_like_apply)
from spintex.grid import Grid2D

def test_spin_matrices_algebra():
    fx, fy, fz = spin_matrices()
    for f in (fx, fy, fz):
        assert np.allclose(f, f.conj().T)
    assert np.allclose(fx @ fy - fy @ fx, 1j * fz, atol=1e-15)
    assert np.allclose(fy @ fz - fz @ fy, 1j * fx, atol=1e-15)
    # spin-1 Casimir
    assert np.allclose(fx @ fx + fy @ fy + fz @ fz, 2 * np.eye(3))


def test_spin_density_cardinal_states():
    up = np.array([1.0, 0.0, 0.0], dtype=complex)
    down = np.array([0.0, 0.0, 1.0], dtype=complex)
    assert np.allclose(spin_density(up), [0, 0, 1])
    assert np.allclose(spin_density(down), [0, 0, -1])
    tx = transverse_state()
    assert np.allclose(spin_density(tx), [1, 0, 0], atol=1e-15)
    assert number_density(tx) == pytest.approx(1.0)


def test_spin_density_matches_matrix_element():
    rng = np.random.default_rng(3)
    psi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    fx, fy, fz = spin_matrices()
    s = spin_density(psi)
    for comp, f in zip(s, (fx, fy, fz)):
        assert comp == pytest.approx((psi.conj() @ f @ psi).real, abs=1e-13)


def test_rotate_spinor_tips_pole_to_equator():
    down = np.array([0.0, 0.0, 1.0], dtype=complex)   # spin along -z
    tipped = rotate_spinor(down, (0.0, 1.0, 0.0), -0.5 * math.pi)
    assert np.allclose(spin_density(tipped), [1, 0, 0], atol=1e-14)
    # quarter turn about x sends -z to -y... check via expectation values
    tipped = rotate_spinor(down, (1.0, 0.0, 0.0), 0.5 * math.pi)
    assert np.allclose(spin_density(tipped), [0, 1, 0], atol=1e-14)


def test_rotate_spinor_matches_dense_exponential():
    rng = np.random.default_rng(5)
    fx, fy, fz = spin_matrices()
    psi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    axis = np.array([0.3, -0.8, 0.52])
    axis /= np.linalg.norm(axis)
    angle = 1.234
    gen = angle * (axis[0] * fx + axis[1] * fy + axis[2] * fz)
    expected = linalg.expm(-1j * gen) @ psi
    assert np.allclose(rotate_spinor(psi, tuple(axis), angle), expected,
                       atol=1e-13)


def test_rotate_spinor_rejects_zero_axis():
    with pytest.raises(InvalidParameter):
        rotate_spinor(transverse_state(), (0.0, 0.0, 0.0), 1.0)


def test_imprint_helix_phase_advance():
    g = Grid2D(nx=8, nz=64, lx=4.0, lz=32.0)
    kappa = 2 * math.pi / 16.0
    psi = np.tile(transverse_state()[:, None, None], (1, g.nx, g.nz))
    wound = imprint_helix(psi, g, kappa)
    s = spin_density(wound)
    # transverse direction advances as kappa z; magnitude unchanged
    phase = np.angle(s[0] + 1j * s[1])
    expected = (kappa * g.z + math.pi) % (2 * math.pi) - math.pi
    mism = np.angle(np.exp(1j * (phase[0, :] - expected)))
    assert np.abs(mism).max() < 1e-12
    assert np.abs(s[2]).max() < 1e-14
    assert np.allclose(np.hypot(s[0], s[1]), number_density(wound))


def test_imprint_helix_shape_check():
    g = Grid2D(nx=8, nz=8, lx=4.0, lz=4.0)
    with pytest.raises(GridMismatch):
        imprint_helix(np.zeros((3, 8, 16), dtype=complex), g, 1.0)


def _dense_split(dt, u, q, vx, vy, vz):
    fx, fy, fz = spin_matrices()
    half_q = linalg.expm(-0.5j * dt * q * (fz @ fz))
    rot = linalg.expm(-1j * dt * (vx * fx + vy * fy + vz * fz))
    return np.exp(-1j * dt * u) * half_q @ rot @ half_q


def test_spin_rotation_matches_dense():
    # with u = q = 0 the local step is the closed-form rotation alone
    rng = np.random.default_rng(9)
    cases = [rng.standard_normal(3) for _ in range(25)]
    cases += [np.zeros(3),                          # v = 0: the limits
              np.array([1e-9, 0.0, 0.0]),           # |v| = 1e-9
              np.array([0.0, 6e-10, -8e-10]),       # |v| = 1e-9
              np.array([0.0, 0.0, 2.0])]            # pure Fz
    fx, fy, fz = spin_matrices()
    worst = 0.0
    for vx, vy, vz in cases:
        dense = linalg.expm(-1j * 0.83 * (vx * fx + vy * fy + vz * fz))
        got = zeeman_like_apply(np.eye(3, dtype=complex), 0.83, 0.0, 0.0,
                                vx, vy, vz)
        worst = max(worst, np.abs(got - dense).max())
    assert worst < 1e-12


def test_zeeman_like_apply_matches_dense_factors():
    rng = np.random.default_rng(13)
    cases = [rng.standard_normal(5) for _ in range(25)]
    cases += [np.array([1.0, 0.0, 0.0, 0.0, 0.0]),       # pure phase
              np.array([0.0, 2.0, 0.0, 0.0, 0.0]),       # pure q, v = 0
              np.array([0.3, 1e-12, 1e-9, 0.0, 0.0])]    # |v| = 1e-9
    worst = 0.0
    for u, q, vx, vy, vz in cases:
        got = zeeman_like_apply(np.eye(3, dtype=complex), 0.41, u, q,
                                vx, vy, vz)
        worst = max(worst,
                    np.abs(got - _dense_split(0.41, u, q, vx, vy, vz)).max())
    assert worst < 1e-12
    # on fields, site by site, with u and v arrays and q a scalar
    shape = (4, 4)
    psi = rng.standard_normal((3,) + shape) \
        + 1j * rng.standard_normal((3,) + shape)
    u = rng.standard_normal(shape)
    v = rng.standard_normal((3,) + shape)
    got = zeeman_like_apply(psi, 0.41, u, 1.3, v[0], v[1], v[2])
    for ix, iz in np.ndindex(shape):
        ref = _dense_split(0.41, u[ix, iz], 1.3, *v[:, ix, iz]) \
            @ psi[:, ix, iz]
        assert np.abs(got[:, ix, iz] - ref).max() < 1e-12


def test_zeeman_like_apply_split_error_is_third_order():
    fx, fy, fz = spin_matrices()
    u, q, vx, vy, vz = 0.3, 1.1, 0.7, -0.4, 0.9
    h = u * np.eye(3) + q * (fz @ fz) + vx * fx + vy * fy + vz * fz

    def err(dt):
        got = zeeman_like_apply(np.eye(3, dtype=complex), dt, u, q,
                                vx, vy, vz)
        return np.abs(got - linalg.expm(-1j * dt * h)).max()

    for dt in (0.2, 0.1):
        assert err(dt) / err(0.5 * dt) == pytest.approx(8.0, abs=1.5)


def test_zeeman_like_apply_unitary_on_fields():
    rng = np.random.default_rng(11)
    shape = (4, 6)
    psi = rng.standard_normal((3,) + shape) \
        + 1j * rng.standard_normal((3,) + shape)
    u = rng.standard_normal(shape)
    v = rng.standard_normal((3,) + shape)
    v[:, 0, 0] = 0.0
    out = zeeman_like_apply(psi, 0.3, u, 0.7, v[0], v[1], v[2])
    assert np.allclose(number_density(out), number_density(psi), atol=1e-12)


def test_magnetization_container():
    g = Grid2D(nx=8, nz=8, lx=4.0, lz=4.0)
    psi = np.tile(transverse_state()[:, None, None], (1, 8, 8)) * 2.0
    m = magnetization(psi, g)
    assert isinstance(m, MagnetizationField)
    assert np.allclose(m.n, 4.0)
    assert np.allclose(m.m[0], 4.0)
    with pytest.raises(GridMismatch):
        magnetization(psi[:, :4, :], g)


def test_thomas_fermi_profile():
    g = Grid2D(nx=64, nz=64, lx=40.0, lz=40.0)
    vx, vz = 1.0, 4.0
    n = thomas_fermi_density(g, vx, vz, 2.0, 1000.0)
    # integrates to the requested atom number (discretization level)
    assert n.sum() * g.cell_area == pytest.approx(1000.0, rel=5e-3)
    # inverted parabola: peak at center, zero beyond the edge
    assert n[32, 32] == n.max()
    assert n[0, 0] == 0.0
    # anisotropy follows the curvature ratio
    mu = 2.0 * n.max()
    rx = math.sqrt(mu / vx)
    rz = math.sqrt(mu / vz)
    assert rx / rz == pytest.approx(2.0, rel=1e-12)


def test_thomas_fermi_containment_error():
    g = Grid2D(nx=16, nz=16, lx=8.0, lz=8.0)
    with pytest.raises(InvalidParameter):
        thomas_fermi_density(g, 0.01, 0.01, 2.0, 1e6)


def test_prepare_initial_uniform():
    g = Grid2D(nx=16, nz=32, lx=8.0, lz=16.0)
    state = prepare_initial(g, "uniform", 640.0, 2.0, box_fill=1.0)
    assert isinstance(state, InitialState)
    n = number_density(state.psi)
    assert np.allclose(n, 5.0)                    # 640 / 128 um^2
    # all atoms in m = -1
    assert np.abs(state.psi[0]).max() == 0.0
    assert np.abs(state.psi[1]).max() == 0.0
    assert np.all(state.potential == 0.0)


def test_prepare_initial_trap():
    g = Grid2D(nx=64, nz=64, lx=40.0, lz=40.0)
    state = prepare_initial(g, "thomas-fermi", 1000.0, 2.0, vx=1.0, vz=4.0)
    assert number_density(state.psi).sum() * g.cell_area \
        == pytest.approx(1000.0, rel=1e-12)
    assert state.potential[32, 32] == pytest.approx(0.0)
    assert state.potential[0, 32] == pytest.approx(400.0)   # vx lx^2/4
    with pytest.raises(InvalidParameter):
        prepare_initial(g, "gaussian", 1000.0, 2.0)


def test_add_noise():
    rng = np.random.default_rng(17)
    g = Grid2D(nx=16, nz=16, lx=8.0, lz=8.0)
    psi = np.tile(transverse_state()[:, None, None], (1, 16, 16)) * 3.0
    noisy = add_noise(psi, 1e-3, rng)
    # renormalized exactly, perturbed slightly
    assert number_density(noisy).sum() \
        == pytest.approx(number_density(psi).sum(), rel=1e-12)
    dev = np.abs(noisy - psi).max() / 3.0
    assert 1e-5 < dev < 1e-2
    # zero amplitude is the identity
    assert add_noise(psi, 0.0, rng) is psi
    with pytest.raises(InvalidParameter):
        add_noise(psi, -1e-3, rng)
    # deterministic per generator state
    a = add_noise(psi, 1e-3, np.random.default_rng(5))
    b = add_noise(psi, 1e-3, np.random.default_rng(5))
    assert np.array_equal(a, b)
