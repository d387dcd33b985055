import math
import re

import numpy as np
import pytest
from scipy import linalg

from spintex.errors import GridMismatch, InvalidParameter
from spintex.field import (add_noise, imprint_helix, local_scratch,
                           number_density, prepare_initial, rotate_spinor,
                           spin_density, spin_matrices, thomas_fermi_density,
                           zeeman_like_apply)
from spintex.grid import Grid2D

# one site fully magnetized along +x
TRANSVERSE = np.array([0.5, 1.0 / math.sqrt(2.0), 0.5], dtype=complex)


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
    tx = TRANSVERSE
    assert np.allclose(spin_density(tx), [1, 0, 0], atol=1e-15)
    assert number_density(tx) == pytest.approx(1.0)


def test_spin_density_matches_matrix_element():
    rng = np.random.default_rng(3)
    fx, fy, fz = spin_matrices()
    site = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    field = rng.standard_normal((3, 6, 5)) + 1j * rng.standard_normal((3, 6, 5))
    # a single site, whose components are 0-d, and a block of rows written
    # into a block of a larger array
    held_s, held_n = np.zeros((3, 10, 5)), np.zeros((10, 5))
    for psi, out_s, out_n in ((site, np.empty(3), np.empty(())),
                              (field[:, 2:5], held_s[:, 4:7], held_n[4:7])):
        expected = [np.einsum("a...,ab,b...->...", psi.conj(), f, psi).real
                    for f in (fx, fy, fz)]
        s = spin_density(psi)
        for comp, ref in zip(s, expected):
            assert np.allclose(comp, ref, rtol=0.0, atol=1e-13)
        assert spin_density(psi, out=out_s) is out_s
        assert np.array_equal(out_s, s)
        n = number_density(psi)
        assert np.allclose(n, (np.abs(psi)**2).sum(axis=0), rtol=1e-15)
        assert number_density(psi, out=out_n) is out_n
        assert np.array_equal(out_n, n)
    assert not held_s[:, :4].any() and not held_s[:, 7:].any()
    assert not held_n[:4].any() and not held_n[7:].any()


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
        rotate_spinor(TRANSVERSE, (0.0, 0.0, 0.0), 1.0)
    # and an axis that is not three finite numbers
    for axis in ((1.0, 0.0), (1.0, 0.0, 0.0, 0.0), (1.0, float("nan"), 0.0),
                 ((1.0, 0.0, 0.0),)):
        with pytest.raises(InvalidParameter,
                           match=r"rotation axis must be three finite "
                                 r"numbers, got " + re.escape(repr(axis))):
            rotate_spinor(TRANSVERSE, axis, 1.0)


def test_imprint_helix_phase_advance():
    g = Grid2D(nx=8, nz=64, lx=4.0, lz=32.0)
    kappa = 2 * math.pi / 16.0
    psi = np.tile(TRANSVERSE[:, None, None], (1, g.nx, g.nz))
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


def _allocating_spin_rotation(psi, theta, vx, vy, vz):
    # the closed form as it was before it wrote through out=, frozen as the
    # bit-for-bit reference of the in-place one
    v2 = vx * vx + vy * vy + vz * vz
    zero = v2 == 0
    vabs = np.sqrt(np.where(zero, 1.0, v2))
    half = 0.5 * theta * vabs
    sin_h = np.sin(half)
    cos_h = np.cos(half)
    c1 = np.where(zero, theta, 2.0 * sin_h * cos_h / vabs).astype(complex)
    c2 = np.where(zero, -0.5 * theta * theta,
                  -2.0 * sin_h * sin_h / (vabs * vabs)).astype(complex)
    vz = np.asarray(vz, dtype=complex)
    vm = (vx - 1j * vy) / math.sqrt(2.0)
    vp = np.conj(vm)

    def vdotf(a, b, c):
        return vz * a + vm * b, vp * a + vm * c, vp * b - vz * c

    a, b, c = psi
    wa, wb, wc = vdotf(a, b, c)
    ya, yb, yc = vdotf(c2 * wa - 1j * (c1 * a), c2 * wb - 1j * (c1 * b),
                       c2 * wc - 1j * (c1 * c))
    return a + ya, b + yb, c + yc


def _allocating_local_step(psi, dt, u, q, vx, vy, vz):
    half_q = np.exp(-0.5j * dt * q)
    a, b, c = _allocating_spin_rotation(
        (half_q * psi[0], psi[1], half_q * psi[2]), dt, vx, vy, vz)
    phase = np.exp(-1j * dt * u)
    phase_q = half_q * phase
    return np.stack([phase_q * a, phase * b, phase_q * c])


def test_local_step_is_the_allocating_closed_form_bit_for_bit():
    rng = np.random.default_rng(21)
    psi = rng.standard_normal((3, 12, 7)) + 1j * rng.standard_normal((3, 12, 7))
    block = psi[:, 3:8]
    u = rng.standard_normal((5, 7))
    v = rng.standard_normal((3, 5, 7))
    v[:, 0, :3] = 0.0                                   # v = 0: the limits
    v[:, 1, 0] = (1e-9, 0.0, 0.0)                       # |v| = 1e-9
    v[:, 1, 1] = (0.0, 6e-10, -8e-10)
    before = psi.copy()
    held = np.zeros((3, 16, 7), dtype=complex)
    # as the stepper calls it: out a block of a larger array, and a
    # scratch set of the block's shape
    work = local_scratch((5, 7))
    for dt, q in ((0.41, 1.3), (1e-3, 0.0), (2.9, -0.6)):
        ref = _allocating_local_step(block, dt, u, q, *v)
        out = held[:, 6:11]
        assert zeeman_like_apply(block, dt, u, q, *v, out=out,
                                 work=work) is out
        assert np.array_equal(out, ref)
        assert np.array_equal(zeeman_like_apply(block, dt, u, q, *v), ref)
    assert np.array_equal(psi, before)
    assert not held[:, :6].any() and not held[:, 11:].any()
    # scalar u and v broadcast over the sites, as check_expm calls it: the
    # sites' arithmetic is that of arrays of the scalars (numpy's scalar
    # complex product may differ from its array loop in the last bit)
    basis = np.eye(3, dtype=complex)
    for u0, q0, v0 in ((0.3, 1.1, rng.standard_normal(3)),
                       (1.3, 0.0, np.zeros(3)),
                       (0.7, 1e-9, np.array([1e-9, 0.0, 0.0]))):
        spread = [np.full(3, x) for x in (u0, *v0)]
        assert np.array_equal(zeeman_like_apply(basis, 0.37, u0, q0, *v0),
                              _allocating_local_step(basis, 0.37, spread[0],
                                                     q0, *spread[1:]))
    # and the pulse matrix of rotate_spinor
    axis = np.array([0.3, -0.8, 0.52])
    rot = np.stack(_allocating_spin_rotation(
        basis, 1.234, *(axis / np.linalg.norm(axis))))
    assert np.array_equal(rotate_spinor(block, tuple(axis), 1.234),
                          np.einsum("ab,b...->a...", rot, block))


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
    psi, potential = prepare_initial(g, "uniform", 640.0, 2.0)
    n = number_density(psi)
    assert np.allclose(n, 5.0)                    # 640 / 128 um^2
    # the same density at every site
    assert np.all(n == n[0, 0])
    # all atoms in m = -1
    assert np.abs(psi[0]).max() == 0.0
    assert np.abs(psi[1]).max() == 0.0
    assert np.all(potential == 0.0)


def test_prepare_initial_trap():
    g = Grid2D(nx=64, nz=64, lx=40.0, lz=40.0)
    psi, potential = prepare_initial(g, "thomas-fermi", 1000.0, 2.0,
                                     vx=1.0, vz=4.0)
    assert number_density(psi).sum() * g.cell_area \
        == pytest.approx(1000.0, rel=1e-12)
    assert potential[32, 32] == pytest.approx(0.0)
    assert potential[0, 32] == pytest.approx(400.0)   # vx lx^2/4
    with pytest.raises(InvalidParameter):
        prepare_initial(g, "gaussian", 1000.0, 2.0)


def test_add_noise():
    rng = np.random.default_rng(17)
    g = Grid2D(nx=16, nz=16, lx=8.0, lz=8.0)
    psi = np.tile(TRANSVERSE[:, None, None], (1, 16, 16)) * 3.0
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
