import math

import numpy as np
import pytest
from scipy import stats

from spintex import constants as cn
from spintex import dynamics, field, oracles
from spintex.dipole import DipolarCoupling
from spintex.dynamics import Evolver, evolve, make_cancellation_schedule
from spintex.errors import GridMismatch, InvalidParameter, NumericalFailure
from spintex.field import (add_noise, imprint_helix, number_density,
                           rotate_spinor, spin_density)
from spintex.grid import Grid2D
from spintex.io_text import RunConfig
from spintex.params import derive_params

D = derive_params(RunConfig())
SIGMA_Y = 1.8 / math.sqrt(5.0)
NBAR = D.n2d_peak
# one site fully magnetized along +x
TRANSVERSE = np.array([0.5, 1.0 / math.sqrt(2.0), 0.5], dtype=complex)


def make_evolver(grid, dt=0.05, q=D.q_hz, c0=D.c0_2d, c2=D.c2_2d,
                 mode="bare", potential=None):
    return Evolver(grid, dt, q_hz=q, c0_2d=c0, c2_2d=c2, sigma_y_um=SIGMA_Y,
                   c_dd=cn.CDD_HHZ_UM3, kernel_mode=mode,
                   potential=potential)


def uniform_transverse(grid, nbar=NBAR):
    psi = np.tile(TRANSVERSE[:, None, None],
                  (1, grid.nx, grid.nz)).astype(complex)
    return psi * math.sqrt(nbar)


def atom_number(psi, grid):
    return number_density(psi).sum() * grid.cell_area


def test_spec_validation():
    g = Grid2D(nx=8, nz=8, lx=4.0, lz=4.0)
    for dt in (0.0, -0.1, 0.25):
        with pytest.raises(InvalidParameter):
            make_evolver(g, dt=dt)
    for sigma in (0.0, -1.0):
        with pytest.raises(InvalidParameter):
            Evolver(g, 0.05, q_hz=0.0, c0_2d=0.0, c2_2d=0.0,
                    sigma_y_um=sigma, c_dd=1.0, kernel_mode="bare")
    # with the coupling off, sigma_y_um is unused
    Evolver(g, 0.05, q_hz=0.0, c0_2d=0.0, c2_2d=0.0, sigma_y_um=0.0,
            c_dd=1.0, kernel_mode="off")
    with pytest.raises(InvalidParameter):
        make_evolver(g, mode="secular")
    with pytest.raises(InvalidParameter):
        make_evolver(g, potential=np.zeros((4, 4)))


def test_free_particle_plane_wave():
    g = Grid2D(nx=8, nz=32, lx=8.0, lz=32.0)
    ev = make_evolver(g, q=0.0, c0=0.0, c2=0.0, mode="off")
    k = 2 * math.pi * 3 / g.lz
    psi = np.zeros((3, g.nx, g.nz), dtype=complex)
    psi[1] = np.exp(1j * k * g.z)[None, :]
    out = evolve(psi, ev, 1)
    expected = psi * np.exp(-1j * cn.KIN_COEF * k * k * 0.05)
    assert np.abs(out - expected).max() < 1e-12
    # single-step norm error
    assert abs(atom_number(out, g) / atom_number(psi, g) - 1.0) < 1e-10


def test_norm_drift_3000_steps():
    g = Grid2D(nx=32, nz=32, lx=16.0, lz=16.0)
    ev = make_evolver(g)
    rng = np.random.default_rng(7)
    psi = uniform_transverse(g)
    psi = psi * (1.0 + 1e-3 * (rng.standard_normal(psi.shape)
                               + 1j * rng.standard_normal(psi.shape)))
    n0 = atom_number(psi, g)
    psi = evolve(psi, ev, 3000)
    assert abs(atom_number(psi, g) / n0 - 1.0) < 1e-8


def test_uniform_transverse_stationary_kernel_off():
    g = Grid2D(nx=16, nz=16, lx=8.0, lz=8.0)
    ev = make_evolver(g, q=0.0, mode="off")
    psi = uniform_transverse(g)
    s0 = spin_density(psi)
    psi = evolve(psi, ev, 1000)           # 50 ms
    ds = np.abs(spin_density(psi) - s0).max() / NBAR
    assert ds < 1e-6


def test_single_site_oscillation_vs_oracle():
    # q > 0, kernel off: M_z stays zero, transverse amplitude
    # oscillates; cross-check the full stepper against independent
    # integration of the on-site three-level problem
    g = Grid2D(nx=8, nz=8, lx=4.0, lz=4.0)
    ev = make_evolver(g, dt=0.01, mode="off")
    psi = uniform_transverse(g)
    t = np.arange(0.0, 2.0 + 1e-12, 0.01)
    ref = oracles.single_site_reference(
        TRANSVERSE * math.sqrt(NBAR), t, q_hz=D.q_hz,
        c0n_hz=D.c0_2d * NBAR, c2_2d=D.c2_2d, c_dd=0.0)
    worst = 0.0
    sz_max = 0.0
    for i in range(1, len(t)):
        psi = evolve(psi, ev, 1)
        worst = max(worst, np.abs(psi[:, 0, 0] - ref[i]).max()
                    / math.sqrt(NBAR))
        sz_max = max(sz_max, abs(spin_density(psi)[2].max()) / NBAR)
    assert worst < 1e-8
    assert sz_max < 1e-10
    # the transverse amplitude really does oscillate
    s_perp = np.hypot(*spin_density(psi)[:2])[0, 0] / NBAR
    assert s_perp < 1.0 - 1e-6


def test_helix_matches_wound_single_site():
    # on a uniform background a helix of lattice wavevector kappa is
    # exactly a uniform state in the co-winding gauge with an extra
    # quadratic shift kappa^2 * E_K; the grid evolution must follow the
    # single-site reference after unwinding
    g = Grid2D(nx=8, nz=64, lx=4.0, lz=60.0)
    kappa = 2 * math.pi / 60.0
    ev = make_evolver(g, q=0.0, mode="off")
    psi = imprint_helix(uniform_transverse(g), g, kappa)
    t = np.array([0.0, 50.0])
    ref = oracles.single_site_reference(
        TRANSVERSE * math.sqrt(NBAR), t, q_hz=0.0,
        c0n_hz=D.c0_2d * NBAR, c2_2d=D.c2_2d, c_dd=0.0,
        q_kin_hz=cn.EKIN_HHZ_PER_K2 * kappa**2)
    psi = evolve(psi, ev, 1000)
    expected = imprint_helix(
        np.tile(ref[-1][:, None, None], (1, g.nx, g.nz)), g, kappa)
    err = np.abs(spin_density(psi) - spin_density(expected)).max() / NBAR
    assert err < 1e-4
    # the breathing predicted by the mapping is real: the transverse
    # amplitude departs from its initial value by much more than 1e-6
    s_perp = np.hypot(*spin_density(ref[-1])[:2]) / NBAR
    assert 1e-6 < 1.0 - s_perp < 1e-2


def test_roll_covariance():
    # periodic translation along z commutes with the full step
    g = Grid2D(nx=8, nz=32, lx=8.0, lz=32.0)
    ev = make_evolver(g)
    rng = np.random.default_rng(21)
    psi = imprint_helix(uniform_transverse(g), g, 2 * math.pi / 16.0)
    psi = psi * (1.0 + 1e-2 * (rng.standard_normal(psi.shape)
                               + 1j * rng.standard_normal(psi.shape)))
    a = evolve(np.roll(psi, 5, axis=2), ev, 40)
    b = np.roll(evolve(psi, ev, 40), 5, axis=2)
    assert np.abs(a - b).max() / np.abs(b).max() < 1e-10


def test_convergence_is_second_order():
    g = Grid2D(nx=32, nz=32, lx=16.0, lz=16.0)
    psi0 = imprint_helix(uniform_transverse(g), g, 2 * math.pi / 8.0)
    t_final = 2.0

    def run_at(dt):
        ev = make_evolver(g, dt=dt)
        return evolve(psi0.copy(), ev, int(round(t_final / dt)))

    ref = run_at(0.00125)
    dts = np.array([0.04, 0.02, 0.01])
    errs = np.array([np.abs(run_at(dt) - ref).max() for dt in dts])
    slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
    assert slope == pytest.approx(2.0, abs=0.2)


def test_energy_conservation_short():
    g = Grid2D(nx=32, nz=32, lx=16.0, lz=16.0)
    ev = make_evolver(g)
    rng = np.random.default_rng(3)
    psi = imprint_helix(uniform_transverse(g), g, 2 * math.pi / 16.0)
    psi = psi * (1.0 + 1e-3 * (rng.standard_normal(psi.shape)
                               + 1j * rng.standard_normal(psi.shape)))
    e0 = ev.energy_budget(psi)["e_total"]
    psi = evolve(psi, ev, 1000)           # 50 ms
    e1 = ev.energy_budget(psi)["e_total"]
    assert abs(e1 / e0 - 1.0) < 1e-4


def test_energy_budget_terms():
    g = Grid2D(nx=16, nz=64, lx=8.0, lz=60.0)
    ev = make_evolver(g)
    kappa = 2 * math.pi / 60.0
    psi = imprint_helix(uniform_transverse(g), g, kappa)
    e = ev.energy_per_atom(psi)
    # helix winding energy per atom, h*Hz
    assert e["e_kin"] == pytest.approx(cn.EKIN_HHZ_PER_K2 * kappa**2 / 2.0,
                                       rel=0.02)
    assert e["e_kin"] == pytest.approx(0.3189, abs=0.0075)
    assert e["e_zeeman"] == pytest.approx(D.q_hz / 2.0, rel=1e-12)
    assert e["e_zeeman"] == pytest.approx(0.9747, abs=2e-4)
    assert e["e_c0"] == pytest.approx(0.5 * D.c0_2d * NBAR, rel=1e-12)
    assert e["e_c2"] == pytest.approx(0.5 * D.c2_2d * NBAR, rel=1e-6)
    budget = ev.energy_budget(psi)
    parts = sum(v for k, v in budget.items() if k != "e_total")
    assert budget["e_total"] == pytest.approx(parts, rel=1e-12)


def test_modulated_texture_kinetic_energy():
    # half the magnetization weight wound at k_mod, half uniform: the
    # kinetic energy per atom is half the k_mod winding energy
    g = Grid2D(nx=8, nz=512, lx=8.0, lz=200.0)
    k_mod = 2 * math.pi / 10.0
    psi = uniform_transverse(g)
    wound = imprint_helix(psi, g, k_mod)
    half = (g.z >= 0.0)[None, None, :]
    psi = np.where(half, wound, psi)
    ev = make_evolver(g)
    e_kin = ev.energy_per_atom(psi)["e_kin"]
    assert e_kin == pytest.approx(cn.EKIN_HHZ_PER_K2 * k_mod**2 / 4.0,
                                  rel=0.05)
    assert e_kin == pytest.approx(5.739, rel=0.06)
    # spectral weight really is split half and half
    m = spin_density(psi)
    mk = np.abs(np.fft.fft(m[0] + 1j * m[1], axis=-1))**2
    total = mk.sum()
    kz = 2 * math.pi * np.fft.fftfreq(g.nz, d=g.dz)
    near = np.abs(np.abs(kz) - k_mod) < 0.1
    assert 0.4 < mk[:, near].sum() / total < 0.6


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_nan_detection(monkeypatch):
    g = Grid2D(nx=8, nz=8, lx=4.0, lz=4.0)
    ev = make_evolver(g)
    psi = uniform_transverse(g)
    psi[1, 0, 0] = np.nan
    with pytest.raises(NumericalFailure,
                       match=r"in step 1 \(t = 0\.05 ms\), first at "
                             r"site \(ix, iz\) = \(0, 0\)"):
        evolve(psi, ev, 1)
    # a failure born in the local step is reported where it began
    # (the dipolar convolution would spread it, so dipoles are off)
    potential = np.zeros(g.shape)
    potential[3, 5] = np.inf
    ev = make_evolver(g, mode="off", potential=potential)
    with pytest.raises(NumericalFailure,
                       match=r"in step 1 \(t = 0\.05 ms\), first at "
                             r"site \(ix, iz\) = \(3, 5\)"):
        evolve(uniform_transverse(g), ev, 3)
    # the same report when the bad site lies in the last of several
    # blocks (four of 2 rows)
    monkeypatch.setattr(dynamics, "_BLOCK_SITES", 16)
    potential = np.zeros(g.shape)
    potential[7, 2] = np.inf
    ev = make_evolver(g, mode="off", potential=potential)
    with pytest.raises(NumericalFailure,
                       match=r"in step 1 \(t = 0\.05 ms\), first at "
                             r"site \(ix, iz\) = \(7, 2\)"):
        evolve(uniform_transverse(g), ev, 3)


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_a_failure_names_the_step_of_its_own_evolve_call():
    # one evolver serves many evolve calls; the step clock is evolve's
    g = Grid2D(nx=8, nz=8, lx=4.0, lz=4.0)
    ev = make_evolver(g)
    evolve(uniform_transverse(g), ev, 5)
    psi = uniform_transverse(g)
    psi[1, 2, 3] = np.nan
    with pytest.raises(NumericalFailure, match=r"in step 1 \(t = 0\.05 ms\)"):
        evolve(psi, ev, 3)


def test_evolve_in_one_segment_equals_single_steps():
    g = Grid2D(nx=16, nz=32, lx=8.0, lz=32.0)
    psi0 = add_noise(imprint_helix(uniform_transverse(g), g,
                                   2 * math.pi / 16.0),
                     1e-2, np.random.default_rng(4))
    # the kinetic merge: with the dipoles off, a segment's merged half
    # steps are one-step segments up to rounding
    off = make_evolver(g, mode="off")
    merged = evolve(psi0, off, 10)
    single = psi0
    for _ in range(10):
        single = evolve(single, off, 1)
    assert np.abs(merged - single).max() < 1e-12 * np.abs(single).max()
    # the carry: a dipolar segment threads each step's midpoint field
    # into the next step (one-step segments differ by 5.3e-8 relative)
    ev = make_evolver(g)
    merged = evolve(psi0, ev, 10)
    by_hand, b = ev._kinetic(psi0, ev._kin_half), None
    for k in range(1, 11):
        by_hand, b = ev.step(by_hand, k, k == 10, b)
    assert np.array_equal(merged, by_hand)
    # stopping for the observer after every step is ten one-step segments
    single = psi0
    for _ in range(10):
        single = evolve(single, ev, 1)
    stopped = evolve(psi0, ev, 10, observer=lambda n, p: None,
                     observe_every=1)
    assert np.array_equal(stopped, single)


def test_a_stop_starts_a_fresh_dipolar_field():
    # a segment is a function of its input field alone: no midpoint
    # field is carried over a pulse or an observation
    g = Grid2D(nx=8, nz=16, lx=4.0, lz=8.0)
    ev = make_evolver(g)
    psi0 = add_noise(imprint_helix(uniform_transverse(g), g,
                                   2 * math.pi / 8.0),
                     1e-2, np.random.default_rng(9))
    turn = ((0.0, 1.0, 0.0), math.pi / 2)
    pulsed = evolve(psi0, ev, 7, pulses={3: [turn]})
    by_parts = evolve(rotate_spinor(evolve(psi0, ev, 3), *turn), ev, 4)
    assert np.array_equal(pulsed, by_parts)
    seen = {}
    observed = evolve(psi0, ev, 7, observer=lambda n, p: seen.setdefault(n, p),
                      observe_every=4)
    assert sorted(seen) == [0, 4, 7]
    assert np.array_equal(seen[4], evolve(psi0, ev, 4))
    assert np.array_equal(observed, evolve(seen[4], ev, 3))


def test_blocks_of_rows_do_not_change_the_step(monkeypatch):
    # the step runs whole blocks only, which needs a power of two here
    # (Grid2D's sizes are powers of two)
    assert dynamics._BLOCK_SITES & (dynamics._BLOCK_SITES - 1) == 0
    # 16 sites are 2 rows of an 8-wide grid: eight blocks of 2 rows
    g = Grid2D(nx=16, nz=8, lx=8.0, lz=8.0)
    potential = np.random.default_rng(6).random(g.shape)
    psi0 = add_noise(imprint_helix(uniform_transverse(g), g,
                                   2 * math.pi / 4.0),
                     1e-2, np.random.default_rng(5))
    results = []
    for block_sites in (g.nx * g.nz, 16):
        monkeypatch.setattr(dynamics, "_BLOCK_SITES", block_sites)
        ev = make_evolver(g, potential=potential)
        results.append(evolve(psi0, ev, 5))
    assert np.array_equal(results[0], results[1])


def test_kinetic_step_matches_its_per_component_transform():
    # a transform written into a held buffer must give the fresh one's
    # bits (numpy's ifft2 returns a new array and leaves out= unwritten)
    g = Grid2D(nx=8, nz=16, lx=4.0, lz=8.0)
    ev = make_evolver(g)
    psi = add_noise(imprint_helix(uniform_transverse(g), g, 2 * math.pi / 8.0),
                    1e-2, np.random.default_rng(8))
    before = psi.copy()
    for mult in (ev._kin_half, ev._kin_full):
        got = ev._kinetic(psi, mult)
        for c in range(3):
            assert np.array_equal(got[c],
                                  np.fft.ifft2(np.fft.fft2(psi[c]) * mult))
    assert np.array_equal(psi, before)


def test_evolve_steps_any_layout_and_dtype_of_the_field():
    # a Fortran-ordered field steps to the bytes of its C-ordered copy, a
    # real one to those of its complex copy
    g = Grid2D(nx=8, nz=16, lx=4.0, lz=8.0)
    ev = make_evolver(g)
    psi = add_noise(imprint_helix(uniform_transverse(g), g, 2 * math.pi / 8.0),
                    1e-2, np.random.default_rng(12))
    ref = evolve(psi, ev, 3)
    assert np.array_equal(evolve(np.asfortranarray(psi), ev, 3), ref)
    real = np.ascontiguousarray(psi.real)
    assert np.array_equal(evolve(real, ev, 3),
                          evolve(real.astype(complex), ev, 3))


def test_evolve_refuses_a_field_of_another_shape():
    g = Grid2D(nx=16, nz=32, lx=8.0, lz=32.0)
    ev = make_evolver(g)
    for shape in ((3, 8, 8), (2, 16, 32), (3, 32, 16)):
        with pytest.raises(GridMismatch,
                           match=rf"field shape \({shape[0]}, {shape[1]}, "
                                 rf"{shape[2]}\) .* grid \(16, 32\)"):
            evolve(np.zeros(shape, dtype=complex), ev, 2)


def test_each_step_is_one_call_with_two_local_steps(monkeypatch):
    # the step reaches the local step and the spin density through the
    # dynamics module's globals, which the benchmark's tracer patches
    assert dynamics.zeeman_like_apply is field.zeeman_like_apply
    assert dynamics.spin_density is field.spin_density
    calls = {"step": 0, "local": 0, "density": 0, "field": 0}
    step, local = dynamics.Evolver.step, dynamics.zeeman_like_apply
    density = dynamics.spin_density
    field_of = DipolarCoupling.field_of

    def counted_step(*args, **kwargs):
        calls["step"] += 1
        return step(*args, **kwargs)

    def counted_local(*args, **kwargs):
        calls["local"] += 1
        return local(*args, **kwargs)

    def counted_density(*args, **kwargs):
        calls["density"] += 1
        return density(*args, **kwargs)

    def counted_field(*args, **kwargs):
        calls["field"] += 1
        return field_of(*args, **kwargs)

    monkeypatch.setattr(dynamics.Evolver, "step", counted_step)
    monkeypatch.setattr(dynamics, "zeeman_like_apply", counted_local)
    monkeypatch.setattr(dynamics, "spin_density", counted_density)
    monkeypatch.setattr(DipolarCoupling, "field_of", counted_field)
    g = Grid2D(nx=8, nz=8, lx=4.0, lz=4.0)
    ev = make_evolver(g)
    pulses = {3: [((0.0, 1.0, 0.0), math.pi / 2)]}
    # stops after steps 3, 6 and 7: three segments, each opening with its
    # own dipolar convolution, then one per step
    evolve(uniform_transverse(g), ev, 7, pulses=pulses,
           observer=lambda n, p: None, observe_every=3)
    # spin densities: loop A's of psi and loop B's of the predicted field
    assert calls == {"step": 7, "local": 14, "density": 14, "field": 7 + 3}
    # on several blocks: two local steps and two spin densities per block
    # and step, so 2 x 4 blocks (2 rows of 8 sites each) x 7 steps; the
    # convolutions are over the whole grid
    monkeypatch.setattr(dynamics, "_BLOCK_SITES", 16)
    calls.update(step=0, local=0, density=0, field=0)
    evolve(uniform_transverse(g), ev, 7, pulses=pulses,
           observer=lambda n, p: None, observe_every=3)
    assert calls == {"step": 7, "local": 2 * 4 * 7, "density": 2 * 4 * 7,
                     "field": 7 + 3}


def test_pulses_land_on_the_first_boundary_at_or_after_them():
    # make_cancellation_schedule against a stand-in RNG whose exponential
    # draws are chosen gaps between pulse times
    dt = 0.05

    class Gaps:
        def __init__(self, times):
            self.gaps = list(np.diff([0.0] + times)) + [1.0]
            self.draws = []

        def exponential(self, scale):
            self.draws.append("exponential")
            return self.gaps.pop(0)

        def uniform(self, low, high):
            self.draws.append("uniform")
            return 0.0

    def first_boundary(t):
        # the rule of the step-by-step loop: after step n, fire every
        # pending pulse with time <= n*dt + 1e-9
        return next(n for n in range(1, 100) if t <= n * dt + 1e-9)

    def fired_at(times):
        rng = Gaps(times)
        pulses = make_cancellation_schedule(1.0, 0.45, dt, rng)
        # one exponential draw, then one uniform draw per pulse
        assert rng.draws == ["exponential", "uniform"] * len(times) \
            + ["exponential"]
        assert all(p == ((1.0, 0.0, 0.0), math.pi / 2)
                   for ps in pulses.values() for p in ps)
        return [n for n in sorted(pulses) for _ in pulses[n]]

    times = [0.0, 1e-10, 0.15, 0.15 + 1e-10, 0.15 - 1e-10, 0.15 + 2e-9]
    for k in range(1, 9):
        times += [k * dt, k * dt + 1e-10, k * dt - 1e-10, k * dt + 2e-9]
    for t in times:
        assert fired_at([t]) == [first_boundary(t)], t
    # several pulses, two of them between the same pair of boundaries
    several = [0.01, 0.11, 0.12, 0.15 + 2e-9, 0.3]
    assert fired_at(several) == [first_boundary(t) for t in several] \
        == [1, 3, 3, 4, 6]
    # pinned cases: on the boundary, within the clock's 1e-9, past it
    assert [first_boundary(t) for t in (0.0, 0.15, 3 * dt + 1e-10,
                                        3 * dt + 2e-9, 8 * dt + 2e-9)] \
        == [1, 3, 3, 4, 9]


def test_energy_per_atom_requires_atoms():
    g = Grid2D(nx=8, nz=8, lx=4.0, lz=4.0)
    ev = make_evolver(g)
    with pytest.raises(NumericalFailure):
        ev.energy_per_atom(np.zeros((3, 8, 8), dtype=complex))


def test_pulse_schedule_validation():
    g = Grid2D(nx=8, nz=8, lx=4.0, lz=4.0)
    ev = make_evolver(g, q=0.0, c0=0.0, c2=0.0, mode="off")
    psi = uniform_transverse(g)
    rng = np.random.default_rng(1)
    # an infinite rate would draw zero gaps forever
    for rate in (0.0, float("nan"), float("inf")):
        with pytest.raises(InvalidParameter, match="pulse rate"):
            make_cancellation_schedule(rate, 100.0, 0.05, rng)
    with pytest.raises(InvalidParameter, match="t_final_ms"):
        make_cancellation_schedule(1.0, -5.0, 0.05, rng)
    with pytest.raises(InvalidParameter, match="dt_ms"):
        make_cancellation_schedule(1.0, 100.0, 0.0, rng)
    # a pulse step that evolve would never reach is refused, not dropped
    for step in (0, 8, -1, 2.0, "3"):
        with pytest.raises(InvalidParameter,
                           match=f"pulse step {step!r} is not an integer "
                                 f"in 1..7"):
            evolve(psi, ev, 7, pulses={step: [((1.0, 0.0, 0.0), 1.0)]})
    nan, inf = float("nan"), float("inf")
    for axis, angle, field in (((nan, 0.0, 0.0), 1.0, "axis"),
                               ((1.0, 0.0, -inf), 1.0, "axis"),
                               ((1.0, 0.0, 0.0), nan, "angle"),
                               ((1.0, 0.0, 0.0), -inf, "angle")):
        with pytest.raises(InvalidParameter, match=f"rotation {field}"):
            rotate_spinor(psi, axis, angle)
        with pytest.raises(InvalidParameter, match=f"rotation {field}"):
            evolve(psi, ev, 7, pulses={2: [(axis, angle)]})


def test_cancellation_schedule_statistics():
    # fixed seed set: a Poisson(200) count occasionally leaves the 3
    # sigma band (seed 22 gives 245), so the band check uses a frozen
    # block of seeds verified to behave typically
    def train(rate, t_final, seed):
        pulses = make_cancellation_schedule(rate, t_final, 0.05,
                                            np.random.default_rng(seed))
        return [p for n in sorted(pulses) for p in pulses[n]]

    counts = [len(train(1.0, 200.0, seed)) for seed in range(100, 130)]
    lo, hi = 200 - 3 * math.sqrt(200), 200 + 3 * math.sqrt(200)
    assert all(lo <= c <= hi for c in counts)
    assert 190 < np.mean(counts) < 210
    # reproducible from the seed
    a = make_cancellation_schedule(1.5, 100.0, 0.05,
                                   np.random.default_rng(42))
    b = make_cancellation_schedule(1.5, 100.0, 0.05,
                                   np.random.default_rng(42))
    assert a == b
    # every step of the run, 1..2000, can hold pulses, and no other
    assert min(a) >= 1 and max(a) <= 2000
    # pi/2 pulses about unit axes in the spin x-y plane
    big = train(1.0, 10000.0, 9)
    axes = np.array([axis for axis, _ in big])
    angles = np.array([angle for _, angle in big])
    assert np.abs(angles - math.pi / 2).max() == 0.0
    assert np.abs(axes[:, 2]).max() == 0.0
    assert np.abs(np.hypot(axes[:, 0], axes[:, 1]) - 1.0).max() < 1e-12
    phi = np.arctan2(axes[:, 1], axes[:, 0])
    ks = stats.kstest(phi, stats.uniform(loc=-math.pi,
                                         scale=2 * math.pi).cdf)
    assert len(big) >= 1e4 * 0.9
    assert ks.pvalue > 0.01


def test_evolve_contract():
    g = Grid2D(nx=8, nz=8, lx=4.0, lz=4.0)
    ev = make_evolver(g, q=0.0, c0=0.0, c2=0.0, mode="off")
    psi = uniform_transverse(g)
    seen = []
    out = evolve(psi, ev, 0, observer=lambda n, p: seen.append(n))
    assert seen == [0]
    assert out is psi
    with pytest.raises(InvalidParameter):
        evolve(psi, ev, -1)
    with pytest.raises(InvalidParameter):
        evolve(psi, ev, 20, observer=lambda n, p: None, observe_every=-1)
    # step 0, every observe_every steps, and the last step once
    seen = []
    evolve(psi, ev, 7, observer=lambda n, p: seen.append(n), observe_every=3)
    assert seen == [0, 3, 6, 7]
    seen = []
    evolve(psi, ev, 6, observer=lambda n, p: seen.append(n), observe_every=3)
    assert seen == [0, 3, 6]


def test_evolve_applies_pulse_at_next_boundary():
    g = Grid2D(nx=8, nz=8, lx=4.0, lz=4.0)
    ev = make_evolver(g, q=0.0, c0=0.0, c2=0.0, mode="off")
    psi = uniform_transverse(g)
    pulses = {3: [((0.0, 1.0, 0.0), math.pi / 2)]}
    polar = {}

    def watch(n, p):
        polar[round(n * ev.dt_ms, 2)] = spin_density(p)[2].mean() / NBAR

    evolve(psi, ev, 6, pulses=pulses, observer=watch, observe_every=1)
    assert abs(polar[0.10]) < 1e-12            # before the pulse
    assert abs(abs(polar[0.15]) - 1.0) < 1e-12  # rotated out of plane
    # the pulse is a passive rotation: it must match rotate_spinor
    direct = rotate_spinor(psi, (0.0, 1.0, 0.0), math.pi / 2)
    assert spin_density(direct)[2].mean() / NBAR \
        == pytest.approx(polar[0.15], abs=1e-12)


def test_a_steps_pulses_fire_in_order_after_it_and_before_the_observer():
    g = Grid2D(nx=8, nz=16, lx=4.0, lz=8.0)
    ev = make_evolver(g)
    psi0 = add_noise(imprint_helix(uniform_transverse(g), g,
                                   2 * math.pi / 8.0),
                     1e-2, np.random.default_rng(8))
    turns = [((0.0, 1.0, 0.0), math.pi / 2), ((1.0, 0.0, 0.0), math.pi / 3)]
    seen = {}
    out = evolve(psi0, ev, 4, pulses={2: turns},
                 observer=lambda n, p: seen.setdefault(n, p), observe_every=2)
    assert sorted(seen) == [0, 2, 4]
    before = evolve(psi0, ev, 2)
    in_order = rotate_spinor(rotate_spinor(before, *turns[0]), *turns[1])
    assert np.array_equal(seen[2], in_order)
    assert np.array_equal(out, evolve(in_order, ev, 2))
    # the two turns do not commute, so the order is seen
    reversed_order = rotate_spinor(rotate_spinor(before, *turns[1]),
                                   *turns[0])
    assert np.abs(reversed_order - in_order).max() > 0.1 * np.abs(before).max()


def test_cancellation_pulses_null_mean_dipolar_energy():
    # a ~kHz pulse train scrambles the spin orientation much faster than
    # the dipolar field acts, so the time-averaged dipolar energy heads
    # to zero while the unpulsed value stays put
    g = Grid2D(nx=32, nz=32, lx=16.0, lz=16.0)
    ev = make_evolver(g)
    psi0 = add_noise(uniform_transverse(g), 1e-3,
                     np.random.default_rng(5))
    means = {}
    for label, sched in (
            ("plain", None),
            ("pulsed", make_cancellation_schedule(
                1.5, 100.0, ev.dt_ms, np.random.default_rng(9)))):
        ed = []
        evolve(psi0.copy(), ev, 2000, pulses=sched,  # 100 ms
               observer=lambda n, p: ed.append(
                   ev.energy_per_atom(p)["e_dipole"]),
               observe_every=5)
        means[label] = abs(np.mean(ed))
    assert 1.0 < means["plain"] < 1.2
    assert means["plain"] >= 5.0 * means["pulsed"]
