"""End-to-end acceptance checks, one test per shipped criterion.

Each test gathers its measurements, prints one summary line of the form
"[criterion N] PASS/FAIL: ...", and then asserts every clause of that
criterion. The dissolution, suppression, sweep, and vortex-statistics
fixtures run the full pipeline at desk scale, so this module costs
roughly fifteen to twenty minutes of wall time; deselect it with
`pytest --ignore=tests/test_acceptance.py` for quick iteration.

Known red results, measured and kept red on purpose rather than
loosened: the spin healing length sits 6.1% above its quoted value
(criterion 1), the dissolution run's total spectral power makes a
14.9% transient excursion against a 10% bound (criterion 4), and
mean-field vortex nucleation is a single brief burst rather than a
sustained population, so the vortex-count correlation falls short
(criterion 7). The measured values are printed by each test.
"""

import logging
import math
import os
import time

import numpy as np
import pytest
from scipy.stats import spearmanr

from spintex import constants as cn
from spintex import oracles
from spintex.analysis import (detect_vortices, dominant_wavevector,
                              power_spectrum)
from spintex.dynamics import Evolver, evolve
from spintex.field import imprint_helix, number_density, spin_density
from spintex.grid import Grid2D
from spintex.io_text import RunConfig, read_snapshot, snapshot_name
from spintex.params import derive_params, helix_kinetic_energy
from spintex.runner import run_simulate, run_sweep_kappa
from spintex.selfcheck import run_selfcheck

TWO_PI = 2.0 * math.pi
P = RunConfig()
D = derive_params(P)
# one site fully magnetized along +x
TRANSVERSE = np.array([0.5, 1.0 / math.sqrt(2.0), 0.5], dtype=complex)


def _line(num, ok, detail):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")


def _uniform_transverse(grid, nbar):
    psi = np.tile(TRANSVERSE[:, None, None], (1,) + grid.shape)
    return psi.astype(complex) * math.sqrt(nbar)


def _make_evolver(grid, dt=0.05, q=D.q_hz, mode="bare"):
    return Evolver(grid, dt, q_hz=q, c0_2d=D.c0_2d, c2_2d=D.c2_2d,
                   sigma_y_um=P.sigma_y_um, c_dd=cn.CDD_HHZ_UM3,
                   kernel_mode=mode)


# ---------------------------------------------------------------------------
# Shared desk-scale runs (module-scoped: each executes once per session)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def dissolution_run(tmp_path_factory):
    """Uniform slab at peak column density, 60 um helix, dipoles on.

    512x128 grid, 250 ms. The box length is a multiple of the pitch so
    the imprinted winding is seamless across the periodic boundary.
    """
    out = str(tmp_path_factory.mktemp("dissolution") / "run")
    cfg = RunConfig(profile="uniform", potential="none", box_fill=1.0,
                    kernel_mode="bare", nx=128, nz=512,
                    lx_um=64.0, lz_um=420.0,
                    atom_number=float(D.n2d_peak * 64.0 * 420.0),
                    helix_pitch_um=60.0, noise_amplitude=1e-3,
                    dt_ms=0.05, t_final_ms=250.0, snapshot_every_ms=2.5,
                    rng_seed=11, out_dir=out)
    cfg.validate()
    return cfg, run_simulate(cfg)


@pytest.fixture(scope="module")
def suppression_runs(tmp_path_factory):
    """80 um helix at matched evolution time: dipoles on, off, pulsed."""
    root = tmp_path_factory.mktemp("suppression")
    runs = {}
    for tag, mode, pulse_khz in (("on", "bare", 0.0),
                                 ("off", "off", 0.0),
                                 ("pulsed", "bare", 1.5)):
        cfg = RunConfig(profile="uniform", potential="none", box_fill=1.0,
                        kernel_mode=mode, nx=64, nz=256,
                        lx_um=48.0, lz_um=320.0,
                        atom_number=float(D.n2d_peak * 48.0 * 320.0),
                        helix_pitch_um=80.0, noise_amplitude=1e-3,
                        dt_ms=0.05, t_final_ms=200.0,
                        snapshot_every_ms=0.25,
                        cancel_pulse_rate_khz=pulse_khz,
                        rng_seed=21, out_dir=str(root / tag))
        cfg.validate()
        runs[tag] = run_simulate(cfg)
    return runs


@pytest.fixture(scope="module")
def pitch_sweep(tmp_path_factory):
    """Growth rate across helix pitches at fixed seed and density."""
    out = str(tmp_path_factory.mktemp("sweep") / "runs")
    base = RunConfig(profile="uniform", potential="none", box_fill=1.0,
                     kernel_mode="bare", nx=64, nz=256,
                     lx_um=48.0, lz_um=300.0,
                     atom_number=float(D.n2d_peak * 48.0 * 300.0),
                     noise_amplitude=1e-3, dt_ms=0.05, t_final_ms=150.0,
                     snapshot_every_ms=5.0, rng_seed=33, out_dir=out)
    return run_sweep_kappa(base, [150.0, 100.0, 60.0, 50.0])


@pytest.fixture(scope="module")
def vortex_run(tmp_path_factory):
    """Strongly seeded dissolution run for vortex statistics.

    The 10% seed amplitude maximizes nucleation at the saturation
    event. Snapshots are written densely so vortex charges can be
    audited at the snapshot with the highest count.
    """
    out = str(tmp_path_factory.mktemp("vortices") / "run")
    cfg = RunConfig(profile="uniform", potential="none", box_fill=1.0,
                    kernel_mode="bare", nx=64, nz=256,
                    lx_um=48.0, lz_um=300.0,
                    atom_number=float(D.n2d_peak * 48.0 * 300.0),
                    helix_pitch_um=60.0, noise_amplitude=1e-1,
                    dt_ms=0.05, t_final_ms=150.0, snapshot_every_ms=2.5,
                    snapshot_write_every_ms=2.5, rng_seed=33, out_dir=out)
    cfg.validate()
    return cfg, run_simulate(cfg)


# ---------------------------------------------------------------------------
# 1. Derived energy-scale anchors
# ---------------------------------------------------------------------------

def test_criterion_1_energy_scale_anchors():
    t0 = time.time()
    xi = D.xi_s_um                                # measured 2.5470
    xi_ok = abs(xi / 2.4 - 1.0) <= 0.05
    ratio = D.a_d_nm / abs(D.delta_a_nm)          # measured 0.3488
    ratio_ok = abs(ratio / 0.4 - 1.0) <= 0.20
    # independent closed form: three times the unwound on-axis column
    # energy from adaptive quadrature
    closed = 3.0 * oracles.column_energy_quadrature(0.0, P.sigma_y_um,
                                                    D.n0_um3)
    ed_ok = (abs(D.e_d_hz / closed - 1.0) <= 0.10
             and 4.0 <= D.e_d_hz <= 5.5)          # measured 4.6895
    q_half = D.q_hz / 2.0                         # measured 0.9747
    q_ok = abs(q_half / 1.0 - 1.0) <= 0.20
    ek_half = helix_kinetic_energy(TWO_PI / 50.0) / 2.0   # 0.2296
    ek_ok = ek_half < 0.5
    e_mod = helix_kinetic_energy(TWO_PI / 10.0) / 2.0     # 5.7392
    emod_ok = abs(e_mod / 6.0 - 1.0) <= 0.10
    fast = (time.time() - t0) < 1.0
    ok = all((xi_ok, ratio_ok, ed_ok, q_ok, ek_ok, emod_ok, fast))
    _line(1, ok,
          f"xi_s {xi:.4f} um (target 2.4 +- 5%){' OK' if xi_ok else ' out'},"
          f" a_d/|da| {ratio:.4f}, E_d {D.e_d_hz:.4f} h*Hz,"
          f" q/2 {q_half:.4f} h*Hz, E_kappa/2 {ek_half:.4f} h*Hz,"
          f" E_mod {e_mod:.4f} h*Hz, {time.time() - t0:.2f} s")
    assert ratio_ok, f"a_d/|delta a| = {ratio:.4f} not within 20% of 0.4"
    assert ed_ok, f"E_d = {D.e_d_hz:.4f} h*Hz vs closed form {closed:.4f}"
    assert q_ok, f"q/2 = {q_half:.4f} h*Hz not within 20% of 1"
    assert ek_ok, f"E_kappa/2 = {ek_half:.4f} h*Hz not below 0.5"
    assert emod_ok, f"modulation scale {e_mod:.4f} h*Hz not within 10% of 6"
    assert fast, "anchor evaluation exceeded 1 s"
    assert xi_ok, (f"spin healing length {xi:.4f} um outside 2.4 um +- 5%; "
                   "the quoted parameter set yields 2.5470 um")


# ---------------------------------------------------------------------------
# 2. Oracle equivalence battery
# ---------------------------------------------------------------------------

def test_criterion_2_selfcheck_oracles(caplog):
    t0 = time.time()
    with caplog.at_level(logging.INFO, logger="spintex"):
        ok = run_selfcheck()
    wall = time.time() - t0
    lines = [r.getMessage() for r in caplog.records if r.name == "spintex"]
    n_pass = sum(1 for ln in lines if ln.startswith("[pass]"))
    _line(2, ok and wall < 300.0,
          f"{n_pass} oracle checks in {wall:.1f} s (budget 300 s)")
    assert ok, "selfcheck reported a failing oracle comparison:\n" \
        + "\n".join(lines)
    assert wall < 300.0, f"selfcheck took {wall:.1f} s"


# ---------------------------------------------------------------------------
# 3. Integrator invariants
# ---------------------------------------------------------------------------

def test_criterion_3_integrator_invariants():
    g = Grid2D(nx=32, nz=32, lx=16.0, lz=16.0)
    rng = np.random.default_rng(12)
    psi = imprint_helix(_uniform_transverse(g, D.n2d_peak), g, TWO_PI / 16.0)
    psi = psi * (1.0 + 1e-3 * (rng.standard_normal(psi.shape)
                               + 1j * rng.standard_normal(psi.shape)))
    ev = _make_evolver(g)
    n0 = number_density(psi).sum() * g.cell_area
    e0 = ev.energy_budget(psi)["e_total"]
    psi = evolve(psi, ev, 3000)
    n1 = number_density(psi).sum() * g.cell_area
    norm_drift = abs(n1 / n0 - 1.0)               # measured 5.3e-15
    psi = evolve(psi, ev, 3000)                   # 300 ms in total
    energy_dev = abs(ev.energy_budget(psi)["e_total"] / e0 - 1.0)  # 1.2e-7

    # second-order convergence of the split step
    psi0 = imprint_helix(_uniform_transverse(g, D.n2d_peak), g, TWO_PI / 8.0)

    def run_at(dt):
        return evolve(psi0.copy(), _make_evolver(g, dt=dt),
                      int(round(2.0 / dt)))

    ref = run_at(0.00125)
    dts = np.array([0.05, 0.025, 0.0125])
    errs = np.array([np.abs(run_at(dt) - ref).max() for dt in dts])
    slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]  # measured 2.016

    # a uniform transverse ferromagnet is an exact stationary state of
    # the kinetic + contact dynamics (kernel off, no quadratic shift)
    flat = _uniform_transverse(g, D.n2d_peak)
    ev_off = _make_evolver(g, q=0.0, mode="off")
    s0 = spin_density(flat)
    still = evolve(flat.copy(), ev_off, 1000)     # 50 ms
    df = np.abs(spin_density(still) - s0).max() / D.n2d_peak  # 3.6e-15

    ok = (norm_drift <= 1e-8 and energy_dev <= 1e-4
          and abs(slope - 2.0) <= 0.2 and df <= 1e-6)
    _line(3, ok, f"norm drift {norm_drift:.2e}/3000 steps, energy dev "
                 f"{energy_dev:.2e}/300 ms, dt^2 slope {slope:.3f}, "
                 f"stationary |dF| {df:.2e}/50 ms")
    assert norm_drift <= 1e-8
    assert energy_dev <= 1e-4
    assert abs(slope - 2.0) <= 0.2
    assert df <= 1e-6


# ---------------------------------------------------------------------------
# 4. Helix dissolution at desk scale
# ---------------------------------------------------------------------------

def test_criterion_4_helix_dissolution(dissolution_run):
    cfg, res = dissolution_run
    s = res.series
    short = np.asarray(s.short_order)
    long_p = np.asarray(s.long_order)
    total = np.asarray(s.total_power)
    shape_ok = short[-1] > short[0] and long_p[-1] < long_p[0]

    grid = cfg.grid()
    kdom = dominant_wavevector(power_spectrum(spin_density(res.psi)), grid,
                               k_min=RunConfig().k_cut_rad_um)
    lo, hi = TWO_PI / 20.0, TWO_PI / 5.0
    # the emergent peak sits exactly on a grid mode at the band edge,
    # so the closed interval carries a pure float-rounding guard
    band_ok = lo * (1.0 - 1e-12) <= kdom <= hi * (1.0 + 1e-12)

    power_dev = float(np.abs(total - total[0]).max() / total[0])
    power_ok = power_dev <= 0.10                  # measured 0.149

    ok = shape_ok and band_ok and power_ok
    _line(4, ok,
          f"short x{short[-1] / short[0]:.3g}, long x"
          f"{long_p[-1] / long_p[0]:.3f}, |k*| {kdom:.4f} in "
          f"[{lo:.4f}, {hi:.4f}]: {band_ok}, power dev {power_dev:.1%}")
    assert shape_ok, "short-range order must rise while long-range falls"
    assert band_ok, f"dominant |k| {kdom:.4f} outside [{lo:.4f}, {hi:.4f}]"
    assert power_ok, (
        f"total spectral power deviates {power_dev:.1%} from its initial "
        "value (bound 10%); the coherent mean-field saturation makes a "
        "~15% transient excursion at these parameters")


# ---------------------------------------------------------------------------
# 5. Dipolar-interaction cancellation
# ---------------------------------------------------------------------------

def test_criterion_5_cancellation_suppression(suppression_runs):
    on = suppression_runs["on"].series
    off = suppression_runs["off"].series
    pulsed = suppression_runs["pulsed"].series
    short_on = on.short_order[-1]                 # measured 5.82e7
    r_off = off.short_order[-1] / short_on        # measured 9.6e-7
    r_pulsed = pulsed.short_order[-1] / short_on  # measured 2.7e-4
    ed_on = abs(np.asarray(on.e_dipole).mean())      # measured 0.3442
    ed_pulsed = abs(np.asarray(pulsed.e_dipole).mean())  # measured 0.0410
    null_factor = ed_on / ed_pulsed               # measured 8.40
    ok = r_off <= 0.5 and r_pulsed <= 0.5 and null_factor >= 5.0
    _line(5, ok,
          f"short-range order vs dipoles-on: off {r_off:.2e}, pulsed "
          f"{r_pulsed:.2e} (bound 0.5); mean dipolar energy reduced "
          f"{null_factor:.2f}x (bound 5x)")
    assert r_off <= 0.5
    assert r_pulsed <= 0.5
    assert null_factor >= 5.0


# ---------------------------------------------------------------------------
# 6. Instability growth rate vs helix wavevector
# ---------------------------------------------------------------------------

def test_criterion_6_growth_rate_monotonic(pitch_sweep):
    gammas = [gamma for _, gamma in pitch_sweep]  # 0.015/0.042/0.213/0.309
    kappas = [kappa for kappa, _ in pitch_sweep]
    increasing = all(a < b for a, b in zip(gammas, gammas[1:]))
    _line(6, increasing,
          "gamma(kappa) " + ", ".join(
              f"{k:.4f}: {g:.4f}/s" for k, g in zip(kappas, gammas)))
    assert increasing, f"growth rates not strictly increasing: {gammas}"


# ---------------------------------------------------------------------------
# 7. Vortex detection pipeline
# ---------------------------------------------------------------------------

def test_criterion_7_vortex_pipeline(vortex_run, dissolution_run):
    # synthetic single winding, boundary kept dark so the periodic
    # detector sees an isolated core
    g = Grid2D(nx=32, nz=32, lx=16.0, lz=16.0)
    x0, z0 = g.x[13] + 0.25, g.z[19] + 0.25
    theta = np.arctan2(g.zmesh - z0, g.xmesh - x0)
    amp = np.ones(g.shape)
    amp[:2, :] = amp[-2:, :] = amp[:, :2] = amp[:, -2:] = 0.01
    s = np.stack([amp * np.cos(theta), amp * np.sin(theta),
                  np.zeros(g.shape)])
    vs = detect_vortices(s, g)
    single_ok = (len(vs) == 1 and vs[0].charge == +1
                 and abs(vs[0].x_um - x0) <= g.dx
                 and abs(vs[0].z_um - z0) <= g.dz)

    # freshly imprinted helices carry no windings: synthetic field and
    # the first row of both production runs
    helix = imprint_helix(_uniform_transverse(g, D.n2d_peak), g,
                          TWO_PI / 16.0)
    cfg, res = vortex_run
    _, slab_res = dissolution_run
    clean_ok = (len(detect_vortices(spin_density(helix), g)) == 0
                and res.series.n_vortices[0] == 0
                and slab_res.series.n_vortices[0] == 0)

    # count statistics across the strongly seeded dissolution run
    nv = np.asarray(res.series.n_vortices)
    short = np.asarray(res.series.short_order)
    rho = spearmanr(nv, short).statistic
    rho_ok = bool(rho > 0.5)

    i_max = int(nv.argmax())
    t_max = float(res.series.t_ms[i_max])
    psi, grid, _ = read_snapshot(os.path.join(res.run_dir,
                                              snapshot_name(t_max)))
    peak = detect_vortices(spin_density(psi), grid)
    net = sum(v.charge for v in peak)
    net_ok = abs(net) <= 0.3 * max(len(peak), 1)

    ok = single_ok and clean_ok and rho_ok and net_ok
    _line(7, ok,
          f"single winding exact: {single_ok}; initial helices clean: "
          f"{clean_ok}; spearman(count, short) {rho:.3f} (bound 0.5); "
          f"peak count {len(peak)} net {net:+d}")
    assert single_ok, "synthetic single winding not recovered exactly"
    assert clean_ok, "initial helix should carry no vortices"
    assert net_ok, (f"net charge {net:+d} exceeds 30% of "
                    f"{len(peak)} vortices")
    assert rho_ok, (
        f"spearman correlation {rho:.3f} <= 0.5: mean-field nucleation "
        "is a single brief burst at the saturation time, not a "
        "sustained population tracking the short-range order")
