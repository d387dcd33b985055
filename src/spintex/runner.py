"""Run orchestration: from a config to a finished output directory.

run_simulate executes the full protocol: prepare a longitudinally
polarized cloud, tip it into the transverse plane with a pi/2 pulse,
wind the helix, add seed noise, then evolve while an observer records
order parameters, vortex counts, and per-atom energies.  analyze_run
recomputes the same quantities from stored snapshots.
"""

import math
import os
from dataclasses import dataclass, replace

import numpy as np

from .analysis import (OrderParamSeries, detect_vortices, order_parameters,
                       power_spectrum)
from .dynamics import Evolver, EvolutionSpec, evolve, make_cancellation_schedule
from .errors import InvalidParameter
from .field import (add_noise, imprint_helix, magnetization, prepare_initial,
                    rotate_spinor)
from .io_text import (RunConfig, config_hash, mark_done, read_snapshot,
                      snapshot_name, write_meta, write_snapshot,
                      write_timeseries)
from .params import derive_params, trap_curvatures_hhz_um2


@dataclass
class RunResult:
    psi: np.ndarray
    series: OrderParamSeries
    run_dir: str
    cfg_hash: str


def _streams(seed: int) -> tuple:
    """Per-purpose RNGs split from the run seed: (noise, schedule)."""
    noise_ss, sched_ss = np.random.SeedSequence(seed).spawn(2)
    return np.random.default_rng(noise_ss), np.random.default_rng(sched_ss)


def build_evolver(cfg: RunConfig) -> tuple:
    """(evolver, initial state) for a validated config."""
    derived = derive_params(cfg)
    grid = cfg.grid()
    vx, vz = trap_curvatures_hhz_um2(cfg)
    state = prepare_initial(grid, cfg.profile, cfg.atom_number,
                            derived.c0_2d, vx=vx, vz=vz,
                            box_fill=cfg.box_fill)
    spec = EvolutionSpec(grid=grid, dt_ms=cfg.dt_ms, q_hz=derived.q_hz,
                         c0_2d=derived.c0_2d, c2_2d=derived.c2_2d,
                         sigma_y_um=cfg.sigma_y_um, c_dd=derived.c_dd,
                         kernel_mode=cfg.kernel_mode,
                         gradient_mg_cm=cfg.residual_gradient_mg_cm)
    return Evolver(spec, potential=state.potential), state


def initial_field(cfg: RunConfig, noise_rng: np.random.Generator,
                  state) -> np.ndarray:
    """Protocol before free evolution: pi/2 tip, helix winding, noise."""
    psi = rotate_spinor(state.psi, (0.0, 1.0, 0.0), -0.5 * math.pi)
    if cfg.helix_pitch_um > 0:
        psi = imprint_helix(psi, cfg.grid(),
                            2.0 * math.pi / cfg.helix_pitch_um)
    if cfg.noise_amplitude > 0:
        psi = add_noise(psi, cfg.noise_amplitude, noise_rng)
    return psi


def _measure_row(t_ms: float, psi: np.ndarray, evolver: Evolver,
                 regions, background) -> dict:
    m = magnetization(psi, evolver.spec.grid)
    ps = power_spectrum(m)
    long_p, short_p, total_p = order_parameters(ps, regions, background)
    row = {"t_ms": t_ms, "long_order": long_p, "short_order": short_p,
           "total_power": total_p,
           "n_vortices": float(len(detect_vortices(m)))}
    row.update(evolver.energy_per_atom(psi))
    return row


def _series(rows: list) -> OrderParamSeries:
    """Column series from the per-time row dicts of _measure_row."""
    return OrderParamSeries(
        columns={key: np.array([r[key] for r in rows]) for key in rows[0]})


def run_simulate(cfg: RunConfig, echo=None) -> RunResult:
    """Execute one run and write its output directory.

    The directory receives `meta`, snapshot files, `timeseries.csv`,
    and finally a `DONE` marker; a directory without `DONE` is an
    aborted run.  Fully deterministic for a given (config, seed).
    """
    cfg.validate()
    run_dir = cfg.out_dir
    os.makedirs(run_dir, exist_ok=True)
    done_path = os.path.join(run_dir, "DONE")
    if os.path.exists(done_path):
        os.remove(done_path)
    digest = config_hash(cfg)
    write_meta(run_dir, cfg)

    noise_rng, sched_rng = _streams(cfg.rng_seed)
    evolver, state = build_evolver(cfg)
    psi = initial_field(cfg, noise_rng, state)

    schedule = None
    if cfg.cancel_pulse_rate_khz > 0:
        schedule = make_cancellation_schedule(cfg.cancel_pulse_rate_khz,
                                              cfg.t_final_ms, sched_rng)

    regions = cfg.regions()
    background = cfg.resolved_background()
    n_steps = cfg.steps(cfg.t_final_ms)
    write_every = cfg.steps(cfg.snapshot_write_every_ms)
    rows = []

    def observer(n, field):
        t_ms = n * cfg.dt_ms
        rows.append(_measure_row(t_ms, field, evolver, regions, background))
        if n in (0, n_steps) or (write_every and n % write_every == 0):
            write_snapshot(os.path.join(run_dir, snapshot_name(t_ms)),
                           field, evolver.spec.grid, t_ms, digest)
        if echo is not None:
            echo(f"t = {t_ms:8.2f} ms   short/total = "
                 f"{rows[-1]['short_order'] / max(rows[-1]['total_power'], 1e-30):.4f}   "
                 f"vortices = {int(rows[-1]['n_vortices'])}")

    psi = evolve(psi, evolver, n_steps, schedule=schedule, observer=observer,
                 observe_every=cfg.steps(cfg.snapshot_every_ms))

    series = _series(rows)
    write_timeseries(os.path.join(run_dir, "timeseries.csv"), series, digest)
    mark_done(run_dir)
    return RunResult(psi=psi, series=series, run_dir=run_dir,
                     cfg_hash=digest)


# ---------------------------------------------------------------------------
# Re-analysis of stored runs
# ---------------------------------------------------------------------------

def analyze_run(run_dir: str, echo=None) -> OrderParamSeries:
    """Recompute order parameters and energies from stored snapshots.

    Reads the run's own `meta` for the configuration, analyzes every
    snapshot file, writes `analysis.csv` beside them, and returns the
    series.  Works on partial (no DONE) directories too.
    """
    from .io_text import load_config
    meta_path = os.path.join(run_dir, "meta")
    if not os.path.exists(meta_path):
        raise InvalidParameter(f"{run_dir}: no meta file; not a run directory")
    cfg = load_config(meta_path)
    evolver, _ = build_evolver(cfg)
    regions = cfg.regions()
    background = cfg.resolved_background()

    snaps = []
    for name in os.listdir(run_dir):
        if name.startswith("snap_t") and name.endswith(".txt"):
            psi, grid, header = read_snapshot(os.path.join(run_dir, name))
            if grid.shape != evolver.spec.grid.shape:
                raise InvalidParameter(
                    f"{name}: grid {grid.shape} does not match config")
            snaps.append((header["time_ms"], psi))
    if not snaps:
        raise InvalidParameter(f"{run_dir}: no snapshot files found")
    snaps.sort(key=lambda item: item[0])

    rows = [_measure_row(t, psi, evolver, regions, background)
            for t, psi in snaps]
    series = _series(rows)
    write_timeseries(os.path.join(run_dir, "analysis.csv"), series,
                     config_hash(cfg))
    if echo is not None:
        for r in rows:
            echo(f"t = {r['t_ms']:8.2f} ms   long = {r['long_order']:.4e}   "
                 f"short = {r['short_order']:.4e}   "
                 f"vortices = {int(r['n_vortices'])}")
    return series


# ---------------------------------------------------------------------------
# Pitch sweep
# ---------------------------------------------------------------------------

def run_sweep_kappa(cfg: RunConfig, pitches, echo=None) -> list:
    """One seeded run per helix pitch; returns [(kappa, gamma_per_s)].

    Writes gamma.csv under the config's out_dir with each run in a
    pitch_<um> subdirectory.  All runs share the config's seed.
    """
    from .analysis import growth_rate
    pitches = list(pitches)
    if len(pitches) < 2:
        raise InvalidParameter("need at least 2 pitches to sweep")
    if any(p <= 0 for p in pitches):
        raise InvalidParameter(f"pitches must be positive, got {pitches!r}")
    base = cfg.out_dir
    os.makedirs(base, exist_ok=True)
    out_rows = []
    for pitch in pitches:
        sub = replace(cfg, helix_pitch_um=float(pitch),
                      out_dir=os.path.join(base, f"pitch_{pitch:g}"))
        result = run_simulate(sub)
        gamma = growth_rate(result.series)
        kappa = 2.0 * math.pi / pitch
        out_rows.append((kappa, gamma))
        if echo is not None:
            echo(f"pitch {pitch:6.1f} um   kappa {kappa:.4f} rad/um   "
                 f"gamma {gamma:.4f} /s")
    path = os.path.join(base, "gamma.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# config = {config_hash(cfg)}\n")
        fh.write("kappa_rad_per_um,gamma_per_s\n")
        for kappa, gamma in out_rows:
            fh.write(f"{kappa:.10e},{gamma:.10e}\n")
    return out_rows
