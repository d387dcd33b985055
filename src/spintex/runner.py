"""Run orchestration: from a config to a finished output directory.

run_simulate executes the full protocol: prepare a longitudinally
polarized cloud, tip it into the transverse plane with a pi/2 pulse,
wind the helix, add seed noise, then evolve while an observer records
order parameters, vortex counts, and per-atom energies.  analyze_run
recomputes the same quantities from stored snapshots.

Progress lines (one per observation, one per sweep pitch) go to the
"spintex" logger at INFO level; nothing is printed unless a handler is
attached, as the command-line interface does.

run_sweep_kappa runs its pitches on one lane per usable CPU: lane 0 in
the calling process, the others in silent worker processes.  It reports
the pitches in pitch order, making a worker's observation lines from the
series it returns, so the lines and files are those of a
one-after-another sweep.  The first failure in pitch order is raised,
no gamma.csv is left (not even an earlier sweep's), and no worker
outlives the call.
"""

import logging
import math
import os
from dataclasses import dataclass, replace

import numpy as np

from .analysis import (OrderParamSeries, detect_vortices, growth_rate,
                       order_parameters, power_spectrum)
from .dynamics import Evolver, evolve, make_cancellation_schedule
from .errors import InvalidParameter
from .field import (add_noise, imprint_helix, prepare_initial, rotate_spinor,
                    spin_density)
from .io_text import (RunConfig, atomic_text, config_hash, is_snapshot_name,
                      load_config, mark_done, read_snapshot, snapshot_name,
                      write_meta, write_snapshot, write_timeseries)
from .params import derive_params, trap_curvatures_hhz_um2

log = logging.getLogger("spintex")


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
    """(evolver, polarized m = -1 field) for a validated config."""
    derived = derive_params(cfg)
    grid = cfg.grid()
    vx, vz = trap_curvatures_hhz_um2(cfg)
    psi, potential = prepare_initial(grid, cfg.profile, cfg.atom_number,
                                     derived.c0_2d, vx=vx, vz=vz)
    evolver = Evolver(grid, cfg.dt_ms, q_hz=derived.q_hz,
                      c0_2d=derived.c0_2d, c2_2d=derived.c2_2d,
                      sigma_y_um=cfg.sigma_y_um, c_dd=derived.c_dd,
                      kernel_mode=cfg.kernel_mode,
                      potential=potential)
    return evolver, psi


def initial_field(cfg: RunConfig, noise_rng: np.random.Generator,
                  psi: np.ndarray) -> np.ndarray:
    """pi/2 tip, helix winding and noise on build_evolver's polarized psi."""
    psi = rotate_spinor(psi, (0.0, 1.0, 0.0), -0.5 * math.pi)
    if cfg.helix_pitch_um > 0:
        psi = imprint_helix(psi, cfg.grid(),
                            2.0 * math.pi / cfg.helix_pitch_um)
    if cfg.noise_amplitude > 0:
        psi = add_noise(psi, cfg.noise_amplitude, noise_rng)
    return psi


def _measure_row(t_ms: float, psi: np.ndarray, evolver: Evolver,
                 cfg: RunConfig) -> dict:
    s = spin_density(psi)
    # seed noise leaves a flat spectral floor; a noiseless run has none
    background = "auto" if cfg.noise_amplitude > 0 else 0.0
    long_p, short_p, total_p = order_parameters(
        power_spectrum(s), evolver.grid, cfg.k_cut_rad_um, cfg.k_lo_rad_um,
        cfg.k_hi_rad_um, background)
    row = {"t_ms": t_ms, "long_order": long_p, "short_order": short_p,
           "total_power": total_p,
           "n_vortices": float(len(detect_vortices(s, evolver.grid)))}
    row.update(evolver.energy_per_atom(psi, s))
    return row


def _log_observation(t_ms, short_order, total_power, n_vortices) -> None:
    log.info("t = %8.2f ms   short/total = %.4f   vortices = %d", t_ms,
             short_order / max(total_power, 1e-30), n_vortices)


def _series(rows: list) -> OrderParamSeries:
    """Column series from the per-time row dicts of _measure_row."""
    return OrderParamSeries(
        columns={key: np.array([r[key] for r in rows]) for key in rows[0]})


def run_simulate(cfg: RunConfig) -> RunResult:
    """Execute one run and write its output directory.

    The directory receives `meta`, snapshot files, `timeseries.csv`,
    and finally a `DONE` marker; a directory without `DONE` is an
    aborted run.  Fully deterministic for a given (config, seed).
    """
    cfg.validate()
    run_dir = cfg.out_dir
    os.makedirs(run_dir, exist_ok=True)
    # an earlier run's outputs would mix with this run's
    for name in os.listdir(run_dir):
        if name in ("DONE", "timeseries.csv", "analysis.csv") \
                or name.endswith(".tmp") or is_snapshot_name(name):
            os.remove(os.path.join(run_dir, name))
    digest = config_hash(cfg)
    write_meta(run_dir, cfg)

    noise_rng, sched_rng = _streams(cfg.rng_seed)
    evolver, psi = build_evolver(cfg)
    psi = initial_field(cfg, noise_rng, psi)

    pulses = None
    if cfg.cancel_pulse_rate_khz > 0:
        pulses = make_cancellation_schedule(cfg.cancel_pulse_rate_khz,
                                            cfg.t_final_ms, cfg.dt_ms,
                                            sched_rng)

    n_steps = cfg.steps(cfg.t_final_ms)
    write_every = cfg.steps(cfg.snapshot_write_every_ms)
    rows = []

    def observer(n, field):
        t_ms = n * cfg.dt_ms
        row = _measure_row(t_ms, field, evolver, cfg)
        rows.append(row)
        if n in (0, n_steps) or (write_every and n % write_every == 0):
            write_snapshot(os.path.join(run_dir, snapshot_name(t_ms)),
                           field, evolver.grid, t_ms, digest)
        _log_observation(t_ms, row["short_order"], row["total_power"],
                         row["n_vortices"])

    psi = evolve(psi, evolver, n_steps, pulses=pulses, observer=observer,
                 observe_every=cfg.steps(cfg.snapshot_every_ms))

    series = _series(rows)
    write_timeseries(os.path.join(run_dir, "timeseries.csv"), series, digest)
    mark_done(run_dir)
    return RunResult(psi=psi, series=series, run_dir=run_dir,
                     cfg_hash=digest)


# ---------------------------------------------------------------------------
# Re-analysis of stored runs
# ---------------------------------------------------------------------------

def analyze_run(run_dir: str) -> OrderParamSeries:
    """Recompute order parameters and energies from stored snapshots.

    Reads the run's own `meta` for the configuration, analyzes every
    snapshot file, writes `analysis.csv` beside them, and returns the
    series.  Works on partial (no DONE) directories too.  A snapshot
    whose config hash differs from `meta`'s (left by an earlier run
    into the same directory) raises InvalidParameter.
    """
    meta_path = os.path.join(run_dir, "meta")
    if not os.path.exists(meta_path):
        raise InvalidParameter(f"{run_dir}: no meta file; not a run directory")
    cfg = load_config(meta_path)
    digest = config_hash(cfg)
    evolver, _ = build_evolver(cfg)

    snaps = []
    for name in os.listdir(run_dir):
        if is_snapshot_name(name):
            psi, grid, header = read_snapshot(os.path.join(run_dir, name))
            if header.get("config") != digest:
                raise InvalidParameter(
                    f"{name}: written under config {header.get('config')}, "
                    f"but meta is config {digest}")
            if grid.shape != evolver.grid.shape:
                raise InvalidParameter(
                    f"{name}: grid {grid.shape} does not match config")
            snaps.append((header["time_ms"], psi))
    if not snaps:
        raise InvalidParameter(f"{run_dir}: no snapshot files found")
    snaps.sort(key=lambda item: item[0])

    rows = [_measure_row(t, psi, evolver, cfg) for t, psi in snaps]
    series = _series(rows)
    write_timeseries(os.path.join(run_dir, "analysis.csv"), series, digest)
    for r in rows:
        _log_observation(r["t_ms"], r["short_order"], r["total_power"],
                         r["n_vortices"])
    return series


# ---------------------------------------------------------------------------
# Pitch sweep
# ---------------------------------------------------------------------------

def _run_pitch(cfg: RunConfig) -> OrderParamSeries:
    """A sweep worker's series, INFO lines dropped; the caller makes them."""
    log.setLevel(logging.WARNING)   # forked, it has the caller's handlers
    return run_simulate(cfg).series


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where there is one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_sweep_kappa(cfg: RunConfig, pitches) -> list:
    """One seeded run per helix pitch; returns [(kappa, gamma_per_s)].

    Writes gamma.csv under the config's out_dir with each run in a
    pitch_<um> subdirectory (named with %g, so pitches that print alike
    are rejected).  All runs share the config's seed.  Every pitch's
    config is validated before any directory is made, and an earlier
    sweep's gamma.csv is removed before any pitch runs.

    The pitches run on min(usable CPUs, len(pitches)) lanes, pitch i on
    lane i % lanes: lane 0 in this process, the others in a process pool.
    Each run is a pure function of its config, so the files are those
    of running the pitches one after another, and so are the `spintex`
    progress lines.  The pitches are reported in pitch order, each
    followed by its gamma line: a worker's pitch is waited for and its
    lines made from its series; lane 0's pitch runs here, once every
    earlier pitch is reported, with its lines logged live.  The first
    failure in pitch order is raised with its type and message; the
    pitches not yet started are cancelled, the running ones waited for,
    and gamma.csv is not written.  No worker process outlives the call.
    """
    pitches = list(pitches)
    if len(pitches) < 2:
        raise InvalidParameter("need at least 2 pitches to sweep")
    if not all(math.isfinite(p) and p > 0 for p in pitches):
        raise InvalidParameter(
            f"pitches must be positive and finite, got {pitches!r}")
    names = [f"pitch_{pitch:g}" for pitch in pitches]
    if len(set(names)) < len(names):
        raise InvalidParameter(
            f"pitches {pitches!r} share run directory names {names!r}")
    base = cfg.out_dir
    subs = [replace(cfg, helix_pitch_um=float(pitch),
                    out_dir=os.path.join(base, name)).validate()
            for pitch, name in zip(pitches, names)]
    os.makedirs(base, exist_ok=True)
    # an earlier sweep's gamma.csv would outlive a failure of this one
    path = os.path.join(base, "gamma.csv")
    if os.path.exists(path):
        os.remove(path)

    lanes = min(_usable_cpus(), len(subs))
    rows = []
    pool = None
    if lanes > 1:
        # imported here: `import spintex` loads no process machinery
        from concurrent.futures import ProcessPoolExecutor
        pool = ProcessPoolExecutor(lanes - 1)
    try:
        futures = {i: pool.submit(_run_pitch, sub)
                   for i, sub in enumerate(subs) if i % lanes}
        for i, (pitch, sub) in enumerate(zip(pitches, subs)):
            if i in futures:
                series = futures[i].result()    # raises its failure
                for row in zip(series.t_ms, series.short_order,
                               series.total_power, series.n_vortices):
                    _log_observation(*row)
            else:
                series = run_simulate(sub).series
            gamma = growth_rate(series)
            kappa = 2.0 * math.pi / pitch
            rows.append((kappa, gamma))
            log.info("pitch %6.1f um   kappa %.4f rad/um   gamma %.4f /s",
                     pitch, kappa, gamma)
    finally:
        if pool is not None:
            # cancels the pitches not started, waits for the running ones
            pool.shutdown(cancel_futures=True)

    with atomic_text(path) as fh:
        fh.write(f"# config = {config_hash(cfg)}\n")
        fh.write("kappa_rad_per_um,gamma_per_s\n")
        for kappa, gamma in rows:
            fh.write(f"{kappa:.10e},{gamma:.10e}\n")
    return rows
