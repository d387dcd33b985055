"""Tests for run orchestration: directories, determinism, re-analysis."""

import logging
import multiprocessing
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from spintex import dynamics, runner
from spintex.analysis import growth_rate
from spintex.errors import InvalidParameter
from spintex.field import spin_density
from spintex.io_text import (RunConfig, is_complete, parse_config,
                             read_snapshot, read_timeseries)
from spintex.params import derive_params
from spintex.runner import (analyze_run, build_evolver, initial_field,
                            run_simulate, run_sweep_kappa, _streams)

D = derive_params(RunConfig())


def small_cfg(tmp_path, **over):
    base = dict(profile="uniform", potential="none", kernel_mode="bare",
                nx=32, nz=64, lx_um=16.0, lz_um=60.0,
                atom_number=D.n2d_peak * 16.0 * 60.0,
                helix_pitch_um=60.0, noise_amplitude=1e-3,
                t_final_ms=1.0, dt_ms=0.05, snapshot_every_ms=0.25,
                snapshot_write_every_ms=0.0,
                out_dir=str(tmp_path / "run"), rng_seed=42)
    base.update(over)
    return replace(RunConfig(), **base).validate()


def test_zero_time_run_writes_one_snapshot(tmp_path):
    cfg = small_cfg(tmp_path, t_final_ms=0.0, noise_amplitude=0.0)
    result = run_simulate(cfg)
    assert len(result.series) == 1
    assert result.series.t_ms[0] == 0.0
    # pitch 60 helix: all spectral weight long-range, none short
    assert result.series.short_order[0] < 1e-9 * result.series.total_power[0]
    assert result.series.long_order[0] > 0.99 * result.series.total_power[0]
    d = result.run_dir
    assert is_complete(d)
    assert os.path.exists(os.path.join(d, "meta"))
    assert os.path.exists(os.path.join(d, "snap_t0.txt"))
    assert os.path.exists(os.path.join(d, "timeseries.csv"))
    assert result.psi.shape == (3, cfg.nx, cfg.nz)


def test_final_snapshot_written_at_inexact_final_time(tmp_path):
    # 7 steps of 0.05 ms end at 0.35000000000000003 ms, not at 0.35
    cfg = small_cfg(tmp_path, t_final_ms=0.35)
    result = run_simulate(cfg)
    assert list(result.series.t_ms) == [0.0, 0.25, 7 * 0.05]
    assert os.path.exists(os.path.join(result.run_dir, "snap_t0.35.txt"))
    assert len(analyze_run(result.run_dir)) == 2


def test_initial_field_protocol(tmp_path):
    cfg = small_cfg(tmp_path, noise_amplitude=0.0, helix_pitch_um=0.0)
    noise_rng, _ = _streams(cfg.rng_seed)
    _, polarized = build_evolver(cfg)
    psi = initial_field(cfg, noise_rng, polarized)
    s = spin_density(psi)
    nbar = cfg.atom_number / (cfg.lx_um * cfg.lz_um)
    # pi/2 tip about y takes the z-polarized cloud onto +x everywhere
    assert np.max(np.abs(s[0] - nbar)) < 1e-9 * nbar
    assert np.max(np.abs(s[2])) < 1e-9 * nbar

    cfg = small_cfg(tmp_path, noise_amplitude=0.0)
    psi = initial_field(cfg, noise_rng, polarized)
    s = spin_density(psi)
    assert np.max(np.abs(s[2])) < 1e-9 * nbar          # helix is transverse
    phase = np.unwrap(np.angle(s[0, 0, :] + 1j * s[1, 0, :]))
    slope = (phase[-1] - phase[0]) / (cfg.grid().dz * (cfg.nz - 1))
    assert abs(slope - 2.0 * np.pi / 60.0) < 1e-9


def test_run_is_deterministic(tmp_path):
    a = run_simulate(small_cfg(tmp_path, out_dir=str(tmp_path / "a")))
    b = run_simulate(small_cfg(tmp_path, out_dir=str(tmp_path / "b")))
    for col in a.series.columns:
        np.testing.assert_array_equal(a.series.columns[col],
                                      b.series.columns[col])
    np.testing.assert_array_equal(a.psi, b.psi)
    lines = []
    for r in (a, b):
        with open(os.path.join(r.run_dir, "timeseries.csv"),
                  encoding="utf-8") as fh:
            lines.append([ln for ln in fh if not ln.startswith("#")])
    assert lines[0] == lines[1]

    c = run_simulate(small_cfg(tmp_path, out_dir=str(tmp_path / "c"),
                               rng_seed=43))
    assert not np.array_equal(a.psi, c.psi)


def read_tree(root) -> dict:
    return {os.path.relpath(os.path.join(path, name), root):
            open(os.path.join(path, name), "rb").read()
            for path, _, names in os.walk(root) for name in names}


def test_pulsed_run_fires_its_schedule(tmp_path):
    cfg = small_cfg(tmp_path, t_final_ms=2.0, cancel_pulse_rate_khz=1.5)
    result = run_simulate(cfg)
    # the run is evolve with the schedule of its seed's schedule stream
    noise_rng, sched_rng = _streams(cfg.rng_seed)
    pulses = dynamics.make_cancellation_schedule(1.5, 2.0, cfg.dt_ms,
                                                 sched_rng)
    assert sorted(pulses) == [3, 10, 34, 38]    # step 10 is also observed
    evolver, psi = build_evolver(cfg)
    psi = dynamics.evolve(initial_field(cfg, noise_rng, psi), evolver, 40,
                          pulses=pulses, observer=lambda n, field: None,
                          observe_every=5)
    np.testing.assert_array_equal(result.psi, psi)

    again = run_simulate(replace(cfg, out_dir=str(tmp_path / "again")))
    assert read_tree(again.run_dir) == read_tree(result.run_dir)
    unpulsed = run_simulate(replace(cfg, cancel_pulse_rate_khz=0.0,
                                    out_dir=str(tmp_path / "unpulsed")))
    assert np.abs(unpulsed.psi - result.psi).max() \
        > 0.5 * np.abs(result.psi).max()


def test_run_directory_does_not_depend_on_its_path(tmp_path):
    short = str(tmp_path / "a")
    long = str(tmp_path / "a much longer" / "path to the same run")
    trees = [read_tree(run_simulate(small_cfg(
        tmp_path, out_dir=d, snapshot_write_every_ms=0.5)).run_dir)
        for d in (short, long)]
    assert "snap_t0.5.txt" in trees[0]
    assert trees[0] == trees[1]


def test_run_directory_does_not_depend_on_the_block_size(tmp_path,
                                                         monkeypatch):
    # 640 sites are 10 of the 64-site rows: blocks of 10, 10, 10 and 2 rows
    trees = []
    for block_sites in (dynamics._BLOCK_SITES, 640):
        monkeypatch.setattr(dynamics, "_BLOCK_SITES", block_sites)
        out = str(tmp_path / f"blocks_{block_sites}")
        run_simulate(small_cfg(tmp_path, out_dir=out,
                               snapshot_write_every_ms=0.5))
        trees.append(read_tree(out))
    assert "snap_t0.5.txt" in trees[0]
    assert trees[0] == trees[1]


def test_analyze_run_matches_live_measurements(tmp_path):
    cfg = small_cfg(tmp_path, snapshot_write_every_ms=0.5)
    result = run_simulate(cfg)
    series = analyze_run(result.run_dir)
    assert os.path.exists(os.path.join(result.run_dir, "analysis.csv"))
    live_t = list(result.series.t_ms)
    for i, t in enumerate(series.t_ms):
        j = live_t.index(t)
        for col in series.columns:
            live = result.series.columns[col][j]
            got = series.columns[col][i]
            if col == "n_vortices":
                assert got == live
            else:
                # snapshots store 10 significant digits
                assert abs(got - live) <= 1e-6 * max(1.0, abs(live))


def test_analyze_run_error_cases(tmp_path):
    with pytest.raises(InvalidParameter, match="meta"):
        analyze_run(str(tmp_path))
    cfg = small_cfg(tmp_path)
    result = run_simulate(cfg)
    series = read_timeseries(os.path.join(result.run_dir, "timeseries.csv"))
    assert len(series) == 5

    # a run without DONE is detectably partial but still analyzable
    os.remove(os.path.join(result.run_dir, "DONE"))
    assert not is_complete(result.run_dir)
    assert len(analyze_run(result.run_dir)) >= 1

    for name in os.listdir(result.run_dir):
        if name.startswith("snap_t"):
            os.remove(os.path.join(result.run_dir, name))
    with pytest.raises(InvalidParameter, match="snapshot"):
        analyze_run(result.run_dir)


def test_analyze_run_refuses_a_meta_with_the_residual_gradient(tmp_path):
    # meta files of earlier versions list residual_gradient_mg_cm; such
    # a run is re-run, not read under a guessed config
    result = run_simulate(small_cfg(tmp_path, t_final_ms=0.0,
                                    noise_amplitude=0.0))
    meta = Path(result.run_dir) / "meta"
    text = meta.read_text(encoding="utf-8")
    line = "kernel_mode = bare\n"
    assert text.count(line) == 1
    meta.write_text(text.replace(
        line, line + "residual_gradient_mg_cm = 0.0\n"), encoding="utf-8")
    with pytest.raises(InvalidParameter) as info:
        analyze_run(result.run_dir)
    assert str(meta) in str(info.value)
    assert "unknown key 'residual_gradient_mg_cm'" in str(info.value)


def test_analyze_run_rejects_snapshots_of_another_run(tmp_path):
    small = dict(nx=16, lx_um=8.0, atom_number=D.n2d_peak * 8.0 * 60.0)
    other = run_simulate(small_cfg(tmp_path, out_dir=str(tmp_path / "other"),
                                   **small))
    cfg = small_cfg(tmp_path, t_final_ms=0.5, rng_seed=9, **small)
    result = run_simulate(cfg)
    assert len(result.series) == 3
    # a snapshot of another run planted in this run's directory
    shutil.copy(os.path.join(other.run_dir, "snap_t1.txt"), result.run_dir)
    with pytest.raises(InvalidParameter, match=r"snap_t1\.txt"):
        analyze_run(result.run_dir)


def test_rerun_into_one_directory_replaces_the_earlier_run(tmp_path):
    small = dict(nx=16, lx_um=8.0, atom_number=D.n2d_peak * 8.0 * 60.0,
                 snapshot_write_every_ms=0.25)
    run_simulate(small_cfg(tmp_path, **small))
    result = run_simulate(small_cfg(tmp_path, t_final_ms=0.5, rng_seed=9,
                                    **small))
    # the first run's snap_t0.75 and snap_t1 are gone
    names = sorted(n for n in os.listdir(result.run_dir)
                   if n.startswith("snap_t"))
    assert names == ["snap_t0.25.txt", "snap_t0.5.txt", "snap_t0.txt"]
    stored = read_timeseries(os.path.join(result.run_dir, "timeseries.csv"))
    again = analyze_run(result.run_dir)
    assert len(again) == len(stored) == 3
    assert list(again.t_ms) == list(stored.t_ms) == [0.0, 0.25, 0.5]
    assert np.allclose(again.long_order, stored.long_order, rtol=1e-7)


def test_integer_valued_inputs_keep_one_config_hash(tmp_path):
    # lx_um = 16 (an int) is read back from meta as 16.0
    cfg = small_cfg(tmp_path, lx_um=16, t_final_ms=0.25)
    result = run_simulate(cfg)
    assert len(analyze_run(result.run_dir)) == 2
    heads = {}
    for name in ("meta", "timeseries.csv", "analysis.csv"):
        with open(os.path.join(result.run_dir, name), encoding="utf-8") as fh:
            heads[name] = [ln for ln in fh if ln.startswith("# config")][0]
    assert set(heads.values()) == {f"# config = {result.cfg_hash}\n"}


def test_progress_goes_to_the_spintex_logger(tmp_path, caplog, capsys):
    cfg = small_cfg(tmp_path)
    run_simulate(cfg)
    assert capsys.readouterr() == ("", "")      # no handler: nothing shown
    with caplog.at_level(logging.INFO, logger="spintex"):
        result = run_simulate(cfg)
    records = [r for r in caplog.records if r.name == "spintex"]
    assert len(records) == len(result.series) == 5
    assert all(r.levelno == logging.INFO and r.args for r in records)
    assert records[0].getMessage().startswith(
        "t =     0.00 ms   short/total = ")

    caplog.clear()
    with caplog.at_level(logging.INFO, logger="spintex"):
        run_sweep_kappa(replace(cfg, out_dir=str(tmp_path / "sweep")),
                        [60.0, 30.0])
        analyze_run(str(tmp_path / "sweep" / "pitch_30"))
    lines = [r.getMessage() for r in caplog.records if r.name == "spintex"]
    # per pitch its run's 5 observations, then its own line; then one
    # line per stored snapshot of pitch_30 (t = 0 and 1 ms)
    assert len(lines) == 2 * (5 + 1) + 2
    assert lines[5].startswith("pitch   60.0 um   kappa 0.1047 rad/um")
    # analyze_run's line for a stored field is the run's own line for it
    assert lines[-1].startswith("t =     1.00 ms   short/total = ")
    assert lines[-2:] == [lines[6], lines[10]]


def test_rerun_clears_stale_done_marker(tmp_path):
    cfg = small_cfg(tmp_path, t_final_ms=0.0)
    os.makedirs(cfg.out_dir, exist_ok=True)
    with open(os.path.join(cfg.out_dir, "DONE"), "w") as fh:
        fh.write("stale\n")
    result = run_simulate(cfg)
    assert is_complete(result.run_dir)
    back, grid, header = read_snapshot(
        os.path.join(result.run_dir, "snap_t0.txt"))
    assert header["config"] == result.cfg_hash
    assert np.max(np.abs(back - result.psi)) < 1e-9 * np.abs(psi_scale(result))


def psi_scale(result):
    return max(np.max(np.abs(result.psi)), 1.0)


def test_thomas_fermi_run_builds(tmp_path):
    cfg = small_cfg(tmp_path, profile="thomas-fermi", potential="harmonic",
                    nx=32, nz=128, lx_um=16.0, lz_um=100.0,
                    atom_number=1e4, t_final_ms=0.0)
    evolver, _ = build_evolver(cfg)
    assert evolver.potential is not None
    assert evolver.potential.max() > 0.0
    assert abs(evolver.q_hz - D.q_hz) < 1e-12
    result = run_simulate(cfg)
    e = {k: result.series.columns[k][0] for k in ("e_pot", "e_c0")}
    assert e["e_pot"] > 0.0
    assert e["e_c0"] > 0.0


def test_build_evolver_returns_the_polarized_field(tmp_path):
    cfg = small_cfg(tmp_path)
    evolver, psi = build_evolver(cfg)
    nbar = cfg.atom_number / (cfg.lx_um * cfg.lz_um)
    assert psi.shape == (3, cfg.nx, cfg.nz)
    assert np.all(psi[0] == 0.0) and np.all(psi[1] == 0.0)
    assert np.max(np.abs(np.abs(psi[2]) ** 2 - nbar)) < 1e-9 * nbar
    assert evolver.q_hz == D.q_hz
    assert evolver.dt_ms == cfg.dt_ms
    assert evolver.grid == cfg.grid()


def test_unbuildable_cloud_leaves_no_run_directory(tmp_path):
    out = str(tmp_path / "run")
    for over in (dict(trap_x_hz=3.0, nx=16, nz=64, k_cut_rad_um=0.1,
                      k_lo_rad_um=0.2, k_hi_rad_um=0.4),
                 dict(trap_x_hz=0.0)):
        with pytest.raises(InvalidParameter, match="trap_x_hz"):
            run_simulate(RunConfig(out_dir=out, **over))
        assert not os.path.exists(out)


def test_sweep_validation_and_output(tmp_path):
    cfg = small_cfg(tmp_path, out_dir=str(tmp_path / "sweep"))
    with pytest.raises(InvalidParameter, match="2 pitches"):
        run_sweep_kappa(cfg, [60.0])
    with pytest.raises(InvalidParameter, match="positive"):
        run_sweep_kappa(cfg, [60.0, -50.0])
    with pytest.raises(InvalidParameter, match="finite"):
        run_sweep_kappa(cfg, [60.0, float("nan")])
    assert not os.path.exists(os.path.join(cfg.out_dir, "pitch_60"))

    # %g directory names: pitches that print alike would share pitch_60
    for same in ([60.0000001, 60.0000002], [60, 60.0]):
        with pytest.raises(InvalidParameter, match="pitch_60"):
            run_sweep_kappa(cfg, same)
    assert not os.path.exists(cfg.out_dir)

    rows = run_sweep_kappa(cfg, [60.0, 30.0])
    assert len(rows) == 2
    assert abs(rows[0][0] - 2.0 * np.pi / 60.0) < 1e-12
    assert abs(rows[1][0] - 2.0 * np.pi / 30.0) < 1e-12
    base = cfg.out_dir
    assert is_complete(os.path.join(base, "pitch_60"))
    assert is_complete(os.path.join(base, "pitch_30"))
    gamma_path = os.path.join(base, "gamma.csv")
    with open(gamma_path, encoding="utf-8") as fh:
        data = [ln for ln in fh if ln.strip() and not ln.startswith("#")]
    assert data[0].strip() == "kappa_rad_per_um,gamma_per_s"
    assert len(data) == 3


def test_run_validates_config(tmp_path):
    cfg = small_cfg(tmp_path)
    cfg.dt_ms = -0.5
    with pytest.raises(InvalidParameter):
        run_simulate(cfg)


def test_noisy_run_needs_modes_beyond_2_k_hi(tmp_path):
    # at 0.8 of the 6.28 rad/um Nyquist, 2 k_hi = 10.05 lies beyond the
    # grid's largest |k| = 8.89, so no noise floor can be estimated
    cfg = small_cfg(tmp_path, noise_amplitude=0.0, lz_um=32.0,
                    atom_number=D.n2d_peak * 16.0 * 32.0, k_cut_rad_um=0.5,
                    k_lo_rad_um=1.0, k_hi_rad_um=5.03)
    with pytest.raises(InvalidParameter,
                       match="k_hi_rad_um.*noise_amplitude > 0"):
        run_simulate(replace(cfg, noise_amplitude=1e-3))
    assert not os.path.exists(cfg.out_dir)
    assert is_complete(run_simulate(cfg).run_dir)


def test_invalid_sweep_leaves_no_directory(tmp_path):
    out = str(tmp_path / "sweep")
    with pytest.raises(InvalidParameter, match="nx must be a power of two"):
        run_sweep_kappa(RunConfig(out_dir=out, nx=12), [60, 30])
    assert not os.path.exists(out)
    with pytest.raises(InvalidParameter, match="helix_pitch_um = 1.0 must"):
        run_sweep_kappa(RunConfig(out_dir=out), [60, 1.0])
    assert not os.path.exists(out)
    # too few observations per pitch to fit a growth rate
    for t_final, every, n_obs in ((0.2, 0.1, 3), (1.0, 0.0, 2), (0.0, 0.1, 1)):
        cfg = small_cfg(tmp_path, out_dir=out, t_final_ms=t_final,
                        snapshot_every_ms=every)
        with pytest.raises(InvalidParameter,
                           match=rf"t_final_ms = {t_final} and "
                                 rf"snapshot_every_ms = {every} give {n_obs} "
                                 rf"observations"):
            run_sweep_kappa(cfg, [60, 40, 30])
        assert not os.path.exists(out)


class Lines(logging.Handler):
    def __init__(self):
        super().__init__()
        self.lines = []

    def emit(self, record):
        self.lines.append(record.getMessage())


def sweep_and_sequential(root, pitches) -> list:
    """[(rows, pitch-directory files, spintex lines)] of a sweep, then of
    one run_simulate per pitch on the same configs, one after another."""
    log = logging.getLogger("spintex")
    out = []
    for mode in ("sweep", "sequential"):
        base = small_cfg(Path(root), out_dir=os.path.join(root, mode))
        lines, level = Lines(), log.level
        log.addHandler(lines)
        log.setLevel(logging.INFO)
        try:
            if mode == "sweep":
                rows = run_sweep_kappa(base, pitches)
                os.remove(os.path.join(base.out_dir, "gamma.csv"))
            else:
                rows = []
                for pitch in pitches:
                    result = run_simulate(replace(
                        base, helix_pitch_um=pitch,
                        out_dir=os.path.join(base.out_dir, f"pitch_{pitch:g}")))
                    kappa = 2.0 * np.pi / pitch
                    rows.append((kappa, growth_rate(result.series)))
                    lines.lines.append(
                        f"pitch {pitch:6.1f} um   kappa {kappa:.4f} rad/um   "
                        f"gamma {rows[-1][1]:.4f} /s")
        finally:
            log.removeHandler(lines)
            log.setLevel(level)
        out.append((rows, read_tree(base.out_dir), lines.lines))
    return out


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_sweep_equals_its_pitches_run_one_after_another(tmp_path,
                                                        monkeypatch, cpus):
    # 2 CPUs: pitches 60 and 20 on lane 0, pitch 30 on lane 1
    monkeypatch.setattr(runner, "_usable_cpus", lambda: cpus)
    swept, sequential = sweep_and_sequential(str(tmp_path), [60.0, 30.0, 20.0])
    assert multiprocessing.active_children() == []
    assert swept[0] == sequential[0]
    assert os.path.join("pitch_20", "snap_t1.txt") in swept[1]
    assert swept[1] == sequential[1]
    # per pitch its 5 observations, then its pitch line
    assert len(swept[2]) == 3 * (5 + 1)
    assert swept[2] == sequential[2]


@pytest.mark.parametrize("cpus, in_caller", [
    (1, [60.0, 30.0, 20.0]),
    (2, [60.0, 20.0]),      # lane 0; pitch 30 runs on lane 1
])
def test_lane_0_runs_in_the_caller(tmp_path, monkeypatch, cpus, in_caller):
    # a tracer installed in the caller sees lane 0's runs, none other
    monkeypatch.setattr(runner, "_usable_cpus", lambda: cpus)
    seen, simulate = [], runner.run_simulate

    def recorded(cfg):      # a worker appends to its own copy of seen
        seen.append(cfg.helix_pitch_um)
        return simulate(cfg)

    monkeypatch.setattr(runner, "run_simulate", recorded)
    run_sweep_kappa(small_cfg(tmp_path, out_dir=str(tmp_path / "sweep")),
                    [60.0, 30.0, 20.0])
    assert seen == in_caller
    assert multiprocessing.active_children() == []


def test_sweep_needs_no_state_inherited_by_fork(tmp_path):
    script = (
        "import multiprocessing, sys\n"
        "if __name__ == '__main__':\n"
        "    multiprocessing.set_start_method('spawn')\n"
        "    sys.path.insert(0, sys.argv[1])\n"
        "    import test_runner\n"
        "    test_runner.runner._usable_cpus = lambda: 2\n"
        "    swept, sequential = test_runner.sweep_and_sequential(\n"
        "        sys.argv[2], [60.0, 30.0, 20.0])\n"
        "    assert multiprocessing.active_children() == []\n"
        "    assert swept == sequential, 'sweep differs from sequential runs'\n"
        "    print(multiprocessing.get_start_method(), len(swept[2]))\n")
    src = os.path.dirname(os.path.dirname(runner.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    done = subprocess.run(
        [sys.executable, "-c", script, os.path.dirname(__file__),
         str(tmp_path)], env=env, capture_output=True, text=True,
        timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "spawn 18\n"


@pytest.mark.parametrize("cpus, blocked, failed, done", [
    # 2 CPUs: pitches 60 and 20 on lane 0, pitch 30 on lane 1
    (2, ("pitch_30",), "pitch_30", ("pitch_60",)),
    (2, ("pitch_30", "pitch_20"), "pitch_30", ("pitch_60",)),
    (3, ("pitch_30", "pitch_20"), "pitch_30", ("pitch_60",)),
    (2, ("pitch_20",), "pitch_20", ("pitch_60", "pitch_30")),
])
def test_sweep_raises_its_first_failure_in_pitch_order(
        tmp_path, monkeypatch, cpus, blocked, failed, done):
    monkeypatch.setattr(runner, "_usable_cpus", lambda: cpus)
    cfg = small_cfg(tmp_path, out_dir=str(tmp_path / "sweep"))
    os.makedirs(cfg.out_dir)
    for name in blocked:        # a file where a run directory should go
        with open(os.path.join(cfg.out_dir, name), "w") as fh:
            fh.write("not a directory\n")
    with pytest.raises(FileExistsError) as direct:
        run_simulate(replace(cfg, out_dir=os.path.join(cfg.out_dir, failed)))
    with pytest.raises(FileExistsError) as swept:
        run_sweep_kappa(cfg, [60.0, 30.0, 20.0])
    assert str(swept.value) == str(direct.value)
    assert multiprocessing.active_children() == []
    assert not os.path.exists(os.path.join(cfg.out_dir, "gamma.csv"))
    for name in done:       # lane 0's pitch, and a running pitch waited for
        assert is_complete(os.path.join(cfg.out_dir, name))


def test_a_failed_sweep_rerun_leaves_no_earlier_gamma(tmp_path, monkeypatch):
    monkeypatch.setattr(runner, "_usable_cpus", lambda: 1)
    cfg = small_cfg(tmp_path, out_dir=str(tmp_path / "sweep"))
    gamma_path = os.path.join(cfg.out_dir, "gamma.csv")
    run_sweep_kappa(cfg, [60.0, 40.0])
    assert os.path.exists(gamma_path)
    # a re-run refused by validation touches nothing
    with pytest.raises(InvalidParameter, match="positive"):
        run_sweep_kappa(cfg, [60.0, -40.0])
    assert os.path.exists(gamma_path)
    # a re-run that fails in a pitch leaves no gamma.csv beside the
    # pitches it did re-run
    shutil.rmtree(os.path.join(cfg.out_dir, "pitch_60"))
    with open(os.path.join(cfg.out_dir, "pitch_60"), "w") as fh:
        fh.write("not a directory\n")
    with pytest.raises(FileExistsError):
        run_sweep_kappa(cfg, [40.0, 60.0])
    assert is_complete(os.path.join(cfg.out_dir, "pitch_40"))
    assert not os.path.exists(gamma_path)
