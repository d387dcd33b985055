"""Tests for run orchestration: directories, determinism, re-analysis."""

import logging
import os
import shutil
from dataclasses import replace

import numpy as np
import pytest

from spintex import dynamics
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
    evolver, state = build_evolver(cfg)
    psi = initial_field(cfg, noise_rng, state)
    s = spin_density(psi)
    nbar = cfg.atom_number / (cfg.lx_um * cfg.lz_um)
    # pi/2 tip about y takes the z-polarized cloud onto +x everywhere
    assert np.max(np.abs(s[0] - nbar)) < 1e-9 * nbar
    assert np.max(np.abs(s[2])) < 1e-9 * nbar

    cfg = small_cfg(tmp_path, noise_amplitude=0.0)
    psi = initial_field(cfg, noise_rng, state)
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


def test_run_directory_does_not_depend_on_the_block_size(tmp_path,
                                                         monkeypatch):
    # out_dir enters the config hash, so both runs use the same relative
    # out_dir, each under its own working directory; 640 sites are 10 of
    # the 64-site rows: blocks of 10, 10, 10 and 2 rows
    trees = []
    for block_sites in (dynamics._BLOCK_SITES, 640):
        monkeypatch.setattr(dynamics, "_BLOCK_SITES", block_sites)
        work = tmp_path / f"blocks_{block_sites}"
        work.mkdir()
        monkeypatch.chdir(work)
        run_simulate(small_cfg(tmp_path, out_dir="run",
                               snapshot_write_every_ms=0.5))
        trees.append({name: (work / "run" / name).read_bytes()
                      for name in os.listdir(work / "run")})
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
    assert lines[-1].startswith("t =     1.00 ms   long = ")


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
    evolver, state = build_evolver(cfg)
    assert state.potential is not None
    assert evolver.potential is not None
    assert abs(evolver.spec.q_hz - D.q_hz) < 1e-12
    result = run_simulate(cfg)
    e = {k: result.series.columns[k][0] for k in ("e_pot", "e_c0")}
    assert e["e_pot"] > 0.0
    assert e["e_c0"] > 0.0


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
