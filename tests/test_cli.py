"""Tests for the command-line interface: exit codes, overrides, wiring."""

import os
import re
import subprocess
import sys

import pytest

import spintex
from spintex.cli import main
from spintex.errors import NumericalFailure
from spintex.io_text import RunConfig
from spintex.params import derive_params

D = derive_params(RunConfig())

SMALL = """
profile = uniform
potential = none
kernel_mode = bare
nx = 32
nz = 64
lx_um = 16
lz_um = 60
atom_number = {atoms}
helix_pitch_um = 60
noise_amplitude = 1e-3
t_final_ms = 1.0
dt_ms = 0.05
snapshot_every_ms = 0.25
""".format(atoms=D.n2d_peak * 16.0 * 60.0)


def write_small(tmp_path):
    path = tmp_path / "cfg"
    path.write_text(SMALL)
    return str(path)


def run_cli(*args):
    """`python -m spintex.cli args` in a fresh interpreter."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(spintex.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-m", "spintex.cli", *args],
                          env=env, capture_output=True, text=True,
                          timeout=120)


def test_constants_prints_table(capsys):
    assert main(["constants"]) == 0
    out = capsys.readouterr().out
    assert "464.0933" in out            # peak column density
    assert "0.348777" in out            # a_d / |delta_a|


def test_simulate_with_overrides(tmp_path, capsys):
    cfg_path = write_small(tmp_path)
    out_dir = str(tmp_path / "run7")
    code = main(["simulate", "--config", cfg_path, "--seed", "7",
                 "--out", out_dir, "--dipoles", "off",
                 "--cancel-pulses", "0"])
    assert code == 0
    assert os.path.exists(os.path.join(out_dir, "DONE"))
    meta = open(os.path.join(out_dir, "meta"), encoding="utf-8").read()
    assert "rng_seed = 7" in meta
    assert "kernel_mode = off" in meta
    assert "run complete" in capsys.readouterr().out


def test_simulate_prints_progress_to_stdout(tmp_path):
    proc = run_cli("simulate", "--config", write_small(tmp_path),
                   "--out", str(tmp_path / "run"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    lines = proc.stdout.splitlines()
    progress = re.compile(r"t = +\d+\.\d\d ms   short/total = \d\.\d{4}   "
                          r"vortices = \d+$")
    assert len(lines) == 6
    assert all(progress.match(ln) for ln in lines[:5])
    assert lines[0].startswith("t =     0.00 ms")
    assert lines[4].startswith("t =     1.00 ms")
    assert lines[5].startswith("run complete: ")


def test_analyze_truncated_snapshot_is_an_error(tmp_path):
    out_dir = tmp_path / "run"
    assert main(["simulate", "--config", write_small(tmp_path),
                 "--out", str(out_dir)]) == 0
    snap = out_dir / "snap_t1.txt"
    text = snap.read_text()
    snap.write_text(text[:len(text) // 2])
    proc = run_cli("analyze", str(out_dir))
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:")
    assert "snap_t1.txt" in proc.stderr
    assert "Traceback" not in proc.stderr


def refused_meta_key(tmp_path, after_key, line):
    """stderr of `spintex analyze` on a run whose meta also lists `line`."""
    out_dir = tmp_path / "oldrun"
    assert main(["simulate", "--config", write_small(tmp_path),
                 "--out", str(out_dir)]) == 0
    meta = out_dir / "meta"
    text, n = re.subn(rf"^({after_key} = .*\n)", rf"\g<1>{line}\n",
                      meta.read_text(), flags=re.M)
    assert n == 1
    meta.write_text(text)
    proc = run_cli("analyze", str(out_dir))
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:")
    assert str(meta) in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (out_dir / "analysis.csv").exists()
    return proc.stderr


def test_analyze_refuses_a_run_written_before_trap_y_hz_went(tmp_path):
    # meta files of earlier versions list trap_y_hz; such a run is re-run,
    # not read under a guessed config
    stderr = refused_meta_key(tmp_path, "trap_x_hz", "trap_y_hz = 440.0")
    assert "unknown key 'trap_y_hz'" in stderr


def test_analyze_refuses_a_run_written_before_background_went(tmp_path):
    # as for trap_y_hz: no retired-key list, the run is re-run
    stderr = refused_meta_key(tmp_path, "k_hi_rad_um", "background = auto")
    assert "unknown key 'background'" in stderr


def test_analyze_command(tmp_path, capsys):
    cfg_path = write_small(tmp_path)
    out_dir = str(tmp_path / "run")
    assert main(["simulate", "--config", cfg_path, "--out", out_dir]) == 0
    assert main(["analyze", out_dir]) == 0
    assert os.path.exists(os.path.join(out_dir, "analysis.csv"))
    assert main(["analyze", str(tmp_path / "nowhere")]) == 1
    assert "error" in capsys.readouterr().err


def test_sweep_command(tmp_path, capsys):
    cfg_path = write_small(tmp_path)
    out_dir = str(tmp_path / "sweep")
    code = main(["sweep-kappa", "--config", cfg_path, "--out", out_dir,
                 "--pitches", "60,30"])
    assert code == 0
    assert os.path.exists(os.path.join(out_dir, "gamma.csv"))
    capsys.readouterr()

    assert main(["sweep-kappa", "--config", cfg_path, "--out", out_dir,
                 "--pitches", "60"]) == 1
    assert main(["sweep-kappa", "--config", cfg_path, "--out", out_dir,
                 "--pitches", "60,slow"]) == 1


def test_sweep_prints_each_line_once_in_pitch_order(tmp_path):
    # a forked worker holds the caller's stdout handler: a line it printed
    # itself shows in the process's stdout, not in an in-memory handler
    out_dir = str(tmp_path / "sweep")
    script = (
        "import multiprocessing, sys\n"
        "multiprocessing.set_start_method('fork')\n"
        "from spintex import cli, runner\n"
        "runner._usable_cpus = lambda: 2\n"
        "sys.exit(cli.main(sys.argv[1:]))\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(spintex.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", script, "sweep-kappa", "--config",
         write_small(tmp_path), "--out", out_dir, "--pitches", "60,30,20"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True,
        text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    lines = proc.stdout.splitlines()
    assert len(lines) == 3 * (5 + 1) + 1
    for p, pitch in enumerate((60, 30, 20)):   # pitch 30 ran on lane 1
        block = lines[6 * p:6 * p + 6]
        for j, t_ms in enumerate(("0.00", "0.25", "0.50", "0.75", "1.00")):
            assert block[j].startswith(f"t = {t_ms:>8} ms   short/total = ")
        assert block[5].startswith(f"pitch {pitch:6.1f} um   kappa ")
    assert lines[-1] == f"sweep complete: {out_dir}/gamma.csv"


def test_invalid_config_exits_one(tmp_path, capsys):
    path = tmp_path / "cfg"
    path.write_text("dt_ms = -1\n")
    assert main(["simulate", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert "dt_ms" in err


def test_constants_rejects_equal_scattering_lengths(tmp_path, capsys):
    path = tmp_path / "cfg"
    path.write_text("a2_nm = 5.39\n")
    assert main(["constants", "--config", str(path)]) == 1
    assert "error:" in capsys.readouterr().err


def test_constants_rejects_a_cloud_wider_than_the_box(tmp_path, capsys):
    path = tmp_path / "cfg"
    path.write_text("trap_x_hz = 3\nnx = 16\nnz = 64\nk_cut_rad_um = 0.1\n"
                    "k_lo_rad_um = 0.2\nk_hi_rad_um = 0.4\n")
    assert main(["constants", "--config", str(path)]) == 1
    assert "error:" in capsys.readouterr().err


def test_usage_errors_exit_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--no-such-flag"])
    assert exc.value.code == 1
    capsys.readouterr()


def test_numerical_failure_exits_two(tmp_path, capsys, monkeypatch):
    import spintex.runner

    def boom(cfg):
        raise NumericalFailure("field went non-finite at step 3")

    monkeypatch.setattr(spintex.runner, "run_simulate", boom)
    cfg_path = write_small(tmp_path)
    assert main(["simulate", "--config", cfg_path]) == 2
    assert "numerical failure" in capsys.readouterr().err


def test_selfcheck_wiring(monkeypatch, capsys):
    import spintex.selfcheck

    monkeypatch.setattr(spintex.selfcheck, "run_selfcheck",
                        lambda: True)
    assert main(["selfcheck"]) == 0
    monkeypatch.setattr(spintex.selfcheck, "run_selfcheck",
                        lambda: False)
    assert main(["selfcheck"]) == 1
    capsys.readouterr()
