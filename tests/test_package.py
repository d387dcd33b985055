"""Tests for the package surface: its export list and what import loads."""

import os
import subprocess
import sys

import spintex

# none of these is used by a simulate or analyze call
NOT_LOADED = ("spintex.selfcheck", "spintex.oracles", "scipy.integrate",
              "scipy.optimize", "scipy.linalg")


def test_every_exported_name_resolves():
    missing = [name for name in spintex.__all__
               if not hasattr(spintex, name)]
    assert missing == []


def test_import_loads_only_what_runs_use():
    src = os.path.dirname(os.path.dirname(os.path.abspath(spintex.__file__)))
    code = ("import sys, spintex; "
            f"print([m for m in {NOT_LOADED!r} if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_runs_and_cli_load_no_scipy(tmp_path):
    """A simulate and analyze call of each kernel, and the CLI, run on
    numpy and the standard library alone."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(spintex.__file__)))
    code = f"""
import sys
import spintex
from spintex import RunConfig, analyze_run, derive_params, run_simulate
peak = derive_params(RunConfig()).n2d_peak
for mode in ("bare", "larmor"):
    cfg = RunConfig(profile="uniform", potential="none", kernel_mode=mode,
                    nx=16, nz=32, lx_um=8.0, lz_um=60.0,
                    atom_number=peak * 8.0 * 60.0, t_final_ms=0.2,
                    dt_ms=0.05, snapshot_every_ms=0.1,
                    out_dir={str(tmp_path)!r} + "/" + mode, rng_seed=3)
    result = run_simulate(cfg)
    analyze_run(result.run_dir)
import spintex.cli
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""
    proc = subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[]"
