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
