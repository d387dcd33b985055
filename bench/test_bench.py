"""Quick tests of the benchmark itself: its checks catch wrong outputs,
its tracer restores the program, and every tiny workload runs to its end.

    PYTHONPATH=src python3 -m pytest -q bench
"""

import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import checks
import spans
import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))


def _round(workload, tmp_path_factory):
    plan = workloads.make_plan(workload, seed=5, size="tiny")
    root = str(tmp_path_factory.mktemp(workload))
    rnd = workloads.run_round(plan, root)
    return plan, rnd, root


@pytest.fixture(scope="module")
def slab(tmp_path_factory):
    return _round("slab-dissolution", tmp_path_factory)


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    return _round("sweep-reanalysis", tmp_path_factory)


def _failures_after(plan, rnd, root, spoil):
    """check_round on the round's outputs after `spoil` altered a copy."""
    work = root + "-spoiled"
    shutil.copytree(root, work)
    try:
        return checks.check_round(plan, spoil(rnd, work), work)
    finally:
        shutil.rmtree(work)


def _spoiled_slab(rnd, column=None, factor=1.0, psi_factor=1.0):
    res, gamma = rnd.outputs["run_simulate:slab"]
    cols = dict(res.series.columns)
    if column is not None:
        cols[column] = cols[column] * factor
    series = type(res.series)(columns=cols)
    out = workloads.Round(operations=list(rnd.operations),
                          outputs=dict(rnd.outputs))
    out.outputs["run_simulate:slab"] = (
        type(res)(psi=res.psi * psi_factor, series=series,
                  run_dir=res.run_dir, cfg_hash=res.cfg_hash), gamma)
    return out


def test_quadrature_kernel_limits():
    # a wide helix sees the k -> 0 tensor: D_xx + D_yy = (2/3) sqrt(pi)/sigma
    sigma = workloads.SIGMA_Y_UM
    assert checks.helix_dipolar_tensor(1e-9, sigma) == pytest.approx(
        (2.0 / 3.0) * math.sqrt(math.pi) / sigma, rel=1e-6)
    # a tight helix: D_yy -> -(2/3) I0 as well, so the sum -> -(4/3) I0
    assert checks.helix_dipolar_tensor(1e4, sigma) == pytest.approx(
        -(4.0 / 3.0) * math.sqrt(math.pi) / sigma, rel=1e-3)


def test_slab_outputs_pass(slab):
    plan, rnd, root = slab
    assert checks.check_round(plan, rnd, root) == {}


def test_flipped_dipolar_sign_fails(slab):
    plan, rnd, root = slab
    found = _failures_after(
        plan, rnd, root,
        lambda r, _: _spoiled_slab(r, column="e_dipole", factor=-1.0))
    assert any("dipolar energy" in m for m in found["run_simulate:slab"])


def test_wrong_kinetic_energy_fails(slab):
    plan, rnd, root = slab
    found = _failures_after(
        plan, rnd, root,
        lambda r, _: _spoiled_slab(r, column="e_kin", factor=1.02))
    assert any("kinetic energy" in m for m in found["run_simulate:slab"])


def test_perturbed_norm_fails(slab):
    plan, rnd, root = slab
    found = _failures_after(plan, rnd, root,
                            lambda r, _: _spoiled_slab(r, psi_factor=1.0 + 1e-6))
    assert any("atom number" in m for m in found["run_simulate:slab"])


def test_altered_snapshot_fails(slab):
    plan, rnd, root = slab

    def spoil(r, work):
        path = checks.snapshot_path(os.path.join(work, "slab"), 10.0)
        table = checks.read_snapshot_table(path)
        site = int(np.argmax(np.abs(table[:, 6])))
        table[site, 6] *= 1.001       # one psi value no longer fits n, M
        np.savetxt(path, table, fmt="%.10e")
        return r

    found = _failures_after(plan, rnd, root, spoil)
    assert any("n/M columns" in m for m in found["run_simulate:slab"])


def test_sweep_outputs_pass(sweep):
    plan, rnd, root = sweep
    assert checks.check_round(plan, rnd, root) == {}


def test_mismatched_reanalysis_fails(sweep):
    plan, rnd, root = sweep

    def spoil(r, work):
        base = os.path.join(work, "sweep")
        shutil.copy(os.path.join(base, "pitch_40", "analysis.csv"),
                    os.path.join(base, "pitch_50", "analysis.csv"))
        return r

    found = _failures_after(plan, rnd, root, spoil)
    assert list(found) == ["analyze_run:50"]


def test_missing_done_marker_fails(sweep):
    plan, rnd, root = sweep

    def spoil(r, work):
        os.remove(os.path.join(work, "sweep", "pitch_60", "DONE"))
        return r

    found = _failures_after(plan, rnd, root, spoil)
    assert any("DONE" in m for m in found["run_sweep_kappa"])


def test_energy_drift_fails():
    cols = {c: np.ones(5) for c in checks.ENERGY_COLUMNS}
    assert checks.check_energy_conserved("x", cols) is None
    cols["e_c0"] = np.array([1.0, 1.0, 1.0, 1.0, 1.01])
    assert "drifts" in checks.check_energy_conserved("x", cols)


def test_tracer_restores_program(tmp_path):
    from spintex import dynamics, runner
    before = (runner.run_simulate, dynamics.Evolver.step,
              dynamics.zeeman_like_apply)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert runner.run_simulate is not before[0]
        assert dynamics.zeeman_like_apply is not before[2]
        plan = workloads.make_plan("slab-dissolution", seed=2, size="tiny")
        rnd = workloads.run_round(plan, str(tmp_path))
    finally:
        tracer.uninstall()
    assert (runner.run_simulate, dynamics.Evolver.step,
            dynamics.zeeman_like_apply) == before
    totals = spans.layer_totals(tracer.spans)
    assert totals["dynamics.step"]["calls"] == 200
    assert totals["field.zeeman_like_apply"]["calls"] == 400
    own = spans.self_times(tracer.spans)
    assert min(own) >= 0.0
    top = sum(s[2] - s[1] for s in tracer.spans if s[3] < 0)
    assert sum(own) == pytest.approx(top, rel=1e-9)
    assert top <= rnd.run_s


def _bench(args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "bench", "run.py"),
                           "--size", "tiny", "--seconds", "0", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def test_every_tiny_workload_runs_to_its_end():
    proc = _bench(["--workload", "all", "--seed", "3"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 2 + 4 + 5
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    for w in workloads.WORKLOADS:
        for m in spec["end_to_end"]:
            assert result["metrics"][f"{w}/{m['name']}"]["value"] > 0


def test_traced_run_reports_every_layer():
    proc = _bench(["--workload", "sweep-reanalysis", "--trace", "1"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}
    for m in spec["per_layer"]:
        if m["name"] != "trace.overhead_s":
            assert result["metrics"][m["name"]]["value"] > 0, m["name"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "tmp",
                                                  "__pycache__"))
    proc = _bench(["--workload", "slab-dissolution"], cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
