"""Output checks, computed apart from the program.

Expected values come from CODATA constants, a quadrature of the 3D
dipolar tensor, plain numpy sums over the text files the program wrote,
and properties the method must have (conservation laws, exact zeros).
Nothing here calls into spintex or compares against stored output.

Each check returns None when it passes and a message when it fails.
`check_round` maps a workload's round to {operation: [messages]}.
"""

import math
import os

import numpy as np
from scipy.integrate import quad

from workloads import SIGMA_Y_UM

# CODATA 2018, SI
HBAR = 1.054571817e-34
H = 6.62607015e-34
MU0 = 1.25663706212e-6
MU_B = 9.2740100783e-24
ATOMIC_MASS = 1.66053906660e-27
MASS_RB87 = 86.909180531 * ATOMIC_MASS   # AME2020 atomic mass
G_F = 0.5                                # |g_F| of the 87Rb F=1 manifold
UM = 1e-6

# mu0 (gF muB)^2 / (4 pi) as h*Hz um^3
C_DD = MU0 * (G_F * MU_B) ** 2 / (4.0 * math.pi) / H / UM**3

ENERGY_COLUMNS = ("e_kin", "e_pot", "e_c0", "e_c2", "e_zeeman", "e_dipole")

# Text files hold 11 significant digits; re-analysis and read-back
# compare at a tolerance well above that rounding and far below any
# physical difference between runs.
TEXT_RTOL = 1e-7


# ---------------------------------------------------------------------------
# Independent physics
# ---------------------------------------------------------------------------

def helix_kinetic_hz(kappa_rad_um: float) -> float:
    """hbar^2 kappa^2 / 4m per atom of a transverse helix, as E/h in Hz."""
    kappa = kappa_rad_um / UM
    return HBAR**2 * kappa**2 / (4.0 * MASS_RB87) / H


def helix_dipolar_tensor(kappa_rad_um: float, sigma_um: float) -> float:
    """D_xx + D_yy of the planar dipolar kernel at k = kappa along z, 1/um.

    The 3D kernel (4 pi / 3)(3 k_i k_j / k^2 - delta_ij) is averaged
    over the out-of-plane wavevector k_y with the form factor
    exp(-k_y^2 sigma^2) of a Gaussian column of width sigma.  x lies in
    the plane across the helix axis and y out of the plane.
    """
    k2 = kappa_rad_um**2

    def integrand(ky):
        return math.exp(-(ky * sigma_um) ** 2) * (3.0 * ky**2 / (ky**2 + k2)
                                                 - 2.0)

    value, _ = quad(integrand, 0.0, math.inf, epsabs=0.0, epsrel=1e-12,
                    limit=200)
    return (4.0 * math.pi / 3.0) * 2.0 * value / (2.0 * math.pi)


def helix_dipolar_hz(kappa_rad_um: float, sigma_um: float,
                     column_um2: float) -> float:
    """Dipolar energy per atom of a fully polarized transverse helix.

    The spin density s = n (cos kappa z, sin kappa z, 0) gives
    E/N = c_dd n (D_xx + D_yy) / 4.
    """
    return C_DD * column_um2 * helix_dipolar_tensor(kappa_rad_um,
                                                    sigma_um) / 4.0


# ---------------------------------------------------------------------------
# Reading the program's text files with plain numpy
# ---------------------------------------------------------------------------

def read_snapshot_table(path: str) -> np.ndarray:
    """The 12-column per-site table of a snapshot file."""
    return np.loadtxt(path, comments="#", ndmin=2)


def table_psi(table: np.ndarray) -> np.ndarray:
    """psi[3, sites] from the re/im columns of a snapshot table."""
    return np.stack([table[:, 6] + 1j * table[:, 7],
                     table[:, 8] + 1j * table[:, 9],
                     table[:, 10] + 1j * table[:, 11]])


def read_csv(path: str) -> dict:
    """Columns of a csv the program wrote; '#' lines are comments."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh
                 if ln.strip() and not ln.startswith("#")]
    names = lines[0].split(",")
    data = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]],
                    ndmin=2)
    return {name: data[:, i] for i, name in enumerate(names)}


def atom_sum(psi: np.ndarray) -> float:
    return float(np.sum(psi.real**2 + psi.imag**2))


def snapshot_path(run_dir: str, t_ms: float) -> str:
    return os.path.join(run_dir, f"snap_t{t_ms:g}.txt")


# ---------------------------------------------------------------------------
# Single checks
# ---------------------------------------------------------------------------

def rel_close(what: str, got: float, want: float, rtol: float):
    err = abs(got - want) / abs(want)
    if not err <= rtol:
        return f"{what}: {got:.10g} vs {want:.10g}, rel. error {err:.2e} > {rtol:.0e}"
    return None


def check_atoms_conserved(what: str, initial_psi, final_psi, rtol=1e-8):
    return rel_close(f"{what} atom number", atom_sum(final_psi),
                     atom_sum(initial_psi), rtol)


def check_energy_conserved(what: str, cols: dict, rtol=1e-4):
    total = sum(np.asarray(cols[c]) for c in ENERGY_COLUMNS)
    dev = float(np.max(np.abs(total - total[0])) / abs(total[0]))
    if not dev <= rtol:
        return f"{what} energy drifts by {dev:.2e} > {rtol:.0e}"
    return None


def check_snapshot_fields(what: str, table: np.ndarray):
    """The stored n and M columns agree with the stored psi columns.

    Both were written from the in-memory field, so a round trip that
    lost or altered it shows here.
    """
    psi = table_psi(table)
    a, b, c = psi
    cross = np.conj(a) * b + np.conj(b) * c
    expect = np.stack([np.abs(psi[0])**2 + np.abs(psi[1])**2
                       + np.abs(psi[2])**2,
                       math.sqrt(2.0) * cross.real,
                       math.sqrt(2.0) * cross.imag,
                       np.abs(a)**2 - np.abs(c)**2], axis=1)
    scale = float(np.max(np.abs(expect[:, 0])))
    err = float(np.max(np.abs(table[:, 2:6] - expect))) / scale
    if not err <= 1e-9:
        return f"{what} n/M columns differ from psi by {err:.2e} > 1e-09"
    return None


def check_reanalysis(what: str, timeseries: dict, analysis: dict):
    """Every analysis.csv row equals the timeseries.csv row at its time."""
    t_all = np.asarray(timeseries["t_ms"])
    if len(analysis["t_ms"]) < 2:
        return f"{what} re-analysis holds {len(analysis['t_ms'])} rows"
    for i, t in enumerate(analysis["t_ms"]):
        hits = np.nonzero(np.abs(t_all - t) <= 1e-9 * max(1.0, abs(t)))[0]
        if len(hits) != 1:
            return f"{what} re-analysis time {t:g} ms not in the series"
        j = hits[0]
        for name, col in analysis.items():
            got, want = col[i], timeseries[name][j]
            scale = max(abs(want), 1e-300)
            if name == "n_vortices":
                bad = got != want
            else:
                bad = not abs(got - want) <= TEXT_RTOL * scale
            if bad:
                return (f"{what} re-analysis {name} at {t:g} ms: {got!r} vs "
                        f"{want!r}")
    return None


# ---------------------------------------------------------------------------
# Per-workload checks
# ---------------------------------------------------------------------------

def _run_files(run_dir: str, cols: dict) -> tuple:
    """(first, last) snapshot tables of a finished run directory."""
    t_last = float(cols["t_ms"][-1])
    first = read_snapshot_table(snapshot_path(run_dir, 0.0))
    last = read_snapshot_table(snapshot_path(run_dir, t_last))
    return first, last


def _simulated_run(output, run_dir: str, what: str, energy=True) -> tuple:
    """(failures, t=0 snapshot table) of one run of the slab workloads."""
    res, gamma = output
    cols = res.series.columns
    first, last = _run_files(run_dir, cols)
    msgs = [check_atoms_conserved(what, table_psi(first),
                                  res.psi.reshape(3, -1)),
            check_snapshot_fields(f"{what} t=0", first),
            check_snapshot_fields(f"{what} final", last)]
    if not os.path.exists(os.path.join(run_dir, "DONE")):
        msgs.append(f"{what}: no DONE marker")
    if energy:
        msgs.append(check_energy_conserved(what, cols))
    if not math.isfinite(gamma):
        msgs.append(f"{what}: growth rate {gamma!r} is not finite")
    return msgs, first


def _slab_checks(plan, rnd, root) -> dict:
    cfg = plan.configs["slab"]
    run_dir = os.path.join(root, "slab")
    res, _ = rnd.outputs["run_simulate:slab"]
    cols = res.series.columns
    msgs, first = _simulated_run(rnd.outputs["run_simulate:slab"], run_dir,
                                 "slab")
    kappa = 2.0 * math.pi / cfg["helix_pitch_um"]
    column = atom_sum(table_psi(first)) / len(first)
    msgs.append(rel_close("initial dipolar energy per atom",
                          cols["e_dipole"][0],
                          helix_dipolar_hz(kappa, SIGMA_Y_UM, column), 1e-3))
    msgs.append(rel_close("initial kinetic energy per atom", cols["e_kin"][0],
                          helix_kinetic_hz(kappa), 1e-2))
    short, long_ = cols["short_order"], cols["long_order"]
    if not short[-1] >= 10.0 * short[0]:
        msgs.append(f"short-range order grew only {short[-1] / short[0]:.3g}x")
    if not long_[-1] < long_[0]:
        msgs.append("long-range order did not fall")
    if cols["n_vortices"][0] != 0:
        msgs.append(f"{cols['n_vortices'][0]:g} vortices at t=0")
    return {"run_simulate:slab": msgs,
            "analyze_run:slab": [_reanalysis_of(run_dir, "slab")]}


def _reanalysis_of(run_dir: str, what: str):
    return check_reanalysis(what, read_csv(os.path.join(run_dir,
                                                        "timeseries.csv")),
                            read_csv(os.path.join(run_dir, "analysis.csv")))


def _pulsed_checks(plan, rnd, root) -> dict:
    out = {}
    series = {}
    for tag in plan.configs:
        name = f"run_simulate:{tag}"
        out[name], _ = _simulated_run(rnd.outputs[name],
                                      os.path.join(root, tag), tag,
                                      energy=tag != "pulsed")
        series[tag] = rnd.outputs[name][0].series.columns
    if np.any(series["off"]["e_dipole"] != 0.0):
        out["run_simulate:off"].append("dipole-off run has dipolar energy")
    ed_on = abs(float(np.mean(series["on"]["e_dipole"])))
    ed_pulsed = abs(float(np.mean(series["pulsed"]["e_dipole"])))
    if not ed_pulsed < ed_on:
        out["run_simulate:pulsed"].append(
            f"pulses did not reduce |mean dipolar energy| "
            f"({ed_pulsed:.4g} vs {ed_on:.4g})")
    short_on = series["on"]["short_order"][-1]
    for tag in ("off", "pulsed"):
        ratio = series[tag]["short_order"][-1] / short_on
        if not ratio <= 0.5:
            out[f"run_simulate:{tag}"].append(
                f"final short-range order {ratio:.3g} of the dipoles-on run")
    out["analyze_run:pulsed"] = [_reanalysis_of(os.path.join(root, "pulsed"),
                                                "pulsed")]
    return out


def _sweep_checks(plan, rnd, root) -> dict:
    base = os.path.join(root, "sweep")
    msgs = []
    gamma = read_csv(os.path.join(base, "gamma.csv"))
    kappas = [2.0 * math.pi / p for p in plan.pitches]
    for got, want in zip(gamma["kappa_rad_per_um"], kappas):
        msgs.append(rel_close("gamma.csv kappa", got, want, 1e-10))
    if len(gamma["kappa_rad_per_um"]) != len(kappas):
        msgs.append(f"gamma.csv holds {len(gamma['kappa_rad_per_um'])} rows")
    e_kin0 = {}
    for i, pitch in enumerate(plan.pitches):
        run_dir = os.path.join(base, f"pitch_{pitch:g}")
        if not os.path.exists(os.path.join(run_dir, "DONE")):
            msgs.append(f"pitch {pitch:g}: no DONE marker")
            continue
        cols = read_csv(os.path.join(run_dir, "timeseries.csv"))
        e_kin0[i] = cols["e_kin"][0]
        first, last = _run_files(run_dir, cols)
        msgs.append(check_atoms_conserved(f"pitch {pitch:g}", table_psi(first),
                                          table_psi(last)))
        msgs.append(check_snapshot_fields(f"pitch {pitch:g} final", last))
    for i in range(1, len(plan.pitches)):
        if i - 1 not in e_kin0 or i not in e_kin0:
            continue
        msgs.append(rel_close(
            f"kinetic energy step {plan.pitches[i - 1]:g}->"
            f"{plan.pitches[i]:g} um", e_kin0[i - 1] - e_kin0[i],
            helix_kinetic_hz(kappas[i - 1]) - helix_kinetic_hz(kappas[i]),
            1e-3))
    out = {"run_sweep_kappa": msgs}
    for pitch in plan.pitches:
        run_dir = os.path.join(base, f"pitch_{pitch:g}")
        out[f"analyze_run:{pitch:g}"] = [_reanalysis_of(run_dir,
                                                        f"pitch {pitch:g}")]
    return out


CHECKS = {"slab-dissolution": _slab_checks,
          "pulsed-suppression": _pulsed_checks,
          "sweep-reanalysis": _sweep_checks}


def check_round(plan, rnd, root: str) -> dict:
    """{operation: [failure messages]} for every operation of a round.

    An operation fails when it raised, or when a check of its output
    fails; a check that cannot read the output it needs fails too.
    """
    failures = {name: [msg] for name, msg in rnd.errors.items()}
    try:
        found = CHECKS[plan.workload](plan, rnd, root)
    except (OSError, ValueError, TypeError, KeyError, IndexError) as exc:
        found = {name: [f"check could not run: {type(exc).__name__}: {exc}"]
                 for name in rnd.operations if name not in failures}
    for name, msgs in found.items():
        msgs = [m for m in msgs if m]
        if msgs:
            failures.setdefault(name, []).extend(msgs)
    return failures
