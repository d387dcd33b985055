"""The benchmark's workloads: configs made from the seed, and one round of program calls.

A round is every program call a workload makes, in order.  All rounds of
a run repeat the same calls on the same configs, so each round does the
same work and attempts the same operations.  An operation is one call to
``run_simulate``, ``run_sweep_kappa`` or ``analyze_run``; the
``growth_rate`` fit a user makes on a finished series rides along with
the ``run_simulate`` call it belongs to.

Only the program's random seed depends on the benchmark seed, so the
amount of work is the same for every seed.
"""

import math
import os
import time
from dataclasses import dataclass, field

WORKLOADS = ("slab-dissolution", "pulsed-suppression", "sweep-reanalysis")
SIZES = ("full", "tiny")

# Peak column density sqrt(2 pi) sigma_y n0 of the reference parameter set
# (n0 = 2.3e14 cm^-3, sigma_y = 1.8/sqrt(5) um), um^-2.
SIGMA_Y_UM = 1.8 / math.sqrt(5.0)
N0_UM3 = 2.3e14 * 1e-12
PEAK_COLUMN_UM2 = math.sqrt(2.0 * math.pi) * SIGMA_Y_UM * N0_UM3

SWEEP_PITCHES_UM = (40.0, 50.0, 60.0, 80.0)


def program_seed(seed: int, workload: str) -> int:
    """The rng_seed the program receives for this benchmark seed."""
    return len(WORKLOADS) * seed + WORKLOADS.index(workload)


def _slab(nx, nz, lx, lz, **extra) -> dict:
    """Uniform periodic slab at peak column density, no trap."""
    cfg = dict(profile="uniform", potential="none", box_fill=1.0,
               nx=nx, nz=nz, lx_um=lx, lz_um=lz,
               atom_number=PEAK_COLUMN_UM2 * lx * lz,
               noise_amplitude=1e-3, dt_ms=0.05)
    cfg.update(extra)
    return cfg


@dataclass
class Plan:
    """Configs of one workload: one per simulated run, keyed by tag.

    For the sweep the single config is the base that run_sweep_kappa
    varies over `pitches`.
    """

    workload: str
    configs: dict
    pitches: tuple = ()

    def setup_configs(self) -> list:
        """One config per simulated run, as set-up has to build them."""
        if not self.pitches:
            return list(self.configs.values())
        base = self.configs["sweep"]
        return [dict(base, helix_pitch_um=p) for p in self.pitches]


def make_plan(workload: str, seed: int, size: str = "full") -> Plan:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed!r}")
    tiny = size == "tiny"
    rng_seed = program_seed(seed, workload)
    if workload == "slab-dissolution":
        # box length is a whole number of 60 um pitches, so the helix is
        # seamless across the periodic boundary
        grid = (16, 128, 8.0, 60.0) if tiny else (128, 512, 64.0, 420.0)
        cfg = _slab(*grid, kernel_mode="bare", helix_pitch_um=60.0,
                    t_final_ms=10.0, snapshot_every_ms=2.5,
                    rng_seed=rng_seed)
        return Plan(workload, {"slab": cfg})
    if workload == "pulsed-suppression":
        grid = (16, 128, 12.0, 160.0) if tiny else (64, 256, 48.0, 320.0)
        configs = {}
        for tag, mode, rate in (("on", "bare", 0.0), ("off", "off", 0.0),
                                ("pulsed", "bare", 1.5)):
            configs[tag] = _slab(*grid, kernel_mode=mode,
                                 helix_pitch_um=80.0,
                                 cancel_pulse_rate_khz=rate,
                                 t_final_ms=20.0, snapshot_every_ms=0.25,
                                 rng_seed=rng_seed)
        return Plan(workload, configs)
    # sweep-reanalysis: the trapped defaults-paper physics (Thomas-Fermi
    # cloud, harmonic trap, Larmor-averaged kernel) on a coarser grid
    cfg = dict(nx=64, nz=256, t_final_ms=5.0, snapshot_every_ms=1.25,
               snapshot_write_every_ms=1.25, rng_seed=rng_seed)
    if tiny:
        # a 16x64 grid resolves only the long wavelengths: move the
        # spectral regions below its Nyquist wavevector
        cfg.update(nx=16, nz=64, k_cut_rad_um=2.0 * math.pi / 200.0,
                   k_lo_rad_um=2.0 * math.pi / 100.0,
                   k_hi_rad_um=2.0 * math.pi / 30.0)
    return Plan(workload, {"sweep": cfg}, pitches=SWEEP_PITCHES_UM)


def site_steps(cfg) -> int:
    """Grid sites times time steps of one run of a RunConfig."""
    return cfg.nx * cfg.nz * int(round(cfg.t_final_ms / cfg.dt_ms))


# ---------------------------------------------------------------------------
# One round of program calls
# ---------------------------------------------------------------------------

@dataclass
class Round:
    """What one round did and produced; `outputs` feeds the checks."""

    run_s: float = 0.0          # inside program calls
    sim_s: float = 0.0          # inside run_simulate / run_sweep_kappa
    site_steps: int = 0
    output_bytes: int = 0
    operations: list = field(default_factory=list)
    errors: dict = field(default_factory=dict)     # operation -> message
    outputs: dict = field(default_factory=dict)

    def call(self, name: str, fn, *args):
        """Run one operation, timing it; an exception marks it failed."""
        self.operations.append(name)
        t0 = time.perf_counter()
        try:
            out = fn(*args)
        except Exception as exc:  # a failed operation is counted, not fatal
            self.errors[name] = f"{type(exc).__name__}: {exc}"
            out = None
        self.run_s += time.perf_counter() - t0
        self.outputs[name] = out


def dir_bytes(root: str) -> int:
    total = 0
    for path, _, files in os.walk(root):
        total += sum(os.path.getsize(os.path.join(path, f)) for f in files)
    return total


def run_round(plan: Plan, root: str) -> Round:
    """Make every program call of one round, with run directories under root."""
    from spintex import analysis, runner
    from spintex.io_text import RunConfig

    rnd = Round()

    def simulate(cfg):
        t0 = time.perf_counter()
        res = runner.run_simulate(cfg)
        rnd.sim_s += time.perf_counter() - t0
        rnd.site_steps += site_steps(cfg)
        return res, analysis.growth_rate(res.series)

    def sweep(cfg, pitches):
        t0 = time.perf_counter()
        rows = runner.run_sweep_kappa(cfg, pitches)
        rnd.sim_s += time.perf_counter() - t0
        rnd.site_steps += len(pitches) * site_steps(cfg)
        return rows

    if plan.pitches:
        cfg = RunConfig(**plan.configs["sweep"],
                        out_dir=os.path.join(root, "sweep"))
        rnd.call("run_sweep_kappa", sweep, cfg, list(plan.pitches))
        for pitch in plan.pitches:
            rnd.call(f"analyze_run:{pitch:g}", runner.analyze_run,
                     os.path.join(cfg.out_dir, f"pitch_{pitch:g}"))
    else:
        for tag, values in plan.configs.items():
            cfg = RunConfig(**values, out_dir=os.path.join(root, tag))
            rnd.call(f"run_simulate:{tag}", simulate, cfg)
        # re-analysis of the last run's first and last snapshots
        rnd.call(f"analyze_run:{tag}", runner.analyze_run,
                 os.path.join(root, tag))
    rnd.output_bytes = dir_bytes(root)
    return rnd
