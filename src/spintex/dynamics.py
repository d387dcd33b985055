"""Split-step time evolution of the planar spin-1 field.

Second-order Strang splitting: a half spectral kinetic step, a full
step of the local (potential, contact, Zeeman, dipolar) term, and a
second kinetic half step.  The local step is the closed-form symmetric
split of field.zeeman_like_apply, exactly unitary and accurate to
O(dt^3).  The local sub-flow rotates the spin about the mean field it
generates, so frozen coefficients are not exact there; the full local
step therefore uses coefficients from a predicted midpoint state,
which keeps the whole scheme second order in dt.  Evolver.advance
merges each step's closing kinetic half step with the next step's
opening one, so a run of steps costs one FFT pair per step.

Everything but the FFTs is site-local, so Evolver.step runs it in
three loops over blocks of whole grid rows (about _BLOCK_SITES sites),
small enough that a block's temporaries stay in cache.  Each block
sees the inputs one pass over the grid would, so the result does not
depend on the block size, bit for bit.  The kinetic FFTs run one spin
component at a time.

Units: energies in h*Hz, time in ms, lengths in um.  The local phases
are converted with RADPMS_PER_HHZ once per application.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import constants as cn
from .dipole import DipolarCoupling, normalize_mode
from .errors import InvalidParameter, NumericalFailure
from .field import (number_density, rotate_spinor, spin_density,
                    zeeman_like_apply)
from .grid import Grid2D

# sites per block of rows in Evolver.step: one block's complex temporaries
# (64 KB each) stay in a core's L2 cache
_BLOCK_SITES = 4096


@dataclass(frozen=True)
class EvolutionSpec:
    """Physics coefficients and numerical step for one evolution run."""

    grid: Grid2D
    dt_ms: float
    q_hz: float                 # quadratic Zeeman, h*Hz
    c0_2d: float                # density-density contact, h*Hz um^2
    c2_2d: float                # spin-spin contact, h*Hz um^2
    sigma_y_um: float
    c_dd: float                 # h*Hz um^3
    kernel_mode: str = "bare"
    gradient_mg_cm: float = 0.0

    def __post_init__(self):
        if not (0.0 < self.dt_ms <= 0.2):
            raise InvalidParameter(
                f"dt_ms must be in (0, 0.2], got {self.dt_ms!r}")
        if self.sigma_y_um <= 0:
            raise InvalidParameter(
                f"sigma_y_um must be positive, got {self.sigma_y_um!r}")
        normalize_mode(self.kernel_mode)


class Evolver:
    """Advances a spinor field in fixed steps of spec.dt_ms."""

    def __init__(self, spec: EvolutionSpec, potential: np.ndarray = None):
        self.spec = spec
        g = spec.grid
        if potential is None:
            potential = np.zeros(g.shape)
        if potential.shape != g.shape:
            raise InvalidParameter(
                f"potential shape {potential.shape} does not match grid "
                f"{g.shape}")
        self.potential = potential
        self.coupling = DipolarCoupling(g, spec.sigma_y_um,
                                        spec.kernel_mode, spec.c_dd)
        # linear Zeeman from a residual field gradient along z, h*Hz
        slope = cn.LARMOR_HZ_PER_G * cn.MG_CM_TO_G_UM * spec.gradient_mg_cm
        self.linear_z = slope * g.z[None, :]
        self._kin_half = np.exp(-0.5j * cn.KIN_COEF * g.k2 * spec.dt_ms)
        self._kin_full = self._kin_half * self._kin_half
        self._steps_taken = 0

    def _kinetic(self, psi: np.ndarray, multiplier: np.ndarray) -> np.ndarray:
        # one spin component at a time: a 2D transform's working set is a
        # third of the batched one's, and its result is the same
        out = np.empty_like(psi)
        for c in range(3):
            pk = np.fft.fft2(psi[c])
            pk *= multiplier
            out[c] = np.fft.ifft2(pk)
        return out

    def advance(self, psi: np.ndarray, n: int) -> np.ndarray:
        """Take n full steps (n >= 1) and return the field after them."""
        if n < 1:
            raise InvalidParameter(f"advance needs n >= 1, got {n!r}")
        psi = self._kinetic(psi, self._kin_half)
        for i in range(1, n + 1):
            psi = self.step(psi, last=i == n)
        return psi

    def step(self, psi: np.ndarray, last: bool) -> np.ndarray:
        """One step inside advance, after its opening kinetic half step.

        The exponential-midpoint local step runs as three loops over
        blocks of rows, around the two dipolar convolutions:
        A. s and n, the spin and number densities of psi;
        B. half a local step of psi with the coefficients of (s, n),
           keeping only the densities of that predicted field, which
           overwrite (s, n) block by block;
        C. the full local step of psi with the predicted coefficients.
        Then comes the closing kinetic half step, merged with the next
        step's opening one (alone on the last step).
        """
        spec = self.spec
        theta = spec.dt_ms * cn.RADPMS_PER_HHZ
        nx, nz = spec.grid.shape
        rows = max(1, _BLOCK_SITES // nz)
        blocks = [slice(i, i + rows) for i in range(0, nx, rows)]
        s = np.empty((3, nx, nz))
        n = np.empty((nx, nz))

        c2 = spec.c2_2d

        def local(r, b, th):
            # local step of psi's rows r with the coefficients of (s, n, b)
            u = self.potential[r] + spec.c0_2d * n[r]
            return zeeman_like_apply(psi[:, r], th, u, spec.q_hz,
                                     c2 * s[0, r] - b[0, r],
                                     c2 * s[1, r] - b[1, r],
                                     c2 * s[2, r] - b[2, r] + self.linear_z)

        for r in blocks:
            s[:, r] = spin_density(psi[:, r])
            n[r] = number_density(psi[:, r])
        b = self.coupling.field_of(s)
        for r in blocks:
            pred = local(r, b, 0.5 * theta)
            s[:, r] = spin_density(pred)
            n[r] = number_density(pred)
        b = self.coupling.field_of(s)
        out = np.empty_like(psi)
        for r in blocks:
            out[:, r] = local(r, b, theta)
        self._steps_taken += 1
        # checked before the FFT spreads a non-finite site over the grid
        if not np.all(np.isfinite(out.view(float))):
            _, ix, iz = np.argwhere(~np.isfinite(out))[0]
            raise NumericalFailure(
                f"non-finite amplitudes in step {self._steps_taken} "
                f"(t = {self._steps_taken * spec.dt_ms:.12g} ms), "
                f"first at site (ix, iz) = ({ix}, {iz})")
        return self._kinetic(out, self._kin_half if last else self._kin_full)

    # -- diagnostics ---------------------------------------------------

    def norm(self, psi: np.ndarray) -> float:
        return float(number_density(psi).sum()) * self.spec.grid.cell_area

    def energy_budget(self, psi: np.ndarray) -> dict:
        """Energy components in h*Hz; their sum is conserved by the flow."""
        g = self.spec.grid
        da = g.cell_area
        pk = np.fft.fft2(psi, axes=(-2, -1))
        dens_k = (pk.real**2 + pk.imag**2).sum(axis=0)
        e_kin = cn.EKIN_HHZ_PER_K2 * float((g.k2 * dens_k).sum()) \
            * da / (g.nx * g.nz)
        n = number_density(psi)
        s = spin_density(psi)
        e_pot = float((self.potential * n).sum()) * da
        e_c0 = 0.5 * self.spec.c0_2d * float((n * n).sum()) * da
        e_c2 = 0.5 * self.spec.c2_2d * float((s * s).sum()) * da
        n_pm = (psi[0].real**2 + psi[0].imag**2
                + psi[2].real**2 + psi[2].imag**2)
        e_zee = self.spec.q_hz * float(n_pm.sum()) * da \
            + float((self.linear_z * s[2]).sum()) * da
        e_dd = self.coupling.energy(s)
        total = e_kin + e_pot + e_c0 + e_c2 + e_zee + e_dd
        return {"e_kin": e_kin, "e_pot": e_pot, "e_c0": e_c0, "e_c2": e_c2,
                "e_zeeman": e_zee, "e_dipole": e_dd, "e_total": total}

    def energy_per_atom(self, psi: np.ndarray) -> dict:
        """Energy components per atom in h*Hz (total budget / atom number)."""
        atoms = self.norm(psi)
        if atoms <= 0:
            raise NumericalFailure("atom number vanished")
        return {key: val / atoms
                for key, val in self.energy_budget(psi).items()
                if key != "e_total"}


# ---------------------------------------------------------------------------
# Scheduled rf pulses
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PulseEvent:
    time_ms: float
    axis: tuple          # unit rotation axis
    angle: float         # radians


@dataclass(frozen=True)
class PulseSchedule:
    events: tuple
    t_final_ms: float

    def __post_init__(self):
        for i, ev in enumerate(self.events):
            for name in ("time_ms", "axis", "angle"):
                value = getattr(ev, name)
                if not np.all(np.isfinite(value)):
                    raise InvalidParameter(
                        f"pulse {i}: {name} must be finite, got {value!r}")
        times = [e.time_ms for e in self.events]
        if any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
            raise InvalidParameter("pulse times must be strictly increasing")
        if times and (times[0] < 0.0 or times[-1] > self.t_final_ms):
            raise InvalidParameter(
                f"pulse times must lie within [0, {self.t_final_ms}] ms")

    def __len__(self):
        return len(self.events)


def make_cancellation_schedule(rate_khz: float, t_final_ms: float,
                               seed) -> PulseSchedule:
    """Random pi/2 pulse train that averages the dipolar coupling away.

    Pulse times follow a Poisson process of mean rate rate_khz; each
    event rotates the spins by pi/2 about an axis drawn uniformly in
    the x-y plane.  Rapid random tumbling makes the spins sample
    orientations isotropically, so the traceless dipolar tensor
    time-averages toward zero.  Deterministic for a given seed.
    """
    if rate_khz <= 0:
        raise InvalidParameter(f"pulse rate must be positive, "
                               f"got {rate_khz!r}")
    if t_final_ms < 0:
        raise InvalidParameter(f"t_final_ms must be >= 0, "
                               f"got {t_final_ms!r}")
    rng = seed if isinstance(seed, np.random.Generator) \
        else np.random.default_rng(seed)
    events = []
    t = rng.exponential(1.0 / rate_khz)
    while t <= t_final_ms:
        alpha = rng.uniform(0.0, 2.0 * math.pi)
        events.append(PulseEvent(time_ms=t,
                                 axis=(math.cos(alpha), math.sin(alpha), 0.0),
                                 angle=0.5 * math.pi))
        t += rng.exponential(1.0 / rate_khz)
    return PulseSchedule(events=tuple(events), t_final_ms=t_final_ms)


def evolve(psi: np.ndarray, evolver: Evolver, n_steps: int,
           schedule: PulseSchedule = None, observer=None,
           observe_every: int = 0) -> np.ndarray:
    """Take n_steps steps of the stepper, firing pulses and the observer.

    Scheduled pulses are applied at the first step boundary at or after
    their event time, before the observer sees that boundary.  The
    observer is called as observer(n, psi) after step n for n = 0,
    every observe_every steps (0: none in between), and n = n_steps.
    Between these boundaries the evolver advances without stopping.
    Returns the final field.
    """
    if n_steps < 0 or observe_every < 0:
        raise InvalidParameter(
            f"step counts must be >= 0, got n_steps = {n_steps!r}, "
            f"observe_every = {observe_every!r}")
    dt = evolver.spec.dt_ms
    pulses, n = {}, 1
    for ev in (schedule.events if schedule is not None else ()):
        while ev.time_ms > n * dt + 1e-9:     # first boundary at or after
            n += 1
        pulses.setdefault(n, []).append(ev)
    observed = set()
    if observer is not None:
        observer(0, psi)
        if observe_every:
            observed.update(range(observe_every, n_steps, observe_every))
        observed.add(n_steps)
    stops = {n for n in pulses if n <= n_steps} | observed | {n_steps}
    done = 0
    for n in sorted(stops - {0}):
        psi = evolver.advance(psi, n - done)
        done = n
        for ev in pulses.get(n, ()):
            psi = rotate_spinor(psi, ev.axis, ev.angle)
        if n in observed:
            observer(n, psi)
    return psi
