"""Split-step time evolution of the planar spin-1 field.

Second-order Strang splitting: a half spectral kinetic step, a full
step of the local (potential, contact, Zeeman, dipolar) term, and a
second kinetic half step.  The local step is the closed-form symmetric
split of field.zeeman_like_apply, exactly unitary and accurate to
O(dt^3).  The local sub-flow rotates the spin about the mean field it
generates, so frozen coefficients are not exact there; the full local
step therefore uses coefficients from a predicted midpoint state,
which keeps the whole scheme second order in dt.  The predictor half
step takes its dipolar field from the previous step's midpoint (an
exponential-midpoint variant, still second order), so a step costs one
dipolar convolution; the first step of a segment computes the field of
its own densities, which keeps a segment a function of its input
field alone.  evolve is the one stepping loop, and its step index the
one step clock: it keys the pulses and names a failed step.  Between
two stops (a pulse or an observation) each step's closing kinetic half
step merges with the next step's opening one, so a run of steps costs
one FFT pair per step.

Everything but the FFTs is site-local, so Evolver.step runs it in
three loops over blocks of whole grid rows (about _BLOCK_SITES sites).
The grid's sizes and _BLOCK_SITES are powers of two, so every block has
the same number of rows, and one fixed scratch set of that block's
shape, made once per step, serves them all: the local step and its
coefficients write into it.  The densities, u = V + c0 n (built once
per step) and both local steps write into the step's own arrays
through ufunc out= arguments, the predicted field into the output block
that the full local step then overwrites.  Each block sees the inputs
one pass over the grid would, so the result does not depend on the
block size, bit for bit.  The kinetic FFTs run one spin component at a
time, through one held transform buffer.

Evolver(grid, dt_ms, *, q_hz, c0_2d, c2_2d, sigma_y_um, c_dd,
kernel_mode, potential=None) takes its coefficients by keyword: c0_2d
and c2_2d in h*Hz um^2, c_dd in h*Hz um^3, and potential (h*Hz, zero
if None).

Units: energies in h*Hz, time in ms, lengths in um.  The local phases
are converted with RADPMS_PER_HHZ once per application.
"""

import math

import numpy as np

from . import constants as cn
from .dipole import DipolarCoupling, interaction_kernel
from .errors import GridMismatch, InvalidParameter, NumericalFailure
from .field import (local_scratch, number_density, rotate_spinor,
                    spin_density, zeeman_like_apply)
from .grid import Grid2D

# sites per block of rows in Evolver.step: the block's scratch set
# (field.local_scratch, 64 KB per complex array) stays in a core's L2 cache
_BLOCK_SITES = 4096


class Evolver:
    """The steps of dt_ms that evolve runs, and the energy diagnostics."""

    def __init__(self, grid: Grid2D, dt_ms: float, *, q_hz: float,
                 c0_2d: float, c2_2d: float, sigma_y_um: float, c_dd: float,
                 kernel_mode: str, potential: np.ndarray = None):
        if not (0.0 < dt_ms <= 0.2):
            raise InvalidParameter(f"dt_ms must be in (0, 0.2], got {dt_ms!r}")
        if potential is None:
            potential = np.zeros(grid.shape)
        if potential.shape != grid.shape:
            raise InvalidParameter(
                f"potential shape {potential.shape} does not match grid "
                f"{grid.shape}")
        self.grid = grid
        self.dt_ms = dt_ms
        self.q_hz = q_hz
        self.c0_2d = c0_2d
        self.c2_2d = c2_2d
        self.potential = potential
        self.coupling = DipolarCoupling(
            grid, interaction_kernel(grid, sigma_y_um, kernel_mode), c_dd)
        self._kin_half = np.exp(-0.5j * cn.KIN_COEF * grid.k2 * dt_ms)
        self._kin_full = self._kin_half * self._kin_half

    def _kinetic(self, psi: np.ndarray, multiplier: np.ndarray) -> np.ndarray:
        # one spin component at a time: a 2D transform's working set is a
        # third of the batched one's, and its result is the same
        out = np.empty(psi.shape, complex)
        pk = np.empty(psi.shape[1:], complex)
        for c in range(3):
            np.fft.fft2(psi[c], out=pk)
            pk *= multiplier
            # not ifft2(out=): numpy 2.4 returns a new array, out unwritten
            out[c] = np.fft.ifft2(pk)
        return out

    def step(self, psi: np.ndarray, k: int, last: bool,
             b: np.ndarray) -> tuple:
        """Step k of evolve, after its segment's opening kinetic half step.

        Returns (psi_next, b_mid): the stepped field and the dipolar
        field of the predicted midpoint densities, which evolve passes
        back as the next step's b.  The exponential-midpoint local step
        runs as three loops over blocks of rows, around one dipolar
        convolution:
        A. s, the spin density of psi, and u = V + c0 n, its
           spin-independent potential (n the number density);
        B. half a local step of psi with the coefficients of (s, u, b)
           into the block of out that loop C overwrites; the spin
           density of that predicted field overwrites s block by block
           (the local step is unitary at each site, so u holds);
        C. the full local step of psi with the coefficients of the
           predicted s, with u, and their field b_mid, into out.
        b is the previous step's b_mid; None, on a segment's first step,
        makes it the field of psi's own s.  Then comes the closing
        kinetic half step, merged with the next step's opening one (alone
        on the segment's last step).  k only names the step in a
        NumericalFailure.
        """
        theta = self.dt_ms * cn.RADPMS_PER_HHZ
        nx, nz = self.grid.shape
        # nx, nz (Grid2D) and _BLOCK_SITES are powers of two, so rows is
        # one too, no larger than nx: the blocks divide the grid
        rows = min(nx, max(1, _BLOCK_SITES // nz))
        blocks = [slice(i, i + rows) for i in range(0, nx, rows)]
        s = np.empty((3, nx, nz))
        u = np.empty((nx, nz))
        out = np.empty(psi.shape, complex)
        # one block's buffers: the local step's scratch and its coefficients
        work = local_scratch((rows, nz))
        vx, vy, vz = np.empty((3, rows, nz))

        def local(r, b, th):
            # local step of psi's rows r with the coefficients of (s, u, b),
            # into the same rows of out
            for i, v in enumerate((vx, vy, vz)):
                np.multiply(self.c2_2d, s[i, r], out=v)
                v -= b[i, r]
            return zeeman_like_apply(psi[:, r], th, u[r], self.q_hz,
                                     vx, vy, vz, out=out[:, r], work=work)

        for r in blocks:
            spin_density(psi[:, r], out=s[:, r])
            number_density(psi[:, r], out=u[r])
            np.multiply(self.c0_2d, u[r], out=u[r])
            np.add(self.potential[r], u[r], out=u[r])
        if b is None:
            b = self.coupling.field_of(s)
        for r in blocks:
            spin_density(local(r, b, 0.5 * theta), out=s[:, r])
        b_mid = self.coupling.field_of(s)
        for r in blocks:
            local(r, b_mid, theta)
        # checked before the FFT spreads a non-finite site over the grid
        if not np.all(np.isfinite(out.view(float))):
            _, ix, iz = np.argwhere(~np.isfinite(out))[0]
            raise NumericalFailure(
                f"non-finite amplitudes in step {k} "
                f"(t = {k * self.dt_ms:.12g} ms), "
                f"first at site (ix, iz) = ({ix}, {iz})")
        return (self._kinetic(out, self._kin_half if last else self._kin_full),
                b_mid)

    # -- diagnostics ---------------------------------------------------

    def energy_budget(self, psi: np.ndarray, n: np.ndarray = None,
                      s: np.ndarray = None) -> dict:
        """Energy components in h*Hz; their sum is conserved by the flow.

        n and s are psi's number and spin densities, if already known.
        """
        g = self.grid
        da = g.cell_area
        pk = np.fft.fft2(psi, axes=(-2, -1))
        dens_k = (pk.real**2 + pk.imag**2).sum(axis=0)
        e_kin = cn.EKIN_HHZ_PER_K2 * float((g.k2 * dens_k).sum()) \
            * da / (g.nx * g.nz)
        if n is None:
            n = number_density(psi)
        if s is None:
            s = spin_density(psi)
        e_pot = float((self.potential * n).sum()) * da
        e_c0 = 0.5 * self.c0_2d * float((n * n).sum()) * da
        e_c2 = 0.5 * self.c2_2d * float((s * s).sum()) * da
        n_pm = (psi[0].real**2 + psi[0].imag**2
                + psi[2].real**2 + psi[2].imag**2)
        e_zee = self.q_hz * float(n_pm.sum()) * da
        e_dd = self.coupling.energy(s)
        total = e_kin + e_pot + e_c0 + e_c2 + e_zee + e_dd
        return {"e_kin": e_kin, "e_pot": e_pot, "e_c0": e_c0, "e_c2": e_c2,
                "e_zeeman": e_zee, "e_dipole": e_dd, "e_total": total}

    def energy_per_atom(self, psi: np.ndarray, s: np.ndarray = None) -> dict:
        """Energy components per atom in h*Hz (total budget / atom number).

        s is psi's spin density, if already known.
        """
        n = number_density(psi)
        atoms = float(n.sum()) * self.grid.cell_area
        if atoms <= 0:
            raise NumericalFailure("atom number vanished")
        return {key: val / atoms
                for key, val in self.energy_budget(psi, n, s).items()
                if key != "e_total"}


# ---------------------------------------------------------------------------
# Scheduled rf pulses and the stepping loop
# ---------------------------------------------------------------------------

def make_cancellation_schedule(rate_khz: float, t_final_ms: float,
                               dt_ms: float,
                               rng: np.random.Generator) -> dict:
    """Random pi/2 pulse train that averages the dipolar coupling away.

    Pulse times follow a Poisson process of mean rate rate_khz over
    [0, t_final_ms]; each pulse rotates the spins by pi/2 about an axis
    drawn uniformly in the x-y plane.  Rapid random tumbling makes the
    spins sample orientations isotropically, so the traceless dipolar
    tensor time-averages toward zero.  rng gives one exponential draw,
    then one uniform draw per pulse.  Returns evolve's pulses,
    {n: [(axis, angle), ...]}, each pulse at time t keyed by the first
    step n >= 1 with t <= n*dt_ms + 1e-9 (t = 0 fires after step 1).
    """
    if not (math.isfinite(rate_khz) and rate_khz > 0):
        raise InvalidParameter(f"pulse rate must be positive and finite, "
                               f"got {rate_khz!r}")
    if t_final_ms < 0:
        raise InvalidParameter(f"t_final_ms must be >= 0, "
                               f"got {t_final_ms!r}")
    if not dt_ms > 0:
        raise InvalidParameter(f"dt_ms must be positive, got {dt_ms!r}")
    pulses, n = {}, 1
    t = rng.exponential(1.0 / rate_khz)
    while t <= t_final_ms:
        alpha = rng.uniform(0.0, 2.0 * math.pi)
        while t > n * dt_ms + 1e-9:         # first step boundary at or after t
            n += 1
        pulses.setdefault(n, []).append(
            ((math.cos(alpha), math.sin(alpha), 0.0), 0.5 * math.pi))
        t += rng.exponential(1.0 / rate_khz)
    return pulses


def evolve(psi: np.ndarray, evolver: Evolver, n_steps: int,
           pulses: dict = None, observer=None,
           observe_every: int = 0) -> np.ndarray:
    """Take steps 1..n_steps of the stepper, firing pulses and the observer.

    pulses maps a step in 1..n_steps to a list of (axis, angle)
    rotations (field.rotate_spinor), fired in list order after that step
    and before the observer sees it.  The observer is called as
    observer(n, psi) after step n for n = 0, every observe_every steps
    (0: none in between), and n = n_steps.  The steps between two stops
    run as one segment, with merged kinetic half steps, each step handing
    its midpoint dipolar field to the next.  Returns the final field.
    """
    if psi.shape != (3,) + evolver.grid.shape:
        raise GridMismatch(f"field shape {psi.shape} does not match 3 "
                           f"components on grid {evolver.grid.shape}")
    if n_steps < 0 or observe_every < 0:
        raise InvalidParameter(
            f"step counts must be >= 0, got n_steps = {n_steps!r}, "
            f"observe_every = {observe_every!r}")
    pulses = pulses or {}
    for n in pulses:
        if not (isinstance(n, (int, np.integer)) and 1 <= n <= n_steps):
            raise InvalidParameter(
                f"pulse step {n!r} is not an integer in 1..{n_steps}")
    observed = set()
    if observer is not None:
        observer(0, psi)
        if observe_every:
            observed.update(range(observe_every, n_steps, observe_every))
        observed.add(n_steps)
    done = 0
    for stop in sorted((set(pulses) | observed | {n_steps}) - {0}):
        psi = evolver._kinetic(psi, evolver._kin_half)
        b = None        # a segment starts from its own field
        for k in range(done + 1, stop + 1):
            psi, b = evolver.step(psi, k, last=k == stop, b=b)
        done = stop
        for axis, angle in pulses.get(stop, ()):
            psi = rotate_spinor(psi, axis, angle)
        if stop in observed:
            observer(stop, psi)
    return psi
