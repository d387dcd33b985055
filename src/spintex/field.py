"""Spin-1 field representation and per-site matrix algebra.

A spinor field is a complex array psi[3, nx, nz] in the (m = +1, 0, -1)
basis.  Spin rotations exp(-i theta v.F) have a closed form for spin-1.
``zeeman_like_apply``, the local step of the stepper, applies it site
by site as two tridiagonal products, between a scalar phase and two
quadratic-Zeeman half phases; ``rotate_spinor`` (rf pulses) builds the
3x3 matrix of one global rotation from the same closed form.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatch, InvalidParameter
from .grid import Grid2D

SQRT2 = math.sqrt(2.0)


def spin_matrices() -> tuple:
    """(Fx, Fy, Fz) in the (+1, 0, -1) basis."""
    fx = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex) / SQRT2
    fy = np.array([[0, -1j, 0], [1j, 0, -1j], [0, 1j, 0]], dtype=complex) / SQRT2
    fz = np.diag([1.0, 0.0, -1.0]).astype(complex)
    return fx, fy, fz


def spin_density(psi: np.ndarray) -> np.ndarray:
    """s[3, ...] = psi^dag F psi, same trailing shape as psi."""
    a, b, c = psi[0], psi[1], psi[2]
    cross = np.conj(a) * b + np.conj(b) * c
    sx = SQRT2 * cross.real
    sy = SQRT2 * cross.imag
    sz = (a.real**2 + a.imag**2) - (c.real**2 + c.imag**2)
    return np.stack([sx, sy, sz])


def number_density(psi: np.ndarray) -> np.ndarray:
    return (psi.real**2 + psi.imag**2).sum(axis=0)


@dataclass(frozen=True)
class MagnetizationField:
    """Vector magnetization density m[3, nx, nz] and density n on a grid."""

    grid: Grid2D
    m: np.ndarray
    n: np.ndarray

    def __post_init__(self):
        if self.m.shape != (3,) + self.grid.shape or \
                self.n.shape != self.grid.shape:
            raise GridMismatch(
                f"magnetization shape {self.m.shape}, density shape "
                f"{self.n.shape} do not match grid {self.grid.shape}")


def magnetization(psi: np.ndarray, grid: Grid2D) -> MagnetizationField:
    if psi.shape != (3,) + grid.shape:
        raise GridMismatch(f"field shape {psi.shape} does not match "
                           f"grid {grid.shape}")
    return MagnetizationField(grid=grid, m=spin_density(psi),
                              n=number_density(psi))


def rotate_spinor(psi: np.ndarray, axis: tuple, angle: float) -> np.ndarray:
    """Apply exp(-i angle n.F) site-wise for a global unit axis n."""
    n = np.asarray(axis, dtype=float)
    if not np.all(np.isfinite(n)):
        raise InvalidParameter(f"rotation axis must be finite, got {axis!r}")
    if not math.isfinite(angle):
        raise InvalidParameter(
            f"rotation angle must be finite, got {angle!r}")
    norm = np.linalg.norm(n)
    if norm == 0:
        raise InvalidParameter("rotation axis must be nonzero")
    # one axis for all sites: the closed form's 3x3 matrix, then a product
    u = np.stack(_spin_rotation(np.eye(3, dtype=complex), angle, *(n / norm)))
    return np.einsum("ab,b...->a...", u, psi)


def imprint_helix(psi: np.ndarray, grid: Grid2D, kappa: float) -> np.ndarray:
    """Wind transverse magnetization into a helix of wavevector kappa.

    Each component m picks up the phase exp(-i m kappa z), the result of
    a linear field gradient acting for a finite pulse; the transverse
    spin direction then advances as kappa z along the field axis.
    """
    if psi.shape[1:] != grid.shape:
        raise GridMismatch(f"field shape {psi.shape[1:]} does not match "
                           f"grid {grid.shape}")
    phase = np.exp(-1j * kappa * grid.z)[None, :]
    out = psi.copy()
    out[0] *= phase
    out[2] *= np.conj(phase)
    return out


def transverse_state() -> np.ndarray:
    """Single-site spinor fully magnetized along +x."""
    return np.array([0.5, 1.0 / SQRT2, 0.5], dtype=complex)


# ---------------------------------------------------------------------------
# Per-site local step in closed form
# ---------------------------------------------------------------------------

def _spin_rotation(psi, theta, vx, vy, vz) -> tuple:
    """Components of exp(-i theta v.F) psi, site-wise.

    For spin-1 (v.F)^3 = |v|^2 v.F, so the exponential is
    1 - i sin(theta|v|)/|v| v.F + (cos(theta|v|) - 1)/|v|^2 (v.F)^2,
    with the limits theta and -theta^2/2 of the two coefficients at
    v = 0.  It is applied as psi + (v.F) y, y = -i c1 psi + c2 (v.F) psi,
    two tridiagonal products.
    """
    v2 = vx * vx + vy * vy + vz * vz
    zero = v2 == 0
    vabs = np.sqrt(np.where(zero, 1.0, v2))
    half = 0.5 * theta * vabs
    sin_h = np.sin(half)
    cos_h = np.cos(half)
    # cast once the real factors that multiply complex values below
    c1 = np.where(zero, theta, 2.0 * sin_h * cos_h / vabs).astype(complex)
    c2 = np.where(zero, -0.5 * theta * theta,
                  -2.0 * sin_h * sin_h / (vabs * vabs)).astype(complex)
    vz = np.asarray(vz, dtype=complex)
    vm = (vx - 1j * vy) / SQRT2
    vp = np.conj(vm)

    def vdotf(a, b, c):
        return vz * a + vm * b, vp * a + vm * c, vp * b - vz * c

    a, b, c = psi
    wa, wb, wc = vdotf(a, b, c)
    ya, yb, yc = vdotf(c2 * wa - 1j * (c1 * a), c2 * wb - 1j * (c1 * b),
                       c2 * wc - 1j * (c1 * c))
    return a + ya, b + yb, c + yc


def zeeman_like_apply(psi, dt, u, q, vx, vy, vz):
    """Local step exp(-i dt (u + q Fz^2 + v.F)) with coefficients in rad/ms,
    as the symmetric split

        exp(-i dt u) exp(-i dt/2 q Fz^2) exp(-i dt v.F) exp(-i dt/2 q Fz^2),

    which differs from the exact exponential by O(dt^3) commutators of
    q Fz^2 with v.F.  u is the spin-independent part, q (a scalar)
    multiplies Fz^2, and v couples to the spin like a magnetic field;
    u and v broadcast over the site axes.
    """
    half_q = np.exp(-0.5j * dt * q)
    a, b, c = _spin_rotation((half_q * psi[0], psi[1], half_q * psi[2]),
                             dt, vx, vy, vz)
    phase = np.exp(-1j * dt * u)
    phase_q = half_q * phase
    return np.stack([phase_q * a, phase * b, phase_q * c])


# ---------------------------------------------------------------------------
# Initial states
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InitialState:
    psi: np.ndarray          # [3, nx, nz], m = -1 column occupied
    potential: np.ndarray    # [nx, nz], h*Hz
    atom_number: float


def _box_envelope(grid: Grid2D, fill: float) -> np.ndarray:
    """Flat-top envelope covering `fill` of each period, smooth edges.

    fill >= 1 returns exactly 1 everywhere (fully periodic uniform
    cloud); otherwise the edge rolls off over two healing-scale cells
    with a cos^2 profile.
    """
    if fill >= 1.0:
        return np.ones(grid.shape)
    wx = 0.5 * fill * grid.lx
    wz = 0.5 * fill * grid.lz
    rampx = max(2.0 * grid.dx, 0.05 * wx)
    rampz = max(2.0 * grid.dz, 0.05 * wz)

    def ramp(coord, w, ell):
        t = (np.abs(coord) - (w - ell)) / ell
        t = np.clip(t, 0.0, 1.0)
        return np.cos(0.5 * math.pi * t) ** 2 * (np.abs(coord) < w)

    return ramp(grid.xmesh, wx, rampx) * ramp(grid.zmesh, wz, rampz)


def thomas_fermi_density(grid: Grid2D, vx: float, vz: float, c0_2d: float,
                         atom_number: float) -> np.ndarray:
    """Column density of the interacting ground state in a 2D harmonic trap.

    n(x,z) = max(mu - vx x^2 - vz z^2, 0) / c0_2d with mu fixed by the
    atom number: N = (pi/2) mu^2 / (c0_2d sqrt(vx vz)).
    """
    if min(vx, vz, c0_2d, atom_number) <= 0:
        raise InvalidParameter("trap curvatures, coupling, and atom number "
                               "must be positive")
    mu = math.sqrt(2.0 * atom_number * c0_2d * math.sqrt(vx * vz) / math.pi)
    rx = math.sqrt(mu / vx)
    rz = math.sqrt(mu / vz)
    if 2.0 * rx > 0.9 * grid.lx or 2.0 * rz > 0.9 * grid.lz:
        raise InvalidParameter(
            f"cloud radii ({rx:.1f}, {rz:.1f}) um do not fit the "
            f"({grid.lx:.1f}, {grid.lz:.1f}) um box")
    dens = (mu - vx * grid.xmesh**2 - vz * grid.zmesh**2) / c0_2d
    return np.maximum(dens, 0.0)


def prepare_initial(grid: Grid2D, profile: str, atom_number: float,
                    c0_2d: float, vx: float = 0.0, vz: float = 0.0,
                    box_fill: float = 0.9) -> InitialState:
    """Longitudinally polarized (m = -1) cloud with the chosen density profile.

    `profile` is "uniform" (flat-top box, exactly periodic when
    box_fill >= 1) or "thomas-fermi" (harmonic-trap ground-state shape;
    requires vx, vz > 0).  The returned potential is the matching
    external trap in h*Hz (zero for uniform).
    """
    if atom_number <= 0:
        raise InvalidParameter(f"atom_number must be positive, "
                               f"got {atom_number!r}")
    if profile == "uniform":
        env = _box_envelope(grid, box_fill)
        norm = env.sum() * grid.cell_area
        dens = env * (atom_number / norm)
        pot = np.zeros(grid.shape)
    elif profile == "thomas-fermi":
        dens = thomas_fermi_density(grid, vx, vz, c0_2d, atom_number)
        norm = dens.sum() * grid.cell_area
        dens = dens * (atom_number / norm)
        pot = vx * grid.xmesh**2 + vz * grid.zmesh**2
    else:
        raise InvalidParameter(f"unknown density profile {profile!r}")
    psi = np.zeros((3,) + grid.shape, dtype=complex)
    psi[2] = np.sqrt(dens)
    return InitialState(psi=psi, potential=pot, atom_number=atom_number)


def add_noise(psi: np.ndarray, amplitude: float,
              rng: np.random.Generator) -> np.ndarray:
    """Multiplicative complex noise, renormalized to the original number.

    Seeds every spatial and spin mode so unstable channels can grow
    from a controlled floor.
    """
    if amplitude == 0.0:
        return psi
    if amplitude < 0:
        raise InvalidParameter(f"noise amplitude must be >= 0, "
                               f"got {amplitude!r}")
    xi = rng.standard_normal(psi.shape) + 1j * rng.standard_normal(psi.shape)
    out = psi * (1.0 + amplitude * xi / SQRT2)
    n_old = number_density(psi).sum()
    n_new = number_density(out).sum()
    if n_new > 0:
        out *= math.sqrt(n_old / n_new)
    return out
