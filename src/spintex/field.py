"""Spin-1 field representation and per-site matrix algebra.

A spinor field is a complex array psi[3, nx, nz] in the (m = +1, 0, -1)
basis.  ``expmi_tridiag`` applies exp(-i H dt) for the per-site
Hamiltonian, which for spin-1 with a linear-plus-quadratic Zeeman term
and a Zeeman-like coupling v.F is Hermitian tridiagonal with a real
diagonal and equal corner structure H[0,2] = 0.
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
    norm = np.linalg.norm(n)
    if norm == 0:
        raise InvalidParameter("rotation axis must be nonzero")
    n = n / norm
    fx, fy, fz = spin_matrices()
    gen = angle * (n[0] * fx + n[1] * fy + n[2] * fz)
    evals, evecs = np.linalg.eigh(gen)
    u = (evecs * np.exp(-1j * evals)) @ evecs.conj().T
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
# exp(-i H dt) for per-site tridiagonal Hermitian H
# ---------------------------------------------------------------------------

def _hmul(dp, d0, dm, up0, u0m, a, b, c):
    """H @ (a, b, c) for the tridiagonal structure."""
    ra = dp * a + up0 * b
    rb = np.conj(up0) * a + d0 * b + u0m * c
    rc = np.conj(u0m) * b + dm * c
    return ra, rb, rc


def expmi_tridiag(psi: np.ndarray, dt: float, dp, d0, dm, up0, u0m) -> np.ndarray:
    """Apply exp(-i H dt) where, per site,

        H = [[dp,        up0,  0  ],
             [conj(up0), d0,   u0m],
             [0,         conj(u0m), dm]]

    with real diagonals.  Eigenvalues come from the depressed-cubic
    trigonometric formula; the exponential is assembled from Newton
    divided differences of exp(-i lambda dt), which stays accurate
    through degenerate spectra.
    """
    dp = np.asarray(dp, dtype=float)
    d0 = np.asarray(d0, dtype=float)
    dm = np.asarray(dm, dtype=float)
    up0 = np.asarray(up0, dtype=complex)
    u0m = np.asarray(u0m, dtype=complex)

    m = (dp + d0 + dm) / 3.0
    a0 = dp - m
    b0 = d0 - m
    c0 = dm - m
    o1 = (up0.real**2 + up0.imag**2)
    o2 = (u0m.real**2 + u0m.imag**2)
    p2 = (a0 * a0 + b0 * b0 + c0 * c0 + 2.0 * (o1 + o2)) / 6.0
    p = np.sqrt(p2)
    det = a0 * b0 * c0 - a0 * o2 - c0 * o1
    safe_p = np.where(p > 0, p, 1.0)
    r = np.clip(det / (2.0 * safe_p**3), -1.0, 1.0)
    phi = np.arccos(r) / 3.0
    e1 = m + 2.0 * p * np.cos(phi)
    e3 = m + 2.0 * p * np.cos(phi + 2.0 * math.pi / 3.0)
    e2 = 3.0 * m - e1 - e3

    f1 = np.exp(-1j * dt * e1)
    # f[e_i, e_j] = (f_i - f_j)/(e_i - e_j), numerically stable form
    f12 = -1j * dt * np.exp(-0.5j * dt * (e1 + e2)) \
        * np.sinc(dt * (e1 - e2) / (2.0 * math.pi))
    f23 = -1j * dt * np.exp(-0.5j * dt * (e2 + e3)) \
        * np.sinc(dt * (e2 - e3) / (2.0 * math.pi))
    span = e1 - e3
    tiny = np.abs(dt) * span < 1e-6
    safe_span = np.where(tiny, 1.0, span)
    f123 = np.where(
        tiny,
        0.5 * (-1j * dt) ** 2 * np.exp(-1j * dt * m),
        (f12 - f23) / safe_span,
    )

    a, b, c = psi[0], psi[1], psi[2]
    wa, wb, wc = _hmul(dp, d0, dm, up0, u0m, a, b, c)
    wa = wa - e1 * a
    wb = wb - e1 * b
    wc = wc - e1 * c
    va, vb, vc = _hmul(dp, d0, dm, up0, u0m, wa, wb, wc)
    va = va - e2 * wa
    vb = vb - e2 * wb
    vc = vc - e2 * wc
    out = np.empty(psi.shape, dtype=complex)
    out[0] = f1 * a + f12 * wa + f123 * va
    out[1] = f1 * b + f12 * wb + f123 * vb
    out[2] = f1 * c + f12 * wc + f123 * vc
    return out


def zeeman_like_apply(psi, dt, u, q, vx, vy, vz):
    """exp(-i dt (u + q Fz^2 + v.F)) with coefficients in rad/ms.

    u is the spin-independent part, q multiplies Fz^2, and v couples to
    the spin like a magnetic field (v.F).  All arguments broadcast over
    the site axes.
    """
    vminus = (vx - 1j * vy) / SQRT2
    dp = u + q + vz
    d0 = u + np.zeros_like(dp)
    dm = u + q - vz
    return expmi_tridiag(psi, dt, dp, d0, dm, vminus, vminus)


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
