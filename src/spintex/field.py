"""Spin-1 field representation and per-site matrix algebra.

A spinor field is a complex array psi[3, nx, nz] in the (m = +1, 0, -1)
basis.  Spin rotations exp(-i theta v.F) have a closed form for spin-1.
``zeeman_like_apply``, the local step of the stepper, applies it site
by site as two tridiagonal products, between a scalar phase and two
quadratic-Zeeman half phases; ``rotate_spinor`` (rf pulses) builds the
3x3 matrix of one global rotation from the same closed form.  The
closed form writes through ufunc ``out=`` arguments: its result goes
into a given ``out`` and its intermediates into a scratch set of the
sites' shape (``local_scratch``), both allocated when not given, so a
caller that holds them steps without allocating.  ``spin_density`` and
``number_density`` write into a given ``out`` the same way.
``prepare_initial`` returns the polarized field and its trap potential;
RunConfig.validate runs the fit check of ``thomas_fermi_density``.
"""

import math

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


def spin_density(psi: np.ndarray, out: np.ndarray = None) -> np.ndarray:
    """s[3, ...] = psi^dag F psi, same trailing shape as psi, written
    into out if given."""
    # [i, ...] keeps a single site's components 0-d arrays, which ufuncs
    # can write through
    a, b, c = psi[0, ...], psi[1, ...], psi[2, ...]
    if out is None:
        out = np.empty((3,) + a.shape)
    sx, sy, sz = out[0, ...], out[1, ...], out[2, ...]
    # sz first, with sx and sy as its scratch
    np.square(a.real, out=sz)
    sz += np.square(a.imag, out=sx)
    np.square(c.real, out=sx)
    sx += np.square(c.imag, out=sy)
    sz -= sx
    cross = np.conj(a)
    cross *= b
    bc = np.conj(b)
    bc *= c
    cross += bc
    np.multiply(SQRT2, cross.real, out=sx)
    np.multiply(SQRT2, cross.imag, out=sy)
    return out


def number_density(psi: np.ndarray, out: np.ndarray = None) -> np.ndarray:
    """n = sum over m of |psi_m|^2, written into out if given."""
    sq = np.empty((2,) + psi.shape[1:])
    re2, im2 = sq[0, ...], sq[1, ...]
    n = np.square(psi[0, ...].real, out=out)
    n += np.square(psi[0, ...].imag, out=im2)
    for m in (1, 2):
        np.square(psi[m, ...].real, out=re2)
        re2 += np.square(psi[m, ...].imag, out=im2)
        n += re2
    return n


def rotate_spinor(psi: np.ndarray, axis: tuple, angle: float) -> np.ndarray:
    """Apply exp(-i angle n.F) site-wise for a global unit axis n."""
    n = np.asarray(axis, dtype=float)
    if n.shape != (3,) or not np.all(np.isfinite(n)):
        raise InvalidParameter(
            f"rotation axis must be three finite numbers, got {axis!r}")
    if not math.isfinite(angle):
        raise InvalidParameter(
            f"rotation angle must be finite, got {angle!r}")
    norm = np.linalg.norm(n)
    if norm == 0:
        raise InvalidParameter("rotation axis must be nonzero")
    # one axis for all sites: the closed form's 3x3 matrix, then a product
    eye = np.eye(3, dtype=complex)
    u = _spin_rotation(eye, angle, *(n / norm), np.empty_like(eye),
                       local_scratch((3,)))
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


# ---------------------------------------------------------------------------
# Per-site local step in closed form
# ---------------------------------------------------------------------------

def local_scratch(shape: tuple) -> list:
    """Scratch set of one local step on sites of the given shape, in the
    order the closed form unpacks it: 7 complex arrays (c1, c2, vz, v-,
    v+ and the two phases), 4 real ones, a mask, then 6 complex ones."""
    # views of three arrays: eighteen separate ones a step raised the
    # peak RSS of three pulsed-suppression rounds by 2 MB
    coef = np.empty((7,) + shape, complex)
    real = np.empty((4,) + shape)
    site = np.empty((6,) + shape, complex)
    return ([coef[i, ...] for i in range(7)]
            + [real[i, ...] for i in range(4)]
            + [np.empty(shape, bool)]
            + [site[i, ...] for i in range(6)])


def _spin_rotation(psi, theta, vx, vy, vz, out, work) -> np.ndarray:
    """exp(-i theta v.F) psi, site-wise, written into out[3, ...].

    For spin-1 (v.F)^3 = |v|^2 v.F, so the exponential is
    1 - i sin(theta|v|)/|v| v.F + (cos(theta|v|) - 1)/|v|^2 (v.F)^2,
    with the limits theta and -theta^2/2 of the two coefficients at
    v = 0.  It is applied as psi + (v.F) y, y = -i c1 psi + c2 (v.F) psi,
    two tridiagonal products.  psi is a sequence of three components that
    out must not overlap; work is a local_scratch set, of which the
    phases and the first two site arrays are left alone.
    """
    (c1, c2, vz_c, vm, vp, _, _, r0, r1, r2, r3, zero,
     _, _, wa, wb, wc, t) = work
    np.multiply(vx, vx, out=r0)
    r0 += np.multiply(vy, vy, out=r1)
    r0 += np.multiply(vz, vz, out=r1)
    np.equal(r0, 0, out=zero)
    np.copyto(r0, 1.0, where=zero)
    vabs = np.sqrt(r0, out=r0)
    half = np.multiply(0.5 * theta, vabs, out=r1)
    sin_h = np.sin(half, out=r2)
    cos_h = np.cos(half, out=r1)
    # the real factors that multiply complex values below, cast once
    np.multiply(2.0, sin_h, out=r3)
    r3 *= cos_h
    r3 /= vabs
    np.copyto(r3, theta, where=zero)
    c1[...] = r3
    np.multiply(-2.0, sin_h, out=r3)
    r3 *= sin_h
    r3 /= np.multiply(vabs, vabs, out=r1)
    np.copyto(r3, -0.5 * theta * theta, where=zero)
    c2[...] = r3
    vz_c[...] = vz
    # v- = (vx - i vy)/sqrt 2, v+ its conjugate
    np.multiply(1j, vy, out=vm)
    np.subtract(vx, vm, out=vm)
    vm /= SQRT2
    np.conjugate(vm, out=vp)

    def vdotf(a, b, c, fa, fb, fc):
        # (fa, fb, fc) = (v.F)(a, b, c), tridiagonal
        np.multiply(vz_c, a, out=fa)
        fa += np.multiply(vm, b, out=t)
        np.multiply(vp, a, out=fb)
        fb += np.multiply(vm, c, out=t)
        np.multiply(vp, b, out=fc)
        fc -= np.multiply(vz_c, c, out=t)

    a, b, c = psi
    vdotf(a, b, c, wa, wb, wc)
    for w, p in ((wa, a), (wb, b), (wc, c)):
        # w <- c2 w - 1j (c1 p)
        np.multiply(c2, w, out=w)
        np.multiply(1j, np.multiply(c1, p, out=t), out=t)
        w -= t
    ya, yb, yc = out[0, ...], out[1, ...], out[2, ...]
    vdotf(wa, wb, wc, ya, yb, yc)
    np.add(a, ya, out=ya)
    np.add(b, yb, out=yb)
    np.add(c, yc, out=yc)
    return out


def zeeman_like_apply(psi, dt, u, q, vx, vy, vz, out=None, work=None):
    """Local step exp(-i dt (u + q Fz^2 + v.F)) with coefficients in rad/ms,
    as the symmetric split

        exp(-i dt u) exp(-i dt/2 q Fz^2) exp(-i dt v.F) exp(-i dt/2 q Fz^2),

    which differs from the exact exponential by O(dt^3) commutators of
    q Fz^2 with v.F.  u is the spin-independent part, q (a scalar)
    multiplies Fz^2, and v couples to the spin like a magnetic field;
    u and v broadcast over the site axes.  The result is written into
    out[3, ...], which must not overlap psi, and the intermediates into
    work, a local_scratch set of psi's site shape; either is allocated
    when not given.  Returns out.
    """
    if out is None:
        out = np.empty(psi.shape, complex)
    if work is None:
        work = local_scratch(psi.shape[1:])
    phase, phase_q, a, c = work[5], work[6], work[12], work[13]
    half_q = np.exp(-0.5j * dt * q)
    np.multiply(half_q, psi[0, ...], out=a)
    np.multiply(half_q, psi[2, ...], out=c)
    _spin_rotation((a, psi[1, ...], c), dt, vx, vy, vz, out, work)
    np.exp(np.multiply(-1j * dt, u, out=phase), out=phase)
    np.multiply(half_q, phase, out=phase_q)
    np.multiply(phase_q, out[0, ...], out=out[0, ...])
    np.multiply(phase, out[1, ...], out=out[1, ...])
    np.multiply(phase_q, out[2, ...], out=out[2, ...])
    return out


# ---------------------------------------------------------------------------
# Initial states
# ---------------------------------------------------------------------------

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
                    c0_2d: float, vx: float = 0.0, vz: float = 0.0) -> tuple:
    """(psi, potential): a longitudinally polarized (m = -1) cloud.

    `profile` is "uniform" (the same density at every site, a periodic
    slab) or "thomas-fermi" (harmonic-trap ground-state shape; requires
    vx, vz > 0).  The potential is the matching external trap in h*Hz
    (zero for uniform).
    """
    if atom_number <= 0:
        raise InvalidParameter(f"atom_number must be positive, "
                               f"got {atom_number!r}")
    if profile == "uniform":
        dens = np.full(grid.shape,
                       atom_number / (grid.nx * grid.nz * grid.cell_area))
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
    return psi, pot


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
