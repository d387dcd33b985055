"""Independent reference computations for cross-validation.

Every routine here reaches a result by a different route than the
production code: brute-force quadrature instead of closed forms,
direct lattice sums instead of FFT convolution, generic ODE
integration instead of split-step.  The selfcheck battery and the test
suite compare the two paths.
"""

import math

import numpy as np
from scipy import integrate

from . import constants as cn
from .dipole import DipolarCoupling
from .errors import InvalidParameter
from .field import spin_density
from .grid import Grid2D

SQRT_PI = math.sqrt(math.pi)


# ---------------------------------------------------------------------------
# Planar kernel by direct quadrature over the out-of-plane wavevector
# ---------------------------------------------------------------------------

def planar_tensor_quadrature(kx: float, kz: float, sigma_y: float) -> np.ndarray:
    """D(kx, kz) from adaptive integration over ky.

    The three-dimensional dipolar tensor in k-space is
    (4 pi / 3)(3 khat khat - delta); weighting by the squared Gaussian
    profile exp(-sigma^2 ky^2) and integrating dky/(2 pi) gives the
    planar kernel without using the closed form.
    """
    krho2 = kx * kx + kz * kz
    out = np.zeros((3, 3))

    def element(a, b):
        def integrand(ky):
            k2 = krho2 + ky * ky
            kv = (kx, ky, kz)
            if k2 == 0.0:
                return 0.0
            proj = 3.0 * kv[a] * kv[b] / k2 - (1.0 if a == b else 0.0)
            return math.exp(-(sigma_y * ky) ** 2) * (4.0 * math.pi / 3.0) * proj

        val, _ = integrate.quad(integrand, -np.inf, np.inf,
                                epsabs=1e-13, epsrel=1e-13, limit=400)
        return val / (2.0 * math.pi)

    for a in range(3):
        for b in range(a, 3):
            out[a, b] = element(a, b)
            out[b, a] = out[a, b]
    return out


def phi_averaged_kernel(q: np.ndarray, n_phi: int = 32) -> np.ndarray:
    """Average R_z(phi)^T Q R_z(phi) over uniformly spaced angles.

    Models rapid spin precession about z.  The entries of Q are at most
    quadratic in the rotation trig functions, so any n_phi >= 8 uniform
    grid integrates them exactly.
    """
    out = np.zeros_like(q)
    for j in range(n_phi):
        phi = 2.0 * math.pi * j / n_phi
        c, s = math.cos(phi), math.sin(phi)
        r = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        out += np.einsum("ai,ab...,bj->ij...", r, q, r)
    return out / n_phi


# ---------------------------------------------------------------------------
# Lattice-reference kernel: y-smeared point dipoles on the grid
# ---------------------------------------------------------------------------

def _point_tensor(x, y, z):
    """(delta - 3 rhat rhat)/r^3 stacked as [3, 3, ...]."""
    r2 = x * x + y * y + z * z
    r = np.sqrt(r2)
    with np.errstate(divide="ignore", invalid="ignore"):
        inv_r3 = np.where(r2 > 0, 1.0 / (r2 * r), 0.0)
        inv_r5 = np.where(r2 > 0, inv_r3 / r2, 0.0)
    comps = (x, y, z)
    out = np.empty((3, 3) + np.shape(r2))
    for a in range(3):
        for b in range(3):
            delta = 1.0 if a == b else 0.0
            out[a, b] = delta * inv_r3 - 3.0 * comps[a] * comps[b] * inv_r5
    return out


def lattice_kernel_table(grid: Grid2D, sigma_y: float, images: int = 2,
                         nodes: int = 64) -> np.ndarray:
    """Real-space interaction tensor between y-smeared lattice columns.

    Each site carries a unit Gaussian profile along y; the pair tensor
    is the point tensor convolved with the Gaussian autocorrelation
    (variance 2 sigma^2), evaluated by Gauss-Hermite quadrature.  Entry
    [:, :, i, j] is the tensor at the signed displacement for index
    offset (i, j), summed over periodic images within `images` copies.
    The zero-displacement self term is excluded.
    """
    t_nodes, t_weights = np.polynomial.hermite.hermgauss(nodes)
    y = 2.0 * sigma_y * t_nodes
    dx = ((np.arange(grid.nx) + grid.nx // 2) % grid.nx - grid.nx // 2) * grid.dx
    dz = ((np.arange(grid.nz) + grid.nz // 2) % grid.nz - grid.nz // 2) * grid.dz
    table = np.zeros((3, 3, grid.nx, grid.nz))
    for mx in range(-images, images + 1):
        for mz in range(-images, images + 1):
            xs = dx[:, None] + mx * grid.lx
            zs = dz[None, :] + mz * grid.lz
            acc = np.zeros_like(table)
            for t, w in zip(y, t_weights):
                k = _point_tensor(xs[..., None], t, zs[..., None])[..., 0]
                if mx == 0 and mz == 0:
                    k[:, :, 0, 0] = 0.0
                acc += w * k
            table += acc / SQRT_PI
    return table


def direct_lattice_field(s: np.ndarray, table: np.ndarray, c_dd: float,
                         cell_area: float) -> np.ndarray:
    """b[i] = -c_dd sum_j W(r_i - r_j) s[j] dA by explicit summation."""
    nx, nz = s.shape[1:]
    out = np.zeros_like(s)
    for i in range(nx):
        for j in range(nz):
            shifted = np.roll(np.roll(s, i, axis=1), j, axis=2)
            out += np.einsum("ab,b...->a...", table[:, :, i, j], shifted)
    return -c_dd * cell_area * out


def fft_lattice_field(s: np.ndarray, table: np.ndarray, c_dd: float,
                      cell_area: float) -> np.ndarray:
    """Same circular convolution as direct_lattice_field done by FFT."""
    wk = np.fft.fft2(table, axes=(-2, -1))
    sk = np.fft.fft2(s, axes=(-2, -1))
    bk = np.einsum("ij...,j...->i...", wk, sk)
    return -c_dd * cell_area * np.fft.ifft2(bk, axes=(-2, -1)).real


# ---------------------------------------------------------------------------
# Wound-column dipolar energy by 3D real-space integration
# ---------------------------------------------------------------------------

def column_energy_quadrature(kappa: float, sigma_um: float,
                             n0_um3: float) -> float:
    """On-axis helix-column dipolar energy by 1D adaptive quadrature.

    Reduces the mean-field energy of an atom on the axis of a radially
    Gaussian column wound at wavevector kappa to a single radial
    k integral,

        eps = mu0 mu^2 n0 sigma^2 int_0^inf dk k e^{-sigma^2 k^2/2}
              [ k^2 / (2 (k^2 + kappa^2)) - 1/3 ].
    """
    pref = 4.0 * math.pi * cn.CDD_HHZ_UM3 * n0_um3 * sigma_um**2

    def integrand(k):
        return k * math.exp(-0.5 * (sigma_um * k) ** 2) * (
            k * k / (2.0 * (k * k + kappa * kappa)) - 1.0 / 3.0)

    val, _ = integrate.quad(integrand, 0.0, np.inf,
                            epsabs=1e-13, epsrel=1e-13, limit=400)
    return pref * val


def column_energy_numeric3d(kappa: float, sigma_um: float, n0_um3: float,
                            phase0: float = 0.0, n_r: int = 400,
                            n_theta: int = 128, n_phi: int = 128) -> float:
    """On-axis helix-column dipolar energy by brute 3D integration.

    Evaluates the mean-field energy of an atom on the column axis in
    the field of the whole wound column, directly from the real-space
    pair sum in spherical coordinates:

        eps = (mu0 mu^2 n0 / 4 pi) int d^3R  e^{-R_perp^2 / 2 sigma^2}
              s(phase0) . K(R) . s(kappa R_z + phase0)

    with K the point dipolar tensor and s the transverse helix
    direction.  phase0 shifts the helix phase at the test atom; the
    result must not depend on it.  The angular average of K kills the
    1/R divergence, so log-spaced radii give a convergent principal
    value.
    """
    r_max = max(60.0 * sigma_um, 20.0 / kappa if kappa > 0 else 0.0)
    r = np.geomspace(1e-3 * sigma_um, r_max, n_r)
    ct, wt = np.polynomial.legendre.leggauss(n_theta)
    phi = (np.arange(n_phi) + 0.5) * (2.0 * math.pi / n_phi)
    wp = 2.0 * math.pi / n_phi

    st = np.sqrt(1.0 - ct**2)
    rx = r[:, None, None] * st[None, :, None] * np.cos(phi)[None, None, :]
    ry = r[:, None, None] * st[None, :, None] * np.sin(phi)[None, None, :]
    rz = r[:, None, None] * ct[None, :, None] * np.ones((1, 1, n_phi))
    r3 = r[:, None, None] ** 3
    rr2 = r[:, None, None] ** 2

    c0, s0 = math.cos(phase0), math.sin(phase0)
    c1 = np.cos(kappa * rz + phase0)
    s1 = np.sin(kappa * rz + phase0)
    # s(0) . K . s(Rz) expanded over the transverse components
    dot = (c0 * c1 + s0 * s1) / r3 - 3.0 * (c0 * rx + s0 * ry) \
        * (c1 * rx + s1 * ry) / (r3 * rr2)
    weight = np.exp(-(rx**2 + ry**2) / (2.0 * sigma_um**2))
    shell = np.trapezoid(dot * weight * rr2 * wt[None, :, None] * wp,
                         x=r, axis=0).sum()
    # the remaining integral is dimensionless (d^3R / R^3), so the
    # prefactor is mu0 mu^2 n0 / (4 pi h) in plain Hz
    mu_si = cn.GF * cn.MUB_SI
    pref = cn.MU0_SI * mu_si**2 * (n0_um3 / cn.UM**3) / (4.0 * math.pi) \
        / cn.H_SI
    return pref * shell


# ---------------------------------------------------------------------------
# Single-site spin dynamics by generic ODE integration
# ---------------------------------------------------------------------------

def single_site_reference(psi0: np.ndarray, t_eval, q_hz: float,
                          c0n_hz: float, c2_2d: float, c_dd: float,
                          q0_tensor: np.ndarray = None,
                          q_kin_hz: float = 0.0) -> np.ndarray:
    """Trajectory of one spinor under the local mean-field Hamiltonian.

    Integrates i dpsi/dt = [c0n + (q + q_kin) Fz^2 + (c2' s - b).F] psi
    with b = c_dd Q0 s, using a high-order adaptive ODE solver.
    Energies are in h*Hz; time in ms.  Returns psi at each t_eval,
    shape [len(t_eval), 3].
    """
    if q0_tensor is None:
        q0_tensor = np.zeros((3, 3))
    qeff = q_hz + q_kin_hz

    def rhs(_t, y):
        psi = y[:3] + 1j * y[3:]
        s = spin_density(psi)
        v = c2_2d * s - c_dd * (q0_tensor @ s)
        vminus = (v[0] - 1j * v[1]) / math.sqrt(2.0)
        h = np.array([
            [c0n_hz + qeff + v[2], vminus, 0.0],
            [np.conj(vminus), c0n_hz, vminus],
            [0.0, np.conj(vminus), c0n_hz + qeff - v[2]],
        ])
        dpsi = -1j * cn.RADPMS_PER_HHZ * (h @ psi)
        return np.concatenate([dpsi.real, dpsi.imag])

    y0 = np.concatenate([psi0.real, psi0.imag])
    sol = integrate.solve_ivp(rhs, (t_eval[0], t_eval[-1]), y0,
                              t_eval=t_eval, method="DOP853",
                              rtol=1e-12, atol=1e-13 * np.abs(y0).max())
    if not sol.success:
        raise InvalidParameter(f"reference integration failed: {sol.message}")
    return (sol.y[:3] + 1j * sol.y[3:]).T


# ---------------------------------------------------------------------------
# Pairwise sign audit
# ---------------------------------------------------------------------------

def pair_interaction_energy(axis_spin: str, grid: Grid2D, sigma_y: float,
                            c_dd: float, separation_cells: int = 3,
                            flip_sign: bool = False) -> float:
    """Cross interaction energy of two localized spins on the grid.

    Places unit spin density in two cells separated along x and returns
    E(pair) - E(first) - E(second), which cancels the self energies.
    axis_spin chooses the common orientation: "z" gives side-by-side
    dipoles (must repel, positive energy), "x" gives head-to-tail
    (must attract, negative).  flip_sign applies the opposite kernel
    sign for negative-control checks.
    """
    if axis_spin not in ("x", "z"):
        raise InvalidParameter(f"axis_spin must be 'x' or 'z', "
                               f"got {axis_spin!r}")
    comp = 0 if axis_spin == "x" else 2
    coupling = DipolarCoupling(grid, sigma_y, "bare", c_dd)
    i0, j0 = grid.nx // 2, grid.nz // 2
    amp = 1.0 / grid.cell_area

    def energy(cells):
        s = np.zeros((3, grid.nx, grid.nz))
        for (i, j) in cells:
            s[comp, i, j] = amp
        e = coupling.energy(s)
        return -e if flip_sign else e

    a = (i0, j0)
    b = ((i0 + separation_cells) % grid.nx, j0)
    return energy([a, b]) - energy([a]) - energy([b])
