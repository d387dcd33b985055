"""Magnetic dipole-dipole coupling for a planar spin distribution.

The cloud is Gaussian along the out-of-plane axis y with width sigma_y,
so the three-dimensional interaction reduces to an effective planar
kernel.  In k-space, with krho = |k| in the plane and the y integral
done analytically,

    I0 = sqrt(pi)/sigma,   L(krho) = pi erfcx(sigma krho) / krho,

    Dxx = (2/3) (3 kx^2 L - I0)
    Dyy = (2/3) (2 I0 - 3 krho^2 L)
    Dzz = (2/3) (3 kz^2 L - I0)
    Dxz = 2 kx kz L

(traceless; the krho -> 0 limit is diag(-2/3, 4/3, -2/3) I0).  The
field each spin feels is b = c_dd IFFT[Q FFT[s]] with Q = -D, entering
the Hamiltonian as -b.F, so the interaction energy is

    E = -(1/2) sum b.s dA.

Kernel modes, which interaction_kernel alone reads:
  "bare"    full tensor Q
  "larmor"  average of Q over rapid spin precession about z: the
            transverse block becomes isotropic, Qxx = Qyy = Dzz/2,
            Qzz = -Dzz, off-diagonal terms vanish
  "off"     no coupling (None)
DipolarCoupling(grid, kernel, c_dd) applies a kernel already built, by
interaction_kernel or otherwise (an oracle's lattice table).

erfcx is this module's own, in numpy and the standard library: below
x = 4 it is exp(x^2) erfc(x), with x^2 split exactly into two doubles
so that the exponential keeps full precision, and math.erfc for the
complementary error function; from x = 4 on it is the continued
fraction for erfc, whose truncation after 30 terms is below 3e-21
relative there.  Over [0, 1e6] it stays within 1.1e-15 relative of
scipy.special.erfcx (a check of the self-check battery holds it to
2e-15), so no scipy import is needed to build a kernel.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameter
from .grid import Grid2D

KERNEL_MODES = ("bare", "larmor", "off")
SQRT_PI = math.sqrt(math.pi)


def erfcx(x) -> np.ndarray:
    """Scaled complementary error function exp(x^2) erfc(x), elementwise,
    for x >= 0 (the planar kernel's sigma |k|)."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    near = x < 4.0
    xn = x[near]
    # x^2 = hi + lo exactly (Dekker's product): exp(x^2) = exp(hi)(1 + lo)
    c = 134217729.0 * xn
    xh = c - (c - xn)
    xl = xn - xh
    hi = xn * xn
    lo = ((xh * xh - hi) + 2.0 * xh * xl) + xl * xl
    e = np.exp(hi)
    out[near] = (e + e * lo) * np.fromiter(map(math.erfc, xn.tolist()),
                                           float, count=xn.size)
    # erfc(x) = exp(-x^2)/sqrt(pi) / (x + (1/2)/(x + 1/(x + (3/2)/(x + ...))))
    far = ~near
    xf = x[far]
    f = xf
    for k in range(30, 0, -1):
        f = xf + (0.5 * k) / f
    out[far] = 1.0 / (SQRT_PI * f)
    return out


def normalize_mode(mode: str) -> str:
    mode = mode.strip().lower()
    if mode not in KERNEL_MODES:
        raise InvalidParameter(
            f"kernel mode must be one of {KERNEL_MODES}, got {mode!r}")
    return mode


def planar_tensor(kx, kz, sigma_y: float) -> np.ndarray:
    """D[3, 3, ...] on broadcast wavevector meshes, units 1/um."""
    if sigma_y <= 0:
        raise InvalidParameter(f"sigma_y must be positive, got {sigma_y!r}")
    kx, kz = np.broadcast_arrays(np.asarray(kx, float), np.asarray(kz, float))
    krho = np.hypot(kx, kz)
    i0 = SQRT_PI / sigma_y
    safe = np.where(krho > 0, krho, 1.0)
    ell = np.where(krho > 0, math.pi * erfcx(sigma_y * krho) / safe, 0.0)
    d = np.zeros((3, 3) + kx.shape)
    d[0, 0] = (2.0 / 3.0) * (3.0 * kx**2 * ell - i0)
    d[1, 1] = (2.0 / 3.0) * (2.0 * i0 - 3.0 * krho**2 * ell)
    d[2, 2] = (2.0 / 3.0) * (3.0 * kz**2 * ell - i0)
    d[0, 2] = 2.0 * kx * kz * ell
    d[2, 0] = d[0, 2]
    return d


def interaction_kernel(grid: Grid2D, sigma_y: float, mode: str) -> np.ndarray:
    """Q[3, 3, nx, nz//2+1] on the rfft2 layout, or None when off."""
    mode = normalize_mode(mode)
    if mode == "off":
        return None
    kzr = 2.0 * math.pi * np.fft.rfftfreq(grid.nz, d=grid.dz)
    d = planar_tensor(grid.kx[:, None], kzr[None, :], sigma_y)
    if mode == "bare":
        return -d
    q = np.zeros_like(d)
    q[0, 0] = 0.5 * d[2, 2]
    q[1, 1] = 0.5 * d[2, 2]
    q[2, 2] = -d[2, 2]
    return q


@dataclass
class DipolarCoupling:
    """A built kernel Q[3, 3, nx, nz//2+1] on the rfft2 layout (xy and yz
    entries zero) or None, bound to its grid; maps spin density to field."""

    grid: Grid2D
    kernel: np.ndarray
    c_dd: float                       # h*Hz um^3

    def field_of(self, s: np.ndarray) -> np.ndarray:
        """b[3, nx, nz] in h*Hz for planar spin density s in um^-2."""
        if self.kernel is None:
            return np.zeros_like(s)
        q = self.kernel
        sk = np.fft.rfft2(s, axes=(-2, -1))
        # Q01, Q10, Q12 and Q21 vanish
        bk = np.stack([q[0, 0] * sk[0] + q[0, 2] * sk[2], q[1, 1] * sk[1],
                       q[2, 0] * sk[0] + q[2, 2] * sk[2]])
        return self.c_dd * np.fft.irfft2(bk, s=self.grid.shape, axes=(-2, -1))

    def energy(self, s: np.ndarray) -> float:
        """Total interaction energy in h*Hz, E = -(1/2) sum b.s dA."""
        return -0.5 * float((self.field_of(s) * s).sum()) * self.grid.cell_area
