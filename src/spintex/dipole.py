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

Kernel modes:
  "bare"    full tensor Q
  "larmor"  average of Q over rapid spin precession about z: the
            transverse block becomes isotropic, Qxx = Qyy = Dzz/2,
            Qzz = -Dzz, off-diagonal terms vanish
  "off"     coupling disabled
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import erfcx, exp1

from . import constants as cn
from .errors import InvalidParameter
from .grid import Grid2D

KERNEL_MODES = ("bare", "larmor", "off")


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
    i0 = math.sqrt(math.pi) / sigma_y
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
    """Precomputed kernel bound to a grid; maps spin density to field."""

    grid: Grid2D
    sigma_y: float
    mode: str
    c_dd: float                       # h*Hz um^3
    kernel: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.mode = normalize_mode(self.mode)
        self.kernel = interaction_kernel(self.grid, self.sigma_y, self.mode)

    def field_of(self, s: np.ndarray) -> np.ndarray:
        """b[3, nx, nz] in h*Hz for planar spin density s in um^-2."""
        if self.kernel is None:
            return np.zeros_like(s)
        q = self.kernel
        sk = np.fft.rfft2(s, axes=(-2, -1))
        # Q01, Q10, Q12 and Q21 vanish in both the bare and larmor modes
        bk = np.stack([q[0, 0] * sk[0] + q[0, 2] * sk[2], q[1, 1] * sk[1],
                       q[2, 0] * sk[0] + q[2, 2] * sk[2]])
        return self.c_dd * np.fft.irfft2(bk, s=self.grid.shape, axes=(-2, -1))

    def energy(self, s: np.ndarray) -> float:
        """Total interaction energy in h*Hz, E = -(1/2) sum b.s dA."""
        return -0.5 * float((self.field_of(s) * s).sum()) * self.grid.cell_area


def helix_column_energy(kappa: float, sigma_um: float, n0_um3: float) -> float:
    """Dipolar energy, h*Hz, of an atom on the axis of a wound column.

    The column has a radial Gaussian profile of width sigma and a
    transverse spin helix of wavevector kappa along its axis; the
    returned value is the mean-field energy of an on-axis atom in the
    field of the whole column,

        eps(kappa) = 2 E_d [ 1/6 - (x/2) e^x E1(x) ],   x = (sigma kappa)^2 / 2

    with E_d = mu0 (gF muB)^2 n0 / 2.  eps(0) = E_d/3 (uniform
    transverse spins) and eps -> -2 E_d/3 for tight winding, so the
    full winding-out releases exactly E_d per atom.
    """
    if sigma_um <= 0 or n0_um3 <= 0:
        raise InvalidParameter("sigma_um and n0_um3 must be positive")
    if kappa < 0:
        raise InvalidParameter(f"kappa must be >= 0, got {kappa!r}")
    e_d = cn.dipolar_energy_hhz(n0_um3)
    if kappa == 0.0:
        return e_d / 3.0
    x = 0.5 * (sigma_um * kappa) ** 2
    # e^x E1(x) evaluated stably: exp1 underflows past x ~ 700
    if x < 700.0:
        tail = math.exp(x) * exp1(x)
    else:
        tail = (1.0 - 1.0 / x + 2.0 / x**2) / x
    return 2.0 * e_d * (1.0 / 6.0 - 0.5 * x * tail)
