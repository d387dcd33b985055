"""Periodic rectangular simulation grid.

The plane is spanned by x (tight trap axis) and z (field axis).  Real
and reciprocal meshes are cached on first use; all arrays are indexed
[ix, iz].
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidParameter


def _is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class Grid2D:
    nx: int
    nz: int
    lx: float   # um
    lz: float   # um

    def __post_init__(self):
        for name in ("nx", "nz"):
            n = getattr(self, name)
            if not isinstance(n, int) or not _is_pow2(n) or n < 8:
                raise InvalidParameter(
                    f"{name} must be a power of two >= 8, got {n!r}")
        for name in ("lx", "lz"):
            ell = getattr(self, name)
            if not (isinstance(ell, (int, float)) and math.isfinite(ell)
                    and ell > 0):
                raise InvalidParameter(
                    f"{name} must be a positive length, got {ell!r}")

    @property
    def dx(self) -> float:
        return self.lx / self.nx

    @property
    def dz(self) -> float:
        return self.lz / self.nz

    @property
    def cell_area(self) -> float:
        return self.dx * self.dz

    @property
    def shape(self) -> tuple:
        return (self.nx, self.nz)

    @cached_property
    def x(self) -> np.ndarray:
        """Cell-centered coordinates with 0 on the grid, wrap-symmetric."""
        return (np.arange(self.nx) - self.nx // 2) * self.dx

    @cached_property
    def z(self) -> np.ndarray:
        return (np.arange(self.nz) - self.nz // 2) * self.dz

    @cached_property
    def xmesh(self) -> np.ndarray:
        return np.broadcast_to(self.x[:, None], self.shape)

    @cached_property
    def zmesh(self) -> np.ndarray:
        return np.broadcast_to(self.z[None, :], self.shape)

    @cached_property
    def kx(self) -> np.ndarray:
        return 2.0 * math.pi * np.fft.fftfreq(self.nx, d=self.dx)

    @cached_property
    def kz(self) -> np.ndarray:
        return 2.0 * math.pi * np.fft.fftfreq(self.nz, d=self.dz)

    @cached_property
    def k2(self) -> np.ndarray:
        """|k|^2 on the full fft2 layout, rad^2/um^2."""
        return self.kx[:, None] ** 2 + self.kz[None, :] ** 2

    @property
    def k_nyquist_x(self) -> float:
        return math.pi / self.dx

    @property
    def k_nyquist_z(self) -> float:
        return math.pi / self.dz
