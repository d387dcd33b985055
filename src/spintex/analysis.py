"""Measurements on magnetization fields.

Covers the spectral order parameters, growth-rate fits, the normalized
two-point correlation map, and transverse spin-vortex detection.  All
operations are pure functions of their inputs.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage

from .errors import InvalidParameter
from .field import MagnetizationField
from .grid import Grid2D

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# Power spectrum and order parameters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PowerSpectrum:
    """|M(k)|^2 summed over vector components on the fft2 mode layout.

    Normalized so that p.sum() equals the real-space sum of |M|^2 over
    sites (Parseval).
    """

    kx: np.ndarray
    kz: np.ndarray
    p: np.ndarray

    @property
    def kmag(self) -> np.ndarray:
        return np.hypot(self.kx[:, None], self.kz[None, :])


@dataclass(frozen=True)
class RegionSpec:
    """Spectral regions: a central disc and a short-wavelength annulus."""

    k_cut: float = TWO_PI / 25.0
    k_lo: float = TWO_PI / 15.0
    k_hi: float = TWO_PI / 6.0

    def __post_init__(self):
        if not (0.0 < self.k_cut < self.k_lo < self.k_hi):
            raise InvalidParameter(
                f"need 0 < k_cut < k_lo < k_hi, got "
                f"({self.k_cut!r}, {self.k_lo!r}, {self.k_hi!r})")

    def check_grid(self, grid: Grid2D) -> None:
        nyq = min(grid.k_nyquist_x, grid.k_nyquist_z)
        if self.k_hi >= nyq:
            raise InvalidParameter(
                f"k_hi {self.k_hi:.4f} exceeds the grid Nyquist {nyq:.4f}")


def power_spectrum(m: MagnetizationField) -> PowerSpectrum:
    mk = np.fft.fft2(m.m, axes=(-2, -1))
    p = (mk.real**2 + mk.imag**2).sum(axis=0) / (m.grid.nx * m.grid.nz)
    return PowerSpectrum(kx=m.grid.kx.copy(), kz=m.grid.kz.copy(), p=p)


def order_parameters(ps: PowerSpectrum, regions: RegionSpec,
                     background=0.0) -> tuple:
    """(long, short, total) spectral powers after background removal.

    long sums the central disc |k| <= k_cut, short the annulus
    k_lo <= |k| <= k_hi, total everything.  `background` is a constant
    spectral floor subtracted from every mode (clipped at zero), or
    "auto" to estimate it as the mean power at |k| > 2 k_hi.
    """
    kmag = ps.kmag
    if isinstance(background, str):
        if background != "auto":
            raise InvalidParameter(
                f"background must be a number or 'auto', got {background!r}")
        far = kmag > 2.0 * regions.k_hi
        if not far.any():
            raise InvalidParameter(
                "no modes beyond 2 k_hi to estimate the background from")
        floor = float(ps.p[far].mean())
    else:
        floor = float(background)
        if floor < 0:
            raise InvalidParameter(f"background must be >= 0, got {floor!r}")
    q = np.clip(ps.p - floor, 0.0, None)
    long_p = float(q[kmag <= regions.k_cut].sum())
    short_p = float(q[(kmag >= regions.k_lo) & (kmag <= regions.k_hi)].sum())
    return long_p, short_p, float(q.sum())


def dominant_wavevector(ps: PowerSpectrum, k_min: float) -> float:
    """|k| of the strongest mode outside the central disc |k| <= k_min."""
    kmag = ps.kmag
    masked = np.where(kmag > k_min, ps.p, -np.inf)
    idx = np.unravel_index(int(np.argmax(masked)), masked.shape)
    return float(kmag[idx])


# ---------------------------------------------------------------------------
# Time series of order parameters
# ---------------------------------------------------------------------------

ENERGY_KEYS = ("e_kin", "e_pot", "e_c0", "e_c2", "e_zeeman", "e_dipole")
SERIES_COLUMNS = ("t_ms", "long_order", "short_order", "total_power",
                  "n_vortices") + ENERGY_KEYS


@dataclass
class OrderParamSeries:
    """Per-snapshot order parameters and energy terms, column arrays."""

    columns: dict = field(default_factory=dict)

    def __post_init__(self):
        missing = [c for c in SERIES_COLUMNS if c not in self.columns]
        if missing:
            raise InvalidParameter(f"series missing columns {missing}")
        n = len(self.columns["t_ms"])
        for c in SERIES_COLUMNS:
            self.columns[c] = np.asarray(self.columns[c], dtype=float)
            if self.columns[c].shape != (n,):
                raise InvalidParameter(f"column {c} length mismatch")

    def __getattr__(self, name):
        cols = object.__getattribute__(self, "columns")
        if name in cols:
            return cols[name]
        raise AttributeError(name)

    def __len__(self):
        return len(self.columns["t_ms"])


def growth_rate(series: OrderParamSeries, window: tuple = None) -> float:
    """Initial growth rate of the short-range order fraction, per second.

    Least-squares slope of short_order/total_power against time.  The
    default window runs from t = 0 until short_order first exceeds half
    of its final value, widened to the first four samples when the rise
    is too fast to resolve.
    """
    t = series.t_ms
    if len(t) < 4:
        raise InvalidParameter("need at least 4 samples to fit a growth rate")
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = np.where(series.total_power > 0,
                         series.short_order / series.total_power, 0.0)
    if window is None:
        final = series.short_order[-1]
        above = np.nonzero(series.short_order > 0.5 * final)[0]
        hi = t[above[0]] if len(above) else t[-1]
        window = (t[0], max(hi, t[3]))
    lo, hi = window
    sel = (t >= lo) & (t <= hi)
    if sel.sum() < 4:
        raise InvalidParameter(
            f"window {window!r} holds {int(sel.sum())} samples, need >= 4")
    if np.ptp(t[sel]) == 0.0:
        raise InvalidParameter("degenerate window: all sample times equal")
    slope_per_ms = np.polyfit(t[sel], ratio[sel], 1)[0]
    return float(slope_per_ms) * 1e3


# ---------------------------------------------------------------------------
# Correlation map
# ---------------------------------------------------------------------------

def correlation(m: MagnetizationField, eps: float = 1e-12) -> np.ndarray:
    """Normalized magnetization correlation G on the displacement grid.

    G(dr) = sum_r M(r+dr).M(r) / sum_r n(r+dr) n(r), both sums with
    periodic wraparound, evaluated by FFT.  Index [i, j] is the
    displacement (i dx, j dz) wrapped periodically (so index 0 is zero
    displacement and negative displacements sit at the top indices).
    Displacements whose density overlap is below eps times its maximum
    are undefined and returned as NaN.
    """
    if not (m.n > 0).any():
        raise InvalidParameter("density vanishes everywhere")
    shape = m.grid.shape
    num = np.zeros(shape)
    for comp in m.m:
        ck = np.fft.rfft2(comp)
        num += np.fft.irfft2(ck * np.conj(ck), s=shape)
    nk = np.fft.rfft2(m.n)
    den = np.fft.irfft2(nk * np.conj(nk), s=shape)
    good = den > eps * den.max()
    out = np.full(shape, np.nan)
    np.divide(num, den, out=out, where=good)
    return out


# ---------------------------------------------------------------------------
# Transverse spin vortices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Vortex:
    x_um: float
    z_um: float
    charge: int


@dataclass(frozen=True)
class VortexSet:
    vortices: tuple
    threshold_frac: float

    def __len__(self):
        return len(self.vortices)

    @property
    def total_charge(self) -> int:
        return sum(v.charge for v in self.vortices)


def _wrap_angle(a: np.ndarray) -> np.ndarray:
    return (a + math.pi) % TWO_PI - math.pi


def _periodic_clusters(mask: np.ndarray) -> list:
    """Connected components of a boolean grid with periodic wraparound."""
    labels, n = ndimage.label(mask)
    if n == 0:
        return []
    parent = list(range(n + 1))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    for la, lb in zip(labels[0, :], labels[-1, :]):
        if la and lb:
            union(la, lb)
    for la, lb in zip(labels[:, 0], labels[:, -1]):
        if la and lb:
            union(la, lb)
    roots = {}
    for lab in range(1, n + 1):
        roots.setdefault(find(lab), []).append(lab)
    out = []
    for group in roots.values():
        sel = np.isin(labels, group)
        out.append(np.nonzero(sel))
    return out


def _circular_mean(coords: np.ndarray, period: float) -> float:
    ang = coords * (TWO_PI / period)
    mean = math.atan2(np.sin(ang).mean(), np.cos(ang).mean())
    return (mean % TWO_PI) * period / TWO_PI


def detect_vortices(m: MagnetizationField,
                    threshold_frac: float = 0.15) -> VortexSet:
    """Find transverse-magnetization phase windings on the grid.

    The transverse phase theta = arg(M_x + i M_y) is summed with
    wraparound differences around every elementary plaquette; a
    plaquette carrying winding +-2 pi whose four corners all exceed
    threshold_frac of the peak |M_perp| is a vortex candidate.
    Adjacent candidates of equal charge (periodic connectivity) merge
    into one vortex at their circular-mean center.
    """
    if not (0.0 < threshold_frac < 1.0):
        raise InvalidParameter(
            f"threshold_frac must be in (0, 1), got {threshold_frac!r}")
    g = m.grid
    mt = m.m[0] + 1j * m.m[1]
    amp = np.abs(mt)
    theta = np.angle(mt)

    d_right = _wrap_angle(np.roll(theta, -1, axis=0) - theta)
    d_up = _wrap_angle(np.roll(theta, -1, axis=1) - theta)
    # counterclockwise around plaquette (i,j)-(i+1,j)-(i+1,j+1)-(i,j+1)
    winding = (d_right
               + np.roll(d_up, -1, axis=0)
               - np.roll(d_right, -1, axis=1)
               - d_up)
    charge = np.rint(winding / TWO_PI).astype(int)

    floor = threshold_frac * amp.max()
    strong = amp > floor
    corners_ok = (strong
                  & np.roll(strong, -1, axis=0)
                  & np.roll(strong, -1, axis=1)
                  & np.roll(np.roll(strong, -1, axis=0), -1, axis=1))

    vortices = []
    for sign in (+1, -1):
        mask = (charge == sign) & corners_ok
        for (ii, jj) in _periodic_clusters(mask):
            cx = _circular_mean(g.x[ii] + 0.5 * g.dx, g.lx)
            cz = _circular_mean(g.z[jj] + 0.5 * g.dz, g.lz)
            # map back into the grid's coordinate window
            if cx > g.x[-1] + g.dx:
                cx -= g.lx
            if cz > g.z[-1] + g.dz:
                cz -= g.lz
            vortices.append(Vortex(x_um=cx, z_um=cz, charge=sign))
    vortices.sort(key=lambda v: (v.z_um, v.x_um))
    return VortexSet(vortices=tuple(vortices), threshold_frac=threshold_frac)
