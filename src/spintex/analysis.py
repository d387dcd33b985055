"""Measurements on spin-density arrays.

Covers the spectral order parameters, growth-rate fits and transverse
spin-vortex detection.  All operations are pure functions of their
inputs.  A spin density is the array s[3, nx, nz] of field.spin_density.
A power spectrum is a plain array on the fft2 mode layout; the
functions that read it take the grid for its |k| mesh.  The spectral
regions are three wavevectors, k_cut, k_lo and k_hi (rad/um), held by
RunConfig; check_regions is their one rule.  order_parameters removes
a noise floor only when asked to.  A vortex needs |M_perp| above a fixed
fraction of its peak, and equal-charge neighbours join by a union-find.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatch, InvalidParameter
from .grid import Grid2D

TWO_PI = 2.0 * math.pi
# the fewest observations a growth rate is fitted to
MIN_FIT_SAMPLES = 4
# a vortex core's four corners exceed this fraction of the peak |M_perp|
_VORTEX_THRESHOLD_FRAC = 0.15


# ---------------------------------------------------------------------------
# Power spectrum and order parameters
# ---------------------------------------------------------------------------

def check_regions(grid: Grid2D, k_cut: float, k_lo: float,
                  k_hi: float) -> None:
    """Refuse spectral regions unless 0 < k_cut < k_lo < k_hi < Nyquist."""
    if not (0.0 < k_cut < k_lo < k_hi):
        raise InvalidParameter(
            f"need 0 < k_cut < k_lo < k_hi, got "
            f"({k_cut!r}, {k_lo!r}, {k_hi!r})")
    nyq = math.pi / max(grid.dx, grid.dz)
    if k_hi >= nyq:
        raise InvalidParameter(
            f"k_hi {k_hi:.4f} exceeds the grid Nyquist {nyq:.4f}")


def power_spectrum(s: np.ndarray) -> np.ndarray:
    """|M(k)|^2 of s[3, nx, nz], summed over components, fft2 layout.

    Normalized so that its sum equals the real-space sum of |M|^2 over
    sites (Parseval).
    """
    mk = np.fft.fft2(s, axes=(-2, -1))
    return (mk.real**2 + mk.imag**2).sum(axis=0) / (s.shape[-2] * s.shape[-1])


def order_parameters(p: np.ndarray, grid: Grid2D, k_cut: float,
                     k_lo: float, k_hi: float, floor: bool = False) -> tuple:
    """(long, short, total) spectral powers of the power spectrum p.

    long sums the central disc |k| <= k_cut, short the annulus
    k_lo <= |k| <= k_hi, total everything; the regions must pass
    check_regions.  With floor, the mean power at |k| > 2 k_hi (a flat
    noise floor) is first subtracted from every mode, clipped at zero;
    without it p is summed as it is.
    """
    check_regions(grid, k_cut, k_lo, k_hi)
    kmag = grid.kmag
    if floor:
        far = kmag > 2.0 * k_hi
        if not far.any():
            raise InvalidParameter(
                "no modes beyond 2 k_hi to estimate the noise floor from")
        p = np.clip(p - float(p[far].mean()), 0.0, None)
    long_p = float(p[kmag <= k_cut].sum())
    short_p = float(p[(kmag >= k_lo) & (kmag <= k_hi)].sum())
    return long_p, short_p, float(p.sum())


def dominant_wavevector(p: np.ndarray, grid: Grid2D, k_min: float) -> float:
    """|k| of the strongest mode outside the central disc |k| <= k_min."""
    kmag = grid.kmag
    masked = np.where(kmag > k_min, p, -np.inf)
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

    columns: dict

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
    if len(t) < MIN_FIT_SAMPLES:
        raise InvalidParameter(
            f"need at least {MIN_FIT_SAMPLES} samples to fit a growth rate")
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = np.where(series.total_power > 0,
                         series.short_order / series.total_power, 0.0)
    if window is None:
        final = series.short_order[-1]
        above = np.nonzero(series.short_order > 0.5 * final)[0]
        hi = t[above[0]] if len(above) else t[-1]
        window = (t[0], max(hi, t[MIN_FIT_SAMPLES - 1]))
    lo, hi = window
    sel = (t >= lo) & (t <= hi)
    if sel.sum() < MIN_FIT_SAMPLES:
        raise InvalidParameter(
            f"window {window!r} holds {int(sel.sum())} samples, "
            f"need >= {MIN_FIT_SAMPLES}")
    if np.ptp(t[sel]) == 0.0:
        raise InvalidParameter("degenerate window: all sample times equal")
    slope_per_ms = np.polyfit(t[sel], ratio[sel], 1)[0]
    return float(slope_per_ms) * 1e3


# ---------------------------------------------------------------------------
# Transverse spin vortices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Vortex:
    x_um: float
    z_um: float
    charge: int


def _wrap_angle(a: np.ndarray) -> np.ndarray:
    return (a + math.pi) % TWO_PI - math.pi


def _periodic_clusters(mask: np.ndarray) -> list:
    """Connected components of a boolean grid with periodic wraparound.

    4-neighbour connectivity.  Clusters come in the raster order of
    their first site, each as the (row, column) index arrays of its
    sites in raster order.
    """
    nx, nz = mask.shape
    sites = np.flatnonzero(mask).tolist()
    parent = dict(zip(sites, sites))

    def root(p):
        while parent[p] != p:
            parent[p] = p = parent[parent[p]]     # path halving
        return p

    for p in sites:
        i, j = divmod(p, nz)
        for q in (((i + 1) % nx) * nz + j, i * nz + (j + 1) % nz):
            if q in parent:
                a, b = root(p), root(q)
                # the larger root hooks under the smaller, so that a
                # root is its cluster's first site
                parent[max(a, b)] = min(a, b)
    clusters = {}
    for p in sites:
        clusters.setdefault(root(p), []).append(p)
    return [np.divmod(np.array(group), nz) for group in clusters.values()]


def _circular_mean(coords: np.ndarray, period: float) -> float:
    ang = coords * (TWO_PI / period)
    mean = math.atan2(np.sin(ang).mean(), np.cos(ang).mean())
    return (mean % TWO_PI) * period / TWO_PI


def detect_vortices(s: np.ndarray, grid: Grid2D) -> tuple:
    """Vortices of the transverse part of s[3, nx, nz], sorted by (z, x).

    The transverse phase theta = arg(M_x + i M_y) is summed with
    wraparound differences around every elementary plaquette; a
    plaquette carrying winding +-2 pi whose four corners all exceed
    _VORTEX_THRESHOLD_FRAC of the peak |M_perp| is a vortex candidate.
    Adjacent candidates of equal charge (periodic connectivity) merge
    into one vortex at their circular-mean center.
    """
    if s.shape != (3,) + grid.shape:
        raise GridMismatch(f"spin density shape {s.shape} does not match "
                           f"grid {grid.shape}")
    mt = s[0] + 1j * s[1]
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

    strong = amp > _VORTEX_THRESHOLD_FRAC * amp.max()
    corners_ok = (strong
                  & np.roll(strong, -1, axis=0)
                  & np.roll(strong, -1, axis=1)
                  & np.roll(np.roll(strong, -1, axis=0), -1, axis=1))

    vortices = []
    for sign in (+1, -1):
        mask = (charge == sign) & corners_ok
        for (ii, jj) in _periodic_clusters(mask):
            cx = _circular_mean(grid.x[ii] + 0.5 * grid.dx, grid.lx)
            cz = _circular_mean(grid.z[jj] + 0.5 * grid.dz, grid.lz)
            # map back into the grid's coordinate window
            if cx > grid.x[-1] + grid.dx:
                cx -= grid.lx
            if cz > grid.z[-1] + grid.dz:
                cz -= grid.lz
            vortices.append(Vortex(x_um=cx, z_um=cz, charge=sign))
    vortices.sort(key=lambda v: (v.z_um, v.x_um))
    return tuple(vortices)
