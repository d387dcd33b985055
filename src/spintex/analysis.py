"""Measurements on spin-density arrays.

Covers the spectral order parameters, growth-rate fits and transverse
spin-vortex detection.  All operations are pure functions of their
inputs.  A spin density is the array s[3, nx, nz] of field.spin_density.
A power spectrum is a plain array on the fft2 mode layout; the
functions that read it take the grid for its |k| mesh.  The spectral
regions are three wavevectors, k_cut, k_lo and k_hi (rad/um), held by
RunConfig; check_regions is their one rule.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import GridMismatch, InvalidParameter
from .grid import Grid2D

TWO_PI = 2.0 * math.pi


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
    nyq = min(grid.k_nyquist_x, grid.k_nyquist_z)
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
                     k_lo: float, k_hi: float, background=0.0) -> tuple:
    """(long, short, total) spectral powers after background removal.

    long sums the central disc |k| <= k_cut, short the annulus
    k_lo <= |k| <= k_hi, total everything; the regions must pass
    check_regions.  `background` is a constant spectral floor subtracted
    from every mode (clipped at zero), or "auto" to estimate it as the
    mean power at |k| > 2 k_hi.
    """
    check_regions(grid, k_cut, k_lo, k_hi)
    kmag = grid.kmag
    if isinstance(background, str):
        if background != "auto":
            raise InvalidParameter(
                f"background must be a number or 'auto', got {background!r}")
        far = kmag > 2.0 * k_hi
        if not far.any():
            raise InvalidParameter(
                "no modes beyond 2 k_hi to estimate the background from")
        floor = float(p[far].mean())
    else:
        floor = float(background)
        if floor < 0:
            raise InvalidParameter(f"background must be >= 0, got {floor!r}")
    q = np.clip(p - floor, 0.0, None)
    long_p = float(q[kmag <= k_cut].sum())
    short_p = float(q[(kmag >= k_lo) & (kmag <= k_hi)].sum())
    return long_p, short_p, float(q.sum())


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
    sites = np.flatnonzero(mask)
    if sites.size == 0:
        return []
    i, j = np.divmod(sites, nz)
    # edges (a, b) between positions in `sites` of masked neighbours,
    # one step along each axis with wraparound
    a, b = [], []
    for nbr in (((i + 1) % nx) * nz + j, i * nz + (j + 1) % nz):
        pos = np.searchsorted(sites, nbr) % sites.size
        hit = sites[pos] == nbr
        a.append(np.flatnonzero(hit))
        b.append(pos[hit])
    a = np.concatenate(a)
    b = np.concatenate(b)
    # union by hooking onto the smaller label, then pointer jumping:
    # label[p] <= p throughout, so each root is its cluster's first site
    label = np.arange(sites.size)
    while True:
        la, lb = label[a], label[b]
        if np.array_equal(la, lb):
            break
        low = np.minimum(la, lb)
        np.minimum.at(label, la, low)
        np.minimum.at(label, lb, low)
        while True:
            up = label[label]
            if np.array_equal(up, label):
                break
            label = up
    order = np.argsort(label, kind="stable")
    starts = np.flatnonzero(np.diff(label[order])) + 1
    return [np.divmod(group, nz)
            for group in np.split(sites[order], starts)]


def _circular_mean(coords: np.ndarray, period: float) -> float:
    ang = coords * (TWO_PI / period)
    mean = math.atan2(np.sin(ang).mean(), np.cos(ang).mean())
    return (mean % TWO_PI) * period / TWO_PI


def detect_vortices(s: np.ndarray, grid: Grid2D,
                    threshold_frac: float = 0.15) -> tuple:
    """Vortices of the transverse part of s[3, nx, nz], sorted by (z, x).

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
