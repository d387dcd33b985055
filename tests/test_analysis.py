"""Tests for spectral order parameters, growth fits and vortices."""

import math

import numpy as np
import pytest
from scipy import ndimage

from spintex import analysis
from spintex.analysis import (
    ENERGY_KEYS,
    SERIES_COLUMNS,
    OrderParamSeries,
    check_regions,
    detect_vortices,
    dominant_wavevector,
    growth_rate,
    order_parameters,
    power_spectrum,
)
from spintex.errors import GridMismatch, InvalidParameter
from spintex.field import imprint_helix, spin_density, transverse_state
from spintex.grid import Grid2D

TWO_PI = 2.0 * math.pi
# the default spectral regions (k_cut, k_lo, k_hi) of RunConfig, rad/um
REGIONS = (TWO_PI / 25.0, TWO_PI / 15.0, TWO_PI / 6.0)


def uniform_transverse_field(grid, density):
    """Fully magnetized along +x at uniform density."""
    psi = np.tile(transverse_state()[:, None, None], (1,) + grid.shape)
    return psi * math.sqrt(density)


def helix_field(grid, density, pitch):
    psi = uniform_transverse_field(grid, density)
    return imprint_helix(psi, grid, TWO_PI / pitch)


# ---------------------------------------------------------------------------
# Power spectrum
# ---------------------------------------------------------------------------

def test_power_spectrum_parseval():
    g = Grid2D(nx=16, nz=32, lx=8.0, lz=20.0)
    rng = np.random.default_rng(7)
    m = rng.standard_normal((3,) + g.shape)
    p = power_spectrum(m)
    assert p.shape == g.shape
    assert np.all(p >= 0)
    # total spectral power equals the real-space sum of |M|^2 over sites
    assert abs(p.sum() - (m**2).sum()) < 1e-9 * (m**2).sum()
    assert g.kmag.shape == g.shape
    assert g.kmag[0, 0] == 0.0


def test_helix_power_concentrates_on_one_mode():
    g = Grid2D(nx=16, nz=64, lx=8.0, lz=32.0)
    dens = 2.5
    m = spin_density(helix_field(g, dens, pitch=8.0))
    p = power_spectrum(m)
    total = dens**2 * g.nx * g.nz
    # all power in the two conjugate modes at kz = +-2 pi / 8
    j = int(round(g.lz / 8.0))
    peak = p[0, j] + p[0, -j]
    assert abs(p.sum() - total) < 1e-9 * total
    assert abs(peak - total) < 1e-9 * total


# ---------------------------------------------------------------------------
# Spectral regions and order parameters
# ---------------------------------------------------------------------------

BAD_REGIONS = [(0.0, 0.4, 1.0), (0.5, 0.4, 1.0), (0.1, 0.4, 0.4)]


def test_region_spec_validation():
    g = Grid2D(nx=32, nz=32, lx=32.0, lz=32.0)
    check_regions(g, *REGIONS)
    for bad in BAD_REGIONS:
        with pytest.raises(InvalidParameter, match="need 0 < k_cut"):
            check_regions(g, *bad)
    # order_parameters refuses them too, called directly
    p = np.ones(g.shape)
    for bad in BAD_REGIONS:
        with pytest.raises(InvalidParameter, match="need 0 < k_cut"):
            order_parameters(p, g, *bad)


def test_region_spec_grid_check():
    check_regions(Grid2D(nx=32, nz=32, lx=32.0, lz=32.0), *REGIONS)
    coarse = Grid2D(nx=32, nz=32, lx=256.0, lz=256.0)
    with pytest.raises(InvalidParameter, match="Nyquist"):
        check_regions(coarse, *REGIONS)
    with pytest.raises(InvalidParameter, match="Nyquist"):
        order_parameters(np.ones(coarse.shape), coarse, *REGIONS)


def test_order_parameters_helix_placement():
    g = Grid2D(nx=64, nz=64, lx=32.0, lz=32.0)
    dens = 2.5
    total = dens**2 * g.nx * g.nz

    # pitch 32: kappa = 0.196 below k_cut, all power long-range
    m_long = spin_density(helix_field(g, dens, pitch=32.0))
    lo, sh, tot = order_parameters(power_spectrum(m_long), g, *REGIONS)
    assert abs(lo - total) < 1e-9 * total
    assert sh < 1e-9 * total
    assert abs(tot - total) < 1e-9 * total

    # pitch 8: kappa = 0.785 inside the short annulus
    m_short = spin_density(helix_field(g, dens, pitch=8.0))
    lo, sh, tot = order_parameters(power_spectrum(m_short), g, *REGIONS)
    assert lo < 1e-9 * total
    assert abs(sh - total) < 1e-9 * total
    assert abs(tot - total) < 1e-9 * total


def test_order_parameters_without_floor_sum_the_spectrum():
    g = Grid2D(nx=64, nz=64, lx=32.0, lz=32.0)
    p = power_spectrum(spin_density(helix_field(g, 2.0, pitch=8.0))) + 0.37
    k_cut, k_lo, k_hi = REGIONS
    masks = (g.kmag <= k_cut, (g.kmag >= k_lo) & (g.kmag <= k_hi),
             np.ones(g.shape, bool))
    got = order_parameters(p, g, *REGIONS)
    assert got == tuple(float(p[mask].sum()) for mask in masks)


def test_order_parameters_auto_background():
    g = Grid2D(nx=64, nz=64, lx=32.0, lz=32.0)
    floor = 0.4
    p = np.full(g.shape, floor)
    kz_spike = int(round(g.lz / 8.0))     # |k| inside the annulus
    p[0, kz_spike] += 123.0
    lo, sh, tot = order_parameters(p, g, *REGIONS, floor=True)
    assert abs(lo) < 1e-9
    assert abs(sh - 123.0) < 1e-9
    assert abs(tot - 123.0) < 1e-9


def test_auto_background_needs_far_modes():
    # every mode of this coarse grid sits within 2 k_hi of the origin
    g = Grid2D(nx=8, nz=8, lx=8.0, lz=8.0)
    with pytest.raises(InvalidParameter, match="beyond 2 k_hi"):
        order_parameters(np.ones(g.shape), g, 0.3, 0.5, 2.3, floor=True)


def test_dominant_wavevector_ignores_central_disc():
    g = Grid2D(nx=64, nz=64, lx=32.0, lz=32.0)
    dk = TWO_PI / 32.0
    p = np.zeros(g.shape)
    p[0, 1] = 100.0                      # |k| = dk, inside the disc
    p[3, 4] = 5.0                        # |k| = 5 dk
    got = dominant_wavevector(p, g, k_min=0.25)
    assert abs(got - 5.0 * dk) < 1e-12


# ---------------------------------------------------------------------------
# Series container and growth rate
# ---------------------------------------------------------------------------

def series_from(t, short, total):
    t = np.asarray(t, dtype=float)
    cols = {"t_ms": t, "long_order": np.zeros_like(t),
            "short_order": np.asarray(short, dtype=float),
            "total_power": np.asarray(total, dtype=float),
            "n_vortices": np.zeros_like(t)}
    for k in ENERGY_KEYS:
        cols[k] = np.zeros_like(t)
    return OrderParamSeries(columns=cols)


def test_series_container_validation():
    s = series_from([0.0, 1.0, 2.0], [0.0, 1.0, 2.0], [4.0, 4.0, 4.0])
    assert len(s) == 3
    assert s.total_power[0] == 4.0
    assert set(SERIES_COLUMNS) == set(s.columns)
    with pytest.raises(AttributeError):
        s.no_such_column

    cols = dict(s.columns)
    del cols["e_dipole"]
    with pytest.raises(InvalidParameter):
        OrderParamSeries(columns=cols)

    cols = dict(s.columns)
    cols["short_order"] = np.zeros(5)
    with pytest.raises(InvalidParameter):
        OrderParamSeries(columns=cols)


def test_growth_rate_linear_exact():
    # short/total exactly linear: slope 0.004 per ms -> 4.0 per s
    t = np.arange(21.0)
    total = np.full(21, 7.0)
    short = (0.02 + 0.004 * t) * total
    s = series_from(t, short, total)
    assert abs(growth_rate(s, window=(0.0, 20.0)) - 4.0) < 1e-9
    assert abs(growth_rate(s) - 4.0) < 1e-9


def test_growth_rate_default_window():
    # rise saturates at t = 5; the default window must stop near the rise
    t = np.arange(11.0)
    short = np.array([0, 1, 2, 3, 4, 5, 5, 5, 5, 5, 5], dtype=float)
    total = np.full(11, 10.0)
    s = series_from(t, short, total)
    # half the final value is first exceeded at t = 3 -> window (0, 3),
    # where the fraction is exactly linear with slope 0.1 per ms
    assert abs(growth_rate(s) - 100.0) < 1e-9
    # fitting across the saturated tail dilutes the slope
    assert growth_rate(s, window=(0.0, 10.0)) < 100.0


def test_growth_rate_errors():
    s = series_from([0.0, 1.0, 2.0], [0.0, 1.0, 2.0], [4.0, 4.0, 4.0])
    with pytest.raises(InvalidParameter):
        growth_rate(s)

    t = np.arange(11.0)
    s = series_from(t, t, np.full(11, 10.0))
    with pytest.raises(InvalidParameter):
        growth_rate(s, window=(0.0, 2.0))

    s = series_from([2.0, 2.0, 2.0, 2.0], np.ones(4), np.ones(4))
    with pytest.raises(InvalidParameter):
        growth_rate(s, window=(0.0, 3.0))


# ---------------------------------------------------------------------------
# Vortex detection
# ---------------------------------------------------------------------------

def winding_field(grid, cores, amp=None):
    """Transverse field carrying phase windings at the given (x, z, charge)
    cores, summed over a 3x3 block of periodic images."""
    theta = np.zeros(grid.shape)
    for (x0, z0, c) in cores:
        for ix in (-1, 0, 1):
            for iz in (-1, 0, 1):
                theta += c * np.arctan2(grid.zmesh - z0 + iz * grid.lz,
                                        grid.xmesh - x0 + ix * grid.lx)
    a = np.ones(grid.shape) if amp is None else amp
    return np.stack([a * np.cos(theta), a * np.sin(theta),
                     np.zeros(grid.shape)])


def test_vortex_pair_recovered_exactly():
    g = Grid2D(nx=32, nz=32, lx=16.0, lz=16.0)
    plus = (g.x[8] + 0.25, g.z[10] + 0.25)
    minus = (g.x[22] + 0.25, g.z[20] + 0.25)
    f = winding_field(g, [plus + (+1,), minus + (-1,)])
    vs = detect_vortices(f, g)
    assert len(vs) == 2
    assert sum(v.charge for v in vs) == 0
    by_charge = {v.charge: v for v in vs}
    assert abs(by_charge[+1].x_um - plus[0]) < 1e-9
    assert abs(by_charge[+1].z_um - plus[1]) < 1e-9
    assert abs(by_charge[-1].x_um - minus[0]) < 1e-9
    assert abs(by_charge[-1].z_um - minus[1]) < 1e-9


def test_helix_carries_no_vortices():
    g = Grid2D(nx=32, nz=32, lx=16.0, lz=16.0)
    m = spin_density(helix_field(g, 2.0, pitch=8.0))
    assert len(detect_vortices(m, g)) == 0


def test_adjacent_same_charge_plaquettes_merge():
    g = Grid2D(nx=32, nz=32, lx=16.0, lz=16.0)
    xp = g.x[8] + 0.25
    f = winding_field(g, [(xp, g.z[10] + 0.25, +1), (xp, g.z[11] + 0.25, +1),
                          (g.x[24] + 0.25, g.z[4] + 0.25, -1),
                          (g.x[4] + 0.25, g.z[24] + 0.25, -1)])
    vs = detect_vortices(f, g)
    # the tight same-charge pair reads as one vortex at the mean center
    assert len(vs) == 3
    assert sum(v.charge for v in vs) == -1
    merged = [v for v in vs if v.charge == +1]
    assert len(merged) == 1
    assert abs(merged[0].x_um - xp) < 1e-9
    assert abs(merged[0].z_um - (g.z[10] + 0.5)) < 1e-9


def test_seam_straddling_cluster_merges():
    g = Grid2D(nx=32, nz=32, lx=16.0, lz=16.0)
    xp = g.x[8] + 0.25
    f = winding_field(g, [(xp, g.z[10] + 0.25, +1), (xp, g.z[11] + 0.25, +1),
                          (g.x[24] + 0.25, g.z[4] + 0.25, -1),
                          (g.x[4] + 0.25, g.z[24] + 0.25, -1)])
    # rolling by -11 cells puts the merged pair across the periodic seam
    vs = detect_vortices(np.roll(f, -11, axis=2), g)
    assert len(vs) == 3
    assert sum(v.charge for v in vs) == -1
    merged = [v for v in vs if v.charge == +1]
    assert len(merged) == 1
    assert abs(merged[0].x_um - xp) < 1e-9
    # circular mean of the two seam plaquettes lands on the boundary
    assert abs(abs(merged[0].z_um) - g.lz / 2.0) < 1e-9
    minus = sorted((v.x_um, v.z_um) for v in vs if v.charge == -1)
    expect = sorted([(g.x[24] + 0.25, g.z[4] + 0.25 - 5.5 + 16.0),
                     (g.x[4] + 0.25, g.z[24] + 0.25 - 5.5)])
    for got, want in zip(minus, expect):
        assert abs(got[0] - want[0]) < 1e-9
        assert abs(got[1] - want[1]) < 1e-9


def test_vortex_threshold_masks_weak_regions():
    g = Grid2D(nx=32, nz=32, lx=16.0, lz=16.0)
    plus = (g.x[8] + 0.25, g.z[10] + 0.25)
    minus = (g.x[22] + 0.25, g.z[20] + 0.25)
    amp = np.ones(g.shape)
    amp[7:11, 9:13] = 0.01
    f = winding_field(g, [plus + (+1,), minus + (-1,)], amp=amp)
    vs = detect_vortices(f, g)
    assert len(vs) == 1
    assert vs[0].charge == -1


def test_vortices_covariant_under_spin_rotation():
    g = Grid2D(nx=32, nz=32, lx=16.0, lz=16.0)
    f = winding_field(g, [(g.x[8] + 0.25, g.z[10] + 0.25, +1),
                          (g.x[22] + 0.25, g.z[20] + 0.25, -1)])
    alpha = 0.9
    ca, sa = math.cos(alpha), math.sin(alpha)
    frot = np.stack([ca * f[0] - sa * f[1], sa * f[0] + ca * f[1], f[2]])
    a, b = detect_vortices(f, g), detect_vortices(frot, g)
    assert len(a) == len(b)
    for va, vb in zip(a, b):
        assert va.charge == vb.charge
        assert abs(va.x_um - vb.x_um) < 1e-9
        assert abs(va.z_um - vb.z_um) < 1e-9


def test_vortices_need_a_spin_density_on_the_grid():
    g = Grid2D(nx=8, nz=8, lx=4.0, lz=4.0)
    psi = np.tile(transverse_state()[:, None, None], (1,) + g.shape) * 2.0
    s = spin_density(psi)
    assert np.allclose(s[0], 4.0)
    assert detect_vortices(s, g) == ()
    for bad in (spin_density(psi[:, :4, :]), s[:2]):
        with pytest.raises(GridMismatch):
            detect_vortices(bad, g)


# ---------------------------------------------------------------------------
# The periodic labeller against the scipy labelling it replaced
# ---------------------------------------------------------------------------

def reference_clusters(mask):
    """The former labeller: ndimage.label, then a union-find that joins
    labels meeting across the periodic edges."""
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


def assert_same_clusters(got, want):
    assert len(got) == len(want)
    for (gi, gj), (wi, wj) in zip(got, want):
        assert gi.dtype == wi.dtype and gj.dtype == wj.dtype
        np.testing.assert_array_equal(gi, wi)
        np.testing.assert_array_equal(gj, wj)


def test_periodic_clusters_match_reference_on_random_masks():
    rng = np.random.default_rng(2024)
    for _ in range(300):
        nx, nz = rng.integers(1, 24, size=2)
        mask = rng.random((nx, nz)) < rng.random()
        assert_same_clusters(analysis._periodic_clusters(mask),
                             reference_clusters(mask))


def test_periodic_clusters_match_reference_on_edge_cases():
    masks = [np.zeros((6, 9), bool), np.ones((6, 9), bool),
             np.ones((1, 1), bool), np.ones((1, 7), bool)]
    # a cluster wrapping across both axes, a corner-only contact (not
    # 4-connected), and a full row and column crossing at the seams
    wrap = np.zeros((8, 10), bool)
    wrap[0, 0] = wrap[-1, 0] = wrap[0, -1] = wrap[-1, -1] = True
    corner = np.zeros((8, 10), bool)
    corner[0, 0] = corner[-1, -1] = True
    cross = np.zeros((8, 10), bool)
    cross[-1, :] = True
    cross[:, -1] = True
    cross[3, 0] = cross[0, 5] = True
    masks += [wrap, corner, cross, ~wrap, ~cross]
    for mask in masks:
        assert_same_clusters(analysis._periodic_clusters(mask),
                             reference_clusters(mask))


def test_detect_vortices_unchanged_on_random_phase(monkeypatch):
    g = Grid2D(nx=128, nz=512, lx=64.0, lz=420.0)
    rng = np.random.default_rng(5)
    theta = rng.uniform(0.0, TWO_PI, g.shape)
    amp = rng.uniform(0.5, 1.0, g.shape)
    s = np.stack([amp * np.cos(theta), amp * np.sin(theta),
                  np.zeros(g.shape)])
    got = detect_vortices(s, g)
    monkeypatch.setattr(analysis, "_periodic_clusters", reference_clusters)
    want = detect_vortices(s, g)
    assert len(got) > 10000
    assert got == want
