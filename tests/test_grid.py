import math

import numpy as np
import pytest

from spintex.errors import InvalidParameter
from spintex.grid import Grid2D


def test_spacings_and_area():
    g = Grid2D(nx=32, nz=128, lx=16.0, lz=96.0)
    assert g.dx == 0.5
    assert g.dz == 0.75
    assert g.cell_area == pytest.approx(0.375)
    assert g.shape == (32, 128)


def test_coordinates_centered():
    g = Grid2D(nx=16, nz=8, lx=8.0, lz=8.0)
    assert g.x[0] == -4.0
    assert g.x[-1] == 3.5
    assert 0.0 in g.x
    assert g.z[0] == -4.0
    # mesh broadcasting
    assert g.xmesh.shape[0] == 16
    assert g.zmesh.shape[1] == 8
    assert np.all(g.xmesh[:, 0] == g.x)


def test_wavenumbers():
    g = Grid2D(nx=16, nz=32, lx=8.0, lz=8.0)
    assert np.allclose(g.kx, 2 * math.pi * np.fft.fftfreq(16, d=0.5))
    assert np.allclose(g.kz, 2 * math.pi * np.fft.fftfreq(32, d=0.25))
    assert g.k_nyquist_x == pytest.approx(math.pi / 0.5)
    assert g.k_nyquist_z == pytest.approx(math.pi / 0.25)
    assert g.k2.shape == (16, 32)
    assert g.k2[0, 0] == 0.0
    assert g.k2[1, 2] == pytest.approx(g.kx[1] ** 2 + g.kz[2] ** 2)


def test_kmag_is_hypot_and_cached():
    # hypot, not sqrt(k2): the two can differ in the last bit, which
    # moves a mode across a spectral region's edge
    g = Grid2D(nx=16, nz=32, lx=8.0, lz=12.0)
    assert np.array_equal(g.kmag, np.hypot(g.kx[:, None], g.kz[None, :]))
    assert g.kmag is g.kmag


def test_validation():
    with pytest.raises(InvalidParameter):
        Grid2D(nx=24, nz=16, lx=8.0, lz=8.0)   # not a power of two
    with pytest.raises(InvalidParameter):
        Grid2D(nx=4, nz=16, lx=8.0, lz=8.0)    # too small
    with pytest.raises(InvalidParameter):
        Grid2D(nx=16, nz=16, lx=-8.0, lz=8.0)
    with pytest.raises(InvalidParameter):
        Grid2D(nx=16, nz=16, lx=8.0, lz=0.0)
