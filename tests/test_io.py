"""Tests for the text config format, snapshot tables, and run directories."""

import dataclasses
import io
import math
import os

import numpy as np
import pytest

from spintex import io_text
from spintex.analysis import ENERGY_KEYS, OrderParamSeries
from spintex.errors import GridMismatch, InvalidParameter
from spintex.field import number_density, spin_density
from spintex.grid import Grid2D
from spintex.io_text import (
    RunConfig,
    config_hash,
    is_complete,
    load_config,
    mark_done,
    parse_config,
    read_snapshot,
    read_timeseries,
    serialize_config,
    snapshot_name,
    write_meta,
    write_snapshot,
    write_timeseries,
)


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------

def test_preset_defaults():
    cfg = parse_config("")
    assert cfg == RunConfig()
    assert cfg.a0_nm == 5.39
    assert cfg.a2_nm == 5.31
    assert cfg.n0_cm3 == 2.3e14
    assert cfg.atom_number == 1.86e6
    assert cfg.b0_mg == 165.0
    assert cfg.q_coeff_hz_g2 == 71.6
    assert (cfg.trap_x_hz, cfg.trap_z_hz) == (39.0, 4.2)
    assert abs(cfg.sigma_y_um - 1.8 / math.sqrt(5.0)) < 1e-12
    assert cfg.helix_pitch_um == 60.0
    assert cfg.kernel_mode == "larmor"
    assert cfg.profile == "thomas-fermi"
    assert cfg.potential == "harmonic"


def test_parse_overrides_comments_and_normalization():
    text = """
    # a comment line
    nx = 64
    nz = 64        # trailing comment
    lx_um = 32.0
    lz_um = 32.0
    kernel_mode = BARE
    profile = uniform
    potential = none
    rng_seed = 99
    """
    cfg = parse_config(text)
    assert (cfg.nx, cfg.nz) == (64, 64)
    assert isinstance(cfg.nx, int)
    assert cfg.kernel_mode == "bare"
    assert cfg.rng_seed == 99


def test_parse_errors_name_the_line():
    with pytest.raises(InvalidParameter, match="line 1"):
        parse_config("this is not a key value line")
    with pytest.raises(InvalidParameter, match="line 2"):
        parse_config("nx = 64\nno_such_key = 1\n")
    with pytest.raises(InvalidParameter, match="line 3"):
        parse_config("\n\ndt_ms = fast\n")


def test_parse_errors_name_the_key():
    with pytest.raises(InvalidParameter, match="dt_ms"):
        parse_config("dt_ms = -1")
    with pytest.raises(InvalidParameter, match="t_final_ms"):
        parse_config("dt_ms = 0.05\nt_final_ms = 0.07\n")
    with pytest.raises(InvalidParameter, match="box_fill"):
        parse_config("box_fill = 1.5")
    with pytest.raises(InvalidParameter, match="noise_amplitude"):
        parse_config("noise_amplitude = -0.001")
    with pytest.raises(InvalidParameter, match="rng_seed"):
        parse_config("rng_seed = -3")
    with pytest.raises(InvalidParameter, match="kernel mode"):
        parse_config("kernel_mode = secular")


def test_profile_potential_pairing():
    with pytest.raises(InvalidParameter, match="thomas-fermi"):
        parse_config("potential = none")
    with pytest.raises(InvalidParameter, match="uniform"):
        parse_config("profile = uniform")
    cfg = parse_config("profile = uniform\npotential = none\n")
    assert cfg.profile == "uniform"


@pytest.mark.parametrize("key, raw, message", [
    ("lx_um", "-4", "lx_um must be positive"),
    ("lz_um", "0", "lz_um must be positive"),
    ("nx", "12", "nx must be a power of two"),
    ("k_cut_rad_um", "0", "k_cut_rad_um.*need 0 < k_cut < k_lo < k_hi"),
    ("k_lo_rad_um", "0.1", "k_lo_rad_um.*need 0 < k_cut < k_lo < k_hi"),
    ("k_lo_rad_um", repr(RunConfig().k_hi_rad_um),
     "k_lo_rad_um.*need 0 < k_cut < k_lo < k_hi"),
    ("k_hi_rad_um", "9", "k_hi_rad_um.*exceeds the grid Nyquist"),
])
def test_grid_and_region_errors_name_the_field(key, raw, message):
    with pytest.raises(InvalidParameter, match=message):
        parse_config(f"{key} = {raw}")


def test_unbuildable_thomas_fermi_cloud_is_rejected():
    # a 3 Hz x trap spreads the cloud wider than the box; with no x trap
    # there is no Thomas-Fermi cloud at all
    narrow = RunConfig(trap_x_hz=3.0, nx=16, nz=64, k_cut_rad_um=0.1,
                       k_lo_rad_um=0.2, k_hi_rad_um=0.4)
    with pytest.raises(InvalidParameter, match="trap_x_hz.*cloud radii"):
        narrow.validate()
    with pytest.raises(InvalidParameter, match="atom_number.*lz_um"):
        RunConfig(trap_x_hz=0.0).validate()
    narrow.trap_x_hz = 39.0
    narrow.validate()


def test_steps_counts_whole_time_steps():
    cfg = parse_config("dt_ms = 0.05")
    assert cfg.steps(0.0) == 0
    assert cfg.steps(0.35) == 7            # 0.35 / 0.05 is 6.999999999999999
    assert cfg.steps(250.0) == 5000
    assert isinstance(cfg.steps(0.35), int)
    for bad in (0.07, 0.051, float("nan"), float("inf")):
        with pytest.raises(InvalidParameter, match="multiple of dt_ms"):
            cfg.steps(bad)
    with pytest.raises(InvalidParameter, match="t_final_ms"):
        parse_config("t_final_ms = nan")


FLOAT_FIELDS = [f.name for f in dataclasses.fields(RunConfig)
                if f.type is float]


@pytest.mark.parametrize("key", FLOAT_FIELDS)
def test_non_finite_values_rejected(key):
    for raw in ("nan", "inf"):
        with pytest.raises(InvalidParameter, match=key):
            parse_config(f"{key} = {raw}")


def test_equal_scattering_lengths_rejected():
    # delta_a = 0 makes the spin healing length infinite
    with pytest.raises(InvalidParameter, match="a0_nm and a2_nm"):
        parse_config("a2_nm = 5.39")


def test_snapshot_cadence_pairing():
    with pytest.raises(InvalidParameter, match="snapshot_write_every_ms"):
        parse_config("snapshot_every_ms = 0\nsnapshot_write_every_ms = 5\n")
    with pytest.raises(InvalidParameter, match="multiple"):
        parse_config("snapshot_every_ms = 2\nsnapshot_write_every_ms = 5\n")
    cfg = parse_config("snapshot_every_ms = 2.5\n"
                       "snapshot_write_every_ms = 12.5\n")
    assert cfg.snapshot_write_every_ms == 12.5


@pytest.mark.parametrize("key, value, message", [
    ("rng_seed", True, "rng_seed must be a nonnegative integer"),
    ("rng_seed", False, "rng_seed must be a nonnegative integer"),
    ("kernel_mode", None, "kernel_mode must be a string"),
    ("kernel_mode", 3, "kernel_mode must be a string"),
])
def test_validate_names_a_field_of_the_wrong_type(key, value, message):
    with pytest.raises(InvalidParameter, match=message):
        RunConfig(**{key: value}).validate()


@pytest.mark.parametrize("rate_khz, dt_ms", [
    (1e300, 0.05), (20.5, 0.05), (5.5, 0.2)])
def test_pulse_rate_above_one_per_step_rejected(rate_khz, dt_ms):
    with pytest.raises(InvalidParameter,
                       match=r"cancel_pulse_rate_khz \* dt_ms must be <= 1"):
        RunConfig(cancel_pulse_rate_khz=rate_khz, dt_ms=dt_ms).validate()


@pytest.mark.parametrize("rate_khz, dt_ms", [
    (1.5, 0.05), (19.5, 0.05), (5.0, 0.2), (1e3, 0.001)])
def test_pulse_rate_up_to_one_per_step_accepted(rate_khz, dt_ms):
    cfg = RunConfig(cancel_pulse_rate_khz=rate_khz, dt_ms=dt_ms,
                    t_final_ms=5.0, snapshot_every_ms=1.0)
    assert cfg.validate().cancel_pulse_rate_khz == rate_khz


@pytest.mark.parametrize("overrides", [
    {},
    {"rng_seed": 0, "kernel_mode": " Bare ", "dt_ms": 0.025},
    {"nx": 64, "nz": 128, "lx_um": 32, "lz_um": 60, "profile": "uniform",
     "potential": "none", "helix_pitch_um": 50, "noise_amplitude": 0,
     "cancel_pulse_rate_khz": 1.5, "kernel_mode": "OFF"},
    {"nx": 16, "nz": 64, "trap_x_hz": 39, "k_cut_rad_um": 0.1,
     "k_lo_rad_um": 0.2, "k_hi_rad_um": 0.4, "t_final_ms": 5,
     "snapshot_every_ms": 1.25, "snapshot_write_every_ms": 2.5},
])
def test_an_accepted_config_reads_back_with_its_hash(overrides):
    # what validate accepts, meta must spell so that parse_config agrees
    cfg = RunConfig(**overrides).validate()
    assert config_hash(parse_config(serialize_config(cfg))) \
        == config_hash(cfg)


def test_config_round_trip():
    text = ("nx = 64\nnz = 128\nlx_um = 32\nlz_um = 60\n"
            "kernel_mode = bare\nprofile = uniform\npotential = none\n"
            "helix_pitch_um = 50\ncancel_pulse_rate_khz = 1.5\n"
            "out_dir = runs/abc\nrng_seed = 7\n")
    cfg = parse_config(text)
    assert cfg.out_dir == "runs/abc"
    serialized = serialize_config(cfg)
    assert "out_dir" not in serialized
    again = parse_config(serialized)
    assert again.out_dir == RunConfig().out_dir
    assert dataclasses.replace(again, out_dir=cfg.out_dir) == cfg
    assert config_hash(again) == config_hash(cfg)


def test_config_hash_tracks_content():
    a = parse_config("")
    b = parse_config("rng_seed = 4321")
    ha, hb = config_hash(a), config_hash(b)
    assert ha != hb
    assert ha == "6c2e3ebd5629"     # meta files of the defaults still match
    assert len(ha) == 12
    int(ha, 16)
    # where a run is written is not part of what it is
    assert config_hash(parse_config("out_dir = some/much/longer/path")) == ha


def test_load_config(tmp_path):
    path = tmp_path / "cfg"
    path.write_text("nx = 64\nnz = 64\nlx_um = 32\nlz_um = 32\n"
                    "profile = uniform\npotential = none\n")
    cfg = load_config(str(path))
    assert cfg.nx == 64
    # errors name the file, so a refused run directory's meta is found
    path.write_text("nx = 64\nbogus_key = 1\n")
    with pytest.raises(InvalidParameter) as info:
        load_config(str(path))
    assert str(info.value) == f"{path}: line 2: unknown key 'bogus_key'"
    path.write_text("lx_um = -4\n")
    with pytest.raises(InvalidParameter, match="lx_um") as info:
        load_config(str(path))
    assert str(info.value).startswith(f"{path}: ")


# ---------------------------------------------------------------------------
# Snapshots
# ---------------------------------------------------------------------------

def test_snapshot_round_trip(tmp_path):
    g = Grid2D(nx=8, nz=16, lx=4.0, lz=8.0)
    rng = np.random.default_rng(3)
    psi = (rng.standard_normal((3,) + g.shape)
           + 1j * rng.standard_normal((3,) + g.shape))
    path = str(tmp_path / "snap_t5.txt")
    other = Grid2D(nx=8, nz=8, lx=4.0, lz=4.0)
    with pytest.raises(GridMismatch, match=r"\(3, 8, 16\).*\(8, 8\)"):
        write_snapshot(path, psi, other, time_ms=5.0, cfg_hash="deadbeef0123")
    assert os.listdir(tmp_path) == []
    write_snapshot(path, psi, g, time_ms=5.0, cfg_hash="deadbeef0123")
    back, g2, header = read_snapshot(path)
    assert (g2.nx, g2.nz, g2.lx, g2.lz) == (g.nx, g.nz, g.lx, g.lz)
    assert header["time_ms"] == 5.0
    assert header["config"] == "deadbeef0123"
    assert np.max(np.abs(back - psi)) < 1e-9


def _float_values(kind: str, size: int) -> np.ndarray:
    """`size` float64 values of one kind, from a fixed seed."""
    rng = np.random.default_rng(5)
    sign = rng.choice([-1.0, 1.0], size)
    if kind == "normal":
        return rng.standard_normal(size)
    if kind == "raw-bits":
        # every exponent field: zeros, subnormals, normals, infs and NaNs
        bits = (rng.integers(0, 2, size, dtype=np.uint64) << np.uint64(63)
                | (np.arange(size, dtype=np.uint64) % np.uint64(2048))
                << np.uint64(52)
                | rng.integers(0, 2**52, size, dtype=np.uint64))
        values = bits.view(np.float64)
        values[:6] = [0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324]
        return values
    if kind == "near-ties":
        # (D + 0.5) 10^k lies within an ulp of a rounding tie; for k in
        # 0..6 it is an exact tie
        digits = rng.integers(10**10, 10**11, size) + 0.5
        power = rng.integers(-300, 281, size)
        power[::2] = rng.integers(0, 7, len(power[::2]))
        return sign * digits * 10.0 ** power.astype(float)
    if kind == "decade-edges":
        # powers of ten, their neighbours, and values whose digits carry
        # into the next decade
        powers = 10.0 ** np.arange(-323, 309).astype(float)
        carry = 9.99999999996 * 10.0 ** np.arange(-300, 300).astype(float)
        edges = np.concatenate([powers, np.nextafter(powers, 0.0),
                                np.nextafter(powers, np.inf), carry,
                                np.nextafter(carry, 0.0)])
        return sign * np.resize(edges, size)
    assert kind == "3-digit-exponents"
    return sign * 10.0 ** (rng.choice([-1.0, 1.0], size)
                           * rng.uniform(99.5, 308.0, size))


@pytest.mark.filterwarnings("ignore:overflow encountered",
                            "ignore:invalid value encountered")
@pytest.mark.parametrize("chunk_rows", [2048, 48])
def test_snapshot_table_bytes_match_savetxt(tmp_path, monkeypatch,
                                            chunk_rows):
    # 1024 rows: a whole multiple of neither chunk size
    monkeypatch.setattr(io_text, "_SNAPSHOT_CHUNK_ROWS", chunk_rows)
    g = Grid2D(nx=8, nz=128, lx=4.0, lz=64.0)
    for kind in ("normal", "raw-bits", "near-ties", "decade-edges",
                 "3-digit-exponents"):
        psi = _float_values(kind, 6 * g.nx * g.nz).view(complex).reshape(
            (3,) + g.shape)
        psi[0, 0, :4] = [0.0, -0.0, 5e-324, -5e-324]
        psi[1, 1, :4] = [1e300, -1e300, 1e150 + 1e-300j, complex(-0.0, 0.0)]
        path = str(tmp_path / "snap.txt")
        write_snapshot(path, psi, g, time_ms=0.0, cfg_hash="x")
        m = spin_density(psi)
        cols = [np.broadcast_to(g.x[:, None], g.shape),
                np.broadcast_to(g.z[None, :], g.shape), number_density(psi),
                m[0], m[1], m[2]]
        cols += [part for comp in psi for part in (comp.real, comp.imag)]
        expected = io.BytesIO()
        np.savetxt(expected, np.stack([c.ravel() for c in cols], axis=1),
                   fmt="%.10e")
        with open(path, "rb") as fh:
            table = b"".join(ln for ln in fh if not ln.startswith(b"#"))
        assert table == expected.getvalue(), kind


def test_snapshot_missing_header(tmp_path):
    g = Grid2D(nx=8, nz=8, lx=4.0, lz=4.0)
    psi = np.ones((3,) + g.shape, dtype=complex)
    path = str(tmp_path / "snap.txt")
    write_snapshot(path, psi, g, time_ms=0.0, cfg_hash="x")
    lines = open(path, encoding="utf-8").read().splitlines(keepends=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(ln for ln in lines if not ln.startswith("# nz"))
    with pytest.raises(InvalidParameter, match="nz"):
        read_snapshot(path)


def test_snapshot_truncated_table(tmp_path):
    g = Grid2D(nx=8, nz=8, lx=4.0, lz=4.0)
    psi = np.ones((3,) + g.shape, dtype=complex)
    path = str(tmp_path / "snap.txt")
    write_snapshot(path, psi, g, time_ms=0.0, cfg_hash="x")
    lines = open(path, encoding="utf-8").read().splitlines(keepends=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines[:-5])
    with pytest.raises(InvalidParameter, match="shape"):
        read_snapshot(path)


@pytest.mark.parametrize("spoil, message", [
    (lambda text: text[:len(text) // 2 + 7], ""),
    (lambda text: text.replace("# nx = 8", "# nx = eight"), ""),
    (lambda text: text.replace("# time_ms = 0.0", "# time_ms = soon"), ""),
    (lambda text: text.replace("# time_ms = 0.0", "# time_ms = nan"),
     "time_ms"),
    (lambda text: text.replace("# time_ms = 0.0", "# time_ms = inf"),
     "time_ms"),
    (lambda text: text.replace("# time_ms = 0.0", "# time_ms = -inf"),
     "time_ms"),
], ids=["cut-mid-line", "bad-nx", "bad-time", "nan-time", "inf-time",
        "minus-inf-time"])
def test_snapshot_parse_failure_names_the_file(tmp_path, spoil, message):
    g = Grid2D(nx=8, nz=8, lx=4.0, lz=4.0)
    psi = np.ones((3,) + g.shape, dtype=complex)
    path = str(tmp_path / "snap.txt")
    write_snapshot(path, psi, g, time_ms=0.0, cfg_hash="x")
    text = open(path, encoding="utf-8").read()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(spoil(text))
    with pytest.raises(InvalidParameter, match=f"snap.txt.*{message}"):
        read_snapshot(path)


def test_snapshot_name():
    assert snapshot_name(5.0) == "snap_t5.txt"
    assert snapshot_name(12.5) == "snap_t12.5.txt"
    assert snapshot_name(0.0) == "snap_t0.txt"
    # times past 10 s that differ in the sixth significant digit
    assert snapshot_name(12345.6) == "snap_t12345.6.txt"
    assert snapshot_name(12345.65) == "snap_t12345.65.txt"


# ---------------------------------------------------------------------------
# Time series CSV
# ---------------------------------------------------------------------------

def make_series(n):
    t = np.arange(float(n))
    cols = {"t_ms": t, "long_order": 3.0 * t, "short_order": 0.5 * t,
            "total_power": np.full(n, 11.0),
            "n_vortices": np.arange(n) % 5}
    for i, k in enumerate(ENERGY_KEYS):
        cols[k] = np.linspace(-1.0, 1.0, n) * (i + 1)
    return OrderParamSeries(columns=cols)


def test_timeseries_round_trip(tmp_path):
    series = make_series(9)
    path = str(tmp_path / "timeseries.csv")
    write_timeseries(path, series, cfg_hash="abc")
    back = read_timeseries(path)
    assert len(back) == 9
    np.testing.assert_array_equal(back.n_vortices, series.n_vortices)
    for k in ("t_ms", "long_order", "short_order", "total_power",
              *ENERGY_KEYS):
        assert np.max(np.abs(back.columns[k] - series.columns[k])) < 1e-9


def test_timeseries_empty_round_trip(tmp_path):
    series = make_series(0)
    path = str(tmp_path / "timeseries.csv")
    write_timeseries(path, series, cfg_hash="abc")
    assert len(read_timeseries(path)) == 0


def test_timeseries_rejects_foreign_columns(tmp_path):
    path = str(tmp_path / "timeseries.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t_ms,short_order\n0.0,1.0\n")
    with pytest.raises(InvalidParameter, match="columns"):
        read_timeseries(path)


# ---------------------------------------------------------------------------
# Run directories
# ---------------------------------------------------------------------------

def test_meta_and_done_markers(tmp_path):
    run_dir = str(tmp_path)
    cfg = parse_config("rng_seed = 5")
    write_meta(run_dir, cfg)
    meta = open(os.path.join(run_dir, "meta"), encoding="utf-8").read()
    assert f"# config = {config_hash(cfg)}" in meta
    assert "rng_seed = 5" in meta
    # meta holds the run's physics, every field but out_dir
    keys = [ln.split("=", 1)[0].strip() for ln in meta.splitlines()
            if ln.strip() and not ln.startswith("#")]
    assert keys == [f.name for f in dataclasses.fields(RunConfig)
                    if f.name != "out_dir"]
    assert len(keys) == 29
    assert not is_complete(run_dir)
    mark_done(run_dir)
    assert is_complete(run_dir)


def test_interrupted_write_leaves_no_file(tmp_path, monkeypatch):
    g = Grid2D(nx=8, nz=8, lx=4.0, lz=4.0)
    psi = np.ones((3,) + g.shape, dtype=complex)
    path = str(tmp_path / "snap_t0.txt")

    class FullDisk:
        """A file that fills up after the header and one chunk of rows."""

        def __init__(self, *args, **kwargs):
            self.fh = open(*args, **kwargs)
            self.writes = 0

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            self.writes += 1
            if self.writes == 3:
                raise OSError("disk full")
            return self.fh.write(text)

    monkeypatch.setattr(io_text, "_SNAPSHOT_CHUNK_ROWS", 16)
    monkeypatch.setattr(io_text, "open", FullDisk, raising=False)
    with pytest.raises(OSError, match="disk full"):
        write_snapshot(path, psi, g, 0.0, "abc")
    assert os.listdir(tmp_path) == []
    monkeypatch.undo()
    # a completed write replaces an earlier file whole
    write_snapshot(path, psi, g, 0.0, "abc")
    write_snapshot(path, 2.0 * psi, g, 0.0, "abc")
    back, _, _ = read_snapshot(path)
    assert np.array_equal(back, 2.0 * psi)
    assert os.listdir(tmp_path) == ["snap_t0.txt"]
