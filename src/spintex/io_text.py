"""Plain-text run configuration and output files.

Everything the simulator reads or writes is line-oriented text: a
key = value config format, per-site snapshot tables, and a CSV of
order-parameter time series.  A run directory holds `meta`,
`snap_t<ms>.txt` files, `timeseries.csv`, and a terminal `DONE` marker;
a directory without `DONE` is a detectably partial run.  `meta` and the
config hash on every file cover the physics fields of the config, not
`out_dir`, so a run's bytes do not depend on where it is written.

Snapshot tables hold the bytes np.savetxt(fmt="%.10e") would write,
formatted by a numpy kernel a chunk of rows at a time.  Python's
"%.10e" rounds correctly, and a product with an exact power of ten is
rounded once, so the kernel's digits are the correctly rounded ones
wherever its error bound decides the rounding; each other value is
formatted by Python's "%.10e" itself, about 2 in 10,000 values of a
simulated snapshot.
"""

import contextlib
import dataclasses
import hashlib
import math
import os
from dataclasses import dataclass

import numpy as np

from . import __version__
from .analysis import SERIES_COLUMNS, OrderParamSeries, check_regions
from .dipole import normalize_mode
from .errors import GridMismatch, InvalidParameter
from .field import number_density, spin_density, thomas_fermi_density
from .grid import Grid2D
from .params import derive_params, trap_curvatures_hhz_um2

# the trap potential each density profile is prepared in
_PROFILE_POTENTIAL = {"uniform": "none", "thomas-fermi": "harmonic"}


@dataclass
class RunConfig:
    """One simulation run, fully specified.

    Defaults reproduce the reference parameter set: 87Rb F=1 scattering
    lengths, peak density 2.3e14 cm^-3, bias field 165 mG, in-plane trap
    frequencies (39, 4.2) Hz; the out-of-plane width is sigma_y_um.
    This is the only record of the physical inputs;
    params.derive_params reads them from here.
    """

    # physical parameters
    a0_nm: float = 5.39
    a2_nm: float = 5.31
    n0_cm3: float = 2.3e14          # peak 3D density
    atom_number: float = 1.86e6
    b0_mg: float = 165.0            # bias field along z
    q_coeff_hz_g2: float = 71.6     # quadratic Zeeman coefficient
    trap_x_hz: float = 39.0
    trap_z_hz: float = 4.2
    sigma_y_um: float = 1.8 / math.sqrt(5.0)   # transverse Gaussian width
    # grid
    nx: int = 128
    nz: int = 512
    lx_um: float = 64.0
    lz_um: float = 416.0
    # evolution
    dt_ms: float = 0.05
    t_final_ms: float = 250.0
    snapshot_every_ms: float = 5.0
    snapshot_write_every_ms: float = 0.0
    kernel_mode: str = "larmor"
    potential: str = "harmonic"     # must match profile, which sets the trap
    profile: str = "thomas-fermi"
    # must be 1.0 (a uniform cloud fills the box); kept while the
    # benchmark's workloads still pass it
    box_fill: float = 1.0
    # protocol
    helix_pitch_um: float = 60.0
    noise_amplitude: float = 1e-3
    cancel_pulse_rate_khz: float = 0.0
    # analysis regions
    k_cut_rad_um: float = 2.0 * math.pi / 25.0
    k_lo_rad_um: float = 2.0 * math.pi / 15.0
    k_hi_rad_um: float = 2.0 * math.pi / 6.0
    # bookkeeping
    out_dir: str = "runs/run0"
    rng_seed: int = 1234

    # -- derived views -------------------------------------------------

    def grid(self) -> Grid2D:
        return Grid2D(nx=self.nx, nz=self.nz, lx=self.lx_um, lz=self.lz_um)

    def steps(self, ms: float) -> int:
        """Whole number of dt_ms steps in ms; the run clock counts these."""
        n = ms / self.dt_ms
        if not math.isfinite(n) or abs(n - round(n)) > 1e-9:
            raise InvalidParameter(
                f"{ms!r} ms is not a multiple of dt_ms = {self.dt_ms!r}")
        return round(n)

    # -- validation ----------------------------------------------------

    def validate(self) -> "RunConfig":
        for name, kind in _FIELD_TYPES.items():
            value = getattr(self, name)
            if kind is str and not (isinstance(value, str) and value):
                raise InvalidParameter(
                    f"{name} must be a string, and not empty; got {value!r}")
            if kind is not float:
                continue
            # a bool is an int, and the run would take True for 1.0
            if isinstance(value, bool) or not (
                    isinstance(value, (int, float)) and math.isfinite(value)):
                raise InvalidParameter(
                    f"{name} must be a finite number, got {value!r}")
            # as parse_config reads it back from meta, so the hash matches
            setattr(self, name, float(value))
        self.kernel_mode = normalize_mode(self.kernel_mode)
        for name in _POSITIVE:
            if getattr(self, name) <= 0:
                raise InvalidParameter(
                    f"{name} must be positive, got {getattr(self, name)!r}")
        for name in _NONNEGATIVE:
            if getattr(self, name) < 0:
                raise InvalidParameter(
                    f"{name} must be >= 0, got {getattr(self, name)!r}")
        if self.a0_nm == self.a2_nm:
            raise InvalidParameter(
                f"a0_nm and a2_nm must differ (the spin healing length "
                f"diverges), got {self.a0_nm!r} for both")
        grid = self.grid()
        if 0 < self.helix_pitch_um <= 2.0 * grid.dz:   # it would alias
            raise InvalidParameter(
                f"helix_pitch_um = {self.helix_pitch_um!r} must exceed "
                f"2 lz_um/nz = {2.0 * grid.dz!r} um (lz_um = {self.lz_um!r}, "
                f"nz = {self.nz!r})")
        try:
            check_regions(grid, self.k_cut_rad_um, self.k_lo_rad_um,
                          self.k_hi_rad_um)
        except InvalidParameter as exc:
            raise InvalidParameter(
                f"k_cut_rad_um, k_lo_rad_um, k_hi_rad_um: {exc}") from None
        # a noisy run's spectral floor comes from the modes beyond 2 k_hi
        if self.noise_amplitude > 0 \
                and not (grid.kmag > 2.0 * self.k_hi_rad_um).any():
            raise InvalidParameter(
                f"k_hi_rad_um = {self.k_hi_rad_um!r}: no grid modes beyond "
                f"2 k_hi to take the noise floor from (noise_amplitude > 0)")
        if not (0.0 < self.dt_ms <= 0.2):
            raise InvalidParameter(
                f"dt_ms must lie in (0, 0.2], got {self.dt_ms!r}")
        # the stepper resolves no more than one pulse per step
        if self.cancel_pulse_rate_khz * self.dt_ms > 1.0:
            raise InvalidParameter(
                f"cancel_pulse_rate_khz * dt_ms must be <= 1 (one pulse per "
                f"step on average), got {self.cancel_pulse_rate_khz!r} kHz "
                f"at dt_ms = {self.dt_ms!r}")
        counts = {}
        for key in ("t_final_ms", "snapshot_every_ms",
                    "snapshot_write_every_ms"):
            try:
                counts[key] = self.steps(getattr(self, key))
            except InvalidParameter as exc:
                raise InvalidParameter(f"{key}: {exc}") from None
        if counts["snapshot_write_every_ms"]:
            if not counts["snapshot_every_ms"]:
                raise InvalidParameter(
                    "snapshot_write_every_ms needs snapshot_every_ms > 0")
            if counts["snapshot_write_every_ms"] % counts["snapshot_every_ms"]:
                raise InvalidParameter(
                    "snapshot_write_every_ms must be a multiple of "
                    "snapshot_every_ms")
        if self.profile not in _PROFILE_POTENTIAL:
            raise InvalidParameter(
                f"profile must be one of {tuple(_PROFILE_POTENTIAL)}, "
                f"got {self.profile!r}")
        needed = _PROFILE_POTENTIAL[self.profile]
        if self.potential != needed:
            raise InvalidParameter(
                f"{self.profile} profile requires potential = {needed}, "
                f"got {self.potential!r}")
        if self.profile == "thomas-fermi":
            vx, vz = trap_curvatures_hhz_um2(self)
            try:
                thomas_fermi_density(grid, vx, vz, derive_params(self).c0_2d,
                                     self.atom_number)
            except InvalidParameter as exc:
                raise InvalidParameter(
                    f"atom_number, trap_x_hz, trap_z_hz, lx_um and lz_um "
                    f"give no Thomas-Fermi cloud that fits: {exc}") from None
        if self.box_fill != 1.0:
            raise InvalidParameter(
                f"box_fill must be 1.0, got {self.box_fill!r}")
        # type, not isinstance: a bool is an int, and meta would say True
        if type(self.rng_seed) is not int or self.rng_seed < 0:
            raise InvalidParameter(
                f"rng_seed must be a nonnegative integer, "
                f"got {self.rng_seed!r}")
        return self


_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(RunConfig)}
_POSITIVE = ("a0_nm", "a2_nm", "n0_cm3", "atom_number", "sigma_y_um",
             "q_coeff_hz_g2", "lx_um", "lz_um")
_NONNEGATIVE = ("b0_mg", "trap_x_hz", "trap_z_hz",
                "t_final_ms", "snapshot_every_ms", "snapshot_write_every_ms",
                "helix_pitch_um", "noise_amplitude", "cancel_pulse_rate_khz")


def _convert(key: str, raw: str, line_no: int, line: str):
    try:
        return _FIELD_TYPES[key](raw)
    except ValueError:
        raise InvalidParameter(
            f"line {line_no}: cannot parse value for {key!r}: "
            f"{line.strip()!r}") from None


def parse_config(text: str) -> RunConfig:
    """Parse key = value lines over the RunConfig defaults.

    Unknown or repeated keys, malformed lines, and out-of-range values raise
    InvalidParameter naming the offending line.  '#' starts a comment.
    """
    cfg = RunConfig()
    seen = {}                   # key -> line it was set on
    for line_no, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise InvalidParameter(
                f"line {line_no}: expected 'key = value', "
                f"got {line.strip()!r}")
        key, raw = (part.strip() for part in body.split("=", 1))
        if key not in _FIELD_TYPES:
            raise InvalidParameter(
                f"line {line_no}: unknown key {key!r}")
        if key in seen:
            raise InvalidParameter(
                f"line {line_no}: key {key!r} repeats line {seen[key]}")
        seen[key] = line_no
        setattr(cfg, key, _convert(key, raw, line_no, line))
    try:
        cfg.validate()
    except InvalidParameter as exc:
        raise InvalidParameter(f"invalid config: {exc}") from None
    return cfg


def load_config(path: str) -> RunConfig:
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    try:
        return parse_config(text)
    except InvalidParameter as exc:
        raise InvalidParameter(f"{path}: {exc}") from None


_HEADER_COMMENTS = """\
# simulation run configuration (key = value; '#' starts a comment)
#
# dt_ms balances the peak contact-interaction scale (~2 kHz) against
# the grid's kinetic Nyquist scale (~1.2 kHz at 0.5 um spacing); halve
# it before trusting runs on substantially finer grids.
"""


def _config_lines(cfg: RunConfig) -> list:
    # values are written bare (no quoting); parse takes them verbatim.
    # out_dir says where a run is written, not what it is
    return [f"{name} = {getattr(cfg, name)}" for name in _FIELD_TYPES
            if name != "out_dir"]


def serialize_config(cfg: RunConfig) -> str:
    return "\n".join([_HEADER_COMMENTS] + _config_lines(cfg)) + "\n"


def config_hash(cfg: RunConfig) -> str:
    canonical = "\n".join(_config_lines(cfg))
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]


@contextlib.contextmanager
def atomic_text(path: str):
    """Text file handle whose contents replace `path` only when the block
    ends without error, so no reader sees a partly written file."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


# ---------------------------------------------------------------------------
# Snapshot files
# ---------------------------------------------------------------------------

SNAPSHOT_COLUMNS = ("x_um", "z_um", "n", "Mx", "My", "Mz",
                    "re_p1", "im_p1", "re_p0", "im_p0", "re_m1", "im_m1")
_SNAPSHOT_CHUNK_ROWS = 2048


def _ascii_table(fields: list, dtype) -> np.ndarray:
    """Equal-length ASCII strings as one integer each, in native order."""
    return np.frombuffer("".join(fields).encode("ascii"), dtype=dtype)


# |x| * 10**(10 - e) is a multiplication by _SCALE_UP[10 - e + 300] and a
# division by _SCALE_DOWN[...]; one of the two is 1.  Powers up to 1e22
# are exact; beyond, each is a correctly rounded literal.
_SCALE_UP = np.array([float(f"1e{max(k, 0)}") for k in range(-300, 301)])
_SCALE_DOWN = np.array([float(f"1e{max(-k, 0)}") for k in range(-300, 301)])
# the kernel rounds |x| in this range itself, where 10 - e stays within
# the scale tables; other nonzero values, subnormals among them, go to
# '%.10e'
_FAST_MIN, _FAST_MAX = 1e-280, 1e280
# the scaled significand is within 3e-5 of exact, so outside this margin
# around a half the rounding direction is certain
_TIE_MARGIN = 1e-4
# one value is a slot of five words: "\0", "-" or "\0", leading digit,
# "."; fraction digits 1-4; 5-8; 9-10, "e", exponent sign; hundreds
# digit or "\0", two exponent digits, " " (or "\n" ending a row).
# The "\0" pad bytes are dropped before writing.
_LEAD = _ascii_table([f"\0{s}{d}." for s in "\0-" for d in range(10)],
                     np.uint32)
_QUAD = _ascii_table([f"{i:04d}" for i in range(10000)], np.uint32)
_PAIR = _ascii_table([f"{i:02d}" for i in range(100)], np.uint16)
_EXP_SIGN = _ascii_table(["e+", "e-"], np.uint16)
_EXP = _ascii_table([(f"{i}" if i >= 100 else f"\0{i:02d}") + " "
                     for i in range(300)], np.uint32)


def _format_rows(rows: np.ndarray) -> str:
    """The rows of a float64 table as '%.10e' fields, ' '-separated, one
    line per row: the bytes of np.savetxt(fmt="%.10e").

    A value's 11 significant digits are D = rint(|x| 10^(10-e)), with
    e = floor(log10|x|).  The scaled value is rounded once or twice, so
    it lies within 3e-5 of exact, and D is the correctly rounded digit
    string unless the scaled value lies within _TIE_MARGIN of a half or
    D falls outside [1e10, 1e11) (e off by one, or digits that carry
    into the next decade).  Python's own '%.10e' formats those values,
    the non-finite ones and the nonzero ones outside [1e-280, 1e280].
    """
    x = rows.ravel()
    slots = np.empty((x.size, 5), dtype=np.uint32)
    # an overflowing or non-finite intermediate fails the guards and its
    # value goes to '%.10e', so no floating-point flag needs a warning
    with np.errstate(all="ignore"):
        a = np.abs(x)
        fast = (a >= _FAST_MIN) & (a <= _FAST_MAX)
        a = np.where(fast, a, 1.0)
        e = np.floor(np.log10(a))
        scale = (310.0 - e).astype(np.intp)
        y = a * _SCALE_UP[scale] / _SCALE_DOWN[scale]
        d = np.rint(y)
        fast &= (np.abs(y - d) < 0.5 - _TIE_MARGIN) & (d >= 1e10) & (d < 1e11)
        # zeros (and the values formatted below) get the digits of 0.0
        d = np.where(fast, d, 0.0)
        lead = np.floor(d / 1e10)
        d -= lead * 1e10
        quad1 = np.floor(d / 1e6)
        d -= quad1 * 1e6
        quad2 = np.floor(d / 1e2)
        d -= quad2 * 1e2
        slots[:, 0] = _LEAD[(lead + 10.0 * np.signbit(x)).astype(np.intp)]
        slots[:, 1] = _QUAD[quad1.astype(np.intp)]
        slots[:, 2] = _QUAD[quad2.astype(np.intp)]
        halves = slots.view(np.uint16)
        halves[:, 6] = _PAIR[d.astype(np.intp)]
        halves[:, 7] = _EXP_SIGN[(e < 0).view(np.uint8)]
        slots[:, 4] = _EXP[np.abs(e).astype(np.intp)]
    text = slots.view(np.uint8)
    text.reshape(rows.shape + (20,))[:, -1, 19] = ord("\n")
    for i in np.flatnonzero(~fast & (x != 0)):
        field = b"%.10e" % x[i]
        text[i, :19] = 0
        text[i, :len(field)] = np.frombuffer(field, dtype=np.uint8)
    return text.tobytes().translate(None, b"\0").decode("ascii")


def write_snapshot(path: str, psi: np.ndarray, grid: Grid2D,
                   time_ms: float, cfg_hash: str) -> None:
    if psi.shape != (3,) + grid.shape:
        raise GridMismatch(f"snapshot {path}: field shape {psi.shape} does "
                           f"not match 3 components on grid {grid.shape}")
    if not math.isfinite(time_ms):
        raise InvalidParameter(f"snapshot {path}: time_ms must be finite, "
                               f"got {time_ms!r}")
    n = number_density(psi)
    m = spin_density(psi)
    x = np.broadcast_to(grid.x[:, None], grid.shape)
    z = np.broadcast_to(grid.z[None, :], grid.shape)
    cols = [x, z, n, m[0], m[1], m[2],
            psi[0].real, psi[0].imag, psi[1].real, psi[1].imag,
            psi[2].real, psi[2].imag]
    table = np.stack([c.reshape(-1) for c in cols], axis=1)
    header = (f"# time_ms = {time_ms}\n"
              f"# nx = {grid.nx}\n"
              f"# nz = {grid.nz}\n"
              f"# lx_um = {grid.lx}\n"
              f"# lz_um = {grid.lz}\n"
              f"# units = x,z um; n um^-2; M um^-2; psi um^-1\n"
              f"# config = {cfg_hash}\n"
              f"# columns = {' '.join(SNAPSHOT_COLUMNS)}\n")
    with atomic_text(path) as fh:
        fh.write(header)
        for start in range(0, len(table), _SNAPSHOT_CHUNK_ROWS):
            fh.write(_format_rows(table[start:start + _SNAPSHOT_CHUNK_ROWS]))


def read_snapshot(path: str) -> tuple:
    """Return (psi, grid, header dict) from a snapshot file."""
    header = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.startswith("#"):
                break
            body = line[1:].strip()
            if "=" in body:
                key, val = (part.strip() for part in body.split("=", 1))
                header[key] = val
    for key in ("time_ms", "nx", "nz", "lx_um", "lz_um"):
        if key not in header:
            raise InvalidParameter(f"snapshot {path}: missing header {key}")
    try:
        grid = Grid2D(nx=int(header["nx"]), nz=int(header["nz"]),
                      lx=float(header["lx_um"]), lz=float(header["lz_um"]))
        header["time_ms"] = float(header["time_ms"])
        table = np.loadtxt(path)      # skips the '#' header lines
    except ValueError as exc:
        raise InvalidParameter(f"snapshot {path}: {exc}") from None
    if not math.isfinite(header["time_ms"]):
        raise InvalidParameter(f"snapshot {path}: time_ms must be finite, "
                               f"got {header['time_ms']!r}")
    if table.shape != (grid.nx * grid.nz, len(SNAPSHOT_COLUMNS)):
        raise InvalidParameter(
            f"snapshot {path}: table shape {table.shape} does not match "
            f"header grid {grid.shape}")
    shape = grid.shape
    psi = np.empty((3,) + shape, dtype=complex)
    for comp, (re_col, im_col) in enumerate(((6, 7), (8, 9), (10, 11))):
        psi[comp] = (table[:, re_col] + 1j * table[:, im_col]).reshape(shape)
    return psi, grid, header


# ---------------------------------------------------------------------------
# Time series CSV
# ---------------------------------------------------------------------------

def write_timeseries(path: str, series: OrderParamSeries,
                     cfg_hash: str) -> None:
    with atomic_text(path) as fh:
        fh.write(f"# config = {cfg_hash}\n")
        fh.write(",".join(SERIES_COLUMNS) + "\n")
        for i in range(len(series)):
            row = []
            for col in SERIES_COLUMNS:
                val = series.columns[col][i]
                if col == "n_vortices":
                    row.append(str(int(val)))
                else:
                    row.append(f"{val:.10e}")
            fh.write(",".join(row) + "\n")


def read_timeseries(path: str) -> OrderParamSeries:
    with open(path, encoding="utf-8") as fh:
        lines = [(n, ln.strip()) for n, ln in enumerate(fh, 1)
                 if ln.strip() and not ln.startswith("#")]
    if not lines or lines[0][1].split(",") != list(SERIES_COLUMNS):
        raise InvalidParameter(f"{path}: unexpected time series columns")
    rows = []
    for n, ln in lines[1:]:
        fields = ln.split(",")
        if len(fields) != len(SERIES_COLUMNS):
            raise InvalidParameter(
                f"{path}: line {n}: expected {len(SERIES_COLUMNS)} values, "
                f"got {len(fields)}")
        try:
            rows.append([float(v) for v in fields])
        except ValueError as exc:
            raise InvalidParameter(f"{path}: line {n}: {exc}") from None
    data = np.array(rows).reshape(len(rows), len(SERIES_COLUMNS))
    cols = {name: data[:, i] for i, name in enumerate(SERIES_COLUMNS)}
    return OrderParamSeries(columns=cols)


# ---------------------------------------------------------------------------
# Run directories
# ---------------------------------------------------------------------------

def snapshot_name(time_ms: float) -> str:
    # 12 significant digits: distinct times past 10 s keep distinct names
    return f"snap_t{time_ms:.12g}.txt"


def is_snapshot_name(name: str) -> bool:
    """Whether a file name is one that snapshot_name gives."""
    return name.startswith("snap_t") and name.endswith(".txt")


def write_meta(run_dir: str, cfg: RunConfig) -> None:
    with atomic_text(os.path.join(run_dir, "meta")) as fh:
        fh.write(f"# run metadata, package version {__version__}\n")
        fh.write(f"# config = {config_hash(cfg)}\n")
        fh.write(serialize_config(cfg))


def mark_done(run_dir: str) -> None:
    with atomic_text(os.path.join(run_dir, "DONE")) as fh:
        fh.write("complete\n")


def is_complete(run_dir: str) -> bool:
    return os.path.exists(os.path.join(run_dir, "DONE"))
