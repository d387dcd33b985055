"""Planar spin-1 condensate simulator with magnetic dipolar interactions."""

__version__ = "0.1.0"

from .errors import (GridMismatch, InvalidParameter, NumericalFailure,
                     SpintexError)
from .grid import Grid2D
from .params import DerivedParams, derive_params
from .field import (add_noise, imprint_helix, number_density,
                    prepare_initial, rotate_spinor, spin_density)
from .dipole import DipolarCoupling, interaction_kernel
from .dynamics import Evolver, evolve, make_cancellation_schedule
from .analysis import (OrderParamSeries, Vortex, detect_vortices,
                       dominant_wavevector, growth_rate, order_parameters,
                       power_spectrum)
from .io_text import (RunConfig, config_hash, load_config, parse_config,
                      read_snapshot, serialize_config, write_snapshot,
                      write_timeseries)
from .runner import RunResult, analyze_run, run_simulate, run_sweep_kappa

__all__ = [
    "__version__",
    "SpintexError", "InvalidParameter", "GridMismatch", "NumericalFailure",
    "Grid2D", "DerivedParams", "derive_params",
    "add_noise", "imprint_helix", "number_density", "prepare_initial",
    "rotate_spinor", "spin_density",
    "DipolarCoupling", "interaction_kernel",
    "Evolver", "evolve", "make_cancellation_schedule",
    "OrderParamSeries", "Vortex", "detect_vortices",
    "dominant_wavevector", "growth_rate", "order_parameters",
    "power_spectrum",
    "RunConfig", "config_hash", "load_config", "parse_config",
    "read_snapshot", "serialize_config", "write_snapshot", "write_timeseries",
    "RunResult", "analyze_run", "run_simulate", "run_sweep_kappa",
]
