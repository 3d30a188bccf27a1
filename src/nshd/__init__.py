"""Pseudo-spectral hyperdissipative Navier-Stokes toolkit on the periodic torus.

The package exports the run-level API; array- and field-level helpers are
imported from their modules (`nshd.spectral`, `nshd.dynamics`, ...).
"""

from .checkpoint import CheckpointFormatError, read_checkpoint, write_checkpoint
from .config import ConfigError, RunConfig, load_config, parse_config
from .diagnostics import energy
from .harness import (
    RunRecord,
    ScaleCheckReport,
    SweepRow,
    SweepSummary,
    run_config,
    scale_check,
    sweep,
)
from .initial_conditions import build_initial_field
from .verify import run_verification

__version__ = "0.1.0"
