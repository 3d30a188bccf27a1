"""Run configuration files: versioned JSON schema with strict key checking.

Unknown keys are errors and validation messages name the offending field
(e.g. "solver.N"), since a silently ignored typo in alpha or nu is the most
dangerous failure mode of a sweep.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .dynamics import SolverConfig
from .initial_conditions import InitialConditionSpec

SCHEMA_VERSION = 1

_SOLVER_KEYS = {
    "n": int,
    "N": int,
    "alpha": (int, float),
    "nu": (int, float),
    "t_end": (int, float),
    "cfl_safety": (int, float),
    "dt_max": (int, float),
    "inviscid": bool,
    "diag_stride": int,
    "moment_orders": list,
    "sobolev_betas": list,
}
_SOLVER_REQUIRED = {"n", "N", "alpha", "t_end"}

_IC_KEYS = {
    "kind": str,
    "amplitude": (int, float),
    "seed": int,
    "band": list,
    "spectrum_slope": (int, float),
}
_IC_REQUIRED = {"kind"}


class ConfigError(ValueError):
    """Invalid run configuration; `field` names the offending entry."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


@dataclass(frozen=True)
class RunConfig:
    solver: SolverConfig
    initial_condition: InitialConditionSpec

    def to_dict(self) -> dict:
        sol = self.solver
        ic = self.initial_condition
        out = {
            "schema_version": SCHEMA_VERSION,
            "solver": {
                "n": sol.n, "N": sol.N, "alpha": sol.alpha, "nu": sol.nu,
                "t_end": sol.t_end, "cfl_safety": sol.cfl_safety,
                "dt_max": sol.dt_max, "inviscid": sol.inviscid,
                "diag_stride": sol.diag_stride,
                "moment_orders": list(sol.moment_orders),
                "sobolev_betas": list(sol.sobolev_betas),
            },
            "initial_condition": {"kind": ic.kind, "amplitude": ic.amplitude},
        }
        if ic.kind == "random_band":
            out["initial_condition"].update(
                seed=ic.seed, band=list(ic.band), spectrum_slope=ic.spectrum_slope
            )
        return out


def _check_section(section: dict, keys: dict, required: set, prefix: str):
    if not isinstance(section, dict):
        raise ConfigError(prefix, "must be a JSON object")
    for key in section:
        if key not in keys:
            raise ConfigError(f"{prefix}.{key}", "unknown key")
    for key in required:
        if key not in section:
            raise ConfigError(f"{prefix}.{key}", "missing required key")
    for key, value in section.items():
        expected = keys[key]
        if expected is bool:
            ok = isinstance(value, bool)
        elif expected is int:
            ok = isinstance(value, int) and not isinstance(value, bool)
        else:
            ok = isinstance(value, expected) and not isinstance(value, bool)
        if not ok:
            raise ConfigError(f"{prefix}.{key}", f"expected {_type_name(expected)}")


def _type_name(expected) -> str:
    if isinstance(expected, tuple):
        return "number"
    return expected.__name__


def parse_config(data: dict) -> RunConfig:
    """Validate a parsed JSON document and build the typed configuration."""
    if not isinstance(data, dict):
        raise ConfigError("<root>", "config must be a JSON object")
    for key in data:
        if key not in ("schema_version", "solver", "initial_condition"):
            raise ConfigError(key, "unknown key")
    version = data.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigError("schema_version",
                          f"expected {SCHEMA_VERSION}, got {version!r}")
    if "solver" not in data:
        raise ConfigError("solver", "missing required section")
    if "initial_condition" not in data:
        raise ConfigError("initial_condition", "missing required section")

    _check_section(data["solver"], _SOLVER_KEYS, _SOLVER_REQUIRED, "solver")
    _check_section(data["initial_condition"], _IC_KEYS, _IC_REQUIRED,
                   "initial_condition")

    sol = dict(data["solver"])
    ic = dict(data["initial_condition"])
    for key in ("moment_orders", "sobolev_betas"):
        if key in sol:
            vals = sol[key]
            for v in vals:
                if isinstance(v, bool) or not isinstance(v, (int, float)):
                    raise ConfigError(f"solver.{key}", "entries must be numbers")
            sol[key] = tuple(vals)
    if "band" in ic:
        band = ic["band"]
        if len(band) != 2 or not all(
            isinstance(v, int) and not isinstance(v, bool) for v in band
        ):
            raise ConfigError("initial_condition.band",
                              "must be a pair of integers [k_min, k_max]")
        ic["band"] = (band[0], band[1])

    if sol["N"] % 2 != 0:
        raise ConfigError("solver.N", f"must be even, got {sol['N']}")
    if sol["n"] not in (2, 3):
        raise ConfigError("solver.n", f"must be 2 or 3, got {sol['n']}")
    try:
        solver = SolverConfig(**sol)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError("solver", str(exc)) from exc
    try:
        spec = InitialConditionSpec(**ic)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError("initial_condition", str(exc)) from exc

    if spec.kind == "random_band" and not spec.band[1] < solver.N / 3:
        raise ConfigError(
            "initial_condition.band",
            f"k_max={spec.band[1]} must stay below N/3 = {solver.N / 3:g}",
        )
    return RunConfig(solver=solver, initial_condition=spec)


def load_config(path) -> RunConfig:
    """Read and validate a UTF-8 JSON config file.

    A missing file raises FileNotFoundError; a directory, bytes that are not
    UTF-8 and malformed JSON raise ConfigError.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (IsADirectoryError, UnicodeDecodeError) as exc:
        raise ConfigError("<file>", str(exc)) from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            "<file>", f"invalid JSON at line {exc.lineno} column {exc.colno}: "
                      f"{exc.msg}"
        ) from exc
    return parse_config(data)
