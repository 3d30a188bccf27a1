"""Run configuration files: a versioned JSON schema with strict key checking.

The schema is the fields of `SolverConfig` ("solver") and `InitialConditionSpec`
("initial_condition"): names are keys, annotations give JSON types, fields
without a default are required.  `parse_config` checks only the document's
shape; each bound is checked once, by the dataclass that holds the value.  Every
message starts with the offending field ("solver.N: ..."), since a silently
ignored typo in alpha or nu is the most dangerous failure mode of a sweep.
"""

from __future__ import annotations

import dataclasses
import json
import reprlib

from .dynamics import SolverConfig
from .initial_conditions import InitialConditionSpec
from .spectral import ConfigError

SCHEMA_VERSION = 1

# field annotation -> (accepted JSON values, name in messages); bool is no number
_JSON_TYPES = {"int": (int, "an integer"), "float": ((int, float), "a number"),
               "bool": (bool, "true or false"), "str": (str, "a string"),
               "tuple": (list, "a list")}
_SECTIONS = {"solver": SolverConfig, "initial_condition": InitialConditionSpec}


@dataclasses.dataclass(frozen=True)
class RunConfig:
    solver: SolverConfig
    initial_condition: InitialConditionSpec

    def __post_init__(self):
        ic = self.initial_condition
        if ic.kind == "random_band" and not ic.band[1] < self.solver.N / 3:
            raise ConfigError(
                "initial_condition.band",
                f"k_max={ic.band[1]} must stay below N/3 = {self.solver.N / 3:g}",
            )

    def to_dict(self) -> dict:
        out = {"schema_version": SCHEMA_VERSION}
        for name in _SECTIONS:
            value = getattr(self, name)
            out[name] = {f.name: _json_value(getattr(value, f.name))
                         for f in dataclasses.fields(value)}
        if self.initial_condition.kind == "taylor_green":
            for key in ("seed", "band", "spectrum_slope"):
                del out["initial_condition"][key]
        return out


def _json_value(value):
    return list(value) if isinstance(value, tuple) else value


def _parse_section(name: str, section):
    if not isinstance(section, dict):
        raise ConfigError(name, "must be a JSON object")
    fields = {f.name: f for f in dataclasses.fields(_SECTIONS[name])}
    for key, value in section.items():
        if key not in fields:
            raise ConfigError(f"{name}.{key}", "unknown key")
        accepted, type_name = _JSON_TYPES[fields[key].type]
        if isinstance(value, bool) != (accepted is bool) or not isinstance(value, accepted):
            raise ConfigError(f"{name}.{key}", f"expected {type_name}")
    for key, f in fields.items():
        if f.default is dataclasses.MISSING and key not in section:
            raise ConfigError(f"{name}.{key}", "missing required key")
    try:
        return _SECTIONS[name](**section)
    except ConfigError as exc:
        raise ConfigError(f"{name}.{exc.field}", exc.reason) from exc


def parse_config(data: dict) -> RunConfig:
    """Validate a parsed JSON document and build the typed configuration."""
    if not isinstance(data, dict):
        raise ConfigError("<root>", "config must be a JSON object")
    for key in data:
        if key not in ("schema_version", *_SECTIONS):
            raise ConfigError(key, "unknown key")
    version = data.get("schema_version")
    if type(version) is not int or version != SCHEMA_VERSION:  # not true, not 1.0
        raise ConfigError("schema_version",
                          f"expected {SCHEMA_VERSION}, got {version!r}")
    for name in _SECTIONS:
        if name not in data:
            raise ConfigError(name, "missing required section")
    return RunConfig(**{name: _parse_section(name, data[name]) for name in _SECTIONS})


def load_config(path) -> RunConfig:
    """Read and validate a UTF-8 JSON config file.

    A path that cannot be opened or read (any OSError: a missing file, a
    directory, a path under a regular file, a name too long), bytes that
    are not UTF-8, malformed JSON and JSON nested deeper than the parser's
    recursion limit raise ConfigError("<file>", ...), as does any other
    ValueError of the parser, such as an integer literal longer than Python's
    int-conversion limit.  An OSError's message names the path shortened by
    `reprlib`, since it may be any length.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError("<file>", f"{exc.strerror}: {reprlib.repr(str(path))}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError("<file>", str(exc)) from exc
    except RecursionError as exc:
        raise ConfigError("<file>", "JSON nested too deeply") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            "<file>", f"invalid JSON at line {exc.lineno} column {exc.colno}: "
                      f"{exc.msg}"
        ) from exc
    except ValueError as exc:  # after its subclasses UnicodeDecodeError and JSONDecodeError
        raise ConfigError("<file>", f"invalid JSON: {str(exc).partition(':')[0]}") from exc
    return parse_config(data)
