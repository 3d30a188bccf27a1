"""The config schema: named bounds, a fuzz of parse_config and the README example."""

import copy
import dataclasses
import json
import re
import reprlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nshd.config import ConfigError, RunConfig, parse_config
from nshd.dynamics import SolverConfig
from nshd.initial_conditions import build_initial_field

VALID = {
    "schema_version": 1,
    "solver": {"n": 2, "N": 16, "alpha": 1.0, "nu": 1.0, "t_end": 0.1,
               "cfl_safety": 0.5, "dt_max": 0.01, "diag_stride": 5,
               "moment_orders": [0, 1], "sobolev_betas": [0, 1]},
    "initial_condition": {"kind": "random_band", "amplitude": 1.0, "seed": 3,
                          "band": [1, 4], "spectrum_slope": 0.0},
}


def with_value(section, key, value):
    doc = copy.deepcopy(VALID)
    doc[section][key] = value
    return doc


BAD_VALUES = [
    ("solver", "n", 4),
    ("solver", "N", 33),
    ("solver", "N", 4),
    ("solver", "N", 1024),
    ("solver", "alpha", -1.0),
    ("solver", "alpha", float("nan")),
    ("solver", "alpha", 0.0),
    ("solver", "alpha", 200.0),  # 11.3^400 overflows
    ("solver", "nu", -1.0),
    ("solver", "inviscid", True),  # nu = 0 is the inviscid run
    ("solver", "t_end", -1.0),
    ("solver", "t_end", 10**400),
    ("solver", "cfl_safety", 1.5),
    ("solver", "dt_max", 0.0),
    ("solver", "diag_stride", 0),
    ("solver", "moment_orders", [-1]),
    ("solver", "moment_orders", ["1"]),
    ("solver", "moment_orders", [True]),
    ("solver", "moment_orders", [10**400]),
    ("solver", "moment_orders", [300]),  # 11.3^300 > 1e300
    ("solver", "sobolev_betas", [float("inf")]),
    ("solver", "sobolev_betas", [None]),
    ("solver", "sobolev_betas", [150]),  # 129^150 > 1e300
    ("initial_condition", "kind", "vortex_sheet"),
    ("initial_condition", "amplitude", 0.0),
    ("initial_condition", "spectrum_slope", float("-inf")),
    ("initial_condition", "spectrum_slope", 400.0),  # 4^400 overflows
    ("initial_condition", "seed", -1),
    ("initial_condition", "seed", 2**64),
    ("initial_condition", "band", [0, 3]),
    ("initial_condition", "band", [4, 2]),
    ("initial_condition", "band", [1.0, 3]),
    ("initial_condition", "band", [1, 2, 3]),
    ("initial_condition", "band", [1, 6]),  # k_max >= N/3
]


@pytest.mark.parametrize("section,key,value", BAD_VALUES,
                         ids=[f"{key}={reprlib.repr(value)}" for _, key, value in BAD_VALUES])
def test_every_bound_names_its_field(section, key, value):
    with pytest.raises(ConfigError) as info:
        parse_config(with_value(section, key, value))
    assert str(info.value).startswith(f"{section}.{key}: ")
    assert info.value.field == f"{section}.{key}"


@pytest.mark.parametrize("version", [True, 1.0, "1", 2, None])
def test_schema_version_is_the_integer_1(version):
    doc = copy.deepcopy(VALID)
    doc["schema_version"] = version
    with pytest.raises(ConfigError, match="^schema_version: "):
        parse_config(doc)


def test_seed_bound_admits_its_end_values():
    for seed in (0, 2**64 - 1):
        assert parse_config(with_value("initial_condition", "seed", seed))


# -- fuzz -----------------------------------------------------------------------


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.text(max_size=8), children, max_size=4)),
    max_leaves=8,
)

KEYS = [(None, key) for key in VALID] + [
    (section, key) for section in ("solver", "initial_condition") for key in VALID[section]
]


@st.composite
def valid_with_one_value_replaced(draw):
    section, key = draw(st.sampled_from(KEYS))
    doc = copy.deepcopy(VALID)
    value = draw(st.integers() | st.floats() | json_values)  # numbers reach the bounds
    (doc if section is None else doc[section])[key] = value
    return doc


def check_outcome(doc):
    """parse_config accepts or raises ConfigError; what it accepts round-trips and builds."""
    try:
        cfg = parse_config(doc)
    except ConfigError:
        return
    assert isinstance(cfg, RunConfig)
    again = parse_config(cfg.to_dict())
    assert again.to_dict() == cfg.to_dict()
    if cfg.initial_condition.kind == "random_band":  # taylor_green drops its unused keys
        assert again == cfg
    if cfg.solver.N <= 32:
        u = build_initial_field(cfg.solver.make_lattice(), cfg.initial_condition)
        assert np.all(np.isfinite(u.coeffs))


@given(json_values)
def test_parse_config_fuzz_arbitrary_json(doc):
    check_outcome(doc)


@settings(max_examples=200)  # parse_config is cheap; most draws are rejected
@given(valid_with_one_value_replaced())
def test_parse_config_fuzz_one_value_replaced(doc):
    check_outcome(doc)


# -- docs -----------------------------------------------------------------------


def readme_run_configuration_example():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Run configuration", 1)[1]
    return json.loads(re.search(r"```json\n(.*?)```", section, re.S).group(1))


def test_readme_run_configuration_example_parses():
    cfg = parse_config(readme_run_configuration_example())
    assert parse_config(cfg.to_dict()) == cfg


def test_readme_run_configuration_example_shows_every_solver_default():
    # the README says the keys it does not require default to the values shown
    doc = readme_run_configuration_example()
    solver = parse_config(doc).solver
    fields = dataclasses.fields(SolverConfig)
    assert set(doc["solver"]) == {f.name for f in fields}
    for f in fields:
        if f.default is not dataclasses.MISSING:
            assert getattr(solver, f.name) == f.default, f.name
