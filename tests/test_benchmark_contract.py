"""The functions the benchmark wraps must keep their names and call shapes.

`perfbench/layers.py` installs its spans by looking nshd's functions up by
(module, name); a rename there would otherwise only show up as crashed
benchmark samples.  The file is imported, never modified.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def layers(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # layers.py imports tracer
    spec = importlib.util.spec_from_file_location("perfbench_layers",
                                                  PERFBENCH / "layers.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_resolve(layers):
    missing = [f"nshd.{module}.{attr}" for module, attr, _, _ in layers._TRACED
               if not callable(getattr(importlib.import_module(f"nshd.{module}"),
                                       attr, None))]
    assert missing == []


def test_step_counter_and_property_checks_resolve(layers):
    dynamics = importlib.import_module("nshd.dynamics")
    verify = importlib.import_module("nshd.verify")
    assert callable(dynamics.if_rk4_step)
    assert set(layers.SLOW_PROPERTIES) <= set(verify.PROPERTY_CHECKS)


def test_transforms_take_values_and_n_positionally(layers):
    # the span annotation reads args[0] and args[1]
    spectral = importlib.import_module("nshd.spectral")
    for name in layers.TRANSFORMS:
        module, attr = name.split(".")
        assert module == "spectral"
        params = list(inspect.signature(getattr(spectral, attr)).parameters.values())
        assert [p.kind for p in params[:2]] == [inspect.Parameter.POSITIONAL_OR_KEYWORD] * 2
