"""The functions the benchmark wraps must keep their names and call shapes.

`perfbench/layers.py` installs its spans by looking nshd's functions up by
(module, name); a rename there would otherwise only show up as crashed
benchmark samples.  The file is imported, never modified.
"""

import ast
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

from conftest import make_random_field

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


def test_the_step_counter_sees_one_call_per_step(monkeypatch):
    # perfbench counts verify_suite steps as calls of dynamics.if_rk4_step
    # under every nshd name bound to it; a step that stopped calling it
    # would read as zero steps per second
    dynamics = importlib.import_module("nshd.dynamics")
    verify = importlib.import_module("nshd.verify")
    original, calls = dynamics.if_rk4_step, []

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "nshd" or name.startswith("nshd."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    u = make_random_field(n=2, N=16, seed=57, band=(1, 4))
    work = dynamics.StepWorkspace(u.lattice, dynamics.dissipation_symbol(u.lattice, 1.0, 0.5))
    dynamics.step(dynamics.SolverState(u=u), 1e-3, work)
    assert len(calls) == 1
    calls.clear()
    results = verify.run_verification(name_filter="exact_linear_decay")
    assert [r.passed for r in results] == [True]
    assert len(calls) == 3


def test_transforms_take_values_and_n_positionally(layers):
    # the span annotation reads args[0] and args[1]
    spectral = importlib.import_module("nshd.spectral")
    for name in layers.TRANSFORMS:
        module, attr = name.split(".")
        assert module == "spectral"
        params = list(inspect.signature(getattr(spectral, attr)).parameters.values())
        assert [p.kind for p in params[:2]] == [inspect.Parameter.POSITIONAL_OR_KEYWORD] * 2


def test_package_attributes_used_by_the_benchmark_resolve():
    # perfbench reaches nshd's run-level API as attributes of the package
    nshd = importlib.import_module("nshd")
    used = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used |= {node.attr for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute)
                 and isinstance(node.value, ast.Name) and node.value.id == "nshd"}
    assert {"load_config", "build_initial_field", "run_config", "sweep",
            "run_verification", "read_checkpoint", "write_checkpoint", "energy",
            "dynamics", "verify"} <= used
    assert sorted(name for name in used if not hasattr(nshd, name)) == []


def test_workload_calls_still_bind():
    # perfbench/workloads.call passes positional arguments only; any parameter
    # beyond them must be keyword-only with a default
    nshd = importlib.import_module("nshd")
    tree = ast.parse((PERFBENCH / "workloads.py").read_text(encoding="utf-8"))
    call = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "call")
    calls = {(node.func.attr, len(node.args))
             for node in ast.walk(call)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and isinstance(node.func.value, ast.Name) and node.func.value.id == "nshd"}
    assert {("run_config", 2), ("sweep", 3)} <= calls
    calls.discard(("run_verification", 0))  # takes optional positional filters
    for name, n_args in calls:
        params = list(inspect.signature(getattr(nshd, name)).parameters.values())
        assert all(p.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
                   for p in params[:n_args]), name
        assert all(p.kind is inspect.Parameter.KEYWORD_ONLY
                   and p.default is not inspect.Parameter.empty
                   for p in params[n_args:]), name
