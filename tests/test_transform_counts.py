"""Transformed-component counts of the RHS, CFL check and diagnostics record,
and which inverse transforms may consume their input.

Counters are installed on coeffs_to_grid/grid_to_coeffs under every module
name that binds them, so a change that routes work around these two
functions, or adds transforms, fails here.
"""

import sys

import numpy as np
import pytest

import nshd.dynamics as dynamics
import nshd.spectral as spectral
from nshd.diagnostics import compute_diagnostics
from nshd.dynamics import (
    SolverConfig,
    SolverState,
    StepWorkspace,
    cfl_dt,
    dissipation_symbol,
    nonlinear_rhs,
    step,
)

from conftest import make_random_field, workspace_for


def patch_everywhere(monkeypatch, original, replacement):
    """Replace `original` under every name an nshd module binds it to."""
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == "nshd" or modname.startswith("nshd.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, attr, replacement)


@pytest.fixture
def transformed(monkeypatch):
    """Components through the inverse and forward transforms, by direction."""
    counts = {"inverse": 0, "forward": 0}
    for name, key in (("coeffs_to_grid", "inverse"), ("grid_to_coeffs", "forward")):
        original = getattr(spectral, name)

        def counted(values, n, original=original, key=key, **kwargs):
            counts[key] += int(np.prod(values.shape[: values.ndim - n]))
            return original(values, n, **kwargs)

        patch_everywhere(monkeypatch, original, counted)
    return counts


@pytest.mark.parametrize("n", [2, 3])
def test_rhs_and_step_counts(transformed, n):
    u = make_random_field(n=n, N=16, seed=40, band=(1, 4))
    nonlinear_rhs(u.coeffs, StepWorkspace(u.lattice, u.lattice.ksq_array))
    assert transformed == {"inverse": n + n * n, "forward": n}
    transformed.update(inverse=0, forward=0)
    step(SolverState(u=u), 1e-3, workspace_for(u, SolverConfig(n=n, N=16, alpha=1.0, t_end=1.0)))
    assert transformed == {"inverse": 4 * (n + n * n), "forward": 4 * n}


@pytest.mark.parametrize("n", [2, 3])
def test_cfl_counts(transformed, n):
    u = make_random_field(n=n, N=16, seed=41, band=(1, 4))
    cfl_dt(u, SolverConfig(n=n, N=16, alpha=1.0, t_end=1.0))
    assert transformed == {"inverse": n, "forward": 0}


@pytest.mark.parametrize("n, total", [(2, 7), (3, 25)])
def test_diagnostics_record_counts(transformed, n, total):
    u = make_random_field(n=n, N=16, seed=42, band=(1, 4))
    compute_diagnostics(u, SolverConfig(n=n, N=16, alpha=1.0, t_end=1.0))
    assert transformed["inverse"] + transformed["forward"] == total


@pytest.mark.parametrize("n", [2, 3])
def test_step_runs_rhs_leray_and_dealias_through_their_functions(monkeypatch, n):
    # the benchmark's spectral.leray and spectral.dealias spans time these
    # calls, so in-place cleanup must still go through the two functions
    calls = {}
    for module, name in ((dynamics, "nonlinear_rhs"), (spectral, "leray_project_coeffs"),
                         (spectral, "dealias_coeffs")):
        original = getattr(module, name)
        calls[name] = 0

        def counted(*args, original=original, name=name, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        patch_everywhere(monkeypatch, original, counted)
    u = make_random_field(n=n, N=16, seed=43, band=(1, 4))
    step(SolverState(u=u), 1e-3, workspace_for(u, SolverConfig(n=n, N=16, alpha=1.0, t_end=1.0)))
    assert calls["nonlinear_rhs"] == 4
    assert calls["leray_project_coeffs"] >= 1 and calls["dealias_coeffs"] >= 1


@pytest.mark.parametrize("n, record_batches", [(2, 1), (3, 2)])
def test_only_owned_batches_are_consumed(monkeypatch, n, record_batches):
    # overwrite=True hands coeffs_to_grid its input as scratch: only the step
    # workspace's batch may go that way, as views from `gradient_grid`, for
    # the step (the whole batch) and for a record's gradient batches (the
    # pressure's, and the production's in 3D), never a state's coefficients;
    # the state is zero past the kept width, so the step, the CFL check and
    # the record all transform its kept columns
    consumed, narrowed = [], []
    inverse, forward = spectral.coeffs_to_grid, spectral.grid_to_coeffs

    def spy_inverse(values, n, **kwargs):
        if kwargs.get("overwrite"):
            consumed.append(values)
        if "width" in kwargs:
            narrowed.append(("inverse", values, kwargs["width"]))
        return inverse(values, n, **kwargs)

    def spy_forward(values, n, **kwargs):
        if "width" in kwargs:
            narrowed.append(("forward", values, kwargs["width"]))
        return forward(values, n, **kwargs)

    patch_everywhere(monkeypatch, inverse, spy_inverse)
    patch_everywhere(monkeypatch, forward, spy_forward)
    cfg = SolverConfig(n=n, N=16, alpha=1.0, t_end=1.0)
    state = SolverState(u=make_random_field(n=n, N=16, seed=44, band=(1, 4)))
    before = state.u.coeffs.copy()
    lat = state.u.lattice
    work = StepWorkspace(lat, dissipation_symbol(lat, cfg.alpha, cfg.nu))
    step(state, 1e-3, work)
    whole_batch = lambda v: v.base is work.batch and v.shape == work.batch.shape
    assert len(consumed) == 4 and all(map(whole_batch, consumed))
    assert [(kind, w) for kind, _, w in narrowed] == [("inverse", 6), ("forward", 6)] * 4
    assert all(whole_batch(v) if kind == "inverse" else v is work.conv
               for kind, v, _ in narrowed)
    consumed.clear()
    narrowed.clear()
    cfl_dt(state.u, cfg)
    assert not consumed
    assert [(kind, v is state.u.coeffs, w) for kind, v, w in narrowed] == [("inverse", True, 6)]
    narrowed.clear()
    compute_diagnostics(state.u, cfg, work=work)
    assert len(consumed) == record_batches
    assert all(v.base is work.batch for v in consumed)
    assert {w for _, _, w in narrowed} == {6} and len(narrowed) == record_batches + 2
    assert state.u.coeffs.tobytes() == before.tobytes()
