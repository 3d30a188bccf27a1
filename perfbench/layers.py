"""Which nshd functions are traced, and how spans become per-layer metrics.

Every wrapper is installed from here, under each module name that bound the
function, so nothing inside ``src/nshd`` changes.  Per-layer metrics are
summed over one sample (set-up, timed call and correctness check) and the
benchmark reports the median over samples.
"""

from __future__ import annotations

import importlib
import os

from tracer import Tracer, children_index, counting, descendants, patch_everywhere, self_time

# Hand-derived transform counts, in vector components through
# coeffs_to_grid/grid_to_coeffs.  One IF-RK4 step makes 4 RHS calls of
# n + n^2 inverse and n forward components, plus n inverse for the CFL
# check: 63 in 3D, 34 in 2D.  One diagnostics record: pressure n^2 + 1,
# enstrophy production n + n^2 (0 in 2D), max velocity n: 25 in 3D, 7 in 2D.
RHS_PER_STEP = 4
FIELDS_PER_STEP = {2: 34, 3: 63}
FIELDS_PER_CFL = {2: 2, 3: 3}
FIELDS_PER_RECORD = {2: 7, 3: 25}

TRANSFORMS = ("spectral.coeffs_to_grid", "spectral.grid_to_coeffs")
SLOW_PROPERTIES = (
    "solution_map_commutation",
    "enstrophy_production_identity",
    "inviscid_energy_conservation",
    "energy_identity",
)


def _transform_meta(args, kwargs, result):
    values, n = args[0], args[1]
    fields = 1
    for dim in values.shape[: values.ndim - n]:
        fields *= dim
    return {"fields": fields, "bytes": values.nbytes + result.nbytes}


def _lattice_n_of_field(args, kwargs, result):
    return {"n": args[0].lattice.n}


def _lattice_n_of_state(args, kwargs, result):
    return {"n": args[0].u.lattice.n}


def _checkpoint_size(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


# (module, function, span name, annotate)
_TRACED = (
    ("spectral", "coeffs_to_grid", "spectral.coeffs_to_grid", _transform_meta),
    ("spectral", "grid_to_coeffs", "spectral.grid_to_coeffs", _transform_meta),
    ("spectral", "leray_project_coeffs", "spectral.leray", None),
    ("spectral", "dealias_coeffs", "spectral.dealias", None),
    ("spectral", "build_lattice", "spectral.lattice", None),
    ("dynamics", "nonlinear_rhs", "dynamics.rhs", None),
    ("dynamics", "step", "dynamics.step", _lattice_n_of_state),
    ("dynamics", "cfl_dt", "dynamics.cfl", _lattice_n_of_field),
    ("dynamics", "compute_pressure", "dynamics.pressure", None),
    ("dynamics", "advance", "dynamics.advance", None),
    ("diagnostics", "compute_diagnostics", "diagnostics.record", _lattice_n_of_field),
    ("diagnostics", "enstrophy_production", "diagnostics.production", None),
    ("diagnostics", "max_velocity", "diagnostics.max_velocity", None),
    ("diagnostics", "csv_row", "diagnostics.csv_row", None),
    ("checkpoint", "write_checkpoint", "checkpoint.write", _checkpoint_size),
    ("checkpoint", "read_checkpoint", "checkpoint.read", None),
    ("harness", "run_config", "harness.run_config", None),
    ("harness", "sweep", "harness.sweep", None),
    ("harness", "_read_row_metrics", "harness.read_rows", None),
    ("config", "load_config", "config.load", None),
    ("initial_conditions", "build_initial_field", "initial_conditions.build", None),
    ("scaling", "apply_discrete_rescale", "scaling.rescale", None),
)


def count_steps(nshd) -> list:
    """Count IF-RK4 steps (calls of dynamics.if_rk4_step) in every caller."""
    counter = [0]
    original = nshd.dynamics.if_rk4_step
    patch_everywhere("nshd", original, counting(original, counter))
    return counter


def instrument(nshd, tracer: Tracer) -> None:
    """Install a span wrapper on every traced function under all its names."""
    for module, attr, name, annotate in _TRACED:
        original = getattr(importlib.import_module(f"nshd.{module}"), attr)
        patch_everywhere("nshd", original, tracer.wrap(original, name, annotate))
    checks = nshd.verify.PROPERTY_CHECKS  # run_verification iterates this dict
    for prop, fn in list(checks.items()):
        checks[prop] = tracer.wrap(fn, f"verify.{prop}")


def _sum(spans, name):
    return sum((s.duration for s in spans if s.name == name), 0.0)


def _count(spans, name):
    return sum(1 for s in spans if s.name == name)


def layer_metrics(spans, workers: int, properties_passed: int, steps: int) -> dict:
    """Per-layer metrics of one traced sample (names as in BENCHMARK.json)."""
    kids = children_index(spans)
    idx = {}
    for i, s in enumerate(spans):
        idx.setdefault(s.name, []).append(i)

    def self_sum(name, child_names=None):
        return sum((self_time(spans, kids, i, child_names) for i in idx.get(name, ())), 0.0)

    def fields_under(i):
        return sum(spans[j].meta["fields"] for j in descendants(kids, i)
                   if spans[j].name in TRANSFORMS)

    step_fields = sum(fields_under(i) for name in ("dynamics.step", "dynamics.cfl")
                      for i in idx.get(name, ()))
    records = idx.get("diagnostics.record", ())
    record_fields = sum(fields_under(i) for i in records)
    n_steps = len(idx.get("dynamics.step", ()))

    sweeps = idx.get("harness.sweep", ())
    sweep_wall = sum(spans[i].duration for i in sweeps)
    sweep_runs = sum(spans[c].duration for i in sweeps for c in kids[i]
                     if spans[c].name == "harness.run_config")

    transforms = [s for s in spans if s.name in TRANSFORMS]
    out = {
        "spectral.transform_s": sum((s.duration for s in transforms), 0.0),
        "spectral.transform_calls": len(transforms),
        "spectral.transform_fields": sum(s.meta["fields"] for s in transforms),
        "spectral.transform_bytes_computed": sum(s.meta["bytes"] for s in transforms),
        "spectral.fields_per_step": step_fields / n_steps if n_steps else 0.0,
        "spectral.fields_per_record": record_fields / len(records) if records else 0.0,
        "spectral.leray_s": _sum(spans, "spectral.leray"),
        "spectral.dealias_s": _sum(spans, "spectral.dealias"),
        "spectral.lattice_s": _sum(spans, "spectral.lattice"),
        "dynamics.steps": steps,
        "dynamics.rhs_s": _sum(spans, "dynamics.rhs"),
        "dynamics.rhs_calls": _count(spans, "dynamics.rhs"),
        "dynamics.rhs_self_s": self_sum("dynamics.rhs"),
        "dynamics.step_s": _sum(spans, "dynamics.step"),
        "dynamics.step_self_s": self_sum("dynamics.step"),
        "dynamics.cfl_s": _sum(spans, "dynamics.cfl"),
        "dynamics.pressure_s": _sum(spans, "dynamics.pressure"),
        "diagnostics.records": len(records),
        "diagnostics.record_s": _sum(spans, "diagnostics.record"),
        "diagnostics.record_self_s": self_sum("diagnostics.record"),
        "diagnostics.production_s": _sum(spans, "diagnostics.production"),
        "diagnostics.max_velocity_s": _sum(spans, "diagnostics.max_velocity"),
        "diagnostics.csv_row_s": _sum(spans, "diagnostics.csv_row"),
        "checkpoint.write_s": _sum(spans, "checkpoint.write"),
        "checkpoint.bytes_written": sum(s.meta["bytes"] for s in spans
                                        if s.name == "checkpoint.write"),
        "checkpoint.read_s": _sum(spans, "checkpoint.read"),
        "harness.run_self_s": self_sum("harness.run_config",
                                       {"dynamics.advance", "checkpoint.write"}),
        # The CSV re-reads run on the worker threads, mostly while another
        # worker's run_config is open, so they are added in full.
        "harness.sweep_self_s": (self_sum("harness.sweep",
                                          {"harness.run_config", "harness.read_rows"})
                                 + _sum(spans, "harness.read_rows")),
        "harness.sweep_parallel_eff": (sweep_runs / (workers * sweep_wall)
                                       if sweep_wall else 0.0),
        "config.load_s": _sum(spans, "config.load"),
        "initial_conditions.build_s": _sum(spans, "initial_conditions.build"),
        "scaling.rescale_s": _sum(spans, "scaling.rescale"),
        "verify.properties_passed": properties_passed,
        "trace.spans": len(spans),
    }
    for prop in SLOW_PROPERTIES:
        out[f"verify.{prop}_s"] = _sum(spans, f"verify.{prop}")
    return out


def count_problems(spans) -> list[str]:
    """Compare transform and RHS counts with the hand-derived values."""
    kids = children_index(spans)
    problems = []
    for i, s in enumerate(spans):
        if s.name not in ("dynamics.step", "dynamics.cfl", "diagnostics.record"):
            continue
        below = [spans[j] for j in descendants(kids, i)]
        fields = sum(b.meta["fields"] for b in below if b.name in TRANSFORMS)
        if s.name == "dynamics.step":
            n = s.meta["n"]
            rhs = sum(1 for b in below if b.name == "dynamics.rhs")
            want = FIELDS_PER_STEP[n] - FIELDS_PER_CFL[n]
            if rhs != RHS_PER_STEP or fields != want:
                problems.append(f"step span {i}: {rhs} RHS calls and {fields} transformed "
                                f"fields, expected {RHS_PER_STEP} and {want}")
        elif s.name == "dynamics.cfl" and fields != FIELDS_PER_CFL[s.meta["n"]]:
            problems.append(f"cfl span {i}: {fields} transformed fields, "
                            f"expected {FIELDS_PER_CFL[s.meta['n']]}")
        elif s.name == "diagnostics.record" and fields != FIELDS_PER_RECORD[s.meta["n"]]:
            problems.append(f"diagnostics span {i}: {fields} transformed fields, "
                            f"expected {FIELDS_PER_RECORD[s.meta['n']]}")
    return problems
