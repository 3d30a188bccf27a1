"""The verification suite must pass fresh and catch injected defects."""

import csv
import math
import os

from nshd.verify import FaultInjection, PROPERTY_CHECKS, PropertyResult, run_verification

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference",
                         "verify_results.csv")


def _by_name(results):
    return {r.name: r for r in results}


def _failed(results):
    return {r.name for r in results if not r.passed}


def assert_matches_reference(results, faults):
    """`results` against the `faults` rows of tests/reference/verify_results.csv
    (written by tests/reference/regen.py): passed and detail exactly, finite
    metrics to 1e-12 relative, the others by equality."""
    with open(REFERENCE, newline="") as fh:
        want = [row for row in csv.DictReader(fh) if row["faults"] == faults]
    assert [r.name for r in results] == [row["name"] for row in want]
    for r, row in zip(results, want):
        assert (str(r.passed), r.detail) == (row["passed"], row["detail"]), r.name
        metric = float(row["metric"])
        if math.isfinite(metric):
            assert math.isclose(r.metric, metric, rel_tol=1e-12, abs_tol=0.0), r.name
        else:
            assert repr(r.metric) == row["metric"], r.name


def test_fresh_build_all_properties_pass():
    results = run_verification()
    assert [r.name for r in results] == list(PROPERTY_CHECKS)
    failed = [r.name for r in results if not r.passed]
    assert failed == []
    assert_matches_reference(results, "none")


def test_filter_selects_subset():
    results = run_verification(name_filter="leray")
    names = {r.name for r in results}
    assert names == {"leray_idempotent", "leray_divergence_free",
                     "derivative_leray_commute"}


def test_dissipation_sign_flip_breaks_energy_monotonicity():
    results = run_verification(faults=FaultInjection(dissipation_sign_flip=True))
    # every property that steps with nu > 0, and nothing structural or inviscid
    assert _failed(results) == {
        "exact_linear_decay", "taylor_green_exact_solution", "energy_identity",
        "energy_monotonic", "moment_inequality_taylor_green",
        "solution_map_commutation",
    }
    assert_matches_reference(results, "dissipation_sign_flip")


def test_dealias_off_degrades_energy_balance_only():
    results = run_verification(faults=FaultInjection(dealias_off=True))
    # aliasing wrecks the energy balance; transforms, exact decay and the
    # quadratic-free identities are untouched
    assert _failed(results) == {"energy_identity", "inviscid_energy_conservation"}
    assert_matches_reference(results, "dealias_off")


def test_dealias_off_steps_on_a_faulty_lattice_and_samples_on_the_real_one(monkeypatch):
    import nshd.verify as v

    seen = []
    step = v.step

    def spy(state, dt, work):
        seen.append(work)
        return step(state, dt, work)

    monkeypatch.setattr(v, "step", spy)
    u0 = v._random_field(seed=8)
    samples = v._evolve(u0, 1.0, 0.5, 0.02, 0.01, FaultInjection(dealias_off=True))
    # one workspace for both steps, its mask from the faulty lattice
    assert len(seen) == 2 and seen[0] is seen[1]
    assert seen[0].lattice is not u0.lattice
    assert seen[0].lattice.dealias_mask_array.all()
    assert all(s.lattice is u0.lattice for s in samples)
    assert not u0.lattice.dealias_mask_array.all()


def test_fixed_step_samples_are_the_states_advance_reaches_at_the_same_dt():
    # one stepper serves both loops: with dt_max = dt and a field slow enough
    # that CFL does not bind, advance takes verify's steps; dt = 2^-9 keeps
    # every sample time exact, so advance can stop at each of them
    from nshd.dynamics import SolverConfig, SolverState, advance, cfl_dt
    from nshd.verify import _evolve, _random_field

    dt = 2.0**-9
    u0 = _random_field(n=2, N=32, seed=17, band=(1, 6), amplitude=0.5)
    samples = _evolve(u0, 1.25, 0.1, 6 * dt, dt, FaultInjection())
    assert [s.time for s in samples] == [k * dt for k in range(7)]
    unbound = SolverConfig(n=2, N=32, alpha=1.25, t_end=1.0, dt_max=1.0)
    assert all(cfl_dt(s, unbound) > dt for s in samples)
    for k, sample in enumerate(samples[1:], 1):
        cfg = SolverConfig(n=2, N=32, alpha=1.25, nu=0.1, t_end=sample.time, dt_max=dt,
                           diag_stride=10**9)
        final = advance(SolverState(u=u0), cfg)
        assert final.step_count == k
        assert final.u.coeffs.tobytes() == sample.coeffs.tobytes()


def test_property_crash_reports_failure(monkeypatch):
    import nshd.verify as v

    def boom(faults):
        raise RuntimeError("synthetic")

    monkeypatch.setitem(v.PROPERTY_CHECKS, "parseval", boom)
    results = _by_name(run_verification(name_filter="parseval"))
    assert not results["parseval"].passed
    assert "synthetic" in results["parseval"].detail


def test_check_returns_metric_and_threshold_under_its_key(monkeypatch):
    import nshd.verify as v

    monkeypatch.setitem(v.PROPERTY_CHECKS, "parseval", lambda faults: (2.0, 1.0, "why"))
    monkeypatch.setitem(v.PROPERTY_CHECKS, "rng_determinism", lambda faults: (0.5, 0.5))
    results = _by_name(run_verification(name_filter="parseval")
                       + run_verification(name_filter="rng_determinism"))
    assert results["parseval"] == PropertyResult("parseval", False, 2.0, 1.0, "why")
    assert results["rng_determinism"] == PropertyResult("rng_determinism", True, 0.5, 0.5)


def test_gaussian_check_catches_a_closed_form_off_by_1e_9(monkeypatch):
    import nshd.verify as v

    closed = v.gaussian_moment
    monkeypatch.setattr(v, "gaussian_moment",
                        lambda n, ell, sigma: closed(n, ell, sigma) * (1.0 + 1e-9))
    (result,) = run_verification(name_filter="gaussian_closed_form_vs_quadrature")
    assert not result.passed
    assert math.isclose(result.metric, 1e-9, rel_tol=1e-3)
