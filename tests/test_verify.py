"""The verification suite must pass fresh and catch injected defects."""

from nshd.verify import FaultInjection, PROPERTY_CHECKS, PropertyResult, run_verification


def _by_name(results):
    return {r.name: r for r in results}


def _failed(results):
    return {r.name for r in results if not r.passed}


def test_fresh_build_all_properties_pass():
    results = run_verification()
    assert [r.name for r in results] == list(PROPERTY_CHECKS)
    failed = [r.name for r in results if not r.passed]
    assert failed == []


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


def test_dealias_off_degrades_energy_balance_only():
    results = run_verification(faults=FaultInjection(dealias_off=True))
    # aliasing wrecks the energy balance; transforms, exact decay and the
    # quadratic-free identities are untouched
    assert _failed(results) == {"energy_identity", "inviscid_energy_conservation"}


def test_dealias_off_steps_on_a_faulty_lattice_and_samples_on_the_real_one(monkeypatch):
    import nshd.verify as v

    seen = []
    step_half = v._step_half

    def spy(lattice, coeffs, dt, symbol):
        seen.append(bool(lattice.dealias_mask_array.all()))
        return step_half(lattice, coeffs, dt, symbol)

    monkeypatch.setattr(v, "_step_half", spy)
    u0 = v._random_field(seed=8)
    samples = v._evolve(u0, 1.0, 0.5, 0.02, 0.01, FaultInjection(dealias_off=True))
    assert seen == [True, True]
    assert all(s.lattice is u0.lattice for s in samples)
    assert not u0.lattice.dealias_mask_array.all()


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
