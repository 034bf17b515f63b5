import itertools
from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macroreal.circuit import SetupParams, raw_weights
from macroreal.multiphoton import (
    FIT_BOUNDS,
    SET_LABELS,
    CountVector12,
    GammaFitParams,
    canonical_gauge,
    chi_squared,
    detection_prob_total,
    fit_gamma,
    fit_report,
    load_counts_csv,
    modified_bounds,
    predicted_counts,
    reference_counts,
    save_counts_csv,
    scale_equivalent,
    two_photon_joint_probs,
    two_photon_lgi,
    two_photon_wlgi,
)
from macroreal.multiphoton import (
    _X_HI,
    _X_LO,
    _pearson_jacobian,
    _predicted_flat,
    _unpack,
)
from macroreal.protocol import RUN_CONFIGS

from oracles import two_photon_event_counts

# Route taken through each double-blocker configuration: the arm weight,
# the surviving central-splitter branch and the final split onto the two
# detectors, read off the single-photon leading terms.
_SET_ROUTES = {
    "++": lambda p: (p.alpha_sq, p.t1, 1.0 - p.t2, p.t2),
    "+-": lambda p: (p.alpha_sq, 1.0 - p.t1, p.t3, 1.0 - p.t3),
    "-+": lambda p: (p.beta_sq, 1.0 - p.t4, 1.0 - p.t2, p.t2),
    "--": lambda p: (p.beta_sq, p.t4, p.t3, 1.0 - p.t3),
}

params_st = st.builds(
    GammaFitParams,
    alpha_sq=st.floats(0.02, 0.98),
    t1=st.floats(0.02, 0.98),
    t2=st.floats(0.02, 0.98),
    t3=st.floats(0.02, 0.98),
    t4=st.floats(0.02, 0.98),
    eta1=st.floats(0.05, 1.0),
    eta2=st.floats(0.05, 1.0),
    n_events=st.floats(1.0, 1e7),
    gamma=st.floats(0.0, 0.9),
)


def test_two_photon_tables_match_deterministic_model():
    tables = two_photon_joint_probs()
    t23 = tables[("t2", "t3")].entries
    t13 = tables[("t1", "t3")].entries
    t12 = tables[("t1", "t2")].entries
    assert t23[(+1, +1)] == t23[(-1, -1)] == 0.5
    assert t23[(+1, -1)] == t23[(-1, +1)] == 0.0
    assert t13[(+1, -1)] == t13[(-1, +1)] == 0.5
    assert t13[(+1, +1)] == t13[(-1, -1)] == 0.0
    assert t12[(+1, +1)] == t12[(-1, -1)] == 0.5
    assert t12[(+1, -1)] == t12[(-1, +1)] == 0.0
    for table in tables.values():
        assert table.order == "two-time"
        assert table.total() == 1.0
        for key in itertools.product((+1, -1), repeat=2):
            flipped = tuple(-q for q in key)
            assert table.entries[key] == table.entries[flipped]


def test_two_photon_inequality_values_are_algebraic_maxima():
    assert two_photon_lgi() == 3.0
    assert two_photon_wlgi() == 0.5


def test_modified_bounds_values():
    assert modified_bounds(0.0) == (1.0, 0.0)
    assert modified_bounds(0.5) == (2.0, 0.25)
    lgi, wlgi = modified_bounds(0.0023)
    assert lgi == pytest.approx(1.0046, abs=1e-12)
    assert wlgi == pytest.approx(0.00115, abs=1e-12)
    for bad in (-0.1, 1.0, 1.5):
        with pytest.raises(ValueError):
            modified_bounds(bad)


def test_modified_bounds_affine_and_monotone():
    gammas = np.linspace(0.0, 0.98, 50)
    lgi = np.array([modified_bounds(g).lgi_bound for g in gammas])
    wlgi = np.array([modified_bounds(g).wlgi_bound for g in gammas])
    for values in (lgi, wlgi):
        assert np.all(np.diff(values) > 0.0)
        second = values[2:] - 2.0 * values[1:-1] + values[:-2]
        assert np.allclose(second, 0.0, atol=1e-12)


@settings(deadline=None, max_examples=150)
@given(params_st)
def test_predicted_counts_match_event_model_oracle(params):
    counts = predicted_counts(params)
    scale = max(params.n_events, 1.0)
    for label in SET_LABELS:
        a, p, s1, s2 = _SET_ROUTES[label](params)
        expected = two_photon_event_counts(
            params.n_single, params.n_double, a, p, s1, s2, params.eta1, params.eta2
        )
        got = (counts.c1(label), counts.c2(label), counts.c12(label))
        assert np.allclose(got, expected, rtol=1e-9, atol=1e-9 * scale)
        assert counts.c12(label) <= min(counts.c1(label), counts.c2(label)) + 1e-9 * scale


def test_predicted_counts_limits():
    no_pairs = predicted_counts(
        GammaFitParams(0.5, 0.8, 0.79, 0.82, 0.82, 0.6, 0.6, 1e5, 0.0)
    )
    for label in SET_LABELS:
        assert no_pairs.c12(label) == 0.0

    routed = predicted_counts(GammaFitParams(1.0, 1.0, 0.0, 0.81, 0.65, 1.0, 1.0, 1e5, 0.0))
    expected = np.zeros((4, 3))
    expected[0, 0] = 1e5
    assert np.array_equal(routed.values, expected)


def test_detector_labels_follow_the_circuit():
    # With one photon per event, no pairs and ideal detectors, each row is
    # the circuit's weights for that row's run-3 blockers: C1 is the -1
    # detector and C2 the +1 detector.
    rng = np.random.default_rng(3)
    for _ in range(5):
        alpha_sq, *ts = rng.uniform(0.05, 0.95, size=5)
        setup = SetupParams(alpha_sq, tuple(ts), visibility=rng.uniform(-1.0, 1.0))
        rows = _predicted_flat(alpha_sq, *ts, 1.0, 1.0, 1.0, 0.0).reshape(4, 3)
        for label, blockers, row in zip(SET_LABELS, RUN_CONFIGS[3], rows):
            w = raw_weights(setup, blockers)
            assert row == pytest.approx([w.w_minus, w.w_plus, 0.0], abs=1e-15), label


def test_chi_squared_definition():
    params = GammaFitParams(0.48, 0.74, 0.77, 0.81, 0.65, 0.56, 0.64, 2e5, 0.0023)
    pred = predicted_counts(params)
    assert chi_squared(pred, pred) == 0.0

    bumped = pred.values.copy()
    bumped[1, 0] += np.sqrt(pred.values[1, 0])
    assert chi_squared(CountVector12(bumped), pred) == pytest.approx(1.0, abs=1e-12)

    zero_cell = predicted_counts(
        GammaFitParams(0.48, 0.74, 0.77, 0.81, 0.65, 0.56, 0.64, 2e5, 0.0)
    )
    with pytest.raises(ValueError):
        chi_squared(pred, zero_cell)


def test_params_validation_and_event_split():
    params = GammaFitParams(0.5, 0.8, 0.79, 0.82, 0.82, 0.6, 0.6, 1e5, 0.5)
    assert params.n_single == params.n_double == 5e4
    assert params.n_single + params.n_double == params.n_events
    for bad in (
        dict(alpha_sq=1.2),
        dict(t3=-0.1),
        dict(eta1=0.0),
        dict(eta2=1.1),
        dict(n_events=0.0),
        dict(gamma=1.0),
    ):
        kwargs = dict(
            alpha_sq=0.5, t1=0.8, t2=0.79, t3=0.82, t4=0.82,
            eta1=0.6, eta2=0.6, n_events=1e5, gamma=0.01,
        )
        kwargs.update(bad)
        with pytest.raises(ValueError):
            GammaFitParams(**kwargs)


def test_count_vector_validation():
    with pytest.raises(ValueError):
        CountVector12(np.zeros((3, 4)))
    with pytest.raises(ValueError):
        CountVector12(-np.ones((4, 3)))
    with pytest.raises(ValueError):
        CountVector12.from_flat([1.0] * 11)


def test_counts_csv_round_trip(tmp_path):
    counts = predicted_counts(
        GammaFitParams(0.48, 0.74, 0.77, 0.81, 0.65, 0.56, 0.64, 2.1e5, 0.0023)
    )
    path = tmp_path / "counts.csv"
    save_counts_csv(path, counts)
    assert np.array_equal(load_counts_csv(path).values, counts.values)


@pytest.mark.parametrize(
    "extra, message",
    [
        ("++,1,1,1\n", r"row 6: repeats set label '\+\+'"),
        ("xx,1,2,3\n", r"row 6: unknown set label 'xx'"),
    ],
)
def test_load_counts_csv_rejects_repeated_and_unknown_labels(tmp_path, extra, message):
    path = tmp_path / "counts.csv"
    save_counts_csv(path, reference_counts())
    with open(path, "a", newline="") as fh:
        fh.write(extra)
    with pytest.raises(ValueError, match=message):
        load_counts_csv(path)


def test_reference_counts_table():
    counts = reference_counts()
    assert counts.c1("++") == 9412.0
    assert counts.c2("++") == 36458.33
    assert counts.c12("+-") == 0.67
    assert counts.c1("-+") == 2206.0
    assert counts.c12("--") == 7.33


def test_scale_family_leaves_counts_invariant():
    rng = np.random.default_rng(11)
    lo = np.array([FIT_BOUNDS[k][0] for k in GammaFitParams.__dataclass_fields__])
    hi = np.array([FIT_BOUNDS[k][1] for k in GammaFitParams.__dataclass_fields__])
    for _ in range(30):
        params = GammaFitParams(*rng.uniform(lo, hi))
        kappa = rng.uniform(0.5, (1.0 - 1e-9) / max(params.eta1, params.eta2))
        scaled = scale_equivalent(params, kappa)
        assert np.allclose(
            predicted_counts(scaled).values, predicted_counts(params).values, rtol=1e-12
        )
        assert detection_prob_total(scaled) == pytest.approx(
            kappa * detection_prob_total(params), rel=1e-12
        )
        # The family realizes genuinely different fractions.
        if abs(kappa - 1.0) > 0.05:
            assert scaled.gamma != pytest.approx(params.gamma, rel=1e-3)


def test_canonical_gauge_is_family_invariant():
    params = GammaFitParams(0.48, 0.74, 0.77, 0.81, 0.65, 0.56, 0.64, 2.1e5, 0.0023)
    canon = canonical_gauge(params)
    assert detection_prob_total(canon) == pytest.approx(0.6, rel=1e-12)
    assert np.allclose(
        predicted_counts(canon).values, predicted_counts(params).values, rtol=1e-12
    )
    for kappa in (0.7, 0.9, 1.1, 1.3):
        other = canonical_gauge(scale_equivalent(params, kappa))
        assert other.gamma == pytest.approx(canon.gamma, rel=1e-9)
        assert other.n_events == pytest.approx(canon.n_events, rel=1e-9)
        assert other.eta1 == pytest.approx(canon.eta1, rel=1e-9)


def _route_detection_shift(params, lam):
    """Count-equivalent point moved by lam along the route-detection direction.

    Route weights A = alpha_sq*t1, B = alpha_sq*(1-t1), C = beta_sq*(1-t4)
    and D = beta_sq*t4 become lam*(A, C) and mu*(B, D), with mu fixed by
    the weights summing to one; the detector splits E = ((1-t2)*eta1,
    t2*eta2) and F = (t3*eta1, (1-t3)*eta2) become E/lam and F/mu, and the
    efficiencies solve E1/eta1 + E2/eta2 = 1 = F1/eta1 + F2/eta2.
    """
    a2, b2 = params.alpha_sq, params.beta_sq
    a, b = a2 * params.t1, a2 * (1.0 - params.t1)
    c, d = b2 * (1.0 - params.t4), b2 * params.t4
    mu = (1.0 - lam * (a + c)) / (b + d)
    e1, e2 = (1.0 - params.t2) * params.eta1 / lam, params.t2 * params.eta2 / lam
    f1, f2 = params.t3 * params.eta1 / mu, (1.0 - params.t3) * params.eta2 / mu
    inv1, inv2 = np.linalg.solve([[e1, e2], [f1, f2]], [1.0, 1.0])
    alpha_sq = lam * a + mu * b
    return GammaFitParams(
        alpha_sq,
        lam * a / alpha_sq,
        e2 * inv2,
        f1 * inv1,
        mu * d / (1.0 - alpha_sq),
        1.0 / inv1,
        1.0 / inv2,
        params.n_events,
        params.gamma,
    )


def test_canonical_gauge_is_invariant_along_route_detection_direction():
    rng = np.random.default_rng(5)
    lo = np.array([FIT_BOUNDS[k][0] for k in GammaFitParams.__dataclass_fields__])
    hi = np.array([FIT_BOUNDS[k][1] for k in GammaFitParams.__dataclass_fields__])
    bases = [GammaFitParams(0.48, 0.74, 0.77, 0.81, 0.65, 0.56, 0.64, 2.1e5, 0.0023)]
    bases += [GammaFitParams(*rng.uniform(lo, hi)) for _ in range(8)]
    for base in bases:
        counts = predicted_counts(base).values
        canon = canonical_gauge(base)
        assert canon.eta1 == canon.eta2 == pytest.approx(0.6, rel=1e-15)
        assert np.allclose(predicted_counts(canon).values, counts, rtol=1e-12, atol=0.0)
        # Along the direction the detector totals q1, q2 of one photon obey
        # q1/eta1 + q2/eta2 = 1, and lam = E1/eta1 + E2/eta2.  Step eta1 from
        # the end where eta2 = 0.999 to the end where eta1 = 0.999.
        q = predicted_counts(replace(base, n_events=1.0, gamma=0.0)).values
        q1, q2 = q[:, 0].sum(), q[:, 1].sum()
        for eta1 in np.linspace(q1 / (1.0 - q2 / 0.999), 0.999, 6):
            eta2 = q2 / (1.0 - q1 / eta1)
            lam = (1.0 - base.t2) * base.eta1 / eta1 + base.t2 * base.eta2 / eta2
            other = _route_detection_shift(base, lam)
            assert (other.eta1, other.eta2) == pytest.approx((eta1, eta2), rel=1e-12)
            assert np.allclose(predicted_counts(other).values, counts, rtol=1e-12, atol=0.0)
            assert np.allclose(
                astuple(canonical_gauge(other)), astuple(canon), rtol=1e-12, atol=0.0
            )


def test_canonical_gauge_edge_cases():
    # With one route pair empty, t1 or t4 does not enter the counts.
    no_plus = GammaFitParams(0.0, 0.3, 0.77, 0.81, 0.65, 0.56, 0.64, 2.1e5, 0.01)
    no_minus = GammaFitParams(1.0, 0.74, 0.77, 0.81, 0.2, 0.56, 0.64, 2.1e5, 0.01)
    for params, kept in ((no_plus, "t1"), (no_minus, "t4")):
        canon = canonical_gauge(params)
        assert getattr(canon, kept) == getattr(params, kept)
        assert canon.alpha_sq == params.alpha_sq
        assert np.allclose(
            predicted_counts(canon).values, predicted_counts(params).values, rtol=1e-12
        )
    # At S = 1 and gamma = 0.9, 0.6*N*(1 + gamma) <= 2*S*N*gamma: no
    # representative with gamma < 1 exists.
    crowded = GammaFitParams(0.5, 0.8, 0.79, 0.82, 0.82, 1.0, 1.0, 1e5, 0.9)
    with pytest.raises(ValueError, match="gamma < 1"):
        canonical_gauge(crowded)


def _central_jacobian(x, obs):
    """Central differences of the Pearson residuals, each cell on its x branch.

    A cell whose prediction at x is under the 1e-12 guard keeps the guard
    on both sides of the step, as the analytic Jacobian does; every other
    cell is ``(pred - obs)/sqrt(pred)``, as in ``_pearson_residuals``.
    """
    guarded = _predicted_flat(*_unpack(x)) <= 1e-12

    def residuals(y):
        pred = _predicted_flat(*_unpack(y))
        return (pred - obs) / np.sqrt(np.where(guarded, 1e-12, pred))

    columns = []
    for j, step in enumerate(1e-6 * (_X_HI - _X_LO)):
        shift = np.zeros(9)
        shift[j] = step
        columns.append((residuals(x + shift) - residuals(x - shift)) / (2.0 * step))
    return np.column_stack(columns)


def test_pearson_jacobian_matches_central_differences():
    obs = reference_counts().flat
    rng = np.random.default_rng(11)
    points = [rng.uniform(_X_LO, _X_HI) for _ in range(20)]
    center = 0.5 * (_X_LO + _X_HI)
    # The gamma = 0 edge, where every coincidence prediction is exactly 0,
    # and a point inside the box where they are positive but guarded.
    edge = center.copy()
    edge[8] = 0.0
    guard = center.copy()
    guard[8] = 1e-20
    assert np.all(_predicted_flat(*_unpack(edge))[2::3] == 0.0)
    assert np.all(0.0 < _predicted_flat(*_unpack(guard))[2::3])
    assert np.all(_predicted_flat(*_unpack(guard))[2::3] <= 1e-12)
    for x in points + [edge, guard]:
        analytic = _pearson_jacobian(x, obs)
        reference = _central_jacobian(x, obs)
        error = np.linalg.norm(analytic - reference, axis=0)
        assert np.all(error <= 1e-6 * np.linalg.norm(reference, axis=0)), x


def test_fit_round_trip_recovers_canonical_gamma():
    # Every point of the two-dimensional count-equivalent family (the
    # scaling and route-detection directions) generates the same table, so
    # the recoverable fraction is the canonical representative's, which
    # depends only on invariants of both directions.  The diagnostics below
    # record the fit residual: a miss at chi2 ~ 0 points at the gauge, a
    # miss at large chi2 at the optimizer.
    rng = np.random.default_rng(7)
    lo = np.array([FIT_BOUNDS[k][0] for k in GammaFitParams.__dataclass_fields__])
    hi = np.array([FIT_BOUNDS[k][1] for k in GammaFitParams.__dataclass_fields__])
    misses = []
    for draw in range(20):
        truth = canonical_gauge(GammaFitParams(*rng.uniform(lo, hi)))
        fit = fit_gamma(predicted_counts(truth), n_starts=6, seed=draw)
        if abs(fit.params.gamma - truth.gamma) > 1e-3:
            misses.append(
                f"draw {draw}: gamma {fit.params.gamma:.6f} vs {truth.gamma:.6f}"
                f" (fit chi2 {fit.chi2:.3e})"
            )
    assert not misses, "; ".join(misses)


def test_fit_round_trip_single_draw_tight():
    truth = GammaFitParams(0.48, 0.74, 0.77, 0.81, 0.65, 0.56, 0.64, 2.1e5, 0.0023)
    fit = fit_gamma(predicted_counts(truth), n_starts=8, seed=1)
    assert abs(fit.params.gamma - truth.gamma) <= 1e-4
    assert fit.chi2 <= 1e-6


def test_fit_round_trip_zero_gamma_boundary():
    truth = GammaFitParams(0.48, 0.74, 0.77, 0.81, 0.65, 0.56, 0.64, 2.1e5, 0.0)
    fit = fit_gamma(predicted_counts(truth), n_starts=8, seed=2)
    assert fit.params.gamma <= 1e-4


def test_fit_reference_table():
    observed = reference_counts()
    fit = fit_gamma(observed, seed=0)
    assert fit.converged
    assert abs(fit.params.gamma - 0.0023) <= 0.0005
    assert chi_squared(observed, predicted_counts(fit.params)) == pytest.approx(
        fit.chi2, abs=1e-9
    )
    # The global fit can only improve on freezing the parameters at any
    # particular point of the box.
    frozen = GammaFitParams(
        0.48, 0.74, 0.77, 0.81, 0.65, 0.56, 0.64, fit.params.n_events, 0.0023
    )
    assert fit.chi2 <= chi_squared(observed, predicted_counts(frozen)) + 1e-9
    # The optimum beyond the six significant digits of gamma_fit.json.
    assert fit.params.gamma == pytest.approx(0.00222986856, abs=1e-9)
    assert fit.chi2 == pytest.approx(173.3792825, abs=1e-6)

    report = fit_report(fit)
    assert report["chi2"] == fit.chi2
    assert report["lgi_bound"] == pytest.approx(1.0 + 2.0 * fit.params.gamma, abs=1e-12)
    assert set(report["params"]) == set(FIT_BOUNDS)


def test_fit_reference_table_is_start_independent():
    # Every start's least-squares solve lands on the same optimal family,
    # so the seed of the start stream does not move the canonical gamma.
    observed = reference_counts()
    gammas = [fit_gamma(observed, seed=seed).params.gamma for seed in range(4)]
    assert max(gammas) - min(gammas) <= 1e-9


@pytest.mark.parametrize("n_starts", [-3, 2.5, "3", True])
def test_fit_gamma_rejects_invalid_n_starts(n_starts):
    with pytest.raises(ValueError, match="n_starts"):
        fit_gamma(reference_counts(), n_starts=n_starts)


def test_fit_reference_table_chi2():
    # The stated quality target for the bundled table.  The model ties the
    # C1/C2 ratio of set ++ to set -+ and of set +- to set -- (shared final
    # splitter and efficiencies), while the table's ratios differ by ~30%
    # and ~20%; every restart therefore floors at chi2 = 173.4, far above
    # the target.  Kept as stated so the gap stays visible.
    fit = fit_gamma(reference_counts(), seed=0)
    assert fit.chi2 <= 8.0, f"best reachable chi2 is {fit.chi2:.4f}"
    assert fit.chi2 == pytest.approx(7.2, abs=0.5)
