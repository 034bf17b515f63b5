import math

import numpy as np
import pytest
from scipy import optimize

from macroreal.hvmodels import (
    BoundCertificate,
    DegenerateModelError,
    HVWeights,
    TRIPLES,
    blocker_setup_bound,
    critical_efficiency,
    detector_certificates,
    lgi_detectors_bound_formula,
    lgi_detectors_value,
    lgi_high_efficiency_witness,
    low_efficiency_witness,
    maximize_lgi_detectors,
    maximize_wlgi_detectors,
    project_feasible,
    weight_index,
    wlgi_detectors_bound_formula,
    wlgi_detectors_value,
    wlgi_high_efficiency_witness,
)
from macroreal.hvmodels import (
    _FATOL,
    _LGI,
    _LGI_SIGNS,
    _WLGI,
    _WLGI_SIGNS,
    _XATOL,
    _lgi_fractions,
    _nelder_mead_batch,
    _ratio_value_batch,
    _wlgi_fractions,
)
from macroreal.protocol import ARM_LABELS, evaluate, joint_tables, path_cells

from oracles import (
    deterministic_triple_values,
    grid_search_bound,
    project_feasible_reference,
    ratio_value_reference,
)


def _lgi_batch(w, eta):
    return ratio_value_reference(w, _lgi_fractions, _LGI_SIGNS)


def _wlgi_batch(w, eta):
    return ratio_value_reference(w, _wlgi_fractions, _WLGI_SIGNS)


def test_value_functions_match_witness_closed_forms():
    assert lgi_detectors_value(low_efficiency_witness(0.5)) == pytest.approx(8.0 / 3.0, abs=1e-12)
    assert wlgi_detectors_value(low_efficiency_witness(0.5)) == pytest.approx(1.0, abs=1e-12)
    assert lgi_detectors_value(lgi_high_efficiency_witness(0.8)) == pytest.approx(
        2.0 / 0.8 - 0.8, abs=1e-12
    )
    assert lgi_detectors_value(lgi_high_efficiency_witness(0.7)) == pytest.approx(
        2.0 / 0.7 - 0.7, abs=1e-12
    )
    assert wlgi_detectors_value(wlgi_high_efficiency_witness(0.9)) == pytest.approx(
        0.125, abs=1e-12
    )
    assert wlgi_detectors_value(wlgi_high_efficiency_witness(0.75)) == pytest.approx(
        0.5, abs=1e-12
    )


def test_witnesses_are_feasible():
    for eta in (0.2, 0.5, 0.65):
        assert low_efficiency_witness(eta).is_feasible(eta, tol=1e-12)
    for eta in (2.0 / 3.0, 0.75, 0.9, 1.0):
        assert lgi_high_efficiency_witness(eta).is_feasible(eta, tol=1e-12)
        assert wlgi_high_efficiency_witness(eta).is_feasible(eta, tol=1e-12)


def test_d_only_weights_reduce_to_triple_averages():
    rng = np.random.default_rng(7)
    triple_vals = deterministic_triple_values()
    for _ in range(10):
        d = rng.uniform(0.0, 0.12, size=8)
        w = np.zeros(56)
        w[48:56] = d
        lgi_expected = sum(dv * tv[0] for dv, tv in zip(d, triple_vals)) / d.sum()
        wlgi_expected = sum(dv * tv[1] for dv, tv in zip(d, triple_vals)) / d.sum()
        assert lgi_detectors_value(w) == pytest.approx(lgi_expected, abs=1e-12)
        assert wlgi_detectors_value(w) == pytest.approx(wlgi_expected, abs=1e-12)
    uniform = np.zeros(56)
    uniform[48:56] = 1.0 / 8.0
    assert lgi_detectors_value(uniform) == pytest.approx(0.0, abs=1e-12)
    assert wlgi_detectors_value(uniform) == pytest.approx(-0.25, abs=1e-12)


def test_degenerate_configuration_raises():
    w = np.zeros(56)
    w[weight_index("q", (+1, +1, +1))] = 0.3
    with pytest.raises(DegenerateModelError):
        lgi_detectors_value(w)
    with pytest.raises(DegenerateModelError):
        wlgi_detectors_value(w)


def test_projection_is_identity_on_feasible_points():
    for witness in (
        low_efficiency_witness(0.4),
        lgi_high_efficiency_witness(0.8),
        wlgi_high_efficiency_witness(0.95),
    ):
        eta = sum(witness.detection_totals()) / 3.0
        proj = project_feasible(witness.values, eta)
        assert np.allclose(proj, witness.values, atol=1e-12)


def test_projection_output_is_feasible_and_idempotent():
    rng = np.random.default_rng(11)
    for eta in (0.3, 0.7, 1.0):
        raw = rng.uniform(-0.2, 0.6, size=(40, 56))
        proj = project_feasible(raw, eta)
        assert np.all(proj >= 0.0)
        again = project_feasible(proj, eta)
        assert np.allclose(again, proj, atol=1e-9)
        for row in proj:
            assert HVWeights(row).is_feasible(eta, tol=1e-9)


ORACLE_ETAS = (0.2, 1.0 / 3.0, 0.5, 2.0 / 3.0, 0.8, 1.0)


def _oracle_batch(rng, eta):
    """Dense, sparse, all-zero and shared-mass > eta rows, plus feasible ones."""
    dense = rng.uniform(-0.2, 0.6, size=(200, 56))
    sparse = np.where(rng.random((200, 56)) < 0.06, rng.uniform(0.0, eta, size=(200, 56)), 0.0)
    zero = np.zeros((3, 56))
    heavy = np.zeros((50, 56))
    heavy[:, 24:56] = rng.uniform(0.0, 2.0 * eta, size=(50, 32)) / 8.0
    pure_d = np.zeros((2, 56))
    pure_d[0, weight_index("d", (+1, +1, +1))] = eta
    pure_d[1, 48:56] = eta / 8.0
    feasible = project_feasible_reference(rng.uniform(0.0, 0.4, size=(20, 56)), eta)
    rows = np.concatenate([dense, sparse, zero, heavy, pure_d, feasible])
    shared = rows[:, 24:56].clip(0.0, None).reshape(-1, 4, 8).sum(axis=-1)
    per_time = shared[:, [[0, 2, 3], [0, 1, 3], [1, 2, 3]]].sum(axis=-1)
    assert np.any(per_time.max(axis=-1) > eta)
    assert not np.all(rows.any(axis=-1))
    return rows


def test_projection_matches_reference_oracle():
    rng = np.random.default_rng(2024)
    for eta in ORACLE_ETAS:
        rows = _oracle_batch(rng, eta)
        expected = project_feasible_reference(rows, eta)
        assert np.max(np.abs(project_feasible(rows, eta) - expected)) <= 1e-12
        # One row at a time, as the probe calls it, and a 3-D batch.
        for row, want in zip(rows[::17], expected[::17]):
            assert np.max(np.abs(project_feasible(row, eta) - want)) <= 1e-12
        cube, cube_want = rows[:60].reshape(3, 20, 56), expected[:60].reshape(3, 20, 56)
        assert np.max(np.abs(project_feasible(cube, eta) - cube_want)) <= 1e-12


def test_tabulated_ratio_maps_match_fraction_functions():
    rng = np.random.default_rng(5)
    feasible = project_feasible(rng.uniform(0.0, 0.5, size=(100, 56)), 0.7)
    w = np.concatenate([rng.uniform(0.0, 1.0, size=(100, 56)), feasible, np.eye(56)])
    for ratios, fractions in ((_LGI, _lgi_fractions), (_WLGI, _wlgi_fractions)):
        nums, dens = fractions(w)
        assert np.max(np.abs(w @ ratios.num - nums)) <= 1e-14
        assert np.max(np.abs(w @ ratios.den - dens)) <= 1e-14


def test_value_path_matches_reference_oracle():
    rng = np.random.default_rng(6)
    for eta in ORACLE_ETAS:
        # All-zero and q-only rows leave a measured run without photons.
        degenerate = np.zeros((4, 56))
        degenerate[1:, weight_index("q", (+1, +1, +1))] = (0.1, 0.3, eta)
        rows = np.concatenate([project_feasible(_oracle_batch(rng, eta), eta), degenerate])
        for ratios, fractions, signs in (
            (_LGI, _lgi_fractions, _LGI_SIGNS),
            (_WLGI, _wlgi_fractions, _WLGI_SIGNS),
        ):
            got = _ratio_value_batch(rows, ratios)
            want = ratio_value_reference(rows, fractions, signs)
            undefined = want == -np.inf
            assert np.any(undefined) and not np.all(undefined)
            assert np.array_equal(got == -np.inf, undefined)
            assert np.max(np.abs(got[~undefined] - want[~undefined])) <= 1e-12


def _batch_splits(n_rows):
    """Row ranges covering n_rows one at a time and in batches of 2, 5, 16 and 57."""
    for size in (1, 2, 5, 16, 57):
        yield [slice(i, i + size) for i in range(0, n_rows, size)]


def test_batching_never_changes_a_projection_or_value():
    rng = np.random.default_rng(8)
    rows = np.concatenate([_oracle_batch(rng, eta) for eta in (0.3, 0.8)])
    etas = np.repeat([0.3, 0.8], len(rows) // 2)
    order = rng.permutation(len(rows))
    rows, etas = rows[order], etas[order]
    projected = project_feasible(rows, etas)
    for i in range(0, len(rows), 37):
        assert np.array_equal(project_feasible(rows[i], etas[i]), projected[i])
    for ratios in (_LGI, _WLGI):
        values = _ratio_value_batch(projected, ratios)
        assert np.isfinite(values).any() and (values == -np.inf).any()
        for splits in _batch_splits(len(rows)):
            assert np.array_equal(
                np.concatenate([project_feasible(rows[s], etas[s]) for s in splits]), projected
            )
            assert np.array_equal(
                np.concatenate([_ratio_value_batch(projected[s], ratios) for s in splits]), values
            )


def test_projection_takes_one_eta_per_row():
    rng = np.random.default_rng(9)
    rows = rng.uniform(-0.1, 0.5, size=(4, 3, 56))
    etas = np.array([0.2, 0.5, 2.0 / 3.0])
    projected = project_feasible(rows, etas)
    for j, eta in enumerate(etas):
        assert np.array_equal(projected[:, j], project_feasible(rows[:, j], eta))
        for row in projected[:, j]:
            assert HVWeights(row).is_feasible(eta, tol=1e-9)
    with pytest.raises(ValueError, match="eta"):
        project_feasible(rows, np.array([0.5, 0.0, 0.5]))


_KINK_AT = np.array([0.3, 0.95, 0.0, 0.6, 0.25, 0.8, 0.1, 0.45, 0.7, 0.05, 0.5, 0.9])


def _kinked(x, owners):
    """A convex objective with kinks, so that Nelder-Mead shrinks."""
    d = x - _KINK_AT[: x.shape[-1]]
    return np.abs(d).sum(axis=-1) + 3.0 * np.square(d[..., :1]).sum(axis=-1)


def _scipy_nelder_mead(func, x0, maxfev):
    return optimize.minimize(
        func,
        x0,
        method="Nelder-Mead",
        bounds=[(0.0, 1.0)] * len(x0),
        options={"maxfev": maxfev, "xatol": _XATOL, "fatol": _FATOL},
    )


def _assert_matches_scipy(func, x0, maxfev):
    """(x, fun, nfev) of every lockstep start equal scipy's, bit for bit."""
    x, fun, nfev = _nelder_mead_batch(func, x0, maxfev)
    results = []
    for b, start in enumerate(x0):
        res = _scipy_nelder_mead(lambda p: float(func(p[None], np.array([b]))[0]), start, maxfev)
        assert np.array_equal(x[b], res.x)
        assert fun[b] == res.fun
        assert nfev[b] == res.nfev
        results.append(res)
    return results


def _starts(n):
    rng = np.random.default_rng(n)
    x0 = rng.uniform(0.0, 1.0, size=(4, n))
    x0[0, 0] = 1.0  # on the upper bound: the initial step is reflected
    x0[1, -1] = 0.0  # a zero entry: the initial step is absolute
    x0[2] = 0.0
    x0[3, : n // 2] = 0.98  # the 5 % step crosses the bound
    return x0


def test_lockstep_nelder_mead_matches_scipy_when_the_budget_ends_anywhere():
    n = 3
    x0 = _starts(n)
    cut_in_shrink = converged = 0
    for maxfev in range(1, 140):
        for res in _assert_matches_scipy(_kinked, x0, maxfev):
            sim, fsim = res.final_simplex
            # A shrink cut short leaves a moved vertex with its old value.
            cut_in_shrink += np.any(_kinked(sim, None) != fsim)
            converged += res.nfev < maxfev
    assert cut_in_shrink
    assert not converged  # the budgets above end every search


@pytest.mark.parametrize("n", [3, 12])
def test_lockstep_nelder_mead_matches_scipy_to_convergence(n):
    results = _assert_matches_scipy(_kinked, _starts(n), 4000)
    assert any(res.nfev < 4000 for res in results)


def test_lockstep_nelder_mead_matches_scipy_on_the_probe():
    # The probe's objective at two efficiencies and both ratio maps in one batch.
    etas = np.array([0.5, 0.8, 0.5, 0.8])
    lgi = np.array([True, True, False, False])
    x0 = np.array([low_efficiency_witness(0.5).values, lgi_high_efficiency_witness(0.8).values,
                   np.full(56, 0.01), wlgi_high_efficiency_witness(0.8).values])

    def objective(x, owners):
        w = project_feasible(x, etas[owners])
        out = np.empty(len(x))
        for mask, ratios in ((lgi[owners], _LGI), (~lgi[owners], _WLGI)):
            out[mask] = -_ratio_value_batch(w[mask], ratios)
        return out

    results = _assert_matches_scipy(objective, x0, 400)
    assert all(res.nfev == 400 for res in results)


def test_detector_certificates_equal_one_call_per_certificate():
    batch = detector_certificates([0.5, 0.8], ["LGI", "WLGI"], n_starts=1, seed=4)
    single = [
        maximize(eta, n_starts=1, seed=4)
        for eta in (0.5, 0.8)
        for maximize in (maximize_lgi_detectors, maximize_wlgi_detectors)
    ]
    assert len(batch) == len(single) == 4
    assert sum(len(cert.findings) for cert in batch) >= 2
    for got, want in zip(batch, single):
        assert (got.eta, got.bound, got.formula_value) == (want.eta, want.bound, want.formula_value)
        assert np.array_equal(got.witness.values, want.witness.values)
        assert len(got.findings) == len(want.findings)
        for a, b in zip(got.findings, want.findings):
            assert a.value == b.value
            assert np.array_equal(a.weights.values, b.weights.values)


def test_detector_certificates_reject_bad_input():
    with pytest.raises(ValueError, match="inequality"):
        detector_certificates([0.5], ["NSIT"], n_starts=0)
    with pytest.raises(ValueError, match="eta"):
        detector_certificates([0.5, 1.5], ["LGI"], n_starts=0)
    with pytest.raises(ValueError, match="n_starts"):
        detector_certificates([0.5], ["WLGI"], n_starts=-1)
    assert detector_certificates([], ["LGI"]) == []


def test_maximize_lgi_matches_formula():
    for eta in (0.3, 0.55, 0.7, 0.85, 1.0):
        cert = maximize_lgi_detectors(eta, n_starts=4, seed=1)
        assert abs(cert.bound - cert.formula_value) <= 1e-4
        assert cert.formula_value == pytest.approx(lgi_detectors_bound_formula(eta), abs=0)
        assert cert.witness.is_feasible(eta, tol=1e-9)


def test_maximize_wlgi_matches_formula():
    for eta in (0.3, 0.55, 0.7, 0.85, 1.0):
        cert = maximize_wlgi_detectors(eta, n_starts=4, seed=1)
        assert abs(cert.bound - cert.formula_value) <= 1e-4
        assert cert.formula_value == pytest.approx(wlgi_detectors_bound_formula(eta), abs=0)
        assert cert.witness.is_feasible(eta, tol=1e-9)


def test_probe_excess_reported_as_finding():
    # At low efficiency the probe locates assignments whose correlator
    # combination exceeds the certified bound; they must be surfaced as
    # findings, not adopted as the bound.
    cert = maximize_lgi_detectors(0.3, n_starts=4, seed=1)
    assert cert.bound == pytest.approx(8.0 / 3.0, abs=1e-9)
    assert cert.findings
    for finding in cert.findings:
        assert finding.value > cert.bound + 1e-4
        assert finding.weights.is_feasible(0.3, tol=1e-9)
        assert lgi_detectors_value(finding.weights) == pytest.approx(
            finding.value, abs=1e-9
        )


def test_bounds_non_increasing_at_high_efficiency():
    etas = (0.7, 0.8, 0.9, 1.0)
    lgi = [maximize_lgi_detectors(e, n_starts=2, seed=2).bound for e in etas]
    wlgi = [maximize_wlgi_detectors(e, n_starts=2, seed=2).bound for e in etas]
    assert all(b <= a + 1e-6 for a, b in zip(lgi, lgi[1:]))
    assert all(b <= a + 1e-6 for a, b in zip(wlgi, wlgi[1:]))


def test_optimizer_matches_exhaustive_grid_on_small_supports():
    support_a = [
        weight_index("a", (-1, -1, +1)),
        weight_index("b", (-1, +1, +1)),
        weight_index("c", (+1, +1, +1)),
    ]
    support_b = [
        weight_index("d", (+1, +1, +1)),
        weight_index("a", (+1, +1, +1)),
        weight_index("s", (+1, -1, +1)),
    ]
    for support, eta in ((support_a, 0.5), (support_b, 0.8)):
        oracle = grid_search_bound(_lgi_batch, project_feasible, support, eta)
        cert = maximize_lgi_detectors(eta, n_starts=6, seed=3, support=support)
        assert cert.bound == pytest.approx(oracle, abs=2e-2)
        oracle = grid_search_bound(_wlgi_batch, project_feasible, support, eta)
        cert = maximize_wlgi_detectors(eta, n_starts=6, seed=3, support=support)
        assert cert.bound == pytest.approx(oracle, abs=2e-2)


def test_critical_efficiency_roots():
    lgi_root = critical_efficiency("LGI")
    analytic = (-1.5 + math.sqrt(1.5**2 + 8.0)) / 2.0
    assert lgi_root == pytest.approx(analytic, abs=2e-6)
    assert lgi_root == pytest.approx(0.8508, abs=1e-3)
    assert abs(2.0 / lgi_root - lgi_root - 1.5) < 1e-5

    wlgi_root = critical_efficiency("WLGI")
    analytic = 1.4034 / 1.8068
    assert wlgi_root == pytest.approx(analytic, abs=2e-6)
    assert abs((1.0 - wlgi_root) / (2.0 * wlgi_root - 1.0) - 0.4034) < 1e-5


def test_blocker_setup_bound_constant_in_eta():
    for eta in (0.01, 0.5, 1.0):
        lgi = blocker_setup_bound("LGI", eta)
        assert lgi.bound == 1.0
        assert lgi.formula_value == 1.0
        assert lgi.witness.is_feasible(eta, tol=1e-12)
        wlgi = blocker_setup_bound("WLGI", eta)
        assert wlgi.bound == 0.0
        assert wlgi.formula_value == 0.0
        assert wlgi.witness.is_feasible(eta, tol=1e-12)


def test_deterministic_triples_through_the_protocol_tables():
    # A photon on a fixed path, run through the protocol's survival rule and
    # tables, gives its triple's values and signals nothing in time.
    for triple, expected in zip(TRIPLES, deterministic_triple_values()):
        values = evaluate(joint_tables(path_cells(dict.fromkeys(ARM_LABELS, (triple,)))))
        assert (values.lgi, values.wlgi) == expected, triple
        assert (values.nsit12, values.nsit23, values.nsit13) == (0.0, 0.0, 0.0), triple


def test_triple_order_and_weight_index():
    assert TRIPLES[0] == (+1, +1, +1)
    assert TRIPLES[7] == (-1, -1, -1)
    assert weight_index("q", (+1, +1, +1)) == 0
    assert weight_index("d", (-1, -1, -1)) == 55


def test_invalid_inputs_raise():
    with pytest.raises(ValueError):
        maximize_lgi_detectors(0.0)
    with pytest.raises(ValueError):
        maximize_wlgi_detectors(1.2)
    with pytest.raises(ValueError, match="n_starts"):
        maximize_lgi_detectors(0.5, n_starts=-1)
    with pytest.raises(ValueError, match="n_starts"):
        maximize_wlgi_detectors(0.5, n_starts=-3)
    with pytest.raises(ValueError):
        critical_efficiency("NSIT")
    with pytest.raises(ValueError):
        blocker_setup_bound("other", 0.5)
    with pytest.raises(ValueError):
        HVWeights(np.full(56, -0.1))
    with pytest.raises(ValueError):
        HVWeights(np.zeros(55))
    with pytest.raises(ValueError):
        weight_index("z", (+1, +1, +1))
    with pytest.raises(ValueError):
        lgi_high_efficiency_witness(0.5)
    with pytest.raises(ValueError):
        lgi_detectors_value(np.zeros(12))
