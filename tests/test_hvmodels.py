import contextlib
import itertools
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
    _LGI,
    _LGI_SIGNS,
    _WLGI,
    _WLGI_SIGNS,
    _affine_bases,
    _group_rows,
    _lgi_fractions,
    _vertex_columns,
    _vertices,
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


def test_wlgi_ratios_share_the_correlator_run_totals():
    # Each (-,+) ratio is conditioned on the run of one correlator ratio.
    assert np.array_equal(_WLGI.den, _LGI.den[:, [5, 1, 3]])


def test_every_numerator_coefficient_is_bounded_by_its_denominator():
    # The vertex scan's edge limits rest on this: a vanishing denominator
    # forces a vanishing numerator.
    for ratios in (_LGI, _WLGI):
        assert np.all(np.abs(ratios.num) <= ratios.den)


def test_value_path_matches_reference_oracle():
    rng = np.random.default_rng(6)
    for eta in ORACLE_ETAS:
        # All-zero and q-only rows leave a measured run without photons.
        degenerate = np.zeros((4, 56))
        degenerate[1:, weight_index("q", (+1, +1, +1))] = (0.1, 0.3, eta)
        rows = np.concatenate([project_feasible(_oracle_batch(rng, eta), eta), degenerate])
        for value, fractions, signs in (
            (lgi_detectors_value, _lgi_fractions, _LGI_SIGNS),
            (wlgi_detectors_value, _wlgi_fractions, _WLGI_SIGNS),
        ):
            want = ratio_value_reference(rows, fractions, signs)
            undefined = want == -np.inf
            assert np.any(undefined) and not np.all(undefined)
            for row, expected in zip(rows, want):
                if expected == -np.inf:
                    with pytest.raises(DegenerateModelError):
                        value(row)
                else:
                    assert abs(value(row) - expected) <= 1e-12


def _batch_splits(n_rows):
    """Row ranges covering n_rows one at a time and in batches of 2, 5, 16 and 57."""
    for size in (1, 2, 5, 16, 57):
        yield [slice(i, i + size) for i in range(0, n_rows, size)]


def test_batching_never_changes_a_projection():
    rng = np.random.default_rng(8)
    for eta in (0.3, 0.8):
        rows = _oracle_batch(rng, eta)
        projected = project_feasible(rows, eta)
        for i in range(0, len(rows), 37):
            assert np.array_equal(project_feasible(rows[i], eta), projected[i])
        for splits in _batch_splits(len(rows)):
            assert np.array_equal(
                np.concatenate([project_feasible(rows[s], eta) for s in splits]), projected
            )


def test_maximize_lgi_matches_formula():
    for eta in (0.3, 0.55, 0.7, 0.85, 1.0):
        cert = maximize_lgi_detectors(eta)
        assert abs(cert.bound - cert.formula_value) <= 1e-4
        assert cert.formula_value == pytest.approx(lgi_detectors_bound_formula(eta), abs=0)
        assert cert.witness.is_feasible(eta, tol=1e-9)


def test_maximize_wlgi_matches_formula():
    for eta in (0.3, 0.55, 0.7, 0.85, 1.0):
        cert = maximize_wlgi_detectors(eta)
        assert abs(cert.bound - cert.formula_value) <= 1e-4
        assert cert.formula_value == pytest.approx(wlgi_detectors_bound_formula(eta), abs=0)
        assert cert.witness.is_feasible(eta, tol=1e-9)


def test_probe_excess_reported_as_finding():
    # At low efficiency the vertex scan locates assignments whose correlator
    # combination exceeds the certified bound; they must be surfaced as
    # findings, not adopted as the bound.
    cert = maximize_lgi_detectors(0.3)
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
    lgi = [maximize_lgi_detectors(e).bound for e in etas]
    wlgi = [maximize_wlgi_detectors(e).bound for e in etas]
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
        cert = maximize_lgi_detectors(eta, support=support)
        assert cert.bound == pytest.approx(oracle, abs=2e-2)
        oracle = grid_search_bound(_wlgi_batch, project_feasible, support, eta)
        cert = maximize_wlgi_detectors(eta, support=support)
        assert cert.bound == pytest.approx(oracle, abs=2e-2)


def _scan_maximum(cert):
    return max([cert.bound] + [finding.value for finding in cert.findings])


@pytest.mark.parametrize(
    "eta, lgi, wlgi",
    [(0.5, 4.0, 1.0), (0.6, 3.5, 1.0), (0.7, 2.8, 0.75), (0.9, 1.4111, 0.2), (0.95, 1.2026, 0.1)],
)
def test_scan_reaches_the_branch_and_bound_maxima(eta, lgi, wlgi):
    # Where an outcome-space branch and bound over the same ratio model
    # closed its gap, it certified these maxima (to 1e-3 for LGI, 1e-4 for
    # WLGI); the vertex scan reaches every one.
    assert _scan_maximum(maximize_lgi_detectors(eta)) == pytest.approx(lgi, abs=1e-4)
    assert _scan_maximum(maximize_wlgi_detectors(eta)) == pytest.approx(wlgi, abs=1e-4)


# Rows T1, T2, T3 of the detection totals: 1 where that time detects the
# weight's class, written out independently of hvmodels.
_DETECTION_ROWS = np.repeat(
    [[float(name in times) for name in "qpsabcd"] for times in ("qacd", "pabd", "sbcd")], 8, axis=1
)


def _polytope_vertex(c, eta):
    """A simplex-method vertex maximizing c . w over the feasible weights."""
    res = optimize.linprog(
        -c, A_ub=np.ones((1, 56)), b_ub=[1.0], A_eq=_DETECTION_ROWS, b_eq=[eta] * 3,
        bounds=(0.0, None), method="highs-ds",
    )
    assert res.status == 0
    return res.x, -res.fun


def test_linear_programs_end_on_scanned_vertices():
    # Each LP optimum sits at a vertex of the feasible polytope, so it must
    # be one of the scanned vertices, and the best scanned vertex must reach
    # the same linear optimum.
    rng = np.random.default_rng(12)
    for eta in (0.3, 0.5, 0.8, 0.95):
        cols, weights = _vertices(eta, range(56))
        dense = np.zeros((len(cols), 56))
        np.add.at(dense, (np.arange(len(cols))[:, None], cols), weights)
        maxima = {
            value: _scan_maximum(maximize(eta))
            for value, maximize in ((lgi_detectors_value, maximize_lgi_detectors),
                                    (wlgi_detectors_value, maximize_wlgi_detectors))
        }
        for _ in range(8):
            c = rng.normal(size=56)
            x, optimum = _polytope_vertex(c, eta)
            assert np.max(dense @ c) == pytest.approx(optimum, abs=1e-9)
            assert np.min(np.max(np.abs(dense - x), axis=1)) <= 1e-9
            for value, maximum in maxima.items():
                with contextlib.suppress(DegenerateModelError):
                    assert value(x) <= maximum + 1e-9


def test_cached_bases_solve_the_constraints_at_every_eta():
    # Each cached basis solves T1 = T2 = T3 = eta, sum(w) + slack = 1 on its
    # four columns for any eta, and no nonsingular basis is left out.
    columns = np.vstack([_DETECTION_ROWS[:, ::8], np.ones((1, 7))])
    columns = np.hstack([columns, [[0.0], [0.0], [0.0], [1.0]]])
    bases, x1, x0 = _affine_bases()
    nonsingular = [
        b for b in itertools.combinations(range(8), 4) if abs(np.linalg.det(columns[:, b])) > 0.5
    ]
    assert [tuple(b) for b in bases] == nonsingular
    for eta in (0.05, 0.3, 2.0 / 3.0, 0.95, 1.0):
        rhs = np.array([eta, eta, eta, 1.0])
        for basis, x in zip(bases, eta * x1 + x0):
            assert np.max(np.abs(columns[:, basis] @ x - rhs)) <= 1e-12


@pytest.mark.parametrize("k", [1, 2, 3, 6, 10])
def test_grouped_rows_match_unique_along_rows(k):
    # The scan groups its undefined-ratio masks by integer code; masks,
    # their order and the inverse must be those of np.unique(axis=0).
    rng = np.random.default_rng(k)
    for n_rows, p_true in ((1, 0.5), (7, 0.1), (200, 0.5), (200, 0.9)):
        rows = rng.random((n_rows, k)) < p_true
        rows[0] = False
        if n_rows > 2:
            rows[1] = True
            rows[-1] = rows[n_rows // 2]
        masks, group = _group_rows(rows)
        want_masks, want_group = np.unique(rows, axis=0, return_inverse=True)
        assert masks.dtype == bool
        assert np.array_equal(masks, want_masks)
        assert np.array_equal(group, want_group.reshape(-1))


def test_vertices_do_not_depend_on_earlier_calls():
    # The column choices are cached per (class subsets, columns); after
    # calls at other efficiencies, each eta must get the vertices that a
    # cold cache gives it.
    etas = (0.3, 0.5, 2.0 / 3.0, 0.8, 0.95)
    for columns in (range(56), [0, 1, 9, 17, 30, 41, 50, 55]):
        cold = {}
        for eta in etas:
            _vertex_columns.cache_clear()
            cold[eta] = _vertices(eta, columns)
        for eta in etas[::-1] + etas:
            cols, weights = _vertices(eta, columns)
            assert np.array_equal(cols, cold[eta][0])
            assert np.array_equal(weights, cold[eta][1])
            assert not cols.flags.writeable


def test_every_finding_is_feasible_and_carries_its_own_value():
    etas = [round(float(x), 6) for x in np.linspace(0.05, 1.0, 20)]
    n_findings = 0
    for eta in etas:
        for maximize, value in ((maximize_lgi_detectors, lgi_detectors_value),
                                (maximize_wlgi_detectors, wlgi_detectors_value)):
            cert = maximize(eta)
            n_findings += len(cert.findings)
            for finding in cert.findings:
                assert finding.weights.is_feasible(cert.eta, 1e-9)
                assert value(finding.weights) == finding.value
                assert finding.value > cert.bound + 1e-6
    assert n_findings >= 20


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
    with pytest.raises(ValueError, match="support"):
        maximize_lgi_detectors(0.5, support=[3, 56])
    with pytest.raises(ValueError, match="eta"):
        project_feasible(np.zeros((2, 56)), 1.5)
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
