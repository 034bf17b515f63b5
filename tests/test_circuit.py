import itertools
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import macroreal
from macroreal.circuit import (
    IDEAL_PARAMS,
    NOMINAL_PARAMS,
    SetupParams,
    Tolerances,
    arm_branch_weights,
    detection_probs,
    generic_lgi,
    generic_wlgi,
    ideal_maxima,
    joint_probs,
    qm_lgi,
    qm_nsit,
    qm_range,
    qm_wlgi,
    raw_weights,
)
from macroreal.circuit import _qm_ranges
from macroreal.protocol import RUN_CONFIGS, BlockerConfig, UndefinedProbabilityError, correlation

from oracles import (
    lgi_closed_form,
    nsit23_closed_form,
    qm_range_grid,
    run_total_closed_form,
    sampled_maximum,
    transfer_matrix_probs,
    wlgi_closed_form,
)

ALL_CONFIGS = [cfg for run in RUN_CONFIGS.values() for cfg in run]

params_st = st.builds(
    SetupParams,
    alpha_sq=st.floats(0.05, 0.95),
    t_ratios=st.tuples(
        st.floats(0.05, 0.95),
        st.floats(0.05, 0.95),
        st.floats(0.05, 0.95),
        st.floats(0.05, 0.95),
    ),
    visibility=st.floats(-1.0, 1.0),
)


@given(params=params_st)
@settings(max_examples=50, deadline=None)
def test_detection_probs_sum_to_one(params):
    for cfg in ALL_CONFIGS:
        p = detection_probs(params, cfg)
        assert abs(p.p_plus + p.p_minus + p.p_lost - 1.0) < 1e-12
        for x in p:
            assert -1e-12 <= x <= 1.0 + 1e-12


@given(params=params_st)
@settings(max_examples=50, deadline=None)
def test_detection_probs_match_transfer_matrix_oracle(params):
    for cfg in ALL_CONFIGS:
        got = detection_probs(params, cfg)
        want = transfer_matrix_probs(params, cfg)
        assert got.p_plus == pytest.approx(want[0], abs=1e-12)
        assert got.p_minus == pytest.approx(want[1], abs=1e-12)
        assert got.p_lost == pytest.approx(want[2], abs=1e-12)


def test_blocked_arm_is_fully_lost():
    w = arm_branch_weights(NOMINAL_PARAMS, BlockerConfig("plus", "none"), +1)
    assert w == (0.0, 0.0, 1.0)
    w = arm_branch_weights(NOMINAL_PARAMS, BlockerConfig("minus", "plus"), -1)
    assert w == (0.0, 0.0, 1.0)


def test_inner_blocker_plus_ratio_is_t2():
    # With the inner -1 arm blocked, the photon reaches the +1 detector by
    # transmission at port 2, so the detected-plus ratio equals T2.
    p = detection_probs(IDEAL_PARAMS, BlockerConfig("minus", "minus"))
    assert p.p_plus / (p.p_plus + p.p_minus) == pytest.approx(0.75, abs=1e-12)


@given(params=params_st)
@settings(max_examples=50, deadline=None)
def test_detected_weights_conserve_in_blocked_runs(params):
    # Every photon is detected in exactly one sub-run of runs 1 and 3.
    for run in (1, 3):
        detected = sum(
            raw_weights(params, cfg).w_plus + raw_weights(params, cfg).w_minus
            for cfg in RUN_CONFIGS[run]
        )
        assert detected == pytest.approx(1.0, abs=1e-12)


@given(params=params_st)
@settings(max_examples=50, deadline=None)
def test_interference_run_total_matches_closed_form(params):
    d = run_total_closed_form(params)
    for run in (2, 4):
        detected = sum(
            raw_weights(params, cfg).w_plus + raw_weights(params, cfg).w_minus
            for cfg in RUN_CONFIGS[run]
        )
        assert detected == pytest.approx(d, abs=1e-12)


def test_interference_run_total_is_unity_without_interference():
    params = SetupParams(0.37, (0.8, 0.71, 0.66, 0.9), visibility=0.0)
    assert run_total_closed_form(params) == pytest.approx(1.0, abs=1e-15)
    detected = sum(
        raw_weights(params, cfg).w_plus + raw_weights(params, cfg).w_minus
        for cfg in RUN_CONFIGS[2]
    )
    assert detected == pytest.approx(1.0, abs=1e-12)


def test_fully_destructive_configuration_raises():
    params = SetupParams(1.0, (0.5, 0.0, 1.0, 0.5), visibility=-1.0)
    with pytest.raises(UndefinedProbabilityError):
        joint_probs(params)
    with pytest.raises(UndefinedProbabilityError):
        detection_probs(params, BlockerConfig("none", "none"))


def test_tables_are_normalized_and_complete():
    tables = joint_probs(NOMINAL_PARAMS)
    assert set(tables) == {("t3",), ("t2", "t3"), ("t1", "t3"), ("t1", "t2"), ("t1", "t2", "t3")}
    for key, table in tables.items():
        n = len(key)
        assert set(table.entries) == set(itertools.product((+1, -1), repeat=n))
        assert table.total() == pytest.approx(1.0, abs=1e-12)
        assert all(p >= 0.0 for p in table.entries.values())


def test_marginalized_table_matches_direct_sums_exactly():
    three = joint_probs(NOMINAL_PARAMS)[("t1", "t2", "t3")]
    two = three.marginalize_last()
    for key in itertools.product((+1, -1), repeat=2):
        assert two.entries[key] == three.entries[key + (+1,)] + three.entries[key + (-1,)]
    assert two.total() == pytest.approx(three.total(), abs=1e-15)


@given(params=params_st)
@settings(max_examples=30, deadline=None)
def test_inequality_values_consistent_with_tables(params):
    tables = joint_probs(params)
    p12, p23, p13 = tables[("t1", "t2")], tables[("t2", "t3")], tables[("t1", "t3")]
    p3 = tables[("t3",)]
    lgi = correlation(p12) + correlation(p23) - correlation(p13)
    assert qm_lgi(params) == pytest.approx(lgi, abs=1e-9)
    wlgi = p13.entries[(-1, +1)] - p12.entries[(-1, +1)] - p23.entries[(-1, +1)]
    assert qm_wlgi(params) == pytest.approx(wlgi, abs=1e-9)
    nsit = qm_nsit(params)
    nsit23 = abs(p3.entries[(+1,)] - p23.entries[(+1, +1)] - p23.entries[(-1, +1)])
    assert nsit.nsit23 == pytest.approx(nsit23, abs=1e-9)


def test_ideal_circuit_reaches_textbook_values():
    assert qm_lgi(IDEAL_PARAMS) == pytest.approx(1.5, abs=1e-12)
    assert qm_wlgi(IDEAL_PARAMS) == pytest.approx(0.125, abs=1e-12)
    nsit = qm_nsit(IDEAL_PARAMS)
    assert max(abs(x) for x in nsit) < 1e-12


def test_nominal_circuit_values():
    assert qm_lgi(NOMINAL_PARAMS) == pytest.approx(1.47, abs=0.005)
    assert qm_wlgi(NOMINAL_PARAMS) == pytest.approx(0.11, abs=0.005)
    nsit = qm_nsit(NOMINAL_PARAMS)
    assert nsit.nsit23 == pytest.approx(0.006, abs=0.005)
    assert nsit.nsit12 < 1e-12
    assert nsit.nsit13 < 1e-12


@given(params=params_st)
@settings(max_examples=50, deadline=None)
def test_nsit12_and_nsit13_vanish_identically(params):
    nsit = qm_nsit(params)
    assert nsit.nsit12 < 1e-9
    assert nsit.nsit13 < 1e-9


def test_free_run_plus_marginal_gap_at_nominal():
    # The inner-blocker run and the free run disagree about P(q3=+1) by
    # about 0.006 at the nominal port ratios.
    p_plus = detection_probs(NOMINAL_PARAMS, BlockerConfig("none", "none")).p_plus
    p23 = joint_probs(NOMINAL_PARAMS)[("t2", "t3")].entries
    gap = abs(p_plus - (p23[(+1, +1)] + p23[(-1, +1)]))
    assert gap == pytest.approx(0.006, abs=5e-4)


def test_closed_forms_match_assembly_when_total_is_unity():
    # T2 == T3 makes the interference-run total exactly one, where the
    # unit-total closed forms coincide with the normalized assembly.
    for params in (
        SetupParams(0.42, (0.8, 0.77, 0.77, 0.6), visibility=0.9),
        SetupParams(0.61, (0.55, 0.7, 0.9, 0.85), visibility=0.0),
    ):
        assert run_total_closed_form(params) == pytest.approx(1.0, abs=1e-12)
        assert qm_lgi(params) == pytest.approx(lgi_closed_form(params), abs=1e-12)
        assert qm_wlgi(params) == pytest.approx(wlgi_closed_form(params), abs=1e-12)
        assert qm_nsit(params).nsit23 == pytest.approx(
            nsit23_closed_form(params), abs=1e-12
        )


def test_closed_forms_near_assembly_at_nominal():
    assert lgi_closed_form(NOMINAL_PARAMS) == pytest.approx(qm_lgi(NOMINAL_PARAMS), abs=5e-3)
    assert wlgi_closed_form(NOMINAL_PARAMS) == pytest.approx(qm_wlgi(NOMINAL_PARAMS), abs=5e-3)
    assert nsit23_closed_form(NOMINAL_PARAMS) == pytest.approx(
        qm_nsit(NOMINAL_PARAMS).nsit23, abs=5e-3
    )


def test_closed_forms_affine_in_visibility():
    base = SetupParams(0.44, (0.82, 0.7, 0.76, 0.88))
    for fn in (lgi_closed_form, wlgi_closed_form):
        vals = [
            fn(SetupParams(base.alpha_sq, base.t_ratios, visibility=v))
            for v in (-0.8, 0.05, 0.9)
        ]
        # Three collinear points: the middle value interpolates the ends.
        lam = (0.05 - (-0.8)) / (0.9 - (-0.8))
        assert vals[1] == pytest.approx((1 - lam) * vals[0] + lam * vals[2], abs=1e-12)


def test_assembled_values_monotone_in_visibility_at_nominal():
    vs = np.linspace(0.0, 1.0, 9)
    lgis = [
        qm_lgi(SetupParams(0.5, NOMINAL_PARAMS.t_ratios, visibility=v)) for v in vs
    ]
    wlgis = [
        qm_wlgi(SetupParams(0.5, NOMINAL_PARAMS.t_ratios, visibility=v)) for v in vs
    ]
    assert all(b > a for a, b in zip(lgis, lgis[1:]))
    assert all(b > a for a, b in zip(wlgis, wlgis[1:]))


def test_qm_range_degenerate_box_recovers_point_values():
    tol = Tolerances(hwp_angle_deg=0.0, t_delta=0.0, v_range=None, grid_points=1)
    ranges = qm_range(NOMINAL_PARAMS, tol)
    assert ranges["lgi"][0] == pytest.approx(qm_lgi(NOMINAL_PARAMS), abs=1e-12)
    assert ranges["lgi"][1] == pytest.approx(qm_lgi(NOMINAL_PARAMS), abs=1e-12)
    assert ranges["wlgi"][0] == pytest.approx(qm_wlgi(NOMINAL_PARAMS), abs=1e-12)
    assert ranges["nsit23"][1] == pytest.approx(qm_nsit(NOMINAL_PARAMS).nsit23, abs=1e-12)


@pytest.mark.parametrize("value", [math.nan, math.inf, -1.0], ids=["nan", "inf", "negative"])
@pytest.mark.parametrize("field", ["hwp_angle_deg", "t_delta"])
def test_tolerances_reject_widths_that_are_not_finite_and_nonnegative(field, value):
    with pytest.raises(ValueError, match=rf"^{field} must be finite and >= 0"):
        Tolerances(**{field: value})


def test_qm_range_contains_nominal_point():
    ranges = qm_range(NOMINAL_PARAMS, Tolerances(grid_points=5))
    assert ranges["lgi"][0] <= qm_lgi(NOMINAL_PARAMS) <= ranges["lgi"][1]
    assert ranges["wlgi"][0] <= qm_wlgi(NOMINAL_PARAMS) <= ranges["wlgi"][1]
    nsit23 = qm_nsit(NOMINAL_PARAMS).nsit23
    assert ranges["nsit23"][0] <= nsit23 <= ranges["nsit23"][1]


def test_qm_range_nested_boxes_nest_intervals():
    small = qm_range(NOMINAL_PARAMS, Tolerances(hwp_angle_deg=0.5, t_delta=0.01, grid_points=5))
    large = qm_range(NOMINAL_PARAMS, Tolerances(hwp_angle_deg=1.0, t_delta=0.02, grid_points=5))
    for name in ("lgi", "wlgi", "nsit23"):
        assert large[name][0] <= small[name][0] + 1e-12
        assert small[name][1] <= large[name][1] + 1e-12


@pytest.mark.parametrize("v_range", [None, (0.7, 0.85)], ids=["v-fixed", "v-swept"])
@pytest.mark.parametrize("n", [1, 2, 3, 5, 11, 15])
def test_qm_range_equals_grid_oracle_on_nominal_boxes(n, v_range):
    if n == 1:
        # One point per axis samples only a box of zero width.
        tol = Tolerances(0.0, 0.0, None if v_range is None else (0.7, 0.7), grid_points=1)
    else:
        tol = Tolerances(v_range=v_range, grid_points=n)
    assert qm_range(NOMINAL_PARAMS, tol) == qm_range_grid(NOMINAL_PARAMS, tol)


# d = 1 - v at alpha_sq = 1: undefined at v = 1.
UNDEFINED_AT_V1 = SetupParams(alpha_sq=1.0, t_ratios=(0.5, 1.0, 0.0, 0.5), visibility=1.0)


unit_st = st.floats(0.0, 1.0)


@st.composite
def v_ranges(draw):
    lo = draw(st.floats(-1.0, 1.0))
    return draw(st.sampled_from([None, (lo, lo), (lo, draw(st.floats(lo, 1.0)))]))


@given(
    params=st.builds(
        SetupParams,
        alpha_sq=unit_st,
        t_ratios=st.tuples(unit_st, unit_st, unit_st, unit_st),
        visibility=st.floats(-1.0, 1.0),
    ),
    hwp=st.one_of(st.just(0.0), st.floats(0.0, 5.0)),
    t_delta=st.one_of(st.just(0.0), st.floats(0.0, 0.3)),
    v_range=v_ranges(),
    n=st.integers(2, 7),
)
@example(SetupParams(0.3, (0.02, 0.99, 0.5, 1.0), -0.4), 0.0, 0.05, (-0.6, -0.6), 5)
@example(SetupParams(0.8, (0.0, 0.97, 0.03, 0.6), 0.2), 2.0, 0.1, (-0.9, -0.2), 6)
# An ulp-wide t box around the ideal circuit, where rounding lifts an interior
# v of a point extreme at neither v end point above every end-point value.
@example(IDEAL_PARAMS, 0.0, 1e-16, (-0.9, -0.6), 7)
# d_min = 1e-12 at the box centre, and d_min = eps, within its own rounding error.
@example(UNDEFINED_AT_V1, 1.0, 0.01, (0.9, 1.0 - 1e-12), 7)
@example(UNDEFINED_AT_V1, 1.0, 0.0, (0.9, 1.0 - np.finfo(float).eps), 7)
# P3(+) - marginal changes sign between the v end points at a point whose end
# values are near no extreme: nsit23's minimum, 0.00346, sits at an interior v.
@example(SetupParams(0.65, (0.76, 0.35, 0.45, 0.11), -0.27), 0.0, 0.05, (-0.5, 0.56), 5)
@settings(max_examples=150, deadline=None)
def test_qm_range_equals_grid_oracle_on_drawn_boxes(params, hwp, t_delta, v_range, n):
    tol = Tolerances(hwp, t_delta, v_range, n)
    try:
        got = qm_range(params, tol)
    except UndefinedProbabilityError:
        assume(False)
    assert got == qm_range_grid(params, tol)


def test_qm_range_keeps_interior_visibility_extremes_lifted_by_rounding():
    # In the ideal circuit P3(+) is 1/2 for every v, so nsit23 is rounding
    # noise: an interior v beats both end points by one ulp.
    tol = Tolerances(0.0, 0.0, (0.3, 0.9), grid_points=21)
    ends = qm_range_grid(IDEAL_PARAMS, Tolerances(0.0, 0.0, (0.3, 0.9), grid_points=2))
    full = qm_range_grid(IDEAL_PARAMS, tol)
    assert full["nsit23"][1] > ends["nsit23"][1]
    assert qm_range(IDEAL_PARAMS, tol) == full


@pytest.mark.parametrize("t_delta", [0.0, 0.01])
def test_qm_range_raises_where_every_slice_is_undefined(t_delta):
    with pytest.raises(UndefinedProbabilityError) as err:
        qm_range(UNDEFINED_AT_V1, Tolerances(hwp_angle_deg=0.0, t_delta=t_delta))
    assert "alpha_sq=1.0, v=1.0" in str(err.value)
    with pytest.raises(UndefinedProbabilityError):
        qm_lgi(UNDEFINED_AT_V1)


def test_qm_range_raises_where_one_alpha_slice_is_undefined():
    # alpha_sq = 1 only at the centre of the +/-1 degree box.
    tol = Tolerances(hwp_angle_deg=1.0, t_delta=0.0, grid_points=5)
    with np.errstate(invalid="ignore"):
        dropped = qm_range_grid(UNDEFINED_AT_V1, tol)
    assert all(math.isfinite(x) for span in dropped.values() for x in span)
    with pytest.raises(UndefinedProbabilityError, match=r"alpha_sq=1\.0, v=1\.0"):
        qm_range(UNDEFINED_AT_V1, tol)


@pytest.mark.parametrize("n", [3, 11])
def test_one_pass_ranges_equal_separate_sweeps(n):
    fixed = Tolerances(grid_points=n)
    swept = Tolerances(v_range=(0.7, 0.85), grid_points=n)
    assert _qm_ranges(NOMINAL_PARAMS, [fixed, swept]) == [
        qm_range_grid(NOMINAL_PARAMS, fixed),
        qm_range_grid(NOMINAL_PARAMS, swept),
    ]
    with pytest.raises(ValueError, match="may differ only in v_range"):
        _qm_ranges(NOMINAL_PARAMS, [fixed, Tolerances(grid_points=n + 1)])


def test_one_pass_ranges_name_the_undefined_point_of_the_first_box():
    # At alpha_sq = 1 and t1 = 1/2 the detected weight vanishes at v = 1
    # where (t2, t3) = (1, 0), and at v = -1 where (t2, t3) = (0, 1).  At 21
    # points these fall in different chunks, the v = -1 one first; one pass
    # over both boxes must name the point that separate sweeps name first.
    params = SetupParams(1.0, (0.5, 0.5, 0.5, 0.5), 1.0)
    fixed = Tolerances(0.0, 0.5, None, 21)
    swept = Tolerances(0.0, 0.5, (-1.0, 0.5), 21)
    messages = []
    for tols in ([fixed], [swept], [fixed, swept], [swept, fixed]):
        with pytest.raises(UndefinedProbabilityError) as err:
            _qm_ranges(params, tols)
        messages.append(str(err.value))
    assert "v=1.0, t_ratios=(0.5, 1.0, 0.0" in messages[0]
    assert "v=-1.0, t_ratios=(0.5, 0.0, 1.0" in messages[1]
    assert messages[2:] == messages[:2]


def test_generic_circuit_formulas():
    assert generic_lgi(0.0, 0.75, 0.75) == pytest.approx(1.5, abs=1e-15)
    assert generic_lgi(math.pi / 2, 0.5, 0.5) == pytest.approx(0.0, abs=1e-15)
    assert generic_wlgi(math.pi, 0.0, 0.1524, 0.6952, 0.4833) > 0.4


def test_ideal_maxima_finds_global_optima():
    res = ideal_maxima()
    assert res["lgi_max"] == 1.5
    assert res["lgi_argmax"] == {"theta2": 0.0, "t2": 0.75, "t3": 0.75}
    s = (math.sqrt(17.0) - 1.0) / 8.0
    assert 4.0 * s * s + s - 1.0 == pytest.approx(0.0, abs=1e-15)
    assert res["wlgi_max"] == pytest.approx(2.0 * s * (1.0 - s) ** 2 * (1.0 + s), abs=1e-15)
    assert res["wlgi_max"] == pytest.approx(0.403431198853518, abs=1e-12)
    arg = res["wlgi_argmax"]
    assert (arg["theta1"], arg["theta2"]) == (math.pi, 0.0)
    assert arg["t1"] == pytest.approx(s * s, abs=1e-12)
    assert arg["t2"] == pytest.approx((1.0 + s) / 2.0, abs=1e-12)
    assert arg["t3"] == pytest.approx((1.0 - 2.0 * s * s) ** 2, abs=1e-12)
    # Value and argmax agree.
    assert res["lgi_max"] == generic_lgi(**res["lgi_argmax"])
    assert res["wlgi_max"] == generic_wlgi(**arg)


@pytest.mark.parametrize(
    "fun, n_angles, n_transmissions, key",
    [(generic_lgi, 1, 2, "lgi_max"), (generic_wlgi, 2, 3, "wlgi_max")],
)
def test_ideal_maxima_bound_a_sampled_search(fun, n_angles, n_transmissions, key):
    closed = ideal_maxima()[key]
    best, arg = sampled_maximum(fun, n_angles, n_transmissions, seed=20141)
    assert best <= closed + 1e-12, arg
    # The search gets close, so it would have seen a larger maximum.
    assert best >= closed - 1e-8


def test_ideal_maxima_leaves_optimizers_unloaded():
    package_root = str(Path(macroreal.__file__).resolve().parent.parent)
    code = (
        f"import sys; sys.path.insert(0, {package_root!r}); "
        "from macroreal.circuit import ideal_maxima; ideal_maxima(); "
        "print(sorted(m for m in sys.modules if (m + '.').startswith('scipy.optimize.')))"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_invalid_inputs_raise():
    with pytest.raises(ValueError):
        SetupParams(alpha_sq=1.2)
    with pytest.raises(ValueError):
        SetupParams(t_ratios=(0.5, 0.5, 0.5))
    with pytest.raises(ValueError):
        SetupParams(t_ratios=(0.5, 0.5, 0.5, 1.4))
    with pytest.raises(ValueError):
        SetupParams(visibility=1.5)
    with pytest.raises(ValueError):
        BlockerConfig("left", "none")
    with pytest.raises(ValueError):
        Tolerances(t_delta=-0.1)
    with pytest.raises(ValueError):
        Tolerances(v_range=(0.9, 0.2))
    for n in (2.5, True, "3", 0, 3.0):
        with pytest.raises(ValueError, match="grid_points"):
            Tolerances(grid_points=n)
    # One point per axis samples only the low corner of a box of nonzero width.
    for widths in ((1.0, 0.0, None), (0.0, 0.02, None), (0.0, 0.0, (0.7, 0.85))):
        with pytest.raises(ValueError, match="grid_points 1"):
            Tolerances(*widths, grid_points=1)
    assert Tolerances(grid_points=np.int64(2)).grid_points == 2
    with pytest.raises(ValueError):
        correlation(joint_probs(NOMINAL_PARAMS)[("t3",)])
    with pytest.raises(ValueError):
        arm_branch_weights(NOMINAL_PARAMS, BlockerConfig(), 2)
