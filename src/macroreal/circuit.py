"""Quantum model of the two-interferometer single-photon circuit.

A heralded photon enters an asymmetric Mach-Zehnder whose two output arms
(labeled +1 and -1) are temporally distinguishable, so they add incoherently
with weights ``alpha_sq`` and ``1 - alpha_sq``.  Each arm feeds a displaced
Sagnac loop through its own coupler (arm +1 through port 1, arm -1 through
port 4); inside the loop the two counter-propagating inner arms (+1 and -1)
recombine coherently with visibility ``v``, and the detector couplers route
inner arm +1 to port 2 and inner arm -1 to port 3.  Every reflection carries
a 90-degree phase.  The "+1" detector collects the transmission of port 2
and the reflection of port 3; the "-1" detector collects the complements.

Movable blockers select which arm (if any) is absorbed before the first
coupler (``block_t1``) and inside the loop (``block_t2``); the blocker
schedule and the negative-result outcome rule live in :mod:`.protocol`.
:func:`joint_probs` feeds the detector weights of every sub-run into the
protocol's table builder, which normalizes each run by its detected total
and so keeps the two- and three-time tables mutually consistent by
construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Sequence, Tuple

import numpy as np

from .protocol import (
    RUN_CONFIGS,
    BlockerConfig,
    JointProbTable,
    UndefinedProbabilityError,
    combine,
    evaluate,
    joint_tables,
)

__all__ = [
    "DetectionProbs",
    "IDEAL_PARAMS",
    "NOMINAL_PARAMS",
    "NSITValues",
    "RawWeights",
    "SetupParams",
    "Tolerances",
    "arm_branch_weights",
    "detection_probs",
    "generic_lgi",
    "generic_wlgi",
    "ideal_maxima",
    "joint_probs",
    "qm_lgi",
    "qm_nsit",
    "qm_range",
    "qm_wlgi",
    "raw_weights",
]

@dataclass(frozen=True)
class SetupParams:
    """Optical parameters of the circuit.

    Parameters
    ----------
    alpha_sq : float
        Weight of the +1 outer arm, in [0, 1].  The -1 arm carries
        ``1 - alpha_sq``.
    t_ratios : tuple of float
        Intensity transmissions (T1, T2, T3, T4) of the four loop ports,
        each in [0, 1].  Reflections are ``1 - T``.
    visibility : float
        Interference visibility of the inner loop, in [-1, 1].  The cross
        term between the two inner arms is scaled by this factor; 0 removes
        interference entirely.
    """

    alpha_sq: float = 0.5
    t_ratios: Tuple[float, float, float, float] = (0.80, 0.79, 0.82, 0.82)
    visibility: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha_sq <= 1.0:
            raise ValueError(f"alpha_sq must lie in [0, 1], got {self.alpha_sq}")
        ts = tuple(float(t) for t in self.t_ratios)
        if len(ts) != 4:
            raise ValueError("t_ratios must hold exactly four transmissions")
        for t in ts:
            if not 0.0 <= t <= 1.0:
                raise ValueError(f"transmissions must lie in [0, 1], got {t}")
        if not -1.0 <= self.visibility <= 1.0:
            raise ValueError(f"visibility must lie in [-1, 1], got {self.visibility}")
        object.__setattr__(self, "t_ratios", ts)

    @property
    def beta_sq(self) -> float:
        """Weight of the -1 outer arm."""
        return 1.0 - self.alpha_sq

    @property
    def r_ratios(self) -> Tuple[float, float, float, float]:
        """Intensity reflections (R1, R2, R3, R4) of the four ports."""
        return tuple(1.0 - t for t in self.t_ratios)


#: Lossless symmetric reference configuration.
IDEAL_PARAMS = SetupParams(alpha_sq=0.5, t_ratios=(0.75, 0.75, 0.75, 0.75), visibility=1.0)

#: Port ratios of the modeled bench instrument.
NOMINAL_PARAMS = SetupParams()


class RawWeights(NamedTuple):
    """Unnormalized per-photon weights of one sub-run."""

    w_plus: float
    w_minus: float
    w_lost: float

    @property
    def total(self) -> float:
        return self.w_plus + self.w_minus + self.w_lost


class DetectionProbs(NamedTuple):
    """Normalized detection probabilities of one sub-run (sum to one)."""

    p_plus: float
    p_minus: float
    p_lost: float


class NSITValues(NamedTuple):
    """No-signaling-in-time interference measures for the three time pairs."""

    nsit12: float
    nsit23: float
    nsit13: float


def arm_branch_weights(params: SetupParams, blockers: BlockerConfig, arm: int) -> RawWeights:
    """Weights for a photon known to occupy one outer arm.

    Parameters
    ----------
    params : SetupParams
        Circuit parameters.
    blockers : BlockerConfig
        Blocker positions.
    arm : int
        Outer arm, +1 or -1.

    Returns
    -------
    RawWeights
        Weights conditioned on the photon starting in `arm` (before the
        outer-arm weight is applied).  A blocked photon contributes to
        ``w_lost``.
    """
    if arm not in (+1, -1):
        raise ValueError(f"arm must be +1 or -1, got {arm}")
    t1, t2, t3, t4 = params.t_ratios
    r1, r2, r3, r4 = params.r_ratios
    v = params.visibility

    arm_name = "plus" if arm == +1 else "minus"
    if blockers.block_t1 == arm_name:
        return RawWeights(0.0, 0.0, 1.0)

    # Amplitudes injected onto the inner arms; reflections carry phase i.
    if arm == +1:
        inner = {+1: complex(math.sqrt(t1)), -1: 1j * math.sqrt(r1)}
    else:
        inner = {+1: 1j * math.sqrt(r4), -1: complex(math.sqrt(t4))}

    lost = 0.0
    if blockers.block_t2 != "none":
        blocked = +1 if blockers.block_t2 == "plus" else -1
        lost = abs(inner[blocked]) ** 2
        inner[blocked] = 0j

    # Inner arm +1 exits through port 2, inner arm -1 through port 3; the
    # +1 detector collects T2 and R3, the -1 detector R2 and T3.
    to_plus = (inner[+1] * math.sqrt(t2), inner[-1] * 1j * math.sqrt(r3))
    to_minus = (inner[+1] * 1j * math.sqrt(r2), inner[-1] * math.sqrt(t3))
    w_plus = _coherent_sum(to_plus, v)
    w_minus = _coherent_sum(to_minus, v)
    return RawWeights(w_plus, w_minus, lost)


def _coherent_sum(amps: Tuple[complex, complex], v: float) -> float:
    """Intensity of two interfering amplitudes with cross term scaled by v."""
    x, y = amps
    return abs(x) ** 2 + abs(y) ** 2 + 2.0 * v * (x * y.conjugate()).real


def raw_weights(params: SetupParams, blockers: BlockerConfig) -> RawWeights:
    """Unnormalized detector/lost weights of one sub-run.

    The two outer arms add incoherently with weights ``alpha_sq`` and
    ``beta_sq``.  For configurations without inner-loop interference the
    three weights sum to one exactly; with interference the sum can deviate
    from one because the four port ratios are independent.
    """
    plus_arm = arm_branch_weights(params, blockers, +1)
    minus_arm = arm_branch_weights(params, blockers, -1)
    a2, b2 = params.alpha_sq, params.beta_sq
    return RawWeights(
        a2 * plus_arm.w_plus + b2 * minus_arm.w_plus,
        a2 * plus_arm.w_minus + b2 * minus_arm.w_minus,
        a2 * plus_arm.w_lost + b2 * minus_arm.w_lost,
    )


def detection_probs(params: SetupParams, blockers: BlockerConfig) -> DetectionProbs:
    """Normalized detection probabilities of one sub-run.

    Returns
    -------
    DetectionProbs
        ``(p_plus, p_minus, p_lost)`` summing to one.

    Raises
    ------
    UndefinedProbabilityError
        If the total weight vanishes (fully destructive configuration).
    """
    w = raw_weights(params, blockers)
    total = w.total
    if total <= 0.0:
        raise UndefinedProbabilityError(
            f"total weight {total} for blockers {blockers}; probabilities are undefined"
        )
    return DetectionProbs(w.w_plus / total, w.w_minus / total, w.w_lost / total)


def joint_probs(params: SetupParams) -> Dict[Tuple[str, ...], JointProbTable]:
    """Joint outcome tables of every run, keyed like :func:`.protocol.joint_tables`.

    Raises
    ------
    UndefinedProbabilityError
        If a run's detected weight vanishes (fully destructive setup).
    """
    cells = {}
    for run, cfgs in RUN_CONFIGS.items():
        weights = [raw_weights(params, cfg) for cfg in cfgs]
        cells[run] = [(w.w_plus, w.w_minus) for w in weights]
    return joint_tables(cells)


def qm_lgi(params: SetupParams) -> float:
    """Leggett-Garg combination <q1 q2> + <q2 q3> - <q1 q3>.

    Macrorealism bounds this by 1; the quantum model exceeds it for
    suitable parameters (maximum 1.5 in the ideal symmetric circuit).
    """
    return evaluate(joint_probs(params)).lgi


def qm_wlgi(params: SetupParams) -> float:
    """Probability-form combination P13(-,+) - P12(-,+) - P23(-,+).

    Macrorealism bounds this by 0; the quantum model reaches 0.125 in the
    ideal symmetric circuit.
    """
    return evaluate(joint_probs(params)).wlgi


def qm_nsit(params: SetupParams) -> NSITValues:
    """No-signaling-in-time measures built from the measured tables.

    ``nsit12`` compares the t2 marginal with and without the t1 blocker
    pass, ``nsit23`` and ``nsit13`` compare the free-evolution t3 marginal
    against the blocked runs.  In this model ``nsit12`` and ``nsit13``
    vanish identically; ``nsit23`` is generically nonzero.
    """
    values = evaluate(joint_probs(params))
    return NSITValues(values.nsit12, values.nsit23, values.nsit13)


@dataclass(frozen=True)
class Tolerances:
    """Parameter uncertainty box swept by :func:`qm_range`.

    Parameters
    ----------
    hwp_angle_deg : float
        Uncertainty, in degrees, of the polarization rotation set by the
        half-wave plate.  The arm weight responds as
        ``alpha_sq = sin^2(rot0 + delta)`` around the nominal rotation
        ``rot0 = arcsin(sqrt(alpha_sq))``, so ±1° maps the balanced point
        to ``alpha_sq`` in [0.4826, 0.5174].
    t_delta : float
        Symmetric uncertainty applied to each transmission (clipped to
        [0, 1]).
    v_range : tuple of float, optional
        Visibility interval; ``None`` keeps the nominal visibility fixed.
    grid_points : int
        Grid resolution per swept axis (endpoints included).  Must be an
        integer (not a bool), and at least 2 unless every width is zero.
    """

    hwp_angle_deg: float = 1.0
    t_delta: float = 0.02
    v_range: Tuple[float, float] | None = None
    grid_points: int = 21

    def __post_init__(self) -> None:
        for name in ("hwp_angle_deg", "t_delta"):
            width = getattr(self, name)
            if not (math.isfinite(width) and width >= 0.0):
                raise ValueError(f"{name} must be finite and >= 0, got {width}")
        n = self.grid_points
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
            raise ValueError(f"grid_points must be an integer >= 1, got {n!r}")
        swept_v = False
        if self.v_range is not None:
            lo, hi = self.v_range
            if not -1.0 <= lo <= hi <= 1.0:
                raise ValueError(f"v_range must be ordered within [-1, 1], got {self.v_range}")
            swept_v = lo < hi
        if n == 1 and (self.hwp_angle_deg > 0.0 or self.t_delta > 0.0 or swept_v):
            raise ValueError(
                "grid_points 1 samples only the low corner of a box with nonzero "
                "width; use at least 2"
            )


# Transmission points times alpha_sq points in one chunk of qm_range's
# sweep.  At 256 KB an array, a chunk's ≈20 arrays hold ≈5 MB at any grid
# size; chunks twice as large ran ≈20 % faster at 15 points per axis but
# raised the peak memory of an 11-point sweep above the per-slice sweep's.
_SWEEP_CHUNK = 1 << 15


def _free_run_weights(v, bases, roots):
    """Detector weights (wp_p, wm_p, wp_m, wm_m) of the free run at visibility v.

    ``wx_y`` reaches detector x from outer arm y; ``bases`` and ``roots``
    are the v-free terms and square-root products of the four weights.
    """
    tv = 2.0 * v
    return (
        bases[0] - tv * roots[0],
        bases[1] + tv * roots[1],
        bases[2] + tv * roots[2],
        bases[3] - tv * roots[3],
    )


def _lgi_wlgi_values(a2, b2, terms, w, d):
    """(lgi, wlgi) from the v-free terms (c12, c23, P12(-,+), P23(-,+))."""
    c12, c23, mp12, mp23 = terms
    c13 = (a2 * (w[0] - w[1]) + b2 * (w[3] - w[2])) / d
    return combine(c12, c23, c13, mp12, mp23, b2 * w[2] / d)


def _chunk_extremes(alpha_axis, v_axes, t1, t2, t3, t4):
    """[min, max] of lgi, wlgi and nsit23 over alpha_axis x the t points, per v axis."""
    r1, r2, r3, r4 = 1.0 - t1, 1.0 - t2, 1.0 - t3, 1.0 - t4
    bases = (t1 * t2 + r1 * r3, t1 * r2 + r1 * t3, r4 * t2 + t4 * r3, r2 * r4 + t3 * t4)
    roots = (
        np.sqrt(t1 * t2 * r1 * r3),
        np.sqrt(t1 * r1 * r2 * t3),
        np.sqrt(t2 * t4 * r3 * r4),
        np.sqrt(r2 * r4 * t3 * t4),
    )
    # Rows are alpha_sq values, columns transmission points.
    a2 = alpha_axis[:, None]
    b2 = 1.0 - a2
    mp12 = b2 * r4
    inner_p = a2 * t1 + mp12
    inner_m = a2 * r1 + b2 * t4
    mp23 = inner_m * r3
    c12 = a2 * (2.0 * t1 - 1.0) + b2 * (2.0 * t4 - 1.0)
    terms = (c12, inner_p * (t2 - r2) + inner_m * (t3 - r3), mp12, mp23)
    marginal = inner_p * t2 + mp23

    def at(v, a2, b2, bases, roots, terms, marginal, locate):
        """(lgi, wlgi, P3(+) - marginal, min of d) at v.

        Broadcasts over the whole chunk or a gathered subset of it;
        ``locate(k)`` maps the k-th flat point to its (alpha, t) indices.
        """
        w = _free_run_weights(v, bases, roots)
        d = a2 * (w[0] + w[1]) + b2 * (w[2] + w[3])
        d_min = d.min()
        if not d_min > 0.0:
            k = np.flatnonzero(~(d > 0.0))[0]
            i, j = locate(k)
            raise UndefinedProbabilityError(
                f"total detected weight {d.flat[k]} at alpha_sq={alpha_axis[i]}, v={v}, "
                f"t_ratios=({t1[j]}, {t2[j]}, {t3[j]}, {t4[j]}); probabilities are undefined"
            )
        lgi, wlgi = _lgi_wlgi_values(a2, b2, terms, w, d)
        return lgi, wlgi, (a2 * w[0] + b2 * w[2]) / d - marginal, d_min

    def unravel(k):
        return np.unravel_index(k, marginal.shape)

    def extend(ext, *values):
        for name, vals in zip(ext, values):
            ext[name] = [min(ext[name][0], vals.min()), max(ext[name][1], vals.max())]

    # For fixed (alpha_sq, t) every weight and d are linear in v, so c13,
    # P13(-,+) and P3(+) are linear-fractional in v with the positive
    # denominator d (d > 0 at both end points makes it positive between
    # them).  So lgi and wlgi are monotone in v, and so is g = P3(+) -
    # marginal.  nsit23 = |g| is then quasi-convex, so its maximum lies at
    # an end point; where g keeps its sign between the end points |g| is
    # monotone too, and its minimum also lies at an end point.  Only where
    # g changes sign can nsit23's minimum sit at an interior v.
    #
    # Rounding can lift a computed interior value above both computed end
    # values, or sink it below them (by one ulp in the ideal circuit, where
    # P3(+) is 1/2 at every v).  Bound of the lift, to first order in
    # u = eps / 2: take the v-free floats (a2, b2, bases B, roots R, c12,
    # c23, P12, P23, marginal) as exact constants, since they carry the same
    # bits at every v, and let capitals denote exact arithmetic on them.
    # Then W_k = B_k -+ 2v R_k with 0 <= W_k <= 2 and |2v R_k| <= 1, and
    # D = a2 (W0 + W1) + b2 (W2 + W3) with a2 + b2 = 1.  Each computed
    # weight errs by u (1 + W_k).  d and the c13 numerator N take two sums,
    # two products and one add of those weights, so each errs by
    # u (2 + D) + 3 u D; |N| <= D.  Hence c13 = N / d errs by
    # E = u (4 / D + 9), P13 = b2 w2 / d by u (3 / D + 7) and P3(+) by
    # u (3 / D + 8).  The exact C13 is monotone in v, so an interior c13
    # lies at most 2 E beyond the better end's computed c13; likewise P13,
    # and P3(+) against either end.  The final subtractions (c12 + c23) -
    # c13, (P13 - P12) - P23 and P3(+) - marginal round monotonically, and
    # each adds at most 2 u times the size of its result: 3 for lgi, 1 and
    # then 2 for wlgi, 1 for nsit23.  The lift is thus at most
    # u (8 / D + 24) for lgi, u (6 / D + 20) for wlgi and u (6 / D + 18) for
    # nsit23 either way, all within eps (4 / D + 12).  D between the end
    # points is at least d_low = d_min - eps (1 + 2 d_min), the computed
    # minimum less its error.  So only these points are evaluated at the
    # interior v: every point whose end-point value comes within twice that
    # bound of a chunk extreme (the factor 2 covers the second-order terms),
    # and every point whose computed g has a different sign bit at the two
    # end points.  Where the exact g changes sign but the computed one does
    # not, an end value lies within its rounding error of 0 and so within
    # the slack of nsit23's minimum.  A computed interior d can fail to be
    # positive only where D <= eps (1 + 2 D), so only if d_low < 2 eps; then
    # every point is evaluated, and an undefined point is named as in a
    # full sweep.  That keeps the result equal, bit for bit, to evaluating
    # everything at every grid point.
    extremes = []
    for v_axis in v_axes:
        ext = {name: [math.inf, -math.inf] for name in ("lgi", "wlgi", "nsit23")}
        ends, gaps, d_min = [], [], math.inf
        for v in v_axis[[0, -1]] if v_axis.size > 1 else v_axis:
            lgi, wlgi, gap, v_d_min = at(v, a2, b2, bases, roots, terms, marginal, unravel)
            d_min = min(d_min, v_d_min)
            ends.append((lgi, wlgi, np.abs(gap)))
            gaps.append(gap)
            extend(ext, *ends[-1])
        if v_axis.size > 2:
            eps = np.finfo(float).eps
            d_low = d_min - eps * (1.0 + 2.0 * d_min)
            slack = 2.0 * eps * (4.0 / d_low + 12.0) if d_low >= 2.0 * eps else math.inf
            near = np.signbit(gaps[0]) != np.signbit(gaps[1])
            for values in ends:
                for (lo, hi), vals in zip(ext.values(), values):
                    near |= (vals <= lo + slack) | (vals >= hi - slack)
            i, j = np.nonzero(near)
            picked = (
                alpha_axis[i],
                b2[i, 0],
                [base[j] for base in bases],
                [root[j] for root in roots],
                [term[i, j] for term in terms],
                marginal[i, j],
            )
            for v in v_axis[1:-1]:
                lgi, wlgi, gap, _ = at(v, *picked, lambda k: (i[k], j[k]))
                extend(ext, lgi, wlgi, np.abs(gap))
        extremes.append(ext)
    return extremes


def _qm_ranges(
    params: SetupParams, tols: Sequence[Tolerances]
) -> List[Dict[str, Tuple[float, float]]]:
    """:func:`qm_range` of each box in ``tols``, in one pass over their grid.

    The boxes may differ only in ``v_range``.  Each chunk of (alpha_sq, t)
    points computes its v-free terms once for all of them.  An undefined
    point is reported as sweeping the boxes one after another would
    report it.
    """
    first = tols[0]
    for tol in tols[1:]:
        if (tol.hwp_angle_deg, tol.t_delta, tol.grid_points) != (
            first.hwp_angle_deg, first.t_delta, first.grid_points
        ):
            raise ValueError("boxes swept in one pass may differ only in v_range")
    n = first.grid_points
    rotation0 = math.asin(min(1.0, math.sqrt(params.alpha_sq)))
    half_width = math.radians(first.hwp_angle_deg)
    deltas = np.linspace(-half_width, half_width, n) if half_width > 0 else np.zeros(1)
    alpha_axis = np.sin(rotation0 + deltas) ** 2

    t_axes = []
    for t in params.t_ratios:
        if first.t_delta > 0:
            t_axes.append(np.clip(np.linspace(t - first.t_delta, t + first.t_delta, n), 0.0, 1.0))
        else:
            t_axes.append(np.array([t]))
    v_axes = [
        np.array([params.visibility]) if tol.v_range is None
        else np.linspace(tol.v_range[0], tol.v_range[1], n)
        for tol in tols
    ]

    t_points = [g.ravel() for g in np.meshgrid(*t_axes, indexing="ij")]
    step = max(1, _SWEEP_CHUNK // alpha_axis.size)
    bounds = [{name: [math.inf, -math.inf] for name in ("lgi", "wlgi", "nsit23")} for _ in tols]
    try:
        for start in range(0, t_points[0].size, step):
            chunk = _chunk_extremes(alpha_axis, v_axes, *(t[start : start + step] for t in t_points))
            for box, ext in zip(bounds, chunk):
                for name, (lo, hi) in ext.items():
                    box[name] = [min(box[name][0], lo), max(box[name][1], hi)]
    except UndefinedProbabilityError:
        # If no earlier box holds an undefined point, the first chunk that
        # raised is the last box's first undefined one, as in its own sweep.
        for tol in tols[:-1]:
            _qm_ranges(params, [tol])
        raise
    return [{name: (float(lo), float(hi)) for name, (lo, hi) in box.items()} for box in bounds]


def qm_range(params: SetupParams, tol: Tolerances) -> Dict[str, Tuple[float, float]]:
    """Extremes of lgi, wlgi and nsit23 over a parameter uncertainty box.

    Takes a full grid over the half-wave-plate angle, the four
    transmissions and (optionally) the visibility, with ``tol.grid_points``
    points per axis, and returns the (min, max) of each quantity over its
    points.  At fixed (alpha_sq, t) every expression is linear-fractional
    in v with a positive denominator, so lgi, wlgi and P3(+) - marginal are
    monotone in v and nsit23 = |P3(+) - marginal| takes its extremes at the
    two visibility end points, except its minimum where P3(+) - marginal
    changes sign.  So every point is evaluated at the two end points, and
    only the few points where that sign changes, or whose end values lie
    within rounding of an extreme, at the interior v.  The result equals
    evaluating every grid point, bit for bit.

    Returns
    -------
    dict
        Keys ``"lgi"``, ``"wlgi"``, ``"nsit23"``; values (min, max).

    Raises
    ------
    UndefinedProbabilityError
        Naming a grid point (alpha_sq, v, t1..t4) whose detected weight is
        not positive (or NaN), where :func:`qm_lgi` raises too.
    """
    return _qm_ranges(params, [tol])[0]


def generic_lgi(theta2, t2, t3):
    """Leggett-Garg combination of the generic lossless one-arm circuit.

    Equals ``1 - 4 R2 R3 + 4 cos(theta2) sqrt(T2 T3 R2 R3)``; broadcasts
    over arrays.
    """
    r2, r3 = 1.0 - t2, 1.0 - t3
    return 1.0 - 4.0 * r2 * r3 + 4.0 * np.cos(theta2) * np.sqrt(t2 * t3 * r2 * r3)


def generic_wlgi(theta1, theta2, t1, t2, t3):
    """Probability-form combination of the generic lossless circuit.

    Equals ``2 cos(theta2) R1 sqrt(T2 T3 R2 R3)
    - 2 cos(theta1) R3 sqrt(T1 T2 R1 R2) - R2 R3``; broadcasts over arrays.
    """
    r1, r2, r3 = 1.0 - t1, 1.0 - t2, 1.0 - t3
    return (
        2.0 * np.cos(theta2) * r1 * np.sqrt(t2 * t3 * r2 * r3)
        - 2.0 * np.cos(theta1) * r3 * np.sqrt(t1 * t2 * r1 * r2)
        - r2 * r3
    )


def ideal_maxima() -> Dict[str, object]:
    """Global maxima of the generic-circuit combinations, in closed form.

    Each phase enters only as ``cos(theta)`` times a coefficient of fixed
    sign, so both maxima take theta2 = 0, and the WLGI takes theta1 = pi.
    Write every transmission as T = cos^2(phi), R = sin^2(phi), with phi
    in [0, pi/2].

    LGI: with phi2 = a and phi3 = b the combination is
    ``1 + 4 sin(a) sin(b) cos(a + b)``.  With c = cos(a + b) the last term
    is 2 c (cos(a - b) - c): at most 0 for c < 0, else at most
    2 c (1 - c) <= 1/2.  So the LGI is at most 3/2, reached at
    a = b = pi/6, i.e. T2 = T3 = 3/4 (the Lüders bound; Budroni & Emary,
    PRL 113, 050401, 2014).

    WLGI: with A = R1 sqrt(T3 R3) + R3 sqrt(T1 R1) the combination is
    ``2 sqrt(T2 R2) A - R2 R3``, whose maximum over phi2 is
    ``sqrt(A^2 + R3^2/4) - R3/2``, at cos(2 phi2) = R3 / (2 sqrt(A^2 + R3^2/4)).
    With phi3 = gamma, A = sin(gamma) sin(phi1) sin(phi1 + gamma) peaks at
    phi1 = (pi - gamma)/2, where A = sin(gamma) cos^2(gamma/2).  In
    s = sin(gamma/2) what remains is ``2 s (1 - s)^2 (1 + s)``, whose
    derivative ``2 (1 - s)(1 - s - 4 s^2)`` vanishes in (0, 1) only at
    s = (sqrt(17) - 1)/8.  The maximum 0.4034312 sits at T1 = s^2,
    T2 = (1 + s)/2, T3 = (1 - 2 s^2)^2.

    Each ``*_max`` is :func:`generic_lgi` or :func:`generic_wlgi` evaluated
    at its argmax, so value and argmax agree by construction.

    Returns
    -------
    dict
        ``lgi_max``, ``lgi_argmax`` (theta2, t2, t3), ``wlgi_max`` and
        ``wlgi_argmax`` (theta1, theta2, t1, t2, t3).
    """
    lgi_arg = {"theta2": 0.0, "t2": 0.75, "t3": 0.75}
    s = (math.sqrt(17.0) - 1.0) / 8.0
    wlgi_arg = {
        "theta1": math.pi,
        "theta2": 0.0,
        "t1": s * s,
        "t2": (1.0 + s) / 2.0,
        "t3": (1.0 - 2.0 * s * s) ** 2,
    }
    return {
        "lgi_max": float(generic_lgi(**lgi_arg)),
        "lgi_argmax": lgi_arg,
        "wlgi_max": float(generic_wlgi(**wlgi_arg)),
        "wlgi_argmax": wlgi_arg,
    }
