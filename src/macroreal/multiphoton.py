"""Two-photon emission model, modified bounds and count-census fit.

A heralded source occasionally emits two photons in one window.  A realist
description of such a pair can reach the algebraic maxima of the inequality
combinations (3 for the correlator form, 1/2 for the probability form), so
a fraction ``gamma`` of two-photon events relaxes the macrorealist bounds
to ``1 + 2*gamma`` and ``gamma/2``.  This module derives those maxima by
running the blocker protocol on the deterministic two-photon assignment,
provides the twelve closed-form singles/coincidence predictions for the
four double-blocker configurations, and fits the two-photon fraction to a
measured count table by chi-squared minimization.

The twelve counts depend on the parameters only through the eight
products {A, C} x {E1, E2} and {B, D} x {F1, F2} of route weights
(A = alpha_sq*t1, B = alpha_sq*(1 - t1), C = beta_sq*(1 - t4),
D = beta_sq*t4) and detector splits (E1 = (1 - t2)*eta1, E2 = t2*eta2,
F1 = t3*eta1, F2 = (1 - t3)*eta2), and through M = N*(1 + gamma) and
P = N*gamma: a configuration whose single photon reaches the detectors
with probabilities q1 and q2 predicts C1 = M*q1 - P*q1^2,
C2 = M*q2 - P*q2^2 and C12 = 2*P*q1*q2.  ``_predicted_flat`` computes
exactly this, and it is the module's only count formula.  So the table
fixes the nine parameters only up to an exact two-dimensional flat
family:

* the scaling direction of :func:`scale_equivalent`: every split times
  kappa, M divided by kappa and P by kappa^2, which changes gamma;
* the route-detection direction: (A, C) times lambda, (B, D) times mu,
  E divided by lambda and F by mu, with lambda*(A + C) + mu*(B + D) = 1,
  which changes the efficiencies but not gamma.

Fits therefore report the :func:`canonical_gauge` representative of the
optimal family, the member with eta1 = eta2 = 0.6; gamma is quoted under
that convention.

The rows follow :data:`SET_LABELS`, the (t1, t2) arms that the blockers of
run 3 (``protocol.RUN_CONFIGS[3]``, in order) leave open.  C1 is the
circuit's -1 detector (``w_minus`` of ``circuit.raw_weights``) and C2 its
+1 detector, so this model's ``eta1`` is the efficiency that
``simulate.SourceConfig`` calls ``eta2``, and its ``eta2`` is that
``eta1``.
"""

from __future__ import annotations

import csv
import math
from dataclasses import astuple, dataclass
from importlib import resources
from typing import Dict, NamedTuple, Sequence, Tuple

import numpy as np

from ._csvrows import number, read_rows
from .protocol import JointProbTable, evaluate, joint_tables, path_cells

__all__ = [
    "CountVector12",
    "FIT_BOUNDS",
    "GammaFitParams",
    "GammaFitResult",
    "ModifiedBounds",
    "SET_LABELS",
    "canonical_gauge",
    "chi_squared",
    "detection_prob_total",
    "fit_gamma",
    "fit_report",
    "load_counts_csv",
    "modified_bounds",
    "predicted_counts",
    "reference_counts",
    "save_counts_csv",
    "scale_equivalent",
    "two_photon_joint_probs",
    "two_photon_lgi",
    "two_photon_wlgi",
]

#: Double-blocker configurations, labeled by the surviving (t1, t2) arms.
SET_LABELS = ("++", "+-", "-+", "--")

#: Box bounds of the count fit, generously bracketing realistic hardware.
FIT_BOUNDS = {
    "alpha_sq": (0.3, 0.7),
    "t1": (0.5, 0.95),
    "t2": (0.5, 0.95),
    "t3": (0.5, 0.95),
    "t4": (0.5, 0.95),
    "eta1": (0.3, 0.9),
    "eta2": (0.3, 0.9),
    "n_events": (1e4, 1e7),
    "gamma": (0.0, 0.05),
}

#: Deterministic two-photon assignment: for each t1-blocker position, the
#: (q1, q2, q3) path triples of the photons still inside the apparatus.
#: Without a blocker both photons propagate on opposite constant paths;
#: with a blocker the photon on the blocked path is absorbed and the
#: survivor flips its final-time value.
_TWO_PHOTON_PATHS = {
    "none": ((+1, +1, +1), (-1, -1, -1)),
    "minus": ((+1, +1, -1),),
    "plus": ((-1, -1, +1),),
}


@dataclass(frozen=True)
class GammaFitParams:
    """Parameters of the two-photon count model.

    Parameters
    ----------
    alpha_sq : float
        Power fraction of the +1 arm at the first splitter, in [0, 1].
    t1, t2, t3, t4 : float
        Port-dependent transmittances of the central splitter, in [0, 1].
    eta1, eta2 : float
        Efficiencies of the C1 (-1) and C2 (+1) detectors, in (0, 1].
    n_events : float
        Total photon events per configuration (count scale), > 0.
    gamma : float
        Two-photon fraction of the events, in [0, 1).
    """

    alpha_sq: float
    t1: float
    t2: float
    t3: float
    t4: float
    eta1: float
    eta2: float
    n_events: float
    gamma: float

    def __post_init__(self):
        for name in ("alpha_sq", "t1", "t2", "t3", "t4"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        for name in ("eta1", "eta2"):
            value = getattr(self, name)
            if not 0.0 < value <= 1.0:
                raise ValueError(f"{name} must be in (0, 1], got {value}")
        if not self.n_events > 0.0:
            raise ValueError(f"n_events must be positive, got {self.n_events}")
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError(f"gamma must be in [0, 1), got {self.gamma}")

    @property
    def beta_sq(self) -> float:
        return 1.0 - self.alpha_sq

    @property
    def n_single(self) -> float:
        """Number of single-photon events, (1 - gamma) * n_events."""
        return (1.0 - self.gamma) * self.n_events

    @property
    def n_double(self) -> float:
        """Number of two-photon events, gamma * n_events."""
        return self.gamma * self.n_events


@dataclass(frozen=True, eq=False)
class CountVector12:
    """Singles and coincidences of the four double-blocker configurations.

    Parameters
    ----------
    values : ndarray, shape (4, 3)
        Rows follow ``SET_LABELS``; columns are C1, C2 and the coincidence
        C12.  All entries must be nonnegative.  Model-generated vectors
        additionally satisfy C12 <= min(C1, C2).
    """

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != (4, 3):
            raise ValueError(f"expected shape (4, 3), got {values.shape}")
        if np.any(values < 0.0) or not np.all(np.isfinite(values)):
            raise ValueError("counts must be finite and nonnegative")
        values = values.copy()
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @classmethod
    def from_flat(cls, flat: Sequence[float]) -> "CountVector12":
        """Build from the twelve counts in row order (C1, C2, C12 per set)."""
        return cls(np.asarray(flat, dtype=float).reshape(4, 3))

    @property
    def flat(self) -> np.ndarray:
        """The twelve counts in row order (C1, C2, C12 per set)."""
        return self.values.reshape(-1)

    def _row(self, set_label: str) -> np.ndarray:
        if set_label not in SET_LABELS:
            raise ValueError(f"set_label must be one of {SET_LABELS}, got {set_label!r}")
        return self.values[SET_LABELS.index(set_label)]

    def c1(self, set_label: str) -> float:
        return float(self._row(set_label)[0])

    def c2(self, set_label: str) -> float:
        return float(self._row(set_label)[1])

    def c12(self, set_label: str) -> float:
        return float(self._row(set_label)[2])


class ModifiedBounds(NamedTuple):
    """Macrorealist bounds relaxed by a two-photon fraction."""

    lgi_bound: float
    wlgi_bound: float


class GammaFitResult(NamedTuple):
    """Best fit of the count model to an observed table."""

    params: GammaFitParams
    chi2: float
    converged: bool


def _two_photon_tables() -> Dict[Tuple[str, ...], JointProbTable]:
    return joint_tables(path_cells(_TWO_PHOTON_PATHS))


def two_photon_joint_probs() -> Dict[Tuple[str, str], JointProbTable]:
    """Pair-probability tables of the deterministic two-photon assignment.

    Runs the same sub-run bookkeeping as the single-photon model: every
    blocker schedule is applied to the assignment, the surviving photons
    of each sub-run are counted on the two detectors, and the protocol's
    table builder normalizes each run by its total and takes the (t1, t2)
    table as the arrival-time marginal of the double-blocker run.

    Returns
    -------
    dict
        Maps the pairs ("t2","t3"), ("t1","t3"), ("t1","t2") to two-time
        tables with entries {(+1,+1): .., (+1,-1): .., ...}.
    """
    tables = _two_photon_tables()
    return {key: tables[key] for key in (("t2", "t3"), ("t1", "t3"), ("t1", "t2"))}


def two_photon_lgi() -> float:
    """Correlator combination of the two-photon model (algebraic maximum 3)."""
    return evaluate(_two_photon_tables()).lgi


def two_photon_wlgi() -> float:
    """Probability combination of the two-photon model (algebraic maximum 1/2)."""
    return evaluate(_two_photon_tables()).wlgi


def modified_bounds(gamma: float) -> ModifiedBounds:
    """Macrorealist bounds for a source with two-photon fraction gamma.

    Mixing the single-photon bound (1 and 0) with the two-photon algebraic
    maximum (3 and 1/2) in proportion gamma gives 1 + 2*gamma for the
    correlator form and gamma/2 for the probability form.

    Parameters
    ----------
    gamma : float
        Two-photon fraction, in [0, 1).
    """
    if not 0.0 <= gamma < 1.0:
        raise ValueError(f"gamma must be in [0, 1), got {gamma}")
    return ModifiedBounds(1.0 + 2.0 * gamma, gamma / 2.0)


def _route_factors(alpha_sq, t1, t2, t3, t4, eta1, eta2):
    """Route weights (A, B, C, D) and detector splits (E1, E2, F1, F2).

    Named as in the module docstring; the four route weights sum to one.
    """
    beta_sq = 1.0 - alpha_sq
    routes = (alpha_sq * t1, alpha_sq * (1.0 - t1), beta_sq * (1.0 - t4), beta_sq * t4)
    splits = ((1.0 - t2) * eta1, t2 * eta2, t3 * eta1, (1.0 - t3) * eta2)
    return routes, splits


def _predicted_flat(alpha_sq, t1, t2, t3, t4, eta1, eta2, n_events, gamma):
    """The twelve predicted counts, in CountVector12 row order.

    The configurations ++, +-, -+ and -- route a photon with weight A, B,
    C and D onto the splits E, F, E and F; with q1, q2 the route weight
    times each split, M = N*(1 + gamma) and P = N*gamma, a row holds
    C1 = M*q1 - P*q1^2, C2 = M*q2 - P*q2^2 and C12 = 2*P*q1*q2.  The
    parameters may be arrays of one shape (...); the counts then have
    shape (..., 12).
    """
    (a, b, c, d), (e1, e2, f1, f2) = _route_factors(alpha_sq, t1, t2, t3, t4, eta1, eta2)
    m = n_events * (1.0 + gamma)
    pair = n_events * gamma
    flat = []
    for route, s1, s2 in ((a, e1, e2), (b, f1, f2), (c, e1, e2), (d, f1, f2)):
        q1, q2 = route * s1, route * s2
        flat += (m * q1 - pair * q1 * q1, m * q2 - pair * q2 * q2, 2.0 * pair * q1 * q2)
    return np.stack(flat, axis=-1)


def predicted_counts(params: GammaFitParams) -> CountVector12:
    """Predicted singles and coincidences for all four configurations.

    Each configuration keeps one arm per interferometer open; a photon
    reaches the output region through that surviving branch and splits
    onto the two detectors.  Single-photon events contribute linearly;
    two-photon events add the same-branch binomial terms (a detector
    clicks at most once per event) and the coincidence channel.

    Parameters
    ----------
    params : GammaFitParams
        Model parameters, including the count scale and gamma.
    """
    return CountVector12.from_flat(_predicted_flat(*astuple(params)))


def detection_prob_total(params: GammaFitParams) -> float:
    """Summed single-photon detection probability of the four configurations.

    For each configuration a single photon reaches detector 1 with
    probability q1 and detector 2 with probability q2; this returns the
    sum of all eight, S = (A + C)*(E1 + E2) + (B + D)*(F1 + F2) in the
    factors of the module docstring.  S is unchanged along the
    route-detection direction of the flat family and scales linearly with
    kappa along :func:`scale_equivalent`, so it is the coordinate that
    :func:`canonical_gauge` fixes on the scaling direction.
    """
    (a, b, c, d), (e1, e2, f1, f2) = _route_factors(*astuple(params)[:7])
    return (a + c) * (e1 + e2) + (b + d) * (f1 + f2)


def _rescaled(n_events: float, gamma: float, kappa: float) -> Tuple[float, float]:
    """Count scale and two-photon fraction after scaling detection by kappa.

    Keeps kappa*M and kappa^2*P fixed, with M = N*(1 + gamma) and
    P = N*gamma, which is what leaves the counts unchanged.
    """
    m = n_events * (1.0 + gamma)
    pair = n_events * gamma
    if kappa * m <= 2.0 * pair:
        raise ValueError(
            f"no count-equivalent point with gamma < 1 at kappa={kappa}: "
            f"kappa*N*(1+gamma) = {kappa * m} <= 2*N*gamma = {2.0 * pair}"
        )
    return m / kappa - pair / kappa**2, pair / (kappa * m - pair)


def scale_equivalent(params: GammaFitParams, kappa: float) -> GammaFitParams:
    """Count-equivalent parameter point with detection scaled by kappa.

    Multiplies both efficiencies by kappa and remaps the count scale and
    two-photon fraction along the scaling direction of the flat family
    (N*(1+gamma) -> /kappa, N*gamma -> /kappa^2), so the predicted table
    is unchanged to rounding.  Requires kappa*eta <= 1 for both detectors
    and kappa*N*(1+gamma) > 2*N*gamma, so that the new gamma is below one.
    """
    if kappa <= 0.0:
        raise ValueError(f"kappa must be positive, got {kappa}")
    n_events, gamma = _rescaled(params.n_events, params.gamma, kappa)
    return GammaFitParams(
        params.alpha_sq,
        params.t1,
        params.t2,
        params.t3,
        params.t4,
        kappa * params.eta1,
        kappa * params.eta2,
        n_events,
        gamma,
    )


_ETA_CENTER = 0.5 * (FIT_BOUNDS["eta1"][0] + FIT_BOUNDS["eta1"][1])


def canonical_gauge(params: GammaFitParams) -> GammaFitParams:
    """The representative of a parameter point's count-equivalent family.

    The twelve counts pin the parameters only up to the two-dimensional
    flat family of the module docstring, so gamma alone is not
    identifiable.  This returns the family member with
    eta1 = eta2 = 0.6, the center of the efficiency search box.  It moves
    along the route-detection direction to the point where both
    efficiencies equal S = :func:`detection_prob_total`, which takes
    lambda = (E1 + E2)/S and mu = (F1 + F2)/S and gives
    alpha_sq = lambda*A + mu*B, t1 = lambda*A/alpha_sq,
    t4 = mu*D/(1 - alpha_sq), t2 = E2/(E1 + E2) and t3 = F1/(F1 + F2);
    then it scales detection by kappa = 0.6/S as :func:`scale_equivalent`
    does.  Every
    transmittance of that point lies in [0, 1], so no clipping is needed,
    and the result depends only on invariants of both directions: any two
    count-equivalent inputs give the same representative to rounding.
    The representative may lie outside ``FIT_BOUNDS``, which bound the
    fit's search, not its answer.

    At alpha_sq = 0 or 1 one route pair is empty and t1 or t4 does not
    enter the counts; the input's value is kept there.

    Raises
    ------
    ValueError
        If 0.6*N*(1 + gamma) <= 2*S*N*gamma, where no representative with
        gamma < 1 exists.
    """
    (a, b, c, d), (e1, e2, f1, f2) = _route_factors(*astuple(params)[:7])
    s = detection_prob_total(params)
    lam, mu = (e1 + e2) / s, (f1 + f2) / s
    # Arm weights of the equal-efficiency point; they sum to one exactly
    # in real arithmetic, and the ratio keeps alpha_sq inside [0, 1].
    plus, minus = lam * a + mu * b, lam * c + mu * d
    n_events, gamma = _rescaled(params.n_events, params.gamma, _ETA_CENTER / s)
    return GammaFitParams(
        plus / (plus + minus),
        lam * a / plus if plus > 0.0 else params.t1,
        e2 / (e1 + e2),
        f1 / (f1 + f2),
        mu * d / minus if minus > 0.0 else params.t4,
        _ETA_CENTER,
        _ETA_CENTER,
        n_events,
        gamma,
    )


def chi_squared(observed: CountVector12, predicted: CountVector12) -> float:
    """Pearson chi-squared sum((obs - pred)^2 / pred) over the twelve cells.

    Raises
    ------
    ValueError
        If any predicted cell is zero (the statistic is undefined there).
    """
    pred = predicted.flat
    if np.any(pred <= 0.0):
        raise ValueError("chi-squared undefined: predicted cell is zero")
    return _guarded_chi2(observed.flat, pred)


_PARAM_NAMES = ("alpha_sq", "t1", "t2", "t3", "t4", "eta1", "eta2", "n_events", "gamma")

#: Optimizer-space bounds; the count scale is searched in log10.
_X_BOUNDS = [
    FIT_BOUNDS[name] if name != "n_events" else tuple(math.log10(b) for b in FIT_BOUNDS[name])
    for name in _PARAM_NAMES
]
_X_LO = np.array([b[0] for b in _X_BOUNDS])
_X_HI = np.array([b[1] for b in _X_BOUNDS])

# Largest observed count the fit accepts.  Inside FIT_BOUNDS no count or
# count derivative in optimizer space exceeds K = ln(10)*M_max, with
# M_max = N_max*(1 + gamma_max).  A residual's derivative in its prediction
# p is 1e6 under the 1e-12 guard and (p + o)/(2*p^(3/2)) < 5e5 + 5e17*o
# above it, so counts up to o bound every residual by R = 1e6*o and every
# Jacobian entry by G = 5e17*o*K.  The limit holds R*G to 1e150; as
# G/R = 5e11*K is about 1.2e19, R^2 stays below 1e131 and G^2 below 1.3e169.
# The solver's sums r^T r, J^T r and J^T J add twelve such products, so the
# largest, an entry of J^T J, stays below 2e170, far from the float maximum
# of about 1.8e308; so does the linear model's |r + J dx|^2, as the step dx
# is clipped to the box.  The damped solve works on J^T J scaled to a unit
# diagonal, whose entries are at most 1 in magnitude, with a right-hand
# side bounded by the residual norm.
_COUNT_LIMIT = math.sqrt(
    1e150
    / (1e6 * 5e17 * math.log(10.0) * FIT_BOUNDS["n_events"][1] * (1.0 + FIT_BOUNDS["gamma"][1]))
)

#: Stopping tolerance of the fit: on the chi-squared change relative to
#: 1 + chi-squared, and on the step relative to the point.
_FIT_TOL = 1e-12

#: Lockstep iterations after which a start that has not met a stopping
#: test ends unconverged.
_FIT_MAX_ITER = 500

#: Smallest damping of the unit-diagonal normal matrix.  J^T J is singular
#: along the two flat directions of the module docstring, so without a
#: floor the damped matrix can become singular as the damping shrinks.
_DAMPING_FLOOR = 1e-10


def _unpack(x: np.ndarray) -> Tuple:
    """The nine model parameters at optimizer point(s) x of shape (..., 9).

    One point gives floats; a batch gives one array of shape (...) per
    parameter.  The count scale is searched in log10.
    """
    x = np.asarray(x, dtype=float)
    values = list(map(float, x)) if x.ndim == 1 else list(np.moveaxis(x, -1, 0))
    values[7] = 10.0 ** values[7]
    return tuple(values)


def _guarded_chi2(obs: np.ndarray, pred: np.ndarray):
    """Pearson chi-squared of predictions ``pred`` of shape (..., 12).

    A float for one table of predictions, an array of shape (...) for a
    batch.
    """
    # At the gamma=0 boundary the coincidence predictions vanish; such
    # cells are exact (contribute 0) when the observation is also zero
    # and exclude the parameter point (inf) otherwise.
    good = pred > 0.0
    diff = np.where(good, obs - pred, 0.0)
    chi2 = np.sum(diff * diff / np.where(good, pred, 1.0), axis=-1)
    chi2 = np.where(np.any(~good & (obs > 0.0), axis=-1), math.inf, chi2)
    return float(chi2) if chi2.ndim == 0 else chi2


def _model(x: np.ndarray) -> np.ndarray:
    """The predicted counts at optimizer point(s) x, shape (..., 12)."""
    return _predicted_flat(*_unpack(x))


def _pearson_residuals(pred: np.ndarray, obs: np.ndarray) -> np.ndarray:
    return (pred - obs) / np.sqrt(np.maximum(pred, 1e-12))


def _pearson_jacobian(x: np.ndarray, obs: np.ndarray, pred=None) -> np.ndarray:
    """Exact Jacobian of the Pearson residuals in optimizer space.

    ``x`` of shape (..., 9) gives shape (..., 12, 9).  The chain rule
    through ``_predicted_flat``: a row's q1 = route*s1 and
    q2 = route*s2 move with the gradients of its route weight (in alpha_sq,
    t1, t4) and of its two splits (in t2, t3, eta1, eta2), and
    dC1/dq1 = M - 2*P*q1, dC2/dq2 = M - 2*P*q2, dC12/dq1 = 2*P*q2 and
    dC12/dq2 = 2*P*q1.  Every count is linear in N, which is searched in
    log10, so its column is ln(10)*C; dM/dgamma = dP/dgamma = N gives the
    gamma column.  Each row is then scaled by the residual's derivative
    (p + o)/(2*p^(3/2)), or by 1e6 where the 1e-12 guard holds p.
    ``pred``, the predicted counts at x, is computed when not given.
    """
    x = np.asarray(x, dtype=float)
    points = x.reshape(-1, 9)
    pred = _model(points) if pred is None else np.reshape(pred, (-1, 12))
    alpha_sq, t1, t2, t3, t4, eta1, eta2, n_events, gamma = params = _unpack(points)
    (a, b, c, d), (e1, e2, f1, f2) = _route_factors(*params[:7])
    # Gradients in (alpha_sq, t1, t2, t3, t4, eta1, eta2) of the route
    # weights, rows ++, +-, -+, --, and of the splits E1, E2, F1, F2.
    d_route = np.zeros((len(points), 4, 7))
    d_route[:, :, 0] = np.stack([t1, 1.0 - t1, t4 - 1.0, -t4], axis=-1)
    d_route[:, 0, 1], d_route[:, 1, 1] = alpha_sq, -alpha_sq
    d_route[:, 2, 4], d_route[:, 3, 4] = alpha_sq - 1.0, 1.0 - alpha_sq
    d_split = np.zeros((len(points), 4, 7))
    d_split[:, 0, 2], d_split[:, 0, 5] = -eta1, 1.0 - t2
    d_split[:, 1, 2], d_split[:, 1, 6] = eta2, t2
    d_split[:, 2, 3], d_split[:, 2, 5] = eta1, t3
    d_split[:, 3, 3], d_split[:, 3, 6] = -eta2, 1.0 - t3
    route = np.stack([a, b, c, d], axis=-1)
    s1 = np.stack([e1, f1, e1, f1], axis=-1)
    s2 = np.stack([e2, f2, e2, f2], axis=-1)
    q1, q2 = route * s1, route * s2
    dq1 = s1[..., None] * d_route + route[..., None] * d_split[:, [0, 2, 0, 2]]
    dq2 = s2[..., None] * d_route + route[..., None] * d_split[:, [1, 3, 1, 3]]
    n_events, gamma = n_events[:, None], gamma[:, None]
    m = n_events * (1.0 + gamma)
    pair = n_events * gamma

    jac = np.empty((len(points), 4, 3, 9))
    jac[:, :, 0, :7] = (m - 2.0 * pair * q1)[..., None] * dq1
    jac[:, :, 1, :7] = (m - 2.0 * pair * q2)[..., None] * dq2
    jac[:, :, 2, :7] = 2.0 * pair[..., None] * (q2[..., None] * dq1 + q1[..., None] * dq2)
    jac[:, :, :, 7] = math.log(10.0) * pred.reshape(-1, 4, 3)
    jac[:, :, 0, 8] = n_events * (q1 - q1 * q1)
    jac[:, :, 1, 8] = n_events * (q2 - q2 * q2)
    jac[:, :, 2, 8] = 2.0 * n_events * q1 * q2
    guarded = np.maximum(pred, 1e-12)
    scale = np.where(pred > 1e-12, (pred + obs) / (2.0 * guarded * np.sqrt(guarded)), 1e6)
    return (jac.reshape(-1, 12, 9) * scale[..., None]).reshape(x.shape[:-1] + (12, 9))


def _levenberg_marquardt(starts: np.ndarray, obs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Projected Levenberg-Marquardt descent from every start in lockstep.

    Each iteration solves the damped normal equations of every unfinished
    start in one batch, (J^T J + lambda*diag(J^T J)) dx = -J^T r in
    Marquardt's scaling, clips the new point to the box and keeps it only
    where it lowers sum(r^2).  A parameter on a bound that the gradient
    pushes outward is held there for the step.  Each start adapts its own
    damping by the ratio rho of the actual to the linearly predicted
    decrease (Nielsen's rule, above ``_DAMPING_FLOOR``), and stops once its
    step, or both the actual and the predicted decrease, falls to
    ``_FIT_TOL`` (relative to the point and to 1 + sum(r^2)).  Finished
    starts leave the batch.

    Returns
    -------
    (ndarray, ndarray)
        End points, shape (S, 9), and per start whether it met a stopping
        test within ``_FIT_MAX_ITER`` iterations.
    """
    x = starts.copy()
    pred = _model(x)
    res = _pearson_residuals(pred, obs)
    cost = np.einsum("ij,ij->i", res, res)
    jac = _pearson_jacobian(x, obs, pred)
    damping = np.full(len(x), 1e-3)
    growth = np.full(len(x), 2.0)
    done = np.zeros(len(x), dtype=bool)
    active = np.arange(len(x))
    diagonal = np.arange(9)
    for _ in range(_FIT_MAX_ITER):
        if not active.size:
            break
        j, r, here, before = jac[active], res[active], x[active], cost[active]
        normal = j.swapaxes(1, 2) @ j
        grad = np.einsum("ikj,ik->ij", j, r)
        diag = normal[:, diagonal, diagonal]
        # A parameter on a bound that the gradient pushes outward stays
        # there: its scale is zero, which drops it from the solve.
        pinned = ((here <= _X_LO) & (grad > 0.0)) | ((here >= _X_HI) & (grad < 0.0))
        scale = np.where(pinned, 0.0, 1.0 / np.sqrt(np.where(diag > 0.0, diag, 1.0)))
        damped = normal * scale[:, :, None] * scale[:, None, :]
        damped[:, diagonal, diagonal] += np.where(pinned, 1.0, damping[active, None])
        step = -scale * np.linalg.solve(damped, (scale * grad)[..., None])[..., 0]
        trial = np.clip(here + step, _X_LO, _X_HI)
        moved = trial - here
        trial_pred = _model(trial)
        trial_res = _pearson_residuals(trial_pred, obs)
        after = np.einsum("ij,ij->i", trial_res, trial_res)
        linear = r + np.einsum("ikj,ij->ik", j, moved)
        expected = before - np.einsum("ij,ij->i", linear, linear)
        actual = before - after
        rho = np.divide(actual, expected, out=np.zeros_like(actual), where=expected > 0.0)
        accept = actual > 0.0

        shrink = np.maximum(1.0 / 3.0, 1.0 - (2.0 * np.minimum(rho, 1.0) - 1.0) ** 3)
        damping[active] = np.maximum(
            np.where(accept, damping[active] * shrink, damping[active] * growth[active]),
            _DAMPING_FLOOR,
        )
        growth[active] = np.where(accept, 2.0, 2.0 * growth[active])

        moved_to = active[accept]
        x[moved_to], res[moved_to], cost[moved_to] = trial[accept], trial_res[accept], after[accept]
        jac[moved_to] = _pearson_jacobian(trial[accept], obs, trial_pred[accept])

        small_step = np.linalg.norm(moved, axis=1) <= _FIT_TOL * (
            _FIT_TOL + np.linalg.norm(here, axis=1)
        )
        tol = _FIT_TOL * (1.0 + before)
        stop = small_step | ((np.abs(actual) <= tol) & (expected <= tol))
        done[active[stop]] = True
        active = active[~stop]
    return x, done


def fit_gamma(observed: CountVector12, n_starts: int = 50, seed: int = 0) -> GammaFitResult:
    """Fit the nine count-model parameters to an observed table.

    Minimizes the sum of squared Pearson residuals from the box center and
    from each of ``n_starts`` random starting points inside
    ``FIT_BOUNDS``, all at once: one projected Levenberg-Marquardt
    iteration (Levenberg 1944, Marquardt 1963) advances every start in
    lockstep, with the exact Jacobian :func:`_pearson_jacobian` and steps
    clipped to the box.  The start whose end point has the lowest
    chi-squared wins, the first one on a tie.  The count scale is searched
    on a log axis.

    The chi-squared landscape is exactly flat along the two-dimensional
    count-equivalent family of the module docstring.  That does not hinder
    the solves: the residuals do not change along the family, so a start
    that reaches the optimum reaches some member of it, and any member
    serves (on the bundled table every seed gives the same canonical gamma
    to 1e-9).  The returned parameters are the family's
    :func:`canonical_gauge` representative (eta1 = eta2 = 0.6, no
    clipping).  Quantities that differ between family members (gamma, the
    count scale, the splitter and efficiency parameters) are therefore
    reported under that convention, and they may lie outside
    ``FIT_BOUNDS``, which bound the search, not the answer.

    Parameters
    ----------
    observed : CountVector12
        Measured singles and coincidences.
    n_starts : int
        Number of random starts besides the box center, >= 0.
    seed : int
        Seed of the start stream.

    Returns
    -------
    GammaFitResult
        Best parameters, their chi-squared value and a convergence flag:
        True when the winning start met its stopping test within the
        iteration cap and the chi-squared is finite.

    Raises
    ------
    ValueError
        If ``n_starts`` is not a nonnegative integer, or if an observed
        count exceeds about 2.9e59.  Counts up to o bound the residuals by
        about 1e6*o (the 1e-12 guard) and the Jacobian entries by about
        5e17*o*ln(10)*1.05e7 (the guard and ``FIT_BOUNDS``); the limit
        holds their product to 1e150, so the solver's sums J^T J, J^T r
        and r^T r and its damped solve stay finite.  ``_COUNT_LIMIT`` has
        the derivation.
    """
    if isinstance(n_starts, bool) or not isinstance(n_starts, int) or n_starts < 0:
        raise ValueError(f"n_starts must be an integer >= 0, got {n_starts!r}")
    for label, row in zip(SET_LABELS, observed.values.tolist()):
        for name, value in zip(("C1", "C2", "C12"), row):
            if value > _COUNT_LIMIT:
                raise ValueError(
                    f"count {name} of set {label} is {value:g},"
                    f" above the fit's limit {_COUNT_LIMIT:.3g}"
                )

    obs = observed.flat
    rng = np.random.default_rng(seed)
    starts = [0.5 * (_X_LO + _X_HI)]
    for _ in range(n_starts):
        starts.append(rng.uniform(_X_LO, _X_HI))
    ends, done = _levenberg_marquardt(np.array(starts), obs)
    best = int(np.argmin(_guarded_chi2(obs, _model(ends))))
    params = canonical_gauge(GammaFitParams(*_unpack(ends[best])))
    chi2 = _guarded_chi2(obs, predicted_counts(params).flat)
    return GammaFitResult(params, chi2, bool(done[best]) and math.isfinite(chi2))


def fit_report(result: GammaFitResult) -> Dict[str, object]:
    """JSON-ready summary of a fit: parameters, chi2 and modified bounds."""
    bounds = modified_bounds(result.params.gamma)
    return {
        "params": {name: getattr(result.params, name) for name in _PARAM_NAMES},
        "chi2": result.chi2,
        "converged": result.converged,
        "lgi_bound": bounds.lgi_bound,
        "wlgi_bound": bounds.wlgi_bound,
    }


def load_counts_csv(path) -> CountVector12:
    """Read a count table from CSV with columns set_label, C1, C2, C12.

    A short row or a count that is not a number raises ``ValueError``
    naming the row.
    """
    rows = {}
    for where, record in read_rows(path, ("set_label", "C1", "C2", "C12")):
        label = record["set_label"]
        if label not in SET_LABELS:
            raise ValueError(f"{where}: unknown set label {label!r}")
        if label in rows:
            raise ValueError(f"{where}: repeats set label {label!r}")
        rows[label] = [number(where, record, name) for name in ("C1", "C2", "C12")]
    missing = [label for label in SET_LABELS if label not in rows]
    if missing:
        raise ValueError(f"count table is missing set labels {missing}")
    return CountVector12(np.array([rows[label] for label in SET_LABELS]))


def save_counts_csv(path, counts: CountVector12) -> None:
    """Write a count table to CSV with columns set_label, C1, C2, C12."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["set_label", "C1", "C2", "C12"])
        for label, row in zip(SET_LABELS, counts.values.tolist()):
            writer.writerow([label, repr(row[0]), repr(row[1]), repr(row[2])])


def reference_counts() -> CountVector12:
    """The bundled measured count table of the four configurations."""
    path = resources.files("macroreal") / "_data" / "gamma_counts.csv"
    with resources.as_file(path) as fspath:
        return load_counts_csv(fspath)
