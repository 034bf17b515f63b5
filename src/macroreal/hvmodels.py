"""Detection-efficiency hidden-variable models and their macrorealist bounds.

A photon's fate is predetermined by a hidden state: whether it would be
detected at each of the three measurement times, and which outcome triple
(q1, q2, q3) it would produce.  The state space splits into seven detection
classes -- ``q`` (detected at t1 only), ``p`` (t2 only), ``s`` (t3 only),
``a`` (t1 and t2), ``b`` (t2 and t3), ``c`` (t1 and t3) and ``d`` (all
three) -- each carrying a weight for every one of the eight outcome
triples: 56 nonnegative numbers in total.  Equal detector efficiency
``eta`` fixes the total weight of each time's detection classes, and the
grand total is at most one (the remainder is never detected).

Under fair sampling, a detector-only experiment estimates each probability
from post-selected coincidences, which turns the tested combinations into
ratios of these weights.  This module evaluates those ratios, maximizes
them over all admissible weight assignments, and contrasts the result with
the blocker-based setup, whose macrorealist bounds do not depend on
``eta`` at all.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, NamedTuple, Sequence, Tuple

import numpy as np

from .protocol import ARM_LABELS, BOUNDS, evaluate, joint_tables, path_cells

__all__ = [
    "BLOCK_NAMES",
    "BoundCertificate",
    "DegenerateModelError",
    "HVWeights",
    "TRIPLES",
    "blocker_setup_bound",
    "blocker_setup_formula",
    "critical_efficiency",
    "detector_certificates",
    "lgi_detectors_bound_formula",
    "lgi_detectors_value",
    "low_efficiency_witness",
    "lgi_high_efficiency_witness",
    "maximize_lgi_detectors",
    "maximize_wlgi_detectors",
    "ProbeFinding",
    "project_feasible",
    "weight_index",
    "wlgi_detectors_bound_formula",
    "wlgi_detectors_value",
    "wlgi_high_efficiency_witness",
]

#: Detection classes, in storage order.
BLOCK_NAMES = ("q", "p", "s", "a", "b", "c", "d")

#: Outcome triples (q1, q2, q3), in storage order.
TRIPLES: Tuple[Tuple[int, int, int], ...] = tuple(itertools.product((+1, -1), repeat=3))

_BLOCK_SLICES = {name: slice(8 * i, 8 * (i + 1)) for i, name in enumerate(BLOCK_NAMES)}

# Classes detected at each time: t1 -> {q,a,c,d}, t2 -> {p,a,b,d}, t3 -> {s,b,c,d}.
_TIME_CLASSES = (("q", "a", "c", "d"), ("p", "a", "b", "d"), ("s", "b", "c", "d"))


class DegenerateModelError(ValueError):
    """Raised when a measured-run denominator vanishes (no detected photons)."""


def weight_index(block: str, triple: Tuple[int, int, int]) -> int:
    """Flat index of one weight, addressed by class name and outcome triple."""
    if block not in BLOCK_NAMES:
        raise ValueError(f"unknown detection class {block!r}")
    return 8 * BLOCK_NAMES.index(block) + TRIPLES.index(tuple(triple))


@dataclass(frozen=True)
class HVWeights:
    """The 56 subspace weights of the hidden-variable model.

    ``values`` is a flat array ordered by detection class
    (:data:`BLOCK_NAMES`), each holding eight outcome-triple weights in
    :data:`TRIPLES` order.
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.values, dtype=float).copy()
        if arr.shape != (56,):
            raise ValueError(f"expected 56 weights, got shape {arr.shape}")
        if np.any(arr < 0.0):
            raise ValueError("weights must be nonnegative")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @classmethod
    def from_assignments(
        cls, assignments: Mapping[Tuple[str, Tuple[int, int, int]], float]
    ) -> "HVWeights":
        """Build sparse weights from {(class, outcome triple): weight}."""
        arr = np.zeros(56)
        for (block, triple), value in assignments.items():
            arr[weight_index(block, triple)] = value
        return cls(arr)

    def block(self, name: str) -> np.ndarray:
        return self.values[_BLOCK_SLICES[name]]

    def block_total(self, name: str) -> float:
        return float(self.block(name).sum())

    @property
    def total(self) -> float:
        return float(self.values.sum())

    def detection_totals(self) -> Tuple[float, float, float]:
        """Total weight detected at t1, t2 and t3 (each must equal eta)."""
        return tuple(
            float(sum(self.block_total(b) for b in classes)) for classes in _TIME_CLASSES
        )

    def is_feasible(self, eta: float, tol: float = 1e-9) -> bool:
        if self.total > 1.0 + tol:
            return False
        return all(abs(s - eta) <= tol for s in self.detection_totals())


@dataclass(frozen=True)
class ProbeFinding:
    """A randomized-search assignment whose value exceeds the witness bound."""

    value: float
    weights: HVWeights


@dataclass(frozen=True)
class BoundCertificate:
    """Result of a bound maximization.

    Attributes
    ----------
    eta : float
        Detector efficiency.
    bound : float
        Value achieved by the known extremal witness assignment for this
        efficiency regime (it equals ``formula_value`` up to float
        rounding).  A feasible assignment attains it, so it is a *lower*
        bound on the maximum over all admissible weights, not a certified
        upper bound: the probe's findings can exceed it (2.98 > 8/3 at
        eta = 0.5).  In support-restricted diagnostic mode this is instead
        the best value found on the restricted slice.
    witness : HVWeights
        Weight assignment achieving ``bound``.
    formula_value : float
        Closed-form prediction for the same bound.
    findings : tuple of ProbeFinding
        Assignments discovered by the randomized probe whose value exceeds
        ``bound`` by more than the solver tolerance.  The
        post-selected ratio expressions can be pushed past the piecewise
        closed form by concentrating weight on detection classes exclusive
        to a single time, so such discoveries are surfaced for inspection
        rather than silently adopted as the bound.
    """

    eta: float
    bound: float
    witness: HVWeights
    formula_value: float
    findings: Tuple[ProbeFinding, ...] = ()


def _block_views(w: np.ndarray) -> Dict[str, np.ndarray]:
    return {name: w[..., _BLOCK_SLICES[name]] for name in BLOCK_NAMES}


def _lgi_fractions(w: np.ndarray):
    """Numerators and denominators of the six correlator ratios.

    Accepts weights of shape (..., 56); returns two arrays of shape
    (..., 6).  The combination follows the post-selected correlators: each
    two-time correlator splits into the ratio conditioned on the early
    outcome being +1 and the one conditioned on -1.
    """
    B = _block_views(w)
    acdp = B["a"] + B["c"] + B["d"] + B["p"]
    bcds = B["b"] + B["c"] + B["d"] + B["s"]
    tot = {name: B[name].sum(axis=-1) for name in BLOCK_NAMES}

    def s(arr, idx):
        return arr[..., list(idx)].sum(axis=-1)

    first, second = (0, 1, 2, 3), (4, 5, 6, 7)
    cp, bq, bs, ap, cs, aq = (
        B["c"] + B["p"],
        B["b"] + B["q"],
        B["b"] + B["s"],
        B["a"] + B["p"],
        B["c"] + B["s"],
        B["a"] + B["q"],
    )
    nums = np.stack(
        [
            s(acdp, (0, 1)) - s(acdp, (2, 3)),
            s(acdp, (6, 7)) - s(acdp, (4, 5)),
            s(bcds, (0, 4)) - s(bcds, (1, 5)),
            s(bcds, (3, 7)) - s(bcds, (2, 6)),
            s(bcds, (0, 2)) - s(bcds, (1, 3)),
            s(bcds, (5, 7)) - s(bcds, (4, 6)),
        ],
        axis=-1,
    )
    dens = np.stack(
        [
            tot["a"] + tot["d"] + s(cp, first) + s(bq, second),
            tot["a"] + tot["d"] + s(cp, second) + s(bq, first),
            tot["c"] + tot["d"] + s(bs, (0, 1, 4, 5)) + s(ap, (2, 3, 6, 7)),
            tot["c"] + tot["d"] + s(bs, (2, 3, 6, 7)) + s(ap, (0, 1, 4, 5)),
            tot["b"] + tot["d"] + s(cs, first) + s(aq, second),
            tot["b"] + tot["d"] + s(cs, second) + s(aq, first),
        ],
        axis=-1,
    )
    return nums, dens


_LGI_SIGNS = np.array([1.0, 1.0, 1.0, 1.0, -1.0, -1.0])


def _wlgi_fractions(w: np.ndarray):
    """Numerators/denominators of the three post-selected (-,+) ratios."""
    B = _block_views(w)
    acdp = B["a"] + B["c"] + B["d"] + B["p"]
    bcds = B["b"] + B["c"] + B["d"] + B["s"]
    tot = {name: B[name].sum(axis=-1) for name in BLOCK_NAMES}

    def s(arr, idx):
        return arr[..., list(idx)].sum(axis=-1)

    nums = np.stack(
        [s(bcds, (4, 6)), s(acdp, (4, 5)), s(bcds, (2, 6))],
        axis=-1,
    )
    dens = np.stack(
        [
            tot["b"] + tot["d"] + s(B["c"] + B["s"], (4, 5, 6, 7)) + s(B["a"] + B["q"], (0, 1, 2, 3)),
            tot["a"] + tot["d"] + s(B["c"] + B["p"], (4, 5, 6, 7)) + s(B["b"] + B["q"], (0, 1, 2, 3)),
            tot["c"] + tot["d"] + s(B["b"] + B["s"], (2, 3, 6, 7)) + s(B["a"] + B["p"], (0, 1, 4, 5)),
        ],
        axis=-1,
    )
    return nums, dens


_WLGI_SIGNS = np.array([1.0, -1.0, -1.0])


class _RatioMap(NamedTuple):
    """A signed sum of ratios whose numerators and denominators are linear in w.

    ``num`` and ``den`` have shape (56, k): row j holds the k numerators and
    denominators of the unit weight e_j, so ``w @ num`` and ``w @ den`` give
    those of any w.
    """

    num: np.ndarray
    den: np.ndarray
    signs: np.ndarray


_LGI = _RatioMap(*_lgi_fractions(np.eye(56)), _LGI_SIGNS)
_WLGI = _RatioMap(*_wlgi_fractions(np.eye(56)), _WLGI_SIGNS)


def _ratio_value_batch(w: np.ndarray, ratios: _RatioMap) -> np.ndarray:
    """Signed ratio sum per row of w (..., 56); -inf where any denominator vanishes.

    Each row's value is the same bits however the rows are batched: the
    products are plain ``einsum`` loops, where BLAS ``w @ num`` rounds a
    row differently alone and inside a matrix.
    """
    nums = np.einsum("...i,ij->...j", w, ratios.num)
    dens = np.einsum("...i,ij->...j", w, ratios.den)
    positive = dens > 0.0
    vals = np.einsum("...j,j->...", nums / np.where(positive, dens, 1.0), ratios.signs)
    return np.where(np.all(positive, axis=-1), vals, -np.inf)


def _as_array(w) -> np.ndarray:
    if isinstance(w, HVWeights):
        return w.values
    arr = np.asarray(w, dtype=float)
    if arr.shape != (56,):
        raise ValueError(f"expected 56 weights, got shape {arr.shape}")
    return arr


def _detectors_value(w, ratios: _RatioMap) -> float:
    value = _ratio_value_batch(_as_array(w), ratios)
    if value == -np.inf:
        raise DegenerateModelError("a measured run collects no photons; value undefined")
    return float(value)


def lgi_detectors_value(w) -> float:
    """Post-selected correlator combination of the detector-only setup.

    Evaluates the six-ratio expression whose numerators carry the signed
    outcome weights and whose denominators count all photons surviving the
    post-selection of each measured run.

    Raises
    ------
    DegenerateModelError
        If any of the six denominators is zero.
    """
    return _detectors_value(w, _LGI)


def wlgi_detectors_value(w) -> float:
    """Post-selected probability combination of the detector-only setup.

    Raises
    ------
    DegenerateModelError
        If any of the three denominators is zero.
    """
    return _detectors_value(w, _WLGI)


def lgi_detectors_bound_formula(eta: float) -> float:
    """Closed-form macrorealist bound of the detector-only correlator form.

    Piecewise 8/3 below efficiency 2/3 and ``2/eta - eta`` at or above it
    (the bound is discontinuous at 2/3; the high side follows the
    at-least-2/3 branch).
    """
    _check_eta(eta)
    return 8.0 / 3.0 if eta < 2.0 / 3.0 else 2.0 / eta - eta


def wlgi_detectors_bound_formula(eta: float) -> float:
    """Closed-form macrorealist bound of the detector-only probability form."""
    _check_eta(eta)
    return 1.0 if eta < 2.0 / 3.0 else (1.0 - eta) / (2.0 * eta - 1.0)


def _check_eta(eta) -> None:
    """Reject an efficiency, or any of an array of them, outside (0, 1]."""
    arr = np.asarray(eta)
    if not np.all((0.0 < arr) & (arr <= 1.0)):
        raise ValueError(f"eta must lie in (0, 1], got {eta}")


def low_efficiency_witness(eta: float) -> HVWeights:
    """Assignment reaching the low-efficiency bounds (8/3 and 1)."""
    _check_eta(eta)
    h = eta / 2.0
    return HVWeights.from_assignments(
        {
            ("a", (-1, -1, +1)): h,
            ("b", (-1, +1, +1)): h,
            ("c", (+1, +1, +1)): h,
        }
    )


def lgi_high_efficiency_witness(eta: float) -> HVWeights:
    """Assignment reaching ``2/eta - eta`` for efficiency >= 2/3."""
    if not 2.0 / 3.0 <= eta <= 1.0:
        raise ValueError(f"witness requires eta >= 2/3, got {eta}")
    e = 1.0 - eta
    return HVWeights.from_assignments(
        {
            ("a", (+1, +1, +1)): e,
            ("b", (+1, -1, -1)): e,
            ("c", (+1, +1, +1)): e,
            ("d", (+1, +1, +1)): 3.0 * eta - 2.0,
        }
    )


def wlgi_high_efficiency_witness(eta: float) -> HVWeights:
    """Assignment reaching ``(1-eta)/(2 eta - 1)`` for efficiency >= 2/3."""
    if not 2.0 / 3.0 <= eta <= 1.0:
        raise ValueError(f"witness requires eta >= 2/3, got {eta}")
    e = 1.0 - eta
    return HVWeights.from_assignments(
        {
            ("a", (-1, -1, +1)): e,
            ("b", (-1, +1, +1)): e,
            ("c", (+1, +1, +1)): e,
            ("d", (+1, +1, +1)): 3.0 * eta - 2.0,
        }
    )


# Rows t1, t2, t3: block indices of the shared classes detected at that time.
_SHARED_OF_TIME = np.array(
    [[BLOCK_NAMES.index(name) for name in classes[1:]] for classes in _TIME_CLASSES]
)


def project_feasible(weights: np.ndarray, eta) -> np.ndarray:
    """Map arbitrary weight vectors onto the constraint set.

    Works on arrays of shape (..., 56).  ``eta`` is one efficiency or an
    array of them that broadcasts over ``weights.shape[:-1]``, one per
    weight vector.  The result is nonnegative, each time's detection total
    equals that vector's ``eta`` exactly, and the grand total is at most
    one.  Points already satisfying the constraints are returned unchanged,
    so the projection parameterizes the whole feasible set.  Every step
    acts on one vector at a time, so a vector's result does not depend on
    the batch it is projected in.

    The steps: clip negatives; scale the shared classes (a, b, c, d) down
    if any time's shared weight exceeds ``eta``; if topping the exclusive
    classes up to ``eta`` would push the total past one, blend the shared
    mass toward a pure-d assignment (which supports total exactly one);
    finally rescale or fill the exclusive classes q, p, s so each time's
    total is exactly ``eta``.
    """
    eta = np.asarray(eta, dtype=float)
    _check_eta(eta)
    w = np.maximum(np.asarray(weights, dtype=float), 0.0)
    blocks = w.reshape(w.shape[:-1] + (7, 8))  # classes in BLOCK_NAMES order
    excl, shared, d_block = blocks[..., :3, :], blocks[..., 3:, :], blocks[..., 6, :]

    def shared_at_times(totals):
        return totals.take(_SHARED_OF_TIME, axis=-1).sum(axis=-1)

    # eta / max(m, eta) is eta / m where m > eta and exactly 1 elsewhere.
    m = shared_at_times(blocks.sum(axis=-1)).max(axis=-1)
    shared *= (eta / np.maximum(m, eta))[..., None, None]

    # If sum_i (eta - shared_i) + shared_total exceeds 1, blend toward the
    # pure-d assignment: g = A+B+C+2D rises to 3 eta - 1, the exact budget.
    totals = blocks.sum(axis=-1)
    d_tot = totals[..., 6]
    g = totals[..., 3:6].sum(axis=-1) + 2.0 * d_tot
    deficit = (3.0 * eta - 1.0) - g
    t = np.divide(deficit, 2.0 * eta - g, out=np.zeros(deficit.shape), where=deficit > 0.0)
    d_shape = np.divide(
        d_block, d_tot[..., None], out=np.full(d_block.shape, 0.125), where=(d_tot > 0.0)[..., None]
    )
    shared *= (1.0 - t)[..., None, None]
    d_block += (t * eta)[..., None] * d_shape

    totals = blocks.sum(axis=-1)
    need = np.maximum(eta[..., None] - shared_at_times(totals), 0.0)
    e_tot = totals[..., :3]
    filled = e_tot > 0.0
    factor = np.divide(need, e_tot, out=np.zeros(need.shape), where=filled)
    excl[...] = np.where(filled[..., None], excl * factor[..., None], (need / 8.0)[..., None])
    return blocks.reshape(w.shape)


def _sparse_start(rng: np.random.Generator, eta: float) -> np.ndarray:
    w = np.zeros(56)
    k = int(rng.integers(1, 5))
    idx = rng.choice(56, size=k, replace=False)
    w[idx] = rng.uniform(0.0, eta, size=k)
    return w


def _witness_starts(eta: float) -> list:
    starts = [low_efficiency_witness(eta).values]
    if eta >= 2.0 / 3.0:
        starts.append(lgi_high_efficiency_witness(eta).values)
        starts.append(wlgi_high_efficiency_witness(eta).values)
    pure_d = np.zeros(56)
    pure_d[weight_index("d", (+1, +1, +1))] = eta
    starts.append(pure_d)
    uniform_d = np.zeros(56)
    uniform_d[_BLOCK_SLICES["d"]] = eta / 8.0
    starts.append(uniform_d)
    return starts


def _certification_witness(inequality: str, eta: float) -> HVWeights:
    """Extremal witness assignment for the efficiency regime."""
    if eta < 2.0 / 3.0:
        return low_efficiency_witness(eta)
    if inequality == "LGI":
        return lgi_high_efficiency_witness(eta)
    return wlgi_high_efficiency_witness(eta)


# scipy's non-adaptive Nelder-Mead: reflection, expansion, contraction and
# shrink coefficients, and the initial simplex's relative and zero steps.
_RHO, _CHI, _PSI, _SIGMA = 1, 2, 0.5, 0.5
_NONZDELT, _ZDELT = 0.05, 0.00025

# Per-start budget and stopping tolerances of the probe's local search.
_MAXFEV, _XATOL, _FATOL = 4000, 1e-7, 1e-10


def _sorted_simplex(sim: np.ndarray, fsim: np.ndarray):
    """Each simplex reordered by ``np.argsort`` of its values, as scipy does."""
    n_runs, n_vert, n = sim.shape
    rows = np.argsort(fsim, axis=-1) + n_vert * np.arange(n_runs)[:, None]
    return (
        sim.reshape(-1, n).take(rows.ravel(), axis=0).reshape(sim.shape),
        fsim.take(rows),
    )


def _nelder_mead_batch(func, x0: np.ndarray, maxfev: int = _MAXFEV):
    """Minimize ``func`` over [0, 1]^N from every row of ``x0``, in lockstep.

    Each start takes exactly the steps of scipy's bounded, non-adaptive
    ``minimize(method="Nelder-Mead")`` with options ``maxfev``, ``xatol``
    (``_XATOL``) and ``fatol`` (``_FATOL``), so it ends at the same
    (x, fun, nfev).  That includes scipy's bookkeeping: the simplex is
    argsorted and reordered after every step, and the centroid is
    ``np.add.reduce`` over the sorted vertices.  A start whose budget runs
    out inside a step stops as scipy's does: an expansion or contraction
    it cannot evaluate changes nothing, and a shrink cut short has moved
    one more vertex than it evaluated.  What differs is that every start's
    evaluations of a step go to ``func`` as one batch.

    ``func(points, owners)`` takes an (M, N) array of points and the index
    of the start each point belongs to, and returns the M values.  It must
    give each point the same value however the points are batched.
    Returns the (B, N) best points, their (B,) values and evaluation counts.
    """
    def evaluate(points: np.ndarray, owners: np.ndarray) -> np.ndarray:
        return func(points, owners) if owners.size else np.empty(0)

    x0 = np.clip(np.asarray(x0, dtype=float), 0.0, 1.0)
    n_runs, n = x0.shape
    sim = np.repeat(x0[:, None, :], n + 1, axis=1)
    diag = np.arange(n)
    sim[:, diag + 1, diag] = np.where(x0 != 0, (1 + _NONZDELT) * x0, _ZDELT)
    # Reflect a vertex stepped past the upper bound back into the box.
    sim = np.clip(np.where(sim > 1.0, 2.0 - sim, sim), 0.0, 1.0)

    n_first = min(n + 1, maxfev)
    calls = np.full(n_runs, n_first)
    fsim = np.full((n_runs, n + 1), np.inf)
    fsim[:, :n_first] = evaluate(
        sim[:, :n_first].reshape(-1, n), np.repeat(np.arange(n_runs), n_first)
    ).reshape(n_runs, n_first)
    # scipy sorts the initial simplex twice; an unstable sort may swap ties.
    sim, fsim = _sorted_simplex(*_sorted_simplex(sim, fsim))

    x_best, f_best, nfev = np.empty((n_runs, n)), np.empty(n_runs), np.empty(n_runs, dtype=int)
    owner = np.arange(n_runs)
    while owner.size:
        stop = calls >= maxfev
        flat = np.max(np.abs(fsim[:, :1] - fsim[:, 1:]), axis=1) <= _FATOL
        flat[flat] = np.max(np.abs(sim[flat, 1:] - sim[flat, :1]), axis=(1, 2)) <= _XATOL
        stop |= flat
        if stop.any():
            done = owner[stop]
            x_best[done], f_best[done], nfev[done] = sim[stop, 0], fsim[stop].min(axis=1), calls[stop]
            keep = ~stop
            owner, sim, fsim, calls = owner[keep], sim[keep], fsim[keep], calls[keep]
            if not owner.size:
                break

        xbar = np.add.reduce(sim[:, :-1], axis=1) / n
        worst, f_low, f_second, f_worst = sim[:, -1], fsim[:, 0], fsim[:, -2], fsim[:, -1]
        xr = np.clip((1 + _RHO) * xbar - _RHO * worst, 0.0, 1.0)
        fxr = evaluate(xr, owner)
        calls += 1

        expand = fxr < f_low
        accept = ~expand & (fxr < f_second)
        outside = ~expand & ~accept & (fxr < f_worst)
        replace = accept.copy()

        # One more evaluation: expansion, or outside or inside contraction.
        # A start without budget for it keeps its simplex (scipy's
        # _MaxFuncCallError), even after an improving reflection.
        idx = np.flatnonzero(~accept & (calls < maxfev))
        xb, wv, e, o = xbar[idx], worst[idx], expand[idx], outside[idx]
        y = np.where(
            e[:, None],
            (1 + _RHO * _CHI) * xb - _RHO * _CHI * wv,
            np.where(
                o[:, None], (1 + _PSI * _RHO) * xb - _PSI * _RHO * wv, (1 - _PSI) * xb + _PSI * wv
            ),
        )
        y = np.clip(y, 0.0, 1.0)
        fy = evaluate(y, owner[idx])
        calls[idx] += 1
        fr = fxr[idx]
        better = np.where(e, fy < fr, np.where(o, fy <= fr, fy < f_worst[idx]))
        replace[idx[e | better]] = True
        xr[idx[better]], fxr[idx[better]] = y[better], fy[better]
        shrink = idx[~(e | better)]
        sim[replace, -1], fsim[replace, -1] = xr[replace], fxr[replace]

        if shrink.size:
            # Vertex j moves if the budget allows j - 1 more calls, and is
            # evaluated if it allows j.
            left = maxfev - calls[shrink]
            j = np.arange(1, n + 1)
            move, scored = j <= left[:, None] + 1, j <= left[:, None]
            best = sim[shrink, :1]
            verts, fverts = sim[shrink, 1:], fsim[shrink, 1:]
            verts[move] = np.clip(best + _SIGMA * (verts - best), 0.0, 1.0)[move]
            fverts[scored] = evaluate(verts[scored], np.repeat(owner[shrink], scored.sum(axis=1)))
            sim[shrink, 1:], fsim[shrink, 1:] = verts, fverts
            calls[shrink] += scored.sum(axis=1)

        sim, fsim = _sorted_simplex(sim, fsim)
    return x_best, f_best, nfev


# The ratio maps and closed-form bounds of the two tested inequalities.
_INEQUALITIES = {
    "LGI": (_LGI, lgi_detectors_bound_formula),
    "WLGI": (_WLGI, wlgi_detectors_bound_formula),
}


def _certify(jobs, n_starts: int, seed: int, support) -> List[BoundCertificate]:
    """One certificate per (eta, inequality) job, every start in one search."""
    if n_starts < 0:
        raise ValueError(f"n_starts must be >= 0, got {n_starts}")
    for eta, name in jobs:
        _check_eta(eta)
        if name not in _INEQUALITIES:
            raise ValueError(f"inequality must be 'LGI' or 'WLGI', got {name!r}")
    if support is not None:
        support = list(support)
    dim = 56 if support is None else len(support)

    def embed(x: np.ndarray) -> np.ndarray:
        if support is None:
            return x
        w = np.zeros(x.shape[:-1] + (56,))
        w[..., support] = x
        return w

    starts, job_of = [], []
    for k, (eta, _) in enumerate(jobs):
        rng = np.random.default_rng(seed)
        mine = [w if support is None else w[support] for w in _witness_starts(eta)]
        for _ in range(n_starts):
            mine.append(_sparse_start(rng, eta) if support is None else rng.uniform(0.0, eta, size=dim))
        starts += mine
        job_of += [k] * len(mine)
    x0 = np.array(starts, dtype=float).reshape(-1, dim)
    job_of = np.array(job_of, dtype=int)
    etas = np.array([eta for eta, _ in jobs], dtype=float)[job_of]
    is_lgi = np.array([name == "LGI" for _, name in jobs], dtype=bool)[job_of]

    def values(x: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Probe value of each point; rows[i] is the start point i belongs to."""
        w = project_feasible(embed(x), etas[rows])
        lgi = is_lgi[rows]
        if lgi.all() or not lgi.any():
            return _ratio_value_batch(w, _LGI if lgi.all() else _WLGI)
        out = np.empty(len(rows))
        out[lgi] = _ratio_value_batch(w[lgi], _LGI)
        out[~lgi] = _ratio_value_batch(w[~lgi], _WLGI)
        return out

    # Each start is vertex 0 of its simplex, so f_opt is never worse than it.
    x_opt, f_opt, _ = _nelder_mead_batch(lambda x, rows: -values(x, rows), x0)

    certificates = []
    for k, (eta, name) in enumerate(jobs):
        ratios, formula = _INEQUALITIES[name]
        mine = np.flatnonzero(job_of == k)
        best = mine[np.argmin(f_opt[mine])]
        probe_val, probe_x = float(-f_opt[best]), x_opt[best]
        probe_w = project_feasible(embed(probe_x), eta)
        if support is not None:
            # Diagnostic mode: report the honest maximum on the slice.
            cert = BoundCertificate(eta, probe_val, HVWeights(probe_w), formula(eta))
        else:
            witness = _certification_witness(name, eta)
            bound = _detectors_value(witness, ratios)
            findings: Tuple[ProbeFinding, ...] = ()
            if probe_val > bound + 1e-6:
                findings = (ProbeFinding(probe_val, HVWeights(probe_w)),)
            cert = BoundCertificate(eta, bound, witness, formula(eta), findings)
        certificates.append(cert)
    return certificates


def detector_certificates(
    etas: Sequence[float], inequalities: Sequence[str], n_starts: int = 8, seed: int = 0
) -> List[BoundCertificate]:
    """Certify the detector-only bounds of every (eta, inequality) pair at once.

    Returns one :class:`BoundCertificate` per pair, eta-major: for each
    efficiency in ``etas`` (order and repeats kept), one per name in
    ``inequalities`` ("LGI" or "WLGI").  Each certificate equals the one
    :func:`maximize_lgi_detectors` or :func:`maximize_wlgi_detectors` gives
    for the same eta, ``n_starts`` and ``seed``: it keeps its own starts and
    its own random stream.  The local searches of all certificates run as
    one lockstep Nelder-Mead batch, so each of its steps projects and
    evaluates the points of every start together.
    """
    return _certify([(eta, name) for eta in etas for name in inequalities], n_starts, seed, None)


def maximize_lgi_detectors(
    eta: float, n_starts: int = 8, seed: int = 0, support: Sequence[int] | None = None
) -> BoundCertificate:
    """Maximize the detector-only correlator combination at efficiency eta.

    The reported bound is the value achieved by the extremal witness
    assignment for this efficiency regime, which makes it a lower bound on
    the maximum, not a certified upper bound.  A multistart local search over
    the 56 weights (seeded with the known extremal assignments plus random
    sparse supports, every candidate projected onto the constraint set)
    probes for assignments exceeding that value; any such excess is
    attached to the certificate as a finding rather than adopted as the
    bound.  The starts run as one lockstep batch of bounded Nelder-Mead
    searches (at most 4000 evaluations each); see
    :func:`detector_certificates` to certify many efficiencies in one batch.

    Parameters
    ----------
    eta : float
        Detector efficiency in (0, 1].
    n_starts : int
        Number of random restarts in addition to the seeded patterns; a
        negative count raises ``ValueError``.
    seed : int
        Seed of the restart stream.
    support : sequence of int, optional
        Restrict the search to these flat weight indices (diagnostic use).
        In this mode the bound is the best value found on the slice and
        no findings are reported.
    """
    return _certify([(eta, "LGI")], n_starts, seed, support)[0]


def maximize_wlgi_detectors(
    eta: float, n_starts: int = 8, seed: int = 0, support: Sequence[int] | None = None
) -> BoundCertificate:
    """Maximize the detector-only probability combination at efficiency eta.

    See :func:`maximize_lgi_detectors` for the search and for why the
    reported bound is a lower bound on the maximum.
    """
    return _certify([(eta, "WLGI")], n_starts, seed, support)[0]


def critical_efficiency(inequality: str) -> float:
    """Efficiency at which the detector-only bound meets the quantum maximum.

    Returns the closed-form root in (2/3, 1] of ``2/eta - eta = 3/2``
    (correlator form, quantum maximum 1.5), ``(-1.5 + sqrt(1.5**2 + 8))/2``,
    or of ``(1-eta)/(2 eta - 1) = 0.4034`` (probability form),
    ``(1 + 0.4034)/(1 + 2*0.4034)``.  Above the returned efficiency the
    detector-only experiment cannot be explained macrorealistically.
    """
    if inequality == "LGI":
        return (-1.5 + math.sqrt(1.5**2 + 8.0)) / 2.0
    if inequality == "WLGI":
        return (1.0 + 0.4034) / (1.0 + 2.0 * 0.4034)
    raise ValueError(f"inequality must be 'LGI' or 'WLGI', got {inequality!r}")


def blocker_setup_formula(inequality: str) -> float:
    """Efficiency-independent macrorealist bound of the blocker setup."""
    if inequality not in ("LGI", "WLGI"):
        raise ValueError(f"inequality must be 'LGI' or 'WLGI', got {inequality!r}")
    return BOUNDS[inequality.lower()]


def blocker_setup_bound(inequality: str, eta: float) -> BoundCertificate:
    """Macrorealist bound of the blocker-based setup at efficiency eta.

    With ideal blockers and detectors only at the final time, both tested
    expressions reduce to averages of their deterministic single-triple
    values over the detected subspace, with the efficiency canceling
    between numerator and denominator.  The optimum therefore sits on a
    deterministic outcome triple and is found by exact enumeration: 1 for
    the correlator form, 0 for the probability form, for every eta.
    """
    _check_eta(eta)
    formula = blocker_setup_formula(inequality)

    def value(triple: Tuple[int, int, int]) -> float:
        # A deterministic photon takes the triple's path whatever the t1 blocker.
        tables = joint_tables(path_cells(dict.fromkeys(ARM_LABELS, (triple,))))
        return float(getattr(evaluate(tables), inequality.lower()))

    best_triple = max(TRIPLES, key=value)
    witness = HVWeights.from_assignments({("d", best_triple): eta})
    return BoundCertificate(eta, value(best_triple), witness, formula)
