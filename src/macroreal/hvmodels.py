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
ratios of these weights.  This module evaluates those ratios, probes their
maximum over all admissible weight assignments with a deterministic scan of
the feasible polytope's vertices, and contrasts the result with the
blocker-based setup, whose macrorealist bounds do not depend on ``eta`` at
all.
"""

from __future__ import annotations

import functools
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
    """A feasible assignment from the vertex scan whose value exceeds the witness bound."""

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
        upper bound: the vertex scan's findings can exceed it (4 > 8/3 at
        eta = 0.5).  In support-restricted diagnostic mode this is instead
        the scan's best value on the restricted slice.
    witness : HVWeights
        Weight assignment achieving ``bound``.
    formula_value : float
        Closed-form prediction for the same bound.
    findings : tuple of ProbeFinding
        The vertex scan's best assignment, if its value exceeds ``bound``
        by more than 1e-6.  The post-selected ratio expressions can be
        pushed past the piecewise closed form by concentrating weight on
        detection classes exclusive to a single time, so such discoveries
        are surfaced for inspection rather than silently adopted as the
        bound.
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


def _as_array(w) -> np.ndarray:
    if isinstance(w, HVWeights):
        return w.values
    arr = np.asarray(w, dtype=float)
    if arr.shape != (56,):
        raise ValueError(f"expected 56 weights, got shape {arr.shape}")
    return arr


def _detectors_value(w, ratios: _RatioMap) -> float:
    """Signed ratio sum of one weight vector.

    The products are plain ``einsum`` loops rather than BLAS, so a value
    written to ``hv_bounds.json`` does not depend on the BLAS installed.
    """
    w = _as_array(w)
    dens = np.einsum("i,ij->j", w, ratios.den)
    if not np.all(dens > 0.0):
        raise DegenerateModelError("a measured run collects no photons; value undefined")
    return float(np.einsum("j,j->", np.einsum("i,ij->j", w, ratios.num) / dens, ratios.signs))


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


def _check_eta(eta: float) -> None:
    """Reject an efficiency outside (0, 1]."""
    if not 0.0 < eta <= 1.0:
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


def project_feasible(weights: np.ndarray, eta: float) -> np.ndarray:
    """Map arbitrary weight vectors onto the constraint set at efficiency eta.

    Works on arrays of shape (..., 56).  The result is nonnegative, each
    time's detection total equals ``eta`` exactly, and the grand total is
    at most one.  Points already satisfying the constraints are returned
    unchanged, so the projection parameterizes the whole feasible set.
    Every step acts on one vector at a time, so a vector's result does not
    depend on the batch it is projected in.

    The steps: clip negatives; scale the shared classes (a, b, c, d) down
    if any time's shared weight exceeds ``eta``; if topping the exclusive
    classes up to ``eta`` would push the total past one, blend the shared
    mass toward a pure-d assignment (which supports total exactly one);
    finally rescale or fill the exclusive classes q, p, s so each time's
    total is exactly ``eta``.
    """
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
    need = np.maximum(eta - shared_at_times(totals), 0.0)
    e_tot = totals[..., :3]
    filled = e_tot > 0.0
    factor = np.divide(need, e_tot, out=np.zeros(need.shape), where=filled)
    excl[...] = np.where(filled[..., None], excl * factor[..., None], (need / 8.0)[..., None])
    return blocks.reshape(w.shape)


def _certification_witness(inequality: str, eta: float) -> HVWeights:
    """Extremal witness assignment for the efficiency regime."""
    if eta < 2.0 / 3.0:
        return low_efficiency_witness(eta)
    if inequality == "LGI":
        return lgi_high_efficiency_witness(eta)
    return wlgi_high_efficiency_witness(eta)


# Constraint columns of the detection totals T1, T2, T3 and the grand
# total: one per class in BLOCK_NAMES order, then the slack of sum(w) <= 1.
_COLUMNS = [[*(int(name in classes) for classes in _TIME_CLASSES), 1] for name in BLOCK_NAMES]
_COLUMNS.append([0, 0, 0, 1])

# A finding steps this far from a vertex where some ratios are undefined
# toward the vertex that defines them.
_EDGE_STEP = 1e-9


# The terms of a 4 x 4 determinant's Leibniz formula: (permutation, sign).
_LEIBNIZ = [
    (p, (-1) ** sum(p[i] > p[j] for i, j in itertools.combinations(range(4), 2)))
    for p in itertools.permutations(range(4))
]


def _det(m: List[list]) -> float:
    """Determinant of a 4 x 4 matrix."""
    return sum(sign * m[0][p[0]] * m[1][p[1]] * m[2][p[2]] * m[3][p[3]] for p, sign in _LEIBNIZ)


@functools.cache
def _affine_bases() -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every nonsingular basis of four constraint columns and its solution.

    The right-hand side eta * (1, 1, 1, 0) + (0, 0, 0, 1) is affine in eta,
    so each basic solution is ``eta * x1 + x0``.  The bases are solved once,
    by Cramer's rule: ``numpy.linalg`` would page in LAPACK, about 1 MB of
    resident memory, for these 4 x 4 integer systems.  Returns the (B, 4)
    bases and their (B, 4) solutions x1 and x0.
    """
    bases, x1, x0 = [], [], []
    for basis in itertools.combinations(range(len(_COLUMNS)), 4):
        rows = [[_COLUMNS[c][i] for c in basis] for i in range(4)]
        det = _det(rows)
        if not det:
            continue
        for x, rhs in ((x1, (1, 1, 1, 0)), (x0, (0, 0, 0, 1))):
            x.append([_det([r[:j] + [b] + r[j + 1 :] for r, b in zip(rows, rhs)]) / det
                      for j in range(4)])
        bases.append(basis)
    return np.array(bases), np.array(x1), np.array(x0)


def _vertices(eta: float, columns: Sequence[int]) -> Tuple[np.ndarray, np.ndarray]:
    """Every vertex of {w >= 0 : T1 = T2 = T3 = eta, sum(w) <= 1} on ``columns``.

    The weights of one class enter every constraint alike, so a vertex puts
    weight on at most one column per class: it is the nonnegative basic
    solution of four of the eight constraint columns (classes and slack),
    plus one column of each class that carries weight.  Restricting the
    columns leaves a face of the polytope, whose vertices are the
    polytope's vertices that use only those columns.  Returns the (V, 4)
    column indices and the (V, 4) weights on them, zero-padded.
    """
    by_class = [[j for j in columns if j // 8 == c] for c in range(len(BLOCK_NAMES))]
    bases, x1, x0 = _affine_bases()
    solutions = eta * x1 + x0
    supports: Dict[tuple, np.ndarray] = {}
    for basis, x in zip(bases, solutions):
        if x.min() >= -1e-12:
            # A vertex is fixed by the classes that carry its weight.
            carry = (basis < len(BLOCK_NAMES)) & (x > 1e-12)
            supports.setdefault(tuple(basis[carry]), x[carry])
    cols, weights = [], []
    for subset, x in supports.items():
        if not all(by_class[c] for c in subset):
            continue
        grids = np.meshgrid(*(by_class[c] for c in subset), indexing="ij")
        choices = np.stack(grids, axis=-1).reshape(-1, len(subset))
        pad = 4 - len(subset)
        cols.append(np.pad(choices, ((0, 0), (0, pad))))
        weights.append(np.tile(np.pad(x, (0, pad)), (len(choices), 1)))
    if not cols:
        raise ValueError(f"no feasible weights on columns {list(columns)} at eta {eta}")
    return np.concatenate(cols), np.concatenate(weights)


def _scan(ratios: _RatioMap, cols: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """The best weights the vertex scan finds for one ratio map.

    Every numerator coefficient is at most its denominator coefficient in
    size, so a ratio whose denominator vanishes at a vertex v has a zero
    numerator there too.  Along the open segment from v to a vertex u it
    then keeps its value at u, while every ratio defined at v tends to its
    value at v.  So each set m of ratios undefined at some vertex scores the
    best sum of defined ratios over the vertices undefined on exactly m,
    plus the best sum of m's ratios over the vertices that define all of
    them.  Returns the point a small step from the best such v toward its u
    (v itself when m is empty).
    """
    num, den = (sum(weights[:, j, None] * rows[cols[:, j]] for j in range(cols.shape[1]))
                for rows in (ratios.num, ratios.den))
    defined = den > 0.0
    terms = ratios.signs * np.divide(num, den, out=np.zeros(num.shape), where=defined)
    masks, group = np.unique(~defined, axis=0, return_inverse=True)
    group = group.reshape(-1)
    best, pair = -np.inf, None
    for g, m in enumerate(masks):
        at = np.flatnonzero(group == g)
        v = at[np.argmax(terms[at].sum(axis=1))]
        ok = np.flatnonzero(defined[:, m].all(axis=1))
        if not ok.size:
            continue
        u = ok[np.argmax(terms[ok][:, m].sum(axis=1))] if m.any() else v
        value = terms[v].sum() + terms[u, m].sum()
        if value > best:
            best, pair = value, (v, u)
    if pair is None:
        raise DegenerateModelError("every scanned assignment leaves a measured run without photons")
    v, u = pair
    step = _EDGE_STEP if u != v else 0.0
    w = np.zeros(56)
    np.add.at(w, cols[v], (1.0 - step) * weights[v])
    np.add.at(w, cols[u], step * weights[u])
    return w


# The ratio maps and closed-form bounds of the two tested inequalities.
_INEQUALITIES = {
    "LGI": (_LGI, lgi_detectors_bound_formula),
    "WLGI": (_WLGI, wlgi_detectors_bound_formula),
}


def _certify(eta: float, inequality: str, support: Sequence[int] | None) -> BoundCertificate:
    """The certificate of one inequality ("LGI" or "WLGI") at efficiency eta."""
    _check_eta(eta)
    columns = range(56) if support is None else sorted(set(support))
    if any(not 0 <= j < 56 for j in columns):
        raise ValueError(f"support indices must lie in [0, 56), got {list(columns)}")
    ratios, formula = _INEQUALITIES[inequality]
    best = _scan(ratios, *_vertices(eta, columns))
    value = _detectors_value(best, ratios)
    if support is not None:
        # Diagnostic mode: report the scan's maximum on the slice.
        return BoundCertificate(eta, value, HVWeights(best), formula(eta))
    witness = _certification_witness(inequality, eta)
    bound = _detectors_value(witness, ratios)
    findings: Tuple[ProbeFinding, ...] = ()
    if value > bound + 1e-6:
        findings = (ProbeFinding(value, HVWeights(best)),)
    return BoundCertificate(eta, bound, witness, formula(eta), findings)


def maximize_lgi_detectors(eta: float, support: Sequence[int] | None = None) -> BoundCertificate:
    """Maximize the detector-only correlator combination at efficiency eta.

    The reported bound is the value achieved by the extremal witness
    assignment for this efficiency regime, which makes it a lower bound on
    the maximum, not a certified upper bound.  A deterministic scan of the
    feasible polytope's vertices, and of the limits along its edges where a
    ratio is undefined at one end, probes for assignments exceeding that
    value; the best one, if it does by more than 1e-6, is attached to the
    certificate as a finding rather than adopted as the bound.  The sum of
    ratios need not peak at a vertex, so the scan is a probe, not a proof
    of the maximum.

    Parameters
    ----------
    eta : float
        Detector efficiency in (0, 1].
    support : sequence of int, optional
        Restrict the scan to these flat weight indices (diagnostic use).
        In this mode the bound is the best value found on the slice and
        no findings are reported.
    """
    return _certify(eta, "LGI", support)


def maximize_wlgi_detectors(eta: float, support: Sequence[int] | None = None) -> BoundCertificate:
    """Maximize the detector-only probability combination at efficiency eta.

    See :func:`maximize_lgi_detectors` for the scan and for why the
    reported bound is a lower bound on the maximum.
    """
    return _certify(eta, "WLGI", support)


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
