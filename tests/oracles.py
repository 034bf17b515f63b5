"""Independent reference implementations used only by the test suite.

Each oracle recomputes a quantity through a different construction than the
library (explicit transfer matrices, quadratic-time pairing, exhaustive
enumeration) so agreement is meaningful.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy import optimize

from macroreal.analysis import (
    DEFAULT_BIN_WIDTH,
    NoPeakError,
    _dataset_window,
    histogram,
)
from macroreal.circuit import SetupParams, arm_branch_weights
from macroreal.hvmodels import _BLOCK_SLICES, _check_eta
from macroreal.protocol import RUN_CONFIGS, BlockerConfig, combine


def transfer_matrix_probs(params: SetupParams, blockers: BlockerConfig):
    """Detection probabilities via explicit 2x2 transfer matrices.

    Builds, per outer arm, the injection vector onto the inner modes, the
    blocker projector and the detector coupling matrix, and combines the two
    per-detector path amplitudes with the visibility-scaled cross term.
    Returns (p_plus, p_minus, p_lost) normalized to one.
    """
    t1, t2, t3, t4 = params.t_ratios
    r1, r2, r3, r4 = (1.0 - t for t in params.t_ratios)
    v = params.visibility

    # Rows: detectors (+, -); columns: inner modes (+1, -1).
    det = np.array(
        [
            [math.sqrt(t2), 1j * math.sqrt(r3)],
            [1j * math.sqrt(r2), math.sqrt(t3)],
        ],
        dtype=complex,
    )
    inject = {
        +1: np.array([math.sqrt(t1), 1j * math.sqrt(r1)], dtype=complex),
        -1: np.array([1j * math.sqrt(r4), math.sqrt(t4)], dtype=complex),
    }
    proj = np.eye(2, dtype=complex)
    lost_inner = np.zeros(2)
    if blockers.block_t2 == "plus":
        proj[0, 0] = 0.0
        lost_inner[0] = 1.0
    elif blockers.block_t2 == "minus":
        proj[1, 1] = 0.0
        lost_inner[1] = 1.0

    weights = {+1: params.alpha_sq, -1: params.beta_sq}
    blocked_arm = {"plus": +1, "minus": -1, "none": 0}[blockers.block_t1]

    w_plus = w_minus = w_lost = 0.0
    for arm in (+1, -1):
        wa = weights[arm]
        if arm == blocked_arm:
            w_lost += wa
            continue
        vec = inject[arm]
        w_lost += wa * float(np.sum(lost_inner * np.abs(vec) ** 2))
        paths = det @ np.diag(proj @ vec)  # per-detector path amplitudes
        for row, acc in ((0, "plus"), (1, "minus")):
            a, b = paths[row, 0], paths[row, 1]
            inten = abs(a) ** 2 + abs(b) ** 2 + 2.0 * v * (a * np.conj(b)).real
            if acc == "plus":
                w_plus += wa * inten
            else:
                w_minus += wa * inten
    total = w_plus + w_minus + w_lost
    return w_plus / total, w_minus / total, w_lost / total


def run_total_closed_form(params: SetupParams) -> float:
    """Raw weight total of the interference runs (2 and 4).

    Equals 1 + 2 v (sqrt(R2 T3) - sqrt(T2 R3)) (a2 sqrt(T1 R1) - b2 sqrt(T4 R4)).
    """
    t1, t2, t3, t4 = params.t_ratios
    r1, r2, r3, r4 = params.r_ratios
    a2, b2 = params.alpha_sq, params.beta_sq
    v = params.visibility
    return 1.0 + 2.0 * v * (math.sqrt(r2 * t3) - math.sqrt(t2 * r3)) * (
        a2 * math.sqrt(t1 * r1) - b2 * math.sqrt(t4 * r4)
    )


def lgi_closed_form(params: SetupParams) -> float:
    """Leggett-Garg combination in the unit-run-total approximation."""
    t1, t2, t3, t4 = params.t_ratios
    r1, r2, r3, r4 = params.r_ratios
    a2, b2 = params.alpha_sq, params.beta_sq
    v = params.visibility
    return a2 * (
        r1 * (t3 - 3.0 * r3)
        + t1
        + 2.0 * v * math.sqrt(t1 * t2 * r1 * r3)
        + 2.0 * v * math.sqrt(t1 * t3 * r1 * r2)
    ) + b2 * (
        r4 * (t2 - 3.0 * r2)
        + t4
        + 2.0 * v * math.sqrt(t2 * t4 * r3 * r4)
        + 2.0 * v * math.sqrt(t3 * t4 * r2 * r4)
    )


def wlgi_closed_form(params: SetupParams) -> float:
    """Probability-form combination in the unit-run-total approximation."""
    t1, t2, t3, t4 = params.t_ratios
    r1, r2, r3, r4 = params.r_ratios
    a2, b2 = params.alpha_sq, params.beta_sq
    v = params.visibility
    return 2.0 * b2 * v * math.sqrt(t2 * t4 * r3 * r4) - a2 * r1 * r3 - b2 * r2 * r4


def nsit23_closed_form(params: SetupParams) -> float:
    """nsit23 in the unit-run-total approximation."""
    t1, t2, t3, t4 = params.t_ratios
    r1, r2, r3, r4 = params.r_ratios
    a2, b2 = params.alpha_sq, params.beta_sq
    v = params.visibility
    return abs(
        2.0 * a2 * v * math.sqrt(t1 * t2 * r1 * r3)
        - 2.0 * b2 * v * math.sqrt(t2 * t4 * r3 * r4)
    )


def _sweep_values(a2, v, t1, t2, t3, t4):
    """Vectorized (lgi, wlgi, nsit23) over broadcastable parameter arrays."""
    b2 = 1.0 - a2
    r1, r2, r3, r4 = 1.0 - t1, 1.0 - t2, 1.0 - t3, 1.0 - t4
    wp_p = t1 * t2 + r1 * r3 - 2.0 * v * np.sqrt(t1 * t2 * r1 * r3)
    wm_p = t1 * r2 + r1 * t3 + 2.0 * v * np.sqrt(t1 * r1 * r2 * t3)
    wp_m = r4 * t2 + t4 * r3 + 2.0 * v * np.sqrt(t2 * t4 * r3 * r4)
    wm_m = r2 * r4 + t3 * t4 - 2.0 * v * np.sqrt(r2 * r4 * t3 * t4)
    d = a2 * (wp_p + wm_p) + b2 * (wp_m + wm_m)
    inner_p = a2 * t1 + b2 * r4
    inner_m = a2 * r1 + b2 * t4
    c12 = a2 * (2.0 * t1 - 1.0) + b2 * (2.0 * t4 - 1.0)
    c23 = inner_p * (t2 - r2) + inner_m * (t3 - r3)
    c13 = (a2 * (wp_p - wm_p) + b2 * (wm_m - wp_m)) / d
    # P12(-,+), P23(-,+) and P13(-,+) in closed form.
    lgi, wlgi = combine(c12, c23, c13, b2 * r4, inner_m * r3, b2 * wp_m / d)
    p3_plus = (a2 * wp_p + b2 * wp_m) / d
    nsit23 = np.abs(p3_plus - (inner_p * t2 + inner_m * r3))
    return lgi, wlgi, nsit23


def qm_range_grid(params: SetupParams, tol):
    """``circuit.qm_range`` by evaluating every expression at every grid point.

    The full sweep over (alpha_sq, v) slices of the flattened transmission
    grid, every expression recomputed per slice.  A slice holding an
    undefined (NaN) point is silently skipped, so only compare on boxes
    where the detected weight is positive everywhere.
    """
    n = tol.grid_points
    rotation0 = math.asin(min(1.0, math.sqrt(params.alpha_sq)))
    half_width = math.radians(tol.hwp_angle_deg)
    deltas = np.linspace(-half_width, half_width, n) if half_width > 0 else np.zeros(1)
    alpha_axis = np.sin(rotation0 + deltas) ** 2

    t_axes = []
    for t in params.t_ratios:
        if tol.t_delta > 0:
            t_axes.append(np.clip(np.linspace(t - tol.t_delta, t + tol.t_delta, n), 0.0, 1.0))
        else:
            t_axes.append(np.array([t]))
    if tol.v_range is None:
        v_axis = np.array([params.visibility])
    else:
        v_axis = np.linspace(tol.v_range[0], tol.v_range[1], n)

    grids = np.meshgrid(*t_axes, indexing="ij")
    t1, t2, t3, t4 = (g.ravel() for g in grids)

    bounds = {name: [math.inf, -math.inf] for name in ("lgi", "wlgi", "nsit23")}
    for a2 in alpha_axis:
        for v in v_axis:
            lgi, wlgi, nsit23 = _sweep_values(a2, v, t1, t2, t3, t4)
            for name, vals in (("lgi", lgi), ("wlgi", wlgi), ("nsit23", nsit23)):
                lo, hi = float(np.min(vals)), float(np.max(vals))
                if lo < bounds[name][0]:
                    bounds[name][0] = lo
                if hi > bounds[name][1]:
                    bounds[name][1] = hi
    return {name: (lo, hi) for name, (lo, hi) in bounds.items()}


def sampled_maximum(fun, n_angles, n_transmissions, seed):
    """Numeric maximum of ``fun(*angles, *transmissions)`` over the full box.

    Draws a seeded uniform sample of 10**6 points, angles in [0, 2 pi] and
    transmissions in [0, 1], in chunks to bound memory, then runs a bounded
    L-BFGS-B polish from each of the 12 best sample points.  Returns the
    best value and its point.
    """
    n_points, starts, chunk = 10**6, 12, 250_000
    rng = np.random.default_rng(seed)
    lo = np.zeros(n_angles + n_transmissions)
    hi = np.array([2.0 * math.pi] * n_angles + [1.0] * n_transmissions)
    best_points = np.empty((0, lo.size))
    for start in range(0, n_points, chunk):
        points = rng.uniform(lo, hi, size=(min(chunk, n_points - start), lo.size))
        points = np.concatenate([best_points, points])
        values = fun(*points.T)
        best_points = points[np.argsort(values)[::-1][:starts]]
    best, arg = float(fun(*best_points[0])), best_points[0]
    for x0 in best_points:
        res = optimize.minimize(
            lambda x: -fun(*x), x0, method="L-BFGS-B", bounds=list(zip(lo, hi))
        )
        if -res.fun > best:
            best, arg = float(-res.fun), res.x
    return best, arg


def brute_force_coincidences(times_a, times_b, lo, hi, bin_width):
    """Quadratic-time delay histogram of (t_b - t_a) over [lo, hi)."""
    n_bins = int(round((hi - lo) / bin_width))
    counts = np.zeros(n_bins, dtype=np.int64)
    for ta in times_a:
        for tb in times_b:
            d = tb - ta
            if lo <= d < hi:
                counts[int((d - lo) // bin_width)] += 1
    return counts


def unique_in_range(raw, dark, duration_ps):
    """Distinct stamps of both click arrays in [0, duration_ps), ascending."""
    merged = np.unique(np.concatenate([raw, dark]))
    return merged[(merged >= 0) & (merged < duration_ps)]


def stream_pairs(times_a, times_b, lo, hi):
    """Pairs with t_b - t_a in [lo, hi), by two sorted-merge lookups.

    Searches the full streams, without any histogram.
    """
    ta = np.asarray(times_a, dtype=np.int64)
    tb = np.asarray(times_b, dtype=np.int64)
    left = np.searchsorted(tb, ta + lo, side="left")
    right = np.searchsorted(tb, ta + hi, side="left")
    return int(np.sum(right - left))


def reference_select_window(counts):
    """FWHM window of a histogram's peak by ``np.median`` and bin-by-bin walks.

    Returns ``(i_lo, i_hi, flatline)`` with the window's bins ``[i_lo, i_hi)``,
    or None where ``select_window`` raises ``NoPeakError``.  Works on a float
    copy with boolean masks and ``np.mean``, so equal results pin the library's
    partial-sort medians and int64 sums bit for bit.
    """
    counts = np.asarray(counts).astype(float)

    def detectable(peak, flatline):
        return peak >= flatline + 5.0 * math.sqrt(flatline + 1.0)

    def expand(level):
        i_lo = i_hi = peak_idx
        while i_lo > 0 and counts[i_lo - 1] >= level:
            i_lo -= 1
        while i_hi + 1 < counts.size and counts[i_hi + 1] >= level:
            i_hi += 1
        return i_lo, i_hi

    flatline = float(np.median(counts))
    peak_idx = int(np.argmax(counts))
    peak = float(counts[peak_idx])
    if not detectable(peak, flatline):
        return None
    i_lo, i_hi = expand(flatline + 0.5 * (peak - flatline))
    margin = 3 * (i_hi - i_lo + 1)
    mask = np.ones(counts.size, dtype=bool)
    mask[max(0, i_lo - margin) : min(counts.size, i_hi + margin + 1)] = False
    if mask.any():
        rest = counts[mask]
        med = float(np.median(rest))
        keep = rest < med + 5.0 * math.sqrt(med + 1.0)
        flatline = float(rest[keep].mean()) if keep.any() else float(rest.mean())
    if not detectable(peak, flatline):
        return None
    i_lo, i_hi = expand(flatline + 0.5 * (peak - flatline))
    return i_lo, i_hi + 1, max(flatline, 0.0)


def reference_fixed_window(counts):
    """Counting window and background edges of a delay histogram.

    Finds up to two peaks with :func:`reference_select_window`, the second on
    a float copy whose first peak, three FWHMs either side, is set to the
    rounded median.  The window runs from three FWHMs before the first peak
    to three FWHMs after the last, each peak by its own FWHM; background bins
    lie more than the wider of those guards outside it.  Returns ``(w_lo,
    w_hi, b_lo, b_hi)``: window bins [w_lo, w_hi), background bins outside
    [b_lo, b_hi); or None where the histogram has no peak.
    """
    counts = np.asarray(counts)
    n = counts.size
    first = reference_select_window(counts)
    if first is None:
        return None
    # (start, end, guard) of each peak.
    peaks = [(first[0], first[1], 3 * (first[1] - first[0]))]
    start, end, guard = peaks[0]
    masked = counts.astype(float)
    masked[max(start - guard, 0) : end + guard] = round(float(np.median(counts)))
    second = reference_select_window(masked)
    if second is not None:
        peaks.append((second[0], second[1], 3 * (second[1] - second[0])))
    w_lo = max(min(p_start - p_guard for p_start, _, p_guard in peaks), 0)
    w_hi = min(max(p_end + p_guard for _, p_end, p_guard in peaks), n)
    widest = max(p_guard for _, _, p_guard in peaks)
    return w_lo, w_hi, max(w_lo - widest, 0), min(w_hi + widest, n)


def stream_fixed_window_count(times_a, times_b, span, window, bin_width=DEFAULT_BIN_WIDTH):
    """One iteration's corrected count in a fixed window, from the raw streams.

    ``span`` is a :func:`reference_fixed_window` result for histograms over
    ``window`` with ``bin_width``.  The window and background pair counts
    come from :func:`stream_pairs`; the background's mean per bin times the
    window's bins is subtracted.  Not clamped.
    """
    lo, hi = window
    w_lo, w_hi, b_lo, b_hi = span
    n_bg = b_lo + (hi - lo) // bin_width - b_hi
    raw = stream_pairs(times_a, times_b, lo + w_lo * bin_width, lo + w_hi * bin_width)
    background = stream_pairs(times_a, times_b, lo, lo + b_lo * bin_width) + stream_pairs(
        times_a, times_b, lo + b_hi * bin_width, hi
    )
    return raw - background / n_bg * (w_hi - w_lo)


def count_dataset_serial(dataset, bin_width=DEFAULT_BIN_WIDTH, window=None):
    """``count_dataset`` as loops in this process, in schedule order.

    Sums each detector's histograms over the dataset, picks its window with
    :func:`reference_fixed_window` and counts every iteration on its raw
    streams with :func:`stream_fixed_window_count`, clamped at zero.
    """
    if window is None:
        window = _dataset_window(dataset)
    keys = [
        (run, sub, it)
        for run, cfgs in RUN_CONFIGS.items()
        for sub in range(len(cfgs))
        for it in range(dataset.iterations[run])
    ]
    summed = [0, 0]
    for key in keys:
        h_s, *detectors = dataset.streams(*key)
        for col, det in enumerate(detectors):
            summed[col] = summed[col] + histogram(h_s, det, bin_width, window).counts
    spans = [reference_fixed_window(counts) for counts in summed]
    for label, span in zip("PM", spans):
        if span is None:
            raise NoPeakError(f"detector {label}")
    out = {}
    for run, cfgs in RUN_CONFIGS.items():
        for sub in range(len(cfgs)):
            arr = np.zeros((dataset.iterations[run], 2))
            for it in range(dataset.iterations[run]):
                h_s, *detectors = dataset.streams(run, sub, it)
                for col, det in enumerate(detectors):
                    value = stream_fixed_window_count(
                        h_s.times, det.times, spans[col], window, bin_width
                    )
                    arr[it, col] = max(value, 0.0)
            out[(run, sub)] = arr
    return out


def expected_counts(source, setup: SetupParams):
    """Mean true coincidences per iteration, (run, sub_run) -> (P, M).

    N eta_h sum over the outer arms of (arm weight) x (branch weight to the
    detector) x (detector efficiency), with N = pair_rate x duration: the
    count an unbiased analysis recovers without multiphoton events.
    """
    n_heralded = source.pair_rate * source.duration * source.eta_herald
    out = {}
    for run, cfgs in RUN_CONFIGS.items():
        for sub, blockers in enumerate(cfgs):
            plus = minus = 0.0
            for arm, weight in ((+1, setup.alpha_sq), (-1, setup.beta_sq)):
                w = arm_branch_weights(setup, blockers, arm)
                plus += weight * w.w_plus * source.eta1
                minus += weight * w.w_minus * source.eta2
            out[(run, sub)] = (n_heralded * plus, n_heralded * minus)
    return out


def grid_search_bound(value_fn, project_fn, support, eta, step=0.01, chunk=50000):
    """Exhaustive bound of a hidden-variable functional on a small support.

    Enumerates all weight assignments on `support` (list of flat indices
    into the 56-vector) over a regular grid, projects each onto the
    constraint set with `project_fn`, evaluates `value_fn` in batch and
    returns the maximum.  Assignments whose raw coordinates already exceed
    the total-weight cap are still projected (the projection is total).
    Processed in chunks to bound memory.
    """
    axis = np.arange(0.0, 1.0 + step / 2.0, step)
    grids = np.meshgrid(*[axis] * len(support), indexing="ij")
    flat = np.stack([g.ravel() for g in grids], axis=1)
    best = -np.inf
    for start in range(0, flat.shape[0], chunk):
        rows = flat[start : start + chunk]
        weights = np.zeros((rows.shape[0], 56))
        weights[:, support] = rows
        values = value_fn(project_fn(weights, eta), eta)
        best = max(best, float(np.max(values)))
    return best


_SHARED = slice(24, 56)  # blocks a, b, c, d
_D_SLICE = _BLOCK_SLICES["d"]
_EXCLUSIVE = {0: _BLOCK_SLICES["q"], 1: _BLOCK_SLICES["p"], 2: _BLOCK_SLICES["s"]}
_SHARED_OF_TIME = {0: ("a", "c", "d"), 1: ("a", "b", "d"), 2: ("b", "c", "d")}


def project_feasible_reference(weights: np.ndarray, eta: float) -> np.ndarray:
    """Block-by-block projection onto the hidden-variable constraint set.

    The same steps as ``hvmodels.project_feasible``, written with one sum
    per detection class and one pass per time instead of block-total
    arrays.  Works on arrays of shape (..., 56).
    """
    _check_eta(eta)
    w = np.clip(np.asarray(weights, dtype=float), 0.0, None).copy()

    def block_sum(name):
        return w[..., _BLOCK_SLICES[name]].sum(axis=-1)

    shared = np.stack(
        [sum(block_sum(n) for n in _SHARED_OF_TIME[i]) for i in range(3)], axis=-1
    )
    m = shared.max(axis=-1)
    scale = np.where(m > eta, eta / np.where(m > 0.0, m, 1.0), 1.0)
    w[..., _SHARED] *= scale[..., None]

    # If sum_i (eta - shared_i) + shared_total exceeds 1, blend toward the
    # pure-d assignment: g = A+B+C+2D rises to 3 eta - 1, the exact budget.
    a_, b_, c_, d_ = (block_sum(n) for n in ("a", "b", "c", "d"))
    g = a_ + b_ + c_ + 2.0 * d_
    deficit = (3.0 * eta - 1.0) - g
    t = np.where(deficit > 0.0, deficit / np.where(deficit > 0.0, 2.0 * eta - g, 1.0), 0.0)
    d_block = w[..., _D_SLICE]
    d_shape = np.where(
        d_[..., None] > 0.0, d_block / np.where(d_[..., None] > 0.0, d_[..., None], 1.0), 1.0 / 8.0
    )
    w[..., 24:48] *= (1.0 - t)[..., None]
    w[..., _D_SLICE] = (1.0 - t)[..., None] * d_block + (t * eta)[..., None] * d_shape

    for i in range(3):
        shared_i = sum(block_sum(n) for n in _SHARED_OF_TIME[i])
        need = np.clip(eta - shared_i, 0.0, None)
        excl = w[..., _EXCLUSIVE[i]]
        e_tot = excl.sum(axis=-1)
        factor = np.where(e_tot > 0.0, need / np.where(e_tot > 0.0, e_tot, 1.0), 0.0)
        w[..., _EXCLUSIVE[i]] = np.where(
            e_tot[..., None] > 0.0, excl * factor[..., None], (need / 8.0)[..., None]
        )
    return w


def ratio_value_reference(w: np.ndarray, fractions, signs) -> np.ndarray:
    """Signed ratio sum per row straight from a ``fractions`` function.

    ``fractions`` is ``hvmodels._lgi_fractions`` or ``_wlgi_fractions``,
    evaluated on w itself rather than through tabulated matrices; -inf
    marks rows where any denominator vanishes.
    """
    nums, dens = fractions(w)
    valid = np.all(dens > 0.0, axis=-1)
    safe = np.where(dens > 0.0, dens, 1.0)
    vals = np.sum(signs * nums / safe, axis=-1)
    return np.where(valid, vals, -np.inf)


def deterministic_triple_values():
    """(lgi, wlgi) of each deterministic outcome triple, in product order."""
    rows = []
    for q1, q2, q3 in itertools.product((+1, -1), repeat=3):
        lgi = q1 * q2 + q2 * q3 - q1 * q3
        wlgi = (
            float(q1 == -1 and q3 == +1)
            - float(q1 == -1 and q2 == +1)
            - float(q2 == -1 and q3 == +1)
        )
        rows.append((lgi, wlgi))
    return rows


def representative_run_cells():
    """Mean coincidence cells of the bundled example dataset, verbatim.

    Keys are (run, sub_run) in schedule order; values are the corrected
    coincidence means on the (+1, -1) detectors.
    """
    return {
        (1, 0): (41644.94, 10725.33),
        (1, 1): (12334.57, 35954.40),
        (2, 0): (22977.20, 30456.67),
        (2, 1): (35541.98, 19814.86),
        (3, 0): (34430.15, 8957.09),
        (3, 1): (2203.34, 9067.37),
        (3, 2): (10218.37, 1900.90),
        (3, 3): (10171.06, 30126.35),
        (4, 0): (49888.96, 42526.46),
    }


def representative_expectations():
    """Inequality values recomputed from the cells by direct arithmetic.

    Normalizes each run with plain dict loops (no table machinery, no
    marginalization helper) so it independently checks the pipeline.
    """
    cells = representative_run_cells()
    prefixes = [(+1,), (-1,)]

    def two_time(run):
        raw = {}
        for sub, prefix in enumerate(prefixes):
            plus, minus = cells[(run, sub)]
            raw[prefix + (+1,)] = plus
            raw[prefix + (-1,)] = minus
        total = sum(raw.values())
        return {key: value / total for key, value in raw.items()}

    raw3 = {}
    for sub, prefix in enumerate([(+1, +1), (+1, -1), (-1, +1), (-1, -1)]):
        plus, minus = cells[(3, sub)]
        raw3[prefix + (+1,)] = plus
        raw3[prefix + (-1,)] = minus
    total3 = sum(raw3.values())
    p123 = {key: value / total3 for key, value in raw3.items()}
    p12 = {
        (q1, q2): p123[(q1, q2, +1)] + p123[(q1, q2, -1)]
        for q1, q2 in itertools.product((+1, -1), repeat=2)
    }
    p23, p13 = two_time(1), two_time(2)
    plus4, minus4 = cells[(4, 0)]
    p3_plus = plus4 / (plus4 + minus4)

    def corr(p):
        return p[(+1, +1)] - p[(+1, -1)] - p[(-1, +1)] + p[(-1, -1)]

    c12, c23, c13 = corr(p12), corr(p23), corr(p13)
    return {
        "corr12": c12,
        "corr23": c23,
        "corr13": c13,
        "lgi": c12 + c23 - c13,
        "wlgi": p13[(-1, +1)] - p12[(-1, +1)] - p23[(-1, +1)],
        "nsit12": abs(p23[(+1, +1)] + p23[(+1, -1)] - p12[(+1, +1)] - p12[(-1, +1)]),
        "nsit23": abs(p3_plus - p23[(+1, +1)] - p23[(-1, +1)]),
        "nsit13": abs(p3_plus - p13[(+1, +1)] - p13[(-1, +1)]),
    }


def exhaustive_cross_sigma(a_cells, b_cells, stat):
    """Std (ddof=1) of stat(p) over all pairings of two sub-run count rows.

    ``a_cells`` rows are (C(+, +), C(+, -)) per iteration and ``b_cells``
    rows are (C(-, +), C(-, -)); ``stat`` maps a four-entry probability
    dict to a real.  Plain double loop.
    """
    values = []
    for cpp, cpm in a_cells:
        for cmp_, cmm in b_cells:
            total = cpp + cpm + cmp_ + cmm
            p = {
                (+1, +1): cpp / total,
                (+1, -1): cpm / total,
                (-1, +1): cmp_ / total,
                (-1, -1): cmm / total,
            }
            values.append(stat(p))
    return float(np.std(values, ddof=1))


def exhaustive_four_way_sigma(sub_cells, stat):
    """Std (ddof=1) of stat(p12) over every four-way sub-run combination.

    ``sub_cells`` holds four arrays of (C(q1, q2, +), C(q1, q2, -)) rows in
    the double-blocked schedule order (+,+), (+,-), (-,+), (-,-); ``stat``
    maps the marginal two-time probability dict to a real.  Plain quadruple
    loop over all combinations.
    """
    prefixes = [(+1, +1), (+1, -1), (-1, +1), (-1, -1)]
    values = []
    for rows in itertools.product(*[range(len(c)) for c in sub_cells]):
        cells = {}
        for k, idx in enumerate(rows):
            plus, minus = sub_cells[k][idx]
            cells[prefixes[k] + (+1,)] = plus
            cells[prefixes[k] + (-1,)] = minus
        total = sum(cells.values())
        p12 = {
            pre: (cells[pre + (+1,)] + cells[pre + (-1,)]) / total
            for pre in prefixes
        }
        values.append(stat(p12))
    return float(np.std(values, ddof=1))


def two_photon_event_counts(n1, n2, a, p, s1, s2, eta1, eta2):
    """Expected singles/coincidences from per-photon detection probabilities.

    A photon entering one double-blocker configuration reaches detector 1
    with probability q1 = a*p*s1*eta1 and detector 2 with q2 = a*p*s2*eta2
    (arm choice, surviving splitter branch, final split, detector).  For a
    photon pair the two photons are independent, each detector clicks at
    most once per event, so

        E[C1]  = n1*q1 + n2*(1 - (1-q1)^2)
        E[C2]  = n1*q2 + n2*(1 - (1-q2)^2)
        E[C12] = n2*2*q1*q2.

    This never expands the pair terms into the splitter-branch binomials,
    so it independently checks that algebra in the library closed forms.
    """
    q1 = a * p * s1 * eta1
    q2 = a * p * s2 * eta2
    c1 = n1 * q1 + n2 * (1.0 - (1.0 - q1) ** 2)
    c2 = n1 * q2 + n2 * (1.0 - (1.0 - q2) ** 2)
    c12 = n2 * 2.0 * q1 * q2
    return c1, c2, c12


def reference_generate_sub_run(src, setup: SetupParams, blockers: BlockerConfig):
    """Straightforward sub-run generator: the same draws in the same order.

    Selects with boolean masks, builds per-photon probability and delay
    arrays with ``np.where`` and finalises each channel with
    ``unique_in_range``.  Returns the (herald, plus, minus) int64 arrays,
    which must equal ``generate_sub_run``'s streams bit for bit; that pins
    the draw order: poisson, pair times, herald, doubled, arm, u, jitter,
    then the dark counts of H, P and M.
    """
    arm_probs = {}
    for arm in (+1, -1):
        w = arm_branch_weights(setup, blockers, arm)
        p_plus, p_minus = w.w_plus * src.eta1, w.w_minus * src.eta2
        if p_plus + p_minus > 1.0:
            raise ValueError(f"branch weights times efficiencies exceed 1 for arm {arm:+d}")
        arm_probs[arm] = (p_plus, p_minus)

    rng = np.random.default_rng(src.seed)
    duration_ps = src.duration_ps
    n_pairs = int(rng.poisson(src.pair_rate * src.duration))
    pair_times = rng.integers(0, duration_ps, size=n_pairs, dtype=np.int64)
    herald_hit = rng.random(n_pairs) < src.eta_herald
    doubled = rng.random(n_pairs) < src.gamma
    photon_times = np.concatenate([pair_times, pair_times[doubled]])
    n_photons = photon_times.size
    on_plus_arm = rng.random(n_photons) < setup.alpha_sq
    u = rng.random(n_photons)
    jitter = (
        rng.normal(0.0, src.jitter_sigma, n_photons)
        if src.jitter_sigma > 0.0
        else np.zeros(n_photons)
    )
    p_plus = np.where(on_plus_arm, arm_probs[+1][0], arm_probs[-1][0])
    p_minus = np.where(on_plus_arm, arm_probs[+1][1], arm_probs[-1][1])
    to_plus = u < p_plus
    to_minus = ~to_plus & (u < p_plus + p_minus)
    delay = src.base_delay + np.where(on_plus_arm, 0.0, src.arm_delay_tau)
    click_times = photon_times + np.rint(delay + jitter).astype(np.int64)

    def dark(rate):
        n = int(rng.poisson(rate * src.duration))
        return rng.integers(0, duration_ps, size=n, dtype=np.int64)

    herald = unique_in_range(pair_times[herald_hit], dark(src.dark_rate_h), duration_ps)
    plus = unique_in_range(click_times[to_plus], dark(src.dark_rate_p), duration_ps)
    minus = unique_in_range(click_times[to_minus], dark(src.dark_rate_m), duration_ps)
    return herald, plus, minus
