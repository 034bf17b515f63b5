"""Timestamp post-processing: histograms, windows, probabilities, errors.

Turns per-iteration timestamp streams into the quantities the workbench
reports: delay histograms between the herald and each signal detector,
coincidence windows with background subtraction beyond a guard, corrected
coincidence counts, joint outcome probability tables, the LGI/WLGI/NSIT
values, worst-case error bounds assembled from cross-combination
distributions, and bootstrap resampling diagnostics.

:func:`histogram` is the only place that pairs timestamps.  Every later
step reads that histogram: a window's raw pair count is the sum of the
histogram bins it covers.  A dataset is counted with one window per
detector, chosen once by :func:`select_window` from that detector's
histogram summed over every iteration of the dataset and applied by the
subtraction of :func:`corrected_coincidences`, so every sub-run is counted
by the same rule whatever its own peak heights.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from . import _pool
from ._csvrows import number, read_rows
from .protocol import (
    RUN_CONFIGS,
    RUN_SUB_BY_BLOCKERS,
    Evaluation,
    NSIT_MARGINALS,
    JointProbTable,
    combine,
    evaluate,
    ingredients,
    joint_tables,
)
from .simulate import TimestampStream, as_stamps

__all__ = [
    "DEFAULT_BIN_WIDTH",
    "DEFAULT_WINDOW_RANGE",
    "BootstrapResult",
    "CoincidenceHistogram",
    "NoPeakError",
    "ResultReport",
    "WindowSelection",
    "analyze_counts",
    "analyze_dataset",
    "bootstrap_sdm",
    "corrected_coincidences",
    "count_dataset",
    "count_sub_run",
    "error_distributions",
    "histogram",
    "joint_probs_from_counts",
    "load_run_counts_csv",
    "per_iteration_values",
    "representative_counts_path",
    "select_window",
]

DEFAULT_BIN_WIDTH = 100
DEFAULT_WINDOW_RANGE = (-50_000, 50_000)

# A peak must rise this many Poisson sigmas above the flatline to count.
PEAK_THRESHOLD_SIGMAS = 5.0
# Flatline bins are taken beyond this many window widths from the peak; a
# counting window reaches this many FWHMs beyond its outermost peaks.
_FLATLINE_EXCLUSION_FACTOR = 3

# Detector column order used throughout: (+1 detector, -1 detector).
_DETECTOR_COLUMNS = ("P", "M")
_SAMPLE_CHUNK = 200_000
# Pairings per table batch on the error path; its arrays then stay in cache.
_TABLE_BATCH = 8192
_BOOTSTRAP_CHUNK = 20_000


class NoPeakError(ValueError):
    """Histogram has no detectable coincidence peak (blocked or noise-only)."""


@dataclass(frozen=True)
class CoincidenceHistogram:
    """Counts of detector time differences over uniform delay bins.

    Attributes
    ----------
    bin_width : int
        Bin width in picoseconds.
    origin : int
        Left edge of the first bin in picoseconds.
    counts : numpy.ndarray
        Nonnegative integer counts, one per bin, at least three bins.
    """

    bin_width: int
    origin: int
    counts: np.ndarray

    def __post_init__(self) -> None:
        if self.bin_width <= 0:
            raise ValueError("bin_width must be positive")
        counts = np.array(self.counts, dtype=np.int64, copy=True)
        if counts.ndim != 1 or counts.size < 3:
            raise ValueError("counts must be a 1-D array with at least 3 bins")
        if np.any(counts < 0):
            raise ValueError("counts must be nonnegative")
        counts.flags.writeable = False
        object.__setattr__(self, "counts", counts)

    @property
    def n_bins(self) -> int:
        return int(self.counts.size)

    def bin_start(self, index: int) -> int:
        """Left edge of bin ``index`` in picoseconds."""
        return self.origin + index * self.bin_width


@dataclass(frozen=True)
class WindowSelection:
    """Counting window on the delay axis and the guard around it.

    :func:`select_window` chooses it from a histogram's delay peaks, and
    :func:`corrected_coincidences` counts it on a histogram of the same
    bin grid, taking every bin outside the guard as background.

    Attributes
    ----------
    start, end : int
        Window interval [start, end) in picoseconds, aligned to bins.
    guard_start, guard_end : int
        Interval [guard_start, guard_end) in picoseconds, around the window
        and aligned to its bins, that the background leaves out.
    bin_width : int
        Bin width in picoseconds the window was derived from.
    """

    start: int
    end: int
    guard_start: int
    guard_end: int
    bin_width: int = DEFAULT_BIN_WIDTH

    def __post_init__(self) -> None:
        if self.start >= self.end:
            raise ValueError("window start must precede end")
        if self.guard_start > self.start or self.guard_end < self.end:
            raise ValueError("the guard must contain the window")
        if self.bin_width <= 0:
            raise ValueError("bin_width must be positive")
        edges = (self.end, self.guard_start, self.guard_end)
        if any((edge - self.start) % self.bin_width for edge in edges):
            raise ValueError("window and guard must span whole numbers of bins")

    @property
    def n_bins(self) -> int:
        return (self.end - self.start) // self.bin_width


@dataclass(frozen=True)
class BootstrapResult:
    """Spread of resampled iteration means.

    Attributes
    ----------
    I : int
        Samples drawn (with replacement) per resampled mean.
    K : int
        Number of resampled means.
    mean : float
        Mean of the K resampled means.
    sd : float
        Standard deviation across the K resampled means.
    sd_over_mean : float or None
        sd / mean, or None when the mean is exactly zero.
    """

    I: int
    K: int
    mean: float
    sd: float
    sd_over_mean: Optional[float]

    def __post_init__(self) -> None:
        if self.K < 1 or self.I < 1:
            raise ValueError("I and K must be at least 1")
        if self.sd < 0.0:
            raise ValueError("sd must be nonnegative")

    @property
    def ratio_defined(self) -> bool:
        return self.sd_over_mean is not None


@dataclass(frozen=True)
class ResultReport:
    """Inequality values with worst-case errors and their ingredients.

    Attributes
    ----------
    lgi, wlgi, nsit12, nsit23, nsit13 : tuple
        (mean, delta) pairs; delta is None when the input carries no
        iteration spread (e.g. a single table of mean counts).
    correlations : dict
        ``"t1t2"``/``"t2t3"``/``"t1t3"`` -> (value, sigma or None).
    wlgi_terms : dict
        The three P(-, +) probabilities entering the WLGI expression.
    provenance : dict
        Input description (iteration counts, seeds, window settings).
    """

    lgi: Tuple[float, Optional[float]]
    wlgi: Tuple[float, Optional[float]]
    nsit12: Tuple[float, Optional[float]]
    nsit23: Tuple[float, Optional[float]]
    nsit13: Tuple[float, Optional[float]]
    correlations: Dict[str, Tuple[float, Optional[float]]]
    wlgi_terms: Dict[str, float]
    provenance: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready dictionary with mean/delta keys."""

        def pair(values: Tuple[float, Optional[float]], err: str) -> Dict[str, object]:
            mean, delta = values
            return {"mean": float(mean), err: None if delta is None else float(delta)}

        return {
            "lgi": pair(self.lgi, "delta"),
            "wlgi": pair(self.wlgi, "delta"),
            "nsit12": pair(self.nsit12, "delta"),
            "nsit23": pair(self.nsit23, "delta"),
            "nsit13": pair(self.nsit13, "delta"),
            "correlations": {
                key: pair(value, "sigma") for key, value in self.correlations.items()
            },
            "wlgi_terms": {key: float(v) for key, v in self.wlgi_terms.items()},
            "provenance": dict(self.provenance),
        }


Stream = Union[TimestampStream, Sequence[int], np.ndarray]


def _times(stream: Stream, label: str) -> np.ndarray:
    if isinstance(stream, TimestampStream):
        return stream.times
    times = as_stamps(stream, label)
    if times.ndim != 1:
        raise ValueError(f"{label} timestamps must be one-dimensional")
    if times.size > 1 and np.any(np.diff(times) < 0):
        raise ValueError(f"{label} timestamps must be sorted ascending")
    return times


def _n_bins(bin_width: int, window: Tuple[int, int]) -> int:
    """Bins of a :func:`histogram` over ``window``; raises ``ValueError`` as it documents."""
    lo, hi = window
    if bin_width <= 0:
        raise ValueError("bin_width must be positive")
    if hi <= lo or (hi - lo) % bin_width != 0:
        raise ValueError("range must span a positive whole number of bins")
    if (hi - lo) // bin_width < 3:
        raise ValueError("range must cover at least 3 bins")
    return (hi - lo) // bin_width


def histogram(
    a: Stream,
    b: Stream,
    bin_width: int = DEFAULT_BIN_WIDTH,
    window: Tuple[int, int] = DEFAULT_WINDOW_RANGE,
) -> CoincidenceHistogram:
    """Histogram of pairwise time differences t_b - t_a within a range.

    Counts every pair whose difference falls in ``[window[0], window[1])``
    into uniform bins.  A pair needs ``t_b - window[1] < t_a <= t_b -
    window[0]``.  One binary search per test-stream stamp ``t_b`` finds
    its first candidate, the first ``t_a`` above ``t_b - window[1]``; the
    walk then tries candidate k = 0, 1, ... of every stamp still active,
    bins the pairs whose k-th candidate is not past ``t_b - window[0]``
    and drops the stamps whose candidate is.  The active set shrinks with
    every pass, so the cost is O(n_b log n_a + pairs) with no quadratic
    scan and no second search for the upper end.  The herald reference is
    the larger stream, so searching from the test side halves the
    searches.

    Parameters
    ----------
    a, b : TimestampStream or sorted integer array
        Reference (e.g. herald) and test streams.  Float arrays must hold
        whole numbers (see :func:`macroreal.simulate.as_stamps`).
    bin_width : int
        Bin width in picoseconds.
    window : tuple of int
        Half-open difference range; must span a whole number of bins and
        at least three of them.

    Returns
    -------
    CoincidenceHistogram
    """
    lo, hi = int(window[0]), int(window[1])
    n_bins = _n_bins(bin_width, (lo, hi))
    ta, tb = _times(a, "reference (a)"), _times(b, "test (b)")
    counts = np.zeros(n_bins, dtype=np.int64)

    # lo <= tb - ta < hi  <=>  tb - hi < ta <= tb - lo.  cand is each
    # active stamp's current candidate index into ta, top its tb - lo.
    cand = np.searchsorted(ta, tb - hi, side="right")
    top = tb - lo
    while cand.size:
        # cand is nondecreasing, so the stamps whose candidate ran off the
        # end of ta are a suffix.
        inside = int(np.searchsorted(cand, ta.size))
        cand, top = cand[:inside], top[:inside]
        gap = top - ta[cand]
        live = gap >= 0
        gap = np.compress(live, gap)
        if gap.size == 0:
            break
        # gap = tb - ta - lo lies in [0, hi - lo).
        counts += np.bincount(gap // bin_width, minlength=n_bins)
        cand = np.compress(live, cand) + 1
        top = np.compress(live, top)
    return CoincidenceHistogram(bin_width, lo, counts)


def _expand_window(counts: np.ndarray, peak_idx: int, level: float) -> Tuple[int, int]:
    """Widest bin range [i_lo, i_hi] around ``peak_idx`` whose counts are >= ``level``.

    ``level`` lies between the flatline and the peak, so the peak bin itself
    is never below it and each walk outwards stops at the first bin that is.
    """
    below = counts < level
    left = below[peak_idx::-1]
    k = int(left.argmax())
    i_lo = peak_idx - k + 1 if left[k] else 0
    right = below[peak_idx:]
    k = int(right.argmax())
    i_hi = peak_idx + k - 1 if right[k] else counts.size - 1
    return i_lo, i_hi


def _detectable(peak: float, flatline: float) -> bool:
    return peak >= flatline + PEAK_THRESHOLD_SIGMAS * math.sqrt(flatline + 1.0)


def _find_window(counts: np.ndarray) -> Tuple[int, int]:
    """Bin range [i_lo, i_hi) of the FWHM window around the histogram's peak.

    Takes the contiguous bins at or above the flatline-corrected half
    maximum around the maximum bin, refines the flatline from the bins
    beyond three window widths of them (dropping peak-like outliers, so a
    second delay peak does not count as background) and re-expands once at
    the refined half-maximum level.  ``counts`` is an int64 array of counts
    far below 2**53, so every sum and mean of them is exact.  Raises
    :class:`NoPeakError` if the maximum bin does not exceed the flatline by
    at least 5 * sqrt(flatline + 1) counts (blocked or noise-only input).
    """
    flatline = np.median(counts)
    peak_idx = int(np.argmax(counts))
    peak = float(counts[peak_idx])
    if not _detectable(peak, flatline):
        raise NoPeakError("no coincidence peak above the flatline")

    i_lo, i_hi = _expand_window(counts, peak_idx, flatline + 0.5 * (peak - flatline))
    margin = _FLATLINE_EXCLUSION_FACTOR * (i_hi - i_lo + 1)
    cut_lo, cut_hi = max(0, i_lo - margin), min(counts.size, i_hi + margin + 1)
    if cut_lo > 0 or cut_hi < counts.size:
        rest = np.concatenate((counts[:cut_lo], counts[cut_hi:]))
        med = np.median(rest)
        # A second delay peak elsewhere must not inflate the background.
        keep = rest < med + PEAK_THRESHOLD_SIGMAS * math.sqrt(med + 1.0)
        if keep.any():
            rest = np.compress(keep, rest)
        flatline = float(rest.sum()) / rest.size
    if not _detectable(peak, flatline):
        raise NoPeakError("no coincidence peak above the flatline")
    i_lo, i_hi = _expand_window(counts, peak_idx, flatline + 0.5 * (peak - flatline))
    return i_lo, i_hi + 1


def select_window(h: CoincidenceHistogram) -> WindowSelection:
    """Counting window of a delay histogram and the guard around it.

    The window holds the histogram's delay peaks, at most two (one per outer
    arm), each the FWHM window :func:`_find_window` finds.  The first is set
    to the median ``_FLATLINE_EXCLUSION_FACTOR`` FWHMs either side before
    the second search, so its tail never passes for a peak.  The window runs
    from the first peak's start to the last peak's end, each widened by that
    guard of its own FWHMs; the guard reaches the wider guard beyond the
    window, and every bin outside it is background.  Raises
    :class:`NoPeakError` if there is no peak, and ``ValueError`` if the
    histogram's range leaves no background bin.
    """
    counts, n = h.counts, h.n_bins
    i_lo, i_hi = _find_window(counts)
    guard = _FLATLINE_EXCLUSION_FACTOR * (i_hi - i_lo)
    w_lo, w_hi = i_lo - guard, i_hi + guard
    masked = counts.copy()
    masked[max(w_lo, 0) : w_hi] = int(round(np.median(counts)))
    try:
        j_lo, j_hi = _find_window(masked)
    except NoPeakError:
        pass
    else:
        second = _FLATLINE_EXCLUSION_FACTOR * (j_hi - j_lo)
        w_lo, w_hi = min(w_lo, j_lo - second), max(w_hi, j_hi + second)
        guard = max(guard, second)
    w_lo, w_hi = max(w_lo, 0), min(w_hi, n)
    edges = (w_lo, w_hi, max(w_lo - guard, 0), min(w_hi + guard, n))
    w = WindowSelection(*map(h.bin_start, edges), h.bin_width)
    _window_bins(h, w)
    return w


def _window_bins(h: CoincidenceHistogram, w: WindowSelection) -> Tuple[int, int, int, int]:
    """Bin indices (w_lo, w_hi, b_lo, b_hi) of ``h``: window [w_lo, w_hi), guard [b_lo, b_hi)."""
    if w.bin_width != h.bin_width:
        raise ValueError(
            f"window bin_width {w.bin_width} differs from the histogram's {h.bin_width}"
        )
    if (w.start - h.origin) % h.bin_width != 0:
        raise ValueError("window is off the histogram's bin grid")
    w_lo, w_hi, b_lo, b_hi = (
        (edge - h.origin) // h.bin_width for edge in (w.start, w.end, w.guard_start, w.guard_end)
    )
    if b_lo < 0 or b_hi > h.n_bins:
        raise ValueError("window or its guard lies outside the histogram")
    if b_lo == 0 and b_hi == h.n_bins:
        raise ValueError(
            "the delay range leaves no background bin beyond the counting window; widen it"
        )
    return w_lo, w_hi, b_lo, b_hi


def _corrected(hists: np.ndarray, spans: Sequence[Tuple[int, int, int, int]]) -> np.ndarray:
    """(rows, detectors) corrected counts of a (rows, detectors, bins) histogram stack.

    Detector ``d``'s :func:`_window_bins` are ``spans[d]``.  Each row counts
    its window sum less its own mean count per background bin times the
    window's bins; negative results clamp to zero, with one
    ``RuntimeWarning`` saying how many.
    """
    values = np.empty(hists.shape[:2])
    for col, (w_lo, w_hi, b_lo, b_hi) in enumerate(spans):
        rows = hists[:, col]
        n_bg = b_lo + rows.shape[1] - b_hi
        background = (rows[:, :b_lo].sum(axis=1) + rows[:, b_hi:].sum(axis=1)) / n_bg
        values[:, col] = rows[:, w_lo:w_hi].sum(axis=1) - background * (w_hi - w_lo)
    negative = values < 0.0
    if negative.any():
        warnings.warn(
            f"{int(negative.sum())} of {values.size} corrected coincidence counts "
            "clamped to zero",
            RuntimeWarning,
            stacklevel=3,
        )
        values[negative] = 0.0
    return values


def corrected_coincidences(h: CoincidenceHistogram, w: WindowSelection) -> float:
    """Background-corrected pair count inside a coincidence window.

    The raw count is the sum of ``h``'s bins in [w.start, w.end), i.e. the
    pairs with a difference in that interval, less ``h``'s mean count per
    bin outside [w.guard_start, w.guard_end) per window bin; a negative
    result clamps to zero with a ``RuntimeWarning``.  Raises ``ValueError``
    if ``w`` has another ``bin_width`` than ``h``, is off ``h``'s bin grid,
    reaches outside ``h`` or leaves it no background bin.
    """
    return float(_corrected(h.counts[None, None], [_window_bins(h, w)])[0, 0])


def count_sub_run(
    herald: Stream,
    detector: Stream,
    bin_width: int = DEFAULT_BIN_WIDTH,
    window: Tuple[int, int] = DEFAULT_WINDOW_RANGE,
) -> float:
    """Corrected coincidences between a herald and one detector.

    :func:`corrected_coincidences` in the :func:`select_window` window of
    the one histogram of ``bin_width`` bins over the search range
    ``window``: the rule :func:`count_dataset` applies to each detector's
    dataset-summed histogram.  Raises :class:`NoPeakError` if the histogram
    has no detectable peak, and ``ValueError`` if ``window`` leaves no
    background bin beyond the counting window.
    """
    h = histogram(herald, detector, bin_width, window)
    return corrected_coincidences(h, select_window(h))


def _dataset_window(dataset) -> Tuple[int, int]:
    """Delay search range centered on the dataset's nominal path delay."""
    half = (DEFAULT_WINDOW_RANGE[1] - DEFAULT_WINDOW_RANGE[0]) // 2
    center = int(round(dataset.source.base_delay))
    return (center - half, center + half)


def _histogram_iteration(dataset, bin_width: int, window: Tuple[int, int], key) -> np.ndarray:
    """(2, bins) histogram counts of the (+1, -1) detectors of iteration (run, sub, it) ``key``."""
    herald, *detectors = dataset.streams(*key)
    return np.stack([histogram(herald, det, bin_width, window).counts for det in detectors])


def count_dataset(
    dataset,
    bin_width: int = DEFAULT_BIN_WIDTH,
    window: Optional[Tuple[int, int]] = None,
) -> Dict[Tuple[int, int], np.ndarray]:
    """Corrected coincidence counts for every sub-run iteration.

    Each iteration's two delay histograms are made through
    :func:`macroreal._pool.map`, the pool in which
    ``ExperimentDataset.to_directory`` writes archives: in up to one forked
    worker per CPU this process may use (``taskset`` limits them), or here
    where forking is impossible or unsafe.  The counts are the same either
    way.  Each detector's histograms are summed over the dataset and its
    window and background bins chosen once from the sum, by the rule of
    :func:`count_sub_run`.  Every iteration counts its window sum minus its
    own mean count per background bin times the window's bins; negative
    results clamp to zero, with one ``RuntimeWarning`` saying how many.

    Parameters
    ----------
    dataset : ExperimentDataset or directory dataset
        Read through ``iterations`` (run -> iterations of each of its
        sub-runs), ``source`` (for the default window) and ``streams(run,
        sub_run, iteration)``, over the sub-runs of ``RUN_CONFIGS``.
    bin_width, window :
        Histogram settings; the default search window is centered on the
        dataset's base path delay.

    Returns
    -------
    dict
        (run, sub_run) -> (iterations, 2) corrected counts on the (+1, -1)
        detectors.

    Raises
    ------
    NoPeakError
        Naming the detector (``P`` for +1, ``M`` for -1) whose summed
        histogram has no coincidence peak (a dead or unplugged detector).
    Exception
        Whatever ``dataset.streams`` or :func:`histogram` raises first in
        schedule order, e.g. the ``ValueError`` naming a damaged archive.
    concurrent.futures.process.BrokenProcessPool
        If a worker process dies while counting (killed, out of memory).
    """
    if window is None:
        window = _dataset_window(dataset)
    subs = [(run, sub) for run, cfgs in RUN_CONFIGS.items() for sub in range(len(cfgs))]
    keys = [(run, sub, it) for run, sub in subs for it in range(dataset.iterations[run])]
    stack = np.empty((len(keys), 2, _n_bins(bin_width, window)), dtype=np.int64)
    job = (dataset, bin_width, window)
    for i, hists in enumerate(_pool.map(_histogram_iteration, job, keys)):
        stack[i] = hists
    spans = []
    for col, label in enumerate(_DETECTOR_COLUMNS):
        summed = CoincidenceHistogram(bin_width, int(window[0]), stack[:, col].sum(axis=0))
        try:
            spans.append(_window_bins(summed, select_window(summed)))
        except NoPeakError:
            raise NoPeakError(
                f"detector {label}: no coincidence peak in its delay histogram "
                f"summed over all {len(keys)} iterations"
            ) from None
    values = _corrected(stack, spans)
    ends = np.cumsum([dataset.iterations[run] for run, _ in subs])
    return dict(zip(subs, np.split(values, ends[:-1])))


def _run_arrays(counts: Mapping[Tuple[int, int], np.ndarray], run: int) -> List[np.ndarray]:
    """One run's (iterations, 2) count arrays, in sub-run order."""
    arrays = []
    for sub in range(len(RUN_CONFIGS[run])):
        if (run, sub) not in counts:
            raise ValueError(f"missing counts for run {run} sub-run {sub}")
        arr = np.asarray(counts[(run, sub)], dtype=float)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError("count arrays must have shape (iterations, 2)")
        arrays.append(arr)
    return arrays


def joint_probs_from_counts(
    counts: Mapping[Tuple[int, int], np.ndarray],
) -> Dict[Tuple[str, ...], JointProbTable]:
    """Joint probability tables from per-sub-run corrected counts.

    Each run's mean cell counts are normalized by the run total; the
    two-time (t1, t2) table is obtained by marginalizing the final time of
    the three-time table.

    Parameters
    ----------
    counts : mapping
        (run, sub_run) -> (iterations, 2) corrected counts, detector
        columns ordered (+1, -1).

    Returns
    -------
    dict
        Keys ("t2","t3"), ("t1","t3"), ("t1","t2","t3"), ("t1","t2") and
        ("t3",) mapped to JointProbTable values (whichever runs are
        present).

    Raises
    ------
    UndefinedProbabilityError
        If a run's total mean count is zero.
    """
    cells = {}
    for run, cfgs in RUN_CONFIGS.items():
        if any((run, sub) in counts for sub in range(len(cfgs))):
            means = [arr.mean(axis=0) for arr in _run_arrays(counts, run)]
            cells[run] = [(float(c[0]), float(c[1])) for c in means]
    return joint_tables(cells)


def _pairing_tables(
    arrays: Sequence[np.ndarray], run: int, idx: Sequence[np.ndarray]
) -> Dict[Tuple[str, ...], JointProbTable]:
    """Tables of one run whose entry k pairs iteration ``idx[sub][k]`` of each sub-run."""
    return joint_tables({run: [(arr[:, 0][i], arr[:, 1][i]) for arr, i in zip(arrays, idx)]})


def _pairings(
    sizes: Sequence[int], rng: np.random.Generator, n_samples: int, exhaustive_limit: int
):
    """Batches of iteration pairings of one run, one index array per sub-run.

    A run of at most two sub-runs, or whose sub-runs all have at most
    ``exhaustive_limit`` iterations, is enumerated; any other gets
    ``n_samples`` uniform draws, drawn ``_SAMPLE_CHUNK`` at a time.  Both
    are handed out in batches of at most ``_TABLE_BATCH`` pairings.
    """
    if len(sizes) <= 2 or max(sizes) <= exhaustive_limit:
        chunks = [[g.ravel() for g in np.meshgrid(*map(np.arange, sizes), indexing="ij")]]
    else:
        chunks = (
            [rng.integers(0, n, size=min(_SAMPLE_CHUNK, n_samples - drawn)) for n in sizes]
            for drawn in range(0, n_samples, _SAMPLE_CHUNK)
        )
    for idx in chunks:
        for start in range(0, idx[0].size, _TABLE_BATCH):
            yield [i[start : start + _TABLE_BATCH] for i in idx]


class _Spread:
    """Sample standard deviation (ddof=1) of values that arrive in batches.

    Batches merge by the pairwise update of Chan, Golub and LeVeque, so
    none is kept; one batch gives ``np.std(values, ddof=1)`` exactly.
    """

    n, mean, m2 = 0, 0.0, 0.0

    def add(self, values: np.ndarray) -> None:
        n, mean = values.size, float(values.mean())
        total, delta = self.n + n, mean - self.mean
        self.m2 += float(np.square(values - mean).sum()) + delta * delta * self.n * n / total
        self.mean += delta * n / total
        self.n = total

    def std(self) -> float:
        return math.sqrt(self.m2 / (self.n - 1))


def error_distributions(
    counts: Mapping[Tuple[int, int], np.ndarray],
    n_samples: int = 1_000_000,
    seed: int = 0,
    exhaustive_limit: int = 20,
) -> Dict[str, float]:
    """Standard deviations of cross-combination inequality ingredients.

    Every iteration of one sub-run may be combined with every iteration of
    the others, giving a distribution per derived quantity: the
    :func:`~macroreal.protocol.ingredients` of the run's
    :func:`~macroreal.protocol.joint_tables` for that pairing.
    The full cross-pairing of the two-sub-run runs (1 and 2) is always
    enumerated; the four-way combination space of the double-blocked run 3
    is subsampled with ``n_samples`` uniform draws, or enumerated when
    every sub-run has at most ``exhaustive_limit`` iterations.

    Parameters
    ----------
    counts : mapping
        (run, sub_run) -> (iterations, 2) corrected counts.
    n_samples : int
        Random four-way combination draws; at least 2.
    seed : int
        Seed for the run-3 combination sampler.
    exhaustive_limit : int
        Largest per-sub-run iteration count enumerated exhaustively.

    Returns
    -------
    dict
        Correlation sigmas ``sigma12``/``sigma23``/``sigma13`` and their
        sum ``delta``; WLGI-term sigmas and ``wlgi_delta``; ``p3_sigma``;
        and the summed NSIT bounds ``nsit12_delta``/``nsit23_delta``/
        ``nsit13_delta``.

    Raises
    ------
    ValueError
        If ``n_samples`` is below 2, or any sub-run has fewer than 2
        iterations.
    UndefinedProbabilityError
        Naming the run, if some pairing's total count is zero.
    """
    if n_samples < 2:
        raise ValueError(f"n_samples must be >= 2, got {n_samples}")
    arrays = {run: _run_arrays(counts, run) for run in RUN_CONFIGS}
    for run, subs in arrays.items():
        for sub, arr in enumerate(subs):
            if arr.shape[0] < 2:
                raise ValueError(f"run {run} sub-run {sub} has fewer than 2 iterations")
    rng = np.random.default_rng(seed)
    spreads: Dict[object, _Spread] = {}
    for run, subs in arrays.items():
        sizes = [arr.shape[0] for arr in subs]
        for idx in _pairings(sizes, rng, n_samples, exhaustive_limit):
            for name, values in ingredients(_pairing_tables(subs, run, idx)).items():
                spreads.setdefault(name, _Spread()).add(values)
    sigma = {name: spread.std() for name, spread in spreads.items()}
    out: Dict[str, float] = {}
    for pair in ("23", "13", "12"):
        out[f"sigma{pair}"], out[f"wlgi_sigma{pair}"] = sigma[f"c{pair}"], sigma[f"mp{pair}"]
    # Worst-case sums, in the order of the terms of LGI and WLGI.
    out["delta"] = out["sigma12"] + out["sigma23"] + out["sigma13"]
    out["wlgi_delta"] = out["wlgi_sigma13"] + out["wlgi_sigma12"] + out["wlgi_sigma23"]
    out["p3_sigma"] = sigma[(("t3",), "t3")]
    for name, pair in NSIT_MARGINALS.items():
        out[f"{name}_delta"] = sum(sigma[marginal] for marginal in pair)
    return out


def bootstrap_sdm(
    samples: Sequence[float], I: int, K: int, seed: int = 0
) -> BootstrapResult:
    """Bootstrap spread of the mean of I samples drawn with replacement.

    Parameters
    ----------
    samples : sequence of float
        Observed per-iteration values.
    I : int
        Draws per resampled mean; at most ``len(samples)``.
    K : int
        Number of resampled means.
    seed : int
        Seed for the resampler.

    Returns
    -------
    BootstrapResult
        ``sd_over_mean`` is None when the mean of means is exactly zero.
    """
    arr = np.asarray(samples, dtype=float).ravel()
    if I < 1 or arr.size < I:
        raise ValueError("need 1 <= I <= len(samples)")
    if K < 1:
        raise ValueError("K must be at least 1")
    rng = np.random.default_rng(seed)
    means = np.empty(K)
    done = 0
    while done < K:
        block = min(_BOOTSTRAP_CHUNK, K - done)
        idx = rng.integers(0, arr.size, size=(block, I))
        means[done : done + block] = arr[idx].mean(axis=1)
        done += block
    mean = float(means.mean())
    sd = float(means.std(ddof=1)) if K > 1 else 0.0
    ratio = sd / mean if mean != 0.0 else None
    return BootstrapResult(I=I, K=K, mean=mean, sd=sd, sd_over_mean=ratio)


def per_iteration_values(
    counts: Mapping[Tuple[int, int], np.ndarray],
) -> Dict[str, np.ndarray]:
    """Index-matched per-iteration inequality ingredients for plotting.

    Pairs iteration i of each sub-run within a run (no cross-combination)
    to give one set of :func:`~macroreal.protocol.ingredients` per
    iteration, and combines the runs index-wise up to the shortest run for
    per-iteration LGI/WLGI traces.

    Parameters
    ----------
    counts : mapping
        (run, sub_run) -> (iterations, 2) corrected counts.

    Returns
    -------
    dict
        Arrays ``c23``, ``c13``, ``c12``, ``p3``, ``lgi`` and ``wlgi``
        (the last two truncated to the shortest contributing run).

    Raises
    ------
    UndefinedProbabilityError
        Naming the run, if some iteration's run total is zero.
    """
    tables: Dict[Tuple[str, ...], JointProbTable] = {}
    for run in RUN_CONFIGS:
        arrays = _run_arrays(counts, run)
        n = min(arr.shape[0] for arr in arrays)
        tables.update(_pairing_tables(arrays, run, [np.arange(n)] * len(arrays)))
    values = ingredients(tables)
    out = {name: values[name] for name in ("c23", "c13", "c12")}
    out["p3"] = values[(("t3",), "t3")]
    names = ("c12", "c23", "c13", "mp12", "mp23", "mp13")
    n = min(values[name].size for name in names)
    out["lgi"], out["wlgi"] = combine(*(values[name][:n] for name in names))
    return out


def analyze_dataset(
    dataset,
    bin_width: int = DEFAULT_BIN_WIDTH,
    window: Optional[Tuple[int, int]] = None,
    n_samples: int = 1_000_000,
    seed: int = 0,
    counts: Optional[Mapping[Tuple[int, int], np.ndarray]] = None,
) -> ResultReport:
    """Full pipeline: count, tabulate, evaluate and bound a dataset.

    Unless ``counts`` is given, the dataset is counted by
    :func:`count_dataset`, in forked worker processes where this process
    may use more than one CPU.

    Parameters
    ----------
    dataset : ExperimentDataset or directory dataset
        Read as :func:`count_dataset` reads it.
    bin_width, window :
        Histogram settings; the search window defaults to one centered on
        the dataset's base path delay.
    n_samples, seed :
        Four-way combination sampling controls for the error bounds.
    counts : mapping, optional
        Precomputed :func:`count_dataset` output for this dataset (with
        the same histogram settings), to avoid counting twice.

    Returns
    -------
    ResultReport
        Point values with worst-case deltas (sum of the contributing
        cross-combination sigmas) and correlation sigmas.

    Raises
    ------
    UndefinedProbabilityError
        Naming the run, if a run's mean total or some iteration pairing's
        total is zero.
    """
    if window is None:
        window = _dataset_window(dataset)
    if counts is None:
        counts = count_dataset(dataset, bin_width, window)
    iterations = {str(run): int(dataset.iterations[run]) for run in RUN_CONFIGS}
    return _report(
        evaluate(joint_probs_from_counts(counts)),
        error_distributions(counts, n_samples=n_samples, seed=seed),
        {
            "source": "dataset",
            "bin_width": int(bin_width),
            "window": [int(window[0]), int(window[1])],
            "n_samples": int(n_samples),
            "seed": int(seed),
            "iterations": iterations,
        },
    )


def analyze_counts(counts: Mapping[Tuple[int, int], np.ndarray]) -> ResultReport:
    """Point-value report from corrected counts alone (no error bounds).

    Parameters
    ----------
    counts : mapping
        (run, sub_run) -> (iterations, 2) corrected counts; single-row
        inputs (already-averaged cells) are accepted.

    Returns
    -------
    ResultReport
        Deltas are None.
    """
    iterations = {}
    for (run, _sub), arr in counts.items():
        iterations[str(run)] = int(np.asarray(arr).shape[0])
    return _report(
        evaluate(joint_probs_from_counts(counts)),
        None,
        {"source": "counts", "iterations": iterations},
    )


def _report(
    values: Evaluation,
    sigmas: Optional[Mapping[str, float]],
    provenance: Dict[str, object],
) -> ResultReport:
    """The one place a :class:`ResultReport` is assembled.

    ``sigmas`` is an :func:`error_distributions` result, or None for a
    report without error bounds.
    """

    def err(key: str) -> Optional[float]:
        return None if sigmas is None else sigmas[key]

    correlation_sigmas = {"t1t2": "sigma12", "t2t3": "sigma23", "t1t3": "sigma13"}
    return ResultReport(
        lgi=(values.lgi, err("delta")),
        wlgi=(values.wlgi, err("wlgi_delta")),
        nsit12=(values.nsit12, err("nsit12_delta")),
        nsit23=(values.nsit23, err("nsit23_delta")),
        nsit13=(values.nsit13, err("nsit13_delta")),
        correlations={
            key: (value, err(correlation_sigmas[key]))
            for key, value in values.correlations.items()
        },
        wlgi_terms=values.wlgi_terms,
        provenance=provenance,
    )


def load_run_counts_csv(path) -> Dict[Tuple[int, int], np.ndarray]:
    """Load per-sub-run mean coincidence cells from a CSV file.

    Expected columns: ``block_t1``, ``block_t2`` (``none``/``plus``/
    ``minus``), ``detector`` (``P`` for the +1 detector, ``M`` for -1) and
    ``count``.  Every one of the nine sub-runs needs both detector rows.  A
    short row or a count that is not a finite nonnegative number raises
    ``ValueError`` naming the row.

    Parameters
    ----------
    path : str or Path

    Returns
    -------
    dict
        (run, sub_run) -> (1, 2) count array, columns ordered (+1, -1).
    """
    cells: Dict[Tuple[int, int], Dict[str, float]] = {}
    for where, row in read_rows(path, ("block_t1", "block_t2", "detector", "count")):
        blockers = (row["block_t1"].strip(), row["block_t2"].strip())
        if blockers not in RUN_SUB_BY_BLOCKERS:
            raise ValueError(f"{where}: unknown blocker configuration {blockers}")
        detector = row["detector"].strip()
        if detector not in _DETECTOR_COLUMNS:
            raise ValueError(f"{where}: unknown detector label {detector!r}")
        count = number(where, row, "count")
        if not (math.isfinite(count) and count >= 0.0):
            raise ValueError(f"{where}: count {row['count']!r} is not finite and nonnegative")
        cell = cells.setdefault(RUN_SUB_BY_BLOCKERS[blockers], {})
        if detector in cell:
            raise ValueError(f"{where}: repeats {blockers[0]},{blockers[1]},{detector}")
        cell[detector] = count
    counts: Dict[Tuple[int, int], np.ndarray] = {}
    for key in sorted(RUN_SUB_BY_BLOCKERS.values()):
        if key not in cells or set(cells[key]) != set(_DETECTOR_COLUMNS):
            raise ValueError(f"missing detector rows for run {key[0]} sub-run {key[1]}")
        counts[key] = np.array([[cells[key]["P"], cells[key]["M"]]])
    return counts


def representative_counts_path() -> Path:
    """Path of the bundled representative mean-count fixture."""
    return Path(resources.files("macroreal._data") / "representative_counts.csv")
