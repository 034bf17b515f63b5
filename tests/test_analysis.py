"""Tests for the coincidence post-processing pipeline."""

import ast
import concurrent.futures
import dataclasses
import math
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import threading
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from macroreal import analysis
from macroreal.analysis import (
    BootstrapResult,
    CoincidenceHistogram,
    NoPeakError,
    WindowSelection,
    analyze_counts,
    analyze_dataset,
    bootstrap_sdm,
    corrected_coincidences,
    count_dataset,
    count_sub_run,
    error_distributions,
    histogram,
    joint_probs_from_counts,
    load_run_counts_csv,
    per_iteration_values,
    representative_counts_path,
    select_window,
)
from macroreal.circuit import NOMINAL_PARAMS, SetupParams, qm_lgi, qm_nsit, qm_wlgi
from macroreal.protocol import (
    RUN_CONFIGS,
    JointProbTable,
    UndefinedProbabilityError,
    correlation,
    evaluate,
    joint_tables,
)
from macroreal.simulate import SourceConfig, TimestampStream, load_dataset, run_protocol

QUIET = dict(dark_rate_h=0.0, dark_rate_p=0.0, dark_rate_m=0.0, jitter_sigma=0.0)


def poisson_stream(rng, rate, duration_ps):
    n = rng.poisson(rate * duration_ps * 1e-12)
    return np.sort(rng.integers(0, duration_ps, size=n))


# ---------------------------------------------------------------------------
# histogram


def _random_pair(rng):
    a = np.sort(rng.integers(0, 10_000_000, size=1000))
    return a, np.sort(rng.integers(0, 10_000_000, size=1000))


def _dense_reference(rng):
    """300 reference stamps inside one 10 ns window: each test stamp near
    the burst has up to 300 candidates, so the walk makes that many passes."""
    spread, burst = rng.integers(0, 10_000_000, 300), 5_000_000 + rng.integers(0, 9000, 300)
    a = np.sort(np.concatenate([spread, burst]))
    return a, np.sort(rng.integers(4_990_000, 5_020_000, size=200))


def _far_apart(rng):
    """Test stamps between two reference clusters, 1 µs from each: every
    stamp has a first candidate, and none lies in the window."""
    low, high = rng.integers(0, 1_000_000, 250), rng.integers(4_000_000, 5_000_000, 250)
    a = np.sort(np.concatenate([low, high]))
    return a, np.sort(rng.integers(2_000_000, 3_000_000, size=500))


def test_histogram_matches_brute_force():
    for streams in (_random_pair, _dense_reference, _far_apart):
        a, b = streams(np.random.default_rng(7))
        h = histogram(a, b, bin_width=100, window=(-5000, 5000))
        expected = oracles.brute_force_coincidences(a, b, -5000, 5000, 100)
        assert np.array_equal(h.counts, expected), streams.__name__
        assert h.origin == -5000 and h.bin_width == 100


# (lo, hi, bin_width): windows that hold 0, start at it, and lie wholly on
# one side of it, like the dataset window around the path delay.
_LATTICE_WINDOWS = [
    (-5000, 5000, 1000),
    (0, 3000, 1000),
    (50_000, 150_000, 10_000),
    (-150_000, -50_000, 10_000),
]


@st.composite
def _lattice_streams(draw):
    """Two sorted streams on a lattice of half a bin, so pair differences
    land on ``lo`` and ``hi`` exactly; small index ranges repeat stamps."""
    lo, hi, bin_width = draw(st.sampled_from(_LATTICE_WINDOWS))
    step = bin_width // 2
    span = 2 * max(abs(lo), abs(hi)) // step + 2
    offset = draw(st.integers(0, 10**9)) * step
    index = st.integers(0, span)
    a, b = (
        offset + step * np.sort(np.array(draw(st.lists(index, max_size=30)), dtype=np.int64))
        for _ in range(2)
    )
    return a, b, (lo, hi), bin_width


@settings(max_examples=300, deadline=None)
@given(_lattice_streams())
def test_histogram_equals_brute_force_on_window_edges_and_repeats(case):
    a, b, window, bin_width = case
    h = histogram(a, b, bin_width=bin_width, window=window)
    expected = oracles.brute_force_coincidences(a, b, *window, bin_width)
    assert h.counts.dtype == np.int64
    assert np.array_equal(h.counts, expected)


def test_histogram_shifted_delta_stream():
    a = np.arange(0, 200_000_000, 200_000, dtype=np.int64)
    b = a + 5000
    h = histogram(a, b, bin_width=100, window=(-50_000, 50_000))
    peak = (5000 - h.origin) // h.bin_width
    assert h.counts[peak] == len(a)
    assert h.counts.sum() == len(a)


def test_histogram_accidental_rate():
    rng = np.random.default_rng(11)
    duration_ps = 10**12
    rate = 2e5
    a = poisson_stream(rng, rate, duration_ps)
    b = poisson_stream(rng, rate, duration_ps)
    h = histogram(a, b, bin_width=100, window=(-50_000, 50_000))
    expected = rate * rate * 100e-12  # pairs per bin per second x 1 s
    mean = h.counts.mean()
    tol = 4.0 * math.sqrt(expected / h.n_bins)
    assert abs(mean - expected) < tol


def test_histogram_empty_stream():
    h = histogram(np.array([], dtype=np.int64), np.array([100, 200]))
    assert h.counts.sum() == 0
    assert h.n_bins == 1000


def test_histogram_validation():
    a = np.array([0, 100])
    with pytest.raises(ValueError):
        histogram(a, a, bin_width=0)
    with pytest.raises(ValueError):
        histogram(a, a, bin_width=100, window=(-150, 160))
    with pytest.raises(ValueError):
        histogram(a, a, bin_width=100, window=(0, 200))
    with pytest.raises(ValueError):
        histogram(np.array([200, 100]), a)


@pytest.mark.parametrize(
    "a, b, message",
    [
        ([0.5, 1.7, 2.9], [1, 2], r"^reference \(a\) timestamps must be whole"),
        ([1, 2], [0.2, 0.7], r"^test \(b\) timestamps must be whole"),
        ([1.0, math.nan], [1, 2], r"^reference \(a\) timestamps must be whole"),
        ([1, 2], [1.0, -math.inf], r"^test \(b\) timestamps must be whole"),
    ],
    ids=["fractional-a", "fractional-b", "nan-a", "inf-b"],
)
def test_histogram_refuses_stamps_that_are_not_whole_numbers(a, b, message):
    with pytest.raises(ValueError, match=message):
        histogram(np.array(a), np.array(b), bin_width=1, window=(-3, 3))


# ---------------------------------------------------------------------------
# window selection and correction


def gaussian_pair_streams(n, sigma, offset, seed=3, spacing=1_000_000):
    rng = np.random.default_rng(seed)
    a = np.arange(n, dtype=np.int64) * spacing
    b = np.sort(a + offset + np.rint(rng.normal(0.0, sigma, size=n)).astype(np.int64))
    return a, b


def test_select_window_gaussian_fwhm():
    a, b = gaussian_pair_streams(200_000, sigma=400.0, offset=0)
    w = select_window(histogram(a, b))
    # One peak: its FWHM plus three FWHMs either side, guarded by three more.
    fwhm_bins, rest = divmod(w.n_bins, 7)
    assert rest == 0
    assert abs(fwhm_bins - 2.355 * 400.0 / 100.0) <= 1.0  # 9.42
    guard = 3 * fwhm_bins * w.bin_width
    assert (w.start - w.guard_start, w.guard_end - w.end) == (guard, guard)


def test_select_window_centered_at_offset():
    a, b = gaussian_pair_streams(100_000, sigma=400.0, offset=20_000)
    w = select_window(histogram(a, b))
    center = 0.5 * (w.start + w.end)
    assert abs(center - 20_000) <= 100


def test_select_window_flat_histogram_raises():
    rng = np.random.default_rng(5)
    h = CoincidenceHistogram(100, -50_000, rng.poisson(5.0, size=1000))
    with pytest.raises(NoPeakError):
        select_window(h)


def test_select_window_flatline_estimate():
    rng = np.random.default_rng(9)
    counts = rng.poisson(8.0, size=1000)
    peak = np.array([200, 900, 2000, 900, 200])
    counts[498:503] += peak
    h = CoincidenceHistogram(100, -50_000, counts)
    w = select_window(h)
    i_lo, i_hi = (w.start - h.origin) // 100, (w.end - h.origin) // 100
    g_lo, g_hi = (w.guard_start - h.origin) // 100, (w.guard_end - h.origin) // 100
    background = np.concatenate((counts[:g_lo], counts[g_hi:]))
    raw = int(counts[i_lo:i_hi].sum())
    # The subtracted level is the mean count per bin outside the guard.
    level = (raw - corrected_coincidences(h, w)) / w.n_bins
    assert level == pytest.approx(background.mean(), rel=1e-12)
    assert abs(level - 8.0) < 4.0 * math.sqrt(8.0 / background.size)


def test_select_window_matches_the_median_reference_bit_for_bit():
    rng = np.random.default_rng(31)
    outcomes = set()
    for _ in range(400):
        n = int(rng.integers(3, 400))  # odd and even sizes for both medians
        counts = rng.poisson(rng.uniform(0.0, 50.0), n)
        bins = np.arange(n)
        for _ in range(int(rng.integers(0, 4))):
            center, sigma = rng.integers(0, n), rng.uniform(0.5, 20.0)
            shape = np.exp(-0.5 * ((bins - center) / sigma) ** 2)
            counts += rng.poisson(rng.uniform(0.0, 500.0) * shape)
        h = CoincidenceHistogram(100, -50_000, counts)
        expected = oracles.reference_fixed_window(counts)
        if expected is None:
            with pytest.raises(NoPeakError):
                select_window(h)
            outcomes.add("no peak")
        elif expected[2:] == (0, n):
            with pytest.raises(ValueError, match="no background bin"):
                select_window(h)
            outcomes.add("no background")
        else:
            w = select_window(h)
            assert (w.start, w.end, w.guard_start, w.guard_end) == tuple(
                h.bin_start(i) for i in expected
            )
            outcomes.add("window")
    assert outcomes == {"no peak", "no background", "window"}


def test_corrected_zero_background_all_inside():
    a = np.arange(0, 100_000_000, 100_000, dtype=np.int64)
    b = a + 5000
    w = WindowSelection(start=4900, end=5100, guard_start=4900, guard_end=5100)
    assert corrected_coincidences(histogram(a, b), w) == len(a)


def test_corrected_uniform_accidentals_near_zero():
    rng = np.random.default_rng(13)
    duration_ps = 10**12
    a = poisson_stream(rng, 2e5, duration_ps)
    b = poisson_stream(rng, 2e5, duration_ps)
    w = WindowSelection(start=-5000, end=5000, guard_start=-5000, guard_end=5000)
    raw = 2e5 * 2e5 * 100e-12 * 100
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # clamp is expected here
        assert corrected_coincidences(histogram(a, b), w) <= 4.0 * math.sqrt(raw)


def test_corrected_recovers_true_pairs():
    rng = np.random.default_rng(17)
    spacing = 1_000_000
    a = np.arange(1000, dtype=np.int64) * spacing
    accidentals = poisson_stream(rng, 2e5, 1000 * spacing)
    b = np.sort(np.concatenate([a + 5000, accidentals]))
    h = histogram(a, b)
    w = select_window(h)
    corrected = corrected_coincidences(h, w)
    raw = int(h.counts[(w.start - h.origin) // 100 : (w.end - h.origin) // 100].sum())
    assert abs(corrected - 1000) <= 4.0 * math.sqrt(raw)


def test_corrected_clamps_negative_to_zero_with_warning():
    counts = np.full(10, 3)
    counts[4:6] = 0
    w = WindowSelection(start=400, end=600, guard_start=400, guard_end=600)
    with pytest.warns(RuntimeWarning, match="1 of 1 corrected coincidence counts clamped"):
        value = corrected_coincidences(CoincidenceHistogram(100, 0, counts), w)
    assert value == 0.0


@pytest.mark.parametrize(
    "w, message",
    [
        (WindowSelection(49_900, 50_100, 49_900, 50_100), "outside"),
        (WindowSelection(4900, 5100, -50_100, 5100), "outside"),
        (WindowSelection(4950, 5050, 4950, 5050), "bin grid"),
        (WindowSelection(4800, 5200, 4800, 5200, bin_width=200), "bin_width"),
        (WindowSelection(4900, 5100, -50_000, 50_000), "no background bin"),
    ],
    ids=["window outside", "guard outside", "off the grid", "other bin_width", "no background"],
)
def test_corrected_rejects_window_not_on_the_histogram(w, message):
    a = np.arange(0, 100_000_000, 100_000, dtype=np.int64)
    with pytest.raises(ValueError, match=message):
        corrected_coincidences(histogram(a, a + 5000), w)


@pytest.mark.parametrize(
    "edges, message",
    [
        ((5000, 5000, 4900, 5100), "precede"),
        ((4900, 5100, 5000, 5100), "contain"),
        ((4900, 5100, 4900, 5150), "whole numbers"),
    ],
)
def test_window_selection_rejects_inconsistent_edges(edges, message):
    with pytest.raises(ValueError, match=message):
        WindowSelection(*edges)


def test_window_invariance_under_common_shift():
    a, b = gaussian_pair_streams(50_000, sigma=400.0, offset=5000)
    shift = 123_456_789
    h_before = histogram(a, b)
    h_after = histogram(a + shift, b + shift)
    before = corrected_coincidences(h_before, select_window(h_before))
    after = corrected_coincidences(h_after, select_window(h_after))
    assert before == after


# ---------------------------------------------------------------------------
# sub-run counting


def test_count_sub_run_sums_two_delay_peaks():
    a = np.arange(2000, dtype=np.int64) * 1_000_000
    first, second = a[:1000] + 10_000, a[1000:] + 30_000
    b = np.sort(np.concatenate([first, second]))
    assert count_sub_run(a, b) == 2000.0


def test_count_sub_run_no_peak_raises():
    rng = np.random.default_rng(19)
    a = poisson_stream(rng, 1e5, 10**11)
    b = poisson_stream(rng, 1e5, 10**11)
    with pytest.raises(NoPeakError):
        count_sub_run(a, b)


def test_count_sub_run_needs_background_bins_beyond_its_window():
    a = np.arange(1000, dtype=np.int64) * 1_000_000
    b = np.sort(a + np.rint(np.random.default_rng(3).normal(0.0, 400.0, 1000)).astype(np.int64))
    # 40 bins around a peak about 10 bins wide: the guards cover them all.
    with pytest.raises(ValueError, match="no background bin"):
        count_sub_run(a, b, window=(-2000, 2000))
    assert count_sub_run(a, b) == pytest.approx(1000.0, abs=1.0)


def test_count_sub_run_equals_stream_oracle_on_every_sub_run():
    dataset = small_quiet_dataset()
    window = analysis._dataset_window(dataset)
    widths = set()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # clamps agree on both sides
        for run, cfgs in RUN_CONFIGS.items():
            for sub in range(len(cfgs)):
                for it in range(dataset.iterations[run]):
                    h_s, *detectors = dataset.streams(run, sub, it)
                    for det in detectors:
                        counts = histogram(h_s, det, window=window).counts
                        span = oracles.reference_fixed_window(counts)
                        if span is None:
                            with pytest.raises(NoPeakError):
                                count_sub_run(h_s, det, window=window)
                            continue
                        expected = oracles.stream_fixed_window_count(
                            h_s.times, det.times, span, window
                        )
                        value = count_sub_run(h_s, det, window=window)
                        assert value == max(expected, 0.0), (run, sub, it, det.channel)
                        # Both outer-arm peaks in one window, or one.
                        widths.add(span[1] - span[0] > dataset.source.arm_delay_tau / 100)
    assert widths == {True, False}


def test_run2_peak_offsets_differ_by_arm_delay():
    src = SourceConfig(pair_rate=1e5, seed=21, **QUIET)
    dataset = run_protocol(
        src, NOMINAL_PARAMS, iterations={"interference": 1, "non_interference": 1}
    )
    centers = {}
    for sub, cfg in enumerate(RUN_CONFIGS[2]):
        h_s, p_s, _ = dataset.streams(2, sub, 0)
        w = select_window(histogram(h_s, p_s, window=(50_000, 150_000)))
        centers[cfg.block_t1] = 0.5 * (w.start + w.end)
    # Blocking -1 leaves the prompt arm; blocking +1 leaves the delayed one.
    assert abs((centers["plus"] - centers["minus"]) - src.arm_delay_tau) <= 200


# ---------------------------------------------------------------------------
# tables and inequalities


def small_quiet_dataset(seed=23, pair_rate=2e4, dark_rate=100.0):
    src = SourceConfig(
        pair_rate=pair_rate, seed=seed, dark_rate_h=dark_rate, dark_rate_p=dark_rate,
        dark_rate_m=dark_rate, jitter_sigma=400.0,
    )
    return run_protocol(
        src, NOMINAL_PARAMS, iterations={"interference": 3, "non_interference": 2}
    )


def test_count_dataset_shapes_and_probability_closure():
    dataset = small_quiet_dataset()
    counts = count_dataset(dataset)
    assert set(counts) == {(r, s) for r in (1, 2, 4) for s in range(2)} - {(4, 1)} | {
        (3, s) for s in range(4)
    } | {(4, 0)}
    assert counts[(1, 0)].shape == (2, 2)
    assert counts[(2, 0)].shape == (3, 2)
    tables = joint_probs_from_counts(counts)
    assert set(tables) == {
        ("t2", "t3"), ("t1", "t3"), ("t1", "t2", "t3"), ("t1", "t2"), ("t3",)
    }
    for table in tables.values():
        assert table.total() == pytest.approx(1.0, abs=1e-9)
        assert all(0.0 <= p <= 1.0 for p in table.entries.values())


# count_dataset counts in a pool of forked workers where it can; these tests
# pin it to the one-process loop of the oracle, bit for bit.
needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="needs the fork start method"
)


@pytest.fixture
def two_workers(monkeypatch):
    """Count through a pool of two workers, however many CPUs the host has.

    Returns the list of the worker counts of the pools started, so that a
    test can tell a pooled count from a serial one.
    """
    monkeypatch.setattr(analysis, "_usable_cpus", lambda: 2)
    started = []

    class RecordedPool(ProcessPoolExecutor):
        def __init__(self, max_workers, *args, **kwargs):
            started.append(max_workers)
            super().__init__(max_workers, *args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordedPool)
    return started


def assert_same_counts(got, expected):
    assert list(got) == list(expected)
    for key, arr in expected.items():
        assert got[key].dtype == arr.dtype and got[key].shape == arr.shape, key
        assert got[key].tobytes() == arr.tobytes(), key


@needs_fork
@pytest.mark.parametrize(
    "dataset",
    [
        run_protocol(
            SourceConfig(pair_rate=2e4, seed=5, jitter_sigma=400.0),
            NOMINAL_PARAMS,
            iterations={"interference": 3, "non_interference": 2},
            v_jitter=(0.7, 0.85),
        ),
        small_quiet_dataset(pair_rate=1e3, dark_rate=1e5),  # some counts clamp
    ],
    ids=["v_jitter", "clamped counts"],
)
def test_pooled_count_dataset_equals_the_serial_oracle(dataset, tmp_path, two_workers):
    expected = oracles.count_dataset_serial(dataset)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the clamps are tested below
        assert_same_counts(count_dataset(dataset), expected)
        assert multiprocessing.active_children() == []
        dataset.to_directory(tmp_path / "ds")
        assert_same_counts(count_dataset(load_dataset(tmp_path / "ds")), expected)
    assert multiprocessing.active_children() == []
    assert two_workers == [2, 2]


def test_the_clamped_case_has_zero_and_nonzero_counts_and_one_warning():
    dataset = small_quiet_dataset(pair_rate=1e3, dark_rate=1e5)
    with pytest.warns(RuntimeWarning) as caught:
        counts = count_dataset(dataset)
    values = np.concatenate([arr.ravel() for arr in counts.values()])
    zeros = int((values == 0.0).sum())
    assert 0 < zeros < values.size
    assert [str(w.message) for w in caught] == [
        f"{zeros} of {values.size} corrected coincidence counts clamped to zero"
    ]


@pytest.mark.parametrize(
    "dataset",
    [small_quiet_dataset(), small_quiet_dataset(pair_rate=1e3, dark_rate=1e5)],
    ids=["quiet", "clamped counts"],
)
def test_count_dataset_counts_by_the_public_window_rule(dataset):
    window = analysis._dataset_window(dataset)
    hists = {}
    for run, cfgs in RUN_CONFIGS.items():
        for sub in range(len(cfgs)):
            for it in range(dataset.iterations[run]):
                h_s, *detectors = dataset.streams(run, sub, it)
                hists[run, sub, it] = [histogram(h_s, det, window=window) for det in detectors]
    windows = [
        select_window(
            CoincidenceHistogram(100, window[0], sum(pair[col].counts for pair in hists.values()))
        )
        for col in range(2)
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # clamps agree on both sides
        counts = count_dataset(dataset)
        for (run, sub, it), pair in hists.items():
            expected = [corrected_coincidences(h, w) for h, w in zip(pair, windows)]
            assert counts[run, sub][it].tobytes() == np.array(expected).tobytes(), (run, sub, it)


class DeadDetector:
    """A dataset whose -1 detector clicks at random, with no coincidence peak."""

    def __init__(self, dataset):
        self.dataset, self.iterations, self.source = dataset, dataset.iterations, dataset.source

    def streams(self, run, sub, it):
        herald, plus, minus = self.dataset.streams(run, sub, it)
        rng = np.random.default_rng([run, sub, it])
        dead = rng.choice(self.source.duration_ps, size=len(minus), replace=False)
        return herald, plus, TimestampStream("M", np.sort(dead))


def test_a_detector_that_never_peaks_raises_naming_it():
    dataset = DeadDetector(small_quiet_dataset())
    with pytest.raises(NoPeakError, match="detector M: no coincidence peak"):
        count_dataset(dataset)
    with pytest.raises(NoPeakError, match="detector M"):
        oracles.count_dataset_serial(dataset)


def damaged_dataset_dir(root):
    """A dataset directory with one archive truncated early in the schedule
    and one late; counting it must fail on the early one."""
    small_quiet_dataset().to_directory(root)
    for rel in ("run1_sub0/iter0001.npz", "run4_sub0/iter0002.npz"):
        path = root / rel
        path.write_bytes(path.read_bytes()[:-100])
    return root


@needs_fork
def test_pooled_count_dataset_raises_for_the_earliest_damaged_file(tmp_path, two_workers):
    dataset = load_dataset(damaged_dataset_dir(tmp_path))
    for _ in range(3):
        with pytest.raises(ValueError, match=re.escape("run1_sub0/iter0001.npz")):
            count_dataset(dataset)
        assert multiprocessing.active_children() == []
    assert two_workers == [2, 2, 2]


@needs_fork
def test_pooled_count_dataset_stopped_by_errors_never_hangs(tmp_path):
    # Stress test: 40 counts, each stopped by an error while four workers
    # (more than this host's cores, as a rule) are sending results.  A
    # shutdown that kills busy workers can leave a queue lock held and wait
    # on it forever, so the loop runs in a child interpreter under a timeout.
    damaged_dataset_dir(tmp_path)
    package_root = str(Path(analysis.__file__).resolve().parent.parent)
    code = "\n".join([
        "import multiprocessing, sys",
        f"sys.path.insert(0, {package_root!r})",
        "from macroreal import analysis, simulate",
        "analysis._usable_cpus = lambda: 4",
        f"dataset = simulate.load_dataset({str(tmp_path)!r})",
        "for _ in range(40):",
        "    try:",
        "        analysis.count_dataset(dataset)",
        "    except ValueError as exc:",
        "        assert 'run1_sub0/iter0001.npz' in str(exc), exc",
        "    else:",
        "        raise AssertionError('no error raised')",
        "    assert not multiprocessing.active_children()",
    ])
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=240
    )
    assert result.returncode == 0, result.stderr


@needs_fork
def test_a_worker_that_dies_raises_rather_than_hangs(monkeypatch, two_workers):
    parent = os.getpid()
    made = analysis._histogram_iteration

    def killed_in_a_worker(dataset, bin_width, window, key):
        if key == (2, 1, 1) and os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return made(dataset, bin_width, window, key)

    monkeypatch.setattr(analysis, "_histogram_iteration", killed_in_a_worker)
    with pytest.raises(BrokenProcessPool):
        count_dataset(small_quiet_dataset())
    assert multiprocessing.active_children() == []


def _count_in_child(dataset, queue):
    try:
        queue.put(count_dataset(dataset))
    except BaseException as exc:  # reported to the test, which fails on it
        queue.put(repr(exc))


@needs_fork
def test_count_dataset_inside_a_daemonic_process_counts_serially(two_workers):
    # A daemonic process (a worker of the caller's own pool) may not have
    # children, so forking a pool there would raise.
    dataset = small_quiet_dataset()
    ctx = multiprocessing.get_context("fork")
    queue = ctx.Queue()
    child = ctx.Process(target=_count_in_child, args=(dataset, queue), daemon=True)
    child.start()
    got = queue.get(timeout=300)
    child.join(timeout=60)
    assert not child.is_alive()
    assert not isinstance(got, str), got
    assert_same_counts(got, oracles.count_dataset_serial(dataset))


@pytest.mark.parametrize("limit", ["one usable CPU", "no fork start method", "another thread"])
def test_count_dataset_counts_serially_where_it_cannot_fork(limit, monkeypatch, two_workers):
    if limit == "one usable CPU":
        monkeypatch.setattr(analysis, "_usable_cpus", lambda: 1)
    elif limit == "no fork start method":
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    release = threading.Event()
    waiter = threading.Thread(target=release.wait, args=(60,))
    if limit == "another thread":
        waiter.start()
    try:
        dataset = small_quiet_dataset()
        assert_same_counts(count_dataset(dataset), oracles.count_dataset_serial(dataset))
    finally:
        release.set()
        if waiter.is_alive():
            waiter.join(timeout=60)
    assert two_workers == []


def test_joint_probs_representative_fixture_matches_printed_tables():
    tables = joint_probs_from_counts(load_run_counts_csv(representative_counts_path()))
    p23 = tables[("t2", "t3")].entries
    printed23 = {(+1, +1): 0.414, (+1, -1): 0.107, (-1, +1): 0.122, (-1, -1): 0.357}
    for key, value in printed23.items():
        assert p23[key] == pytest.approx(value, abs=1e-3)
    p12 = tables[("t1", "t2")].entries
    printed12 = {(+1, +1): 0.406, (+1, -1): 0.106, (-1, +1): 0.113, (-1, -1): 0.376}
    for key, value in printed12.items():
        assert p12[key] == pytest.approx(value, abs=1e-3)
    assert tables[("t3",)].entries[(+1,)] == pytest.approx(0.540, abs=1e-3)


def test_marginal_identity_is_exact():
    tables = joint_probs_from_counts(load_run_counts_csv(representative_counts_path()))
    p123 = tables[("t1", "t2", "t3")].entries
    p12 = tables[("t1", "t2")].entries
    for q1 in (+1, -1):
        for q2 in (+1, -1):
            assert p12[(q1, q2)] == p123[(q1, q2, +1)] + p123[(q1, q2, -1)]


def test_joint_probs_uniform_counts():
    counts = {
        key: np.full((1, 2), 7.5)
        for key in [(1, 0), (1, 1), (2, 0), (2, 1), (3, 0), (3, 1), (3, 2), (3, 3), (4, 0)]
    }
    tables = joint_probs_from_counts(counts)
    for key, size in [
        (("t2", "t3"), 4), (("t1", "t3"), 4), (("t1", "t2", "t3"), 8),
        (("t1", "t2"), 4), (("t3",), 2),
    ]:
        for p in tables[key].entries.values():
            assert p == pytest.approx(1.0 / size, abs=1e-12)


def test_zero_run_total_raises():
    counts = {key: np.full((1, 2), 5.0) for key in [(4, 0)]}
    counts[(4, 0)] = np.zeros((1, 2))
    with pytest.raises(UndefinedProbabilityError):
        joint_probs_from_counts(counts)


def test_joint_tables_on_array_cells_match_the_scalar_path():
    rng = np.random.default_rng(67)
    n = 7
    cells = {
        run: [tuple(rng.uniform(0.0, 1000.0, size=(2, n))) for _ in cfgs]
        for run, cfgs in RUN_CONFIGS.items()
    }
    tables = joint_tables(cells)
    assert set(tables) == {("t2", "t3"), ("t1", "t3"), ("t1", "t2", "t3"), ("t1", "t2"), ("t3",)}
    for k in range(n):
        scalar = joint_tables(
            {run: [(float(plus[k]), float(minus[k])) for plus, minus in subs]
             for run, subs in cells.items()}
        )
        assert set(scalar) == set(tables)
        for key, table in scalar.items():
            assert tables[key].order == table.order
            for outcome, p in table.entries.items():
                assert tables[key].entries[outcome][k] == pytest.approx(p, rel=0, abs=1e-15)
    cells[1][0][0][3] = cells[1][0][1][3] = 0.0
    cells[1][1][0][3] = cells[1][1][1][3] = 0.0
    with pytest.raises(UndefinedProbabilityError, match="run 1"):
        joint_tables(cells)


@given(
    cells=st.lists(
        st.floats(min_value=1.0, max_value=1e6), min_size=18, max_size=18
    )
)
@settings(max_examples=50, deadline=None)
def test_tables_close_and_marginalize_for_any_counts(cells):
    keys = [(1, 0), (1, 1), (2, 0), (2, 1), (3, 0), (3, 1), (3, 2), (3, 3), (4, 0)]
    counts = {
        key: np.array([[cells[2 * i], cells[2 * i + 1]]]) for i, key in enumerate(keys)
    }
    tables = joint_probs_from_counts(counts)
    for table in tables.values():
        assert table.total() == pytest.approx(1.0, abs=1e-9)
    values = evaluate(tables)
    assert -3.0 <= values.lgi <= 3.0
    # WLGI = P13(-,+) - P12(-,+) - P23(-,+), each term a probability taken
    # from a different run (2, 3 and 1), so for arbitrary counts its range
    # is [-2, 1]; -1 is a lower bound only under one joint distribution.
    terms = values.wlgi_terms
    for key, table in [("t1t3", ("t1", "t3")), ("t1t2", ("t1", "t2")), ("t2t3", ("t2", "t3"))]:
        assert terms[key] == tables[table].entries[(-1, +1)]
        assert 0.0 <= terms[key] <= 1.0
    assert values.wlgi == terms["t1t3"] - terms["t1t2"] - terms["t2t3"]
    assert -2.0 <= values.wlgi <= 1.0


def test_evaluate_representative_regression():
    report = analyze_counts(load_run_counts_csv(representative_counts_path()))
    expected = oracles.representative_expectations()
    assert report.lgi[0] == pytest.approx(expected["lgi"], abs=1e-12)
    assert report.wlgi[0] == pytest.approx(expected["wlgi"], abs=1e-12)
    # Frozen pipeline values.
    assert report.lgi[0] == pytest.approx(1.3182454010, abs=1e-6)
    assert report.wlgi[0] == pytest.approx(0.0909773631, abs=1e-6)
    assert report.nsit12[0] == pytest.approx(0.0018819889, abs=1e-6)
    assert report.nsit23[0] == pytest.approx(0.0035738599, abs=1e-6)
    assert report.nsit13[0] == pytest.approx(0.0019276804, abs=1e-6)
    # Printed three-decimal values.
    assert round(report.lgi[0], 2) == 1.32
    assert report.wlgi[0] == pytest.approx(0.09, abs=1e-3)
    assert report.nsit12[0] == pytest.approx(0.002, abs=5e-4)
    assert report.nsit23[0] == pytest.approx(0.004, abs=5e-4)
    assert report.nsit13[0] == pytest.approx(0.002, abs=5e-4)
    assert report.correlations["t1t2"][0] == pytest.approx(0.56, abs=1e-2)
    assert report.correlations["t2t3"][0] == pytest.approx(0.54, abs=1e-2)
    assert report.correlations["t1t3"][0] == pytest.approx(-0.22, abs=1e-2)
    assert report.lgi[1] is None


def test_evaluate_uniform_tables():
    uniform2 = {key: 0.25 for key in [(+1, +1), (+1, -1), (-1, +1), (-1, -1)]}
    tables = {
        ("t2", "t3"): JointProbTable("two-time", dict(uniform2)),
        ("t1", "t3"): JointProbTable("two-time", dict(uniform2)),
        ("t1", "t2"): JointProbTable("two-time", dict(uniform2)),
        ("t3",): JointProbTable("one-time", {(+1,): 0.5, (-1,): 0.5}),
    }
    values = evaluate(tables)
    assert values.lgi == 0.0
    assert values.wlgi == -0.25
    assert values.nsit12 == 0.0
    assert values.nsit23 == 0.0
    assert values.nsit13 == 0.0


def test_evaluate_missing_table_names_run():
    tables = joint_probs_from_counts(load_run_counts_csv(representative_counts_path()))
    del tables[("t1", "t3")]
    with pytest.raises(ValueError, match="run 2"):
        evaluate(tables)


def test_load_run_counts_csv_rejects_bad_schema(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("block_t1,block_t2,count\nnone,none,5\n")
    with pytest.raises(ValueError, match="columns"):
        load_run_counts_csv(bad)
    good = representative_counts_path().read_text()
    for edit, message in [
        (good + "none,minus,P,1000\n", r"row 20: repeats none,minus,P"),
        (good.replace("41644.94", "nan"), r"row 2: count 'nan'"),
        (good.replace("41644.94", "inf"), r"row 2: count 'inf'"),
        (good.replace("42526.46", "-500"), r"row 19: count '-500'"),
    ]:
        bad.write_text(edit)
        with pytest.raises(ValueError, match=message):
            load_run_counts_csv(bad)


# ---------------------------------------------------------------------------
# error distributions


def random_counts(rng, n_by_run):
    counts = {}
    for run, subs in [(1, 2), (2, 2), (3, 4), (4, 1)]:
        for sub in range(subs):
            counts[(run, sub)] = rng.uniform(100.0, 1000.0, size=(n_by_run[run], 2))
    return counts


def test_error_distributions_identical_iterations():
    counts = {}
    for run, subs in [(1, 2), (2, 2), (3, 4), (4, 1)]:
        for sub in range(subs):
            counts[(run, sub)] = np.tile([40.0 + run, 60.0 - sub], (3, 1))
    sig = error_distributions(counts)
    for key in ("sigma12", "sigma23", "sigma13", "delta", "wlgi_delta",
                "nsit12_delta", "nsit23_delta", "nsit13_delta"):
        assert sig[key] == pytest.approx(0.0, abs=1e-12)


def test_cross_pairing_sigma_matches_oracle():
    rng = np.random.default_rng(29)
    counts = random_counts(rng, {1: 6, 2: 5, 3: 3, 4: 4})
    sig = error_distributions(counts)

    def corr(p):
        return p[(+1, +1)] - p[(+1, -1)] - p[(-1, +1)] + p[(-1, -1)]

    expected23 = oracles.exhaustive_cross_sigma(counts[(1, 0)], counts[(1, 1)], corr)
    expected13 = oracles.exhaustive_cross_sigma(counts[(2, 0)], counts[(2, 1)], corr)
    assert sig["sigma23"] == pytest.approx(expected23, rel=1e-12)
    assert sig["sigma13"] == pytest.approx(expected13, rel=1e-12)
    expected_wlgi23 = oracles.exhaustive_cross_sigma(
        counts[(1, 0)], counts[(1, 1)], lambda p: p[(-1, +1)]
    )
    assert sig["wlgi_sigma23"] == pytest.approx(expected_wlgi23, rel=1e-12)


def test_sigma_merged_over_table_batches_matches_oracle():
    # 120 x 120 and 100 x 100 pairings span several batches of the error path.
    assert 100 * 100 > analysis._TABLE_BATCH
    counts = random_counts(np.random.default_rng(73), {1: 120, 2: 100, 3: 3, 4: 4})
    sig = error_distributions(counts)

    def corr(p):
        return p[(+1, +1)] - p[(+1, -1)] - p[(-1, +1)] + p[(-1, -1)]

    for run, name in ((1, "sigma23"), (2, "sigma13")):
        expected = oracles.exhaustive_cross_sigma(counts[(run, 0)], counts[(run, 1)], corr)
        assert sig[name] == pytest.approx(expected, rel=1e-12)


def test_four_way_sigma_matches_oracle_exhaustively():
    rng = np.random.default_rng(31)
    counts = random_counts(rng, {1: 3, 2: 3, 3: 5, 4: 3})
    sig = error_distributions(counts, exhaustive_limit=20)

    def corr(p12):
        return p12[(+1, +1)] - p12[(+1, -1)] - p12[(-1, +1)] + p12[(-1, -1)]

    cells3 = [counts[(3, sub)] for sub in range(4)]
    assert sig["sigma12"] == pytest.approx(
        oracles.exhaustive_four_way_sigma(cells3, corr), rel=1e-12
    )
    assert sig["wlgi_sigma12"] == pytest.approx(
        oracles.exhaustive_four_way_sigma(cells3, lambda p: p[(-1, +1)]), rel=1e-12
    )


def test_sampled_four_way_matches_exhaustive():
    rng = np.random.default_rng(37)
    counts = random_counts(rng, {1: 3, 2: 3, 3: 12, 4: 3})
    exact = error_distributions(counts, exhaustive_limit=20)
    sampled = error_distributions(
        counts, exhaustive_limit=4, n_samples=400_000, seed=1
    )
    assert sampled["sigma12"] == pytest.approx(exact["sigma12"], rel=0.03)
    assert sampled["wlgi_sigma12"] == pytest.approx(exact["wlgi_sigma12"], rel=0.03)


@pytest.mark.parametrize("n_samples", [1, 0, -5])
def test_error_distributions_rejects_fewer_than_two_samples(n_samples):
    # Run 3 has more iterations than exhaustive_limit, so it is sampled.
    counts = random_counts(np.random.default_rng(47), {1: 3, 2: 3, 3: 5, 4: 3})
    with pytest.raises(ValueError, match="n_samples"):
        error_distributions(counts, n_samples=n_samples, exhaustive_limit=4)


def test_error_distributions_requires_two_iterations():
    rng = np.random.default_rng(43)
    counts = random_counts(rng, {1: 1, 2: 3, 3: 3, 4: 3})
    with pytest.raises(ValueError, match="fewer than 2"):
        error_distributions(counts)


@pytest.mark.parametrize(
    "call",
    [
        error_distributions,
        per_iteration_values,
        lambda counts: analyze_dataset(
            run_protocol(
                SourceConfig(seed=5), NOMINAL_PARAMS,
                iterations={"interference": 3, "non_interference": 3},
            ),
            n_samples=1000,
            counts=counts,
        ),
    ],
    ids=["error_distributions", "per_iteration_values", "analyze_dataset"],
)
def test_a_zero_total_pairing_raises_naming_the_run(call):
    # Iteration 0 of both run-1 sub-runs is empty, so that pairing has no table.
    counts = random_counts(np.random.default_rng(71), {1: 3, 2: 3, 3: 3, 4: 3})
    counts[(1, 0)][0] = counts[(1, 1)][0] = 0.0
    with pytest.raises(UndefinedProbabilityError, match="run 1"):
        call(counts)


def test_delta_is_sum_of_sigmas():
    rng = np.random.default_rng(47)
    counts = random_counts(rng, {1: 4, 2: 4, 3: 4, 4: 4})
    sig = error_distributions(counts)
    assert sig["delta"] == pytest.approx(
        sig["sigma12"] + sig["sigma23"] + sig["sigma13"], rel=1e-12
    )
    assert sig["wlgi_delta"] == pytest.approx(
        sig["wlgi_sigma12"] + sig["wlgi_sigma23"] + sig["wlgi_sigma13"], rel=1e-12
    )


# ---------------------------------------------------------------------------
# bootstrap


def test_bootstrap_constant_samples():
    result = bootstrap_sdm([5.0] * 200, I=150, K=1000)
    assert result.sd == 0.0
    assert result.sd_over_mean == 0.0
    assert result.mean == 5.0
    assert result.ratio_defined


def test_bootstrap_zero_mean_flag():
    result = bootstrap_sdm([0.0] * 200, I=150, K=100)
    assert result.sd == 0.0
    assert result.sd_over_mean is None
    assert not result.ratio_defined


def test_bootstrap_clt_scaling():
    rng = np.random.default_rng(53)
    samples = rng.normal(10.0, 2.0, size=5000)
    result = bootstrap_sdm(samples, I=100, K=20_000, seed=3)
    expected = samples.std(ddof=0) / math.sqrt(100)
    assert result.sd == pytest.approx(expected, rel=0.05)
    assert result.mean == pytest.approx(10.0, abs=0.1)


def test_bootstrap_determinism_and_validation():
    samples = list(range(200))
    first = bootstrap_sdm(samples, I=50, K=500, seed=4)
    second = bootstrap_sdm(samples, I=50, K=500, seed=4)
    assert dataclasses.asdict(first) == dataclasses.asdict(second)
    with pytest.raises(ValueError):
        bootstrap_sdm(samples, I=201, K=10)
    with pytest.raises(ValueError):
        bootstrap_sdm(samples, I=10, K=0)


# ---------------------------------------------------------------------------
# end-to-end


def test_analyze_dataset_deterministic_and_bounded():
    dataset = small_quiet_dataset()
    first = analyze_dataset(dataset, n_samples=50_000)
    second = analyze_dataset(dataset, n_samples=50_000)
    assert first.to_dict() == second.to_dict()
    assert first.lgi[1] is not None and first.lgi[1] >= 0.0
    assert first.lgi[1] == pytest.approx(
        first.correlations["t1t2"][1]
        + first.correlations["t2t3"][1]
        + first.correlations["t1t3"][1],
        rel=1e-12,
    )
    assert first.provenance["iterations"] == {"1": 2, "2": 3, "3": 2, "4": 3}


def test_high_statistics_run_matches_circuit_prediction():
    params = SetupParams(alpha_sq=0.5, t_ratios=NOMINAL_PARAMS.t_ratios, visibility=1.0)
    src = SourceConfig(pair_rate=1e5, seed=59, **QUIET)
    dataset = run_protocol(
        src, params, iterations={"interference": 6, "non_interference": 4}
    )
    report = analyze_dataset(dataset, n_samples=100_000)
    delta = report.lgi[1]
    assert abs(report.lgi[0] - qm_lgi(params)) < 3.0 * delta
    nsit = qm_nsit(params)
    assert report.nsit12[0] < 0.01
    assert report.nsit23[0] < 0.01 + nsit.nsit23
    assert report.nsit13[0] < 0.01


@pytest.mark.parametrize(
    "alpha_sq, arm_delay_tau",
    [(0.5, 2.0e4), (0.9, 2.0e4), (0.5, 0.0)],
    ids=["alpha_sq 0.5", "alpha_sq 0.9", "one delay peak"],
)
def test_every_sub_run_counts_its_expected_coincidences(alpha_sq, arm_delay_tau):
    # No multiphoton events, no dark counts, full visibility: each sub-run's
    # mean count is its expected true coincidences, however tall or small
    # its peaks.  20 iterations at four times the default pair rate put the
    # smallest sub-run's Poisson sigma near 0.6 %.
    params = SetupParams(alpha_sq=alpha_sq, t_ratios=NOMINAL_PARAMS.t_ratios, visibility=1.0)
    src = SourceConfig(
        pair_rate=2e5, gamma=0.0, arm_delay_tau=arm_delay_tau, seed=67,
        dark_rate_h=0.0, dark_rate_p=0.0, dark_rate_m=0.0,
    )
    n = 20
    dataset = run_protocol(src, params, iterations={"interference": n, "non_interference": n})
    counts = count_dataset(dataset)
    expected = oracles.expected_counts(src, params)
    capture = {key: arr.sum(axis=1).mean() / sum(expected[key]) for key, arr in counts.items()}
    assert all(0.98 <= c <= 1.02 for c in capture.values()), capture
    # The deltas sum per-iteration spreads, so delta / sqrt(n) bounds the
    # standard error of the values from mean counts.
    report = analyze_dataset(dataset, counts=counts)
    for name, model in (
        ("lgi", qm_lgi(params)), ("wlgi", qm_wlgi(params)), ("nsit23", qm_nsit(params).nsit23)
    ):
        mean, delta = getattr(report, name)
        assert abs(mean - model) < 4.0 * delta / math.sqrt(n), (name, mean, model, delta)


def test_per_iteration_values_shapes():
    rng = np.random.default_rng(61)
    counts = random_counts(rng, {1: 4, 2: 6, 3: 4, 4: 6})
    values = per_iteration_values(counts)
    assert values["c23"].shape == (4,)
    assert values["c13"].shape == (6,)
    assert values["c12"].shape == (4,)
    assert values["p3"].shape == (6,)
    assert values["lgi"].shape == (4,)
    assert np.allclose(
        values["lgi"], values["c12"] + values["c23"] - values["c13"][:4]
    )
    # Each entry is the value of that iteration's rows alone.
    for name, run, key in [
        ("c23", 1, ("t2", "t3")), ("c13", 2, ("t1", "t3")), ("c12", 3, ("t1", "t2")),
    ]:
        for i, value in enumerate(values[name]):
            rows = {(run, sub): counts[(run, sub)][i : i + 1] for sub in range(len(RUN_CONFIGS[run]))}
            expected = correlation(joint_probs_from_counts(rows)[key])
            assert value == pytest.approx(expected, rel=0, abs=1e-15), (name, i)
    for i, value in enumerate(values["p3"]):
        rows = {(4, 0): counts[(4, 0)][i : i + 1]}
        expected = joint_probs_from_counts(rows)[("t3",)].entries[(+1,)]
        assert value == pytest.approx(expected, rel=0, abs=1e-15), i


def test_per_iteration_values_match_analyze_counts_of_each_iteration():
    counts = random_counts(np.random.default_rng(83), {1: 3, 2: 5, 3: 4, 4: 6})
    values = per_iteration_values(counts)
    assert values["lgi"].size == values["wlgi"].size == 3
    for i in range(3):
        report = analyze_counts({key: arr[i : i + 1] for key, arr in counts.items()})
        assert values["lgi"][i] == report.lgi[0], i
        assert values["wlgi"][i] == report.wlgi[0], i


def test_only_protocol_calls_the_table_readers():
    # outcome_prefix and correlation are how the protocol reads a blocker
    # schedule and a table; every other module goes through its functions.
    callers = []
    for path in sorted(Path(analysis.__file__).parent.glob("*.py")):
        if path.name == "protocol.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in ("outcome_prefix", "correlation"):
                    callers.append(f"{path.name}:{node.lineno}")
    assert callers == []


def test_analyze_counts_fixture_has_no_deltas():
    report = analyze_counts(load_run_counts_csv(representative_counts_path()))
    for pair in (report.lgi, report.wlgi, report.nsit12, report.nsit23, report.nsit13):
        assert pair[1] is None
    payload = report.to_dict()
    assert payload["lgi"]["delta"] is None
    assert payload["provenance"]["iterations"]["1"] == 1
