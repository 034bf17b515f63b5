"""Release acceptance gate: one check per criterion, one verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every verdict;
without ``-s`` the PASS lines stay captured but every FAIL line is echoed
in the pytest failure report.  Each test prints exactly one line of the
form ``criterion N: PASS|FAIL - <measured values> [elapsed]`` before
asserting, so a red criterion still documents what was measured.
"""

import dataclasses
import time

import numpy as np

from macroreal.analysis import (
    analyze_counts,
    analyze_dataset,
    bootstrap_sdm,
    count_sub_run,
    error_distributions,
    histogram,
    load_run_counts_csv,
    representative_counts_path,
)
from macroreal.circuit import (
    NOMINAL_PARAMS,
    Tolerances,
    ideal_maxima,
    qm_lgi,
    qm_nsit,
    qm_range,
    qm_wlgi,
)
from macroreal.hvmodels import (
    blocker_setup_bound,
    critical_efficiency,
    maximize_lgi_detectors,
    maximize_wlgi_detectors,
    project_feasible,
    weight_index,
)
from macroreal.hvmodels import _LGI_SIGNS, _WLGI_SIGNS, _lgi_fractions, _wlgi_fractions
from macroreal.multiphoton import (
    fit_gamma,
    modified_bounds,
    reference_counts,
    two_photon_lgi,
    two_photon_wlgi,
)
from macroreal.protocol import BlockerConfig
from macroreal.simulate import SourceConfig, derive_iteration_state, generate_sub_run, run_protocol

import oracles


def _verdict(criterion, ok, detail, elapsed=None):
    clock = "" if elapsed is None else f" [{elapsed:.1f} s]"
    line = f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}{clock}"
    print(line)
    assert ok, line


def test_criterion_01_ideal_maxima():
    t0 = time.perf_counter()
    maxima = ideal_maxima()
    elapsed = time.perf_counter() - t0
    lgi, wlgi = maxima["lgi_max"], maxima["wlgi_max"]
    ok = abs(lgi - 1.5) <= 5e-4 and abs(wlgi - 0.4034) <= 5e-4 and elapsed < 10.0
    _verdict(1, ok, f"lgi_max={lgi:.6f} (want 1.5), wlgi_max={wlgi:.6f} (want 0.4034±0.0005)", elapsed)


def test_criterion_02_nonideal_point_values():
    t0 = time.perf_counter()
    lgi = qm_lgi(NOMINAL_PARAMS)
    wlgi = qm_wlgi(NOMINAL_PARAMS)
    nsit = qm_nsit(NOMINAL_PARAMS)
    elapsed = time.perf_counter() - t0
    ok = (
        abs(lgi - 1.47) <= 0.005
        and abs(wlgi - 0.11) <= 0.005
        and abs(nsit.nsit23 - 0.006) <= 0.005
        and elapsed < 1.0
    )
    _verdict(2, ok, f"lgi={lgi:.4f}, wlgi={wlgi:.4f}, nsit23={nsit.nsit23:.4f} vs 1.47/0.11/0.006 ±0.005", elapsed)


def test_criterion_03_tolerance_ranges():
    expected = {
        None: {"lgi": (1.45, 1.49), "wlgi": (0.09, 0.13), "nsit23": (0.0, 0.03)},
        (0.7, 0.85): {"lgi": (1.28, 1.40), "wlgi": (0.05, 0.11), "nsit23": (0.0, 0.026)},
    }
    t0 = time.perf_counter()
    misses = []
    worst = 0.0
    for v_range, bands in expected.items():
        got = qm_range(NOMINAL_PARAMS, Tolerances(v_range=v_range))
        tag = "v=1" if v_range is None else f"v in {list(v_range)}"
        for key, (lo, hi) in bands.items():
            for side, want, have in (("lo", lo, got[key][0]), ("hi", hi, got[key][1])):
                diff = abs(have - want)
                worst = max(worst, diff)
                if diff > 0.01:
                    misses.append(f"{key} {side} ({tag}) {have:.4f} vs {want}")
    elapsed = time.perf_counter() - t0
    ok = not misses and elapsed < 30.0
    detail = f"12 endpoints, worst |dev|={worst:.4f} (tol 0.01)"
    if misses:
        detail += "; missed: " + "; ".join(misses)
    _verdict(3, ok, detail, elapsed)


def test_criterion_04_hv_detector_bounds():
    etas = np.linspace(0.05, 1.0, 20)
    t0 = time.perf_counter()
    worst = 0.0
    for eta in etas:
        lgi_want = 8.0 / 3.0 if eta <= 2.0 / 3.0 else 2.0 / eta - eta
        wlgi_want = 1.0 if eta <= 2.0 / 3.0 else (1.0 - eta) / (2.0 * eta - 1.0)
        lgi_cert = maximize_lgi_detectors(float(eta), n_starts=2, seed=0)
        wlgi_cert = maximize_wlgi_detectors(float(eta), n_starts=2, seed=0)
        worst = max(worst, abs(lgi_cert.bound - lgi_want), abs(wlgi_cert.bound - wlgi_want))
    eta_lgi = critical_efficiency("LGI")
    eta_wlgi = critical_efficiency("WLGI")
    elapsed = time.perf_counter() - t0
    ok = (
        worst <= 1e-4
        and abs(eta_lgi - 0.8508) <= 1e-3
        and abs(eta_wlgi - 0.78) <= 1e-3
        and elapsed < 300.0
    )
    _verdict(
        4,
        ok,
        f"20-point grid worst |dev|={worst:.2e} (tol 1e-4); "
        f"critical eta lgi={eta_lgi:.4f} (want 0.8508±0.001), wlgi={eta_wlgi:.4f} (want 0.78±0.001)",
        elapsed,
    )


def test_criterion_05_blocker_setup_closure():
    values = {}
    for eta in (0.01, 0.5, 1.0):
        values[eta] = (blocker_setup_bound("LGI", eta).bound, blocker_setup_bound("WLGI", eta).bound)
    ok = all(lgi == 1.0 and wlgi == 0.0 for lgi, wlgi in values.values())
    pairs = ", ".join(f"eta={e}: ({l:g}, {w:g})" for e, (l, w) in values.items())
    _verdict(5, ok, f"(lgi, wlgi) bounds exact want (1, 0) -- {pairs}")


def test_criterion_06_multiphoton():
    t0 = time.perf_counter()
    lgi2 = two_photon_lgi()
    wlgi2 = two_photon_wlgi()
    bounds = modified_bounds(0.0023)
    fit = fit_gamma(reference_counts(), n_starts=50)
    elapsed = time.perf_counter() - t0
    ok = (
        lgi2 == 3.0
        and wlgi2 == 0.5
        and abs(bounds.lgi_bound - 1.0046) <= 1e-12
        and abs(bounds.wlgi_bound - 0.00115) <= 1e-12
        and 0.0018 <= fit.params.gamma <= 0.0028
        and fit.chi2 <= 8.0
        and elapsed < 120.0
    )
    _verdict(
        6,
        ok,
        f"two-photon lgi={lgi2:g} (want 3), wlgi={wlgi2:g} (want 1/2); "
        f"modified bounds=({bounds.lgi_bound:g}, {bounds.wlgi_bound:g}); "
        f"fit gamma={fit.params.gamma:.5f} (want [0.0018, 0.0028]), chi2={fit.chi2:.1f} (want <=8)",
        elapsed,
    )


def test_criterion_07_representative_regression():
    report = analyze_counts(load_run_counts_csv(representative_counts_path()))
    lgi, wlgi = report.lgi[0], report.wlgi[0]
    nsit = (report.nsit12[0], report.nsit23[0], report.nsit13[0])
    ok = (
        abs(lgi - 1.32) <= 0.005
        and abs(wlgi - 0.09) <= 0.005
        and abs(nsit[0] - 0.002) <= 0.001
        and abs(nsit[1] - 0.004) <= 0.001
        and abs(nsit[2] - 0.002) <= 0.001
    )
    _verdict(
        7,
        ok,
        f"lgi={lgi:.4f} (want 1.32±0.005), wlgi={wlgi:.4f} (want 0.09±0.005), "
        f"nsit=({nsit[0]:.4f}, {nsit[1]:.4f}, {nsit[2]:.4f}) (want 0.002/0.004/0.002 ±0.001)",
    )


def test_criterion_08_end_to_end_experiment():
    t0 = time.perf_counter()
    dataset = run_protocol(SourceConfig(seed=0), NOMINAL_PARAMS, v_jitter=(0.7, 0.85))
    report = analyze_dataset(dataset)
    elapsed = time.perf_counter() - t0
    lgi, delta = report.lgi
    nsits = [report.nsit12, report.nsit23, report.nsit13]
    lgi_ok = (1.28 - delta) <= lgi <= (1.40 + delta)
    nsit_ok = all(mean < 1e-2 + d for mean, d in nsits)
    ok = lgi_ok and nsit_ok and elapsed < 600.0
    nsit_txt = ", ".join(f"{mean:.4f}<{1e-2 + d:.4f}" for mean, d in nsits)
    _verdict(
        8,
        ok,
        f"lgi={lgi:.4f} (delta={delta:.4f}, band [{1.28 - delta:.4f}, {1.40 + delta:.4f}]); "
        f"nsit means vs 0.01+delta: {nsit_txt}",
        elapsed,
    )


def test_criterion_09_bootstrap_property():
    src = SourceConfig(pair_rate=2e5)
    blockers = BlockerConfig("minus", "minus")
    t0 = time.perf_counter()
    samples = []
    for iteration in range(300):
        stream_seed, _ = derive_iteration_state(7, 3, 0, iteration)
        herald, plus, _ = generate_sub_run(
            dataclasses.replace(src, seed=stream_seed), NOMINAL_PARAMS, blockers
        )
        samples.append(count_sub_run(herald, plus, window=(50_000, 150_000)))
    sdm = {
        draws: bootstrap_sdm(samples, I=draws, K=100_000, seed=5).sd_over_mean
        for draws in (10, 50, 150, 300)
    }
    elapsed = time.perf_counter() - t0
    ok = sdm[150] < 1e-3 and sdm[10] > sdm[50] > sdm[150] > sdm[300]
    trend = " > ".join(f"{sdm[d] * 100:.4f}%" for d in (10, 50, 150, 300))
    _verdict(9, ok, f"sd/mean at I=150: {sdm[150] * 100:.4f}% (want <0.1%); trend {trend}", elapsed)


def test_criterion_10_oracle_equivalences():
    # (a) histogram against the O(n^2) pair scan, bitwise.
    rng = np.random.default_rng(101)
    a = np.sort(rng.integers(0, 10_000_000, size=1200))
    b = np.sort(rng.integers(0, 10_000_000, size=1500))
    h = histogram(a, b, bin_width=100, window=(-5000, 5000))
    hist_ok = np.array_equal(h.counts, oracles.brute_force_coincidences(a, b, -5000, 5000, 100))

    # (b) sampled four-way error distribution against the exhaustive mode.
    rng = np.random.default_rng(103)
    counts = {}
    for run, subs in [(1, 2), (2, 2), (3, 4), (4, 1)]:
        for sub in range(subs):
            n = {1: 3, 2: 3, 3: 12, 4: 3}[run]
            counts[(run, sub)] = rng.uniform(100.0, 1000.0, size=(n, 2))
    exact = error_distributions(counts, exhaustive_limit=20)
    sampled = error_distributions(counts, exhaustive_limit=4, n_samples=400_000, seed=1)
    sigma_dev = abs(sampled["sigma12"] - exact["sigma12"]) / exact["sigma12"]
    sigma_ok = sigma_dev <= 0.03

    # (c) feasible-weight optimizer against the grid oracle on a 3-support.
    support = [
        weight_index("a", (-1, -1, +1)),
        weight_index("b", (-1, +1, +1)),
        weight_index("c", (+1, +1, +1)),
    ]
    eta = 0.5

    def lgi_batch(w, eta):
        return oracles.ratio_value_reference(w, _lgi_fractions, _LGI_SIGNS)

    def wlgi_batch(w, eta):
        return oracles.ratio_value_reference(w, _wlgi_fractions, _WLGI_SIGNS)

    lgi_dev = abs(
        maximize_lgi_detectors(eta, n_starts=6, seed=3, support=support).bound
        - oracles.grid_search_bound(lgi_batch, project_feasible, support, eta)
    )
    wlgi_dev = abs(
        maximize_wlgi_detectors(eta, n_starts=6, seed=3, support=support).bound
        - oracles.grid_search_bound(wlgi_batch, project_feasible, support, eta)
    )
    grid_ok = lgi_dev <= 2e-2 and wlgi_dev <= 2e-2

    ok = hist_ok and sigma_ok and grid_ok
    _verdict(
        10,
        ok,
        f"histogram exact={hist_ok}; sigma12 sampled-vs-exhaustive dev={sigma_dev:.3%} (tol 3%); "
        f"optimizer-vs-grid dev lgi={lgi_dev:.4f}, wlgi={wlgi_dev:.4f} (tol 0.02)",
    )
