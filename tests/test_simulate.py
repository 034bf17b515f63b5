import dataclasses
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import oracles
from macroreal.circuit import SetupParams
from macroreal.cli import main
from macroreal.protocol import RUN_CONFIGS, BlockerConfig
from macroreal.simulate import (
    DEFAULT_ITERATIONS,
    ExperimentDataset,
    SourceConfig,
    TimestampStream,
    _finalize_times,
    derive_iteration_state,
    generate_sub_run,
    load_dataset,
    run_protocol,
)

QUIET = dict(dark_rate_h=0.0, dark_rate_p=0.0, dark_rate_m=0.0, jitter_sigma=0.0)


def test_timestamp_stream_validation():
    TimestampStream("H", np.array([1, 2, 3], dtype=np.int64))
    with pytest.raises(ValueError):
        TimestampStream("X", np.array([1], dtype=np.int64))
    with pytest.raises(ValueError):
        TimestampStream("P", np.array([3, 2], dtype=np.int64))
    with pytest.raises(ValueError):
        TimestampStream("P", np.array([2, 2], dtype=np.int64))
    with pytest.raises(ValueError):
        TimestampStream("P", np.array([-1, 2], dtype=np.int64))


@pytest.mark.parametrize(
    "times",
    [
        [0.5, 1.7, 2.9],
        [0.2, 0.7],
        [1.0, math.nan],
        [1.0, math.inf],
        [2.0**63],
        # A plain int64 cast would wrap 2**63 + 5 to -2**63 + 5.
        np.array([1, 2**63 + 5, 2**64 - 1], dtype=np.uint64),
    ],
    ids=["fractional", "fractional-below-one", "nan", "inf", "beyond-int64", "uint64-beyond-int64"],
)
def test_timestamp_stream_rejects_stamps_that_are_not_whole_numbers(times):
    with pytest.raises(ValueError, match=r"^M timestamps must be whole picoseconds"):
        TimestampStream("M", np.array(times))


def test_timestamp_stream_takes_whole_float_and_empty_input_exactly():
    assert TimestampStream("H", [3.0, 2.0**53 + 2.0]).times.tolist() == [3, 2**53 + 2]
    assert TimestampStream("H", []).times.dtype == np.int64


def test_source_config_validation():
    with pytest.raises(ValueError):
        SourceConfig(pair_rate=-1.0)
    with pytest.raises(ValueError):
        SourceConfig(duration=0.0)
    with pytest.raises(ValueError):
        SourceConfig(gamma=1.0)
    with pytest.raises(ValueError):
        SourceConfig(eta1=0.0)
    with pytest.raises(ValueError):
        SourceConfig(eta_herald=1.2)
    with pytest.raises(ValueError):
        SourceConfig(seed=-3)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(SourceConfig)])
def test_source_config_rejects_non_finite_values_naming_the_field(field, value):
    with pytest.raises(ValueError, match=rf"^{field} must be finite"):
        SourceConfig(**{field: value})


# Each would put a click time or the run length beyond int64: a 1e19 ps
# delay used to empty P and M with only a cast warning, a 1e8 s run to fail
# inside the random generator without naming a field.
@pytest.mark.parametrize(
    "fields, message",
    [
        ({"duration": 1e8}, r"^duration must be shorter than 2\*\*62 ps"),
        ({"base_delay": 1e19}, r"^base_delay \+ arm_delay_tau \+ 64 \* jitter_sigma"),
        ({"arm_delay_tau": 2.0**62}, r"^base_delay \+ arm_delay_tau \+ 64 \* jitter_sigma"),
        ({"jitter_sigma": 2.0**56}, r"^base_delay \+ arm_delay_tau \+ 64 \* jitter_sigma"),
    ],
    ids=["duration", "base_delay", "arm_delay_tau", "jitter_sigma"],
)
def test_source_config_keeps_click_times_inside_int64(fields, message):
    with pytest.raises(ValueError, match=message):
        SourceConfig(**fields)


def test_source_config_accepts_delays_and_duration_just_inside_int64():
    src = SourceConfig(
        duration=4.6e6, base_delay=2.0**61, arm_delay_tau=2.0**60, jitter_sigma=2.0**53
    )
    assert src.duration_ps < 2**62


_DURATION_PS = 1000
# Stamps on both range edges and just outside them, repeated within and
# across the two arrays; the lists may be empty.
_STAMPS = st.lists(
    st.one_of(
        st.sampled_from([-1, 0, _DURATION_PS - 1, _DURATION_PS]),
        st.integers(-5, _DURATION_PS + 5),
    )
)


@settings(max_examples=300, deadline=None)
@given(_STAMPS, _STAMPS)
def test_finalize_times_equals_unique_reference(raw, dark):
    raw, dark = np.array(raw, dtype=np.int64), np.array(dark, dtype=np.int64)
    got = _finalize_times(raw, dark, _DURATION_PS)
    assert got.dtype == np.int64
    assert np.all(np.diff(got) > 0)
    assert np.array_equal(got, oracles.unique_in_range(raw, dark, _DURATION_PS))


def test_blocked_survivor_split_reproduces_port_ratios():
    # Survivor path: arm +1 (T1 into the inner +1 arm), inner -1 blocked;
    # port 2 sends T2 to the +1 detector and R2 to the -1 detector, so the
    # reflection share 0.25 shows up on the minus stream.
    src = SourceConfig(
        pair_rate=2.0e5, gamma=0.0, eta_herald=1.0, eta1=1.0, eta2=1.0, seed=11, **QUIET
    )
    setup = SetupParams(alpha_sq=0.5, t_ratios=(0.75, 0.75, 0.75, 0.75), visibility=1.0)
    _, plus, minus = generate_sub_run(src, setup, BlockerConfig("minus", "minus"))
    n_plus, n_minus = len(plus), len(minus)
    total = n_plus + n_minus
    assert total > 1.0e4
    share = n_minus / total
    sigma = math.sqrt(0.25 * 0.75 / total)
    assert abs(share - 0.25) < 3.0 * sigma
    assert abs(n_plus / total - 0.75) < 3.0 * sigma


def test_source_off_leaves_poisson_dark_counts():
    src = SourceConfig(
        pair_rate=0.0,
        duration=50.0,
        dark_rate_h=100.0,
        dark_rate_p=80.0,
        dark_rate_m=60.0,
        jitter_sigma=0.0,
        seed=5,
    )
    streams = generate_sub_run(src, SetupParams(), BlockerConfig())
    for stream, rate in zip(streams, (100.0, 80.0, 60.0)):
        expected = rate * src.duration
        assert abs(len(stream) - expected) < 4.0 * math.sqrt(expected)
        # Uniform arrival times: counts per sub-interval are Poisson.
        edges = np.linspace(0, src.duration_ps, 21)
        counts, _ = np.histogram(stream.times, bins=edges)
        _, p_value = stats.chisquare(counts)
        assert p_value > 0.01


def test_blocking_the_only_populated_arm_silences_detectors():
    src = SourceConfig(pair_rate=1.0e4, gamma=0.0, seed=3, **QUIET)
    setup = SetupParams(alpha_sq=1.0)
    herald, plus, minus = generate_sub_run(src, setup, BlockerConfig("plus", "none"))
    assert len(plus) == 0
    assert len(minus) == 0
    assert len(herald) > 0


def test_herald_rate_matches_expectation():
    src = SourceConfig(pair_rate=5.0e4, eta_herald=0.6, seed=17, **QUIET)
    herald, _, _ = generate_sub_run(src, SetupParams(), BlockerConfig())
    expected = src.pair_rate * src.duration * src.eta_herald
    assert abs(len(herald) - expected) < 4.0 * math.sqrt(expected)


def test_two_photon_events_raise_click_rate():
    # Jitter keeps the two clicks of a double event in distinct picoseconds
    # (same-picosecond clicks merge, as a real detector would).
    base = dict(
        pair_rate=1.0e5,
        eta_herald=1.0,
        eta1=1.0,
        eta2=1.0,
        seed=23,
        dark_rate_h=0.0,
        dark_rate_p=0.0,
        dark_rate_m=0.0,
        jitter_sigma=400.0,
    )
    setup = SetupParams()
    blockers = BlockerConfig("minus", "minus")
    counts = {}
    for gamma in (0.0, 0.5):
        _, plus, minus = generate_sub_run(
            SourceConfig(gamma=gamma, **base), setup, blockers
        )
        counts[gamma] = len(plus) + len(minus)
    # Survivor weight per photon is alpha_sq*T1; doubles add gamma more photons.
    per_photon = 0.5 * 0.80
    for gamma, count in counts.items():
        expected = 1.0e5 * (1.0 + gamma) * per_photon
        assert abs(count - expected) < 4.0 * math.sqrt(expected)


def test_arm_delay_shifts_click_times():
    src = SourceConfig(pair_rate=2.0e4, gamma=0.0, eta_herald=1.0, seed=29, **QUIET)
    setup = SetupParams()
    offsets = {}
    for name, blockers in (("plus", BlockerConfig("plus", "none")),
                           ("minus", BlockerConfig("minus", "none"))):
        herald, plus, minus = generate_sub_run(src, setup, blockers)
        clicks = np.concatenate([plus.times, minus.times])
        expected = src.base_delay + (src.arm_delay_tau if name == "plus" else 0.0)
        assert np.isin(clicks - int(expected), herald.times).all()
        offsets[name] = expected
    assert offsets["plus"] - offsets["minus"] == src.arm_delay_tau


_BLOCKERS = sorted({b for subs in RUN_CONFIGS.values() for b in subs}, key=repr)
_SHORT = dict(duration=0.1, seed=17)
# Source variants covering every branch of the generator: no doubled
# photons and many, no jitter, no dark counts, unit efficiencies, clicks
# pushed past the end of a run, and a run too short to hold any stamp.
_REFERENCE_SOURCES = {
    "default": {},
    "gamma-0": dict(gamma=0.0),
    "gamma-0.3": dict(gamma=0.3),
    "no-jitter": dict(jitter_sigma=0.0),
    "no-dark": dict(dark_rate_h=0.0, dark_rate_p=0.0, dark_rate_m=0.0),
    "eta-1": dict(eta_herald=1.0, eta1=1.0, eta2=1.0),
    "past-end": dict(duration=2e-6, pair_rate=5e8, base_delay=1.5e6, arm_delay_tau=4e5),
    "empty": dict(duration=1e-9),
}


@pytest.mark.parametrize("source", sorted(_REFERENCE_SOURCES))
def test_generate_sub_run_matches_reference_generator_bit_for_bit(source):
    """Same draws in the same order: every stream equals the reference's."""
    src = SourceConfig(**{**_SHORT, **_REFERENCE_SOURCES[source]})
    setups = [SetupParams()] + [
        SetupParams(visibility=float(v)) for v in np.random.default_rng(5).uniform(0.7, 0.85, 2)
    ]
    for setup, blockers in itertools.product(setups, _BLOCKERS):
        try:
            expected = oracles.reference_generate_sub_run(src, setup, blockers)
        except ValueError:
            with pytest.raises(ValueError):
                generate_sub_run(src, setup, blockers)
            continue
        got = generate_sub_run(src, setup, blockers)
        for stream, times in zip(got, expected):
            assert stream.times.dtype == np.int64
            assert np.array_equal(stream.times, times)
    if source == "empty":
        assert all(len(s) == 0 for s in got)


def test_generate_sub_run_is_deterministic():
    src = SourceConfig(seed=41)
    setup = SetupParams()
    first = generate_sub_run(src, setup, BlockerConfig("none", "minus"))
    second = generate_sub_run(src, setup, BlockerConfig("none", "minus"))
    for a, b in zip(first, second):
        assert np.array_equal(a.times, b.times)


def test_unit_probability_guard():
    src = SourceConfig(eta1=1.0, eta2=1.0, **QUIET)
    setup = SetupParams(alpha_sq=0.5, t_ratios=(0.5, 0.0, 1.0, 0.5), visibility=1.0)
    with pytest.raises(ValueError):
        generate_sub_run(src, setup, BlockerConfig())


def test_run_protocol_schedule():
    dataset = run_protocol(SourceConfig(seed=7), SetupParams())
    assert tuple(dataset.iterations) == tuple(RUN_CONFIGS) == (1, 2, 3, 4)
    assert sum(len(RUN_CONFIGS[run]) for run in dataset.iterations) == 9
    assert dataset.iterations[2] == 300
    assert dataset.iterations[4] == 300
    assert dataset.iterations[1] == 150
    assert dataset.iterations[3] == 150
    with pytest.raises(ValueError):
        run_protocol(SourceConfig(), SetupParams(), iterations={"weird": 4})


def test_derived_seeds_are_distinct_and_stable():
    seen = set()
    for run in RUN_CONFIGS:
        for sub in range(len(RUN_CONFIGS[run])):
            for iteration in range(3):
                state = derive_iteration_state(99, run, sub, iteration)
                assert state == derive_iteration_state(99, run, sub, iteration)
                seen.add(state)
    assert len(seen) == 27


def test_dataset_streams_deterministic_and_independent():
    dataset = run_protocol(SourceConfig(pair_rate=1.0e4, seed=13), SetupParams())
    again = run_protocol(SourceConfig(pair_rate=1.0e4, seed=13), SetupParams())
    a = dataset.streams(1, 0, 0)
    b = again.streams(1, 0, 0)
    for x, y in zip(a, b):
        assert np.array_equal(x.times, y.times)
    c = dataset.streams(1, 0, 1)
    assert not np.array_equal(a[0].times, c[0].times)


def test_visibility_jitter_draws_per_iteration():
    dataset = run_protocol(
        SourceConfig(seed=31), SetupParams(), v_jitter=(0.7, 0.85)
    )
    draws = [dataset.iteration_setup(2, 0, i).visibility for i in range(40)]
    assert all(0.7 <= v <= 0.85 for v in draws)
    assert len(set(draws)) > 30
    assert dataset.iteration_setup(2, 0, 5) == dataset.iteration_setup(2, 0, 5)
    plain = run_protocol(SourceConfig(seed=31), SetupParams())
    assert plain.iteration_setup(2, 0, 5).visibility == 1.0


def test_dataset_round_trip_through_directory(tmp_path):
    src = SourceConfig(pair_rate=2.0e3, seed=57)
    dataset = run_protocol(
        src, SetupParams(), iterations={"interference": 2, "non_interference": 2}
    )
    manifest_path = dataset.to_directory(tmp_path / "data")
    assert manifest_path.name == "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    assert manifest["format"] == "macroreal-dataset-v2"
    assert len(manifest["files"]) == 18
    loaded = load_dataset(tmp_path / "data")
    assert loaded.iterations == dataset.iterations
    assert loaded.iterations[2] == 2
    for entry in manifest["files"]:
        run, sub, iteration = entry["run"], entry["sub_run"], entry["iteration"]
        assert entry["path"] == f"run{run}_sub{sub}/iter{iteration:04d}.npz"
        direct = dataset.streams(run, sub, iteration)
        reloaded = loaded.streams(run, sub, iteration)
        assert entry["events"] == {x.channel: len(x) for x in direct}
        for x, y in zip(direct, reloaded):
            assert x.channel == y.channel
            assert y.times.dtype == np.int64
            assert np.array_equal(x.times, y.times)
    with pytest.raises(FileExistsError):
        dataset.to_directory(tmp_path / "data")
    dataset.to_directory(tmp_path / "data", force=True)


def test_load_dataset_rejects_old_formats_and_missing_entries(tmp_path):
    run_protocol(
        SourceConfig(pair_rate=2.0e3, seed=3), SetupParams(),
        iterations={"interference": 1, "non_interference": 1},
    ).to_directory(tmp_path)
    manifest_path = tmp_path / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["format"] = "macroreal-dataset-v1"
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match="re-run simulate"):
        load_dataset(tmp_path)
    manifest["format"] = "something-else"
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match="unrecognized dataset format"):
        load_dataset(tmp_path)
    manifest["format"] = "macroreal-dataset-v2"
    manifest["files"] = manifest["files"][1:]
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match="run1_sub0/iter0000.npz: the manifest has no entry"):
        load_dataset(tmp_path).streams(1, 0, 0)


# Each case edits the schedule or iteration counts of a written manifest.
_SCHEDULE_EDITS = {
    "swapped sub-runs": lambda m: m["sub_runs"]["1"].reverse(),
    "changed blocker": lambda m: m["sub_runs"]["3"][0].update(block_t1="none", block_t2="none"),
    "missing run": lambda m: (m["sub_runs"].pop("4"), m["iterations"].pop("4")),
    "iterations miss a run": lambda m: m["iterations"].pop("2"),
    "zero iterations": lambda m: m["iterations"].update({"3": 0}),
    "boolean iterations": lambda m: m["iterations"].update({"1": True}),
}


@pytest.mark.parametrize("case", sorted(_SCHEDULE_EDITS))
def test_load_dataset_rejects_a_schedule_other_than_the_protocols(tmp_path, case):
    data = tmp_path / "ds"
    run_protocol(
        SourceConfig(pair_rate=2.0e4, seed=5), SetupParams(),
        iterations={"interference": 2, "non_interference": 2},
    ).to_directory(data)
    assert main(["analyze", str(data), "--out", str(tmp_path / "before")]) == 0
    manifest_path = data / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    _SCHEDULE_EDITS[case](manifest)
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match="manifest.json"):
        load_dataset(data)
    assert main(["analyze", str(data), "--out", str(tmp_path / "after")]) == 2
    assert not (tmp_path / "after").exists()


def _with_first_file(m, drop=(), **fields):
    """``m`` with its first ``files`` entry edited: ``drop`` keys removed, ``fields`` set."""
    entry = {key: value for key, value in m["files"][0].items() if key not in drop}
    return {**m, "files": [{**entry, **fields}, *m["files"][1:]]}


# Each case returns a malformed copy of a written manifest.
_MANIFEST_EDITS = {
    "top level a list": lambda m: [m],
    "source not an object": lambda m: {**m, "source": 5},
    "source with an unknown field": lambda m: {**m, "source": {**m["source"], "colour": 1}},
    "source field of the wrong type": lambda m: {**m, "source": {**m["source"], "gamma": "x"}},
    "files not a list": lambda m: {**m, "files": {"path": "run1_sub0/iter0000.npz"}},
    "files entry not an object": lambda m: {**m, "files": ["run1_sub0/iter0000.npz"]},
    "files entry run a list": lambda m: _with_first_file(m, run=[1]),
    "files entry run a bool": lambda m: _with_first_file(m, run=True),
    "files entry without sub_run": lambda m: _with_first_file(m, drop=("sub_run",)),
    "files entry iteration a string": lambda m: _with_first_file(m, iteration="0"),
    "files entry events a list": lambda m: _with_first_file(m, events=[1, 2, 3]),
    "files entry events without M": lambda m: _with_first_file(m, events={"H": 1, "P": 1}),
    "files entry negative count": lambda m: _with_first_file(m, events={"H": -1, "P": 0, "M": 0}),
}


@pytest.mark.parametrize("case", sorted(_MANIFEST_EDITS))
def test_analyze_exits_2_on_a_malformed_manifest(tmp_path, capsys, case):
    data = tmp_path / "ds"
    run_protocol(
        SourceConfig(pair_rate=2.0e3, seed=3), SetupParams(),
        iterations={"interference": 1, "non_interference": 1},
    ).to_directory(data)
    manifest_path = data / "manifest.json"
    manifest = _MANIFEST_EDITS[case](json.loads(manifest_path.read_text()))
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match="manifest.json"):
        load_dataset(data)
    assert main(["analyze", str(data), "--out", str(tmp_path / "out")]) == 2
    assert "manifest.json" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _write_npy(path, arrays):
    with open(path, "wb") as fh:
        np.save(fh, arrays["H"])


# Each case rewrites run 1, sub-run 0, iteration 0 from its stored arrays.
_CORRUPTIONS = {
    "missing channel": lambda path, a: np.savez(path, H=a["H"], P=a["P"]),
    "extra channel": lambda path, a: np.savez(path, X=a["H"][:1], **a),
    "float array": lambda path, a: np.savez(path, **{**a, "P": a["P"].astype(float)}),
    "int32 array": lambda path, a: np.savez(path, **{**a, "P": a["P"].astype(np.int32)}),
    "2-D array": lambda path, a: np.savez(path, **{**a, "P": a["P"].reshape(1, -1)}),
    "pickled object array": lambda path, a: np.savez(
        path, **{**a, "P": np.array(a["P"].tolist(), dtype=object)}
    ),
    "stamp at duration": lambda path, a: np.savez(
        path, **{**a, "P": np.append(a["P"][1:], SourceConfig().duration_ps)}
    ),
    "negative stamp": lambda path, a: np.savez(
        path, **{**a, "P": np.insert(a["P"][:-1], 0, -1)}
    ),
    "unsorted stamps": lambda path, a: np.savez(path, **{**a, "P": a["P"][::-1].copy()}),
    "repeated stamp": lambda path, a: np.savez(
        path, **{**a, "P": np.insert(a["P"][:-1], 1, a["P"][0])}
    ),
    "truncated stream": lambda path, a: np.savez(path, **{**a, "P": a["P"][:-1]}),
    "swapped file": lambda path, a: np.savez(
        path, **dict(np.load(path.with_name("iter0001.npz")))
    ),
    "plain .npy": _write_npy,
    "truncated archive": lambda path, a: path.write_bytes(path.read_bytes()[:1000]),
}


@pytest.mark.parametrize("case", sorted(_CORRUPTIONS))
def test_loader_rejects_bad_iteration_file_naming_it(tmp_path, case):
    src = SourceConfig(pair_rate=2.0e3, seed=11)
    dataset = run_protocol(
        src, SetupParams(), iterations={"interference": 1, "non_interference": 2}
    )
    dataset.to_directory(tmp_path)
    path = tmp_path / "run1_sub0" / "iter0000.npz"
    with np.load(path) as archive:
        arrays = {name: archive[name] for name in archive.files}
    _CORRUPTIONS[case](path, arrays)
    loaded = load_dataset(tmp_path)
    with pytest.raises(ValueError, match="run1_sub0/iter0000.npz"):
        loaded.streams(1, 0, 0)
    # Its neighbour is untouched and still reads back exactly.
    for x, y in zip(dataset.streams(1, 0, 1), loaded.streams(1, 0, 1)):
        assert np.array_equal(x.times, y.times)


def test_default_iterations_mapping():
    assert DEFAULT_ITERATIONS == {"interference": 300, "non_interference": 150}
    dataset = run_protocol(
        SourceConfig(), SetupParams(), iterations={"non_interference": 10}
    )
    assert dataset.iterations[1] == 10
    assert dataset.iterations[2] == 300
