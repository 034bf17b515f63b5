"""Monte Carlo timestamp-stream generator for the blocker protocol.

Produces integer-picosecond click streams for the heralding detector and
the two output detectors of the circuit, one sub-run at a time.  A pair
event heralds with probability ``eta_herald`` and sends one signal photon
(or, with probability ``gamma``, two independent ones) through the
interferometer: the outer arm is sampled classically (the two arms add
incoherently, see :mod:`macroreal.circuit`), blockers absorb, and the
surviving photon clicks a detector with the arm-conditional branch weight
times the detector efficiency.  Signal clicks are delayed by ``base_delay``
plus ``arm_delay_tau`` when the photon took the -1 outer arm, with Gaussian
timing jitter; every channel also carries an independent Poisson dark-count
stream.

``run_protocol`` schedules the full four-run measurement protocol (nine
sub-runs) with per-iteration seeds derived from one master seed, and
returns a lazily generated dataset.  ``ExperimentDataset.to_directory``
materializes it as one uncompressed ``.npz`` archive per iteration,
``run{r}_sub{s}/iter{i:04d}.npz``, holding the int64 picosecond stamps of
each channel under its name in ``CHANNELS``, plus a ``manifest.json`` in
format ``macroreal-dataset-v2``; ``load_dataset`` reads such a directory
back and validates every file it opens.
"""

from __future__ import annotations

import dataclasses
import json
import math
import re
import zipfile
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Mapping, Optional, Tuple

import numpy as np

from .circuit import SetupParams, arm_branch_weights
from .protocol import RUN_CONFIGS, BlockerConfig

__all__ = [
    "CHANNELS",
    "DEFAULT_ITERATIONS",
    "ExperimentDataset",
    "INTERFERENCE_RUNS",
    "SourceConfig",
    "TimestampStream",
    "as_stamps",
    "derive_iteration_state",
    "generate_sub_run",
    "load_dataset",
    "run_protocol",
]

#: Channel labels: herald, +1 detector, -1 detector.
CHANNELS = ("H", "P", "M")

#: Runs with live inner-loop interference (nothing blocked at t2).
INTERFERENCE_RUNS = frozenset({2, 4})

#: Default per-sub-run iteration counts by run class.
DEFAULT_ITERATIONS = {"interference": 300, "non_interference": 150}

_PS_PER_SECOND = 1_000_000_000_000

#: Exclusive bound, in picoseconds, on the run length and on the largest
#: signal delay: a pair time plus its delay then stays below 2**63.
_MAX_PS = 2**62

_DATASET_FORMAT = "macroreal-dataset-v2"
_ITERATION_FILE = re.compile(r"run\d+_sub\d+/iter\d{4,}\.npz")


@dataclass(frozen=True)
class SourceConfig:
    """Source, detector and timing parameters of one simulated sub-run.

    Parameters
    ----------
    pair_rate : float
        Photon-pair events per second.
    duration : float
        Acquisition time of one iteration, in seconds.
    gamma : float
        Fraction of events carrying two signal photons, in [0, 1).
    eta_herald, eta1, eta2 : float
        Detection efficiencies of the herald and the +1/-1 output
        detectors, each in (0, 1].
    dark_rate_h, dark_rate_p, dark_rate_m : float
        Dark counts per second on each channel.
    jitter_sigma : float
        Gaussian timing jitter of signal clicks, in picoseconds.
    base_delay : float
        Herald-to-signal delay of the +1 outer arm, in picoseconds.
    arm_delay_tau : float
        Extra delay of the -1 outer arm, in picoseconds.
    seed : int
        Seed of the sub-run's private random stream.

    Raises
    ------
    ValueError
        Naming the field, if a value is NaN or infinite or lies outside
        its range.  Every click time must fit int64, so ``duration`` must
        be shorter than 2**62 ps and ``base_delay + arm_delay_tau +
        64 * jitter_sigma`` must lie below 2**62 ps.
    """

    pair_rate: float = 5.0e4
    duration: float = 1.0
    gamma: float = 0.0023
    eta_herald: float = 0.6
    eta1: float = 0.6
    eta2: float = 0.6
    dark_rate_h: float = 100.0
    dark_rate_p: float = 100.0
    dark_rate_m: float = 100.0
    jitter_sigma: float = 400.0
    base_delay: float = 1.0e5
    arm_delay_tau: float = 2.0e4
    seed: int = 0

    def __post_init__(self) -> None:
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{field.name} must be finite, got {value}")
        for name in ("pair_rate", "dark_rate_h", "dark_rate_p", "dark_rate_m"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.duration <= 0.0:
            raise ValueError(f"duration must be > 0, got {self.duration}")
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError(f"gamma must lie in [0, 1), got {self.gamma}")
        for name in ("eta_herald", "eta1", "eta2"):
            eta = getattr(self, name)
            if not 0.0 < eta <= 1.0:
                raise ValueError(f"{name} must lie in (0, 1], got {eta}")
        for name in ("jitter_sigma", "base_delay", "arm_delay_tau"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if (
            isinstance(self.seed, bool)
            or not isinstance(self.seed, (int, np.integer))
            or self.seed < 0
        ):
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed!r}")
        if self.duration_ps >= _MAX_PS:
            raise ValueError(
                f"duration must be shorter than 2**62 ps ({_MAX_PS / _PS_PER_SECOND:.4g} s), "
                f"got {self.duration}"
            )
        reach = self.base_delay + self.arm_delay_tau + 64 * self.jitter_sigma
        if reach >= _MAX_PS:
            raise ValueError(
                "base_delay + arm_delay_tau + 64 * jitter_sigma must be below 2**62 ps, "
                f"got {reach:.4g}"
            )

    @property
    def duration_ps(self) -> int:
        """Iteration length in integer picoseconds."""
        return int(round(self.duration * _PS_PER_SECOND))


@dataclass(frozen=True)
class TimestampStream:
    """Sorted click record of one channel.

    Parameters
    ----------
    channel : str
        One of ``"H"``, ``"P"``, ``"M"``.
    times : numpy.ndarray
        Strictly increasing int64 timestamps in picoseconds.  Clicks
        falling in the same picosecond are merged (a detector cannot
        resolve them).  Float input must hold whole numbers; see
        :func:`as_stamps`.
    """

    channel: str
    times: np.ndarray

    def __post_init__(self) -> None:
        if self.channel not in CHANNELS:
            raise ValueError(f"channel must be one of {CHANNELS}, got {self.channel!r}")
        times = as_stamps(self.times, self.channel)
        if times.ndim != 1:
            raise ValueError(f"{self.channel} times must be one-dimensional")
        if times.size and times[0] < 0:
            raise ValueError(f"{self.channel} timestamps must be nonnegative")
        if times.size > 1 and not np.all(np.diff(times) > 0):
            raise ValueError(f"{self.channel} timestamps must be strictly increasing")
        object.__setattr__(self, "times", times)

    def __len__(self) -> int:
        return int(self.times.size)


def as_stamps(values, channel: str) -> np.ndarray:
    """Timestamps as an int64 array, refusing any that are not whole numbers.

    Boolean, signed and narrower unsigned integer input is converted
    without a value check.  uint64 input must fit in int64: a stamp of 2**63
    or more is refused rather than wrapped to a negative time.  Other input
    is read as float64 and must hold finite whole numbers inside the int64
    range; ``[0.5, 1.7]`` is refused rather than truncated.

    Raises
    ------
    ValueError
        Naming ``channel`` and the first offending stamp.
    """
    times = np.asarray(values)
    if times.dtype.kind == "u" and times.dtype.itemsize == 8:
        bad = times > np.uint64(np.iinfo(np.int64).max)
    elif times.dtype.kind in "biu":
        return times.astype(np.int64, copy=False)
    else:
        times = np.asarray(times, dtype=np.float64)
        bad = ~((np.floor(times) == times) & (np.abs(times) < 2.0**63))
    if bad.any():
        raise ValueError(
            f"{channel} timestamps must be whole picoseconds in the int64 range, "
            f"got {times[bad].flat[0]}"
        )
    return times.astype(np.int64)


def _finalize_times(raw: np.ndarray, dark: np.ndarray, duration_ps: int) -> np.ndarray:
    """Merge signal and dark clicks, drop out-of-range ones, make strict.

    Sorts the merged clicks, slices ``[0, duration_ps)`` out of the sorted
    array with two scalar binary searches and keeps each stamp that differs
    from its left neighbour (``np.compress``, cheaper than boolean-mask
    indexing).  ``np.unique`` would give the same array but hashes int64 on
    NumPy 2.x, ≈15× slower here.
    """
    merged = np.concatenate([raw, dark])
    merged.sort()
    merged = merged[np.searchsorted(merged, 0) : np.searchsorted(merged, duration_ps)]
    keep = np.empty(merged.size, dtype=bool)
    keep[:1] = True
    np.not_equal(merged[1:], merged[:-1], out=keep[1:])
    return np.compress(keep, merged)


def generate_sub_run(
    src: SourceConfig, setup: SetupParams, blockers: BlockerConfig
) -> Tuple[TimestampStream, TimestampStream, TimestampStream]:
    """Simulate one sub-run and return its three click streams.

    Parameters
    ----------
    src : SourceConfig
        Source, detector and timing parameters (including the seed).
    setup : SetupParams
        Optical parameters of the circuit.
    blockers : BlockerConfig
        Blocker positions of this sub-run.

    Returns
    -------
    tuple of TimestampStream
        ``(herald, plus, minus)`` streams.

    Raises
    ------
    ValueError
        If the configured branch weights times efficiencies exceed unit
        probability for either outer arm (the lumped intensity model allows
        weight sums slightly above one in interference configurations).
    """
    # Arm-conditional click thresholds, fixed for the whole sub-run: a
    # photon on that arm with u < p(+) clicks +1, with p(+) <= u < p(+) +
    # p(-) it clicks -1.
    thresholds = {}
    for arm in (+1, -1):
        w = arm_branch_weights(setup, blockers, arm)
        p_plus = w.w_plus * src.eta1
        p_minus = w.w_minus * src.eta2
        if p_plus + p_minus > 1.0:
            raise ValueError(
                f"branch weights times efficiencies exceed 1 for arm {arm:+d} "
                f"({p_plus + p_minus:.4f}); reduce eta1/eta2"
            )
        thresholds[arm] = (p_plus, p_plus + p_minus)

    rng = np.random.default_rng(src.seed)
    duration_ps = src.duration_ps

    n_pairs = int(rng.poisson(src.pair_rate * src.duration))
    pair_times = rng.integers(0, duration_ps, size=n_pairs, dtype=np.int64)
    herald_hit = rng.random(n_pairs) < src.eta_herald
    doubled = rng.random(n_pairs) < src.gamma

    # One signal photon per event plus an independent second one for
    # two-photon events; each photon routes independently.  Random-mask
    # selections use np.compress, ≈4× cheaper than boolean indexing.
    photon_times = np.concatenate([pair_times, np.compress(doubled, pair_times)])
    n_photons = photon_times.size
    on_plus_arm = rng.random(n_photons) < setup.alpha_sq
    on_minus_arm = ~on_plus_arm
    u = rng.random(n_photons)
    jitter = (
        rng.normal(0.0, src.jitter_sigma, n_photons)
        if src.jitter_sigma > 0.0
        else np.zeros(n_photons)
    )

    # Each photon against its own arm's scalar thresholds (alpha: the +1
    # arm, beta: the -1 arm).
    (plus_alpha, click_alpha), (plus_beta, click_beta) = thresholds[+1], thresholds[-1]
    to_plus = (u < plus_alpha) & on_plus_arm | (u < plus_beta) & on_minus_arm
    to_minus = ~to_plus & ((u < click_alpha) & on_plus_arm | (u < click_beta) & on_minus_arm)

    # The float64 delay base_delay + (0.0 on the +1 arm, arm_delay_tau on
    # the -1 arm), both sums formed once and looked up by the arm flag
    # (a take, ≈3× cheaper than np.where with scalars).
    base_delay = float(src.base_delay)
    arm_delay = np.array([base_delay + float(src.arm_delay_tau), base_delay + 0.0])

    def click_times(hit: np.ndarray) -> np.ndarray:
        """Click times of the photons that reach one detector."""
        # One index array and three takes cost half of three compresses.
        reach = np.flatnonzero(hit)
        delay = arm_delay.take(on_plus_arm.take(reach).view(np.uint8))
        delay += jitter.take(reach)
        return photon_times.take(reach) + np.rint(delay).astype(np.int64)

    def dark(rate: float) -> np.ndarray:
        n = int(rng.poisson(rate * src.duration))
        return rng.integers(0, duration_ps, size=n, dtype=np.int64)

    herald = _finalize_times(
        np.compress(herald_hit, pair_times), dark(src.dark_rate_h), duration_ps
    )
    plus = _finalize_times(click_times(to_plus), dark(src.dark_rate_p), duration_ps)
    minus = _finalize_times(click_times(to_minus), dark(src.dark_rate_m), duration_ps)
    return (
        TimestampStream("H", herald),
        TimestampStream("P", plus),
        TimestampStream("M", minus),
    )


def derive_iteration_state(
    master_seed: int, run: int, sub_run: int, iteration: int
) -> Tuple[int, int]:
    """Per-iteration seeds derived from the master seed.

    Uses a seed sequence spawned at key ``(run, sub_run, iteration)``; the
    first word seeds the sub-run generator, the second the iteration's
    setup jitter (visibility draw).

    Returns
    -------
    tuple of int
        ``(stream_seed, setup_seed)``.
    """
    ss = np.random.SeedSequence(master_seed, spawn_key=(run, sub_run, iteration))
    state = ss.generate_state(2, np.uint64)
    return int(state[0]), int(state[1])


def _int_at_least(value, least: int) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value >= least


def _run_iterations(iterations: Mapping[str, int]) -> Dict[int, int]:
    """Map run id to its iteration count.

    Raises ``ValueError``, its message starting with ``iterations``, if
    ``iterations`` is not a mapping, names an unknown class, or gives a
    count that is not a positive integer (floats, strings and booleans
    included).
    """
    if not isinstance(iterations, Mapping):
        raise ValueError(f"iterations: {iterations!r} is not a mapping of class to count")
    unknown = set(iterations) - set(DEFAULT_ITERATIONS)
    if unknown:
        raise ValueError(f"iterations: unknown classes {sorted(unknown)}")
    merged = {**DEFAULT_ITERATIONS, **iterations}
    for name, count in merged.items():
        if not _int_at_least(count, 1):
            raise ValueError(f"iterations.{name}: {count!r} is not a positive integer")
    return {
        run: merged["interference" if run in INTERFERENCE_RUNS else "non_interference"]
        for run in RUN_CONFIGS
    }


@dataclass(frozen=True)
class ExperimentDataset:
    """Lazily generated dataset of the full four-run protocol.

    Streams are regenerated on demand from seeds derived from
    ``master_seed``, so the dataset is cheap to hold and deterministic;
    ``to_directory`` materializes it as one ``.npz`` archive per iteration
    plus a manifest.

    Parameters
    ----------
    source : SourceConfig
        Template configuration; each iteration replaces only the seed.
    setup : SetupParams
        Optical parameters; with ``v_jitter`` set, each iteration replaces
        the visibility by a uniform draw from ``[v_lo, v_hi]``.
    iterations : dict
        Per-run iteration counts, keyed by run id.
    v_jitter : tuple of float, optional
        Per-iteration visibility range.
    master_seed : int
        Root of the per-iteration seed derivation.
    """

    source: SourceConfig
    setup: SetupParams
    iterations: Dict[int, int]
    v_jitter: Optional[Tuple[float, float]] = None
    master_seed: int = 0

    def __post_init__(self) -> None:
        if set(self.iterations) != set(RUN_CONFIGS):
            raise ValueError("iterations must cover exactly the protocol runs")
        if self.v_jitter is not None:
            lo, hi = self.v_jitter
            if not -1.0 <= lo <= hi <= 1.0:
                raise ValueError(f"v_jitter: range must satisfy -1 <= lo <= hi <= 1, got {self.v_jitter}")
            object.__setattr__(self, "v_jitter", (float(lo), float(hi)))

    def iteration_setup(self, run: int, sub_run: int, iteration: int) -> SetupParams:
        """Setup parameters of one iteration (with the jittered visibility)."""
        if self.v_jitter is None:
            return self.setup
        _, setup_seed = derive_iteration_state(self.master_seed, run, sub_run, iteration)
        v = float(np.random.default_rng(setup_seed).uniform(*self.v_jitter))
        return dataclasses.replace(self.setup, visibility=v)

    def streams(
        self, run: int, sub_run: int, iteration: int
    ) -> Tuple[TimestampStream, TimestampStream, TimestampStream]:
        """Generate the three streams of one iteration."""
        stream_seed, _ = derive_iteration_state(self.master_seed, run, sub_run, iteration)
        src = dataclasses.replace(self.source, seed=stream_seed)
        setup = self.iteration_setup(run, sub_run, iteration)
        return generate_sub_run(src, setup, RUN_CONFIGS[run][sub_run])

    def to_directory(self, outdir: str, force: bool = False) -> Path:
        """Write every iteration as an ``.npz`` archive plus a dataset manifest.

        Iteration ``i`` of sub-run ``s`` of run ``r`` goes to
        ``run{r}_sub{s}/iter{i:04d}.npz``, an uncompressed ``numpy.savez``
        archive with one 1-D int64 array of absolute picosecond stamps per
        channel, named ``H``, ``P`` and ``M``.  The manifest
        (``manifest.json``, format ``macroreal-dataset-v2``) records the
        master seed, source, setup, schedule and, per file, its location,
        stream seed and the number of stamps of each channel (``events``).

        Parameters
        ----------
        outdir : str
            Target directory; created if absent.
        force : bool
            Overwrite into a non-empty directory.  Iteration archives
            (``run{r}_sub{s}/iter{NNNN}.npz``) that the new manifest does not
            list are deleted afterwards; every other file is left in place.

        Returns
        -------
        pathlib.Path
            Path of the written manifest file.
        """
        root = Path(outdir)
        root.mkdir(parents=True, exist_ok=True)
        if any(root.iterdir()) and not force:
            raise FileExistsError(f"output directory {root} is not empty (use force)")

        files = []
        for run, blockers in RUN_CONFIGS.items():
            for sub_run in range(len(blockers)):
                sub_dir = root / f"run{run}_sub{sub_run}"
                sub_dir.mkdir(exist_ok=True)
                for iteration in range(self.iterations[run]):
                    streams = self.streams(run, sub_run, iteration)
                    rel = _iteration_file(run, sub_run, iteration)
                    np.savez(root / rel, **{s.channel: s.times for s in streams})
                    stream_seed, _ = derive_iteration_state(
                        self.master_seed, run, sub_run, iteration
                    )
                    files.append(
                        {
                            "run": run,
                            "sub_run": sub_run,
                            "iteration": iteration,
                            "path": rel,
                            "seed": stream_seed,
                            "events": {s.channel: len(s) for s in streams},
                        }
                    )

        manifest = {
            "format": _DATASET_FORMAT,
            "master_seed": self.master_seed,
            "source": dataclasses.asdict(self.source),
            "setup": dataclasses.asdict(self.setup),
            "v_jitter": list(self.v_jitter) if self.v_jitter else None,
            "iterations": {str(run): count for run, count in sorted(self.iterations.items())},
            "sub_runs": _manifest_schedule(),
            "files": files,
        }
        manifest_path = root / "manifest.json"
        with open(manifest_path, "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
        written = {entry["path"] for entry in files}
        for path in root.glob("run*_sub*/iter*.npz"):
            rel = path.relative_to(root).as_posix()
            if rel not in written and _ITERATION_FILE.fullmatch(rel):
                path.unlink()
        return manifest_path


def run_protocol(
    src: SourceConfig,
    setup: SetupParams,
    iterations: Optional[Dict[str, int]] = None,
    v_jitter: Optional[Tuple[float, float]] = None,
) -> ExperimentDataset:
    """Assemble the full protocol dataset.

    Parameters
    ----------
    src : SourceConfig
        Source template; ``src.seed`` acts as the master seed.
    setup : SetupParams
        Optical parameters.
    iterations : dict, optional
        Overrides for ``{"interference": 300, "non_interference": 150}``.
        Runs 2 and 4 are interference runs, runs 1 and 3 are not.
    v_jitter : tuple of float, optional
        Per-iteration uniform visibility range ``(v_lo, v_hi)``.

    Returns
    -------
    ExperimentDataset
        Lazy dataset covering all nine sub-runs.

    Raises
    ------
    ValueError
        Its message starting with the parameter it rejects: ``iterations``
        (not a mapping, an unknown class, or a count that is not a positive
        integer) or ``v_jitter`` (a range outside [-1, 1]).
    """
    per_run = _run_iterations({} if iterations is None else iterations)
    return ExperimentDataset(
        source=src,
        setup=setup,
        iterations=per_run,
        v_jitter=v_jitter,
        master_seed=src.seed,
    )


def _manifest_schedule() -> Dict[str, List[Dict[str, str]]]:
    """The protocol's run schedule as a dataset manifest records it."""
    return {
        str(run): [{"block_t1": b.block_t1, "block_t2": b.block_t2} for b in blockers]
        for run, blockers in RUN_CONFIGS.items()
    }


def _iteration_file(run: int, sub_run: int, iteration: int) -> str:
    """Location of one iteration's archive, relative to the dataset root."""
    return f"run{run}_sub{sub_run}/iter{iteration:04d}.npz"


def _read_iteration(
    path: Path, events: Dict[str, int], duration_ps: int
) -> Tuple[TimestampStream, TimestampStream, TimestampStream]:
    """Read one iteration archive and check it against its manifest entry."""
    archive = np.load(path, allow_pickle=False)
    if not isinstance(archive, np.lib.npyio.NpzFile):
        raise ValueError("not an .npz archive")
    with archive:
        if sorted(archive.files) != sorted(CHANNELS):
            raise ValueError(
                f"expected arrays {sorted(CHANNELS)}, found {sorted(archive.files)}"
            )
        arrays = {ch: archive[ch] for ch in CHANNELS}
    for ch, times in arrays.items():
        if times.dtype != np.int64 or times.ndim != 1:
            raise ValueError(
                f"{ch} must be a 1-D int64 array, got {times.dtype} of shape {times.shape}"
            )
    counts = {ch: int(times.size) for ch, times in arrays.items()}
    if counts != events:
        raise ValueError(f"stamps per channel {counts} differ from the manifest's {events}")
    for ch, times in arrays.items():
        if times.size and (times.min() < 0 or times.max() >= duration_ps):
            raise ValueError(f"{ch} has stamps outside [0, {duration_ps}) ps")
    return tuple(TimestampStream(ch, arrays[ch]) for ch in CHANNELS)


class _DirectoryDataset:
    """Dataset view over a materialized ``.npz`` directory tree.

    The schedule is the protocol's; :func:`load_dataset` has checked that
    the manifest records the same one.
    """

    def __init__(self, root: Path, manifest: dict):
        self._root = root
        self._manifest = manifest
        self.master_seed = manifest["master_seed"]
        self.iterations = {int(k): v for k, v in manifest["iterations"].items()}
        self._events = {
            (entry["run"], entry["sub_run"], entry["iteration"]): entry["events"]
            for entry in manifest["files"]
        }
        self._duration_ps = self.source.duration_ps

    @property
    def source(self) -> SourceConfig:
        return SourceConfig(**self._manifest["source"])

    def streams(
        self, run: int, sub_run: int, iteration: int
    ) -> Tuple[TimestampStream, TimestampStream, TimestampStream]:
        """Read the three streams of one iteration from its archive.

        Raises
        ------
        FileNotFoundError
            If the archive is missing.
        ValueError
            Naming the file, if it is not an ``.npz`` archive of exactly the
            ``H``, ``P`` and ``M`` arrays, if an array is pickled, not 1-D or
            not int64, if its length differs from the manifest's ``events``
            count, or if its stamps leave ``[0, source.duration_ps)`` or are
            not strictly increasing.
        """
        path = self._root / _iteration_file(run, sub_run, iteration)
        events = self._events.get((run, sub_run, iteration))
        if events is None:
            raise ValueError(f"{path}: the manifest has no entry for this file")
        try:
            return _read_iteration(path, events, self._duration_ps)
        except (ValueError, EOFError, zipfile.BadZipFile) as exc:
            raise ValueError(f"{path}: {exc}") from exc


def load_dataset(path: str) -> _DirectoryDataset:
    """Open a materialized dataset directory.

    Only the manifest is read here; each iteration archive is read and
    validated when its ``streams`` are requested.

    Parameters
    ----------
    path : str
        Directory containing ``manifest.json`` (format
        ``macroreal-dataset-v2``) and the iteration archives written by
        :meth:`ExperimentDataset.to_directory`.

    Returns
    -------
    _DirectoryDataset
        Read-only dataset with the same access methods as
        :class:`ExperimentDataset`.

    Raises
    ------
    FileNotFoundError
        If there is no ``manifest.json``.
    ValueError
        Naming ``manifest.json``, if its top level is not an object, if the
        manifest has another format, if its ``sub_runs`` differ from the
        protocol's ``RUN_CONFIGS`` (sub-runs are counted by position, so a
        reordered or changed schedule would be analysed as the protocol's),
        if its ``iterations`` do not give a positive integer count for
        exactly the runs 1 to 4, if its ``source`` is not an object of valid
        :class:`SourceConfig` fields, or if its ``files`` are not a list of
        objects each giving integer ``run``, ``sub_run`` and ``iteration``
        and ``events`` as an object of H/P/M counts.  A
        ``macroreal-dataset-v1`` (CSV) directory is no longer read; its
        manifest holds the seed and configuration to write it again with
        ``simulate``.
    """
    root = Path(path)
    manifest_path = root / "manifest.json"
    if not manifest_path.is_file():
        raise FileNotFoundError(f"no manifest.json under {root}")
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    if not isinstance(manifest, dict):
        raise ValueError(f"{manifest_path}: the top level must be an object")
    fmt = manifest.get("format")
    if fmt == "macroreal-dataset-v1":
        raise ValueError(
            f"{manifest_path}: macroreal-dataset-v1 (CSV) datasets are no longer read; "
            "re-run simulate with the master seed and configuration recorded in "
            f"this manifest to write a {_DATASET_FORMAT} dataset"
        )
    if fmt != _DATASET_FORMAT:
        raise ValueError(f"{manifest_path}: unrecognized dataset format {fmt!r}")
    if manifest.get("sub_runs") != _manifest_schedule():
        raise ValueError(f"{manifest_path}: sub_runs differ from the protocol's run schedule")
    iterations = manifest.get("iterations")
    if (
        not isinstance(iterations, dict)
        or set(iterations) != {str(run) for run in RUN_CONFIGS}
        or not all(_int_at_least(count, 1) for count in iterations.values())
    ):
        raise ValueError(
            f"{manifest_path}: iterations must give a positive integer count "
            f"for each of the runs {sorted(RUN_CONFIGS)}, got {iterations!r}"
        )
    source = manifest.get("source")
    if not isinstance(source, dict):
        raise ValueError(f"{manifest_path}: source must be an object, got {source!r}")
    try:
        SourceConfig(**source)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{manifest_path}: source: {exc}") from exc
    files = manifest.get("files")
    if not isinstance(files, list):
        raise ValueError(f"{manifest_path}: files must be a list of objects")
    for entry in files:
        events = entry.get("events") if isinstance(entry, dict) else None
        if not (
            isinstance(events, dict)
            and set(events) == set(CHANNELS)
            and all(_int_at_least(n, 0) for n in events.values())
            and all(_int_at_least(entry.get(key), 0) for key in ("run", "sub_run", "iteration"))
        ):
            raise ValueError(
                f"{manifest_path}: files entry {entry!r} must be an object giving integer run, "
                "sub_run and iteration, and events as an object of H/P/M counts"
            )
    return _DirectoryDataset(root, manifest)
