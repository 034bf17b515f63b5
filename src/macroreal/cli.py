"""Batch command-line workbench: predict, hv-bound, gamma-fit, simulate, analyze, report.

Every command reads an optional JSON config file (sections ``source``,
``setup``, ``analysis`` and ``fit``; the defaults reproduce the nominal
setup), writes canonically formatted outputs (sorted JSON keys, floats at
six significant digits, so reruns are byte-identical) and finishes by
emitting ``run_manifest.json`` listing everything it produced.

Exit codes: 0 success, 2 invalid input or configuration, 3 numerical
non-convergence.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .analysis import (
    analyze_counts,
    analyze_dataset,
    bootstrap_sdm,
    count_dataset,
    load_run_counts_csv,
    per_iteration_values,
)
from .circuit import SetupParams, Tolerances, _qm_ranges, joint_probs, qm_range
from .hvmodels import (
    blocker_setup_bound,
    critical_efficiency,
    lgi_detectors_bound_formula,
    maximize_lgi_detectors,
    maximize_wlgi_detectors,
    wlgi_detectors_bound_formula,
)
from .multiphoton import fit_gamma, fit_report, load_counts_csv, reference_counts
from .protocol import BOUNDS, RUN_CONFIGS, evaluate
from .simulate import DEFAULT_ITERATIONS, SourceConfig, load_dataset, run_protocol

__all__ = [
    "ConfigError",
    "build_parser",
    "default_config",
    "load_config",
    "main",
]

_EXIT_OK = 0
_EXIT_INPUT = 2
_EXIT_NUMERIC = 3

_REFERENCE_RESULTS = Path(__file__).parent / "_data" / "reference_results.json"

_SDM_DRAW_SIZES = (10, 50, 150, 300)
_SDM_RESAMPLES = 10_000


class ConfigError(ValueError):
    """Invalid configuration or input; the message names the offending field."""


# ---------------------------------------------------------------------------
# Config handling


def default_config() -> Dict[str, dict]:
    """Default configuration, one dict per section, at the nominal setup.

    Returns
    -------
    dict
        Sections ``source`` (photon source, detection and timing model plus
        iteration counts and per-iteration visibility jitter), ``setup``
        (interferometer parameters and their tolerance sweep), ``analysis``
        (histogram and error-sampling controls) and ``fit`` (multiphoton
        fit controls).
    """
    source = asdict(SourceConfig())
    source["iterations"] = dict(DEFAULT_ITERATIONS)
    source["v_jitter"] = [0.7, 0.85]
    return {
        "source": source,
        "setup": {
            "alpha_sq": 0.5,
            "t_ratios": [0.80, 0.79, 0.82, 0.82],
            "visibility": 1.0,
            "v_range": [0.7, 0.85],
            "hwp_angle_deg": 1.0,
            "t_delta": 0.02,
            "grid_points": 21,
        },
        "analysis": {
            "bin_width": 100,
            "window": None,
            "n_samples": 1_000_000,
            "seed": 0,
        },
        "fit": {"seed": 0, "n_starts": 50},
    }


def load_config(path: Optional[str]) -> Dict[str, dict]:
    """Merge a JSON config file over :func:`default_config`.

    Unknown sections or fields raise :class:`ConfigError` naming the field
    path, so typos fail loudly instead of silently keeping a default.

    Parameters
    ----------
    path : str or None
        Config file path; ``None`` returns the defaults unchanged.
    """
    config = default_config()
    if path is None:
        return config
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config: top level must be a JSON object")
    for section, fields in raw.items():
        if section not in config:
            raise ConfigError(f"config: unknown section {section!r}")
        if not isinstance(fields, dict):
            raise ConfigError(f"config: section {section!r} must be a JSON object")
        for key, value in fields.items():
            if key not in config[section]:
                raise ConfigError(f"config: unknown field {section}.{key}")
            config[section][key] = value
    return config


def _setup_from_config(config: Dict[str, dict]) -> SetupParams:
    setup = config["setup"]
    try:
        return SetupParams(
            alpha_sq=float(setup["alpha_sq"]),
            t_ratios=tuple(float(t) for t in setup["t_ratios"]),
            visibility=float(setup["visibility"]),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config: setup: {exc}") from exc


def _tolerances_from_config(
    config: Dict[str, dict], v_range: Optional[Sequence[float]]
) -> Tolerances:
    setup = config["setup"]
    try:
        return Tolerances(
            hwp_angle_deg=float(setup["hwp_angle_deg"]),
            t_delta=float(setup["t_delta"]),
            v_range=None if v_range is None else (float(v_range[0]), float(v_range[1])),
            grid_points=setup["grid_points"],
        )
    except (TypeError, ValueError, IndexError) as exc:
        raise ConfigError(f"config: setup: {exc}") from exc


def _source_from_config(config: Dict[str, dict], seed: Optional[int]):
    """SourceConfig, iteration counts and visibility jitter from the config.

    The iteration counts are passed on as given; :func:`run_protocol`
    checks them.
    """
    section = dict(config["source"])
    iterations = section.pop("iterations")
    v_jitter = section.pop("v_jitter")
    if v_jitter is not None:
        try:
            v_jitter = (float(v_jitter[0]), float(v_jitter[1]))
        except (TypeError, ValueError, IndexError) as exc:
            raise ConfigError(f"config: source.v_jitter: {exc}") from exc
    if seed is not None:
        section["seed"] = seed
    try:
        source = SourceConfig(**section)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config: source: {exc}") from exc
    return source, iterations, v_jitter


def _config_int(field: str, value, minimum: Optional[int] = None) -> int:
    """``value`` of config field ``field``; floats, bools and strings are refused."""
    if isinstance(value, bool) or not isinstance(value, int) or (
        minimum is not None and value < minimum
    ):
        at_least = "" if minimum is None else f" >= {minimum}"
        raise ConfigError(f"config: {field}: {value!r} must be an integer{at_least}")
    return value


def _seed_or(args: argparse.Namespace, fallback: int) -> int:
    seed = fallback if args.seed is None else args.seed
    if seed < 0:
        raise ConfigError(f"seed: {seed} must be >= 0")
    return seed


# ---------------------------------------------------------------------------
# Canonical output formatting


def _canonical(value):
    """Recursively round floats to six significant digits for stable files."""
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, (bool, np.bool_)) or value is None:
        return bool(value) if value is not None else None
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(f"{float(value):.6g}")
    return value


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.6g}"
    return str(value)


def _write_output(path: Path, content) -> None:
    """Write a JSON dict, a ``(header, rows)`` CSV table or a text string."""
    if isinstance(content, str):
        path.write_text(content, encoding="utf-8")
    elif isinstance(content, tuple):
        header, rows = content
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows([_cell(v) for v in row] for row in rows)
    else:
        path.write_text(
            json.dumps(_canonical(content), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )


def _read_json(path, label: str) -> dict:
    target = Path(path)
    if not target.exists():
        raise ConfigError(f"{label}: {target} does not exist")
    if not target.is_file():
        raise ConfigError(f"{label}: {target} is not a file")
    try:
        payload = json.loads(target.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{label}: not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ConfigError(f"{label}: top level must be a JSON object")
    return payload


def _versions() -> Dict[str, str]:
    # Read from the imported modules: package metadata is slow to load and
    # to query.
    return {"macroreal": __version__, "numpy": np.__version__}


@dataclass
class _Outputs:
    """What a verb produced; :func:`main` writes it under ``--out``.

    ``files`` maps a file name to its content, in the order written: a dict
    (canonical JSON), a ``(header, rows)`` pair (CSV) or a string (text).
    ``written`` names, relative to ``--out``, the files the verb wrote
    itself; they are only listed in the run manifest.  ``lines`` are printed
    before the ``Wrote`` lines.  A ``failure`` (numerical non-convergence) is
    printed to stderr once everything is written, and the run exits 3.
    """

    files: Dict[str, object]
    seed: Optional[int] = None
    lines: Sequence[str] = ()
    written: Sequence[str] = ()
    failure: Optional[str] = None


# ---------------------------------------------------------------------------
# predict


def _prediction_payload(config: Dict[str, dict]) -> dict:
    """Point values plus tolerance-swept ranges for all five expressions."""
    setup = _setup_from_config(config)
    values = evaluate(joint_probs(setup))
    point = {name: getattr(values, name) for name in BOUNDS}
    v_range = config["setup"]["v_range"]
    fixed_tol = _tolerances_from_config(config, None)
    if v_range is None:
        fixed = swept = qm_range(setup, fixed_tol)
    else:
        # One pass over the grid for both boxes, fixed visibility first.
        fixed, swept = _qm_ranges(setup, [fixed_tol, _tolerances_from_config(config, v_range)])

    def _ranges(spans: Dict[str, Tuple[float, float]]) -> Dict[str, List[float]]:
        # nsit12/nsit13 vanish identically in this model, hence point ranges.
        return {
            "lgi": list(spans["lgi"]),
            "wlgi": list(spans["wlgi"]),
            "nsit12": [point["nsit12"], point["nsit12"]],
            "nsit23": list(spans["nsit23"]),
            "nsit13": [point["nsit13"], point["nsit13"]],
        }

    return {
        "setup": asdict(setup),
        "visibility_range": None if v_range is None else [float(v) for v in v_range],
        "point": point,
        "range": _ranges(swept),
        "range_fixed_visibility": _ranges(fixed),
    }


def cmd_predict(args: argparse.Namespace, config: Dict[str, dict]) -> _Outputs:
    """``prediction.json`` with point values and swept ranges."""
    payload = _prediction_payload(config)
    point, spans = payload["point"], payload["range"]
    lines = [
        f"{name} {point[name]:.4f}  range [{spans[name][0]:.4f}, {spans[name][1]:.4f}]"
        for name in ("lgi", "wlgi", "nsit23")
    ]
    return _Outputs({"prediction.json": payload}, lines=lines)


# ---------------------------------------------------------------------------
# hv-bound


def _witness_support(weights) -> List[List[float]]:
    idx = np.nonzero(weights.values)[0]
    return [[int(i), float(weights.values[i])] for i in idx]


def cmd_hv_bound(args: argparse.Namespace, config: Dict[str, dict]) -> _Outputs:
    """Certify detector-efficiency bounds over an efficiency grid."""
    seed = _seed_or(args, 0)
    if args.eta:
        try:
            etas = [float(tok) for tok in args.eta.split(",") if tok.strip()]
        except ValueError as exc:
            raise ConfigError(f"eta: {exc}") from exc
    else:
        etas = [round(float(x), 6) for x in np.linspace(0.05, 1.0, 20)]
    if not etas:
        raise ConfigError("eta: empty efficiency list")
    names = ("LGI", "WLGI") if args.inequality == "both" else (args.inequality,)

    # The vertex scan is deterministic: the seed is only recorded in the
    # manifest.  The maximizers are looked up per call, so a wrapper that
    # bench/tracing.py installs on this module sees every certificate.
    maximize = {"LGI": maximize_lgi_detectors, "WLGI": maximize_wlgi_detectors}
    # The blocker setup's bounds do not depend on eta.
    blocker = [blocker_setup_bound(name, 1.0).bound for name in ("LGI", "WLGI")]
    rows = []
    certificates = []
    for eta in etas:
        # Rejects an eta outside (0, 1].
        rows.append([eta, lgi_detectors_bound_formula(eta), wlgi_detectors_bound_formula(eta),
                     *blocker])
        entry: Dict[str, object] = {"eta": eta}
        for name in names:
            cert = maximize[name](eta)
            entry[name.lower()] = {
                "bound": cert.bound,
                "formula_value": cert.formula_value,
                "witness_support": _witness_support(cert.witness),
                "probe_findings": len(cert.findings),
            }
        certificates.append(entry)

    critical = {
        "lgi": critical_efficiency("LGI"),
        "wlgi": critical_efficiency("WLGI"),
    }
    header = [
        "eta",
        "lgi_detectors_bound",
        "wlgi_detectors_bound",
        "lgi_blocker_bound",
        "wlgi_blocker_bound",
    ]
    return _Outputs(
        {
            "bound_vs_eta.csv": (header, rows),
            "hv_bounds.json": {"critical_efficiency": critical, "certificates": certificates},
        },
        seed=seed,
        lines=[f"critical efficiency  lgi {critical['lgi']:.4f}  wlgi {critical['wlgi']:.4f}"],
    )


# ---------------------------------------------------------------------------
# gamma-fit


def cmd_gamma_fit(args: argparse.Namespace, config: Dict[str, dict]) -> _Outputs:
    """Fit the multiphoton emission parameter to a twelve-count table."""
    seed = _seed_or(args, _config_int("fit.seed", config["fit"]["seed"], 0))
    n_starts = _config_int("fit.n_starts", config["fit"]["n_starts"], 0)
    if args.counts is None:
        observed = reference_counts()
        counts_label = "bundled"
    else:
        try:
            observed = load_counts_csv(args.counts)
        except (KeyError, ValueError, OSError) as exc:
            raise ConfigError(f"counts: {exc}") from exc
        counts_label = str(args.counts)

    result = fit_gamma(observed, n_starts=n_starts, seed=seed)
    payload = fit_report(result)
    payload["counts"] = counts_label
    return _Outputs(
        {"gamma_fit.json": payload},
        seed=seed,
        lines=[
            f"gamma {result.params.gamma:.6g}  chi2 {result.chi2:.6g}"
            f"  converged {result.converged}"
        ],
        failure=None if result.converged else "fit did not converge",
    )


# ---------------------------------------------------------------------------
# simulate


def cmd_simulate(args: argparse.Namespace, config: Dict[str, dict]) -> _Outputs:
    """Generate a full-protocol timestamped dataset on disk."""
    if args.out is None:
        raise ConfigError("simulate: --out is required")
    source, iterations, v_jitter = _source_from_config(config, args.seed)
    setup = _setup_from_config(config)
    try:
        dataset = run_protocol(source, setup, iterations=iterations, v_jitter=v_jitter)
    except ValueError as exc:
        # run_protocol's messages start with the parameter they reject.
        raise ConfigError(f"config: source.{exc}") from exc
    try:
        manifest_path = dataset.to_directory(args.out, force=args.force)
    except FileExistsError as exc:
        raise ConfigError(str(exc)) from exc
    # Only what this run wrote: --force leaves older files in place.
    files = json.loads(manifest_path.read_text(encoding="utf-8"))["files"]
    n_iters = sum(dataset.iterations[run] for run in RUN_CONFIGS)
    return _Outputs(
        {},
        seed=source.seed,
        lines=[f"Wrote {len(RUN_CONFIGS)}-run dataset ({n_iters} iterations) to {Path(args.out)}"],
        written=[manifest_path.name] + [entry["path"] for entry in files],
    )


# ---------------------------------------------------------------------------
# analyze


def _per_iteration_table(traces: Dict[str, np.ndarray]) -> Tuple[List[str], List[list]]:
    keys = ["c23", "c13", "c12", "p3", "lgi", "wlgi"]
    length = max(len(traces[k]) for k in keys)
    rows = []
    for i in range(length):
        rows.append(
            [i] + [traces[k][i] if i < len(traces[k]) else None for k in keys]
        )
    return ["iteration"] + keys, rows


def _sdm_rows(counts, seed: int) -> List[List[float]]:
    """Bootstrap SD/M of a non-interference coincidence mean vs draw size."""
    key = (3, 0)
    if key not in counts:
        return []
    samples = counts[key][:, 0]
    rows = []
    for draws in _SDM_DRAW_SIZES:
        if draws > len(samples):
            continue
        res = bootstrap_sdm(samples, draws, _SDM_RESAMPLES, seed=seed)
        rows.append([draws, _SDM_RESAMPLES, res.mean, res.sd, res.sd_over_mean])
    return rows


def cmd_analyze(args: argparse.Namespace, config: Dict[str, dict]) -> _Outputs:
    """Analyze a dataset directory or a per-run counts CSV."""
    section = config["analysis"]
    seed = _seed_or(args, _config_int("analysis.seed", section["seed"], 0))
    n_samples = _config_int("analysis.n_samples", section["n_samples"], 2)
    bin_width = _config_int("analysis.bin_width", section["bin_width"], 1)
    window = section["window"]
    if window is not None:
        if not isinstance(window, list) or len(window) != 2:
            raise ConfigError(f"config: analysis.window: {window!r} must be null or [lo, hi]")
        window = tuple(_config_int("analysis.window", edge) for edge in window)
    target = Path(args.input)
    if not target.exists():
        raise ConfigError(f"input: {target} does not exist")

    files: Dict[str, object] = {}
    if target.is_dir():
        try:
            dataset = load_dataset(target)
            counts = count_dataset(dataset, bin_width=bin_width, window=window)
            report = analyze_dataset(
                dataset,
                bin_width=bin_width,
                window=window,
                n_samples=n_samples,
                seed=seed,
                counts=counts,
            )
            per_iteration = per_iteration_values(counts)
        except (FileNotFoundError, KeyError, ValueError) as exc:
            raise ConfigError(f"input: {exc}") from exc
        files["per_iteration.csv"] = _per_iteration_table(per_iteration)
        sdm = _sdm_rows(counts, seed)
        if sdm:
            header = ["iterations", "resamples", "mean", "sd", "sd_over_mean"]
            files["sdm_vs_iterations.csv"] = (header, sdm)
    else:
        try:
            counts = load_run_counts_csv(target)
        except (KeyError, ValueError, OSError) as exc:
            raise ConfigError(f"input: {exc}") from exc
        report = analyze_counts(counts)

    lgi_mean, lgi_delta = report.lgi
    wlgi_mean, wlgi_delta = report.wlgi
    lgi_err = "" if lgi_delta is None else f" ± {lgi_delta:.4f}"
    wlgi_err = "" if wlgi_delta is None else f" ± {wlgi_delta:.4f}"
    return _Outputs(
        {"results.json": report.to_dict(), **files},
        seed=seed,
        lines=[f"lgi {lgi_mean:.4f}{lgi_err}  wlgi {wlgi_mean:.4f}{wlgi_err}"],
    )


# ---------------------------------------------------------------------------
# report


def _number(value, field: str, optional: bool = False) -> Optional[float]:
    """``value`` of JSON field ``field`` as a float; None too if ``optional``."""
    if value is None and optional:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{field}: {value!r} must be a number")
    return float(value)


def _entry(payload: dict, key: str, field: str) -> dict:
    """JSON object ``payload[key]``, the field named ``field`` in messages."""
    if key not in payload:
        raise ConfigError(f"{field}: missing")
    entry = payload[key]
    if not isinstance(entry, dict):
        raise ConfigError(f"{field}: {entry!r} must be a JSON object")
    return entry


def _comparison(prediction: dict, analysis: dict) -> Tuple[List[list], List[str]]:
    """Side-by-side rows and text lines for measured vs predicted values."""
    spans = _entry(prediction, "range", "prediction: range") if "range" in prediction else {}
    rows = []
    lines = [
        f"{'expression':<10} {'measured':>11} {'delta':>8} {'bound':>6} "
        f"{'margin':>11} {'margin/delta':>13} {'qm range':>26}  verdict"
    ]
    for name in BOUNDS:
        entry = _entry(analysis, name, f"analysis: {name}")
        mean = _number(entry.get("mean"), f"analysis: {name}.mean")
        delta = _number(entry.get("delta"), f"analysis: {name}.delta", optional=True)
        bound = BOUNDS[name]
        margin = mean - bound
        ratio = margin / delta if delta else None
        span = spans.get(name)
        if span is not None:
            if not isinstance(span, list) or len(span) != 2:
                raise ConfigError(f"prediction: range.{name}: {span!r} must be [low, high]")
            lo, hi = (_number(edge, f"prediction: range.{name}") for edge in span)
            slack = delta if delta is not None else 0.0
            inside = bool(lo - slack <= mean <= hi + slack)
            span_text = f"[{_cell(lo)}, {_cell(hi)}]"
        else:
            lo = hi = inside = None
            span_text = ""
        if name.startswith("nsit"):
            if delta is None:
                verdict = "no error estimate"
            elif abs(mean) <= delta:
                verdict = "consistent with zero"
            else:
                verdict = "nonzero"
        else:
            verdict = "violates bound" if margin > (delta or 0.0) else "within bound"
        if inside is not None:
            verdict += "; inside qm range" if inside else "; outside qm range"
        rows.append([name, mean, delta, bound, margin, ratio, lo, hi, inside])
        lines.append(
            f"{name:<10} {_cell(mean):>11} {_cell(delta):>8} {_cell(bound):>6} "
            f"{_cell(margin):>11} {_cell(ratio):>13} {span_text:>26}  {verdict}"
        )
    correlations = analysis.get("correlations")
    if correlations:
        if not isinstance(correlations, dict):
            raise ConfigError(f"analysis: correlations: {correlations!r} must be a JSON object")
        lines.append("")
        for key in sorted(correlations):
            field = f"analysis: correlations.{key}"
            corr = _entry(correlations, key, field)
            mean = _number(corr.get("mean"), f"{field}.mean")
            sigma = _number(corr.get("sigma"), f"{field}.sigma", optional=True)
            err = "" if sigma is None else f" ± {_cell(sigma)}"
            lines.append(f"corr {key}  {_cell(mean)}{err}")
    return rows, lines


def cmd_report(args: argparse.Namespace, config: Dict[str, dict]) -> _Outputs:
    """Tabulate measured results against predictions and macrorealist bounds."""
    if args.analysis is not None:
        analysis_payload = _read_json(args.analysis, "analysis")
    else:
        analysis_payload = _read_json(_REFERENCE_RESULTS, "analysis")
    if args.prediction is not None:
        prediction = _read_json(args.prediction, "prediction")
    else:
        prediction = _prediction_payload(config)

    rows, lines = _comparison(prediction, analysis_payload)
    header = [
        "expression",
        "measured_mean",
        "measured_delta",
        "bound",
        "margin",
        "margin_over_delta",
        "qm_low",
        "qm_high",
        "inside_qm_range",
    ]
    return _Outputs(
        {"report.csv": (header, rows), "report.txt": "\n".join(lines) + "\n"},
        lines=lines,
    )


# ---------------------------------------------------------------------------
# Parser and entry point


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser with one subcommand per workbench verb."""
    # Each verb declares only the flags it reads.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--config", metavar="PATH", help="JSON config file (defaults: nominal setup)"
    )
    common.add_argument(
        "--out", metavar="DIR", help="output directory (default: current directory)"
    )
    seeded = argparse.ArgumentParser(add_help=False, parents=[common])
    seeded.add_argument(
        "--seed", type=int, metavar="U64", help="override the command's primary seed"
    )
    # No effect: every verb runs on one thread.  bench/workloads.py passes
    # --threads 2 to analyze and gamma-fit, so both accept it until the
    # benchmark stops passing it.
    threads = argparse.ArgumentParser(add_help=False)
    threads.add_argument(
        "--threads", type=int, metavar="N", help="accepted and ignored; has no effect"
    )

    parser = argparse.ArgumentParser(
        prog="macroreal",
        description="Workbench for the interferometric macrorealism test.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser(
        "predict",
        parents=[common],
        help="quantum-model point values and tolerance-swept ranges",
    )
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser(
        "hv-bound",
        parents=[seeded],
        help="hidden-variable bound certificates vs detector efficiency",
    )
    p.add_argument(
        "--eta", metavar="LIST", help="comma-separated efficiencies (default: 20-point grid)"
    )
    p.add_argument("--inequality", choices=["LGI", "WLGI", "both"], default="both")
    # No effect either: the vertex scan has no starts.  bench/workloads.py
    # passes --starts to hv-bound, so it stays accepted.
    p.add_argument("--starts", type=int, metavar="N", help="accepted and ignored; has no effect")
    p.set_defaults(func=cmd_hv_bound)

    p = sub.add_parser(
        "gamma-fit",
        parents=[seeded, threads],
        help="fit the multiphoton emission parameter to a count table",
    )
    p.add_argument(
        "--counts", metavar="PATH", help="counts CSV (default: bundled reference table)"
    )
    p.set_defaults(func=cmd_gamma_fit)

    p = sub.add_parser(
        "simulate",
        parents=[seeded],
        help="generate a timestamped dataset for the full protocol",
    )
    p.add_argument(
        "--force", action="store_true", help="write into a non-empty output directory"
    )
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser(
        "analyze",
        parents=[seeded, threads],
        help="run the analysis pipeline on a dataset directory or counts CSV",
    )
    p.add_argument("input", metavar="PATH", help="dataset directory or per-run counts CSV")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser(
        "report",
        parents=[common],
        help="side-by-side prediction vs measurement table",
    )
    p.add_argument(
        "--prediction",
        metavar="PATH",
        help="prediction JSON (default: computed from config)",
    )
    p.add_argument(
        "--analysis",
        metavar="PATH",
        help="analysis results JSON (default: bundled reference values)",
    )
    p.set_defaults(func=cmd_report)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns the process exit code.

    The verb only computes its outputs, so a rejected input exits 2 before
    ``--out`` is created.  Then its files are written, with one ``Wrote``
    line each, and ``run_manifest.json`` last, listing every file the run
    wrote.  The manifest records the wall-clock duration, so it is the one
    output excluded from the byte-identical rerun guarantee.
    """
    args = build_parser().parse_args(argv)
    started = time.time()
    try:
        config = load_config(args.config)
        result = args.func(args, config)
    except ValueError as exc:  # ConfigError included
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_INPUT

    outdir = Path(args.out if args.out is not None else ".")
    outdir.mkdir(parents=True, exist_ok=True)
    for line in result.lines:
        print(line)
    for name, content in result.files.items():
        _write_output(outdir / name, content)
        print(f"Wrote {outdir / name}")
    manifest = {
        "command": args.command,
        "config": config,
        "master_seed": result.seed,
        "versions": _versions(),
        "outputs": sorted([*result.written, *result.files]),
        "duration_seconds": time.time() - started,
    }
    _write_output(outdir / "run_manifest.json", manifest)
    if result.failure is not None:
        print(f"error: {result.failure}", file=sys.stderr)
        return _EXIT_NUMERIC
    return _EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
