"""The three benchmark workloads and their output checks.

Each workload drives macroreal only through its public entry points: the
library functions, called through their defining module so that the tracer's
wrappers apply, and ``macroreal.cli.main(argv)`` called in-process.  Every
input (configs, datasets, predictions) is generated here from the workload
seed.  See ``NOTES.md`` for why each workload exists.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import numbers
import shutil
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional

from macroreal import analysis, circuit, cli, hvmodels, simulate

# Bootstrap draw sizes and resample count used by ``macroreal analyze``.
SDM_DRAWS = (10, 50, 150, 300)
SDM_RESAMPLES = 10_000


class OpFailed(Exception):
    """An operation failed; the pass it belongs to stops."""


class Ops:
    """Counts operations (timed calls and output checks) and their failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        # Seconds of each timed call, by operation name, for the run record.
        self.seconds: Dict[str, List[float]] = defaultdict(list)

    def _fail(self, name: str, detail: str) -> None:
        self.failed += 1
        self.failures.append(f"{name}: {detail}")
        print(f"FAILED {name}: {detail}", file=sys.stderr)

    def call(self, name: str, fn: Callable, *args, **kwargs):
        self.attempted += 1
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # any exception is a failed operation
            traceback.print_exc(file=sys.stderr)
            self._fail(name, repr(exc))
            raise OpFailed(name) from exc
        finally:
            self.seconds[name].append(time.perf_counter() - start)

    def cli(self, argv: List[str]) -> None:
        """Run one CLI verb in-process; a non-zero exit code is a failure."""
        with contextlib.redirect_stdout(io.StringIO()):
            code = self.call(f"cli {argv[0]}", cli.main, argv)
        if code != 0:
            self._fail(f"cli {argv[0]}", f"exit code {code}")
            raise OpFailed(argv[0])

    def check(self, name: str, ok: bool, detail: str) -> bool:
        self.attempted += 1
        if not ok:
            self._fail(name, detail)
        return ok


def canonical(value):
    """Round floats to six significant digits, as the CLI's JSON outputs do."""
    if isinstance(value, dict):
        return {str(k): canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    if value is None or isinstance(value, bool):
        return value
    if isinstance(value, numbers.Integral):
        return int(value)
    if isinstance(value, numbers.Real):
        return float(f"{float(value):.6g}")
    return value


def _write_config(path: Path, config: dict) -> str:
    path.write_text(json.dumps(config, indent=2, sort_keys=True), encoding="utf-8")
    return str(path)


def _source_and_setup(config: dict, seed: int):
    """SourceConfig, SetupParams, iterations and jitter of a CLI config."""
    fields = {k: v for k, v in config["source"].items() if k not in ("iterations", "v_jitter")}
    fields["seed"] = seed
    setup = config["setup"]
    params = circuit.SetupParams(
        alpha_sq=setup["alpha_sq"],
        t_ratios=tuple(setup["t_ratios"]),
        visibility=setup["visibility"],
    )
    jitter = config["source"]["v_jitter"]
    return (
        simulate.SourceConfig(**fields),
        params,
        dict(config["source"]["iterations"]),
        None if jitter is None else tuple(jitter),
    )


def _tree_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


class Workload:
    """One workload: set-up, a timed pass, and checks made outside the pass."""

    name = ""
    sizes: Dict[str, dict] = {}

    def __init__(self, seed: int, size: str, workdir: Path) -> None:
        self.seed = seed
        self.size = self.sizes[size]
        self.workdir = workdir
        # Values measured outside the timed pass, reported with the results.
        self.extras: Dict[str, float] = {}
        self.notes: Dict[str, object] = {}

    def setup(self, ops: Ops) -> None:
        """Generate the inputs; may run several times, each from scratch."""
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        self.prepare(ops)

    def prepare(self, ops: Ops) -> None:
        raise NotImplementedError

    def run_pass(self, ops: Ops, span: Callable) -> object:
        """The timed pass; ``span(name)`` marks a CLI verb for the tracer."""
        raise NotImplementedError

    def after_pass(self, ops: Ops, output: object) -> None:
        """Checks and clean-up of one pass, outside the timed region."""

    def _pass_dir(self) -> Path:
        return Path(tempfile.mkdtemp(prefix="pass-", dir=self.workdir))


class Protocol(Workload):
    """Criterion 8's in-memory path: generate, count, analyze, bootstrap."""

    name = "protocol"
    sizes = {
        # 2:1 interference ratio as in the default protocol; more than 20
        # non-interference iterations keeps the sampled (not exhaustive)
        # four-way error path that the full protocol takes.
        "full": {"interference": 44, "non_interference": 22},
        "smoke": {"interference": 8, "non_interference": 4},
    }

    def prepare(self, ops: Ops) -> None:
        config = cli.default_config()
        config["source"]["iterations"] = dict(self.size)
        self.source, self.params, self.iterations, self.v_jitter = _source_and_setup(
            config, self.seed
        )
        self.n_samples = int(config["analysis"]["n_samples"])

    def run_pass(self, ops: Ops, span: Callable):
        dataset = ops.call(
            "run_protocol", simulate.run_protocol, self.source, self.params,
            iterations=self.iterations, v_jitter=self.v_jitter,
        )
        counts = ops.call("count_dataset", analysis.count_dataset, dataset)
        report = ops.call(
            "analyze_dataset", analysis.analyze_dataset, dataset,
            n_samples=self.n_samples, seed=self.seed, counts=counts,
        )
        ops.call("per_iteration_values", analysis.per_iteration_values, counts)
        samples = counts[(3, 0)][:, 0]
        for draws in SDM_DRAWS:
            if draws <= len(samples):
                ops.call("bootstrap_sdm", analysis.bootstrap_sdm, samples, draws,
                         SDM_RESAMPLES, seed=self.seed)
        return report

    def after_pass(self, ops: Ops, report) -> None:
        lgi, delta = report.lgi
        ops.check("lgi band", 1.28 - delta <= lgi <= 1.40 + delta,
                  f"lgi {lgi:.4f} outside [{1.28 - delta:.4f}, {1.40 + delta:.4f}]")
        for name in ("nsit12", "nsit23", "nsit13"):
            mean, d = getattr(report, name)
            ops.check(name, mean < 0.01 + d, f"{name} {mean:.4f} >= {0.01 + d:.4f}")
        self.notes["lgi"] = [lgi, delta]


class DatasetIO(Workload):
    """CLI simulate -> analyze -> report through a dataset on disk."""

    name = "dataset-io"
    sizes = {
        "full": {"interference": 6, "non_interference": 3, "grid_points": 11},
        "smoke": {"interference": 4, "non_interference": 2, "grid_points": 5},
    }

    def prepare(self, ops: Ops) -> None:
        config = cli.default_config()
        config["source"]["iterations"] = {
            "interference": self.size["interference"],
            "non_interference": self.size["non_interference"],
        }
        config["analysis"]["seed"] = self.seed
        # The report reads a prediction made here once; a coarse tolerance
        # grid keeps the swept band from swamping the I/O being measured.
        config["setup"]["grid_points"] = self.size["grid_points"]
        self.config = config
        self.config_path = _write_config(self.workdir / "config.json", config)
        self.prediction = self.workdir / "prediction"
        ops.cli(["predict", "--config", self.config_path, "--out", str(self.prediction)])
        self.expected: Optional[dict] = None

    def run_pass(self, ops: Ops, span: Callable) -> Path:
        out = self._pass_dir()
        with span("cli.simulate"):
            ops.cli(["simulate", "--config", self.config_path, "--seed", str(self.seed),
                     "--out", str(out / "dataset")])
        with span("cli.analyze"):
            ops.cli(["analyze", str(out / "dataset"), "--config", self.config_path,
                     "--threads", "2", "--out", str(out / "analysis")])
        with span("cli.report"):
            ops.cli(["report", "--config", self.config_path,
                     "--analysis", str(out / "analysis" / "results.json"),
                     "--prediction", str(self.prediction / "prediction.json"),
                     "--out", str(out / "report")])
        return out

    def _in_memory(self, ops: Ops) -> dict:
        source, params, iterations, v_jitter = _source_and_setup(self.config, self.seed)
        dataset = simulate.run_protocol(source, params, iterations=iterations, v_jitter=v_jitter)
        section = self.config["analysis"]
        report = ops.call(
            "analyze_dataset in memory", analysis.analyze_dataset, dataset,
            bin_width=section["bin_width"], n_samples=section["n_samples"],
            seed=section["seed"],
        )
        return json.loads(json.dumps(canonical(report.to_dict())))

    def after_pass(self, ops: Ops, out: Path) -> None:
        try:
            self.extras["simulate.dataset_mb"] = _tree_bytes(out / "dataset") / 1e6
            results = json.loads((out / "analysis" / "results.json").read_text())
            if self.expected is None:
                self.expected = self._in_memory(ops)
            ops.check("results.json equals in-memory analysis", results == self.expected,
                      "results.json differs from analyze_dataset in memory")
            rows = (out / "report" / "report.csv").read_text().splitlines()
            ops.check("report rows", len(rows) == 6, f"report.csv has {len(rows)} lines")
        finally:
            shutil.rmtree(out, ignore_errors=True)


def _lgi_crossing() -> float:
    # Root of 2/eta - eta = 3/2, the quantum maximum of the correlator form.
    return (-1.5 + math.sqrt(1.5**2 + 8.0)) / 2.0


def _wlgi_crossing() -> float:
    # Root of (1 - eta)/(2 eta - 1) = 0.4034, the probability-form maximum.
    return (1.0 + 0.4034) / (1.0 + 2.0 * 0.4034)


class Certify(Workload):
    """Model-side work before data: predict, HV bounds, gamma fit, maxima."""

    name = "certify"
    sizes = {
        # One efficiency on each side of 2/3, where the bound formula changes.
        "full": {"grid_points": 15, "eta": "0.5,0.8", "starts": 0, "fit_starts": 50},
        "smoke": {"grid_points": 5, "eta": "0.5", "starts": 0, "fit_starts": 4},
    }

    def prepare(self, ops: Ops) -> None:
        config = cli.default_config()
        config["setup"]["grid_points"] = self.size["grid_points"]
        config["fit"]["n_starts"] = self.size["fit_starts"]
        self.config = config
        self.config_path = _write_config(self.workdir / "config.json", config)

    def run_pass(self, ops: Ops, span: Callable) -> Path:
        out = self._pass_dir()
        with span("cli.predict"):
            ops.cli(["predict", "--config", self.config_path, "--out", str(out / "predict")])
        with span("cli.hv-bound"):
            ops.cli(["hv-bound", "--config", self.config_path, "--eta", self.size["eta"],
                     "--inequality", "both", "--starts", str(self.size["starts"]),
                     "--seed", str(self.seed), "--out", str(out / "hv")])
        with span("cli.gamma-fit"):
            ops.cli(["gamma-fit", "--config", self.config_path, "--threads", "2",
                     "--seed", str(self.seed), "--out", str(out / "fit")])
        self.maxima = ops.call("ideal_maxima", circuit.ideal_maxima)
        return out

    def after_pass(self, ops: Ops, out: Path) -> None:
        try:
            self._check(ops, out)
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def _check(self, ops: Ops, out: Path) -> None:
        hv = json.loads((out / "hv" / "hv_bounds.json").read_text())
        formulas = {
            "lgi": hvmodels.lgi_detectors_bound_formula,
            "wlgi": hvmodels.wlgi_detectors_bound_formula,
        }
        findings = []
        for cert in hv["certificates"]:
            eta = cert["eta"]
            for kind, formula in formulas.items():
                bound = cert[kind]["bound"]
                ops.check(f"{kind} bound at eta {eta}", abs(bound - formula(eta)) <= 1e-4,
                          f"{bound} vs formula {formula(eta)}")
                findings.append([eta, kind, cert[kind]["probe_findings"]])
        crossings = {"lgi": _lgi_crossing(), "wlgi": _wlgi_crossing()}
        for kind, want in crossings.items():
            got = hv["critical_efficiency"][kind]
            ops.check(f"{kind} critical efficiency", abs(got - want) <= 1e-4,
                      f"{got} vs crossing {want:.6f}")

        fit = json.loads((out / "fit" / "gamma_fit.json").read_text())
        gamma = fit["params"]["gamma"]
        ops.check("gamma range", 0.0018 <= gamma <= 0.0028, f"gamma {gamma} outside [0.0018, 0.0028]")
        ops.check("gamma fit converged", fit["converged"] is True, "fit did not converge")

        prediction = json.loads((out / "predict" / "prediction.json").read_text())
        params = _source_and_setup(self.config, self.seed)[1]
        for name, fn in (("lgi", circuit.qm_lgi), ("wlgi", circuit.qm_wlgi)):
            got, want = prediction["point"][name], fn(params)
            ops.check(f"predicted {name}", abs(got - want) <= 1e-5 * max(1.0, abs(want)),
                      f"{got} vs {want}")

        ops.check("ideal lgi maximum", abs(self.maxima["lgi_max"] - 1.5) <= 5e-4,
                  f"{self.maxima['lgi_max']}")
        ops.check("ideal wlgi maximum", abs(self.maxima["wlgi_max"] - 0.4034) <= 5e-4,
                  f"{self.maxima['wlgi_max']}")
        # Reported, not gated: the fit's chi2 and the HV probe's findings.
        self.notes.update(chi2=fit["chi2"], gamma=gamma, probe_findings=findings)


WORKLOADS = {cls.name: cls for cls in (Protocol, DatasetIO, Certify)}
