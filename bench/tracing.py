"""Spans and counters recorded from outside the program.

The tracer wraps macroreal's public functions, and the module-level helpers
they reach by global lookup, on the module that calls them.  Nothing under
``src/`` changes: :func:`instrument` swaps the attributes in and restores
them on exit.  Spans (name, start, end, parent) and counters live in memory
and are written out by the caller when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import threading
import time
import warnings
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional

LAYERS = ("simulate", "analysis", "circuit", "hvmodels", "multiphoton", "cli")

#: Every span the tracer can record: the instrumented functions and CLI verbs.
SPAN_NAMES = (
    "simulate.run_protocol",
    "simulate.generate_sub_run",
    "simulate.to_directory",
    "simulate.load",
    "analysis.count_dataset",
    "analysis.count_sub_run",
    "analysis.histogram",
    "analysis.analyze_dataset",
    "analysis.error_distributions",
    "analysis.per_iteration_values",
    "analysis.bootstrap_sdm",
    "circuit.qm_range",
    "circuit.ideal_maxima",
    "hvmodels.maximize_lgi_detectors",
    "hvmodels.maximize_wlgi_detectors",
    "multiphoton.fit_gamma",
    "cli.predict",
    "cli.hv-bound",
    "cli.gamma-fit",
    "cli.simulate",
    "cli.analyze",
    "cli.report",
)

#: Every counter: work done, bytes moved, waste and probe findings.
COUNT_NAMES = (
    "simulate.events",
    "simulate.bytes_written",
    "simulate.bytes_read",
    "analysis.select_window.calls",
    "analysis.nopeak",
    "analysis.clamped",
    "circuit.qm_range.points",
    "hvmodels.certificates",
    "hvmodels.evals",
    "hvmodels.findings",
    "multiphoton.model_evals",
)


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span and counter store; safe to feed from worker threads."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.values: Dict[str, float] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        stack = self._local.__dict__.setdefault("stack", [])
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(Span(span_id, name, start, end, parent))

    def count(self, name: str, n: float = 1) -> None:
        with self._lock:
            self.counts[name] += n

    def self_times(self) -> Dict[int, float]:
        """Span id -> duration minus the time its direct children cover."""
        child_time: Dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.duration
        return {s.id: s.duration - child_time[s.id] for s in self.spans}

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, busy seconds and self seconds."""
        own = self.self_times()
        table: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "s": 0.0, "self_s": 0.0}
        )
        for s in self.spans:
            row = table[s.name]
            row["calls"] += 1
            row["s"] += s.duration
            row["self_s"] += own[s.id]
        return dict(table)

    def layer_self(self) -> Dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for name, row in self.summary().items():
            out[name.split(".", 1)[0]] += row["self_s"]
        return out

    def top_level_s(self) -> float:
        return sum(s.duration for s in self.spans if s.parent is None)

    def to_dict(self) -> dict:
        return {
            "spans": [
                {"id": s.id, "name": s.name, "start": s.start, "end": s.end, "parent": s.parent}
                for s in self.spans
            ],
            "counts": dict(self.counts),
            "values": dict(self.values),
        }


def _io_counter(field: str) -> Optional[int]:
    """Bytes this process has read or written (``rchar``/``wchar``), if known."""
    try:
        with open("/proc/self/io") as fh:
            for line in fh:
                key, _, value = line.partition(":")
                if key == field:
                    return int(value)
    except OSError:
        return None
    return None


def _spanned(tracer: Tracer, name: str, fn: Callable, after=None) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            result = fn(*args, **kwargs)
        if after is not None:
            after(result, args, kwargs)
        return result

    return wrapper


def _io_spanned(tracer: Tracer, name: str, fn: Callable, field: str, counter: str) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        before = _io_counter(field)
        with tracer.span(name):
            result = fn(*args, **kwargs)
        after = _io_counter(field)
        if before is not None and after is not None:
            tracer.count(counter, after - before)
        return result

    return wrapper


def span_cost_s(n: int = 20_000) -> float:
    """Seconds one span adds to a call, from ``n`` calls of a wrapped no-op.

    Multiplied by the number of spans of a pass, this estimates the tracing
    overhead far below the pass-to-pass noise that the measured difference
    between a traced and an untraced pass carries.
    """

    def noop():
        return None

    wrapped = _spanned(Tracer(), "noop", noop)
    start = time.perf_counter()
    for _ in range(n):
        noop()
    bare = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(n):
        wrapped()
    return max(time.perf_counter() - start - bare, 0.0) / n


def _counted(tracer: Tracer, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.count(name)
        return fn(*args, **kwargs)

    return wrapper


def _patch_plan(tracer: Tracer):
    """(owner, attribute, wrapper) for every instrumented boundary."""
    from macroreal import analysis, circuit, cli, hvmodels, multiphoton, simulate

    def events(result, args, kwargs):
        tracer.count("simulate.events", sum(len(s) for s in result))

    def points(result, args, kwargs):
        tol = args[1] if len(args) > 1 else kwargs["tol"]
        n = tol.grid_points
        tracer.count("circuit.qm_range.points",
                     (n if tol.hwp_angle_deg > 0 else 1)
                     * (n if tol.t_delta > 0 else 1) ** 4
                     * (n if tol.v_range is not None else 1))

    def certificate(result, args, kwargs):
        tracer.count("hvmodels.certificates")
        tracer.count("hvmodels.findings", len(result.findings))
        for finding in result.findings:
            excess = float(finding.value - result.bound)
            best = tracer.values.get("hvmodels.findings_max_excess", 0.0)
            tracer.values["hvmodels.findings_max_excess"] = max(best, excess)

    def fit(result, args, kwargs):
        tracer.values["multiphoton.chi2"] = float(result.chi2)

    def count_sub_run(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                with tracer.span("analysis.count_sub_run"):
                    return fn(*args, **kwargs)
            except analysis.NoPeakError:
                tracer.count("analysis.nopeak")
                raise

        return wrapper

    def load_dataset(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            dataset = fn(*args, **kwargs)
            dataset.streams = _io_spanned(
                tracer, "simulate.load", dataset.streams, "rchar", "simulate.bytes_read"
            )
            return dataset

        return wrapper

    plan = [
        (simulate, "generate_sub_run",
         _spanned(tracer, "simulate.generate_sub_run", simulate.generate_sub_run, events)),
        (simulate.ExperimentDataset, "to_directory",
         _io_spanned(tracer, "simulate.to_directory", simulate.ExperimentDataset.to_directory,
                     "wchar", "simulate.bytes_written")),
        (cli, "load_dataset", load_dataset(cli.load_dataset)),
        (analysis, "count_sub_run", count_sub_run(analysis.count_sub_run)),
        (analysis, "histogram", _spanned(tracer, "analysis.histogram", analysis.histogram)),
        (analysis, "select_window",
         _counted(tracer, "analysis.select_window.calls", analysis.select_window)),
        (analysis, "error_distributions",
         _spanned(tracer, "analysis.error_distributions", analysis.error_distributions)),
        (cli, "qm_range", _spanned(tracer, "circuit.qm_range", cli.qm_range, points)),
        (circuit, "ideal_maxima", _spanned(tracer, "circuit.ideal_maxima", circuit.ideal_maxima)),
        (hvmodels, "project_feasible",
         _counted(tracer, "hvmodels.evals", hvmodels.project_feasible)),
        (multiphoton, "_predicted_flat",
         _counted(tracer, "multiphoton.model_evals", multiphoton._predicted_flat)),
        (cli, "fit_gamma", _spanned(tracer, "multiphoton.fit_gamma", cli.fit_gamma, fit)),
    ]
    for name in ("maximize_lgi_detectors", "maximize_wlgi_detectors"):
        plan.append(
            (cli, name, _spanned(tracer, f"hvmodels.{name}", getattr(cli, name), certificate))
        )
    # Called both by the benchmark (through the defining module) and by the CLI.
    for module, name in (
        (simulate, "run_protocol"),
        (analysis, "count_dataset"),
        (analysis, "analyze_dataset"),
        (analysis, "per_iteration_values"),
        (analysis, "bootstrap_sdm"),
    ):
        wrapped = _spanned(tracer, f"{module.__name__.rsplit('.', 1)[1]}.{name}",
                           getattr(module, name))
        plan.append((module, name, wrapped))
        if hasattr(cli, name):
            plan.append((cli, name, wrapped))
    return plan


@contextlib.contextmanager
def instrument(tracer: Tracer) -> Iterator[Tracer]:
    """Install the tracer's wrappers for the duration of the block.

    Warnings raised inside the block are recorded rather than shown, so that
    every clamp of a negative corrected count is counted, not only the first
    one per call site.
    """
    plan = _patch_plan(tracer)
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in plan]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            for owner, attr, wrapper in plan:
                setattr(owner, attr, wrapper)
            yield tracer
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)
    tracer.count(
        "analysis.clamped",
        sum(issubclass(w.category, RuntimeWarning) and "clamped" in str(w.message) for w in caught),
    )
