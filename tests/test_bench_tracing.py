"""The benchmark's tracer still finds every function it wraps.

``python3 -m pytest`` collects ``tests/`` only, so without this a change to
``macroreal.cli`` could break the benchmark's traced pass unnoticed.
"""

import importlib.util
import sys
from pathlib import Path

from macroreal import analysis, cli
from macroreal.circuit import NOMINAL_PARAMS
from macroreal.simulate import SourceConfig, run_protocol

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    # dataclasses resolves the module's annotations through sys.modules.
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_attribute_is_defined_on_its_owner(monkeypatch):
    tracing = load_tracing(monkeypatch)
    plan = tracing._patch_plan(tracing.Tracer())
    assert [(owner, attr) for owner, attr, _ in plan if attr not in vars(owner)] == []
    # The CLI verbs call these through macroreal.cli's globals, where the
    # tracer wraps them.
    assert {attr for owner, attr, _ in plan if owner is cli} >= {
        "load_dataset",
        "qm_range",
        "fit_gamma",
        "maximize_lgi_detectors",
        "maximize_wlgi_detectors",
        "run_protocol",
        "count_dataset",
        "analyze_dataset",
        "per_iteration_values",
        "bootstrap_sdm",
    }


def test_counting_a_dataset_selects_one_window_per_detector(monkeypatch):
    tracing = load_tracing(monkeypatch)
    dataset = run_protocol(
        SourceConfig(pair_rate=2e4, seed=23, jitter_sigma=400.0),
        NOMINAL_PARAMS,
        iterations={"interference": 2, "non_interference": 2},
    )
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        analysis.count_dataset(dataset)
    assert tracer.counts["analysis.select_window.calls"] == 2


def test_hv_bound_certificates_are_traced(monkeypatch, tmp_path):
    # hv-bound must certify through the maximizers the tracer wraps, or the
    # benchmark reads no certificates and no findings.
    tracing = load_tracing(monkeypatch)
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        assert cli.main(["hv-bound", "--eta", "0.5,0.8", "--out", str(tmp_path)]) == 0
    assert tracer.counts["hvmodels.certificates"] == 4
    assert tracer.counts["hvmodels.findings"] == 3
