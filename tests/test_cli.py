"""End-to-end tests for the command-line workbench."""

import argparse
import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import macroreal
from macroreal import cli
from macroreal.analysis import representative_counts_path
from macroreal.circuit import NOMINAL_PARAMS, Tolerances, qm_range
from macroreal.cli import ConfigError, build_parser, default_config, load_config, main
from macroreal.hvmodels import (
    blocker_setup_bound,
    lgi_detectors_bound_formula,
    maximize_lgi_detectors,
    maximize_wlgi_detectors,
    wlgi_detectors_bound_formula,
)

FAST_SOURCE = {
    "pair_rate": 20000.0,
    "iterations": {"interference": 3, "non_interference": 2},
}


def write_config(tmp_path, **sections):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(sections), encoding="utf-8")
    return str(path)


def read_json(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------------------
# config


def test_default_config_sections():
    config = default_config()
    assert set(config) == {"source", "setup", "analysis", "fit"}
    assert config["setup"]["t_ratios"] == [0.80, 0.79, 0.82, 0.82]
    assert config["source"]["iterations"] == {"interference": 300, "non_interference": 150}


def test_load_config_merges_over_defaults(tmp_path):
    path = write_config(tmp_path, setup={"visibility": 0.9})
    config = load_config(path)
    assert config["setup"]["visibility"] == 0.9
    assert config["setup"]["alpha_sq"] == 0.5


def test_load_config_unknown_field_names_path(tmp_path):
    path = write_config(tmp_path, setup={"alpha_sqq": 1})
    with pytest.raises(ConfigError, match=r"setup\.alpha_sqq"):
        load_config(path)


def test_load_config_unknown_section(tmp_path):
    path = write_config(tmp_path, nonsense={})
    with pytest.raises(ConfigError, match="nonsense"):
        load_config(path)


def test_malformed_config_exits_2_without_outputs(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("not json", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["predict", "--config", str(bad), "--out", str(out)]) == 2
    assert not (out / "prediction.json").exists()


def test_parser_has_all_verbs():
    parser = build_parser()
    text = parser.format_help()
    for verb in ("predict", "hv-bound", "gamma-fit", "simulate", "analyze", "report"):
        assert verb in text


# ---------------------------------------------------------------------------
# predict


def test_predict_ideal_point_values(tmp_path):
    cfg = write_config(
        tmp_path,
        setup={"t_ratios": [0.75, 0.75, 0.75, 0.75], "v_range": None, "grid_points": 3},
    )
    out = tmp_path / "out"
    assert main(["predict", "--config", cfg, "--out", str(out)]) == 0
    payload = read_json(out / "prediction.json")
    assert payload["point"]["lgi"] == pytest.approx(1.5, abs=1e-6)
    assert payload["point"]["wlgi"] == pytest.approx(0.125, abs=1e-6)


def test_predict_matches_qm_range(tmp_path):
    cfg = write_config(tmp_path, setup={"grid_points": 5})
    out = tmp_path / "out"
    assert main(["predict", "--config", cfg, "--out", str(out)]) == 0
    payload = read_json(out / "prediction.json")
    expected = qm_range(NOMINAL_PARAMS, Tolerances(v_range=(0.7, 0.85), grid_points=5))
    for name in ("lgi", "wlgi", "nsit23"):
        got = payload["range"][name]
        assert got[0] == pytest.approx(expected[name][0], rel=1e-4, abs=1e-6)
        assert got[1] == pytest.approx(expected[name][1], rel=1e-4, abs=1e-6)
    assert payload["visibility_range"] == [0.7, 0.85]


def test_predict_reruns_byte_identical(tmp_path):
    cfg = write_config(tmp_path, setup={"grid_points": 3})
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["predict", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["predict", "--config", cfg, "--out", str(out2)]) == 0
    assert (out1 / "prediction.json").read_bytes() == (out2 / "prediction.json").read_bytes()


def test_predict_writes_run_manifest_listing_outputs(tmp_path):
    cfg = write_config(tmp_path, setup={"grid_points": 3})
    out = tmp_path / "out"
    assert main(["predict", "--config", cfg, "--out", str(out)]) == 0
    manifest = read_json(out / "run_manifest.json")
    assert manifest["command"] == "predict"
    assert manifest["outputs"] == ["prediction.json"]
    assert "macroreal" in manifest["versions"]
    assert manifest["duration_seconds"] >= 0.0


# ---------------------------------------------------------------------------
# hv-bound


def test_hv_bound_certificate_matches_formula(tmp_path):
    out = tmp_path / "out"
    ret = main(["hv-bound", "--eta", "0.9", "--starts", "2", "--out", str(out)])
    assert ret == 0
    payload = read_json(out / "hv_bounds.json")
    cert = payload["certificates"][0]
    assert cert["lgi"]["bound"] == pytest.approx(lgi_detectors_bound_formula(0.9), abs=1e-4)
    assert cert["wlgi"]["bound"] == pytest.approx(wlgi_detectors_bound_formula(0.9), abs=1e-4)
    assert payload["critical_efficiency"]["lgi"] == pytest.approx(0.8508, abs=1e-3)
    rows = read_csv(out / "bound_vs_eta.csv")
    assert len(rows) == 1
    assert float(rows[0]["lgi_detectors_bound"]) == pytest.approx(2 / 0.9 - 0.9, abs=1e-4)
    assert float(rows[0]["lgi_blocker_bound"]) == 1.0
    assert float(rows[0]["wlgi_blocker_bound"]) == 0.0


def test_hv_bound_low_efficiency_rows(tmp_path):
    out = tmp_path / "out"
    ret = main(
        ["hv-bound", "--eta", "0.5,0.6", "--inequality", "LGI", "--starts", "2", "--out", str(out)]
    )
    assert ret == 0
    rows = read_csv(out / "bound_vs_eta.csv")
    for row in rows:
        # CSV cells are canonically formatted at six significant digits.
        assert float(row["lgi_detectors_bound"]) == pytest.approx(8 / 3, abs=1e-5)
        assert float(row["wlgi_detectors_bound"]) == 1.0


def test_hv_bound_keeps_eta_order_and_repeats(tmp_path):
    out = tmp_path / "out"
    assert main(["hv-bound", "--eta", "0.8,0.5,0.8", "--starts", "0", "--out", str(out)]) == 0
    certificates = read_json(out / "hv_bounds.json")["certificates"]
    assert [cert["eta"] for cert in certificates] == [0.8, 0.5, 0.8]
    assert certificates[0] == certificates[2]
    assert certificates[1]["lgi"]["bound"] == pytest.approx(8 / 3, abs=1e-5)
    assert [row["eta"] for row in read_csv(out / "bound_vs_eta.csv")] == ["0.8", "0.5", "0.8"]


def test_hv_bound_reports_one_maximize_call_per_certificate(tmp_path):
    # Each certificate and each CSV row carries what the library gives for
    # its own eta; the blocker columns are computed once per call.
    out = tmp_path / "out"
    assert main(["hv-bound", "--eta", "0.5,0.8", "--out", str(out)]) == 0
    certificates = read_json(out / "hv_bounds.json")["certificates"]
    rows = read_csv(out / "bound_vs_eta.csv")
    assert [cert["eta"] for cert in certificates] == [0.5, 0.8]
    n_findings = 0
    for entry, row in zip(certificates, rows):
        eta = entry["eta"]
        for name, maximize in (("lgi", maximize_lgi_detectors), ("wlgi", maximize_wlgi_detectors)):
            cert = maximize(eta)
            got = entry[name]
            # JSON floats are written at six significant digits.
            assert got["bound"] == pytest.approx(cert.bound, rel=1e-5)
            assert got["formula_value"] == pytest.approx(cert.formula_value, rel=1e-5)
            idx = np.nonzero(cert.witness.values)[0]
            assert [i for i, _ in got["witness_support"]] == idx.tolist()
            assert [w for _, w in got["witness_support"]] == pytest.approx(
                cert.witness.values[idx].tolist(), rel=1e-5
            )
            assert got["probe_findings"] == len(cert.findings)
            n_findings += len(cert.findings)
            blocker = blocker_setup_bound(name.upper(), eta).bound
            assert float(row[f"{name}_blocker_bound"]) == pytest.approx(blocker, abs=1e-6)
    assert n_findings == 3


def test_hv_bound_outputs_ignore_starts_and_seed(tmp_path):
    # The vertex scan is deterministic: the seed only reaches the manifest.
    outputs = []
    for k, extra in enumerate(([], ["--starts", "5", "--seed", "9"], ["--starts", "-3"])):
        out = tmp_path / str(k)
        assert main(["hv-bound", "--eta", "0.8", *extra, "--out", str(out)]) == 0
        outputs.append([(out / f).read_bytes() for f in ("hv_bounds.json", "bound_vs_eta.csv")])
    assert outputs[0] == outputs[1] == outputs[2]
    assert read_json(tmp_path / "1" / "run_manifest.json")["master_seed"] == 9


def test_hv_bound_invalid_eta_exits_2(tmp_path):
    assert main(["hv-bound", "--eta", "0.0,0.5", "--out", str(tmp_path / "x")]) == 2
    assert main(["hv-bound", "--eta", "1.5", "--out", str(tmp_path / "y")]) == 2


# ---------------------------------------------------------------------------
# gamma-fit


def test_gamma_fit_bundled_counts(tmp_path):
    cfg = write_config(tmp_path, fit={"n_starts": 3})
    out = tmp_path / "out"
    assert main(["gamma-fit", "--config", cfg, "--out", str(out)]) == 0
    payload = read_json(out / "gamma_fit.json")
    assert payload["converged"] is True
    assert 0.0018 <= payload["params"]["gamma"] <= 0.0028
    assert payload["counts"] == "bundled"
    assert payload["lgi_bound"] > 1.0
    assert payload["wlgi_bound"] > 0.0


def test_gamma_fit_that_does_not_converge_exits_3_after_writing(tmp_path, capsys, monkeypatch):
    fitted = cli.fit_gamma
    monkeypatch.setattr(
        cli, "fit_gamma", lambda *args, **kwargs: fitted(*args, **kwargs)._replace(converged=False)
    )
    cfg = write_config(tmp_path, fit={"n_starts": 1})
    out = tmp_path / "out"
    assert main(["gamma-fit", "--config", cfg, "--out", str(out)]) == 3
    assert read_json(out / "gamma_fit.json")["converged"] is False
    assert read_json(out / "run_manifest.json")["outputs"] == ["gamma_fit.json"]
    assert "error: fit did not converge" in capsys.readouterr().err


def test_gamma_fit_missing_column_exits_2(tmp_path):
    bad = tmp_path / "counts.csv"
    bad.write_text("set_label,C1,C2\nA,1,2\n", encoding="utf-8")
    assert main(["gamma-fit", "--counts", str(bad), "--out", str(tmp_path / "out")]) == 2


@pytest.mark.parametrize(
    "row, message",
    [
        ("++,1\n", "row 2: missing C2, C12"),
        ("++,1,2,lots\n", "row 2: C12 'lots' is not a number"),
        ("++,1e160,1,0\n+-,1,1,1\n-+,1,1,1\n--,1,1,1\n", "count C1 of set ++ is 1e+160, above"),
    ],
    ids=["short row", "non-numeric count", "count beyond the fit's limit"],
)
# A count too large for the solver must be refused before SciPy overflows on it.
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_gamma_fit_counts_with_a_bad_row_exits_2_naming_it(tmp_path, capsys, row, message):
    bad = tmp_path / "counts.csv"
    bad.write_text("set_label,C1,C2,C12\n" + row, encoding="utf-8")
    out = tmp_path / "out"
    assert main(["gamma-fit", "--counts", str(bad), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["predict", "--config", "{tmp}/bad.json"], "config"),
        (["predict", "--config", "{tmp}/grid-float.json"], "setup: grid_points"),
        (["predict", "--config", "{tmp}/grid-bool.json"], "setup: grid_points"),
        (["predict", "--config", "{tmp}/grid-one.json"], "grid_points 1"),
        (["predict", "--config", "{tmp}/t_delta-nan.json"], "t_delta must be finite"),
        (["predict", "--config", "{tmp}/hwp_angle_deg-inf.json"], "hwp_angle_deg must be finite"),
        (["hv-bound", "--eta", "0.0"], "eta"),
        (["hv-bound", "--eta", "0.5", "--seed", "-1"], "seed"),
        (["gamma-fit", "--config", "{tmp}/negative.json"], "fit.n_starts"),
        (["gamma-fit", "--config", "{tmp}/fractional.json"], "fit.n_starts"),
        (["gamma-fit", "--config", "{tmp}/text.json"], "fit.n_starts"),
        (["gamma-fit", "--counts", "{tmp}/counts.csv"], "counts"),
        (["gamma-fit", "--config", "{tmp}/seed.json"], "seed"),
        (["gamma-fit", "--config", "{tmp}/seed-float.json"], "fit.seed"),
        (["gamma-fit", "--config", "{tmp}/seed-bool.json"], "fit.seed"),
        (["simulate", "--config", "{tmp}/iterations-float.json"], "source.iterations"),
        (["simulate", "--config", "{tmp}/iterations-string.json"], "source.iterations"),
        (["simulate", "--config", "{tmp}/iterations-bool.json"], "source.iterations"),
        (["simulate", "--config", "{tmp}/base_delay-nan.json"], "base_delay must be finite"),
        (["simulate", "--config", "{tmp}/duration-inf.json"], "duration must be finite"),
        (["simulate", "--config", "{tmp}/duration-1e8.json"], "source: duration must be shorter"),
        (["simulate", "--config", "{tmp}/base_delay-1e19.json"], "source: base_delay + arm"),
        (["simulate", "--config", "{tmp}/source-seed-bool.json"], "source: seed must be"),
        (["simulate", "--config", "{tmp}/source-seed-float.json"], "source: seed must be"),
        (["analyze", "{tmp}/missing"], "input"),
        (["analyze", "{tmp}/empty"], "input"),
        (["analyze", "{counts}", "--config", "{tmp}/bin_width-float.json"], "analysis.bin_width"),
        (["analyze", "{counts}", "--config", "{tmp}/bin_width-bool.json"], "analysis.bin_width"),
        (["analyze", "{counts}", "--config", "{tmp}/seed-float-analysis.json"], "analysis.seed"),
        (["analyze", "{counts}", "--config", "{tmp}/seed-string-analysis.json"], "analysis.seed"),
        (["analyze", "{counts}", "--config", "{tmp}/window-float.json"], "analysis.window"),
        (["analyze", "{counts}", "--config", "{tmp}/window-three.json"], "analysis.window"),
        (["report", "--analysis", "{tmp}/missing.json"], "analysis: {tmp}/missing.json does not exist"),
        (["report", "--analysis", "{tmp}/empty"], "analysis: {tmp}/empty is not a file"),
        (["report", "--prediction", "{tmp}/empty"], "prediction: {tmp}/empty is not a file"),
        (["report", "--prediction", "{tmp}/range-short.json"], "prediction: range.lgi"),
        (["report", "--prediction", "{tmp}/range-number.json"], "prediction: range.lgi"),
        (["report", "--prediction", "{tmp}/range-list.json"], "prediction: range: [1, 2]"),
        (["report", "--prediction", "{tmp}/range-text.json"], "prediction: range.lgi"),
        (
            ["report", "--prediction", "{tmp}/range-none.json", "--analysis", "{tmp}/lgi-number.json"],
            "analysis: lgi: 5",
        ),
        (
            ["report", "--prediction", "{tmp}/range-none.json", "--analysis", "{tmp}/lgi-text.json"],
            "analysis: lgi.mean",
        ),
        (
            ["report", "--prediction", "{tmp}/range-none.json", "--analysis", "{tmp}/no-wlgi.json"],
            "analysis: wlgi: missing",
        ),
        (
            ["report", "--prediction", "{tmp}/range-none.json", "--analysis", "{tmp}/corr.json"],
            "analysis: correlations.t1t2",
        ),
    ],
    ids=lambda value: " ".join(value) if isinstance(value, list) else None,
)
def test_rejected_invocation_leaves_no_output_directory(tmp_path, capsys, argv, message):
    (tmp_path / "bad.json").write_text("not json", encoding="utf-8")
    fits = {
        "negative": {"n_starts": -2},
        "fractional": {"n_starts": 2.5},
        "text": {"n_starts": "3"},
        "seed": {"seed": -1},
        "seed-float": {"seed": 2.5},
        "seed-bool": {"seed": True},
    }
    for name, fit in fits.items():
        (tmp_path / f"{name}.json").write_text(json.dumps({"fit": fit}), encoding="utf-8")
    analyses = {
        "bin_width-float": {"bin_width": 100.7},
        "bin_width-bool": {"bin_width": True},
        "seed-float-analysis": {"seed": 2.5},
        "seed-string-analysis": {"seed": "7"},
        "window-float": {"window": [50000.9, 150000.9]},
        "window-three": {"window": [50000, 150000, 250000]},
    }
    for name, analysis in analyses.items():
        (tmp_path / f"{name}.json").write_text(json.dumps({"analysis": analysis}), encoding="utf-8")
    for name, count in {"float": 2.5, "string": "2", "bool": True}.items():
        source = {**FAST_SOURCE, "iterations": {"interference": 2, "non_interference": count}}
        (tmp_path / f"iterations-{name}.json").write_text(
            json.dumps({"source": source}), encoding="utf-8"
        )
    for name, grid_points in {"float": 2.5, "bool": True, "one": 1}.items():
        setup = {"grid_points": grid_points}
        (tmp_path / f"grid-{name}.json").write_text(json.dumps({"setup": setup}), encoding="utf-8")
    # json writes and reads the bare NaN and Infinity tokens.
    non_finite = {
        "t_delta-nan": {"setup": {"t_delta": float("nan")}},
        "hwp_angle_deg-inf": {"setup": {"hwp_angle_deg": float("inf")}},
        "base_delay-nan": {"source": {**FAST_SOURCE, "base_delay": float("nan")}},
        "duration-inf": {"source": {**FAST_SOURCE, "duration": float("inf")}},
        # Finite, but click times would leave int64.
        "duration-1e8": {"source": {**FAST_SOURCE, "pair_rate": 1e-6, "duration": 1e8}},
        "base_delay-1e19": {"source": {**FAST_SOURCE, "base_delay": 1e19}},
        "source-seed-bool": {"source": {**FAST_SOURCE, "seed": True}},
        "source-seed-float": {"source": {**FAST_SOURCE, "seed": 2.0}},
    }
    for name, config in non_finite.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(config), encoding="utf-8")
    entry = {"mean": 1.0, "delta": 0.1}
    reports = {
        "range-short": {"range": {"lgi": [1.0]}},
        "range-number": {"range": {"lgi": 5}},
        "range-list": {"range": [1, 2]},
        "range-text": {"range": {"lgi": [1.0, "2"]}},
        "range-none": {},
        "lgi-number": {"lgi": 5},
        "lgi-text": {"lgi": {"mean": "1.3"}},
        "no-wlgi": {"lgi": entry},
        "corr": {
            **{name: entry for name in ("lgi", "wlgi", "nsit12", "nsit23", "nsit13")},
            "correlations": {"t1t2": 0.5},
        },
    }
    for name, payload in reports.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(payload), encoding="utf-8")
    (tmp_path / "counts.csv").write_text("set_label,C1,C2\nA,1,2\n", encoding="utf-8")
    (tmp_path / "empty").mkdir()
    out = tmp_path / "out"
    counts = str(representative_counts_path())
    args = [arg.replace("{tmp}", str(tmp_path)).replace("{counts}", counts) for arg in argv]
    assert main([*args, "--out", str(out)]) == 2
    assert message.replace("{tmp}", str(tmp_path)) in capsys.readouterr().err
    assert not out.exists()


def test_each_verb_accepts_only_the_flags_it_reads():
    parser = build_parser()
    (verbs,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    accepted = {
        verb: {flag for action in sub._actions for flag in action.option_strings} - {"-h", "--help"}
        for verb, sub in verbs.choices.items()
    }
    # --threads and hv-bound's --starts have no effect; analyze, gamma-fit
    # and hv-bound keep them because the benchmark's workloads still pass them.
    assert accepted == {
        "predict": {"--config", "--out"},
        "hv-bound": {"--config", "--out", "--seed", "--eta", "--inequality", "--starts"},
        "gamma-fit": {"--config", "--out", "--seed", "--counts", "--threads"},
        "simulate": {"--config", "--out", "--seed", "--force"},
        "analyze": {"--config", "--out", "--seed", "--threads"},
        "report": {"--config", "--out", "--prediction", "--analysis"},
    }


# ---------------------------------------------------------------------------
# simulate


def test_simulate_writes_nine_sub_run_directories(tmp_path):
    cfg = write_config(tmp_path, source=FAST_SOURCE)
    out = tmp_path / "ds"
    assert main(["simulate", "--config", cfg, "--seed", "5", "--out", str(out)]) == 0
    sub_dirs = sorted(p.name for p in out.iterdir() if p.is_dir())
    assert len(sub_dirs) == 9
    assert (out / "manifest.json").exists()
    assert (out / "run_manifest.json").exists()


def test_simulate_fixed_seed_is_byte_identical(tmp_path):
    cfg = write_config(tmp_path, source=FAST_SOURCE)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", cfg, "--seed", "7", "--out", str(out1)]) == 0
    assert main(["simulate", "--config", cfg, "--seed", "7", "--out", str(out2)]) == 0
    files1 = sorted(
        p.relative_to(out1) for p in out1.rglob("*") if p.is_file() and p.name != "run_manifest.json"
    )
    files2 = sorted(
        p.relative_to(out2) for p in out2.rglob("*") if p.is_file() and p.name != "run_manifest.json"
    )
    assert files1 == files2
    for rel in files1:
        assert (out1 / rel).read_bytes() == (out2 / rel).read_bytes(), rel


def test_simulate_refuses_nonempty_outdir_unless_forced(tmp_path):
    cfg = write_config(tmp_path, source=FAST_SOURCE)
    out = tmp_path / "ds"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
    assert main(["simulate", "--config", cfg, "--out", str(out), "--force"]) == 0


def test_simulate_requires_out():
    assert main(["simulate"]) == 2


def test_simulate_force_lists_only_the_files_it_wrote(tmp_path):
    out = tmp_path / "ds"
    big = write_config(tmp_path, source=FAST_SOURCE)
    assert main(["simulate", "--config", big, "--out", str(out)]) == 0
    small = tmp_path / "small.json"
    small.write_text(
        json.dumps({"source": {**FAST_SOURCE, "iterations": {"interference": 1, "non_interference": 1}}}),
        encoding="utf-8",
    )
    (out / "notes.txt").write_text("not part of the dataset", encoding="utf-8")
    assert main(["simulate", "--config", str(small), "--out", str(out), "--force"]) == 0
    dataset = read_json(out / "manifest.json")
    outputs = read_json(out / "run_manifest.json")["outputs"]
    assert len(dataset["files"]) == 9
    assert outputs == sorted(["manifest.json"] + [entry["path"] for entry in dataset["files"]])
    assert not (out / "run2_sub0" / "iter0002.npz").exists()  # stale archive of the first run
    assert sorted(p.relative_to(out).as_posix() for p in out.glob("run*/*.npz")) == sorted(
        entry["path"] for entry in dataset["files"]
    )
    assert (out / "notes.txt").read_text(encoding="utf-8") == "not part of the dataset"


# ---------------------------------------------------------------------------
# analyze


def test_analyze_dataset_directory(tmp_path):
    cfg = write_config(tmp_path, source=FAST_SOURCE, analysis={"n_samples": 20000})
    ds = tmp_path / "ds"
    assert main(["simulate", "--config", cfg, "--seed", "3", "--out", str(ds)]) == 0
    out = tmp_path / "out"
    assert main(["analyze", str(ds), "--config", cfg, "--out", str(out)]) == 0
    results = read_json(out / "results.json")
    assert results["lgi"]["delta"] is not None
    assert 0.0 < results["lgi"]["mean"] < 3.0
    rows = read_csv(out / "per_iteration.csv")
    assert {"iteration", "c23", "c13", "c12", "p3", "lgi", "wlgi"} <= set(rows[0])
    assert len(rows) == 3  # longest run has three iterations
    manifest = read_json(out / "run_manifest.json")
    assert "results.json" in manifest["outputs"]
    assert "per_iteration.csv" in manifest["outputs"]


def test_analyze_reruns_byte_identical(tmp_path):
    cfg = write_config(tmp_path, source=FAST_SOURCE, analysis={"n_samples": 20000})
    ds = tmp_path / "ds"
    assert main(["simulate", "--config", cfg, "--seed", "3", "--out", str(ds)]) == 0
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["analyze", str(ds), "--config", cfg, "--out", str(out1)]) == 0
    assert main(["analyze", str(ds), "--config", cfg, "--out", str(out2)]) == 0
    assert (out1 / "results.json").read_bytes() == (out2 / "results.json").read_bytes()
    assert (out1 / "per_iteration.csv").read_bytes() == (out2 / "per_iteration.csv").read_bytes()


def test_analyze_bundled_counts_fixture(tmp_path):
    out = tmp_path / "out"
    ret = main(["analyze", str(representative_counts_path()), "--out", str(out)])
    assert ret == 0
    results = read_json(out / "results.json")
    assert results["lgi"]["mean"] == pytest.approx(1.32, abs=0.005)
    assert results["wlgi"]["mean"] == pytest.approx(0.09, abs=0.005)
    assert results["lgi"]["delta"] is None
    assert not (out / "per_iteration.csv").exists()


@pytest.mark.parametrize("n_samples", [1, 0, -5, 2.5, True, "1000"])
def test_analyze_rejects_n_samples_below_two(tmp_path, capsys, n_samples):
    cfg = write_config(tmp_path, analysis={"n_samples": n_samples})
    out = tmp_path / "out"
    argv = ["analyze", str(representative_counts_path()), "--config", cfg, "--out", str(out)]
    assert main(argv) == 2
    assert "analysis.n_samples" in capsys.readouterr().err
    assert not out.exists()


def test_analyze_damaged_dataset_exits_2_naming_the_file(tmp_path, capsys):
    cfg = write_config(tmp_path, source=FAST_SOURCE, analysis={"n_samples": 20000})
    ds = tmp_path / "ds"
    assert main(["simulate", "--config", cfg, "--seed", "3", "--out", str(ds)]) == 0
    damaged = ds / "run3_sub1" / "iter0001.npz"
    damaged.write_bytes(damaged.read_bytes()[:-100])
    out = tmp_path / "out"
    assert main(["analyze", str(ds), "--config", cfg, "--out", str(out)]) == 2
    assert "run3_sub1/iter0001.npz" in capsys.readouterr().err
    assert not out.exists()


def test_analyze_zero_total_counts_exit_2_naming_the_run(tmp_path, capsys, monkeypatch):
    cfg = write_config(tmp_path, source=FAST_SOURCE, analysis={"n_samples": 20000})
    ds = tmp_path / "ds"
    assert main(["simulate", "--config", cfg, "--seed", "3", "--out", str(ds)]) == 0
    counted = cli.count_dataset

    def zero_first_run1_iteration(*args, **kwargs):
        counts = counted(*args, **kwargs)
        counts[(1, 0)][0] = counts[(1, 1)][0] = 0.0
        return counts

    monkeypatch.setattr(cli, "count_dataset", zero_first_run1_iteration)
    out = tmp_path / "out"
    assert main(["analyze", str(ds), "--config", cfg, "--out", str(out)]) == 2
    assert "run 1" in capsys.readouterr().err
    assert not out.exists()


def test_analyze_exits_2_naming_a_detector_that_never_peaks(tmp_path, capsys):
    cfg = write_config(tmp_path, source=FAST_SOURCE, analysis={"n_samples": 20000})
    ds = tmp_path / "ds"
    assert main(["simulate", "--config", cfg, "--seed", "3", "--out", str(ds)]) == 0
    # The -1 detector's clicks, redrawn at random times: no coincidence peak.
    rng = np.random.default_rng(3)
    duration_ps = read_json(ds / "manifest.json")["source"]["duration"] * 10**12
    for path in sorted(ds.glob("run*_sub*/iter*.npz")):
        with np.load(path) as archive:
            arrays = {name: archive[name] for name in archive.files}
        size = arrays["M"].size
        arrays["M"] = np.sort(rng.choice(int(duration_ps), size=size, replace=False))
        np.savez(path, **arrays)
    out = tmp_path / "out"
    assert main(["analyze", str(ds), "--config", cfg, "--out", str(out)]) == 2
    assert "detector M: no coincidence peak" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "row, message",
    [
        ("none,none\n", "row 19: missing detector, count"),
        ("none,none,M\n", "row 19: missing count"),
        ("none,none,M,many\n", "row 19: count 'many' is not a number"),
    ],
    ids=["two fields", "three fields", "non-numeric count"],
)
def test_analyze_counts_csv_with_a_bad_row_exits_2_naming_it(tmp_path, capsys, row, message):
    # The bundled table with its last row, row 19, rewritten.
    lines = representative_counts_path().read_text(encoding="utf-8").splitlines(True)
    bad = tmp_path / "counts.csv"
    bad.write_text("".join(lines[:-1]) + row, encoding="utf-8")
    out = tmp_path / "out"
    assert main(["analyze", str(bad), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_analyze_empty_directory_exits_2(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["analyze", str(empty), "--out", str(tmp_path / "out")]) == 2


def test_analyze_missing_input_exits_2(tmp_path):
    assert main(["analyze", str(tmp_path / "nope"), "--out", str(tmp_path / "out")]) == 2


# ---------------------------------------------------------------------------
# report


def test_report_reference_fixture_ratios(tmp_path):
    cfg = write_config(tmp_path, setup={"grid_points": 5})
    out = tmp_path / "out"
    assert main(["report", "--config", cfg, "--out", str(out)]) == 0
    rows = {row["expression"]: row for row in read_csv(out / "report.csv")}
    assert float(rows["lgi"]["margin_over_delta"]) >= 8.0
    assert float(rows["wlgi"]["margin_over_delta"]) >= 5.0
    assert rows["lgi"]["inside_qm_range"] == "True"
    assert rows["wlgi"]["inside_qm_range"] == "True"
    for name in ("nsit12", "nsit23", "nsit13"):
        assert float(rows[name]["measured_mean"]) <= float(rows[name]["measured_delta"])
    text = (out / "report.txt").read_text(encoding="utf-8")
    assert "violates bound" in text
    assert "consistent with zero" in text


def test_report_accepts_explicit_inputs(tmp_path):
    cfg = write_config(tmp_path, setup={"grid_points": 3})
    pred_dir = tmp_path / "pred"
    assert main(["predict", "--config", cfg, "--out", str(pred_dir)]) == 0
    an_dir = tmp_path / "an"
    assert main(["analyze", str(representative_counts_path()), "--out", str(an_dir)]) == 0
    out = tmp_path / "out"
    ret = main(
        [
            "report",
            "--prediction",
            str(pred_dir / "prediction.json"),
            "--analysis",
            str(an_dir / "results.json"),
            "--out",
            str(out),
        ]
    )
    assert ret == 0
    rows = {row["expression"]: row for row in read_csv(out / "report.csv")}
    assert float(rows["lgi"]["measured_mean"]) == pytest.approx(1.31825, abs=1e-4)
    assert rows["lgi"]["measured_delta"] == ""


def test_report_missing_input_exits_2(tmp_path):
    ret = main(
        ["report", "--analysis", str(tmp_path / "nope.json"), "--out", str(tmp_path / "out")]
    )
    assert ret == 2


# ---------------------------------------------------------------------------
# outputs of every verb


@pytest.mark.parametrize(
    "argv",
    [
        ["predict"],
        ["hv-bound", "--eta", "0.9", "--inequality", "LGI", "--starts", "0"],
        ["gamma-fit"],
        ["simulate"],
        ["analyze", "{tmp}/ds"],
        ["report"],
    ],
    ids=lambda argv: argv[0],
)
def test_run_manifest_lists_exactly_the_files_written(tmp_path, capsys, argv):
    cfg = write_config(
        tmp_path,
        source=FAST_SOURCE,
        setup={"grid_points": 3},
        analysis={"n_samples": 20000},
        fit={"n_starts": 1},
    )
    if argv[0] == "analyze":
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "ds")]) == 0
    capsys.readouterr()
    out = tmp_path / "out"
    args = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    assert main([*args, "--config", cfg, "--out", str(out)]) == 0
    outputs = read_json(out / "run_manifest.json")["outputs"]
    files = sorted(p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file())
    assert files == sorted([*outputs, "run_manifest.json"])
    wrote = [line for line in capsys.readouterr().out.splitlines() if line.startswith("Wrote ")]
    if argv[0] == "simulate":
        # One summary line for the whole dataset.
        assert wrote == [f"Wrote 4-run dataset (10 iterations) to {out}"]
    else:
        assert sorted(wrote) == sorted(f"Wrote {out / name}" for name in outputs)


# ---------------------------------------------------------------------------
# console entry


def test_cli_subprocess_smoke(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"setup": {"grid_points": 3}}), encoding="utf-8")
    out = tmp_path / "out"
    # The child must import the macroreal this test imported, whether or
    # not the caller put it on PYTHONPATH.
    package_root = str(Path(macroreal.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "macroreal.cli", "predict", "--config", str(cfg), "--out", str(out)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert result.returncode == 0
    assert (out / "prediction.json").exists()
    assert "Wrote" in result.stdout


@pytest.mark.parametrize("package", ["multiprocessing", "scipy.optimize"])
def test_importing_the_cli_leaves_package_unloaded(package):
    # Every CLI start pays these imports; only counting a dataset needs a
    # pool, and only the gamma fit needs the optimizers.
    package_root = str(Path(macroreal.__file__).resolve().parent.parent)
    code = (
        f"import sys; sys.path.insert(0, {package_root!r}); import macroreal.cli; "
        f"print(sorted(m for m in sys.modules if (m + '.').startswith({package + '.'!r})))"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# pinned outputs

GOLDEN = Path(__file__).parent / "golden"


def test_outputs_match_golden_files(tmp_path):
    """Each verb's main output is byte-identical to its pinned copy.

    The default ``report`` computes the same prediction payload that
    ``predict`` writes, so feeding it the written ``prediction.json`` gives
    the default ``report.csv`` without running the 21-point sweep twice.
    """
    cfg = write_config(tmp_path, source=FAST_SOURCE, analysis={"n_samples": 20000})
    out = tmp_path / "out"
    assert main(["predict", "--out", str(out / "predict")]) == 0
    assert main(["simulate", "--config", cfg, "--seed", "3", "--out", str(out / "ds")]) == 0
    assert main(["analyze", str(out / "ds"), "--config", cfg, "--out", str(out / "ds_an")]) == 0
    counts_csv = str(representative_counts_path())
    assert main(["analyze", counts_csv, "--out", str(out / "csv_an")]) == 0
    prediction = str(out / "predict" / "prediction.json")
    assert main(["report", "--prediction", prediction, "--out", str(out / "report")]) == 0
    produced = {
        "prediction.json": out / "predict" / "prediction.json",
        "results_dataset.json": out / "ds_an" / "results.json",
        "per_iteration_dataset.csv": out / "ds_an" / "per_iteration.csv",
        "results_counts.json": out / "csv_an" / "results.json",
        "report.csv": out / "report" / "report.csv",
    }
    for name, path in produced.items():
        assert path.read_bytes() == (GOLDEN / name).read_bytes(), name


def test_hv_bound_outputs_match_golden_files(tmp_path):
    """The ``hv-bound`` outputs of the benchmark's certify arguments stay put.

    Both efficiency regimes are covered.  The vertex scan finds assignments
    beyond the witness bound for LGI at eta = 0.5 and 0.8 and for WLGI at
    0.8 (0.4 > 1/3), so the finding counts are pinned as well.
    """
    out = tmp_path / "hv"
    args = ["--eta", "0.5,0.8", "--inequality", "both", "--starts", "0", "--seed", "0"]
    assert main(["hv-bound", *args, "--out", str(out)]) == 0
    for name in ("hv_bounds.json", "bound_vs_eta.csv"):
        assert (out / name).read_bytes() == (GOLDEN / "hv" / name).read_bytes(), name


def test_gamma_fit_output_matches_golden_file(tmp_path):
    """A default ``gamma-fit`` of the bundled table stays put."""
    out = tmp_path / "fit"
    assert main(["gamma-fit", "--out", str(out)]) == 0
    produced = (out / "gamma_fit.json").read_bytes()
    assert produced == (GOLDEN / "gamma_fit.json").read_bytes()
