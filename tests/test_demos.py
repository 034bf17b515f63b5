"""The demo scripts still import, and the band demo runs end to end."""

import importlib.util
import re
from pathlib import Path

import pytest

from macroreal.circuit import NOMINAL_PARAMS, qm_lgi

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_are_found():
    assert DEMOS


def load_demo(path):
    # Executes the module body only; each demo runs its main() under
    # ``if __name__ == "__main__"``, which this import does not trigger.
    spec = importlib.util.spec_from_file_location(f"demo_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.stem)
def test_demo_imports(path):
    assert callable(load_demo(path).main)


def test_quantum_predictions_demo_runs_end_to_end(capsys):
    demo = load_demo(DEMOS[0].parent / "quantum_predictions.py")
    assert demo.main(["--grid-points", "3"]) == 0
    out = capsys.readouterr().out
    assert "LGI  max 1.500000  at " in out
    assert "WLGI max 0.403431  at " in out
    # The first band printed is the fixed-visibility one around the nominal point.
    lo, hi = map(float, re.search(r"^lgi\s+\[(\S+), (\S+)\]$", out, re.MULTILINE).groups())
    nominal = qm_lgi(NOMINAL_PARAMS)
    assert f"LGI   {nominal:.4f}" in out and round(nominal, 4) == 1.4734
    assert lo <= 1.4734 <= hi
