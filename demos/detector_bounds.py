"""Hidden-variable bounds when imperfect detectors stand in for blockers.

Tabulates the largest LGI/WLGI values any macrorealist model can reach when
the negative-result measurements use detectors of efficiency eta, scans the
feasible weights' vertices at one efficiency, and reports the efficiencies a
detector implementation would need before the ideal quantum values become
conclusive.  The blocker implementation keeps the bounds at 1 and 0 for
every eta, which is how the setup closes the efficiency loophole.
"""

import argparse
import csv
import sys

import numpy as np

from macroreal.hvmodels import (
    blocker_setup_bound,
    critical_efficiency,
    lgi_detectors_bound_formula,
    maximize_lgi_detectors,
    maximize_wlgi_detectors,
    wlgi_detectors_bound_formula,
)


def build_parser():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--points", type=int, default=20, help="eta grid size (default 20)")
    parser.add_argument(
        "--certify-eta",
        type=float,
        default=0.8,
        help="eta at which to run the vertex-scan certificate (default 0.8)",
    )
    parser.add_argument("--out", help="optional CSV path for the bound-vs-eta table")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    etas = np.linspace(0.05, 1.0, args.points)

    print("== Detector-based negative result measurement: macrorealist bounds ==")
    print(f"{'eta':>5}  {'LGI bound':>10}  {'WLGI bound':>10}")
    rows = []
    for eta in etas:
        lgi = lgi_detectors_bound_formula(float(eta))
        wlgi = wlgi_detectors_bound_formula(float(eta))
        rows.append((float(eta), lgi, wlgi))
        print(f"{eta:5.2f}  {lgi:10.4f}  {wlgi:10.4f}")

    print()
    print(f"== Vertex-scan certificate at eta = {args.certify_eta:g} ==")
    for name, maximize in (("LGI ", maximize_lgi_detectors), ("WLGI", maximize_wlgi_detectors)):
        cert = maximize(args.certify_eta)
        best = max([cert.bound] + [finding.value for finding in cert.findings])
        print(
            f"{name} bound {cert.bound:.6f}  closed form {cert.formula_value:.6f}"
            f"  scan maximum {best:.6f}"
        )

    print()
    print("== Critical efficiencies (ideal quantum values conclusive above) ==")
    print(f"LGI  eta* = {critical_efficiency('LGI'):.4f}")
    print(f"WLGI eta* = {critical_efficiency('WLGI'):.4f}")

    print()
    print("== Blocker implementation (ideal absorber, any eta) ==")
    for eta in (0.01, 0.5, 1.0):
        lgi = blocker_setup_bound("LGI", eta).bound
        wlgi = blocker_setup_bound("WLGI", eta).bound
        print(f"eta={eta:<4g} LGI bound {lgi:g}, WLGI bound {wlgi:g}")

    if args.out:
        with open(args.out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["eta", "lgi_bound", "wlgi_bound"])
            writer.writerows(rows)
        print(f"Wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
