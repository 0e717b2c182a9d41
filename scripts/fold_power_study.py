#!/usr/bin/env python3
"""Fold-power sensitivity study across modelling-convention choices.

Reruns the pump-power fold search under all eight combinations of
amplitude normalization, second-linewidth interpretation, and force
sign, at the resonant operating point with a fixed readout power.
Prints the rendered report; optionally saves it.

    python3 scripts/fold_power_study.py
    python3 scripts/fold_power_study.py --points 800 --out out/fold_study.txt
"""

import argparse
import pathlib
import sys

from twomode.studies import fold_power_study


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--power-r", type=float, default=1e-7,
                    help="readout drive power in watts (default 1e-7)")
    ap.add_argument("--points", type=int, default=400,
                    help="sweep resolution for the fold bracketing")
    ap.add_argument("--out", default=None, help="also write the report here")
    args = ap.parse_args(argv)

    report = fold_power_study(power_r=args.power_r, points=args.points)
    text = report.render()
    print(text)
    if args.out:
        path = pathlib.Path(args.out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
