#!/usr/bin/env python3
"""Run bundled figure presets and write their sweep tables.

Each preset reproduces the structure of one published trace family
(branch counts, orderings, hysteresis loops); absolute photon numbers
depend on convention flags, see the README.  Writes one CSV per trace
label plus a .summary.txt sidecar per preset.

    python3 scripts/run_figures.py --out out/figures
    python3 scripts/run_figures.py fig3 fig5a --points 200 --format jsonlines
"""

import argparse
import pathlib
import sys

from twomode.figures import FIGURE_PRESETS, run_preset
from twomode.io import FORMATS, preset_rows, write_rows, write_summary
from twomode.params import AMP_CONVENTIONS, KAPPA2_INTERPRETATIONS


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("names", nargs="*", default=None,
                    help=f"presets to run (default: all of {', '.join(FIGURE_PRESETS)})")
    ap.add_argument("--out", default="out/figures", help="output directory")
    ap.add_argument("--points", type=int, default=400)
    ap.add_argument("--format", choices=FORMATS, default="csv")
    ap.add_argument("--kappa2", choices=KAPPA2_INTERPRETATIONS,
                    default="angular")
    ap.add_argument("--amp", choices=AMP_CONVENTIONS, default="literal")
    args = ap.parse_args(argv)

    names = args.names or list(FIGURE_PRESETS)
    outdir = pathlib.Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    for name in names:
        results = run_preset(name, kappa2_interpretation=args.kappa2,
                             amp_convention=args.amp, points=args.points)
        rows = preset_rows(results)
        ext = "csv" if args.format == "csv" else "jsonl"
        written = write_rows(rows, args.format, outdir / f"{name}.{ext}")
        summary = write_summary(results, outdir / f"{name}.{ext}")
        print(f"{name}: {len(written)} trace file(s), summary {summary}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
