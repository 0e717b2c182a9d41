#!/usr/bin/env python3
"""Search for a bistable operating point with a sub-photon readout.

Scans the readout power downward on a logarithmic grid; at each level
the pump-power fold window is located and probed for coexisting stable
branches whose readout occupation stays below one photon.  Prints the
trial log and the first qualifying configuration.

    python3 scripts/find_subunity_bistability.py
    python3 scripts/find_subunity_bistability.py --sign minus
"""

import argparse
import sys

from twomode.params import (AMP_CONVENTIONS, KAPPA2_INTERPRETATIONS,
                            SIGN_CONVENTIONS)
from twomode.studies import subunity_search


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sign", choices=tuple(SIGN_CONVENTIONS), default="plus",
                    help="sign of the readout force term")
    ap.add_argument("--amp", choices=AMP_CONVENTIONS, default="literal")
    ap.add_argument("--kappa2", choices=KAPPA2_INTERPRETATIONS,
                    default="angular")
    args = ap.parse_args(argv)

    report = subunity_search(sign=SIGN_CONVENTIONS[args.sign],
                             amp_convention=args.amp,
                             kappa2_interpretation=args.kappa2)
    print(report.render())
    return 0 if report.hit is not None else 1


if __name__ == "__main__":
    sys.exit(main())
