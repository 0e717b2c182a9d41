"""Set-up probe: import the package, build the device parameters, finish
one untimed warm-up op, then print ``ready``.

    python3 perfbench/probe.py WORKLOAD WORKDIR

``run.py`` times a fresh interpreter running this from start to the
``ready`` line; that is the ``setup_s`` metric.
"""

import sys
from pathlib import Path

import paths  # noqa: F401  (puts the source tree on sys.path)
import twomode  # noqa: F401  (the import is part of what is timed)
import workloads


def main(argv):
    name, workdir = argv
    workloads.warmup(name, Path(workdir))()
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
