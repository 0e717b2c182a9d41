"""Run one workload of the twomode benchmark and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its
``src`` directory.  With ``--trace 0`` the end-to-end metrics are
printed, with ``--trace 1`` the per-layer ones (see README.md).  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it give the same numbers for people, with the run environment.

This file uses the standard library only.  It times the set-up probes
(``probe.py``) and the import profile itself, and runs the measured
workload in a child process (``harness.py``) whose peak memory is then
the workload's own.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"

WORKLOADS = ("point_cloud", "sweep_campaign", "fold_hunt")
SETUP_PROBES = 7
IMPORT_PROBES = 3
#: Whole run, leaving headroom under a three-minute limit.
TIME_LIMIT_S = 170.0


class BenchError(Exception):
    pass


def _remaining(deadline):
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("time limit reached")
    return left


def _run(cmd, deadline):
    """Run ``cmd`` in its own process group; kill the whole group if it
    outlives the deadline.  Returns (returncode, stdout, stderr)."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=_remaining(deadline))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{cmd[1]} did not finish in time") from None
    return proc.returncode, out, err


def setup_seconds(workload, workdir, deadline) -> list:
    """Wall time of fresh interpreters from start to the probe's ready."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "probe.py"), workload, str(workdir)],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            _, err = proc.communicate(timeout=_remaining(deadline))
        except BaseException:
            proc.kill()
            proc.communicate()
            raise
        if proc.returncode != 0 or line.strip() != "ready":
            raise BenchError(f"set-up probe failed: {err.strip()[-2000:]}")
        times.append(elapsed)
    return times


def _importtime(deadline) -> dict:
    """Module -> (self ms, cumulative ms) from ``python -X importtime``."""
    code, _, err = _run([sys.executable, "-X", "importtime", "-c",
                         "import sys; sys.path.insert(0, 'src'); "
                         "import twomode"], deadline)
    if code != 0:
        raise BenchError(f"import profile failed: {err.strip()[-2000:]}")
    table = {}
    for line in err.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        self_us, cum_us, module = line[len("import time:"):].split("|")
        if self_us.strip().isdigit():
            table[module.strip()] = (int(self_us) / 1e3, int(cum_us) / 1e3)
    return table


def import_metrics(deadline) -> dict:
    """Median over IMPORT_PROBES fresh interpreters."""
    runs = [_importtime(deadline) for _ in range(IMPORT_PROBES)]

    def median(module, which):
        return statistics.median(r.get(module, (0.0, 0.0))[which]
                                 for r in runs)

    return {"import.twomode_ms": median("twomode", 1),
            "import.numpy_ms": median("numpy", 1),
            "import.continuation_self_ms": median("twomode.continuation", 0),
            "import.numba_ms": median("numba", 1)}


def declared_metrics(key) -> dict:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics that
    ``BENCHMARK.json`` declares; the run prints exactly these."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[key]}


def measure(args, workdir, deadline):
    """(result of the harness child, metrics with units)."""
    setup = [] if args.trace else setup_seconds(args.workload, workdir,
                                                deadline)
    code, out, err = _run(
        [sys.executable, str(HERE / "harness.py"), "--workload",
         args.workload, "--seed", str(args.seed), "--seconds",
         str(args.seconds), "--trace", str(args.trace)], deadline)
    if code != 0 or not out.strip():
        raise BenchError(f"measurement failed (exit {code}): "
                         f"{err.strip()[-3000:]}")
    result = json.loads(out.strip().splitlines()[-1])
    values = dict(result["metrics"])
    if args.trace:
        values.update(import_metrics(deadline))
    else:
        values["setup_s"] = statistics.median(setup)
        result["notes"]["setup_probes_s"] = setup
    declared = declared_metrics("per_layer" if args.trace else "end_to_end")
    missing = sorted(set(declared) - set(values))
    if missing:
        raise BenchError(f"metrics not measured: {', '.join(missing)}")
    metrics = {k: {"value": values[k], "unit": u} for k, u in declared.items()}
    return result, metrics


def report(args, result, metrics):
    notes = result["notes"]
    print(f"twomode benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print(f"env: {json.dumps(result['env'], sort_keys=True)}")
    for name, m in metrics.items():
        extra = ""
        if name == "op_ms_tail":
            extra = (f"  (p{notes['op_ms_tail_percentile']:g}, "
                     f"{notes['op_ms_tail_beyond']} of {notes['ok_ops']} "
                     f"correct ops beyond it)")
        elif name == "setup_s":
            extra = f"  (median of {len(notes['setup_probes_s'])} probes)"
        print(f"{name} = {m['value']!r} {m['unit']}{extra}")
    print(f"failed_ratio = {notes['failed_ratio']!r} "
          f"({result['failed']} of {result['attempted']} ops failed)")
    print(f"op kinds, median ms: {json.dumps(notes['kind_ms_p50'])}")
    print(f"cpu steal share during the timed phase: "
          f"{notes['cpu_steal_share']!r}")
    for problem in result["problems"]:
        print(f"problem: {problem}")
    print(json.dumps({"correct": result["wrong"] == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (args.seconds > 0):
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "twomode" / "__init__.py").is_file():
        print(f"error: no twomode sources under {ROOT / 'src'}; run from "
              "the root of a twomode checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    workdir = OUT / f"run-{os.getpid()}"
    try:
        result, metrics = measure(args, workdir, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report(args, result, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
