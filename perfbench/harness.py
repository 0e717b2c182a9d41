"""Measure one workload in this process and print the result as JSON.

    python3 perfbench/harness.py --workload NAME --seed N --seconds S --trace 0|1

``run.py`` starts this in a child process of its own, so that the child's
peak memory is the workload's and not the set-up probes'.  One caller
runs the workload's ops in a closed loop: the next op starts when the
previous one returned.  Whole passes over the op list are run until the
summed op time reaches ``--seconds``; every op's output is checked after
its clock stopped.

With ``--trace 1`` a traced phase follows the untraced one and the
per-layer metrics come from its spans; ``sweep_campaign`` is traced
twice, at the CLI's default thread count (parent-side spans only, as
forked pool workers lose theirs) and with ``--threads 1`` (all spans).
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import paths
import tracing
import workloads

#: Tail percentiles, highest first; the tail is the highest one with at
#: least MIN_BEYOND successful ops beyond it.  p99.9 is left out: on a
#: small shared machine it measures scheduler stalls, not the program.
TAIL_LADDER = (99.0, 95.0, 75.0, 50.0)
MIN_BEYOND = 10
#: Per-layer metrics taken from the default-thread traced pass of
#: sweep_campaign; every other one comes from the ``--threads 1`` pass.
POOL_SIDE = ("continuation._solve_grid.wall_ms",
             "continuation._solve_grid.pool_used")
KEPT_PROBLEMS = 5


@dataclass
class Phase:
    seconds: float = 0.0                         # summed op time
    ok: list = field(default_factory=list)       # latencies of correct ops
    by_kind: dict = field(default_factory=dict)  # kind -> every latency
    attempted: int = 0
    raised: int = 0
    wrong: int = 0
    problems: list = field(default_factory=list)
    passes: list = field(default_factory=list)   # (correct ops, op seconds)

    @property
    def failed(self):
        return self.raised + self.wrong


def run_op(op, phase, tracer=None):
    op.prepare()
    if tracer is not None:
        tracer.op_id += 1
        tracer.enabled = True
    t0 = perf_counter()
    try:
        out = op.call()
        error = None
    except Exception as exc:     # a failing op is counted, never fatal
        error = exc
    elapsed = perf_counter() - t0
    if tracer is not None:
        tracer.enabled = False
    phase.seconds += elapsed
    phase.attempted += 1
    phase.by_kind.setdefault(op.kind, []).append(elapsed)
    if error is not None:
        phase.raised += 1
        problems = [f"{op.kind}: {type(error).__name__}: {error}"]
    else:
        try:
            problems = op.check(out)
        except Exception as exc:
            problems = [f"{op.kind}: check raised {exc!r}"]
        if problems:
            phase.wrong += 1
        else:
            phase.ok.append(elapsed)
    for problem in problems:
        if len(phase.problems) < KEPT_PROBLEMS and problem not in phase.problems:
            phase.problems.append(problem)


def run_phase(ops, seconds, tracer=None) -> Phase:
    phase = Phase()
    while phase.seconds < seconds:
        ok, spent = len(phase.ok), phase.seconds
        for op in ops:
            run_op(op, phase, tracer)
        phase.passes.append((len(phase.ok) - ok, phase.seconds - spent))
    return phase


def ops_per_s(phase: Phase) -> float:
    """Median over passes of correct ops per second of op time."""
    return statistics.median(ok / spent for ok, spent in phase.passes)


def tail(latencies):
    """(percentile, value, samples beyond) of the highest ladder
    percentile with at least MIN_BEYOND samples beyond it, or None."""
    xs = sorted(latencies)
    n = len(xs)
    for pct in TAIL_LADDER:
        rank = math.ceil(pct / 100.0 * n)
        if rank >= 1 and n - rank >= MIN_BEYOND:
            return pct, xs[rank - 1], n - rank
    return None


def peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest child
    (Linux reports ``ru_maxrss`` in KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def cpu_ticks():
    """(steal, total) CPU ticks of the whole machine, or None off Linux."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(v) for v in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (fields[7] if len(fields) > 7 else 0), sum(fields[:8])


def steal_share(before, after):
    """Share of the machine's CPU time the hypervisor took between two
    ``cpu_ticks`` readings; None when unknown."""
    if before is None or after is None or after[1] == before[1]:
        return None
    return (after[0] - before[0]) / (after[1] - before[1])


def environment() -> dict:
    return {"cpu_count": os.cpu_count(),
            "numba": importlib.util.find_spec("numba") is not None,
            "numpy": np.__version__,
            "python": platform.python_version(),
            "platform": platform.platform()}


def end_to_end(phase: Phase) -> tuple:
    """(metrics, notes) of an untraced phase."""
    if not phase.ok:
        raise RuntimeError("no op succeeded: " + "; ".join(phase.problems))
    pct, value, beyond = tail(phase.ok) or (100.0, max(phase.ok), 0)
    metrics = {
        "ops_per_s": ops_per_s(phase),
        "op_ms_p50": statistics.median(phase.ok) * 1e3,
        "op_ms_tail": value * 1e3,
        "success_ratio": len(phase.ok) / phase.attempted,
    }
    notes = {"op_ms_tail_percentile": pct, "op_ms_tail_beyond": beyond,
             "ok_ops": len(phase.ok),
             "failed_ratio": phase.failed / phase.attempted,
             "kind_ms_p50": {kind: round(statistics.median(times) * 1e3, 3)
                             for kind, times in sorted(phase.by_kind.items())}}
    return metrics, notes


def traced_pass(ops, seconds, dump_path):
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        phase = run_phase(ops, seconds, tracer)
    finally:
        tracing.uninstall(tracer)
    metrics = tracing.summarize(tracer, phase.attempted, phase.seconds)
    metrics["trace.ops_per_s"] = ops_per_s(phase)
    tracing.dump(tracer, dump_path)
    return phase, metrics


def per_layer(name, seed, seconds, untraced, workdir):
    """Per-layer metrics plus the phases that produced them."""
    dump = paths.OUT / "trace" / f"{name}-seed{seed}"
    ops = workloads.build(name, seed, workdir)
    phase, metrics = traced_pass(ops, seconds, dump.with_suffix(".npz"))
    phases = [phase]
    if name == "sweep_campaign":
        single = workloads.build(name, seed, workdir, threads=1)
        phase_1, metrics_1 = traced_pass(
            single, seconds, dump.with_name(dump.name + "-threads1.npz"))
        phases.append(phase_1)
        metrics_1.update({k: metrics[k] for k in POOL_SIDE})
        metrics_1["trace.ops_per_s"] = metrics["trace.ops_per_s"]
        metrics = metrics_1
    metrics["trace.overhead_ops_per_s"] = (metrics["trace.ops_per_s"]
                                           - ops_per_s(untraced))
    for kind in workloads.CAMPAIGN:
        times = untraced.by_kind.get(kind) if name == "sweep_campaign" else None
        metrics[f"cli.{kind}.ms_p50"] = (statistics.median(times) * 1e3
                                         if times else 0.0)
    return metrics, phases


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workdir = paths.OUT / f"work-{os.getpid()}"
    try:
        ops = workloads.build(args.workload, args.seed, workdir)
        run_op(ops[0], Phase())    # warm-up, not counted
        ticks = cpu_ticks()
        untraced = run_phase(ops, args.seconds)
        rss = peak_rss_mb()
        metrics, notes = end_to_end(untraced)
        notes["cpu_steal_share"] = steal_share(ticks, cpu_ticks())
        metrics["peak_rss_mb"] = rss
        phases = [untraced]
        if args.trace:
            layer_metrics, traced = per_layer(args.workload, args.seed,
                                              args.seconds, untraced, workdir)
            phases += traced
            metrics = layer_metrics
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    problems = list(dict.fromkeys(p for ph in phases for p in ph.problems))
    print(json.dumps({
        "attempted": sum(p.attempted for p in phases),
        "failed": sum(p.failed for p in phases),
        "wrong": sum(p.wrong for p in phases),
        "metrics": metrics, "notes": notes, "problems": problems,
        "env": environment()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
