"""The three workloads: their inputs, their ops and each op's check.

One op is one call into the package.  A workload is a list of ops that the
harness runs in order, again and again, from one closed-loop caller.
Calls go through module attributes looked up at call time
(``stability.solve_and_classify``, ``continuation.locate_folds``,
``cli.main``), so the tracing wrappers see them.

References come from ``refs/`` (written by ``make_refs.py``); the seed
picks the inputs of a run from them, so a run never depends on the code
under test to choose its inputs.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import io
import json
import math
import random
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks
import paths
import points
from twomode import cli, continuation, stability
from twomode.params import DrivePoint, preset_hill_params, replace_params
from twomode.steady import SolverOptions

WORKLOADS = ("point_cloud", "sweep_campaign", "fold_hunt")


class OpFailed(Exception):
    """The op returned a failure instead of an output (a non-zero exit)."""


@dataclass
class Op:
    kind: str                                   # groups ops for per-kind stats
    call: Callable[[], object]
    check: Callable[[object], list]             # problems; empty when correct
    prepare: Callable[[], None] = lambda: None  # untimed, before each call


def load_ref(name):
    path = paths.REFS / name
    opener = gzip.open if path.suffix == ".gz" else open
    with opener(path, "rt") as fh:
        return json.load(fh)


# -- point_cloud ----------------------------------------------------------

def _point_op(params, drive, options, ref, model):
    def call():
        return stability.solve_and_classify(params, drive, options)

    def check(result):
        branches, _ = result
        got = [(b.q_s, b.n_p1, b.n_p2, int(b.verdict), b.max_re_eig)
               for b in branches]
        return checks.check_branches(got, ref, model)

    return Op(kind=f"{len(ref)}-root", call=call, check=check)


def point_cloud(seed):
    """One op per operating point of a seeded stratified sample."""
    pool = load_ref("point_cloud.json.gz")["points"]
    preset = preset_hill_params()
    options = SolverOptions()
    ops = []
    for i in points.run_sample(pool, seed):
        entry = pool[i]
        point = points.Point(**entry["point"])
        params = point.params(preset)
        model = (params.g1, params.g2, params.omega_m, options.sign)
        ops.append(_point_op(params, point.drive(params), options,
                             entry["branches"], model))
    return ops


# -- fold_hunt ------------------------------------------------------------

def fold_drives():
    """name -> (params, drive, axis, lo, hi, options) of every fold_hunt op.

    - ``loop``: power_l over [1e-14, 1] W on the q_m = 5 device of AC5;
    - ``single``: the AC6 single cavity (g2 = 0), power_l in
      [1e-13, 1e-10] W;
    - ``detuning``: delta1 over [0, 2 omega_m] on the q_m = 5 device at
      power_l = 2e-12 W;
    - ``study_<amp>_<kappa2>_<sign>``: the eight fold-study convention
      drives at power_r = 1e-7 W, power_l over [1e-14, 1] W.
    """
    preset = preset_hill_params()
    heavy = replace_params(preset, q_m=5.0)
    single = replace_params(preset, g2=0.0)
    wide = 2.0 * math.sqrt(3.0) * preset.kappa1
    default = SolverOptions()
    drives = {
        "loop": (heavy, DrivePoint.build(heavy, delta1=wide,
                                         delta2=heavy.omega_m,
                                         power_l=1e-12),
                 "power_l", 1e-14, 1.0, default),
        "single": (single, DrivePoint.build(single, delta1=wide,
                                            delta2=single.omega_m,
                                            power_l=1e-13),
                   "power_l", 1e-13, 1e-10, default),
        "detuning": (heavy, DrivePoint.build(heavy, delta1=heavy.omega_m,
                                             delta2=heavy.omega_m,
                                             power_l=2e-12),
                     "delta1", 0.0, 2.0 * heavy.omega_m, default),
    }
    for amp in ("literal", "flux"):
        for kappa2 in ("angular", "literal"):
            params = preset_hill_params(kappa2_interpretation=kappa2)
            drive = DrivePoint.build(params, delta1=params.omega_m,
                                     delta2=params.omega_m, power_r=1e-7,
                                     amp_convention=amp)
            for sign_name, sign in (("plus", 1), ("minus", -1)):
                drives[f"study_{amp}_{kappa2}_{sign_name}"] = (
                    params, drive, "power_l", 1e-14, 1.0,
                    SolverOptions(sign=sign))
    return drives


def _fold_op(name, spec, ref, onset):
    params, drive, axis, lo, hi, options = spec

    def call():
        return continuation.locate_folds(params, drive, axis, lo, hi, options)

    def check(folds):
        problems = checks.check_values(folds, ref, checks.FOLD_REL, name)
        if onset is not None and folds and not checks.close(
                folds[0], onset, checks.ONSET_REL):
            problems.append(f"{name}: onset {folds[0]!r} != discriminant "
                            f"oracle {onset!r}")
        return problems

    return Op(kind=name, call=call, check=check)


def fold_hunt(seed):
    """The fold_hunt drives, one locate_folds op each, in seeded order."""
    refs = load_ref("fold_hunt.json")
    drives = fold_drives()
    # the oracle bisects from the bracket's low end to the middle of the
    # recorded fold window, where the cubic has three real roots
    params, drive, _, lo, _, _ = drives["single"]
    onset = checks.discriminant_onset(params, drive.delta1, lo,
                                      math.sqrt(refs["single"][0]
                                                * refs["single"][1]))
    ops = [_fold_op(name, spec, refs[name], onset if name == "single" else None)
           for name, spec in drives.items()]
    random.Random(seed).shuffle(ops)
    return ops


# -- sweep_campaign -------------------------------------------------------

def configs():
    """Config documents of the two ``sweep`` ops, by name.

    - ``loop``: the AC5 hysteresis loop (q_m = 5, delta1 = 2 sqrt(3)
      kappa1), power_l ramped both ways over [LOOP_FOLDS[0] / 2,
      1.8 LOOP_FOLDS[1]] in 400 points;
    - ``short``: a 100-point pump-detuning scan at 2 uW, below the
      package's process-pool threshold of 128 points, so it always runs
      in process.
    """
    kappa1 = preset_hill_params().kappa1
    loop = f"""\
system = "hill2012"
system.q_m = 5
drive.delta1_rad_s = {2.0 * math.sqrt(3.0) * kappa1!r}
drive.delta2_hz = 4e9
drive.power_l_w = 1e-12
sweep.axis = "power_l"
sweep.start_w = {1.3004470633603326e-12 / 2.0!r}
sweep.stop_w = {2.835530696694626e-12 * 1.8!r}
sweep.points = 400
sweep.direction = "both"
"""
    short = """\
system = "hill2012"
drive.power_l_w = 2e-6
drive.power_r_w = 1e-7
sweep.axis = "delta1"
sweep.start_hz = 0
sweep.stop_hz = 8e9
sweep.points = 100
sweep.direction = "up"
"""
    return {"loop": loop, "short": short}


#: name -> CLI arguments (before --out); the fixed op order.
CAMPAIGN = {
    "fig3": ["preset", "fig3"],
    "fig2b": ["preset", "fig2b"],
    "fig2b_minus": ["preset", "fig2b", "--sign", "minus"],
    "fig2b_literal": ["preset", "fig2b", "--kappa2", "literal"],
    "fig2b_minus_literal": ["preset", "fig2b", "--sign", "minus",
                            "--kappa2", "literal"],
    "loop": ["sweep", "--config", "{loop}"],
    "short": ["sweep", "--config", "{short}"],
}


def campaign_model(name, label):
    """``(g1, g2, omega_m, sign)`` behind the rows of one output trace.

    Every campaign op runs the preset couplings, except the decoupled
    control trace of fig3 (g1 = 0); q_m and kappa2 do not enter.
    """
    preset = preset_hill_params()
    g1 = 0.0 if (name, label) == ("fig3", "control") else preset.g1
    sign = -1 if "minus" in CAMPAIGN[name] else 1
    return g1, preset.g2, preset.omega_m, sign


def campaign_argv(name, workdir, threads=None):
    """Full CLI arguments of one campaign op writing under ``workdir``."""
    args = [a.format(loop=str(workdir / "loop.conf"),
                     short=str(workdir / "short.conf"))
            for a in CAMPAIGN[name]]
    args += ["--out", str(workdir / name / "out.csv")]
    if threads is not None:
        args += ["--threads", str(threads)]
    return args


def write_configs(workdir):
    workdir.mkdir(parents=True, exist_ok=True)
    for key, text in configs().items():
        (workdir / f"{key}.conf").write_text(text)


def run_cli(argv):
    """``cli.main`` in process with its output captured; raises OpFailed
    on a non-zero exit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise OpFailed(f"exit {code}: {err.getvalue().strip()}")
    return code


def read_cli_outputs(base):
    return {"traces": checks.read_traces(base),
            "summary": checks.read_summary(base.with_name(
                base.stem + ".summary.txt"))}


def _campaign_op(name, argv, ref):
    base = Path(argv[argv.index("--out") + 1])
    model_of = functools.partial(campaign_model, name)

    def prepare():
        shutil.rmtree(base.parent, ignore_errors=True)

    def call():
        return run_cli(argv)

    def check(_):
        got = read_cli_outputs(base)
        if ref is None:
            # no reference rows were recorded (the op failed then): the
            # output is held to the checks that need no reference
            if not got["traces"]:
                return ["no output rows"]
            return [p for label, rows in got["traces"].items()
                    for p in checks.check_residual(
                        [r[2:] for r in rows], model_of(label), f"[{label}] ")]
        problems = checks.check_cli_rows(got["traces"], ref["traces"],
                                         model_of)
        problems += checks.check_summary(got["summary"], ref["summary"])
        if name == "fig3":
            problems += checks.check_flat(got["traces"].get("control", []),
                                          "fig3 control")
        return problems

    return Op(kind=name, call=call, check=check, prepare=prepare)


def sweep_campaign(seed, workdir, threads=None):
    """The campaign ops in their fixed order, started at a seeded offset.

    ``threads=None`` leaves the CLI at its default (every core).
    """
    refs = load_ref("sweep_campaign.json.gz")
    write_configs(workdir)
    names = list(CAMPAIGN)
    start = random.Random(seed).randrange(len(names))
    names = names[start:] + names[:start]
    return [_campaign_op(n, campaign_argv(n, workdir, threads), refs.get(n))
            for n in names]


def warmup(name, workdir):
    """The set-up probe's one op: a preset-device call, no references."""
    if name == "point_cloud":
        params = preset_hill_params()
        drive = DrivePoint.build(params, delta1=params.omega_m,
                                 delta2=params.omega_m, power_l=1e-13,
                                 power_r=1e-13)
        return lambda: stability.solve_and_classify(params, drive)
    if name == "fold_hunt":
        params, drive, axis, lo, hi, options = fold_drives()["loop"]
        return lambda: continuation.locate_folds(params, drive, axis, lo, hi,
                                                 options)
    if name == "sweep_campaign":
        write_configs(workdir)
        argv = campaign_argv("short", workdir)
        return lambda: run_cli(argv)
    raise ValueError(f"unknown workload {name!r}, expected one of {WORKLOADS}")


def build(name, seed, workdir, threads=None):
    if name == "point_cloud":
        return point_cloud(seed)
    if name == "fold_hunt":
        return fold_hunt(seed)
    if name == "sweep_campaign":
        return sweep_campaign(seed, workdir, threads)
    raise ValueError(f"unknown workload {name!r}, expected one of {WORKLOADS}")
