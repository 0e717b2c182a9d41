"""Tests of the benchmark itself.

    python3 -m pytest perfbench

They cover the seeded point generator, the tracing wrappers (outputs stay
bit-identical with them installed and after removal), every output check
(each fails once its reference moves past the tolerance), and the
command's contract: metric names and units as ``BENCHMARK.json`` lists
them, and a clean refusal in a directory without the package sources.
"""

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import checks
import paths
import points
import tracing
import workloads
from twomode import cli, continuation, stability, steady
from twomode.params import preset_hill_params
from twomode.steady import SolverOptions

BENCHMARK = json.loads((paths.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def workdir():
    path = paths.OUT / "test"
    shutil.rmtree(path, ignore_errors=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


# -- generator ------------------------------------------------------------

SMALL = {1: 6, 3: 4, 5: 2}


def test_generator_is_deterministic_per_seed():
    a = points.generate(7, SMALL)
    b = points.generate(7, SMALL)
    assert a == b
    assert {n: len(v) for n, v in a.points.items()} == SMALL
    assert points.generate(8, SMALL).points != a.points


def test_generated_points_have_their_stratum_count():
    draws = points.generate(11, SMALL)
    base = preset_hill_params()
    for count, members in draws.points.items():
        for point in members:
            params = point.params(base)
            assert len(steady.steady_branches(params, point.drive(params),
                                              SolverOptions())) == count


def test_committed_pool_is_the_generators_output():
    import make_refs
    draws = points.generate(make_refs.POOL_SEED)
    made = [dataclasses.asdict(p) for n in sorted(draws.points)
            for p in draws.points[n]]
    pool = workloads.load_ref("point_cloud.json.gz")["points"]
    assert made == [entry["point"] for entry in pool]


def test_run_sample_is_seeded_and_stratified():
    pool = workloads.load_ref("point_cloud.json.gz")["points"]
    first = points.run_sample(pool, 3)
    assert first == points.run_sample(pool, 3)
    assert first != points.run_sample(pool, 4)
    counts = {}
    for i in first:
        counts[pool[i]["count"]] = counts.get(pool[i]["count"], 0) + 1
    assert counts == points.RUN_QUOTAS
    assert len(set(first)) == len(first)


# -- tracing wrappers -----------------------------------------------------

def _outputs(ops, cli_base):
    out = []
    for op in ops:
        op.prepare()
        result = op.call()
        if op.kind == "short":
            result = sorted((p.name, p.read_bytes())
                            for p in checks.output_files(cli_base))
        out.append(repr(result))
    return out


def test_wrappers_leave_outputs_bit_identical(workdir):
    cloud = workloads.point_cloud(1)
    picked = [next(op for op in cloud if op.kind == k)
              for k in ("1-root", "3-root", "5-root")]
    folds = [op for op in workloads.fold_hunt(1) if op.kind == "single"]
    short = [op for op in workloads.sweep_campaign(1, workdir)
             if op.kind == "short"]
    ops = picked + folds + short
    base = workdir / "short" / "out.csv"
    attrs = {(m, k): getattr(m, k) for m in (cli, continuation, stability,
                                            steady)
             for k in dir(m) if callable(getattr(m, k))}

    before = _outputs(ops, base)
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        assert stability.steady_branches is not attrs[(stability,
                                                       "steady_branches")]
        tracer.enabled = True
        during = _outputs(ops, base)
        tracer.enabled = False
    finally:
        tracing.uninstall(tracer)
    after = _outputs(ops, base)

    assert before == during == after
    assert all(getattr(m, k) is v for (m, k), v in attrs.items())
    seen = {tracer.names[i] for i in tracer.name}
    assert {"stability.solve_and_classify", "steady.steady_branches",
            "polyroots.all_roots", "continuation.locate_folds",
            "continuation._refine_count_change", "cli.main",
            "config.parse_config", "io.write_rows",
            "params.DrivePoint.build"} <= seen


def test_self_time_and_shares_add_up():
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        op = workloads.point_cloud(2)[0]
        tracer.enabled = True
        tracer.op_id = 0
        op.call()
        tracer.enabled = False
    finally:
        tracing.uninstall(tracer)
    root = tracer.end[0] - tracer.start[0]
    m = tracing.summarize(tracer, 1, root)
    total = sum(m[f"{layer}.self_share"] for layer in tracing.LAYERS)
    assert total == pytest.approx(1.0, rel=1e-9)
    assert m["steady.steady_branches.calls"] == 1.0


# -- output checks --------------------------------------------------------

@pytest.fixture(scope="module")
def solved_point():
    pool = workloads.load_ref("point_cloud.json.gz")["points"]
    entry = next(e for e in pool if e["count"] == 3)
    point = points.Point(**entry["point"])
    params = point.params(preset_hill_params())
    branches, _ = stability.solve_and_classify(params, point.drive(params))
    got = [(b.q_s, b.n_p1, b.n_p2, int(b.verdict), b.max_re_eig)
           for b in branches]
    model = (params.g1, params.g2, params.omega_m, 1)
    return got, entry["branches"], model


def _moved(ref, row, col, factor):
    out = [list(r) for r in ref]
    out[row][col] = out[row][col] * factor
    return out


@pytest.mark.parametrize("col", [0, 1, 2])
def test_branch_values_fail_past_relative_tolerance(solved_point, col):
    got, ref, model = solved_point
    assert checks.check_branches(got, ref, model) == []
    assert checks.check_branches(
        got, _moved(ref, 1, col, 1 + 0.5 * checks.ROW_REL), model) == []
    assert checks.check_branches(
        got, _moved(ref, 1, col, 1 + 2 * checks.ROW_REL), model)


def test_eigenvalue_and_verdict_checks(solved_point):
    got, ref, model = solved_point
    step = checks.EIG_ABS * model[2]
    near = [list(r) for r in ref]
    near[0][4] += 0.5 * step
    assert checks.check_branches(got, near, model) == []
    far = [list(r) for r in ref]
    far[0][4] += 2 * step
    assert checks.check_branches(got, far, model)
    flipped = [list(r) for r in ref]
    flipped[2][3] = 1 - flipped[2][3]
    assert checks.check_branches(got, flipped, model)
    assert checks.check_branches(got, ref[:1], model)   # branch count


def test_residual_check_fails_past_its_bound(solved_point):
    got, _, model = solved_point
    q, n1, n2, *_ = got[0]
    g1, _, omega_m, _ = model
    # a photon-number shift that moves the force by 2x the allowed defect
    dn = 2 * checks.RESIDUAL_REL * (1 + abs(q)) * omega_m / (2 * g1)
    assert checks.check_residual([(q, n1, n2)], model) == []
    assert checks.check_residual([(q, n1 + dn, n2)], model)
    assert checks.check_residual([(q, n1 + dn / 4, n2)], model) == []


@pytest.mark.parametrize("rel", [checks.FOLD_REL, checks.SWEEP_FOLD_REL])
def test_fold_values_fail_past_tolerance(rel):
    ref = (1.3004470639257335e-12, 2.8355306965015694e-12)
    assert checks.check_values(ref, ref, rel, "f") == []
    assert checks.check_values((ref[0] * (1 + rel / 2), ref[1]), ref, rel,
                               "f") == []
    assert checks.check_values((ref[0] * (1 + 2 * rel), ref[1]), ref, rel, "f")
    assert checks.check_values(ref[:1], ref, rel, "f")


def test_onset_oracle_agrees_and_fold_op_check_catches_a_shift():
    op = next(op for op in workloads.fold_hunt(0) if op.kind == "single")
    folds = tuple(workloads.load_ref("fold_hunt.json")["single"])
    assert op.check(folds) == []
    shifted = (folds[0] * (1 + 2 * checks.ONSET_REL), folds[1])
    assert any("oracle" in p for p in op.check(shifted))


def test_cli_checks_catch_moved_rows_summary_and_flatness(workdir):
    op = next(op for op in workloads.sweep_campaign(0, workdir)
              if op.kind == "loop")
    op.prepare()
    op.call()
    assert op.check(None) == []
    base = workdir / "loop" / "out.csv"
    got = workloads.read_cli_outputs(base)
    ref = workloads.load_ref("sweep_campaign.json.gz")["loop"]
    def models(label):
        return workloads.campaign_model("loop", label)
    assert checks.check_cli_rows(got["traces"], ref["traces"], models) == []
    moved = json.loads(json.dumps(ref["traces"]))
    moved["up"][3][2] *= 1 + 2 * checks.ROW_REL
    assert checks.check_cli_rows(got["traces"], moved, models)
    moved = json.loads(json.dumps(ref["traces"]))
    del moved[""][5]
    assert checks.check_cli_rows(got["traces"], moved, models)
    jumped = json.loads(json.dumps(ref["summary"]))
    jumped[""]["up"][0] *= 1 + 2 * checks.SWEEP_FOLD_REL
    assert checks.check_summary(got["summary"], jumped)
    near = json.loads(json.dumps(ref["summary"]))
    near[""]["up"][0] *= 1 + checks.SWEEP_FOLD_REL / 2
    assert checks.check_summary(got["summary"], near) == []
    flat = [(0.0, 0, 1.0, 2.0, 3.0, 1, -1.0)] * 3
    assert checks.check_flat(flat, "c") == []
    bumped = flat[:2] + [(0.0, 0, 1.0, 2.0, 3.0 + 1e-16 * 3.0 * 4, 1, -1.0)]
    assert checks.check_flat(bumped, "c")


def test_known_seed_failure_is_counted_as_a_failure(workdir):
    op = next(op for op in workloads.sweep_campaign(0, workdir)
              if op.kind == "fig2b_minus_literal")
    op.prepare()
    with pytest.raises(workloads.OpFailed, match="exit 3"):
        op.call()


# -- the command ----------------------------------------------------------

def _run(args, cwd):
    return subprocess.run([sys.executable, "perfbench/run.py"] + args,
                          cwd=cwd, capture_output=True, text=True,
                          timeout=170)


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_command_prints_every_declared_metric(trace, key):
    proc = _run(["--workload", "point_cloud", "--seed", "1", "--seconds",
                 "0.2", "--trace", str(trace)], paths.ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in BENCHMARK[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_command_refuses_without_the_package(workdir):
    workdir.mkdir(parents=True)
    shutil.copy(paths.ROOT / "BENCHMARK.json", workdir)
    shutil.copytree(paths.HERE, workdir / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", "fold_hunt", "--seed", "1", "--seconds", "1",
                 "--trace", "0"], workdir)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_benchmark_file_names_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(
        workloads.WORKLOADS)
    assert BENCHMARK["command"] == ["python3", "perfbench/run.py"]
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])
