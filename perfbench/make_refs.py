"""Record the reference outputs the benchmark checks against.

    python3 perfbench/make_refs.py [point_cloud|fold_hunt|sweep_campaign ...]

Writes ``perfbench/refs/``: the point_cloud pool (inputs and classified
branches), the fold_hunt folds, and the sweep_campaign CSV rows and
summary folds/jumps.  The references are the package's own outputs at the
commit that recorded them; rerun this only to re-baseline on purpose,
never to make a failing check pass.

The point_cloud pool's branch counts are validated here, once, against
the million-point grid oracle of the test suite (``tests/oracles.py``)
wherever that grid can resolve the roots, by the same rule as AC1.
"""

from __future__ import annotations

import argparse
import dataclasses
import gzip
import json
import shutil
import sys

import paths
import points
import workloads
from twomode import continuation, stability
from twomode.params import preset_hill_params
from twomode.steady import SolverOptions, steady_branches

POOL_SEED = 0x2D0DE


def _write(name, data):
    path = paths.REFS / name
    path.parent.mkdir(parents=True, exist_ok=True)
    text = json.dumps(data, indent=None, separators=(",", ":"))
    if path.suffix == ".gz":
        # mtime=0 keeps the file byte-identical for identical content
        with open(path, "wb") as raw, gzip.GzipFile(
                fileobj=raw, mode="wb", mtime=0) as fh:
            fh.write(text.encode())
    else:
        path.write_text(text + "\n")
    print(f"wrote {path}")


def validate_counts(pool_points, options):
    """(validated, unresolvable) counts; raises on an oracle mismatch."""
    sys.path.insert(0, str(paths.TESTS))
    import oracles
    import sampling

    preset = preset_hill_params()
    validated = unresolvable = 0
    for count, members in pool_points.items():
        for point in members:
            params = point.params(preset)
            drive = point.drive(params)
            roots = [b.q_s for b in steady_branches(
                params, drive, options)]
            zeros = oracles.grid_zeros(params, drive, options.sign)
            cell = sampling.grid_cell(params, drive, options.sign)
            if not (sampling.cells_resolved(roots, cell)
                    and sampling.cells_resolved(zeros, cell)):
                unresolvable += 1
                continue
            if len(zeros) != count:
                raise AssertionError(
                    f"grid oracle finds {len(zeros)} roots, solver {count}: "
                    f"{point!r}")
            validated += 1
    return validated, unresolvable


def point_cloud_refs():
    options = SolverOptions()
    draws = points.generate(POOL_SEED)
    validated, unresolvable = validate_counts(draws.points, options)
    preset = preset_hill_params()
    entries = []
    for count, members in sorted(draws.points.items()):
        for point in members:
            params = point.params(preset)
            branches, _ = stability.solve_and_classify(
                params, point.drive(params), options)
            entries.append({
                "point": dataclasses.asdict(point),
                "count": count,
                "branches": [[b.q_s, b.n_p1, b.n_p2, int(b.verdict),
                              b.max_re_eig] for b in branches],
            })
    meta = {"pool_seed": POOL_SEED, "quotas": points.POOL_QUOTAS,
            "drawn": draws.drawn, "missed": draws.missed,
            "raised": draws.raised, "surplus": draws.surplus,
            "oracle_validated": validated,
            "oracle_unresolvable": unresolvable}
    print(f"point_cloud pool: {meta}")
    _write("point_cloud.json.gz", {"meta": meta, "points": entries})


def fold_hunt_refs():
    refs = {}
    for name, (params, drive, axis, lo, hi, options) in \
            workloads.fold_drives().items():
        refs[name] = list(continuation.locate_folds(params, drive, axis, lo,
                                                    hi, options))
        print(f"{name}: {refs[name]}")
    _write("fold_hunt.json", refs)


def sweep_campaign_refs():
    workdir = paths.OUT / "make_refs"
    workloads.write_configs(workdir)
    refs = {}
    try:
        for name in workloads.CAMPAIGN:
            argv = workloads.campaign_argv(name, workdir, threads=1)
            try:
                workloads.run_cli(argv)
            except workloads.OpFailed as exc:
                print(f"{name}: no reference, the op fails: {exc}")
                continue
            base = workdir / name / "out.csv"
            out = workloads.read_cli_outputs(base)
            refs[name] = {"traces": {k: [list(r) for r in v]
                                     for k, v in out["traces"].items()},
                          "summary": out["summary"]}
            print(f"{name}: traces {sorted(out['traces'])}, "
                  f"summary {out['summary']}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    _write("sweep_campaign.json.gz", refs)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*", default=workloads.WORKLOADS,
                        choices=workloads.WORKLOADS)
    args = parser.parse_args(argv)
    makers = {"point_cloud": point_cloud_refs, "fold_hunt": fold_hunt_refs,
              "sweep_campaign": sweep_campaign_refs}
    for name in args.workloads:
        makers[name]()


if __name__ == "__main__":
    main()
