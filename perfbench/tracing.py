"""Spans around the calls into each ``twomode`` module, from outside.

``install(tracer)`` replaces every module attribute through which a traced
function is reached with one wrapper per function, so a call is seen
whichever name it goes through: ``stability.steady_branches`` and
``continuation.steady_branches`` are separate attributes holding the same
function, and both get its wrapper.  ``uninstall`` puts the originals
back.  Nothing under ``src/`` changes.

A span records its name, start, end, parent span and op id; spans stay in
memory (flat arrays) until ``summarize`` turns them into the per-layer
metrics and ``dump`` writes them out.  A span's self time is its duration
minus that of its direct children; calls are synchronous on one thread,
so children never overlap.  Forked pool workers record into their own
copy of the tracer, so their spans are lost: a traced run with a process
pool sees parent-side spans only.
"""

from __future__ import annotations

import functools
import importlib
import math
from array import array
from time import perf_counter

import numpy as np

import paths  # noqa: F401  (puts the source tree on sys.path)

#: Modules in pipeline order; each is a layer.
LAYERS = ("config", "params", "steady", "polyroots", "stability",
          "continuation", "io", "cli", "figures")

#: Modules whose attributes are scanned for traced functions.
_HOLDERS = ("twomode",) + tuple(f"twomode.{m}" for m in LAYERS + ("studies",))


def _rows_written(args, kwargs, result):
    rows_by_label = args[0] if args else kwargs["rows_by_label"]
    return sum(len(rows) for rows in rows_by_label.values()), math.nan


def _real_roots(args, kwargs, result):
    poly = args[0] if args else kwargs["p"]
    return len(result), poly.degree


def _classified(args, kwargs, result):
    branches, diagnostics = result
    return len(diagnostics), len(branches)


def _branches(args, kwargs, result):
    return len(result), math.nan


#: (layer, attribute, counter) of every traced function.  A counter maps
#: (args, kwargs, result) to two numbers kept with the span.
TARGETS = (
    ("config", "parse_config", None),
    ("params", "DrivePoint.build", None),
    ("steady", "steady_branches", _branches),
    ("steady", "_assemble", None),
    ("steady", "_polish_root", None),
    ("polyroots", "real_roots", _real_roots),
    ("polyroots", "all_roots", None),
    ("stability", "solve_and_classify", None),
    ("stability", "classify_branches", _classified),
    ("stability", "classify_stability", None),
    ("stability", "branch_eigenvalues", None),
    ("stability", "characteristic_polynomial", None),
    ("continuation", "sweep_1d", None),
    ("continuation", "hysteresis_sweep", None),
    ("continuation", "clamped_hysteresis_sweep", None),
    ("continuation", "locate_folds", None),
    ("continuation", "_solve_grid", None),
    ("continuation", "ProcessPoolExecutor", None),
    ("continuation", "_refine_count_change", None),
    ("io", "write_rows", _rows_written),
    ("io", "write_summary", None),
    ("cli", "main", None),
    ("figures", "run_preset", None),
    ("figures", "power_window", None),
)


class Tracer:
    """In-memory span store; records only while ``enabled``."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.count_a = array("d")
        self.count_b = array("d")
        self.stack: list = []
        self.op_id = -1
        self.enabled = False
        self._restore: list = []

    def intern(self, name) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def call(self, name_id, fn, counter, args, kwargs):
        """``fn(*args, **kwargs)``, inside a span while enabled.  The
        counter runs on normal returns only; a raising call keeps NaN."""
        if not self.enabled:
            return fn(*args, **kwargs)
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.op_id)
        self.count_a.append(math.nan)
        self.count_b.append(math.nan)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(perf_counter())
        try:
            result = fn(*args, **kwargs)
        finally:
            self.end[idx] = perf_counter()
            self.stack.pop()
        if counter is not None:
            self.count_a[idx], self.count_b[idx] = counter(args, kwargs, result)
        return result


def _wrapper(tracer, name, fn, counter):
    name_id = tracer.intern(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(name_id, fn, counter, args, kwargs)

    return traced


def install(tracer: Tracer) -> None:
    """Wrap every traced function at every module attribute holding it."""
    if tracer._restore:
        raise RuntimeError("wrappers are already installed")
    wrappers = {}
    for layer, attr, counter in TARGETS:
        module = importlib.import_module(f"twomode.{layer}")
        name = f"{layer}.{attr}"
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__.get(meth)
            if isinstance(original, classmethod):
                tracer._restore.append((cls, meth, original))
                setattr(cls, meth, classmethod(
                    _wrapper(tracer, name, original.__func__, counter)))
            continue
        original = getattr(module, attr, None)
        if original is not None:
            wrappers[id(original)] = (original,
                                      _wrapper(tracer, name, original, counter))
    for holder in _HOLDERS:
        module = importlib.import_module(holder)
        for key, value in list(vars(module).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                tracer._restore.append((module, key, value))
                setattr(module, key, hit[1])


def uninstall(tracer: Tracer) -> None:
    """Put back every attribute ``install`` replaced."""
    while tracer._restore:
        owner, key, value = tracer._restore.pop()
        setattr(owner, key, value)


def dump(tracer: Tracer, path) -> None:
    """Write the spans out (compressed ``.npz``, times in seconds)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(
        path, names=np.array(tracer.names),
        name=np.frombuffer(tracer.name, dtype=np.int32),
        start=np.frombuffer(tracer.start), end=np.frombuffer(tracer.end),
        parent=np.frombuffer(tracer.parent, dtype=np.int32),
        op=np.frombuffer(tracer.op, dtype=np.int32),
        count_a=np.frombuffer(tracer.count_a),
        count_b=np.frombuffer(tracer.count_b))


class _Spans:
    """Array view of a tracer's spans with the queries the metrics need."""

    def __init__(self, tracer: Tracer):
        self.names = tracer.names
        self.name = np.frombuffer(tracer.name, dtype=np.int32)
        self.parent = np.frombuffer(tracer.parent, dtype=np.int32)
        self.dur = (np.frombuffer(tracer.end)
                    - np.frombuffer(tracer.start))
        self.a = np.frombuffer(tracer.count_a)
        self.b = np.frombuffer(tracer.count_b)
        has_parent = self.parent >= 0
        child = np.zeros(len(self.dur))
        np.add.at(child, self.parent[has_parent], self.dur[has_parent])
        self.self_time = self.dur - child
        self.layer = np.array([n.split(".")[0] for n in self.names]
                              + [""])[self.name]

    def mask(self, name):
        if name not in self.names:
            return np.zeros(len(self.dur), dtype=bool)
        return self.name == self.names.index(name)

    def under(self, name):
        """Spans with an ancestor called ``name``."""
        if name not in self.names:
            return np.zeros(len(self.dur), dtype=bool)
        target = self.names.index(name)
        has = self.parent >= 0
        up = np.where(has, self.parent, 0)
        direct = has & (self.name[up] == target)
        flag = direct
        while True:   # one more generation per pass
            wider = direct | (has & flag[up])
            if np.array_equal(wider, flag):
                return flag
            flag = wider

    def caller_layer(self, mask):
        """Layer of the nearest ancestor outside the span's own layer."""
        out = []
        for i in np.nonzero(mask)[0]:
            own = self.layer[i]
            p = self.parent[i]
            while p >= 0 and self.layer[p] == own:
                p = self.parent[p]
            out.append(self.layer[p] if p >= 0 else "")
        return np.array(out, dtype=str)


def _ratio(num, den):
    return float(num) / float(den) if den else 0.0


def summarize(tracer: Tracer, n_ops: int, op_seconds: float) -> dict:
    """Per-layer metrics of a traced phase, by name.

    Counts are per op; times are inclusive of child spans unless named
    ``self``.  A metric whose function never ran is 0.
    """
    s = _Spans(tracer)
    m = {}

    def calls(name):
        return int(s.mask(name).sum())

    def us_per_call(name, mask=None):
        mask = s.mask(name) if mask is None else mask
        return _ratio(s.dur[mask].sum() * 1e6, mask.sum())

    solves = s.mask("steady.steady_branches")
    m["steady.steady_branches.calls"] = _ratio(solves.sum(), n_ops)
    m["steady.steady_branches.us_per_call"] = us_per_call(
        "steady.steady_branches")
    m["steady.steady_branches.self_us_per_call"] = _ratio(
        s.self_time[solves].sum() * 1e6, solves.sum())
    m["steady._assemble.us_per_call"] = us_per_call("steady._assemble")
    m["steady._polish_root.calls"] = _ratio(calls("steady._polish_root"),
                                            n_ops)
    m["steady._polish_root.us_per_call"] = us_per_call("steady._polish_root")
    m["steady.branches_per_solve"] = _ratio(np.nansum(s.a[solves]),
                                            solves.sum())

    real = s.mask("polyroots.real_roots")
    m["polyroots.real_roots.us_per_call"] = us_per_call("polyroots.real_roots")
    m["polyroots.real_accept_ratio"] = _ratio(np.nansum(s.a[real]),
                                              np.nansum(s.b[real]))
    roots = s.mask("polyroots.all_roots")
    callers = s.caller_layer(roots)
    for layer in ("steady", "stability"):
        picked = np.zeros(len(roots), dtype=bool)
        picked[np.nonzero(roots)[0][callers == layer]] = True
        m[f"polyroots.all_roots.us_per_call.{layer}"] = us_per_call(None, picked)

    classify = s.mask("stability.classify_branches")
    m["stability.classify_branches.us_per_call"] = us_per_call(
        "stability.classify_branches")
    m["stability.classify_stability.us_per_branch"] = us_per_call(
        "stability.classify_stability")
    m["stability.characteristic_polynomial.us_per_call"] = us_per_call(
        "stability.characteristic_polynomial")
    m["stability.branch_eigenvalues.us_per_call"] = us_per_call(
        "stability.branch_eigenvalues")
    m["stability.diagnostics_per_op"] = _ratio(np.nansum(s.a[classify]),
                                               n_ops)

    in_scan = solves & s.under("continuation.locate_folds")
    in_refine = solves & s.under("continuation._refine_count_change")
    m["continuation.locate_folds.solves_per_call"] = _ratio(
        in_scan.sum(), calls("continuation.locate_folds"))
    m["continuation.locate_folds.scan_solve_share"] = _ratio(
        (in_scan & ~in_refine).sum(), in_scan.sum())
    m["continuation._refine_count_change.calls"] = _ratio(
        calls("continuation._refine_count_change"), n_ops)
    m["continuation._refine_count_change.solves_per_call"] = _ratio(
        in_refine.sum(), calls("continuation._refine_count_change"))
    grid = s.mask("continuation._solve_grid")
    m["continuation._solve_grid.wall_ms"] = us_per_call(None, grid) / 1e3
    pools = s.mask("continuation.ProcessPoolExecutor")
    m["continuation._solve_grid.pool_used"] = _ratio(
        np.isin(np.nonzero(grid)[0], s.parent[pools]).sum(), grid.sum())
    clamped = s.mask("continuation.clamped_hysteresis_sweep")
    attempts = s.mask("continuation.hysteresis_sweep") & np.isin(
        s.parent, np.nonzero(clamped)[0])
    m["continuation.clamped_hysteresis_sweep.attempts_per_call"] = _ratio(
        attempts.sum(), clamped.sum())
    rows = np.nansum(s.a[s.mask("io.write_rows")])
    sweeping = np.zeros(len(solves), dtype=bool)
    for name in ("continuation.sweep_1d", "continuation.hysteresis_sweep"):
        sweeping |= s.under(name)
    m["continuation.solves_per_row"] = _ratio(
        (solves & sweeping).sum(), rows)

    m["params.DrivePoint.build.calls"] = _ratio(
        calls("params.DrivePoint.build"), n_ops)
    m["params.DrivePoint.build.us_per_call"] = us_per_call(
        "params.DrivePoint.build")
    m["figures.power_window.ms_per_call"] = us_per_call(
        "figures.power_window") / 1e3
    main = s.mask("cli.main")
    m["cli.main.self_ms"] = _ratio(s.self_time[main].sum() * 1e3, main.sum())
    m["config.parse_config.us_per_call"] = us_per_call("config.parse_config")
    m["io.write_rows.us_per_row"] = _ratio(
        s.dur[s.mask("io.write_rows")].sum() * 1e6, rows)
    m["io.write_summary.us_per_call"] = us_per_call("io.write_summary")

    for layer in LAYERS:
        m[f"{layer}.self_share"] = _ratio(
            s.self_time[s.layer == layer].sum(), op_seconds)
    m["trace.spans_per_op"] = _ratio(len(s.dur), n_ops)
    return m
