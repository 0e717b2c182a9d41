"""Seeded operating points for the ``point_cloud`` workload, stratified by
branch count.

Devices are drawn around the preset the way the AC1 audit draws them:
both couplings over a decade, mechanical Q log-uniform from 2 to the
preset's 87e3.  Unstratified full-domain drives are almost all
single-branch (about 1984/15/1 out of 2000 for 1/3/5 roots), which would
hide the cost that multi-branch points put on polish and classify, so the
set is filled to fixed quotas per branch count:

- 1 root: full-domain drives (powers 1 pW to 100 mW, detunings within
  twice the mechanical frequency either side), as in AC1;
- 3 roots: one mode red-detuned by 2 or more linewidths, powered so that
  its force Lorentzian peaks at 1.5 to 4 times its own position
  q_k = delta_k / g_k; the other drive is full-domain;
- 5 roots: both modes placed that way with their peaks well apart
  (q_hi / q_lo between 5 and 15).

A peaked mode is detuned by at most four mechanical frequencies: the
5-root geometry needs the far peak's detuning above about 1.7 omega_m,
so the full-domain limit of two would leave almost no room for it.

A draw whose branch count belongs to a stratum that is still open is
kept, whichever drawer produced it; every other draw is rejected.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import paths  # noqa: F401  (puts the source tree on sys.path)
from twomode.errors import SolverError
from twomode.params import HBAR, DrivePoint, preset_hill_params, replace_params
from twomode.steady import SolverOptions, steady_branches

#: Branch count -> points per run.
RUN_QUOTAS = {1: 600, 3: 300, 5: 100}
#: Branch count -> points in the committed pool each run samples from.
POOL_QUOTAS = {1: 900, 3: 450, 5: 150}

_POWER_RANGE = (1e-12, 1e-1)
_DETUNING_SPAN = 2.0
_PEAK_HEIGHT = (1.5, 4.0)      # peak force over the peak's own position
_MIN_DETUNING = 2.0            # in linewidths; folds need more than sqrt(3)
_PEAK_DETUNING_SPAN = 4.0      # in mechanical frequencies
_PEAK_SPACING = (5.0, 15.0)    # q_hi / q_lo of the two peaks


@dataclass(frozen=True)
class Point:
    """One operating point: device overrides on the preset plus a drive."""

    g1: float
    g2: float
    q_m: float
    delta1: float
    delta2: float
    power_l: float
    power_r: float

    def params(self, preset):
        return replace_params(preset, g1=self.g1, g2=self.g2, q_m=self.q_m)

    def drive(self, params):
        return DrivePoint.build(params, delta1=self.delta1, delta2=self.delta2,
                                power_l=self.power_l, power_r=self.power_r)


def _log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _device(rng, preset):
    return (preset.g1 * 10.0 ** rng.uniform(-0.5, 0.5),
            preset.g2 * 10.0 ** rng.uniform(-0.5, 0.5),
            10.0 ** rng.uniform(math.log10(2.0), math.log10(preset.q_m)))


def _full_domain(rng, wm):
    return (rng.uniform(-_DETUNING_SPAN, _DETUNING_SPAN) * wm,
            _log_uniform(rng, *_POWER_RANGE))


def _mode(preset, k):
    """(omega_k, kappa_k, kappa_e_k) of optical mode k (1 or 2)."""
    if k == 1:
        return preset.omega1, preset.kappa1, preset.kappa_e1
    return preset.omega2, preset.kappa2, preset.kappa_e2


def _peaked(rng, preset, k, g, delta):
    """Pump power putting mode k's force peak at 1.5 to 4 times q_k.

    The peak of (2/omega_m) g A / (kappa^2 + (delta - g q)^2) sits at
    q_k = delta/g with value (2/omega_m) g A / kappa^2, A = kappa_e E^2,
    and the literal convention has E^2 = 2 P kappa / (hbar omega_laser).
    """
    omega, kappa, kappa_e = _mode(preset, k)
    height = rng.uniform(*_PEAK_HEIGHT)
    q_k = delta / g
    amp2 = height * q_k * kappa * kappa * preset.omega_m / (2.0 * g * kappa_e)
    return amp2 * HBAR * (omega - delta) / (2.0 * kappa)


def _draw(rng, preset, stratum):
    """Candidate point for a stratum, or None when the geometry misses."""
    g1, g2, q_m = _device(rng, preset)
    wm = preset.omega_m
    top = _PEAK_DETUNING_SPAN * wm
    if stratum == 1:
        d1, p1 = _full_domain(rng, wm)
        d2, p2 = _full_domain(rng, wm)
        return Point(g1, g2, q_m, d1, d2, p1, p2)
    gs = {1: g1, 2: g2}
    kappas = {1: preset.kappa1, 2: preset.kappa2}
    deltas, powers = {}, {}
    low = rng.choice((1, 2))
    kappa = kappas[low]
    deltas[low] = rng.uniform(_MIN_DETUNING * kappa, top)
    powers[low] = _peaked(rng, preset, low, gs[low], deltas[low])
    high = 3 - low
    if stratum == 3:
        deltas[high], powers[high] = _full_domain(rng, wm)
    else:
        q_high = rng.uniform(*_PEAK_SPACING) * deltas[low] / gs[low]
        deltas[high] = gs[high] * q_high
        if not _MIN_DETUNING * kappas[high] <= deltas[high] <= top:
            return None
        powers[high] = _peaked(rng, preset, high, gs[high], deltas[high])
    return Point(g1, g2, q_m, deltas[1], deltas[2], powers[1], powers[2])


@dataclass
class Draws:
    """Bookkeeping of one generation: kept points and rejected draws."""

    points: dict            # branch count -> [Point, ...] in draw order
    drawn: int = 0
    missed: int = 0         # geometry outside the detuning window
    raised: int = 0         # the solver raised; such draws are not kept
    surplus: int = 0        # branch count of a full or unknown stratum


def generate(seed, quotas=POOL_QUOTAS, options=SolverOptions()) -> Draws:
    """Fill each branch-count stratum to its quota; deterministic per seed.

    Strata are drawn round-robin among those still open; a draw counts
    for whichever stratum its branch count (from ``steady_branches``)
    names, if that one is still open.
    """
    rng = random.Random(seed)
    preset = preset_hill_params()
    out = Draws(points={n: [] for n in quotas})
    while True:
        open_strata = [n for n in quotas if len(out.points[n]) < quotas[n]]
        if not open_strata:
            return out
        for stratum in open_strata:
            out.drawn += 1
            point = _draw(rng, preset, stratum)
            if point is None:
                out.missed += 1
                continue
            params = point.params(preset)
            try:
                count = len(steady_branches(params, point.drive(params),
                                            options))
            except SolverError:
                out.raised += 1
                continue
            bucket = out.points.get(count)
            if bucket is None or len(bucket) >= quotas[count]:
                out.surplus += 1
                continue
            bucket.append(point)


def run_sample(pool, seed, quotas=RUN_QUOTAS) -> list:
    """Indices into ``pool`` for one run: a seeded stratified sample of
    ``quotas`` points, in seeded order.  ``pool`` entries carry a
    ``"count"`` key."""
    rng = random.Random(seed)
    chosen = []
    for count, quota in sorted(quotas.items()):
        members = [i for i, e in enumerate(pool) if e["count"] == count]
        chosen.extend(rng.sample(members, quota))
    rng.shuffle(chosen)
    return chosen
