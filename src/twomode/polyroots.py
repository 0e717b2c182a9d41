"""Real-coefficient polynomials and deterministic root extraction.

Coefficients are stored ascending (``coeffs[i]`` multiplies ``x**i``).
Roots are the eigenvalues of the companion matrix ``np.roots`` builds
(:func:`companion_roots`), followed by a residual audit on Python complex
numbers; real-root selection adds a Newton polish and tolerance-based
deduplication on Python floats.  The row forms at the end of the module
keep only the common path: a row that would need the audit's rescue, a
polish step or a merge is left out of their ``ok`` mask for the caller
to solve.  Identical inputs produce bit-identical outputs on a
given platform: there is no randomness anywhere in this module, and
results are sorted canonically before they are returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PolynomialError

# Relative magnitude below which a leading coefficient is treated as zero.
_TRIM_REL = 1e-14
# Residual acceptance for all_roots, relative to the local coefficient scale.
_ROOT_RESIDUAL_REL = 1e-10
# Newton polish targets for real_roots.
_POLISH_RESIDUAL_REL = 1e-13
_POLISH_MAX_ITER = 50
# Real roots closer than this (relative) are collapsed into one.
_DEDUP_REL = 1e-8


def trim_coeffs(coeffs) -> list:
    """``coeffs`` as floats, without the leading (highest-degree) ones
    below ``1e-14 * max|c|``, so the degree is honest."""
    arr = list(map(float, coeffs))
    if not arr:
        raise PolynomialError("empty coefficient sequence")
    if not all(map(math.isfinite, arr)):
        raise PolynomialError(f"non-finite coefficient in {arr!r}")
    top = max(map(abs, arr))
    if top == 0.0:
        raise PolynomialError("zero polynomial has no defined roots")
    cut = _TRIM_REL * top
    while len(arr) > 1 and abs(arr[-1]) <= cut:
        arr.pop()
    return arr


def mul_coeffs(a, b) -> list:
    """Trimmed product of two coefficient sequences, summed in ascending
    order of a's index as :func:`mul_rows` sums (np.convolve does not)."""
    prod = [0.0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    return trim_coeffs(prod)


def _horner(coeffs, x):
    """Ascending ``coeffs`` at x; scalars or arrays, real or complex.  A
    (k, n, 1) stack of k coefficient columns evaluates n rows at x (n, m)."""
    acc = x * 0.0 + coeffs[-1]
    for c in coeffs[-2::-1]:
        acc = acc * x + c
    return acc


def _residual_scale(coeffs, r) -> float:
    """max_i |c_i| * |r|**i, the natural size of the polynomial near r."""
    m, best, power = abs(r), 0.0, 1.0
    for c in coeffs:
        term = abs(c) * power
        if term > best:
            best = term
        power *= m
    return best


@dataclass(frozen=True)
class RealPolynomial:
    """Polynomial with real coefficients, ascending order, trimmed; the
    root finders read ``coeffs`` with :func:`_horner`."""

    coeffs: tuple

    @classmethod
    def from_coeffs(cls, coeffs) -> "RealPolynomial":
        """Build from any coefficient sequence, see :func:`trim_coeffs`."""
        return cls(coeffs=tuple(trim_coeffs(coeffs)))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x):
        """Horner evaluation; accepts scalars or arrays, real or complex."""
        return _horner(self.coeffs, x)

    def derivative(self) -> "RealPolynomial":
        der = tuple(i * c for i, c in enumerate(self.coeffs) if i > 0)
        return RealPolynomial(coeffs=der or (0.0,))

    def residual_scale(self, r) -> float:
        """max_i |c_i| * |r|**i, the natural size of p near r."""
        return _residual_scale(self.coeffs, r)


def companion_roots(coeffs) -> np.ndarray:
    """``np.roots`` of the ascending ``coeffs``, bit for bit: its companion
    matrix, without zero leading coefficients and with zero constant terms
    as exact zero roots after the eigenvalues.  A failed eigenvalue
    iteration raises PolynomialError."""
    nonzero = [i for i, c in enumerate(coeffs) if c != 0.0] or [0]
    low, high = nonzero[0], nonzero[-1]
    companion = np.eye(high - low, k=-1)
    companion[:1] = [-c / coeffs[high] for c in reversed(coeffs[low:high])]
    try:
        roots = np.linalg.eigvals(companion)
    except np.linalg.LinAlgError as exc:
        raise PolynomialError(
            f"companion eigenvalue iteration failed: {exc}") from exc
    return np.concatenate((roots, np.zeros(low, roots.dtype))) if low else roots


def all_roots(p: RealPolynomial) -> np.ndarray:
    """All complex roots, exactly ``p.degree`` of them, canonically sorted.

    Roots come from :func:`companion_roots`.  Each is audited against
    ``|p(r)| <= 1e-10 * scale(r)``; a failing root gets a short
    complex-Newton rescue and a persistent failure raises
    ``PolynomialError``.  Complex roots of real polynomials arrive in
    conjugate pairs.
    """
    if p.degree < 1:
        raise PolynomialError(f"degree must be >= 1 to extract roots, got {p.degree}")
    coeffs = p.coeffs
    roots = companion_roots(coeffs)
    if len(roots) != p.degree:
        raise PolynomialError(
            f"expected {p.degree} roots, companion path produced {len(roots)}")
    polished = []
    for r in roots.tolist():
        # the absolute floor keeps the bound satisfiable when the local
        # coefficient scale underflows (subnormal coefficients)
        limit = max(_ROOT_RESIDUAL_REL * _residual_scale(coeffs, r), 1e-290)
        if abs(_horner(coeffs, r)) > limit:
            r = _newton(coeffs, p.derivative().coeffs, complex(r),
                        _ROOT_RESIDUAL_REL)
            limit = max(_ROOT_RESIDUAL_REL * _residual_scale(coeffs, r), 1e-290)
            if abs(_horner(coeffs, r)) > limit:
                raise PolynomialError(
                    f"root {r!r} fails residual bound for {coeffs!r}")
        polished.append(complex(r))
    polished.sort(key=lambda z: (z.real, z.imag))
    return np.asarray(polished, dtype=complex)


def _newton(coeffs, slope, x, target_rel: float):
    """Damped Newton refinement of a root of ``coeffs``, whose derivative
    has the coefficients ``slope``; returns the best iterate seen."""
    fx = _horner(coeffs, x)
    best, best_res = x, abs(fx)
    for _ in range(_POLISH_MAX_ITER):
        if abs(fx) <= target_rel * _residual_scale(coeffs, x):
            return x
        dfx = _horner(slope, x)
        if dfx == 0.0:
            break
        x = x - fx / dfx
        fx = _horner(coeffs, x)
        res = abs(fx)
        if res < best_res:
            best, best_res = x, res
    return best


def real_roots(p: RealPolynomial, imag_tol: float = 1e-7) -> np.ndarray:
    """Distinct real roots of p, ascending.

    A complex root is accepted as real when ``|Im r| <= imag_tol * (1 +
    |Re r|)``.  Survivors are polished by real Newton iteration (at most
    50 steps, stopping at ``|p| <= 1e-13 * scale``) and deduplicated at
    relative distance 1e-8; a collapsed multiple root appears once.
    """
    if imag_tol <= 0.0:
        raise PolynomialError(f"imag_tol must be positive, got {imag_tol!r}")
    coeffs, slope = p.coeffs, p.derivative().coeffs
    candidates = []
    for r in all_roots(p).tolist():
        if abs(r.imag) <= imag_tol * (1.0 + abs(r.real)):
            candidates.append(_newton(coeffs, slope, r.real,
                                      _POLISH_RESIDUAL_REL))
    return np.asarray(merge_close(candidates, coeffs, _DEDUP_REL), dtype=float)


def merge_close(xs, coeffs, rel: float) -> list:
    """The real points ``xs`` ascending, each within ``rel * (1 + |x|)``
    of the last one kept merged with it into whichever of the two has the
    smaller residual of ``coeffs``."""
    out = []
    for x in sorted(xs):
        if out and abs(x - out[-1]) <= rel * (1.0 + abs(x)):
            if abs(_horner(coeffs, x)) < abs(_horner(coeffs, out[-1])):
                out[-1] = x
        else:
            out.append(x)
    return out


# Row-wise forms of the above: each row of a (n, k) coefficient array is one
# polynomial, ascending, and every operation is the scalar one applied
# elementwise in the same order.

def trim_rows(coeffs: np.ndarray) -> np.ndarray:
    """:func:`trim_coeffs` over rows, keeping the shape.

    Negligible leading coefficients become 0.0, so the degree of a row is
    the index of its last nonzero entry.  A row with a non-finite
    coefficient becomes all-NaN, where the scalar form would raise.
    """
    bad = ~np.isfinite(coeffs).all(axis=1)
    mag = np.abs(coeffs)
    keep = mag > _TRIM_REL * mag.max(axis=1, keepdims=True)
    keep = np.logical_or.accumulate(keep[:, ::-1], axis=1)[:, ::-1]
    keep[:, 0] = True
    out = np.where(keep, coeffs, 0.0)
    out[bad] = np.nan
    return out


def mul_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-by-row product of two coefficient arrays, summed as
    :func:`mul_coeffs` sums."""
    out = np.zeros((a.shape[0], a.shape[1] + b.shape[1] - 1))
    for i in range(a.shape[1]):
        out[:, i:i + b.shape[1]] += a[:, i:i + 1] * b
    return out


def _scale_rows(coeffs, x):
    """:func:`_residual_scale` of each row at the entries of x.

    The powers of |x| are the scalar form's running product, one slab of
    a (k, n, m) stack per step, so the stack is scaled and reduced once.
    """
    power = np.empty((coeffs.shape[1],) + x.shape)
    power[0] = 1.0
    power[1:] = np.abs(x)
    np.multiply.accumulate(power, axis=0, out=power)
    power *= np.abs(coeffs).T[:, :, None]
    return power.max(axis=0)


def all_roots_rows(coeffs: np.ndarray) -> tuple:
    """:func:`all_roots` of many polynomials of one degree d at once.

    ``coeffs`` is (n, d + 1), ascending, with a nonzero last column.
    Returns ``(roots, ok)``: the (n, d) complex companion eigenvalues of
    each row, unsorted, and a mask of the rows whose roots all pass the
    residual audit.  On a row in the mask with a nonzero constant term,
    :func:`all_roots` returns these roots unchanged (it strips a zero
    constant term into a smaller companion matrix).  A row outside the
    mask failed the audit or its eigenvalue iteration; each caller says
    what solves it.
    """
    n, d = coeffs.shape[0], coeffs.shape[1] - 1
    desc = coeffs[:, ::-1]
    companion = np.zeros((n, d, d))
    companion[:, 0, :] = -desc[:, 1:] / desc[:, :1]
    sub = np.arange(d - 1)
    companion[:, sub + 1, sub] = 1.0
    ok = np.isfinite(companion[:, 0, :]).all(axis=1)
    companion[~ok] = 0.0
    try:
        roots = np.linalg.eigvals(companion).astype(complex, copy=False)
    except np.linalg.LinAlgError:
        return np.full((n, d), np.nan + 0j), np.zeros(n, dtype=bool)
    limit = np.maximum(_ROOT_RESIDUAL_REL * _scale_rows(coeffs, roots), 1e-290)
    ok &= (np.abs(_horner(coeffs.T[:, :, None], roots)) <= limit).all(axis=1)
    return roots, ok


def real_roots_rows(coeffs: np.ndarray, imag_tol: float) -> tuple:
    """:func:`real_roots` of many polynomials of one degree d at once.

    ``coeffs`` is (n, d + 1), ascending, trimmed (nonzero last column), with
    a nonzero constant term.  Returns ``(roots, ok)``: the real roots of each
    row, ascending and NaN-padded to (n, d), and a mask of the rows whose
    roots are exactly what :func:`real_roots` computes.  The roots are not
    polished or merged, so the mask holds only rows where neither path
    would act.  A row outside the mask needs a path only the scalar form
    has: the complex-Newton rescue of a root failing the residual audit, a
    Newton polish step (a real root with ``|p| > 1e-13 * scale``), the
    merge of two real roots within 1e-8 relative, or a failed eigenvalue
    iteration.
    """
    roots, ok = all_roots_rows(coeffs)
    real = np.abs(roots.imag) <= imag_tol * (1.0 + np.abs(roots.real))
    x = np.where(real, roots.real, np.nan)
    # the test real_roots' Newton polish makes before its first step
    stays = (np.abs(_horner(coeffs.T[:, :, None], x))
             <= _POLISH_RESIDUAL_REL * _scale_rows(coeffs, x))
    ok &= (stays | ~real).all(axis=1)
    x.sort(axis=1)
    close = np.abs(x[:, 1:] - x[:, :-1]) <= _DEDUP_REL * (1.0 + np.abs(x[:, 1:]))
    ok &= ~close.any(axis=1)
    return x, ok
