"""Real-coefficient polynomials and deterministic root extraction.

Coefficients are stored ascending (``coeffs[i]`` multiplies ``x**i``).
Roots are the eigenvalues of the companion matrix ``np.roots`` builds
(:func:`companion_roots`).  :func:`real_roots` picks the real roots in
an interval by one rule: a real eigenvalue is a root exactly when the
polynomial changes sign across its bracket, the span between the
midpoints with its neighbouring eigenvalue positions.  It returns each
root with its bracket for a polish, and nothing is merged or filtered
by a tolerance.  The row forms at the end of the module share one
stacked companion builder: :func:`real_roots_rows` leaves a row that
needs a path only the scalar form has out of its ``ok`` mask for the
caller to solve, and :func:`all_roots_rows` audits the residual of every
eigenvalue.  Identical inputs produce bit-identical outputs on a given
platform: there is no randomness anywhere in this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PolynomialError

# Relative magnitude below which a leading coefficient is treated as zero.
_TRIM_REL = 1e-14
# Residual acceptance of all_roots_rows, relative to the local coefficient
# scale.
_ROOT_RESIDUAL_REL = 1e-10


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


def real_roots(p: RealPolynomial, lo: float, hi: float) -> list:
    """The real roots of p in (lo, hi), by one sign-change rule.

    The positions are the real parts of p's companion eigenvalues inside
    (lo, hi), ascending.  Each position's bracket runs from the midpoint
    with the position below it to the midpoint with the one above, with
    lo and hi closing the end brackets.  A real eigenvalue is a root
    exactly when p changes sign across its bracket; a zero value counts
    as negative, so a root on a shared end is claimed once.  A complex
    position splits its bracket at itself: a sign change in a half is a
    close real pair that came back as complex, and that half is the root's
    bracket, started from its midpoint, as (lo, hi) is when it holds no
    position.  Returns ``[(start, left, right), ...]`` ascending, for a
    polish clamped to [left, right].
    """
    coeffs = p.coeffs
    inside = sorted((z.real, z.imag != 0.0)
                    for z in companion_roots(coeffs).tolist()
                    if lo < z.real < hi)
    xs = [x for x, _ in inside]
    edges = [lo] + [0.5 * (a + b) for a, b in zip(xs, xs[1:])] + [hi]
    above = [_horner(coeffs, e) > 0.0 for e in edges]
    if not inside:
        return [(0.5 * (lo + hi), lo, hi)] if above[0] != above[1] else []
    found = []
    for (x, complex_), a, b, pa, pb in zip(inside, edges, edges[1:], above,
                                           above[1:]):
        if not complex_:
            if pa != pb:
                found.append((x, a, b))
            continue
        px = _horner(coeffs, x) > 0.0
        if pa != px:
            found.append((0.5 * (a + x), a, x))
        if px != pb:
            found.append((0.5 * (x + b), x, b))
    return found


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
    """max_i |c_i| * |x|**i, the natural size of each row's polynomial
    near each entry of x.

    The powers of |x| are a running product, one slab of a (k, n, m)
    stack per step, so the stack is scaled and reduced once.
    """
    power = np.empty((coeffs.shape[1],) + x.shape)
    power[0] = 1.0
    power[1:] = np.abs(x)
    np.multiply.accumulate(power, axis=0, out=power)
    power *= np.abs(coeffs).T[:, :, None]
    return power.max(axis=0)


def _companion_rows(coeffs: np.ndarray) -> tuple:
    """Companion eigenvalues of many polynomials of one degree d at once.

    ``coeffs`` is (n, d + 1), ascending, with a nonzero last column.
    Returns ``(roots, ok)``: the (n, d) complex eigenvalues of each row's
    companion matrix, unsorted, and a mask of the rows with a finite
    companion matrix.  On a row in the mask with a nonzero constant term
    they are :func:`companion_roots` of the row, bit for bit (that strips
    a zero constant term into a smaller matrix).  A failed eigenvalue
    iteration leaves every row out of the mask.
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
    return roots, ok


def all_roots_rows(coeffs: np.ndarray) -> tuple:
    """:func:`_companion_rows` with a residual audit: ``ok`` keeps only
    the rows whose roots r all satisfy ``|p(r)| <= 1e-10 * scale(r)``
    (at least 1e-290, for subnormal coefficients).  A row outside the
    mask failed the audit or its eigenvalue iteration; each caller says
    what solves it.
    """
    roots, ok = _companion_rows(coeffs)
    limit = np.maximum(_ROOT_RESIDUAL_REL * _scale_rows(coeffs, roots), 1e-290)
    ok &= (np.abs(_horner(coeffs.T[:, :, None], roots)) <= limit).all(axis=1)
    return roots, ok


def real_roots_rows(coeffs: np.ndarray, lo: np.ndarray,
                    hi: np.ndarray) -> tuple:
    """:func:`real_roots` of many polynomials of one degree d at once.

    ``coeffs`` is (n, d + 1), ascending, trimmed (nonzero last column),
    with a nonzero constant term; ``lo`` and ``hi`` are (n, 1) columns.
    Returns ``(start, left, right, ok)``: (n, d) arrays that hold each
    row's roots as :func:`real_roots` gives them, one column per position
    and NaN where a position is not a root, and a mask of the rows where
    that is all :func:`real_roots` returns.  A row outside the mask has a
    failed eigenvalue iteration, no position inside (lo, hi), or a sign
    change in a half bracket of a complex position.
    """
    roots, ok = _companion_rows(coeffs)
    x = np.where((lo < roots.real) & (roots.real < hi), roots.real, np.nan)
    order = np.argsort(x, axis=1)
    x = np.take_along_axis(x, order, axis=1)
    complex_ = np.take_along_axis(roots.imag != 0.0, order, axis=1)
    inside = ~np.isnan(x)
    mid = 0.5 * (x[:, :-1] + x[:, 1:])
    left = np.concatenate((lo, mid), axis=1)
    right = np.concatenate((mid, np.full_like(lo, np.nan)), axis=1)
    right = np.where(inside & np.isnan(right), hi, right)
    above = _horner(coeffs.T[:, :, None],
                    np.concatenate((left, right, x), axis=1)) > 0.0
    pl, pr, px = np.split(above, 3, axis=1)
    halves = complex_ & ((pl != px) | (px != pr))
    ok &= inside[:, 0] & ~(inside & halves).any(axis=1)
    root = inside & ~complex_ & (pl != pr)
    return (np.where(root, x, np.nan), np.where(root, left, np.nan),
            np.where(root, right, np.nan), ok)
