"""Root-finder contracts: residual bounds, pairing, the sign rule, determinism."""

import math
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
import sampling
from twomode import continuation
from twomode.errors import PolynomialError
from twomode.polyroots import RealPolynomial, companion_roots, real_roots


def poly(*ascending):
    return RealPolynomial.from_coeffs(ascending)


def test_trimming_and_degree():
    p = poly(1.0, 2.0, 3.0)
    assert p.degree == 2
    trimmed = RealPolynomial.from_coeffs([1.0, 2.0, 1e-20])
    assert trimmed.degree == 1
    kept = RealPolynomial.from_coeffs([1e-20, 2.0])
    assert kept.degree == 1 and kept.coeffs[0] == 1e-20


def test_construction_errors():
    with pytest.raises(PolynomialError):
        RealPolynomial.from_coeffs([])
    with pytest.raises(PolynomialError):
        RealPolynomial.from_coeffs([0.0, 0.0])
    with pytest.raises(PolynomialError):
        RealPolynomial.from_coeffs([1.0, math.nan])
    with pytest.raises(PolynomialError):
        RealPolynomial.from_coeffs([1.0, math.inf])


def test_horner_evaluation_matches_direct():
    p = poly(-1.0, 0.0, 1.0)        # x^2 - 1
    assert p(2.0) == 3.0
    assert p(0.0) == -1.0
    x = np.array([0.0, 1.0, -1.0, 2.0])
    assert np.array_equal(p(x), x**2 - 1.0)
    assert p(1j) == pytest.approx(-2.0 + 0j)


def test_all_roots_factorable_pair():
    roots = companion_roots(poly(-1.0, 0.0, 1.0).coeffs)
    assert np.allclose(sorted(roots.real), [-1.0, 1.0])
    assert np.allclose(roots.imag, 0.0)


def test_all_roots_conjugate_pair():
    roots = companion_roots(poly(1.0, 0.0, 1.0).coeffs)   # x^2 + 1
    assert len(roots) == 2
    assert np.allclose(sorted(roots.imag), [-1.0, 1.0])
    assert np.allclose(roots.real, 0.0)
    # both members share one real part, exactly: the sign rule's halves
    assert roots[0].real == roots[1].real


def test_all_roots_degree_and_errors():
    assert len(companion_roots(poly(3.0).coeffs)) == 0
    assert real_roots(poly(3.0), -1.0, 1.0) == []
    with pytest.raises(PolynomialError):
        real_roots(poly(1.0, math.inf, 1.0), -1.0, 1.0)


def _companion_cases():
    """Seeded ascending coefficient lists of degree 1 to 12, each also with
    one and two zero constant terms, zero leading coefficients, and
    scaled into the subnormal range; then the degenerate lists."""
    rng = random.Random(0xC0)
    cases = []
    for degree in range(1, 13):
        for _ in range(10):
            c = [rng.uniform(-1.0, 1.0) * 10.0 ** rng.uniform(-8.0, 8.0)
                 for _ in range(degree + 1)]
            cases += [c, [0.0] + c, [0.0, 0.0] + c, c + [0.0], c + [0.0, 0.0],
                      [x * 1e-300 * 1e-16 for x in c], [5e-324] + c[1:]]
    return cases + [[0.0, 0.0], [2.0], [0.0, 3.0], [0.0, 0.0, 1.0, 0.0]]


def test_companion_roots_are_np_roots_bit_for_bit(monkeypatch):
    # the fold lists and real_roots build np.roots' companion themselves; a
    # numpy change that moves np.roots shows here
    recorded = []
    monkeypatch.setattr(continuation, "companion_roots",
                        lambda c: recorded.append(c) or companion_roots(c))
    rng = random.Random(0xF01D)
    for _ in range(5):
        params, drive, axis, lo, hi, options = sampling.draw_detuning_window(rng)
        continuation._detuning_folds(params, drive, axis, lo, hi, options)
    assert {len(c) for c in recorded} == {13}     # the degree-12 fold shape
    for coeffs in _companion_cases() + recorded:
        got, want = companion_roots(coeffs), np.roots(coeffs[::-1])
        assert got.dtype == want.dtype, coeffs
        assert got.tobytes() == want.tobytes(), coeffs
    # np.roots raises LinAlgError here
    with pytest.raises(PolynomialError, match="eigenvalue iteration failed"):
        companion_roots([1.0, math.inf, 1.0])


def test_all_roots_contract_random_quintics():
    # construct-then-solve: 1000 seeded degree-5 instances with known
    # real roots in [-10, 10]
    rng = random.Random(1234)
    for _ in range(1000):
        known = sorted(rng.uniform(-10.0, 10.0) for _ in range(5))
        if min(b - a for a, b in zip(known[:-1], known[1:])) < 1e-3:
            continue
        lead = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)
        p = oracles.from_roots(known, leading=lead)
        roots = companion_roots(p.coeffs)
        assert len(roots) == 5
        got = sorted(roots.real)
        for a, b in zip(known, got):
            assert b == pytest.approx(a, rel=1e-7, abs=1e-7)
        # the residual bound of the stacked root audit
        for r in roots:
            assert abs(p(r)) <= 1e-10 * oracles.residual_scale(p.coeffs, r)
        got = [x for x, _, _ in real_roots(p, -11.0, 11.0)]
        assert got == sorted(roots.real.tolist())


def test_conjugate_symmetry_random():
    rng = random.Random(99)
    for _ in range(200):
        coeffs = [rng.uniform(-5, 5) for _ in range(rng.randint(3, 7))]
        if max(abs(c) for c in coeffs) == 0.0 or abs(coeffs[-1]) < 1e-3:
            continue
        p = RealPolynomial.from_coeffs(coeffs)
        if p.degree < 1:
            continue
        roots = list(companion_roots(p.coeffs))
        for r in roots:
            if abs(r.imag) > 1e-9 * (1.0 + abs(r)):
                partner = min(roots, key=lambda z: abs(z - r.conjugate()))
                assert abs(partner - r.conjugate()) <= 1e-9 * (1.0 + abs(r))


def _starts(p, lo, hi):
    return [x for x, _, _ in real_roots(p, lo, hi)]


def test_real_roots_factorable_cubic():
    p = poly(0.0, -1.0, 0.0, 1.0)                   # x^3 - x
    assert np.allclose(_starts(p, -2.0, 2.0), [-1.0, 0.0, 1.0], atol=1e-12)
    # each root comes with its bracket: the midpoints with its neighbours
    assert [(a, b) for _, a, b in real_roots(p, -2.0, 2.0)] == pytest.approx(
        [(-2.0, -0.5), (-0.5, 0.5), (0.5, 2.0)], abs=1e-12)
    # only the positions inside (lo, hi) count
    assert np.allclose(_starts(p, -0.5, 2.0), [0.0, 1.0], atol=1e-12)


def test_real_roots_none():
    assert real_roots(poly(1.0, 0.0, 1.0), -5.0, 5.0) == []


def test_real_roots_double_root_cluster():
    # (x-2)^2 (x+1): p touches zero at the double root without changing
    # sign.  Its eigenvalues split into a close pair, and the sign p takes
    # between them decides whether the rule reports the double root
    # twice or not at all; the simple root stays put, and the parity of
    # the count is the parity of the sign change across (lo, hi)
    p = oracles.from_roots([2.0, 2.0, -1.0])
    got = _starts(p, -3.0, 5.0)
    assert len(got) in (1, 3)
    assert got[0] == pytest.approx(-1.0, rel=1e-9)
    for r in got[1:]:
        assert r == pytest.approx(2.0, rel=1e-6)


@pytest.mark.xfail(strict=True, reason=(
    "known defect: real_roots reports a tangency, a double root where p "
    "keeps its sign, twice or not at all"))
def test_real_roots_counts_a_tangency_once():
    # (x-2)^2 (x+1) has two distinct real roots, -1 and the double root 2
    p = oracles.from_roots([2.0, 2.0, -1.0])
    assert len(_starts(p, -3.0, 5.0)) == 2


def test_real_roots_polish_hits_tight_residual():
    # the starts are companion eigenvalues; on well-separated roots they
    # already meet a tight residual, so the polish starts at a root
    p = oracles.from_roots([1.0, 3.0, 7.0], leading=2.5)
    for r in _starts(p, 0.0, 10.0):
        assert abs(p(r)) <= 1e-12 * oracles.residual_scale(p.coeffs, r)


def test_real_roots_close_pair_in_a_complex_half():
    # roots 1 and 1 + 2e-9 whose eigenvalues may come back as a complex
    # pair: then each half beside the pair's position holds one root,
    # started from its midpoint; either way two roots are reported, each
    # in a bracket that holds exactly one exact root
    p = oracles.from_roots([1.0, 1.0 + 2e-9, 3.0])
    seq = oracles.sturm_sequence(p.coeffs)
    found = real_roots(p, 0.0, 5.0)
    assert len(found) == oracles.sturm_count(seq) == 3
    for x, a, b in found:
        assert a <= x <= b
        assert oracles.sturm_count(seq, a, b) == 1


def test_real_roots_without_a_position_inside():
    # x - 1 on (1, 3): the eigenvalue 1 is not inside, yet p changes sign
    # from p(lo) = 0, which counts as negative, to p(hi) > 0; the whole
    # interval is the bracket, started from its midpoint
    assert real_roots(poly(-1.0, 1.0), 1.0, 3.0) == [(2.0, 1.0, 3.0)]
    assert real_roots(poly(-1.0, 1.0), 2.0, 3.0) == []


def test_real_roots_count_parity():
    rng = random.Random(7)
    for _ in range(300):
        coeffs = [rng.uniform(-3, 3) for _ in range(rng.randint(2, 7))]
        p = RealPolynomial.from_coeffs(coeffs)
        if p.degree < 1:
            continue
        bound = 1.0 + max(abs(c / p.coeffs[-1]) for c in p.coeffs)
        got = real_roots(p, -bound, bound)
        assert len(got) <= p.degree
        # the sign changes across [-bound, bound], which holds every
        # root: odd iff the tail signs differ, and the exact count
        lead = p.coeffs[-1]
        sign_pos = math.copysign(1.0, lead)
        sign_neg = sign_pos * (-1.0) ** p.degree
        assert (len(got) % 2 == 1) == (sign_pos != sign_neg)
        seq = oracles.sturm_sequence(p.coeffs)
        assert len(got) == oracles.sturm_count(seq), p.coeffs


@given(st.lists(st.floats(min_value=-1e3, max_value=1e3,
                          allow_subnormal=False), min_size=1,
                max_size=6),
       st.floats(min_value=0.1, max_value=10.0))
def test_reconstruction_property(roots, lead):
    # product of (x - r_i) times the leading coefficient reproduces the
    # input coefficients to relative 1e-6 for condition-bounded roots
    roots = sorted(roots)
    if any(b - a < 1e-3 for a, b in zip(roots[:-1], roots[1:])):
        return
    p = oracles.from_roots(roots, leading=lead)
    if p.degree != len(roots):
        # coefficient spread reached the documented 1e-14 lead trim;
        # such instances are outside the condition-bounded contract
        return
    got = companion_roots(p.coeffs)
    rebuilt = oracles.from_roots(sorted(got.real), leading=lead)
    scale = max(abs(c) for c in p.coeffs)
    assert len(rebuilt.coeffs) == len(p.coeffs)
    for a, b in zip(p.coeffs, rebuilt.coeffs):
        assert b == pytest.approx(a, rel=1e-6, abs=1e-6 * scale)


@pytest.mark.parametrize("roots,lead,real,lo,hi,inside", [
    ((0.5,), 1.0, 1, 0.5, 1.0, 0),                  # (lo, hi] leaves out lo
    ((0.0, -1.0, 2.0), -2.0, 3, -1.0, 0.0, 1),      # a root at 0
    ((1.0, 1.0, 2.0), 1.0, 2, 0.0, 1.5, 1),         # a double root, once
    ((3 + 1j, 3 - 1j, -2.0), 0.5, 1, -3.0, 5.0, 1),  # a complex pair
    ((1.0, 1.0, 3 + 1j, 3 - 1j, -4.0), -1.0, 2, 0.5, 10.0, 1),
    ((-2.0, -1.0, 0.0, 1.0, 2.0), 1.0, 5, -1.5, 1.5, 3),
])
def test_sturm_count_on_known_roots(roots, lead, real, lo, hi, inside):
    # the exact oracle's counter: distinct real roots, on the line and in
    # (lo, hi]
    seq = oracles.sturm_sequence(oracles.from_roots(roots, lead).coeffs)
    assert oracles.sturm_count(seq) == real
    assert oracles.sturm_count(seq, lo, hi) == inside


def test_determinism():
    coeffs = (3.0, -2.0, 0.5, 1.0, -0.25, 0.125)
    a = companion_roots(RealPolynomial.from_coeffs(coeffs).coeffs)
    b = companion_roots(RealPolynomial.from_coeffs(coeffs).coeffs)
    assert np.array_equal(a, b)
    ra = real_roots(RealPolynomial.from_coeffs(coeffs), -10.0, 10.0)
    rb = real_roots(RealPolynomial.from_coeffs(coeffs), -10.0, 10.0)
    assert ra == rb
