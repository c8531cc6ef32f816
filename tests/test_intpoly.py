from fractions import Fraction

import pytest

from negafib.charpoly import charpoly
from negafib.intpoly import IntPoly

P = 200
POLYS = (
    charpoly(4),
    charpoly(13),
    IntPoly((1,) + (0,) * 6 + (1,)),  # x^7 + 1
    IntPoly((10**40, -3 * 10**25, 7, -(2**90), 5)),
)
POINTS = (
    (Fraction(3, 2), Fraction(0)),
    (Fraction(-7, 10), Fraction(0)),
    (Fraction(3, 10), Fraction(9, 10)),
    (Fraction(-19, 10), Fraction(-1, 7)),
)


def fixed(x):
    return x.numerator * 2**P // x.denominator


def exact_horner(poly, re, im):
    """P and P' at (re + i im) / 2^P in exact rationals, as (P_re, P_im,
    dP_re, dP_im)."""
    x, y = Fraction(re, 2**P), Fraction(im, 2**P)
    a_re = a_im = d_re = d_im = Fraction(0)
    for c in reversed(poly.coeffs):
        d_re, d_im = d_re * x - d_im * y + a_re, d_re * y + d_im * x + a_im
        a_re, a_im = a_re * x - a_im * y + c, a_re * y + a_im * x
    return a_re, a_im, d_re, d_im


@pytest.mark.parametrize("poly", POLYS, ids=lambda q: f"deg{q.degree}")
@pytest.mark.parametrize("x, y", POINTS)
def test_eval_fixed_matches_exact_horner(poly, x, y):
    re, im = fixed(x), fixed(y)
    got = poly.eval_fixed(re, im, P)
    # each floored product adds under 2 ulps, carried forward by |z| < 2
    n = poly.degree
    tol = Fraction(4 * (n + 1) ** 2 * 2**n, 2**P)
    for value, approx in zip(exact_horner(poly, re, im), got):
        assert abs(Fraction(approx, 2**P) - value) <= tol


@pytest.mark.parametrize("poly", POLYS, ids=lambda q: f"deg{q.degree}")
@pytest.mark.parametrize("x", (Fraction(3, 2), Fraction(-7, 10), Fraction(1, 3)))
def test_eval_fixed_on_the_real_line(poly, x):
    re = fixed(x)
    p_re, p_im, d_re, d_im = poly.eval_fixed(re, 0, P)
    assert p_im == 0 and d_im == 0
    # the real parts are exactly those of a real floored Horner pass
    acc = d = 0
    for c in reversed(poly.coeffs):
        d = (d * re >> P) + acc
        acc = (acc * re >> P) + (c << P)
    assert (p_re, d_re) == (acc, d)
