from fractions import Fraction

import pytest

from negafib.balls import (
    CBall,
    PrecisionError,
    RBall,
    ball_from_json,
    ball_to_json,
    cball_from_json,
    cball_to_json,
)


def test_enclosure_basics():
    x = RBall.from_fraction(Fraction(1, 3), 128)
    assert (x * x).contains(Fraction(1, 9))
    assert (x + x).contains(Fraction(2, 3))
    assert (1 - x).contains(Fraction(2, 3))
    assert (RBall.from_int(5, 128) / x).contains(15)
    assert x.log().exp().contains(Fraction(1, 3))
    assert x.pow_int(-2).contains(9)


def test_exact_integers_have_zero_radius():
    x = RBall.from_int(12345678901234567890, 256)
    assert x.rad() == 0
    assert x.lower() == x.upper() == 12345678901234567890


def test_outward_rounding_direction():
    x = RBall.from_fraction(Fraction(1, 3), 64)
    assert x.lower() < Fraction(1, 3) < x.upper()


def test_certified_comparisons():
    a = RBall.from_fraction(Fraction(1, 3), 128)
    b = RBall.from_fraction(Fraction(1, 2), 128)
    assert a.lt(b) and b.gt(a)
    assert a.disjoint(b)
    assert not a.disjoint(a)


def test_domain_errors():
    with pytest.raises(PrecisionError):
        RBall.from_endpoints(-1, 1, 64).log()
    with pytest.raises(PrecisionError):
        RBall.from_endpoints(-2, -1, 64).sqrt()
    with pytest.raises(PrecisionError):
        RBall.from_int(1, 64) / RBall.from_endpoints(-1, 1, 64)
    with pytest.raises(PrecisionError):
        RBall.from_endpoints(-1, 1, 64).pow_int(-2)


def test_real_power():
    two = RBall.from_int(2, 192)
    half = RBall.from_fraction(Fraction(1, 2), 192)
    r = (two.log() * half).exp()
    assert (r * r).contains(2)


def cball(re, im, prec):
    return CBall.from_re_im(RBall.from_fraction(re, prec), RBall.from_fraction(im, prec))


def test_complex_arithmetic():
    z = cball(Fraction(1, 3), Fraction(1, 2), 128)
    sq = z * z.conj()
    assert sq.real().contains(Fraction(1, 9) + Fraction(1, 4))
    assert sq.imag().contains_zero()
    w = z.pow_int(3) * z.pow_int(-3)
    assert w.real().contains(1) and w.imag().contains_zero()
    assert (abs(z) * abs(z)).contains(Fraction(13, 36))


def test_complex_division_guard():
    z = cball(Fraction(0), Fraction(0), 64)
    with pytest.raises(PrecisionError):
        CBall.from_int(1, 64) / z


def test_containment_and_disjoint_rectangles():
    a = cball(Fraction(1), Fraction(1), 64)
    b = cball(Fraction(3), Fraction(1), 64)
    assert a.disjoint(b)
    assert not a.disjoint(a)


def test_json_roundtrip_is_exact():
    x = RBall.from_fraction(Fraction(22, 7), 192).log()
    doc = ball_to_json(x)
    y = ball_from_json(doc, 192)
    assert y.lower() == x.lower() and y.upper() == x.upper()
    z = cball(Fraction(1, 7), Fraction(-3, 11), 192)
    zdoc = cball_to_json(z)
    z2 = cball_from_json(zdoc, 192)
    assert z2.real().lower() == z.real().lower()
    assert z2.imag().upper() == z.imag().upper()


def test_radius_exp_bounds_radius():
    x = RBall.from_fraction(Fraction(1, 3), 64)
    e = x.radius_exp()
    assert Fraction(10) ** e >= x.rad()
    assert RBall.from_int(7, 64).radius_exp() is None


def test_display_strings():
    x = RBall.from_fraction(Fraction(355, 113), 128)
    assert x.mid_str(10).startswith("3.14159")
    assert "RBall" in repr(x)
