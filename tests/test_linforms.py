import sys
from fractions import Fraction

import pytest

from negafib.balls import RBall
from negafib.charpoly import compute_roots
from negafib.intpoly import IntPoly
from negafib.linforms import (
    MatveevInstance,
    _height_from_roots,
    crossing_bound,
    deweger_factor,
    matveev_exponent,
    mixed_sign_instance,
    weil_height,
)

PREC = 384


@pytest.fixture(scope="module")
def profile4():
    return compute_roots(4, PREC)


def test_height_of_golden_polynomial():
    h = weil_height(IntPoly((-1, -1, 1)), 256).value
    # (1/2) log phi
    phi = (1 + RBall.from_int(5, 256).sqrt()) / 2
    assert h.overlaps(phi.log() / 2)


def test_height_of_characteristic_quartic(profile4):
    h = weil_height(IntPoly((-1, -1, -1, -1, 1)), PREC).value
    assert h.overlaps(profile4.dominant_root().log() / 4)
    assert h.lt(RBall.from_decimal("0.228", PREC))
    # T_4 is monic, so the profile's roots alone give the same height
    assert _height_from_roots(1, profile4.roots, PREC).overlaps(h)


def test_height_of_linear_rational():
    h = weil_height(IntPoly((-3, 2)), 192).value
    assert h.overlaps(RBall.from_int(3, 192).log())


def test_height_rejects_bad_input():
    with pytest.raises(ValueError):
        weil_height(IntPoly((5,)), 128)
    with pytest.raises(ValueError):
        weil_height(IntPoly((1, -2)), 128)


def test_height_degree_weighted_product():
    p = IntPoly((-1, -1, 1))
    q = IntPoly((-3, 2))
    hp = weil_height(p, 256).value
    hq = weil_height(q, 256).value
    hpq = weil_height(p * q, 256).value
    combined = (hp * p.degree + hq * q.degree) / (p.degree + q.degree)
    assert hpq.overlaps(combined)


def test_matveev_example_values():
    # 1.4 * 30^6 * 3^4.5 * 144 * (1 + log 12) * 2 ~ 1.437e14 with B = e
    e_ball = RBall.from_int(1, PREC).exp()
    inst = MatveevInstance(t=3, D=12, B=e_ball, A=(Fraction(1),) * 3)
    val = matveev_exponent(inst, PREC)
    assert abs(val.mid() - Fraction("1.437092911e14")) < Fraction("1e7")
    # 1.4 * 30^4 * 0.16 = 181440 exactly
    inst = MatveevInstance(t=1, D=1, B=RBall.from_int(1, PREC), A=(Fraction("0.16"),))
    assert matveev_exponent(inst, PREC).contains(181440)


def test_matveev_validation():
    one = RBall.from_int(1, 128)
    with pytest.raises(ValueError):
        MatveevInstance(t=1, D=1, B=one, A=(Fraction("0.1"),)).validate()
    with pytest.raises(ValueError):
        MatveevInstance(t=2, D=1, B=one, A=(Fraction(1),)).validate()
    low_b = RBall.from_fraction(Fraction(1, 2), 128)
    with pytest.raises(ValueError):
        MatveevInstance(t=1, D=1, B=low_b, A=(Fraction(1),)).validate()
    big_log = RBall.from_int(3, 128)
    with pytest.raises(ValueError):
        MatveevInstance(t=1, D=1, B=one, A=(Fraction(1),),
                        log_gamma_abs=(big_log,)).validate()


def test_matveev_monotonicity_samples():
    one = RBall.from_int(1, 192)

    def val(t=2, d=3, b=1, a=(Fraction(1), Fraction(1))):
        inst = MatveevInstance(t=t, D=d, B=RBall.from_int(b, 192), A=a)
        return matveev_exponent(inst, 192)

    assert val(d=3).lt(val(d=4))
    assert val(b=1).lt(val(b=10))
    assert val(a=(Fraction(1), Fraction(1))).lt(val(a=(Fraction(2), Fraction(1))))


def test_mixed_sign_instance_printed_anchors(profile4):
    ms = mixed_sign_instance(profile4, PREC)
    # printed decimals are truncations/roundings of these derived values
    assert Fraction("0.0546") <= ms.decay_slope.mid() < Fraction("0.0547")
    assert abs(ms.decay_intercept.mid() - Fraction("1.6455178")) < Fraction("1e-6")
    assert ms.decay_intercept.upper() < Fraction("1.648")  # printed upper bound
    assert Fraction("0.3887") <= ms.kappa.mid() < Fraction("0.3888")
    assert abs(ms.mu.mid() + Fraction("2.03")) < Fraction("0.005")
    # the printed reduction constants: B = |a4|^(-0.214) and A = 9.65 / B
    b_red = (abs(profile4.smallest_root()).log() * Fraction("-0.214")).exp()
    a_red = RBall.from_decimal("9.65", PREC) / b_red
    assert abs(b_red.mid() - Fraction("1.056")) < Fraction("0.001")
    assert abs(a_red.mid() - Fraction("9.14")) < Fraction("0.005")
    assert ms.all_checks_pass
    assert ms.matveev.t == 3 and ms.matveev.D == 12
    assert ms.matveev.A == (Fraction("52.74"), Fraction("2.736"), Fraction("2.736"))
    # A_2 = A_3 = 2.736 is exactly 12 * 0.228
    assert Fraction("2.736") == 12 * Fraction("0.228")


def test_mixed_sign_instance_certifies_no_roots(profile4, monkeypatch):
    linforms = sys.modules["negafib.linforms"]
    calls = []
    original = linforms.certified_roots

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(linforms, "certified_roots", counted)
    assert mixed_sign_instance(profile4, PREC).all_checks_pass
    assert calls == []  # the height of T_4 comes from the profile's roots


def test_mixed_sign_internal_consistency(profile4):
    ms = mixed_sign_instance(profile4, PREC)
    a1 = profile4.dominant_root()
    a4_abs = abs(profile4.smallest_root())
    # kappa log a1 + log|a4| = 0
    assert (ms.kappa * a1.log() + a4_abs.log()).contains(0)
    # exp(intercept) = |a4| / |g4(a4)|
    target = a4_abs / abs(profile4.weights[3])
    assert ms.decay_intercept.exp().overlaps(target)
    # the (1 + log B) coefficient lands within 0.5 percent of 2.84e16
    coeff = matveev_exponent(ms.matveev, PREC)
    printed = Fraction(284, 100) * 10**16
    assert abs(coeff.mid() - printed) / printed < Fraction(1, 200)


def test_deweger_examples():
    dw = deweger_factor(RBall.from_decimal("0.338", PREC))
    # together with the intercept: factor * e^1.648 ~ 6.34 (printed 6.33)
    product = dw * RBall.from_decimal("1.648", PREC).exp()
    assert abs(product.mid() - Fraction("6.34")) < Fraction("0.01")
    tiny = deweger_factor(RBall.from_decimal("1e-30", PREC))
    assert abs(tiny.mid() - 1) < Fraction("1e-15")
    half = deweger_factor(RBall.from_decimal("0.5", PREC))
    assert half.overlaps(2 * RBall.from_int(2, PREC).log())


def test_deweger_domain():
    with pytest.raises(ValueError):
        deweger_factor(RBall.from_int(1, 128))
    with pytest.raises(ValueError):
        deweger_factor(RBall.from_int(0, 128))


def test_crossing_bound_examples():
    assert crossing_bound(1, 0, 1, 192) == 1
    # N = 10 log N crosses at 35.77...
    assert crossing_bound(1, 0, 10, 192) == 36
    printed = Fraction(232, 100) * 10**19
    n0 = crossing_bound("0.0546", "1.648", Fraction(284, 100) * 10**16, PREC)
    assert abs(Fraction(n0) - printed) / printed < Fraction(1, 100)
    # same inequality in the divided-through form, N - 30.1832 > C log N
    n0b = crossing_bound(1, Fraction("30.1832"), Fraction("5.2015e17"), PREC)
    assert abs(Fraction(n0b) - printed) / printed < Fraction(1, 100)


def test_crossing_bound_certificate():
    from negafib.balls import RBall as _R
    a, b, c = 1, 0, 10
    n0 = crossing_bound(a, b, c, 192)
    gap_at = lambda n: (_R.from_int(n, 192) - _R.from_int(c, 192)
                        * _R.from_int(n, 192).log())
    assert gap_at(n0).is_positive()
    assert gap_at(n0 - 1).upper() <= 0


def test_crossing_bound_validation():
    with pytest.raises(ValueError):
        crossing_bound(-1, 0, 1, 128)
    with pytest.raises(ValueError):
        crossing_bound(1, 0, 0, 128)
