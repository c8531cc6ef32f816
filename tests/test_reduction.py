from fractions import Fraction

import pytest

from negafib.balls import PrecisionError, RBall
from negafib.charpoly import compute_roots
from negafib.linforms import mixed_sign_instance
from negafib.reduction import (
    BDInstance,
    CFExpansion,
    bd_iterate,
    bd_reduce,
    cf_expand,
    cf_value,
    convergents,
)

PREC = 384

# first-pass convergent of the published two-stage reduction (the 45th);
# the smallest denominator past 10^20 is the 39th, listed next
PASS1_Q = 66618036593827352256020
FIRST_Q_PAST_1E20 = 138743910841992518439


@pytest.fixture(scope="module")
def replay_instance():
    ms = mixed_sign_instance(compute_roots(4, PREC), PREC)
    return BDInstance(kappa=ms.kappa, mu=ms.mu,
                      A=RBall.from_decimal("9.14", PREC),
                      B=RBall.from_decimal("1.056", PREC), M=10**20)


def test_cf_golden_ratio():
    phi = (1 + RBall.from_int(5, 128).sqrt()) / 2
    exp = cf_expand(phi, 20)
    assert exp.quotients == (1,) * 20
    assert len(exp.quotients) == 20


def test_cf_sqrt2():
    exp = cf_expand(RBall.from_int(2, 128).sqrt(), 10)
    assert exp.quotients == (1,) + (2,) * 9


def test_cf_of_kappa_anchors(replay_instance):
    exp = cf_expand(replay_instance.kappa, 60)
    assert len(exp.quotients) == 60
    assert exp.quotients[:10] == (0, 2, 1, 1, 2, 1, 30, 6, 1, 10)
    qs = [q for _p, q in convergents(exp)]
    assert qs[7] == 3336
    assert qs[44] == PASS1_Q
    assert next(q for q in qs if q > 10**20) == FIRST_Q_PAST_1E20


def test_cf_too_wide_raises():
    with pytest.raises(PrecisionError):
        cf_expand(RBall.from_endpoints(Fraction(1), Fraction(2), 64), 5)


def test_cf_rational_terminates():
    x = RBall.from_fraction(Fraction(1, 2), 128)
    exp = cf_expand(x, 10)
    assert exp.terminated and exp.quotients == (0, 2)


def test_convergent_recurrences():
    fib = CFExpansion(quotients=(1, 1, 1, 1, 1), terminated=False)
    assert [q for _p, q in convergents(fib)] == [1, 1, 2, 3, 5]
    quarters = CFExpansion(quotients=(0, 2, 2, 2), terminated=True)
    assert convergents(quarters) == [(0, 1), (1, 2), (2, 5), (5, 12)]
    assert cf_value((0, 2, 2, 2)) == Fraction(5, 12)


def test_convergent_determinant_identity(replay_instance):
    cv = convergents(cf_expand(replay_instance.kappa, 40))
    for i in range(1, len(cv)):
        p1, q1 = cv[i]
        p0, q0 = cv[i - 1]
        assert p1 * q0 - p0 * q1 == (-1) ** (i - 1)


def test_cf_reconstruction_inside_tolerance(replay_instance):
    exp = cf_expand(replay_instance.kappa, 25)
    value = cf_value(exp.quotients)
    q_last = convergents(exp)[-1][1]
    gap = Fraction(1, q_last**2)
    assert replay_instance.kappa.lower() - gap <= value <= replay_instance.kappa.upper() + gap


def test_reduction_pass1_replayed(replay_instance):
    out = bd_reduce(replay_instance, PREC, min_q=PASS1_Q)
    assert out.status == "reduced"
    assert out.q == PASS1_Q
    assert out.epsilon_lower.lower() >= Fraction("0.04")
    assert out.new_bound in (1063, 1064)


def test_reduction_pass2(replay_instance):
    out = bd_reduce(replay_instance.with_m(1064), PREC)
    assert out.status == "reduced"
    assert out.q == 3336
    assert out.epsilon_lower.lower() >= Fraction("0.136")
    assert out.new_bound in (225, 226)


def test_reduction_first_admissible_convergent(replay_instance):
    # the lemma rule proper: smallest q > M also reduces, just differently
    out = bd_reduce(replay_instance, PREC)
    assert out.status == "reduced"
    assert out.q == FIRST_Q_PAST_1E20
    assert out.epsilon_lower.lower() > 0
    assert out.new_bound < 1064


def test_iterate_replayed_trace(replay_instance):
    trace = bd_iterate(replay_instance, PREC, min_q_first=PASS1_Q)
    assert len(trace) >= 2
    assert trace[0].q == PASS1_Q and trace[0].new_bound in (1063, 1064)
    assert trace[1].q == 3336 and trace[1].new_bound in (225, 226)
    bounds = [o.new_bound for o in trace if o.status == "reduced"]
    assert bounds == sorted(bounds, reverse=True)
    assert trace[-1].status == "not_applicable" or trace[-1].new_bound <= 226


def test_iterate_from_smaller_start(replay_instance):
    trace = bd_iterate(replay_instance.with_m(10**10), PREC)
    assert trace[0].status == "reduced"
    final = [o for o in trace if o.status == "reduced"][-1]
    assert final.new_bound <= 226


def test_degenerate_rational_kappa():
    inst = BDInstance(kappa=RBall.from_fraction(Fraction(1, 2), 192),
                      mu=RBall.from_fraction(Fraction(1, 4), 192),
                      A=RBall.from_int(5, 192),
                      B=RBall.from_decimal("1.5", 192), M=10)
    out = bd_reduce(inst, 192)
    assert out.status == "reduced"
    assert out.q == 2  # ||kappa q|| = 0 exactly for the last convergent
    assert out.epsilon_lower.lower() == Fraction(1, 2)
    assert out.epsilon_lower.upper() == Fraction(1, 2)


def test_not_applicable_when_mu_is_integral():
    # ||mu q|| = 0 for every q, so epsilon can never be positive
    phi = (1 + RBall.from_int(5, 256).sqrt()) / 2
    inst = BDInstance(kappa=phi, mu=RBall.from_int(0, 256),
                      A=RBall.from_int(5, 256),
                      B=RBall.from_decimal("1.5", 256), M=100)
    out = bd_reduce(inst, 256)
    assert out.status == "not_applicable"
    assert out.new_bound is None
    trace = bd_iterate(inst, 256)
    assert len(trace) == 1 and trace[0].status == "not_applicable"


def test_reduction_soundness_by_enumeration():
    kappa = RBall.from_int(2, 256).sqrt()
    mu = RBall.from_int(3, 256).sqrt()
    a_val = RBall.from_int(5, 256)
    b_val = RBall.from_fraction(Fraction(3, 2), 256)
    inst = BDInstance(kappa=kappa, mu=mu, A=a_val, B=b_val, M=60)
    out = bd_reduce(inst, 256)
    assert out.status == "reduced" and out.new_bound < 60
    for n in range(out.new_bound + 1, 61):
        form = kappa * n + mu
        best = min((abs(form - m) for m in
                    (form.mid().__floor__(), form.mid().__floor__() + 1)),
                   key=lambda b: b.mid())
        rhs = a_val * b_val.pow_int(-n)
        assert best.lower() >= rhs.upper(), n


def test_instance_validation():
    one = RBall.from_int(1, 128)
    phi = (1 + RBall.from_int(5, 128).sqrt()) / 2
    with pytest.raises(ValueError):
        BDInstance(kappa=phi, mu=one, A=-one, B=one + 1, M=5).validate()
    with pytest.raises(ValueError):
        BDInstance(kappa=phi, mu=one, A=one, B=one, M=5).validate()
    with pytest.raises(ValueError):
        BDInstance(kappa=phi, mu=one, A=one, B=one + 1, M=0).validate()
