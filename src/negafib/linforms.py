"""Weil heights, the Matveev lower-bound exponent, and bound crossing.

The central diophantine step compares an upper bound
|Lambda - 1| < exp(intercept + slope * n)  (n < 0)
for the linear form Lambda = +-(g4(a1)/g4(a4)) a1^(m-1) a4^(1-n) against the
generic lower bound exp(-E) from Matveev's theorem, where

E = 1.4 * 30^(t+3) * t^4.5 * D^2 (1 + log D)(1 + log B) A_1 ... A_t.

Crossing the two bounds caps |n|; crossing_bound locates that cap with
certified integer evaluations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .balls import DEFAULT_PREC, PrecisionError, RBall, _coerce
from .charpoly import RootProfile, certified_roots
from .intpoly import IntPoly


# ---------------------------------------------------------------------------
# Weil height from an integer minimal polynomial
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HeightResult:
    value: RBall
    degree: int


def weil_height(poly: IntPoly, prec: int = DEFAULT_PREC) -> HeightResult:
    """h = (1/deg) (log lead + sum log+ |root_i|) over certified roots."""
    if poly.degree < 1:
        raise ValueError("height needs a nonconstant polynomial")
    if poly.leading <= 0:
        raise ValueError("height needs a positive leading coefficient")
    value = _height_from_roots(poly.leading, certified_roots(poly, prec), prec)
    return HeightResult(value=value, degree=poly.degree)


def _height_from_roots(leading: int, roots, prec: int) -> RBall:
    """(log leading + sum log+ |root|) / len(roots), from certified
    enclosures of all roots of a polynomial with that leading coefficient."""
    total = RBall.from_int(leading, prec).log()
    one = Fraction(1)
    for root in roots:
        m = abs(root)
        if m.upper() <= one:
            continue
        if m.lower() >= one:
            total = total + m.log()
        else:
            # modulus ball straddles 1: log+ lies in [0, log(upper)]
            hi = RBall.from_fraction(m.upper(), prec).log()
            total = total + RBall.from_endpoints(0, max(Fraction(0), hi.upper()), prec)
    return total / RBall.from_int(len(roots), prec)


# ---------------------------------------------------------------------------
# Matveev's lower bound
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MatveevInstance:
    """Parameters (t, D, B, A_i) for the lower-bound exponent.

    The A_i are chosen constants, stored exactly as rationals; each must
    dominate max(D h(gamma_i), |log gamma_i|, 0.16).  Heights are validated
    where the instance is assembled, the |log| floors here when supplied.
    """

    t: int
    D: int
    B: RBall
    A: tuple
    log_gamma_abs: tuple = ()

    def validate(self) -> None:
        if self.t < 1 or self.D < 1:
            raise ValueError("need t >= 1 and D >= 1")
        if len(self.A) != self.t:
            raise ValueError("need exactly t values A_i")
        if not self.B.ge(RBall.from_int(1, self.B.prec)):
            raise ValueError("need B >= 1")
        floor = Fraction("0.16")
        for i, a_i in enumerate(self.A):
            if Fraction(a_i) < floor:
                raise ValueError(f"A_{i+1} below the 0.16 floor")
        for i, lg in enumerate(self.log_gamma_abs):
            if lg is not None and not lg.upper() <= Fraction(self.A[i]):
                raise ValueError(f"A_{i+1} below |log gamma_{i+1}|")


def matveev_exponent(inst: MatveevInstance, prec: int = DEFAULT_PREC) -> RBall:
    """E with |Lambda| > exp(-E); pure formula evaluation in balls."""
    inst.validate()
    t, d = inst.t, inst.D
    e = RBall.from_fraction(Fraction(14, 10), prec)
    e = e * RBall.from_int(30, prec).pow_int(t + 3)
    tb = RBall.from_int(t, prec)
    e = e * tb.pow_int(4) * tb.sqrt()
    db = RBall.from_int(d, prec)
    e = e * db.pow_int(2) * (1 + db.log())
    e = e * (1 + inst.B.log())
    for a_i in inst.A:
        e = e * RBall.from_fraction(Fraction(a_i), prec)
    return e


# ---------------------------------------------------------------------------
# the mixed-sign (m >= 0, n < 0) instance for order 4
# ---------------------------------------------------------------------------

# 1 - delta for order 4 as printed, rounded to three decimals; the decay
# slope is built from it
PRINTED_ONE_MINUS_DELTA = "0.214"


@dataclass(frozen=True)
class MixedSignInstance:
    """Everything the order-4 mixed-sign analysis feeds downstream.

    decay_slope/decay_intercept give |Lambda - 1| < exp(intercept + slope n);
    kappa and mu are the reduction coordinates.
    """

    matveev: MatveevInstance
    decay_slope: RBall
    decay_intercept: RBall
    kappa: RBall
    mu: RBall
    checks: tuple = field(default_factory=tuple)

    @property
    def all_checks_pass(self) -> bool:
        return all(ok for _name, ok in self.checks)


def mixed_sign_instance(profile4: RootProfile, prec: int = DEFAULT_PREC) -> MixedSignInstance:
    """Assemble the t=3 instance from the certified order-4 root profile.

    Its B is 1, so matveev_exponent returns the coefficient of (1 + log B).
    """
    if profile4.k != 4:
        raise ValueError("needs the order-4 profile")
    a1 = profile4.dominant_root()
    a4 = profile4.smallest_root()
    g_a1 = profile4.weights[0].real()
    g_a4 = profile4.weights[3].real()
    a4_abs = abs(a4)
    neg_log_a4 = -a4_abs.log()
    log_a1 = a1.log()

    gamma1_abs = g_a1 / g_a4
    slope = RBall.from_decimal(PRINTED_ONE_MINUS_DELTA, prec) * neg_log_a4
    intercept = (a4_abs / abs(g_a4)).log()
    kappa = neg_log_a4 / log_a1
    mu = -(gamma1_abs.log()) / log_a1

    # A_i floors: A_1 covers the imported height bound 4 log 3 for
    # gamma_1 = +-g4(a1)/g4(a4); A_2 = A_3 cover D h = 12 h(T_4) and the
    # plain logs of gamma_2 = a1, gamma_3 = a4.  T_4 is monic and its roots
    # are the profile's.
    height_t4 = _height_from_roots(1, profile4.roots, prec)
    a_big = Fraction("52.74")
    a_small = Fraction("2.736")
    d_field = 12
    four_log3 = 4 * RBall.from_int(3, prec).log()
    checks = (
        ("A1_covers_imported_height", (d_field * four_log3).upper() <= a_big),
        ("A1_covers_log_gamma1", abs(gamma1_abs.log()).upper() <= a_big),
        ("A2_covers_field_height", (d_field * height_t4).upper() <= a_small),
        ("A2_covers_log_gamma2", abs(log_a1).upper() <= a_small),
        ("A3_covers_log_gamma3", abs(a4_abs.log()).upper() <= a_small),
        ("height_below_0.228", height_t4.lt(RBall.from_decimal("0.228", prec))),
        ("slope_matches_one_minus_delta_printed",
         _printed_agree(slope / neg_log_a4, PRINTED_ONE_MINUS_DELTA, prec)),
    )
    inst = MatveevInstance(
        t=3,
        D=d_field,
        B=RBall.from_int(1, prec),
        A=(a_big, a_small, a_small),
        log_gamma_abs=(abs(gamma1_abs.log()), abs(log_a1), abs(a4_abs.log())),
    )
    inst.validate()
    return MixedSignInstance(
        matveev=inst,
        decay_slope=slope,
        decay_intercept=intercept,
        kappa=kappa,
        mu=mu,
        checks=checks,
    )


def _printed_agree(ball: RBall, printed: str, prec: int) -> bool:
    """Does the ball meet the half-ulp neighborhood of a printed decimal?"""
    value = Fraction(printed)
    digits = len(printed.split(".")[1]) if "." in printed else 0
    half_ulp = Fraction(1, 2 * 10 ** digits)
    nbhd = RBall.from_midrad(value, half_ulp, prec)
    return ball.overlaps(nbhd)


# ---------------------------------------------------------------------------
# de Weger conversion and bound crossing
# ---------------------------------------------------------------------------

def deweger_factor(a: RBall) -> RBall:
    """-log(1 - a)/a: multiplies |Lambda - 1| bounds into |log Lambda| bounds."""
    prec = a.prec
    one = RBall.from_int(1, prec)
    if not a.upper() < 1:
        raise ValueError("conversion factor needs a < 1")
    if not a.is_positive():
        raise ValueError("conversion factor needs a > 0")
    return -((one - a).log()) / a


def crossing_bound(a, b, C, prec: int = DEFAULT_PREC) -> int:
    """Least N0 with a*N - b > C*log N for every integer N >= N0.

    Equivalently ceil of the largest real crossing of the two sides; 1 when
    the strict inequality already holds on all of [1, oo).  The left side
    grows linearly and the right logarithmically, so the bound exists for
    any a > 0, C > 0.  Certified: the returned N0 satisfies the inequality
    and N0 - 1 (when > 0) fails it, both by outward-rounded evaluation.
    """
    a = _coerce(a, prec)
    b = _coerce(b, prec)
    C = _coerce(C, prec)
    if not (a.is_positive() and C.is_positive()):
        raise ValueError("need a > 0 and C > 0")

    def gap(n: int) -> RBall:
        return a * n - b - C * RBall.from_int(n, prec).log()

    vertex = (C / a).upper()
    lo_probe = max(1, math.floor(vertex))
    hi_probe = max(1, math.ceil(vertex))
    if gap(lo_probe).is_positive() and gap(hi_probe).is_positive():
        return 1

    hi = max(2 * hi_probe, 4)
    while not gap(hi).is_positive():
        hi *= 2
        if hi > 10 ** 40:
            raise PrecisionError("no certified crossing below 10^40")
    lo = hi_probe  # gap(lo) is not certified positive here
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if gap(mid).is_positive():
            hi = mid
        else:
            lo = mid
    if not gap(hi).is_positive():
        raise PrecisionError("crossing endpoint not certified")
    if hi > 1 and not gap(hi - 1).upper() <= 0:
        raise PrecisionError("crossing bracket not certified at this precision")
    return hi

