"""Certified continued fractions and the Baker-Davenport reduction step.

A ball's continued-fraction quotients are certified by expanding both exact
(dyadic) endpoints simultaneously: quotients are emitted only while the two
expansions agree, so every real inside the ball shares them.  Reduction:
with p/q a convergent of kappa and epsilon = ||mu q|| - M ||kappa q|| > 0,
no integer solution of |n kappa - m + mu| < A B^(-n) exists with
log(A q / epsilon)/log B <= n <= M.  All epsilon arithmetic is exact
rational, outward only at the final logarithm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .balls import DEFAULT_PREC, PrecisionError, RBall

MAX_QUOTIENTS = 100_000
# bd_iterate stops after this many passes even if the bound still decreases
MAX_PASSES = 32


@dataclass(frozen=True)
class CFExpansion:
    quotients: tuple
    terminated: bool  # exact rational input, fully expanded


def cf_expand(x: RBall, want: int) -> CFExpansion:
    """Up to `want` certified quotients of every real inside the ball."""
    if want < 1:
        raise ValueError("need want >= 1")
    want = min(int(want), MAX_QUOTIENTS)
    lo, hi = x.lower(), x.upper()
    quotients = []
    terminated = False
    for _ in range(want):
        flo, fhi = math.floor(lo), math.floor(hi)
        if flo != fhi:
            break
        quotients.append(int(flo))
        lo, hi = lo - flo, hi - flo
        if lo == 0 and hi == 0:
            terminated = True
            break
        if lo == 0 or hi == 0:
            # an endpoint is an exact integer: the next quotient is unbounded
            break
        lo, hi = 1 / hi, 1 / lo
    if not quotients:
        raise PrecisionError("ball too wide to certify even one quotient")
    return CFExpansion(quotients=tuple(quotients), terminated=terminated)


def convergents(exp: CFExpansion) -> list:
    """(p_i, q_i) for the certified quotients; q strictly increases from i=1."""
    if not exp.quotients:
        raise ValueError("no certified quotients")
    out = []
    p_prev, q_prev = 1, 0
    p, q = exp.quotients[0], 1
    out.append((p, q))
    for a in exp.quotients[1:]:
        p, p_prev = a * p + p_prev, p
        q, q_prev = a * q + q_prev, q
        out.append((p, q))
    return out


def cf_value(quotients) -> Fraction:
    """Exact value of a finite continued fraction [a0; a1, ...]."""
    acc = Fraction(quotients[-1])
    for a in reversed(quotients[:-1]):
        acc = a + 1 / acc
    return acc


# ---------------------------------------------------------------------------
# distance to the nearest integer, exact over an interval
# ---------------------------------------------------------------------------

def _dist_to_z_interval(lo: Fraction, hi: Fraction):
    """(lower, upper) bounds of dist(x, Z) for x in [lo, hi], exact."""
    if math.ceil(lo) <= math.floor(hi):
        lower = Fraction(0)
    else:
        m = math.floor(lo)
        lower = min(lo - m, m + 1 - hi)

    def point_dist(x: Fraction) -> Fraction:
        f = math.floor(x)
        return min(x - f, f + 1 - x)

    half = Fraction(1, 2)
    if math.ceil(lo - half) <= math.floor(hi - half):
        upper = half
    else:
        upper = min(half, max(point_dist(lo), point_dist(hi)))
    return lower, upper


# ---------------------------------------------------------------------------
# the reduction lemma
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BDInstance:
    kappa: RBall
    mu: RBall
    A: RBall
    B: RBall
    M: int

    def validate(self) -> None:
        if not self.A.is_positive():
            raise ValueError("need A > 0 certified")
        if not self.B.gt(RBall.from_int(1, self.B.prec)):
            raise ValueError("need B > 1 certified")
        if int(self.M) < 1:
            raise ValueError("need M >= 1")

    def with_m(self, m: int) -> "BDInstance":
        return BDInstance(kappa=self.kappa, mu=self.mu, A=self.A, B=self.B, M=int(m))


@dataclass(frozen=True)
class ReductionOutcome:
    M: int
    q: int | None
    epsilon_lower: RBall | None
    new_bound: int | None
    status: str  # "reduced" | "not_applicable"


EXTRA_CONVERGENTS = 10


def _candidate_denominators(inst: BDInstance, min_q):
    """Convergent denominators to try: the first q > M (and >= min_q), then
    the next few; for a terminated rational expansion the exact last
    convergent is always admissible (||kappa q|| = 0)."""
    floor_q = int(min_q) if min_q is not None else 0
    want = 64
    while True:
        exp = cf_expand(inst.kappa, want)
        cv = convergents(exp)
        cands = [q for _p, q in cv if q > inst.M and q >= floor_q]
        if cands:
            return cands[:1 + EXTRA_CONVERGENTS]
        if exp.terminated:
            return [cv[-1][1]]
        if len(exp.quotients) < want or want >= MAX_QUOTIENTS:
            raise PrecisionError(
                "cannot certify a convergent denominator exceeding M")
        want *= 2


def bd_reduce(inst: BDInstance, prec: int = DEFAULT_PREC,
              min_q: int | None = None) -> ReductionOutcome:
    """One reduction pass.

    min_q pins the pass to a later convergent than the first one past M;
    any convergent with q > M satisfies the lemma, so this only trades
    sharpness, never soundness.
    """
    inst.validate()
    m_bound = int(inst.M)
    candidates = _candidate_denominators(inst, min_q)
    first_eps = None
    for q in candidates:
        kq = inst.kappa * q
        mq = inst.mu * q
        dk_lo, dk_hi = _dist_to_z_interval(kq.lower(), kq.upper())
        dm_lo, dm_hi = _dist_to_z_interval(mq.lower(), mq.upper())
        eps_lo = dm_lo - m_bound * dk_hi
        eps_hi = dm_hi - m_bound * dk_lo
        eps_ball = RBall.from_endpoints(eps_lo, min(eps_hi, Fraction(1, 2)), prec)
        if first_eps is None:
            first_eps = eps_ball
        if eps_lo > 0:
            ratio = (inst.A * q / RBall.from_fraction(eps_lo, prec)).log() / inst.B.log()
            new_bound = math.ceil(ratio.upper())
            return ReductionOutcome(M=m_bound, q=q, epsilon_lower=eps_ball,
                                    new_bound=new_bound, status="reduced")
    return ReductionOutcome(M=m_bound, q=candidates[0],
                            epsilon_lower=first_eps, new_bound=None,
                            status="not_applicable")


def bd_iterate(inst: BDInstance, prec: int = DEFAULT_PREC,
               min_q_first: int | None = None) -> list:
    """Repeat bd_reduce with M set to the previous bound until no decrease.

    min_q_first applies to the first pass only.
    """
    trace = []
    current = inst
    min_q = min_q_first
    for _ in range(MAX_PASSES):
        outcome = bd_reduce(current, prec, min_q=min_q)
        min_q = None
        if outcome.status != "reduced":
            trace.append(outcome)
            break
        if outcome.new_bound >= current.M:
            trace.append(ReductionOutcome(M=outcome.M, q=outcome.q,
                                          epsilon_lower=outcome.epsilon_lower,
                                          new_bound=outcome.new_bound,
                                          status="not_applicable"))
            break
        trace.append(outcome)
        if outcome.new_bound < 1:
            break
        current = current.with_m(outcome.new_bound)
    return trace
