"""The polynomial family T_k and certified analysis of its roots.

T_k(x) = x^k - x^(k-1) - ... - x - 1 is a Pisot polynomial: one real root
alpha_1 in (2(1 - 2^-k), 2) and k-1 roots inside the unit disc.  For even k
the minimal-modulus root is real and negative, tied to the unique root
lambda of x^(k+1) - 2x - 1 in (1, 2) through lambda * alpha_kk = -1.

Root enclosures start from double-precision estimates found by the
Aberth-Ehrlich iteration in plain Python complex arithmetic.  Newton
refinement and the Krawczyk preconditioner Y ~ 1/f'(c) prove nothing, so
they are plain points from one fixed-point Horner pass
(``IntPoly.eval_fixed``).  Only the Krawczyk image is rectangle arithmetic:
K(B) = c - Y f(c) + (1 - Y f'(B)) (B - c) with K(B) strictly inside B
proves B contains exactly one simple root, for any point Y.  Rectangles
centered on the real axis are self-conjugate, so uniqueness plus
conjugation symmetry certifies realness.  Orders and degrees above
MAX_DEGREE are refused before any work.
"""

from __future__ import annotations

import cmath
import math
import threading
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

from .balls import (
    CBall,
    CertificationError,
    DEFAULT_PREC,
    MAX_PREC,
    PrecisionError,
    RBall,
    ball_from_json,
    ball_to_json,
    cball_from_json,
    cball_to_json,
)
from .intpoly import IntPoly

PROFILE_DOC_VERSION = 1
# Every order up to 61 certifies at 64 bits, the lowest precision the CLI
# takes.  From 62 on, alpha_1 lies within about 2^-k of the bracket end
# 2(1 - 2^-k), closer than a 64-bit enclosure separates, so compute_roots
# doubles the precision; orders 62-64 then certify at 128 bits.  The cap
# bounds the time: on a 2-vCPU Xeon, roots 60 takes 0.5 s at 384 bits and
# 3.1 s at MAX_PREC, and order-check 60 takes 5.6 s at 384 bits.
MAX_DEGREE = 60
MAX_ABERTH_SWEEPS = 100


class DegreeTooLargeError(ValueError):
    """Requested order or degree exceeds MAX_DEGREE."""


def _check_degree(d: int) -> None:
    if d > MAX_DEGREE:
        raise DegreeTooLargeError(f"degree {d} is over the limit of {MAX_DEGREE}")


# ---------------------------------------------------------------------------
# polynomial family
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FamilyPolys:
    """T_k, f_k = T_k (x-1), and for even k the trinomial x^(k+1) - 2x - 1
    whose root in (1,2) is -1/alpha_kk."""

    k: int
    T: IntPoly
    f: IntPoly
    aux: IntPoly | None


def charpoly(k: int) -> IntPoly:
    return IntPoly(tuple([-1] * k + [1]))


def family_polys(k: int) -> FamilyPolys:
    k = int(k)
    if k < 2:
        raise ValueError("order k must be >= 2")
    _check_degree(k)
    T = charpoly(k)
    f = T * IntPoly((-1, 1))
    expected_f = IntPoly(tuple([1] + [0] * (k - 1) + [-2, 1]))
    if f != expected_f:
        raise CertificationError("T_k (x-1) failed the closed-form check")
    aux = None
    if k % 2 == 0:
        aux = IntPoly(tuple([-1, -2] + [0] * (k - 1) + [1]))
    return FamilyPolys(k=k, T=T, f=f, aux=aux)


def dresden_weight(k: int, x):
    """g_k(x) = (x - 1) / (2 + (k+1)(x - 2)); Binet coefficient at a root."""
    return (x - 1) / ((k + 1) * x - 2 * k)


# ---------------------------------------------------------------------------
# certified root finding for a general integer polynomial
# ---------------------------------------------------------------------------

def _cball_center(z: CBall) -> CBall:
    re, im = z.real().mid_mpf(), z.imag().mid_mpf()
    return CBall(((re, re), (im, im)), z.prec)


def _fixed_div(a_re, a_im, b_re, b_im, p):
    """a / b in fixed point with p fractional bits, for b != 0.  On the real
    line (a_im = b_im = 0) this is floor(a 2^p / b) with imaginary part 0."""
    den = b_re * b_re + b_im * b_im
    return (((a_re * b_re + a_im * b_im) << p) // den,
            ((a_im * b_re - a_re * b_im) << p) // den)


def _newton_refine(poly: IntPoly, z0: complex, prec: int,
                   force_real: bool) -> tuple[CBall, Fraction]:
    """Polish a double-precision estimate; returns (point, last step size).

    Plain point arithmetic, since only the Krawczyk test that follows proves
    anything.  Each step evaluates P and P' in one fixed-point Horner pass
    (``IntPoly.eval_fixed``).  force_real zeroes the seed's imaginary part;
    on a real polynomial it then stays exactly 0.  The precision starts
    where the double seed is exact (at least 53 fractional bits, more for
    |z0| < 1) and doubles each step, as Newton's correct bits do, up to
    prec + 16 bits.  There refinement stops once the step falls to
    2^-(prec+16) (1 + |z|), once it stops shrinking, or after 200 steps.
    The step size is |Re| + |Im| of the last step.  A zero derivative
    raises PrecisionError.
    """
    target = prec + 16
    seeds = (Fraction(z0.real), Fraction(0 if force_real else z0.imag))
    # a double is m / 2^e exactly, so e fractional bits hold it
    p = min(target, max(53, *(x.denominator.bit_length() - 1 for x in seeds)))
    re, im = ((x.numerator << p) // x.denominator for x in seeds)
    size = None
    for _ in range(200):
        p_re, p_im, d_re, d_im = poly.eval_fixed(re, im, p)
        if d_re == 0 == d_im:
            raise PrecisionError("derivative vanishes during refinement")
        s_re, s_im = _fixed_div(p_re, p_im, d_re, d_im, p)
        re, im = re - s_re, im - s_im
        prev, size = size, abs(s_re) + abs(s_im)
        if p < target:
            shift = min(2 * p, target) - p
            re, im, size, p = re << shift, im << shift, size << shift, p + shift
            continue
        if size << p <= (1 << p) + abs(re) + abs(im):
            break
        # the step has hit the rounding floor; Krawczyk certifies regardless
        if prev is not None and size * 4 > prev:
            break
    return CBall.from_fixed(re, im, p, prec), Fraction(size, 1 << p)


def _krawczyk_once(poly: IntPoly, dpoly: IntPoly, box: CBall, prec: int) -> CBall | None:
    """One Krawczyk step: the image K(box) when it lies strictly inside box,
    else None.  A box centred on the real axis has a midpoint with
    imaginary part 0, so the preconditioner is then real."""
    center = _cball_center(box)
    # the preconditioner Y ~ 1/P'(center) may be any point: no ball needed
    p = prec + 16
    re, im = box.mid_fixed(p)
    _, _, d_re, d_im = poly.eval_fixed(re, im, p)
    if d_re == 0 == d_im:
        return None
    y_re, y_im = _fixed_div(1 << p, 0, d_re, d_im, p)
    y = CBall.from_fixed(y_re, y_im, p, prec)
    one = CBall.from_int(1, prec)
    # P(c) enclosed with 16 guard bits: its rounding then adds a fraction of
    # an ulp to the image instead of several
    fc = CBall(poly(CBall(center.v, prec + 16)).v, prec)
    k_img = center - y * fc + (one - y * dpoly(box)) * (box - center)
    if k_img.strictly_inside(box):
        return k_img
    return None


def _certify_root(poly: IntPoly, dpoly: IntPoly, point: CBall, step_size: Fraction,
                  prec: int, force_real: bool) -> CBall:
    re_mid, im_mid = point.mid_fractions()
    scale = 1 + abs(re_mid) + abs(im_mid)
    rad = max(step_size * 16, scale / 2 ** (prec - 16), Fraction(1, 2 ** (2 * prec)))
    for _ in range(10):
        box = CBall.from_re_im(
            RBall.from_midrad(re_mid, rad, prec),
            RBall.from_midrad(Fraction(0) if force_real else im_mid, rad, prec),
        )
        k_img = _krawczyk_once(poly, dpoly, box, prec)
        if k_img is not None:
            # one extra contraction pass tightens the enclosure
            tighter = _krawczyk_once(poly, dpoly, k_img, prec)
            result = tighter if tighter is not None else k_img
            if force_real:
                # box is self-conjugate and holds exactly one root, which is
                # therefore fixed by conjugation: real
                return CBall.from_real(result.real())
            return result
        rad *= 64
    raise PrecisionError("Krawczyk certification failed at this precision")


def _initial_estimates(poly: IntPoly) -> list[complex]:
    """Double-precision estimates of all roots by the Aberth-Ehrlich
    iteration (Aberth, Math. Comp. 1973; Bini, Numer. Algorithms 1996).

    The estimates start on a circle whose radius is the Fujiwara bound on
    the root moduli.  Each sweep moves every unconverged z by
    N / (1 - N sum_j 1/(z - z_j)), N = P(z)/P'(z).  z is converged once
    |P(z)| lies within the rounding bound of its Horner evaluation,
    4 n 2^-53 sum |a_i| |z|^i.  A coefficient outside the double range
    raises ValueError; a breakdown or no convergence within
    MAX_ABERTH_SWEEPS raises PrecisionError.
    """
    if any(abs(c).bit_length() > 1023 for c in poly.coeffs):
        raise ValueError("a coefficient is outside the double range (|c| >= 2^1023)")
    n = poly.degree
    cs = [float(c) for c in reversed(poly.coeffs)]
    mags = [abs(c) for c in cs]
    radius = 2 * max((mags[i] / mags[0] / (2 if i == n else 1)) ** (1 / i)
                     for i in range(1, n + 1))
    zs = [cmath.rect(radius, 2 * math.pi * j / n + 0.4) for j in range(n)]
    done = [False] * n
    tol = 4 * n * 2.0 ** -53
    try:
        for _ in range(MAX_ABERTH_SWEEPS):
            for j, z in enumerate(zs):
                if done[j]:
                    continue
                p = dp = 0j
                for c in cs:
                    dp = dp * z + p
                    p = p * z + c
                r, bound = abs(z), 0.0
                for m in mags:
                    bound = bound * r + m
                if math.isfinite(bound) and abs(p) <= tol * bound:
                    done[j] = True
                    continue
                newton = p / dp
                pull = sum(1 / (z - w) for i, w in enumerate(zs) if i != j)
                zs[j] = z - newton / (1 - newton * pull)
            if all(done):
                return zs
    except (ZeroDivisionError, OverflowError) as exc:
        raise PrecisionError("root estimates broke down") from exc
    raise PrecisionError(f"root estimates did not converge in {MAX_ABERTH_SWEEPS} sweeps")


def certified_roots(poly: IntPoly, prec: int = DEFAULT_PREC) -> list[CBall]:
    """Certified enclosures of all complex roots of a squarefree poly.

    Each returned rectangle provably contains exactly one simple root, the
    rectangles are pairwise disjoint, and non-real roots come in exact
    conjugate pairs (positive-imaginary member computed, mirror synthesized).
    The real roots come first; each non-real root is followed directly by its
    conjugate.  Raises PrecisionError when separation or certification fails.
    """
    if poly.degree < 1:
        raise ValueError("constant polynomial has no roots")
    _check_degree(poly.degree)
    estimates = _initial_estimates(poly)
    dpoly = poly.derivative()
    scale = max(1.0, max(abs(e) for e in estimates))
    real_est = [e for e in estimates if abs(e.imag) <= 1e-7 * scale]
    upper_est = [e for e in estimates if e.imag > 1e-7 * scale]
    if len(real_est) + 2 * len(upper_est) != poly.degree:
        raise PrecisionError("could not split estimates into reals and conjugate pairs")
    balls: list[CBall] = []
    for est in real_est:
        pt, step = _newton_refine(poly, est, prec, force_real=True)
        balls.append(_certify_root(poly, dpoly, pt, step, prec, force_real=True))
    for est in upper_est:
        pt, step = _newton_refine(poly, est, prec, force_real=False)
        ball = _certify_root(poly, dpoly, pt, step, prec, force_real=False)
        if not ball.imag().is_positive():
            raise PrecisionError("imaginary part sign not certified")
        balls.append(ball)
        balls.append(ball.conj())
    for i in range(len(balls)):
        for j in range(i + 1, len(balls)):
            if not balls[i].disjoint(balls[j]):
                raise PrecisionError("root enclosures overlap")
    return balls


# ---------------------------------------------------------------------------
# certified, ordered root profile of T_k
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RootProfile:
    """Roots of T_k ordered by certified nonincreasing modulus.

    The box order is the only record of structure: a root is real when its
    imaginary interval is exactly [0, 0], and a conjugate pair is a root
    with positive imaginary part directly followed by its conjugate box.
    Realness, pairs and separation are derived, not stored, so a cache
    document supplies only boxes, weights g_k(roots[l]) and moduli |roots[l]|.
    """

    k: int
    precision: int
    roots: tuple
    weights: tuple
    moduli: tuple

    def dominant_root(self) -> RBall:
        return self.roots[0].real()

    def smallest_root(self) -> RBall:
        if self.k % 2 != 0:
            raise ValueError("minimal-modulus root is real only for even order")
        return self.roots[-1].real()

    @cached_property
    def real_flags(self) -> tuple:
        return tuple(r.imag().lower() == 0 == r.imag().upper() for r in self.roots)

    def conjugate_pairs(self) -> list:
        return [(i, i + 1) for i, (r, s) in enumerate(zip(self.roots, self.roots[1:]))
                if r.imag().is_positive() and s.v == r.conj().v]

    @cached_property
    def separation_certified(self) -> bool:
        """Moduli of non-conjugate roots are pairwise disjoint."""
        pairs = set(self.conjugate_pairs())
        m = self.moduli
        return all(m[i].disjoint(m[j]) for i in range(len(m))
                   for j in range(i + 1, len(m)) if (i, j) not in pairs)


def _build_profile(k: int, prec: int) -> RootProfile:
    fam = family_polys(k)
    # a conjugate box has the same modulus to the bit, so the sort keeps
    # each pair together, positive-imaginary member first
    entries = sorted(((abs(r), r) for r in certified_roots(fam.T, prec)),
                     key=lambda e: (-e[0].mid(), -e[1].imag().mid()))
    roots = tuple(r for _, r in entries)
    weights = tuple(dresden_weight(k, r) for r in roots)
    profile = RootProfile(k=k, precision=prec, roots=roots, weights=weights,
                          moduli=tuple(m for m, _ in entries))
    _check_profile_invariants(profile, fam.T)
    return profile


def _check_profile_invariants(profile: RootProfile, T: IntPoly) -> None:
    """Exact checks on a certified profile whose roots are those of T.  A
    dominant-root enclosure that only overlaps an end of (2(1-2^-k), 2)
    raises the retryable PrecisionError; any other failure raises
    CertificationError."""
    k, prec, roots = profile.k, profile.precision, profile.roots
    prod = CBall.from_int(1, prec)
    tot = CBall.from_int(0, prec)
    for r in roots:
        prod = prod * r
        tot = tot + r
        through = T(r)
        if not through.contains_zero():
            raise CertificationError("root ball does not map to zero through T_k")
    const = (-1) ** k * (-1)
    if not (prod.real().contains(const) and prod.imag().contains_zero()):
        raise CertificationError("product of roots fails the constant-term check")
    if not (tot.real().contains(1) and tot.imag().contains_zero()):
        raise CertificationError("sum of roots fails the trace check")
    if not profile.real_flags[0]:
        raise CertificationError("dominant root not certified real")
    dom = roots[0].real()
    lo = RBall.from_fraction(2 * (1 - Fraction(1, 2 ** k)), prec)
    hi = RBall.from_int(2, prec)
    if lo.ge(dom) or dom.ge(hi):
        raise CertificationError("dominant root outside (2(1-2^-k), 2)")
    if not (lo.lt(dom) and dom.lt(hi)):
        raise PrecisionError("dominant root enclosure overlaps an end of (2(1-2^-k), 2)")
    for w in profile.weights:
        if w.contains_zero():
            raise CertificationError("a Dresden weight ball contains zero")


_profile_cache: dict = {}
_profile_lock = threading.Lock()


def compute_roots(k: int, prec: int = DEFAULT_PREC) -> RootProfile:
    """Certified RootProfile for T_k.

    The precision is doubled on certification failure up to MAX_PREC, after
    which a hard CertificationError is raised.
    """
    k = int(k)
    if k < 2:
        raise ValueError("order k must be >= 2")
    key = (k, prec)
    with _profile_lock:
        if key in _profile_cache:
            return _profile_cache[key]
    p = prec
    while True:
        try:
            profile = _build_profile(k, p)
            break
        except PrecisionError:
            if 2 * p > MAX_PREC:
                raise CertificationError(
                    f"root certification for k={k} failed up to {MAX_PREC} bits")
            p *= 2
    with _profile_lock:
        _profile_cache[key] = profile
    return profile


# ---------------------------------------------------------------------------
# derived certificates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SmallestRootCertificate:
    k: int
    lam: RBall
    product_contains_minus_one: bool
    strictly_smallest: bool
    in_location_interval: bool

    @property
    def ok(self) -> bool:
        return (self.product_contains_minus_one and self.strictly_smallest
                and self.in_location_interval)


def smallest_root_check(k: int, prec: int = DEFAULT_PREC) -> SmallestRootCertificate:
    """lambda = the root of x^(k+1) - 2x - 1 in (1, 2), with certificates
    that lambda * alpha_kk contains -1 and alpha_kk is strictly minimal."""
    k = int(k)
    if k % 2 != 0:
        raise ValueError("defined for even order only")
    fam = family_polys(k)
    aux, daux = fam.aux, fam.aux.derivative()
    # exact sign change on (1, 2): aux(1) = -2, aux(2) = 2^(k+1) - 5
    if not (aux(1) < 0 < aux(2)):
        raise CertificationError("sign change on (1,2) missing")
    profile = compute_roots(k, prec)
    alpha_min = profile.smallest_root()
    # Newton starts at -1/alpha_kk; the Krawczyk test on aux proves lambda
    # whatever the seed
    seed = complex(-1 / alpha_min.mid())
    pt, step = _newton_refine(aux, seed, prec, force_real=True)
    lam_ball = _certify_root(aux, daux, pt, step, prec, force_real=True).real()
    if not (RBall.from_int(1, prec).lt(lam_ball) and lam_ball.lt(RBall.from_int(2, prec))):
        raise PrecisionError("lambda enclosure not inside (1,2)")

    product = lam_ball * alpha_min
    strictly = all(profile.moduli[-1].lt(profile.moduli[i]) for i in range(k - 1))
    in_interval = (alpha_min.gt(RBall.from_int(-1, prec))
                   and alpha_min.lt(RBall.from_fraction(-Fraction(1, 3 ** k), prec)))
    return SmallestRootCertificate(
        k=k,
        lam=lam_ball,
        product_contains_minus_one=product.contains(-1),
        strictly_smallest=strictly,
        in_location_interval=in_interval,
    )


@dataclass(frozen=True)
class DominanceConstants:
    """c1 and delta of the negative-index dominance inequality
    |F_n - g_k(alpha_kk) alpha_kk^(n-1)| <= c1 |alpha_kk|^(delta n)."""

    k: int
    c1: RBall
    delta: RBall

    def validate(self) -> None:
        if not self.c1.is_positive():
            raise CertificationError("c1 not certified positive")
        zero, one = Fraction(0), Fraction(1)
        if not (self.delta.lower() > zero and self.delta.upper() < one):
            raise CertificationError("delta not certified inside (0, 1)")


def dominance_constants(k: int, prec: int = DEFAULT_PREC) -> DominanceConstants:
    k = int(k)
    if k % 2 != 0 or k <= 2:
        raise ValueError("defined for even order k > 2")
    profile = compute_roots(k, prec)
    c1 = abs(profile.weights[0])
    for j in range(1, k - 1):
        c1 = c1 + abs(profile.weights[j]) / profile.moduli[j]
    delta = profile.moduli[k - 2].log() / profile.moduli[k - 1].log()
    constants = DominanceConstants(k=k, c1=c1, delta=delta)
    constants.validate()
    return constants


@dataclass(frozen=True)
class OrderAssertion:
    name: str
    certified: bool
    note: str = ""


@dataclass(frozen=True)
class OrderReport:
    k_max: int
    assertions: tuple

    @property
    def all_certified(self) -> bool:
        return all(a.certified for a in self.assertions)


def cross_k_monotonicity(k_max: int, prec: int = DEFAULT_PREC) -> OrderReport:
    """Cross-order facts: minimal roots decrease along even orders, dominant
    roots increase with order, and alpha_k1 >= -1/alpha_(2l,2l) with equality
    exactly at order pair (2, 2)."""
    k_max = int(k_max)
    if k_max < 4 or k_max % 2 != 0:
        raise ValueError("k_max must be an even order >= 4")
    _check_degree(k_max)
    assertions = []
    profiles = {k: compute_roots(k, prec) for k in range(2, k_max + 1)}
    even = [k for k in range(2, k_max + 1) if k % 2 == 0]

    for a in even:
        for b in even:
            if a < b:
                ok = profiles[b].smallest_root().lt(profiles[a].smallest_root())
                assertions.append(OrderAssertion(
                    name=f"smallest_root_decreases[{a}<{b}]", certified=ok))
    for a in range(2, k_max + 1):
        for b in range(a + 1, k_max + 1):
            ok = profiles[b].dominant_root().gt(profiles[a].dominant_root())
            assertions.append(OrderAssertion(
                name=f"dominant_root_increases[{a}<{b}]", certified=ok))

    # xi_l = -1/alpha_(2l,2l); dominant roots never dip below any xi_l
    t2 = charpoly(2)
    golden_identity = (family_polys(2).aux == IntPoly((1, 1)) * t2)
    for order in even:
        xi = -(RBall.from_int(1, prec) / profiles[order].smallest_root())
        for k in range(2, k_max + 1):
            dom = profiles[k].dominant_root()
            if order == 2 and k == 2:
                ok = golden_identity and dom.overlaps(xi)
                note = "equality: both equal the golden ratio, " \
                       "x^3 - 2x - 1 = (x + 1)(x^2 - x - 1) exactly"
            else:
                ok = dom.gt(xi)
                note = ""
            assertions.append(OrderAssertion(
                name=f"dominant[{k}]>=xi[{order}]", certified=ok, note=note))
    return OrderReport(k_max=k_max, assertions=tuple(assertions))


# ---------------------------------------------------------------------------
# serialization (versioned cache document)
# ---------------------------------------------------------------------------

def profile_to_json(profile: RootProfile) -> dict:
    pair_of = {}
    for i, j in profile.conjugate_pairs():
        pair_of.update({i: j, j: i})
    return {
        "version": PROFILE_DOC_VERSION,
        "k": profile.k,
        "precision_bits": profile.precision,
        "separation_certified": profile.separation_certified,
        "roots": [cball_to_json(r) for r in profile.roots],
        "weights": [cball_to_json(w) for w in profile.weights],
        "moduli": [ball_to_json(m) for m in profile.moduli],
        "real_flags": list(profile.real_flags),
        "conjugate_partner": [pair_of.get(i) for i in range(profile.k)],
    }


def profile_from_json(doc: dict) -> RootProfile:
    if doc.get("version") != PROFILE_DOC_VERSION:
        raise ValueError("unsupported root profile document version")
    prec = int(doc["precision_bits"])
    return RootProfile(
        k=int(doc["k"]),
        precision=prec,
        roots=tuple(cball_from_json(d, prec) for d in doc["roots"]),
        weights=tuple(cball_from_json(d, prec) for d in doc["weights"]),
        moduli=tuple(ball_from_json(d, prec) for d in doc["moduli"]),
    )
