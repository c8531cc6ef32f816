import cmath
import types
from dataclasses import replace
from fractions import Fraction

import pytest

from negafib import charpoly as charpoly_module
from negafib.balls import CBall, CertificationError, PrecisionError, RBall
from negafib.charpoly import (
    _certify_root,
    _initial_estimates,
    _newton_refine,
    certified_roots,
    charpoly,
    compute_roots,
    cross_k_monotonicity,
    dominance_constants,
    dresden_weight,
    family_polys,
    profile_from_json,
    profile_to_json,
    smallest_root_check,
)
from negafib.cli import MIN_PREC
from negafib.intpoly import IntPoly
from negafib.linforms import weil_height


def test_family_polys_small_orders():
    fam2 = family_polys(2)
    assert fam2.T.coeffs == (-1, -1, 1)
    assert fam2.f.coeffs == (1, 0, -2, 1)
    assert fam2.aux.coeffs == (-1, -2, 0, 1)
    fam4 = family_polys(4)
    assert fam4.T.coeffs == (-1, -1, -1, -1, 1)
    assert fam4.f.coeffs == (1, 0, 0, 0, -2, 1)
    assert fam4.aux.coeffs == (-1, -2, 0, 0, 0, 1)
    assert family_polys(3).aux is None


@pytest.mark.parametrize("k", range(2, 11))
def test_no_rational_roots(k):
    t = charpoly(k)
    for x in (1, -1, 2, -2):
        assert t(x) != 0


def test_order2_profile_is_golden():
    p = compute_roots(2, 128)
    phi = (1 + RBall.from_int(5, 128).sqrt()) / 2
    assert p.dominant_root().overlaps(phi)
    assert p.smallest_root().overlaps(1 - phi)
    assert p.separation_certified
    assert p.real_flags == (True, True)


def test_order4_profile_values():
    p = compute_roots(4, 256)
    # derived by Newton refinement from double-precision estimates
    assert abs(p.dominant_root().mid() - Fraction("1.9275619754829253")) < Fraction(1, 10**12)
    assert abs(p.smallest_root().mid() + Fraction("0.7748041132154339")) < Fraction(1, 10**12)
    assert abs(p.moduli[1].mid() - Fraction("0.8182760987795398")) < Fraction(1, 10**12)
    # modulus of the pair cross-checked from the constant term:
    # |alpha_2|^2 * alpha_1 * |alpha_4| = 1
    prod = p.moduli[1] * p.moduli[1] * p.dominant_root() * abs(p.smallest_root())
    assert prod.contains(1)
    assert abs(abs(p.weights[0]).mid() - Fraction("0.5663428877")) < Fraction(1, 10**9)
    assert p.separation_certified
    assert p.real_flags == (True, False, False, True)


def test_conjugate_closure_and_pair_ordering():
    p = compute_roots(7, 256)
    for i, root in enumerate(p.roots):
        assert any(root.conj().real().overlaps(other.real())
                   and root.conj().imag().overlaps(other.imag())
                   for other in p.roots)
    # every pair is found from the box order, up to the degree cap
    for p in (p, compute_roots(charpoly_module.MAX_DEGREE, 256)):
        pairs = p.conjugate_pairs()
        assert 2 * len(pairs) == p.real_flags.count(False) == p.k - 2 + p.k % 2
        for i, j in pairs:
            assert p.roots[i].imag().is_positive()
            assert p.roots[j].imag().upper() < 0
            assert p.roots[j].v == p.roots[i].conj().v
            assert p.moduli[i].v == p.moduli[j].v
        assert p.separation_certified


@pytest.mark.parametrize("k", range(2, 9))
def test_root_balls_map_to_zero(k):
    p = compute_roots(k, 192)
    t = charpoly(k)
    for root in p.roots:
        assert t(root).contains_zero()
    for w, root in zip(p.weights, p.roots):
        d = dresden_weight(k, root)
        assert not w.contains_zero()
        assert (w - d).contains_zero()


def test_doubling_precision_shrinks_radii():
    lo = compute_roots(5, 128)
    hi = compute_roots(5, 256)
    for a, b in zip(lo.moduli, hi.moduli):
        assert b.rad() * 2 <= a.rad()


def test_dominant_root_bracket():
    for k in (2, 3, 6, 11):
        p = compute_roots(k, 192)
        dom = p.dominant_root()
        assert dom.lower() > 2 * (1 - Fraction(1, 2**k))
        assert dom.upper() < 2


def test_smallest_root_certificates():
    c2 = smallest_root_check(2, 192)
    phi = (1 + RBall.from_int(5, 192).sqrt()) / 2
    assert c2.ok and c2.lam.overlaps(phi)
    c4 = smallest_root_check(4, 256)
    assert c4.ok
    assert abs(c4.lam.mid() - Fraction("1.2906488")) < Fraction(1, 10**6)
    c40 = smallest_root_check(40, 384)
    assert c40.ok
    small = compute_roots(40, 384).smallest_root()
    assert small.gt(RBall.from_int(-1, 384))
    assert small.lt(RBall.from_fraction(-Fraction(1, 3**40), 384))


def test_smallest_root_rejects_odd():
    with pytest.raises(ValueError):
        smallest_root_check(3, 128)


def test_dominance_constants_order4():
    dc = dominance_constants(4, 384)
    assert abs(dc.c1.mid() - Fraction("0.92")) < Fraction("0.01")
    assert abs(dc.delta.mid() - Fraction("0.786")) < Fraction("0.001")
    # decomposition: |g4(a1)| ~ 0.566 plus two pair terms of ~ 0.177 each
    p = compute_roots(4, 384)
    pair_term = abs(p.weights[1]) / p.moduli[1]
    assert abs(pair_term.mid() - Fraction("0.177")) < Fraction("0.001")
    total = abs(p.weights[0]) + 2 * pair_term
    assert total.overlaps(dc.c1)


def test_dominance_constants_order6_delta_in_unit_interval():
    dc = dominance_constants(6, 256)
    assert Fraction(0) < dc.delta.lower() and dc.delta.upper() < Fraction(1)
    with pytest.raises(ValueError):
        dominance_constants(3, 128)
    with pytest.raises(ValueError):
        dominance_constants(2, 128)


def test_cross_order_report():
    rep = cross_k_monotonicity(8, 256)
    assert rep.all_certified
    golden = [a for a in rep.assertions if a.name == "dominant[2]>=xi[2]"]
    assert len(golden) == 1 and "golden" in golden[0].note
    doms = [compute_roots(k, 256).dominant_root() for k in (2, 3, 4)]
    assert doms[0].lt(doms[1]) and doms[1].lt(doms[2])


def test_cross_order_modulus_distinctness_observation():
    # observation only: moduli of different orders stay pairwise separated
    # for the small orders checked here
    moduli = []
    for k in range(2, 7):
        moduli.extend((k, m) for m in compute_roots(k, 256).moduli)
    for i in range(len(moduli)):
        for j in range(i + 1, len(moduli)):
            ka, a = moduli[i]
            kb, b = moduli[j]
            if ka == kb:
                continue
            assert a.disjoint(b), (ka, kb)


def test_certified_roots_general_polys():
    roots = certified_roots(IntPoly((-1, -1, 1)), 192)
    assert len(roots) == 2
    roots = certified_roots(IntPoly((-3, 2)), 128)
    assert len(roots) == 1 and roots[0].real().contains(Fraction(3, 2))


def test_certified_roots_list_each_conjugate_after_its_root():
    roots = certified_roots(charpoly(7), 192)
    real = [r.imag().contains_zero() for r in roots]
    assert real == [True] + [False] * 6  # the real roots come first
    for z, w in zip(roots[1::2], roots[2::2]):
        assert z.imag().is_positive()
        assert w.v == z.conj().v


def test_charpoly_name_is_the_submodule():
    import negafib
    import negafib.charpoly as m
    assert isinstance(m, types.ModuleType)
    assert m.charpoly is charpoly
    assert "charpoly" not in negafib.__all__


@pytest.mark.parametrize("prec", (384, 1024))
@pytest.mark.parametrize("k", (4, 10, 20, 40))
def test_newton_refinement_stops_at_the_rounding_floor(monkeypatch, k, prec):
    # the step stalls a few ulps above the tolerance, so refinement must
    # stop on stagnation; the 200-step cap costs over 200 evaluations per root
    calls = [0]
    horner = IntPoly.__call__

    def counted(self, x):
        calls[0] += 1
        return horner(self, x)

    monkeypatch.setattr(IntPoly, "__call__", counted)
    roots = certified_roots(family_polys(k).T, prec)
    assert len(roots) == k
    assert calls[0] <= 32 * k


@pytest.mark.parametrize("k", (4, 10, 20, 40))
def test_certified_roots_evaluate_few_balls(monkeypatch, k):
    # Newton and the preconditioner run in fixed point; only P(c) and P'(box)
    # of each Krawczyk pass are ball evaluations
    calls = [0]
    horner = IntPoly.__call__

    def counted(self, x):
        calls[0] += isinstance(x, (CBall, RBall))
        return horner(self, x)

    monkeypatch.setattr(IntPoly, "__call__", counted)
    assert len(certified_roots(family_polys(k).T, 384)) == k
    assert calls[0] <= 6 * k


@pytest.mark.parametrize("prec", (64, 384, 1024))
def test_newton_centre_lies_in_its_certified_box(monkeypatch, prec):
    pairs = []
    certify = charpoly_module._certify_root

    def recorded(poly, dpoly, point, step, prec, force_real):
        box = certify(poly, dpoly, point, step, prec, force_real)
        pairs.append((point, box))
        return box

    monkeypatch.setattr(charpoly_module, "_certify_root", recorded)
    bound = Fraction(1, 2 ** (prec - 16))
    for k in range(2, 41):
        pairs.clear()
        # certifies at prec itself: compute_roots would need no doubling
        certified_roots(family_polys(k).T, prec)
        assert pairs
        for point, box in pairs:
            re, im = point.mid_fractions()
            assert box.real().contains(re) and box.imag().contains(im), (k, prec)
            assert box.real().rad() <= bound and box.imag().rad() <= bound, (k, prec)


def test_height_roots_with_extreme_seeds():
    # roots +-10^20 and +-10^-20: the seeds convert without float overflow and
    # start Newton at enough fractional bits; both heights are 20 log 10
    prec = 192
    expected = RBall.from_int(10, prec).log() * 20
    for poly in (IntPoly((-10**40, 0, 1)), IntPoly((-1, 0, 10**40))):
        roots = certified_roots(poly, prec)
        assert len(roots) == 2
        assert weil_height(poly, prec).value.overlaps(expected)


@pytest.mark.parametrize("force_real", (True, False))
def test_newton_at_a_critical_point_raises_retryable(force_real):
    with pytest.raises(PrecisionError):
        _newton_refine(IntPoly((-2, 0, 1)), 0j, 128, force_real=force_real)


def test_newton_stops_only_after_converging_from_a_poor_start():
    prec = 384
    T = family_polys(10).T
    dT = T.derivative()
    roots = certified_roots(T, prec)
    bound = Fraction(1, 2 ** (prec - 16))
    for est in _initial_estimates(T):
        if est.imag < -1e-7:
            continue  # its conjugate is started instead
        real = abs(est.imag) <= 1e-7
        ref = min(roots, key=lambda b: abs(complex(*map(float, b.mid_fractions())) - est))
        for turn in ((1, -1) if real else (1, 1j, -1, -1j)):
            start = complex(est) + 1e-3 * turn
            point, step = _newton_refine(T, start, prec, force_real=real)
            ball = _certify_root(T, dT, point, step, prec, force_real=real)
            assert not ball.disjoint(ref), (est, turn)
            assert ball.real().rad() <= bound and ball.imag().rad() <= bound, (est, turn)


def test_root_enclosures_are_within_16_bits_of_precision():
    # profiles at 384 bits for k <= 40 are already cached by criterion 08
    prec = 384
    bound = Fraction(1, 2 ** (prec - 16))
    for k in range(2, 41):
        for root in compute_roots(k, prec).roots:
            assert root.real().rad() <= bound, (k, root)
            assert root.imag().rad() <= bound, (k, root)


def test_every_order_up_to_the_cap_certifies_at_the_lowest_precision():
    for k in range(2, charpoly_module.MAX_DEGREE + 1):
        assert compute_roots(k, MIN_PREC).precision == MIN_PREC, k


def test_an_overlapped_dominant_bracket_doubles_the_precision(monkeypatch):
    # from order 62 a 64-bit enclosure of alpha_1 overlaps the bracket end
    # 2(1 - 2^-k): retryable, so compute_roots certifies at 128 bits
    monkeypatch.setattr(charpoly_module, "MAX_DEGREE", 64)
    monkeypatch.setattr(charpoly_module, "_profile_cache", {})
    for k in (62, 63, 64):
        with pytest.raises(PrecisionError):
            charpoly_module._build_profile(k, 64)
        assert compute_roots(k, 64).precision == 128, k


def test_a_dominant_root_certainly_outside_its_bracket_is_final():
    # alpha_1 of T_4 (about 1.928) lies below the order-6 bracket (1.969, 2)
    p = compute_roots(4, 192)
    with pytest.raises(CertificationError):
        charpoly_module._check_profile_invariants(
            replace(p, k=6), family_polys(4).T)


def test_certified_roots_cluster_raises_retryable():
    # clusters 3.5e-31 apart are not "squarefree enough" here at any
    # precision the double-seeded refinement can reach
    p = IntPoly((-2, 0, 1)) * IntPoly((-(2 * 10**30 + 1), 0, 10**30))
    with pytest.raises(PrecisionError):
        certified_roots(p, 64)
    # a 3.5e-6 gap is well inside reach
    q = IntPoly((-2, 0, 1)) * IntPoly((-(2 * 10**5 + 1), 0, 10**5))
    assert len(certified_roots(q, 192)) == 4


def test_seeds_of_x_n_plus_1_match_its_roots():
    # roots on the unit circle, real -1 for odd n, and starts near roots
    for n in range(2, 61):
        poly = IntPoly((1,) + (0,) * (n - 1) + (1,))
        seeds = _initial_estimates(poly)
        roots = [cmath.exp(1j * cmath.pi * (2 * j + 1) / n) for j in range(n)]
        nearest = [min(range(n), key=lambda j: abs(z - roots[j])) for z in seeds]
        assert sorted(nearest) == list(range(n)), n
        assert all(abs(z - roots[j]) < 1e-12 for z, j in zip(seeds, nearest)), n
        assert len(certified_roots(poly, 64)) == n


def test_seeds_and_roots_with_a_zero_root():
    poly = IntPoly((0, -2, 0, 1))
    assert min(abs(z) for z in _initial_estimates(poly)) < 1e-12
    roots = certified_roots(poly, 128)
    assert sum(r.real().contains(0) for r in roots) == 1
    sqrt2 = RBall.from_int(2, 128).sqrt()
    assert any(r.real().overlaps(sqrt2) for r in roots)
    assert any(r.real().overlaps(-sqrt2) for r in roots)


def test_seeder_raises_retryable_at_its_sweep_cap(monkeypatch):
    # a root near -2^600 overflows the double Horner pass and never converges
    with pytest.raises(PrecisionError):
        _initial_estimates(IntPoly((1, 2 ** 600, 1)))
    monkeypatch.setattr(charpoly_module, "MAX_ABERTH_SWEEPS", 1)
    with pytest.raises(PrecisionError):
        _initial_estimates(charpoly(10))
    with pytest.raises(PrecisionError):
        certified_roots(charpoly(10), 128)


def test_seeder_refuses_coefficients_outside_the_double_range():
    with pytest.raises(ValueError):
        _initial_estimates(IntPoly((-3, 2 ** 1023)))
    assert len(_initial_estimates(IntPoly((-3, 2 ** 1023 - 1)))) == 1


@pytest.mark.parametrize("k", (4, 12))
def test_smallest_root_check_makes_no_float_evaluation(monkeypatch, k):
    # lambda's Newton seed is -1/alpha_kk from the certified profile
    floats = [0]
    horner = IntPoly.__call__

    def counted(self, x):
        floats[0] += isinstance(x, float)
        return horner(self, x)

    monkeypatch.setattr(IntPoly, "__call__", counted)
    assert smallest_root_check(k, 192).ok
    assert floats[0] == 0


def test_profile_serialization_roundtrip():
    p = compute_roots(6, 192)
    doc = profile_to_json(p)
    q = profile_from_json(doc)
    assert q.k == p.k and q.precision == p.precision
    assert q.separation_certified == p.separation_certified
    assert q.conjugate_pairs() == p.conjugate_pairs()
    for a, b in zip(p.roots, q.roots):
        assert a.real().lower() == b.real().lower()
        assert a.imag().upper() == b.imag().upper()
    for a, b in zip(p.moduli, q.moduli):
        assert a.lower() == b.lower() and a.upper() == b.upper()
