import random
from fractions import Fraction

import pytest

from negafib.charpoly import compute_roots
from negafib.sequence import kfib, kfib_window
from negafib.solvers import (
    REPLAY_PASS1_MIN_Q,
    _iroot,
    _max_power,
    _may_be_power,
    _primes_below,
    k4_pipeline,
    multiplicity,
    negative_pair_bounds,
    pm_intersection,
    power_scan,
    repeats_scan,
    tail_lower_threshold,
)

PREC = 384


@pytest.fixture(scope="module")
def profile4():
    return compute_roots(4, PREC)


def test_repeats_scan_order4_negative_branch():
    s = repeats_scan(4, -104, 0, repeats_only=True)
    assert set(s.classes) == {0, 1, 8}
    assert s.classes[0] == (-10, -6, -5, -2, -1, 0)
    assert s.classes[1] == (-14, -9, -4, -3)
    assert s.classes[8] == (-15, -12)
    assert [len(v) for v in s.classes.values()] == [6, 4, 2]


def test_repeats_scan_trivial_order2():
    s = repeats_scan(2, 1, 10, repeats_only=True)
    assert s.classes == {1: (1, 2)}


def test_pm_intersection_order4_mixed():
    m = pm_intersection(4, 4, (1, 30), (-225, -1))
    assert m.value_classes() == (1, 2, 4, 8, 56)
    by = m.by_class()
    assert {t[:2] for t in by[1]} == {(1, -3), (1, -4), (1, -9), (1, -14),
                                      (2, -3), (2, -4), (2, -9), (2, -14)}
    assert {t[:2] for t in by[2]} == {(3, -7)}
    assert {t[:2] for t in by[4]} == {(4, -11)}
    assert {t[:2] for t in by[8]} == {(5, -12), (5, -15)}
    assert {t[:2] for t in by[56]} == {(8, -21)}
    assert len(m.matches) == 13


def test_pm_intersection_order2_negation():
    m = pm_intersection(2, 2, (3, 20), (-20, -3))
    assert {t[:2] for t in m.matches} == {(j, -j) for j in range(3, 21)}
    assert (5, -5, 5, 1) in m.matches


def test_pm_intersection_transpose_symmetry():
    a = pm_intersection(4, 2, (0, 20), (-15, 10))
    b = pm_intersection(2, 4, (-15, 10), (0, 20))
    transposed = {(n, m, s * c, s) for m, n, c, s in a.matches}
    assert transposed == set(b.matches)


def test_multiplicity_examples():
    assert multiplicity(4, 8, -104, 30) == [-15, 5]
    assert multiplicity(4, 0, -104, 0) == [-10, -6, -5, -2, -1, 0]
    assert multiplicity(2, 1, -10, 10) == [-1, 1, 2]


def test_multiplicity_consistent_with_repeats():
    s = repeats_scan(4, -104, 0)
    for c, indices in s.classes.items():
        merged = sorted(set(multiplicity(4, c, -104, 0))
                        | set(multiplicity(4, -c, -104, 0)))
        assert tuple(merged) == indices


def test_power_scan_examples():
    ps = power_scan(4, 1, 20)
    assert ps.nontrivial == ((4, 2, 2), (5, 2, 3))
    assert ps.trivial == ((1, 1), (2, 1))
    ps = power_scan(4, -20, -1)
    assert (-12, -2, 3) in ps.nontrivial
    assert set(ps.nontrivial) == {(-15, 2, 3), (-12, -2, 3), (-11, 2, 2)}
    ps = power_scan(2, 1, 13)
    assert set(ps.nontrivial) == {(6, 2, 3), (12, 12, 2)}
    assert set(ps.trivial) == {(1, 1), (2, 1)}


def test_power_scan_recomputation():
    ps = power_scan(4, -60, 60)
    for n, x, q in ps.nontrivial:
        assert x**q == kfib(4, n)
        assert q >= 2 and abs(x) >= 2


def _power_scan_reference(k, lo, hi):
    """Every exponent from bit_length - 1 down to 2, largest exact one first."""
    nontrivial, trivial = [], []
    for n, v in zip(range(lo, hi + 1), kfib_window(k, lo, hi).values):
        if v in (0, 1, -1):
            trivial.append((n, v))
            continue
        av = abs(v)
        if av < 4:
            continue
        for q in range(av.bit_length() - 1, 1, -1):
            if v < 0 and q % 2 == 0:
                continue
            r, exact = _iroot(av, q)
            if exact and r >= 2:
                nontrivial.append((n, r if v > 0 else -r, q))
                break
    return tuple(nontrivial), tuple(trivial)


@pytest.mark.parametrize("k", [2, 3, 4, 6])
def test_power_scan_matches_descending_exponent_reference(k):
    ps = power_scan(k, -300, 300)
    assert (ps.nontrivial, ps.trivial) == _power_scan_reference(k, -300, 300)


def test_max_power_synthetic_values():
    # composite maximal exponents
    assert _max_power(3**10) == (3, 10)
    assert _max_power(6**6) == (6, 6)
    assert _max_power(2**12) == (2, 12)
    assert _max_power(7**2 * 11**3) == (7**2 * 11**3, 1)
    # a negative value keeps the odd part of the exponent of its modulus
    assert _max_power(-2**4) == (-16, 1)
    assert _max_power(-2**6) == (-4, 3)
    assert _max_power(-2**12) == (-16, 3)
    assert _max_power(-3**15) == (-3, 15)
    for v in (2, 3, -2, -3, 6, -12):
        assert _max_power(v) == (v, 1)


def test_residue_sieve_never_rejects_a_power():
    for p in _primes_below(98):
        for y in (2, 3, 5, 7, 13, 29, 10**6 + 3, 2**61 - 1, 3 * 5 * 7 * 11 * 13):
            assert _may_be_power(y**p, p), (y, p)


def test_negative_pair_bounds(profile4):
    case2 = negative_pair_bounds(profile4, PREC)
    assert (case2.d_min, case2.m_min, case2.n_min) == (-15, -89, -104)
    assert all(c.ok for c in case2.certificates)
    printed = {
        "pair_damping": Fraction("0.85"),
        "pair_coefficient": Fraction("1.65"),
        "gap_offset": Fraction("10.23"),
        "magnitude_coefficient": Fraction("41.2"),
        "magnitude_offset": Fraction("7.6"),
    }
    for name, cap in printed.items():
        assert case2.constants[name].upper() <= cap, name
    assert case2.constants["unit_gap_floor"].lower() >= Fraction("0.29")


def test_negative_pair_bounds_contain_all_solutions(profile4):
    case2 = negative_pair_bounds(profile4, PREC)
    found = pm_intersection(4, 4, (case2.m_min - 60, -1), (case2.n_min - 60, -1))
    for m, n, _c, _s in found.matches:
        if m == n:
            continue
        hi, lo = max(m, n), min(m, n)
        assert hi >= case2.m_min and lo >= case2.n_min


def test_tail_threshold(profile4):
    nu, certs = tail_lower_threshold(profile4, PREC)
    assert nu == 31  # derived; well below the 225 the chain needs
    assert all(c.ok for c in certs)


def test_pipeline_report_structure(profile4):
    report = k4_pipeline(PREC)
    assert report.certified
    assert report.case2_bounds == (-15, -89, -104)
    assert report.final_search_bound == 226
    assert report.sound_bound_nu <= 10**20
    assert report.reduction_trace[0].q == REPLAY_PASS1_MIN_Q
    assert report.max_abs_index == 21 and report.reference_max_index == 22
    # solutions re-verify and the negative scan matches the dedicated op
    report.solutions.verify()
    again = repeats_scan(4, report.case2_bounds[2], 0, repeats_only=True)
    assert again.classes == report.negative_scan.classes


def test_pipeline_all_matches_decompose(profile4):
    report = k4_pipeline(PREC)
    seen = set()
    for m, n, c, s in report.all_matches.matches:
        if m == n:
            continue
        seen.add((m, n))
        assert kfib(4, m) == s * kfib(4, n) == c
    # every nontrivial pair appears with its transpose
    assert all((n, m) in seen for m, n in seen)


def test_sampled_exclusions_spot_check(profile4):
    rng = random.Random(99)
    for _ in range(50):
        n = -rng.randint(227, 2000)
        m = rng.randint(0, 226)
        assert kfib(4, m) != kfib(4, n) and kfib(4, m) != -kfib(4, n)
