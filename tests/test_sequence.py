import io
import random
import time
import tracemalloc
from fractions import Fraction

import pytest

from negafib import sequence
from negafib.balls import RBall
from negafib.cli import run
from negafib.sequence import (
    _SeqCache,
    _kfib_power,
    _kfib_roll,
    _value_bits,
    _window_bits,
    UnsupportedCaseError,
    WindowTooLargeError,
    binet_eval,
    dominance_residual,
    kfib,
    kfib_window,
)

# backward recursion F_n = F_{n+4} - F_{n+3} - F_{n+2} - F_{n+1} unrolled by
# hand from the initial block 0, 0, 0, 1
K4_BACKWARD = {
    0: 0, -1: 0, -2: 0, -3: 1, -4: -1, -5: 0, -6: 0, -7: 2, -8: -3, -9: 1,
    -10: 0, -11: 4, -12: -8, -13: 5, -14: -1, -15: 8, -16: -20, -17: 18,
    -18: -7, -19: 17, -20: -48, -21: 56,
}


def test_point_values():
    assert kfib(4, 8) == 56
    assert kfib(4, 1) == 1
    assert kfib(2, -5) == 5
    assert kfib(4, -12) == -8
    for n, v in K4_BACKWARD.items():
        assert kfib(4, n) == v


def test_windows():
    assert kfib_window(4, -5, -1).values == (0, -1, 1, 0, 0)
    assert kfib_window(4, 1, 8).values == (1, 1, 2, 4, 8, 15, 29, 56)
    assert kfib_window(2, 0, 5).values == (0, 1, 1, 2, 3, 5)


@pytest.mark.parametrize("k", range(2, 11))
def test_recursion_exactness(k):
    win = kfib_window(k, -300, 300)
    win.validate()


def test_negation_identity_order2():
    # the two-sided Fibonacci identity: F_{-n} = (-1)^(n+1) F_n
    for n in range(0, 501):
        assert kfib(2, -n) == (-1) ** (n + 1) * kfib(2, n)


def test_window_point_agreement():
    rng = random.Random(7)
    for _ in range(25):
        k = rng.randint(2, 8)
        lo = rng.randint(-200, 0)
        hi = lo + rng.randint(0, 50)
        win = kfib_window(k, lo, hi)
        i = rng.randint(0, hi - lo)
        assert win.values[i] == kfib(k, lo + i)


def _reference_values(k, lo, hi):
    """F_lo..F_hi from the k-term recurrence in both directions."""
    f = {n: 0 for n in range(-k + 2, 1)}
    f[1] = 1
    for n in range(2, hi + 1):
        f[n] = sum(f[n - j] for j in range(1, k + 1))
    for m in range(-k + 1, lo - 1, -1):
        f[m] = f[m + k] - sum(f[m + j] for j in range(1, k))
    return [f[n] for n in range(lo, hi + 1)]


def _assert_cache_matches_reference(cache):
    assert cache.vals == _reference_values(cache.k, cache.lo, cache.hi)


@pytest.mark.parametrize("k", [2, 3, 4, 7, 40])
def test_extension_order_does_not_matter(k):
    lo, hi = -150, 150
    down_first, up_first, steps = _SeqCache(k), _SeqCache(k), _SeqCache(k)
    down_first.extend_to(lo, 1)
    down_first.extend_to(lo, hi)
    up_first.extend_to(-k + 2, hi)
    up_first.extend_to(lo, hi)
    # one value at a time down from the initial block, then small strides
    for step in (1, 1, 2, 3, 5):
        steps.extend_to(steps.lo - step, steps.hi + step)
        _assert_cache_matches_reference(steps)
    steps.extend_to(lo, hi)
    for cache in (down_first, up_first, steps):
        assert (cache.lo, cache.hi) == (lo, hi)
        _assert_cache_matches_reference(cache)


@pytest.mark.parametrize("k", [2, 3, 4, 7, 40])
def test_fresh_cache_boundary(k):
    cache = _SeqCache(k)
    cache.extend_to(-k + 1, 1)
    assert cache.value(-k + 1) == 1
    _assert_cache_matches_reference(cache)
    cache.extend_to(-k, 2)
    assert (cache.value(-k), cache.value(2)) == (-1, 1)
    _assert_cache_matches_reference(cache)


@pytest.mark.parametrize("k", [2, 3, 4, 7, 17, 25, 40])
def test_both_routes_match_the_cache(k):
    cache = _SeqCache(k)
    cache.extend_to(-3001, 3001)
    for n in (-k, -k + 1, 0, 1, 2, k + 1, k + 2, 997, -997, 3001, -3001):
        assert _kfib_power(k, n) == cache.value(n), ("power", n)
        assert _kfib_roll(k, n) == cache.value(n), ("roll", n)


def test_route_choice_follows_the_cost_model():
    # powering at small k or n < 0; rolling at large k and n > 0, where
    # (k+1)^2 products of n-bit coefficients cost more than n subtractions
    for k, n in ((2, 50000), (4, 13000), (4, 200000), (4, -36000), (64, -8000)):
        assert sequence._power_is_cheaper(k, n), (k, n)
    for k, n in ((40, 25000), (40, 200000), (64, 500), (4, 5)):
        assert not sequence._power_is_cheaper(k, n), (k, n)


def test_far_values_store_no_prefix(monkeypatch):
    monkeypatch.setattr(sequence, "_caches", {})
    tracemalloc.start()
    try:
        far = kfib(40, 25000), kfib(4, -36000)
        _size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sequence._caches == {}
    assert peak < 1 << 20
    # the other route gives the same values
    assert far == (_kfib_power(40, 25000), _kfib_roll(4, -36000))


def test_covered_index_reads_the_cache(monkeypatch):
    monkeypatch.setattr(sequence, "_caches", {})
    kfib_window(4, -10, 10)
    calls = []

    def counted(route):
        def call(k, n):
            calls.append(n)
            return route(k, n)
        return call

    monkeypatch.setattr(sequence, "_kfib_power", counted(_kfib_power))
    monkeypatch.setattr(sequence, "_kfib_roll", counted(_kfib_roll))
    assert (kfib(4, 5), kfib(4, -10), kfib(4, 10)) == (8, 0, 208)
    assert calls == []
    assert kfib(4, 11) == kfib(4, 10) * 2 - kfib(4, 6)
    assert calls == [11]
    assert (sequence._caches[4].lo, sequence._caches[4].hi) == (-10, 10)


def test_value_bits_stay_within_the_window_estimate():
    # |F_n| < 2^(|n|+1), the per-value bound behind _window_bits
    for k in range(2, 41):
        cache = _SeqCache(k)
        cache.extend_to(-6000, 3000)
        for n, v in zip(range(cache.lo, cache.hi + 1), cache.vals):
            assert abs(v).bit_length() <= abs(n) + 1, (k, n)
            assert abs(v).bit_length() <= _value_bits(k, n), (k, n)
    cache = _SeqCache(4)
    cache.extend_to(-500, 700)
    assert _window_bits(4, -500, 700) >= sum(abs(v).bit_length() for v in cache.vals)


@pytest.mark.parametrize("argv", [["kfib", "4", "1" + "0" * 400],
                                  ["kfib", "4", "-1" + "0" * 400],
                                  ["kfib", "40", str(sequence.MAX_VALUE_BITS)],
                                  ["kfib", "2", str(-2 * sequence.MAX_VALUE_BITS)],
                                  # small values at orders whose working set of
                                  # 2k + 1 values is over MAX_WINDOW_BITS
                                  ["kfib", "1" + "0" * 200, "5"],
                                  ["kfib", str(10**9), "5"],
                                  ["kfib", str(10**9), "-5"]])
def test_oversized_value_is_refused_before_any_work(argv, monkeypatch):
    def untouched(*args):
        raise AssertionError("work started on a refused value")

    for name in ("_power_is_cheaper", "_kfib_power", "_kfib_roll"):
        monkeypatch.setattr(sequence, name, untouched)
    err = io.StringIO()
    start = time.perf_counter()
    code = run(argv, out=io.StringIO(), err=err)
    assert code == 3 and "budget" in err.getvalue()
    assert time.perf_counter() - start < 0.5


def test_value_budget_admits_the_digit_limit_values():
    # F_25000 at k = 40 is within budget; only printing it hits Python's
    # 4300-digit int -> str limit
    err = io.StringIO()
    assert run(["kfib", "40", "25000"], out=io.StringIO(), err=err) == 3
    assert "Exceeds the limit (4300 digits)" in err.getvalue()
    assert _value_bits(40, 25000) * 10 < sequence.MAX_VALUE_BITS


@pytest.mark.parametrize("argv", [["window", "4", "0", "1999999"],
                                  ["powers", "4", "0", "400000"]])
def test_oversized_window_is_refused_before_allocating(argv, monkeypatch):
    monkeypatch.setattr(sequence, "_caches", {})
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    tracemalloc.start()
    try:
        code = run(argv, out=out, err=err)
        _size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 3 and "budget" in err.getvalue()
    assert time.perf_counter() - start < 2
    assert peak < 1 << 20
    assert sequence._caches == {}


def test_window_validates_args():
    with pytest.raises(ValueError):
        kfib_window(4, 5, 1)
    with pytest.raises(WindowTooLargeError):
        kfib_window(4, 0, 3_000_000)
    with pytest.raises(ValueError):
        kfib(1, 5)


def test_binet_matches_exact_values():
    b = binet_eval(4, 8, 256)
    assert b.contains(56)
    assert b.rad() < Fraction(1, 10**10)
    assert binet_eval(2, 10, 256).contains(55)
    assert binet_eval(4, -12, 256).contains(-8)


def test_binet_terms_match_the_full_sum():
    # one term per real root and one per conjugate pair, against the sum over
    # every root in rectangles that binet_eval used to form
    from negafib.charpoly import compute_roots
    prec = 384
    for k in range(2, 13):
        profile = compute_roots(k, prec)
        for n in range(-200, 201):
            b = binet_eval(k, n, prec)
            assert b.contains(kfib(k, n)) and b.rad() < Fraction(1, 2), (k, n)
            total = None
            for root, weight in zip(profile.roots, profile.weights):
                term = weight * root.pow_int(n - 1)
                total = term if total is None else total + term
            im_bound = max(abs(total.imag().lower()), abs(total.imag().upper()))
            old = RBall.from_endpoints(total.real().lower() - im_bound,
                                       total.real().upper() + im_bound, prec)
            assert b.overlaps(old), (k, n)


def test_binet_pins_a_unique_integer():
    b = binet_eval(6, -37, 384)
    lo, hi = b.lower(), b.upper()
    assert hi - lo < 1
    import math
    assert math.ceil(lo) == math.floor(hi) == kfib(6, -37)


def test_dominance_examples():
    half = Fraction(1, 2)
    assert dominance_residual(4, 10, 256).upper() < half
    assert dominance_residual(2, 0, 256).upper() < half
    # negative side against the printed envelope 0.92 |alpha_4|^(0.786 n)
    from negafib.charpoly import compute_roots
    a4_abs = abs(compute_roots(4, 256).smallest_root())
    envelope = RBall.from_decimal("0.92", 256) * (a4_abs.log() * Fraction("-23.58")).exp()
    assert dominance_residual(4, -30, 256).upper() < envelope.lower()


def test_dominance_rejects_odd_negative():
    with pytest.raises(UnsupportedCaseError):
        dominance_residual(3, -5, 256)
    # nonnegative indices stay fine for odd order
    assert dominance_residual(3, 5, 256).upper() < Fraction(1, 2)


def test_binet_raises_when_integer_not_pinned():
    # at 64 bits the cancellation at k = 10, n = 300 leaves a huge radius
    from negafib.balls import PrecisionError
    with pytest.raises(PrecisionError):
        binet_eval(10, 300, 64)
