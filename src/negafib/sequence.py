"""Exact evaluation of k-generalized Fibonacci numbers over all of Z.

The order-k sequence starts from the block F_n = 0 for n = -k+2, ..., 0 and
F_1 = 1, and satisfies F_{n+k} = F_{n+k-1} + ... + F_n.  Because the trailing
recursion coefficient is 1 the sequence extends to negative indices with
integer values: F_n = F_{n+k} - F_{n+k-1} - ... - F_{n+1}.

Exact values are plain Python ints.  ``kfib_window`` grows a per-order cache
on demand in both directions under a lock; cached values are immutable and
shareable.  ``kfib`` reads that cache when it already covers n.  Otherwise it
computes F_n alone and leaves the cache as it is, by one of two routes chosen
from (k, n): powering x modulo the trinomial f_k = (x - 1) T_k =
x^(k+1) - 2x^k + 1, or rolling k + 1 values of the two-term identities.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from .balls import DEFAULT_PREC, PrecisionError, RBall

MAX_WINDOW_BITS = 2 ** 30
# the slowest value kfib accepts at orders k <= 40, F_n at k = 40 and
# n = -8832807 (powering), took 8.3 s on a 2-vCPU Xeon; n = 349999 (rolling)
# took 4.9 s
MAX_VALUE_BITS = 350_000


class UnsupportedCaseError(ValueError):
    """Requested a quantity the underlying inequalities do not cover."""


class WindowTooLargeError(ValueError):
    """Requested window exceeds the configured memory budget."""


class ValueTooLargeError(ValueError):
    """Requested value exceeds the configured size budget."""


def _check_order(k: int) -> int:
    k = int(k)
    if k < 2:
        raise ValueError(f"order k must be >= 2, got {k}")
    return k


class _SeqCache:
    """Values of one order-k sequence on a contiguous index range.

    Subtracting two consecutive recurrences gives two-term identities,
    F_{n+1} = 2 F_n - F_{n-k} forward and F_m = 2 F_{m+k} - F_{m+k+1}
    backward, so each new value costs O(1) big-integer operations.  Both
    need k + 1 consecutive values, so the cache starts from F_{-k+1} = 1.
    """

    def __init__(self, k: int):
        self.k = k
        self.lo = -k + 1
        self.hi = 1
        # F_{-k+1} = 1, the initial block 0,...,0, then F_1 = 1
        self.vals = [1] + [0] * (k - 1) + [1]

    def value(self, n: int) -> int:
        return self.vals[n - self.lo]

    def extend_to(self, lo: int, hi: int) -> None:
        k = self.k
        vals = self.vals
        for _ in range(hi - self.hi):
            vals.append(2 * vals[-1] - vals[-k - 1])
        self.hi = max(self.hi, hi)
        if self.lo > lo:
            # F_{self.lo+k}, ..., F_{self.lo}, then F_{self.lo-1}, ..., F_lo
            rev = vals[k::-1]
            for _ in range(self.lo - lo):
                rev.append(2 * rev[-k] - rev[-k - 1])
            self.vals = rev[:k:-1] + vals
            self.lo = lo


_caches: dict[int, _SeqCache] = {}
_lock = threading.Lock()


def _cache_for(k: int, lo: int, hi: int) -> _SeqCache:
    with _lock:
        cache = _caches.get(k)
        if cache is None:
            cache = _caches[k] = _SeqCache(k)
        cache.extend_to(lo, hi)
        return cache


def _kfib_power(k: int, n: int) -> int:
    """F_n from x^(n+k-1) mod f_k = c_0 + c_1 x + ... + c_k x^k.

    The sequence satisfies F_{m+k+1} = 2 F_{m+k} - F_m, whose characteristic
    polynomial is f_k, and starts from F_{-k+1..1} = (1, 0, ..., 0, 1), so
    F_n = c_0 + c_k.  Negative exponents use x^(-1) = 2x^(k-1) - x^k.
    """
    e = n + k - 1
    p = [1] + [0] * k
    for bit in bin(abs(e))[2:]:
        sq = [0] * (2 * k + 1)
        nonzero = [(i, c) for i, c in enumerate(p) if c]
        for a, (i, ci) in enumerate(nonzero):
            sq[2 * i] += ci * ci
            ci2 = 2 * ci
            for j, cj in nonzero[a + 1:]:
                sq[i + j] += ci2 * cj
        # x^(k+1) = 2x^k - 1 folds each high coefficient into two lower ones
        for i in range(2 * k, k, -1):
            top = sq[i]
            if top:
                sq[i - 1] += 2 * top
                sq[i - k - 1] -= top
        p = sq[:k + 1]
        if bit == "1":
            if e > 0:
                top = p.pop()
                p.insert(0, -top)
                p[k] += 2 * top
            else:
                low = p.pop(0)
                p.append(-low)
                p[k - 1] += 2 * low
    return p[0] + p[k]


def _kfib_roll(k: int, n: int) -> int:
    """F_n by the two-term identities of ``_SeqCache``, holding k + 1 values.

    Each step overwrites, in a ring of k + 1 slots, the value that leaves the
    window; ``ring[j - 1]`` then holds the other operand.
    """
    if -k + 2 <= n <= 0:
        return 0
    if n >= 1:
        # F_{m+1} = 2 F_m - F_{m-k}: F_m was written last, F_{m-k} is ring[j]
        ring = [1] + [0] * (k - 1) + [1]  # F_{-k+1}, ..., F_1
        slots = range(k + 1)
        steps = n - 1
    else:
        # F_m = 2 F_{m+k} - F_{m+k+1}, walking the slots 0, -1, ..., -k
        ring = [1, 1] + [0] * (k - 1)  # F_1, F_{-k+1}, F_{-k+2}, ..., F_0
        slots = range(0, -k - 1, -1)
        steps = -k + 1 - n
    rounds, rest = divmod(steps, k + 1)
    for _ in range(rounds):
        for j in slots:
            ring[j] = 2 * ring[j - 1] - ring[j]
    for j in slots[:rest]:
        ring[j] = 2 * ring[j - 1] - ring[j]
    return ring[slots[rest - 1]]


def _power_is_cheaper(k: int, n: int) -> bool:
    # Both routes' costs in operations on CPython's 30-bit digits.  F_n has
    # about b bits: b = n for n > 0 (F_n <= 2^(n-2)) and b = log2(3)|n|/k for
    # n < 0 (the backward bound in _window_bits), so d = max(1, b/30) digits.
    # Rolling makes |n| steps, each a doubling and a subtraction of values of
    # d/2 digits on average: about |n| d.  Powering makes log2|n| squarings
    # of k + 1 coefficients; the last, on coefficients of d/2 digits, costs
    # (k+1)^2/2 products M(d/2) and the earlier ones half as much again.
    # CPython multiplies by schoolbook below 70 digits, M(d) = d^2, and by
    # Karatsuba above, M(d) = 3 M(d/2), so M(d/2) is M(d)/4 to M(d)/3 and
    # powering costs about (k+1)^2 M(d)/4.  Measured over k = 2..64 and
    # |n| = 500..50000, the route this picks was never more than 1.25 times
    # slower than the other: powering wins at small k or n < 0, rolling at
    # large k and n > 0.
    bits = n if n > 0 else 1.585 * -n / k
    d = max(1.0, bits / 30)
    mul = d * d if d <= 70 else 4900 * (d / 70) ** 1.585
    return (k + 1) ** 2 * mul < 4 * abs(n) * d


def _value_bits(k: int, n: int) -> int:
    """Upper bound on the bits of |F_n|, in integer arithmetic for any n:
    |n| + 1 for n > 0 and log2(3) |n| / k + 1 for n <= 0 (see _window_bits)."""
    return n + 1 if n > 0 else 1585 * -n // (1000 * k) + 1


def kfib(k: int, n: int) -> int:
    """F_n^(k) for any integer n whose value fits MAX_VALUE_BITS.

    Read from the per-order cache when it already covers n.  Otherwise F_n
    is computed alone, by powering x modulo f_k or by rolling k + 1 values,
    whichever costs less at (k, n), and the cache is left untouched.
    """
    k = _check_order(k)
    n = int(n)
    with _lock:
        cache = _caches.get(k)
        if cache is not None and cache.lo <= n <= cache.hi:
            return cache.value(n)
    bits = _value_bits(k, n)
    if bits > MAX_VALUE_BITS:
        raise ValueTooLargeError(
            f"the value may need {bits} bits, over the budget of {MAX_VALUE_BITS}")
    # either route holds at most 2k + 1 values of up to that size (powering
    # squares k + 1 coefficients, rolling keeps k + 1), each with the
    # overhead that _window_bits counts; this also keeps the float cost
    # model below in range
    if (2 * k + 1) * (bits + 512) > MAX_WINDOW_BITS:
        raise ValueTooLargeError(
            f"order {k} with values of up to {bits} bits needs a working set "
            f"over the budget of {MAX_WINDOW_BITS} bits")
    if _power_is_cheaper(k, n):
        return _kfib_power(k, n)
    return _kfib_roll(k, n)


@dataclass(frozen=True)
class SeqWindow:
    k: int
    lo: int
    hi: int
    values: tuple

    def validate(self) -> None:
        if len(self.values) != self.hi - self.lo + 1:
            raise ValueError("window length mismatch")
        k = self.k
        for i in range(len(self.values) - k):
            if self.values[i + k] != sum(self.values[i:i + k]):
                raise ValueError(f"recursion violated at offset {i}")


def _window_bits(k: int, lo: int, hi: int) -> int:
    """Upper estimate of the bits the cache holds once it covers lo..hi.

    |F_n| < 2^(|n|+1) for every order k >= 2, so each value is counted as
    |n| + 1 bits plus 512 bits of object overhead (an int header and the
    list and tuple slots that hold it).  Forward, F_n for n >= 2 is a sum of
    earlier values that are 0 at indices <= 0, so F_n <= F_1 + ... + F_{n-1}
    and by induction F_n <= 2^(n-2).  Backward, F_m = 2 F_{m+k} - F_{m+k+1}:
    each of the k values below a block F_m..F_{m+k} takes both operands from
    that block, so the block maximum grows by at most a factor of 3 per k
    steps down.  From the block F_{-k+1..1}, whose maximum is 1, that gives
    |F_n| <= 3^(|n|/k) <= 3^(|n|/2) < 2^|n| for n <= -k + 1.
    """
    a, b = min(lo, -k + 1), max(hi, 1)
    return (-a) * (1 - a) // 2 + b * (b + 1) // 2 + (b - a + 1) * (1 + 512)


def kfib_window(k: int, lo: int, hi: int) -> SeqWindow:
    """All of F_lo..F_hi in one linear pass."""
    k = _check_order(k)
    lo, hi = int(lo), int(hi)
    if lo > hi:
        raise ValueError("window requires lo <= hi")
    bits = _window_bits(k, lo, hi)
    if bits > MAX_WINDOW_BITS:
        raise WindowTooLargeError(
            f"window needs an estimated {bits} bits, over the budget of {MAX_WINDOW_BITS}")
    cache = _cache_for(k, min(lo, -k + 2), max(hi, 1))
    vals = tuple(cache.vals[lo - cache.lo: hi - cache.lo + 1])
    return SeqWindow(k=k, lo=lo, hi=hi, values=vals)


def binet_eval(k: int, n: int, prec: int = DEFAULT_PREC) -> RBall:
    """Certified enclosure of sum_l C_l alpha_l^(n-1).

    The true value is the integer F_n^(k).  A real root contributes a real
    term.  A conjugate pair contributes twice the real part of its
    positive-imaginary member's term: the partner's box is the conjugate
    box, holding the conjugate root, and g_k has real coefficients, so the
    two terms are conjugate.  What remains imaginary is the residue of the
    real roots' weights, folded into the radius.  Raises PrecisionError if
    the enclosure cannot pin an integer (radius >= 1/2).
    """
    from .charpoly import compute_roots

    k = _check_order(k)
    profile = compute_roots(k, prec)
    re = im = RBall.from_int(0, prec)
    for root, weight, real in zip(profile.roots, profile.weights, profile.real_flags):
        if real:
            power = root.real().pow_int(n - 1)
            re = re + weight.real() * power
            im = im + weight.imag() * power
        elif root.imag().is_positive():
            re = re + 2 * (weight * root.pow_int(n - 1)).real()
    im_bound = max(abs(im.lower()), abs(im.upper()))
    ball = RBall.from_endpoints(re.lower() - im_bound, re.upper() + im_bound, prec)
    if ball.rad() * 2 >= 1:
        raise PrecisionError("enclosure too wide to pin an integer")
    return ball


def dominance_residual(k: int, n: int, prec: int = DEFAULT_PREC) -> RBall:
    """|F_n - (dominant Binet term)| as a certified ball.

    For n >= 0 the dominant term is g_k(alpha_1) alpha_1^(n-1); for n < 0
    with k even it is g_k(alpha_k) alpha_k^(n-1).  Odd k with n < 0 has two
    minimal-modulus roots (a conjugate pair), no single dominant term, and
    is rejected.
    """
    from .charpoly import compute_roots

    k = _check_order(k)
    n = int(n)
    if n < 0 and k % 2 == 1:
        raise UnsupportedCaseError(
            "no dominance inequality for odd order at negative indices")
    profile = compute_roots(k, prec)
    idx = 0 if n >= 0 else k - 1
    alpha = profile.roots[idx].real()
    weight = profile.weights[idx].real()
    value = RBall.from_int(kfib(k, n), prec)
    return abs(value - weight * alpha.pow_int(n - 1))
