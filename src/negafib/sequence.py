"""Exact evaluation of k-generalized Fibonacci numbers over all of Z.

The order-k sequence starts from the block F_n = 0 for n = -k+2, ..., 0 and
F_1 = 1, and satisfies F_{n+k} = F_{n+k-1} + ... + F_n.  Because the trailing
recursion coefficient is 1 the sequence extends to negative indices with
integer values: F_n = F_{n+k} - F_{n+k-1} - ... - F_{n+1}.

Exact values are plain Python ints.  A per-order cache grows on demand in
both directions under a lock; cached values are immutable and shareable.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from .balls import DEFAULT_PREC, PrecisionError, RBall

MAX_WINDOW_CELLS = 2_000_000


class UnsupportedCaseError(ValueError):
    """Requested a quantity the underlying inequalities do not cover."""


class WindowTooLargeError(ValueError):
    """Requested window exceeds the configured memory budget."""


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


def kfib(k: int, n: int) -> int:
    """F_n^(k) for any integer n; memoized per order."""
    k = _check_order(k)
    n = int(n)
    cache = _cache_for(k, min(n, -k + 2), max(n, 1))
    return cache.value(n)


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


def kfib_window(k: int, lo: int, hi: int) -> SeqWindow:
    """All of F_lo..F_hi in one linear pass."""
    k = _check_order(k)
    lo, hi = int(lo), int(hi)
    if lo > hi:
        raise ValueError("window requires lo <= hi")
    if hi - lo + 1 > MAX_WINDOW_CELLS:
        raise WindowTooLargeError(
            f"window of {hi - lo + 1} values exceeds budget {MAX_WINDOW_CELLS}")
    cache = _cache_for(k, min(lo, -k + 2), max(hi, 1))
    vals = tuple(cache.vals[lo - cache.lo: hi - cache.lo + 1])
    return SeqWindow(k=k, lo=lo, hi=hi, values=vals)


def binet_eval(k: int, n: int, prec: int = DEFAULT_PREC) -> RBall:
    """Certified enclosure of sum_l C_l alpha_l^(n-1).

    The true value is the integer F_n^(k); the complex parts cancel, so the
    result is the real projection with the imaginary residue folded into
    the radius.  Raises PrecisionError if the enclosure cannot pin an
    integer (radius >= 1/2).
    """
    from .charpoly import compute_roots

    k = _check_order(k)
    profile = compute_roots(k, prec)
    total = None
    for root, weight in zip(profile.roots, profile.weights):
        term = weight * root.pow_int(n - 1)
        total = term if total is None else total + term
    im_bound = max(abs(total.imag().lower()), abs(total.imag().upper()))
    re = total.real()
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
