"""Independent reference arithmetic for the benchmark's checks.

Nothing here imports negafib.  Each check compares what the program printed
with a computation done from scratch by another method:

- F_n^(k) over Z by a running-sum recurrence (O(1) additions per index);
- F_n^(k) mod p by powers of the companion matrix, for far indices;
- exact ``Fraction`` signs of T_k at the endpoints of a real enclosure;
- roots of T_k by ``mpmath.polyroots`` at a precision above the enclosures';
- perfect powers by ``sympy.perfect_power``, with the sign handled.

The order-k sequence is the one negafib documents: F_n = 0 for
n = -k+2, ..., 0, F_1 = 1, and F_{n+k} = F_{n+k-1} + ... + F_n on all of Z.
"""

from __future__ import annotations

import math
from collections import deque
from fractions import Fraction

import numpy as np

# primes below 2^26: a k x k product mod p then stays below 2^63 for k <= 64
PRIMES = (67108859, 67108837, 67108819, 67108777)


def window(k: int, lo: int, hi: int) -> list:
    """[F_lo, ..., F_hi] of order k."""
    start = -k + 2
    base = [0] * (k - 1) + [1]  # indices start .. 1
    fwd = list(base)
    total = 1  # sum of the last k values
    for _ in range(1, hi):
        nxt = total
        total += nxt - fwd[-k]
        fwd.append(nxt)
    back = _backward(k, start - lo) if lo < start else []
    full = back[::-1] + fwd  # indices min(lo, start) .. max(hi, 1)
    first = min(lo, start)
    return full[lo - first:hi - first + 1]


def _backward(k: int, count: int) -> list:
    """F_{-k+1}, F_{-k}, ... (count values, moving left).

    F_m = F_{m+k} - (F_{m+1} + ... + F_{m+k-1}); `ring` holds
    F_{m+1} .. F_{m+k} and `inner` the sum of its first k-1 entries.
    """
    ring = deque([0] * (k - 1) + [1])
    inner = 0
    out = []
    for _ in range(count):
        value = ring[-1] - inner
        inner += value - ring[-2]
        ring.pop()
        ring.appendleft(value)
        out.append(value)
    return out


def value(k: int, n: int) -> int:
    return window(k, n, n)[0]


# ---------------------------------------------------------------------------
# far values mod p
# ---------------------------------------------------------------------------

def _matpow_mod(m, e: int, p: int):
    result = np.eye(m.shape[0], dtype=np.int64)
    while e:
        if e & 1:
            result = (result @ m) % p
        m = (m @ m) % p
        e >>= 1
    return result


def value_mod(k: int, n: int, p: int) -> int:
    """F_n^(k) mod p from the state (F_j, ..., F_{j+k-1}) at j = -k+2."""
    if k > 64 or p >= 1 << 26:
        raise ValueError("int64 products need k <= 64 and p < 2^26")
    steps = n - (-k + 2)
    if steps >= 0:
        step = np.zeros((k, k), dtype=np.int64)
        for i in range(k - 1):
            step[i, i + 1] = 1
        step[k - 1, :] = 1
    else:
        # (F_j, ..., F_{j+k-1}) -> (F_{j-1}, ..., F_{j+k-2})
        step = np.zeros((k, k), dtype=np.int64)
        step[0, :] = -1
        step[0, k - 1] = 1
        for i in range(1, k):
            step[i, i - 1] = 1
        step %= p
        steps = -steps
    state = np.zeros(k, dtype=np.int64)
    state[k - 1] = 1
    return int((_matpow_mod(step, steps, p) @ state)[0] % p)


def agrees_mod_primes(k: int, n: int, claimed: int) -> bool:
    return all(claimed % p == value_mod(k, n, p) for p in PRIMES)


# ---------------------------------------------------------------------------
# roots of T_k
# ---------------------------------------------------------------------------

def t_coeffs(k: int) -> list:
    """T_k = x^k - x^(k-1) - ... - 1, highest degree first."""
    return [1] + [-1] * k


def horner(coeffs, x):
    acc = 0
    for c in coeffs:
        acc = acc * x + c
    return acc


def sign_change(k: int, lo: Fraction, hi: Fraction) -> bool:
    """T_k changes sign on [lo, hi], in exact rational arithmetic."""
    coeffs = t_coeffs(k)
    return horner(coeffs, Fraction(lo)) * horner(coeffs, Fraction(hi)) < 0


def dps_for_bits(bits: int) -> int:
    """Decimal digits that resolve enclosures made at `bits` of precision."""
    return int(bits * 0.30103) + 40


def polyroots(k: int, dps: int):
    """(roots, error bound) of T_k from mpmath's Durand-Kerner iteration."""
    import mpmath
    with mpmath.workdps(dps):
        roots, err = mpmath.polyroots(t_coeffs(k), maxsteps=400,
                                      extraprec=2 * dps, error=True)
        return ([(_fraction(mpmath.mpc(r).real), _fraction(mpmath.mpc(r).imag))
                 for r in roots],
                _fraction(err) + Fraction(1, 10 ** (dps - 10)))


def aux_root(k: int, dps: int) -> Fraction:
    """The root of x^(k+1) - 2x - 1 in (1, 2), by Newton from 2.

    The polynomial is convex on (0, oo) and positive at 2, so Newton from 2
    decreases monotonically to the root.
    """
    import mpmath
    with mpmath.workdps(dps + 20):
        x = mpmath.mpf(2)
        tol = mpmath.mpf(10) ** (-(dps + 10))
        for _ in range(10_000):
            step = (x ** (k + 1) - 2 * x - 1) / ((k + 1) * x ** k - 2)
            x -= step
            if abs(step) < tol:
                break
        return _fraction(x)


def _fraction(x) -> Fraction:
    from mpmath.libmp import to_rational
    p, q = to_rational(x._mpf_)
    return Fraction(int(p), int(q))


def decode_endpoint(s: str) -> Fraction:
    """Exact endpoint from negafib's '<hex mantissa>p<exponent>' encoding."""
    if s == "0":
        return Fraction(0)
    neg = s.startswith("-")
    man_hex, exp = s.lstrip("-").split("p")
    v = Fraction(int(man_hex, 16)) * Fraction(2) ** int(exp)
    return -v if neg else v


def neg_log2(x: Fraction) -> float:
    """-log2(x) for a positive rational, without float overflow."""
    return math.log2(x.denominator) - math.log2(x.numerator)


# ---------------------------------------------------------------------------
# perfect powers
# ---------------------------------------------------------------------------

def perfect_power(v: int):
    """(x, q) with v = x^q, |x| >= 2, q >= 2 maximal; None if there is none.

    A negative v needs an odd exponent: with |v| = b^e and e maximal, the
    candidates are the odd divisors of e, so q is the odd part of e.
    """
    import sympy
    if abs(v) < 4:
        return None
    found = sympy.perfect_power(abs(v))
    if not found:
        return None
    b, e = int(found[0]), int(found[1])
    if v > 0:
        return b, e
    q = e
    while q % 2 == 0:
        q //= 2
    if q == 1:
        return None
    return -(b ** (e // q)), q
