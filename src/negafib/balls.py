"""Certified real and complex ball arithmetic.

Thin wrappers around mpmath's interval kernels (``mpmath.libmp.libmpi``),
which round endpoints outward.  Every value is a closed interval that
provably contains the exact result, so any comparison that succeeds on
disjoint intervals is a certificate.  All operations take their working
precision from the operands and mutate nothing global, which keeps them
safe for concurrent use.
"""

from __future__ import annotations

from fractions import Fraction

from mpmath.libmp import (
    from_int,
    from_man_exp,
    from_rational,
    fzero,
    finf,
    fninf,
    mpf_add,
    mpf_cmp,
    mpf_shift,
    round_ceiling,
    round_floor,
    round_nearest,
    to_fixed,
    to_rational,
    to_str,
)
from mpmath.libmp.libmpi import (
    mpci_abs,
    mpci_add,
    mpci_div,
    mpci_mul,
    mpci_neg,
    mpci_pow_int,
    mpci_sub,
    mpi_abs,
    mpi_add,
    mpi_div,
    mpi_exp,
    mpi_log,
    mpi_mul,
    mpi_neg,
    mpi_pow_int,
    mpi_sqrt,
    mpi_sub,
)

DEFAULT_PREC = 384
MAX_PREC = 4096


class PrecisionError(ArithmeticError):
    """A certified result could not be obtained at the working precision.

    Retryable: callers are expected to double the precision (up to
    ``MAX_PREC``) and try again.
    """


class CertificationError(ArithmeticError):
    """A certificate failed for a reason more precision cannot fix."""


def _mpf_to_fraction(x):
    if x in (finf, fninf):
        raise OverflowError("interval endpoint is infinite")
    p, q = to_rational(x)
    return Fraction(int(p), int(q))


class RBall:
    """Closed real interval with outward-rounded arithmetic."""

    __slots__ = ("v", "prec")

    def __init__(self, v, prec):
        self.v = v
        self.prec = prec

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_int(cls, n: int, prec: int = DEFAULT_PREC) -> "RBall":
        x = from_int(n)  # exact at any size
        return cls((x, x), prec)

    @classmethod
    def from_fraction(cls, fr, prec: int = DEFAULT_PREC) -> "RBall":
        return cls.from_endpoints(fr, fr, prec)

    @classmethod
    def from_decimal(cls, s: str, prec: int = DEFAULT_PREC) -> "RBall":
        """Exact decimal string, e.g. '9.14' means the rational 914/100."""
        return cls.from_fraction(s, prec)

    @classmethod
    def from_endpoints(cls, lo, hi, prec: int = DEFAULT_PREC) -> "RBall":
        lo, hi = Fraction(lo), Fraction(hi)
        if lo > hi:
            raise ValueError("lower endpoint above upper endpoint")
        a = from_rational(lo.numerator, lo.denominator, prec, round_floor)
        b = from_rational(hi.numerator, hi.denominator, prec, round_ceiling)
        return cls((a, b), prec)

    @classmethod
    def from_midrad(cls, mid, rad, prec: int = DEFAULT_PREC) -> "RBall":
        mid, rad = Fraction(mid), Fraction(rad)
        if rad < 0:
            raise ValueError("negative radius")
        return cls.from_endpoints(mid - rad, mid + rad, prec)

    # -- exact accessors ---------------------------------------------------

    def lower(self) -> Fraction:
        return _mpf_to_fraction(self.v[0])

    def upper(self) -> Fraction:
        return _mpf_to_fraction(self.v[1])

    def mid(self) -> Fraction:
        return (self.lower() + self.upper()) / 2

    def rad(self) -> Fraction:
        return (self.upper() - self.lower()) / 2

    def mid_mpf(self):
        m = mpf_add(self.v[0], self.v[1], self.prec + 8, round_nearest)
        return mpf_shift(m, -1)

    # -- predicates (certified when True) ----------------------------------

    def contains(self, value) -> bool:
        value = Fraction(value)
        return self.lower() <= value <= self.upper()

    def contains_zero(self) -> bool:
        return mpf_cmp(self.v[0], fzero) <= 0 <= mpf_cmp(self.v[1], fzero)

    def is_positive(self) -> bool:
        return mpf_cmp(self.v[0], fzero) > 0

    def lt(self, other) -> bool:
        """Certified strict: every point of self < every point of other."""
        other = _coerce(other, self.prec)
        return mpf_cmp(self.v[1], other.v[0]) < 0

    def gt(self, other) -> bool:
        other = _coerce(other, self.prec)
        return mpf_cmp(self.v[0], other.v[1]) > 0

    def ge(self, other) -> bool:
        other = _coerce(other, self.prec)
        return mpf_cmp(self.v[0], other.v[1]) >= 0

    def disjoint(self, other) -> bool:
        return self.lt(other) or self.gt(other)

    def overlaps(self, other) -> bool:
        return not self.disjoint(other)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = _coerce(other, self.prec)
        p = max(self.prec, other.prec)
        return RBall(mpi_add(self.v, other.v, p), p)

    def __sub__(self, other):
        other = _coerce(other, self.prec)
        p = max(self.prec, other.prec)
        return RBall(mpi_sub(self.v, other.v, p), p)

    def __mul__(self, other):
        other = _coerce(other, self.prec)
        p = max(self.prec, other.prec)
        return RBall(mpi_mul(self.v, other.v, p), p)

    def __truediv__(self, other):
        other = _coerce(other, self.prec)
        if other.contains_zero():
            raise PrecisionError("division by an interval containing zero")
        p = max(self.prec, other.prec)
        return RBall(mpi_div(self.v, other.v, p), p)

    __radd__ = __add__
    __rmul__ = __mul__

    def __rsub__(self, other):
        return _coerce(other, self.prec) - self

    def __rtruediv__(self, other):
        return _coerce(other, self.prec) / self

    def __neg__(self):
        return RBall(mpi_neg(self.v, self.prec), self.prec)

    def __abs__(self):
        return RBall(mpi_abs(self.v, self.prec), self.prec)

    def sqrt(self):
        if mpf_cmp(self.v[0], fzero) < 0:
            raise PrecisionError("sqrt of an interval reaching below zero")
        return RBall(mpi_sqrt(self.v, self.prec), self.prec)

    def log(self):
        if mpf_cmp(self.v[0], fzero) <= 0:
            raise PrecisionError("log of an interval reaching zero or below")
        return RBall(mpi_log(self.v, self.prec), self.prec)

    def exp(self):
        return RBall(mpi_exp(self.v, self.prec), self.prec)

    def pow_int(self, e: int):
        if e < 0 and self.contains_zero():
            raise PrecisionError("negative power of an interval containing zero")
        return RBall(mpi_pow_int(self.v, int(e), self.prec), self.prec)

    # -- display ------------------------------------------------------------

    def __repr__(self):
        lo = to_str(self.v[0], 20)
        hi = to_str(self.v[1], 20)
        return f"RBall([{lo}, {hi}], prec={self.prec})"

    def mid_str(self, digits: int = 30) -> str:
        return to_str(self.mid_mpf(), digits)

    def lower_str(self, digits: int = 20) -> str:
        return to_str(self.v[0], digits)

    def upper_str(self, digits: int = 20) -> str:
        return to_str(self.v[1], digits)

    def radius_exp(self, digits: int = 30):
        """Smallest e with radius + decimal display slop <= 10**e.

        None for an exact zero-radius ball (display slop then ignored).
        """
        rad = self.rad()
        if rad == 0:
            return None
        mid = abs(self.mid())
        slop = mid / Fraction(10) ** (digits - 1)
        total = rad + slop
        e = len(str(total.numerator)) - len(str(total.denominator)) + 1
        while Fraction(10) ** e < total:
            e += 1
        while e > -(10**6) and Fraction(10) ** (e - 1) >= total:
            e -= 1
        return e


def _coerce(x, prec) -> RBall:
    if isinstance(x, RBall):
        return x
    if isinstance(x, int):
        return RBall.from_int(x, prec)
    if isinstance(x, Fraction):
        return RBall.from_fraction(x, prec)
    if isinstance(x, str):
        return RBall.from_decimal(x, prec)
    raise TypeError(f"cannot interpret {type(x).__name__} as a ball")


class CBall:
    """Complex rectangle: a pair of real intervals for Re and Im."""

    __slots__ = ("v", "prec")

    def __init__(self, v, prec):
        self.v = v
        self.prec = prec

    @classmethod
    def from_real(cls, re: RBall) -> "CBall":
        z = from_int(0)
        return cls((re.v, (z, z)), re.prec)

    @classmethod
    def from_re_im(cls, re: RBall, im: RBall) -> "CBall":
        p = max(re.prec, im.prec)
        return cls((re.v, im.v), p)

    @classmethod
    def from_int(cls, n: int, prec: int = DEFAULT_PREC) -> "CBall":
        return cls.from_real(RBall.from_int(n, prec))

    @classmethod
    def from_fixed(cls, re: int, im: int, p: int, prec: int) -> "CBall":
        """The point (re + i im) / 2^p exactly, from fixed-point values with
        p fractional bits."""
        x, y = from_man_exp(re, -p), from_man_exp(im, -p)
        return cls(((x, x), (y, y)), prec)

    def mid_fixed(self, p: int) -> tuple:
        """The midpoint in fixed point with p fractional bits (floored), as
        (re, im)."""
        return (to_fixed(self.real().mid_mpf(), p),
                to_fixed(self.imag().mid_mpf(), p))

    def real(self) -> RBall:
        return RBall(self.v[0], self.prec)

    def imag(self) -> RBall:
        return RBall(self.v[1], self.prec)

    def conj(self) -> "CBall":
        return CBall((self.v[0], mpi_neg(self.v[1], self.prec)), self.prec)

    def contains_zero(self) -> bool:
        return self.real().contains_zero() and self.imag().contains_zero()

    def __add__(self, other):
        other = _coerce_c(other, self.prec)
        p = max(self.prec, other.prec)
        return CBall(mpci_add(self.v, other.v, p), p)

    def __sub__(self, other):
        other = _coerce_c(other, self.prec)
        p = max(self.prec, other.prec)
        return CBall(mpci_sub(self.v, other.v, p), p)

    def __mul__(self, other):
        other = _coerce_c(other, self.prec)
        p = max(self.prec, other.prec)
        return CBall(mpci_mul(self.v, other.v, p), p)

    def __truediv__(self, other):
        other = _coerce_c(other, self.prec)
        if other.contains_zero():
            raise PrecisionError("division by a rectangle containing zero")
        p = max(self.prec, other.prec)
        return CBall(mpci_div(self.v, other.v, p), p)

    __radd__ = __add__
    __rmul__ = __mul__

    def __rsub__(self, other):
        return _coerce_c(other, self.prec) - self

    def __neg__(self):
        return CBall(mpci_neg(self.v, self.prec), self.prec)

    def __abs__(self) -> RBall:
        return RBall(mpci_abs(self.v, self.prec), self.prec)

    def pow_int(self, e: int) -> "CBall":
        if e < 0 and self.contains_zero():
            raise PrecisionError("negative power of a rectangle containing zero")
        return CBall(mpci_pow_int(self.v, int(e), self.prec), self.prec)

    def strictly_inside(self, other: "CBall") -> bool:
        return (other.real().lower() < self.real().lower()
                and self.real().upper() < other.real().upper()
                and other.imag().lower() < self.imag().lower()
                and self.imag().upper() < other.imag().upper())

    def disjoint(self, other: "CBall") -> bool:
        return (self.real().disjoint(other.real())
                or self.imag().disjoint(other.imag()))

    def __repr__(self):
        return f"CBall(re={self.real()!r}, im={self.imag()!r})"


def _coerce_c(x, prec) -> CBall:
    if isinstance(x, CBall):
        return x
    return CBall.from_real(_coerce(x, prec))


def ball_to_json(b: RBall) -> dict:
    """Decimal-facing serialization plus exact endpoint encodings.

    The exact fields make cache round-trips bit-identical; the 30-digit
    decimal fields are for human and downstream-tool consumption.
    """
    return {
        "mid": b.mid_str(),
        "radius_exp": b.radius_exp(),
        "exact_lo": _mpf_encode(b.v[0]),
        "exact_hi": _mpf_encode(b.v[1]),
    }


def ball_from_json(doc: dict, prec: int) -> RBall:
    """The ball of an exact endpoint pair; an interval with lo > hi raises
    CertificationError."""
    lo, hi = _mpf_decode(doc["exact_lo"]), _mpf_decode(doc["exact_hi"])
    if mpf_cmp(lo, hi) > 0:
        raise CertificationError("a stored interval has its lower end above its upper end")
    return RBall((lo, hi), prec)


def cball_to_json(z: CBall) -> dict:
    return {"re": ball_to_json(z.real()), "im": ball_to_json(z.imag())}


def cball_from_json(doc: dict, prec: int) -> CBall:
    return CBall.from_re_im(ball_from_json(doc["re"], prec),
                            ball_from_json(doc["im"], prec))


def _mpf_encode(x) -> str:
    if x == fzero:
        return "0"
    sign, man, exp, _bc = x
    s = "-" if sign else ""
    return f"{s}{int(man):x}p{int(exp)}"


def _mpf_decode(s: str):
    """Inverse of _mpf_encode.  A mantissa of more than MAX_PREC bits or an
    exponent beyond 2 MAX_PREC in size raises CertificationError before any
    arithmetic, so an endpoint never expands to an integer of more than
    3 MAX_PREC bits."""
    if not isinstance(s, str):
        raise TypeError("a stored endpoint must be a string")
    if s == "0":
        return fzero
    neg = s.startswith("-")
    if neg:
        s = s[1:]
    man_hex, exp = s.split("p")
    man, exp = int(man_hex, 16), int(exp)
    if man.bit_length() > MAX_PREC or abs(exp) > 2 * MAX_PREC:
        raise CertificationError("a stored endpoint is larger than MAX_PREC bits can hold")
    if neg:
        man = -man
    return from_man_exp(man, exp)
