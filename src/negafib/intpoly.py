"""Exact integer polynomials (dense, lowest degree first)."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class IntPoly:
    """Integer polynomial; coeffs[i] multiplies x**i, leading coeff nonzero."""

    coeffs: tuple

    def __post_init__(self):
        cs = tuple(int(c) for c in self.coeffs)
        if not cs or cs[-1] == 0:
            raise ValueError("leading coefficient must be nonzero")
        object.__setattr__(self, "coeffs", cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def leading(self) -> int:
        return self.coeffs[-1]

    def __call__(self, x):
        """Horner evaluation; exact for int/Fraction, enclosing for balls."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def eval_fixed(self, re: int, im: int, p: int) -> tuple:
        """Approximate P and P' at z = (re + i im) / 2^p in one Horner pass.

        Fixed point over ints with p fractional bits, each product floored:
        an approximation, not an enclosure (``__call__`` on a ball is the one
        way to enclose).  Returns (P_re, P_im, dP_re, dP_im) at the same
        scale.  At a real point (im = 0) every imaginary product is a product
        with 0, so both imaginary parts come out exactly 0.
        """
        acc = acc_im = d = d_im = 0
        for c in reversed(self.coeffs):
            d, d_im = (((d * re - d_im * im) >> p) + acc,
                       ((d * im + d_im * re) >> p) + acc_im)
            acc, acc_im = (((acc * re - acc_im * im) >> p) + (c << p),
                           (acc * im + acc_im * re) >> p)
        return acc, acc_im, d, d_im

    def derivative(self) -> "IntPoly":
        if self.degree == 0:
            raise ValueError("derivative of a constant is the zero polynomial")
        return IntPoly(tuple(i * c for i, c in enumerate(self.coeffs) if i >= 1))

    def __mul__(self, other: "IntPoly") -> "IntPoly":
        out = [0] * (self.degree + other.degree + 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return IntPoly(tuple(out))
