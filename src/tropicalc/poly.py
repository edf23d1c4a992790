"""Dense univariate polynomials with exact rational coefficients.

Coefficients are stored ascending (``coeffs[k]`` multiplies ``x**k``) with no
trailing zeros; the zero polynomial has an empty coefficient tuple and degree
-1.  All arithmetic is exact over :class:`fractions.Fraction`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

Rational = Fraction
RationalLike = Union[int, str, Fraction]


def frac(value: RationalLike) -> Fraction:
    """Coerce ints, 'p/q' / decimal strings, and Fractions to Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):  # bool is an int subclass; reject explicitly
        raise TypeError("bool is not a rational scalar")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
    if isinstance(value, float):
        raise TypeError(
            f"refusing float {value!r}: pass an int, Fraction, or 'p/q' string"
        )
    raise TypeError(f"cannot interpret {value!r} as a rational scalar")


@dataclass(frozen=True)
class Polynomial:
    """Immutable dense polynomial over the rationals."""

    coeffs: tuple[Fraction, ...]

    # -- construction ------------------------------------------------------

    @staticmethod
    def of(*coeffs: RationalLike) -> "Polynomial":
        return Polynomial.from_coeffs(coeffs)

    @staticmethod
    def from_coeffs(coeffs: Iterable[RationalLike]) -> "Polynomial":
        cs = [frac(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        return Polynomial(tuple(cs))

    @staticmethod
    def zero() -> "Polynomial":
        return Polynomial(())

    @staticmethod
    def constant(c: RationalLike) -> "Polynomial":
        return Polynomial.from_coeffs((c,))

    @staticmethod
    def identity() -> "Polynomial":
        """The polynomial x."""
        return Polynomial.from_coeffs((0, 1))

    # -- basic queries ------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> Fraction:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coefficient(self, k: int) -> Fraction:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Fraction(0)

    def __bool__(self) -> bool:
        return not self.is_zero

    # -- evaluation ---------------------------------------------------------

    def __call__(self, x: Fraction) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def eval_interval(
        self, lo: Fraction, hi: Fraction
    ) -> tuple[Fraction, Fraction]:
        """Interval-arithmetic enclosure of p([lo, hi]) by Horner."""
        if lo > hi:
            raise ValueError("interval bounds out of order")
        alo = ahi = Fraction(0)
        for c in reversed(self.coeffs):
            products = (alo * lo, alo * hi, ahi * lo, ahi * hi)
            alo, ahi = min(products) + c, max(products) + c
        return alo, ahi

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Polynomial.from_coeffs(out)

    def __neg__(self) -> "Polynomial":
        return Polynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if self.is_zero or other.is_zero:
            return Polynomial(())
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Polynomial.from_coeffs(out)

    def scale(self, c: RationalLike) -> "Polynomial":
        c = frac(c)
        if c == 0:
            return Polynomial(())
        return Polynomial(tuple(c * a for a in self.coeffs))

    def __pow__(self, k: int) -> "Polynomial":
        if k < 0:
            raise ValueError("negative polynomial power")
        acc = Polynomial.constant(1)
        base = self
        while k:
            if k & 1:
                acc = acc * base
            base = base * base
            k >>= 1
        return acc

    # -- calculus and composition -------------------------------------------

    def derivative(self, order: int = 1) -> "Polynomial":
        p = self
        for _ in range(order):
            p = Polynomial(tuple(c * k for k, c in enumerate(p.coeffs) if k))
        return p

    def taylor(self, n: int) -> list["Polynomial"]:
        """[q_0, ..., q_n] with q_k = p^(k)/k! = sum_i C(i, k) c_i x^(i-k).

        Orders past the degree give the zero polynomial.
        """
        cs = self.coeffs
        return [
            Polynomial(
                tuple(math.comb(i, k) * c for i, c in enumerate(cs[k:], start=k))
            )
            for k in range(n + 1)
        ]

    def jet(self, x: Fraction, max_order: int) -> list[Fraction]:
        """[p(x), p'(x)/1!, p''(x)/2!, ...] up to max_order inclusive."""
        return [q(x) for q in self.taylor(max_order)]

    def taylor_shift(self, c: RationalLike) -> "Polynomial":
        """Return q with q(x) = p(x + c)."""
        return Polynomial.from_coeffs(self.jet(frac(c), self.degree))

    def reflect(self) -> "Polynomial":
        """Return q with q(x) = p(-x)."""
        return Polynomial(
            tuple(c if k % 2 == 0 else -c for k, c in enumerate(self.coeffs))
        )

    # -- division-based helpers ----------------------------------------------

    def divmod(self, other: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        quo = [Fraction(0)] * max(0, len(rem) - len(other.coeffs) + 1)
        d = other.degree
        lead = other.leading
        while len(rem) - 1 >= d and rem:
            k = len(rem) - 1 - d
            q = rem[-1] / lead
            quo[k] = q
            for i, c in enumerate(other.coeffs):
                rem[k + i] -= q * c
            while rem and rem[-1] == 0:
                rem.pop()
        return Polynomial.from_coeffs(quo), Polynomial.from_coeffs(rem)

    def __mod__(self, other: "Polynomial") -> "Polynomial":
        return self.divmod(other)[1]

    def __floordiv__(self, other: "Polynomial") -> "Polynomial":
        return self.divmod(other)[0]

    def monic(self) -> "Polynomial":
        if self.is_zero:
            return self
        return self.scale(1 / self.leading)

    def primitive(self) -> "Polynomial":
        """Scale to coprime integer coefficients with positive leading one."""
        if self.is_zero:
            return self
        den = math.lcm(*(c.denominator for c in self.coeffs))
        nums = [int(c * den) for c in self.coeffs]
        g = math.gcd(*nums)
        if self.leading < 0:
            g = -g
        return Polynomial(tuple(Fraction(n, g) for n in nums))

    # -- presentation ---------------------------------------------------------

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            mag = abs(c)
            body = "" if (mag == 1 and k > 0) else str(mag)
            if k == 0:
                term = body or "1"
            elif k == 1:
                term = f"{body}x" if body else "x"
            else:
                term = f"{body}x^{k}" if body else f"x^{k}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic gcd over the rationals (Euclid)."""
    while not b.is_zero:
        a, b = b, a % b
    return a.monic() if not a.is_zero else a


def squarefree_part(p: Polynomial) -> Polynomial:
    """p with repeated roots collapsed to simple ones (monic-normalized input scale)."""
    if p.degree <= 0:
        return p
    g = poly_gcd(p, p.derivative())
    if g.degree <= 0:
        return p
    return p // g
