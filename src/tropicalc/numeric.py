"""Exact real scalars: rationals plus real algebraic numbers.

The package does all of its analysis in exact arithmetic.  A scalar is either
a :class:`fractions.Fraction` or an :class:`AlgebraicNumber` -- a real root of
an integer polynomial, pinned down by an isolating interval whose endpoints
are rationals with opposite polynomial signs, holding exactly one root.
Sturm sequences only isolate and count roots; comparisons are then decided
exactly by polynomial signs at rationals (never floating point), and every
derived quantity can be enclosed in an interval of requested width.

Value sums that mix rationals with polynomial expressions evaluated at
several distinct algebraic points are carried by :class:`ExactValue`, which
cancels exactly within each root and encloses the remainder on demand.

This module is the one home of exact quantities: `value_enclosure`,
`value_sign`, `*` by a rational, `abs` and `_approximation` take every kind
(int, Fraction, AlgebraicNumber, RootValue, ExactValue), so no other module
branches on the kind of a value to enclose, sign, scale or print it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

from .errors import EmptyWindow, NonPositiveEps, PrecisionExhausted, ZeroPolynomial
from .poly import Polynomial, frac, poly_gcd, squarefree_part

LESS, EQUAL, GREATER = -1, 0, 1

_MAX_REFINE_STEPS = 100_000


def sign_of(x: Fraction) -> int:
    return (x > 0) - (x < 0)


def decimal_string(x: Fraction, digits: int = 12) -> str:
    """Round x to `digits` >= 0 decimal places, exact half-away-from-zero."""
    if digits < 0:
        raise ValueError(f"digits must be >= 0, got {digits}")
    scaled = x * 10**digits
    n = scaled.numerator
    d = scaled.denominator
    q, r = divmod(abs(n), d)
    if 2 * r >= d:
        q += 1
    sign = "-" if n < 0 and q != 0 else ""
    whole, fracpart = divmod(q, 10**digits)
    if digits == 0:
        return f"{sign}{whole}"
    return f"{sign}{whole}.{str(fracpart).zfill(digits)}"


# ---------------------------------------------------------------------------
# Sturm machinery


def sturm_chain(p: Polynomial) -> list[Polynomial]:
    """Sturm sequence of p (callers pass a squarefree p for exact counts)."""
    if p.is_zero:
        raise ZeroPolynomial("Sturm chain of the zero polynomial")
    chain = [p, p.derivative()]
    while not chain[-1].is_zero:
        chain.append(-(chain[-2] % chain[-1]))
    chain.pop()
    return chain


def _variations(chain: Sequence[Polynomial], x: Fraction) -> int:
    signs = [s for s in (sign_of(q(x)) for q in chain) if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def sturm_count(chain: Sequence[Polynomial], lo: Fraction, hi: Fraction) -> int:
    """Number of distinct roots in (lo, hi]; endpoints must not be roots of chain[0]."""
    return _variations(chain, lo) - _variations(chain, hi)


def cauchy_root_bound(p: Polynomial) -> Fraction:
    """B with every real root of p in (-B, B)."""
    if p.is_zero:
        raise ZeroPolynomial("root bound of the zero polynomial")
    if p.degree == 0:
        return Fraction(1)
    lead = abs(p.leading)
    return 1 + max(abs(c) for c in p.coeffs[:-1]) / lead


def _shave_endpoint_roots(w: Polynomial, lo: Fraction, hi: Fraction) -> Polynomial:
    x = Polynomial.identity()
    for point in (lo, hi):
        while not w.is_zero and w.degree >= 1 and w(point) == 0:
            w = w // (x - Polynomial.constant(point))
    return w


def sturm_isolate(
    p: Union[Polynomial, Iterable], window: tuple
) -> list[tuple[Fraction, Fraction]]:
    """Isolating intervals, one per distinct real root of p inside the open window.

    Interval endpoints are rationals that are not roots; each interval contains
    exactly one root and every root strictly inside the window is covered.
    """
    if not isinstance(p, Polynomial):
        p = Polynomial.from_coeffs(p)
    if p.is_zero:
        raise ZeroPolynomial("cannot isolate roots of the zero polynomial")
    lo, hi = (frac(window[0]), frac(window[1]))
    if lo >= hi:
        raise EmptyWindow(f"window ({lo}, {hi}) is empty")
    w = _shave_endpoint_roots(squarefree_part(p).primitive(), lo, hi)
    if w.degree <= 0:
        return []
    chain = sturm_chain(w)
    out: list[tuple[Fraction, Fraction]] = []

    def emit_known_root(root: Fraction, a: Fraction, b: Fraction) -> tuple[Fraction, Fraction]:
        # Shrink a symmetric interval around a known rational root until it
        # isolates it from the other roots and has non-root endpoints.
        radius = min(root - a, b - root) / 2
        while True:
            c, d = root - radius, root + radius
            if w(c) != 0 and w(d) != 0 and sturm_count(chain, c, d) == 1:
                return c, d
            radius /= 2

    def bisect(a: Fraction, b: Fraction, count: int) -> None:
        if count == 0:
            return
        if count == 1:
            out.append((a, b))
            return
        mid = (a + b) / 2
        if w(mid) == 0:
            c, d = emit_known_root(mid, a, b)
            left = sturm_count(chain, a, c)
            bisect(a, c, left)
            out.append((c, d))
            bisect(d, b, count - 1 - left)
            return
        left = sturm_count(chain, a, mid)
        bisect(a, mid, left)
        bisect(mid, b, count - left)

    bisect(lo, hi, sturm_count(chain, lo, hi))
    return out


# ---------------------------------------------------------------------------
# Rational roots

_CERTIFICATE_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)


def _no_root_mod_some_prime(w: Polynomial) -> bool:
    """True if w (integer coefficients) has no root mod a prime not dividing lead(w)."""
    coeffs = [int(c) for c in reversed(w.coeffs)]  # leading coefficient first
    for p in _CERTIFICATE_PRIMES:
        if coeffs[0] % p == 0:
            continue
        residues = [c % p for c in coeffs]
        for x in range(p):
            acc = 0
            for c in residues:
                acc = (acc * x + c) % p
            if acc == 0:
                break
        else:
            return True
    return False


def strip_rational_roots(p: Polynomial) -> tuple[list[Fraction], Polynomial]:
    """Split off every rational root of p.

    Returns (sorted distinct rational roots, cofactor), where the cofactor is
    the squarefree primitive part w of p with those roots divided out, so it
    has no rational root left.  A rational root a/q of w has q | lead(w) = L
    (the rational-root theorem), and two such rationals lie at least 1/L^2
    apart.  So an isolating interval of width below 1/(2 L^2) holds at most
    one candidate, the rational of denominator <= L nearest its midpoint; it
    is the interval's root if it lies inside and w vanishes there.

    Degrees 1 and 2 are solved in closed form instead: they are most of the
    polynomials stripped (crossings of linear and quadratic pieces), and the
    bisection would cost tens of exact evaluations per root.

    From degree 3 on, w is first reduced modulo the small primes p that do
    not divide L, and if w has no root mod some such p it has no rational
    root, so the isolation is skipped.  This is sound because q | L makes q
    invertible mod p, so a rational root a/q would give the root a*q^-1 mod p.
    """
    if p.is_zero:
        raise ZeroPolynomial("cannot take roots of the zero polynomial")
    w = squarefree_part(p).primitive()
    if w.degree <= 0:
        return [], w
    if w.degree == 1:
        roots = [-w.coeffs[0] / w.coeffs[1]]
    elif w.degree == 2:
        c, b, a = (int(k) for k in w.coeffs)
        disc = b * b - 4 * a * c  # nonzero: w is squarefree
        s = math.isqrt(max(disc, 0))
        roots = []
        if s * s == disc:
            roots = [Fraction(-b - s, 2 * a), Fraction(-b + s, 2 * a)]
    elif _no_root_mod_some_prime(w):
        return [], w
    else:
        lead = int(w.leading)
        width = Fraction(1, 2 * lead * lead)
        bound = cauchy_root_bound(w)
        roots = []
        for interval in sturm_isolate(w, (-bound - 1, bound + 1)):
            lo, hi = AlgebraicNumber(w, *interval).refine_to(width)
            candidate = ((lo + hi) / 2).limit_denominator(lead)
            if lo < candidate < hi and w(candidate) == 0:
                roots.append(candidate)
    for root in roots:
        w = w // Polynomial.from_coeffs((-root.numerator, root.denominator))
    return roots, w


# ---------------------------------------------------------------------------
# Algebraic numbers


class AlgebraicNumber:
    """A real root of an integer polynomial, isolated by an interval.

    The invariant: poly is squarefree and the interval (lo, hi) has rational
    non-root endpoints with a sign change and holds exactly one root.  So a
    rational q inside lies below the root iff poly(q) has poly(lo)'s sign,
    and a divisor of poly vanishes at the root iff it changes sign across
    the interval.  The constructor checks the sign change; `algebraic_root`
    (numbers from outside) also counts the roots, and the library's own
    numbers (`sturm_isolate`, shifts, negation) hold it by construction,
    with a primitive poly free of rational roots, so they are irrational.
    Comparing with a rational and `sign()` never narrow the interval;
    separation, refinement and `RootValue` signs halve it in place (a
    cache, not state).
    """

    __slots__ = ("poly", "_lo", "_hi", "_lo_sign")

    def __init__(self, poly: Polynomial, lo: Fraction, hi: Fraction):
        self.poly = poly
        self._lo = lo
        self._hi = hi
        # The sign of poly at the left end; halving keeps it.
        self._lo_sign = sign_of(poly(lo))
        if not (lo < hi and self._lo_sign * sign_of(poly(hi)) < 0):
            raise ValueError(
                f"({lo}, {hi}) is not a sign-change interval for {poly}"
            )

    # -- interval management -------------------------------------------------

    @property
    def interval(self) -> tuple[Fraction, Fraction]:
        return self._lo, self._hi

    def _halve(self) -> None:
        mid = (self._lo + self._hi) / 2
        side = self._compare_rational(mid)
        if side == GREATER:
            self._lo = mid
        elif side == LESS:
            self._hi = mid
        else:
            # mid is the root, a rational one (as in strip_rational_roots):
            # centre the half-width interval on it; its ends are not roots.
            quarter = (self._hi - self._lo) / 4
            self._lo, self._hi = mid - quarter, mid + quarter

    def refine_to(self, eps: Fraction) -> tuple[Fraction, Fraction]:
        if eps <= 0:
            raise NonPositiveEps(f"eps = {eps}")
        steps = 0
        while self._hi - self._lo > eps:
            self._halve()
            steps += 1
            if steps > _MAX_REFINE_STEPS:
                raise PrecisionExhausted("interval refinement did not converge")
        return self._lo, self._hi

    # -- numeric views --------------------------------------------------------

    def sign(self) -> int:
        return self._compare_rational(Fraction(0))

    def __float__(self) -> float:
        lo, hi = self.refine_to(Fraction(1, 10**18))
        return float((lo + hi) / 2)

    def __neg__(self) -> "AlgebraicNumber":
        return AlgebraicNumber(self.poly.reflect().primitive(), -self._hi, -self._lo)

    def __abs__(self) -> "AlgebraicNumber":
        return -self if self.sign() < 0 else self

    # -- comparisons ------------------------------------------------------------

    def _compare_rational(self, q: Fraction) -> int:
        if q <= self._lo:
            return GREATER
        if q >= self._hi:
            return LESS
        s = sign_of(self.poly(q))
        if s == 0:
            return EQUAL  # q is the unique root in the interval
        # poly(lo)'s sign at q: no root in (lo, q], so the root is above q.
        return GREATER if s == self._lo_sign else LESS

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (AlgebraicNumber, Fraction, int)):
            return compare(self, other) == EQUAL
        return NotImplemented

    def __lt__(self, other):
        if isinstance(other, (AlgebraicNumber, Fraction, int)):
            return compare(self, other) == LESS
        return NotImplemented

    def __le__(self, other):
        if isinstance(other, (AlgebraicNumber, Fraction, int)):
            return compare(self, other) != GREATER
        return NotImplemented

    def __gt__(self, other):
        if isinstance(other, (AlgebraicNumber, Fraction, int)):
            return compare(self, other) == GREATER
        return NotImplemented

    def __ge__(self, other):
        if isinstance(other, (AlgebraicNumber, Fraction, int)):
            return compare(self, other) != LESS
        return NotImplemented

    def __hash__(self) -> int:
        # Equal numbers may have different defining polynomials (x^2 - 2 and
        # x^4 - 4 both define sqrt(2)), so only the type tag is hashed.
        return hash("algebraic")

    def __repr__(self) -> str:
        return f"AlgebraicNumber({self.poly}, {_approximation(self)})"

    def __str__(self) -> str:
        return _approximation(self)  # the label str(f) gives a breakpoint


Scalar = Union[Fraction, AlgebraicNumber]


def algebraic_root(poly: Polynomial, lo, hi) -> AlgebraicNumber:
    """Canonicalize and wrap: squarefree primitive poly, rationals stripped.

    Numbers enter from outside here, so a Sturm count checks that the
    interval holds exactly one root (ValueError otherwise)."""
    _, w = strip_rational_roots(poly)
    lo, hi = frac(lo), frac(hi)
    number = AlgebraicNumber(w, lo, hi)
    count = sturm_count(sturm_chain(w), lo, hi)
    if count != 1:
        raise ValueError(f"({lo}, {hi}) holds {count} roots of {w}, not exactly one")
    return number


def real_roots_in(
    p: Polynomial, lo: Fraction | None = None, hi: Fraction | None = None
) -> list[Scalar]:
    """All distinct real roots of p in the open window, exact, sorted ascending.

    Rational roots come back as Fractions, the rest as AlgebraicNumbers.
    With lo/hi omitted the window is taken wide enough to hold every root.
    """
    if p.is_zero:
        raise ZeroPolynomial("cannot take roots of the zero polynomial")
    if p.degree == 0:
        return []
    bound = cauchy_root_bound(p)
    wlo = frac(lo) if lo is not None else -bound
    whi = frac(hi) if hi is not None else bound
    if wlo >= whi:
        return []
    rationals, rest = strip_rational_roots(p)
    roots: list[Scalar] = [q for q in rationals if wlo < q < whi]
    if rest.degree >= 1:
        for a, b in sturm_isolate(rest, (min(wlo, -bound - 1), max(whi, bound + 1))):
            candidate = AlgebraicNumber(rest, a, b)
            if wlo < candidate and candidate < whi:
                roots.append(candidate)
    return sort_scalars(roots)


# ---------------------------------------------------------------------------
# Exact comparison of scalars


def compare(a: Scalar, b: Scalar) -> int:
    """Exact three-way comparison; returns LESS, EQUAL, or GREATER."""
    if isinstance(a, int):
        a = Fraction(a)
    if isinstance(b, int):
        b = Fraction(b)
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return sign_of(a - b)
    if isinstance(a, Fraction):
        return -b._compare_rational(a)
    if isinstance(b, Fraction):
        return a._compare_rational(b)
    return _compare_alg_alg(a, b)


def _compare_alg_alg(a: AlgebraicNumber, b: AlgebraicNumber) -> int:
    if a is b:
        return EQUAL
    if not _maybe_equal(a, b):
        return _separate(a, b)
    return EQUAL


def _shares_the_root(g: Polynomial, lo: Fraction, hi: Fraction) -> bool:
    """Does g, a divisor of the polynomial of a number isolated by (lo, hi),
    vanish at it?  g's only possible root there is that simple root, and g
    is nonzero at lo and hi, so it vanishes there iff it changes sign."""
    return g.degree >= 1 and sign_of(g(lo)) != sign_of(g(hi))


def _maybe_equal(a: AlgebraicNumber, b: AlgebraicNumber) -> bool:
    """Decide equality exactly; False means the values differ."""
    (alo, ahi), (blo, bhi) = a.interval, b.interval
    lo, hi = max(alo, blo), min(ahi, bhi)
    # On the overlap, a root of the gcd is both a's root and b's.
    return lo < hi and _shares_the_root(poly_gcd(a.poly, b.poly), lo, hi)


def _separate(a: AlgebraicNumber, b: AlgebraicNumber) -> int:
    """Order two algebraic numbers known to be distinct."""
    for _ in range(_MAX_REFINE_STEPS):
        alo, ahi = a.interval
        blo, bhi = b.interval
        if ahi <= blo:
            return LESS
        if bhi <= alo:
            return GREATER
        a._halve()
        b._halve()
    raise PrecisionExhausted("failed to separate distinct algebraic numbers")


def scalar_eq(a: Scalar, b: Scalar) -> bool:
    return compare(a, b) == EQUAL


def sort_scalars(values: Iterable[Scalar]) -> list[Scalar]:
    import functools

    return sorted(values, key=functools.cmp_to_key(compare))


def separators(sorted_scalars: Sequence[Scalar]) -> list[Fraction]:
    """Rationals strictly between consecutive members of an ascending list."""
    out: list[Fraction] = []
    for left, right in zip(sorted_scalars, sorted_scalars[1:]):
        eps = Fraction(1, 2)
        while True:
            _, lhi = refine(left, eps)
            rlo, _ = refine(right, eps)
            if lhi < rlo:
                out.append((lhi + rlo) / 2)
                break
            eps /= 4
    return out


def poly_sign_at(p: Polynomial, s: Scalar) -> int:
    """Exact sign of p evaluated at a scalar."""
    if isinstance(s, int):
        s = Fraction(s)
    if isinstance(s, Fraction):
        return sign_of(p(s))
    return root_value(p, s).sign()


# ---------------------------------------------------------------------------
# Values built from polynomials at algebraic points


@dataclass(frozen=True)
class RootValue:
    """q(alpha) for a polynomial q and a fixed algebraic number alpha.

    q is stored reduced modulo the defining polynomial of alpha.  Arithmetic
    is closed among values at the *same* alpha (use ExactValue to mix roots).
    """

    num: Polynomial
    root: AlgebraicNumber

    @property
    def is_rational(self) -> bool:
        return self.num.degree <= 0

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise ValueError("value is not known to be rational")
        return self.num.coefficient(0)

    def _coerce(self, other) -> "RootValue | None":
        if isinstance(other, RootValue):
            if other.root is self.root or scalar_eq(other.root, self.root):
                return RootValue(other.num % self.root.poly, self.root)
            return None
        if isinstance(other, (int, Fraction)):
            return RootValue(Polynomial.constant(other), self.root)
        return None

    def __add__(self, other):
        rv = self._coerce(other)
        if rv is None:
            return NotImplemented
        return RootValue((self.num + rv.num) % self.root.poly, self.root)

    __radd__ = __add__

    def __neg__(self):
        return RootValue(-self.num, self.root)

    def __sub__(self, other):
        rv = self._coerce(other)
        if rv is None:
            return NotImplemented
        return self + (-rv)

    def __rsub__(self, other):
        rv = self._coerce(other)
        if rv is None:
            return NotImplemented
        return rv + (-self)

    def __mul__(self, other):
        rv = self._coerce(other)
        if rv is None:
            return NotImplemented
        return RootValue((self.num * rv.num) % self.root.poly, self.root)

    __rmul__ = __mul__

    def sign(self) -> int:
        if self.num.is_zero:
            return 0
        if self.num.degree == 0:
            return sign_of(self.num.coefficient(0))
        if _shares_the_root(poly_gcd(self.num, self.root.poly), *self.root.interval):
            return 0  # alpha is a root of q as well
        for _ in range(_MAX_REFINE_STEPS):
            lo, hi = self.root.interval
            vlo, vhi = self.num.eval_interval(lo, hi)
            if vlo > 0:
                return 1
            if vhi < 0:
                return -1
            self.root._halve()
        raise PrecisionExhausted("sign refinement did not converge")

    def __abs__(self):
        return -self if self.sign() < 0 else self

    def enclosure(self, eps) -> tuple[Fraction, Fraction]:
        eps = frac(eps)
        if eps <= 0:
            raise NonPositiveEps(f"eps = {eps}")
        for _ in range(_MAX_REFINE_STEPS):
            lo, hi = self.root.interval
            vlo, vhi = self.num.eval_interval(lo, hi)
            if vhi - vlo <= eps:
                return vlo, vhi
            self.root._halve()
        raise PrecisionExhausted("enclosure refinement did not converge")

    def __float__(self) -> float:
        lo, hi = self.enclosure(Fraction(1, 10**18))
        return float((lo + hi) / 2)

    def __repr__(self) -> str:
        lo, hi = self.enclosure(Fraction(1, 10**9))
        return f"RootValue(~{decimal_string((lo + hi) / 2, 9)})"


def root_value(q: Polynomial, root: AlgebraicNumber) -> RootValue:
    return RootValue(q % root.poly, root)


Value = Union[Fraction, "ExactValue"]


@dataclass(frozen=True)
class ExactValue:
    """rational + sum of RootValues at pairwise-distinct algebraic points."""

    rational: Fraction
    parts: tuple[RootValue, ...]

    def enclosure(self, eps) -> tuple[Fraction, Fraction]:
        eps = frac(eps)
        if eps <= 0:
            raise NonPositiveEps(f"eps = {eps}")
        lo = hi = self.rational
        if self.parts:
            share = eps / len(self.parts)
            for part in self.parts:
                plo, phi = part.enclosure(share)
                lo += plo
                hi += phi
        return lo, hi

    def __float__(self) -> float:
        lo, hi = self.enclosure(Fraction(1, 10**18))
        return float((lo + hi) / 2)

    def __add__(self, other):
        return exact_sum([self, other])

    __radd__ = __add__

    def __neg__(self):
        return ExactValue(-self.rational, tuple(-p for p in self.parts))

    def __sub__(self, other):
        return exact_sum([self, -other])

    def __rsub__(self, other):
        return exact_sum([other, -self])

    def __mul__(self, c):
        """The value times a rational c (a Fraction when c is 0)."""
        if not isinstance(c, (int, Fraction)):
            return NotImplemented
        return exact_sum(
            [self.rational * c, *(RootValue(p.num.scale(c), p.root) for p in self.parts)]
        )

    __rmul__ = __mul__

    def sign(self) -> int:
        """Exact when the enclosure leaves 0; an ExactValue that is zero (or
        too near it) raises PrecisionExhausted."""
        if not self.parts:
            return sign_of(self.rational)
        eps = Fraction(1, 2)
        for _ in range(64):
            lo, hi = self.enclosure(eps)
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            eps /= 16
        raise PrecisionExhausted(
            "cannot resolve the sign of a near-zero mixed algebraic sum exactly"
        )

    def __abs__(self) -> "ExactValue":
        return -self if self.sign() < 0 else self

    def __repr__(self) -> str:
        lo, hi = self.enclosure(Fraction(1, 10**9))
        return f"ExactValue(~{decimal_string((lo + hi) / 2, 9)})"


def exact_sum(terms: Iterable) -> Value:
    """Sum rationals / RootValues / ExactValues, cancelling within each root.

    Returns a plain Fraction whenever every algebraic contribution cancels,
    so identities that hold exactly produce literal exact zeros.
    """
    rational = Fraction(0)
    groups: list[list[RootValue]] = []
    for term in terms:
        if isinstance(term, (int, Fraction)):
            rational += term
            continue
        if isinstance(term, ExactValue):
            rational += term.rational
            pending: Iterable[RootValue] = term.parts
        elif isinstance(term, RootValue):
            pending = (term,)
        else:
            raise TypeError(f"cannot sum term {term!r}")
        for rv in pending:
            for group in groups:
                if group[0].root is rv.root or scalar_eq(group[0].root, rv.root):
                    group.append(rv)
                    break
            else:
                groups.append([rv])
    parts = []
    for group in groups:
        total = group[0]
        for rv in group[1:]:
            total = total + rv
        if total.is_rational:
            rational += total.as_fraction()
        else:
            parts.append(total)
    if not parts:
        return rational
    return ExactValue(rational, tuple(parts))


# ---------------------------------------------------------------------------
# Any exact quantity.  Enclosing narrows algebraic intervals in place (a
# cache); printing an AlgebraicNumber refines a copy.


def value_enclosure(v, eps) -> tuple[Fraction, Fraction]:
    """A rational interval of width <= eps around an exact quantity."""
    eps = frac(eps)
    if eps <= 0:
        raise NonPositiveEps(f"eps = {eps}")
    if isinstance(v, int):
        v = Fraction(v)
    if isinstance(v, Fraction):
        return v, v
    if isinstance(v, AlgebraicNumber):
        return v.refine_to(eps)
    return v.enclosure(eps)


refine = value_enclosure


def value_sign(v) -> int:
    """Exact sign; an ExactValue only when it is one-sided (see its `sign`)."""
    if isinstance(v, (int, Fraction)):
        return sign_of(v)
    if isinstance(v, (AlgebraicNumber, RootValue, ExactValue)):
        return v.sign()
    raise TypeError(f"no sign for {v!r}")


def _approximation(v, digits: int = 6) -> str:
    """An exact quantity for display: a rational as p/q, anything else as "~"
    and the midpoint of a 10^-(digits+3) enclosure to `digits` places.  An
    algebraic number is refined on a copy: printing must not narrow the
    interval that serialization writes."""
    if isinstance(v, (int, Fraction)):
        return str(v)
    if isinstance(v, AlgebraicNumber):
        v = AlgebraicNumber(v.poly, *v.interval)
    lo, hi = value_enclosure(v, Fraction(1, 10 ** (digits + 3)))
    return "~" + decimal_string((lo + hi) / 2, digits)
