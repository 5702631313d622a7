"""Certified real numbers: quadratic surds and series given by
certified convergents.

Every number exposes ``enclosure(width)`` returning a rational interval
of at most the requested width that provably contains the value; nested
calls return nested intervals.  Error bounds of convergent series are
carried as exact decimal exponent pairs ``m * 10**e`` so that doubly
exponential magnitudes are manipulated without ever materialising their
digit strings.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import isqrt

from ..errors import PrecisionUnavailable

# an integer magnitude is "materialisable" when its digit string stays
# comfortably inside memory; 10^(10^6) passes, 10^(10^24) does not
MAX_MATERIAL_DIGITS = 4_000_000

# rational lower bound on log10(2), exact to 17 places
LOG10_2_LOWER = Fraction(30102999566398119, 10**17)

LN10 = math.log(10)


def _digits10(n: int) -> int:
    """Decimal digit count of |n|, within +-1, without str()."""
    if n == 0:
        return 1
    return (abs(n).bit_length() * 30103) // 100000 + 1


def _decimal_shift(m: Fraction) -> int:
    """Approximate floor(log10 m) within a couple of units, cheaply,
    for huge numerators/denominators."""
    return _digits10(m.numerator) - _digits10(m.denominator)


class ExponentPair:
    """A positive value m * 10**e with rational mantissa normalised into
    [1, 10); the exponent may be astronomically large."""

    __slots__ = ("m", "e")

    def __init__(self, m, e: int = 0):
        m = Fraction(m)
        if m <= 0:
            raise ValueError("exponent pairs are positive")
        shift = _decimal_shift(m)
        if abs(shift) > 1:
            m = m / 10**shift if shift > 0 else m * 10**(-shift)
            e += shift
        while m >= 10:
            m /= 10
            e += 1
        while m < 1:
            m *= 10
            e -= 1
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "e", e)

    def __setattr__(self, *a):
        raise AttributeError("ExponentPair is immutable")

    @classmethod
    def upper_bound_inverse_pow2(cls, g: int) -> "ExponentPair":
        """A certified pair >= 2**(-g), tight to within one decimal
        order, valid for arbitrarily large g."""
        if g <= 0:
            raise ValueError("g must be positive")
        e = -int((g * LOG10_2_LOWER.numerator) // LOG10_2_LOWER.denominator)
        return cls(1, e)

    def __mul__(self, other):
        if isinstance(other, ExponentPair):
            return ExponentPair(self.m * other.m, self.e + other.e)
        return ExponentPair(self.m * Fraction(other), self.e)

    __rmul__ = __mul__

    def _cmp(self, other) -> int:
        if not isinstance(other, ExponentPair):
            other = ExponentPair(Fraction(other))
        if self.e != other.e:
            return 1 if self.e > other.e else -1
        if self.m == other.m:
            return 0
        return 1 if self.m > other.m else -1

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __eq__(self, other):
        if isinstance(other, ExponentPair):
            return self.m == other.m and self.e == other.e
        if isinstance(other, (int, Fraction)):
            return other > 0 and self._cmp(other) == 0
        return NotImplemented

    def __hash__(self):
        return hash((self.m, self.e))

    def materialisable(self) -> bool:
        return abs(self.e) <= MAX_MATERIAL_DIGITS

    def to_fraction(self) -> Fraction:
        if not self.materialisable():
            raise OverflowError(
                f"refusing to materialise 10**{self.e} as digits")
        if self.e >= 0:
            return self.m * 10**self.e
        return self.m / 10**(-self.e)

    def log(self) -> float:
        return math.log(float(self.m)) + self.e * LN10

    def __repr__(self):
        if abs(self.e) < 10**18:
            return f"ExponentPair({self.m}, 10**{self.e})"
        sign = "-" if self.e < 0 else ""
        return (f"ExponentPair({self.m}, "
                f"10**({sign}~10^{_digits10(self.e) - 1}))")


def safe_ratio(num: float, den: int) -> float:
    """num/den for a positive float num and a huge positive int den,
    without overflowing float conversion of den."""
    if num <= 0:
        return 0.0
    if den.bit_length() < 512:
        return num / den
    try:
        return math.exp(math.log(num) - math.log(den))
    except (OverflowError, ValueError):
        return 0.0


class NumberSpec:
    """Base class for certified reals; keeps the best interval seen so
    far, so enclosures are nested."""

    kind = "abstract"

    def __init__(self):
        self._cached = None

    def enclosure(self, width):
        width = Fraction(width)
        if width <= 0:
            raise ValueError("width must be positive")
        lo, hi = self._enclosure(width)
        if self._cached is not None:
            clo, chi = self._cached
            lo, hi = max(lo, clo), min(hi, chi)
        self._cached = (lo, hi)
        return lo, hi

    def _enclosure(self, width):
        raise NotImplementedError


class QuadraticSurd(NumberSpec):
    """The selected real root of A x^2 + B x + C; must be irrational
    (positive discriminant, not a perfect square), checked here."""

    kind = "quadratic"

    def __init__(self, A: int, B: int, C: int, branch: str = "plus"):
        super().__init__()
        if A == 0:
            raise ValueError("leading coefficient must be nonzero")
        if A < 0:
            A, B, C = -A, -B, -C
        disc = B * B - 4 * A * C
        if disc <= 0:
            raise ValueError("no real roots: discriminant <= 0")
        s = isqrt(disc)
        if s * s == disc:
            raise ValueError("rational roots: discriminant is a perfect square")
        if branch not in ("plus", "minus"):
            raise ValueError("branch must be 'plus' or 'minus'")
        self.A, self.B, self.C = A, B, C
        self.disc = disc
        self.branch = branch
        if branch == "plus":
            self._cached = (Fraction(-B + s, 2 * A), Fraction(-B + s + 1, 2 * A))
        else:
            self._cached = (Fraction(-B - s - 1, 2 * A), Fraction(-B - s, 2 * A))

    def _poly_at(self, x: Fraction) -> Fraction:
        return self.A * x * x + self.B * x + self.C

    def _enclosure(self, width):
        lo, hi = self._cached
        flo = self._poly_at(lo)
        # bisection; the root is irrational, so midpoints never vanish
        while hi - lo > width:
            mid = (lo + hi) / 2
            if (self._poly_at(mid) > 0) == (flo > 0):
                lo = mid
                flo = self._poly_at(lo)
            else:
                hi = mid
        return lo, hi

    def min_poly(self):
        return (self.A, self.B, self.C)

    def ceil_abs(self) -> int:
        """Smallest integer >= |root|, exact via the sign of the
        polynomial at integer candidates."""
        lo, hi = self.enclosure(Fraction(1, 4))
        bound = max(abs(lo), abs(hi))
        c = math.ceil(bound)
        while c >= 1 and abs(lo) <= c - 1 and abs(hi) <= c - 1:
            c -= 1
        return c

    def liouville_constant(self) -> int:
        """Integer M with |root - p/q| >= 1/(M q^2) for every rational
        p/q: the effective Liouville bound for a degree-2 algebraic."""
        return 2 * abs(self.A) * (self.ceil_abs() + 1) + abs(self.B)

    def quad_field_coords(self):
        """(u, v, d): the root written as u + v*sqrt(d), d squarefree."""
        from .fields import square_split

        s, d = square_split(self.disc)
        sign = 1 if self.branch == "plus" else -1
        return (Fraction(-self.B, 2 * self.A),
                Fraction(sign * s, 2 * self.A), d)

    def __repr__(self):
        return f"QuadraticSurd({self.A}, {self.B}, {self.C}, {self.branch!r})"


class ConvergentSeries(NumberSpec):
    """A real number known through certified convergents.

    ``source`` is a zero-argument callable returning a finite iterator
    of triples ``(p_k, q_k, eps_k)`` with ``|x - p_k/q_k| <= eps_k`` and
    ``eps_k`` an :class:`ExponentPair`; it is called once.
    """

    kind = "convergents"

    def __init__(self, source, description: str = "convergent series"):
        super().__init__()
        self.source = source
        self.description = description
        self._produced = []
        self._errors = {}
        self._pending = iter(source())
        first = next(self._convergents(), None)
        if first is None:
            raise ValueError("convergent source yields nothing")
        p, q, eps = first
        pad = self._error(0, eps) or Fraction(1)
        self._cached = (Fraction(p, q) - pad, Fraction(p, q) + pad)

    def _convergents(self):
        """The triples of one run of ``source``, each kept the first time
        it is produced and read from that list afterwards; a later triple
        is produced only when asked for."""
        k = 0
        while True:
            if k == len(self._produced):
                triple = next(self._pending, None)
                if triple is None:
                    return
                self._produced.append(triple)
            yield self._produced[k]
            k += 1

    def _error(self, k, eps):
        """eps_k as a fraction, materialised the first time it is asked
        for, or None when its digits are too many to materialise."""
        if k not in self._errors:
            self._errors[k] = (eps.to_fraction() if eps.materialisable()
                               else None)
        return self._errors[k]

    def _enclosure(self, width):
        for k, (p, q, eps) in enumerate(self._convergents()):
            e = self._error(k, eps)
            if e is not None and 2 * e <= width:
                return Fraction(p, q) - e, Fraction(p, q) + e
        raise PrecisionUnavailable(
            f"precision unavailable: {self.description} exhausted before "
            f"reaching width ~10^{_decimal_shift(width)}")

    def convergent_ratios(self, max_terms: int = 16):
        """Growth diagnostics rho_k = (ln eps_k^-1 - ln q_k)/q_k along
        the convergents, as floats.  Exponent-pair arithmetic keeps the
        doubly exponential magnitudes symbolic; an unbounded increase of
        rho_k is the signature of the wild (non-theta) regime."""
        out = []
        for k, (p, q, eps) in enumerate(self._convergents()):
            if k >= max_terms:
                break
            t1 = float(Fraction(-eps.e, q)) * LN10
            t2 = safe_ratio(math.log(float(eps.m)) + math.log(q), q)
            out.append(t1 - t2)
        return out

    def __repr__(self):
        return f"ConvergentSeries({self.description!r})"


# ---------------------------------------------------------------------------
# built-in convergent families


def liouville_decimal() -> ConvergentSeries:
    """sum_k 10**(-10**(k!)), the classical very-well-approximable
    transcendental; convergents are the partial sums, and the tail is
    bounded by twice its first omitted term."""

    def gen():
        qs = []
        for k in range(1, 4):  # q_4 = 10**10**24 is not materialisable
            qs.append(10 ** 10 ** math.factorial(k))
            qk = qs[-1]
            pk = sum(qk // qj for qj in qs)
            yield pk, qk, ExponentPair(2, -(10 ** math.factorial(k + 1)))

    return ConvergentSeries(gen, "sum 10^-10^(k!)")


def power_tower(base: int, start: int) -> ConvergentSeries:
    """sum_k 1/q_k with q_1 = start, q_{k+1} = base**q_k.

    Denominators grow as an exponential tower, so the partial sums
    approximate the limit exponentially well in the denominator: the
    wild regime of the glueing-matrix dichotomy.  ``start`` must be a
    power of ``base`` so partial sums reduce to denominator q_k.
    """
    if base < 2:
        raise ValueError("base must be >= 2")
    s = start
    while s > 1 and s % base == 0:
        s //= base
    if s != 1 or start < 2:
        raise ValueError("start must be a power of base, >= 2")

    max_exp = int(MAX_MATERIAL_DIGITS / math.log10(base))

    def gen():
        qs = [start]
        while qs[-1] <= max_exp:
            qs.append(base ** qs[-1])
        # qs holds every materialisable q_k; the final error bound is
        # kept symbolic since q_{len(qs)+1} has too many digits
        for k in range(1, len(qs) + 1):
            qk = qs[k - 1]
            pk = sum(qk // qs[j] for j in range(k))
            if k < len(qs):
                eps = ExponentPair(Fraction(2, qs[k]))
            else:
                # tail <= 2 / base**qk <= 2 * 2**(-qk)
                eps = 2 * ExponentPair.upper_bound_inverse_pow2(qk)
            yield pk, qk, eps

    return ConvergentSeries(
        gen, f"sum 1/q_k, q_(k+1)={base}^q_k, q_1={start}")
