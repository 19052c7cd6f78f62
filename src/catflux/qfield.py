"""Exact arithmetic in Q(sqrt5).

The cat map's eigendata lives in Q(sqrt5): lambda_pm = (3 +- sqrt5)/2 and the
eigendirections have slopes (1 +- sqrt5)/2.  Segment-incidence tests in the
Markov-partition geometry are degenerate in floating point, so all boundary
geometry is done on numbers a + b sqrt5 with rational a, b, held as one
integer triple (p + q sqrt5)/d in lowest terms.  The eigen-coordinates of
lattice vectors, in closed form, and their inverses live here too.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Tuple, Union

Rat = Union[int, Fraction]


class Q5:
    """(p + q sqrt5)/d with integers p, q, d, d > 0 and gcd(p, q, d) = 1.

    The lowest-terms triple is unique, so equality compares triples.  The
    rational parts a = p/d and b = q/d are read-only Fraction properties.
    """

    __slots__ = ("_p", "_q", "_d")

    def __init__(self, a: Rat = 0, b: Rat = 0):
        a, b = Fraction(a), Fraction(b)
        d = math.lcm(a.denominator, b.denominator)
        self._p = a.numerator * (d // a.denominator)
        self._q = b.numerator * (d // b.denominator)
        self._d = d

    @property
    def a(self) -> Fraction:
        return Fraction(self._p, self._d)

    @property
    def b(self) -> Fraction:
        return Fraction(self._q, self._d)

    # ------------------------------------------------------------------
    def __add__(self, other):
        p, q, d = _parts(other)
        sd = self._d
        if d == sd:
            return _q5(self._p + p, self._q + q, d)
        return _q5(self._p * d + p * sd, self._q * d + q * sd, sd * d)

    __radd__ = __add__

    def __sub__(self, other):
        p, q, d = _parts(other)
        sd = self._d
        if d == sd:
            return _q5(self._p - p, self._q - q, d)
        return _q5(self._p * d - p * sd, self._q * d - q * sd, sd * d)

    def __rsub__(self, other):
        return -self + other

    def __neg__(self):
        return _q5(-self._p, -self._q, self._d)

    def __mul__(self, other):
        p, q, d = _parts(other)
        sp, sq = self._p, self._q
        return _q5(sp * p + 5 * sq * q, sp * q + sq * p, self._d * d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        p, q, d = _parts(other)
        # multiply through by the conjugate p - q sqrt5 of the divisor
        norm = p * p - 5 * q * q
        if norm == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt5)")
        if norm < 0:
            norm, d = -norm, -d
        sp, sq = self._p, self._q
        return _q5((sp * p - 5 * sq * q) * d, (sq * p - sp * q) * d,
                   self._d * norm)

    def __rtruediv__(self, other):
        return _q5(*_parts(other)) / self

    # ------------------------------------------------------------------
    def sign(self) -> int:
        return _sign(self._p, self._q)

    def _cmp(self, other) -> int:
        """Sign of self - other, without reducing the difference."""
        p, q, d = _parts(other)
        sd = self._d
        if d == sd:
            return _sign(self._p - p, self._q - q)
        return _sign(self._p * d - p * sd, self._q * d - q * sd)

    def __eq__(self, other) -> bool:
        try:
            p, q, d = _parts(other)
        except TypeError:
            # a value of another type: let Python try its side, then answer
            # False, so membership tests and None checks work
            return NotImplemented
        return self._p == p and self._q == q and self._d == d

    def __hash__(self):
        # a rational value equals, and so hashes like, its int or Fraction;
        # an irrational one equals only a Q5 with the same triple
        if self._q == 0:
            return hash(self.a)
        return hash((self._p, self._q, self._d))

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __abs__(self):
        return -self if self.sign() < 0 else self

    # ------------------------------------------------------------------
    def __float__(self) -> float:
        # Carry q sqrt5 to k fractional bits by isqrt and let int / int round
        # once, so the result is within 1 ulp.  With mixed signs p and
        # q sqrt5 cancel; k keeps 64 bits of the result even then, using
        # |p + q sqrt5| = |p^2 - 5 q^2| / |p - q sqrt5|.
        p, q, d = self._p, self._q, self._d
        k = max(0, 66 + max(abs(p), 3 * abs(q)).bit_length()
                - abs(p * p - 5 * q * q).bit_length())
        root = math.isqrt(5 * q * q << 2 * k)
        return ((p << k) + (root if q > 0 else -root)) / (d << k)

    def floor(self) -> int:
        """Exact floor, (p + floor(q sqrt5)) // d in integers."""
        p, q, d = self._p, self._q, self._d
        r = math.isqrt(5 * q * q)      # q sqrt5 is irrational unless q = 0
        return (p + (r if q >= 0 else -r - 1)) // d

    def mod1(self) -> "Q5":
        return self - self.floor()

    @staticmethod
    def from_triple(p: int, q: int, d: int) -> "Q5":
        """(p + q sqrt5)/d for integers p, q and d > 0, in lowest terms."""
        return _q5(p, q, d)

    def __repr__(self):
        return f"Q5({self.a}, {self.b})"

    def to_string(self) -> str:
        """Serialized as "a ; b" with rational components."""
        return f"{self.a};{self.b}"

    @staticmethod
    def from_string(s: str) -> "Q5":
        parts = s.split(";")
        if len(parts) != 2:
            raise ValueError(f"malformed Q5 literal {s!r}")
        return Q5(Fraction(parts[0]), Fraction(parts[1]))


def _q5(p: int, q: int, d: int) -> Q5:
    """(p + q sqrt5)/d for d > 0, reduced to lowest terms."""
    g = math.gcd(p, q, d)
    if g != 1:
        p, q, d = p // g, q // g, d // g
    r = object.__new__(Q5)
    r._p, r._q, r._d = p, q, d
    return r


def _parts(x) -> Tuple[int, int, int]:
    """The lowest-terms triple (p, q, d) of a Q5, int or Fraction."""
    if isinstance(x, Q5):
        return x._p, x._q, x._d
    if isinstance(x, int):
        return x, 0, 1
    if isinstance(x, Fraction):
        return x.numerator, 0, x.denominator
    raise TypeError(f"cannot coerce {type(x)} into Q(sqrt5)")


def _sign(p: int, q: int) -> int:
    """Sign of p + q sqrt5."""
    if p >= 0 and q >= 0:
        return 1 if p or q else 0
    if p <= 0 and q <= 0:
        return -1
    # mixed signs: compare p^2 against 5 q^2
    if p > 0:
        return 1 if p * p > 5 * q * q else -1
    return 1 if 5 * q * q > p * p else -1


def pair_sign(u: Tuple[int, int], v: Tuple[int, int]) -> int:
    """Sign of u - v for integer pairs u = (p, q), read as (p + q sqrt5)/d
    on one denominator d > 0."""
    return _sign(u[0] - v[0], u[1] - v[1])


LAMBDA_PLUS_Q = Q5(Fraction(3, 2), Fraction(1, 2))
LAMBDA_MINUS_Q = Q5(Fraction(3, 2), Fraction(-1, 2))
MU_Q = Q5(Fraction(1, 2), Fraction(1, 2))     # lambda_+ - 1, unstable slope
NU_Q = Q5(Fraction(1, 2), Fraction(-1, 2))    # lambda_- - 1, stable slope


def lattice_coords(m: int, n: int) -> Tuple[Q5, Q5]:
    """Eigen-coordinates (A, B) of the lattice vector (m, n), in closed form:
    A = m/2 + (2n - m) sqrt5/10 and B = m/2 + (m - 2n) sqrt5/10."""
    return _q5(5 * m, 2 * n - m, 10), _q5(5 * m, m - 2 * n, 10)


def from_eigen(a: Q5, b: Q5) -> Tuple[Q5, Q5]:
    """(x, y) = a e_u + b e_s."""
    return a + b, a * MU_Q + b * NU_Q


def lattice_from_eigen_shift(delta: Q5) -> Tuple[int, int] | None:
    """The unique (m, n) with A(m,n) == delta, if it is integral.

    A(m,n) = m/2 + (2n - m) sqrt5/10, so with delta = (p + q sqrt5)/d,
    m = 2p/d and n = (p + 5q)/d must both be integers.
    """
    p, q, d = delta._p, delta._q, delta._d
    if (2 * p) % d or (p + 5 * q) % d:
        return None
    return 2 * p // d, (p + 5 * q) // d


def lattice_from_b_shift(delta: Q5) -> Tuple[int, int] | None:
    """The unique (m, n) with B(m,n) == delta, if it is integral.

    B(m,n) = m/2 + (m - 2n) sqrt5/10 = A(m, m - n), so it is
    lattice_from_eigen_shift's (m, n') read as (m, m - n').
    """
    mn = lattice_from_eigen_shift(delta)
    return None if mn is None else (mn[0], mn[0] - mn[1])
