"""Exact arithmetic in Q(sqrt5).

The cat map's eigendata lives in Q(sqrt5): lambda_pm = (3 +- sqrt5)/2 and the
eigendirections have slopes (1 +- sqrt5)/2.  Segment-incidence tests in the
Markov-partition geometry are degenerate in floating point, so all boundary
geometry is done on numbers a + b sqrt5 with rational a, b.  The
eigen-coordinates of lattice vectors, in closed form, and their inverses
live here too.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Tuple, Union

Rat = Union[int, Fraction]

_SQRT5 = math.sqrt(5.0)


class Q5:
    """a + b*sqrt5 with exact rational a, b."""

    __slots__ = ("a", "b")

    def __init__(self, a: Rat = 0, b: Rat = 0):
        self.a = Fraction(a)
        self.b = Fraction(b)

    # ------------------------------------------------------------------
    def __add__(self, other):
        o = _coerce(other)
        return Q5(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __sub__(self, other):
        o = _coerce(other)
        return Q5(self.a - o.a, self.b - o.b)

    def __rsub__(self, other):
        return _coerce(other) - self

    def __neg__(self):
        return Q5(-self.a, -self.b)

    def __mul__(self, other):
        o = _coerce(other)
        return Q5(self.a * o.a + 5 * self.b * o.b, self.a * o.b + self.b * o.a)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _coerce(other)
        den = o.a * o.a - 5 * o.b * o.b
        if den == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt5)")
        return Q5((self.a * o.a - 5 * self.b * o.b) / den,
                  (self.b * o.a - self.a * o.b) / den)

    def __rtruediv__(self, other):
        return _coerce(other) / self

    # ------------------------------------------------------------------
    def sign(self) -> int:
        a, b = self.a, self.b
        if a == 0 and b == 0:
            return 0
        if a >= 0 and b >= 0:
            return 1
        if a <= 0 and b <= 0:
            return -1
        # mixed signs: compare a^2 against 5 b^2
        if a > 0:  # b < 0: positive iff a^2 > 5 b^2
            return 1 if a * a > 5 * b * b else -1
        return 1 if 5 * b * b > a * a else -1

    def __eq__(self, other) -> bool:
        o = _coerce(other)
        return self.a == o.a and self.b == o.b

    def __hash__(self):
        return hash((self.a, self.b))

    def __lt__(self, other):
        return (self - _coerce(other)).sign() < 0

    def __le__(self, other):
        return (self - _coerce(other)).sign() <= 0

    def __gt__(self, other):
        return (self - _coerce(other)).sign() > 0

    def __ge__(self, other):
        return (self - _coerce(other)).sign() >= 0

    def __abs__(self):
        return -self if self.sign() < 0 else self

    # ------------------------------------------------------------------
    def __float__(self) -> float:
        a, b = self.a, self.b
        if not (a > 0 > b or b > 0 > a):
            return float(a) + float(b) * _SQRT5
        # With mixed signs, float(a) + float(b) sqrt5 cancels.  Write the
        # value as (p + q sqrt5)/d in integers, carry q sqrt5 to k fractional
        # bits by isqrt, and let int / int round once; k keeps 64 bits of
        # the result, using |p + q sqrt5| = |p^2 - 5 q^2| / |p - q sqrt5|.
        d = math.lcm(a.denominator, b.denominator)
        p = a.numerator * (d // a.denominator)
        q = b.numerator * (d // b.denominator)
        k = max(0, 66 + max(abs(p), 3 * abs(q)).bit_length()
                - abs(p * p - 5 * q * q).bit_length())
        root = math.isqrt(5 * q * q << 2 * k)
        return ((p << k) + (root if q > 0 else -root)) / (d << k)

    def floor(self) -> int:
        """Exact floor; the float estimate is verified and corrected."""
        n = math.floor(float(self))
        while (self - n).sign() < 0:
            n -= 1
        while (self - (n + 1)).sign() >= 0:
            n += 1
        return n

    def mod1(self) -> "Q5":
        return self - self.floor()

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


def _coerce(x) -> Q5:
    if isinstance(x, Q5):
        return x
    if isinstance(x, (int, Fraction)):
        return Q5(x)
    raise TypeError(f"cannot coerce {type(x)} into Q(sqrt5)")


SQRT5_Q = Q5(0, 1)
LAMBDA_PLUS_Q = Q5(Fraction(3, 2), Fraction(1, 2))
LAMBDA_MINUS_Q = Q5(Fraction(3, 2), Fraction(-1, 2))
MU_Q = Q5(Fraction(1, 2), Fraction(1, 2))     # lambda_+ - 1, unstable slope
NU_Q = Q5(Fraction(1, 2), Fraction(-1, 2))    # lambda_- - 1, stable slope


def eigen_coords(x: Q5, y: Q5) -> Tuple[Q5, Q5]:
    """(a, b) with (x, y) = a (1, mu) + b (1, nu); exact inversion."""
    a = (y - NU_Q * x) / SQRT5_Q
    b = (MU_Q * x - y) / SQRT5_Q
    return a, b


def lattice_coords(m: int, n: int) -> Tuple[Q5, Q5]:
    """Eigen-coordinates (A, B) of the lattice vector (m, n), in closed form:
    A = m/2 + (2n - m) sqrt5/10 and B = m/2 + (m - 2n) sqrt5/10."""
    half = Fraction(m, 2)
    return Q5(half, Fraction(2 * n - m, 10)), Q5(half, Fraction(m - 2 * n, 10))


def from_eigen(a: Q5, b: Q5) -> Tuple[Q5, Q5]:
    """(x, y) = a e_u + b e_s."""
    return a + b, a * MU_Q + b * NU_Q


def lattice_from_eigen_shift(delta: Q5) -> Tuple[int, int] | None:
    """The unique (m, n) with A(m,n) == delta, if it is integral.

    A(m,n) = m/2 + (2n - m) sqrt5/10, so m = 2 a-part and
    n = 5 b-part + a-part must both be integers.
    """
    m = 2 * delta.a
    n = 5 * delta.b + delta.a
    if m.denominator != 1 or n.denominator != 1:
        return None
    return int(m), int(n)


def lattice_from_b_shift(delta: Q5) -> Tuple[int, int] | None:
    """The unique (m, n) with B(m,n) == delta, if it is integral.

    B(m,n) = m/2 + (m - 2n) sqrt5/10, so m = 2 a-part and
    n = a-part - 5 b-part must both be integers.
    """
    m = 2 * delta.a
    n = delta.a - 5 * delta.b
    if m.denominator != 1 or n.denominator != 1:
        return None
    return int(m), int(n)
