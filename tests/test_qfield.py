"""Q5 against a two-Fraction reference model of a + b sqrt5."""

import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catflux.qfield import (Q5, lattice_from_b_shift, lattice_from_eigen_shift,
                            pair_sign)

examples = settings(deadline=None, max_examples=150)


# ----------------------------------------------------------------------
# reference model: (a, b) with rational a, b
# ----------------------------------------------------------------------
def ref_add(x, y):
    return x[0] + y[0], x[1] + y[1]


def ref_sub(x, y):
    return x[0] - y[0], x[1] - y[1]


def ref_mul(x, y):
    return x[0] * y[0] + 5 * x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def ref_div(x, y):
    den = y[0] * y[0] - 5 * y[1] * y[1]
    return ((x[0] * y[0] - 5 * x[1] * y[1]) / den,
            (x[1] * y[0] - x[0] * y[1]) / den)


def ref_sign(x):
    a, b = x
    if a == 0 and b == 0:
        return 0
    if a >= 0 and b >= 0:
        return 1
    if a <= 0 and b <= 0:
        return -1
    if a > 0:
        return 1 if a * a > 5 * b * b else -1
    return 1 if 5 * b * b > a * a else -1


def parts(x: Q5):
    return x.a, x.b


def lowest_terms(x: Q5) -> bool:
    return x._d > 0 and math.gcd(x._p, x._q, x._d) == 1


def near_ulps(value: float, exact, ulps: int) -> bool:
    """value lies within `ulps` ulp of the correctly rounded exact value."""
    allowed = {float(exact)}
    for _ in range(ulps):
        allowed |= {math.nextafter(v, d) for v in allowed
                    for d in (math.inf, -math.inf)}
    return value in allowed


def exact_value(x):
    with mpmath.workprec(600):
        return (mpmath.mpf(x[0].numerator) / x[0].denominator
                + mpmath.mpf(x[1].numerator) / x[1].denominator * mpmath.sqrt(5))


rationals = st.builds(Fraction, st.integers(-10 ** 30, 10 ** 30),
                      st.integers(1, 10 ** 9))
pairs = st.tuples(rationals, rationals)


@st.composite
def cancelling(draw):
    """(a, b) of opposite signs with a + b sqrt5 within a few units of 0
    over a common d."""
    q = draw(st.integers(1, 2 ** 90)) * draw(st.sampled_from((1, -1)))
    root = math.isqrt(5 * q * q)
    # |p| >= 1 keeps the signs mixed even for |q| = 1, where root = 2
    p = -(root + draw(st.integers(max(-3, 1 - root), 3))) * (1 if q > 0 else -1)
    d = draw(st.integers(1, 10 ** 12))
    return Fraction(p, d), Fraction(q, d)


values = st.one_of(pairs, cancelling())
nonzero = values.filter(lambda x: x != (0, 0))


# ----------------------------------------------------------------------
class TestArithmetic:
    @examples
    @given(values, values)
    def test_ring_operations(self, x, y):
        qx, qy = Q5(*x), Q5(*y)
        for op, ref in ((qx + qy, ref_add(x, y)), (qx - qy, ref_sub(x, y)),
                        (qx * qy, ref_mul(x, y)), (-qx, (-x[0], -x[1]))):
            assert parts(op) == ref
            assert lowest_terms(op)

    @examples
    @given(values, nonzero)
    def test_division(self, x, y):
        q = Q5(*x) / Q5(*y)
        assert parts(q) == ref_div(x, y)
        assert lowest_terms(q)

    @examples
    @given(values, rationals)
    def test_rational_operands(self, x, r):
        qx = Q5(*x)
        rr = (r, Fraction(0))
        for k in (r, r.numerator):
            kk = (Fraction(k), Fraction(0))
            assert parts(qx + k) == parts(k + qx) == ref_add(x, kk)
            assert parts(qx - k) == ref_sub(x, kk)
            assert parts(k - qx) == ref_sub(kk, x)
            assert parts(qx * k) == parts(k * qx) == ref_mul(x, kk)
        if r != 0:
            assert parts(qx / r) == ref_div(x, rr)
        if x != (0, 0):
            assert parts(r / qx) == ref_div(rr, x)

    def test_division_by_zero_raises(self):
        for zero in (Q5(0), Q5(), 0, Fraction(0)):
            with pytest.raises(ZeroDivisionError):
                Q5(1, 2) / zero
        with pytest.raises(ZeroDivisionError):
            1 / Q5(0)

    def test_other_types_refused(self):
        with pytest.raises(TypeError):
            Q5(1) + 0.5


class TestOrder:
    @examples
    @given(values)
    def test_sign(self, x):
        assert Q5(*x).sign() == ref_sign(x)

    @examples
    @given(values, values)
    def test_comparisons(self, x, y):
        s = ref_sign(ref_sub(x, y))
        qx, qy = Q5(*x), Q5(*y)
        assert (qx < qy, qx <= qy, qx > qy, qx >= qy, qx == qy) == (
            s < 0, s <= 0, s > 0, s >= 0, s == 0)
        assert abs(qx).sign() == abs(ref_sign(x))

    @examples
    @given(values, values)
    def test_pair_sign(self, x, y):
        # x and y as integer pairs over their common denominator
        d = math.lcm(*(c.denominator for c in x + y))
        u, v = (tuple(int(c * d) for c in z) for z in (x, y))
        assert pair_sign(u, v) == ref_sign(ref_sub(x, y))

    @examples
    @given(values)
    def test_floor_and_mod1(self, x):
        qx = Q5(*x)
        n = qx.floor()
        assert ref_sign(ref_sub(x, (Fraction(n), Fraction(0)))) >= 0
        assert ref_sign(ref_sub(x, (Fraction(n + 1), Fraction(0)))) < 0
        frac = qx.mod1()
        assert parts(frac) == (x[0] - n, x[1])
        assert lowest_terms(frac)


class TestIdentity:
    @examples
    @given(values, values)
    def test_eq_and_hash(self, x, y):
        qx = Q5(*x)
        # the same value reached through unreduced inputs and arithmetic
        scale = 6
        same = Q5(Fraction(x[0].numerator * scale, x[0].denominator * scale),
                  x[1]) + Q5(*y) - Q5(*y)
        assert same == qx and hash(same) == hash(qx)
        assert len({same, qx}) == 1
        assert (qx == Q5(*y)) == (x == y)
        assert lowest_terms(qx)

    @examples
    @given(rationals)
    def test_rationals_equal_and_hash_like_their_value(self, r):
        for v in (r, r.numerator):
            assert Q5(v) == v and hash(Q5(v)) == hash(v)
            assert len({v, Q5(v)}) == 1
        assert Q5(r, 1) != r

    @examples
    @given(values)
    def test_string_round_trip(self, x):
        qx = Q5(*x)
        text = qx.to_string()
        assert text == f"{x[0]};{x[1]}"
        assert Q5.from_string(text) == qx
        assert repr(qx) == f"Q5({x[0]}, {x[1]})"

    def test_foreign_types_compare_unequal(self):
        assert (Q5(1) == None) is False  # noqa: E711
        assert (Q5(1) == 1.0) is False
        assert Q5(1) != "x"
        assert Q5(1) not in [None, "x"]
        assert Q5(1) in [None, "x", 1]
        # only equality answers; order and arithmetic still refuse
        with pytest.raises(TypeError):
            Q5(1) < 1.0
        with pytest.raises(TypeError):
            Q5(1) * None

    def test_malformed_string_refused(self):
        with pytest.raises(ValueError, match="malformed"):
            Q5.from_string("1;2;3")


class TestFloat:
    @examples
    @given(values)
    def test_near_the_exact_value(self, x):
        # one int / int rounding, whatever the signs of a and b
        assert near_ulps(float(Q5(*x)), exact_value(x), 1)

    @examples
    @given(cancelling())
    def test_cancelling_within_one_ulp(self, x):
        assert near_ulps(float(Q5(*x)), exact_value(x), 1)


# ----------------------------------------------------------------------
def ref_shift(a, b, sign):
    """(m, n) = (2a, a + sign 5b) as Fractions, if both are integers: the
    inverse of A (sign +1) or B (sign -1) of lattice_coords."""
    m, n = 2 * a, a + sign * 5 * b
    if m.denominator != 1 or n.denominator != 1:
        return None
    return int(m), int(n)


# parts over the denominators of lattice coordinates and their neighbours,
# so that integral shifts are drawn often
lattice_parts = st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6),
                          st.sampled_from((1, 2, 5, 10, 20, 3)))


class TestLatticeShift:
    @settings(deadline=None, max_examples=2000)
    @given(st.one_of(st.tuples(lattice_parts, lattice_parts), values))
    def test_integer_divisibility_matches_fractions(self, x):
        delta = Q5(*x)
        assert lattice_from_eigen_shift(delta) == ref_shift(*x, 1)
        assert lattice_from_b_shift(delta) == ref_shift(*x, -1)
