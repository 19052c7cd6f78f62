import math
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catflux import trig
from catflux.trig import (COEFF_TOL, FREQ_LIMIT, FrequencyCapError,
                          LAMBDA_MINUS, LAMBDA_PLUS, TrigPoly, V_PLUS,
                          geometric_sum, product_average, s0_power)
from oracles import eager_geometric_sum, quadrature_average


def close_polys(p, q, tol=1e-12):
    keys = set(p.coeffs) | set(q.coeffs)
    return all(abs(p.coeffs.get(k, 0) - q.coeffs.get(k, 0)) <= tol for k in keys)


def is_real(p, tol=1e-12):
    """Hermitian symmetry c(-nu) = conj c(nu): p is a real function."""
    d = p.coeffs
    return all(abs(c - complex(d.get((-n1, -n2), 0)).conjugate()) <= tol
               for (n1, n2), c in d.items())


def random_poly(rng, terms=4, span=8):
    d = {}
    for _ in range(terms):
        nu = (int(rng.integers(-span, span + 1)), int(rng.integers(-span, span + 1)))
        c = complex(rng.normal(), rng.normal())
        d[nu] = d.get(nu, 0) + c
        m = (-nu[0], -nu[1])
        d[m] = d.get(m, 0) + c.conjugate()
    return TrigPoly(d)


class TestRing:
    def test_product_to_sum(self):
        c = TrigPoly.cosine((1, 0))
        expected = TrigPoly.const(0.5) + TrigPoly.cosine((2, 0), 0.5)
        assert close_polys(c * c, expected)

    def test_multiplicative_identity(self):
        f = TrigPoly.sine((2, -1), 0.7) + TrigPoly.cosine((1, 1), 0.3)
        assert close_polys(f * TrigPoly.const(1.0), f)

    def test_mixed_product(self):
        # cos(psi1) cos(psi1+psi2) = 1/2 cos(2psi1+psi2) + 1/2 cos(psi2)
        prod = TrigPoly.cosine((1, 0)) * TrigPoly.cosine((1, 1))
        expected = TrigPoly.cosine((2, 1), 0.5) + TrigPoly.cosine((0, 1), 0.5)
        assert close_polys(prod, expected)

    def test_ring_laws_random(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            a, b, c = (random_poly(rng) for _ in range(3))
            assert close_polys(a * b, b * a)
            assert close_polys((a * b) * c, a * (b * c), tol=1e-11)
            assert close_polys(a * (b + c), a * b + a * c, tol=1e-11)

    def test_hermitian_symmetry_preserved(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            a, b = random_poly(rng), random_poly(rng)
            assert is_real(a * b)
            assert is_real(a + b)
            assert is_real(a.compose_power(3))
            assert is_real(a.deriv_plus().derivative(V_PLUS), tol=1e-10)


class TestComposeAndDerive:
    def test_compose_identity(self):
        f = TrigPoly.sine((1, 2), 0.4)
        assert f.compose_power(0) is f

    def test_compose_cat(self):
        # cos(psi1) o S0 = cos(psi1 + psi2)
        assert close_polys(TrigPoly.cosine((1, 0)).compose_power(1),
                           TrigPoly.cosine((1, 1)))

    def test_compose_group_law(self):
        f = TrigPoly.sine((2, -1)) + TrigPoly.cosine((0, 3), 0.2)
        lhs = f.compose_power(3).compose_power(-5)
        rhs = f.compose_power(-2)
        assert lhs.coeffs.keys() == rhs.coeffs.keys()
        assert close_polys(lhs, rhs, tol=0.0)

    def test_frequency_growth_rate(self):
        f = TrigPoly.cosine((1, 0))
        norms = [max(abs(n) for nu in f.compose_power(p).coeffs for n in nu)
                 for p in range(4, 14)]
        ratios = [norms[i + 1] / norms[i] for i in range(len(norms) - 1)]
        assert all(abs(r - LAMBDA_PLUS) < 0.1 for r in ratios)

    def test_derivative_constant(self):
        assert not TrigPoly.const(3.0).deriv_plus()

    def test_derivative_sine(self):
        # d_+ sin(psi1) = cos(psi1)/sqrt(lambda_+ + 1)
        got = TrigPoly.sine((1, 0)).deriv_plus()
        assert close_polys(got, TrigPoly.cosine((1, 0), 1.0 / math.sqrt(LAMBDA_PLUS + 1)))


class TestAverages:
    def test_simple_averages(self):
        assert TrigPoly.cosine((1, 0)).average() == 0.0
        sq = TrigPoly.cosine((1, 0)) * TrigPoly.cosine((1, 0))
        assert abs(sq.average() - 0.5) < 1e-15

    def test_selection_rule(self):
        # <cos(S^k phi . e1) cos(phi_1)> = 1/2 iff k = 0
        base = TrigPoly.cosine((1, 0))
        for k in range(-6, 7):
            val = (base.compose_power(k) * base).average()
            assert abs(val - (0.5 if k == 0 else 0.0)) < 1e-15

    def test_quadrature_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(6):
            f = random_poly(rng, terms=3, span=8)
            g = random_poly(rng, terms=3, span=8)
            prod = f * g
            assert abs(prod.average() - quadrature_average(prod)) < 1e-8

    def test_product_average_matches_mul(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            f, g, h = (random_poly(rng, terms=3) for _ in range(3))
            direct = ((f * g) * h).average()
            assert abs(product_average([f, g, h]) - direct) < 1e-11

    def test_join_from_the_short_side_is_bit_identical(self):
        # when the convolved smaller factors outgrow the largest factor,
        # the join searches the largest factor's keys instead; the sum
        # must keep its bits, against a copy of the one-sided join
        rng = np.random.default_rng(28)
        nonzero = 0
        for _ in range(60):
            factors = [random_poly(rng, terms=int(rng.integers(3, 9)), span=4)
                       for _ in range(int(rng.integers(3, 5)))]
            polys = sorted(factors, key=len)
            big, acc = polys[-1], polys[0]._columns()
            for f in polys[1:-1]:
                acc = trig._convolve(acc, f._columns(), 0.0)
            n1, n2, c = acc
            assert c.size > len(big)
            idx, found = trig._find(big.n1, big.n2, -n1, -n2)
            want = float((c[found] * big.c[idx[found]]).sum().real)
            got = product_average(factors)
            assert got.hex() == want.hex()
            nonzero += got != 0.0
        assert nonzero > 50


class TestGeometricSum:
    def test_zero_input(self):
        gs = geometric_sum(TrigPoly.zero(), 0.5, +1)
        assert not gs.poly and gs.tail_bound == 0.0

    def test_fixed_point_value(self):
        # sum_p lambda^{p+1} sin(S^p psi . e1) vanishes at the fixed point
        gs = geometric_sum(TrigPoly.sine((1, 0)), LAMBDA_MINUS, +1)
        assert abs(LAMBDA_MINUS * gs.poly.evaluate(0.0, 0.0)) < 1e-14

    def test_ratio_validation(self):
        with pytest.raises(ValueError):
            geometric_sum(TrigPoly.cosine((1, 0)), 1.0, +1)

    def test_tail_bound_scaling(self):
        f = TrigPoly.sine((1, 0))
        with patch.object(trig, "MAX_P", 10):
            g1 = geometric_sum(f, LAMBDA_MINUS, +1)
        with patch.object(trig, "MAX_P", 11):
            g2 = geometric_sum(f, LAMBDA_MINUS, +1)
        assert g2.tail_bound == pytest.approx(g1.tail_bound * LAMBDA_MINUS, rel=1e-12)

    def test_solves_cohomology(self):
        # h = -lambda sum_p lambda^p f o S^p solves lambda_+ h - h o S0 = -f
        f = TrigPoly.sine((1, 0), 0.8)
        h = -LAMBDA_MINUS * geometric_sum(f, LAMBDA_MINUS, +1).poly
        resid = LAMBDA_PLUS * h - h.compose_power(1) + f
        assert resid.l1_norm() < 1e-12


class TestInt64Frequencies:
    def test_wrapping_composition_is_exact(self):
        # nu = S0^-30 (1, 0) has entries near 1e12, and so has S0^30: the
        # products a * n1 wrap int64, the composed frequency (1, 0) does not
        a, b, c, d = s0_power(-30)
        nu = (a, c)
        assert abs(s0_power(30)[0] * nu[0]) >= 2 ** 63
        got = TrigPoly({nu: 1.0}).compose_power(30)
        assert got.coeffs == {(1, 0): 1.0}
        assert got.n1.dtype == np.int64

    def test_large_entries_compose_exactly(self):
        # S0^50 has entries above 2^63; the map runs mod 2^64 and the shadow
        # certifies the result, S0^30 (1, 0)
        a, b, c, d = s0_power(-20)
        assert max(map(abs, s0_power(50))) >= 2 ** 63
        got = TrigPoly({(a, c): 2.0}).compose_power(50)
        a, b, c, d = s0_power(30)
        assert got.coeffs == {(a, c): 2.0}

    def test_composed_frequency_at_limit_raises(self):
        # S0^46 (1, 0) = (F(91), F(92)), both above 2^62
        with pytest.raises(FrequencyCapError) as err:
            TrigPoly.cosine((1, 0)).compose_power(46)
        assert max(map(abs, err.value.nu)) >= FREQ_LIMIT

    def test_summed_frequency_at_limit_raises(self):
        half = TrigPoly({(2 ** 61, 0): 1.0})
        with pytest.raises(FrequencyCapError):
            half * half

    def test_constructor_rejects_frequency_beyond_int64(self):
        with pytest.raises(FrequencyCapError):
            TrigPoly({(2 ** 70, 0): 1})

    def test_geometric_sum_beyond_limit_raises(self):
        # tolerance never stops a sum of ratio 0.99; MAX_P = 60 composes
        # with S0^60, whose frequencies pass 2^62
        with pytest.raises(FrequencyCapError):
            geometric_sum(TrigPoly.cosine((1, 0)), 0.99, +1)


# ----------------------------------------------------------------------
# reference model: the dict-of-tuples kernels the array kernels replaced
# ----------------------------------------------------------------------
TOL = COEFF_TOL


def ref_prune(d, tol):
    return {nu: c for nu, c in d.items() if abs(c) > tol}


def ref_add(a, b, tol=TOL):
    d = dict(a)
    for nu, c in b.items():
        d[nu] = d.get(nu, 0) + c
    return ref_prune(d, tol)


def ref_mul(a, b, tol=TOL):
    if len(a) > len(b):
        a, b = b, a
    d = {}
    for nu1, c1 in a.items():
        for nu2, c2 in b.items():
            nu = (nu1[0] + nu2[0], nu1[1] + nu2[1])
            d[nu] = d.get(nu, 0) + c1 * c2
    return ref_prune(d, tol)


def ref_compose(a, p):
    a11, a12, a21, a22 = s0_power(p)
    out = {}
    for (n1, n2), coef in a.items():
        nu = (a11 * n1 + a21 * n2, a12 * n1 + a22 * n2)
        out[nu] = out.get(nu, 0) + coef
    return out


def ref_geometric_sum(f, ratio, direction, max_p, tol=TOL):
    norm = sum(abs(c) for c in f.values())
    acc = {}
    weight = 1.0
    p = 0
    while p <= max_p and abs(weight) * norm > TOL:
        live = {nu: c for nu, c in f.items() if abs(c) * abs(weight) > TOL}
        if not live:
            break
        for nu, c in ref_compose(live, direction * p).items():
            acc[nu] = acc.get(nu, 0) + weight * c
        weight *= ratio
        p += 1
    return ref_prune(acc, tol)


def ref_product_average(factors):
    polys = sorted(factors, key=len)
    if not polys:
        return 1.0
    big, rest = polys[-1], polys[:-1]
    if not big:
        return 0.0
    if not rest:
        return big.get((0, 0), 0j).real
    acc = None
    for f in rest:
        acc = dict(f) if acc is None else ref_mul(acc, f, tol=-1.0)
        if not acc:
            return 0.0
    return sum(c * big[(-nu[0], -nu[1])] for nu, c in acc.items()
               if (-nu[0], -nu[1]) in big).real


def magnitudes(d):
    return {nu: abs(c) for nu, c in d.items()}


def assert_matches(poly, want, scale):
    """Equal key sets; each coefficient within 1e-15 of the sum of the
    magnitudes of the terms that add up to it."""
    got = dict(poly.coeffs)
    assert got.keys() == want.keys()
    for nu, c in want.items():
        assert abs(got[nu] - c) <= 1e-15 * scale[nu], (nu, got[nu], c)


examples = settings(deadline=None, max_examples=150)
frequencies = st.tuples(st.integers(-6, 6), st.integers(-6, 6))
coefficients = st.builds(
    complex,
    st.floats(0.5, 2.0) | st.floats(-2.0, -0.5),
    st.floats(0.5, 2.0) | st.floats(-2.0, -0.5))
polys = st.dictionaries(frequencies, coefficients, max_size=12)
# the conjugation's ratios with every index allowed, or any ratio with few
ratios_and_max_p = (
    st.tuples(st.sampled_from([LAMBDA_MINUS, LAMBDA_MINUS ** 2]), st.just(60))
    | st.tuples(st.floats(-0.9, 0.9), st.integers(1, 30)))


class TestArrayKernelsAgainstDictModel:
    @examples
    @given(polys, polys)
    def test_add_and_sub(self, a, b):
        assert_matches(TrigPoly(a) + TrigPoly(b), ref_add(a, b),
                       ref_add(magnitudes(a), magnitudes(b), tol=-1.0))
        neg_b = {nu: -c for nu, c in b.items()}
        assert_matches(TrigPoly(a) - TrigPoly(b), ref_add(a, neg_b),
                       ref_add(magnitudes(a), magnitudes(b), tol=-1.0))

    @examples
    @given(polys, polys)
    def test_mul(self, a, b):
        assert_matches(TrigPoly(a) * TrigPoly(b), ref_mul(a, b),
                       ref_mul(magnitudes(a), magnitudes(b), tol=-1.0))

    @examples
    @given(polys, st.integers(-12, 12))
    def test_compose_power(self, a, p):
        got = TrigPoly(a).compose_power(p)
        assert got.coeffs == ref_compose(a, p)

    @examples
    @given(polys, st.floats(-0.9, 0.9), st.sampled_from([1, -1]),
           st.integers(1, 30))
    def test_geometric_sum(self, f, ratio, direction, max_p):
        with patch.object(trig, "MAX_P", max_p):
            got = geometric_sum(TrigPoly(f), ratio, direction).poly
        scale = ref_geometric_sum(magnitudes(f), abs(ratio), direction,
                                  max_p, tol=-1.0)
        assert_matches(got, ref_geometric_sum(f, ratio, direction, max_p),
                       scale)

    @examples
    @given(polys, ratios_and_max_p, st.sampled_from([1, -1]),
           st.sampled_from([1.0, -1.0, -LAMBDA_MINUS]))
    def test_deferred_merge_equals_eager_merge(self, f, ratio_max_p,
                                               direction, scale):
        # the merge waits for the first read and then gives the eager
        # merge's columns and tail bound bit for bit
        ratio, max_p = ratio_max_p
        with patch.object(trig, "MAX_P", max_p):
            gs = geometric_sum(TrigPoly(f), ratio, direction, scale)
        want, tail = eager_geometric_sum(TrigPoly(f), ratio, direction,
                                         scale, max_p)
        assert gs.tail_bound.hex() == tail.hex()
        if f:
            assert gs.poly.pending
        assert gs.poly == want
        assert not getattr(gs.poly, "pending", False)

    @examples
    @given(polys, ratios_and_max_p, st.sampled_from([1, -1]),
           st.sampled_from([1.0, -LAMBDA_MINUS]),
           st.lists(frequencies, max_size=6))
    def test_coefficients_at_equal_merged_columns(self, f, ratio_max_p,
                                                  direction, scale, extra):
        # queries: every frequency an index p could reach, terms below the
        # live rule included, a few others, and one whose preimages pass
        # the int64 range at every p > 0
        ratio, max_p = ratio_max_p
        with patch.object(trig, "MAX_P", max_p):
            lazy = geometric_sum(TrigPoly(f), ratio, direction, scale).poly
            merged = geometric_sum(TrigPoly(f), ratio, direction, scale).poly
        if not f:
            return
        queries = extra + [(2 ** 61, -2 ** 61)]
        for p in range(max_p + 1):
            a, b, c, d = s0_power(direction * p)
            queries += [(a * x + c * y, b * x + d * y) for x, y in f
                        if max(abs(a * x + c * y), abs(b * x + d * y))
                        < FREQ_LIMIT]
        q1 = np.array([q[0] for q in queries], dtype=np.int64)
        q2 = np.array([q[1] for q in queries], dtype=np.int64)
        got, found = lazy.coefficients_at(q1, q2)
        assert lazy.pending
        want = merged.coeffs
        for q, value, hit in zip(queries, got.tolist(), found.tolist()):
            assert hit == (q in want)
            if hit:
                assert value == want[q]

    def test_deferred_join_sorts_as_merged(self):
        # the products -0.5, -5e15 and 5e15 sum to 0 in one order and to
        # -0.5 in the reverse; the sum must read them as the merged sum
        # sorts them.  The ten tiny summand terms are pruned after the
        # scale, so the sum has 3 terms but 13 composed ones: its length
        # must be certified, not guessed from the work
        h = {(1, 0): 1.0, (2, 0): 1.0, (3, 0): 1.0,
             **{(0, j): 2e-14 for j in range(1, 11)}}
        same = {(-1, 0): 1.0, (-2, 0): 1e16, (-3, 0): -1e16}
        longer = {**same, (5, 5): 1.0}
        for partner, at, want in ((same, 0, 0.0), (same, 1, -0.5),
                                  (longer, 0, 0.0), (longer, 1, 0.0)):
            with patch.object(trig, "MAX_P", 0):
                lazy = geometric_sum(TrigPoly(h), 0.5, +1, -0.5).poly
                merged = geometric_sum(TrigPoly(h), 0.5, +1, -0.5).poly
            assert len(merged) == 3 and lazy.terms == 13
            factors = [TrigPoly(partner)]
            assert product_average(
                factors[:at] + [merged] + factors[at:]) == want
            got = product_average(factors[:at] + [lazy] + factors[at:])
            assert got.hex() == want.hex(), (len(partner), at)
            # only a partner certainly not longer, before the sum, joins
            # without the merge
            assert lazy.pending == (partner is same and at == 1)

    @examples
    @given(polys, st.floats(-0.9, 0.9), st.sampled_from([1, -1]),
           st.integers(1, 20), st.lists(polys, min_size=1, max_size=3),
           st.integers(0, 3))
    def test_deferred_join_is_bit_identical(self, f, ratio, direction, max_p,
                                            partners, at):
        # the join against an unmerged sum, wherever it sits among the
        # factors and however long its partners are, against the merged sum
        with patch.object(trig, "MAX_P", max_p):
            lazy = geometric_sum(TrigPoly(f), ratio, direction).poly
            merged = geometric_sum(TrigPoly(f), ratio, direction).poly
        len(merged)
        others = [TrigPoly(p) for p in partners]
        at = min(at, len(others))
        got = product_average(others[:at] + [lazy] + others[at:])
        want = product_average(others[:at] + [merged] + others[at:])
        assert got.hex() == want.hex()

    @examples
    @given(st.lists(polys, max_size=4))
    def test_product_average(self, factors):
        got = product_average([TrigPoly(f) for f in factors])
        want = ref_product_average(factors)
        scale = ref_product_average([magnitudes(f) for f in factors])
        assert abs(got - want) <= 1e-15 * scale
