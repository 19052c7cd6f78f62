import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catflux.conjugation import (ConjugationSeries, OrderCapError, RateSeries,
                                 chain_average, chain_order,
                                 conjugacy_residual, conjugation_order_k,
                                 expansion_rate_series)
from catflux.cumulants import CorrelationEngine, build_table, sigma_series
from catflux.torus import CatSystem, HarmonicForce
from catflux.trig import (LAMBDA_MINUS, LAMBDA_PLUS, TrigPoly, V_MINUS,
                          V_PLUS, join_average, product_average, s0_power)
from oracles import displacement, eager_geometric_sum, force_gradient

FORCE = HarmonicForce.single_harmonic()
NP = math.sqrt(LAMBDA_PLUS + 1)


class TestConjugationFirstOrder:
    def test_leading_coefficients(self):
        # h_+^(1) = -sum_p lambda_+^{-(p+1)} (lambda_++1)^{-1/2} sin(S^p psi . e1)
        hp = ConjugationSeries(FORCE, 1).h_plus[1]
        for p in range(0, 6):
            a, b, c, d = s0_power(p)
            nu = (a, b)  # (S0^T)^p e1
            want = -(LAMBDA_PLUS ** -(p + 1)) / NP / 2j
            assert hp.coeffs[nu] == pytest.approx(want, rel=1e-12)

    def test_fixed_point_value(self):
        series = ConjugationSeries(FORCE, 1)
        hp, hm = series.h_plus[1], series.h_minus[1]
        assert abs(hp.evaluate(0.0, 0.0)) < 1e-13
        assert abs(hm.evaluate(0.0, 0.0)) < 1e-13

    def test_cohomology_identity(self):
        # lambda_+ h_+^(1)(psi) - h_+^(1)(S0 psi) + f_+(psi) = 0
        series = ConjugationSeries(FORCE, 1)
        hp, hm = series.h_plus[1], series.h_minus[1]
        f_plus = FORCE.f_alpha(+1)
        resid = LAMBDA_PLUS * hp - hp.compose_power(1) + f_plus
        assert resid.l1_norm() < 1e-12
        f_minus = FORCE.f_alpha(-1)
        resid_m = LAMBDA_MINUS * hm - hm.compose_power(1) + f_minus
        assert resid_m.l1_norm() < 1e-12

    def test_order1_matches_series(self):
        first = ConjugationSeries(FORCE, 1)
        series = conjugation_order_k(FORCE, 3)
        assert series.h_plus[1] == first.h_plus[1]
        assert series.h_minus[1] == first.h_minus[1]


class TestConjugationHigherOrders:
    def test_orders_vanish_at_fixed_point(self):
        series = conjugation_order_k(FORCE, 3)
        for k in range(1, 4):
            assert abs(series.h_plus[k].evaluate(0.0, 0.0)) < 1e-11
            assert abs(series.h_minus[k].evaluate(0.0, 0.0)) < 1e-11

    def test_order_cap(self):
        with pytest.raises(OrderCapError, match="beyond cap 8"):
            ConjugationSeries(FORCE, 9)

    @pytest.mark.parametrize("order", [0, True, 2.0])
    def test_order_refused_outside_range(self, order):
        with pytest.raises(ValueError, match=r"order must be .*in 1\.\.8"):
            ConjugationSeries(FORCE, order)

    def test_residual_at_fixed_point(self):
        res = conjugacy_residual(FORCE, 2, [1e-3, 3e-3], grid_n=2)
        assert res["order"] == 2

    def test_residual_slope_order1(self):
        eps_list = [1e-3, 2e-3, 4e-3, 8e-3]
        res = conjugacy_residual(FORCE, 1, eps_list, grid_n=10)
        assert res["slope"] == pytest.approx(2.0, abs=0.2)

    def test_residual_zero_at_eps0(self):
        res = conjugacy_residual(FORCE, 1, [0.0], grid_n=4)
        assert res["residual"][0] < 1e-12


class TestChainAverage:
    # contracting term by term sums in another order and skips the 1e-14
    # coefficient pruning of chain_order: measured, the two agree exactly
    # except where chain_order pruned a ~1e-18 average to zero
    @pytest.mark.parametrize("force", [HarmonicForce.single_harmonic(),
                                       HarmonicForce.two_harmonics()],
                             ids=["single", "two"])
    def test_matches_built_polynomial(self, force):
        conj = ConjugationSeries(force, 2)
        sigma = sigma_series(force, 3)
        for j in (1, 2, 3):
            g = sigma.orders[j]
            for n in (0, 1, 2):
                built = chain_order(g, conj.h_plus, conj.h_minus, n).average()
                got = chain_average(g, conj.h_plus, conj.h_minus, n)
                assert got == pytest.approx(built, rel=1e-15, abs=1e-15), (j, n)


class TestRates:
    def test_gamma_first_order(self):
        r = RateSeries(FORCE, 1)
        gp, gm = r.gamma_plus[1], r.gamma_minus[1]
        want = TrigPoly.cosine((1, 0), 1.0 / (LAMBDA_PLUS + 1))
        assert (gp - want).l1_norm() < 1e-12
        assert gp.evaluate(0.0, 0.0) == pytest.approx(1.0 / (LAMBDA_PLUS + 1), abs=1e-12)
        assert gm.evaluate(0.0, 0.0) == pytest.approx(1.0 / (LAMBDA_MINUS + 1), abs=1e-12)

    def test_k_first_order_formulas(self):
        r = RateSeries(FORCE, 1)
        kp, km = r.k_plus[1], r.k_minus[1]
        # k_+^(1) = -sum_n lambda_+^{-(2n+1)} d_- f_+ o S0^n
        f_plus = FORCE.f_alpha(+1)
        f_minus = FORCE.f_alpha(-1)
        want_p = TrigPoly.zero()
        want_m = TrigPoly.zero()
        for n in range(0, 25):
            w = LAMBDA_PLUS ** -(2 * n + 1)
            want_p = want_p + (-w) * f_plus.deriv_minus().compose_power(n)
            want_m = want_m + w * f_minus.deriv_plus().compose_power(-(n + 1))
        assert (kp - want_p).l1_norm() < 1e-10
        assert (km - want_m).l1_norm() < 1e-10

    def test_k_plus_fixed_point_numeric(self):
        kp = RateSeries(FORCE, 1).k_plus[1]
        # evaluate the truncated sum at the fixed point: every term carries
        # cos(0) so the value is the plain geometric sum of the weights
        want = sum(-(LAMBDA_PLUS ** -(2 * n + 1)) * V_MINUS[0] / NP
                   for n in range(0, 40))
        assert kp.evaluate(0.0, 0.0) == pytest.approx(want, abs=1e-11)

    def test_defining_relation_residual(self):
        # DS_eps(H(psi)) w_pm(psi) = lambda_pm(psi) w_pm(S0 psi), order K=2
        K = 2
        rates = RateSeries(FORCE, K)
        conj = rates.conj
        eps = 2e-3
        sys1 = CatSystem(epsilon=eps, force=FORCE)
        worst = 0.0
        for i in range(6):
            for j in range(6):
                p1 = 2 * math.pi * i / 6 + 0.05
                p2 = 2 * math.pi * j / 6 + 0.11
                d1, d2 = displacement(conj, p1, p2, eps)
                h1, h2 = p1 + d1, p2 + d2
                dfx, dfy = force_gradient(FORCE, h1 % (2 * math.pi),
                                          h2 % (2 * math.pi))
                J = np.array([[1 + eps * dfx, 1 + eps * dfy], [1.0, 2.0]])
                for alpha in (+1, -1):
                    lam0 = LAMBDA_PLUS if alpha > 0 else LAMBDA_MINUS
                    v = V_PLUS if alpha > 0 else V_MINUS
                    vo = V_MINUS if alpha > 0 else V_PLUS
                    karr = rates.k_minus if alpha > 0 else rates.k_plus
                    garr = rates.gamma_plus if alpha > 0 else rates.gamma_minus
                    kval = sum(eps ** m * karr[m].evaluate(p1, p2) for m in range(1, K + 1))
                    gval = sum(eps ** m * garr[m].evaluate(p1, p2) for m in range(1, K + 1))
                    sp1, sp2 = (p1 + p2) % (2 * math.pi), (p1 + 2 * p2) % (2 * math.pi)
                    kval_s = sum(eps ** m * karr[m].evaluate(sp1, sp2) for m in range(1, K + 1))
                    w = np.array([v[0] + kval * vo[0], v[1] + kval * vo[1]])
                    ws = np.array([v[0] + kval_s * vo[0], v[1] + kval_s * vo[1]])
                    resid = J @ w - (lam0 + gval) * ws
                    worst = max(worst, float(np.hypot(*resid)))
        assert worst < 50 * eps ** (K + 1)

    def test_neumann_tail_recorded(self):
        rates = RateSeries(FORCE, 2)
        assert all(t >= 0.0 for t in rates.tail_bounds)
        assert rates.tail_bounds[1] < 1e-12


class TestRateHalves:
    # A_u grows only the unstable half, gamma_+ through K and k_- through
    # K - 1, boundary term on or off; two harmonics stop at K = 3, since
    # RateSeries at K = 4 takes about 105 s
    @pytest.mark.parametrize("force, K", [
        *[(FORCE, K) for K in range(1, 5)],
        *[(HarmonicForce.two_harmonics(), K) for K in range(1, 4)]])
    def test_unstable_half_equals_full_series(self, force, K):
        full = RateSeries(force, K)
        for boundary in (False, True):
            half = expansion_rate_series(force, K, boundary).rates
            assert half.gamma_plus == full.gamma_plus
            assert half.k_minus == full.k_minus[:K]
            assert half.gamma_minus == half.k_plus == [TrigPoly.zero()]

    def test_halves_grow_on_demand(self):
        rates = RateSeries(FORCE, 0)
        assert rates.max_order == 0
        rates.grow(-1, 2, 1)
        assert (len(rates.gamma_minus), len(rates.k_plus)) == (3, 2)
        assert (len(rates.gamma_plus), len(rates.k_minus)) == (1, 1)
        rates.extend_to(2)
        full = RateSeries(FORCE, 2)
        assert rates.max_order == 2
        for name in ("gamma_plus", "gamma_minus", "k_plus", "k_minus"):
            assert getattr(rates, name) == getattr(full, name), name
        assert rates.tail_bounds == full.tail_bounds


class TestExpansionRate:
    def test_order_zero_and_one(self):
        au = expansion_rate_series(FORCE, 2)
        assert au.order(0).coeffs[(0, 0)] == pytest.approx(math.log(LAMBDA_PLUS))
        want = TrigPoly.cosine((1, 0), (1 / LAMBDA_PLUS) / (LAMBDA_PLUS + 1))
        assert (au.order(1) - want).l1_norm() < 1e-12
        assert au.order(1).average() == 0.0

    @pytest.mark.parametrize("k", [-1, True, 1.0])
    def test_order_refused_below_range(self, k):
        # -1 would otherwise index the top order from the end
        with pytest.raises(ValueError, match=r"order must be .*>= 0"):
            expansion_rate_series(FORCE, 2).order(k)

    def test_order_two_against_display(self):
        # A_u^(2) = lam^{-1}[d_a d_+ f_+ h_a^(1) + d_- f_+ k_-^(1)]
        #           - lam^{-2}/2 (d_+ f_+)^2   (boundary off)
        au = expansion_rate_series(FORCE, 2, boundary=False)
        rates = au.rates
        f_plus = FORCE.f_alpha(+1)
        hp, hm = rates.conj.h_plus[1], rates.conj.h_minus[1]
        term = (f_plus.deriv_plus().deriv_plus() * hp
                + f_plus.deriv_plus().deriv_minus() * hm
                + f_plus.deriv_minus() * rates.k_minus[1])
        dpf = f_plus.deriv_plus()
        want = (1 / LAMBDA_PLUS) * term - (0.5 / LAMBDA_PLUS ** 2) * (dpf * dpf)
        assert (au.order(2) - want).l1_norm() < 1e-10

    def test_translation_consistency(self):
        # composing with S0^m preserves the nu = 0 coefficient
        au = expansion_rate_series(FORCE, 2, boundary=False)
        for m in (1, 3, -2):
            assert au.order(2).compose_power(m).average() == pytest.approx(
                au.order(2).average(), abs=1e-13)

    def test_boundary_term_telescopes(self):
        # pointwise sums over windows differ by O(1), not O(n)
        au_on = expansion_rate_series(FORCE, 2, boundary=True)
        au_off = expansion_rate_series(FORCE, 2, boundary=False)
        diffs = []
        for n in (3, 6, 9):
            tot_on = tot_off = 0.0
            for k in range(-n, n + 1):
                tot_on += au_on.order(2).compose_power(k).evaluate(0.7, 1.3)
                tot_off += au_off.order(2).compose_power(k).evaluate(0.7, 1.3)
            diffs.append(tot_on - tot_off)
        assert max(abs(d) for d in diffs) < 1.0
        assert abs(diffs[-1] - diffs[-2]) < 0.05


def key_digest(polys):
    """SHA-256 of the concatenated column bytes (TrigPoly.key) of polys."""
    return hashlib.sha256(b"".join(p.key() for p in polys)).hexdigest()


class TestPinnedOrders:
    # orders 1..3 for f = sin psi1, pinned bit for bit: a change to the
    # truncation rule or to the summation order of a kernel moves them
    def test_conjugation(self):
        series = ConjugationSeries(FORCE, 3)
        assert key_digest(series.h_plus[1:]) == (
            "6db74686913d51535204956421d2873058b2a06b09992d9dc25b0b98b4793029")
        assert key_digest(series.h_minus[1:]) == (
            "4aa38be1697f1601bc63db02608cffd158d702ab9d4b9ce2ba2b6fcff740ac34")

    def test_rate_series(self):
        # the four lists of both halves, as the joint recursion built them
        rates = RateSeries(FORCE, 3)
        assert [key_digest(getattr(rates, name)[1:]) for name in
                ("gamma_plus", "gamma_minus", "k_plus", "k_minus")] == [
            "f9a29b7ab13e2575360b76f727d9350698712afca58ba7b98452d19549424025",
            "58248d42f80a3e8b6e6a581c0f7fe0549fbc4383d5c5c311584b8f40bd9ceab8",
            "8731c802c8240dd72535a2c9d66609786608068adae62ec05b599afb249efc15",
            "85b11f43cb6bd937055b1dcf6d03f6e769c752bef1d111ebd9c4a7d2024ec424"]

    @pytest.mark.parametrize("boundary, want", [
        (False,
         "01d349fb38cff3cafadcd24f870c51d8c080f69eba633a235333af9e385875e3"),
        (True,
         "62b383637de6527428c717ab3fe31daa71aa27ddf8096f19deb0896dda4c2b1c")],
        ids=["boundary_off", "boundary_on"])
    def test_expansion_rate(self, boundary, want):
        au = expansion_rate_series(FORCE, 3, boundary)
        assert key_digest([au.order(k) for k in (1, 2, 3)]) == want


DEFERRED_FORCES = {"single": HarmonicForce.single_harmonic(),
                   "two": HarmonicForce.two_harmonics()}


@pytest.fixture(scope="module")
def deferred_and_merged():
    """(name, order) -> two series of one force through order: in the
    first the top order is still unmerged, in the second every order has
    been read whole.  Built once per module."""
    built = {}

    def get(name, order):
        if (name, order) not in built:
            lazy = ConjugationSeries(DEFERRED_FORCES[name], order)
            merged = ConjugationSeries(DEFERRED_FORCES[name], order)
            for h in merged.h_plus + merged.h_minus:
                len(h)
            built[name, order] = lazy, merged
        return built[name, order]
    return get


def eager_solve(series, alpha, k):
    """h_alpha^(k) and its tail bound, merged at once from the series' own
    right-hand side (oracles.eager_geometric_sum)."""
    rhs = series._rhs(alpha, k)
    if alpha > 0:
        return eager_geometric_sum(rhs, LAMBDA_MINUS, +1, -LAMBDA_MINUS)
    return eager_geometric_sum(rhs.compose_power(-1), LAMBDA_MINUS, -1)


# real partners of at most 8 terms with |nu|_inf <= 3
partner_terms = st.lists(
    st.tuples(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
              st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
    min_size=1, max_size=4)


def real_partner(terms):
    d = {}
    for nu, re, im in terms:
        m = (-nu[0], -nu[1])
        if nu == m:
            d[nu] = complex(re)
        else:
            d[nu] = complex(re, im)
            d[m] = complex(re, -im)
    return TrigPoly(d)


class TestDeferredOrders:
    @settings(deadline=None, max_examples=200)
    @given(st.sampled_from(sorted(DEFERRED_FORCES)), st.sampled_from([2, 3]),
           st.sampled_from([1, -1]), partner_terms)
    def test_join_equals_merged_order(self, deferred_and_merged, name, order,
                                      alpha, terms):
        # a partner looked up in the top order unmerged (join_average, as
        # chain_average looks d_alpha g up) keeps its bits against
        # product_average with the merged order, and so does chain_average
        # of the partner; the top orders stay unmerged
        lazy, merged = deferred_and_merged(name, order)
        pick = (lambda s: s.h_plus) if alpha > 0 else (lambda s: s.h_minus)
        h, want_h = pick(lazy)[order], pick(merged)[order]
        partner = real_partner(terms)
        got = join_average(partner, h)
        for want in ([partner, want_h], [want_h, partner]):
            assert got.hex() == product_average(want).hex()
        got = chain_average(partner, lazy.h_plus, lazy.h_minus, order)
        want = chain_average(partner, merged.h_plus, merged.h_minus, order)
        assert got.hex() == want.hex()
        assert lazy.h_plus[order].pending and lazy.h_minus[order].pending

    @pytest.mark.parametrize("amp", [1.0, 1.25])
    def test_table_leaves_top_order_unmerged(self, amp):
        # the order-4 table reads h^(3) only through the contracted mean:
        # h^(3) stays unmerged and the build's traced peak stays small;
        # read later, it equals an eager solve column for column
        force = HarmonicForce.single_harmonic(amp)
        tracemalloc.start()
        try:
            eng = CorrelationEngine(force, 4)
            build_table(force, 4, engine=eng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        conj = eng.conj
        assert conj.max_order == 3
        assert conj.h_plus[3].pending and conj.h_minus[3].pending
        assert peak < 10e6, f"traced peak {peak / 1e6:.1f} MB"
        tails = [0.0]
        for k in (1, 2, 3):
            hp, tp = eager_solve(conj, +1, k)
            hm, tm = eager_solve(conj, -1, k)
            for got, want in ((conj.h_plus[k], hp), (conj.h_minus[k], hm)):
                for col in ("n1", "n2", "c"):
                    assert np.array_equal(getattr(got, col),
                                          getattr(want, col)), (k, col)
            tails.append(tp + tm)
        assert [t.hex() for t in conj.tail_bounds] == [t.hex() for t in tails]
