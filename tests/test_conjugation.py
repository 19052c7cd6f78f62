import math

import numpy as np
import pytest

from catflux.conjugation import (ConjugationSeries, OrderCapError,
                                 chain_average, chain_order,
                                 conjugacy_residual, conjugation_order1,
                                 conjugation_order_k, expansion_rate_series,
                                 radius_estimate, rates_order1, rates_order_k)
from catflux.cumulants import sigma_series
from catflux.torus import CatSystem, HarmonicForce, TorusPoint
from catflux.trig import (LAMBDA_MINUS, LAMBDA_PLUS, TrigPoly, V_MINUS,
                          V_PLUS, s0_power)

FORCE = HarmonicForce.single_harmonic()
NP = math.sqrt(LAMBDA_PLUS + 1)


class TestConjugationFirstOrder:
    def test_leading_coefficients(self):
        # h_+^(1) = -sum_p lambda_+^{-(p+1)} (lambda_++1)^{-1/2} sin(S^p psi . e1)
        hp, hm = conjugation_order1(FORCE)
        for p in range(0, 6):
            a, b, c, d = s0_power(p)
            nu = (a, b)  # (S0^T)^p e1
            want = -(LAMBDA_PLUS ** -(p + 1)) / NP / 2j
            assert hp.coeffs[nu] == pytest.approx(want, rel=1e-12)

    def test_fixed_point_value(self):
        hp, hm = conjugation_order1(FORCE)
        assert abs(hp.evaluate(0.0, 0.0)) < 1e-13
        assert abs(hm.evaluate(0.0, 0.0)) < 1e-13

    def test_cohomology_identity(self):
        # lambda_+ h_+^(1)(psi) - h_+^(1)(S0 psi) + f_+(psi) = 0
        hp, hm = conjugation_order1(FORCE)
        f_plus = FORCE.f_alpha(+1)
        resid = LAMBDA_PLUS * hp - hp.compose_power(1) + f_plus
        assert resid.l1_norm() < 1e-12
        f_minus = FORCE.f_alpha(-1)
        resid_m = LAMBDA_MINUS * hm - hm.compose_power(1) + f_minus
        assert resid_m.l1_norm() < 1e-12

    def test_order1_matches_series(self):
        hp, hm = conjugation_order1(FORCE)
        series = conjugation_order_k(FORCE, 1)
        assert series.h_plus[1] == hp
        assert series.h_minus[1] == hm


class TestConjugationHigherOrders:
    def test_orders_vanish_at_fixed_point(self):
        series = conjugation_order_k(FORCE, 3)
        for k in range(1, 4):
            assert abs(series.h_plus[k].evaluate(0.0, 0.0)) < 1e-11
            assert abs(series.h_minus[k].evaluate(0.0, 0.0)) < 1e-11

    def test_order_cap(self):
        with pytest.raises(OrderCapError):
            conjugation_order_k(FORCE, 9)

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
        gp, gm, kp, km = rates_order1(FORCE)
        want = TrigPoly.cosine((1, 0), 1.0 / (LAMBDA_PLUS + 1))
        assert (gp - want).l1_norm() < 1e-12
        assert gp.evaluate(0.0, 0.0) == pytest.approx(1.0 / (LAMBDA_PLUS + 1), abs=1e-12)
        assert gm.evaluate(0.0, 0.0) == pytest.approx(1.0 / (LAMBDA_MINUS + 1), abs=1e-12)

    def test_k_first_order_formulas(self):
        gp, gm, kp, km = rates_order1(FORCE)
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
        _, _, kp, _ = rates_order1(FORCE)
        # evaluate the truncated sum at the fixed point: every term carries
        # cos(0) so the value is the plain geometric sum of the weights
        want = sum(-(LAMBDA_PLUS ** -(2 * n + 1)) * V_MINUS[0] / NP
                   for n in range(0, 40))
        assert kp.evaluate(0.0, 0.0) == pytest.approx(want, abs=1e-11)

    def test_defining_relation_residual(self):
        # DS_eps(H(psi)) w_pm(psi) = lambda_pm(psi) w_pm(S0 psi), order K=2
        K = 2
        rates = rates_order_k(FORCE, K)
        conj = rates.conj
        eps = 2e-3
        sys1 = CatSystem(epsilon=eps, force=FORCE)
        worst = 0.0
        for i in range(6):
            for j in range(6):
                p1 = 2 * math.pi * i / 6 + 0.05
                p2 = 2 * math.pi * j / 6 + 0.11
                d1, d2 = conj.displacement(p1, p2, eps)
                h1, h2 = p1 + d1, p2 + d2
                dfx, dfy = FORCE.grad_value(h1 % (2 * math.pi), h2 % (2 * math.pi))
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
        rates = rates_order_k(FORCE, 2)
        assert all(t >= 0.0 for t in rates.tail_bounds)
        assert rates.tail_bounds[1] < 1e-12


class TestExpansionRate:
    def test_order_zero_and_one(self):
        au = expansion_rate_series(FORCE, 2)
        assert au.order(0).coeffs[(0, 0)] == pytest.approx(math.log(LAMBDA_PLUS))
        want = TrigPoly.cosine((1, 0), (1 / LAMBDA_PLUS) / (LAMBDA_PLUS + 1))
        assert (au.order(1) - want).l1_norm() < 1e-12
        assert au.order(1).average() == 0.0

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


class TestRadius:
    def test_formula(self):
        est = radius_estimate(FORCE, r0=1.0)
        assert est.eps0 == pytest.approx(
            (1 - LAMBDA_MINUS) * est.r0 / (8 * est.G), rel=1e-12)

    def test_beta_limit(self):
        est = radius_estimate(FORCE)
        assert est.eps_of_beta(0.999) < 1e-2 * est.eps0
        assert est.eps_of_beta(0.0) == pytest.approx(est.eps0, rel=1e-12)
        vals = [est.eps_of_beta(b) for b in (0.0, 0.3, 0.6, 0.9)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_r0_validation(self):
        with pytest.raises(ValueError):
            radius_estimate(FORCE, r0=-1.0)
