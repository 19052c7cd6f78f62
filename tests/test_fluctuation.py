import math

import numpy as np
import pytest

from catflux.cumulants import CumulantTable
from catflux.fluctuation import (MissingCumulantError, NoLinearResponseError,
                                 asymmetry_coefficients, beta_star, check_rel1,
                                 check_rel3, ft_report, lambda_from_cumulants,
                                 observable_mean_expansion, zeta,
                                 zeta_closed_form, zeta_ft_imposed)
from catflux.trig import LAMBDA_MINUS, LAMBDA_PLUS
from oracles import legendre_oracle

LAM_R = LAMBDA_MINUS / (LAMBDA_PLUS + 1)


def lambda_coefficients(table, m):
    """beta-polynomial coefficients of lambda(beta) = sum_n C_n beta^n / n!
    at eps-order m."""
    out = np.zeros(max(table.C) + 1)
    for n, per_order in table.C.items():
        out[n] = per_order.get(m, 0.0) / math.factorial(n)
    return out


def synthetic_table(mean, C, max_order=4):
    t = CumulantTable(max_order)
    t.mean = dict(mean)
    t.C = {n: dict(d) for n, d in C.items()}
    return t


@pytest.fixture()
def gaussian_table():
    # only C_2^(2) = 2, <sigma>^(2) = 1: the pure Green-Kubo situation
    return synthetic_table({1: 0.0, 2: 1.0, 3: 0.0, 4: 0.0},
                           {2: {2: 2.0, 3: 0.0, 4: 0.0},
                            3: {3: 0.0, 4: 0.0}, 4: {4: 0.0}})


@pytest.fixture()
def ft_consistent_table():
    # satisfies rel2 and rel3 exactly through order 4:
    # C3 = C4/2 and <s> = C2/2 - C3/6 + C4/24
    c2, c4 = 2.0, 0.7
    c3 = c4 / 2.0
    mean4 = -c3 / 6.0 + c4 / 24.0
    return synthetic_table({1: 0.0, 2: c2 / 2, 3: 0.0, 4: mean4},
                           {2: {2: c2, 3: 0.0, 4: 0.0},
                            3: {3: 0.0, 4: c3}, 4: {4: c4}})


class TestLambda:
    def test_missing_entries_error(self):
        t = synthetic_table({2: 1.0}, {2: {2: 2.0}})
        with pytest.raises(MissingCumulantError, match="C_3"):
            lambda_from_cumulants(t, 4)

    def test_lambda_at_zero(self, single_table):
        lam = lambda_from_cumulants(single_table, 4)
        for m in range(2, 5):
            assert lambda_coefficients(lam, m)[0] == 0.0
            assert lambda_coefficients(lam, m)[1] == 0.0

    def test_lambda_minus_one_is_mean_order2(self, gaussian_table):
        lam = lambda_from_cumulants(gaussian_table, 2)
        coeffs = lambda_coefficients(lam, 2)
        val = sum(c * (-1.0) ** k for k, c in enumerate(coeffs))
        assert val == pytest.approx(lam.mean_order(2), abs=1e-14)


class TestRel1:
    def test_gaussian_identity(self, gaussian_table):
        res = check_rel1(lambda_from_cumulants(gaussian_table, 2))
        assert np.max(np.abs(res[2])) < 1e-14

    def test_single_harmonic_through_third(self, single_table):
        res = check_rel1(lambda_from_cumulants(single_table, 4))
        assert np.max(np.abs(res[2])) < 1e-11
        assert np.max(np.abs(res[3])) < 1e-11
        assert np.max(np.abs(res[4])) > 1e-3  # first violation at eps^4

    def test_violation_coefficients(self, single_table):
        # the beta^2 and beta^3 coefficients carry (C3 - C4/2)/2 and /3
        lam = lambda_from_cumulants(single_table, 4)
        res = check_rel1(lam)[4]
        viol = single_table.C[3][4] - single_table.C[4][4] / 2.0
        assert res[2] == pytest.approx(viol / 2.0, rel=1e-9)
        assert res[3] == pytest.approx(viol / 3.0, rel=1e-9)


class TestRel3:
    def test_second_order_identity(self, single_table):
        res = check_rel3(lambda_from_cumulants(single_table, 4), 2)
        assert res[2] == 0.0
        assert res[3] == 0.0

    def test_fourth_order_value(self, single_table):
        lam = lambda_from_cumulants(single_table, 4)
        viol = single_table.C[3][4] - single_table.C[4][4] / 2.0
        assert check_rel3(lam, 2)[4] == pytest.approx(viol, rel=1e-10)
        assert check_rel3(lam, 3)[4] == pytest.approx(viol, rel=1e-10)

    def test_two_harmonic_third_order(self, two_table):
        lam = lambda_from_cumulants(two_table, 3)
        assert check_rel3(lam, 3)[3] == pytest.approx(two_table.C[3][3], rel=1e-12)
        assert check_rel3(lam, 3)[3] == pytest.approx(-12.0, abs=1e-9)

    def test_ft_consistent_table_passes(self, ft_consistent_table):
        lam = lambda_from_cumulants(ft_consistent_table, 4)
        for n in (2, 3):
            res = check_rel3(lam, n)
            assert all(abs(v) < 1e-14 for v in res.values())
        r1 = check_rel1(lam)
        for m in range(2, 5):
            assert np.max(np.abs(r1[m])) < 1e-14


class TestBetaStarAndZeta:
    def test_beta_star_leading(self, single_table):
        b = beta_star(single_table, 4)
        assert b[0][1] == pytest.approx(0.5, abs=1e-11)
        assert abs(b[0][0]) < 1e-13

    def test_beta_star_at_p_equal_one(self, single_table):
        b = beta_star(single_table, 4)
        for coeffs in b.values():
            assert abs(coeffs[0]) < 1e-10  # no constant term: beta*(1) = 0

    def test_no_linear_response_error(self):
        t = synthetic_table({1: 0.0, 2: 0.0, 3: 0.0, 4: 0.0},
                            {2: {2: 0.0, 3: 0.0, 4: 0.0},
                             3: {3: 0.0, 4: 0.0}, 4: {4: 0.0}})
        with pytest.raises(NoLinearResponseError):
            beta_star(t, 4)

    def test_two_harmonic_quadratic_term(self, two_table):
        # the C3-driven relative order-1 coefficient on (p-1)^2
        b = beta_star(two_table, 3)
        assert len(b[1]) >= 3 and abs(b[1][2]) > 1e-3

    def test_zeta_vanishes_at_one(self, single_table):
        z = zeta(single_table, 4)
        for coeffs in z.orders.values():
            assert abs(coeffs[0]) < 1e-12

    def test_pipeline_matches_closed_form_single(self, single_table):
        z = zeta(single_table, 4)
        closed = zeta_closed_form(single_table, 4)
        for n in range(2, 5):
            a, b = z.orders[n], closed.orders[n]
            m = max(len(a), len(b))
            a = np.pad(a, (0, m - len(a)))
            b = np.pad(b, (0, m - len(b)))
            assert np.max(np.abs(a - b)) < 1e-10

    def test_ft_imposed_is_closed_form_on_consistent_table(self, ft_consistent_table):
        closed = zeta_closed_form(ft_consistent_table, 4)
        imposed = zeta_ft_imposed(ft_consistent_table, 4)
        pipeline = zeta(ft_consistent_table, 4)
        for n in range(2, 5):
            for za, zb in ((closed, imposed), (pipeline, imposed)):
                a, b = za.orders[n], zb.orders[n]
                m = max(len(a), len(b))
                a = np.pad(a, (0, m - len(a)))
                b = np.pad(b, (0, m - len(b)))
                assert np.max(np.abs(a - b)) < 1e-12

    def test_legendre_oracle_quadratic(self, gaussian_table):
        z = zeta(gaussian_table, 2)
        eps = 0.25
        for p in (0.6, 0.9, 1.3, 1.5):
            num = legendre_oracle(gaussian_table, eps, p)
            assert z.value(p, eps) == pytest.approx(num, abs=1e-8)

    def test_legendre_oracle_two_harmonics(self, two_table):
        # the generic pipeline against the numerical Legendre transform,
        # both truncated at total order 3
        z = zeta(two_table, 3)
        eps = 0.02
        for p in (0.8, 1.0, 1.2):
            num = legendre_oracle(two_table, eps, p)
            assert z.value(p, eps) == pytest.approx(num, abs=1e-7)

    def test_convexity_near_one(self, single_table):
        z = zeta(single_table, 4)
        eps = 0.05
        h = 1e-3
        second = (z.value(1 + h, eps) - 2 * z.value(1.0, eps)
                  + z.value(1 - h, eps)) / h ** 2
        assert second > 0.0

    def test_two_harmonic_cubic_term(self, two_table):
        z = zeta(two_table, 3)
        assert len(z.orders[3]) >= 4
        assert abs(z.orders[3][3]) > 1e-3  # nonzero (p-1)^3: non-Gaussian


class TestAsymmetry:
    def test_B_formula(self, single_table):
        A, B = asymmetry_coefficients(single_table, 4)
        viol = single_table.C[3][4] - single_table.C[4][4] / 2.0
        assert B[4] == pytest.approx(viol / 24.0, rel=1e-10)
        assert B[2] == 0.0 and B[3] == 0.0

    def test_A_single_harmonic_order(self, single_table):
        A, _ = asymmetry_coefficients(single_table, 4)
        # numerator starts at eps^4, mean at eps^2: A = O(eps^2)
        assert min(A) == 2

    def test_A_two_harmonics_order(self, two_table):
        # A = O(eps): the eps^3 numerator carries the C_3/8 piece plus the
        # (already nonzero) order-3 Green-Kubo mismatch
        A, _ = asymmetry_coefficients(two_table, 3)
        assert min(A) == 1
        lead = (two_table.mean[3] - two_table.C[2][3] / 2.0
                + two_table.C[3][3] / 8.0) / two_table.mean[2]
        assert A[1] == pytest.approx(lead, rel=1e-9)
        assert abs(A[1]) > 1e-3

    def test_ft_consistent_gives_zero(self, ft_consistent_table):
        A, B = asymmetry_coefficients(ft_consistent_table, 4)
        assert all(abs(v) < 1e-13 for v in A.values())
        assert all(abs(v) < 1e-13 for v in B.values())

    def test_report_first_violation(self, single_table, two_table):
        assert ft_report(single_table, 4).first_violation_order == 4
        assert ft_report(two_table, 3).first_violation_order == 3


class TestFourthOrderForms:
    def test_refused_above_order_four(self):
        # the eps^4 forms read C_2..C_4 only; at eps^5 they would drop terms
        t = synthetic_table({m: float(m == 2) for m in range(1, 6)},
                            {n: {m: 2.0 * (n == m == 2) for m in range(n, 6)}
                             for n in range(2, 6)}, max_order=5)
        for form in (zeta_closed_form, zeta_ft_imposed, asymmetry_coefficients):
            with pytest.raises(ValueError, match="^order 5: .* eps\\^4 only"):
                form(t, 5)
            form(t, 4)
        assert max(zeta(t, 5).orders) == 5


class TestObservableMean:
    def test_sigma_collapse_order2(self, single_engine):
        sig = single_engine.sigma_observable()

        def joint(n1, n2, m):
            return single_engine.joint_cumulant([1] * n1 + [2] * n2, m, obs=sig)

        def direct(m):
            return single_engine.srb_mean_order(m)

        out = observable_mean_expansion(joint, direct, 2)
        assert out["implied"][2] == pytest.approx(
            single_engine.cumulant(2, 2) / 2.0, abs=1e-11)
        assert abs(out["residual"][2]) < 1e-11
        assert out["implied"][1] == 0.0 and out["direct"][1] == 0.0
