import math

import numpy as np
import pytest

from catflux.cumulants import (CorrelationEngine, ObservableSeries,
                               replay_moments_on_grid, sigma_series,
                               transport_matrix)
from catflux.torus import HarmonicForce
from catflux.trig import LAMBDA_MINUS, LAMBDA_PLUS, TrigPoly

LAM_R = LAMBDA_MINUS / (LAMBDA_PLUS + 1)


class TestSigmaSeries:
    def test_single_harmonic_orders(self, single_force):
        s = sigma_series(single_force, 3)
        assert (s.orders[1] - TrigPoly.cosine((1, 0), -2.0)).l1_norm() < 1e-14
        c2 = TrigPoly.cosine((1, 0)) * TrigPoly.cosine((1, 0))
        assert (s.orders[2] - 2.0 * c2).l1_norm() < 1e-14
        c3 = c2 * TrigPoly.cosine((1, 0))
        assert (s.orders[3] + (8.0 / 3.0) * c3).l1_norm() < 1e-13
        assert s.orders[1].average() == 0.0

    def test_two_harmonic_first_order(self, two_force):
        s = sigma_series(two_force, 1)
        want = TrigPoly.cosine((1, 0), -2.0) + TrigPoly.cosine((2, 0), -4.0)
        assert (s.orders[1] - want).l1_norm() < 1e-14


class TestMeans:
    def test_first_order_vanishes(self, single_engine):
        assert single_engine.srb_mean_order(1) == 0.0

    def test_second_order(self, single_engine):
        assert single_engine.srb_mean_order(2) == pytest.approx(1.0, abs=1e-12)

    def test_third_order_vanishes(self, single_engine):
        assert single_engine.srb_mean_order(3) == pytest.approx(0.0, abs=1e-13)

    def test_fourth_order_value(self, single_table):
        # no closed form in the source; pinned against the quadrature replay
        # and the observed exact value 3/2
        assert single_table.mean[4] == pytest.approx(1.5, abs=5e-9)

    def test_two_harmonic_green_kubo(self, two_engine):
        assert two_engine.srb_mean_order(2) == pytest.approx(5.0, abs=1e-11)
        assert two_engine.cumulant(2, 2) == pytest.approx(10.0, abs=1e-11)


class TestCumulants:
    def test_c2_order2(self, single_engine):
        assert single_engine.cumulant(2, 2) == pytest.approx(2.0, abs=1e-12)

    def test_c3_order3_vanishes(self, single_engine):
        assert single_engine.cumulant(3, 3) == pytest.approx(0.0, abs=1e-13)

    def test_order_below_insertions_zero(self, single_engine):
        assert single_engine.cumulant(3, 2) == 0.0
        assert single_engine.cumulant(4, 3) == 0.0

    def test_two_harmonic_c3(self, two_engine):
        assert two_engine.cumulant(3, 3) == pytest.approx(-12.0, abs=1e-10)

    def test_fourth_order_corrected_values(self, single_table):
        # the source text quotes 6 lam_r + 3/2 and 3; its own defining
        # displays evaluate to 3 and -6 (see the grid oracles below)
        assert single_table.C[3][4] == pytest.approx(3.0, abs=1e-10)
        assert single_table.C[4][4] == pytest.approx(-6.0, abs=1e-10)

    def test_c4_grid_oracle(self):
        # independent check: cum4 of window sums of sigma^(1) on a 720 grid
        # equals -6 tau exactly (no boundary corrections)
        n = 720
        idx = np.arange(n)
        I, J = np.meshgrid(idx, idx, indexing="ij")
        grids = []
        a, b, c, d = 1, 0, 0, 1
        for _ in range(4):
            grids.append(-2.0 * np.cos(2 * np.pi * ((a * I + b * J) % n) / n))
            a, b, c, d = a + c, b + d, a + 2 * c, b + 2 * d
        for tau in (1, 3):
            W = sum(grids[:tau]) if tau > 1 else grids[0]
            W = W - W.mean()
            m2 = (W ** 2).mean()
            m4 = (W ** 4).mean()
            assert m4 - 3 * m2 * m2 == pytest.approx(-6.0 * tau, abs=1e-9)

    def test_c3_pieces_cancel(self, single_engine):
        # the h-chain piece +3 lam_r and the insertion piece -3 lam_r cancel;
        # verified here at the level of the full sum
        assert single_engine.cumulant(3, 4) == pytest.approx(3.0, abs=1e-10)
        assert abs(3 * LAM_R - 0.3167184270002616) < 1e-12


class TestJointCumulants:
    def test_collapse_to_plain(self, single_engine):
        sig = single_engine.sigma_observable()
        c12 = single_engine.joint_cumulant((1, 2), 2, obs=sig)
        assert c12 == pytest.approx(single_engine.cumulant(2, 2), abs=1e-12)
        c112 = single_engine.joint_cumulant((1, 1, 2), 3, obs=sig)
        assert c112 == pytest.approx(0.0, abs=1e-12)

    def test_parity_required(self, single_engine):
        orders = [TrigPoly.zero(), TrigPoly.cosine((1, 0))]
        nameless = ObservableSeries(orders, parity=None, name="x")
        with pytest.raises(ValueError, match="parity"):
            single_engine.joint_cumulant((1, 2), 2, obs=nameless)

    def test_fixed_odd_observable(self, single_engine):
        # O = sin(psi1) is odd under I0; equilibrium mean vanishes
        obs = ObservableSeries([TrigPoly.sine((1, 0))], parity="odd", name="sin1")
        assert single_engine.srb_mean_order(0, obs=obs) == 0.0
        first = single_engine.srb_mean_order(1, obs=obs, check_sufficiency=False)
        assert abs(first) < 10.0  # finite, genuinely nonequilibrium


class TestContractedMean:
    # the top-order mean reads (sigma o H)^(m) only at nu = 0, so it is
    # contracted instead of registered: criterion 6's replay no longer sees
    # it as a recorded moment, and these tests carry it instead

    def test_matches_built_base(self, two_force):
        # (sigma o H)^(3) of two harmonics is the 88,075-term base the
        # order-3 mean used to register; measured agreement is exact, the
        # tolerance allows for summation order
        eng = CorrelationEngine(two_force, max_order=3)
        sigma = eng.sigma_observable()
        for n in range(4):
            built = eng.engine.bases[eng.composed_ids(sigma, n)[n]].average()
            assert eng.composed_average(sigma, n) == pytest.approx(
                built, rel=1e-15, abs=1e-15), n
        assert len(eng.engine.bases[eng.composed_ids(sigma, 3)[3]].coeffs) > 80_000

    def test_table_builds_no_large_base(self, single_engine, single_table):
        # the order-4 table registered a 260,033-term (sigma o H)^(4) when
        # the top-order mean was a moment of it; no moment needs one
        assert max(len(p.coeffs) for p in single_engine.engine.bases) <= 20_000


class TestTransport:
    def test_single_family(self):
        tm = transport_matrix([HarmonicForce.single_harmonic()])
        assert tm.L[0][0] == pytest.approx(1.0, abs=1e-13)

    def test_two_member_family(self):
        fam = [HarmonicForce.from_pairs([((1, 0), 1.0)]),
               HarmonicForce.from_pairs([((2, 0), 1.0)])]
        tm = transport_matrix(fam)
        assert tm.L[0][1] == 0.0
        assert tm.L[1][0] == 0.0
        assert tm.symmetry_residual == 0.0
        # only k = 0 survives: 1/2 <(-4 cos 2psi1)^2> = 4
        assert tm.L[1][1] == pytest.approx(4.0, abs=1e-12)


class TestWindowsAndOracle:
    def test_shift_window_sufficiency(self, single_force):
        small = CorrelationEngine(single_force, max_order=2, shift_window=6)
        big = CorrelationEngine(single_force, max_order=2, shift_window=12)
        c_small = small.cumulant(2, 2, check_sufficiency=False)
        c_big = big.cumulant(2, 2, check_sufficiency=False)
        assert c_small == pytest.approx(c_big, abs=1e-14)

    def test_moment_replay_subset(self, single_engine, single_table):
        # full replay is the acceptance criterion; here a fast slice
        count, worst = replay_moments_on_grid(single_engine.engine, 256,
                                              limit=1500)
        assert count == 1500
        assert worst < 1e-8


# ----------------------------------------------------------------------
# Periodic-orbit oracle: numpy only, nothing from catflux.
#
# The flat trace Z_n(beta) = sum_{x in Fix S_eps^n} exp(-beta sigma_n(x)) /
# |det(I - D S_eps^n(x))| gives (1/n) log Z_n -> lambda(beta), so
# C_k = kappa_k(sigma_n) / n under the weights 1/|det(I - D S_eps^n)|.  The
# orbits are the periodic points of S_0^n, continued to S_eps by Newton.
# ----------------------------------------------------------------------

ORACLE_S0 = np.array([[1, 1], [1, 2]], dtype=np.int64)
ORACLE_EPS = (0.005, 0.01, 0.015, 0.02)
ORACLE_SINGLE = (((1, 0), 1.0),)
ORACLE_TWO = (((1, 0), 1.0), ((2, 0), 1.0))


def s0_periodic_points(n):
    """Fix S_0^n = A^{-1} Z^2 / Z^2 (times 2 pi) with A = S_0^n - I.

    The column Hermite form of A is lower triangular with diagonal
    (g, det A / g), g = gcd of A's first row, so the vectors (i, j) with
    0 <= i < g and 0 <= j < |det A| / g represent Z^2 / A Z^2.
    """
    A = np.linalg.matrix_power(ORACLE_S0, n) - np.eye(2, dtype=np.int64)
    p, q, r, s = (int(v) for v in A.ravel())
    det = p * s - q * r
    g = math.gcd(p, q)
    i, j = np.meshgrid(np.arange(g), np.arange(abs(det) // g), indexing="ij")
    adj = np.array([[s, -q], [-r, p]], dtype=np.int64) * (1 if det > 0 else -1)
    num = (adj @ np.stack([i.ravel(), j.ravel()])) % abs(det)
    return 2 * np.pi * num / abs(det)


def lifted_orbit(psi, eps, harmonics, n):
    """sigma_n, D S_eps^n and the lift of S_eps^n(psi) as (carry, angle)."""
    two_pi = 2 * np.pi
    carry = np.floor(psi / two_pi)
    y = psi - two_pi * carry
    m = np.broadcast_to(np.eye(2), (psi.shape[1], 2, 2))
    sigma_n = np.zeros(psi.shape[1])
    for _ in range(n):
        f, d1, d2 = np.zeros((3, psi.shape[1]))
        for (a, b), amp in harmonics:
            arg = a * y[0] + b * y[1]
            f += amp * np.sin(arg)
            d1 += a * amp * np.cos(arg)
            d2 += b * amp * np.cos(arg)
        jac = np.empty_like(m)
        jac[:, 0, 0], jac[:, 0, 1] = 1 + eps * d1, 1 + eps * d2
        jac[:, 1, 0], jac[:, 1, 1] = 1.0, 2.0
        sigma_n -= np.log(2 * jac[:, 0, 0] - jac[:, 0, 1])
        m = jac @ m
        z = np.stack([y[0] + y[1] + eps * f, y[0] + 2 * y[1]])
        wrap = np.floor(z / two_pi)
        carry = ORACLE_S0.astype(float) @ carry + wrap
        y = z - two_pi * wrap
    return sigma_n, m, carry, y


def orbit_cumulants(eps, harmonics, n):
    """(Z_n(0), [<sigma>, C_2, C_3, C_4]) from the period-n orbits."""
    psi = s0_periodic_points(n)
    _, _, carry, y = lifted_orbit(psi, 0.0, harmonics, n)
    shift = carry + np.round((y - psi) / (2 * np.pi))  # S_0^n psi - psi
    for _ in range(20):
        _, m, carry, y = lifted_orbit(psi, eps, harmonics, n)
        resid = 2 * np.pi * (carry - shift) + y - psi
        step = np.linalg.solve(m - np.eye(2), resid.T[..., None])[..., 0].T
        psi = psi - step
        if np.max(np.abs(step)) < 1e-12:
            break
    else:
        raise RuntimeError("Newton continuation did not converge")
    sigma_n, m, _, _ = lifted_orbit(psi, eps, harmonics, n)
    w = 1.0 / np.abs(np.linalg.det(np.eye(2) - m))
    z = w.sum()
    mean = (w * sigma_n).sum() / z
    d = sigma_n - mean
    m2, m3, m4 = ((w * d ** k).sum() / z for k in (2, 3, 4))
    return z, np.array([mean, m2, m3, m4 - 3 * m2 ** 2]) / n


def eps_coefficient(values, k, lead, parity, power=0):
    """Coefficient of eps^(lead + 2 power) in quantity k.

    The even (parity +1) or odd (-1) part in eps, divided by eps^lead, is a
    series in eps^2; interpolating it on ORACLE_EPS and reading off the
    coefficient of (eps^2)^power extrapolates to eps -> 0.
    """
    x = np.array(ORACLE_EPS) ** 2
    y = [(values[e][k] + parity * values[-e][k]) / 2 / e ** lead
         for e in ORACLE_EPS]
    return np.linalg.solve(np.vander(x, increasing=True), y)[power]


class TestPeriodicOrbitOracle:
    @pytest.fixture(scope="class")
    def orbit_tables(self):
        out = {}
        for name, harmonics in (("single", ORACLE_SINGLE), ("two", ORACLE_TWO)):
            for n in (8, 10):
                runs = {s * e: orbit_cumulants(s * e, harmonics, n)
                        for e in ORACLE_EPS for s in (1, -1)}
                out[name, n] = ({e: c for e, (_, c) in runs.items()},
                                [z for z, _ in runs.values()])
        return out

    def test_flat_trace_normalised(self, orbit_tables):
        # Z_n(0) = 1 up to the n-th powers of the subleading resonances
        for (name, n), (_, zs) in orbit_tables.items():
            assert np.max(np.abs(np.array(zs) - 1.0)) < (1e-12 if n == 10
                                                         else 1e-9)

    def test_single_harmonic_fourth_order(self, orbit_tables):
        # the source quotes C_3^(4) = 6 lam_r + 3/2 = 2.1334 and
        # C_4^(4) = 3; the orbits give 3 and -6, as the engine does
        values = orbit_tables["single", 10][0]
        got = {"mean4": eps_coefficient(values, 0, 2, 1, power=1),
               "C2_4": eps_coefficient(values, 1, 2, 1, power=1),
               "C3_4": eps_coefficient(values, 2, 4, 1),
               "C4_4": eps_coefficient(values, 3, 4, 1)}
        want = {"mean4": 1.5, "C2_4": 4.5, "C3_4": 3.0, "C4_4": -6.0}
        for key in want:
            assert abs(got[key] - want[key]) <= 1e-6, (key, got[key])
        assert abs(got["C3_4"] - (6 * LAM_R + 1.5)) > 0.8
        # period 8 agrees: the finite-n error is far below the tolerance
        short = orbit_tables["single", 8][0]
        assert abs(eps_coefficient(short, 2, 4, 1) - got["C3_4"]) < 1e-7
        assert abs(eps_coefficient(short, 3, 4, 1) - got["C4_4"]) < 1e-7

    def test_third_order_c3(self, orbit_tables):
        single = eps_coefficient(orbit_tables["single", 10][0], 2, 3, -1)
        two = eps_coefficient(orbit_tables["two", 10][0], 2, 3, -1)
        assert abs(single) <= 1e-6
        assert abs(two + 12.0) <= 1e-6
