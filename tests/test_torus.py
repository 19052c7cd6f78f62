import math

import numpy as np
import pytest

from catflux.torus import CatSystem, HarmonicForce, TorusPoint, time_reversal
from catflux.trig import LAMBDA_MINUS, LAMBDA_PLUS, V_MINUS, V_PLUS, s0_power
from oracles import sigma_from_jacobian

SQRT5 = math.sqrt(5.0)


def matmul(m1, m2):
    """Product of 2x2 integer matrices stored as (a11, a12, a21, a22)."""
    a, b, c, d = m1
    e, f, g, h = m2
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


class TestSpectral:
    def test_eigenvalues(self):
        assert LAMBDA_PLUS == pytest.approx((3 + SQRT5) / 2, abs=1e-14)
        assert LAMBDA_PLUS * LAMBDA_MINUS == pytest.approx(1.0, abs=1e-14)

    def test_prenormalization_norm(self):
        # |(1, lambda_+ - 1)|^2 = lambda_+ + 1 by lambda^2 = 3 lambda - 1
        norm = math.hypot(1.0, LAMBDA_PLUS - 1.0)
        assert norm ** 2 == pytest.approx(LAMBDA_PLUS + 1, abs=1e-12)
        assert V_PLUS[0] == pytest.approx(1.0 / norm, abs=1e-15)

    def test_eigen_equations_and_orthogonality(self):
        for lam, v in ((LAMBDA_PLUS, V_PLUS), (LAMBDA_MINUS, V_MINUS)):
            mv = (v[0] + v[1], v[0] + 2 * v[1])
            assert mv[0] == pytest.approx(lam * v[0], abs=1e-12)
            assert mv[1] == pytest.approx(lam * v[1], abs=1e-12)
            assert v[0] > 0
        dot = V_PLUS[0] * V_MINUS[0] + V_PLUS[1] * V_MINUS[1]
        assert abs(dot) < 1e-14


class TestMatrixPower:
    def test_small_powers(self):
        assert s0_power(0) == (1, 0, 0, 1)
        assert s0_power(1) == (1, 1, 1, 2)
        assert s0_power(-1) == (2, -1, -1, 1)

    def test_recursion_and_antisymmetry(self):
        for k in range(-30, 30):
            sk = s0_power(k)
            assert matmul(s0_power(1), sk) == s0_power(k + 1)
            smk = s0_power(-k)
            assert sk[1] == -smk[1] and sk[2] == -smk[2]
            assert smk[0] == sk[3]

    def test_offdiagonal_strictly_increasing(self):
        vals = [abs(s0_power(k)[1]) for k in range(1, 20)]
        assert all(b > a for a, b in zip(vals, vals[1:]))


class TestStepAndSigma:
    def test_fixed_point(self):
        sys0 = CatSystem(epsilon=0.0)
        p = sys0.step(TorusPoint(0.0, 0.0))
        assert p.psi1 == 0.0 and p.psi2 == 0.0

    def test_linear_step(self):
        sys0 = CatSystem(epsilon=0.0)
        p = sys0.step(TorusPoint(math.pi / 2, 0.0))
        assert p.psi1 == pytest.approx(math.pi / 2)
        assert p.psi2 == pytest.approx(math.pi / 2)

    def test_perturbed_step(self):
        sys1 = CatSystem(epsilon=0.05, force=HarmonicForce.single_harmonic())
        p = sys1.step(TorusPoint(math.pi / 2, 0.0))
        assert p.psi1 == pytest.approx(math.pi / 2 + 0.05)
        assert p.psi2 == pytest.approx(math.pi / 2)

    def test_sigma_zero_cases(self):
        sys1 = CatSystem(epsilon=0.1, force=HarmonicForce.single_harmonic())
        assert sys1.sigma(TorusPoint(math.pi / 2, 0.3)) == pytest.approx(0.0, abs=1e-15)
        sys0 = CatSystem(epsilon=0.0, force=HarmonicForce.single_harmonic())
        rng = np.random.default_rng(0)
        for _ in range(20):
            p = TorusPoint(rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi))
            assert sys0.sigma(p) == 0.0

    def test_sigma_closed_forms(self):
        eps = 0.07
        single = CatSystem(epsilon=eps, force=HarmonicForce.single_harmonic())
        double = CatSystem(epsilon=eps, force=HarmonicForce.two_harmonics())
        rng = np.random.default_rng(1)
        for _ in range(50):
            p = TorusPoint(rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi))
            assert single.sigma(p) == pytest.approx(
                -math.log(1 + 2 * eps * math.cos(p.psi1)), abs=1e-14)
            assert double.sigma(p) == pytest.approx(
                -math.log(1 + 2 * eps * (math.cos(p.psi1) + 2 * math.cos(2 * p.psi1))),
                abs=1e-13)

    def test_sigma_two_ways(self):
        # closed-form determinant vs assembled 2x2 Jacobian
        force = HarmonicForce.from_pairs([((1, 0), 1.0), ((2, 1), 0.4),
                                          ((1, -1), 0.2)])
        sys1 = CatSystem(epsilon=0.03, force=force)
        rng = np.random.default_rng(2)
        for _ in range(100):
            p = TorusPoint(rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi))
            assert sys1.sigma(p) == pytest.approx(sigma_from_jacobian(sys1, p),
                                                  abs=1e-12)

    def test_sigma_not_invertible(self):
        sys1 = CatSystem(epsilon=0.6, force=HarmonicForce.single_harmonic())
        with pytest.raises(ValueError, match="not locally invertible"):
            sys1.sigma(TorusPoint(math.pi, 0.0))
        # det DS_eps = 1 + 1.2 cos(pi) < 0: the step refuses the point too
        with pytest.raises(ValueError, match="not locally invertible"):
            sys1.step(TorusPoint(math.pi, 0.0))

    @pytest.mark.parametrize("psi, name", [
        ((math.inf, 0.3), "psi1 = inf"), ((0.1, math.nan), "psi2 = nan"),
        ((-math.inf, math.nan), "psi1 = -inf")])
    def test_non_finite_point_refused(self, psi, name):
        # a NaN or infinite angle would reduce to nan and step and sigma
        # would return nan silently; the message from a refused step still
        # builds its point
        with pytest.raises(ValueError, match=f"^angle {name} is not finite$"):
            TorusPoint(*psi)
        sys1 = CatSystem(epsilon=0.6, force=HarmonicForce.single_harmonic())
        with pytest.raises(ValueError, match=r"at TorusPoint\(psi1=3\.14"):
            sys1.step(TorusPoint(math.pi, 0.0))

    @pytest.mark.parametrize("psi, name", [
        ((math.nan, 0.3), "psi1 = nan"), ((0.3, math.inf), "psi2 = inf")])
    def test_orbit_refuses_non_finite_start(self, psi, name):
        # before any step: a NaN start would run on as nan, and an infinite
        # one would fail first in math.sin
        system = CatSystem(epsilon=0.1, force=HarmonicForce.single_harmonic())
        with pytest.raises(ValueError, match=f"^angle {name} is not finite$"):
            system.orbit(*psi, 5, 1)

    def test_orbit_is_chained_steps(self):
        # total, window sums and end point of one orbit equal, bit for bit,
        # 20 chained steps with sigma summed in the same order; a partial
        # last window is dropped
        system = CatSystem(epsilon=0.1, force=HarmonicForce.two_harmonics())
        x = TorusPoint(0.7, 2.9)
        total, window_sums, end = system.orbit(x.psi1, x.psi2, 20, 5)
        want_total = wsum = 0.0
        want_sums = []
        for j in range(20):
            s = system.sigma(x)
            want_total += s
            wsum += s
            if j % 5 == 4:
                want_sums.append(wsum)
                wsum = 0.0
            x = system.step(x)
        assert total == want_total
        assert len(window_sums) == 4 and window_sums == want_sums
        assert end == (x.psi1, x.psi2)
        assert len(system.orbit(0.7, 2.9, 22, 5)[1]) == 4

    def test_jacobian_extremes_bracket_exact_values(self):
        # g = 2 cos psi1 + 4 cos 2 psi1 = 8c^2 + 2c - 4 with c = cos psi1:
        # min -33/8 at c = -1/8, max 6 at c = 1
        force = HarmonicForce.two_harmonics()
        for n in (64, 256, 1024):
            (min_lo, min_hi), (max_lo, max_hi) = force.jacobian_extremes(n)
            assert min_lo <= -33.0 / 8.0 <= min_hi
            assert max_lo <= 6.0 <= max_hi
        assert min_hi - min_lo < 2e-4

    def test_jacobian_extremes_nest_on_a_2d_force(self):
        # the 64 grid is a subgrid of the 1024 grid, so the finer sampled
        # extremes are no worse and must stay inside the coarse brackets
        force = HarmonicForce.from_pairs([((1, 0), 1.0), ((2, 1), 0.4),
                                          ((1, -1), 0.2)])
        (cmin_lo, cmin_hi), (cmax_lo, cmax_hi) = force.jacobian_extremes(64)
        (_, fmin), (fmax, _) = force.jacobian_extremes(1024)
        assert cmin_lo <= fmin <= cmin_hi
        assert cmax_lo <= fmax <= cmax_hi


class TestTimeReversal:
    def test_involution_on_grid(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            p = TorusPoint(rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi))
            q = time_reversal(time_reversal(p))
            assert q.psi1 == pytest.approx(p.psi1, abs=1e-12)
            assert q.psi2 == pytest.approx(p.psi2, abs=1e-12)

    def test_reversal_identity(self):
        # I0 S0 = S0^{-1} I0 as integer matrices
        i0 = (-1, 0, -1, 1)
        assert matmul(i0, s0_power(1)) == matmul(s0_power(-1), i0)

    def test_fixed_point(self):
        p = time_reversal(TorusPoint(0.0, 0.0))
        assert p.psi1 == 0.0 and p.psi2 == 0.0
