import importlib
import math

import numpy as np
import pytest

from catflux.simulate import (SEED_LIMIT, RatioCurve, RunStats, SimConfig,
                              build_curve, fit_models, measure_asymmetry,
                              simulate, slope_and_A)
from catflux.torus import CatSystem, HarmonicForce

# the package re-exports simulate(), which shadows the module attribute
SIMULATE_MODULE = importlib.import_module("catflux.simulate")
FORCE = HarmonicForce.single_harmonic()
TWO = HarmonicForce.two_harmonics()


def desk_config(**kw):
    base = dict(system=CatSystem(epsilon=0.05, force=FORCE), T=50_000,
                tau=100, N=3, bin_width=0.05, seed=99, workers=1)
    base.update(kw)
    return SimConfig(**base)


class TestConfigValidation:
    def test_tau_divides_T(self):
        with pytest.raises(ValueError, match="multiple of tau"):
            desk_config(T=1001)

    def test_eps_zero_rejected(self):
        with pytest.raises(ValueError, match="zero mean contraction"):
            desk_config(system=CatSystem(epsilon=0.0, force=FORCE))

    def test_bin_width(self):
        with pytest.raises(ValueError):
            desk_config(bin_width=0.0)

    # each refusal comes from the constructor, before any orbit is stepped

    def test_zero_T_refused(self):
        with pytest.raises(ValueError, match="T must be >= 1, got 0"):
            desk_config(T=0)

    @pytest.mark.parametrize("seed", [-1, SEED_LIMIT])
    def test_seed_outside_philox_key_range_refused(self, seed):
        with pytest.raises(ValueError,
                           match=f"seed must be in 0..{SEED_LIMIT - 1}"):
            desk_config(seed=seed)

    def test_largest_seed_runs(self):
        # seed ^ r stays a valid 128-bit Philox key for every run r
        assert SEED_LIMIT == 2 ** 128
        stats = simulate(desk_config(seed=SEED_LIMIT - 1, T=5000, N=2))
        assert len(stats) == 2

    @pytest.mark.parametrize("width", [math.nan, math.inf])
    def test_non_finite_bin_width_refused(self, width):
        with pytest.raises(ValueError, match="positive finite number"):
            desk_config(bin_width=width)

    @pytest.mark.parametrize("key, value", [
        ("N", True), ("T", 50_000.0), ("tau", True), ("workers", 1.0)])
    def test_non_integer_count_refused(self, key, value):
        with pytest.raises(ValueError,
                           match=f"{key} must be an integer >= 1"):
            desk_config(**{key: value})


class TestInvertibility:
    # two harmonics: det DS_eps = 1 + eps (2 cos psi1 + 4 cos 2 psi1) spans
    # [1 - 4.125 eps, 1 + 6 eps] (min at cos psi1 = -1/8), so the map is
    # invertible exactly for -1/6 < eps < 8/33 = 0.2424...

    def test_two_harmonic_below_limit_accepted(self):
        desk_config(system=CatSystem(epsilon=0.242, force=TWO))
        desk_config(system=CatSystem(epsilon=-0.166, force=TWO))

    def test_two_harmonic_above_limit_refused_for_every_seed(self):
        # an orbit that never enters det <= 0 used to run to completion here
        for seed in range(20):
            with pytest.raises(ValueError, match="not invertible"):
                desk_config(system=CatSystem(epsilon=0.2425, force=TWO),
                            T=100, tau=25, seed=seed)

    def test_two_harmonic_negative_limit(self):
        with pytest.raises(ValueError, match="not invertible"):
            desk_config(system=CatSystem(epsilon=-1.0 / 6.0, force=TWO))

    def test_single_harmonic_limits(self):
        for eps in (0.499, -0.499):
            desk_config(system=CatSystem(epsilon=eps, force=FORCE))
        for eps in (0.5, -0.5):
            with pytest.raises(ValueError, match="not invertible"):
                desk_config(system=CatSystem(epsilon=eps, force=FORCE))

    def test_refused_before_stepping_with_limits(self, monkeypatch):
        def no_stepping(config, run_index):
            raise AssertionError("stepped a refused configuration")

        monkeypatch.setattr(SIMULATE_MODULE, "_simulate_run", no_stepping)
        with pytest.raises(ValueError) as info:
            measure_asymmetry(desk_config(
                system=CatSystem(epsilon=0.3, force=TWO), T=10_000, tau=25,
                N=1, seed=1))
        assert "-0.1667 < eps < 0.2424" in str(info.value)


class TestSimulate:
    def test_mean_window_normalization(self):
        # sum of window sums equals T sigma_bar: mean of p is exactly 1
        stats = simulate(desk_config())
        for s in stats:
            total = 0.0
            # reconstruct the weighted mean from the histogram within half a
            # bin width (binning loses sub-bin information)
            w = 0.05
            mean_binned = sum((b + 0.5) * w * c for b, c in s.counts.items())
            mean_binned /= s.n_windows
            assert mean_binned == pytest.approx(1.0, abs=w)

    def test_determinism_across_workers(self):
        cfg1 = desk_config(N=4, workers=1)
        cfg2 = desk_config(N=4, workers=2)
        cfg3 = desk_config(N=4, workers=4)
        runs = [simulate(c) for c in (cfg1, cfg2, cfg3)]
        for other in runs[1:]:
            for a, b in zip(runs[0], other):
                assert a.run_index == b.run_index
                assert a.sigma_bar == b.sigma_bar
                assert a.counts == b.counts

    def test_seed_changes_results(self):
        s1 = simulate(desk_config(seed=1, N=1))
        s2 = simulate(desk_config(seed=2, N=1))
        assert s1[0].counts != s2[0].counts

    def test_sigma_bar_scale(self):
        stats = simulate(desk_config(N=2, T=200_000))
        for s in stats:
            # <sigma>_+ = eps^2 + O(eps^4) = 0.0025
            assert s.sigma_bar == pytest.approx(0.0025, abs=0.0015)


def synthetic_stats(a=0.0, tau=100, sigma_bar=0.0025, w=0.05, nmax=40,
                    scale=10 ** 7, runs=2):
    """Histograms with Freq(p)/Freq(-p) = exp((1+a) tau sigma_bar p) exactly."""
    out = []
    for r in range(runs):
        counts = {}
        for b in range(nmax):
            p = (b + 0.5) * w
            base = scale * math.exp(-p * p)
            ratio = math.exp((1 + a) * tau * sigma_bar * p)
            counts[b] = max(1, round(base * ratio))
            counts[-b - 1] = max(1, round(base))
        out.append(RunStats(r, sigma_bar, counts, nmax * w, sum(counts.values())))
    return out


class TestRatioCurve:
    def test_exact_ft_ratio(self):
        stats = synthetic_stats(a=0.0)
        curve = build_curve(stats, desk_config())
        # log(F+/F-) = tau sigma p exactly (up to rounding of counts)
        assert np.max(np.abs(curve.y - 1.0)) < 1e-3

    def test_no_symmetric_bins_error(self):
        counts = {3: 10, 4: 20}
        stats = [RunStats(0, 0.002, counts, 0.2, 30),
                 RunStats(1, 0.002, counts, 0.2, 30)]
        with pytest.raises(ValueError, match="symmetric bin pair"):
            build_curve(stats, desk_config())

    def test_binomial_errors(self):
        stats = synthetic_stats(a=0.0, runs=1)
        curve = build_curve(stats, desk_config(), errors="binomial")
        assert np.all(curve.err > 0)


class TestSlope:
    def test_exact_ft_gives_zero_A(self):
        stats = synthetic_stats(a=0.0, scale=10 ** 9)
        curve = build_curve(stats, desk_config())
        res = slope_and_A(curve, p_max=1.0)
        assert abs(res.A) < 1e-3

    def test_shifted_ratio_recovers_a(self):
        # exact synthetic curve (bypassing count rounding)
        p = np.linspace(0.1, 2.0, 20)
        a = 0.125
        curve = RatioCurve(p, (1 + a) * np.ones_like(p), np.zeros_like(p))
        res = slope_and_A(curve, p_max=2.0)
        assert res.A == pytest.approx(a, abs=1e-10)

    def test_cubic_term_enters_through_the_lever(self):
        # z = (1 + A) p + c p^3 fits to A + c sum w p^4 / sum w p^2
        p = np.linspace(0.1, 2.0, 20)
        a, c = 0.125, -0.3
        err = 0.01 + 0.05 * p
        curve = RatioCurve(p, 1 + a + c * p ** 2, err)
        res = slope_and_A(curve, p_max=1.5)
        assert res.A == pytest.approx(a + c * res.lever, abs=1e-12)
        fitted = p[p <= 1.5]
        w = 1.0 / (fitted * err[p <= 1.5]) ** 2
        assert res.lever == pytest.approx(
            np.sum(w * fitted ** 4) / np.sum(w * fitted ** 2), rel=1e-12)

    def test_zero_error_bin_is_dropped(self):
        # one bin whose runs agree exactly has err 0: the fit is that of
        # the other bins, with their weights and a nonzero stderr
        p = np.linspace(0.1, 2.0, 20)
        y = 1.1 + 0.2 * np.sin(7 * p)
        err = 0.01 + 0.05 * p
        err[12] = 0.0
        res = slope_and_A(RatioCurve(p, y, err))
        keep = err > 0
        ref = slope_and_A(RatioCurve(p[keep], y[keep], err[keep]))
        assert res == ref
        assert res.stderr > 0

    def test_insufficient_bins(self):
        curve = RatioCurve(np.array([0.1, 0.2]), np.ones(2), np.ones(2))
        with pytest.raises(ValueError, match=">= 3"):
            slope_and_A(curve)
        # the count is taken after the zero-error bins are dropped
        curve = RatioCurve(np.array([0.1, 0.2, 0.3]), np.ones(3),
                           np.array([1.0, 0.0, 1.0]))
        with pytest.raises(ValueError, match=">= 3"):
            slope_and_A(curve)


class TestFits:
    def test_f1_inverse_crime(self):
        tau = 100
        a1, b1 = 0.3, 0.1
        eps = [0.1, 0.2, 0.3, 0.4]
        pts = [(e, a1 * e ** 2 + b1 / (tau * e), 1e-3) for e in eps]
        f1, f2 = fit_models(pts, tau)
        assert f1.params[0] == pytest.approx(a1, abs=1e-8)
        assert f1.params[1] == pytest.approx(b1, abs=1e-8)
        assert f1.rss < 1e-12

    def test_model_selection(self):
        tau = 100
        eps = [0.1, 0.15, 0.2, 0.25, 0.3]
        pts = [(e, 0.5 * e + 0.05 * e ** 2 + 0.02 / (tau * e), 1e-3)
               for e in eps]
        f1, f2 = fit_models(pts, tau)
        assert f2.rss < f1.rss

    def test_needs_three_eps(self):
        with pytest.raises(ValueError):
            fit_models([(0.1, 0.0, 1.0), (0.1, 0.1, 1.0)], 100)
