"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The source text quotes C_3^(4) = 6 lam_-/(lam_+ + 1) + 1.5, C_4^(4) = 3 and
the eps^4 residual C_3 - C_4/2 = 6 lam_-/(lam_+ + 1).  Those constants
contradict the defining displays they are quoted from, which give 3, -6 and
6; the periodic-orbit oracle TestPeriodicOrbitOracle in
tests/test_cumulants.py, which shares no code with the engine, gives the
same.  Its criterion-8 grid includes two-harmonic eps = 0.3, where the map
is not invertible.  Criteria 1, 3 and 8 assert what the displays, the
oracle and the invertibility condition establish, and print the source
quotes in their report lines.  README, "Source-text defects", lists each.
"""

import math
import time

import numpy as np
import pytest

from catflux.conjugation import conjugacy_residual
from catflux.cumulants import CorrelationEngine, transport_matrix
from catflux.fluctuation import (check_rel1, check_rel3, lambda_from_cumulants,
                                 zeta, zeta_closed_form, zeta_ft_imposed)
from catflux.partition import birkhoff_frequencies, verify_markov
from catflux.simulate import (SimConfig, build_curve, fit_models,
                              measure_asymmetry, simulate)
from catflux.torus import CatSystem, HarmonicForce, TorusPoint
from catflux.trig import LAMBDA_MINUS, LAMBDA_PLUS
from oracles import quadrature_average, replay_moments_on_grid

LAM_R = LAMBDA_MINUS / (LAMBDA_PLUS + 1)
TWO_PI = 2 * math.pi
# source quotes contradicted by the defining displays (README, "Source-text
# defects"); asserted values come from the displays and the oracle
QUOTED_C3_4 = 6 * LAM_R + 1.5
QUOTED_C4_4 = 3.0
QUOTED_RESIDUAL_4 = 6 * LAM_R


def report(criterion: int, ok: bool, detail: str):
    print(f"\n[ACCEPTANCE] criterion {criterion}: "
          f"{'PASS' if ok else 'FAIL'} — {detail}")


class TestCriterion1ExactValues:
    def test_exact_perturbative_values(self, two_engine):
        t0 = time.time()
        engine = CorrelationEngine(HarmonicForce.single_harmonic(), max_order=4)
        got = {
            "mean2": engine.srb_mean_order(2),
            "C2_2": engine.cumulant(2, 2),
            "C3_3": engine.cumulant(3, 3),
            "C3_4": engine.cumulant(3, 4),
            "C4_4": engine.cumulant(4, 4),
            "C3_3_two": two_engine.cumulant(3, 3),
        }
        elapsed = time.time() - t0
        want = {
            "mean2": 1.0,
            "C2_2": 2.0,
            "C3_3": 0.0,
            "C3_4": 3.0,    # displays and oracle; source quotes 2.1334
            "C4_4": -6.0,   # displays and oracle; source quotes 3
            "C3_3_two": -12.0,
        }
        checks = {}
        for key in want:
            if want[key] == 0.0:
                checks[key] = abs(got[key]) < 1e-10
            else:
                checks[key] = abs(got[key] / want[key] - 1.0) < 1e-10
        ok = all(checks.values()) and elapsed < 10.0
        report(1, ok, f"values {got}; runtime {elapsed:.1f}s; "
                      f"failed keys: {[k for k, v in checks.items() if not v]}; "
                      f"source quotes C3_4 = {QUOTED_C3_4:.4f} and "
                      f"C4_4 = {QUOTED_C4_4}, contradicted by the displays "
                      "and the periodic-orbit oracle")
        assert elapsed < 10.0, f"criterion 1 runtime {elapsed:.1f}s >= 10s"
        for key in ("mean2", "C2_2", "C3_3", "C3_3_two"):
            assert checks[key], f"{key}: got {got[key]}, want {want[key]}"
        assert checks["C3_4"], (
            f"C3_4: got {got['C3_4']}, want {want['C3_4']} from the defining "
            "displays eq:30 and TestPeriodicOrbitOracle (the source quotes "
            f"{QUOTED_C3_4:.4f}; README, 'Source-text defects')")
        assert checks["C4_4"], (
            f"C4_4: got {got['C4_4']}, want {want['C4_4']} from the defining "
            "displays eq:31 and TestPeriodicOrbitOracle (the source quotes "
            f"{QUOTED_C4_4}; README, 'Source-text defects')")


class TestCriterion2Zeta:
    def test_pipeline_equals_closed_form(self, single_table):
        z = zeta(single_table, 4)
        closed = zeta_closed_form(single_table, 4)
        worst = 0.0
        for n in range(2, 5):
            a, b = z.orders[n], closed.orders[n]
            m = max(len(a), len(b))
            a = np.pad(a, (0, m - len(a)))
            b = np.pad(b, (0, m - len(b)))
            worst = max(worst, float(np.max(np.abs(a - b))))
        ok = worst < 1e-10
        report(2, ok, f"pipeline vs closed form, worst coefficient dev {worst:.2e}")
        assert ok

    def test_ft_imposed_reduction(self, single_table):
        # impose appC10/appC11 on the measured table, then the closed form
        # must equal the final-display form coefficient-by-coefficient
        import copy
        t = copy.deepcopy(single_table)
        t.C[3][4] = t.C[4][4] / 2.0
        t.mean[4] = t.C[2][4] / 2.0 - t.C[3][4] / 6.0 + t.C[4][4] / 24.0
        closed = zeta_closed_form(t, 4)
        imposed = zeta_ft_imposed(t, 4)
        pipeline = zeta(t, 4)
        worst = 0.0
        for n in range(2, 5):
            for za, zb in ((closed, imposed), (pipeline, imposed)):
                a, b = za.orders[n], zb.orders[n]
                m = max(len(a), len(b))
                a = np.pad(a, (0, m - len(a)))
                b = np.pad(b, (0, m - len(b)))
                worst = max(worst, float(np.max(np.abs(a - b))))
        ok = worst < 1e-10
        report(2, ok, f"FT-imposed reduction, worst coefficient dev {worst:.2e}")
        assert ok


class TestCriterion3FTAlgebra:
    def test_residuals_through_third_order(self, single_table, two_table):
        lam1 = lambda_from_cumulants(single_table, 4)
        r1 = check_rel1(lam1)
        r3_2 = check_rel3(lam1, 2)
        r3_3 = check_rel3(lam1, 3)
        early = max(float(np.max(np.abs(r1[2]))), float(np.max(np.abs(r1[3]))),
                    abs(r3_2[2]), abs(r3_2[3]), abs(r3_3[3]))
        viol4 = r3_2[4]
        lam2 = lambda_from_cumulants(two_table, 3)
        viol3_two = check_rel3(lam2, 3)[3]
        ok_early = early < 1e-10
        ok_two = abs(viol3_two + 12.0) < 1e-9
        # C3 - C4/2 = 3 + 3 from the displays and the periodic-orbit oracle
        expected = 6.0
        ok_value = abs(viol4 - expected) < 1e-9
        report(3, ok_early and ok_two and ok_value,
               f"early residuals {early:.2e}; eps^4 residual {viol4:.6f} "
               f"(displays {expected}; source quote {QUOTED_RESIDUAL_4:.6f}); "
               f"two-harmonic eps^3 residual {viol3_two:.3f}")
        assert ok_early, f"residuals through eps^3 not zero: {early}"
        assert viol4 != pytest.approx(0.0, abs=1e-9), "no eps^4 violation found"
        assert ok_two, f"two-harmonic residual {viol3_two} != -12"
        assert ok_value, (
            f"eps^4 residual C3-C4/2 = {viol4}, want {expected} from the "
            "defining displays and TestPeriodicOrbitOracle (the source quotes "
            f"{QUOTED_RESIDUAL_4:.6f}; README, 'Source-text defects')")


class TestCriterion4GreenKubo:
    def test_green_kubo_and_onsager(self, single_table):
        gk = abs(single_table.mean[2] - single_table.C[2][2] / 2.0)
        fam = [HarmonicForce.from_pairs([((1, 0), 1.0)]),
               HarmonicForce.from_pairs([((2, 0), 1.0)])]
        tm = transport_matrix(fam)
        ok = gk < 1e-12 and tm.symmetry_residual == 0.0 and tm.L[0][1] == 0.0
        report(4, ok, f"<s>^(2)-C2/2 = {gk:.2e}; L12 = {tm.L[0][1]}; "
                      f"symmetry residual {tm.symmetry_residual}")
        assert gk < 1e-12
        assert tm.L[0][1] == 0.0 and tm.L[1][0] == 0.0
        assert tm.symmetry_residual == 0.0


class TestCriterion5ConjugacyResidual:
    def test_slopes(self):
        t0 = time.time()
        force = HarmonicForce.single_harmonic()
        eps_list = [1e-3, 2e-3, 4e-3, 1e-2]
        slopes = {}
        for K in (1, 2, 3):
            res = conjugacy_residual(force, K, eps_list, grid_n=24)
            slopes[K] = res["slope"]
        elapsed = time.time() - t0
        ok = all(abs(slopes[K] - (K + 1)) <= 0.2 for K in slopes) and elapsed < 30
        report(5, ok, f"slopes {slopes} (want K+1 +- 0.2); runtime {elapsed:.1f}s")
        for K, s in slopes.items():
            assert abs(s - (K + 1)) <= 0.2, f"order {K}: slope {s}"
        assert elapsed < 30.0


class TestCriterion6OracleEquivalence:
    def test_replay_all_recorded_averages(self, single_engine, single_table,
                                          two_engine, two_table):
        # a 256-point grid cannot represent the super-Nyquist frequencies a
        # few far-shift factors carry; those provably aliased averages are
        # re-verified on a prime 509 grid instead
        t0 = time.time()
        r1 = replay_moments_on_grid(single_engine.engine, 256, escalate_n=509)
        r2 = replay_moments_on_grid(two_engine.engine, 256, escalate_n=509)
        # transport averages (criterion 4) replayed directly by quadrature
        fam = [HarmonicForce.from_pairs([((1, 0), 1.0)]),
               HarmonicForce.from_pairs([((2, 0), 1.0)])]
        worst3 = 0.0
        for fi in fam:
            for fj in fam:
                ji = -1.0 * fi.jacobian_poly()
                jj = -1.0 * fj.jacobian_poly()
                for k in range(-12, 13):
                    prod = ji.compose_power(k) * jj
                    worst3 = max(worst3, abs(prod.average()
                                             - quadrature_average(prod)))
        worst = max(r1.worst, r2.worst, worst3)
        worst_alias = max(r1.worst_escalated, r2.worst_escalated)
        ok = worst < 1e-8 and worst_alias < 1e-8
        report(6, ok, f"{r1.count + r2.count} recorded averages + transport "
                      f"sums; worst 256-grid deviation {worst:.2e}; "
                      f"{r1.aliased + r2.aliased} super-Nyquist averages "
                      f"verified on the 509 grid (worst {worst_alias:.2e}); "
                      f"runtime {time.time() - t0:.0f}s")
        assert worst < 1e-8
        assert worst_alias < 1e-8


class TestCriterion7MonteCarlo:
    def test_desk_scale_ratio_curve(self):
        t0 = time.time()
        # bin width is implementation-chosen per the source protocol (its
        # binning is unstated); 0.1 keeps every |p| <= 2 bin well populated
        config = SimConfig(
            system=CatSystem(epsilon=0.05, force=HarmonicForce.single_harmonic()),
            T=10 ** 6, tau=100, N=20, bin_width=0.1, seed=2024, workers=1)
        stats = simulate(config)
        # "pooled standard errors": binomial errors of the pooled histogram
        curve = build_curve(stats, config, errors="binomial")
        mask = np.abs(curve.p) <= 2.0
        devs = np.abs(curve.y[mask] - 1.0) / curve.err[mask]
        worst = float(np.max(devs))
        frac_bad = float(np.mean(devs > 3.0))
        elapsed = time.time() - t0
        # determinism across worker counts at the same seed
        small1 = simulate(SimConfig(system=config.system, T=10 ** 5, tau=100,
                                    N=4, bin_width=0.05, seed=2024, workers=1))
        small2 = simulate(SimConfig(system=config.system, T=10 ** 5, tau=100,
                                    N=4, bin_width=0.05, seed=2024, workers=2))
        identical = all(a.counts == b.counts and a.sigma_bar == b.sigma_bar
                        for a, b in zip(small1, small2))
        ok = worst <= 3.0 and identical and elapsed < 150
        report(7, ok, f"{int(mask.sum())} bins, worst |y-1|/err {worst:.2f}, "
                      f"frac>3sigma {frac_bad:.3f}, workers identical: "
                      f"{identical}; runtime {elapsed:.0f}s")
        assert identical, "runs differ across worker counts"
        assert worst <= 3.0, (
            f"ratio curve deviates {worst:.2f} pooled standard errors")
        assert elapsed < 150.0


class TestCriterion8AScaling:
    def test_stated_eps_grid_is_realizable(self):
        # the criterion pins eps in {0.1, 0.2, 0.3} for both forces, but the
        # two-harmonic determinant 1 + eps (2 cos psi1 + 4 cos 2 psi1) has
        # minimum 1 - 4.125 eps (at cos psi1 = -1/8), negative for
        # eps > 8/33 = 0.2424: at eps = 0.3 it reaches -0.2375, the map is
        # not invertible and sigma is undefined.  (1/6 is only the
        # sufficient bound |eps| sum |amp (2 nu1 - nu2)| < 1.)  The five
        # invertible points must run; the sixth must be refused before any
        # stepping, naming the limit (README, "Source-text defects").
        forces = {"single": HarmonicForce.single_harmonic(),
                  "two": HarmonicForce.two_harmonics()}
        measured = {}
        refusal = ""
        for name, force in forces.items():
            for eps in (0.1, 0.2, 0.3):
                try:
                    res = measure_asymmetry(SimConfig(
                        system=CatSystem(epsilon=eps, force=force),
                        T=10_000, tau=25, N=1, seed=1, workers=1))
                    measured[f"{name} {eps}"] = res.A
                except ValueError as exc:
                    if (name, eps) != ("two", 0.3):
                        raise
                    refusal = str(exc)
        ran = (len(measured) == 5
               and all(math.isfinite(a) for a in measured.values()))
        named = "eps < 0.2424" in refusal
        report(8, ran and named,
               f"invertible points of the stated grid ran (A = "
               f"{ {k: round(v, 4) for k, v in measured.items()} }); the "
               f"source's grid is NOT realizable: two-harmonic eps=0.3 "
               f"{'refused (' + refusal + ')' if refusal else 'NOT refused'}")
        assert refusal, (
            "two-harmonic eps = 0.3 was not refused, though det DS_eps "
            "reaches 1 - 0.3 * 4.125 < 0 there")
        assert named, f"refusal does not name the limit 8/33: {refusal}"
        assert ran, f"an invertible point of the stated grid failed: {measured}"

    def test_two_harmonic_dominates_on_realizable_grid(self):
        t0 = time.time()
        tau = 25
        eps_list = [0.05, 0.1, 0.15, 0.2]
        results = {}
        for name, force in (("single", HarmonicForce.single_harmonic()),
                            ("two", HarmonicForce.two_harmonics())):
            pts = []
            for eps in eps_list:
                res = measure_asymmetry(SimConfig(
                    system=CatSystem(epsilon=eps, force=force), T=300_000,
                    tau=tau, N=16, seed=515, workers=1), p_max=2.0)
                pts.append((eps, res.A, res.stderr))
            f1, f2 = fit_models(pts, tau)
            results[name] = {"points": pts, "f1": f1, "f2": f2}
        elapsed = time.time() - t0
        # remove the fitted finite-tau c/(tau eps) term, then compare
        corrected = {}
        for name in results:
            f2 = results[name]["f2"]
            c = f2.params[2]
            corrected[name] = [abs(a - c / (tau * e))
                               for e, a, _ in results[name]["points"]]
        dominance = all(two > single for two, single
                        in zip(corrected["two"][1:], corrected["single"][1:]))
        a2_two = results["two"]["f2"].params[0]
        s2_two = results["two"]["f2"].stderrs[0]
        a2_single = results["single"]["f2"].params[0]
        s2_single = results["single"]["f2"].stderrs[0]
        significant = abs(a2_two) > 2.0 * s2_two
        consistent = abs(a2_single) <= 2.0 * s2_single
        ok = dominance and significant and consistent
        report(8, ok, f"|A| corrected two {['%.4f' % v for v in corrected['two']]} vs "
                      f"single {['%.4f' % v for v in corrected['single']]} "
                      f"(eps {eps_list}); a2(two) = {a2_two:.3f}+-{s2_two:.3f}, "
                      f"a2(single) = {a2_single:.3f}+-{s2_single:.3f}; "
                      f"runtime {elapsed:.0f}s")
        assert dominance, "two-harmonic |A| does not dominate at matched eps"
        assert significant, "two-harmonic linear coefficient not 2-sigma significant"
        assert consistent, "single-harmonic linear coefficient not consistent with 0"


class TestCriterion9Symbolic:
    def test_partition_and_coding(self, cat_partition, cat_coder):
        t0 = time.time()
        rep = verify_markov(cat_partition)
        freqs = birkhoff_frequencies(cat_coder, TorusPoint(2.7182, 0.5772),
                                     10 ** 6)
        areas = {r.rid: float(r.area()) for r in cat_partition.rectangles}
        worst_freq = max(abs(freqs[i] - areas[i]) for i in freqs)
        rng = np.random.default_rng(99)
        p = TorusPoint(rng.uniform(0, TWO_PI), rng.uniform(0, TWO_PI))
        logs = []
        ns = list(range(4, 17))
        for n in ns:
            _, diam = cat_coder.decode(cat_coder.encode(p, n))
            logs.append(math.log(diam))
        rate = -np.polyfit(ns, logs, 1)[0]
        rate_off = abs(rate / math.log(LAMBDA_PLUS) - 1.0)
        covariant = True
        for _ in range(1000):
            q = TorusPoint(rng.uniform(0, TWO_PI), rng.uniform(0, TWO_PI))
            w1 = cat_coder.encode(q, 3)
            w2 = cat_coder.encode(CatSystem().step(q), 2)
            covariant &= w1.symbols[2:] == w2.symbols
        ok = rep.ok and worst_freq < 0.01 and rate_off <= 0.05 and covariant
        report(9, ok, f"verify {rep.ok}; {len(cat_partition)} rectangles; "
                      f"worst |freq-area| {worst_freq:.2e}; decay rate "
                      f"{rate:.4f} ({100 * rate_off:.1f}% off); covariance "
                      f"{covariant}; runtime {time.time() - t0:.0f}s")
        assert rep.ok, rep.messages
        assert worst_freq < 0.01
        assert rate_off <= 0.05, f"decay rate {rate} off by {100 * rate_off:.1f}%"
        assert covariant
