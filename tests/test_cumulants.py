import itertools
import math
from collections import Counter

import numpy as np
import pytest

from catflux import cumulants
from catflux.cumulants import (_PARTITIONS, PROJECTION_SLACK,
                               CorrelationEngine, MomentEngine,
                               ObservableSeries, _canonical, _norm_form,
                               _slabs, build_table, sigma_series,
                               transport_matrix)
from catflux.torus import HarmonicForce
from catflux.trig import (LAMBDA_MINUS, LAMBDA_PLUS, PAIR_CHUNK, TrigPoly,
                          product_average, s0_power)
from oracles import (ORACLE_EPS, eps_coefficient, orbit_cumulants,
                     replay_moments_on_grid)

LAM_R = LAMBDA_MINUS / (LAMBDA_PLUS + 1)

# the eps^4 single-harmonic and eps^3 two-harmonic tables, recorded from the
# exact engine; TestPinnedTables compares them with ==, and
# TestPeriodicOrbitOracle the eps^4 two-harmonic table
SINGLE_TABLE = {("mean", 1): 0.0, ("mean", 2): 1.0, ("mean", 3): 0.0,
                ("mean", 4): 1.499999999999992, (2, 2): 2.0, (2, 3): 0.0,
                (2, 4): 4.5, (3, 3): 0.0, (3, 4): 2.9999999999999996,
                (4, 4): -6.0}
TWO_TABLE = {("mean", 1): 0.0, ("mean", 2): 5.0, ("mean", 3): -4.0,
             (2, 2): 10.0, (2, 3): -12.0, (3, 3): -12.0}
TWO_TABLE_4 = {("mean", 1): 0.0, ("mean", 2): 5.0, ("mean", 3): -4.0,
               ("mean", 4): 49.50000000000015, (2, 2): 10.0, (2, 3): -12.0,
               (2, 4): 170.5, (3, 3): -12.0, (3, 4): 261.0, (4, 4): 186.0}

# recorded from the exact engine and compared with ==: twelve joint
# cumulants and four means of OBS, and the Green-Kubo matrices of four
# families
JOINTS = [2.0, 0.0, 4.5, 0.5, 0.125, 0.0, 0.0, 0.0, 0.0, 0.0,
          0.625000000000002, 0.12499999999999484]
MEANS = [0.0, 3.469446951953614e-18, 0.0, -2.1780334155153958e-15]
TRANSPORT = {
    "mixed": ((1.5625, 1.09375), (1.09375, 0.765625)),
    "linked": ((1.5625, 0.625), (0.625, 1.515625)),
    "chain": ((15.5,),),
    "shifted": ((1.0, 0.5), (0.5, 0.25)),
}
OBS = ObservableSeries([TrigPoly.zero(), TrigPoly.cosine((1, 0), -1.0)
                        + TrigPoly.cosine((1, 1), 0.5)])


@pytest.fixture(scope="module")
def table_engine(single_force):
    """An engine that has built build_table(sin psi1, 4) and nothing else,
    unlike the session single_engine, which later tests extend."""
    eng = CorrelationEngine(single_force, max_order=4)
    build_table(single_force, 4, engine=eng)
    return eng


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

    def test_fourth_order_mean_and_c2_exact(self, single_table):
        # the periodic-orbit oracle gives 3/2 and 9/2; a moment rule-out
        # that subtracted near-equal bounds once zeroed nonzero moments
        # and moved these by 4e-10 and 1.4e-8
        assert single_table.mean[4] == pytest.approx(1.5, rel=1e-12)
        assert single_table.C[2][4] == pytest.approx(4.5, rel=1e-12)

    def test_ruled_out_moments_vanish_exactly(self, single_force):
        # the table alone records 60 ruled-out moments, since the tuples
        # the rule drops are never visited; a sigma-OBS joint cumulant adds
        # more.  A fresh engine keeps its moments out of the session one
        fresh = CorrelationEngine(single_force, max_order=4)
        build_table(single_force, 4, engine=fresh)
        fresh.joint_cumulant((1, 2), 4, OBS)
        eng = fresh.engine
        ruled_out = 0
        for key, value in eng.moments.items():
            if eng._may_cancel(key) is None:
                ruled_out += 1
                assert value == 0.0
                assert product_average([shifted(eng, r) for r in key]) == 0.0
        assert ruled_out > 100

    def test_cancelling_terms_give_every_moment(self, table_engine,
                                                two_force):
        # a moment composes only the terms of each factor that can cancel,
        # each distinct cut factor once; the full shifted factors give the
        # same averages.  The eps^4 single-harmonic engine holds the
        # table's moments alone, and the eps^3 two-harmonic table records
        # fewer than 50 moments, so a fresh engine adds those of three
        # joint cumulants with OBS
        two = CorrelationEngine(two_force, max_order=3)
        build_table(two_force, 3, engine=two)
        for index in ((1, 2), (2, 2), (1, 1, 2)):
            two.joint_cumulant(index, 3, OBS)
        for eng in (table_engine.engine, two.engine):
            assert len(eng.moments) >= 50
            for key, value in eng.moments.items():
                full = product_average([shifted(eng, r) for r in key])
                assert abs(full - value) <= 1e-15, (key, full, value)

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

    def test_fixed_odd_observable(self, single_engine):
        # O = sin(psi1) is odd under I0; equilibrium mean vanishes
        obs = ObservableSeries([TrigPoly.sine((1, 0))])
        assert single_engine.srb_mean_order(0, obs=obs) == 0.0
        first = single_engine.srb_mean_order(1, obs=obs)
        assert abs(first) < 10.0  # finite, genuinely nonequilibrium


class TestEngineSeries:
    def test_one_conjugation_series(self, single_engine, single_table):
        # the composed observables and the rate series read one H
        assert single_engine.conj is single_engine.expansion.rates.conj

    def test_table_grows_only_the_unstable_rate_half(self, table_engine):
        # A_u through order 3 reads gamma_+ through 3 and k_- through 2
        rates = table_engine.expansion.rates
        assert (table_engine.conj.max_order,
                table_engine.expansion.max_order) == (3, 3)
        assert len(rates.gamma_plus) == 4
        assert len(rates.k_minus) == 3
        assert rates.gamma_minus == rates.k_plus == [TrigPoly.zero()]

    def test_order_cap(self, single_force):
        with pytest.raises(ValueError, match="beyond cap 6"):
            CorrelationEngine(single_force, 7)


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

    def test_pinned_families(self):
        families = {
            "mixed": [HarmonicForce.from_pairs([((1, 0), 1.25)]),
                      HarmonicForce.from_pairs([((1, 0), 0.5),
                                                ((1, 1), 0.75)])],
            # S0 carries (1, 0) to (1, 1) and S0^-1 to (2, -1): (2, 1) and
            # (5, 3) are not on that orbit, so only k = 0 contributes
            "linked": [HarmonicForce.from_pairs([((1, 0), 1.25)]),
                       HarmonicForce.from_pairs([((1, 0), 0.5),
                                                 ((2, 1), 0.75)])],
            "chain": [HarmonicForce.from_pairs([((1, 0), 1.0), ((2, 1), 1.0),
                                                ((5, 3), 1.0)])],
            # S0 carries cos(psi1) to cos(psi1 + psi2): L_01 lives at k = 1
            "shifted": [HarmonicForce.from_pairs([((1, 0), 1.0)]),
                        HarmonicForce.from_pairs([((1, 1), 1.0)])],
        }
        for name, family in families.items():
            tm = transport_matrix(family)
            assert tm.L == TRANSPORT[name], name
            assert tm.symmetry_residual == 0.0, name


class TestWindowsAndOracle:
    def test_shift_window_sufficiency(self, single_force, monkeypatch):
        # cos(psi1 + psi2) in OBS meets S0-shifted cos(psi1) at k = +-1, so
        # a window of 1 is the least that holds C_12^(2)
        want = CorrelationEngine(single_force, 2).joint_cumulant((1, 2), 2,
                                                                 OBS)
        monkeypatch.setattr(cumulants, "SHIFT_WINDOW", 1)
        small = CorrelationEngine(single_force, 2)
        assert small.joint_cumulant((1, 2), 2, OBS) == want == 0.5

    def test_insufficient_window_raises(self, single_force, monkeypatch):
        monkeypatch.setattr(cumulants, "SHIFT_WINDOW", 0)
        eng = CorrelationEngine(single_force, 2)
        with pytest.raises(RuntimeError,
                           match="shift window 0 insufficient for joint"):
            eng.joint_cumulant((1, 2), 2, OBS)
        # S0 carries cos(psi1) to cos(psi1 + psi2): all of L_01 (the
        # "shifted" pin) lives at k = 1, so window 0 misses it whole
        family = [HarmonicForce.from_pairs([((1, 0), 1.0)]),
                  HarmonicForce.from_pairs([((1, 1), 1.0)])]
        with pytest.raises(RuntimeError,
                           match=r"insufficient for L_01: delta 1\.000e\+00"):
            transport_matrix(family)

    def test_moment_replay_subset(self, single_engine, single_table):
        # full replay is the acceptance criterion; here a fast slice.  The
        # slice holds far-shift factors with super-Nyquist frequencies, so,
        # as in the criterion, those averages are re-checked on a prime grid.
        # The table records 570 moments; the order-4 OBS families pinned in
        # JOINTS and MEANS add more
        for index in ((1, 2), (2, 2)):
            single_engine.joint_cumulant(index, 4, OBS)
        for m in range(1, 5):
            single_engine.srb_mean_order(m, obs=OBS)
        report = replay_moments_on_grid(single_engine.engine, 256,
                                        limit=1500, escalate_n=509)
        assert report.count == 1500
        assert report.worst < 1e-8
        assert report.worst_escalated < 1e-8


class FullWindowMoments(MomentEngine):
    """Brute-force oracle: every shift tuple of the window, observable and
    insertion shifts alike, as a walk with neither the connectivity mask
    nor the engine's windows: the free shifts of each fixed tuple t run
    over its own window, min(t) - reach to max(t) + reach."""

    def connected_tuples(self, fixed, ranges, free, reach):
        out = {}
        for head in itertools.product(*[range(lo, hi + 1)
                                        for lo, hi in ranges]):
            span = range(min(head) - reach, max(head) + reach + 1)
            tails = list(itertools.product(span, repeat=len(free)))
            out[head] = np.array(tails, dtype=np.int64).reshape(len(tails),
                                                                len(free))
        return out


def tuple_survivors(eng, fixed, free, lo, hi):
    """The insertion-shift tuples of [lo, hi] that connected_grid keeps
    with the fixed factors, one fixed tuple at a time, as the shift sums
    enumerated them before the joint mask."""
    keep = eng.connected_grid([bid for bid, _ in fixed] + list(free),
                              [(sh, sh) for _, sh in fixed]
                              + [(lo, hi)] * len(free))
    return [tuple(i + lo for i in idx[len(fixed):])
            for idx in np.argwhere(keep).tolist()]


def one_shot_grid(eng, bids, ranges):
    """The one-shot test over a grid of shift tuples, kept here as an
    independent copy: a cell is cut where some factor's smallest nonzero
    projection, in either eigendirection, exceeds the sum of its partners'
    largest.  Bounds are widened by PROJECTION_SLACK, as in the engine."""
    low, high = 1.0 - PROJECTION_SLACK, 1.0 + PROJECTION_SLACK
    bounds = []
    for axis, (bid, (lo, hi)) in enumerate(zip(bids, ranges)):
        shape = [1] * len(bids)
        shape[axis] = -1
        lp = np.array([LAMBDA_PLUS ** sh
                       for sh in range(lo, hi + 1)]).reshape(shape)
        a, b = eng._sorted[bid]
        const = int(a.size > 0 and a[0] == 0.0)
        if a.size == const:
            amin = bmin = math.inf
            amax = bmax = 0.0
        else:
            amin, bmin = float(a[const]) * low, float(b[const]) * low
            amax, bmax = float(a[-1]) * high, float(b[-1]) * high
        bounds.append((lp * amin, lp * amax, bmin / lp, bmax / lp))
    cut = False
    for lower, upper in ((0, 1), (2, 3)):
        for j, own in enumerate(bounds):
            partners = 0.0
            for k, other in enumerate(bounds):
                if k != j:
                    partners = partners + other[upper]
            cut = cut | (own[lower] > partners)
    return ~np.broadcast_to(cut, tuple(hi - lo + 1 for lo, hi in ranges))


def has_zero_sum_selection(eng, refs):
    """Whether one nonzero frequency of each factor, composed with its
    shift in Python ints, sums to zero with the others."""
    terms = []
    for bid, sh in refs:
        m11, m12, m21, m22 = s0_power(sh)
        poly = eng.bases[bid]
        terms.append({(m11 * x + m12 * y, m21 * x + m22 * y)
                      for x, y in zip(poly.n1.tolist(), poly.n2.tolist())
                      if (x, y) != (0, 0)})
    sums = {(0, 0)}
    for freqs in terms[:-1]:
        sums = {(s1 + f1, s2 + f2) for s1, s2 in sums for f1, f2 in freqs}
    return any((-f1, -f2) in sums for f1, f2 in terms[-1])


def shifted(eng, ref):
    """Base ref[0] of eng composed with S0^ref[1], every term: the factor a
    moment would use without its cut to the cancelling terms."""
    return eng.bases[ref[0]].compose_power(ref[1])


def listed(tuples):
    """connected_tuples' map as (fixed shifts, free-shift lists) pairs."""
    return [(head, tails.tolist()) for head, tails in tuples.items()]


def table_entries(table):
    entries = {("mean", m): v for m, v in table.mean.items()}
    entries.update({(n, m): v for n, row in table.C.items()
                    for m, v in row.items()})
    return entries


def random_real_poly(rng, with_const):
    """A few cosines with small frequencies and dyadic amplitudes, so that
    every moment and cumulant of them is computed without rounding."""
    poly = TrigPoly.const(float(rng.integers(1, 4)) / 2) if with_const \
        else TrigPoly.zero()
    for _ in range(rng.integers(1, 4)):
        nu = tuple(int(v) for v in rng.integers(-3, 4, 2))
        if nu != (0, 0):
            poly = poly + TrigPoly.cosine(nu, float(rng.integers(-4, 5)) / 2)
    return poly


class TestNormForm:
    def test_matches_python_ints(self):
        # Fibonacci pairs lie next to the unstable eigenline, where
        # n1^2 + n1 n2 - n2^2 = +-1 cancels completely in floats: at 1e12
        # the wrapping int64 form is exact, at 1e18 only Python ints are;
        # far from the eigenlines the float form is accurate
        fib = [0, 1]
        while len(fib) < 92:
            fib.append(fib[-1] + fib[-2])
        rng = np.random.default_rng(5)
        pairs = [(fib[k], fib[k + 1]) for k in (10, 58, 88, 89)]
        pairs += [(-fib[k + 1], fib[k]) for k in (30, 87)]
        pairs += [(2 ** 61, 3), (-(2 ** 61) + 1, 2 ** 60), (0, 0)]
        pairs += [tuple(int(v) for v in rng.integers(-2 ** 61, 2 ** 61, 2))
                  for _ in range(20)]
        n1 = np.array([p[0] for p in pairs], dtype=np.int64)
        n2 = np.array([p[1] for p in pairs], dtype=np.int64)
        got = _norm_form(n1, n2)
        for (x, y), value in zip(pairs, got):
            want = x * x + x * y - y * y
            assert value == pytest.approx(float(want), rel=1e-15), (x, y)


class TestPinnedTables:
    def test_single_harmonic_fourth_order(self, single_table):
        assert table_entries(single_table) == SINGLE_TABLE

    def test_two_harmonic_third_order(self, two_table):
        assert table_entries(two_table) == TWO_TABLE

    @pytest.mark.slow
    def test_single_harmonic_fifth_order(self, single_force):
        # the eps^5 entries of sin psi1 sit within 3e-15 of these rationals
        table = build_table(single_force, 5)
        got = {"mean": table.mean[5], 2: table.C[2][5], 3: table.C[3][5],
               4: table.C[4][5], 5: table.C[5][5]}
        want = {"mean": -1 / 24, 2: -35 / 12, 3: -35 / 2, 4: -44.0, 5: -40.0}
        for key, value in want.items():
            assert got[key] == pytest.approx(value, rel=1e-12, abs=0.0), key


class TestPinnedPaths:
    def test_joint_cumulants_and_means(self, single_engine):
        sig = single_engine.sigma_observable()
        calls = [((1, 2), 2, sig), ((1, 1, 2), 3, sig), ((1, 2), 4, sig)] + [
            (index, m, OBS) for index, m in (
                ((1, 2), 2), ((2, 2), 2), ((1, 2), 3), ((2, 1), 3),
                ((1, 1, 2), 3), ((1, 2, 2), 3), ((2, 2, 2), 3), ((1, 2), 4),
                ((2, 2), 4))]
        assert [single_engine.joint_cumulant(index, m, obs)
                for index, m, obs in calls] == JOINTS
        assert [single_engine.srb_mean_order(m, obs=OBS)
                for m in range(1, 5)] == MEANS

    def test_table_refuses_mismatched_engine(self, single_force, two_force,
                                             single_engine):
        for force, order, engine in (
                (two_force, 3, single_engine),
                (single_force, 4, CorrelationEngine(single_force, 3))):
            with pytest.raises(ValueError, match="engine built for"):
                build_table(force, order, engine=engine)


class TestConnectedShifts:
    def test_pruned_tables_equal_full_window_walk(self, single_force,
                                                  two_force):
        # every dropped tuple contributes exactly 0.0, so the surviving
        # terms are summed in the same order and the tables are identical.
        # A tuple outside its window adds 0.0 too, so the walks are also
        # compared: the pruned walk evaluates only tuples of the full one
        for force, order in ((single_force, 4), (two_force, 3)):
            pruned = CorrelationEngine(force, max_order=order)
            full = CorrelationEngine(force, max_order=order)
            full.engine = FullWindowMoments()
            got = table_entries(build_table(force, order, engine=pruned))
            want = table_entries(build_table(force, order, engine=full))
            assert got.keys() == want.keys()
            for key in want:
                assert got[key] == want[key], (order, key)
            assert set(pruned.engine._ursells) <= set(full.engine._ursells)

    def test_recorded_moments_independent_of_base_order(self, single_force):
        # priming registers the composed sigma bases first, so every base
        # id differs from the unprimed engine's.  Both engines are fresh:
        # the session engine also records other tests' moments
        plain = CorrelationEngine(single_force, max_order=4)
        build_table(single_force, 4, engine=plain)
        primed = CorrelationEngine(single_force, max_order=4)
        primed.composed_ids(primed.sigma_observable(), 4)
        build_table(single_force, 4, engine=primed)

        def recorded(eng):
            return {frozenset(Counter((eng.bases[bid].key(), sh)
                                      for bid, sh in key).items())
                    for key in eng.moments}

        assert recorded(primed.engine) == recorded(plain.engine)
        assert len(plain.engine.moments) == 570

    @pytest.mark.parametrize("window", [4, 5, 6])
    def test_dropped_tuples_have_zero_ursell(self, window):
        # the fixed point over a shift grid keeps a subset of what the
        # one-shot test keeps, keeps every tuple with a zero-sum frequency
        # selection that uses every factor, and every tuple it drops has an
        # Ursell function of exactly 0
        rng = np.random.default_rng(1000 + window)
        dropped = kept = tightened = selected = 0
        for _ in range(12):
            eng = MomentEngine()
            fixed = [(eng.register(random_real_poly(rng, rng.random() < 0.5)),
                      int(rng.integers(-2, 3)))
                     for _ in range(rng.integers(1, 3))]
            free = [eng.register(random_real_poly(rng, False))
                    for _ in range(rng.integers(0, 3))]
            if len(fixed) + len(free) < 2:
                # a lone factor is no joint cumulant: a lone observable's
                # term is its average, which needs no mask
                continue
            shifts = [sh for _, sh in fixed]
            lo, hi = min(shifts) - window, max(shifts) + window
            bids = [bid for bid, _ in fixed] + free
            ranges = [(sh, sh) for sh in shifts] + [(lo, hi)] * len(free)
            keep = eng.connected_grid(bids, ranges)
            one_shot = one_shot_grid(eng, bids, ranges)
            assert not np.any(keep & ~one_shot)
            tightened += int(np.count_nonzero(one_shot & ~keep))
            for idx in itertools.product(*[range(a, b + 1)
                                           for a, b in ranges]):
                refs = list(zip(bids, idx))
                selection = has_zero_sum_selection(eng, refs)
                if keep[tuple(i - a for i, (a, _) in zip(idx, ranges))]:
                    kept += 1
                    selected += selection
                    continue
                dropped += 1
                assert not selection, refs
                value = eng.ursell(refs)
                assert value == 0.0, (refs, value)
        assert dropped > 0 and kept > 0 and tightened > 0 and selected > 0

    @pytest.mark.parametrize("window", [4, 5, 6])
    def test_joint_survivors_equal_per_tuple_walk(self, window):
        # one mask over the joint grid of observable and insertion shifts
        # keeps, per observable tuple, exactly the insertion tuples of its
        # own window that the per-tuple test keeps, in the same order; a
        # box cut into two slabs gives the same survivors
        rng = np.random.default_rng(2000 + window)
        found = 0
        for _ in range(12):
            eng = MomentEngine()
            obs = [eng.register(random_real_poly(rng, rng.random() < 0.5))
                   for _ in range(rng.integers(2, 4))]
            ins = [eng.register(random_real_poly(rng, False))
                   for _ in range(rng.integers(0, 3))]
            ranges = [(-window, window)] * (len(obs) - 1) + [(0, 0)]
            joint = eng.connected_tuples(obs, ranges, ins, window)
            want = {}
            for head in itertools.product(range(-window, window + 1),
                                          repeat=len(obs) - 1):
                shifts = head + (0,)
                tails = tuple_survivors(eng, list(zip(obs, shifts)), ins,
                                        min(shifts) - window,
                                        max(shifts) + window)
                if tails:
                    want[shifts] = [list(t) for t in tails]
            assert listed(joint) == list(want.items())
            halves = [eng.connected_tuples(obs, [(a, b)] + ranges[1:], ins,
                                           window)
                      for a, b in ((-window, 0), (1, window))]
            assert listed(halves[0]) + listed(halves[1]) == list(want.items())
            found += len(want)
        assert found > 0

    @pytest.mark.parametrize("axes, cells", [(0, 31 ** 4), (1, 61 ** 3),
                                             (2, 61 ** 3), (3, 61), (2, 1)])
    def test_slabs_tile_the_window_in_order(self, axes, cells):
        # the slabs walk every observable tuple once, in lexicographic
        # order, and none holds more than PAIR_CHUNK cells unless it is a
        # single tuple
        window = 15
        boxes = list(_slabs(axes, window, cells))
        walked = [t for box in boxes
                  for t in itertools.product(*[range(a, b + 1)
                                               for a, b in box])]
        assert walked == list(itertools.product(range(-window, window + 1),
                                                repeat=axes))
        for box in boxes:
            size = math.prod(b - a + 1 for a, b in box)
            assert size == 1 or size * cells <= PAIR_CHUNK


class TestMomentFixedPoint:
    def check(self, eng, refs):
        """A moment the fixed point rules out has a full, uncut product
        average of exactly 0; every moment equals that average."""
        full = product_average([shifted(eng, r) for r in refs])
        ruled_out = not eng._may_cancel(_canonical(refs))
        if ruled_out:
            assert full == 0.0, (refs, full)
        assert eng.moment(refs) == full, refs
        return ruled_out

    def test_ruled_out_moments_vanish(self):
        rng = np.random.default_rng(2024)
        ruled_out = kept = 0
        for _ in range(300):
            eng = MomentEngine()
            refs = [(eng.register(random_real_poly(rng, rng.random() < 0.5)),
                     int(rng.integers(-4, 5)))
                    for _ in range(rng.integers(1, 5))]
            if self.check(eng, refs):
                ruled_out += 1
            else:
                kept += 1
        assert ruled_out > 50 and kept > 50

    def test_zero_polynomial_is_ruled_out(self):
        eng = MomentEngine()
        zero = eng.register(TrigPoly.zero())
        one = eng.register(TrigPoly.const(1.0))
        cos = eng.register(TrigPoly.cosine((1, 0), 1.0))
        for refs in ([(zero, 0)], [(zero, 0), (one, 0)],
                     [(zero, 0), (cos, 0), (cos, 0)]):
            assert self.check(eng, refs)
            assert eng.moment(refs) == 0.0

    def test_one_large_shift_against_small_partners(self):
        eng = MomentEngine()
        cos = eng.register(TrigPoly.cosine((1, 0), 1.0))
        with_const = eng.register(TrigPoly.const(1.0)
                                  + TrigPoly.cosine((1, 0), 1.0))
        small = [(cos, 0), (cos, 0)]
        # without a constant the shifted factor cannot cancel; with one, the
        # constant multiplies the partners' own average
        assert self.check(eng, [(cos, 12)] + small)
        assert not self.check(eng, [(with_const, 12)] + small)
        assert eng.moment([(with_const, 12)] + small) != 0.0

    def test_composed_moment_count(self, single_force, monkeypatch):
        # build_table(sin psi1, 4) records 570 moments, 322 of them nonzero
        # (1,846 while the shift grids had only the one-shot test); the
        # fixed point leaves 510 of them to compose, and its final bounds
        # keep 12,375 of their factors' terms.  Their 1,523 factors are
        # 184 distinct cut factors, each composed once
        calls = []

        def counting(factors):
            calls.append((len(factors), sum(len(f) for f in factors)))
            return product_average(factors)

        monkeypatch.setattr(cumulants, "product_average", counting)
        eng = CorrelationEngine(single_force, max_order=4)
        build_table(single_force, 4, engine=eng)
        assert len(eng.engine.moments) == 570
        assert sum(1 for v in eng.engine.moments.values() if v) == 322
        assert len(calls) == 510
        assert sum(terms for _, terms in calls) == 12375
        assert sum(uses for uses, _ in calls) == 1523
        assert len(eng.engine._factors) == 184

    def test_cached_factors_equal_fresh_cuts(self, table_engine):
        eng = table_engine.engine
        assert eng._factors
        for (bid, sh, atop, btop), poly in eng._factors.items():
            a, b = eng._terms[bid]
            fresh = eng.bases[bid].take((a <= atop) & (b <= btop))
            assert poly == fresh.compose_power(sh), (bid, sh)


class TestUrsellPlan:
    def test_equals_full_moebius_sum(self):
        # dyadic factors, with and without constants: ursell equals the
        # Moebius sum over every partition exactly, and a block it does not
        # evaluate appears only in partitions with a singleton block of a
        # centred factor, whose lone average is 0
        rng = np.random.default_rng(77)
        skipped = 0
        for _ in range(120):
            eng = MomentEngine()
            n = int(rng.integers(2, 6))
            refs = [(eng.register(random_real_poly(rng, rng.random() < 0.5)),
                     int(rng.integers(-2, 3))) for _ in range(n)]
            value = eng.ursell(refs)
            key = _canonical(refs)
            centred = [eng.bases[bid].average() == 0.0 for bid, _ in key]
            total = 0.0
            for part in _PARTITIONS[n]:
                total += ((-1) ** (len(part) - 1) * math.factorial(len(part) - 1)
                          * math.prod(product_average([shifted(eng, key[i])
                                                       for i in block])
                                      for block in part))
                lone = any(len(b) == 1 and centred[b[0]] for b in part)
                for block in part:
                    if _canonical([key[i] for i in block]) not in eng.moments:
                        assert lone, (key, part, block)
                        skipped += 1
            assert value == total, (key, value, total)
        assert skipped > 0


# the forces of the periodic-orbit oracle (orbit_cumulants in oracles.py)
ORACLE_SINGLE = (((1, 0), 1.0),)
ORACLE_TWO = (((1, 0), 1.0), ((2, 0), 1.0))


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

    def test_two_harmonic_fourth_order_table(self, orbit_tables, two_force):
        # the eps^4 two-harmonic table against the orbits (49.5, 170.5, 261
        # and 186).  It takes ~3 s and ~170 MB on one core, more than the
        # session fixtures, so the engine is built here and freed with the
        # test
        values = orbit_tables["two", 10][0]
        want = {"mean4": eps_coefficient(values, 0, 2, 1, power=1),
                "C2_4": eps_coefficient(values, 1, 2, 1, power=1),
                "C3_4": eps_coefficient(values, 2, 4, 1),
                "C4_4": eps_coefficient(values, 3, 4, 1)}
        eng = CorrelationEngine(two_force, max_order=4)
        table = build_table(two_force, 4, engine=eng)
        assert len(eng.engine.moments) == 711
        got = {"mean4": table.mean[4], "C2_4": table.C[2][4],
               "C3_4": table.C[3][4], "C4_4": table.C[4][4]}
        for key in want:
            assert got[key] == pytest.approx(want[key], rel=1e-6), key
        # and the whole table bit for bit, against the values recorded
        # from the engine: the selection rule drops only exact zeros
        assert table_entries(table) == TWO_TABLE_4
