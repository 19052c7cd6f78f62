import copy
import json
import math
import pickle
import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import catflux.partition as partition_module
from catflux.partition import (GRID, SETTLE, CatCoder, CellTable,
                               MarkovPartition, PartitionError, Rectangle,
                               SymbolWindow, _eigen_shadow, _first_crossing,
                               _lattice_coord, _lattice_coords53,
                               _lattice_orbit, _lattice_overlaps, _lattice_read,
                               assign_rectangles,
                               birkhoff_frequencies, build_cat_partition,
                               partition_from_json, partition_to_json,
                               transition_matrix, verify_markov)
from catflux.qfield import (LAMBDA_MINUS_Q, LAMBDA_PLUS_Q, MU_Q, NU_Q, Q5,
                            from_eigen, lattice_coords, lattice_from_b_shift,
                            lattice_from_eigen_shift)
from catflux.torus import CatSystem, TorusPoint
from fractions import Fraction
from oracles import (decode_q5, eigen_coords, lattice_orbit,
                     per_pair_cell_table, refine_q5)

LAMBDA_PLUS = (3 + math.sqrt(5)) / 2
TWO_PI = 2 * math.pi
README = Path(__file__).resolve().parents[1] / "README.md"
REFERENCE = (Path(__file__).resolve().parents[1] / "perfbench" / "reference"
             / "cat_partition.json")


class TestLatticeCoords:
    def test_closed_form_matches_eigen_coords(self):
        for m in range(-30, 31):
            for n in range(-30, 31):
                assert lattice_coords(m, n) == eigen_coords(Q5(m), Q5(n))

    def test_shift_inverses_round_trip(self):
        for m in range(-12, 13):
            for n in range(-12, 13):
                A, B = lattice_coords(m, n)
                assert lattice_from_eigen_shift(A) == (m, n)
                assert lattice_from_b_shift(B) == (m, n)
        off_lattice = Q5(Fraction(1, 3), Fraction(1, 10))
        assert lattice_from_eigen_shift(off_lattice) is None
        assert lattice_from_b_shift(off_lattice) is None

    def test_float_of_small_q5_is_accurate(self):
        # lambda_-^k = a + b sqrt5 with a ~ -b sqrt5 ~ lambda_+^k / 2, so the
        # value is a fraction ~2 lambda_-^{2k} of either part
        power = Q5(1)
        for k in range(1, 31):
            power = power * LAMBDA_MINUS_Q
            if k in (10, 20, 30):
                assert float(power) == pytest.approx(LAMBDA_PLUS ** -k, rel=1e-13)


class TestConstruction:
    def test_verify_passes(self, cat_partition):
        report = verify_markov(cat_partition)
        assert report.ok, report.messages

    def test_total_area(self, cat_partition):
        # areas sum to the full torus (4 pi^2 in angle units, 1 in lattice units)
        assert cat_partition.total_area() == Q5(1)
        # side lengths in radians: eigen-extent times |e_u| = |(1, mu)| or
        # |e_s| = |(1, nu)|, times 2 pi
        eu, es = math.hypot(1, float(MU_Q)), math.hypot(1, float(NU_Q))
        angle_area = sum(float(r.extent_a) * eu * TWO_PI
                         * float(r.extent_b) * es * TWO_PI
                         for r in cat_partition.rectangles)
        assert angle_area == pytest.approx(4 * math.pi ** 2, rel=1e-12)

    def test_rectangle_count_documented(self, cat_partition):
        # the count is an output of the construction; pinned for regression
        assert len(cat_partition) == 19

    def test_fixed_point_on_boundary(self, cat_partition):
        # (0,0) is a segment crossing: it must sit on some rectangle corner
        on_corner = False
        for r in cat_partition.rectangles:
            for da in (Q5(0), r.extent_a):
                for db in (Q5(0), r.extent_b):
                    x, y = (r.anchor_a + da + r.anchor_b + db,
                            (r.anchor_a + da) * Q5(Fraction(1, 2), Fraction(1, 2))
                            + (r.anchor_b + db) * Q5(Fraction(1, 2), Fraction(-1, 2)))
                    if x.mod1() == Q5(0) and y.mod1() == Q5(0):
                        on_corner = True
        assert on_corner

    def test_every_round_tiles_the_torus(self, monkeypatch):
        # the first round's faces are wider than the torus in a (da > 3);
        # the golden file pins only the last round.  Faces are read off the
        # boundary pieces alone: the extraction computes no overlaps.
        rounds = []
        inner = partition_module._extract_rectangles
        overlaps = partition_module._lattice_overlaps

        def no_overlaps(*args):
            raise AssertionError("_extract_rectangles computed an overlap")

        def recorded(*args):
            monkeypatch.setattr(partition_module, "_lattice_overlaps",
                                no_overlaps)
            rounds.append(inner(*args))
            monkeypatch.setattr(partition_module, "_lattice_overlaps",
                                overlaps)
            return rounds[-1]

        monkeypatch.setattr(partition_module, "_extract_rectangles", recorded)
        build_cat_partition()
        assert [len(rects) for rects in rounds] == [3, 19]
        assert max(float(r.extent_a) for r in rounds[0]) > 3
        for rects in rounds:
            part = MarkovPartition(rects)
            assert part.total_area() == Q5(1)
            report = verify_markov(part)
            assert report.ok, report.messages

    def test_spectral_radius_is_lambda_plus(self, cat_matrix):
        rho = max(abs(np.linalg.eigvals(cat_matrix.T.astype(float))))
        assert rho == pytest.approx(LAMBDA_PLUS, abs=1e-9)

    @pytest.mark.parametrize("source", ["built", "loaded"])
    def test_parry_identities_hold_exactly(self, cat_partition, cat_matrix,
                                           source):
        # the extents are positive eigenvectors of T and of its transpose
        # for lambda_+, exactly in Q(sqrt5): the areas extent_a extent_b
        # sqrt5 are the Parry measure, and T has spectral radius lambda_+
        if source == "built":
            rects, T = cat_partition.rectangles, cat_matrix.T.tolist()
        else:
            ref = json.loads(REFERENCE.read_text())
            rects = partition_from_json(
                json.dumps(ref["partition"])).rectangles
            T = ref["transition_matrix"]
        q = len(rects)
        assert (q, sum(map(sum, T))) == (19, 51)
        for i in range(q):
            row = sum((rects[j].extent_a for j in range(q) if T[i][j]), Q5(0))
            assert row == LAMBDA_PLUS_Q * rects[i].extent_a
            col = sum((rects[k].extent_b for k in range(q) if T[k][i]), Q5(0))
            assert col == LAMBDA_PLUS_Q * rects[i].extent_b


class TestGolden:
    def test_build_equals_reference(self, cat_partition, cat_matrix):
        # the committed reference partition pins the build bit for bit
        ref = json.loads(REFERENCE.read_text())
        built = json.loads(partition_to_json(cat_partition))
        assert built["provenance"] == ref["partition"]["provenance"]
        assert len(built["rectangles"]) == len(ref["partition"]["rectangles"])
        for got, want in zip(built["rectangles"], ref["partition"]["rectangles"]):
            assert got == want
        assert cat_matrix.T.tolist() == ref["transition_matrix"]
        assert cat_matrix.mixing_time == ref["mixing_time"]


class TestVerifyRejectsBadPartitions:
    def test_shifted_rectangle_fails(self, cat_partition):
        rects = list(cat_partition.rectangles)
        bad = rects[0]
        shifted = Rectangle(bad.rid, bad.anchor_a + Q5(Fraction(1, 10)),
                            bad.anchor_b, bad.extent_a, bad.extent_b)
        broken = MarkovPartition([shifted] + rects[1:], "constructed")
        report = verify_markov(broken)
        assert not report.ok
        assert any("overlap" in m for m in report.messages)

    def test_single_rectangle_fails(self):
        whole = Rectangle(0, Q5(0), Q5(0), Q5(1), Q5(1))
        report = verify_markov(MarkovPartition([whole], "loaded"))
        assert not report.ok


class TestTransitionMatrix:
    def test_rows_and_columns_nonzero(self, cat_matrix):
        assert cat_matrix.T.sum(axis=0).min() >= 1
        assert cat_matrix.T.sum(axis=1).min() >= 1

    def test_mixing_time(self, cat_matrix):
        a = cat_matrix.mixing_time
        assert 0 < a <= 20
        power = np.linalg.matrix_power(cat_matrix.T, 1 + a)
        assert (power > 0).all()
        if a > 1:
            smaller = np.linalg.matrix_power(cat_matrix.T, a)
            assert not (smaller > 0).all()


class TestStrips:
    @pytest.fixture
    def overlap_calls(self, monkeypatch):
        calls = []
        inner = partition_module._lattice_overlaps

        def counted(*args):
            calls.append(args)
            return inner(*args)

        monkeypatch.setattr(partition_module, "_lattice_overlaps", counted)
        return calls

    def test_built_partition_holds_every_strip(self, cat_partition,
                                               overlap_calls):
        # the build's last single-strip round computed all q^2 strips, so the
        # transition matrix and the coder read them without recomputing
        tm = transition_matrix(cat_partition)
        CatCoder(cat_partition, tm)
        assert overlap_calls == []
        assert all(len(cat_partition.strips(i, j)) == 1
                   for i, j in zip(*np.nonzero(tm.T)))

    def test_loaded_coder_computes_allowed_pairs_only(self, cat_partition,
                                                      cat_matrix,
                                                      overlap_calls):
        loaded = partition_from_json(partition_to_json(cat_partition))
        CatCoder(loaded, cat_matrix)
        allowed = {(int(i), int(j)) for i, j in zip(*np.nonzero(cat_matrix.T))}
        assert len(overlap_calls) == len(allowed)
        assert set(loaded._strips) == allowed
        assert {pair: loaded.strips(*pair) for pair in allowed} == {
            pair: cat_partition.strips(*pair) for pair in allowed}


def scan_overlaps(a0, a1, b0, b1, c0, c1, d0, d1):
    """Reference for _lattice_overlaps: every (m, n) of the float bounding
    range of the two boxes, tested exactly."""
    x_lo = float(a0 + b0) - float(c1 + d1) - 1
    x_hi = float(a1 + b1) - float(c0 + d0) + 1
    y_lo = float(a0) * MU + float(b1) * NU - float(c1) * MU - float(d0) * NU - 2
    y_hi = float(a1) * MU + float(b0) * NU - float(c0) * MU - float(d1) * NU + 2
    hits = []
    for m in range(math.floor(x_lo), math.ceil(x_hi) + 1):
        for n in range(math.floor(y_lo), math.ceil(y_hi) + 1):
            A, B = lattice_coords(m, n)
            if (min(a1, c1 + A) > max(a0, c0 + A)
                    and min(b1, d1 + B) > max(b0, d0 + B)):
                hits.append((A, B))
    return hits


q5s = st.builds(lambda a, b: Q5(Fraction(a, 20), Fraction(b, 40)),
                st.integers(-60, 60), st.integers(-40, 40))
extents = q5s.map(abs).filter(lambda v: v.sign() > 0)
# offsets from an exact contact: none, and either sign below 1e-9, rational
# and irrational (lambda_-^22 ~ 6e-10)
SLIVER = math.prod([LAMBDA_MINUS_Q] * 22, start=Q5(1))
TINY = [Q5(0), Q5(Fraction(1, 10 ** 10)), Q5(Fraction(-1, 10 ** 10)),
        SLIVER, -1 * SLIVER]


@st.composite
def box_pairs(draw):
    """Two boxes, the second free or put on a side or corner of the first
    after the translate (m, n), give or take a tiny offset."""
    a0, b0, da, db = draw(q5s), draw(q5s), draw(extents), draw(extents)
    c0, d0, dc, dd = draw(q5s), draw(q5s), draw(extents), draw(extents)
    A, B = lattice_coords(draw(st.integers(-3, 3)), draw(st.integers(-3, 3)))
    tiny = draw(st.sampled_from(TINY))
    side_a = draw(st.sampled_from((None, "lo", "hi")))
    side_b = draw(st.sampled_from((None, "lo", "hi")))
    if side_a == "hi":      # c0 + A on a1
        c0 = a0 + da - A + tiny
    elif side_a == "lo":    # c1 + A on a0
        c0 = a0 - dc - A - tiny
    if side_b == "hi":
        d0 = b0 + db - B + tiny
    elif side_b == "lo":
        d0 = b0 - dd - B - tiny
    return a0, a0 + da, b0, b0 + db, c0, c0 + dc, d0, d0 + dd


class TestLatticeOverlaps:
    @settings(deadline=None, max_examples=400)
    @given(box_pairs())
    def test_filter_matches_exact_scan(self, boxes):
        assert _lattice_overlaps(*boxes) == scan_overlaps(*boxes)

    def test_contacts_and_slivers(self):
        # unit boxes side by side after the translate (1, 2): touching
        # counts for nothing, an overlap of 1e-10 counts
        A, B = lattice_coords(1, 2)
        one = Q5(1)
        for tiny, hit in ((Q5(0), False), (Q5(Fraction(1, 10 ** 10)), False),
                          (Q5(Fraction(-1, 10 ** 10)), True)):
            c0 = one - A + tiny
            got = _lattice_overlaps(Q5(0), one, Q5(0), one,
                                    c0, c0 + one, -1 * B, one - B)
            assert ((A, B) in got) == hit
            assert got == scan_overlaps(Q5(0), one, Q5(0), one,
                                        c0, c0 + one, -1 * B, one - B)

    def test_partition_boxes_match_exact_scan(self, cat_partition):
        rects = cat_partition.rectangles
        for i, r1 in enumerate(rects):
            for r2 in rects[i:]:
                assert (_lattice_overlaps(*r1.bounds(), *r2.bounds())
                        == scan_overlaps(*r1.bounds(), *r2.bounds()))


def small_crossings(w):
    """The translates |m|, |n| <= w but the origin, as build_cat_partition
    lists them, their crossings (A, -B) and the crossings' float shadows."""
    mn = [(m, n) for m in range(-w, w + 1) for n in range(-w, w + 1)
          if (m, n) != (0, 0)]
    cross = [(A, -1 * B) for A, B in (lattice_coords(m, n) for m, n in mn)]
    fa, fb = _eigen_shadow(*np.array(mn).T)
    return mn, cross, np.stack([fa, -fb], axis=1)


def scan_first_crossing(cross, end, sign, axis, lo, hi):
    """Reference for _first_crossing: every crossing tested exactly."""
    best = None
    for p in cross:
        if lo <= p[1 - axis] <= hi:
            v = p[axis] if sign > 0 else -p[axis]
            if v >= end and (best is None or v < best):
                best = v
    return best


MN, CROSS, FCROSS = small_crossings(6)


class TestFirstCrossing:
    @settings(deadline=None, max_examples=300)
    @given(st.integers(0, 1), st.sampled_from((1, -1)),
           st.integers(0, len(CROSS) - 1), st.integers(0, len(CROSS) - 1),
           st.integers(0, len(CROSS) - 1), st.sampled_from(TINY),
           st.sampled_from(TINY), st.sampled_from(TINY))
    def test_filter_matches_exact_scan(self, axis, sign, i, j, k, t_lo, t_hi,
                                       t_end):
        # window ends and start on crossing parameters, give or take a sliver
        lo, hi = sorted((CROSS[i][1 - axis] + t_lo, CROSS[j][1 - axis] + t_hi))
        end = sign * CROSS[k][axis] + t_end
        want = scan_first_crossing(CROSS, end, sign, axis, lo, hi)
        if want is None:
            with pytest.raises(PartitionError, match="no crossing"):
                _first_crossing(MN, FCROSS, end, sign, axis, lo, hi)
        else:
            assert _first_crossing(MN, FCROSS, end, sign, axis, lo, hi) == want


class TestCoding:
    def test_fixed_point_constant_sequence(self, cat_coder):
        w = cat_coder.encode(TorusPoint(0.0, 0.0), 5)
        assert len(set(w.symbols)) == 1
        assert any(w.boundary_flags)  # (0,0) lies on the boundary set

    def test_decode_contracts_to_point(self, cat_coder):
        rng = np.random.default_rng(17)
        p = TorusPoint(rng.uniform(0, TWO_PI), rng.uniform(0, TWO_PI))
        ratios = []
        for n in (6, 10, 14):
            center, diam = cat_coder.decode(cat_coder.encode(p, n))
            d1 = min(abs(center.psi1 - p.psi1), TWO_PI - abs(center.psi1 - p.psi1))
            d2 = min(abs(center.psi2 - p.psi2), TWO_PI - abs(center.psi2 - p.psi2))
            dist = math.hypot(d1, d2)
            assert dist <= diam
            ratios.append(diam * LAMBDA_PLUS ** n)
        # C lambda_+^{-n} envelope: the scaled diameters stay bounded
        assert max(ratios) / min(ratios) < 25.0

    def test_diameter_decay_rate(self, cat_coder):
        rng = np.random.default_rng(23)
        p = TorusPoint(rng.uniform(0, TWO_PI), rng.uniform(0, TWO_PI))
        logs = []
        ns = range(4, 17)
        for n in ns:
            _, diam = cat_coder.decode(cat_coder.encode(p, n))
            logs.append(math.log(diam))
        rate = -np.polyfit(list(ns), logs, 1)[0]
        assert rate == pytest.approx(math.log(LAMBDA_PLUS), rel=0.05)

    def test_decode_monotone(self, cat_coder):
        p = TorusPoint(2.03, 4.71)
        prev = None
        for n in range(3, 12):
            _, diam = cat_coder.decode(cat_coder.encode(p, n))
            if prev is not None:
                assert diam < prev
            prev = diam

    @pytest.mark.parametrize("symbol", [-1, 19, 99])
    def test_symbol_out_of_range_rejected(self, cat_coder, symbol):
        # a depth-0 window reads sigma_0 without a transition lookup; -1
        # would read rectangle 18's cell by negative indexing
        assert len(cat_coder.partition) == 19
        message = f"^symbol {symbol} at position 0 is outside 0..18$"
        with pytest.raises(PartitionError, match=message):
            cat_coder.decode(SymbolWindow([symbol], 0))
        with pytest.raises(PartitionError, match="outside 0..18"):
            cat_coder.decode(SymbolWindow([0, symbol, 0], 1))

    def test_incompatible_window_rejected(self, cat_coder, cat_matrix):
        q = len(cat_coder.partition)
        s0 = 0
        bad = None
        for s1 in range(q):
            if not cat_matrix.T[s0, s1]:
                bad = s1
                break
        assert bad is not None
        with pytest.raises(PartitionError, match="incompatible"):
            cat_coder.decode(SymbolWindow([s0, s0, bad], 1))

    def test_negative_depth_rejected(self, cat_coder):
        with pytest.raises(ValueError, match="n must be >= 0"):
            cat_coder.encode(TorusPoint(0.3, 0.4), -1)

    @pytest.mark.parametrize("n", [True, 2.0])
    def test_non_integer_depth_rejected(self, cat_coder, n):
        with pytest.raises(ValueError, match="n must be an integer"):
            cat_coder.encode(TorusPoint(0.3, 0.4), n)

    @pytest.mark.parametrize("source", ["built", "loaded"])
    def test_decode_matches_q5_oracle(self, cat_coder, source):
        # the integer-pair decode gives the Q5 refinement's floats bit for
        # bit; the loaded coder takes its denominator from the reference
        # file, not from the build
        if source == "built":
            coder = cat_coder
        else:
            ref = json.loads(REFERENCE.read_text())
            coder = CatCoder(partition_from_json(json.dumps(ref["partition"])))
        assert coder._den == 20
        rng = np.random.default_rng(41)
        depths = set()
        for _ in range(240):
            p = TorusPoint(*rng.uniform(-2.0, 8.0, 2))
            n = int(rng.integers(1, 17))
            depths.add(n)
            window = coder.encode(p, n)
            assert coder.decode(window) == decode_q5(coder, window)
        assert depths == set(range(1, 17))

    def test_decode_pairs_match_q5_oracle_bit_for_bit(self, cat_coder,
                                                      cat_partition):
        # windows of every depth 0-16, by float.hex, on the built coder and
        # on one with every rectangle shrunk (shrunk_coder): there the
        # refinements reach past the sides of Q_{sigma_0}, so each clamp
        # cuts, and some cells lie wholly in the cut margins
        shrunk = shrunk_coder(cat_partition)
        assert np.array_equal(shrunk.matrix.T, cat_coder.matrix.T)
        rng = np.random.default_rng(5)
        taken, left = Counter(), Counter()
        empty = 0
        for i in range(1_700):
            n = i % 17
            window = cat_coder.encode(TorusPoint(*rng.uniform(0.0, TWO_PI, 2)),
                                      n)
            for coder in (cat_coder, shrunk):
                ends = refine_q5(coder, window)
                sides = coder.partition.rectangles[window.symbols[n]].bounds()
                lo_a, hi_a, lo_b, hi_b = (max(ends[0], sides[0]),
                                          min(ends[1], sides[1]),
                                          max(ends[2], sides[2]),
                                          min(ends[3], sides[3]))
                if not (hi_a > lo_a and hi_b > lo_b):
                    with pytest.raises(PartitionError,
                                       match="empty refinement cell"):
                        coder.decode(window)
                    empty += 1
                    continue
                for k, (end, side) in enumerate(zip(ends, sides)):
                    # a lower end (k even) is cut when it lies below its side
                    past = end < side if k % 2 == 0 else end > side
                    inside = end > side if k % 2 == 0 else end < side
                    taken[k] += past
                    left[k] += inside
                centre, diameter = coder.decode(window)
                want_centre, want_diameter = decode_q5(coder, window)
                assert ([centre.psi1.hex(), centre.psi2.hex(), diameter.hex()]
                        == [want_centre.psi1.hex(), want_centre.psi2.hex(),
                            want_diameter.hex()])
        assert min(taken[k] for k in range(4)) > 0
        assert min(left[k] for k in range(4)) > 0
        assert empty > 0

    def test_float_orbit_window_corrected(self, cat_coder):
        # point 1291 of default_rng(7): a float pseudo-orbit read symbols
        # [0, 6] at +15 and +16; the lattice orbit and a 60-digit mpmath
        # orbit give [12, 16]
        n = 16
        p = TorusPoint(5.7891776325331215, 5.09064171177081)
        window = cat_coder.encode(p, n)
        assert window.symbols[n + 15:] == [12, 16]
        assert not any(window.boundary_flags[n + 15:])
        X, Y = np.array(lattice_orbit(p, 2 * n + 1, n), dtype=np.uint64).T
        ids = assign_rectangles(cat_coder, (X >> 11) * 2.0 ** -53,
                                (Y >> 11) * 2.0 ** -53)
        assert ids.tolist() == window.symbols

    def test_inconsistent_windows_refused(self, cat_coder):
        w = cat_coder.encode(TorusPoint(2.03, 4.71), 3)
        with pytest.raises(ValueError, match="depth n = 2 has 5 symbols, got 7"):
            SymbolWindow(w.symbols, 2)
        with pytest.raises(ValueError, match="depth n = 3 has 7 symbols, got 6"):
            SymbolWindow(w.symbols[:-1], 3)
        with pytest.raises(ValueError, match="n must be >= 0, got -1"):
            SymbolWindow(w.symbols, -1)
        with pytest.raises(ValueError, match="n must be an integer"):
            SymbolWindow(w.symbols, 3.0)
        with pytest.raises(ValueError, match="6 boundary flags for 7 symbols"):
            SymbolWindow(w.symbols, 3, w.boundary_flags[1:])
        assert SymbolWindow(w.symbols, 3).boundary_flags == []

    def test_shift_covariance(self, cat_coder):
        rng = np.random.default_rng(31)
        for _ in range(100):
            p = TorusPoint(rng.uniform(0, TWO_PI), rng.uniform(0, TWO_PI))
            w1 = cat_coder.encode(p, 4)
            w2 = cat_coder.encode(CatSystem().step(p), 3)
            assert w1.symbols[2:] == w2.symbols


def shrunk_coder(partition, cut=Fraction(1, 1000)):
    """A coder of the partition's rectangles, each cut at both ends of both
    sides by `cut` of its extents."""
    rects = [Rectangle(r.rid, r.anchor_a + cut * r.extent_a,
                       r.anchor_b + cut * r.extent_b,
                       (1 - 2 * cut) * r.extent_a, (1 - 2 * cut) * r.extent_b)
             for r in partition.rectangles]
    return CatCoder(MarkovPartition(rects))


MU, NU, RT5 = float(MU_Q), float(NU_Q), math.sqrt(5.0)


def window_locate(boxes, x, y, tol=partition_module.BOUNDARY_TOL):
    """Brute-force oracle for CatCoder.locate, vectorised over points: every
    box translate in the window that the box's (x, y) footprint allows is
    tested with locate's expressions.  Returns (ids, flags), id -1 where no
    box holds the point.  Points are taken 2^14 at a time, which keeps the
    temporaries in cache and each window to what its points need."""
    parts = [_window_locate(boxes, x[lo:lo + (1 << 14)], y[lo:lo + (1 << 14)],
                            tol) for lo in range(0, x.size, 1 << 14)]
    return tuple(np.concatenate(part) for part in zip(*parts))


def _window_locate(boxes, x, y, tol):
    ids = np.full(x.shape, -1)
    flags = np.zeros(x.shape, dtype=bool)
    for rid, (a0, b0, da, db) in enumerate(boxes):
        ax, ay = a0 + b0, a0 * MU + b0 * NU
        m_lo, m_hi = np.floor(x - ax - (da + db)), np.floor(x - ax) + 1
        n_lo, n_hi = np.floor(y - ay - da * MU), np.floor(y - ay - db * NU) + 1
        for dm in range(int((m_hi - m_lo).max()) + 1):
            for dn in range(int((n_hi - n_lo).max()) + 1):
                m, n = m_lo + dm, n_lo + dn
                px, py = x - m, y - n
                ra = (py - NU * px) / RT5 - a0
                rb = (MU * px - py) / RT5 - b0
                hit = ((m <= m_hi) & (n <= n_hi) & (-tol <= ra) & (ra <= da + tol)
                       & (-tol <= rb) & (rb <= db + tol))
                inside = (tol < ra) & (ra < da - tol) & (tol < rb) & (rb < db - tol)
                flags |= hit & ~inside
                ids[hit & (ids < 0)] = rid
    return ids, flags


def boundary_points(partition):
    """Rectangle corners and edge points, exact in Q(sqrt5) and converted
    once: as built, reduced into [0,1)^2 and moved by the lattice vector
    (2, -3); corners also pushed off by +-0.5 and +-2 BOUNDARY_TOL along
    both eigendirections, on each side of the tolerance."""
    tol = Fraction(partition_module.BOUNDARY_TOL)
    offsets = [Q5(k * tol) for k in (Fraction(-2), Fraction(-1, 2),
                                      Fraction(1, 2), Fraction(2))]
    eigen = []
    for r in partition.rectangles:
        a0, a1, b0, b1 = r.bounds()
        corners = [(a, b) for a in (a0, a1) for b in (b0, b1)]
        eigen += corners
        for t in (Q5(Fraction(1, 3)), Q5(Fraction(1, 2))):
            eigen += [(a0 + t * r.extent_a, b0), (a0 + t * r.extent_a, b1),
                      (a0, b0 + t * r.extent_b), (a1, b0 + t * r.extent_b)]
        eigen += [(a + da, b + db) for a, b in corners
                  for da in offsets for db in offsets]
    pts = []
    for a, b in eigen:
        x, y = from_eigen(a, b)
        for px, py in ((x, y), (x.mod1(), y.mod1()), (x + 2, y - 3)):
            pts.append((float(px), float(py)))
    return np.array(pts).T


def locate_all(locate, x, y):
    """(id, flag) of locate (a CellTable's locate_lattice) at each point,
    as Python scalars; (-1, False) where it raises."""
    out = []
    for px, py in zip(x.tolist(), y.tolist()):
        try:
            out.append(locate(px, py))
        except PartitionError:
            out.append((-1, False))
    return out


def lower_id_duplicate(boxes):
    """boxes behind a new id 0: the middle quarter of the largest box."""
    k = max(range(len(boxes)), key=lambda i: boxes[i][2] * boxes[i][3])
    a0, b0, da, db = boxes[k]
    return [(a0 + da / 4, b0 + db / 4, da / 2, db / 2)] + list(boxes)


def window_pairs(boxes, x, y):
    ids, flags = window_locate(boxes, x, y)
    return list(zip(ids.tolist(), flags.tolist()))


def lattice_reads(x, y):
    """The lattice points (X, Y) of the float points (x, y), as
    assign_rectangles takes them, and their 53-bit reads."""
    X, Y = _lattice_coords53(x), _lattice_coords53(y)
    return X, Y, _lattice_read(X), _lattice_read(Y)


def check_encode_windows(coder, depths):
    """encode's window is the exact lattice window, replayed by the oracle
    one step at a time and read at 53 bits: on 2,000 points, their depths
    cycling through `depths`, assign gives its symbols, and the window
    scan its symbols and boundary flags."""
    rng = np.random.default_rng(53)
    XY, symbols, flags = [], [], []
    for i in range(2_000):
        p = TorusPoint(*rng.uniform(0.0, TWO_PI, 2))
        n = depths[i % len(depths)]
        window = coder.encode(p, n)
        symbols += window.symbols
        flags += window.boundary_flags
        XY += lattice_orbit(p, 2 * n + 1, n)
    X, Y = np.array(XY, dtype=np.uint64).T
    xs, ys = (X >> 11) * 2.0 ** -53, (Y >> 11) * 2.0 ** -53
    assert assign_rectangles(coder, xs, ys).tolist() == symbols
    ids, scan_flags = window_locate(coder._cells.boxes, xs, ys)
    assert ids.tolist() == symbols
    assert scan_flags.tolist() == flags


class TestCellTable:
    @pytest.fixture(scope="class")
    def points(self, cat_partition):
        rng = np.random.default_rng(7)
        unit = rng.uniform(0.0, 1.0, (2, 100_000))
        wide = rng.uniform(-5.0, 5.0, (2, 2_000))
        # fractional parts that round to 1.0, and integers
        odd = np.array([[-1e-17, 0.5], [0.5, -1e-17], [-1e-17, -1e-17],
                        [1.0, 1.0], [0.0, 0.0], [-3.0, 7.0], [1e6 + 0.25, -0.6]]).T
        return np.hstack([unit, wide, boundary_points(cat_partition), odd])

    def test_locate_matches_window_scan(self, cat_coder, points):
        x, y = points
        ids, flags = window_locate(cat_coder._cells.boxes, x, y)
        assert (ids >= 0).all()
        got = [cat_coder.locate(float(px), float(py)) for px, py in zip(x, y)]
        assert [g[0] for g in got] == ids.tolist()
        assert [g[1] for g in got] == flags.tolist()
        assert flags.sum() > 1000  # the boundary points do reach the flag

    def test_assign_matches_window_scan(self, cat_coder, points):
        x, y = points
        expected, _ = window_locate(cat_coder._cells.boxes, x, y)
        assert (expected >= 0).all()
        assert np.array_equal(assign_rectangles(cat_coder, x, y), expected)

    def test_holed_table_matches_window_scan(self, cat_coder, points):
        boxes = cat_coder._cells.boxes[:-1]
        X, Y, x, y = lattice_reads(*points[:, :20_000])
        expected, _ = window_locate(boxes, x, y)
        assert (expected < 0).any()
        table = CellTable(boxes)
        assert np.array_equal(table.assign_lattice(X, Y), expected)
        assert (locate_all(table.locate_lattice, X, Y)
                == window_pairs(boxes, x, y))

    def test_lower_id_duplicate_matches_window_scan(self, cat_coder, points):
        # id 0 is the middle quarter of the largest box, which now has a
        # higher id: the least-id rule decides the points they share
        boxes = lower_id_duplicate(cat_coder._cells.boxes)
        table = CellTable(boxes)
        assert (table.settled >= 0).sum() > 0
        assert (table.settled != 0).all()
        X, Y, x, y = lattice_reads(*points[:, :20_000])
        expected, _ = window_locate(boxes, x, y)
        assert (expected == 0).sum() > 100
        assert np.array_equal(table.assign_lattice(X, Y), expected)
        assert (locate_all(table.locate_lattice, X, Y)
                == window_pairs(boxes, x, y))

    @pytest.mark.slow
    def test_settled_cells_match_window_scan(self, cat_coder):
        # corners and centre of every settled subcell, none sampled, on the
        # built table, the holed one and the one with a lower-id duplicate;
        # a corner at 1 is read at 0, the same torus point
        fine = GRID * SETTLE
        boxes = cat_coder._cells.boxes
        for table in (cat_coder._cells, CellTable(boxes[:-1]),
                      CellTable(lower_id_duplicate(boxes))):
            assert table.settled.shape == (fine ** 2,)
            subcells = np.flatnonzero(table.settled >= 0)
            assert subcells.size > 0
            ix, iy = np.divmod(subcells, fine)
            for dx, dy in ((0, 0), (0, 1), (1, 0), (1, 1), (0.5, 0.5)):
                X, Y, x, y = lattice_reads((ix + dx) / fine, (iy + dy) / fine)
                ids, flags = window_locate(table.boxes, x, y)
                assert np.array_equal(ids, table.settled[subcells])
                assert not flags.any()
                assert np.array_equal(table.assign_lattice(X, Y),
                                      table.settled[subcells])

    def test_lattice_subcell_is_the_float_read_subcell(self, cat_coder):
        # X >> _SUBCELL_SHIFT is min(int(x fine), fine - 1) at the 53-bit
        # read x, on both sides of every subcell edge and at both ends of
        # [0, 2^64); on each axis the lattice queries then give what the
        # window scan gives at the reads
        fine = GRID * SETTLE
        shift = partition_module._SUBCELL_SHIFT
        edges = ([k << shift for k in range(fine)]
                 + [(k << shift) - 1 for k in range(1, fine)] + [0, 2 ** 64 - 1])
        for X in edges:
            assert X >> shift == min(int(_lattice_read(X) * fine), fine - 1)
        E = np.array(edges, dtype=np.uint64)
        assert np.array_equal(E >> shift, np.minimum(
            (_lattice_read(E) * fine).astype(int), fine - 1))
        rng = np.random.default_rng(17)
        M = rng.integers(0, 2 ** 64, E.size, dtype=np.uint64)
        table = cat_coder._cells
        for X, Y in ((E, M), (M, E)):
            x, y = _lattice_read(X), _lattice_read(Y)
            ids, _ = window_locate(table.boxes, x, y)
            assert np.array_equal(table.assign_lattice(X, Y), ids)
            assert (locate_all(table.locate_lattice, X, Y)
                    == window_pairs(table.boxes, x, y))

    def test_lattice_ids_match_float_queries(self, cat_coder):
        # assign_lattice and locate_lattice equal the window scan at the
        # 53-bit reads: on the orbits of three benchmark start points, and
        # on points drawn inside the subcells that are not settled, for the
        # built, the holed and the lower-id-duplicate tables
        fine = GRID * SETTLE
        shift = partition_module._SUBCELL_SHIFT
        boxes = cat_coder._cells.boxes
        tables = (cat_coder._cells, CellTable(boxes[:-1]),
                  CellTable(lower_id_duplicate(boxes)))
        for seed in (1, 2, 3):
            # the start point perfbench draws for this seed
            rng = np.random.default_rng(seed)
            rng.uniform(0.8, 1.25)
            start = TorusPoint(*map(float, rng.uniform(0.0, TWO_PI, 2)))
            for X, Y in _lattice_orbit(start, 100_000):
                unsettled = cat_coder._cells.settled[(X >> shift) * fine
                                                     + (Y >> shift)] < 0
                assert 0 < unsettled.sum() < X.size
                for table in tables:
                    ids, _ = window_locate(table.boxes, _lattice_read(X),
                                           _lattice_read(Y))
                    assert np.array_equal(table.assign_lattice(X, Y), ids)
        rng = np.random.default_rng(19)
        low = 1 << shift
        # the holed table misses points, the duplicate's id 0 takes some
        for table, shows in zip(tables, (lambda ids: True,
                                         lambda ids: (ids < 0).any(),
                                         lambda ids: (ids == 0).any())):
            sub = rng.choice(np.flatnonzero(table.settled < 0), 20_000)
            ix, iy = np.divmod(sub.astype(np.uint64), np.uint64(fine))
            X = ix << shift | rng.integers(0, low, sub.size, dtype=np.uint64)
            Y = iy << shift | rng.integers(0, low, sub.size, dtype=np.uint64)
            x, y = _lattice_read(X), _lattice_read(Y)
            ids = table.assign_lattice(X, Y)
            assert np.array_equal(ids, window_locate(table.boxes, x, y)[0])
            assert shows(ids)
            assert (locate_all(table.locate_lattice, X[:4_000], Y[:4_000])
                    == window_pairs(table.boxes, x[:4_000], y[:4_000]))

    def test_array_reads_equal_scalar_reads(self):
        # assign_rectangles' lattice coordinate is locate's, truncated to
        # its top 53 bits, at the edges of fmod, floor and the wrap
        tiny = 2.0 ** -1074
        edges = [-0.0, tiny, -tiny, 0.5 - 2.0 ** -54, 1 - 2.0 ** -53, -1e-17,
                 2.0 ** 53 + 2, -(2.0 ** 53 + 2), 1e300, -1e300]
        X = _lattice_coords53(np.array(edges))
        assert X.dtype == np.uint64
        assert X.tolist() == [_lattice_coord(x) >> 11 << 11 for x in edges]
        top = 2 ** 64 - 2 ** 11
        assert X.tolist() == [0, 0, top, 2 ** 63 - 2 ** 11, top, top,
                              0, 0, 0, 0]
        assert _lattice_coord(-1e-17) == 2 ** 64 - 185

    def test_huge_coordinates_read_mod_one(self, cat_coder):
        # all (0, 0) on the torus: a coordinate is read mod 1 and no
        # integer part is added back, so nothing rounds past 2^53
        want = cat_coder.locate(0.0, 0.0)
        huge = [1e17, 2.0 ** 53 + 2, -(2.0 ** 53 + 2), 1e300]
        for x in huge:
            assert cat_coder.locate(x, 0.0) == want
            assert cat_coder.locate(0.0, x) == want
        x = np.array(huge + [0.0])
        assert (assign_rectangles(cat_coder, x, x[::-1]) == want[0]).all()

    def test_locate_refuses_non_finite_point(self, cat_coder):
        cases = [(math.nan, 0.3, "x = nan"), (0.3, -math.inf, "y = -inf"),
                 (math.inf, math.nan, "x = inf")]
        for x, y, at in cases:
            with pytest.raises(ValueError,
                               match=f"^point coordinate {at} is not finite$"):
                cat_coder.locate(x, y)

    def test_assign_refuses_non_finite_point(self, cat_coder):
        ok = np.array([0.3, 0.4, 0.5])
        for x, y, at in (([0.3, math.nan, 0.2], ok, r"x\[1\] = nan"),
                         (ok, [math.nan, 0.4, math.inf], r"y\[0\] = nan"),
                         ([0.3, 0.4, -math.inf], ok, r"x\[2\] = -inf")):
            with pytest.raises(ValueError,
                               match=f"^point coordinate {at} is not finite$"):
                assign_rectangles(cat_coder, np.array(x), np.array(y))

    def test_assign_refuses_mismatched_shapes(self, cat_coder):
        # y is not broadcast against x: a y of one point would silently put
        # every point at its y
        x = np.array([0.3, 0.4, 0.5])
        for y in (np.array([0.3]), np.array([0.3, 0.4]), x[:, None]):
            with pytest.raises(ValueError, match=re.escape(
                    f"x of shape (3,) and y of shape {y.shape} differ")):
                assign_rectangles(cat_coder, x, y)

    def test_most_subcells_are_settled(self, cat_coder):
        # the fast path of locate and assign: 240,210 of the 262,144
        # subcells of the built coder
        assert (cat_coder._cells.settled >= 0).sum() == 240_210

    def test_spans_match_per_pair_build(self, cat_coder):
        # the column spans give, bit for bit, the cell lists and the
        # settled table of one test per translate and square, on the
        # built, the holed and the lower-id-duplicate tables
        boxes = cat_coder._cells.boxes
        for table in (cat_coder._cells, CellTable(boxes[:-1]),
                      CellTable(lower_id_duplicate(boxes))):
            count, cells, settled = per_pair_cell_table(table.boxes, GRID,
                                                        SETTLE)
            assert np.array_equal(table.count, count)
            assert table.cells == cells
            used = np.arange(table.cand.shape[1]) < count[:, None]
            assert table.cand[used].tolist() == [h for c in cells for h in c]
            assert table.settled.dtype == settled.dtype
            assert np.array_equal(table.settled, settled)

    def test_encode_agrees_with_locate_and_assign(self, cat_coder):
        check_encode_windows(cat_coder, [16])

    def test_encode_agrees_at_every_depth(self, cat_coder):
        check_encode_windows(cat_coder, list(range(1, 17)))

    def test_coder_pickles_and_copies(self, cat_coder):
        # the settled table is an array.array, which pickles, so a coder
        # still pickles and deep-copies, and queries the same afterwards
        p = TorusPoint(5.7891776325331215, 5.09064171177081)
        for other in (pickle.loads(pickle.dumps(cat_coder)),
                      copy.deepcopy(cat_coder)):
            assert other.encode(p, 16) == cat_coder.encode(p, 16)
            assert other.locate(0.3, 0.7) == cat_coder.locate(0.3, 0.7)

    def test_every_cell_has_a_candidate(self, cat_coder):
        # the rectangles tile the torus, so no cell of [0,1)^2 is empty
        assert cat_coder._cells.count.min() >= 1


class TestBirkhoff:
    def test_frequencies_sum_to_one(self, cat_coder):
        freqs = birkhoff_frequencies(cat_coder, TorusPoint(0.7, 1.9), 20_000)
        assert sum(freqs.values()) == pytest.approx(1.0, abs=1e-12)

    def test_no_steps_rejected(self, cat_coder):
        with pytest.raises(ValueError, match="n_steps must be >= 1"):
            birkhoff_frequencies(cat_coder, TorusPoint(0.7, 1.9), 0)

    @pytest.mark.parametrize("n_steps", [True, 1e4])
    def test_non_integer_steps_rejected(self, cat_coder, n_steps):
        with pytest.raises(ValueError, match="n_steps must be an integer"):
            birkhoff_frequencies(cat_coder, TorusPoint(0.7, 1.9), n_steps)

    def test_unlocated_point_raises(self, cat_coder):
        # without one rectangle the orbit leaves the covered set; the
        # frequencies of the rest must not be renormalised silently
        holed = copy.copy(cat_coder)
        holed._cells = CellTable(cat_coder._cells.boxes[:-1])
        with pytest.raises(PartitionError, match="not located in any rectangle"):
            birkhoff_frequencies(holed, TorusPoint(0.7, 1.9), 2_000)

    def test_unlocated_count_spans_chunks(self, cat_coder):
        # the misses of every chunk are counted, and the first is reported
        start, n = TorusPoint(1e3, -25.0), 140_001
        boxes = cat_coder._cells.boxes[:-1]
        X, Y = np.array(lattice_orbit(start, n), dtype=np.uint64).T
        ids, _ = window_locate(boxes, _lattice_read(X), _lattice_read(Y))
        out = np.flatnonzero(ids < 0)
        assert out.size and out[0] < 65_536 < out[-1]
        holed = copy.copy(cat_coder)
        holed._cells = CellTable(boxes)
        with pytest.raises(PartitionError,
                           match=f"^{out.size} of {n} .* first at step {out[0]}:"):
            birkhoff_frequencies(holed, start, n)

    @pytest.mark.parametrize("psi, n_steps", [
        ((0.7, 1.9), 5_003),            # 71 blocks of 71 steps, the last short
        ((-3.1, 7.4), 5_003),           # psi outside [0, 2 pi) on both axes
        ((1e3, -25.0), 140_001),        # several chunks of blocks
    ])
    def test_orbit_matches_stepwise_orbit(self, psi, n_steps):
        chunks = list(_lattice_orbit(TorusPoint(*psi), n_steps))
        X = np.concatenate([c[0] for c in chunks])
        Y = np.concatenate([c[1] for c in chunks])
        assert X.dtype == Y.dtype == np.uint64
        want = lattice_orbit(TorusPoint(*psi), n_steps)
        assert list(zip(X.tolist(), Y.tolist())) == want

    def test_frequencies_count_the_stepwise_orbit(self, cat_coder):
        start, n = TorusPoint(-3.1, 7.4), 5_003
        X, Y = np.array(lattice_orbit(start, n), dtype=np.uint64).T
        ids = assign_rectangles(cat_coder, (X >> 11) * 2.0 ** -53,
                                (Y >> 11) * 2.0 ** -53)
        q = len(cat_coder.partition)
        want = np.bincount(ids, minlength=q) / n
        freqs = birkhoff_frequencies(cat_coder, start, n)
        assert [freqs[i] for i in range(q)] == want.tolist()

    def test_frequencies_match_areas(self, cat_coder, cat_partition):
        freqs = birkhoff_frequencies(cat_coder, TorusPoint(2.7, 0.9), 200_000)
        areas = {r.rid: float(r.area()) for r in cat_partition.rectangles}
        worst = max(abs(freqs[i] - areas[i]) for i in freqs)
        assert worst < 0.01

    def test_pair_frequency_factorization(self, cat_coder, cat_matrix):
        # mixing: joint frequencies approach products of singles as the lag
        # grows (tested at modest statistics)
        from catflux.partition import assign_rectangles
        rng = np.random.default_rng(3)
        N = 120_000
        x = np.empty(N)
        y = np.empty(N)
        cx, cy = 0.137, 0.811
        for i in range(N):
            x[i], y[i] = cx, cy
            cx, cy = (cx + cy) % 1.0, (cx + 2 * cy) % 1.0
        sym = assign_rectangles(cat_coder, x, y)
        q = len(cat_coder.partition)
        singles = np.bincount(sym, minlength=q) / N
        devs = []
        for lag in (1, 6, 10):
            joint = np.zeros((q, q))
            for i, j in zip(sym[:-lag], sym[lag:]):
                joint[i, j] += 1
            joint /= joint.sum()
            devs.append(np.max(np.abs(joint - np.outer(singles, singles))))
        assert devs[-1] < 0.01
        assert devs[-1] < devs[0]


class TestSerialization:
    def test_round_trip(self, cat_partition):
        text = partition_to_json(cat_partition)
        loaded = partition_from_json(text)
        assert loaded.provenance == "loaded"
        assert len(loaded) == len(cat_partition)
        report = verify_markov(loaded)
        assert report.ok
        for a, b in zip(loaded.rectangles, cat_partition.rectangles):
            assert a.anchor_a == b.anchor_a
            assert a.extent_b == b.extent_b

    @pytest.mark.parametrize("damage, message", [
        (lambda items: items.reverse(), "entry 0 has id 18"),
        (lambda items: items[1].update(id=0), "entry 1 has id 0"),
        (lambda items: items[3].pop("anchor_a"),
         "entry 3 has no field 'anchor_a'"),
        (lambda items: items.__setitem__(4, 5), "entry 4 must be an object"),
        (lambda items: items[3].update(anchor_a="x"),
         "entry 3 field 'anchor_a' must be a Q5 literal 'a;b', got 'x'"),
        (lambda items: items[2].update(extent_b=5),
         "entry 2 field 'extent_b' must be a Q5 literal 'a;b', got 5"),
        (lambda items: items[0].update(anchor_b="1/0;1"),
         "entry 0 field 'anchor_b' must be a Q5 literal"),
        (lambda items: items[5].update(extent_a="-1;0"),
         "entry 5: rectangle extents must be positive"),
        (lambda items: items[1].update(id=True),
         "entry 1 field 'id' must be an integer, got True"),
        (lambda items: items[1].update(id=1.0),
         "entry 1 field 'id' must be an integer, got 1.0"),
        (lambda items: items[1].update(id="1"),
         "entry 1 field 'id' must be an integer, got '1'")],
        ids=["reversed", "duplicate-id", "missing-field", "not-an-object",
             "malformed-literal", "non-string-literal", "zero-denominator",
             "negative-extent", "bool-id", "float-id", "string-id"])
    def test_bad_entries_refused(self, damage, message):
        # ids index the transition matrix and the frequencies by position
        data = json.loads(REFERENCE.read_text())["partition"]
        damage(data["rectangles"])
        with pytest.raises(PartitionError, match=f"^rectangle {message}"):
            partition_from_json(json.dumps(data))

    @pytest.mark.parametrize("document", [{}, [], {"rectangles": 5}],
                             ids=["no-rectangles", "list",
                                  "rectangles-not-a-list"])
    def test_bad_documents_refused(self, document):
        with pytest.raises(PartitionError,
                           match="^partition document must be an object with "
                                 "a list field 'rectangles', got "):
            partition_from_json(json.dumps(document))

    def test_json_schema(self, cat_partition):
        data = json.loads(partition_to_json(cat_partition))
        assert data["provenance"] == "constructed"
        assert all({"id", "anchor_a", "anchor_b", "extent_a", "extent_b"}
                   <= set(item) for item in data["rectangles"])


# module constants that are eigendata or other fixed mathematics, not limits
EIGENDATA = re.compile(r"SQRT5|LAMBDA_\w+|NORM_\w+_SQ|V_\w+|S0|S0_INV|\w+_Q"
                       r"|TWO_PI")


class TestConstants:
    def test_subcell_shift_follows_grid(self):
        # the lattice queries index subcells by the top bits of X and Y, so
        # GRID * SETTLE must be 2^(64 - _SUBCELL_SHIFT): a change of either
        # constant fails here instead of moving every lattice id.  512 x 512
        # subcells are read from X >> 55
        assert GRID * SETTLE == 1 << (64 - partition_module._SUBCELL_SHIFT)
        assert partition_module._SUBCELL_SHIFT == 55

    def test_readme_names_every_constant(self):
        # every library module's limits are module constants, listed in README
        names = []
        for source in Path(partition_module.__file__).parent.glob("*.py"):
            names += re.findall(r"^([A-Z][A-Z0-9_]*) = ", source.read_text(),
                                re.MULTILINE)
        assert {"GRID", "ORDER_CAP", "COEFF_TOL", "P_MAX"} <= set(names)
        text = README.read_text()
        assert [n for n in names if not EIGENDATA.fullmatch(n)
                and f"`{n}`" not in text] == []
