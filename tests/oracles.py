"""Reference implementations that check the library from outside it.

Each oracle recomputes a library quantity by a route that shares none of
the code it checks: sigma from the assembled 2 x 2 Jacobian, torus
averages and recorded moments by grid quadrature, zeta(p) by a brute
Legendre maximum over a beta grid, eigen-coordinates by exact inversion,
the cumulants of sigma from periodic-orbit sums, the Birkhoff and encode
orbits step by step in Python ints, the decoded cell by Q(sqrt5)
arithmetic, and the point locator's cell lists and settled subcells by one
separating-axis test per translate and square.  The Markov partition's
faces, strips and verification messages are read one probe, one pair and
one unfiltered side at a time.  displacement evaluates the
conjugation H(psi) - psi pointwise for the defining-relation check.
eager_geometric_sum merges a geometric sum at once, in numpy and Python
ints, in the summation order the library's deferred merge must keep.  No
subcommand or library code runs them; the tests import them from here.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from catflux.conjugation import ConjugationSeries
from catflux.cumulants import CumulantTable, FactorRef, MomentEngine
from catflux.partition import (CELL_MARGIN, CatCoder, MarkovPartition,
                               SymbolWindow, _interval_cover)
from catflux.qfield import (LAMBDA_MINUS_Q, LAMBDA_PLUS_Q, MU_Q, NU_Q, Q5,
                            from_eigen, lattice_coords, lattice_from_b_shift,
                            lattice_from_eigen_shift)
from catflux.torus import CatSystem, HarmonicForce, TorusPoint
from catflux.trig import (COEFF_TOL, MAX_P, TrigPoly, V_MINUS, V_PLUS,
                          s0_power)

# shifted factor grids replay_moments_on_grid keeps at once
REPLAY_CACHE = 600
# the beta grid of legendre_oracle: [-LEGENDRE_HALFWIDTH, LEGENDRE_HALFWIDTH]
# in LEGENDRE_POINTS points
LEGENDRE_HALFWIDTH = 8.0
LEGENDRE_POINTS = 400001


def force_gradient(force: HarmonicForce, psi1: float, psi2: float
                   ) -> Tuple[float, float]:
    """(d1 f1, d2 f1) at psi, summed harmonic by harmonic."""
    d1 = sum(h.amp * h.nu[0] * math.cos(h.nu[0] * psi1 + h.nu[1] * psi2)
             for h in force.harmonics)
    d2 = sum(h.amp * h.nu[1] * math.cos(h.nu[0] * psi1 + h.nu[1] * psi2)
             for h in force.harmonics)
    return d1, d2


def sigma_from_jacobian(system: CatSystem, x: TorusPoint) -> float:
    """sigma from the assembled Jacobian; oracle for CatSystem.sigma.

    DS_eps = (1 + eps d1 f1, 1 + eps d2 f1; 1, 2).
    """
    d1, d2 = force_gradient(system.force, x.psi1, x.psi2)
    a = 1 + system.epsilon * d1
    b = 1 + system.epsilon * d2
    det = 2.0 * a - b
    if det <= 0.0:
        raise ValueError(f"map not locally invertible: det DS_eps = {det} at {x}")
    return -math.log(det)


def displacement(series: ConjugationSeries, psi1: float, psi2: float,
                 eps: float) -> Tuple[float, float]:
    """H(psi) - psi evaluated through the series' order."""
    d1 = d2 = 0.0
    w = eps
    for k in range(1, series.max_order + 1):
        hp = series.h_plus[k].evaluate(psi1, psi2)
        hm = series.h_minus[k].evaluate(psi1, psi2)
        d1 += w * (hp * V_PLUS[0] + hm * V_MINUS[0])
        d2 += w * (hp * V_PLUS[1] + hm * V_MINUS[1])
        w *= eps
    return d1, d2


def eager_geometric_sum(f: TrigPoly, ratio: float, direction: int,
                        scale: float = 1.0, max_p: int = MAX_P
                        ) -> Tuple[TrigPoly, float]:
    """scale * sum_p ratio^p f o S0^{direction p} and its tail bound,
    merged at once.

    The terms of each p with |ratio^p c| > COEFF_TOL are composed in Python
    ints and concatenated in p order; a stable lexsort and np.add.reduceat
    sum each frequency in that order, then the sum is pruned at COEFF_TOL,
    multiplied by scale and pruned again.  Those are the numbers, in that
    order, that geometric_sum's merge gives, whenever it runs.
    """
    size = np.abs(f.c)
    norm = float(size.sum())
    n1, n2, c = [], [], []
    weight = 1.0
    p = 0
    while f and p <= max_p and abs(weight) * norm > COEFF_TOL:
        live = size * abs(weight) > COEFF_TOL
        if not live.any():
            break
        a, b, cc, d = s0_power(direction * p)
        for x, y in zip(f.n1[live].tolist(), f.n2[live].tolist()):
            n1.append(a * x + cc * y)
            n2.append(b * x + d * y)
        c.append(weight * f.c[live])
        weight *= ratio
        p += 1
    tail = abs(scale) * (abs(weight) / (1.0 - abs(ratio)) * norm) if f else 0.0
    if not n1:
        return TrigPoly.zero(), tail
    n1 = np.array(n1, dtype=np.int64)
    n2 = np.array(n2, dtype=np.int64)
    c = np.concatenate(c)
    order = np.lexsort((n2, n1))
    n1, n2, c = n1[order], n2[order], c[order]
    starts = np.flatnonzero(np.r_[True, (n1[1:] != n1[:-1])
                                  | (n2[1:] != n2[:-1])])
    n1, n2, c = n1[starts], n2[starts], np.add.reduceat(c, starts)
    keep = np.abs(c) > COEFF_TOL
    n1, n2, c = n1[keep], n2[keep], c[keep]
    if scale != 1.0:
        c = c * scale
        keep = np.abs(c) > COEFF_TOL
        n1, n2, c = n1[keep], n2[keep], c[keep]
    return TrigPoly._of(n1, n2, c), tail


def eigen_coords(x: Q5, y: Q5) -> Tuple[Q5, Q5]:
    """(a, b) with (x, y) = a (1, mu) + b (1, nu); exact inversion, the
    oracle for qfield.lattice_coords."""
    sqrt5 = Q5(0, 1)
    a = (y - NU_Q * x) / sqrt5
    b = (MU_Q * x - y) / sqrt5
    return a, b


def lattice_orbit(x0: TorusPoint, n: int, back: int = 0
                  ) -> List[Tuple[int, int]]:
    """n points of the orbit of the lattice point floor(2^64 psi / 2 pi)
    mod 2^64, from `back` steps before it, each step back by
    S0^-1 = (2 -1; -1 1) and each step forward (X, Y) -> (X + Y, X + 2Y)
    mod 2^64 taken one at a time; the oracle for partition._lattice_orbit
    (back = 0) and for CatCoder.encode's window (n = 2 back + 1)."""
    X, Y = (math.floor(Fraction(psi / (2 * math.pi)) * 2 ** 64) % 2 ** 64
            for psi in (x0.psi1, x0.psi2))
    for _ in range(back):
        X, Y = (2 * X - Y) % 2 ** 64, (Y - X) % 2 ** 64
    out = []
    for _ in range(n):
        out.append((X, Y))
        X, Y = (X + Y) % 2 ** 64, (X + 2 * Y) % 2 ** 64
    return out


def per_pair_cell_table(boxes: List[Tuple[float, float, float, float]],
                        grid: int, settle: int
                        ) -> Tuple[np.ndarray, List[List[List[int]]],
                                   np.ndarray]:
    """(count, cells, settled) of partition.CellTable with grid cells and
    settle subcells per side, square by square: the oracle for its column
    spans.

    Each box translate (rid, m, n) whose footprint, padded by a cell, meets
    [0,1)^2 is tested against every cell of that padded block, eight
    translates at a time; a cell lists the translates that meet it, in
    (rid, m, n) order.  Each subcell is tested against every translate of
    its cell's list, 4,096 subcells at a time, and is settled to the id of
    the one translate that meets it when that translate holds it.
    """
    box = np.array(boxes, dtype=float).reshape(-1, 4)
    rows = []
    for rid, (bx0, bx1, by0, by1) in enumerate(
            _box_footprints(box, 0, 0)[:4].T.tolist()):
        for m in range(math.floor(-bx1), math.ceil(1.0 - bx0) + 1):
            for n in range(math.floor(-by1), math.ceil(1.0 - by0) + 1):
                ix0, ix1 = (min(grid, max(0, math.floor(grid * v)))
                            for v in (bx0 + m - 1 / grid, bx1 + m + 2 / grid))
                iy0, iy1 = (min(grid, max(0, math.floor(grid * v)))
                            for v in (by0 + n - 1 / grid, by1 + n + 2 / grid))
                if ix0 < ix1 and iy0 < iy1:
                    rows.append((rid, m, n, ix0, ix1 - ix0, iy0, iy1 - iy0))
    rid, m, n, ix0, wx, iy0, wy = np.array(rows, dtype=int).reshape(-1, 7).T
    foot = _box_footprints(box[rid], m, n)
    found = [np.zeros((2, 0), dtype=int)]
    for lo in range(0, rid.size, 8):
        t, j = _ragged_pairs(wx[lo:lo + 8] * wy[lo:lo + 8])
        t += lo
        cell = (ix0[t] + j // wy[t]) * grid + iy0[t] + j % wy[t]
        x0, y0 = np.divmod(cell, grid)
        meets, _ = _square_tests(x0 / grid, y0 / grid, 1.0 / grid,
                                 foot[:, t])
        found.append(np.stack([cell[meets], t[meets]]))
    cell, t = np.concatenate(found, axis=1)
    order = np.argsort(cell, kind="stable")
    t, cell = t[order], cell[order]
    count = np.bincount(cell, minlength=grid ** 2)
    first = np.cumsum(count) - count
    slots = np.zeros((grid ** 2, count.max()), dtype=int)
    slots[cell, np.arange(cell.size) - first[cell]] = t
    hits = np.stack([rid, m, n], axis=1)[t].tolist()
    cells = [hits[i:i + k] for i, k in zip(first.tolist(), count.tolist())]
    fine, band = grid * settle, 4096
    settled = np.full(fine ** 2, -1,
                      dtype=np.min_scalar_type(-1 - len(boxes)))
    for lo in range(0, fine ** 2, band):
        ix, iy = np.divmod(np.arange(lo, lo + band), fine)
        cell = ix // settle * grid + iy // settle
        sub, slot = _ragged_pairs(count[cell])
        t = slots[cell[sub], slot]
        meets, holds = _square_tests(ix[sub] / fine, iy[sub] / fine,
                                     1.0 / fine, foot[:, t])
        one = np.bincount(sub, weights=meets, minlength=band) == 1
        sure = one[sub] & meets & holds
        settled[lo + sub[sure]] = rid[t[sure]]
    return count, cells, settled


def _ragged_pairs(k: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(i, j) for every j < k[i], i ascending."""
    i = np.repeat(np.arange(k.size), k)
    return i, np.arange(i.size) - np.repeat(np.cumsum(k) - k, k)


def _box_footprints(box: np.ndarray, m, n) -> np.ndarray:
    """Rows x0, x1, y0, y1, a0, a1, b0, b1: the (x, y) and eigen-coordinate
    ranges of the box translates, box rows (a0, b0, da, db) shifted by the
    lattice vectors (m, n), with the library's float expressions."""
    mu, nu, rt5 = float(MU_Q), float(NU_Q), math.sqrt(5.0)
    a0, b0, da, db = box.T
    A, B = (n - nu * m) / rt5, (mu * m - n) / rt5
    return np.stack([a0 + b0 + m, a0 + da + b0 + db + m,
                     a0 * mu + (b0 + db) * nu + n, (a0 + da) * mu + b0 * nu + n,
                     a0 + A, a0 + da + A, b0 + B, b0 + db + B])


def _square_tests(x0, y0, side: float, foot: np.ndarray
                  ) -> Tuple[np.ndarray, np.ndarray]:
    """(meets, holds) of the squares [x0, x0 + side] x [y0, y0 + side] and
    the translates of the _box_footprints rows foot, pair by pair.

    meets: the two parallelograms come within CELL_MARGIN of each other on
    each of the four separating axes, x, y, a and b.  holds: the square's
    eigen-coordinate bounding box lies CELL_MARGIN inside the translate.
    """
    mu, nu, rt5 = float(MU_Q), float(NU_Q), math.sqrt(5.0)
    eps = CELL_MARGIN
    fx0, fx1, fy0, fy1, fa0, fa1, fb0, fb1 = foot
    x1, y1 = x0 + side, y0 + side
    # the squares' eigen-coordinate ranges (mu > 0 > nu)
    ca0, ca1 = (y0 - nu * x0) / rt5, (y1 - nu * x1) / rt5
    cb0, cb1 = (mu * x0 - y1) / rt5, (mu * x1 - y0) / rt5
    meets = ((x0 <= fx1 + eps) & (fx0 <= x1 + eps)
             & (y0 <= fy1 + eps) & (fy0 <= y1 + eps)
             & (ca0 <= fa1 + eps) & (fa0 <= ca1 + eps)
             & (cb0 <= fb1 + eps) & (fb0 <= cb1 + eps))
    holds = ((fa0 + eps <= ca0) & (ca1 <= fa1 - eps)
             & (fb0 + eps <= cb0) & (cb1 <= fb1 - eps))
    return meets, holds


def _shadow(m, n) -> Tuple[float, float]:
    """The library's float eigen-coordinates of the lattice vector (m, n)."""
    mu, nu, rt5 = float(MU_Q), float(NU_Q), math.sqrt(5.0)
    return (n - nu * m) / rt5, (mu * m - n) / rt5


def per_pair_lattice_overlaps(a0, a1, b0, b1, c0, c1, d0, d1
                              ) -> List[Tuple[Q5, Q5]]:
    """partition._lattice_overlaps of one pair of boxes, (m, n) by (m, n):
    the translates (A, B) giving open overlap of [a0,a1]x[b0,b1] with
    [c0,c1]x[d0,d1] + (A, B), in (m, n) order.  Each (m, n) of the window
    on the float bounds, widened by CELL_MARGIN, is tested by its shadow,
    and exactly where the shadow passes."""
    mu, nu = float(MU_Q), float(NU_Q)
    fa0, fa1, fb0, fb1, fc0, fc1, fd0, fd1 = map(
        float, (a0, a1, b0, b1, c0, c1, d0, d1))
    eps = CELL_MARGIN
    a_lo, a_hi = fa0 - fc1 - eps, fa1 - fc0 + eps
    b_lo, b_hi = fb0 - fd1 - eps, fb1 - fd0 + eps
    hits = []
    for m in range(math.floor(a_lo + b_lo), math.ceil(a_hi + b_hi) + 1):
        for n in range(math.floor(mu * a_lo + nu * b_hi),
                       math.ceil(mu * a_hi + nu * b_lo) + 1):
            fa, fb = _shadow(m, n)
            if not (a_lo < fa < a_hi and b_lo < fb < b_hi):
                continue
            A, B = lattice_coords(m, n)
            if (min(a1, c1 + A) > max(a0, c0 + A)
                    and min(b1, d1 + B) > max(b0, d0 + B)):
                hits.append((A, B))
    return hits


def per_probe_extract_rectangles(u_minus: Q5, u_plus: Q5, s_minus: Q5,
                                 s_plus: Q5, mn: np.ndarray,
                                 fcoords: np.ndarray
                                 ) -> List[Tuple[Q5, Q5, Q5, Q5]]:
    """(anchor_a, anchor_b, extent_a, extent_b) of the rectangles of
    partition._extract_rectangles, probe by probe: the oracle for its
    broadcast probes and its deduplication by translate keys.

    One probe up and to the right of each crossing of a vertical piece
    near the canonical region with a horizontal piece reads the nearest
    covering piece on each side, by four masks over the pieces; every
    distinct set of four walls is snapped to its Q5 values and kept by the
    translate of its box whose center lies in [0,1)^2.
    """
    um, up, sm, sp = map(float, (u_minus, u_plus, s_minus, s_plus))
    fa, fb = fcoords.T
    amax = 2.0 + 1.5 * (um + up)
    bmax = 2.0 + 1.5 * (sm + sp)
    vert_n = np.flatnonzero((np.abs(fa) <= amax) & (fb + sp >= -bmax)
                            & (fb - sm <= bmax))
    horiz_n = np.flatnonzero((np.abs(fb) <= bmax) & (fa + up >= -amax)
                             & (fa - um <= amax))
    va, vlo, vhi = fa[vert_n], fb[vert_n] - sm, fb[vert_n] + sp
    hb, hlo, hhi = fb[horiz_n], fa[horiz_n] - um, fa[horiz_n] + up
    delta = 1e-7
    guard = 1e-10
    walls = set()
    for i in np.flatnonzero(np.abs(va) <= 1.1):
        cross = ((hlo - 1e-12 <= va[i]) & (va[i] <= hhi + 1e-12)
                 & (vlo[i] - 1e-12 <= hb) & (hb <= vhi[i] + 1e-12)
                 & (np.abs(hb) <= 1.5))
        for j in np.flatnonzero(cross):
            a, b = va[i] + delta, hb[j] + delta
            vcover = (vlo - guard <= b) & (b <= vhi + guard)
            left = np.flatnonzero(vcover & (va < a - guard))
            right = np.flatnonzero(vcover & (va > a + guard))
            hcover = (hlo - guard <= a) & (a <= hhi + guard)
            below = np.flatnonzero(hcover & (hb < b - guard))
            above = np.flatnonzero(hcover & (hb > b + guard))
            if not (len(left) and len(right) and len(below) and len(above)):
                continue
            walls.add((vert_n[left[np.argmax(va[left])]],
                       vert_n[right[np.argmin(va[right])]],
                       horiz_n[below[np.argmax(hb[below])]],
                       horiz_n[above[np.argmin(hb[above])]]))
    faces = set()
    for left, right, below, above in walls:
        a0, a1 = (lattice_coords(*mn[k].tolist())[0] for k in (left, right))
        b0, b1 = (lattice_coords(*mn[k].tolist())[1] for k in (below, above))
        x, y = from_eigen(a0 + (a1 - a0) / 2, b0 + (b1 - b0) / 2)
        A, B = lattice_coords(x.floor(), y.floor())
        faces.add((a0 - A, b0 - B, a1 - a0, b1 - b0))
    return sorted(faces)


def unfiltered_uncovered_sides(
        sides: List[Tuple[Q5, Q5, Q5, int]],
        lattice_from_shift: Callable[[Q5], Optional[Tuple[int, int]]],
        along: int) -> List[Tuple[Q5, int]]:
    """(c, rid) of the sides (c, lo, hi, rid) whose image, at constant
    lambda_+ c over lambda_- [lo, hi], is not covered by lattice translates
    of the sides: every pair of sides shifted in Q5, every shifted side
    handed to the library's covering test.  The oracle for
    partition._uncovered_sides' integer shifts and float filter."""
    bad = []
    for c, lo, hi, rid in sides:
        ic = LAMBDA_PLUS_Q * c
        pieces = []
        for c2, lo2, hi2, _ in sides:
            mn = lattice_from_shift(ic - c2)
            if mn is not None:
                t = lattice_coords(*mn)[along]
                pieces.append((lo2 + t, hi2 + t))
        if not _interval_cover(LAMBDA_MINUS_Q * lo, LAMBDA_MINUS_Q * hi,
                               pieces):
            bad.append((c, rid))
    return bad


def per_pair_verify_messages(partition: MarkovPartition) -> List[str]:
    """The messages of partition.verify_markov, in its order, from
    per_pair_lattice_overlaps and unfiltered_uncovered_sides."""
    msgs = []
    rects = partition.rectangles
    total = sum((r.area() for r in rects), Q5(0))
    if not total == Q5(1):
        msgs.append(f"areas sum to {float(total):.12f}, not 1")
    for i, r1 in enumerate(rects):
        for r2 in rects[i:]:
            for A, _ in per_pair_lattice_overlaps(*r1.bounds(), *r2.bounds()):
                mn = lattice_from_eigen_shift(A)
                if r1 is r2 and mn == (0, 0):
                    continue
                msgs.append(f"interiors of R{r1.rid} and R{r2.rid} overlap "
                            f"(translate {mn})")
    stable, unstable = [], []
    for r in rects:
        a0, a1, b0, b1 = r.bounds()
        stable += [(a0, b0, b1, r.rid), (a1, b0, b1, r.rid)]
        unstable += [(b0, a0, a1, r.rid), (b1, a0, a1, r.rid)]
    msgs += [f"S(stable side a={float(c):.6f} of R{rid}) not contained in "
             "stable boundary" for c, rid in unfiltered_uncovered_sides(
                 stable, lattice_from_eigen_shift, 1)]
    msgs += [f"S^-1(unstable side b={float(c):.6f} of R{rid}) not contained "
             "in unstable boundary" for c, rid in unfiltered_uncovered_sides(
                 unstable, lattice_from_b_shift, 0)]
    return msgs


def refine_q5(coder: CatCoder, window: SymbolWindow
              ) -> Tuple[Q5, Q5, Q5, Q5]:
    """The ends (lo_a, hi_a, lo_b, hi_b) of CatCoder.decode's refinement
    of an admissible window before the clamp to Q_{sigma_0}, by affine
    refinement in Q5 from the strips of the partition: a -> lambda_- a + A
    forward from sigma_n and b -> lambda_- (b - B) backward from
    sigma_{-n}."""
    n = window.n
    sym = window.symbols
    rects = coder.partition.rectangles
    strips = coder.partition.strips
    lm = LAMBDA_MINUS_Q
    r_last = rects[sym[2 * n]]
    lo_a, hi_a = r_last.anchor_a, r_last.anchor_a + r_last.extent_a
    for j in range(2 * n - 1, n - 1, -1):
        A, _ = strips(sym[j], sym[j + 1])[0]
        lo_a = lm * lo_a + A
        hi_a = lm * hi_a + A
    r_first = rects[sym[0]]
    lo_b, hi_b = r_first.anchor_b, r_first.anchor_b + r_first.extent_b
    for j in range(n):
        _, B = strips(sym[j], sym[j + 1])[0]
        lo_b = lm * (lo_b - B)
        hi_b = lm * (hi_b - B)
    return lo_a, hi_a, lo_b, hi_b


def decode_q5(coder: CatCoder, window: SymbolWindow
              ) -> Tuple[TorusPoint, float]:
    """CatCoder.decode's cell of an admissible window in Q5: refine_q5's
    ends clamped to Q_{sigma_0}; (centre, diameter) as decode converts
    them."""
    lo_a, hi_a, lo_b, hi_b = refine_q5(coder, window)
    r0 = coder.partition.rectangles[window.symbols[window.n]]
    lo_a = max(lo_a, r0.anchor_a)
    hi_a = min(hi_a, r0.anchor_a + r0.extent_a)
    lo_b = max(lo_b, r0.anchor_b)
    hi_b = min(hi_b, r0.anchor_b + r0.extent_b)
    x, y = from_eigen((lo_a + hi_a) / Q5(2), (lo_b + hi_b) / Q5(2))
    two_pi = 2.0 * math.pi
    center = TorusPoint(float(x.mod1()) * two_pi, float(y.mod1()) * two_pi)
    da = float(hi_a - lo_a) * math.sqrt(1.0 + float(MU_Q) ** 2)
    db = float(hi_b - lo_b) * math.sqrt(1.0 + float(NU_Q) ** 2)
    return center, math.hypot(da, db) * two_pi


def quadrature_average(f: TrigPoly, n: int = 256) -> float:
    """Brute-force torus average by the n x n midpoint rule.

    Exact for trig polynomials with all |nu| < n (below the Nyquist limit);
    the independent oracle against TrigPoly.average().
    """
    theta = 2.0 * math.pi * (np.arange(n) + 0.5) / n
    g1, g2 = np.meshgrid(theta, theta, indexing="ij")
    return float(f.evaluate(g1, g2).mean())


def legendre_oracle(table: CumulantTable, eps: float, p: float) -> float:
    """Numerical max_beta [beta <sigma> (p-1) - lambda(beta)] on a fine grid.

    Independent of the coefficient pipeline; used to validate zeta(p).
    """
    s = table.mean_total(eps)
    betas = np.linspace(-LEGENDRE_HALFWIDTH, LEGENDRE_HALFWIDTH,
                        LEGENDRE_POINTS)
    lam_vals = np.zeros_like(betas)
    for n_c in table.C:
        cn = sum(v * eps ** m for m, v in table.C[n_c].items())
        lam_vals += cn * betas ** n_c / math.factorial(n_c)
    return float(np.max(betas * s * (p - 1.0) - lam_vals))


@dataclass(frozen=True)
class ReplayReport:
    count: int
    worst: float
    aliased: int = 0
    worst_escalated: float = 0.0


def replay_moments_on_grid(engine: MomentEngine, n: int = 256,
                           limit: Optional[int] = None,
                           escalate_n: Optional[int] = None
                           ) -> ReplayReport:
    """Re-evaluate recorded moments by the n x n uniform-grid quadrature.

    On the uniform grid the sample values equal the inverse DFT of the
    alias-folded coefficient array, and composition with S0^l is the exact
    grid permutation (i,j) -> S0^l (i,j) mod n; the oracle is therefore
    pure function evaluation plus an arithmetic mean, independent of the
    frequency selection rules.  An n-point grid cannot distinguish
    frequencies congruent mod n (aliasing), so moments whose factors carry
    super-Nyquist frequencies may genuinely disagree; with escalate_n set,
    each deviating moment is re-checked on that (coprime) grid and counted
    as alias-explained when it agrees there.
    """
    base_grids: Dict[int, np.ndarray] = {}
    idx = np.arange(n)
    I, J = np.meshgrid(idx, idx, indexing="ij")
    shifted_cache: Dict[FactorRef, np.ndarray] = {}

    def base_grid(bid: int) -> np.ndarray:
        g = base_grids.get(bid)
        if g is None:
            # on the uniform grid the sample values are exactly the inverse
            # DFT of the alias-folded coefficient array
            folded = np.zeros((n, n), dtype=complex)
            poly = engine.bases[bid]
            np.add.at(folded, (poly.n1 % n, poly.n2 % n), poly.c)
            g = np.real(np.fft.ifft2(folded)) * n * n
            base_grids[bid] = g
        return g

    def grid_for(ref: FactorRef) -> np.ndarray:
        bid, shift = ref
        if shift == 0:
            return base_grid(bid)
        cached = shifted_cache.get(ref)
        if cached is None:
            a, b, c, d = s0_power(shift)
            I2 = ((a % n) * I + (b % n) * J) % n
            J2 = ((c % n) * I + (d % n) * J) % n
            cached = base_grid(bid)[I2, J2]
            if len(shifted_cache) >= REPLAY_CACHE:
                shifted_cache.pop(next(iter(shifted_cache)))
            shifted_cache[ref] = cached
        return cached

    items = sorted(engine.moments.items())
    if limit is not None and len(items) > limit:
        items = items[:limit]
    worst = 0.0
    deviating: List[Tuple[Tuple[FactorRef, ...], float]] = []
    for refs, exact in items:
        prod = None
        for ref in refs:
            g = grid_for(ref)
            prod = g.copy() if prod is None else prod.__imul__(g)
        approx = float(prod.mean()) if prod is not None else 1.0
        dev = abs(approx - exact)
        if dev > 1e-8 and escalate_n is not None:
            deviating.append((refs, exact))
        else:
            worst = max(worst, dev)
    aliased = 0
    worst_escalated = 0.0
    if deviating and escalate_n is not None:
        # re-check only the deviating moments on the finer coprime grid
        view = MomentEngine()
        view.bases = engine.bases
        view.moments = dict(deviating)
        fine = replay_moments_on_grid(view, escalate_n)
        aliased = len(deviating)
        worst_escalated = fine.worst
    return ReplayReport(len(items), worst, aliased, worst_escalated)


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
