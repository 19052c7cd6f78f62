"""Markov-partition coding for the unperturbed cat map.

The partition is built from one unstable and one stable segment through the
fixed point (0,0), each extended until its endpoints land on the opposite
segment (first crossings).  Both segments lie along eigendirections, so the
boundary set is forward/backward invariant by construction; the closure of
the endpoints is what makes the complement decompose into parallelogram
rectangles.  All geometry is exact in Q(sqrt5), in "eigen-coordinates"
(a, b) where a point is a e_u + b e_s with e_u = (1, mu), e_s = (1, nu); the
torus is R^2 / Z^2 in lattice units (angles = 2 pi x).

In eigen-coordinates the map is diagonal (a -> lambda_+ a, b -> lambda_- b),
rectangles are axis-aligned boxes, and the crossing set of the two master
lines is indexed by the lattice: the translate (m, n) meets the unstable
line at parameter A(m,n) and the stable one at -B(m,n), with (A, B) the
eigen-coordinates of (m, n).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from .qfield import (LAMBDA_MINUS_Q, LAMBDA_PLUS_Q, MU_Q, NU_Q, Q5,
                     from_eigen, lattice_coords, lattice_from_b_shift,
                     lattice_from_eigen_shift)
from .torus import TorusPoint
from .trig import s0_power

TWO_PI = 2.0 * math.pi

# physical edge lengths per unit of eigen-coordinate (lattice units)
_EU_LEN = math.sqrt(1.0 + float(MU_Q) ** 2)
_ES_LEN = math.sqrt(1.0 + float(NU_Q) ** 2)


class PartitionError(RuntimeError):
    pass


@dataclass(frozen=True)
class Rectangle:
    """An S-rectangle: an axis-aligned box in eigen-coordinates.

    anchor_a/anchor_b locate the min-corner in the plane; extents are the
    box sides in eigen-units.  anchor_xy gives the same corner on the torus
    in lattice units (exact).
    """

    rid: int
    anchor_a: Q5
    anchor_b: Q5
    extent_a: Q5
    extent_b: Q5

    def __post_init__(self):
        if self.extent_a.sign() <= 0 or self.extent_b.sign() <= 0:
            raise ValueError("rectangle extents must be positive")

    @property
    def anchor_xy(self) -> Tuple[Q5, Q5]:
        return from_eigen(self.anchor_a, self.anchor_b)

    def area(self) -> Q5:
        """Torus area in lattice units: da * db * sqrt5."""
        return self.extent_a * self.extent_b * Q5(0, 1)

    def u_extent_angle(self) -> float:
        """Physical side length along the unstable direction, in radians."""
        return float(self.extent_a) * _EU_LEN * TWO_PI

    def s_extent_angle(self) -> float:
        return float(self.extent_b) * _ES_LEN * TWO_PI

    def corners_xy(self) -> List[Tuple[float, float]]:
        pts = []
        for da, db in ((Q5(0), Q5(0)), (self.extent_a, Q5(0)),
                       (self.extent_a, self.extent_b), (Q5(0), self.extent_b)):
            x, y = from_eigen(self.anchor_a + da, self.anchor_b + db)
            pts.append((float(x), float(y)))
        return pts


@dataclass
class MarkovPartition:
    rectangles: List[Rectangle]
    provenance: str = "constructed"
    u_plus: Optional[Q5] = None
    u_minus: Optional[Q5] = None
    s_plus: Optional[Q5] = None
    s_minus: Optional[Q5] = None

    def total_area(self) -> Q5:
        total = Q5(0)
        for r in self.rectangles:
            total = total + r.area()
        return total

    def __len__(self) -> int:
        return len(self.rectangles)


# ----------------------------------------------------------------------
# construction
# ----------------------------------------------------------------------
def _crossings(window: int) -> List[Tuple[Q5, Q5, int, int]]:
    """All torus crossings of the two master lines with |m|, |n| <= window.

    Returns (t, s, m, n): the unstable-line parameter t = A(m,n) and the
    stable-line parameter s = -B(m,n).
    """
    out = []
    for m in range(-window, window + 1):
        for n in range(-window, window + 1):
            if m == 0 and n == 0:
                continue
            A, B = lattice_coords(m, n)
            out.append((A, -1 * B, m, n))
    return out


def _close_endpoints(u_minus: Q5, u_plus: Q5, s_minus: Q5, s_plus: Q5,
                     cross, max_rounds: int = 64) -> Tuple[Q5, Q5, Q5, Q5]:
    """Monotone endpoint closure: each segment end is pushed out to the
    first crossing whose partner parameter lies inside the current opposite
    segment.  Extending a segment never invalidates a closed endpoint, so
    the loop terminates or hits max_rounds.
    """

    def valid_u(t_end: Q5, sign: int) -> bool:
        for t, s, _, _ in cross:
            if t == t_end * sign and -1 * s_minus <= s <= s_plus:
                return True
        return False

    def valid_s(s_end: Q5, sign: int) -> bool:
        for t, s, _, _ in cross:
            if s == s_end * sign and -1 * u_minus <= t <= u_plus:
                return True
        return False

    def next_u(t_end: Q5, sign: int) -> Q5:
        best = None
        for t, s, _, _ in cross:
            tv = t * sign
            if tv >= t_end and -1 * s_minus <= s <= s_plus:
                if best is None or tv < best:
                    best = tv
        if best is None:
            raise PartitionError(
                "no crossing available to close an unstable endpoint; "
                f"extents u=({float(u_minus):.3f},{float(u_plus):.3f}) "
                f"s=({float(s_minus):.3f},{float(s_plus):.3f})")
        return best

    def next_s(s_end: Q5, sign: int) -> Q5:
        best = None
        for t, s, _, _ in cross:
            sv = s * sign
            if sv >= s_end and -1 * u_minus <= t <= u_plus:
                if best is None or sv < best:
                    best = sv
        if best is None:
            raise PartitionError("no crossing available to close a stable endpoint")
        return best

    for _ in range(max_rounds):
        changed = False
        if not valid_u(u_plus, +1):
            u_plus = next_u(u_plus, +1)
            changed = True
        if not valid_u(u_minus, -1):
            u_minus = next_u(u_minus, -1)
            changed = True
        if not valid_s(s_plus, +1):
            s_plus = next_s(s_plus, +1)
            changed = True
        if not valid_s(s_minus, -1):
            s_minus = next_s(s_minus, -1)
            changed = True
        if not changed:
            return u_minus, u_plus, s_minus, s_plus
    raise PartitionError(
        f"endpoint closure did not converge in {max_rounds} rounds: "
        f"u=({float(u_minus):.4f},{float(u_plus):.4f}) "
        f"s=({float(s_minus):.4f},{float(s_plus):.4f})")


def _strip_multiplicity(r1: Rectangle, r2: Rectangle) -> Tuple[int, bool, bool]:
    """Number of lattice translates with int r1 meeting int S^{-1} r2.

    Also reports whether distinct translates differ in the a- or the
    b-direction (which decides the refinement direction).
    """
    pa0 = LAMBDA_MINUS_Q * r2.anchor_a
    pa1 = LAMBDA_MINUS_Q * (r2.anchor_a + r2.extent_a)
    pb0 = LAMBDA_PLUS_Q * r2.anchor_b
    pb1 = LAMBDA_PLUS_Q * (r2.anchor_b + r2.extent_b)
    hits = _lattice_overlaps(r1.anchor_a, r1.anchor_a + r1.extent_a,
                             r1.anchor_b, r1.anchor_b + r1.extent_b,
                             pa0, pa1, pb0, pb1)
    a_dup = len({h[0] for h in hits}) > 1
    b_dup = len({h[1] for h in hits}) > 1
    return len(hits), a_dup, b_dup


def build_cat_partition(max_refinements: int = 8,
                        lattice_window: int = 30) -> MarkovPartition:
    """Stable/unstable segments through the fixed point, refined to Markov.

    Stage 1 closes the four segment endpoints on first crossings with the
    opposite segment.  Stage 2 enforces the single-strip property (each
    int Q_i meets each S^{-1} int Q_j in at most one connected component):
    a violation in the a-direction means map images wrap around and re-cut
    the same rectangle, which is cured by pulling the stable boundary back
    one step (extents scaled by lambda_+, i.e. refining by S^{-1}P), and
    symmetrically for the b-direction with the unstable boundary.  Without
    stage 2 the boundary-invariance conditions still hold but compatible
    words would name several cells and the coding would not separate points
    (the subshift entropy comes out below log lambda_+).
    """
    cross = _crossings(lattice_window)
    eps0 = Q5(Fraction(1, 10))
    u_minus = u_plus = s_minus = s_plus = eps0

    for _ in range(max_refinements):
        u_minus, u_plus, s_minus, s_plus = _close_endpoints(
            u_minus, u_plus, s_minus, s_plus, cross)
        rects = _extract_rectangles(u_minus, u_plus, s_minus, s_plus,
                                    lattice_window)
        part = MarkovPartition(rects, "constructed", u_plus, u_minus,
                               s_plus, s_minus)
        total = part.total_area()
        if not total == Q5(1):
            raise PartitionError(
                f"extracted rectangles cover area {float(total):.12f} != 1; "
                "geometry dump: " + "; ".join(
                    f"R{r.rid}: a0={float(r.anchor_a):.6f} "
                    f"b0={float(r.anchor_b):.6f} da={float(r.extent_a):.6f} "
                    f"db={float(r.extent_b):.6f}" for r in rects))
        need_a = need_b = False
        for r1 in rects:
            for r2 in rects:
                count, a_dup, b_dup = _strip_multiplicity(r1, r2)
                if count > 1:
                    need_a = need_a or a_dup
                    need_b = need_b or b_dup
        if not (need_a or need_b):
            return part
        if need_a:
            s_minus = LAMBDA_PLUS_Q * s_minus
            s_plus = LAMBDA_PLUS_Q * s_plus
        if need_b:
            u_minus = LAMBDA_PLUS_Q * u_minus
            u_plus = LAMBDA_PLUS_Q * u_plus
    raise PartitionError(
        f"single-strip refinement did not settle in {max_refinements} rounds")


def _segment_tables(u_minus: Q5, u_plus: Q5, s_minus: Q5, s_plus: Q5,
                    window: int):
    """Boundary segments of all lattice translates near the origin.

    Horizontal (unstable) pieces: b = B(m,n), a in [A - u-, A + u+];
    vertical (stable) pieces: a = A(m,n), b in [B - s-, B + s+].
    """
    horiz = []
    vert = []
    for m in range(-window, window + 1):
        for n in range(-window, window + 1):
            A, B = lattice_coords(m, n)
            horiz.append((B, A - u_minus, A + u_plus))
            vert.append((A, B - s_minus, B + s_plus))
    return horiz, vert


def _extract_rectangles(u_minus: Q5, u_plus: Q5, s_minus: Q5, s_plus: Q5,
                        window: int) -> List[Rectangle]:
    """Probe next to every boundary crossing; snap walls exactly.

    The boundary pieces near the fundamental domain form an axis-aligned
    arrangement in eigen-coordinates; every rectangle has a corner at some
    crossing of a vertical and a horizontal piece, so probing the four
    quadrants around each crossing finds every component.  The probe only
    chooses which walls to read off; the box coordinates themselves are
    snapped to the exact Q5 wall values, deduplicated by the canonical
    (center reduced into [0,1)^2) representative.
    """
    horiz, vert = _segment_tables(u_minus, u_plus, s_minus, s_plus, window)
    # generous piece region: canonical neighborhood padded by segment spans
    amax = 2.0 + 1.5 * float(u_minus + u_plus)
    bmax = 2.0 + 1.5 * float(s_minus + s_plus)
    vert_n = [(a, lo, hi) for a, lo, hi in vert
              if abs(float(a)) <= amax and float(hi) >= -bmax and float(lo) <= bmax]
    horiz_n = [(b, lo, hi) for b, lo, hi in horiz
               if abs(float(b)) <= bmax and float(hi) >= -amax and float(lo) <= amax]
    va = np.array([float(a) for a, _, _ in vert_n])
    vlo = np.array([float(lo) for _, lo, _ in vert_n])
    vhi = np.array([float(hi) for _, _, hi in vert_n])
    hb = np.array([float(b) for b, _, _ in horiz_n])
    hlo = np.array([float(lo) for _, lo, _ in horiz_n])
    hhi = np.array([float(hi) for _, _, hi in horiz_n])

    # probes: four quadrants around every crossing near the canonical region
    probes: List[Tuple[float, float]] = []
    delta = 1e-7
    for i in np.where(np.abs(va) <= 1.1)[0]:
        mask = (hlo - 1e-12 <= va[i]) & (va[i] <= hhi + 1e-12) & (np.abs(hb) <= 1.5)
        for j in np.where(mask)[0]:
            if vlo[i] - 1e-12 <= hb[j] <= vhi[i] + 1e-12:
                for da in (-delta, delta):
                    for db in (-delta, delta):
                        probes.append((va[i] + da, hb[j] + db))

    guard = 1e-10
    boxes: Dict[tuple, Tuple[Q5, Q5, Q5, Q5]] = {}
    for a, b in probes:
        vcover = (vlo - guard <= b) & (b <= vhi + guard)
        left = np.where(vcover & (va < a - guard))[0]
        right = np.where(vcover & (va > a + guard))[0]
        hcover = (hlo - guard <= a) & (a <= hhi + guard)
        down = np.where(hcover & (hb < b - guard))[0]
        up = np.where(hcover & (hb > b + guard))[0]
        if not (len(left) and len(right) and len(down) and len(up)):
            continue
        li = left[np.argmax(va[left])]
        ri = right[np.argmin(va[right])]
        di = down[np.argmax(hb[down])]
        ui = up[np.argmin(hb[up])]
        a0, a1 = vert_n[li][0], vert_n[ri][0]
        b0, b1 = horiz_n[di][0], horiz_n[ui][0]
        box = _canonical_box(a0, b0, a1 - a0, b1 - b0)
        key = (box[0].to_string(), box[1].to_string(),
               box[2].to_string(), box[3].to_string())
        boxes.setdefault(key, box)

    # A probe sitting inside a true face always reads off that face's walls
    # (the nearest covering piece is the wall), so every face is among the
    # candidates.  A probe whose true wall fell outside the piece region can
    # produce a spurious larger box, which then strictly contains faces;
    # greedy minimal-area selection with exact pairwise disjointness drops
    # exactly those.
    cands = sorted(boxes.values(),
                   key=lambda bx: (float(bx[2] * bx[3]), float(bx[0]), float(bx[1])))
    accepted: List[Tuple[Q5, Q5, Q5, Q5]] = []
    for bx in cands:
        a0, b0, da, db = bx
        ok = True
        for a0o, b0o, dao, dbo in accepted:
            if _lattice_overlaps(a0, a0 + da, b0, b0 + db,
                                 a0o, a0o + dao, b0o, b0o + dbo):
                ok = False
                break
        if ok:
            accepted.append(bx)
    ordered = sorted(accepted, key=lambda bx: (float(bx[0]), float(bx[1])))
    return [Rectangle(i, *bx) for i, bx in enumerate(ordered)]


def _canonical_box(a0: Q5, b0: Q5, da: Q5, db: Q5
                   ) -> Tuple[Q5, Q5, Q5, Q5]:
    """Translate the box so its center's (x, y) lies in [0,1)^2."""
    ac = a0 + da / Q5(2)
    bc = b0 + db / Q5(2)
    x, y = from_eigen(ac, bc)
    mx, my = x.floor(), y.floor()
    A, B = lattice_coords(mx, my)
    return (a0 - A, b0 - B, da, db)


# ----------------------------------------------------------------------
# verification
# ----------------------------------------------------------------------
@dataclass
class MarkovReport:
    ok: bool
    area_ok: bool
    disjoint_ok: bool
    stable_ok: bool
    unstable_ok: bool
    messages: List[str] = field(default_factory=list)


def _interval_cover(target_lo: Q5, target_hi: Q5,
                    pieces: List[Tuple[Q5, Q5]]) -> bool:
    """Exact 1-D covering test of [lo, hi] by closed intervals."""
    pieces = sorted((p for p in pieces if p[1] > target_lo and p[0] < target_hi),
                    key=lambda p: p[0])
    reach = target_lo
    for lo, hi in pieces:
        if lo > reach:
            return False
        if hi > reach:
            reach = hi
        if reach >= target_hi:
            return True
    return reach >= target_hi


def verify_markov(partition: MarkovPartition) -> MarkovReport:
    """Exact check of the Markov paving conditions.

    (i) areas sum to the whole torus; (ii) interiors pairwise disjoint
    modulo the lattice; (iii) S maps stable boundaries into the union of
    stable boundaries and S^{-1} maps unstable ones likewise (segment-image
    containment in eigen-coordinates).
    """
    msgs: List[str] = []
    rects = partition.rectangles

    area_ok = partition.total_area() == Q5(1)
    if not area_ok:
        msgs.append(f"areas sum to {float(partition.total_area()):.12f}, not 1")

    disjoint_ok = True
    for i in range(len(rects)):
        for j in range(i, len(rects)):
            r1, r2 = rects[i], rects[j]
            for m, n in _overlap_candidates(r1, r2):
                if i == j and m == 0 and n == 0:
                    continue
                A, B = lattice_coords(m, n)
                alo = max(r1.anchor_a, r2.anchor_a + A)
                ahi = min(r1.anchor_a + r1.extent_a, r2.anchor_a + r2.extent_a + A)
                blo = max(r1.anchor_b, r2.anchor_b + B)
                bhi = min(r1.anchor_b + r1.extent_b, r2.anchor_b + r2.extent_b + B)
                if ahi > alo and bhi > blo:
                    disjoint_ok = False
                    msgs.append(f"interiors of R{r1.rid} and R{r2.rid} overlap "
                                f"(translate {(m, n)})")

    # stable sides: vertical segments (a = const, b-interval)
    stable_sides = []
    unstable_sides = []
    for r in rects:
        for a_side in (r.anchor_a, r.anchor_a + r.extent_a):
            stable_sides.append((a_side, r.anchor_b, r.anchor_b + r.extent_b, r.rid))
        for b_side in (r.anchor_b, r.anchor_b + r.extent_b):
            unstable_sides.append((b_side, r.anchor_a, r.anchor_a + r.extent_a, r.rid))

    stable_ok = True
    for a_side, blo, bhi, rid in stable_sides:
        # S: a -> lambda_+ a, b -> lambda_- b
        ia = LAMBDA_PLUS_Q * a_side
        ilo = LAMBDA_MINUS_Q * blo
        ihi = LAMBDA_MINUS_Q * bhi
        pieces = []
        for a2, lo2, hi2, _ in stable_sides:
            mn = lattice_from_eigen_shift(ia - a2)
            if mn is not None:
                _, B = lattice_coords(*mn)
                pieces.append((lo2 + B, hi2 + B))
        if not _interval_cover(ilo, ihi, pieces):
            stable_ok = False
            msgs.append(f"S(stable side a={float(a_side):.6f} of R{rid}) "
                        "not contained in stable boundary")

    unstable_ok = True
    for b_side, alo, ahi, rid in unstable_sides:
        # S^{-1}: a -> lambda_- a, b -> lambda_+ b
        ib = LAMBDA_PLUS_Q * b_side
        ilo = LAMBDA_MINUS_Q * alo
        ihi = LAMBDA_MINUS_Q * ahi
        pieces = []
        for b2, lo2, hi2, _ in unstable_sides:
            # translate must satisfy B(m,n) = ib - b2
            mn = lattice_from_b_shift(ib - b2)
            if mn is not None:
                A, _ = lattice_coords(*mn)
                pieces.append((lo2 + A, hi2 + A))
        if not _interval_cover(ilo, ihi, pieces):
            unstable_ok = False
            msgs.append(f"S^-1(unstable side b={float(b_side):.6f} of R{rid}) "
                        "not contained in unstable boundary")

    ok = area_ok and disjoint_ok and stable_ok and unstable_ok
    return MarkovReport(ok, area_ok, disjoint_ok, stable_ok, unstable_ok, msgs)


def _overlap_candidates(r1: Rectangle, r2: Rectangle) -> Iterator[Tuple[int, int]]:
    """Lattice translates that could make two bounded boxes overlap."""
    # difference of centers in (x, y), window by box diameters
    c1 = from_eigen(r1.anchor_a + r1.extent_a / Q5(2),
                    r1.anchor_b + r1.extent_b / Q5(2))
    c2 = from_eigen(r2.anchor_a + r2.extent_a / Q5(2),
                    r2.anchor_b + r2.extent_b / Q5(2))
    dx = float(c1[0]) - float(c2[0])
    dy = float(c1[1]) - float(c2[1])
    for m in range(math.floor(dx) - 2, math.ceil(dx) + 3):
        for n in range(math.floor(dy) - 2, math.ceil(dy) + 3):
            yield m, n


# ----------------------------------------------------------------------
# transition matrix and coding
# ----------------------------------------------------------------------
@dataclass
class TransitionMatrix:
    T: np.ndarray
    mixing_time: int

    def is_compatible(self, s1: int, s2: int) -> bool:
        return bool(self.T[s1, s2])


def transition_matrix(partition: MarkovPartition,
                      mixing_cap: int = 20) -> TransitionMatrix:
    """T[s, s'] = 1 iff int Q_s meets S^{-1} int Q_{s'} (exact box overlap)."""
    rects = partition.rectangles
    q = len(rects)
    T = np.zeros((q, q), dtype=int)
    for s2, r2 in enumerate(rects):
        # S^{-1} Q_{s'}: a-extent scaled by lambda_-, b by lambda_+
        pa0 = LAMBDA_MINUS_Q * r2.anchor_a
        pa1 = LAMBDA_MINUS_Q * (r2.anchor_a + r2.extent_a)
        pb0 = LAMBDA_PLUS_Q * r2.anchor_b
        pb1 = LAMBDA_PLUS_Q * (r2.anchor_b + r2.extent_b)
        for s1, r1 in enumerate(rects):
            if _boxes_meet_mod_lattice(r1.anchor_a, r1.anchor_a + r1.extent_a,
                                       r1.anchor_b, r1.anchor_b + r1.extent_b,
                                       pa0, pa1, pb0, pb1):
                T[s1, s2] = 1
    if not (T.sum(axis=0).all() and T.sum(axis=1).all()):
        raise PartitionError("transition matrix has an empty row or column")
    power = T.copy()
    a = 0
    while not (power > 0).all():
        power = (power @ T > 0).astype(int)
        a += 1
        if a > mixing_cap:
            raise PartitionError(f"mixing time exceeds cap {mixing_cap}")
    return TransitionMatrix(T, a)


def _lattice_overlaps(a0, a1, b0, b1, c0, c1, d0, d1) -> List[Tuple[Q5, Q5]]:
    """Translates (A, B) giving open overlap of [a0,a1]x[b0,b1] with
    [c0,c1]x[d0,d1] + (A, B)."""
    x_lo = float(a0 + b0) - float(c1 + d1) - 1
    x_hi = float(a1 + b1) - float(c0 + d0) + 1
    y_lo = (float(a0) * float(MU_Q) + float(b1) * float(NU_Q)
            - float(c1) * float(MU_Q) - float(d0) * float(NU_Q)) - 2
    y_hi = (float(a1) * float(MU_Q) + float(b0) * float(NU_Q)
            - float(c0) * float(MU_Q) - float(d1) * float(NU_Q)) + 2
    hits = []
    for m in range(math.floor(x_lo), math.ceil(x_hi) + 1):
        for n in range(math.floor(y_lo), math.ceil(y_hi) + 1):
            A, B = lattice_coords(m, n)
            if (min(a1, c1 + A) > max(a0, c0 + A)
                    and min(b1, d1 + B) > max(b0, d0 + B)):
                hits.append((A, B))
    return hits


def _boxes_meet_mod_lattice(a0, a1, b0, b1, c0, c1, d0, d1) -> bool:
    return bool(_lattice_overlaps(a0, a1, b0, b1, c0, c1, d0, d1))


@dataclass
class SymbolWindow:
    symbols: List[int]
    n: int
    boundary_flags: List[bool] = field(default_factory=list)

    def symbol(self, j: int) -> int:
        return self.symbols[j + self.n]


class CatCoder:
    """Encode/decode points against a verified partition."""

    def __init__(self, partition: MarkovPartition,
                 matrix: Optional[TransitionMatrix] = None,
                 boundary_tol: float = 1e-12):
        self.partition = partition
        self.matrix = matrix or transition_matrix(partition)
        self.boundary_tol = boundary_tol
        self._float_boxes = [(float(r.anchor_a), float(r.anchor_b),
                              float(r.extent_a), float(r.extent_b))
                             for r in partition.rectangles]
        # unique lattice translate per allowed transition (single-strip)
        self._pair_translate: Dict[Tuple[int, int], Tuple[Q5, Q5]] = {}
        for r1 in partition.rectangles:
            for r2 in partition.rectangles:
                if not self.matrix.T[r1.rid, r2.rid]:
                    continue
                hits = _lattice_overlaps(
                    r1.anchor_a, r1.anchor_a + r1.extent_a,
                    r1.anchor_b, r1.anchor_b + r1.extent_b,
                    LAMBDA_MINUS_Q * r2.anchor_a,
                    LAMBDA_MINUS_Q * (r2.anchor_a + r2.extent_a),
                    LAMBDA_PLUS_Q * r2.anchor_b,
                    LAMBDA_PLUS_Q * (r2.anchor_b + r2.extent_b))
                if len(hits) != 1:
                    raise PartitionError(
                        f"transition {r1.rid}->{r2.rid} has {len(hits)} strips; "
                        "partition is not single-strip")
                self._pair_translate[(r1.rid, r2.rid)] = hits[0]

    # -- point membership ------------------------------------------------
    def locate(self, x: float, y: float) -> Tuple[int, bool]:
        """Rectangle id of the lattice-unit point (x, y); flags boundary hits.

        Points within boundary_tol (eigen-coordinate distance) of the
        boundary are assigned the lowest-id incident rectangle.
        """
        mu, nu = float(MU_Q), float(NU_Q)
        rt5 = math.sqrt(5.0)
        hits: List[int] = []
        boundary = False
        tol = self.boundary_tol
        for rid, (a0, b0, da, db) in enumerate(self._float_boxes):
            ax = a0 + b0
            ay = a0 * mu + b0 * nu
            wx = da + db                   # (x, y) footprint of the box
            wy = da * mu - db * nu
            m_lo = math.floor(x - ax - wx)
            m_hi = math.floor(x - ax) + 1
            n_lo = math.floor(y - ay - da * mu)
            n_hi = math.floor(y - ay - db * nu) + 1
            for m in range(m_lo, m_hi + 1):
                for n in range(n_lo, n_hi + 1):
                    px = x - m
                    py = y - n
                    a = (py - nu * px) / rt5
                    b = (mu * px - py) / rt5
                    ra = a - a0
                    rb = b - b0
                    if -tol <= ra <= da + tol and -tol <= rb <= db + tol:
                        inside = (tol < ra < da - tol and tol < rb < db - tol)
                        if not inside:
                            boundary = True
                        if rid not in hits:
                            hits.append(rid)
        if not hits:
            raise PartitionError(f"point ({x}, {y}) not located in any rectangle")
        return min(hits), boundary

    def locate_angles(self, p: TorusPoint) -> Tuple[int, bool]:
        return self.locate(p.psi1 / TWO_PI, p.psi2 / TWO_PI)

    # -- encoding ----------------------------------------------------------
    def encode(self, p: TorusPoint, n: int) -> SymbolWindow:
        """Symbols of S^j p for |j| <= n."""
        x = p.psi1 / TWO_PI
        y = p.psi2 / TWO_PI
        # backward orbit start: S^{-n}
        for _ in range(n):
            x, y = (2 * x - y) % 1.0, (y - x) % 1.0
        symbols = []
        flags = []
        for j in range(2 * n + 1):
            rid, fl = self.locate(x, y)
            symbols.append(rid)
            flags.append(fl)
            x, y = (x + y) % 1.0, (x + 2 * y) % 1.0
        return SymbolWindow(symbols, n, flags)

    # -- decoding ----------------------------------------------------------
    def decode(self, window: SymbolWindow) -> Tuple[TorusPoint, float]:
        """Intersect S^{-j} Q_{sigma_j}; returns (center, diameter).

        Thanks to the single-strip property the intersection splits into
        independent 1-D refinements: forward symbols contract the unstable
        coordinate through the affine maps a -> lambda_- a + A(transition),
        backward symbols contract the stable one via b -> lambda_-(b - B).
        Everything is exact in Q(sqrt5); the cell shrinks like lambda_-^n
        in both directions.
        """
        n = window.n
        rects = self.partition.rectangles
        T = self.matrix.T
        for j in range(-n, n):
            if not T[window.symbol(j), window.symbol(j + 1)]:
                raise PartitionError(
                    f"incompatible symbols at positions {j}, {j + 1}")
        lm = LAMBDA_MINUS_Q
        # forward refinement of the a-interval, from sigma_n back to sigma_0
        r_last = rects[window.symbol(n)]
        lo_a, hi_a = r_last.anchor_a, r_last.anchor_a + r_last.extent_a
        for j in range(n - 1, -1, -1):
            A, _ = self._pair_translate[(window.symbol(j), window.symbol(j + 1))]
            lo_a = lm * lo_a + A
            hi_a = lm * hi_a + A
        # backward refinement of the b-interval, from sigma_{-n} up to sigma_0
        r_first = rects[window.symbol(-n)]
        lo_b, hi_b = r_first.anchor_b, r_first.anchor_b + r_first.extent_b
        for j in range(-n, 0):
            _, B = self._pair_translate[(window.symbol(j), window.symbol(j + 1))]
            lo_b = lm * (lo_b - B)
            hi_b = lm * (hi_b - B)
        r0 = rects[window.symbol(0)]
        lo_a = max(lo_a, r0.anchor_a)
        hi_a = min(hi_a, r0.anchor_a + r0.extent_a)
        lo_b = max(lo_b, r0.anchor_b)
        hi_b = min(hi_b, r0.anchor_b + r0.extent_b)
        if not (hi_a > lo_a and hi_b > lo_b):
            raise PartitionError("empty refinement cell for the given window")
        ca = (lo_a + hi_a) / Q5(2)
        cb = (lo_b + hi_b) / Q5(2)
        x, y = from_eigen(ca, cb)
        center = TorusPoint(float(x.mod1()) * TWO_PI, float(y.mod1()) * TWO_PI)
        da = float(hi_a - lo_a) * _EU_LEN
        db = float(hi_b - lo_b) * _ES_LEN
        diameter = math.hypot(da, db) * TWO_PI
        return center, diameter


# ----------------------------------------------------------------------
# Birkhoff frequencies
# ----------------------------------------------------------------------
def birkhoff_frequencies(coder: CatCoder, x0: TorusPoint, n_steps: int,
                         block: int = 16) -> Dict[int, float]:
    """Visit frequencies of each rectangle along the orbit of x0.

    The orbit is generated in blocks (entries of S^j stay float-exact for
    j <= block) and membership is evaluated with vectorized box tests over
    candidate lattice translates.
    """
    mats = [s0_power(j) for j in range(block)]
    x = np.empty(n_steps)
    y = np.empty(n_steps)
    cx, cy = x0.psi1 / TWO_PI, x0.psi2 / TWO_PI
    pos = 0
    while pos < n_steps:
        take = min(block, n_steps - pos)
        for j in range(take):
            aj, bj, cj, dj = mats[j]
            x[pos + j] = (aj * cx + bj * cy) % 1.0
            y[pos + j] = (cj * cx + dj * cy) % 1.0
        # the next block starts at S applied to the last point of this one
        cx = (x[pos + take - 1] + y[pos + take - 1]) % 1.0
        cy = (x[pos + take - 1] + 2 * y[pos + take - 1]) % 1.0
        pos += take
    assign = assign_rectangles(coder, x, y)
    counts = np.bincount(assign[assign >= 0], minlength=len(coder.partition))
    freqs = counts / counts.sum()
    return {rid: float(freqs[rid]) for rid in range(len(coder.partition))}


def assign_rectangles(coder: CatCoder, x: np.ndarray, y: np.ndarray
                      ) -> np.ndarray:
    """Vectorized rectangle assignment for lattice-unit points."""
    mu, nu = float(MU_Q), float(NU_Q)
    rt5 = math.sqrt(5.0)
    out = np.full(x.shape, -1, dtype=int)
    for rid, (a0, b0, da, db) in enumerate(coder._float_boxes):
        ax = a0 + b0
        ay = a0 * mu + b0 * nu
        unset = out < 0
        if not unset.any():
            break
        xs = x[unset]
        ys = y[unset]
        hit = np.zeros(xs.shape, dtype=bool)
        wx = da + db
        m_base = np.floor(xs - ax - wx)
        n_base = np.floor(ys - ay - da * mu)
        n_steps = int(math.ceil(da * mu - db * nu)) + 2
        for dm in range(int(math.ceil(wx)) + 2):
            for dn in range(n_steps):
                m = m_base + dm
                n = n_base + dn
                px = xs - m
                py = ys - n
                a = (py - nu * px) / rt5
                b = (mu * px - py) / rt5
                hit |= ((a >= a0) & (a <= a0 + da) & (b >= b0) & (b <= b0 + db))
        idx = np.where(unset)[0][hit]
        out[idx] = rid
    return out


# ----------------------------------------------------------------------
# (de)serialization
# ----------------------------------------------------------------------
def partition_to_json(partition: MarkovPartition) -> str:
    data = {
        "provenance": partition.provenance,
        "rectangles": [
            {"id": r.rid,
             "anchor_a": r.anchor_a.to_string(),
             "anchor_b": r.anchor_b.to_string(),
             "extent_a": r.extent_a.to_string(),
             "extent_b": r.extent_b.to_string()}
            for r in partition.rectangles
        ],
    }
    return json.dumps(data, indent=2)


def partition_from_json(text: str) -> MarkovPartition:
    data = json.loads(text)
    rects = [Rectangle(item["id"],
                       Q5.from_string(item["anchor_a"]),
                       Q5.from_string(item["anchor_b"]),
                       Q5.from_string(item["extent_a"]),
                       Q5.from_string(item["extent_b"]))
             for item in data["rectangles"]]
    return MarkovPartition(rects, provenance="loaded")
