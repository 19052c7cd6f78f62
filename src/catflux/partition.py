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

import array
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from .qfield import (LAMBDA_MINUS_Q, LAMBDA_PLUS_Q, MU_Q, NU_Q, Q5,
                     from_eigen, lattice_coords, lattice_from_eigen_shift,
                     pair_sign)
from .torus import TorusPoint, check_count
from .trig import s0_power

TWO_PI = 2.0 * math.pi

# physical edge lengths per unit of eigen-coordinate (lattice units)
_MU, _NU = float(MU_Q), float(NU_Q)
_RT5 = math.sqrt(5.0)
_EU_LEN = math.sqrt(1.0 + _MU ** 2)
_ES_LEN = math.sqrt(1.0 + _NU ** 2)
# every point query reads its point on the lattice 2^-64 Z^2, held mod 2^64
_MASK64 = (1 << 64) - 1

MAX_REFINEMENTS = 8    # single-strip refinement rounds of the build
LATTICE_WINDOW = 30    # translates with |m|, |n| <= this carry crossings
MAX_ROUNDS = 64        # endpoint-closure rounds per refinement
MIXING_CAP = 20        # largest mixing time transition_matrix searches
BOUNDARY_TOL = 1e-12   # eigen-coordinate distance that counts as boundary
GRID = 64              # CellTable cells per side of [0,1)^2
SETTLE = 8             # CellTable subcells per cell side, from column spans
CELL_MARGIN = 1e-9     # slack of CellTable's tests and of the float shadows
CHUNK = 1 << 16        # points per pass of assign_rectangles and of an orbit,
                       # translates per pass of _lattice_overlaps
# X >> _SUBCELL_SHIFT is the CellTable subcell column (row, for Y) of the
# lattice coordinate X in [0, 2^64): 64 - log2(GRID * SETTLE)
_SUBCELL_SHIFT = 55
# columns of CellTable subcells settled in one pass, which bounds the
# build's temporaries
_BAND = 64


class PartitionError(RuntimeError):
    pass


def _eigen_shadow(x, y):
    """Float eigen-coordinates (a, b) of the point (x, y), for floats or
    arrays: ((y - nu x)/sqrt5, (mu x - y)/sqrt5).

    At a lattice point (m, n) this is the float shadow of
    lattice_coords(m, n), off by a few ulp of max(|m|, |n|): under 1e-13
    for |m|, |n| < 10^2, like float(Q5) of a value below 10^2.  Geometry
    tests that widen their bounds by CELL_MARGIN therefore never drop what
    the exact test keeps.
    """
    return (y - _NU * x) / _RT5, (_MU * x - y) / _RT5


@dataclass(frozen=True)
class Rectangle:
    """An S-rectangle: an axis-aligned box in eigen-coordinates.

    anchor_a/anchor_b locate the min-corner in the plane; extents are the
    box sides in eigen-units.
    """

    rid: int
    anchor_a: Q5
    anchor_b: Q5
    extent_a: Q5
    extent_b: Q5

    def __post_init__(self):
        if self.extent_a.sign() <= 0 or self.extent_b.sign() <= 0:
            raise ValueError("rectangle extents must be positive")

    def area(self) -> Q5:
        """Torus area in lattice units: da * db * sqrt5."""
        return self.extent_a * self.extent_b * Q5(0, 1)

    def bounds(self) -> Tuple[Q5, Q5, Q5, Q5]:
        """(a0, a1, b0, b1): the box is [a0, a1] x [b0, b1]."""
        return (self.anchor_a, self.anchor_a + self.extent_a,
                self.anchor_b, self.anchor_b + self.extent_b)


@dataclass
class MarkovPartition:
    """Rectangles indexed by id (rid == position); not to be changed once
    strips() has been read, since the strips are memoised."""

    rectangles: List[Rectangle]
    provenance: str = "constructed"
    _strips: Dict[Tuple[int, int], List[Tuple[Q5, Q5]]] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        # strips, the transition matrix and the frequencies index by position
        for i, r in enumerate(self.rectangles):
            if r.rid != i:
                raise PartitionError(f"rectangle entry {i} has id {r.rid}, "
                                     "not its position")

    def strips(self, s1: int, s2: int) -> List[Tuple[Q5, Q5]]:
        """Translates (A, B) with int Q_s1 meeting S^{-1} int Q_s2 + (A, B).

        One entry per connected strip of the intersection; computed once per
        pair.  S^{-1} scales the a-extent by lambda_- and the b-extent by
        lambda_+.
        """
        if (s1, s2) not in self._strips:
            self._fill_strips([(s1, s2)])
        return self._strips[s1, s2]

    def _fill_strips(self, pairs: List[Tuple[int, int]]) -> None:
        """Memoise the strips of the pairs (s1, s2) not yet held, in one
        batched _lattice_overlaps call."""
        todo = [pair for pair in pairs if pair not in self._strips]
        if not todo:
            return
        boxes = [r.bounds() for r in self.rectangles]
        images = [(LAMBDA_MINUS_Q * a0, LAMBDA_MINUS_Q * a1,
                   LAMBDA_PLUS_Q * b0, LAMBDA_PLUS_Q * b1)
                  for a0, a1, b0, b1 in boxes]
        self._strips.update(zip(todo, _lattice_overlaps(boxes, images, todo)))

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
def _first_crossing(cross: List[Tuple[int, int]], fcross: np.ndarray,
                    end: Q5, sign: int, axis: int, lo: Q5, hi: Q5) -> Q5:
    """Least sign * p[axis] >= end over the crossings p = (t, s) whose other
    parameter lies in [lo, hi]; end itself when end is such a crossing.

    cross holds the lattice vectors (m, n) of the crossings, which are
    (A, -B) for (A, B) = lattice_coords(m, n), and fcross their float
    shadows.  Only the crossings whose shadows pass the window widened by
    CELL_MARGIN are made exact and tested, in ascending shadow order, up
    to the first shadow that clears the best exact value by the margin;
    the shadows are off by far less (see _eigen_shadow).
    """
    eps = CELL_MARGIN
    fv = sign * fcross[:, axis]
    other = fcross[:, 1 - axis]
    near = np.flatnonzero((other >= float(lo) - eps) & (other <= float(hi) + eps)
                          & (fv >= float(end) - eps))
    best = cut = None
    for i in near[np.argsort(fv[near], kind="stable")]:
        if best is not None and fv[i] > cut:
            break
        A, B = lattice_coords(*cross[i])
        p = (A, -B)
        if lo <= p[1 - axis] <= hi:
            v = p[axis] if sign > 0 else -p[axis]
            if v >= end and (best is None or v < best):
                best, cut = v, fv[i] + eps
    if best is None:
        side = ("an unstable", "a stable")[axis]
        raise PartitionError(
            f"no crossing available to close {side} endpoint; the opposite "
            f"segment spans ({float(lo):.3f},{float(hi):.3f})")
    return best


def _close_endpoints(u_minus: Q5, u_plus: Q5, s_minus: Q5, s_plus: Q5,
                     cross: List[Tuple[int, int]], fcross: np.ndarray
                     ) -> Tuple[Q5, Q5, Q5, Q5]:
    """Monotone endpoint closure: each segment end is pushed out to the
    first crossing whose partner parameter lies inside the current opposite
    segment.  Extending a segment never invalidates a closed endpoint, so
    the loop terminates or hits MAX_ROUNDS.
    """
    ends = [u_minus, u_plus, s_minus, s_plus]
    for _ in range(MAX_ROUNDS):
        changed = False
        # u+, u-, s+, s- in turn; axis 0 (t) closes on the stable segment,
        # axis 1 (s) on the unstable one
        for k, sign in ((1, 1), (0, -1), (3, 1), (2, -1)):
            axis = k // 2
            lo, hi = ends[2 - 2 * axis], ends[3 - 2 * axis]
            end = _first_crossing(cross, fcross, ends[k], sign, axis,
                                  -1 * lo, hi)
            changed = changed or end != ends[k]
            ends[k] = end
        if not changed:
            return tuple(ends)
    raise PartitionError(
        f"endpoint closure did not converge in {MAX_ROUNDS} rounds: "
        f"u=({float(ends[0]):.4f},{float(ends[1]):.4f}) "
        f"s=({float(ends[2]):.4f},{float(ends[3]):.4f})")


def build_cat_partition() -> MarkovPartition:
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
    # the translates (m, n) near the origin and the float shadows of their
    # eigen-coordinates; the exact ones are made only where a float test
    # selects them
    w = LATTICE_WINDOW
    span = np.arange(-w, w + 1)
    ms, ns = np.repeat(span, 2 * w + 1), np.tile(span, 2 * w + 1)
    mn = np.stack([ms, ns], axis=1)
    fcoords = np.stack(_eigen_shadow(ms, ns), axis=1)
    # crossings (t, s) = (A, -B) of the master lines; the origin is not one
    off = np.flatnonzero(ms | ns)
    cross = list(zip(ms[off].tolist(), ns[off].tolist()))
    fcross = fcoords[off] * (1.0, -1.0)
    eps0 = Q5(Fraction(1, 10))
    u_minus = u_plus = s_minus = s_plus = eps0

    for _ in range(MAX_REFINEMENTS):
        u_minus, u_plus, s_minus, s_plus = _close_endpoints(
            u_minus, u_plus, s_minus, s_plus, cross, fcross)
        rects = _extract_rectangles(u_minus, u_plus, s_minus, s_plus, mn,
                                    fcoords)
        part = MarkovPartition(rects)
        total = part.total_area()
        if not total == Q5(1):
            raise PartitionError(
                f"extracted rectangles cover area {float(total):.12f} != 1; "
                "geometry dump: " + "; ".join(
                    f"R{r.rid}: a0={float(r.anchor_a):.6f} "
                    f"b0={float(r.anchor_b):.6f} da={float(r.extent_a):.6f} "
                    f"db={float(r.extent_b):.6f}" for r in rects))
        # distinct strips of one pair differ in a or in b, which decides
        # the refinement direction
        part._fill_strips([(s1, s2) for s1 in range(len(rects))
                           for s2 in range(len(rects))])
        need_a = need_b = False
        for hits in part._strips.values():
            if len(hits) > 1:
                need_a = need_a or len({A for A, _ in hits}) > 1
                need_b = need_b or len({B for _, B in hits}) > 1
        if not (need_a or need_b):
            return part
        if need_a:
            s_minus = LAMBDA_PLUS_Q * s_minus
            s_plus = LAMBDA_PLUS_Q * s_plus
        if need_b:
            u_minus = LAMBDA_PLUS_Q * u_minus
            u_plus = LAMBDA_PLUS_Q * u_plus
    raise PartitionError(
        f"single-strip refinement did not settle in {MAX_REFINEMENTS} rounds")


def _extract_rectangles(u_minus: Q5, u_plus: Q5, s_minus: Q5, s_plus: Q5,
                        mn: np.ndarray, fcoords: np.ndarray
                        ) -> List[Rectangle]:
    """Read each face of the boundary arrangement once, exactly.

    mn holds the lattice translates (m, n) near the origin, one row each,
    with eigen-coordinates (A, B) = lattice_coords(m, n); each carries a
    horizontal (unstable) piece b = B, a in [A - u-, A + u+], and a
    vertical (stable) piece a = A, b in [B - s-, B + s+], located in floats
    from fcoords (the shadows of (A, B)).  A face has its lower-left corner
    at a crossing, so one probe up and to the right of each crossing near
    the canonical region lies in a face, and the nearest covering pieces
    are its walls.  All probes are tested against all pieces at once.
    A face's side lies on one piece (each line b = B(m, n) holds one
    translate), so da <= u- + u+ and db <= s- + s+, and the padded piece
    region holds every wall a probe reads: no probe reads a box larger
    than a face.
    A lattice translate of a face shifts its four walls by one (m, n), and
    A(m, n) fixes (m, n), so two sets of walls read the same canonical box
    exactly when their translates less those of the left wall agree.  One
    set of walls per such key is snapped to its exact values, and the box
    is kept by its canonical (center in [0,1)^2) translate.
    """
    um, up, sm, sp = map(float, (u_minus, u_plus, s_minus, s_plus))
    fa, fb = fcoords.T
    # generous piece region: canonical neighborhood padded by segment spans
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
    # the probes: one past each crossing of a vertical piece near the
    # canonical region with a horizontal piece
    near = np.flatnonzero(np.abs(va) <= 1.1)
    x, xlo, xhi = va[near, None], vlo[near, None], vhi[near, None]
    i, j = np.nonzero((hlo - 1e-12 <= x) & (x <= hhi + 1e-12)
                      & (xlo - 1e-12 <= hb) & (hb <= xhi + 1e-12)
                      & (np.abs(hb) <= 1.5))
    a = va[near[i], None] + delta
    b = hb[j, None] + delta
    # the nearest covering piece on each side, where there is one: left,
    # right, below and above
    found = np.ones(len(a), dtype=bool)
    walls = []
    for ids, at, lo, hi, p, q in ((vert_n, va, vlo, vhi, a, b),
                                  (horiz_n, hb, hlo, hhi, b, a)):
        cover = (lo - guard <= q) & (q <= hi + guard)
        before = cover & (at < p - guard)
        after = cover & (at > p + guard)
        found &= before.any(axis=1) & after.any(axis=1)
        walls += [ids[np.where(before, at, -np.inf).argmax(axis=1)],
                  ids[np.where(after, at, np.inf).argmin(axis=1)]]
    t = mn[np.stack(walls, axis=1)[found]]
    _, first = np.unique((t[:, 1:] - t[:, :1]).reshape(len(t), 6), axis=0,
                         return_index=True)
    faces = []
    for left, right, below, above in t[first].tolist():
        a0, a1 = lattice_coords(*left)[0], lattice_coords(*right)[0]
        b0, b1 = lattice_coords(*below)[1], lattice_coords(*above)[1]
        faces.append(_canonical_box(a0, b0, a1 - a0, b1 - b0))
    return [Rectangle(i, *bx) for i, bx in enumerate(sorted(faces))]


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
    containment in eigen-coordinates).  Every failed check appends a
    message, so the report is ok when there is none.
    """
    msgs: List[str] = []
    rects = partition.rectangles

    if not partition.total_area() == Q5(1):
        msgs.append(f"areas sum to {float(partition.total_area()):.12f}, not 1")

    boxes = [r.bounds() for r in rects]
    pairs = [(i, j) for i in range(len(rects)) for j in range(i, len(rects))]
    for (i, j), hits in zip(pairs, _lattice_overlaps(boxes, boxes, pairs)):
        for A, _ in hits:
            mn = lattice_from_eigen_shift(A)
            if i == j and mn == (0, 0):
                continue
            msgs.append(f"interiors of R{rects[i].rid} and R{rects[j].rid} "
                        f"overlap (translate {mn})")

    # stable sides are vertical segments (a = const, b-interval), unstable
    # ones horizontal (b = const, a-interval)
    stable_sides = []
    unstable_sides = []
    for r in rects:
        a0, a1, b0, b1 = r.bounds()
        stable_sides += [(a0, b0, b1, r.rid), (a1, b0, b1, r.rid)]
        unstable_sides += [(b0, a0, a1, r.rid), (b1, a0, a1, r.rid)]
    # S maps a -> lambda_+ a, b -> lambda_- b; S^{-1} the other way round,
    # so each side's image has constant lambda_+ c and span lambda_- [lo, hi]
    stable_bad = _uncovered_sides(stable_sides, 1)
    unstable_bad = _uncovered_sides(unstable_sides, 0)
    msgs += [f"S(stable side a={float(c):.6f} of R{rid}) "
             "not contained in stable boundary" for c, rid in stable_bad]
    msgs += [f"S^-1(unstable side b={float(c):.6f} of R{rid}) "
             "not contained in unstable boundary" for c, rid in unstable_bad]
    return MarkovReport(not msgs, msgs)


def _uncovered_sides(sides: List[Tuple[Q5, Q5, Q5, int]], along: int
                     ) -> List[Tuple[Q5, int]]:
    """(c, rid) of the sides (c, lo, hi, rid) whose image, at constant
    lambda_+ c over lambda_- [lo, hi], is not covered by lattice translates
    of the sides.  The sides are stable ones (c = a) for along = 1 and
    unstable ones (c = b) for along = 0.  A translate (m, n) carries side
    c2 onto the image line when coordinate 1 - along of lattice_coords(m, n)
    is lambda_+ c - c2; the side then shifts along the line by coordinate
    `along` of it.

    The shifts of all pairs of sides are found at once and exactly, on the
    integer pairs (P, Q) of lambda_+ c - c2 = (P + Q sqrt5)/den over one
    denominator: A(m, n) = (P + Q sqrt5)/den for m = 2P/den and
    n = (P + 5Q)/den when both are integers, and B(m, n) = A(m, m - n).
    Only the shifted sides whose float shadows come within CELL_MARGIN of
    the image are made exact and handed to _interval_cover, which drops
    every side that misses the image: a bound of three float(Q5) or shadow
    terms below 10^2 is off by less than 1e-12 (see _eigen_shadow).
    """
    eps = CELL_MARGIN
    images = [(LAMBDA_MINUS_Q * lo, LAMBDA_MINUS_Q * hi)
              for _, lo, hi, _ in sides]
    cs = [side[0] for side in sides]
    triples = [v.triple for v in [LAMBDA_PLUS_Q * v for v in cs] + cs]
    den = math.lcm(*(d for _, _, d in triples))
    pq = [(p * (den // d), q * (den // d)) for p, q, d in triples]
    # int64 while 2P and P + 5Q stay far below 2^63
    big = max(abs(v) for pair in [(den, 0)] + pq for v in pair) >= 1 << 56
    P, Q = np.array(pq, dtype=object if big else np.int64).reshape(-1, 2).T
    k = len(sides)
    P = P[:k, None] - P[None, k:]
    Q = Q[:k, None] - Q[None, k:]
    s, s2 = np.nonzero((2 * P % den == 0) & ((P + 5 * Q) % den == 0))
    m = 2 * P[s, s2] // den
    n = (P[s, s2] + 5 * Q[s, s2]) // den
    if not along:
        n = m - n
    # the shifted sides' float shadows against the images, widened
    fimage = np.array([[float(v) for v in image]
                       for image in images]).reshape(-1, 2)
    fside = np.array([[float(lo), float(hi)]
                      for _, lo, hi, _ in sides]).reshape(-1, 2)
    t = _eigen_shadow(m.astype(float), n.astype(float))[along]
    keep = ((fside[s2, 1] + t > fimage[s, 0] - eps)
            & (fside[s2, 0] + t < fimage[s, 1] + eps))
    pieces: List[List[Tuple[Q5, Q5]]] = [[] for _ in sides]
    for i, j, mi, ni in zip(s[keep].tolist(), s2[keep].tolist(),
                            m[keep].tolist(), n[keep].tolist()):
        shift = lattice_coords(mi, ni)[along]
        pieces[i].append((sides[j][1] + shift, sides[j][2] + shift))
    return [(c, rid) for (c, _, _, rid), image, got
            in zip(sides, images, pieces) if not _interval_cover(*image, got)]


# ----------------------------------------------------------------------
# transition matrix and coding
# ----------------------------------------------------------------------
@dataclass
class TransitionMatrix:
    T: np.ndarray
    mixing_time: int


def transition_matrix(partition: MarkovPartition) -> TransitionMatrix:
    """T[s, s'] = 1 iff int Q_s meets S^{-1} int Q_{s'} (exact box overlap)."""
    q = len(partition)
    if not q:
        raise PartitionError("the partition has no rectangles")
    pairs = [(s1, s2) for s1 in range(q) for s2 in range(q)]
    partition._fill_strips(pairs)
    T = np.array([bool(partition.strips(*pair)) for pair in pairs],
                 dtype=int).reshape(q, q)
    if not (T.sum(axis=0).all() and T.sum(axis=1).all()):
        raise PartitionError("transition matrix has an empty row or column")
    power = T.copy()
    a = 0
    while not (power > 0).all():
        power = (power @ T > 0).astype(int)
        a += 1
        if a > MIXING_CAP:
            raise PartitionError(f"mixing time exceeds cap {MIXING_CAP}")
    return TransitionMatrix(T, a)


def _lattice_overlaps(boxes: List[Tuple[Q5, Q5, Q5, Q5]],
                      others: List[Tuple[Q5, Q5, Q5, Q5]],
                      pairs: List[Tuple[int, int]]
                      ) -> List[List[Tuple[Q5, Q5]]]:
    """For each pair (i, j), the translates (A, B) giving open overlap of
    boxes[i] = [a0,a1]x[b0,b1] with others[j] = [c0,c1]x[d0,d1] + (A, B),
    in (m, n) order.

    An overlap needs A in (a0 - c1, a1 - c0) and B in (b0 - d1, b1 - d0).
    Every (m, n) of each pair's window on those bounds, widened by
    CELL_MARGIN, is tested at once by its float shadow, and only the
    candidates that pass are tested exactly, pair by pair.  A bound is a
    difference of two float(Q5) values, made once per box, and it is
    compared with a shadow: the three are off by less than 1e-12 in all
    (see _eigen_shadow), so the filter never drops a translate the exact
    test keeps.
    """
    hits: List[List[Tuple[Q5, Q5]]] = [[] for _ in pairs]
    if not pairs:
        return hits
    eps = CELL_MARGIN
    i, j = np.array(pairs).reshape(-1, 2).T
    fa0, fa1, fb0, fb1 = np.array([[float(v) for v in box]
                                   for box in boxes]).T[:, i]
    fc0, fc1, fd0, fd1 = np.array([[float(v) for v in box]
                                   for box in others]).T[:, j]
    a_lo, a_hi = fa0 - fc1 - eps, fa1 - fc0 + eps
    b_lo, b_hi = fb0 - fd1 - eps, fb1 - fd0 + eps
    # m = A + B and n = mu A + nu B, with mu > 0 > nu
    m0 = np.floor(a_lo + b_lo).astype(np.int64)
    n0 = np.floor(_MU * a_lo + _NU * b_hi).astype(np.int64)
    wm = np.maximum(np.ceil(a_hi + b_hi).astype(np.int64) + 1 - m0, 0)
    wn = np.maximum(np.ceil(_MU * a_hi + _NU * b_lo).astype(np.int64) + 1
                    - n0, 0)
    # the candidates c of all windows in (pair, m, n) order, CHUNK at a
    # time: pair k and translate (m, n) of each
    size = wm * wn
    end = np.cumsum(size)
    for lo in range(0, int(end[-1]), CHUNK):
        c = np.arange(lo, min(lo + CHUNK, int(end[-1])))
        k = np.searchsorted(end, c, side="right")
        r = c - (end - size)[k]
        m = m0[k] + r // wn[k]
        n = n0[k] + r % wn[k]
        fa, fb = _eigen_shadow(m, n)
        keep = ((a_lo[k] < fa) & (fa < a_hi[k])
                & (b_lo[k] < fb) & (fb < b_hi[k]))
        for t, mt, nt in zip(k[keep].tolist(), m[keep].tolist(),
                             n[keep].tolist()):
            a0, a1, b0, b1 = boxes[pairs[t][0]]
            c0, c1, d0, d1 = others[pairs[t][1]]
            A, B = lattice_coords(mt, nt)
            if (min(a1, c1 + A) > max(a0, c0 + A)
                    and min(b1, d1 + B) > max(b0, d0 + B)):
                hits[t].append((A, B))
    return hits


@dataclass
class SymbolWindow:
    """Symbols sigma_j for |j| <= n, in order; boundary_flags is empty or
    holds one flag per symbol."""

    symbols: List[int]
    n: int
    boundary_flags: List[bool] = field(default_factory=list)

    def __post_init__(self):
        check_count("n", self.n, 0)
        if len(self.symbols) != 2 * self.n + 1:
            raise ValueError(f"a window of depth n = {self.n} has "
                             f"{2 * self.n + 1} symbols, got "
                             f"{len(self.symbols)}")
        if self.boundary_flags and (len(self.boundary_flags)
                                    != len(self.symbols)):
            raise ValueError(f"{len(self.boundary_flags)} boundary flags "
                             f"for {len(self.symbols)} symbols")


class CellTable:
    """Point location on the lattice 2^-64 Z^2 against a list of rectangle
    boxes.

    [0,1)^2 is cut into GRID x GRID cells; each cell lists, sorted by id, the
    box translates (rid, m, n) whose float footprint comes within
    CELL_MARGIN of it, in (x, y) and in eigen-coordinates alike (a
    separating-axis test of two parallelograms, _column_spans).  A point of
    [0,1)^2 is tested only against the list of its cell; the margin, far
    above BOUNDARY_TOL and float rounding, keeps every translate that could
    hold the point in that list.

    Each cell is cut again into SETTLE x SETTLE subcells.  A subcell is
    settled when exactly one translate meets it, by the same test, and the
    subcell's eigen-coordinate bounding box lies CELL_MARGIN inside that
    translate: every point of the subcell is then inside that box, farther
    than BOUNDARY_TOL from its sides, and gets its id without a test
    (settled[subcell], -1 elsewhere; int8 for up to 127 boxes).  A
    translate that meets a subcell meets its cell, since each test's float
    expressions round monotonically in the square's corners.

    Both layers come from the same column spans: in a column of a grid, the
    squares that a translate meets are one run of rows, and so are those it
    holds (_column_spans).  The cell lists expand the runs at GRID; the
    settled table sums them down each column at GRID * SETTLE (_settle).

    The queries take a lattice point (X, Y) 2^-64, X and Y in [0, 2^64),
    and read it at 53 bits as (X >> 11) 2^-53 (_lattice_read).  Its subcell
    is X >> _SUBCELL_SHIFT by Y >> _SUBCELL_SHIFT, since GRID * SETTLE is
    2^(64 - _SUBCELL_SHIFT).  Only the points of subcells that are not
    settled are read as floats, for the slot tests.
    """

    def __init__(self, boxes: List[Tuple[float, float, float, float]]):
        self.boxes = boxes
        self.box = np.array(boxes, dtype=float).reshape(-1, 4)
        # every translate whose (x, y) footprint can meet [0,1)^2, in
        # (rid, m, n) order
        triples = []
        for rid, (bx0, bx1, by0, by1) in enumerate(
                _footprints(self.box, 0, 0)[:4].T.tolist()):
            ms = range(math.floor(-bx1), math.ceil(1.0 - bx0) + 1)
            ns = range(math.floor(-by1), math.ceil(1.0 - by0) + 1)
            triples += [(rid, m, n) for m in ms for n in ns]
        triples = np.array(triples, dtype=int).reshape(-1, 3)
        rid = triples[:, 0]
        foot = _footprints(self.box[rid], triples[:, 1], triples[:, 2])
        (_, t, ix, lo, hi, _, _), = _column_spans(foot, GRID, GRID, 0, GRID)
        self.count, self.cand, self.cells = _cell_lists(triples, t, ix, lo, hi)
        # a translate meets only subcells of the cells it meets, so the
        # settle reads only the translates that meet a cell, each in the
        # subcell columns of its first to its last such cell
        meet = lo < hi
        live, at, n = np.unique(t[meet], return_index=True, return_counts=True)
        col = ix[meet] * SETTLE
        # the least signed type that holds every id and -1, held once, as
        # an array.array that pickles and that locate_lattice reads as
        # Python ints
        kind = np.min_scalar_type(-1 - len(boxes))
        size = (GRID * SETTLE) ** 2 * kind.itemsize
        self._settled = array.array(kind.char, bytes(size))
        _settle(self.settled, rid[live], foot[:, live], col[at],
                col[at + n - 1] + SETTLE)

    @property
    def settled(self) -> np.ndarray:
        """The settled id of each subcell ix * GRID * SETTLE + iy, -1 where
        none is: a numpy view of the table locate_lattice reads."""
        return np.frombuffer(self._settled, dtype=self._settled.typecode)

    def locate_lattice(self, X: int, Y: int) -> Tuple[int, bool]:
        """CatCoder.locate at the lattice point (X, Y) 2^-64, for Python
        ints X, Y in [0, 2^64); read only when its subcell is not settled."""
        fine = GRID * SETTLE
        ix, iy = X >> _SUBCELL_SHIFT, Y >> _SUBCELL_SHIFT
        settled = self._settled[ix * fine + iy]
        if settled >= 0:
            return settled, False
        return self._scan(ix, iy, _lattice_read(X), _lattice_read(Y))

    def _scan(self, ix: int, iy: int, x: float, y: float) -> Tuple[int, bool]:
        """locate_lattice's slot tests of the read (x, y) of subcell
        (ix, iy) against its cell's list."""
        tol = BOUNDARY_TOL
        hits: List[int] = []
        boundary = False
        for rid, m, n in self.cells[ix // SETTLE * GRID + iy // SETTLE]:
            a0, b0, da, db = self.boxes[rid]
            a, b = _eigen_shadow(x - m, y - n)
            ra = a - a0
            rb = b - b0
            if -tol <= ra <= da + tol and -tol <= rb <= db + tol:
                boundary |= not (tol < ra < da - tol and tol < rb < db - tol)
                hits.append(rid)
        if not hits:
            raise PartitionError(f"point ({x}, {y}) not located in any rectangle")
        return min(hits), boundary

    def assign_lattice(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        """assign_rectangles at the lattice points (X, Y) 2^-64, for uint64
        arrays X, Y; only the points of subcells that are not settled are
        read."""
        sub = X >> _SUBCELL_SHIFT
        sub *= GRID * SETTLE
        sub += Y >> _SUBCELL_SHIFT
        # an index below 2^16 reads the same as int64, without a cast
        got = self.settled[sub.view(np.int64)]
        todo = np.flatnonzero(got < 0)
        X, Y = X[todo], Y[todo]
        got[todo] = self._slot_ids(X >> _SUBCELL_SHIFT, Y >> _SUBCELL_SHIFT,
                                   _lattice_read(X), _lattice_read(Y))
        return got

    def _slot_ids(self, ix: np.ndarray, iy: np.ndarray, x: np.ndarray,
                  y: np.ndarray) -> np.ndarray:
        """The least id of the boxes within BOUNDARY_TOL of each read
        (x, y) of subcell (ix, iy), -1 where none is: its cell's slots, each
        point until it hits, with _scan's expressions."""
        tol = BOUNDARY_TOL
        got = np.full(x.shape, -1)
        todo = np.arange(x.size)
        cell = ix // SETTLE * GRID + iy // SETTLE
        # slots are sorted by id, so the first hit is the least id
        for k in range(self.cand.shape[1]):
            more = k < self.count[cell]
            todo, cell = todo[more], cell[more]
            if not todo.size:
                break
            rid, m, n = self.cand[cell, k].T
            a0, b0, da, db = self.box[rid].T
            a, b = _eigen_shadow(x[todo] - m, y[todo] - n)
            ra = a - a0
            rb = b - b0
            hit = ((ra >= -tol) & (ra <= da + tol)
                   & (rb >= -tol) & (rb <= db + tol))
            got[todo[hit]] = rid[hit]
            todo, cell = todo[~hit], cell[~hit]
        return got


def _ragged(k: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(i, j) for every j < k[i], i ascending: the entries of a ragged array
    of row lengths k."""
    i = np.repeat(np.arange(k.size), k)
    return i, np.arange(i.size) - np.repeat(np.cumsum(k) - k, k)


def _footprints(box: np.ndarray, m: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Rows x0, x1, y0, y1, a0, a1, b0, b1: the (x, y) and eigen-coordinate
    ranges of the box translates, box rows (a0, b0, da, db) shifted by the
    lattice vectors (m, n)."""
    mu, nu = _MU, _NU
    a0, b0, da, db = box.T
    A, B = _eigen_shadow(m, n)
    return np.stack([a0 + b0 + m, a0 + da + b0 + db + m,
                     a0 * mu + (b0 + db) * nu + n, (a0 + da) * mu + b0 * nu + n,
                     a0 + A, a0 + da + A, b0 + B, b0 + db + B])


def _cell_lists(triples: np.ndarray, t: np.ndarray, ix: np.ndarray,
                lo: np.ndarray, hi: np.ndarray
                ) -> Tuple[np.ndarray, np.ndarray, List[List[List[int]]]]:
    """(count, cand, cells) of CellTable from the _column_spans (t, ix,
    lo, hi) at GRID of the translates triples (rid, m, n): the translates
    that meet each cell, in (rid, m, n) order within a cell."""
    k, j = _ragged(hi - lo)
    cell = ix[k] * GRID + lo[k] + j
    order = np.argsort(cell, kind="stable")
    t, cell = t[k[order]], cell[order]
    count = np.bincount(cell, minlength=GRID ** 2)
    first = np.cumsum(count) - count
    # translate t of each slot; the padding past count repeats translate 0
    # and is never read
    slots = np.zeros((GRID ** 2, count.max()), dtype=int)
    slots[cell, np.arange(cell.size) - first[cell]] = t
    hits = triples[t].tolist()
    return count, triples[slots], [hits[i:i + k] for i, k in
                                   zip(first.tolist(), count.tolist())]


def _settle(settled: np.ndarray, rid: np.ndarray, foot: np.ndarray,
            first: np.ndarray, end: np.ndarray) -> None:
    """Fill settled, the (GRID * SETTLE)^2 subcells in CellTable's order, a
    band of columns at a time, from the translates of ids rid with
    footprints foot, each read in its columns first <= ix < end.  Down
    each column, a running sum of +-1 at the ends of the spans counts the
    translates that meet a subcell, in the low bits, and adds up rid + 1
    of those that hold it, in the high bits: a subcell is settled when the
    count is 1 and the one translate holds it."""
    fine = GRID * SETTLE
    settled = settled.reshape(fine, fine)
    bits = rid.size.bit_length()
    for c0, t, ix, lo, hi, hlo, hhi in _column_spans(foot, fine, _BAND,
                                                     first, end):
        band = settled[c0:c0 + _BAND]
        at = (ix - c0) * (fine + 1)
        held = (rid[t] + 1) << bits
        runs = np.zeros((len(band), fine + 1), dtype=np.int64)
        np.add.at(runs.ravel(),
                  np.concatenate([at + lo, at + hi, at + hlo, at + hhi]),
                  np.concatenate([np.ones_like(lo), -np.ones_like(hi),
                                  held, -held]))
        np.cumsum(runs, axis=1, out=runs)
        one = (runs & ((1 << bits) - 1)) == 1
        runs >>= bits
        runs -= 1
        runs[~one] = -1
        band[:] = runs[:, :fine]


def _column_spans(foot: np.ndarray, g: int, band: int, first, end
                  ) -> Iterator[Tuple[np.ndarray, ...]]:
    """The squares of the g x g grid of [0,1)^2 that the translates of the
    _footprints rows foot meet and hold, as spans of rows, column by column:
    (c0, t, ix, lo, hi, hlo, hhi) for each band of columns c0 <= ix < c0 +
    band, with one entry per translate t and column ix that it meets on the
    x axis, in (t, ix) order.  Translate t is read only in the columns
    first[t] <= ix < end[t] (first and end may be ints).  In column ix
    translate t meets the rows lo <= iy < hi, empty where lo = hi, and
    holds the rows hlo <= iy < hhi, a span within [lo, hi).

    The square [x0, x0 + s] x [y0, y0 + s], s = 1/g, with x0 = ix/g and
    y0 = iy/g: meets means that it and the translate come within
    CELL_MARGIN of each other on each of the four separating axes, x, y, a
    and b; holds means that its eigen-coordinate bounding box lies
    CELL_MARGIN inside the translate.  In a column, each of these float
    tests either does not involve y0 or compares a float expression that
    rounds monotonically in y0 with a bound, so the rows where it passes
    run from an edge up, or up to an edge.  Each edge is estimated from the
    bound and then set by the float test itself (_rise), so a span holds
    exactly the rows where the tests pass.
    """
    mu, nu, rt5, eps = _MU, _NU, _RT5, CELL_MARGIN
    s = 1.0 / g
    # the columns on the x axis
    fx0, fx1 = foot[:2]
    first = np.maximum(first, _rise(lambda k: fx0 <= k / g + s + eps,
                                    fx0 - eps - s, g))
    end = np.minimum(end, _rise(lambda k: ~(k / g <= fx1 + eps),
                                fx1 + eps, g))
    for c0 in range(0, g, band):
        t, j = _ragged(np.maximum(np.minimum(end, c0 + band)
                                  - np.maximum(first, c0), 0))
        ix = np.maximum(first, c0)[t] + j
        fy0, fy1, fa0, fa1, fb0, fb1 = foot[2:, t]
        x0 = ix / g
        nx0, nx1, mx0, mx1 = nu * x0, nu * (x0 + s), mu * x0, mu * (x0 + s)
        # the rows on the y, a and b axes, in the corners that each test
        # reads: (y0 - nu x0)/rt5 is the square's least a, (mu x1 - y0)/rt5
        # its greatest b, and so on
        lo = _rise(lambda k: ((fy0 <= k / g + s + eps)
                              & (fa0 <= (k / g + s - nx1) / rt5 + eps)
                              & ((mx0 - (k / g + s)) / rt5 <= fb1 + eps)),
                   np.maximum.reduce([fy0 - eps, (fa0 - eps) * rt5 + nx1,
                                      mx0 - (fb1 + eps) * rt5]) - s, g)
        hi = _rise(lambda k: ~((k / g <= fy1 + eps)
                               & ((k / g - nx0) / rt5 <= fa1 + eps)
                               & (fb0 <= (mx1 - k / g) / rt5 + eps)),
                   np.minimum.reduce([fy1 + eps, (fa1 + eps) * rt5 + nx0,
                                      mx1 - (fb0 - eps) * rt5]), g)
        hlo = _rise(lambda k: ((fa0 + eps <= (k / g - nx0) / rt5)
                               & ((mx1 - k / g) / rt5 <= fb1 - eps)),
                    np.maximum((fa0 + eps) * rt5 + nx0,
                               mx1 - (fb1 - eps) * rt5), g)
        hhi = _rise(lambda k: ~(((k / g + s - nx1) / rt5 <= fa1 - eps)
                                & (fb0 + eps <= (mx0 - (k / g + s)) / rt5)),
                    np.minimum((fa1 - eps) * rt5 + nx1,
                               mx0 - (fb0 + eps) * rt5) - s, g)
        hi = np.maximum(hi, lo)
        hlo = np.clip(hlo, lo, hi)
        yield c0, t, ix, lo, hi, hlo, np.clip(hhi, hlo, hi)


def _rise(test: Callable[[np.ndarray], np.ndarray], edge: np.ndarray,
          top: int) -> np.ndarray:
    """The least k in [0, top] where test(k) passes, top where it passes
    nowhere below top, for a test that passes from some k on: found from
    the estimate ceil(edge * top) by unit steps, each entry until test(k)
    passes and test(k - 1) does not."""
    k = np.clip(np.ceil(edge * top), 0, top).astype(np.int64)
    while True:
        step = (k < top) & ~test(k)
        step = step.astype(np.int64) - ((k > 0) & test(k - 1))
        if not step.any():
            return k
        k += step


class CatCoder:
    """Encode/decode points against a verified partition."""

    def __init__(self, partition: MarkovPartition,
                 matrix: Optional[TransitionMatrix] = None):
        q = len(partition)
        if matrix is not None and matrix.T.shape != (q, q):
            raise PartitionError(
                f"transition matrix of shape {matrix.T.shape} for a "
                f"partition of {q} rectangles; it must be {q} x {q}")
        self.partition = partition
        self.matrix = matrix or transition_matrix(partition)
        self._cells = CellTable([(float(r.anchor_a), float(r.anchor_b),
                                  float(r.extent_a), float(r.extent_b))
                                 for r in partition.rectangles])
        # decode reads the one strip of each allowed transition
        rects = partition.rectangles
        allowed = list(map(tuple, np.argwhere(self.matrix.T).tolist()))
        partition._fill_strips(allowed)
        strips = {}
        for s1, s2 in allowed:
            hits = partition.strips(s1, s2)
            if not hits:
                raise PartitionError(
                    f"transition {s1}->{s2} is allowed by the matrix, but "
                    f"R{s1} does not meet S^-1 R{s2}: the matrix does not "
                    "match the partition")
            if len(hits) > 1:
                raise PartitionError(
                    f"transition {s1}->{s2} has {len(hits)} strips; "
                    "partition is not single-strip")
            strips[s1, s2] = hits[0]
        # decode runs on integer pairs (P, Q) meaning (P + Q sqrt5)/den with
        # den = 2D, D the lcm of the denominators of the sides and strips:
        # those are then pairs of even integers, and every value of decode
        # stays in (1/D) Z[phi], the pairs with P = Q mod 2
        values = [v for r in rects for v in r.bounds()]
        values += [v for AB in strips.values() for v in AB]
        self._den = 2 * math.lcm(*(c.denominator for v in values
                                   for c in (v.a, v.b)))
        self._sides = []
        for r in rects:
            a0, a1, b0, b1 = map(self._pair, r.bounds())
            self._sides.append(((a0, a1), (b0, b1)))
        # a -> lambda_- a + A and b -> lambda_- (b - B) both take the form
        # v -> lambda_- v + shift; lambda_- is a unit of Z[phi], so the
        # b-shift lambda_- (-B) is a pair as well
        self._shifts = {key: (self._pair(A), self._pair(-(LAMBDA_MINUS_Q * B)))
                        for key, (A, B) in strips.items()}

    def _pair(self, v: Q5) -> Tuple[int, int]:
        return int(v.a * self._den), int(v.b * self._den)

    # -- point membership ------------------------------------------------
    def locate(self, x: float, y: float) -> Tuple[int, bool]:
        """Rectangle id of the lattice-unit point (x, y); flags boundary hits.

        Points within BOUNDARY_TOL (eigen-coordinate distance) of the
        boundary are assigned the lowest-id incident rectangle.  The point
        is read on the lattice at 53 bits (CellTable.locate_lattice): a
        coordinate that is a multiple of 2^-53, as every |x| >= 1/2 is, is
        read exactly mod 1, a finer one truncated by less than 2^-53.  A NaN
        or infinite coordinate raises ValueError.
        """
        _refuse_non_finite(x, y)
        return self._cells.locate_lattice(_lattice_coord(x), _lattice_coord(y))

    # -- encoding ----------------------------------------------------------
    def encode(self, p: TorusPoint, n: int) -> SymbolWindow:
        """Symbols of S^j p for |j| <= n.

        The orbit is the exact one of p's lattice point on 2^-64 Z^2, as
        in birkhoff_frequencies: moved to S^-n by s0_power(-n) mod 2^64,
        then stepped (X, Y) -> (X + Y, X + 2Y) mod 2^64, each point located
        by CellTable.locate_lattice.  The window is the exact window of a
        point within 2^-64 of p; a flag marks a point within BOUNDARY_TOL of
        a side.
        """
        check_count("n", n, 0)
        a, b, c, d = s0_power(-n)
        X, Y = _lattice_point(p)
        X, Y = (a * X + b * Y) & _MASK64, (c * X + d * Y) & _MASK64
        locate = self._cells.locate_lattice
        symbols = []
        flags = []
        for _ in range(2 * n + 1):
            rid, fl = locate(X, Y)
            symbols.append(rid)
            flags.append(fl)
            X, Y = (X + Y) & _MASK64, (X + 2 * Y) & _MASK64
        return SymbolWindow(symbols, n, flags)

    # -- decoding ----------------------------------------------------------
    def decode(self, window: SymbolWindow) -> Tuple[TorusPoint, float]:
        """Intersect S^{-j} Q_{sigma_j}; returns (center, diameter).

        Thanks to the single-strip property the intersection splits into
        independent 1-D refinements: forward symbols contract the unstable
        coordinate through the affine maps a -> lambda_- a + A(transition),
        backward symbols contract the stable one via b -> lambda_-(b - B).
        Both run exactly on the integer pairs of __init__, where one step is
        (P, Q) -> ((3P - 5Q)/2, (3Q - P)/2) plus the shift, an exact integer
        division; the cell shrinks like lambda_-^n in both directions.  The
        clamp to the sides of Q_{sigma_0} compares pairs by the exact sign
        of their difference, and each output coordinate becomes one Q5.
        A symbol outside 0..q - 1 raises PartitionError.
        """
        n = window.n
        sym = window.symbols
        # the other symbols are checked by the transition lookup
        if not 0 <= sym[n] < len(self._sides):
            raise PartitionError(f"symbol {sym[n]} at position 0 is outside "
                                 f"0..{len(self._sides) - 1}")
        shifts = []
        for j in range(2 * n):
            shift = self._shifts.get((sym[j], sym[j + 1]))
            if shift is None:
                raise PartitionError(
                    f"incompatible symbols at positions {j - n}, {j - n + 1}")
            shifts.append(shift)
        # forward refinement of the a-interval, from sigma_n back to sigma_0
        lo_a, hi_a = _contract(*self._sides[sym[2 * n]][0],
                               [A for A, _ in reversed(shifts[n:])])
        # backward refinement of the b-interval, from sigma_{-n} up to sigma_0
        lo_b, hi_b = _contract(*self._sides[sym[0]][1],
                               [C for _, C in shifts[:n]])
        (a0, a1), (b0, b1) = self._sides[sym[n]]
        lo_a = lo_a if pair_sign(lo_a, a0) > 0 else a0
        hi_a = hi_a if pair_sign(hi_a, a1) < 0 else a1
        lo_b = lo_b if pair_sign(lo_b, b0) > 0 else b0
        hi_b = hi_b if pair_sign(hi_b, b1) < 0 else b1
        if not (pair_sign(hi_a, lo_a) > 0 and pair_sign(hi_b, lo_b) > 0):
            raise PartitionError("empty refinement cell for the given window")
        # the centre's (a, b) is (pa + qa sqrt5, pb + qb sqrt5)/2den, so
        # x = a + b and y = mu a + nu b, with mu, nu = (1 +- sqrt5)/2
        den = self._den
        pa, qa = lo_a[0] + hi_a[0], lo_a[1] + hi_a[1]
        pb, qb = lo_b[0] + hi_b[0], lo_b[1] + hi_b[1]
        x = Q5.from_triple(pa + pb, qa + qb, 2 * den)
        y = Q5.from_triple(pa + 5 * qa + pb - 5 * qb, pa + qa - pb + qb,
                           4 * den)
        center = TorusPoint(float(x.mod1()) * TWO_PI, float(y.mod1()) * TWO_PI)
        da = float(Q5.from_triple(hi_a[0] - lo_a[0], hi_a[1] - lo_a[1], den))
        db = float(Q5.from_triple(hi_b[0] - lo_b[0], hi_b[1] - lo_b[1], den))
        diameter = math.hypot(da * _EU_LEN, db * _ES_LEN) * TWO_PI
        return center, diameter


def _contract(lo: Tuple[int, int], hi: Tuple[int, int],
              shifts: List[Tuple[int, int]]
              ) -> Tuple[Tuple[int, int], Tuple[int, int]]:
    """Both ends through v -> lambda_- v + shift, one shift after another,
    on integer pairs: lambda_- (P + Q sqrt5) = ((3P - 5Q) + (3Q - P) sqrt5)/2,
    exact when P = Q mod 2, which the step keeps."""
    (p0, q0), (p1, q1) = lo, hi
    for sp, sq in shifts:
        p0, q0 = (3 * p0 - 5 * q0) // 2 + sp, (3 * q0 - p0) // 2 + sq
        p1, q1 = (3 * p1 - 5 * q1) // 2 + sp, (3 * q1 - p1) // 2 + sq
    return (p0, q0), (p1, q1)


# ----------------------------------------------------------------------
# Birkhoff frequencies
# ----------------------------------------------------------------------
def birkhoff_frequencies(coder: CatCoder, x0: TorusPoint,
                         n_steps: int) -> Dict[int, float]:
    """Visit frequencies of each rectangle along the orbit of x0.

    The orbit is the exact one of the lattice point of x0 on 2^-64 Z^2
    (see _lattice_orbit), read at 53 bits.  Membership is evaluated by
    CellTable.assign_lattice, one chunk of the orbit at a time.  An orbit
    point that no rectangle holds raises PartitionError: the frequencies
    would not sum over the torus.
    """
    check_count("n_steps", n_steps, 1)
    counts = np.zeros(len(coder.partition), dtype=int)
    done = missed = 0
    for X, Y in _lattice_orbit(x0, n_steps):
        assign = coder._cells.assign_lattice(X, Y)
        out = np.flatnonzero(assign < 0)
        if not out.size:
            counts += np.bincount(assign, minlength=len(counts))
        elif not missed:
            i = out[0]
            first = (done + i, _lattice_read(X[i]), _lattice_read(Y[i]))
        missed += out.size
        done += X.size
    if missed:
        i, xi, yi = first
        raise PartitionError(
            f"{missed} of {n_steps} orbit points not located in any "
            f"rectangle; first at step {i}: ({xi}, {yi})")
    freqs = counts / counts.sum()
    return {rid: float(freqs[rid]) for rid in range(len(coder.partition))}


def _lattice_point(p: TorusPoint) -> Tuple[int, int]:
    """(X, Y) = floor(2^64 psi / 2 pi) mod 2^64: the lattice point of p on
    2^-64 Z^2, which S maps onto itself."""
    return _lattice_coord(p.psi1 / TWO_PI), _lattice_coord(p.psi2 / TWO_PI)


def _lattice_coord(x: float) -> int:
    """X = floor(2^64 fmod(x, 1)) mod 2^64, the lattice coordinate of the
    finite lattice-unit coordinate x on 2^-64 Z mod 1, in Python ints.
    fmod is exact, so this is floor(2^64 x) mod 2^64 for every x."""
    return math.floor(math.ldexp(math.fmod(x, 1.0), 64)) & _MASK64


def _lattice_coords53(x: np.ndarray) -> np.ndarray:
    """_lattice_coord of each finite coordinate, truncated to its top 53
    bits, as uint64: floor(2^53 fmod(x, 1)) mod 2^53, shifted left by 11.
    fmod, the scaling and floor are exact in floats; the shift of the
    wrapped int64 drops what the mod drops."""
    return np.floor(np.fmod(x, 1.0) * 2.0 ** 53).astype(np.int64).view(
        np.uint64) << 11


def _refuse_non_finite(x, y) -> None:
    """Raise ValueError naming the first NaN or infinite coordinate of x,
    then of y; each is a float or an array."""
    for name, v in (("x", x), ("y", y)):
        bad = np.flatnonzero(~np.isfinite(v))
        if bad.size:
            at = f"{name}[{bad[0]}]" if np.ndim(v) else name
            raise ValueError(f"point coordinate {at} = {np.ravel(v)[bad[0]]} "
                             "is not finite")


def _lattice_read(X):
    """The double (X >> 11) 2^-53 in [0, 1) of a lattice coordinate X in
    [0, 2^64), an int or a uint64 array: its top 53 bits, exactly."""
    return (X >> 11) * 2.0 ** -53


def _lattice_orbit(x0: TorusPoint, n_steps: int
                   ) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """S^j (X, Y) mod 2^64 for 0 <= j < n_steps, in order, as pairs of
    uint64 arrays of about CHUNK points.

    The orbit of x0's lattice point (_lattice_point) is exact.  It runs
    in blocks of L = ceil(sqrt(n_steps)) steps: a Python-int loop chains
    the block starts with S^L, and a uint64 broadcast, exact since uint64
    wraps mod 2^64, fills CHUNK // L blocks at a time.  S^j is symmetric
    with rows (a, b) and (b, a + b), where (a, b) = S^j (1, 0).
    """
    x, y = _lattice_point(x0)
    size = math.isqrt(n_steps - 1) + 1
    powers = []
    a, b = 1, 0
    for _ in range(size + 1):
        powers.append((a, b))
        a, b = (a + b) & _MASK64, (a + 2 * b) & _MASK64
    al, bl = powers.pop()
    a, b = np.array(powers, dtype=np.uint64).T
    left = n_steps
    while left:
        starts = []
        for _ in range(min(max(1, CHUNK // size), -(-left // size))):
            starts.append((x, y))
            x, y = ((al * x + bl * y) & _MASK64,
                    (bl * x + (al + bl) * y) & _MASK64)
        sx, sy = np.array(starts, dtype=np.uint64).T[:, :, None]
        X = a * sx
        X += b * sy
        Y = b * sx
        Y += (a + b) * sy
        k = min(left, X.size)
        yield X.ravel()[:k], Y.ravel()[:k]
        left -= k


def assign_rectangles(coder: CatCoder, x: np.ndarray, y: np.ndarray
                      ) -> np.ndarray:
    """Vectorized CatCoder.locate for lattice-unit points, each read as it
    reads them: the least id of the boxes within BOUNDARY_TOL of each point,
    -1 where none is; CHUNK points at a time.  x and y of different shapes
    raise ValueError."""
    if x.shape != y.shape:
        raise ValueError(f"x of shape {x.shape} and y of shape {y.shape} "
                         "differ")
    _refuse_non_finite(x, y)
    shape, x, y = x.shape, x.ravel(), y.ravel()
    out = np.empty(x.shape, dtype=int)
    for lo in range(0, x.size, CHUNK):
        out[lo:lo + CHUNK] = coder._cells.assign_lattice(
            _lattice_coords53(x[lo:lo + CHUNK]),
            _lattice_coords53(y[lo:lo + CHUNK]))
    return out.reshape(shape)


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
    """The partition of a partition_to_json document.  A document that is
    not an object with a list "rectangles" of objects, each with an id and
    four Q5 literals, the extents positive, raises PartitionError naming
    the entry and the field."""
    data = json.loads(text)
    items = data.get("rectangles") if isinstance(data, dict) else None
    if not isinstance(items, list):
        raise PartitionError("partition document must be an object with a "
                             f"list field 'rectangles', got {data!r:.40}")
    rects = []
    for i, item in enumerate(items):
        if not isinstance(item, dict):
            raise PartitionError(
                f"rectangle entry {i} must be an object, got {item!r:.40}")
        for key in ("id", "anchor_a", "anchor_b", "extent_a", "extent_b"):
            if key not in item:
                raise PartitionError(
                    f"rectangle entry {i} has no field {key!r}")
        rid = item["id"]
        if isinstance(rid, bool) or not isinstance(rid, int):
            raise PartitionError(f"rectangle entry {i} field 'id' must be "
                                 f"an integer, got {rid!r:.40}")
        values = []
        for key in ("anchor_a", "anchor_b", "extent_a", "extent_b"):
            literal = item[key]
            try:
                values.append(Q5.from_string(literal))
            except (AttributeError, ValueError, ZeroDivisionError):
                # AttributeError: the literal is not a string
                raise PartitionError(
                    f"rectangle entry {i} field {key!r} must be a Q5 "
                    f"literal 'a;b', got {literal!r:.40}") from None
        try:
            rects.append(Rectangle(rid, *values))
        except ValueError as exc:
            raise PartitionError(f"rectangle entry {i}: {exc}") from None
    return MarkovPartition(rects, provenance="loaded")
