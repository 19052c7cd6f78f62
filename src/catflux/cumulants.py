"""Exact eps-order SRB means and cumulants of the contraction rate.

The SRB state of the perturbed map, written in the unperturbed coordinates
through the conjugation H, is a Gibbs perturbation of the Lebesgue measure:
expectations become sums of connected Lebesgue correlators (Ursell
functions) of conjugation-composed observables together with insertions of
the expansion-rate orders,

  cum_srb(g_1, ..., g_n) =
      sum_{s>=0} 1/s! sum_{l_1..l_s} cum_0(g_1, .., g_n,
                                           -A_u o S0^{l_1}, .., -A_u o S0^{l_s}),

graded by total eps order.  Time cumulants follow from stationarity:
C_n = sum over n-1 relative shifts of cum_srb(sigma~ o S0^{j_1}, ..., sigma~),
with sigma~ = sigma o H.  Connectedness makes every shift sum finite for
trigonometric-polynomial data: a tuple contributes only when pushed
frequencies cancel, and |S0^k nu| grows like lambda_+^{|k|}.

Means, C_n, joint cumulants and the Green-Kubo transport matrix are all
connected correlations of shifted trigonometric polynomials, and all of
them are MomentEngine.ursell summed over the tuples that
MomentEngine.connected_grid keeps.

The shift tuples are enumerated connected, not walked.  S0 is symmetric,
so composing with S0^l scales the projections nu.v_+- by lambda_+-^l, and
one selection rule, _fixed_point, rules out shift tuples and moments alike.
A term of a zero-sum frequency selection that uses every factor has, in
either eigendirection, a scaled projection of at most the sum of its
partners' terms in the selection.  Each factor's bound starts at its
largest scaled projection.  The first step is the one-shot test: a factor
whose smallest usable projection exceeds the sum of its partners' bounds
has no selection.  The rounds that follow shrink each bound, one
eigendirection at a time, to the largest term that the partners' bounds
can still cancel, until no bound shrinks; a factor left without terms has
no selection either.

A joint cumulant of two or more factors ignores constant terms, so over a
grid of shift tuples the rule runs on centred factors
(MomentEngine.connected_grid).  For each split of a family's order among
its observables and insertions, MomentEngine.connected_tuples evaluates it
once, as one numpy mask over the joint grid of observable and insertion
shifts (in slabs of observable tuples when the grid is large), cuts each
observable tuple's insertion shifts to its own window, and returns the
survivors grouped by observable tuple.  Only the tuples with a survivor are
visited, in the walk's order, so the remaining terms are summed exactly as
before.  Inside an Ursell sum, a partition with a singleton block of a
centred factor (one without a constant term) is exactly 0, and neither it
nor the blocks only it uses are evaluated.

A moment runs the rule on its uncentred factors (MomentEngine._may_cancel).
A moment it rules out is recorded as exactly 0 without composing it; a
surviving moment composes only the terms of each factor within the final
bounds, and each distinct cut factor is composed once per engine.

Average-only terms are contracted, not built: the zero-insertion term of a
mean reads (obs o H)^(m) only at nu = 0, so it sums the averages of the
chain-rule terms (conjugation.chain_average) instead of multiplying out
the composed polynomial, which at the top order would be the largest the
engine holds.  Every factor of a moment with a partner is still built and
registered.

Every connected sum, transport matrix included, is walked once, out to
SUFFICIENCY_EXTRA beyond SHIFT_WINDOW; its rim, the terms outside
SHIFT_WINDOW, must stay below SUFFICIENCY_TOL of the rest, or it raises.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .conjugation import (ExpansionRateSeries, _check_order, chain_average,
                          chain_order, compositions, log1p_series)
from .torus import HarmonicForce, check_count
from .trig import (_SHADOW_REL, FREQ_LIMIT, LAMBDA_PLUS, PAIR_CHUNK, SQRT5,
                   TrigPoly, V_MINUS, V_PLUS, product_average)

# every shift sum is certified for this window; read at call time
SHIFT_WINDOW = 12
SUFFICIENCY_EXTRA = 3
# window sufficiency is an exact frequency-growth statement; numerically the
# rim's terms carry O(1e-13) float dust, so the guard asserts at 1e-11
SUFFICIENCY_TOL = 1e-11
ORDER_CAP = 6


@dataclass
class ObservableSeries:
    """eps-orders of an observable."""

    orders: List[TrigPoly]            # orders[k] = eps^k coefficient

    @property
    def max_order(self) -> int:
        return len(self.orders) - 1

    def key(self) -> tuple:
        """The orders' keys: equal series have equal keys."""
        return tuple(poly.key() for poly in self.orders)

    @property
    def min_order(self) -> int:
        """Lowest eps order with a nonzero coefficient (0 for fixed observables)."""
        for k, poly in enumerate(self.orders):
            if poly:
                return k
        return len(self.orders)


def sigma_series(force: HarmonicForce, max_order: int) -> ObservableSeries:
    """Taylor orders of sigma = -log(1 + eps g): sigma^(m) = (-1)^m g^m / m.

    g is the Jacobian polynomial (2 d1 - d2) f1; for f = sin psi1 this gives
    sigma^(1) = -2 cos psi1, sigma^(2) = 2 cos^2 psi1, sigma^(3) = -8/3 cos^3.
    The orders are the negated log1p expansion that A_u also uses.
    """
    _check_order(max_order, ORDER_CAP)
    log_orders = log1p_series([TrigPoly.zero(), force.jacobian_poly()],
                              max_order)
    return ObservableSeries([-1.0 * p for p in log_orders])


def _set_partitions(items: Sequence[int]) -> Iterator[List[List[int]]]:
    """All partitions of a small index set (Bell(ORDER_CAP) = 203 at most)."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]
        yield [[first]] + part


# partitions of {0..n-1} for the arities the order cap allows, precomputed,
# and the Moebius coefficient (-1)^{b-1} (b-1)! per block count
_PARTITIONS = {n: [tuple(map(tuple, p)) for p in _set_partitions(list(range(n)))]
               for n in range(2, ORDER_CAP + 1)}
_PARTITION_COEF = {b: (-1.0) ** (b - 1) * math.factorial(b - 1)
                   for b in range(1, ORDER_CAP + 1)}


@functools.lru_cache(maxsize=None)
def _ursell_plan(centred: Tuple[bool, ...]):
    """The partitions of {0..n-1} (n = len(centred)) that an Ursell sum
    evaluates, and their distinct blocks in the order of first use; each
    block is an increasing index tuple.

    A centred factor (no constant term) has a lone average of exactly 0,
    so every partition with a singleton block of one is exactly 0 and is
    left out, and so are the blocks that only such partitions use.
    """
    parts = tuple(part for part in _PARTITIONS[len(centred)]
                  if not any(len(b) == 1 and centred[b[0]] for b in part))
    return parts, tuple(dict.fromkeys(b for part in parts for b in part))


FactorRef = Tuple[int, int]  # (base poly id, shift)


# relative widening of projection bounds: they carry a few ulp of rounding
PROJECTION_SLACK = 1e-12


def _norm_form(n1: np.ndarray, n2: np.ndarray) -> np.ndarray:
    """The integer norm n1^2 + n1 n2 - n2^2, as floats, without cancellation.

    Where a float64 shadow of the form, plus its rounding bound (that of
    trig's composition shadow), stays below FREQ_LIMIT = 2^62, the true
    value fits in int64 and the wrapping int64 form is exact; elsewhere the
    shadow is used when its rounding bound is below 1e-15 of its value, and
    Python ints where it is not.
    """
    f1, f2 = n1.astype(float), n2.astype(float)
    shadow = f1 * f1 + f1 * f2 - f2 * f2
    err = _SHADOW_REL * (f1 * f1 + np.abs(f1 * f2) + f2 * f2)
    exact = np.abs(shadow) + err < FREQ_LIMIT
    out = np.where(exact, (n1 * n1 + n1 * n2 - n2 * n2).astype(float), shadow)
    for i in np.flatnonzero(~exact & (err > 1e-15 * np.abs(shadow))).tolist():
        x, y = int(n1[i]), int(n2[i])
        out[i] = float(x * x + x * y - y * y)
    return out


def _term_projections(poly: TrigPoly) -> Tuple[np.ndarray, np.ndarray]:
    """Per-term |nu.v_+| and |nu.v_-|, both 0 at nu = 0.

    Computed in floats, the smaller of the two projections cancels once
    |nu| nears 1e13.  It is taken instead from the exact integer norm,
    (nu.v_+)(nu.v_-) = (nu1^2 + nu1 nu2 - nu2^2) / sqrt5, divided by the
    larger projection, which does not cancel.
    """
    n1, n2 = poly.n1, poly.n2
    a = n1 * V_PLUS[0] + n2 * V_PLUS[1]
    b = n1 * V_MINUS[0] + n2 * V_MINUS[1]
    norm = _norm_form(n1, n2) / SQRT5
    unstable = np.abs(a) >= np.abs(b)
    nonzero = (n1 != 0) | (n2 != 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        a, b = (np.where(unstable, a, norm / b),
                np.where(unstable, norm / a, b))
    return (np.where(nonzero, np.abs(a), 0.0),
            np.where(nonzero, np.abs(b), 0.0))


def _fixed_point(projections: Sequence[Tuple[np.ndarray, np.ndarray]],
                 scales: Sequence, first: Sequence[int]) -> tuple:
    """Whether the factors can have a zero-sum frequency selection that uses
    every factor, and per factor the largest unscaled projections (a, b)
    that one may use.

    Factor j has the sorted projections projections[j], usable from index
    first[j] on, scaled by scales[j] = lambda_+^l.  For one tuple of shifts
    the scales are floats, and the result is a bool and the bounds.  Over
    a grid of tuples they are arrays that broadcast together, the result is
    a mask over the grid and None, and the rounds run only on the cells
    that the first step keeps.  Bounds are widened by PROJECTION_SLACK, and
    each partner sum is summed directly: "total minus own" would cancel
    when one factor dominates.
    """
    low, high = 1.0 - PROJECTION_SLACK, 1.0 + PROJECTION_SLACK
    if any(a.size <= f for (a, _), f in zip(projections, first)):
        return False, None
    tops = [[float(a[-1]), float(b[-1])] for a, b in projections]
    ahi = [lp * (a * high) for lp, (a, _) in zip(scales, tops)]
    bhi = [b * high / lp for lp, (_, b) in zip(scales, tops)]

    def partners(j):
        pa = pb = 0.0
        for k in range(len(ahi)):
            if k != j:
                pa, pb = pa + ahi[k], pb + bhi[k]
        return pa, pb

    keep = True
    for j, ((a, b), lp, f) in enumerate(zip(projections, scales, first)):
        pa, pb = partners(j)
        keep = (keep & (lp * (float(a[f]) * low) <= pa)
                & (float(b[f]) * low / lp <= pb))
    grid = isinstance(keep, np.ndarray)
    if grid:
        cells = np.nonzero(keep)
        scales, ahi, bhi = ([np.broadcast_to(x, keep.shape)[cells] for x in xs]
                            for xs in (scales, ahi, bhi))
    elif not keep:
        return False, None
    # a cell needs a search only where a limit falls below its bound; the
    # bounds only shrink, so a search elsewhere would find the bound again
    anywhere = np.ndarray.any if grid else bool
    live = keep[cells] if grid else True
    shrunk = True
    while shrunk and anywhere(live):
        shrunk = False
        for j, ((a, b), lp, f) in enumerate(zip(projections, scales, first)):
            pa, pb = partners(j)
            alim, blim = pa / (lp * low), pb * lp / low
            top = tops[j]
            if anywhere(live & (alim < top[0])):
                count = a.searchsorted(alim, "right")
                live = live & (count > f)
                top[0] = a[count - 1]
                ahi[j] = lp * (top[0] * high)
                shrunk = True
            if anywhere(live & (blim < top[1])):
                count = b.searchsorted(blim, "right")
                live = live & (count > f)
                top[1] = b[count - 1]
                bhi[j] = top[1] * high / lp
                shrunk = True
    if grid:
        keep[cells] = live
        return keep, None
    return bool(live), tops


def _canonical(refs: Sequence[FactorRef]) -> Tuple[FactorRef, ...]:
    """The cache key of a moment or a cumulant of the factors: both are
    translation invariant, so the least shift is moved to 0 and the
    factors are sorted."""
    shift0 = min(r[1] for r in refs)
    return tuple(sorted((bid, sh - shift0) for bid, sh in refs))


class MomentEngine:
    """Cached Lebesgue moments of products of shifted base polynomials.

    Base polynomials are registered once; factors are (base_id, shift) pairs
    and moments are canonicalized by translation invariance (subtract the
    minimum shift) before caching.  Each base keeps its per-term
    eigen-projections (_term_projections), in term order and sorted, and
    whether it is centred (has no constant term).  One selection rule on
    the projections, _fixed_point, rules out whole cumulants over a grid of
    shift tuples (connected_grid) and single moments (_may_cancel) without
    ever materializing the composed polynomial; a moment it keeps is
    composed from the terms of each factor within the rule's final bounds.
    Every distinct computed moment is kept, which doubles as the record a
    quadrature replay can re-evaluate.
    """

    def __init__(self):
        self.bases: List[TrigPoly] = []
        self._base_ids: Dict[bytes, int] = {}
        self._terms: List[Tuple[np.ndarray, np.ndarray]] = []
        self._sorted: List[Tuple[np.ndarray, np.ndarray]] = []
        self._centred: List[bool] = []
        self.moments: Dict[Tuple[FactorRef, ...], float] = {}
        # composed, cut factors of _cancelling per (base id, shift, a-bound,
        # b-bound): equal bounds give the same cut
        self._factors: Dict[Tuple[int, int, float, float], TrigPoly] = {}
        self._ursells: Dict[Tuple[FactorRef, ...], float] = {}

    def register(self, poly: TrigPoly) -> int:
        key = poly.key()
        bid = self._base_ids.get(key)
        if bid is None:
            bid = len(self.bases)
            self.bases.append(poly)
            self._base_ids[key] = bid
            a, b = _term_projections(poly)
            self._terms.append((a, b))
            self._sorted.append((np.sort(a), np.sort(b)))
            self._centred.append(
                not np.any((poly.n1 == 0) & (poly.n2 == 0)))
        return bid

    def connected_grid(self, bids: Sequence[int],
                       ranges: Sequence[Tuple[int, int]]) -> np.ndarray:
        """Mask over the shift tuples of two or more factors, one axis per
        factor: factor j, base bids[j], takes the shifts ranges[j] =
        (lo, hi), and a cell is True where the joint cumulant of the
        factors at its shifts can be nonzero.

        A joint cumulant of two or more factors ignores constant terms, so
        _fixed_point skips a factor's constant term, the first of its
        sorted projections.  Each shift scales by lambda_+^l from Python's
        power, so every cell agrees bit for bit with the test at its tuple
        alone.
        """
        scales = []
        for axis, (lo, hi) in enumerate(ranges):
            shape = [1] * len(bids)
            shape[axis] = -1
            powers = np.array([LAMBDA_PLUS ** sh for sh in range(lo, hi + 1)])
            scales.append(powers.reshape(shape))
        keep, _ = _fixed_point([self._sorted[bid] for bid in bids], scales,
                               [int(not self._centred[bid]) for bid in bids])
        return np.array(np.broadcast_to(
            keep, tuple(hi - lo + 1 for lo, hi in ranges)))

    def connected_tuples(self, fixed: Sequence[int],
                         ranges: Sequence[Tuple[int, int]],
                         free: Sequence[int], reach: int
                         ) -> Dict[Tuple[int, ...], np.ndarray]:
        """The connected shift tuples of the factors fixed + free, from one
        connected_grid mask, grouped by the shifts of fixed.

        Factor j of fixed takes the shifts ranges[j] = (lo, hi); the free
        shifts of a fixed tuple t run over its own window, from
        min(t) - reach to max(t) + reach.  Maps each fixed tuple with a
        survivor to its surviving free-shift tuples, one per row, both in
        lexicographic order: the order of a walk over the tuples.
        """
        n, s = len(fixed), len(free)
        lo = min(r[0] for r in ranges) - reach
        hi = max(r[1] for r in ranges) + reach
        keep = self.connected_grid(list(fixed) + list(free),
                                   list(ranges) + [(lo, hi)] * s)
        if s:
            mesh = np.ix_(*[np.arange(a, b + 1) for a, b in ranges])
            low = functools.reduce(np.minimum, mesh)[..., None] - reach
            high = functools.reduce(np.maximum, mesh)[..., None] + reach
            shifts = np.arange(lo, hi + 1)
            inside = (shifts >= low) & (shifts <= high)
            for axis in range(s):
                shape = list(inside.shape[:n]) + [1] * s
                shape[n + axis] = -1
                keep &= inside.reshape(shape)
        hits = np.argwhere(keep)
        if not hits.size:
            return {}
        heads = hits[:, :n] + [r[0] for r in ranges]
        starts = np.flatnonzero(np.r_[True, np.any(heads[1:] != heads[:-1],
                                                   axis=1)]).tolist()
        tails = hits[:, n:] + lo
        return {tuple(heads[i].tolist()): tails[i:j]
                for i, j in zip(starts, starts[1:] + [len(tails)])}

    def moment(self, refs: Sequence[FactorRef]) -> float:
        """Torus average of the product of the factors, cached; only the
        moments _may_cancel keeps are composed, the rest are exactly 0."""
        if not refs:
            return 1.0
        return self._moment_at(_canonical(refs))

    def _moment_at(self, key: Tuple[FactorRef, ...]) -> float:
        """moment of a key that is already canonical (_canonical)."""
        val = self.moments.get(key)
        if val is None:
            tops = self._may_cancel(key)
            val = product_average(self._cancelling(key, tops)) if tops else 0.0
            self.moments[key] = val
        return val

    def _may_cancel(self, key: Sequence[FactorRef]
                    ) -> Optional[List[List[float]]]:
        """Per factor, the largest unscaled projections (a, b) that a
        zero-sum frequency selection of the factors may use (_fixed_point
        with every term usable); None proves the moment exactly 0."""
        keep, tops = _fixed_point([self._sorted[bid] for bid, _ in key],
                                  [LAMBDA_PLUS ** sh for _, sh in key],
                                  [0] * len(key))
        return tops if keep else None

    def _cancelling(self, key: Sequence[FactorRef],
                    tops: Sequence[Sequence[float]]) -> List[TrigPoly]:
        """The factors of a moment, each cut down to the terms within its
        bounds from _may_cancel (tops) and then composed with its shift.

        Every term of a zero-sum selection lies within those bounds; a term
        outside them adds nothing to the average, and dropping it is exact.
        Only the survivors are composed, which keeps the composed
        frequencies far below the int64 limit.  Each distinct cut factor is
        composed once and kept (_factors).
        """
        out = []
        for (bid, sh), (atop, btop) in zip(key, tops):
            poly = self._factors.get((bid, sh, atop, btop))
            if poly is None:
                a, b = self._terms[bid]
                keep = (a <= atop) & (b <= btop)
                poly = self.bases[bid]
                if not keep.all():
                    poly = poly.take(keep)
                poly = poly.compose_power(sh)
                self._factors[bid, sh, atop, btop] = poly
            out.append(poly)
        return out

    def ursell(self, refs: Sequence[FactorRef]) -> float:
        """Joint connected correlation (cumulant) of the factors."""
        n = len(refs)
        if n == 1:
            return self.moment(refs)
        key = _canonical(refs)
        cached = self._ursells.get(key)
        if cached is not None:
            return cached
        # which blocks are evaluated depends on the factors alone, so the
        # recorded moments do not depend on the order of the base ids.  A
        # block of the sorted key is sorted, so moving its least shift to 0
        # makes it canonical
        parts, blocks = _ursell_plan(
            tuple([self._centred[bid] for bid, _ in key]))
        values = {}
        for block in blocks:
            factors = [key[i] for i in block]
            low = min([sh for _, sh in factors])
            values[block] = self._moment_at(
                tuple([(bid, sh - low) for bid, sh in factors]))
        total = 0.0
        for part in parts:
            prod = math.prod([values[block] for block in part])
            total += _PARTITION_COEF[len(part)] * prod
        self._ursells[key] = total
        return total


def _certified(total: float, rim: float, what: str) -> float:
    """total, once its rim (the part outside SHIFT_WINDOW) is negligible."""
    if abs(rim) > SUFFICIENCY_TOL * max(1.0, abs(total - rim)):
        raise RuntimeError(f"shift window {SHIFT_WINDOW} insufficient for "
                           f"{what}: delta {rim:.3e}")
    return total


def _mixed_splits(obs_mins: Sequence[int], n_ins: int, total: int
                  ) -> Iterator[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
    """Observable orders >= their minimums, insertion orders >= 1."""
    obs_floor = sum(obs_mins)
    for ins_total in (range(n_ins, total - obs_floor + 1) if n_ins else [0]):
        for ins in compositions(ins_total, (1,) * n_ins):
            for obs in compositions(total - ins_total, obs_mins):
                yield obs, ins


@dataclass(frozen=True)
class _Resolved:
    """One family of observables at one order, resolved for srb sums."""

    m: int
    oids: Tuple[int, ...]           # observable numbers, for cache keys
    ids: List[List[int]]            # composed base ids per observable
    min_orders: Tuple[int, ...]
    average: Optional[float]        # lone observable: composed_average at m


class CorrelationEngine:
    """SRB means, cumulants, and joint cumulants for one force."""

    def __init__(self, force: HarmonicForce, max_order: int = 4):
        _check_order(max_order, ORDER_CAP)
        self.force = force
        self.max_order = max_order
        # the series extend lazily to whatever depth the requested orders
        # actually need (deep chain orders are the expensive part); the
        # observables and the rate series share one conjugation series
        self.expansion = ExpansionRateSeries(force, 1, boundary=False)
        self.conj = self.expansion.rates.conj
        self.engine = MomentEngine()
        self._insertion_ids: Dict[int, int] = {}
        # observables are numbered by their canonical key, sigma (built once)
        # as 0 without re-keying; the composed base ids are cached per
        # observable number
        self._sigma = sigma_series(force, max_order)
        self._obs_ids: Dict[tuple, int] = {self._sigma.key(): 0}
        self._composed_cache: Dict[int, List[int]] = {}
        self._cum_cache: Dict[tuple, Tuple[float, float]] = {}

    def _insertion_id(self, q: int) -> int:
        """Base id of -A_u^(q) with the constant part stripped.

        Constants never change a joint cumulant with >= 2 arguments, and an
        insertion always accompanies at least one observable.
        """
        bid = self._insertion_ids.get(q)
        if bid is None:
            poly = -1.0 * self.expansion.order(q)
            poly = poly.take((poly.n1 != 0) | (poly.n2 != 0))
            bid = self.engine.register(poly)
            self._insertion_ids[q] = bid
        return bid

    # ------------------------------------------------------------------
    # observables composed with the conjugation
    # ------------------------------------------------------------------
    def _obs_id(self, obs: ObservableSeries) -> int:
        if obs is self._sigma:
            return 0
        return self._obs_ids.setdefault(obs.key(), len(self._obs_ids))

    def composed_ids(self, obs: ObservableSeries, up_to: int) -> List[int]:
        """Base ids of (obs o H)^(n) for n = 0..up_to, computed lazily.

        Laziness matters: an observable with a nonzero order-0 part pushes
        chain orders (and hence conjugation orders) as deep as the requested
        eps order, which is expensive and usually unnecessary.  Only factors
        of moments need these polynomials: an average-only term is
        contracted by composed_average, never built.
        """
        ids = self._composed_cache.setdefault(self._obs_id(obs), [])
        for n in range(len(ids), up_to + 1):
            total = sum(self._chained(obs, n, chain_order), TrigPoly.zero())
            ids.append(self.engine.register(total))
        return ids

    def composed_average(self, obs: ObservableSeries, n: int) -> float:
        """Torus average of (obs o H)^(n), contracted.

        Summed over the observable's orders j as in composed_ids, with
        chain_average in place of chain_order: the order-n polynomial, the
        largest the engine would otherwise build, is never multiplied out.
        """
        return sum(self._chained(obs, n, chain_average), 0.0)

    def _chained(self, obs: ObservableSeries, n: int, chain) -> Iterator:
        """chain(obs^(j), h_+, h_-, n - j) over the nonzero orders j <= n of
        the observable, the conjugation extended to order n - j first."""
        for j in range(0, min(n, obs.max_order) + 1):
            if obs.orders[j]:
                self.conj.extend_to(max(1, n - j))
                yield chain(obs.orders[j], self.conj.h_plus,
                            self.conj.h_minus, n - j)

    # ------------------------------------------------------------------
    # core connected expectation
    # ------------------------------------------------------------------
    def _resolve(self, observables: Sequence[ObservableSeries], m: int
                 ) -> _Resolved:
        """Observable numbers, composed base ids and minimum orders of one
        family at order m, looked up once for a whole shift sum.

        A lone observable's zero-insertion term is the torus average of
        (obs o H)^(m); it is contracted (composed_average), not built, so
        the composed bases of a mean stop at order m - 1.  The public
        quantities check m, an integer in 0..max_order, before any work.
        """
        min_orders = tuple(obs.min_order for obs in observables)
        oids = tuple(self._obs_id(obs) for obs in observables)
        if len(observables) == 1:
            obs = observables[0]
            return _Resolved(m, oids, [self.composed_ids(obs, m - 1)],
                             min_orders, self.composed_average(obs, m))
        # one observable can absorb at most m minus the partners' minimum
        # orders; computing chains deeper than that is wasted work
        total_min = sum(min_orders)
        ids = [self.composed_ids(obs, max(0, m - (total_min - mo)))
               for obs, mo in zip(observables, min_orders)]
        return _Resolved(m, oids, ids, min_orders, None)

    def _splits(self, fam: _Resolved
                ) -> List[Tuple[List[int], List[int], float]]:
        """(observable base ids, insertion base ids, 1/s!) of each split of
        the family's order with s insertions, in summation order.

        A split with a zero observable is left out; a lone observable's
        zero-insertion term is its average, which needs no split.
        """
        out = []
        first = 0 if fam.average is None else 1
        for s in range(first, fam.m - sum(fam.min_orders) + 1):
            weight = 1.0 / math.factorial(s)
            for obs_orders, ins_orders in _mixed_splits(fam.min_orders, s,
                                                        fam.m):
                obs = [fam.ids[i][o] for i, o in enumerate(obs_orders)]
                if all(self.engine.bases[bid] for bid in obs):
                    out.append((obs, [self._insertion_id(q)
                                      for q in ins_orders], weight))
        return out

    def _cumulant_at(self, fam: _Resolved, shifts: Sequence[int],
                     terms: Sequence[tuple]) -> Tuple[float, float]:
        """The family's joint SRB cumulant at these observable shifts, and
        its rim: the part whose insertion shifts leave [lo, hi], the
        observable shifts' span widened by SHIFT_WINDOW.  terms pairs each
        split with its connected insertion-shift lists at these shifts."""
        key = (tuple(sorted(zip(fam.oids, shifts))), fam.m)
        cached = self._cum_cache.get(key)
        if cached is not None:
            return cached
        lo, hi = min(shifts) - SHIFT_WINDOW, max(shifts) + SHIFT_WINDOW
        # the zero-insertion term of a lone observable is its average
        total = 0.0 if fam.average is None else fam.average
        rim = 0.0
        for (obs, ins, weight), lvecs in terms:
            base_refs = list(zip(obs, shifts))
            for lvec in lvecs:
                term = weight * self.engine.ursell(base_refs
                                                   + list(zip(ins, lvec)))
                total += term
                if term and any(l < lo or l > hi for l in lvec):
                    rim += term
        self._cum_cache[key] = total, rim
        return total, rim

    # ------------------------------------------------------------------
    # public quantities
    # ------------------------------------------------------------------
    def srb_mean_order(self, m: int, obs: Optional[ObservableSeries] = None
                       ) -> float:
        """<obs>_+ at eps-order m (obs defaults to sigma)."""
        check_count("order", m, 0, self.max_order)
        obs = obs if obs is not None else self.sigma_observable()
        return self._shift_summed(self._resolve([obs], m), f"mean order {m}")

    def sigma_observable(self) -> ObservableSeries:
        """sigma's eps-orders, built once per engine."""
        return self._sigma

    def cumulant(self, n: int, m: int, obs: Optional[ObservableSeries] = None
                 ) -> float:
        """C_n at eps-order m: summed joint SRB cumulant over n-1 shifts."""
        if n < 2:
            raise ValueError("cumulant order n must be >= 2 (use srb_mean_order)")
        check_count("order", m, 0, self.max_order)
        if m < n:
            return 0.0
        obs = obs if obs is not None else self.sigma_observable()
        return self._shift_summed(self._resolve([obs] * n, m), f"C_{n}^({m})")

    def joint_cumulant(self, multi_index: Sequence[int], m: int,
                       obs: ObservableSeries) -> float:
        """C_{alpha_1...alpha_k} at order m; index 1 -> sigma, 2 -> obs."""
        if any(a not in (1, 2) for a in multi_index):
            raise ValueError("multi-index entries must be 1 or 2")
        check_count("order", m, 0, self.max_order)
        series = [self.sigma_observable() if a == 1 else obs for a in multi_index]
        return self._shift_summed(self._resolve(series, m), "joint cumulant")

    def _shift_summed(self, fam: _Resolved, what: str) -> float:
        """The family's sum over its observable shifts, certified; a tuple
        with an observable shift beyond SHIFT_WINDOW is rim as a whole."""
        total = rim = 0.0
        for shifts, terms in self._connected_terms(fam):
            val, edge = self._cumulant_at(fam, shifts, terms)
            total += val
            rim += val if any(abs(k) > SHIFT_WINDOW for k in shifts) else edge
        return _certified(total, rim, what)

    def _connected_terms(self, fam: _Resolved) -> Iterator[tuple]:
        """(observable shifts, terms for _cumulant_at) of each observable-
        shift tuple with a connected term in some split, in lexicographic
        order; the last observable sits at shift 0, and a lone observable's
        one tuple is always visited, for its average.

        Each split's survivors come from one connected_tuples mask per slab
        of observable tuples; the slabs tile the window in lexicographic
        order and hold about PAIR_CHUNK cells of the joint grid, or one
        tuple's insertion grid when that is larger.
        """
        splits = self._splits(fam)
        window = SHIFT_WINDOW + SUFFICIENCY_EXTRA
        widest = max([len(ins) for _, ins, _ in splits], default=0)
        for ranges in _slabs(len(fam.ids) - 1, window,
                             (4 * window + 1) ** widest):
            ranges = ranges + [(0, 0)]
            found = [self.engine.connected_tuples(obs, ranges, ins, window)
                     for obs, ins, _ in splits]
            heads = ([(0,)] if fam.average is not None
                     else sorted(set().union(*found)))
            for head in heads:
                yield list(head), [(split, tails[head].tolist()
                                    if head in tails else [])
                                   for split, tails in zip(splits, found)]


def _slabs(axes: int, window: int, cells: int
           ) -> Iterator[List[Tuple[int, int]]]:
    """Boxes of observable-shift tuples that tile [-window, window]^axes in
    lexicographic order; a box holds about PAIR_CHUNK // cells tuples, or
    one.

    Leading axes are taken one value at a time until a value of the next
    axis, with the remaining axes whole, fits; that axis is then cut into
    runs of as many values as fit.
    """
    if not axes:
        yield []
        return
    span = 2 * window + 1
    lead = 0
    while lead < axes - 1 and span ** (axes - lead - 1) * cells > PAIR_CHUNK:
        lead += 1
    rest = axes - lead - 1
    step = max(1, PAIR_CHUNK // (span ** rest * cells))
    for head in itertools.product(range(-window, window + 1), repeat=lead):
        for start in range(-window, window + 1, step):
            yield ([(v, v) for v in head]
                   + [(start, min(start + step - 1, window))]
                   + [(-window, window)] * rest)


@dataclass
class CumulantTable:
    """mean[m] = <sigma>_+ at eps-order m and C[n][m], n >= 2."""

    max_order: int
    mean: Dict[int, float] = field(default_factory=dict)
    C: Dict[int, Dict[int, float]] = field(default_factory=dict)

    def mean_total(self, eps: float) -> float:
        return sum(v * eps ** m for m, v in self.mean.items())

    def mean_order(self, m: int) -> float:
        return self.mean.get(m, 0.0)


def build_table(force: HarmonicForce, max_order: int = 4,
                engine: Optional[CorrelationEngine] = None) -> CumulantTable:
    """Means and cumulants C_2..C_max through total eps-order max_order,
    from a given engine built for this force to at least that order."""
    _check_order(max_order, ORDER_CAP)
    eng = engine or CorrelationEngine(force, max_order)
    if eng.force != force or eng.max_order < max_order:
        raise ValueError("engine built for another force or a lower order "
                         f"than {max_order}: pass a matching one or none")
    table = CumulantTable(max_order)

    def snap(v: float) -> float:
        # selection-rule zeros are exact; snap float dust so the eps-grading
        # of downstream series divisions stays clean
        return 0.0 if abs(v) < 1e-13 else v

    for m in range(2, max_order + 1):
        table.mean[m] = snap(eng.srb_mean_order(m))
    # first order vanishes (sigma|_{G=0} = 0 argument); record it
    table.mean[1] = snap(eng.srb_mean_order(1))
    for n in range(2, max_order + 1):
        table.C[n] = {}
        for m in range(n, max_order + 1):
            table.C[n][m] = snap(eng.cumulant(n, m))
    return table


@dataclass(frozen=True)
class TransportMatrix:
    """Green-Kubo transport coefficients with the symmetry residual."""

    L: Tuple[Tuple[float, ...], ...]
    symmetry_residual: float


def transport_matrix(force_family: Sequence[HarmonicForce]) -> TransportMatrix:
    """L_ij = 1/2 sum_k <J_i o S0^k ; J_j>_0 with J_i = d sigma / d G_i |_0.

    Each family member's amplitude is an independent coupling, so
    J_i^(0) = -g_i with g_i the member's unit Jacobian polynomial.  The
    connected correlation is the engine's Ursell function of the pair,
    summed over the k that connected_grid keeps, and certified.
    """
    engine = MomentEngine()
    ids = [engine.register(-1.0 * fam.jacobian_poly()) for fam in force_family]
    s = len(ids)
    wide = SHIFT_WINDOW + SUFFICIENCY_EXTRA
    L = [[0.0] * s for _ in range(s)]
    for i in range(s):
        for j in range(s):
            total = rim = 0.0
            keep = engine.connected_grid([ids[j], ids[i]],
                                         [(0, 0), (-wide, wide)])[0]
            for k in (np.flatnonzero(keep) - wide).tolist():
                term = engine.ursell([(ids[i], k), (ids[j], 0)])
                total += term
                if abs(k) > SHIFT_WINDOW:
                    rim += term
            L[i][j] = 0.5 * _certified(total, rim, f"L_{i}{j}")
    resid = max(abs(L[i][j] - L[j][i]) for i in range(s) for j in range(s))
    return TransportMatrix(tuple(tuple(row) for row in L), resid)
