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

Average-only terms are contracted, not built: the zero-insertion term of a
mean reads (obs o H)^(m) only at nu = 0, so it sums product_average over
the chain-rule terms (conjugation.chain_average) instead of multiplying out
the composed polynomial, which at the top order would be the largest the
engine holds.  Every factor of a moment with a partner is still built and
registered.

All shift windows carry an automatic sufficiency re-check (enlarging the
window must change nothing beyond 1e-14).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .conjugation import (ConjugationSeries, ExpansionRateSeries,
                          chain_average, chain_order)
from .torus import HarmonicForce
from .trig import (DEFAULT_TRUNCATION, LAMBDA_PLUS, TrigPoly, Truncation,
                   V_MINUS, V_PLUS, product_average, s0_power)

DEFAULT_SHIFT_WINDOW = 12
SUFFICIENCY_EXTRA = 3
# window sufficiency is an exact frequency-growth statement; numerically the
# re-summation over ~3e4 extra tuples carries O(1e-13) float dust, so the
# automatic guard asserts at 1e-11 while tests probe tighter on small windows
SUFFICIENCY_TOL = 1e-11
ORDER_CAP = 6


@dataclass
class ObservableSeries:
    """eps-orders of an observable, with declared time-reversal parity."""

    orders: List[TrigPoly]            # orders[k] = eps^k coefficient
    parity: Optional[str] = None      # 'odd' | 'even' | None under I0 at eps=0
    name: str = "obs"

    @property
    def max_order(self) -> int:
        return len(self.orders) - 1

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
    """
    if max_order > ORDER_CAP:
        raise ValueError(f"order {max_order} beyond cap {ORDER_CAP}")
    g = force.jacobian_poly()
    orders = [TrigPoly.zero()]
    power = TrigPoly.const(1.0)
    sign = 1.0
    for m in range(1, max_order + 1):
        power = power * g
        sign = -sign
        orders.append((sign / m) * power)
    return ObservableSeries(orders, parity="odd", name="sigma")


def _set_partitions(items: Sequence[int]) -> Iterator[List[List[int]]]:
    """All partitions of a small index set (Bell(4) = 15 at most here)."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]
        yield [[first]] + part


# partitions of {0..n-1} for the small arities the engine uses, precomputed,
# and the Moebius coefficient (-1)^{b-1} (b-1)! per block count
_PARTITIONS = {n: [tuple(map(tuple, p)) for p in _set_partitions(list(range(n)))]
               for n in range(2, 7)}
_PARTITION_COEF = {b: (-1.0) ** (b - 1) * math.factorial(b - 1) for b in range(1, 7)}


FactorRef = Tuple[int, int]  # (base poly id, shift)


def _eigen_stats(poly: TrigPoly) -> Tuple[float, float, float, float]:
    """(amin, amax, bmin, bmax) of |nu.v_+|, |nu.v_-| over the support."""
    if not poly.coeffs:
        return (0.0, 0.0, 0.0, 0.0)
    amin = bmin = math.inf
    amax = bmax = 0.0
    for nu in poly.coeffs:
        a = abs(nu[0] * V_PLUS[0] + nu[1] * V_PLUS[1])
        b = abs(nu[0] * V_MINUS[0] + nu[1] * V_MINUS[1])
        amin = min(amin, a)
        amax = max(amax, a)
        bmin = min(bmin, b)
        bmax = max(bmax, b)
    return (amin, amax, bmin, bmax)


class MomentEngine:
    """Cached Lebesgue moments of products of shifted base polynomials.

    Base polynomials are registered once; factors are (base_id, shift) pairs
    and moments are canonicalized by translation invariance (subtract the
    minimum shift) before caching.  A per-factor frequency bound in the
    eigenbasis (|S0^l nu|_2 between lambda_+^l a and lambda_+^l a + lambda_-^l b)
    rules out most far-shift tuples without ever materializing the composed
    polynomial.  Every distinct computed moment is kept, which doubles as
    the record the quadrature oracle replays.
    """

    def __init__(self, trunc: Truncation = DEFAULT_TRUNCATION):
        self.trunc = trunc
        self.bases: List[TrigPoly] = []
        self._base_ids: Dict[tuple, int] = {}
        self._base_stats: List[Tuple[float, float, float, float]] = []
        self._shifted: Dict[FactorRef, TrigPoly] = {}
        self.moments: Dict[Tuple[FactorRef, ...], float] = {}
        self._ursells: Dict[Tuple[FactorRef, ...], float] = {}

    def register(self, poly: TrigPoly) -> int:
        key = poly.key()
        bid = self._base_ids.get(key)
        if bid is None:
            bid = len(self.bases)
            self.bases.append(poly)
            self._base_ids[key] = bid
            self._base_stats.append(_eigen_stats(poly))
        return bid

    def shifted(self, ref: FactorRef) -> TrigPoly:
        poly = self._shifted.get(ref)
        if poly is None:
            poly = self.bases[ref[0]].compose_power(ref[1], self.trunc)
            self._shifted[ref] = poly
        return poly

    def _bound2(self, ref: FactorRef) -> Tuple[float, float]:
        """(lower, upper) on the 2-norm of shifted support frequencies."""
        amin, amax, bmin, bmax = self._base_stats[ref[0]]
        lp = LAMBDA_PLUS ** ref[1]   # lambda_+^l, l may be negative
        lm = 1.0 / lp                # lambda_-^l
        lo = max(lp * amin, lm * bmin)
        hi = math.hypot(lp * amax, lm * bmax)
        return lo, hi

    def moment(self, refs: Sequence[FactorRef]) -> float:
        if not refs:
            return 1.0
        shift0 = min(r[1] for r in refs)
        key = tuple(sorted((bid, sh - shift0) for bid, sh in refs))
        val = self.moments.get(key)
        if val is not None:
            return val
        # Feasibility: every factor's smallest frequency must be coverable
        # by the partners' largest; otherwise no zero-sum selection exists.
        bounds = [self._bound2(r) for r in key]
        total_hi = sum(b[1] for b in bounds)
        val = 0.0
        if all(b[0] <= total_hi - b[1] + 1e-9 for b in bounds):
            val = product_average([self.shifted(r) for r in key])
        self.moments[key] = val
        return val

    def ursell(self, refs: Sequence[FactorRef]) -> float:
        """Joint connected correlation (cumulant) of the factors."""
        n = len(refs)
        if n == 1:
            return self.moment(refs)
        shift0 = min(r[1] for r in refs)
        key = tuple(sorted((bid, sh - shift0) for bid, sh in refs))
        cached = self._ursells.get(key)
        if cached is not None:
            return cached
        total = 0.0
        for part in _PARTITIONS[n]:
            coef = _PARTITION_COEF[len(part)]
            prod = 1.0
            for block in part:
                prod *= self.moment([key[i] for i in block])
                if prod == 0.0:
                    break
            total += coef * prod
        self._ursells[key] = total
        return total


def _order_splits(slots: int, total: int, minimum: int = 1) -> Iterator[Tuple[int, ...]]:
    """Tuples of `slots` integers >= minimum summing to `total`."""
    if slots == 0:
        if total == 0:
            yield ()
        return
    if slots == 1:
        if total >= minimum:
            yield (total,)
        return
    for first in range(minimum, total - minimum * (slots - 1) + 1):
        for rest in _order_splits(slots - 1, total - first, minimum):
            yield (first,) + rest


def _splits_with_mins(mins: Sequence[int], total: int) -> Iterator[Tuple[int, ...]]:
    """Tuples with per-slot minimums summing to total."""
    if not mins:
        if total == 0:
            yield ()
        return
    rest_min = sum(mins[1:])
    for first in range(mins[0], total - rest_min + 1):
        for rest in _splits_with_mins(mins[1:], total - first):
            yield (first,) + rest


def _mixed_splits(obs_mins: Sequence[int], n_ins: int, total: int
                  ) -> Iterator[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
    """Observable orders >= their minimums, insertion orders >= 1."""
    obs_floor = sum(obs_mins)
    for ins_total in (range(n_ins, total - obs_floor + 1) if n_ins else [0]):
        for ins in _order_splits(n_ins, ins_total, minimum=1):
            for obs in _splits_with_mins(obs_mins, total - ins_total):
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

    def __init__(self, force: HarmonicForce, max_order: int = 4,
                 trunc: Truncation = DEFAULT_TRUNCATION,
                 shift_window: int = DEFAULT_SHIFT_WINDOW,
                 order_cap: int = ORDER_CAP):
        if max_order > order_cap:
            raise ValueError(f"order {max_order} beyond cap {order_cap}")
        self.force = force
        self.max_order = max_order
        self.trunc = trunc
        self.shift_window = shift_window
        # both series extend lazily to whatever depth the requested orders
        # actually need (deep chain orders are the expensive part)
        self.conj = ConjugationSeries(force, 1, trunc, order_cap=order_cap + 2)
        self.expansion = ExpansionRateSeries(force, 1, boundary=False,
                                             trunc=trunc, order_cap=order_cap + 2)
        self.engine = MomentEngine(trunc)
        self._insertion_ids: Dict[int, int] = {}
        # observables are numbered by their canonical key; the composed base
        # ids and contracted averages are cached per observable number
        self._obs_ids: Dict[tuple, int] = {}
        self._composed_cache: Dict[int, List[int]] = {}
        self._average_cache: Dict[Tuple[int, int], float] = {}
        self._cum_cache: Dict[tuple, float] = {}

    def _insertion_id(self, q: int) -> int:
        """Base id of -A_u^(q) with the constant part stripped.

        Constants never change a joint cumulant with >= 2 arguments, and an
        insertion always accompanies at least one observable.
        """
        bid = self._insertion_ids.get(q)
        if bid is None:
            self.expansion.extend_to(q)
            poly = -1.0 * self.expansion.order(q)
            poly = TrigPoly({nu: c for nu, c in poly.coeffs.items() if nu != (0, 0)})
            bid = self.engine.register(poly)
            self._insertion_ids[q] = bid
        return bid

    # ------------------------------------------------------------------
    # observables composed with the conjugation
    # ------------------------------------------------------------------
    def _obs_id(self, obs: ObservableSeries) -> int:
        key = tuple(o.key() for o in obs.orders)
        return self._obs_ids.setdefault(key, len(self._obs_ids))

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
            total = TrigPoly.zero()
            for j in range(0, n + 1):
                if j <= obs.max_order and obs.orders[j]:
                    self.conj.extend_to(max(1, n - j))
                    total = total + chain_order(obs.orders[j], self.conj.h_plus,
                                                self.conj.h_minus, n - j, self.trunc)
            ids.append(self.engine.register(total.prune(self.trunc.coeff_tol)))
        return ids

    def composed_average(self, obs: ObservableSeries, n: int) -> float:
        """Torus average of (obs o H)^(n), contracted and cached.

        Summed over the observable's orders j as in composed_ids, with
        chain_average in place of chain_order: the order-n polynomial, the
        largest the engine would otherwise build, is never multiplied out.
        """
        key = (self._obs_id(obs), n)
        val = self._average_cache.get(key)
        if val is None:
            val = 0.0
            for j in range(0, min(n, obs.max_order) + 1):
                if obs.orders[j]:
                    self.conj.extend_to(max(1, n - j))
                    val += chain_average(obs.orders[j], self.conj.h_plus,
                                         self.conj.h_minus, n - j)
            self._average_cache[key] = val
        return val

    # ------------------------------------------------------------------
    # core connected expectation
    # ------------------------------------------------------------------
    def srb_cumulant(self, observables: Sequence[ObservableSeries],
                     shifts: Sequence[int], m: int,
                     shift_window: Optional[int] = None) -> float:
        """Joint SRB cumulant of observables at given time shifts, order m.

        A lone observable's zero-insertion term is the torus average of
        (obs o H)^(m); it is contracted (composed_average), not built, so
        the composed bases of a mean stop at order m - 1.
        """
        window = self.shift_window if shift_window is None else shift_window
        if not observables or len(shifts) != len(observables):
            raise ValueError("need one shift per observable")
        return self._cumulant_at(self._resolve(observables, m), shifts, window)

    def _resolve(self, observables: Sequence[ObservableSeries], m: int
                 ) -> _Resolved:
        """Observable numbers, composed base ids and minimum orders of one
        family at order m, looked up once for a whole shift sum."""
        if m > self.max_order:
            raise ValueError(f"order {m} not available (max {self.max_order})")
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

    def _cumulant_at(self, fam: _Resolved, shifts: Sequence[int],
                     window: int) -> float:
        m = fam.m
        key = (tuple(sorted(zip(fam.oids, shifts))), m, window)
        cached = self._cum_cache.get(key)
        if cached is not None:
            return cached
        ids = fam.ids
        lo = min(shifts) - window
        hi = max(shifts) + window
        # the zero-insertion term of a lone observable is its average
        total, s_first = (0.0, 0) if fam.average is None else (fam.average, 1)
        for s in range(s_first, m - sum(fam.min_orders) + 1):
            weight = 1.0 / math.factorial(s)
            for obs_orders, ins_orders in _mixed_splits(fam.min_orders, s, m):
                base_refs = [(ids[i][obs_orders[i]], shifts[i])
                             for i in range(len(ids))]
                if any(not self.engine.bases[r[0]] for r in base_refs):
                    continue
                ins_ids = [self._insertion_id(q) for q in ins_orders]
                for lvec in _shift_tuples(s, lo, hi):
                    refs = base_refs + list(zip(ins_ids, lvec))
                    total += weight * self.engine.ursell(refs)
        self._cum_cache[key] = total
        return total

    # ------------------------------------------------------------------
    # public quantities
    # ------------------------------------------------------------------
    def srb_mean_order(self, m: int, obs: Optional[ObservableSeries] = None,
                       check_sufficiency: bool = True) -> float:
        """<obs>_+ at eps-order m (obs defaults to sigma)."""
        obs = obs if obs is not None else self.sigma_observable()
        val = self.srb_cumulant([obs], [0], m)
        if check_sufficiency:
            wide = self.srb_cumulant([obs], [0], m,
                                     shift_window=self.shift_window + SUFFICIENCY_EXTRA)
            if abs(wide - val) > SUFFICIENCY_TOL * max(1.0, abs(val)):
                raise RuntimeError(
                    f"shift window {self.shift_window} insufficient for mean "
                    f"order {m}: delta {wide - val:.3e}")
            val = wide
        return val

    def sigma_observable(self) -> ObservableSeries:
        return sigma_series(self.force, self.max_order)

    def cumulant(self, n: int, m: int, obs: Optional[ObservableSeries] = None,
                 check_sufficiency: bool = True) -> float:
        """C_n at eps-order m: summed joint SRB cumulant over n-1 shifts."""
        if n < 2:
            raise ValueError("cumulant order n must be >= 2 (use srb_mean_order)")
        if m < n:
            return 0.0
        obs = obs if obs is not None else self.sigma_observable()
        fam = self._resolve([obs] * n, m)
        val = self._shift_summed(fam, self.shift_window)
        if check_sufficiency:
            wide = self._shift_summed(fam, self.shift_window + SUFFICIENCY_EXTRA)
            if abs(wide - val) > SUFFICIENCY_TOL * max(1.0, abs(val)):
                raise RuntimeError(
                    f"shift window {self.shift_window} insufficient for "
                    f"C_{n}^({m}): delta {wide - val:.3e}")
            val = wide
        return val

    def joint_cumulant(self, multi_index: Sequence[int], m: int,
                       obs: ObservableSeries,
                       check_sufficiency: bool = False) -> float:
        """C_{alpha_1...alpha_k} at order m; index 1 -> sigma, 2 -> obs."""
        if obs.parity is None:
            raise ValueError("observable parity must be declared for joint cumulants")
        if any(a not in (1, 2) for a in multi_index):
            raise ValueError("multi-index entries must be 1 or 2")
        series = [self.sigma_observable() if a == 1 else obs for a in multi_index]
        if len(series) == 1:
            return self.srb_mean_order(m, obs=series[0],
                                       check_sufficiency=check_sufficiency)
        fam = self._resolve(series, m)
        val = self._shift_summed(fam, self.shift_window)
        if check_sufficiency:
            wide = self._shift_summed(fam, self.shift_window + SUFFICIENCY_EXTRA)
            if abs(wide - val) > SUFFICIENCY_TOL * max(1.0, abs(val)):
                raise RuntimeError("shift window insufficient for joint cumulant")
            val = wide
        return val

    def _shift_summed(self, fam: _Resolved, window: int) -> float:
        total = 0.0
        for shifts in _shift_tuples(len(fam.oids) - 1, -window, window):
            total += self._cumulant_at(fam, list(shifts) + [0], window)
        return total


def _shift_tuples(s: int, lo: int, hi: int) -> Iterator[Tuple[int, ...]]:
    if s == 0:
        yield ()
        return
    for first in range(lo, hi + 1):
        for rest in _shift_tuples(s - 1, lo, hi):
            yield (first,) + rest


@dataclass
class CumulantTable:
    """mean[m] = <sigma>_+ at eps-order m and C[n][m], n >= 2."""

    max_order: int
    mean: Dict[int, float] = field(default_factory=dict)
    C: Dict[int, Dict[int, float]] = field(default_factory=dict)
    shift_window: int = DEFAULT_SHIFT_WINDOW

    def mean_total(self, eps: float) -> float:
        return sum(v * eps ** m for m, v in self.mean.items())

    def cumulant_total(self, n: int, eps: float) -> float:
        return sum(v * eps ** m for m, v in self.C.get(n, {}).items())

    def require(self, n: int, m: int) -> float:
        try:
            return self.C[n][m]
        except KeyError:
            raise KeyError(f"cumulant C_{n} at eps-order {m} missing from table")


def build_table(force: HarmonicForce, max_order: int = 4,
                trunc: Truncation = DEFAULT_TRUNCATION,
                shift_window: int = DEFAULT_SHIFT_WINDOW,
                engine: Optional[CorrelationEngine] = None) -> CumulantTable:
    """Fill means and cumulants C_2..C_max through total eps-order max_order."""
    eng = engine or CorrelationEngine(force, max_order, trunc, shift_window)
    table = CumulantTable(max_order, shift_window=shift_window)

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


def transport_matrix(force_family: Sequence[HarmonicForce],
                     trunc: Truncation = DEFAULT_TRUNCATION,
                     shift_window: int = DEFAULT_SHIFT_WINDOW) -> TransportMatrix:
    """L_ij = 1/2 sum_k <J_i o S0^k ; J_j>_0 with J_i = d sigma / d G_i |_0.

    Each family member's amplitude is an independent coupling, so
    J_i^(0) = -g_i with g_i the member's unit Jacobian polynomial.
    """
    currents = []
    for fam in force_family:
        g = fam.jacobian_poly()
        currents.append(-1.0 * g)
    s = len(currents)
    L = [[0.0] * s for _ in range(s)]
    for i in range(s):
        for j in range(s):
            total = 0.0
            for k in range(-shift_window, shift_window + 1):
                shifted = currents[i].compose_power(k, trunc)
                total += (product_average([shifted, currents[j]])
                          - currents[i].average() * currents[j].average())
            L[i][j] = 0.5 * total
    resid = max(abs(L[i][j] - L[j][i]) for i in range(s) for j in range(s))
    return TransportMatrix(tuple(tuple(row) for row in L), resid)


# ----------------------------------------------------------------------
# quadrature oracle over the recorded moments
# ----------------------------------------------------------------------
def replay_moments_on_grid(engine: MomentEngine, n: int = 256,
                           limit: Optional[int] = None,
                           cache_budget: int = 600,
                           escalate_n: Optional[int] = None
                           ) -> "ReplayReport":
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
            for (n1, n2), c in engine.bases[bid].coeffs.items():
                folded[n1 % n, n2 % n] += c
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
            if len(shifted_cache) >= cache_budget:
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
        view = MomentEngine(engine.trunc)
        view.bases = engine.bases
        view.moments = dict(deviating)
        fine = replay_moments_on_grid(view, escalate_n, cache_budget=cache_budget)
        aliased = len(deviating)
        worst_escalated = fine.worst
    return ReplayReport(len(items), worst, aliased, worst_escalated)


@dataclass(frozen=True)
class ReplayReport:
    count: int
    worst: float
    aliased: int = 0
    worst_escalated: float = 0.0

    def __iter__(self):
        # unpacking compatibility: count, worst
        return iter((self.count, self.worst))
