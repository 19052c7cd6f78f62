"""Perturbative construction of the conjugation and the SRB rate data.

The conjugation H(psi) = psi + sum_k eps^k h^(k)(psi) intertwines the
perturbed and unperturbed maps, S_eps(H(psi)) = H(S0 psi).  Splitting along
the eigendirections and expanding in eps turns the functional equation into
a chain of cohomology equations lambda_a h_a(psi) - h_a(S0 psi) = -F_a(psi),
each solved by an explicit geometric sum over iterates; the right-hand side
at order k is a polynomial in lower orders, so the whole series is built
bottom-up with memoized lower orders (no tree enumeration).

The same fixed-point strategy yields the perturbed eigenvalue corrections
gamma_{+,-} and the tangent-vector mixing coefficients k_{+,-} from
DS_eps(H(psi)) w_pm(psi) = lambda_pm(psi) w_pm(S0 psi), and from those the
unstable expansion rate A_u(psi) = log(lambda_+ + gamma_+(psi)) plus an
optional norm-ratio boundary term.

Series orders are pure coefficient functions: eps is reinstated only at
evaluation time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence, Tuple

from .torus import HarmonicForce
from .trig import (DEFAULT_TRUNCATION, LAMBDA_MINUS, LAMBDA_PLUS, TrigPoly,
                   Truncation, V_MINUS, V_PLUS, accumulate, geometric_sum,
                   product_average)

ORDER_CAP = 8  # beyond this the term count explodes; 4 covers every paper value

_LAMBDA = LAMBDA_MINUS  # lambda = lambda_+^{-1} = lambda_-


class OrderCapError(ValueError):
    pass


def _check_order(k: int, cap: int = ORDER_CAP):
    if k < 1:
        raise ValueError("series order must be >= 1")
    if k > cap:
        raise OrderCapError(
            f"order {k} beyond cap {cap}; raise the cap explicitly if you "
            "accept the cost")


@dataclass
class OrderSeries:
    """A function-valued power series: order k -> TrigPoly, with tail bounds."""

    orders: List[TrigPoly]          # orders[k] is the eps^k coefficient; orders[0] may be zero/const
    tail_bounds: List[float]

    @property
    def max_order(self) -> int:
        return len(self.orders) - 1

    def order(self, k: int) -> TrigPoly:
        if k < 0:
            return TrigPoly.zero()
        if k > self.max_order:
            raise IndexError(f"order {k} not computed (max {self.max_order})")
        return self.orders[k]

    def evaluate(self, psi1: float, psi2: float, eps: float) -> float:
        total = 0.0
        w = 1.0
        for poly in self.orders:
            total += w * poly.evaluate(psi1, psi2)
            w *= eps
        return total


def _compositions(total: int, parts: int) -> Iterator[Tuple[int, ...]]:
    """Ordered compositions of `total` into `parts` strictly positive parts."""
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _alpha_tuples(s: int) -> Iterator[Tuple[int, ...]]:
    if s == 0:
        yield ()
        return
    for rest in _alpha_tuples(s - 1):
        yield rest + (1,)
        yield rest + (-1,)


def _chain_terms(g: TrigPoly, h_plus: Sequence[TrigPoly],
                 h_minus: Sequence[TrigPoly], n: int
                 ) -> Iterator[Tuple[float, TrigPoly, List[TrigPoly]]]:
    """Faa di Bruno terms (1/s!, prod_j d_{alpha_j} g, [h_{alpha_j}^{(k_j)}])
    of (g o H)^(n), n >= 1, skipping terms whose derivative vanishes."""
    for s in range(1, n + 1):
        weight = 1.0 / math.factorial(s)
        for ks in _compositions(n, s):
            for alphas in _alpha_tuples(s):
                deriv = g
                for a in alphas:
                    deriv = deriv.deriv_alpha(a)
                    if not deriv:
                        break
                if not deriv:
                    continue
                yield weight, deriv, [h_plus[k] if a > 0 else h_minus[k]
                                      for a, k in zip(alphas, ks)]


def chain_order(g: TrigPoly, h_plus: Sequence[TrigPoly],
                h_minus: Sequence[TrigPoly], n: int,
                trunc: Truncation = DEFAULT_TRUNCATION) -> TrigPoly:
    """Order-n coefficient of g(H(psi)) for a fixed polynomial g.

    (g o H)^(n) = sum_{s>=1} 1/s! sum_{k_1+..+k_s=n} sum_{alpha_j}
                  (prod_j d_{alpha_j}) g * prod_j h_{alpha_j}^{(k_j)},
    with the n = 0 term equal to g itself.
    """
    if n == 0:
        return g
    acc: dict = {}
    for weight, deriv, factors in _chain_terms(g, h_plus, h_minus, n):
        term = deriv
        for h in factors:
            term = term * h
            if not term:
                break
        if term:
            accumulate(acc, term, weight)
    return TrigPoly(acc, tol=trunc.coeff_tol)


def chain_average(g: TrigPoly, h_plus: Sequence[TrigPoly],
                  h_minus: Sequence[TrigPoly], n: int) -> float:
    """Torus average of (g o H)^(n), contracted term by term.

    Each Faa di Bruno term of chain_order goes to product_average, which
    convolves the small factors and dot-products them against the largest,
    so the order-n polynomial is never built.  Equal to
    chain_order(...).average() up to summation order and the coefficient
    pruning chain_order applies.
    """
    if n == 0:
        return g.average()
    return sum(weight * product_average([deriv] + factors)
               for weight, deriv, factors in _chain_terms(g, h_plus, h_minus, n))


class ConjugationSeries:
    """Orders h_{+,-}^{(k)} of the conjugation for a given force."""

    def __init__(self, force: HarmonicForce, max_order: int,
                 trunc: Truncation = DEFAULT_TRUNCATION, order_cap: int = ORDER_CAP):
        _check_order(max_order, order_cap)
        self.force = force
        self.trunc = trunc
        self.order_cap = order_cap
        self.f_plus = force.f_alpha(+1)
        self.f_minus = force.f_alpha(-1)
        self.h_plus: List[TrigPoly] = [TrigPoly.zero()]
        self.h_minus: List[TrigPoly] = [TrigPoly.zero()]
        self.tail_bounds: List[float] = [0.0]
        self.extend_to(max_order)

    def extend_to(self, order: int):
        """Grow the series in place; lower orders are never recomputed."""
        _check_order(order, self.order_cap)
        for k in range(self.max_order + 1, order + 1):
            self._extend(k)

    def _solve(self, alpha: int, rhs: TrigPoly) -> Tuple[TrigPoly, float]:
        """Solve lambda_a h(psi) - h(S0 psi) = -rhs(psi) by geometric sum.

        alpha=+1: h = -sum_{p>=0} lambda_+^{-(p+1)} rhs(S0^p psi)
        alpha=-1: h = +sum_{p<=-1} lambda_-^{-p-1} rhs(S0^p psi)
        """
        if alpha > 0:
            gs = geometric_sum(rhs, _LAMBDA, +1, self.trunc)
            return -_LAMBDA * gs.poly, _LAMBDA * gs.tail_bound
        gs = geometric_sum(rhs.compose_power(-1, self.trunc), _LAMBDA, -1, self.trunc)
        return gs.poly, gs.tail_bound

    def _rhs(self, alpha: int, k: int) -> TrigPoly:
        """F_alpha^(k): the order-k part of f_alpha(psi + h(psi))."""
        f = self.f_plus if alpha > 0 else self.f_minus
        return chain_order(f, self.h_plus, self.h_minus, k - 1, self.trunc)

    def _extend(self, k: int):
        hp, tp = self._solve(+1, self._rhs(+1, k))
        hm, tm = self._solve(-1, self._rhs(-1, k))
        self.h_plus.append(hp)
        self.h_minus.append(hm)
        self.tail_bounds.append(tp + tm)

    @property
    def max_order(self) -> int:
        return len(self.h_plus) - 1

    def compose(self, g: TrigPoly, n: int) -> TrigPoly:
        """Order-n coefficient of g o H."""
        return chain_order(g, self.h_plus, self.h_minus, n, self.trunc)

    def displacement(self, psi1: float, psi2: float, eps: float,
                     max_order: int | None = None) -> Tuple[float, float]:
        """H(psi) - psi evaluated through the requested order."""
        kmax = self.max_order if max_order is None else max_order
        d1 = d2 = 0.0
        w = eps
        for k in range(1, kmax + 1):
            hp = self.h_plus[k].evaluate(psi1, psi2)
            hm = self.h_minus[k].evaluate(psi1, psi2)
            d1 += w * (hp * V_PLUS[0] + hm * V_MINUS[0])
            d2 += w * (hp * V_PLUS[1] + hm * V_MINUS[1])
            w *= eps
        return d1, d2


def conjugation_order1(force: HarmonicForce,
                       trunc: Truncation = DEFAULT_TRUNCATION) -> Tuple[TrigPoly, TrigPoly]:
    """(h_+^(1), h_-^(1)); the first order of the full recursion."""
    series = ConjugationSeries(force, 1, trunc)
    return series.h_plus[1], series.h_minus[1]


def conjugation_order_k(force: HarmonicForce, max_order: int,
                        trunc: Truncation = DEFAULT_TRUNCATION,
                        order_cap: int = ORDER_CAP) -> ConjugationSeries:
    return ConjugationSeries(force, max_order, trunc, order_cap)


class RateSeries:
    """Orders of gamma_{+,-} and k_{+,-} for the perturbed SRB data.

    The fixed-point equations, with phi = H(psi), lambda = lambda_-:

      gamma_+ = eps (d_+ f_+)(phi) + eps k_-(psi) (d_- f_+)(phi)
      gamma_- = eps (d_- f_-)(phi) + eps k_+(psi) (d_+ f_-)(phi)
      k_+(psi) - lambda^2 k_+(S0 psi)     = R_+(psi)
      k_-(psi) - lambda^2 k_-(S0^{-1}psi) = -R_-(S0^{-1} psi)

    with
      R_+ = -lambda [eps (d_- f_+)(phi) + eps k_+ (d_+ f_+)(phi) - gamma_- k_+ o S0]
      R_- = -lambda [eps (d_+ f_-)(phi) + eps k_- (d_- f_-)(phi) - gamma_+ k_- o S0],

    solved order by order by Neumann series; order 1 reproduces the explicit
    first-order sums (k_+^(1) = -sum_n lambda_+^{-(2n+1)} d_-f_+ o S0^n, ...).
    """

    def __init__(self, force: HarmonicForce, max_order: int,
                 trunc: Truncation = DEFAULT_TRUNCATION, order_cap: int = ORDER_CAP,
                 conj: "ConjugationSeries | None" = None):
        _check_order(max_order, order_cap)
        self.force = force
        self.trunc = trunc
        self.order_cap = order_cap
        # rate order k only needs conjugation chains through order k-1
        self.conj = conj if conj is not None else ConjugationSeries(
            force, max(1, max_order - 1), trunc, order_cap)
        fp, fm = self.conj.f_plus, self.conj.f_minus
        # d_beta f_alpha, indexed [beta][alpha] with +1 -> 0, -1 -> 1.
        self._df = {(+1, +1): fp.deriv_plus(), (-1, +1): fp.deriv_minus(),
                    (+1, -1): fm.deriv_plus(), (-1, -1): fm.deriv_minus()}
        z = TrigPoly.zero()
        self.gamma_plus: List[TrigPoly] = [z]
        self.gamma_minus: List[TrigPoly] = [z]
        self.k_plus: List[TrigPoly] = [z]
        self.k_minus: List[TrigPoly] = [z]
        self.tail_bounds: List[float] = [0.0]
        self.extend_to(max_order)

    def extend_to(self, order: int):
        _check_order(order, self.order_cap)
        if order > 1:
            self.conj.extend_to(order - 1)
        for k in range(self.max_order + 1, order + 1):
            self._extend(k)

    def _df_chain(self, beta: int, alpha: int, n: int) -> TrigPoly:
        """Order-n coefficient of (d_beta f_alpha) o H."""
        return self.conj.compose(self._df[(beta, alpha)], n)

    def _extend(self, k: int):
        lam = _LAMBDA
        tol = self.trunc.coeff_tol
        # gamma at order k uses k_{-,+} only at orders <= k-1.
        gp = self._df_chain(+1, +1, k - 1)
        gm = self._df_chain(-1, -1, k - 1)
        for m in range(1, k):
            gp = gp + self.k_minus[m] * self._df_chain(-1, +1, k - 1 - m)
            gm = gm + self.k_plus[m] * self._df_chain(+1, -1, k - 1 - m)
        gp = gp.prune(tol)
        gm = gm.prune(tol)

        rp = self._df_chain(-1, +1, k - 1)
        rm = self._df_chain(+1, -1, k - 1)
        for m in range(1, k):
            rp = rp + self.k_plus[m] * self._df_chain(+1, +1, k - 1 - m)
            rm = rm + self.k_minus[m] * self._df_chain(-1, -1, k - 1 - m)
        for m in range(1, k):
            # gamma^{(m)} * (k o S0)^{(k-m)}; both strictly lower order.
            rp = rp - self.gamma_minus[m] * self.k_plus[k - m].compose_power(1, self.trunc)
            rm = rm - self.gamma_plus[m] * self.k_minus[k - m].compose_power(1, self.trunc)
        rp = (-lam) * rp
        rm = (-lam) * rm

        gs_p = geometric_sum(rp.prune(tol), lam * lam, +1, self.trunc)
        kp = gs_p.poly
        gs_m = geometric_sum(rm.compose_power(-1, self.trunc).prune(tol),
                             lam * lam, -1, self.trunc)
        km = -1.0 * gs_m.poly

        self.gamma_plus.append(gp)
        self.gamma_minus.append(gm)
        self.k_plus.append(kp)
        self.k_minus.append(km)
        self.tail_bounds.append(gs_p.tail_bound + gs_m.tail_bound)

    @property
    def max_order(self) -> int:
        return len(self.gamma_plus) - 1


def rates_order1(force: HarmonicForce,
                 trunc: Truncation = DEFAULT_TRUNCATION
                 ) -> Tuple[TrigPoly, TrigPoly, TrigPoly, TrigPoly]:
    """(gamma_+^(1), gamma_-^(1), k_+^(1), k_-^(1))."""
    r = RateSeries(force, 1, trunc)
    return r.gamma_plus[1], r.gamma_minus[1], r.k_plus[1], r.k_minus[1]


def rates_order_k(force: HarmonicForce, max_order: int,
                  trunc: Truncation = DEFAULT_TRUNCATION,
                  order_cap: int = ORDER_CAP) -> RateSeries:
    return RateSeries(force, max_order, trunc, order_cap)


def _log1p_series(u_orders: List[TrigPoly], max_order: int,
                  tol: float) -> List[TrigPoly]:
    """Orders of log(1 + u) for u = sum_{k>=1} u^(k); index 0 is zero."""
    z = TrigPoly.zero()
    u = list(u_orders[:max_order + 1])
    u += [z] * (max_order + 1 - len(u))
    out = [z for _ in range(max_order + 1)]
    # prev[k]: order-k coefficient of u^m for the current power m.
    prev = list(u)
    sign = 1.0
    for m in range(1, max_order + 1):
        for k in range(m, max_order + 1):
            out[k] = out[k] + (sign / m) * prev[k]
        if m < max_order:
            nxt = [z for _ in range(max_order + 1)]
            for k in range(m + 1, max_order + 1):
                acc = z
                for j in range(m, k):
                    if prev[j] and u[k - j]:
                        acc = acc + prev[j] * u[k - j]
                nxt[k] = acc.prune(tol)
            prev = nxt
        sign = -sign
    return out


class ExpansionRateSeries:
    """Orders of the unstable expansion rate A_u.

    A_u = log(lambda_+ + gamma_+)  [+ boundary term], expanded in eps:
    order 0 is the constant log(lambda_+); with the boundary flag on, the
    norm-ratio term (1/2)[log(1+k_-^2) o S0 - log(1+k_-^2)] is added.  The
    boundary term telescopes in translation-invariant sums, so it is off by
    default for cumulant work.
    """

    def __init__(self, force: HarmonicForce, max_order: int,
                 boundary: bool = False,
                 trunc: Truncation = DEFAULT_TRUNCATION, order_cap: int = ORDER_CAP):
        _check_order(max_order, order_cap)
        self.force = force
        self.trunc = trunc
        self.boundary = boundary
        self.order_cap = order_cap
        self.rates = RateSeries(force, max_order, trunc, order_cap)
        self._orders: List[TrigPoly] = []
        self._rebuild(max_order)

    def _rebuild(self, max_order: int):
        tol = self.trunc.coeff_tol
        u = [g * (1.0 / LAMBDA_PLUS) for g in self.rates.gamma_plus]
        log_orders = _log1p_series(u, max_order, tol)
        orders = [TrigPoly.const(math.log(LAMBDA_PLUS))]
        for k in range(1, max_order + 1):
            term = log_orders[k]
            if self.boundary:
                term = term + self._boundary_order(k)
            orders.append(term.prune(tol))
        self._orders = orders

    def extend_to(self, order: int):
        if order <= self.max_order:
            return
        _check_order(order, self.order_cap)
        self.rates.extend_to(order)
        self._rebuild(order)

    def _boundary_order(self, k: int) -> TrigPoly:
        km = self.rates.k_minus
        q = [TrigPoly.zero() for _ in range(k + 1)]
        for n in range(2, k + 1):
            acc = TrigPoly.zero()
            for m in range(1, n):
                acc = acc + km[m] * km[n - m]
            q[n] = acc
        half_log = _log1p_series(q, k, self.trunc.coeff_tol)
        b = half_log[k]
        return 0.5 * (b.compose_power(1, self.trunc) - b)

    def order(self, k: int) -> TrigPoly:
        if k > self.max_order:
            self.extend_to(k)
        return self._orders[k]

    @property
    def max_order(self) -> int:
        return len(self._orders) - 1

    @property
    def series(self) -> OrderSeries:
        return OrderSeries(list(self._orders), list(self.rates.tail_bounds))


def expansion_rate_series(force: HarmonicForce, max_order: int,
                          boundary: bool = False,
                          trunc: Truncation = DEFAULT_TRUNCATION,
                          order_cap: int = ORDER_CAP) -> ExpansionRateSeries:
    return ExpansionRateSeries(force, max_order, boundary, trunc, order_cap)


@dataclass(frozen=True)
class RadiusEstimate:
    """Convergence-radius estimate eps0 = [(8 G / r0) / (1 - lambda)]^{-1}."""

    eps0: float
    G: float
    r0: float
    lam: float

    def eps_of_beta(self, beta: float) -> float:
        """Radius of Hoelder-beta continuity; shrinks to 0 as beta -> 1."""
        if not 0.0 <= beta < 1.0:
            raise ValueError("beta must lie in [0, 1)")
        return (1.0 - self.lam ** (1.0 - beta)) * self.r0 / (8.0 * self.G)


def radius_estimate(force: HarmonicForce, r0: float = 1.0) -> RadiusEstimate:
    """Analyticity-strip bound: G = max_alpha sup_strip |f_alpha|.

    The supremum over |Im psi_i| < r0 of |sum c_nu e^{i nu.psi}| is bounded
    by sum |c_nu| e^{r0 |nu|_1}, which is what G uses.
    """
    if r0 <= 0:
        raise ValueError("r0 must be positive")

    def strip_bound(f: TrigPoly) -> float:
        return sum(abs(c) * math.exp(r0 * (abs(nu[0]) + abs(nu[1])))
                   for nu, c in f.coeffs.items())

    G = max(strip_bound(force.f_alpha(+1)), strip_bound(force.f_alpha(-1)))
    eps0 = (1.0 - _LAMBDA) * r0 / (8.0 * G)
    return RadiusEstimate(eps0, G, r0, _LAMBDA)


def conjugacy_residual(force: HarmonicForce, max_order: int,
                       eps_list: Sequence[float], grid_n: int = 24,
                       trunc: Truncation = DEFAULT_TRUNCATION,
                       series: "ConjugationSeries | None" = None
                       ) -> Dict[str, object]:
    """Sup-grid residual |H_K(S0 psi) - S_eps(H_K(psi))| per eps.

    The residual scales like eps^{K+1}; the log-log slope over eps_list is
    reported alongside the per-eps table.  The series orders are evaluated
    on the grid once (vectorized); only the eps-weighted recombination runs
    per epsilon.
    """
    import numpy as np

    if series is None:
        series = ConjugationSeries(force, max_order, trunc)
    else:
        series.extend_to(max_order)
    two_pi = 2.0 * math.pi
    g = two_pi * (np.arange(grid_n) + 0.31) / grid_n
    P1, P2 = np.meshgrid(g, g, indexing="ij")
    S1 = P1 + P2
    S2 = P1 + 2.0 * P2
    hp = [series.h_plus[k].evaluate_grid(P1, P2) for k in range(max_order + 1)]
    hm = [series.h_minus[k].evaluate_grid(P1, P2) for k in range(max_order + 1)]
    hp_s = [series.h_plus[k].evaluate_grid(S1, S2) for k in range(max_order + 1)]
    hm_s = [series.h_minus[k].evaluate_grid(S1, S2) for k in range(max_order + 1)]

    residuals = []
    for eps in eps_list:
        d1 = np.zeros_like(P1)
        d2 = np.zeros_like(P1)
        e1 = np.zeros_like(P1)
        e2 = np.zeros_like(P1)
        w = eps
        for k in range(1, max_order + 1):
            d1 += w * (hp[k] * V_PLUS[0] + hm[k] * V_MINUS[0])
            d2 += w * (hp[k] * V_PLUS[1] + hm[k] * V_MINUS[1])
            e1 += w * (hp_s[k] * V_PLUS[0] + hm_s[k] * V_MINUS[0])
            e2 += w * (hp_s[k] * V_PLUS[1] + hm_s[k] * V_MINUS[1])
            w *= eps
        h1 = P1 + d1
        h2 = P2 + d2
        img1 = h1 + h2 + eps * force.value(h1, h2)
        img2 = h1 + 2.0 * h2
        r1 = (S1 + e1 - img1 + math.pi) % two_pi - math.pi
        r2 = (S2 + e2 - img2 + math.pi) % two_pi - math.pi
        residuals.append(float(np.max(np.hypot(r1, r2))))
    slope = None
    if len(eps_list) >= 2:
        xs = [math.log(e) for e in eps_list]
        ys = [math.log(r) if r > 0 else -60.0 for r in residuals]
        n = len(xs)
        xbar = sum(xs) / n
        ybar = sum(ys) / n
        num = sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys))
        den = sum((x - xbar) ** 2 for x in xs)
        slope = num / den if den else None
    return {"eps": list(eps_list), "residual": residuals, "slope": slope,
            "order": max_order}
