"""Perturbative construction of the conjugation and the SRB rate data.

The conjugation H(psi) = psi + sum_k eps^k h^(k)(psi) intertwines the
perturbed and unperturbed maps, S_eps(H(psi)) = H(S0 psi).  Splitting along
the eigendirections and expanding in eps turns the functional equation into
a chain of cohomology equations lambda_a h_a(psi) - h_a(S0 psi) = -F_a(psi),
each solved by an explicit geometric sum over iterates; the right-hand side
at order k is a polynomial in lower orders, so the whole series is built
bottom-up with memoized lower orders (no tree enumeration).  Extending the
series builds each order's right-hand side and tail bound at once; only
the merge of the geometric sum waits until something reads the order
whole (trig.DeferredSum).  The contracted top-order mean reads h^(K-1) at
a few frequencies only (chain_average, product_average), so an order-K
table never merges it.

The same fixed-point strategy yields the perturbed eigenvalue corrections
gamma_{+,-} and the tangent-vector mixing coefficients k_{+,-} from
DS_eps(H(psi)) w_pm(psi) = lambda_pm(psi) w_pm(S0 psi), and from those the
unstable expansion rate A_u(psi) = log(lambda_+ + gamma_+(psi)) plus an
optional norm-ratio boundary term.  The rate equations split into two
closed halves, (gamma_+, k_-) and (gamma_-, k_+), solved by one recursion
in the direction and grown on demand; A_u reads only the unstable half
(gamma_+, k_-), so the other is never built for it.

Series orders are pure coefficient functions: eps is reinstated only at
evaluation time.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np

from .torus import HarmonicForce
from .trig import (LAMBDA_MINUS, LAMBDA_PLUS, TrigPoly, V_MINUS, V_PLUS,
                   geometric_sum, product_average, weighted_sum)

ORDER_CAP = 8  # beyond this the term count explodes; 4 covers every paper value

_LAMBDA = LAMBDA_MINUS  # lambda = lambda_+^{-1} = lambda_-


class OrderCapError(ValueError):
    pass


def _check_order(k: int):
    if k < 1:
        raise ValueError("series order must be >= 1")
    if k > ORDER_CAP:
        raise OrderCapError(f"order {k} beyond cap {ORDER_CAP}")


def compositions(total: int, mins: Sequence[int]) -> Iterator[Tuple[int, ...]]:
    """Tuples of len(mins) integers, each >= its minimum, summing to total,
    in lexicographic order."""
    if not mins:
        if total == 0:
            yield ()
        return
    rest_min = sum(mins[1:])
    for first in range(mins[0], total - rest_min + 1):
        for rest in compositions(total - first, mins[1:]):
            yield (first,) + rest


def _chain_terms(g: TrigPoly, h_plus: Sequence[TrigPoly],
                 h_minus: Sequence[TrigPoly], n: int
                 ) -> Iterator[Tuple[float, TrigPoly, List[TrigPoly]]]:
    """Faa di Bruno terms (1/s!, prod_j d_{alpha_j} g, [h_{alpha_j}^{(k_j)}])
    of (g o H)^(n), n >= 1, skipping terms whose derivative vanishes."""
    for s in range(1, n + 1):
        weight = 1.0 / math.factorial(s)
        for ks in compositions(n, (1,) * s):
            for alphas in itertools.product((1, -1), repeat=s):
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
                h_minus: Sequence[TrigPoly], n: int) -> TrigPoly:
    """Order-n coefficient of g(H(psi)) for a fixed polynomial g.

    (g o H)^(n) = sum_{s>=1} 1/s! sum_{k_1+..+k_s=n} sum_{alpha_j}
                  (prod_j d_{alpha_j}) g * prod_j h_{alpha_j}^{(k_j)},
    with the n = 0 term equal to g itself.  The terms are collected and
    merged once.
    """
    if n == 0:
        return g
    terms = []
    for weight, deriv, factors in _chain_terms(g, h_plus, h_minus, n):
        term = deriv
        for h in factors:
            term = term * h
            if not term:
                break
        terms.append((weight, term))
    return weighted_sum(terms)


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
    """Orders h_{+,-}^{(k)} of the conjugation for a given force.

    h_plus and h_minus are plain lists indexed by order.  Each order k >= 1
    is a trig.DeferredSum: its right-hand side F^(k) and its tail bound are
    built by extend_to, and its columns are merged the first time they are
    read, giving the same columns as an eager solve.  The entries hold
    their summand, never the series, so no reference cycle keeps a series
    alive.
    """

    def __init__(self, force: HarmonicForce, max_order: int):
        _check_order(max_order)
        self.force = force
        self.f_plus = force.f_alpha(+1)
        self.f_minus = force.f_alpha(-1)
        self.h_plus: List[TrigPoly] = [TrigPoly.zero()]
        self.h_minus: List[TrigPoly] = [TrigPoly.zero()]
        self.tail_bounds: List[float] = [0.0]
        self.extend_to(max_order)

    def extend_to(self, order: int):
        """Grow the series in place; lower orders are never recomputed."""
        _check_order(order)
        for k in range(self.max_order + 1, order + 1):
            self._extend(k)

    def _solve(self, alpha: int, rhs: TrigPoly) -> Tuple[TrigPoly, float]:
        """Solve lambda_a h(psi) - h(S0 psi) = -rhs(psi) by geometric sum.

        alpha=+1: h = -sum_{p>=0} lambda_+^{-(p+1)} rhs(S0^p psi)
        alpha=-1: h = +sum_{p<=-1} lambda_-^{-p-1} rhs(S0^p psi)
        """
        if alpha > 0:
            gs = geometric_sum(rhs, _LAMBDA, +1, scale=-_LAMBDA)
        else:
            gs = geometric_sum(rhs.compose_power(-1), _LAMBDA, -1)
        return gs.poly, gs.tail_bound

    def _rhs(self, alpha: int, k: int) -> TrigPoly:
        """F_alpha^(k): the order-k part of f_alpha(psi + h(psi))."""
        f = self.f_plus if alpha > 0 else self.f_minus
        return chain_order(f, self.h_plus, self.h_minus, k - 1)

    def _extend(self, k: int):
        hp, tp = self._solve(+1, self._rhs(+1, k))
        hm, tm = self._solve(-1, self._rhs(-1, k))
        self.h_plus.append(hp)
        self.h_minus.append(hm)
        self.tail_bounds.append(tp + tm)

    @property
    def max_order(self) -> int:
        return len(self.h_plus) - 1


def conjugation_order_k(force: HarmonicForce, max_order: int) -> ConjugationSeries:
    return ConjugationSeries(force, max_order)


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

    The equations split into two closed halves, one per direction alpha:
    (gamma_+, k_-) and (gamma_-, k_+).  gamma_alpha^(k) reads k_{-alpha}
    only through order k-1, and k_{-alpha}^(k) reads gamma_alpha and
    k_{-alpha} through order k-1, so grow solves one recursion in alpha.
    Each half, each chain (d_beta f_alpha) o H and the conjugation grow
    only as far as a caller asks: RateSeries(force, K) grows both halves
    through K, max_order 0 grows nothing, and A_u reads the unstable half
    alone (ExpansionRateSeries).
    """

    def __init__(self, force: HarmonicForce, max_order: int):
        self.force = force
        self.conj = ConjugationSeries(force, 1)
        # orders n of (d_beta f_alpha) o H per (beta, alpha); order 0 is
        # d_beta f_alpha
        self._chains = {
            (beta, alpha): [(self.conj.f_plus if alpha > 0
                             else self.conj.f_minus).deriv_alpha(beta)]
            for alpha in (1, -1) for beta in (1, -1)}
        z = TrigPoly.zero()
        self.gamma_plus: List[TrigPoly] = [z]
        self.gamma_minus: List[TrigPoly] = [z]
        self.k_plus: List[TrigPoly] = [z]
        self.k_minus: List[TrigPoly] = [z]
        # Neumann tail bounds of k_- (half +1) and k_+ (half -1) per order
        self._tails = {1: [0.0], -1: [0.0]}
        if max_order:
            self.extend_to(max_order)

    def extend_to(self, order: int):
        """Grow both halves through order."""
        _check_order(order)
        for alpha in (1, -1):
            self.grow(alpha, order, order)

    def _chain(self, beta: int, alpha: int, n: int) -> TrigPoly:
        """Order n of (d_beta f_alpha) o H, grown on demand."""
        chain = self._chains[beta, alpha]
        for m in range(len(chain), n + 1):
            self.conj.extend_to(m)
            chain.append(chain_order(chain[0], self.conj.h_plus,
                                     self.conj.h_minus, m))
        return chain[n]

    def grow(self, alpha: int, gamma_order: int, k_order: int):
        """Grow half alpha: gamma_alpha through gamma_order and k_{-alpha}
        through k_order, which is at least gamma_order - 1."""
        lam = _LAMBDA
        gammas, ks = ((self.gamma_plus, self.k_minus) if alpha > 0
                      else (self.gamma_minus, self.k_plus))
        for k in range(1, max(gamma_order, k_order) + 1):
            if k <= gamma_order and len(gammas) == k:
                g = self._chain(alpha, alpha, k - 1)
                for m in range(1, k):
                    g = g + ks[m] * self._chain(-alpha, alpha, k - 1 - m)
                gammas.append(g)
            if k <= k_order and len(ks) == k:
                r = self._chain(alpha, -alpha, k - 1)
                for m in range(1, k):
                    r = r + ks[m] * self._chain(-alpha, -alpha, k - 1 - m)
                for m in range(1, k):
                    # gamma^{(m)} * (k o S0)^{(k-m)}; both strictly lower order.
                    r = r - gammas[m] * ks[k - m].compose_power(1)
                r = (-lam) * r
                if alpha > 0:
                    gs = geometric_sum(r.compose_power(-1), lam * lam, -1,
                                       scale=-1.0)
                else:
                    gs = geometric_sum(r, lam * lam, +1)
                ks.append(gs.poly)
                self._tails[alpha].append(gs.tail_bound)

    @property
    def tail_bounds(self) -> List[float]:
        """Neumann tail bound of k_+ plus that of k_-, per order both
        halves reach."""
        return [p + m for p, m in zip(self._tails[-1], self._tails[1])]

    @property
    def max_order(self) -> int:
        """The highest order all four lists hold."""
        return min(len(self.gamma_plus), len(self.gamma_minus),
                   len(self.k_plus), len(self.k_minus)) - 1


def log1p_series(u_orders: List[TrigPoly], max_order: int) -> List[TrigPoly]:
    """Orders of log(1 + u) for u = sum_{k>=1} u^(k); index 0 is zero.

    The one log1p expansion: A_u's log(1 + gamma_+/lambda_+), its boundary
    term's log(1 + k_-^2) and, negated, sigma = -log(1 + eps g)."""
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
                nxt[k] = acc
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

    Through order K, both terms read only the unstable half of the rate
    series, gamma_+ through K and k_- through K - 1, so only that half is
    grown; gamma_- and k_+ stay at order 0.
    """

    def __init__(self, force: HarmonicForce, max_order: int,
                 boundary: bool = False):
        _check_order(max_order)
        self.force = force
        self.boundary = boundary
        self.rates = RateSeries(force, 0)
        self._orders: List[TrigPoly] = []
        self._rebuild(max_order)

    def _rebuild(self, max_order: int):
        self.rates.grow(1, max_order, max_order - 1)
        u = [g * (1.0 / LAMBDA_PLUS) for g in self.rates.gamma_plus]
        orders = log1p_series(u, max_order)
        orders[0] = TrigPoly.const(math.log(LAMBDA_PLUS))
        if self.boundary:
            # (1/2)[b o S0 - b], b = log(1 + k_-^2) expanded once for all orders
            km = self.rates.k_minus
            q = [TrigPoly.zero() for _ in range(max_order + 1)]
            for n in range(2, max_order + 1):
                for m in range(1, n):
                    q[n] = q[n] + km[m] * km[n - m]
            b = log1p_series(q, max_order)
            for k in range(1, max_order + 1):
                orders[k] = orders[k] + 0.5 * (b[k].compose_power(1) - b[k])
        self._orders = orders

    def extend_to(self, order: int):
        if order <= self.max_order:
            return
        _check_order(order)
        self._rebuild(order)

    def order(self, k: int) -> TrigPoly:
        if k > self.max_order:
            self.extend_to(k)
        return self._orders[k]

    @property
    def max_order(self) -> int:
        return len(self._orders) - 1


def expansion_rate_series(force: HarmonicForce, max_order: int,
                          boundary: bool = False) -> ExpansionRateSeries:
    return ExpansionRateSeries(force, max_order, boundary)


def conjugacy_residual(force: HarmonicForce, max_order: int,
                       eps_list: Sequence[float], grid_n: int = 24
                       ) -> Dict[str, object]:
    """Sup-grid residual |H_K(S0 psi) - S_eps(H_K(psi))| per eps.

    The residual scales like eps^{K+1}; the log-log slope over eps_list is
    reported alongside the per-eps table.  The series orders are evaluated
    on the grid once (vectorized); only the eps-weighted recombination runs
    per epsilon.
    """
    series = ConjugationSeries(force, max_order)
    two_pi = 2.0 * math.pi
    g = two_pi * (np.arange(grid_n) + 0.31) / grid_n
    P1, P2 = np.meshgrid(g, g, indexing="ij")
    S1 = P1 + P2
    S2 = P1 + 2.0 * P2
    hp = [series.h_plus[k].evaluate(P1, P2) for k in range(max_order + 1)]
    hm = [series.h_minus[k].evaluate(P1, P2) for k in range(max_order + 1)]
    hp_s = [series.h_plus[k].evaluate(S1, S2) for k in range(max_order + 1)]
    hm_s = [series.h_minus[k].evaluate(S1, S2) for k in range(max_order + 1)]
    f1 = force.f1_poly()

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
        img1 = h1 + h2 + eps * f1.evaluate(h1, h2)
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
