"""Fluctuation-theorem algebra on top of the cumulant table.

Everything here is coefficient-wise: lambda(beta) = sum_k C_k beta^k / k!
with eps-graded cumulants, the FT-implied identities and their residuals,
the large-deviation functional zeta(p) as polynomials in x = p - 1 with
eps-graded coefficients (built by the Legendre stationarity iteration), and
the asymmetry coefficients A, B of -zeta(p) + zeta(-p).

No floating p or beta grids enter the core; the numerical Legendre maximum
that checks zeta(p) lives with the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .cumulants import CumulantTable


# a residual of ft_report above this is a violation of the fluctuation theorem
FT_TOL = 1e-12


class MissingCumulantError(KeyError):
    pass


class NoLinearResponseError(ValueError):
    pass


# ----------------------------------------------------------------------
# scalar eps-series helpers (dicts {eps_order: float}, truncated at K)
# ----------------------------------------------------------------------
def _series_ratio(num: Dict[int, float], den: Dict[int, float],
                  rel_orders: int) -> Tuple[int, List[float]]:
    """Expand num/den as eps^{offset} (q_0 + q_1 eps + ...).

    Returns (offset, [q_0, ..., q_{rel_orders}]).  den's leading coefficient
    must be nonzero.
    """
    if not den or all(abs(v) < 1e-300 for v in den.values()):
        raise ZeroDivisionError("series division by zero")
    lead_d = min(m for m, v in den.items() if v != 0.0)
    d0 = den[lead_d]
    if not num or all(v == 0.0 for v in num.values()):
        return 0, [0.0] * (rel_orders + 1)
    lead_n = min(m for m, v in num.items() if v != 0.0)
    a = [num.get(lead_n + i, 0.0) for i in range(rel_orders + 1)]
    b = [den.get(lead_d + i, 0.0) for i in range(rel_orders + 1)]
    q = [0.0] * (rel_orders + 1)
    for i in range(rel_orders + 1):
        acc = a[i]
        for j in range(1, i + 1):
            acc -= b[j] * q[i - j]
        q[i] = acc / d0
    return lead_n - lead_d, q


# ----------------------------------------------------------------------
# lambda(beta)
# ----------------------------------------------------------------------
def lambda_from_cumulants(table: CumulantTable, max_order: int
                          ) -> CumulantTable:
    """The table as lambda(beta) data through eps-order max_order.

    Errors list any missing entries; a table built to a higher order is
    returned cut to max_order, one built to exactly max_order as itself.
    """
    missing = []
    for n in range(2, max_order + 1):
        for m in range(n, max_order + 1):
            if n not in table.C or m not in table.C[n]:
                missing.append(f"C_{n}^({m})")
    for m in range(2, max_order + 1):
        if m not in table.mean:
            missing.append(f"<sigma>_+^({m})")
    if missing:
        raise MissingCumulantError("missing cumulant entries: " + ", ".join(missing))
    if table.max_order == max_order:
        return table
    return CumulantTable(
        max_order, {m: v for m, v in table.mean.items() if m <= max_order},
        {n: {m: v for m, v in per_order.items() if m <= max_order}
         for n, per_order in table.C.items() if n <= max_order})


def check_rel1(lam: CumulantTable) -> Dict[int, np.ndarray]:
    """Residual lambda(beta) - lambda(-1-beta) + 2<s>beta + <s>, per eps-order.

    Returns {eps_order: beta-polynomial coefficients}; all zero through the
    order where the fluctuation theorem holds.
    """
    out: Dict[int, np.ndarray] = {}
    top = max(lam.C)
    for m in range(0, lam.max_order + 1):
        res = np.zeros(top + 1)
        for n, per_order in lam.C.items():
            c = per_order.get(m, 0.0)
            if c == 0.0:
                continue
            # beta^n part
            res[n] += c / math.factorial(n)
            # -(-1-beta)^n = -(-1)^n (1+beta)^n
            sign = (-1.0) ** n
            for j in range(n + 1):
                res[j] -= sign * math.comb(n, j) * c / math.factorial(n)
        s = lam.mean_order(m)
        res[1] += 2.0 * s
        res[0] += s
        out[m] = res
    return out


def check_rel3(lam: CumulantTable, n: int) -> Dict[int, float]:
    """Residual of C_n = sum_{k>=0} (-1)^{k+n} C_{k+n} / k!, per eps-order.

    The k = 0 term re-adds (-1)^n C_n, so the relation is solved for C_n
    before taking the residual: for even n the residual is
    C_{n+1} - C_{n+2}/2 + ..., for odd n it is C_n - (1/2) sum_{k>=1} ...;
    both reduce to C_3 - C_4/2 at fourth order, the paper's violation term.
    """
    if n < 2:
        raise ValueError("rel3 needs n >= 2")
    K = lam.max_order
    out: Dict[int, float] = {}
    for m in range(0, K + 1):
        tail = 0.0
        for k in range(1, K - n + 1):
            c = lam.C.get(n + k, {}).get(m, 0.0)
            tail += (-1.0) ** (k + n) * c / math.factorial(k)
        if n % 2 == 0:
            out[m] = -tail
        else:
            out[m] = lam.C.get(n, {}).get(m, 0.0) - 0.5 * tail
    return out


# ----------------------------------------------------------------------
# beta*(p) and zeta(p)
# ----------------------------------------------------------------------
@dataclass
class ZetaSeries:
    """zeta(p) orders (absolute eps grading) as polynomials in x = p - 1."""

    orders: Dict[int, np.ndarray]       # eps-order n -> x-poly coefficients
    max_order: int

    def poly_at(self, eps: float) -> np.ndarray:
        top = max((len(v) for v in self.orders.values()), default=1)
        out = np.zeros(top)
        for n, coeffs in self.orders.items():
            out[:len(coeffs)] += coeffs * eps ** n
        return out

    def value(self, p: float, eps: float) -> float:
        c = self.poly_at(eps)
        return float(np.polyval(c[::-1], p - 1.0))


def _acc_poly(target: np.ndarray, term: np.ndarray, scale: float = 1.0) -> np.ndarray:
    if len(target) < len(term):
        target = np.pad(target, (0, len(term) - len(target)))
    target[:len(term)] += scale * term
    return target


def _graded_poly_pow(base: Dict[int, np.ndarray], k: int,
                     max_rel: int) -> Dict[int, np.ndarray]:
    """k-th power of a relative-graded x-polynomial series."""
    out = {0: np.array([1.0])}
    for _ in range(k):
        nxt: Dict[int, np.ndarray] = {}
        for m1, p1 in out.items():
            for m2, p2 in base.items():
                m = m1 + m2
                if m > max_rel:
                    continue
                prod = np.convolve(p1, p2)
                nxt[m] = _acc_poly(nxt.get(m, np.zeros(1)), prod)
        out = nxt
    return out


def beta_star(table: CumulantTable, max_order: int) -> Dict[int, np.ndarray]:
    """Orders of the Legendre maximizer beta_*(p), graded relative to eps^0.

    beta_*^(0) = <sigma>_+^(2) (p-1) / C_2^(2); higher relative orders by the
    stationarity iteration
    beta_* = <sigma>(p-1)/C_2 - sum_{k>=3} beta_*^{k-1} C_k/((k-1)! C_2).
    """
    lam = lambda_from_cumulants(table, max_order)
    if table.C.get(2, {}).get(2, 0.0) == 0.0:
        raise NoLinearResponseError(
            "C_2 vanishes at leading order: no linear response")
    N = max_order - 2  # relative orders carried
    c2 = lam.C[2]
    off_r, r = _series_ratio(lam.mean, c2, N)
    if r and any(v != 0.0 for v in r):
        assert off_r == 0, "mean/C_2 should start at relative order 0"
    ratios: Dict[int, Tuple[int, List[float]]] = {}
    for k in range(3, max_order + 1):
        ck = lam.C.get(k, {})
        ratios[k] = _series_ratio(ck, c2, N) if ck else (0, [0.0] * (N + 1))

    beta: Dict[int, np.ndarray] = {}
    for n in range(0, N + 1):
        # target term [mean (p-1) / C_2]^(n): coefficient on x
        val = np.zeros(2)
        val[1] = r[n] if n < len(r) else 0.0
        for k in range(3, max_order + 1):
            off_k, qk = ratios[k]
            powers = _graded_poly_pow(beta, k - 1, n)
            for m, poly in powers.items():
                rel = n - m - off_k
                if rel < 0 or rel > N:
                    continue
                coef = qk[rel] / math.factorial(k - 1)
                if coef == 0.0:
                    continue
                val = _acc_poly(val, poly, -coef)
        beta[n] = val
    return beta


def zeta(table: CumulantTable, max_order: int) -> ZetaSeries:
    """zeta(p) by the generic pipeline: stationary beta_* into the Legendre form.

    zeta^(n) = sum_m beta_*^(m) <sigma>^(n-m) x - sum_k 1/k! (beta_*^k C_k)^(n),
    with absolute eps grading n = 2..max_order; zeta(1) = 0 at every order.
    """
    lam = lambda_from_cumulants(table, max_order)
    bstar = beta_star(table, max_order)
    N = max_order - 2
    orders: Dict[int, np.ndarray] = {}
    for n in range(2, max_order + 1):
        acc = np.zeros(2)
        for m in range(0, min(N, n - 2) + 1):
            s = lam.mean_order(n - m)
            if s == 0.0:
                continue
            acc = _acc_poly(acc, np.convolve(bstar[m], np.array([0.0, s])))
        for k in range(2, max_order + 1):
            powers = _graded_poly_pow(bstar, k, N)
            for m, poly in powers.items():
                ck = lam.C.get(k, {}).get(n - m, 0.0)
                if ck == 0.0:
                    continue
                acc = _acc_poly(acc, poly, -ck / math.factorial(k))
        orders[n] = acc
    return ZetaSeries(orders, max_order)


def _fourth_order(table: CumulantTable, max_order: int) -> CumulantTable:
    """lambda_from_cumulants for the eps^4 forms below, which read C_2..C_4
    only and so refuse any higher order."""
    if max_order > 4:
        raise ValueError(f"order {max_order}: the fourth-order forms hold "
                         "through eps^4 only; pass max_order <= 4")
    return lambda_from_cumulants(table, max_order)


def zeta_closed_form(table: CumulantTable, max_order: int = 4) -> ZetaSeries:
    """The fourth-order closed form:
    zeta = (x^2/2)[<sigma> - C_2/4] - (x^3/48) C_3 - (x^4/384) C_4.
    """
    lam = _fourth_order(table, max_order)
    orders: Dict[int, np.ndarray] = {}
    for n in range(2, max_order + 1):
        acc = np.zeros(5)
        acc[2] = 0.5 * (lam.mean_order(n) - lam.C[2].get(n, 0.0) / 4.0)
        acc[3] = -lam.C.get(3, {}).get(n, 0.0) / 48.0
        acc[4] = -lam.C.get(4, {}).get(n, 0.0) / 384.0
        orders[n] = acc
    return ZetaSeries(orders, max_order)


def zeta_ft_imposed(table: CumulantTable, max_order: int = 4) -> ZetaSeries:
    """zeta with the FT relations imposed:
    zeta = (x^2/8) C_2 - (C_4/48) x^2 (1 + x/2 + x^2/8).
    """
    lam = _fourth_order(table, max_order)
    orders: Dict[int, np.ndarray] = {}
    for n in range(2, max_order + 1):
        acc = np.zeros(5)
        acc[2] = lam.C[2].get(n, 0.0) / 8.0
        c4 = lam.C.get(4, {}).get(n, 0.0)
        acc[2] -= c4 / 48.0
        acc[3] -= c4 / 96.0
        acc[4] -= c4 / 384.0
        orders[n] = acc
    return ZetaSeries(orders, max_order)


# ----------------------------------------------------------------------
# asymmetry of zeta and FT report
# ----------------------------------------------------------------------
def asymmetry_coefficients(table: CumulantTable, max_order: int = 4
                           ) -> Tuple[Dict[int, float], Dict[int, float]]:
    """-zeta(p) + zeta(-p) = p <sigma>(1 + A) + B p^3 + O(eps^5).

    A = <sigma>^{-1} [<sigma> - C_2/2 + C_3/8 - C_4/48] as an eps-series in
    relative orders (graded division by the leading <sigma>), and
    B = (1/24)[C_3 - C_4/2] in absolute orders.
    """
    lam = _fourth_order(table, max_order)
    num: Dict[int, float] = {}
    for m in range(2, max_order + 1):
        num[m] = (lam.mean_order(m)
                  - lam.C[2].get(m, 0.0) / 2.0
                  + lam.C.get(3, {}).get(m, 0.0) / 8.0
                  - lam.C.get(4, {}).get(m, 0.0) / 48.0)
    mean = lam.mean
    if all(v == 0.0 for v in mean.values()):
        raise NoLinearResponseError("<sigma>_+ vanishes at every computed order")
    lead_mean = min(m for m, v in mean.items() if v != 0.0)
    rel = max_order - 2
    if any(abs(v) > 0.0 for v in num.values()):
        off, q = _series_ratio(num, mean, rel)
        lead_num = min(m for m, v in num.items() if v != 0.0)
        A = {lead_num - lead_mean + i: q[i] for i in range(len(q))
             if lead_num - lead_mean + i <= max_order - lead_mean}
    else:
        A = {0: 0.0}
    B: Dict[int, float] = {}
    for m in range(2, max_order + 1):
        B[m] = (lam.C.get(3, {}).get(m, 0.0)
                - lam.C.get(4, {}).get(m, 0.0) / 2.0) / 24.0
    return A, B


@dataclass
class FTReport:
    """Per-order residuals of the FT-implied relations."""

    max_order: int
    rel1: Dict[int, List[float]]
    rel3: Dict[int, Dict[int, float]]   # n -> {eps_order: residual}
    first_violation_order: Optional[int]
    leading_violation: Optional[float]


def ft_report(table: CumulantTable, max_order: int = 4) -> FTReport:
    lam = lambda_from_cumulants(table, max_order)
    r1 = {m: list(map(float, v)) for m, v in check_rel1(lam).items()}
    r3 = {n: check_rel3(lam, n) for n in range(2, max_order)}
    first = None
    leading = None
    for m in range(2, max_order + 1):
        worst = max(abs(x) for x in r1[m])
        for n in r3:
            worst = max(worst, abs(r3[n].get(m, 0.0)))
        if worst > FT_TOL:
            first = m
            leading = worst
            break
    return FTReport(max_order, r1, r3, first, leading)


# ----------------------------------------------------------------------
# generalized FT: mean of an odd observable from joint cumulants
# ----------------------------------------------------------------------
def observable_mean_expansion(joint: Callable[[int, int, int], float],
                              direct_mean: Callable[[int], float],
                              max_order: int) -> Dict[str, Dict[int, float]]:
    """FT-implied expansion of <O>_+ for an observable odd under time reversal.

    joint(n1, n2, m) must return the mixed cumulant with n1 sigma-insertions
    and n2 O-insertions at total eps-order m.  Returns per-order values of
    the implied expansion
        <O>_+ = sum_{k>=2} (-1)^k/2^{k-1} sum_l C_{1...1 2...2} /
                                          ((2l+1)! (k-2l-1)!)
    (odd O-insertion counts only), the direct means, and the residuals.
    """
    implied: Dict[int, float] = {}
    for m in range(1, max_order + 1):
        total = 0.0
        for k in range(2, m + 1):
            coef = (-1.0) ** k / 2.0 ** (k - 1)
            for l in range(0, (k - 1) // 2 + 1):
                n2 = 2 * l + 1
                n1 = k - n2
                c = joint(n1, n2, m)
                total += coef * c / (math.factorial(n2) * math.factorial(n1))
        implied[m] = total
    direct = {m: direct_mean(m) for m in range(1, max_order + 1)}
    resid = {m: direct[m] - implied[m] for m in implied}
    return {"implied": implied, "direct": direct, "residual": resid}
