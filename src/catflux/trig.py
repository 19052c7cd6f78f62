"""Exact sparse algebra of trigonometric polynomials on the 2-torus.

A trigonometric polynomial f(psi) = sum_nu c_nu exp(i nu.psi), nu in Z^2, is
stored as a sparse map from integer frequency pairs to complex coefficients.
Composition with integer powers of the cat matrix, directional derivatives
along the eigendirections, torus averages and geometric sums over composed
iterates are all diagonal or near-diagonal in this representation, so every
selection-rule integral reduces to exact frequency bookkeeping.

Frequencies are Python ints (arbitrary precision); compositions with S^p push
a frequency to (S^T)^p nu, which grows like lambda_+^{|p|}.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Dict, Iterable, Tuple

import numpy as np

Freq = Tuple[int, int]

# Unstable eigenvalue of S0 = (1 1; 1 2) and friends, reused everywhere.
SQRT5 = math.sqrt(5.0)
LAMBDA_PLUS = (3.0 + SQRT5) / 2.0
LAMBDA_MINUS = (3.0 - SQRT5) / 2.0
# |(1, lambda_+ - 1)|^2 = lambda_+ + 1, by lambda^2 = 3 lambda - 1.
NORM_PLUS_SQ = LAMBDA_PLUS + 1.0
NORM_MINUS_SQ = LAMBDA_MINUS + 1.0
V_PLUS = (1.0 / math.sqrt(NORM_PLUS_SQ), (LAMBDA_PLUS - 1.0) / math.sqrt(NORM_PLUS_SQ))
V_MINUS = (1.0 / math.sqrt(NORM_MINUS_SQ), (LAMBDA_MINUS - 1.0) / math.sqrt(NORM_MINUS_SQ))

# S0 and its inverse as integer tuples (a11, a12, a21, a22).
S0 = (1, 1, 1, 2)
S0_INV = (2, -1, -1, 1)


class FrequencyCapError(ValueError):
    """A frequency exceeded the configured |nu|_inf safety cap."""

    def __init__(self, nu: Freq, cap: int):
        super().__init__(f"frequency {nu} exceeds cap |nu|_inf <= {cap}")
        self.nu = nu
        self.cap = cap


@dataclass(frozen=True)
class Truncation:
    """Truncation policy shared by all series machinery.

    max_p is the cap on geometric-sum indices; coeff_tol prunes coefficients;
    max_freq_norm is a pure safety cap on |nu|_inf against runaway
    compositions (frequencies are exact Python ints, so there is no overflow
    to guard).  Tolerance-limited geometric sums stop near p ~ 35 where
    frequencies reach ~lambda_+^35 ~ 5e14; shifted copies inside correlation
    sums push a further lambda_+^{~15}, hence the generous default.
    """

    max_freq_norm: int = 10**30
    coeff_tol: float = 1e-14
    max_p: int = 60

    def __post_init__(self):
        if self.max_freq_norm <= 0 or self.coeff_tol < 0 or self.max_p <= 0:
            raise ValueError("Truncation fields must be positive")


DEFAULT_TRUNCATION = Truncation()


def s0_power(k: int) -> Tuple[int, int, int, int]:
    """Exact integer entries (a11, a12, a21, a22) of S0^k, any sign of k.

    Entries are Python ints and grow like lambda_+^{|k|}; frequency growth
    is bounded by Truncation.max_freq_norm, not here.
    """
    if k == 0:
        return (1, 0, 0, 1)
    base = S0 if k > 0 else S0_INV
    n = abs(k)
    a, b, c, d = 1, 0, 0, 1
    pa, pb, pc, pd = base
    while n:
        if n & 1:
            a, b, c, d = (a * pa + b * pc, a * pb + b * pd,
                          c * pa + d * pc, c * pb + d * pd)
        pa, pb, pc, pd = (pa * pa + pb * pc, pa * pb + pb * pd,
                          pc * pa + pd * pc, pc * pb + pd * pd)
        n >>= 1
    return (a, b, c, d)


class TrigPoly:
    """Sparse trigonometric polynomial on T^2 with complex coefficients.

    Real-valued polynomials satisfy c(-nu) = conj(c(nu)); the constructors
    used for real data enforce this by building both terms together.
    Instances are immutable by convention: all operations return new objects.
    """

    __slots__ = ("coeffs", "_key")

    def __init__(self, coeffs: Dict[Freq, complex] | None = None,
                 tol: float = DEFAULT_TRUNCATION.coeff_tol):
        d: Dict[Freq, complex] = {}
        if coeffs:
            for nu, c in coeffs.items():
                if abs(c) > tol:
                    d[(int(nu[0]), int(nu[1]))] = complex(c)
        self.coeffs = d
        self._key = None

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @staticmethod
    def zero() -> "TrigPoly":
        return TrigPoly({})

    @staticmethod
    def const(value: float | complex) -> "TrigPoly":
        return TrigPoly({(0, 0): complex(value)})

    @staticmethod
    def cosine(nu: Freq, amp: float = 1.0) -> "TrigPoly":
        """amp * cos(nu . psi)."""
        nu = (int(nu[0]), int(nu[1]))
        m = (-nu[0], -nu[1])
        d: Dict[Freq, complex] = {}
        d[nu] = d.get(nu, 0) + amp / 2.0
        d[m] = d.get(m, 0) + amp / 2.0
        return TrigPoly(d)

    @staticmethod
    def sine(nu: Freq, amp: float = 1.0) -> "TrigPoly":
        """amp * sin(nu . psi)."""
        nu = (int(nu[0]), int(nu[1]))
        m = (-nu[0], -nu[1])
        d: Dict[Freq, complex] = {}
        d[nu] = d.get(nu, 0) + amp / 2.0j
        d[m] = d.get(m, 0) - amp / 2.0j
        return TrigPoly(d)

    # ------------------------------------------------------------------
    # ring operations
    # ------------------------------------------------------------------
    def __add__(self, other: "TrigPoly") -> "TrigPoly":
        if not isinstance(other, TrigPoly):
            return NotImplemented
        d = dict(self.coeffs)
        for nu, c in other.coeffs.items():
            d[nu] = d.get(nu, 0) + c
        return TrigPoly(d)

    def __sub__(self, other: "TrigPoly") -> "TrigPoly":
        if not isinstance(other, TrigPoly):
            return NotImplemented
        d = dict(self.coeffs)
        for nu, c in other.coeffs.items():
            d[nu] = d.get(nu, 0) - c
        return TrigPoly(d)

    def __neg__(self) -> "TrigPoly":
        return TrigPoly({nu: -c for nu, c in self.coeffs.items()}, tol=0.0)

    def __mul__(self, other):
        if isinstance(other, TrigPoly):
            if len(self.coeffs) > len(other.coeffs):
                a, b = other, self
            else:
                a, b = self, other
            d: Dict[Freq, complex] = {}
            for nu1, c1 in a.coeffs.items():
                for nu2, c2 in b.coeffs.items():
                    nu = (nu1[0] + nu2[0], nu1[1] + nu2[1])
                    d[nu] = d.get(nu, 0) + c1 * c2
            return TrigPoly(d)
        return TrigPoly({nu: c * other for nu, c in self.coeffs.items()})

    __rmul__ = __mul__

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, TrigPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.key())

    def key(self):
        """Hashable canonical form, used as a cache key."""
        if self._key is None:
            self._key = tuple(sorted((nu, c) for nu, c in self.coeffs.items()))
        return self._key

    def __repr__(self) -> str:
        terms = ", ".join(f"{nu}: {c:.3g}" for nu, c in sorted(self.coeffs.items()))
        return f"TrigPoly({{{terms}}})"

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    def prune(self, tol: float) -> "TrigPoly":
        return TrigPoly(self.coeffs, tol=tol)

    def l1_norm(self) -> float:
        return sum(abs(c) for c in self.coeffs.values())

    def max_freq_norm(self) -> int:
        if not self.coeffs:
            return 0
        return max(max(abs(nu[0]), abs(nu[1])) for nu in self.coeffs)

    def is_real(self, tol: float = 1e-12) -> bool:
        for nu, c in self.coeffs.items():
            m = (-nu[0], -nu[1])
            if abs(c - self.coeffs.get(m, 0).conjugate()) > tol:
                return False
        return True

    def check_cap(self, trunc: Truncation) -> "TrigPoly":
        for nu in self.coeffs:
            if max(abs(nu[0]), abs(nu[1])) > trunc.max_freq_norm:
                raise FrequencyCapError(nu, trunc.max_freq_norm)
        return self

    # ------------------------------------------------------------------
    # analysis operations
    # ------------------------------------------------------------------
    def average(self) -> float:
        """Torus average: the real part of the coefficient at nu = 0."""
        return self.coeffs.get((0, 0), 0j).real

    def compose_power(self, p: int, trunc: Truncation = DEFAULT_TRUNCATION) -> "TrigPoly":
        """f(S0^p psi): moves the coefficient at nu to (S0^T)^p nu."""
        if p == 0 or not self.coeffs:
            return self
        a, b, c, d = s0_power(p)
        # S0 is symmetric, so (S0^T)^p = S0^p; written out for clarity.
        out: Dict[Freq, complex] = {}
        for (n1, n2), coef in self.coeffs.items():
            nu = (a * n1 + c * n2, b * n1 + d * n2)
            out[nu] = out.get(nu, 0) + coef
        return TrigPoly(out, tol=0.0).check_cap(trunc)

    def derivative(self, direction: Tuple[float, float]) -> "TrigPoly":
        """Directional derivative (v . d/dpsi) f: multiplies c(nu) by i(nu.v)."""
        v1, v2 = direction
        return TrigPoly({nu: c * complex(0.0, nu[0] * v1 + nu[1] * v2)
                         for nu, c in self.coeffs.items()})

    def deriv_plus(self) -> "TrigPoly":
        return self.derivative(V_PLUS)

    def deriv_minus(self) -> "TrigPoly":
        return self.derivative(V_MINUS)

    def deriv_alpha(self, alpha: int) -> "TrigPoly":
        """alpha = +1 or -1 selects the unstable/stable eigendirection."""
        return self.deriv_plus() if alpha > 0 else self.deriv_minus()

    def partial(self, axis: int) -> "TrigPoly":
        """d/dpsi_axis, axis in {0, 1}."""
        return self.derivative((1.0, 0.0) if axis == 0 else (0.0, 1.0))

    def evaluate(self, psi1: float, psi2: float) -> float:
        """Pointwise value (real part; inputs are real polynomials)."""
        total = 0j
        for (n1, n2), c in self.coeffs.items():
            total += c * cmath.exp(1j * (n1 * psi1 + n2 * psi2))
        return total.real

    def evaluate_grid(self, grid1: np.ndarray, grid2: np.ndarray) -> np.ndarray:
        """Vectorized real evaluation on arrays of angles (same shape)."""
        total = np.zeros(np.broadcast(grid1, grid2).shape, dtype=complex)
        for (n1, n2), c in self.coeffs.items():
            total += c * np.exp(1j * (n1 * grid1 + n2 * grid2))
        return total.real

    def dump_csv(self) -> str:
        """Debug dump: lines of "nu1,nu2,re,im" sorted by frequency."""
        lines = ["nu1,nu2,re,im"]
        for nu in sorted(self.coeffs):
            c = self.coeffs[nu]
            lines.append(f"{nu[0]},{nu[1]},{c.real:.17g},{c.imag:.17g}")
        return "\n".join(lines)


@dataclass(frozen=True)
class GeometricSum:
    """Result of a truncated geometric sum with its recorded tail bound."""

    poly: TrigPoly
    tail_bound: float
    terms_used: int


def geometric_sum(f: TrigPoly, ratio: float, direction: int,
                  trunc: Truncation = DEFAULT_TRUNCATION) -> GeometricSum:
    """sum_{p>=0} ratio^p f(S0^{direction*p} psi), truncated.

    The sum stops at max_p or as soon as |ratio|^p ||f||_1 falls below
    coeff_tol (the terms would be pruned immediately anyway); the geometric
    tail bound |ratio|^{p+1}/(1-|ratio|) ||f||_1 for the stopping index is
    recorded.
    """
    if abs(ratio) >= 1.0:
        raise ValueError(f"geometric sum requires |ratio| < 1, got {ratio}")
    if direction not in (1, -1):
        raise ValueError("direction must be +1 or -1")
    if not f.coeffs:
        return GeometricSum(TrigPoly.zero(), 0.0, 0)
    norm = f.l1_norm()
    acc: Dict[Freq, complex] = {}
    weight = 1.0
    p = 0
    while p <= trunc.max_p and abs(weight) * norm > trunc.coeff_tol:
        # only terms whose weighted coefficient survives pruning are
        # composed; this keeps frequency growth tied to actual content
        live = TrigPoly({nu: c for nu, c in f.coeffs.items()
                         if abs(c) * abs(weight) > trunc.coeff_tol}, tol=0.0)
        if not live:
            break
        term = live.compose_power(direction * p, trunc)
        for nu, c in term.coeffs.items():
            acc[nu] = acc.get(nu, 0) + weight * c
        weight *= ratio
        p += 1
    tail = abs(weight) / (1.0 - abs(ratio)) * norm
    return GeometricSum(TrigPoly(acc, tol=trunc.coeff_tol), tail, p)


def quadrature_average(f: TrigPoly, n: int = 256) -> float:
    """Brute-force torus average by the n x n midpoint rule.

    Exact for trig polynomials with all |nu| < n (below the Nyquist limit);
    used as the independent oracle against average().
    """
    theta = 2.0 * math.pi * (np.arange(n) + 0.5) / n
    g1, g2 = np.meshgrid(theta, theta, indexing="ij")
    return float(f.evaluate_grid(g1, g2).mean())


def accumulate(acc: Dict[Freq, complex], poly: TrigPoly,
               scale: complex = 1.0) -> None:
    """acc += scale * poly, as a raw dict update (hot-path helper)."""
    if scale == 1.0:
        for nu, c in poly.coeffs.items():
            acc[nu] = acc.get(nu, 0) + c
    else:
        for nu, c in poly.coeffs.items():
            acc[nu] = acc.get(nu, 0) + scale * c


def product_average(factors: Iterable[TrigPoly]) -> float:
    """Exact torus average of a product of polynomials.

    The smaller factors are convolved and the result is contracted against
    the largest factor as a sparse dot product <prod> = sum_nu acc_nu big_{-nu},
    with an empty-product early abort.  This is the workhorse behind every
    selection-rule integral.
    """
    polys = sorted(factors, key=lambda p: len(p.coeffs))
    if not polys:
        return 1.0
    big = polys[-1]
    rest = polys[:-1]
    if not big.coeffs:
        return 0.0
    if not rest:
        return big.coeffs.get((0, 0), 0j).real
    acc: Dict[Freq, complex] | None = None
    for f in rest:
        if acc is None:
            acc = dict(f.coeffs)
        else:
            nxt: Dict[Freq, complex] = {}
            for nu1, c1 in acc.items():
                for nu2, c2 in f.coeffs.items():
                    nu = (nu1[0] + nu2[0], nu1[1] + nu2[1])
                    nxt[nu] = nxt.get(nu, 0) + c1 * c2
            acc = nxt
        if not acc:
            return 0.0
    bc = big.coeffs
    total = 0j
    for nu, c in acc.items():
        partner = bc.get((-nu[0], -nu[1]))
        if partner is not None:
            total += c * partner
    return total.real
