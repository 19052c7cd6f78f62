"""Exact sparse algebra of trigonometric polynomials on the 2-torus.

A trigonometric polynomial f(psi) = sum_nu c_nu exp(i nu.psi), nu in Z^2, is
stored as three numpy columns, lexsorted by (n1, n2) and unique: int64
frequencies n1 and n2 and complex128 coefficients c.  Composition with
integer powers of the cat matrix, directional derivatives along the
eigendirections, torus averages and geometric sums over composed iterates
are all diagonal or near-diagonal in this representation, so every
selection-rule integral reduces to exact frequency bookkeeping.  Every
operation that can create equal frequencies (construction, sums, products,
geometric sums) goes through one merge: lexsort, add.reduceat over equal
keys, prune |c| > COEFF_TOL.  A geometric sum's merge is deferred until
its columns are first read (DeferredSum); product_average can read such a
sum at the few frequencies a join needs without merging it.

One truncation rule serves every caller: coefficients of magnitude at most
COEFF_TOL are dropped (by the merge, by scalar products and by derivatives),
geometric sums stop after index MAX_P, and FREQ_LIMIT is the only frequency
cap.

Frequencies are exact int64 integers below FREQ_LIMIT = 2^62 in absolute
value.  Compositions with S^p push a frequency to (S^T)^p nu, which grows
like lambda_+^{|p|}.  int64 arithmetic that wraps is still exact modulo
2^64, so a composed frequency is computed with wrapping integer arithmetic
and is exact whenever its true value fits.  That is certified either by an
integer bound (entries times the largest frequency) or, when the bound
reaches 2^62, by a float64 shadow of the same map: the shadow plus its
rounding bound must stay below 2^62.  A frequency the shadow cannot certify
is recomputed in Python ints, and a true value of 2^62 or more raises
FrequencyCapError; nothing wraps silently.  A sum of two frequencies below
2^62 cannot wrap and is checked exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

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


# Frequencies are int64 with |n| < FREQ_LIMIT: a sum of two of them cannot
# wrap, and the composition shadow has room for its rounding bound.
FREQ_LIMIT = 2 ** 62
# coefficients with |c| <= COEFF_TOL are dropped
COEFF_TOL = 1e-14
# largest geometric-sum index; sums of ratio lambda_-^2 stop on COEFF_TOL
# near p ~ 35 first, where frequencies reach ~lambda_+^35 ~ 5e14
MAX_P = 60
# products form their frequency pairs in chunks of about this many pairs,
# and shift sums test their shift tuples in slabs of about this many cells
# (cumulants._slabs), so that the peak memory of one step stays bounded
PAIR_CHUNK = 1 << 20
# relative rounding bound of the float64 composition shadow: a11 n1 + a12 n2
# rounds each entry, each frequency, both products and the sum (5 roundings
# of 2^-53 each), with room to spare
_SHADOW_REL = 8 * 2.0 ** -53

_NO_FREQ = np.empty(0, dtype=np.int64)
_NO_COEFF = np.empty(0, dtype=np.complex128)
_PAIR = np.dtype([("n1", np.int64), ("n2", np.int64)])


class FrequencyCapError(ValueError):
    """A frequency reached the int64 limit FREQ_LIMIT = 2^62."""

    def __init__(self, nu: Freq):
        super().__init__(f"frequency {nu} exceeds the int64 limit "
                         f"|nu|_inf < 2**62 = {FREQ_LIMIT}")
        self.nu = nu


def s0_power(k: int) -> Tuple[int, int, int, int]:
    """Exact integer entries (a11, a12, a21, a22) of S0^k, any sign of k.

    Entries are Python ints and grow like lambda_+^{|k|}; composed
    frequencies are held below FREQ_LIMIT by _compose, not here.
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


# ----------------------------------------------------------------------
# column kernels
# ----------------------------------------------------------------------
Columns = Tuple[np.ndarray, np.ndarray, np.ndarray]


def _abs_max(x: np.ndarray) -> int:
    return max(int(x.max()), -int(x.min())) if x.size else 0


def _merge(n1: np.ndarray, n2: np.ndarray, c: np.ndarray,
           tol: float | None) -> Columns:
    """The one merge: lexsort by (n1, n2), add.reduceat over equal keys,
    then keep |c| > tol (no pruning when tol is None).

    The sort is stable, so equal keys are summed in input order.
    """
    if not n1.size:
        return _NO_FREQ, _NO_FREQ, _NO_COEFF
    order = np.lexsort((n2, n1))
    n1, n2, c = n1[order], n2[order], c[order]
    new = np.empty(n1.size, dtype=bool)
    new[0] = True
    np.not_equal(n1[1:], n1[:-1], out=new[1:])
    new[1:] |= n2[1:] != n2[:-1]
    if not new.all():
        starts = np.flatnonzero(new)
        c = np.add.reduceat(c, starts)
        n1, n2 = n1[starts], n2[starts]
    if tol is not None:
        keep = np.abs(c) > tol
        if not keep.all():
            n1, n2, c = n1[keep], n2[keep], c[keep]
    return n1, n2, c


def _merge_parts(parts: Iterable[Columns], tol: float | None) -> Columns:
    """_merge of the concatenated columns of several parts."""
    return _merge(*(np.concatenate(col) for col in zip(*parts)), tol)


def _check_limit(n1: np.ndarray, n2: np.ndarray) -> None:
    """Raise FrequencyCapError unless every exact frequency is < 2^62."""
    if max(_abs_max(n1), _abs_max(n2)) >= FREQ_LIMIT:
        i = int(np.flatnonzero((np.abs(n1) >= FREQ_LIMIT)
                               | (np.abs(n2) >= FREQ_LIMIT))[0])
        raise FrequencyCapError((int(n1[i]), int(n2[i])))


def _int64(x: int) -> int:
    """x reduced to the int64 range modulo 2^64."""
    return (x + 2 ** 63) % 2 ** 64 - 2 ** 63


def _compose(n1: np.ndarray, n2: np.ndarray, p: int
             ) -> Tuple[np.ndarray, np.ndarray]:
    """S0^p applied to the frequency columns, exactly.

    S0 is symmetric, so (S0^T)^p = S0^p.  The integer map runs in wrapping
    int64 arithmetic (entries reduced mod 2^64), which is exact mod 2^64.
    When the entries times the largest frequency could reach 2^62, a float64
    shadow of the same map, plus its rounding bound, certifies that every
    true result lies below 2^62 and therefore equals the wrapped one;
    frequencies it cannot certify are recomputed in Python ints.  Raises
    FrequencyCapError for a frequency >= 2^62.
    """
    a, b, c, d = s0_power(p)
    m1 = _int64(a) * n1 + _int64(c) * n2
    m2 = _int64(b) * n1 + _int64(d) * n2
    bound = 2 * max(map(abs, (a, b, c, d))) * max(_abs_max(n1), _abs_max(n2))
    if bound >= FREQ_LIMIT:
        f1, f2 = n1.astype(np.float64), n2.astype(np.float64)
        s1 = float(a) * f1 + float(c) * f2
        s2 = float(b) * f1 + float(d) * f2
        err = _SHADOW_REL * float(bound)
        if max(float(np.abs(s1).max()), float(np.abs(s2).max())) + err \
                >= FREQ_LIMIT:
            for x, y in zip(n1.tolist(), n2.tolist()):
                nu = (a * x + c * y, b * x + d * y)
                if max(abs(nu[0]), abs(nu[1])) >= FREQ_LIMIT:
                    raise FrequencyCapError(nu)
    return m1, m2


def _convolve(a: Columns, b: Columns, tol: float | None) -> Columns:
    """Columns of the product of two merged polynomials.

    The frequency pairs are formed as outer sums, about PAIR_CHUNK at a
    time (the smaller factor's terms index the outer loop), each chunk
    merged on its own and the partial results merged once more.
    """
    if len(a[2]) > len(b[2]):
        a, b = b, a
    a1, a2, ac = a
    b1, b2, bc = b
    if not ac.size:
        return _NO_FREQ, _NO_FREQ, _NO_COEFF
    rows = max(1, PAIR_CHUNK // bc.size)
    single = rows >= ac.size
    parts = []
    for i in range(0, ac.size, rows):
        s = slice(i, i + rows)
        n1 = np.add.outer(a1[s], b1).ravel()
        n2 = np.add.outer(a2[s], b2).ravel()
        _check_limit(n1, n2)
        parts.append(_merge(n1, n2, np.multiply.outer(ac[s], bc).ravel(),
                            tol if single else None))
    if single:
        return parts[0]
    return _merge_parts(parts, tol)


def _find(n1: np.ndarray, n2: np.ndarray, q1: np.ndarray, q2: np.ndarray
          ) -> Tuple[np.ndarray, np.ndarray]:
    """(index, found): where each query pair (q1, q2) sits in the sorted
    unique columns (n1, n2), and whether it is there."""
    if not n1.size:
        return np.zeros(q1.size, dtype=np.intp), np.zeros(q1.size, dtype=bool)
    keys = np.empty(n1.size, dtype=_PAIR)
    keys["n1"], keys["n2"] = n1, n2
    query = np.empty(q1.size, dtype=_PAIR)
    query["n1"], query["n2"] = q1, q2
    idx = np.minimum(np.searchsorted(keys, query), n1.size - 1)
    return idx, (n1[idx] == q1) & (n2[idx] == q2)


class TrigPoly:
    """Sparse trigonometric polynomial on T^2 with complex coefficients.

    Real-valued polynomials satisfy c(-nu) = conj(c(nu)); the constructors
    used for real data enforce this by building both terms together.
    Instances are immutable by convention: all operations return new objects.
    The columns n1, n2 (int64) and c (complex128) are lexsorted and unique;
    coeffs is a read-only dict view built on demand, for inspection only.
    """

    __slots__ = ("n1", "n2", "c", "_key")
    # numpy scalars on the left defer to __rmul__ instead of broadcasting
    __array_ufunc__ = None

    def __init__(self, coeffs: Mapping[Freq, complex] | None = None):
        keys = [(int(nu[0]), int(nu[1])) for nu in coeffs] if coeffs else []
        for nu in keys:
            if max(abs(nu[0]), abs(nu[1])) >= FREQ_LIMIT:
                raise FrequencyCapError(nu)
        n1 = np.array([k[0] for k in keys], dtype=np.int64)
        n2 = np.array([k[1] for k in keys], dtype=np.int64)
        c = np.array(list(coeffs.values()) if coeffs else [],
                     dtype=np.complex128)
        self.n1, self.n2, self.c = _merge(n1, n2, c, COEFF_TOL)
        self._key = None

    @classmethod
    def _of(cls, n1: np.ndarray, n2: np.ndarray, c: np.ndarray) -> "TrigPoly":
        """Wrap columns that are already lexsorted and unique."""
        poly = object.__new__(cls)
        poly.n1, poly.n2, poly.c = n1, n2, c
        poly._key = None
        return poly

    @property
    def coeffs(self) -> Mapping[Freq, complex]:
        """Read-only {(n1, n2): c} view, built on each access."""
        return MappingProxyType(dict(zip(zip(self.n1.tolist(),
                                             self.n2.tolist()),
                                         self.c.tolist())))

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @staticmethod
    def zero() -> "TrigPoly":
        return TrigPoly._of(_NO_FREQ, _NO_FREQ, _NO_COEFF)

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
    def _columns(self) -> Columns:
        return self.n1, self.n2, self.c

    def __add__(self, other: "TrigPoly") -> "TrigPoly":
        if not isinstance(other, TrigPoly):
            return NotImplemented
        return weighted_sum([(1.0, self), (1.0, other)])

    def __sub__(self, other: "TrigPoly") -> "TrigPoly":
        if not isinstance(other, TrigPoly):
            return NotImplemented
        return weighted_sum([(1.0, self), (-1.0, other)])

    def __neg__(self) -> "TrigPoly":
        return TrigPoly._of(self.n1, self.n2, -self.c)

    def __mul__(self, other):
        if isinstance(other, TrigPoly):
            return TrigPoly._of(*_convolve(self._columns(), other._columns(),
                                           COEFF_TOL))
        return TrigPoly._of(self.n1, self.n2, self.c * other)._prune()

    __rmul__ = __mul__

    def __len__(self) -> int:
        return self.c.size

    def __bool__(self) -> bool:
        return bool(self.c.size)

    def __eq__(self, other) -> bool:
        return (isinstance(other, TrigPoly)
                and np.array_equal(self.n1, other.n1)
                and np.array_equal(self.n2, other.n2)
                and np.array_equal(self.c, other.c))

    def __hash__(self):
        return hash(self.key())

    def key(self) -> bytes:
        """Hashable canonical form, used as a cache key: the bytes of the
        three columns."""
        if self._key is None:
            self._key = self.n1.tobytes() + self.n2.tobytes() + self.c.tobytes()
        return self._key

    def __repr__(self) -> str:
        terms = ", ".join(f"({a}, {b}): {c:.3g}" for a, b, c in
                          zip(self.n1.tolist(), self.n2.tolist(),
                              self.c.tolist()))
        return f"TrigPoly({{{terms}}})"

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    def take(self, mask: np.ndarray) -> "TrigPoly":
        """The terms selected by a boolean mask over the columns."""
        return TrigPoly._of(self.n1[mask], self.n2[mask], self.c[mask])

    def _prune(self) -> "TrigPoly":
        """Drop the terms with |c| <= COEFF_TOL; only scalar products and
        derivatives shrink coefficients outside the merge."""
        keep = np.abs(self.c) > COEFF_TOL
        return self if keep.all() else self.take(keep)

    def l1_norm(self) -> float:
        return float(np.abs(self.c).sum())

    # ------------------------------------------------------------------
    # analysis operations
    # ------------------------------------------------------------------
    def average(self) -> float:
        """Torus average: the real part of the coefficient at nu = 0."""
        zero = np.zeros(1, dtype=np.int64)
        idx, found = _find(self.n1, self.n2, zero, zero)
        return float(self.c[idx[0]].real) if found[0] else 0.0

    def compose_power(self, p: int) -> "TrigPoly":
        """f(S0^p psi): moves the coefficient at nu to (S0^T)^p nu.

        S0^p is a bijection of Z^2, so the columns are only re-sorted."""
        if p == 0 or not self:
            return self
        m1, m2 = _compose(self.n1, self.n2, p)
        order = np.lexsort((m2, m1))
        return TrigPoly._of(m1[order], m2[order], self.c[order])

    def derivative(self, direction: Tuple[float, float]) -> "TrigPoly":
        """Directional derivative (v . d/dpsi) f: multiplies c(nu) by i(nu.v)."""
        v1, v2 = direction
        factor = np.zeros(self.c.size, dtype=np.complex128)
        factor.imag = self.n1 * v1 + self.n2 * v2
        return TrigPoly._of(self.n1, self.n2, self.c * factor)._prune()

    def deriv_plus(self) -> "TrigPoly":
        return self.derivative(V_PLUS)

    def deriv_minus(self) -> "TrigPoly":
        return self.derivative(V_MINUS)

    def deriv_alpha(self, alpha: int) -> "TrigPoly":
        """alpha = +1 or -1 selects the unstable/stable eigendirection."""
        return self.deriv_plus() if alpha > 0 else self.deriv_minus()

    def evaluate(self, psi1, psi2):
        """Real value at angles psi1, psi2: floats or numpy arrays that
        broadcast together (inputs are real polynomials)."""
        total = np.zeros(np.broadcast(psi1, psi2).shape, dtype=complex)
        for n1, n2, c in zip(self.n1.tolist(), self.n2.tolist(),
                             self.c.tolist()):
            total += c * np.exp(1j * (n1 * psi1 + n2 * psi2))
        return total.real[()]

    def dump_csv(self) -> str:
        """Debug dump: lines of "nu1,nu2,re,im" sorted by frequency."""
        lines = ["nu1,nu2,re,im"]
        for n1, n2, c in zip(self.n1.tolist(), self.n2.tolist(),
                             self.c.tolist()):
            lines.append(f"{n1},{n2},{c.real:.17g},{c.imag:.17g}")
        return "\n".join(lines)


def weighted_sum(terms: Iterable[Tuple[complex, TrigPoly]]) -> TrigPoly:
    """sum_j w_j p_j, concatenated and merged once (pruned at COEFF_TOL)."""
    parts = [(p.n1, p.n2, p.c if w == 1.0 else w * p.c) for w, p in terms if p]
    if not parts:
        return TrigPoly.zero()
    return TrigPoly._of(*_merge_parts(parts, COEFF_TOL))


class DeferredSum(TrigPoly):
    """The polynomial of a geometric sum, merged the first time its columns
    are read.

    It holds the summand f, the weight of each index p, the direction and
    a scale.  Until the columns n1, n2 and c are first read, they are unset
    slots, and __getattr__ merges them: the same composition, merge and
    prunes that geometric_sum describes, in the same order.  Reading an
    entry whole (len, bool, a product, a composition, coeffs) therefore sees
    exactly the eagerly merged columns, and holds them from then on.
    product_average reads an unmerged sum only at the frequencies it needs
    (coefficients_at) when its partners are certainly shorter.
    """

    __slots__ = ("_plan",)

    def __init__(self, f: TrigPoly, weights: Tuple[float, ...],
                 direction: int, scale: float, terms: int):
        self._key = None
        self._plan = (f, weights, direction, scale, terms)

    def __getattr__(self, name: str):
        # reached only while a slot is unset, i.e. before the merge
        if name not in ("n1", "n2", "c") or self._plan is None:
            raise AttributeError(name)
        self.n1, self.n2, self.c = self._merged()
        self._plan = None
        return getattr(self, name)

    @property
    def pending(self) -> bool:
        """True until the columns have been merged."""
        return self._plan is not None

    @property
    def terms(self) -> int:
        """Composed terms the merge will concatenate (while pending)."""
        return self._plan[4]

    def _scaled(self, c: np.ndarray) -> np.ndarray:
        """c times the scale.  A scale of 1.0 is skipped, as an unscaled sum
        never multiplied: the complex product could flip a zero's sign."""
        scale = self._plan[3]
        return c if scale == 1.0 else c * scale

    def _merged(self) -> Columns:
        f, weights, direction, _, _ = self._plan
        size = np.abs(f.c)
        parts = []
        for p, weight in enumerate(weights):
            live = size * abs(weight) > COEFF_TOL
            n1, n2 = f.n1[live], f.n2[live]
            if p:
                n1, n2 = _compose(n1, n2, direction * p)
            parts.append((n1, n2, weight * f.c[live]))
        n1, n2, c = _merge_parts(parts, COEFF_TOL)
        c = self._scaled(c)
        keep = np.abs(c) > COEFF_TOL
        if not keep.all():
            n1, n2, c = n1[keep], n2[keep], c[keep]
        return n1, n2, c

    def coefficients_at(self, q1: np.ndarray, q2: np.ndarray
                        ) -> Tuple[np.ndarray, np.ndarray]:
        """(c, found): the merged coefficient at each query frequency,
        read from an unmerged sum without merging it.

        The term of index p at nu comes from f at S0^{-direction p} nu,
        found in f's keys (preimages in Python ints, so one past the int64
        range is simply absent) and kept by the live rule.  Per query the
        terms are added in p order by np.add.reduceat, as the merge adds
        them, then pruned, scaled and pruned again: the same numbers as the
        merged columns hold at those frequencies.
        """
        f, weights, direction, _, _ = self._plan
        queries = list(zip(q1.tolist(), q2.tolist()))
        pre = []
        for p in range(len(weights)):
            a, b, c, d = s0_power(-direction * p)
            for i, (x, y) in enumerate(queries):
                m1, m2 = a * x + c * y, b * x + d * y
                if max(abs(m1), abs(m2)) < FREQ_LIMIT:
                    pre.append((i, p, m1, m2))
        out = np.zeros(len(queries), dtype=np.complex128)
        hit = np.zeros(len(queries), dtype=bool)
        if not pre:
            return out, hit
        qi, p, m1, m2 = (np.array(col, dtype=np.int64) for col in zip(*pre))
        idx, found = _find(f.n1, f.n2, m1, m2)
        w = np.array(weights)[p]
        found &= np.abs(f.c[idx]) * np.abs(w) > COEFF_TOL
        qi, w, idx = qi[found], w[found], idx[found]
        if not qi.size:
            return out, hit
        # rows are grouped by p; a stable sort groups them by query in p order
        order = np.argsort(qi, kind="stable")
        qi, vals = qi[order], w[order] * f.c[idx[order]]
        starts = np.flatnonzero(np.r_[True, qi[1:] != qi[:-1]])
        sums = np.add.reduceat(vals, starts)
        qi = qi[starts]
        keep = np.abs(sums) > COEFF_TOL
        qi, sums = qi[keep], self._scaled(sums[keep])
        keep = np.abs(sums) > COEFF_TOL
        out[qi[keep]] = sums[keep]
        hit[qi[keep]] = True
        return out, hit


@dataclass(frozen=True)
class GeometricSum:
    """Result of a truncated geometric sum with its recorded tail bound."""

    poly: TrigPoly
    tail_bound: float


def geometric_sum(f: TrigPoly, ratio: float, direction: int,
                  scale: float = 1.0) -> GeometricSum:
    """scale * sum_{p>=0} ratio^p f(S0^{direction*p} psi), truncated.

    The sum stops after p = MAX_P or as soon as |ratio|^p ||f||_1 falls below
    COEFF_TOL (the terms would be pruned immediately anyway); the geometric
    tail bound |scale| |ratio|^{p+1}/(1-|ratio|) ||f||_1 for the stopping
    index is recorded.  Only terms whose weighted coefficient survives
    pruning are composed, which keeps frequency growth tied to actual
    content; the composed terms of every p are concatenated and merged once,
    pruned, multiplied by scale and pruned again, exactly as
    scale * (merged sum) would be.

    The stopping index, the tail bound and the frequency cap are settled
    here: a composition that could pass FREQ_LIMIT is checked now and
    raises FrequencyCapError.  The merge itself waits: the poly is a
    DeferredSum, merged the first time its columns are read.
    """
    if abs(ratio) >= 1.0:
        raise ValueError(f"geometric sum requires |ratio| < 1, got {ratio}")
    if direction not in (1, -1):
        raise ValueError("direction must be +1 or -1")
    if not f:
        return GeometricSum(TrigPoly.zero(), 0.0)
    norm = f.l1_norm()
    size = np.abs(f.c)
    reach = max(_abs_max(f.n1), _abs_max(f.n2))
    weights = []
    terms = 0
    weight = 1.0
    while len(weights) <= MAX_P and abs(weight) * norm > COEFF_TOL:
        live = size * abs(weight) > COEFF_TOL
        count = int(np.count_nonzero(live))
        if not count:
            break
        power = direction * len(weights)
        if 2 * max(map(abs, s0_power(power))) * reach >= FREQ_LIMIT:
            _compose(f.n1[live], f.n2[live], power)
        weights.append(weight)
        terms += count
        weight *= ratio
    tail = abs(scale) * (abs(weight) / (1.0 - abs(ratio)) * norm)
    poly = DeferredSum(f, tuple(weights), direction, scale, terms)
    return GeometricSum(poly, tail)


def _product(polys: Sequence[TrigPoly]) -> Columns:
    """Columns of the product of merged polynomials, convolved in order,
    with an empty-product early abort."""
    acc = polys[0]._columns()
    for f in polys[1:]:
        if not acc[2].size:
            break
        acc = _convolve(acc, f._columns(), 0.0)
    return acc


def _deferred_join(polys: List[TrigPoly], i: int) -> float | None:
    """product_average with the unmerged sum polys[i] read only where the
    join needs it, or None when it is not certainly the longest factor.

    Sorted by length, the sum would be the last factor when it is at least
    as long as every factor before it and longer than every factor after
    it.  Its length is bounded below by the number of its own largest
    summand terms whose merged coefficients survive; when that bound does
    not settle it, or reading the needed coefficients would cost more than
    the merge, the caller merges.
    """
    big = polys[i]
    rest = sorted(polys[:i] + polys[i + 1:], key=len)
    need = max([len(p) for p in polys[:i]]
               + [len(p) + 1 for p in polys[i + 1:]], default=0)
    f, weights = big._plan[:2]
    if rest:
        n1, n2, c = _product(rest)
    else:
        n1 = n2 = np.zeros(1, dtype=np.int64)
        c = None
    if (n1.size + need) * len(weights) > big.terms:
        return None
    top = np.argsort(-np.abs(f.c), kind="stable")[:need]
    vals, found = big.coefficients_at(np.concatenate([-n1, f.n1[top]]),
                                      np.concatenate([-n2, f.n2[top]]))
    if int(found[n1.size:].sum()) < need:
        return None
    vals, found = vals[:n1.size], found[:n1.size]
    if c is None:
        return float(vals[0].real) if found[0] else 0.0
    return float((c[found] * vals[found]).sum().real)


def product_average(factors: Iterable[TrigPoly]) -> float:
    """Exact torus average of a product of polynomials.

    The smaller factors are convolved and the result is joined against the
    largest factor's sorted keys, <prod> = sum_nu acc_nu big_{-nu}, with an
    empty-product early abort.  This is the workhorse behind every
    selection-rule integral.

    The join searches the shorter side's negated keys in the longer side.
    Negation reverses lexicographic order, so when the convolution is the
    longer side its matches come in reverse; read back, they give the same
    products in the same order, and the same sum.

    An unmerged geometric sum (DeferredSum) is not merged to be sorted.
    When it is the only unmerged factor and certainly the longest, the
    join reads its coefficients only at the convolution's negated keys
    (DeferredSum.coefficients_at): the same products in the same order,
    and the same sum.  Otherwise it is merged first.
    """
    polys = list(factors)
    pending = [i for i, p in enumerate(polys)
               if isinstance(p, DeferredSum) and p.pending]
    if len(pending) == 1:
        value = _deferred_join(polys, pending[0])
        if value is not None:
            return value
    polys.sort(key=len)
    if not polys:
        return 1.0
    big = polys.pop()
    if not big:
        return 0.0
    if not polys:
        return big.average()
    n1, n2, c = _product(polys)
    if not c.size:
        return 0.0
    if c.size <= big.c.size:
        idx, found = _find(big.n1, big.n2, -n1, -n2)
        return float((c[found] * big.c[idx[found]]).sum().real)
    idx, found = _find(n1, n2, -big.n1, -big.n2)
    j = np.flatnonzero(found)[::-1]
    return float((c[idx[j]] * big.c[j]).sum().real)
