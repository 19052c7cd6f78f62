"""Reference implementations that check the library from outside it.

Each oracle recomputes a library quantity by a route that shares none of
the code it checks: sigma from the assembled 2 x 2 Jacobian, torus
averages and recorded moments by grid quadrature, and zeta(p) by a brute
Legendre maximum over a beta grid.  No subcommand or library code runs
them; the tests import them from here.
"""

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from catflux.cumulants import CumulantTable, FactorRef, MomentEngine
from catflux.torus import CatSystem, HarmonicForce, TorusPoint
from catflux.trig import TrigPoly, s0_power

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
        cn = table.cumulant_total(n_c, eps)
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
