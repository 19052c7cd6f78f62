"""The perturbed cat map on T^2.

The step S_eps(psi) = S0 psi + eps f(psi) mod 2pi with S0 = (1 1; 1 2), the
phase-space contraction rate sigma = -log|det DS_eps|, both computed by the
one loop CatSystem.orbit, and the time reversal I0 = (-1 0; -1 1).  The eigendata of S0 lives in trig (floats) and qfield
(exact), its integer powers in trig.s0_power.

All values are immutable after construction and safe to share.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np

from .trig import TrigPoly, V_MINUS, V_PLUS

TWO_PI = 2.0 * math.pi


def check_count(name: str, value, least: int, most=None) -> None:
    """Refuse a count that is a bool, not an integer, below least or above
    most (unbounded above when most is None); the message names the range."""
    integral = (isinstance(value, numbers.Integral)
                and not isinstance(value, bool))
    if integral and least <= value and (most is None or value <= most):
        return
    span = f">= {least}" if most is None else f"in {least}..{most}"
    raise ValueError(f"{name} must be {'' if integral else 'an integer '}"
                     f"{span}, got {value!r}")


@dataclass(frozen=True)
class TorusPoint:
    """A point of T^2 with angles reduced to [0, 2pi); a NaN or infinite
    angle raises ValueError."""

    psi1: float
    psi2: float

    def __post_init__(self):
        for name in ("psi1", "psi2"):
            psi = getattr(self, name)
            if not math.isfinite(psi):
                raise ValueError(f"angle {name} = {psi} is not finite")
            object.__setattr__(self, name, psi % TWO_PI)


@dataclass(frozen=True)
class Harmonic:
    """One force harmonic: amp * sin(nu . psi) applied to the first coordinate."""

    nu: Tuple[int, int]
    amp: float

    @property
    def jac_amp(self) -> float:
        """Amplitude of this harmonic's cos(nu . psi) term in g, where
        det DS_eps = 1 + eps g.

        For a force on the first coordinate only, expanding the determinant
        of S0 + eps Df along its first row gives the cat-map cofactor
        combination g = 2 d1(f1) - d2(f1); for f = sin psi1 this reproduces
        sigma = -log(1 + 2 eps cos psi1).
        """
        return self.amp * (2 * self.nu[0] - self.nu[1])


@dataclass(frozen=True)
class HarmonicForce:
    """A finite list of harmonics acting along the first coordinate."""

    harmonics: Tuple[Harmonic, ...]

    @staticmethod
    def from_pairs(pairs: Sequence[Tuple[Tuple[int, int], float]]) -> "HarmonicForce":
        return HarmonicForce(tuple(Harmonic((int(n[0]), int(n[1])), float(a))
                                   for n, a in pairs))

    @staticmethod
    def single_harmonic(amp: float = 1.0) -> "HarmonicForce":
        """The thesis' first test force, f = sin(psi1)."""
        return HarmonicForce.from_pairs([((1, 0), amp)])

    @staticmethod
    def two_harmonics(amp: float = 1.0) -> "HarmonicForce":
        """The thesis' second test force, f = sin(psi1) + sin(2 psi1)."""
        return HarmonicForce.from_pairs([((1, 0), amp), ((2, 0), amp)])

    def f1_poly(self) -> TrigPoly:
        """First component f1(psi) as a trig polynomial."""
        out = TrigPoly.zero()
        for h in self.harmonics:
            out = out + TrigPoly.sine(h.nu, h.amp)
        return out

    def jacobian_poly(self) -> TrigPoly:
        """g(psi) with det DS_eps = 1 + eps g(psi); see Harmonic.jac_amp."""
        out = TrigPoly.zero()
        for h in self.harmonics:
            out = out + TrigPoly.cosine(h.nu, h.jac_amp)
        return out

    def jacobian_extremes(self, n: int
                          ) -> Tuple[Tuple[float, float], Tuple[float, float]]:
        """Certified brackets (lo, hi) of min g and of max g over T^2.

        g = jacobian_poly() is sampled on the n x n grid 2 pi (i, j)/n.  Every
        point of T^2 lies within h/sqrt2 of the grid (h = 2 pi/n) and the
        gradient vanishes at an extreme, so the true extreme lies within
        M h^2/4 of the sampled one, where M = sum |c_nu| |nu|^2 bounds the
        norm of the Hessian; a rounding slack covers the evaluation.
        """
        g = self.jacobian_poly()
        theta = 2.0 * math.pi * np.arange(n) / n
        grid = np.zeros((n, n), dtype=complex)
        for n1, n2, c in zip(g.n1.tolist(), g.n2.tolist(), g.c.tolist()):
            # exp(i(n1 t1 + n2 t2)) factorises over the two grid axes
            grid += np.multiply.outer(c * np.exp(1j * n1 * theta),
                                      np.exp(1j * n2 * theta))
        values = grid.real
        hessian = sum(abs(c) * (n1 ** 2 + n2 ** 2) for n1, n2, c in
                      zip(g.n1.tolist(), g.n2.tolist(), g.c.tolist()))
        margin = hessian * (2.0 * math.pi / n) ** 2 / 4.0 + 1e-12 * g.l1_norm()
        lo, hi = float(values.min()), float(values.max())
        return (lo - margin, lo), (hi, hi + margin)

    def f_alpha(self, alpha: int) -> TrigPoly:
        """Component along the unit eigenvector: f_alpha = f . v_alpha."""
        v = V_PLUS if alpha > 0 else V_MINUS
        return self.f1_poly() * v[0]


@dataclass(frozen=True)
class CatSystem:
    """The perturbed map S_eps psi = S0 psi + eps f(psi) mod 2pi."""

    epsilon: float = 0.0
    force: HarmonicForce = field(default_factory=lambda: HarmonicForce(()))

    def orbit(self, psi1: float, psi2: float, T: int, tau: int
              ) -> Tuple[float, List[float], Tuple[float, float]]:
        """T steps from (psi1, psi2): (sum of sigma, window sums, end point).

        sigma = -log1p(eps g) is taken at each point before the step; the
        window sums cover the T // tau complete windows of tau steps.  This
        loop is the one implementation of the step and of sigma.  A NaN or
        infinite start angle raises ValueError before the first step.
        """
        TorusPoint(psi1, psi2)
        eps = self.epsilon
        harmonics = [(h.nu[0], h.nu[1], h.amp, h.jac_amp)
                     for h in self.force.harmonics]
        two_pi = TWO_PI
        sin = math.sin
        cos = math.cos
        log1p = math.log1p
        x1, x2 = psi1, psi2
        window_sums: List[float] = []
        wsum = 0.0
        j_in_window = 0
        total = 0.0
        try:
            for _ in range(T):
                force = 0.0
                jac = 0.0
                for n1, n2, amp, jamp in harmonics:
                    arg = n1 * x1 + n2 * x2
                    force += amp * sin(arg)
                    jac += jamp * cos(arg)
                s = -log1p(eps * jac)
                wsum += s
                total += s
                j_in_window += 1
                if j_in_window == tau:
                    window_sums.append(wsum)
                    wsum = 0.0
                    j_in_window = 0
                y1 = (x1 + x2 + eps * force) % two_pi
                y2 = (x1 + 2.0 * x2) % two_pi
                x1, x2 = y1, y2
        except ValueError:
            raise ValueError(
                f"map not locally invertible: det DS_eps = {1.0 + eps * jac} "
                f"at {TorusPoint(x1, x2)}") from None
        return total, window_sums, (x1, x2)

    def step(self, x: TorusPoint) -> TorusPoint:
        """S_eps x; refuses, as sigma does, a point where det DS_eps <= 0."""
        return TorusPoint(*self.orbit(x.psi1, x.psi2, 1, 1)[2])

    def sigma(self, x: TorusPoint) -> float:
        """Phase-space contraction rate -log|det DS_eps| at x."""
        return self.orbit(x.psi1, x.psi2, 1, 1)[0]


def time_reversal(x: TorusPoint) -> TorusPoint:
    """Apply I0 = (-1 0; -1 1) mod 2pi; an involution with I0 S0 = S0^{-1} I0."""
    return TorusPoint(-x.psi1, x.psi2 - x.psi1)
