"""Deterministic Monte Carlo experiments on the perturbed cat map.

Reproduces the thesis-style runs: N independent orbits of length T, the
contraction rate accumulated over non-overlapping windows of length tau,
the dimensionless window average p = (sum_window sigma)/(tau sigma_bar_T),
pooled histograms, the fluctuation-ratio curve

    y(p) = log[Freq(p) / Freq(-p)] / (tau sigma_bar p),

the slope/A estimate around the FT prediction y = 1, and the finite-tau fit
models f1(eps) = a1 eps^2 + b1/(tau eps), f2 = a2 eps + b2 eps^2 + c2/(tau eps).

Reproducibility: every run r is a pure function of (config, r); the RNG is
the counter-based Philox generator keyed by seed XOR r, so results are
bit-identical for a fixed seed regardless of worker count or scheduling.
Known defect of that keying: seeds that differ only in their low bits share
streams.  For any seed in 0..15 at N = 16, {seed ^ r : r < 16} = {0..15}, so
those sixteen seeds run the same sixteen orbits in a different order
(ROADMAP, open item "Monte Carlo: lanes and fresh streams"); pick seeds
that differ above bit log2(N).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .torus import CatSystem, check_count

# seeds key the 128-bit Philox generator, so they lie in 0..SEED_LIMIT - 1
SEED_LIMIT = 2 ** 128


@dataclass(frozen=True)
class SimConfig:
    """One Monte Carlo experiment, validated before any stepping.

    Construction refuses bad counts, seeds and bin widths, and an eps at
    which S_eps is not invertible (det DS_eps <= 0 somewhere on T^2).
    """

    system: CatSystem
    T: int
    tau: int
    N: int
    bin_width: float = 0.05
    seed: int = 2024
    workers: int = 1
    sigma_mode: str = "per_run"   # "per_run" (thesis protocol) or "pooled"

    def __post_init__(self):
        for name in ("T", "tau", "N", "workers"):
            check_count(name, getattr(self, name), 1)
        check_count("seed", self.seed, 0, SEED_LIMIT - 1)
        if self.T % self.tau != 0:
            raise ValueError("T must be a multiple of tau")
        if not 0 < self.bin_width < math.inf:
            raise ValueError("bin width must be a positive finite number, "
                             f"got {self.bin_width!r}")
        if self.sigma_mode not in ("per_run", "pooled"):
            raise ValueError("sigma_mode must be 'per_run' or 'pooled'")
        if self.system.epsilon == 0.0:
            raise ValueError(
                "zero mean contraction: eps_tau undefined for eps = 0")
        _require_invertible(self.system)


# grid sizes n (n x n samples of g) tried in turn by _require_invertible
INVERTIBILITY_GRIDS = (64, 256, 1024)


def _require_invertible(system: CatSystem) -> None:
    """Refuse an eps at which det DS_eps = 1 + eps g(psi) <= 0 somewhere.

    The minimum of the determinant over T^2 is 1 + eps min g for eps > 0 and
    1 + eps max g for eps < 0.  HarmonicForce.jacobian_extremes brackets it
    on finer grids until the bracket is positive; a bracket that still
    reaches 0 on the finest grid is refused, with the admissible range
    -1/max g < eps < 1/(-min g) narrowed to its certified part.
    """
    eps = system.epsilon
    for n in INVERTIBILITY_GRIDS:
        (min_lo, min_hi), (max_lo, max_hi) = system.force.jacobian_extremes(n)
        g_lo, g_hi = (min_lo, min_hi) if eps > 0 else (max_hi, max_lo)
        det_lo, det_hi = 1.0 + eps * g_lo, 1.0 + eps * g_hi
        if det_lo > 0.0:
            return
    if det_hi <= 0.0:
        verdict = f"S_eps is not invertible: min det DS_eps <= {det_hi:.4g}"
    else:
        verdict = (f"S_eps cannot be certified invertible: min det DS_eps "
                   f"lies in [{det_lo:.2e}, {det_hi:.2e}] on a {n} x {n} grid")
    raise ValueError(
        f"eps = {eps}: {verdict}; "
        f"det DS_eps = 1 + eps g, and g has extremes {min_hi:.4f} and "
        f"{max_lo:.4f} to within {min_hi - min_lo:.1e}, so this force needs "
        f"{-1.0 / max_hi:.4f} < eps < {1.0 / -min_lo:.4f}")


@dataclass
class RunStats:
    """One run: the empirical mean of sigma and the histogram of p-values."""

    run_index: int
    sigma_bar: float
    counts: Dict[int, int]          # bin index i covers [i w, (i+1) w)
    max_abs_p: float
    n_windows: int


def _simulate_run(config: SimConfig, run_index: int
                  ) -> Tuple[int, float, np.ndarray]:
    """One orbit: (run_index, sigma_bar_T, window sums of sigma)."""
    rng = np.random.Generator(np.random.Philox(key=config.seed ^ run_index))
    x1, x2 = rng.uniform(0.0, 2.0 * math.pi, 2)
    total, window_sums, _ = config.system.orbit(x1, x2, config.T, config.tau)
    sigma_bar = total / config.T
    if sigma_bar <= 0.0:
        raise RuntimeError(f"non-positive sigma_bar in run {run_index}")
    return run_index, sigma_bar, np.array(window_sums)


def _bin_windows(run_index: int, sigma_bar: float, window_sums: np.ndarray,
                 norm_sigma: float, config: SimConfig) -> RunStats:
    counts: Dict[int, int] = {}
    w = config.bin_width
    p = window_sums / (config.tau * norm_sigma)
    for b in np.floor(p / w).astype(int):
        counts[int(b)] = counts.get(int(b), 0) + 1
    return RunStats(run_index, sigma_bar, counts,
                    float(np.max(np.abs(p))), len(window_sums))


def simulate(config: SimConfig) -> List[RunStats]:
    """N independent runs, merged in run order (worker-count invariant)."""
    if config.workers == 1 or config.N == 1:
        raw = [_simulate_run(config, r) for r in range(config.N)]
    else:
        # imported here: the pool's modules (multiprocessing, socket,
        # logging, queue) would otherwise load with every import of catflux
        from concurrent.futures import ProcessPoolExecutor
        # map returns the runs in run order, whatever the chunking
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            raw = list(pool.map(_simulate_run, repeat(config), range(config.N),
                                chunksize=math.ceil(config.N / config.workers)))
    if config.sigma_mode == "pooled":
        pooled = float(np.mean([sb for _, sb, _ in raw]))
        return [_bin_windows(i, sb, ws, pooled, config) for i, sb, ws in raw]
    return [_bin_windows(i, sb, ws, sb, config) for i, sb, ws in raw]


# the default |p| cut of the slope fit
P_MAX = 2.0


@dataclass
class RatioCurve:
    """Symmetric-bin log-ratio curve y(p) with standard errors."""

    p: np.ndarray
    y: np.ndarray
    err: np.ndarray

    def rows(self):
        return list(zip(self.p.tolist(), self.y.tolist(), self.err.tolist()))


def build_curve(stats: Sequence[RunStats], config: SimConfig,
                errors: str = "runs") -> RatioCurve:
    """y(p) = log[Freq(p)/Freq(-p)] / (tau sigma_bar p) per symmetric bin pair.

    errors="runs": the log-ratio is averaged over the runs where the pair is
    populated and the error is the standard deviation of that mean (the
    thesis' convention).  errors="binomial": pooled counts with 1/sqrt(F)
    error propagation through the log.  p is the bin center and sigma_bar
    the mean of the runs' sigma_bar.
    """
    if not stats:
        raise ValueError("no runs")
    sigma_bar = float(np.mean([s.sigma_bar for s in stats]))
    pooled: Dict[int, int] = {}
    for s in stats:
        for b, c in s.counts.items():
            pooled[b] = pooled.get(b, 0) + c
    # symmetric pairs: bin b >= 0 pairs with -b-1; centers +-(b+0.5) w
    bins = sorted(b for b in pooled if b >= 0 and (-b - 1) in pooled)
    if not bins:
        raise ValueError("no symmetric bin pair is populated on both sides")
    ps, ys, errs = [], [], []
    for b in bins:
        if errors == "runs":
            vals = []
            for s in stats:
                fp = s.counts.get(b, 0)
                fm = s.counts.get(-b - 1, 0)
                if fp > 0 and fm > 0:
                    vals.append(math.log(fp / fm))
            if len(vals) < 2:
                continue
            m = float(np.mean(vals))
            e = float(np.std(vals, ddof=1) / math.sqrt(len(vals)))
            ps.append(b)
            ys.append(m)
            errs.append(e)
        elif errors == "binomial":
            fp = pooled[b]
            fm = pooled[-b - 1]
            ps.append(b)
            ys.append(math.log(fp / fm))
            errs.append(math.sqrt(1.0 / fp + 1.0 / fm))
        else:
            raise ValueError("errors must be 'runs' or 'binomial'")
    if not ps:
        raise ValueError("no bin pair populated in at least two runs")
    p = (np.array(ps, dtype=float) + 0.5) * config.bin_width
    denom = config.tau * sigma_bar * p
    return RatioCurve(p, np.array(ys) / denom, np.array(errs) / denom)


def measure_asymmetry(config: SimConfig, p_max: float = P_MAX) -> SlopeResult:
    """One experimental A(eps) point: simulate, build the curve, fit the slope.

    Pooled binomial errors weight the slope fit; they stay honest in the
    low-count tail bins where per-run dispersion over few runs undershoots.
    """
    stats = simulate(config)
    return slope_and_A(build_curve(stats, config, errors="binomial"),
                       p_max=p_max)


@dataclass(frozen=True)
class SlopeResult:
    slope: float
    A: float
    stderr: float
    lever: float    # sum w p^4 / sum w p^2 over the fitted bins


def slope_and_A(curve: RatioCurve, p_max: float = P_MAX) -> SlopeResult:
    """Weighted slope through the origin of z(p) = p y(p); A = slope - 1.

    The FT predicts z = p exactly; the leading deviation z = (1+A) p defines
    A.  Weights are 1/err(z)^2 over the bins with err > 0; a zero-error bin
    (a sparse bin whose runs agree) is dropped.  Only when every fitted bin
    has err 0 (exact synthetic inputs) are the weights uniform and stderr 0.

    With the cubic term of fluctuation.asymmetry_coefficients,
    z = (1 + A) p + (B/<sigma>) p^3, the returned A is
    A + (B/<sigma>) lever, lever = sum w p^4 / sum w p^2 over the fitted
    bins: it equals asymmetry_coefficients' A only when B = 0.
    """
    mask = (np.abs(curve.p) <= p_max) & (curve.p != 0)
    weighted = bool(np.any(curve.err[mask] > 0))
    if weighted:
        mask &= curve.err > 0
    if int(mask.sum()) < 3:
        raise ValueError(f"need >= 3 populated symmetric bins with |p| <= {p_max}")
    p = curve.p[mask]
    z = p * curve.y[mask]
    if weighted:
        w = 1.0 / (np.abs(p) * curve.err[mask]) ** 2
    else:
        w = np.ones_like(p)
    denom = float(np.sum(w * p * p))
    slope = float(np.sum(w * p * z)) / denom
    stderr = math.sqrt(1.0 / denom) if weighted else 0.0
    lever = float(np.sum(w * p ** 4)) / denom
    return SlopeResult(slope, slope - 1.0, stderr, lever)


@dataclass(frozen=True)
class FitResult:
    params: Tuple[float, ...]
    stderrs: Tuple[float, ...]
    rss: float


def _weighted_lsq(X: np.ndarray, y: np.ndarray, sig: np.ndarray,
                  model: str) -> FitResult:
    w = 1.0 / sig ** 2
    A = X.T @ (w[:, None] * X)
    b = X.T @ (w * y)
    try:
        cov = np.linalg.inv(A)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"singular normal equations for {model}") from exc
    params = cov @ b
    resid = y - X @ params
    rss = float(np.sum(w * resid ** 2))
    stderrs = tuple(math.sqrt(max(cov[i, i], 0.0)) for i in range(len(params)))
    return FitResult(tuple(map(float, params)), stderrs, rss)


def fit_models(points: Sequence[Tuple[float, float, float]], tau: int
               ) -> Tuple[FitResult, FitResult]:
    """Fit f1 and f2 to (eps, A, stderr) data by weighted least squares."""
    eps = np.array([p[0] for p in points])
    if len(set(eps.tolist())) < 3:
        raise ValueError("need at least 3 distinct eps values")
    a = np.array([p[1] for p in points])
    sig = np.array([max(p[2], 1e-300) for p in points])
    X1 = np.column_stack([eps ** 2, 1.0 / (tau * eps)])
    X2 = np.column_stack([eps, eps ** 2, 1.0 / (tau * eps)])
    f1 = _weighted_lsq(X1, a, sig, "f1")
    f2 = _weighted_lsq(X2, a, sig, "f2")
    return f1, f2


