"""The catflux workloads: inputs from a seed, the timed pipeline, probes, checks.

``exact-deep`` and ``symbolic`` each load a different part of catflux (see
README.md for why).  A workload's pipeline is what ``wall_s`` times.  A
traced run must report every per-layer metric on every workload, so it also
runs probes: the criterion-8 Monte Carlo grid on both workloads, and a coder
built from the reference partition on ``exact-deep``.  Untraced runs never
run probes.  Each function takes the name of the span that roots its timed
part: ``pipeline`` or ``probe.<name>``.

With ``prime`` set (traced runs only), each exact table first extends the
engine's public series to the depths an untraced build of the same table
reached, so that conjugation, rate and composition work get spans of their
own before ``build_table`` runs.
"""

from __future__ import annotations

import json
import math
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from catflux import (CatCoder, CatSystem, CorrelationEngine, HarmonicForce,
                     SimConfig, TorusPoint, TransitionMatrix,
                     asymmetry_coefficients, birkhoff_frequencies,
                     build_cat_partition, build_curve, build_table,
                     check_rel1, check_rel3, fit_models, ft_report,
                     lambda_from_cumulants, partition_from_json, simulate,
                     slope_and_A, transition_matrix, verify_markov, zeta,
                     zeta_closed_form, zeta_ft_imposed)
from catflux.qfield import Q5

from spans import Recorder

REFERENCE = Path(__file__).resolve().parent / "reference" / "cat_partition.json"
TWO_PI = 2.0 * math.pi

# exact-deep: the unit-amplitude table of f = sin psi1 through eps^4.  The
# table of f = a sin psi1 is exactly a^m times it at eps-order m.
UNIT_MEAN = {1: 0.0, 2: 1.0, 3: 0.0, 4: 1.5}
UNIT_C = {2: {2: 2.0, 3: 0.0, 4: 4.5}, 3: {3: 0.0, 4: 3.0}, 4: {4: -6.0}}
TABLE_TOL = 1e-6

# mc-grid: the criterion-8 grid on realizable eps only (two-harmonic
# eps = 0.3 is not invertible).  T sets about 8 s of stepping at
# ~1.4 us (single) and ~2.0 us (two harmonics) per step.
EPS_GRID = (0.05, 0.1, 0.15, 0.2)
TAU = 25
N_RUNS = 16
T_STEPS = 36_000
# |z| bound of the sigma-bar check.  The standard error comes from 16 runs,
# so z is t-distributed with 15 degrees of freedom: P(|t| > 6) ~ 2e-5.
Z_MAX = 6.0

# symbolic
BIRKHOFF_STEPS = 10 ** 6
BIRKHOFF_TOL = 5e-3          # absolute, per rectangle; ~10 sigma at 10^6 steps
ROUNDTRIPS = 400
CODE_DEPTH = 16

PROBE_ROUNDTRIPS = 200

@dataclass
class Inputs:
    seed: int
    amp: float                  # a in f = a sin psi1, drawn from [0.8, 1.25]
    mc_seed: int                # SimConfig.seed handed to catflux
    start: TorusPoint           # Birkhoff start point
    points: List[TorusPoint]    # encode/decode query points
    reference: dict             # reference partition and transition matrix


def program_seed(seed: int) -> int:
    """The Monte Carlo seed handed to catflux for a benchmark seed.

    catflux keys run r with ``seed ^ r``, so consecutive seeds share runs
    (seeds 0..15 at N = 16 give the same 16 streams).  Clearing the low 8
    bits keeps the run streams of different benchmark seeds disjoint for
    N <= 256.
    """
    return seed << 8


def make_inputs(seed: int) -> Inputs:
    rng = np.random.default_rng(seed)
    amp = float(rng.uniform(0.8, 1.25))
    start = TorusPoint(*map(float, rng.uniform(0.0, TWO_PI, 2)))
    points = [TorusPoint(float(x), float(y))
              for x, y in rng.uniform(0.0, TWO_PI, (ROUNDTRIPS, 2))]
    reference = json.loads(REFERENCE.read_text())
    return Inputs(seed, amp, program_seed(seed), start, points, reference)


@dataclass
class Result:
    """What one pipeline pass or probe produced."""

    wall_s: Optional[float] = None
    depths: Dict[str, Tuple[int, int]] = field(default_factory=dict)
    engines: Dict[str, CorrelationEngine] = field(default_factory=dict)
    cells: List[Tuple[TorusPoint, TorusPoint, float]] = field(
        default_factory=list)       # (point, decoded centre, diameter)


Prime = Optional[Dict[str, Tuple[int, int]]]
Step = Callable[[Recorder, "Inputs", Prime, str], Result]


# ----------------------------------------------------------------------
# shared pieces
# ----------------------------------------------------------------------
def exact_table(rec: Recorder, res: Result, label: str, force: HarmonicForce,
                order: int, prime: Prime):
    with rec.span("cumulants.engine"):
        eng = CorrelationEngine(force, order)
    depth = prime.get(label) if prime else None
    if depth is not None:
        with rec.span("conjugation.h"):
            eng.conj.extend_to(depth[0])
        with rec.span("conjugation.rates"):
            eng.expansion.extend_to(depth[1])
        with rec.span("cumulants.compose"):
            eng.composed_ids(eng.sigma_observable(), order)
    with rec.span("cumulants.build_table"):
        table = build_table(force, order, engine=eng)
    reached = (eng.conj.max_order, eng.expansion.max_order)
    if depth is not None:
        rec.check(f"{label}: priming reaches what the build needs",
                  reached == tuple(depth),
                  f"primed {tuple(depth)}, build reached {reached}")
    res.depths[label] = reached
    if rec.tracing:
        res.engines[label] = eng
    return table


def check_scaled_table(rec: Recorder, label: str, table, amp: float,
                       order: int) -> None:
    for m in range(1, order + 1):
        got = table.mean[m] / amp ** m
        rec.check(f"{label}: <sigma>^({m}) / a^{m}",
                  abs(got - UNIT_MEAN[m]) <= TABLE_TOL,
                  f"{got!r} != {UNIT_MEAN[m]}")
    for n in range(2, order + 1):
        for m in range(n, order + 1):
            got = table.C[n][m] / amp ** m
            rec.check(f"{label}: C_{n}^({m}) / a^{m}",
                      abs(got - UNIT_C[n][m]) <= TABLE_TOL,
                      f"{got!r} != {UNIT_C[n][m]}")


def finite(*values: float) -> bool:
    return all(math.isfinite(v) for v in values)


def mc_point(rec: Recorder, force: HarmonicForce, eps: float, T: int, N: int,
             seed: int):
    """One grid point: (stats, slope result)."""
    config = SimConfig(system=CatSystem(epsilon=eps, force=force), T=T,
                       tau=TAU, N=N, seed=seed, workers=1)
    with rec.span("simulate.run", work=N * T):
        stats = simulate(config)
    with rec.span("simulate.curve"):
        curve = build_curve(stats, config, errors="binomial")
    with rec.span("simulate.slope"):
        slope = slope_and_A(curve, p_max=2.0)
    return stats, slope


def check_mc_point(rec: Recorder, label: str, stats, slope, T: int) -> None:
    bad = [s.run_index for s in stats if s.n_windows != T // TAU]
    rec.check(f"{label}: every run has T/tau windows", not bad,
              f"runs {bad}")
    rec.check(f"{label}: A and its stderr are finite",
              finite(slope.A, slope.stderr), f"{slope}")


def sigma_z(stats, predicted: float) -> float:
    bars = [s.sigma_bar for s in stats]
    se = statistics.stdev(bars) / math.sqrt(len(bars))
    return (statistics.fmean(bars) - predicted) / se


def torus_distance(p: TorusPoint, q: TorusPoint) -> float:
    dx = (p.psi1 - q.psi1 + math.pi) % TWO_PI - math.pi
    dy = (p.psi2 - q.psi2 + math.pi) % TWO_PI - math.pi
    return math.hypot(dx, dy)


def roundtrips(rec: Recorder, res: Result, coder: CatCoder,
               points: Sequence[TorusPoint]) -> None:
    for p in points:
        with rec.span("partition.roundtrip"):
            center, diameter = coder.decode(coder.encode(p, CODE_DEPTH))
        res.cells.append((p, center, diameter))


def check_cells(rec: Recorder, res: Result, label: str) -> None:
    """Containment check of the decoded cells.

    A point of the cell lies within one diameter of any other point of it,
    the centre included.  The sharper half-diagonal bound does not hold:
    decode converts the centre with float(Q5), which loses ~1e-9 rad to
    cancellation at depth 16, so points near a cell corner can land just
    outside it.  The worst ratio is printed to keep that visible.
    """
    ratios = [torus_distance(p, c) / (0.5 * d) for p, c, d in res.cells]
    outside = [i for i, r in enumerate(ratios) if r > 2.0]
    rec.check(f"{label}: each decoded cell contains its point", not outside,
              f"{len(outside)} of {len(ratios)} points farther than one "
              f"diameter from the centre, first {outside[:5]}")
    print(f"{label}: worst |p - centre| / half-diagonal = {max(ratios):.6f} "
          f"over {len(ratios)} round trips")


# ----------------------------------------------------------------------
# pipelines
# ----------------------------------------------------------------------
def exact_deep(rec: Recorder, inp: Inputs, prime: Prime, root: str) -> Result:
    """build_table(a sin psi1, 4) and the whole fluctuation algebra on it."""
    res = Result()
    a = inp.amp
    force = HarmonicForce.single_harmonic(a)
    with rec.span(root) as wall:
        table = exact_table(rec, res, "order-4", force, 4, prime)
        with rec.span("fluctuation.ft_report"):
            report = ft_report(table, 4)
        with rec.span("fluctuation.zeta"):
            zs = zeta(table, 4)
        with rec.span("fluctuation.zeta_closed_form"):
            closed = zeta_closed_form(table, 4)
        with rec.span("fluctuation.zeta_ft_imposed"):
            imposed = zeta_ft_imposed(table, 4)
        with rec.span("fluctuation.asymmetry"):
            A, B = asymmetry_coefficients(table, 4)
        with rec.span("fluctuation.lambda"):
            lam = lambda_from_cumulants(table, 4)
        with rec.span("fluctuation.rel1"):
            rel1 = check_rel1(lam)
        with rec.span("fluctuation.rel3"):
            rel3 = check_rel3(lam, 3)
    res.wall_s = wall.seconds

    check_scaled_table(rec, "exact-deep", table, a, 4)
    rec.check("exact-deep: first FT violation at eps^4",
              report.first_violation_order == 4,
              f"got {report.first_violation_order}")
    six_a4 = 6.0 * a ** 4
    rec.check("exact-deep: rel3 residual is 6 a^4 at eps^4 and 0 below",
              abs(rel3[4] - six_a4) <= TABLE_TOL * six_a4
              and all(abs(rel3[m]) <= 1e-9 for m in range(4)),
              f"{rel3} vs 6a^4 = {six_a4}")
    rec.check("exact-deep: rel1 holds through eps^3",
              all(np.max(np.abs(rel1[m])) <= 1e-9 for m in range(4)),
              f"{ {m: rel1[m].tolist() for m in range(4)} }")
    for n in range(2, 5):
        p, c = zs.orders[n], closed.orders[n]
        width = max(len(p), len(c))
        diff = np.max(np.abs(np.pad(p, (0, width - len(p)))
                             - np.pad(c, (0, width - len(c)))))
        rec.check(f"exact-deep: zeta^({n}) pipeline equals closed form",
                  diff <= 1e-9, f"max difference {diff}")
    rec.check("exact-deep: A, B and FT-imposed zeta are finite",
              finite(*A.values(), *B.values(),
                     *(float(x) for v in imposed.orders.values() for x in v)))
    return res


FORCES = (("single", HarmonicForce.single_harmonic()),
          ("two", HarmonicForce.two_harmonics()))


def mc_grid(rec: Recorder, inp: Inputs, prime: Prime, root: str) -> Result:
    """Criterion 8: 2 forces x 4 eps x 16 runs = 128 lanes, plus order-3 A."""
    res = Result()
    tables, predicted, fits, points = {}, {}, {}, {}
    with rec.span(root) as wall:
        for label, force in FORCES:
            tables[label] = exact_table(rec, res, f"{label}-3", force, 3,
                                        prime)
        for label, force in FORCES:
            with rec.span("fluctuation.asymmetry"):
                predicted[label] = asymmetry_coefficients(tables[label], 3)
            points[label] = []
            for eps in EPS_GRID:
                stats, slope = mc_point(rec, force, eps, T_STEPS, N_RUNS,
                                        inp.mc_seed)
                points[label].append((eps, stats, slope))
            with rec.span("simulate.fit"):
                fits[label] = fit_models(
                    [(eps, s.A, s.stderr) for eps, _, s in points[label]], TAU)
    res.wall_s = wall.seconds

    for label, _ in FORCES:
        A, B = predicted[label]
        rec.check(f"mc-grid {label}: predicted A and B are finite",
                  finite(*A.values(), *B.values()), f"{A} {B}")
        for eps, stats, slope in points[label]:
            check_mc_point(rec, f"mc-grid {label} eps={eps}", stats, slope,
                           T_STEPS)
        f1, f2 = fits[label]
        rec.check(f"mc-grid {label}: f1/f2 fits are finite",
                  finite(*f1.params, *f1.stderrs, *f2.params, *f2.stderrs))
    # single harmonic: <sigma>_+ = eps^2 + 1.5 eps^4 (exact-deep's table);
    # two harmonics only at eps = 0.05, because the order-3 series is off by
    # more than 10 sigma at eps >= 0.1 (truncation, not a defect)
    checks = [("single", eps, stats, eps ** 2 + 1.5 * eps ** 4)
              for eps, stats, _ in points["single"]]
    eps, stats, _ = points["two"][0]
    checks.append(("two", eps, stats, tables["two"].mean_total(eps)))
    for label, eps, stats, want in checks:
        z = sigma_z(stats, want)
        rec.check(f"mc-grid {label} eps={eps}: pooled sigma-bar matches "
                  f"<sigma>_+ within {Z_MAX} standard errors",
                  abs(z) <= Z_MAX, f"z = {z:.2f}")
    return res


def symbolic(rec: Recorder, inp: Inputs, prime: Prime, root: str) -> Result:
    """Exact Q(sqrt5) partition to a CatCoder, then float coding queries."""
    res = Result()
    ref = inp.reference
    with rec.span(root) as wall:
        with rec.span("partition.build"):
            part = build_cat_partition()
        with rec.span("partition.verify"):
            report = verify_markov(part)
        with rec.span("partition.transition"):
            tm = transition_matrix(part)
        with rec.span("partition.coder_init"):
            coder = CatCoder(part, tm)
        with rec.span("partition.birkhoff", work=BIRKHOFF_STEPS):
            freqs = birkhoff_frequencies(coder, inp.start, BIRKHOFF_STEPS)
        roundtrips(rec, res, coder, inp.points)
    res.wall_s = wall.seconds
    check_cells(rec, res, "symbolic")

    rec.check("symbolic: 19 rectangles", len(part) == ref["rectangles"],
              f"got {len(part)}")
    rec.check("symbolic: verify_markov passes", report.ok,
              "; ".join(report.messages))
    rec.check("symbolic: areas sum to exactly 1", part.total_area() == Q5(1),
              f"sum {float(part.total_area())!r}")
    rec.check("symbolic: transition matrix equals the reference",
              tm.T.tolist() == ref["transition_matrix"])
    rec.check("symbolic: mixing time equals the reference",
              tm.mixing_time == ref["mixing_time"], f"got {tm.mixing_time}")
    areas = {r.rid: float(r.area()) for r in part.rectangles}
    worst = max(abs(freqs[i] - areas[i]) for i in areas)
    rec.check(f"symbolic: Birkhoff frequencies within {BIRKHOFF_TOL} of areas",
              worst <= BIRKHOFF_TOL, f"worst deviation {worst}")
    return res


# ----------------------------------------------------------------------
# probes (traced runs only)
# ----------------------------------------------------------------------
def reference_coder(rec: Recorder, inp: Inputs, prime: Prime,
                    root: str) -> Result:
    """Coder and round trips from the reference partition (loaded, not built)."""
    res = Result()
    ref = inp.reference
    part = partition_from_json(json.dumps(ref["partition"]))
    tm = TransitionMatrix(np.array(ref["transition_matrix"], dtype=int),
                          ref["mixing_time"])
    with rec.span(root):
        with rec.span("partition.coder_init"):
            coder = CatCoder(part, tm)
        roundtrips(rec, res, coder, inp.points[:PROBE_ROUNDTRIPS])
    check_cells(rec, res, "coder probe")
    return res


@dataclass(frozen=True)
class Workload:
    pipeline: Step
    probes: Tuple[Step, ...]


WORKLOADS = {
    "exact-deep": Workload(exact_deep, (mc_grid, reference_coder)),
    "symbolic": Workload(symbolic, (mc_grid,)),
}
