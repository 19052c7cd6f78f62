"""Traced-run extras: kernels, the CLI smoke pass and the per-layer metrics.

Kernels time single trig and qfield operations on the run's own operands.
The CLI smoke pass runs every subcommand once through ``catflux.cli.main``
on a tiny config; while it runs, the library functions the CLI imported are
wrapped in spans, so ``cli.<cmd>`` self time is the CLI's own work.
"""

from __future__ import annotations

import json
import shutil
import statistics
from pathlib import Path
from typing import Dict, Sequence

import catflux.cli as cli
from catflux import CorrelationEngine
from catflux.qfield import lattice_coords

from spans import Recorder

LATTICE_WINDOW = 30

CLI_COMMANDS = ("coeffs", "cumulants", "zeta", "ftcheck", "simulate", "fit",
                "symbolic", "report")
CLI_T = 10_000
# order 2 and small T keep every subcommand but `symbolic` (which always
# builds the full partition) well under a second
CLI_CONFIG = {"force": [{"nu": [1, 0], "amp": 1.0}], "eps": [0.1, 0.15, 0.2],
              "order": 2, "T": CLI_T, "tau": 25, "N": 4, "workers": 1}
# names catflux.cli imported -> (span name, item count of one call or None)
CLI_SPANS = {
    "conjugation_order_k": ("conjugation.h", None),
    "expansion_rate_series": ("conjugation.rates", None),
    "CorrelationEngine": ("cumulants.engine", None),
    "build_table": ("cumulants.build_table", None),
    "ft_report": ("fluctuation.ft_report", None),
    "zeta": ("fluctuation.zeta", None),
    "zeta_closed_form": ("fluctuation.zeta_closed_form", None),
    "zeta_ft_imposed": ("fluctuation.zeta_ft_imposed", None),
    "asymmetry_coefficients": ("fluctuation.asymmetry", None),
    "simulate": ("simulate.run", lambda config: config.N * config.T),
    "build_curve": ("simulate.curve", None),
    "slope_and_A": ("simulate.slope", None),
    "fit_models": ("simulate.fit", None),
    "measure_asymmetry": ("simulate.measure", None),
    "build_cat_partition": ("partition.build", None),
    "verify_markov": ("partition.verify", None),
    "transition_matrix": ("partition.transition", None),
    "CatCoder": ("partition.coder_init", None),
    "birkhoff_frequencies": ("partition.birkhoff",
                             lambda coder, x0, n_steps, *rest: n_steps),
}

# the spans of one exact table, and of a partition from build to usable coder
TABLE_SPANS = ("cumulants.engine", "conjugation.h", "conjugation.rates",
               "cumulants.compose", "cumulants.build_table")
CODER_SPANS = ("partition.build", "partition.verify", "partition.transition",
               "partition.coder_init")

# per-layer metric -> unit, in BENCHMARK.json order
PER_LAYER = {
    "trig.mul_pairs_per_s": "pairs/s",
    "trig.compose_terms_per_s": "terms/s",
    "conjugation.h_s": "s",
    "conjugation.rates_s": "s",
    "conjugation.h_terms": "count",
    "conjugation.rate_terms": "count",
    "conjugation.self_s": "s",
    "cumulants.table_s": "s",
    "cumulants.compose_s": "s",
    "cumulants.moments_s": "s",
    "cumulants.moments": "count",
    "cumulants.moment_yield": "ratio",
    "cumulants.base_terms_max": "count",
    "cumulants.self_s": "s",
    "fluctuation.s": "s",
    "simulate.lane_steps_per_s": "steps/s",
    "simulate.run_s": "s",
    "simulate.lane_steps": "count",
    "simulate.curve_s": "s",
    "simulate.self_s": "s",
    "qfield.lattice_coords_per_s": "1/s",
    "partition.to_coder_s": "s",
    "partition.build_s": "s",
    "partition.verify_s": "s",
    "partition.transition_s": "s",
    "partition.coder_init_s": "s",
    "partition.birkhoff_steps_per_s": "steps/s",
    "partition.roundtrip_ms_p50": "ms",
    "partition.roundtrip_ms_p95": "ms",
    "partition.self_s": "s",
    **{f"cli.{cmd}_s": "s" for cmd in CLI_COMMANDS},
    "cli.self_s": "s",
    "trace.layer_share": "ratio",
    "trace.overhead_s": "s",
}


def kernels(rec: Recorder, engines: Sequence[CorrelationEngine]) -> Dict[str, float]:
    """Trig multiply and compose on the largest operands, lattice_coords."""
    conj = max((e.conj for e in engines),
               key=lambda c: len(c.h_plus[c.max_order].coeffs))
    a, b = conj.h_plus[conj.max_order], conj.h_plus[1]
    with rec.span("trig.mul") as s:
        a * b
    out = {"trig.mul_pairs_per_s": len(a.coeffs) * len(b.coeffs) / s.seconds}
    base = max((p for e in engines for p in e.engine.bases),
               key=lambda p: len(p.coeffs))
    with rec.span("trig.compose") as s:
        base.compose_power(1)
    out["trig.compose_terms_per_s"] = len(base.coeffs) / s.seconds
    w = LATTICE_WINDOW
    with rec.span("qfield.lattice_coords") as s:
        for m in range(-w, w + 1):
            for n in range(-w, w + 1):
                lattice_coords(m, n)
    out["qfield.lattice_coords_per_s"] = (2 * w + 1) ** 2 / s.seconds
    return out


def cli_smoke(rec: Recorder, out_dir: Path, mc_seed: int) -> None:
    """Every subcommand once; a non-zero exit code counts as a failure."""
    out_dir.mkdir(parents=True, exist_ok=True)
    config = out_dir / "config.json"
    config.write_text(json.dumps({**CLI_CONFIG, "seed": mc_seed}))
    saved = {name: getattr(cli, name) for name in CLI_SPANS}
    try:
        for name, (span, work) in CLI_SPANS.items():
            setattr(cli, name, rec.wrap(span, saved[name], work))
        for cmd in CLI_COMMANDS:
            with rec.span(f"cli.{cmd}"):
                code = cli.main([cmd, "--config", str(config),
                                 "--out", str(out_dir / cmd)])
            rec.check(f"cli {cmd} exits 0", code == 0, f"exit code {code}")
    finally:
        for name, fn in saved.items():
            setattr(cli, name, fn)
        shutil.rmtree(out_dir, ignore_errors=True)


def engine_counts(engines: Sequence[CorrelationEngine]) -> Dict[str, float]:
    h_terms = rate_terms = moments = nonzero = 0
    for e in engines:
        h_terms += sum(len(p.coeffs) for p in e.conj.h_plus + e.conj.h_minus)
        r = e.expansion.rates
        rate_terms += sum(len(p.coeffs) for p in
                          r.gamma_plus + r.gamma_minus + r.k_plus + r.k_minus)
        rate_terms += sum(len(e.expansion.order(k).coeffs)
                          for k in range(1, e.expansion.max_order + 1))
        moments += len(e.engine.moments)
        nonzero += sum(1 for v in e.engine.moments.values() if v != 0.0)
    return {
        "conjugation.h_terms": h_terms,
        "conjugation.rate_terms": rate_terms,
        "cumulants.moments": moments,
        "cumulants.moment_yield": nonzero / moments,
        "cumulants.base_terms_max": max(len(p.coeffs) for e in engines
                                        for p in e.engine.bases),
    }


def per_layer(rec: Recorder, untraced_wall: float, traced_wall: float,
              kernel_rates: Dict[str, float],
              engines: Sequence[CorrelationEngine]) -> Dict[str, float]:
    own = rec.self_times()

    def self_of(name: str) -> float:
        return sum(own[s.sid] for s in rec.named(name))

    def total_of(*names: str) -> float:
        return sum(s.seconds for n in names for s in rec.named(n))

    def layer_self(layer: str) -> float:
        return sum(own[s.sid] for s in rec.spans if s.layer == layer)

    def median_of(name: str) -> float:
        return statistics.median(s.seconds for s in rec.named(name))

    def rate_of(name: str) -> float:
        spans = rec.named(name)
        return sum(s.work for s in spans) / sum(s.seconds for s in spans)

    roundtrips = [s.seconds for s in rec.named("partition.roundtrip")]
    fluctuation = rec.preferred([s for s in rec.spans
                                 if s.layer == "fluctuation"])
    pipeline = [s for s in rec.spans if s.root == "pipeline"
                and s.name != "pipeline"]
    m = dict(kernel_rates)
    m.update(engine_counts(engines))
    m.update({
        "conjugation.h_s": self_of("conjugation.h"),
        "conjugation.rates_s": self_of("conjugation.rates"),
        "conjugation.self_s": layer_self("conjugation"),
        "cumulants.table_s": total_of(*TABLE_SPANS),
        "cumulants.compose_s": self_of("cumulants.compose"),
        "cumulants.moments_s": self_of("cumulants.build_table"),
        "cumulants.self_s": layer_self("cumulants"),
        "fluctuation.s": sum(own[s.sid] for s in fluctuation),
        "simulate.lane_steps_per_s": rate_of("simulate.run"),
        "simulate.run_s": median_of("simulate.run"),
        "simulate.lane_steps": sum(s.work for s in rec.named("simulate.run")),
        "simulate.curve_s": self_of("simulate.curve"),
        "simulate.self_s": layer_self("simulate"),
        "partition.to_coder_s": sum(median_of(n) for n in CODER_SPANS),
        "partition.build_s": median_of("partition.build"),
        "partition.verify_s": median_of("partition.verify"),
        "partition.transition_s": median_of("partition.transition"),
        "partition.coder_init_s": median_of("partition.coder_init"),
        "partition.birkhoff_steps_per_s": rate_of("partition.birkhoff"),
        "partition.roundtrip_ms_p50": 1e3 * statistics.median(roundtrips),
        "partition.roundtrip_ms_p95":
            1e3 * statistics.quantiles(roundtrips, n=20)[18],
        "partition.self_s": layer_self("partition"),
        **{f"cli.{cmd}_s": median_of(f"cli.{cmd}") for cmd in CLI_COMMANDS},
        "cli.self_s": layer_self("cli"),
        "trace.layer_share": sum(own[s.sid] for s in pipeline) / untraced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
    })
    return {name: m[name] for name in PER_LAYER}
