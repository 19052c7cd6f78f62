"""catflux benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  catflux is pure Python and is imported
from ``src/`` next to this directory; nothing is built.  The run prints
every metric with its unit, then one JSON line with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.

An untraced run repeats the workload's pipeline while another pass still
fits in ``--seconds`` (at least one pass) and reports medians.  A traced
run makes one untraced pass of the pipeline and probes (for the depths to
prime to and for the overhead), one traced pass, then kernels and the CLI
smoke pass; its spans go to ``perfbench/out/``.

When a pipeline stage raises, the traceback is printed and the run exits
with code 1 without a result line; failed output checks only make
``correct`` false.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("exact-deep", "symbolic")
# setup_s is the median of this run's own set-up and this many fresh
# interpreters doing the same imports and input generation
SETUP_PROBES = 4
MAX_SEED = 2 ** 48

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not 0 <= args.seed < MAX_SEED:
        p.error("--seed must lie in [0, 2^48)")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def setup(seed: int):
    """Import numpy and catflux from src/ and generate the inputs."""
    if not (SRC / "catflux" / "__init__.py").is_file():
        sys.exit(f"catflux sources not found under {SRC}: run from the root "
                 "of a catflux checkout")
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import catflux
    import workloads
    inputs = workloads.make_inputs(seed)
    seconds = time.perf_counter() - t0
    if not Path(catflux.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"imported catflux from {catflux.__file__}, not from {SRC}")
    return workloads, inputs, seconds


def setup_probe(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                          check=True)
    return float(done.stdout.split()[-1])


def one_pass(rec, workload, inputs, prime):
    results = [workload.pipeline(rec, inputs, prime, "pipeline")]
    results += [probe(rec, inputs, prime, f"probe.{probe.__name__}")
                for probe in workload.probes]
    return results


def run_untraced(rec, workload, inputs, seconds: float):
    start = time.perf_counter()
    walls = []
    while True:
        t = time.perf_counter()
        res = rec.stage(workload.pipeline, rec, inputs, None, "pipeline")
        if res is None:
            return None
        walls.append(res.wall_s)
        now = time.perf_counter()
        if now - start + (now - t) > seconds:
            break
    print(f"passes {len(walls)}; exact depths reached "
          f"(conjugation, rates): {res.depths or '-'}")
    return {"wall_s": statistics.median(walls)}


def run_traced(rec, layers, name: str, workload, inputs):
    base = rec.stage(one_pass, rec, workload, inputs, None)
    if base is None:
        return None
    depths = {k: v for r in base for k, v in r.depths.items()}
    untraced_wall = base[0].wall_s
    del base
    rec.tracing = True
    traced = rec.stage(one_pass, rec, workload, inputs, depths)
    if traced is None:
        return None
    # the pipeline's own engines, or the probes' where it builds none
    engines = (list(traced[0].engines.values())
               or [e for r in traced[1:] for e in r.engines.values()])
    kernel_rates = rec.stage(layers.kernels, rec, engines)
    rec.stage(layers.cli_smoke, rec, OUT / f"cli-{name}-seed{inputs.seed}",
              inputs.mc_seed)
    metrics = rec.stage(layers.per_layer, rec, untraced_wall, traced[0].wall_s,
                        kernel_rates or {}, engines)
    rec.write(OUT / f"spans-{name}-seed{inputs.seed}.json")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    workloads, inputs, own_setup = setup(args.seed)
    if args.setup_probe:
        print(repr(own_setup))
        return 0
    from spans import Recorder

    workload = workloads.WORKLOADS[args.workload]
    rec = Recorder()
    if args.trace:
        import layers
        units = layers.PER_LAYER
        metrics = run_traced(rec, layers, args.workload, workload, inputs)
    else:
        units = END_TO_END
        setup_samples = [own_setup] + [setup_probe(args)
                                       for _ in range(SETUP_PROBES)]
        metrics = run_untraced(rec, workload, inputs, args.seconds)
        if metrics is not None:
            metrics["setup_s"] = statistics.median(setup_samples)
            metrics["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, unit in units.items():
        value = (metrics or {}).get(name)
        print(f"  {name:32s} {'missing' if value is None else repr(value)} {unit}")
    print(f"  {'fail_ratio':32s} {rec.failed}/{rec.attempted}")
    missing = [name for name in units if name not in (metrics or {})]
    if missing:
        print(f"no result: {len(missing)} metrics missing after failures",
              file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": rec.failed == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
