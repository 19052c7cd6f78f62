"""Command-line entry point.

Subcommands: coeffs | cumulants | zeta | ftcheck | simulate | fit | symbolic
| report.  Configuration comes from a JSON file (schema-checked, unknown
keys rejected); outputs are CSV/JSON files plus an optional SVG scatter.
Exit codes: 0 success, 1 usage, 2 numeric failure, 3 config schema.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from .conjugation import ORDER_CAP as CONJUGATION_CAP
from .conjugation import conjugation_order_k, expansion_rate_series
from .cumulants import ORDER_CAP as TABLE_CAP
from .cumulants import SHIFT_WINDOW, CorrelationEngine, build_table
from .fluctuation import (asymmetry_coefficients, ft_report, zeta,
                          zeta_closed_form, zeta_ft_imposed)
from .partition import (CatCoder, birkhoff_frequencies, build_cat_partition,
                        partition_to_json, transition_matrix, verify_markov)
from .simulate import (P_MAX, SimConfig, build_curve, fit_models,
                       measure_asymmetry, simulate, slope_and_A)
from .torus import CatSystem, HarmonicForce, TorusPoint


# pixel size of the curve_eps*.svg plots
SVG_WIDTH, SVG_HEIGHT = 640, 420


class ConfigError(ValueError):
    pass


_CONFIG_KEYS = {"force", "eps", "order", "tau", "T", "N", "bin_width",
                "seed", "workers", "p_max", "boundary_terms", "sigma_mode"}
# integer keys with their least allowed value; the float keys are positive
_INT_KEYS = {"order": 1, "tau": 1, "T": 1, "N": 1, "seed": 0, "workers": 1}
_POSITIVE_KEYS = ("bin_width", "p_max")
_CHOICE_KEYS = {"sigma_mode": ("per_run", "pooled"),
                "boundary_terms": ("on", "off")}
# (T, tau, N) per Monte Carlo subcommand; the other defaults are SimConfig's
_MC_DEFAULTS = {"simulate": (10 ** 6, 100, 20), "fit": (400_000, 25, 12),
                "report": (400_000, 100, 8)}
_SIM_KEYS = ("bin_width", "seed", "workers", "sigma_mode")


def load_config(path: str, overrides: Optional[Dict] = None) -> Dict:
    """Read a config, apply the non-None overrides and check every key.

    Every key is checked here, before any work, so a subcommand never
    meets a value of the wrong type or range; an integral float such as
    1e6 is accepted for an integer key and stored as an int.  'force' is
    optional here (`symbolic` reads none); the subcommands that need it
    refuse a config without it.
    """
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    data.update((k, v) for k, v in (overrides or {}).items() if v is not None)
    unknown = set(data) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    if "eps" in data:
        eps_list_from_config(data)
    if "force" in data:
        force_from_config(data)
    for key, least in _INT_KEYS.items():
        val = data.get(key)
        if isinstance(val, float) and val.is_integer():
            data[key] = val = int(val)
        if key in data and (isinstance(val, bool) or not isinstance(val, int)
                            or val < least):
            raise ConfigError(f"config key {key!r} must be an integer "
                              f">= {least}, got {val!r}")
    for key in _POSITIVE_KEYS:
        val = data.get(key)
        if key in data and not (_is_number(val) and 0 < val < math.inf):
            raise ConfigError(f"config key {key!r} must be a positive "
                              f"number, got {val!r}")
    for key, choices in _CHOICE_KEYS.items():
        if key in data and data[key] not in choices:
            raise ConfigError(f"config key {key!r} must be one of "
                              f"{list(choices)}, got {data[key]!r}")
    return data


def _is_number(val) -> bool:
    return isinstance(val, (int, float)) and not isinstance(val, bool)


def force_from_config(data: Dict) -> HarmonicForce:
    spec = data.get("force")
    if not isinstance(spec, list) or not spec:
        raise ConfigError("config needs a nonempty 'force' list of "
                          "{nu: [int,int], amp: float}")
    pairs = []
    for item in spec:
        nu = item.get("nu") if isinstance(item, dict) else None
        amp = item.get("amp") if isinstance(item, dict) else None
        if not (isinstance(nu, list) and len(nu) == 2 and all(
                    (isinstance(v, float) and v.is_integer())
                    or (isinstance(v, int) and not isinstance(v, bool))
                    for v in nu)
                and _is_number(amp) and abs(amp) <= sys.float_info.max):
            raise ConfigError(f"config key 'force': harmonic {item!r} needs "
                              "nu: two integers and amp: a finite number")
        pairs.append(((int(nu[0]), int(nu[1])), float(amp)))
    return HarmonicForce.from_pairs(pairs)


def eps_list_from_config(data: Dict) -> List[float]:
    eps = data.get("eps")
    if isinstance(eps, (int, float)):
        eps = [eps]
    if not (isinstance(eps, list) and eps and all(
            _is_number(e) and math.isfinite(e) for e in eps)):
        raise ConfigError("config needs a nonempty 'eps' list of finite "
                          f"numbers, got {eps!r}")
    return [float(e) for e in eps]


def config_hash(data: Dict) -> str:
    return hashlib.sha256(
        json.dumps(data, sort_keys=True).encode()).hexdigest()[:16]


def _meta(data: Dict) -> Dict:
    return {"config_hash": config_hash(data),
            "seed": data.get("seed", SimConfig.seed)}


def _sim_configs(data: Dict, command: str) -> List[SimConfig]:
    """One SimConfig per eps of the config, all built before any work.

    T, tau and N default per subcommand (_MC_DEFAULTS), every other key to
    SimConfig's own default; a value SimConfig refuses (tau not dividing T,
    eps = 0, an eps where S_eps is not invertible) is a ConfigError.
    """
    force = force_from_config(data)
    eps_list = eps_list_from_config(data)
    T, tau, N = (data.get(key, default) for key, default
                 in zip(("T", "tau", "N"), _MC_DEFAULTS[command]))
    keys = {key: data[key] for key in _SIM_KEYS if key in data}
    try:
        return [SimConfig(system=CatSystem(epsilon=eps, force=force),
                          T=T, tau=tau, N=N, **keys) for eps in eps_list]
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _order(data: Dict, default: int, cap: int) -> int:
    """The config's order, refused above the cap of the layer computing it."""
    order = data.get("order", default)
    if order > cap:
        raise ConfigError(f"config key 'order' must be <= {cap} for this "
                          f"subcommand, got {order}")
    return order


def _write(out_dir: Path, name: str, text: str) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / name).write_text(text)


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------
def cmd_coeffs(data: Dict, out: Path) -> None:
    force = force_from_config(data)
    order = _order(data, 2, CONJUGATION_CAP)
    conj = conjugation_order_k(force, order)
    au = expansion_rate_series(force, order,
                               boundary=data.get("boundary_terms", "off") == "on")
    for k in range(1, order + 1):
        _write(out, f"h_plus_{k}.csv", conj.h_plus[k].dump_csv())
        _write(out, f"h_minus_{k}.csv", conj.h_minus[k].dump_csv())
        _write(out, f"expansion_rate_{k}.csv", au.order(k).dump_csv())
    _write(out, "coeffs_meta.json", json.dumps(_meta(data), indent=2))


def _table(data: Dict):
    """The cumulant table of the config's force through the config's order."""
    eng = CorrelationEngine(force_from_config(data), _order(data, 4, TABLE_CAP))
    return build_table(eng.force, eng.max_order, engine=eng)


def _eps_powers(data: Dict) -> List[float]:
    """The config's eps list, refused before any table build when the
    largest |eps| to the power 'order' overflows."""
    eps_list, order = eps_list_from_config(data), _order(data, 4, TABLE_CAP)
    top = max(map(abs, eps_list))
    try:
        top ** order
    except OverflowError:
        raise ConfigError(f"config key 'eps': {top!r} ** order {order} "
                          "overflows") from None
    return eps_list


def cmd_cumulants(data: Dict, out: Path) -> None:
    eps_list = _eps_powers(data)
    table = _table(data)
    # means follow the C_n rows as n = 1; every entry holds at SHIFT_WINDOW
    rows = [(n, m, table.C[n][m]) for n in sorted(table.C)
            for m in sorted(table.C[n])]
    rows += [(1, m, table.mean[m]) for m in sorted(table.mean)]
    lines = ["n,m,value,shift_window,eps,value_at_eps"] + [
        f"{n},{m},{v:.15g},{SHIFT_WINDOW},{eps},{v * eps ** m:.15g}"
        for n, m, v in rows for eps in eps_list]
    _write(out, "cumulants.csv", "\n".join(lines))
    _write(out, "cumulants_meta.json", json.dumps(_meta(data), indent=2))


def cmd_zeta(data: Dict, out: Path) -> None:
    eps_list = _eps_powers(data)
    table = _table(data)
    order = table.max_order
    zs = zeta(table, order)
    closed = zeta_closed_form(table, min(order, 4))
    imposed = zeta_ft_imposed(table, min(order, 4))
    payload = {
        "meta": _meta(data),
        "pipeline": {str(n): list(map(float, c)) for n, c in zs.orders.items()},
        "closed_form": {str(n): list(map(float, c))
                        for n, c in closed.orders.items()},
        "ft_imposed": {str(n): list(map(float, c))
                       for n, c in imposed.orders.items()},
    }
    if order > 4:  # the closed forms stop at eps^4
        payload["closed_form_order"] = 4
    _write(out, "zeta.json", json.dumps(payload, indent=2))
    rows = ["eps,p,zeta,asym"]
    for eps in eps_list:
        for p in np.linspace(-2.0, 3.0, 101):
            rows.append(f"{eps},{p:.3f},{zs.value(p, eps):.12g},"
                        f"{-zs.value(p, eps) + zs.value(-p, eps):.12g}")
    _write(out, "zeta_curve.csv", "\n".join(rows))


def cmd_ftcheck(data: Dict, out: Path) -> None:
    table = _table(data)
    order = table.max_order
    report = ft_report(table, order)
    A, B = asymmetry_coefficients(table, min(order, 4))
    payload = {
        "meta": _meta(data),
        "rel1_residual_beta_poly": {str(m): v for m, v in report.rel1.items()},
        "rel3_residuals": {str(n): {str(m): v for m, v in d.items()}
                           for n, d in report.rel3.items()},
        "first_violation_eps_order": report.first_violation_order,
        "leading_violation": report.leading_violation,
        "A_series": {str(k): v for k, v in A.items()},
        "B_series": {str(k): v for k, v in B.items()},
    }
    if order > 4:  # A and B stop at eps^4
        payload["asymmetry_order"] = 4
    _write(out, "ftcheck.json", json.dumps(payload, indent=2))


def cmd_simulate(data: Dict, out: Path) -> None:
    configs = _sim_configs(data, "simulate")
    p_max = data.get("p_max", P_MAX)
    summary = {"meta": _meta(data), "runs": []}
    run_rows = ["eps,run,bin_p,count"]
    curve_rows = ["eps,p,y,err"]
    for config in configs:
        eps, bin_width = config.system.epsilon, config.bin_width
        stats = simulate(config)
        for s in stats:
            for b in sorted(s.counts):
                run_rows.append(f"{eps},{s.run_index},{(b + 0.5) * bin_width:.4f},"
                                f"{s.counts[b]}")
        curve = build_curve(stats, config)
        for p, y, e in curve.rows():
            curve_rows.append(f"{eps},{p:.4f},{y:.8g},{e:.8g}")
        res = slope_and_A(curve, p_max=p_max)
        summary["runs"].append({
            "eps": eps,
            "sigma_bar_runs": [s.sigma_bar for s in stats],
            "max_abs_p": max(s.max_abs_p for s in stats),
            "slope": res.slope, "A": res.A, "A_stderr": res.stderr,
        })
        _write(out, f"curve_eps{eps:g}.svg", curve_svg(curve))
    _write(out, "runs.csv", "\n".join(run_rows))
    _write(out, "curve.csv", "\n".join(curve_rows))
    _write(out, "summary.json", json.dumps(summary, indent=2))


def cmd_fit(data: Dict, out: Path) -> None:
    configs = _sim_configs(data, "fit")
    if len({config.system.epsilon for config in configs}) < 3:
        raise ConfigError("need at least 3 distinct eps values")
    p_max = data.get("p_max", P_MAX)
    points = []
    for config in configs:
        res = measure_asymmetry(config, p_max)
        points.append((config.system.epsilon, res.A, res.stderr))
    f1, f2 = fit_models(points, configs[0].tau)
    payload = {
        "meta": _meta(data),
        "points": [{"eps": e, "A": a, "stderr": s} for e, a, s in points],
        "f1": {"params": f1.params, "stderrs": f1.stderrs, "rss": f1.rss},
        "f2": {"params": f2.params, "stderrs": f2.stderrs, "rss": f2.rss},
    }
    _write(out, "fit.json", json.dumps(payload, indent=2))


def cmd_symbolic(data: Dict, out: Path) -> None:
    part = build_cat_partition()
    report = verify_markov(part)
    tm = transition_matrix(part)
    coder = CatCoder(part, tm)
    x0 = TorusPoint(1.234567, 2.345678)
    freqs = birkhoff_frequencies(coder, x0, data.get("T", 10 ** 5))
    payload = {
        "meta": _meta(data),
        "rectangles": len(part),
        "verify": {"ok": report.ok, "messages": report.messages},
        "mixing_time": tm.mixing_time,
        "transition_matrix": tm.T.tolist(),
        "areas": {r.rid: float(r.area()) for r in part.rectangles},
        "birkhoff_frequencies": freqs,
    }
    _write(out, "partition.json", partition_to_json(part))
    _write(out, "symbolic.json", json.dumps(payload, indent=2))


def cmd_report(data: Dict, out: Path) -> None:
    """Perturbative predictions next to Monte Carlo measurements.

    A_predicted is asymmetry_coefficients' A summed at eps.  A_measured is
    slope_and_A's A, which also carries (B/<sigma>) lever from the cubic
    term B p^3, so A_predicted_fit = A_predicted + (B/<sigma>) lever, with
    B and <sigma> summed at eps and the lever of the measured bins, is
    what A_measured estimates.
    """
    configs = _sim_configs(data, "report")
    p_max = data.get("p_max", P_MAX)
    table = _table(data)
    order = table.max_order
    ft = ft_report(table, order)
    A_series, B_series = asymmetry_coefficients(table, min(order, 4))
    measurements = []
    p_star = None
    for config in configs:
        eps = config.system.epsilon
        stats = simulate(config)
        res = slope_and_A(build_curve(stats, config), p_max=p_max)
        observed_max = max(s.max_abs_p for s in stats)
        p_star = max(p_star or 0.0, observed_max)
        A_pred = sum(v * eps ** k for k, v in A_series.items())
        B = sum(v * eps ** k for k, v in B_series.items())
        A_fit = A_pred + B / table.mean_total(eps) * res.lever
        measurements.append({"eps": eps, "A_measured": res.A,
                             "A_stderr": res.stderr, "A_predicted": A_pred,
                             "A_predicted_fit": A_fit,
                             "max_abs_p": observed_max})
    payload = {
        "meta": _meta(data),
        "cumulants": {f"C_{n}": table.C[n] for n in sorted(table.C)},
        "srb_mean_orders": table.mean,
        "first_violation_eps_order": ft.first_violation_order,
        "A_series": {str(k): v for k, v in A_series.items()},
        "B_series": {str(k): v for k, v in B_series.items()},
        "p_star_estimate": p_star,
        "monte_carlo": measurements,
    }
    if order > 4:  # A and B stop at eps^4
        payload["asymmetry_order"] = 4
    _write(out, "report.json", json.dumps(payload, indent=2))


def curve_svg(curve) -> str:
    """Scatter of y(p) with error bars and the FT line y = 1."""
    width, height, pad = SVG_WIDTH, SVG_HEIGHT, 50
    pmin, pmax = float(np.min(curve.p)), float(np.max(curve.p))
    ymin = min(float(np.min(curve.y - curve.err)), 0.0)
    ymax = max(float(np.max(curve.y + curve.err)), 2.0)
    if pmax <= pmin:
        pmax = pmin + 1.0

    def sx(p):
        return pad + (p - pmin) / (pmax - pmin) * (width - 2 * pad)

    def sy(y):
        return height - pad - (y - ymin) / (ymax - ymin) * (height - 2 * pad)

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{height}">',
             f'<rect width="{width}" height="{height}" fill="white"/>',
             f'<line x1="{pad}" y1="{sy(1.0):.1f}" x2="{width - pad}" '
             f'y2="{sy(1.0):.1f}" stroke="green"/>']
    for p, y, e in curve.rows():
        parts.append(f'<line x1="{sx(p):.1f}" y1="{sy(y - e):.1f}" '
                     f'x2="{sx(p):.1f}" y2="{sy(y + e):.1f}" stroke="gray"/>')
        parts.append(f'<circle cx="{sx(p):.1f}" cy="{sy(y):.1f}" r="2.5" '
                     f'fill="crimson"/>')
    parts.append(f'<text x="{width // 2}" y="{height - 12}" '
                 f'text-anchor="middle" font-size="12">p</text>')
    parts.append('</svg>')
    return "\n".join(parts)


_COMMANDS = {
    "coeffs": cmd_coeffs,
    "cumulants": cmd_cumulants,
    "zeta": cmd_zeta,
    "ftcheck": cmd_ftcheck,
    "simulate": cmd_simulate,
    "fit": cmd_fit,
    "symbolic": cmd_symbolic,
    "report": cmd_report,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="catflux",
        description="Perturbed cat map: series, cumulants, fluctuation "
                    "relations, Monte Carlo, symbolic coding")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="JSON config path")
    parser.add_argument("--out", default="catflux_out", help="output directory")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument("--order", type=int, default=None)
    parser.add_argument("--boundary-terms", choices=["on", "off"], default=None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0,) else 0
    try:
        data = load_config(args.config, {
            "seed": args.seed, "workers": args.workers, "order": args.order,
            "boundary_terms": args.boundary_terms})
        _COMMANDS[args.command](data, Path(args.out))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
