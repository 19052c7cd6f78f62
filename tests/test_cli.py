import ast
import importlib
import json
import re
from pathlib import Path

import pytest

import catflux.cli as cli
from catflux.cli import force_from_config, load_config, main
from catflux.cumulants import CumulantTable
from catflux.torus import HarmonicForce

# the package re-exports simulate(), which shadows the module attribute
SIMULATE_MODULE = importlib.import_module("catflux.simulate")
TWO_HARMONICS = [{"nu": [1, 0], "amp": 1.0}, {"nu": [2, 0], "amp": 1.0}]
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
BENCH_LAYERS = PERFBENCH / "layers.py"
README = PERFBENCH.parent / "README.md"


def write_config(tmp_path: Path, **overrides) -> Path:
    data = {"force": [{"nu": [1, 0], "amp": 1.0}], "eps": [0.05]}
    data.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return path


class TestConfigHandling:
    def test_unknown_key_exits_3(self, tmp_path):
        # out_dir is not a config key: the output directory is --out; the
        # shift window is a constant of the cumulants module
        for key in ("bogus", "out_dir", "shift_window"):
            cfg = write_config(tmp_path, **{key: 1})
            assert main(["cumulants", "--config", str(cfg), "--out",
                         str(tmp_path / "o")]) == 3, key

    def test_readme_names_every_config_key(self):
        # the README's CLI section names the accepted keys in one sentence
        text = " ".join(README.read_text().split())
        sentence = re.search(r"The accepted config keys are (.*?); any other",
                             text).group(1)
        assert set(re.findall(r"`(\w+)`", sentence)) == cli._CONFIG_KEYS

    def test_empty_eps_exits_3(self, tmp_path):
        cfg = write_config(tmp_path, eps=[])
        assert main(["cumulants", "--config", str(cfg), "--out",
                     str(tmp_path / "o")]) == 3

    @pytest.mark.parametrize("command", ["cumulants", "zeta", "simulate",
                                         "fit", "report"])
    @pytest.mark.parametrize("eps", ["NaN", "Infinity", "-Infinity", "1e400"])
    def test_non_finite_eps_exits_3(self, tmp_path, capsys, command, eps):
        # Python's json reads all four; 1e400 overflows to inf
        cfg = tmp_path / "config.json"
        cfg.write_text('{"force": [{"nu": [1, 0], "amp": 1.0}], '
                       f'"eps": [0.1, {eps}]}}')
        assert main([command, "--config", str(cfg), "--out",
                     str(tmp_path / "o")]) == 3
        assert "'eps' list of finite numbers" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("order", "two"), ("tau", 2.5), ("T", 0), ("N", True), ("seed", -1),
        ("workers", 0)])
    def test_bad_integer_key_exits_3(self, tmp_path, capsys, key, value):
        # checked in load_config: the order-4 table is never started
        cfg = write_config(tmp_path, **{key: value})
        assert main(["cumulants", "--config", str(cfg), "--out",
                     str(tmp_path / "o")]) == 3
        assert f"'{key}' must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("bin_width", 0), ("bin_width", "wide"), ("p_max", -1.0),
        ("p_max", float("nan"))])
    def test_bad_float_key_exits_3(self, tmp_path, capsys, key, value):
        cfg = write_config(tmp_path, T=10 ** 9, **{key: value})
        assert main(["simulate", "--config", str(cfg), "--out",
                     str(tmp_path / "o")]) == 3
        assert f"'{key}' must be a positive number" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("force", [{"nu": [1.5, 0], "amp": 1.0}]),
        ("force", [{"nu": ["a", 0], "amp": 1.0}]),
        ("force", [{"nu": [True, 0], "amp": 1.0}]),
        ("force", [{"nu": [1], "amp": 1.0}]),
        ("force", [{"nu": [1, 0], "amp": "big"}]),
        ("force", [{"nu": [1, 0], "amp": float("nan")}]),
        ("force", [{"nu": [1, 0]}]),
        ("force", []),
        ("sigma_mode", "bogus"),
        ("boundary_terms", "yes"),
        ("boundary_terms", True)])
    def test_bad_force_or_mode_key_exits_3(self, tmp_path, capsys, key, value):
        cfg = write_config(tmp_path, **{key: value})
        assert main(["simulate", "--config", str(cfg), "--out",
                     str(tmp_path / "o")]) == 3
        assert f"'{key}'" in capsys.readouterr().err

    def test_good_choice_keys_load(self, tmp_path):
        cfg = write_config(tmp_path, force=[{"nu": [2.0, -1], "amp": 3}],
                           sigma_mode="pooled", boundary_terms="on")
        data = load_config(str(cfg))
        assert force_from_config(data).harmonics[0].nu == (2, -1)

    def test_symbolic_config_needs_no_force(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"T": 1000}))
        assert load_config(str(path)) == {"T": 1000}

    def test_override_is_checked(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["cumulants", "--config", str(cfg), "--out",
                     str(tmp_path / "o"), "--order", "0"]) == 3
        assert "'order' must be an integer >= 1" in capsys.readouterr().err

    def test_missing_force_exits_3(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"eps": [0.1]}))
        assert main(["zeta", "--config", str(path), "--out",
                     str(tmp_path / "o")]) == 3

    def test_usage_error(self, tmp_path):
        assert main(["nonsense", "--config", "x"]) == 1


class TestMonteCarloConfigRefusal:
    """Refused values exit 3 before any table build or stepping."""

    @pytest.fixture(autouse=True)
    def no_work(self, monkeypatch):
        def work(*args):
            raise AssertionError("work ran for a refused configuration")

        for name in ("conjugation_order_k", "CorrelationEngine"):
            monkeypatch.setattr(cli, name, work)
        monkeypatch.setattr(SIMULATE_MODULE, "_simulate_run", work)

    @pytest.mark.parametrize("command", ["report", "simulate", "fit"])
    @pytest.mark.parametrize("keys, message", [
        (dict(T=1001, tau=100), "T must be a multiple of tau"),
        (dict(eps=[0.1, 0.0]), "zero mean contraction"),
        (dict(force=TWO_HARMONICS, eps=[0.1, 0.3]), "not invertible")],
        ids=["tau-not-dividing-T", "eps-zero", "two-harmonic-eps-0.3"])
    def test_refused_before_work(self, tmp_path, capsys, command, keys,
                                 message):
        cfg = write_config(tmp_path, **keys)
        assert main([command, "--config", str(cfg), "--out",
                     str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err

    @pytest.mark.parametrize("command, order, cap", [
        ("cumulants", 7, 6), ("zeta", 7, 6), ("ftcheck", 7, 6),
        ("report", 7, 6), ("coeffs", 9, 8)])
    def test_order_above_cap(self, tmp_path, capsys, command, order, cap):
        # the caps of the cumulant table and of the conjugation series
        cfg = write_config(tmp_path, order=order)
        assert main([command, "--config", str(cfg), "--out",
                     str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and f"must be <= {cap}" in err

    @pytest.mark.parametrize("eps", [[0.1, 0.2], [0.1, 0.1, 0.2]])
    def test_fit_needs_three_distinct_eps(self, tmp_path, capsys, eps):
        cfg = write_config(tmp_path, eps=eps)
        assert main(["fit", "--config", str(cfg), "--out",
                     str(tmp_path / "o")]) == 3
        assert "need at least 3 distinct eps values" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["cumulants", "zeta"])
    def test_overflowing_eps_power(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path, eps=[0.1, 1e300], order=2)
        assert main([command, "--config", str(cfg), "--out",
                     str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert "'eps': 1e+300" in err and "order 2 overflows" in err


class TestBenchSpans:
    def test_cli_spans_name_cli_attributes(self):
        # the traced bench wraps these names on catflux.cli by getattr; a
        # name the CLI no longer imports would break every traced run
        tree = ast.parse(BENCH_LAYERS.read_text())
        spans = next(node.value for node in tree.body
                     if isinstance(node, ast.Assign)
                     and any(isinstance(t, ast.Name) and t.id == "CLI_SPANS"
                             for t in node.targets))
        names = [ast.literal_eval(key) for key in spans.keys]
        assert "conjugation_order_k" in names
        assert [n for n in names if not hasattr(cli, n)] == []

    def test_perfbench_imports_exist(self):
        # every name a bench script imports from catflux must still exist
        imported = [(node.module, alias.name)
                    for path in sorted(PERFBENCH.glob("*.py"))
                    for node in ast.walk(ast.parse(path.read_text()))
                    if isinstance(node, ast.ImportFrom) and node.module
                    and node.module.split(".")[0] == "catflux"
                    for alias in node.names]
        assert ("catflux", "CorrelationEngine") in imported
        assert [(m, n) for m, n in imported
                if not hasattr(importlib.import_module(m), n)] == []

    def test_traced_table_reads_engine_attributes(self, monkeypatch):
        # a traced run primes an engine through conj, expansion and
        # composed_ids, then counts engine.moments and the four rate lists;
        # an engine attribute the bench reads that goes missing would fail
        # every traced run.  Order 4 is exact-deep's table: the priming
        # check compares the depths, (conj, expansion) orders, that an
        # untraced build reaches, so a change that moves them shows here.
        # The primed table equals the plain one by float.hex, so a traced
        # run times the same table as an untraced one
        monkeypatch.syspath_prepend(str(PERFBENCH))
        spans, workloads, layers = (importlib.import_module(m) for m in
                                    ("spans", "workloads", "layers"))
        force = HarmonicForce.single_harmonic()
        for order, depths in ((2, (1, 1)), (4, (3, 3))):
            rec = spans.Recorder(tracing=True)
            plain, primed = workloads.Result(), workloads.Result()
            label = f"order-{order}"
            tables = [
                workloads.exact_table(rec, plain, label, force, order, None),
                workloads.exact_table(rec, primed, label, force, order,
                                      plain.depths)]
            counts = layers.engine_counts([*plain.engines.values(),
                                           *primed.engines.values()])
            assert rec.failed == 0, order
            assert plain.depths == primed.depths == {label: depths}
            plain_hex, primed_hex = (
                {(n, m): v.hex() for n, row in [("mean", t.mean), *t.C.items()]
                 for m, v in row.items()} for t in tables)
            assert primed_hex == plain_hex
            assert counts["cumulants.moments"] > 0
            assert counts["conjugation.rate_terms"] > 0


class TestCumulantsCommand:
    def test_emits_c2_row(self, tmp_path):
        cfg = write_config(tmp_path, order=2, eps=[0.1])
        out = tmp_path / "out"
        assert main(["cumulants", "--config", str(cfg), "--out", str(out)]) == 0
        rows = (out / "cumulants.csv").read_text().splitlines()
        c22 = [r for r in rows if r.startswith("2,2,")]
        assert len(c22) == 1
        fields = c22[0].split(",")
        assert float(fields[2]) == pytest.approx(2.0, abs=1e-10)
        assert float(fields[5]) == pytest.approx(2.0 * 0.1 ** 2, abs=1e-12)

    def test_meta_carries_hash_and_seed(self, tmp_path):
        cfg = write_config(tmp_path, order=2, seed=7)
        out = tmp_path / "out"
        assert main(["cumulants", "--config", str(cfg), "--out", str(out)]) == 0
        meta = json.loads((out / "cumulants_meta.json").read_text())
        assert meta["seed"] == 7
        assert len(meta["config_hash"]) == 16


class TestFtcheckCommand:
    def test_two_harmonic_first_violation(self, tmp_path):
        cfg = write_config(tmp_path,
                           force=[{"nu": [1, 0], "amp": 1.0},
                                  {"nu": [2, 0], "amp": 1.0}],
                           order=3)
        out = tmp_path / "out"
        assert main(["ftcheck", "--config", str(cfg), "--out", str(out)]) == 0
        payload = json.loads((out / "ftcheck.json").read_text())
        assert payload["first_violation_eps_order"] == 3


class TestFourthOrderForms:
    @pytest.mark.parametrize("order", [4, 5])
    def test_evaluated_through_order_four(self, tmp_path, monkeypatch, order):
        # a synthetic table stands in for the 40 s eps^5 build
        table = CumulantTable(
            order, {m: float(m == 2) for m in range(1, order + 1)},
            {n: {m: 2.0 * (n == m == 2) for m in range(n, order + 1)}
             for n in range(2, order + 1)})
        monkeypatch.setattr(cli, "_table", lambda data: table)
        cfg = write_config(tmp_path, order=order)
        out = tmp_path / "out"
        for command in ("zeta", "ftcheck"):
            assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
        zeta_json = json.loads((out / "zeta.json").read_text())
        ftcheck = json.loads((out / "ftcheck.json").read_text())
        assert max(map(int, zeta_json["pipeline"])) == order
        assert max(map(int, zeta_json["closed_form"])) == 4
        assert max(map(int, ftcheck["B_series"])) == 4
        # the order of the eps^4 forms is written when it is below the table's
        assert zeta_json.get("closed_form_order") == (4 if order > 4 else None)
        assert ftcheck.get("asymmetry_order") == (4 if order > 4 else None)


class TestSimulateCommand:
    def test_outputs_and_determinism(self, tmp_path):
        cfg = write_config(tmp_path, T=40_000, tau=100, N=2, seed=11)
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        assert main(["simulate", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["simulate", "--config", str(cfg), "--out", str(out2)]) == 0
        for name in ("runs.csv", "curve.csv", "summary.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        svg = (out1 / "curve_eps0.05.svg").read_text()
        assert svg.startswith("<svg")

    def test_workers_flag_is_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, T=30_000, tau=100, N=3, seed=4)
        out1 = tmp_path / "w1"
        out2 = tmp_path / "w2"
        assert main(["simulate", "--config", str(cfg), "--out", str(out1),
                     "--workers", "1"]) == 0
        assert main(["simulate", "--config", str(cfg), "--out", str(out2),
                     "--workers", "2"]) == 0
        assert (out1 / "runs.csv").read_bytes() == (out2 / "runs.csv").read_bytes()


class TestSigmaModeAndBinWidth:
    def run_json(self, tmp_path, command, name, filename, **keys):
        cfg = write_config(tmp_path, **keys)
        out = tmp_path / name
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
        return json.loads((out / filename).read_text())

    def test_report_honours_sigma_mode(self, tmp_path):
        keys = dict(order=2, T=30_000, tau=100, N=3, seed=5)
        measured = {}
        for mode in ("per_run", "pooled"):
            report = self.run_json(tmp_path, "report", f"r_{mode}",
                                   "report.json", sigma_mode=mode, **keys)
            summary = self.run_json(tmp_path, "simulate", f"s_{mode}",
                                    "summary.json", sigma_mode=mode, **keys)
            measured[mode] = report["monte_carlo"][0]["A_measured"]
            assert measured[mode] == summary["runs"][0]["A"]
        assert measured["per_run"] != measured["pooled"]

    def test_fit_passes_sigma_mode_and_bin_width(self, tmp_path, monkeypatch):
        import catflux.cli as cli
        from catflux.simulate import FitResult, SlopeResult

        configs = []

        def measure(config, p_max):
            configs.append(config)
            return SlopeResult(1.0, 0.0, 0.1, 0.0)

        fit = FitResult((0.0,), (0.0,), 0.0)
        monkeypatch.setattr(cli, "measure_asymmetry", measure)
        monkeypatch.setattr(cli, "fit_models", lambda points, tau: (fit, fit))
        self.run_json(tmp_path, "fit", "fit", "fit.json", eps=[0.05, 0.1, 0.15],
                      sigma_mode="pooled", bin_width=0.1)
        assert [c.system.epsilon for c in configs] == [0.05, 0.1, 0.15]
        # fit's own T, tau and N defaults; the config's sigma_mode and bin_width
        assert all((c.T, c.tau, c.N, c.sigma_mode, c.bin_width)
                   == (400_000, 25, 12, "pooled", 0.1) for c in configs)
