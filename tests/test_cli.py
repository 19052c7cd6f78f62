import json
from pathlib import Path

import pytest

from catflux.cli import main


def write_config(tmp_path: Path, **overrides) -> Path:
    data = {"force": [{"nu": [1, 0], "amp": 1.0}], "eps": [0.05]}
    data.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return path


class TestConfigHandling:
    def test_unknown_key_exits_3(self, tmp_path):
        # out_dir is not a config key: the output directory is --out
        for key in ("bogus", "out_dir"):
            cfg = write_config(tmp_path, **{key: 1})
            assert main(["cumulants", "--config", str(cfg), "--out",
                         str(tmp_path / "o")]) == 3, key

    def test_empty_eps_exits_3(self, tmp_path):
        cfg = write_config(tmp_path, eps=[])
        assert main(["cumulants", "--config", str(cfg), "--out",
                     str(tmp_path / "o")]) == 3

    @pytest.mark.parametrize("key, value", [
        ("order", "two"), ("tau", 2.5), ("T", 0), ("N", True), ("seed", -1),
        ("workers", 0), ("shift_window", None)])
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
