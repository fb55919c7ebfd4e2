import dataclasses
import json
import math

import pytest

from planted_bipartite import RateConstants, detectors
from planted_bipartite.cli import dispatch
from planted_bipartite.graph_model import read_matrix


def run(capsys, *argv):
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def test_null_matrix(self, tmp_path, capsys):
        out = tmp_path / "m.txt"
        code, _, _ = run(capsys, "gen", "--null", "--n1", "4", "--n2", "4",
                         "--p0", "0.25", "--seed", "1", "--out", str(out))
        assert code == 0
        A = read_matrix(out)
        assert (A.n1, A.n2) == (4, 4)

    def test_missing_seed_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "m.txt"
        code, _, err = run(capsys, "gen", "--null", "--n1", "4", "--n2", "4",
                           "--p0", "0.25", "--out", str(out))
        assert code == 1
        assert json.loads(err)["error"] == "usage"

    def test_planted(self, tmp_path, capsys):
        out = tmp_path / "m.txt"
        code, _, _ = run(capsys, "gen", "--n1", "8", "--n2", "8", "--k1", "3",
                         "--k2", "3", "--p0", "0.1", "--delta", "0.8",
                         "--seed", "2", "--out", str(out))
        assert code == 0
        assert read_matrix(out).bits.sum() >= 5


class TestStat:
    def test_total_degree(self, tmp_path, capsys):
        m = tmp_path / "m.txt"
        m.write_text("2 2\n00\n00\n")
        code, out, _ = run(capsys, "stat", str(m), "--p0", "0.25")
        assert code == 0
        value = float(out.split()[1])
        assert value == pytest.approx(-1 / math.sqrt(0.75), rel=1e-12)

    def test_missing_file_is_io_error(self, tmp_path, capsys):
        code, _, err = run(capsys, "stat", str(tmp_path / "nope.txt"), "--p0", "0.25")
        assert code == 3

    def test_malformed_file(self, tmp_path, capsys):
        m = tmp_path / "m.txt"
        m.write_text("2 2\n0x\n00\n")
        code, _, err = run(capsys, "stat", str(m), "--p0", "0.25")
        assert code == 3
        assert json.loads(err)["error"] == "format"

    def test_budget_exceeded(self, tmp_path, capsys):
        rows = "\n".join("0" * 8 for _ in range(30))
        m = tmp_path / "m.txt"
        m.write_text(f"30 8\n{rows}\n")
        code, _, err = run(capsys, "stat", str(m), "--p0", "0.25",
                           "--detector", "MAX_TRUNC_AXIS1", "--tau", "1.0",
                           "--k1", "15", "--budget", "100")
        assert code == 2
        assert json.loads(err)["error"] == "budget"


class TestRates:
    def test_reference_output(self, capsys):
        code, out, _ = run(capsys, "rates", "--n1", "100", "--n2", "100",
                           "--k1", "10", "--k2", "10", "--c-phi", "10")
        assert code == 0
        fields = dict(line.split() for line in out.strip().split("\n"))
        assert float(fields["R"]) == pytest.approx(math.log(2), rel=1e-12)
        assert fields["branch"] == "MAX_TRUNC_1"


class TestLb:
    def test_reference_output(self, capsys):
        code, out, _ = run(capsys, "lb", "--n1", "2", "--n2", "2", "--k1", "1",
                           "--k2", "1", "--p0", "0.25", "--delta", "0.25")
        assert code == 0
        fields = dict(line.split() for line in out.strip().split("\n"))
        assert float(fields["exact"]) == pytest.approx(13 / 12, rel=1e-12)
        assert float(fields["risk_lb"]) == pytest.approx(0.855662, abs=1e-6)

    def test_overflow_reads_inf(self, capsys):
        code, out, _ = run(capsys, "lb", "--n1", "1000", "--n2", "1000", "--k1", "100",
                           "--k2", "100", "--p0", "0.25", "--delta", "0.5")
        assert code == 0
        lines = out.strip().split("\n")
        assert "exact inf" in lines
        assert "risk_lb 0" in lines


class TestCalibrate:
    def test_prints_threshold(self, capsys):
        code, out, _ = run(capsys, "calibrate", "--n1", "16", "--n2", "16",
                           "--k1", "4", "--k2", "4", "--p0", "0.25",
                           "--detector", "TOTAL_DEGREE", "--trials", "500",
                           "--seed", "3")
        assert code == 0
        assert out.startswith("threshold ")


class TestSweep:
    def test_flag_sweep_csv(self, tmp_path, capsys):
        out = tmp_path / "res.csv"
        code, _, _ = run(capsys, "sweep", "--n1", "16", "--n2", "16", "--k1", "4",
                         "--k2", "4", "--p0", "0.25", "--delta", "0,0.4",
                         "--trials", "200", "--seed", "4", "--out", str(out))
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0].startswith("experiment_id,")
        assert len(lines) == 3
        assert (tmp_path / "res.csv.meta.json").exists()

    def test_determinism_byte_identical(self, tmp_path, capsys):
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            code, _, _ = run(capsys, "sweep", "--n1", "16", "--n2", "16", "--k1", "4",
                             "--k2", "4", "--p0", "0.25", "--delta", "0,0.4",
                             "--trials", "200", "--seed", "4", "--out", str(out))
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_calibrates_once(self, monkeypatch, capsys):
        calls = []
        original = detectors.calibrate_threshold
        monkeypatch.setattr(detectors, "calibrate_threshold",
                            lambda *a, **k: calls.append(a) or original(*a, **k))
        code, out, _ = run(capsys, "sweep", "--n1", "16", "--n2", "16", "--k1", "4",
                           "--k2", "4", "--p0", "0.25", "--delta", "0.4,0,0.2",
                           "--trials", "200", "--seed", "4")
        assert code == 0
        assert len(out.strip().split("\n")) == 4
        assert len(calls) == 1

    def test_config_file(self, tmp_path, capsys):
        cfg = {
            "shape": {"n1": 16, "n2": 16, "k1": 4, "k2": 4},
            "p0": 0.25,
            "delta_grid": [0.0, 0.4],
            "threshold": {"mode": "CALIBRATED", "alpha": 0.1, "trials": 200, "seed": 4},
            "trials": 200,
            "seed": 4,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "res.csv"
        code, _, _ = run(capsys, "sweep", "--config", str(cfg_path), "--out", str(out))
        assert code == 0
        assert out.read_text().count("\n") == 3

    def test_config_empty_grid_names_field(self, tmp_path, capsys):
        cfg = {
            "shape": {"n1": 16, "n2": 16, "k1": 4, "k2": 4},
            "p0": 0.25, "delta_grid": [], "trials": 200, "seed": 4,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code, _, err = run(capsys, "sweep", "--config", str(cfg_path))
        assert code == 1
        assert "delta_grid" in json.loads(err)["message"]


# The CLI flag of each RateConstants field.
CONST_FLAGS = {
    "C_phi": "--c-phi", "c1": "--c1", "c_delta": "--c-delta", "C_delta": "--C-delta",
    "C_eta": "--C-eta", "C_star": "--C-star", "c_prime": "--c-prime", "C_tau": "--C-tau",
}


class TestConstsParity:
    """Every RateConstants field is settable from CLI flags and from a JSON
    `consts` block, and reaches the config the sweep runs (its sidecar)."""

    SHAPE = {"n1": 8, "n2": 8, "k1": 2, "k2": 2}

    def _sidecar_consts(self, tmp_path, capsys, name, *argv):
        out = tmp_path / f"{name}.csv"
        code, _, err = run(capsys, "sweep", *argv, "--out", str(out))
        assert code == 0, err
        return json.loads((tmp_path / f"{name}.csv.meta.json").read_text())["consts"]

    @pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(RateConstants)])
    def test_field_settable(self, tmp_path, capsys, field):
        value = getattr(RateConstants(), field) * 1.5
        want = dataclasses.asdict(dataclasses.replace(RateConstants(), **{field: value}))
        flag_argv = [f"--{k}={v}" for k, v in self.SHAPE.items()] + [
            "--p0", "0.25", "--delta", "0.3", "--trials", "100", "--seed", "2",
            "--threshold-mode", "ANALYTIC", CONST_FLAGS[field], repr(value),
        ]
        assert self._sidecar_consts(tmp_path, capsys, "flags", *flag_argv) == want
        cfg = {
            "shape": self.SHAPE, "p0": 0.25, "delta_grid": [0.3], "trials": 100, "seed": 2,
            "threshold": {"mode": "ANALYTIC", "alpha": 0.1}, "consts": {field: value},
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert self._sidecar_consts(tmp_path, capsys, "config", "--config", str(cfg_path)) == want


class TestPhase:
    def test_grid_output(self, capsys):
        code, out, _ = run(capsys, "phase", "--n1", "32,64", "--n2", "64",
                           "--k1", "4,8", "--k2", "8")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "n1,n2,k1,k2,R,R_tilde,branch"
        assert len(lines) == 5


BASE_CONFIG = {
    "shape": {"n1": 8, "n2": 8, "k1": 2, "k2": 2},
    "p0": 0.25, "delta_grid": [0.1], "trials": 100, "seed": 1,
}


class TestMalformedNumbers:
    """A malformed number on the command line or in a JSON config is a usage
    error: one JSON line on stderr and exit code 1, not a traceback."""

    @pytest.mark.parametrize("argv,config", [
        (["risk", "--n1", "8", "--n2", "8", "--p0", "0.25", "--delta", "0.1,0.2",
          "--seed", "1"], None),
        (["sweep", "--n1", "8", "--n2", "8", "--p0", "0.25", "--delta", "0.1,abc",
          "--seed", "1"], None),
        (["phase", "--n1", "10,x", "--n2", "10", "--k1", "2", "--k2", "2"], None),
        ([], {"p0": "0.25"}),
        ([], {"trials": "100"}),
        ([], {"seed": 1.5}),
        ([], {"threshold": {"alpha": "0.1"}}),
        ([], {"consts": {"C_tau": "2"}}),
        ([], {"delta_grid": [0.1, "x"]}),
        ([], {"detector": {"tag": "TRUNC_DEGREE_AXIS1", "tau": "1"}}),
        # Seeds outside [0, 2^64) would be reduced mod 2^64 by the streams.
        (["calibrate", "--n1", "4", "--n2", "4", "--p0", "0.25", "--trials", "10",
          "--seed", "-1"], None),
        (["risk", "--n1", "8", "--n2", "8", "--p0", "0.25", "--delta", "0.1",
          "--trials", "100", "--seed", str(2**64)], None),
        ([], {"seed": -1}),
        ([], {"seed": 2**64}),
        ([], {"threshold": {"seed": -1}}),
    ], ids=["risk-delta", "sweep-delta", "phase-n1", "p0", "trials", "seed",
            "threshold-alpha", "consts", "delta-grid", "detector-tau",
            "calibrate-seed-negative", "risk-seed-2^64", "seed-negative", "seed-2^64",
            "threshold-seed-negative"])
    def test_usage_error(self, tmp_path, capsys, argv, config):
        if config is not None:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps({**BASE_CONFIG, **config}))
            argv = ["sweep", "--config", str(path)]
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert json.loads(err)["error"] == "usage"


class TestSeedRange:
    def test_largest_seed_accepted(self, tmp_path, capsys):
        seed = 2**64 - 1
        out = tmp_path / "m.txt"
        code, _, _ = run(capsys, "gen", "--null", "--n1", "4", "--n2", "4", "--p0", "0.25",
                         "--seed", str(seed), "--out", str(out))
        assert code == 0
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**BASE_CONFIG, "seed": seed,
                                    "threshold": {"trials": 100, "seed": seed}}))
        code, out, _ = run(capsys, "sweep", "--config", str(path))
        assert code == 0
        assert out.startswith("delta,type1,type2,risk\n")


class TestUsage:
    def test_unknown_flag(self, capsys):
        code, _, err = run(capsys, "rates", "--n1", "4", "--n2", "4", "--bogus", "1")
        assert code == 1

    def test_unknown_subcommand(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 1
