import argparse
import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from planted_bipartite import cli, detectors
from planted_bipartite.cli import build_parser, dispatch
from planted_bipartite.graph_model import ProblemShape, read_matrix


def run(capsys, *argv):
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# The composite detector runs a max scan of k_scan = 3 rows here.
BASE_CONFIG = {
    "shape": {"n1": 12, "n2": 16, "k1": 3, "k2": 3},
    "p0": 0.25, "delta_grid": [0.1], "trials": 100, "seed": 1,
}


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

    def test_null_refuses_delta(self, tmp_path, capsys):
        out = tmp_path / "a.txt"
        code, _, err = run(capsys, "gen", "--null", "--n1", "4", "--n2", "4", "--p0", "0.25",
                           "--delta", "0.5", "--seed", "1", "--out", str(out))
        assert code == 1
        assert json.loads(err)["error"] == "usage"
        assert not out.exists()


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

    @pytest.mark.parametrize("axis, k1, count", [(1, 5, "row count 4"), (2, 7, "column count 6")])
    def test_scan_larger_than_its_axis(self, tmp_path, capsys, axis, k1, count):
        m = tmp_path / "m.txt"
        m.write_text("4 6\n" + "010110\n" * 4)
        code, out, err = run(capsys, "stat", str(m), "--p0", "0.25",
                             "--detector", f"MAX_TRUNC_AXIS{axis}", "--tau", "1.0",
                             "--k1", str(k1))
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1
        assert json.loads(err) == {"error": "usage",
                                   "message": f"k_scan={k1} exceeds {count}"}


class TestRates:
    def test_reference_output(self, capsys):
        code, out, _ = run(capsys, "rates", "--n1", "100", "--n2", "100",
                           "--k1", "10", "--k2", "10", "--c-phi", "10")
        assert code == 0
        fields = dict(line.split() for line in out.strip().split("\n"))
        assert float(fields["R"]) == pytest.approx(math.log(2), rel=1e-12)
        assert fields["branch"] == "MAX_TRUNC_1"

    def test_size_too_large_for_a_float(self, capsys):
        code, out, err = run(capsys, "rates", "--n1", str(10**400), "--n2", "10",
                             "--k1", "2", "--k2", "2")
        assert (code, out) == (1, "")
        assert err.count("\n") == 1
        error = json.loads(err)
        assert error["error"] == "usage"
        assert error["message"] == f"n1={10**400} must be below 2^53"


class TestOutOfMemory:
    def test_memory_error_is_one_json_line(self, capsys, monkeypatch):
        """numpy's MemoryError subclass, from an allocation of 1 EiB, which
        no 64-bit address space holds: exit 2, and one JSON line."""
        def allocate(args):
            np.empty(1 << 60, dtype=np.uint8)

        monkeypatch.setitem(cli._COMMANDS, "rates", allocate)
        code, out, err = run(capsys, "rates", "--n1", "4", "--n2", "4", "--k1", "2", "--k2", "2")
        assert (code, out) == (2, "")
        assert err.count("\n") == 1
        error = json.loads(err)
        assert error["error"] == "memory"
        assert error["message"].startswith("Unable to allocate")


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

    @pytest.mark.parametrize("k1,k2", [(2, 5), (5, 2)])
    def test_axis2_scan_size_is_k2(self, capsys, k1, k2):
        code, out, _ = run(capsys, "calibrate", "--n1", "8", "--n2", "12", "--k1", str(k1),
                           "--k2", str(k2), "--p0", "0.25", "--detector", "MAX_TRUNC_AXIS2",
                           "--tau", "0.5", "--trials", "200", "--seed", "1")
        assert code == 0
        kind = detectors.DetectorKind(detectors.DetectorTag.MAX_TRUNC_AXIS2, tau=0.5, k_scan=k2)
        expected = detectors.calibrate_threshold(
            kind, ProblemShape(8, 12, k1, k2), 0.25, 0.1, 200, 1
        )
        assert out.split() == ["threshold", format(expected, ".17g")]

    def test_axis2_scan_needs_k2(self, capsys):
        code, _, err = run(capsys, "calibrate", "--n1", "8", "--n2", "12", "--k1", "2",
                           "--p0", "0.25", "--detector", "MAX_TRUNC_AXIS2", "--tau", "1",
                           "--trials", "200", "--seed", "1")
        assert code == 1
        assert "(--k2)" in json.loads(err)["message"]

    def test_threshold_where_candidates_do_not_prune(self, capsys):
        # The composite scans 4 of 16 rows over 256 columns: about as many
        # candidates per trial as C(16, 4) = 1,820 subsets, so most of the
        # work is the all-ones-column bound of the subset kernel.  The
        # threshold is pinned to the value of the kernel that summed every
        # subset.
        code, out, err = run(capsys, "calibrate", "--n1", "16", "--n2", "256", "--k1", "4",
                             "--k2", "8", "--p0", "0.25", "--trials", "100", "--seed", "1")
        assert code == 0, err
        assert out.split() == ["threshold", "19.057577859123636"]

    # The composite runs MAX_TRUNC_AXIS1 with k_scan 5 here: C(50, 5) =
    # 2,118,760 row subsets, above the default budget, but f is positive
    # only at count 5, so every trial's maximum is among its candidates.
    _SCAN_50 = ["--n1", "50", "--n2", "50", "--k1", "5", "--k2", "5", "--p0", "0.25",
                "--trials", "4", "--seed", "1"]

    def test_budget_checked_only_for_full_enumeration(self, capsys):
        code, out, err = run(capsys, "calibrate", *self._SCAN_50)
        assert code == 0, err
        assert out.startswith("threshold ")

    @pytest.mark.parametrize("budget", ["0", "-5"])
    def test_budget_below_one_is_usage_error(self, capsys, budget):
        code, out, err = run(capsys, "calibrate", *self._SCAN_50, "--budget", budget)
        assert (code, out) == (1, "")
        error = json.loads(err)
        assert error["error"] == "usage" and "budget" in error["message"]


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

    def test_parser_reused_across_dispatches(self, tmp_path, capsys, monkeypatch):
        """dispatch reuses one parser per process.  A flag sweep and then a
        config sweep in one process print what each prints in a fresh
        process: the flags one parse records in `given` do not reach the
        next, where the config sweep would refuse them."""
        (tmp_path / "cfg.json").write_text(json.dumps(BASE_CONFIG))
        monkeypatch.chdir(tmp_path)
        flags = ["sweep", "--n1", "12", "--n2", "16", "--k1", "3", "--k2", "3", "--p0", "0.25",
                 "--delta", "0.1", "--trials", "100", "--seed", "1"]
        config = ["sweep", "--config", "cfg.json"]
        assert build_parser() is build_parser()
        in_process = [run(capsys, *argv) for argv in (flags, config)]
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
        fresh = [subprocess.run([sys.executable, "-m", "planted_bipartite.cli", *argv],
                                capture_output=True, text=True, env=env, check=False)
                 for argv in (flags, config)]
        assert in_process == [(p.returncode, p.stdout, p.stderr) for p in fresh]
        assert in_process[0][0] == 0 and in_process[0][1] == in_process[1][1]

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

    @pytest.mark.parametrize("argv", [
        ["--trials", "1000"],
        ["--budget", "1000000"],  # a flag given at its default value counts as given
        ["--p0", "0.1", "--delta", "0.5", "--detector", "MAX_TRUNC_AXIS1"],
    ], ids=["trials", "budget-default", "several"])
    def test_config_rejects_experiment_flags(self, tmp_path, capsys, argv):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(BASE_CONFIG))
        code, _, err = run(capsys, "sweep", "--config", str(path), *argv)
        assert code == 1
        message = json.loads(err)["message"]
        assert all(flag in message for flag in argv if flag.startswith("--"))

    def test_config_takes_seed_and_out(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(BASE_CONFIG))
        code, stdout, _ = run(capsys, "sweep", "--config", str(path))
        assert code == 0
        out = tmp_path / "r.csv"
        code, _, _ = run(capsys, "sweep", "--config", str(path), "--seed", "5", "--out", str(out))
        assert code == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert [r["seed"] for r in rows] == ["5"]
        path.write_text(json.dumps({**BASE_CONFIG, "seed": 5}))
        assert run(capsys, "sweep", "--config", str(path))[1] != stdout

    @pytest.mark.parametrize("key,value,unknown", [
        pytest.param(key, value, unknown, id=unknown) for key, value, unknown in [
            ("eta", 0.3, "eta"),
            ("consts", {"c_delta": 0.02}, "consts.c_delta"),
            ("shape", {**BASE_CONFIG["shape"], "n3": 1}, "shape.n3"),
            ("threshold", {"trails": 100}, "threshold.trails"),
            ("detector", {"tag": "TOTAL_DEGREE", "k": 1}, "detector.k"),
        ]
    ])
    def test_config_unknown_key_names_path(self, tmp_path, capsys, key, value, unknown):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**BASE_CONFIG, key: value}))
        code, _, err = run(capsys, "sweep", "--config", str(path))
        assert code == 1
        assert json.loads(err)["message"].startswith(f"{unknown}: ")

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

    @pytest.mark.parametrize("command", ["risk", "sweep"])
    @pytest.mark.parametrize("tag,flag", [("MAX_TRUNC_AXIS1", "--k1"),
                                          ("MAX_TRUNC_AXIS2", "--k2")])
    def test_max_scan_needs_its_k(self, tmp_path, capsys, command, tag, flag):
        """From flags, a max scan takes its size from --k1 on axis 1 and --k2
        on axis 2, as in calibrate; the shape's default k (the whole axis)
        is no scan size."""
        out = tmp_path / "r.csv"
        flags = {"--n1": "8", "--n2": "8", "--k1": "2", "--k2": "2", "--p0": "0.25",
                 "--delta": "0.1", "--trials": "100", "--seed": "1", "--out": str(out),
                 "--detector": tag, "--tau": "1", flag: None}
        code, stdout, err = run(capsys, command, *_argv(flags))
        assert (code, stdout) == (1, "")
        assert f"requires a scan size ({flag})" in json.loads(err)["message"]
        assert not out.exists()

    @pytest.mark.parametrize("source", ["--tau", "detector.tau"])
    def test_truncation_names_where_tau_is_missing(self, tmp_path, capsys, source):
        """A truncated test without a tau is told where to give it: from
        flags, --tau; from a config, which refuses --tau, its detector.tau
        key."""
        out = tmp_path / "r.csv"
        if source == "--tau":
            argv = _argv({"--n1": "8", "--n2": "8", "--k1": "2", "--k2": "2", "--p0": "0.25",
                          "--delta": "0.1", "--trials": "100", "--seed": "1",
                          "--detector": "TRUNC_DEGREE_AXIS1", "--out": str(out)})
        else:
            path = tmp_path / "c.json"
            path.write_text(json.dumps({**BASE_CONFIG,
                                        "detector": {"tag": "TRUNC_DEGREE_AXIS1"}}))
            argv = ["--config", str(path), "--out", str(out)]
        code, stdout, err = run(capsys, "sweep", *argv)
        assert (code, stdout) == (1, "")
        message = json.loads(err)["message"]
        assert message == f"detector TRUNC_DEGREE_AXIS1 requires {source}"
        assert not out.exists()


class TestConfigNumbers:
    """Config numbers are read as floats: a JSON integer gives the output of
    the float literal of the same value, and one that a float cannot hold is
    a usage error naming its dotted path.  A file that the JSON parser
    cannot read (bad UTF-8, an integer past Python's 4,300-digit limit) is
    a format error."""

    def _doc(self, number):
        return {
            **BASE_CONFIG, "delta_grid": [number(0), 0.5],
            "detector": {"tag": "TRUNC_DEGREE_AXIS1", "tau": number(1)},
            "threshold": {"value": number(10**20)},
            "consts": {"c1": number(100), "C_tau": number(2), "C_star": number(3)},
        }

    def test_integers_read_as_floats(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"  # one path, so both runs share the experiment id
        written = []
        for name, number in (("int", int), ("float", float)):
            path.write_text(json.dumps(self._doc(number)))
            out = tmp_path / f"{name}.csv"
            code, _, err = run(capsys, "sweep", "--config", str(path), "--out", str(out))
            assert code == 0, err
            written.append((out.read_bytes(), (tmp_path / f"{name}.csv.meta.json").read_bytes()))
        assert written[0] == written[1]
        assert b",1e+20," in written[0][0]

    @pytest.mark.parametrize("path,entry", [
        ("threshold.value", {"threshold": {"value": 10**400}}),
        ("detector.tau", {"detector": {"tag": "TRUNC_DEGREE_AXIS1", "tau": 10**400}}),
        ("delta_grid", {"delta_grid": [0.1, 10**400]}),
        ("consts.c1", {"consts": {"c1": 10**400}}),
        ("shape", {"shape": {**BASE_CONFIG["shape"], "n1": 10**400}}),
    ], ids=["threshold.value", "detector.tau", "delta_grid", "consts.c1", "shape.n1"])
    def test_too_large_for_a_float(self, tmp_path, capsys, path, entry):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**BASE_CONFIG, **entry}))
        code, out, err = run(capsys, "sweep", "--config", str(cfg))
        assert (code, out) == (1, "")
        assert err.count("\n") == 1
        error = json.loads(err)
        assert error["error"] == "usage"
        assert error["message"].startswith(f"{path}: ")

    @pytest.mark.parametrize("text", ['{"seed": 1' + "0" * 5000 + "}", b'{"p0": "\xff"}'],
                             ids=["5000-digit-integer", "bad-utf-8"])
    def test_unreadable_json_is_format_error(self, tmp_path, capsys, text):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(text if isinstance(text, bytes) else text.encode())
        code, out, err = run(capsys, "sweep", "--config", str(cfg))
        assert (code, out) == (3, "")
        assert json.loads(err)["error"] == "format"


def _argv(flags: dict) -> list[str]:
    """Each flag and its value; a value of None leaves the flag out, and
    True gives the token alone (a store_true flag, or stat's matrix path)."""
    return [tok for flag, value in flags.items() if value is not None
            for tok in ((flag,) if value is True else (flag, value))]


# The matrix file that the stat probes read; its rows and columns differ,
# so axis 1 and axis 2 give different statistics.
PROBE_MATRIX = ("8 8\n11010000\n01100100\n00011000\n10000011\n"
                "01110000\n00001010\n11000001\n00100110\n")

# A valid flag set of each command, which the probes below vary.
PROBE_BASES = {
    "gen": {"--n1": "8", "--n2": "8", "--k1": "4", "--k2": "4", "--p0": "0.25",
            "--delta": "0.5", "--seed": "1", "--out": "g.txt"},
    "stat": {"m.txt": True, "--p0": "0.25"},
    "lb": {"--n1": "4", "--n2": "4", "--k1": "2", "--k2": "2", "--p0": "0.25",
           "--delta": "0.25"},
    "calibrate": {"--n1": "16", "--n2": "16", "--k1": "4", "--k2": "4", "--p0": "0.25",
                  "--trials": "100", "--seed": "1"},
    "risk": {"--n1": "16", "--n2": "16", "--k1": "4", "--k2": "4", "--p0": "0.25",
             "--delta": "0.3", "--trials": "100", "--seed": "1", "--out": "r.csv"},
    "sweep": {"--n1": "16", "--n2": "16", "--k1": "4", "--k2": "4", "--p0": "0.25",
              "--delta": "0,0.3", "--trials": "100", "--seed": "1", "--out": "r.csv"},
    "rates": {"--n1": "100", "--n2": "100", "--k1": "10", "--k2": "10"},
    "phase": {"--n1": "32,64", "--n2": "64", "--k1": "4,8", "--k2": "8"},
}
_MAX_SCAN = {"--detector": "MAX_TRUNC_AXIS1", "--tau": "1.0"}
_ANALYTIC = {"--threshold-mode": "ANALYTIC"}
# Per command: option -> (extra flags, value a, value b); None leaves the
# option out.  The 16x16, k = 4 base runs the composite detector as a
# truncated degree test.
_CALIBRATE_PROBES = {
    "--n1": ({}, "16", "18"),
    "--n2": ({}, "16", "18"),
    "--k1": ({}, "4", "3"),
    "--k2": ({}, "4", "5"),
    "--p0": ({}, "0.25", "0.3"),
    "--alpha": ({}, "0.1", "0.3"),
    "--trials": ({}, "100", "150"),
    "--seed": ({}, "1", "2"),
    "--detector": ({}, "DELTA_STAR", "TOTAL_DEGREE"),
    "--tau": ({"--detector": "TRUNC_DEGREE_AXIS1"}, "0.5", "1.5"),
    "--budget": (_MAX_SCAN, None, "100"),
    "--out": ({}, "o.txt", None),
    "--c-phi": ({}, None, "0.5"),
    "--c1": ({}, None, "100"),
    "--C-tau": ({}, None, "2.5"),
}
_RISK_PROBES = {
    **_CALIBRATE_PROBES,
    "--C-star": (_ANALYTIC, None, "0.5"),
    "--c-prime": (_ANALYTIC, None, "2"),
    "--threshold-mode": ({}, "CALIBRATED", "ANALYTIC"),
    "--delta": ({}, "0.3", "0.4"),
}
_RATE_PROBES = {
    "--n1": ({}, "100", "200"),
    "--n2": ({}, "100", "200"),
    "--k1": ({}, "10", "5"),
    "--k2": ({}, "10", "5"),
    "--out": ({}, "o.txt", None),
    "--c-phi": ({}, None, "0.5"),
}
_STAT_MAX_SCAN = {"--detector": "MAX_TRUNC_AXIS1", "--tau": "0.5", "--k1": "3"}
# At tau 0, f is positive at counts 2 and 3 of Bin(3, 0.25), so the scan
# enumerates all C(8, 3) = 56 subsets and a budget of 10 is exceeded.
_STAT_FULL_SCAN = {**_STAT_MAX_SCAN, "--tau": "0"}
PROBES = {
    # --null beside the base's --delta is a usage error.
    "gen": {"--n1": ({}, "8", "9"), "--n2": ({}, "8", "9"), "--k1": ({}, "4", "3"),
            "--k2": ({}, "4", "3"), "--p0": ({}, "0.25", "0.3"), "--delta": ({}, "0.5", None),
            "--seed": ({}, "1", "2"), "--out": ({}, "g.txt", "h.txt"),
            "--null": ({}, None, True)},
    "stat": {"--p0": ({}, "0.25", "0.3"),
             "--detector": ({"--tau": "1.0"}, "TRUNC_DEGREE_AXIS1", "TRUNC_DEGREE_AXIS2"),
             "--tau": ({"--detector": "TRUNC_DEGREE_AXIS1"}, "0.5", "1.5"),
             "--k1": (_STAT_MAX_SCAN, "3", "2"), "--budget": (_STAT_FULL_SCAN, None, "10"),
             "--out": ({}, "o.txt", None)},
    "lb": {"--n1": ({}, "4", "5"), "--n2": ({}, "4", "5"), "--k1": ({}, "2", "1"),
           "--k2": ({}, "2", "1"), "--p0": ({}, "0.25", "0.3"), "--delta": ({}, "0.25", "0.3"),
           "--out": ({}, "o.txt", None)},
    "calibrate": _CALIBRATE_PROBES,
    "risk": _RISK_PROBES,
    "sweep": {**_RISK_PROBES, "--delta": ({}, "0,0.3", "0,0.4"),
              "--config": ("config", "a.json", "b.json")},
    "rates": _RATE_PROBES,
    "phase": {**_RATE_PROBES, "--n1": ({}, "32,64", "32,128"), "--n2": ({}, "64", "32"),
              "--k1": ({}, "4,8", "4"), "--k2": ({}, "8", "8,16")},
}
PROBE_CONFIGS = {"a.json": {**BASE_CONFIG, "trials": 100},
                 "b.json": {**BASE_CONFIG, "trials": 150}}


# The CLI flag of each RateConstants field that some command reads, and a
# value that changes the output of TestConstsParity's sweep at 16x16, k = 4:
# C_phi = 0.5 makes phi infinite and the composite detector a max scan,
# c1 = 100 switches it to the total degree test, and the other three change
# its truncation level or the analytic threshold.
CONST_PROBES = {
    "C_phi": ("--c-phi", 0.5), "c1": ("--c1", 100.0), "C_tau": ("--C-tau", 2.5),
    "C_star": ("--C-star", 0.5), "c_prime": ("--c-prime", 2.0),
}
# Fields that only library functions no command calls read.
UNREAD_CONSTS = {"c_delta": "--c-delta", "C_delta": "--C-delta", "C_eta": "--C-eta"}


class TestConstsParity:
    """A constant that some command reads is settable from its flag and from
    a JSON `consts` key, with the same effect on the output; a constant that
    no command reads is rejected both ways."""

    SHAPE = {"n1": 16, "n2": 16, "k1": 4, "k2": 4}

    def _sweep(self, tmp_path, capsys, name, *argv):
        """CSV rows and sidecar of a sweep, without the experiment id."""
        out = tmp_path / f"{name}.csv"
        code, _, err = run(capsys, "sweep", *argv, "--out", str(out))
        assert code == 0, err
        rows = [line.split(",", 1)[1] for line in out.read_text().splitlines()]
        meta = json.loads((tmp_path / f"{name}.csv.meta.json").read_text())
        del meta["experiment_id"]
        return rows, meta

    def _config(self, tmp_path, mode, consts):
        cfg = {
            "shape": self.SHAPE, "p0": 0.25, "delta_grid": [0.3], "trials": 100, "seed": 2,
            "threshold": {"mode": mode, "alpha": 0.1, "trials": 100, "seed": 2},
            "consts": consts,
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        return str(path)

    @pytest.mark.parametrize("field", list(CONST_PROBES))
    def test_field_settable(self, tmp_path, capsys, field):
        flag, value = CONST_PROBES[field]
        mode = "ANALYTIC" if field in ("C_star", "c_prime") else "CALIBRATED"
        flag_argv = [f"--{k}={v}" for k, v in self.SHAPE.items()] + [
            "--p0", "0.25", "--delta", "0.3", "--trials", "100", "--seed", "2",
            "--threshold-mode", mode,
        ]
        default = self._sweep(tmp_path, capsys, "default", *flag_argv)
        flags = self._sweep(tmp_path, capsys, "flags", *flag_argv, flag, repr(value))
        config = self._sweep(tmp_path, capsys, "config",
                             "--config", self._config(tmp_path, mode, {field: value}))
        assert flags == config
        assert flags[1]["consts"][field] == value
        assert flags[0] != default[0]

    @pytest.mark.parametrize("field", list(UNREAD_CONSTS))
    def test_unread_field_rejected(self, tmp_path, capsys, field):
        flag = UNREAD_CONSTS[field]
        for command, base in PROBE_BASES.items():
            code, _, err = run(capsys, command, *_argv(base), flag, "1.0")
            assert code == 1
            assert flag in json.loads(err)["message"]
        path = self._config(tmp_path, "CALIBRATED", {field: 1.0})
        code, _, err = run(capsys, "sweep", "--config", path)
        assert code == 1
        assert f"consts.{field}" in json.loads(err)["message"]


def _options(command: str) -> list[str]:
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return [a.option_strings[0] for a in sub.choices[command]._actions
            if a.option_strings and a.dest != "help"]


def _output(workdir, capsys, monkeypatch, argv) -> tuple:
    """Exit code, stdout, stderr and written files of one run in a fresh
    directory.  A sidecar's `consts` echo the input, so they are left out."""
    workdir.mkdir()
    for name, cfg in PROBE_CONFIGS.items():
        (workdir / name).write_text(json.dumps(cfg))
    (workdir / "m.txt").write_text(PROBE_MATRIX)
    monkeypatch.chdir(workdir)
    result = run(capsys, *argv)
    files = {}
    for path in sorted(workdir.iterdir()):
        if path.name.endswith(".meta.json"):
            files[path.name] = json.loads(path.read_text())
            del files[path.name]["consts"]
        elif path.name not in PROBE_CONFIGS and path.name != "m.txt":
            files[path.name] = path.read_text()
    return result, files


class TestOptionProbes:
    """Every option of every command changes the output: a probe pair of
    runs that differ only in that option must differ."""

    @pytest.mark.parametrize("command,flag", [
        (command, flag) for command in PROBES for flag in _options(command)
    ], ids=lambda v: v)
    def test_option_changes_output(self, tmp_path, capsys, monkeypatch, command, flag):
        assert flag in PROBES[command], f"{command} {flag} has no probe"
        extra, a, b = PROBES[command][flag]
        base = {} if extra == "config" else {**PROBE_BASES[command], **extra}
        outputs = [
            _output(tmp_path / side, capsys, monkeypatch,
                    [command, *_argv({**base, flag: value})])
            for side, value in (("a", a), ("b", b))
        ]
        assert outputs[0] != outputs[1]

    @pytest.mark.parametrize("command", ["calibrate", "risk", "sweep"])
    def test_k2_probe_under_axis2_scan(self, tmp_path, capsys, monkeypatch, command):
        """The `--k2` probe above runs the composite detector.  Under
        MAX_TRUNC_AXIS2, --k2 is the scan size: it changes the output, and
        risk and sweep record it as k_scan."""
        base = {**PROBE_BASES[command], "--detector": "MAX_TRUNC_AXIS2", "--tau": "0.5"}
        outputs = {
            k2: _output(tmp_path / k2, capsys, monkeypatch, [command, *_argv({**base, "--k2": k2})])
            for k2 in ("4", "2")
        }
        assert outputs["4"] != outputs["2"]
        for k2, (_, files) in outputs.items():
            if command != "calibrate":
                assert files["r.csv.meta.json"]["k_scan"] == int(k2)

    @pytest.mark.parametrize("command", list(PROBES))
    def test_every_probe_is_an_option(self, command):
        assert set(PROBES[command]) <= set(_options(command))


# A valid config, which the probes below vary: at 16x16, k = 4 every
# constant of CONST_PROBES changes the output.
CONFIG_PROBE_BASE = {
    "shape": {"n1": 16, "n2": 16, "k1": 4, "k2": 4}, "p0": 0.25, "delta_grid": [0.3],
    "trials": 100, "seed": 2, "threshold": {"trials": 100},
}
_CONFIG_MAX_SCAN = {"detector.tag": "MAX_TRUNC_AXIS1", "detector.tau": 0.5}
# Per optional config key: (extra entries, value a, value b), by dotted
# path; None leaves the key out.
CONFIG_PROBES = {
    "detector": ({}, None, {"tag": "TOTAL_DEGREE"}),
    "detector.tag": ({}, "DELTA_STAR", "TOTAL_DEGREE"),
    "detector.tau": ({"detector.tag": "TRUNC_DEGREE_AXIS1"}, 0.5, 1.5),
    "detector.k_scan": (_CONFIG_MAX_SCAN, 2, 3),
    "threshold": ({}, {"trials": 100}, {"trials": 150}),
    "threshold.mode": ({}, "CALIBRATED", "ANALYTIC"),
    "threshold.alpha": ({}, 0.1, 0.3),
    "threshold.trials": ({}, 100, 150),
    "threshold.seed": ({}, None, 3),
    "threshold.value": ({}, None, 0.0),
    "consts": ({}, None, {"c1": 100.0}),
    **{f"consts.{field}": ({"threshold.mode": "ANALYTIC"} if field in ("C_star", "c_prime")
                           else {}, None, value)
       for field, (_, value) in CONST_PROBES.items()},
    "budget": ({**_CONFIG_MAX_SCAN, "detector.k_scan": 2}, None, 1),
}


def _config_doc(entries: dict) -> dict:
    """CONFIG_PROBE_BASE with each dotted path set to its value, or left
    out where the value is None."""
    doc = json.loads(json.dumps(CONFIG_PROBE_BASE))
    for path, value in entries.items():
        *parents, key = path.split(".")
        obj = doc
        for parent in parents:
            obj = obj.setdefault(parent, {})
        if value is None:
            obj.pop(key, None)
        else:
            obj[key] = value
    return doc


class TestConfigProbes:
    """The config twin of TestOptionProbes: every optional key of the
    config table changes the output, so a key that reaches no code fails."""

    @pytest.mark.parametrize("key", [
        key for key, (_, default) in cli._CONFIG_SCHEMA.items() if default is not cli._REQUIRED
    ])
    def test_key_changes_output(self, tmp_path, capsys, monkeypatch, key):
        assert key in CONFIG_PROBES, f"config key {key} has no probe"
        extra, a, b = CONFIG_PROBES[key]
        path = tmp_path / "cfg.json"  # one path, so both runs share the experiment id
        outputs = []
        for side, value in (("a", a), ("b", b)):
            path.write_text(json.dumps(_config_doc({**extra, key: value})))
            outputs.append(_output(tmp_path / side, capsys, monkeypatch,
                                   ["sweep", "--config", str(path), "--out", "r.csv"]))
        assert outputs[0] != outputs[1]

    def test_every_probe_is_a_key(self):
        assert set(CONFIG_PROBES) <= set(cli._CONFIG_SCHEMA)


class TestPhase:
    def test_grid_output(self, capsys):
        code, out, _ = run(capsys, "phase", "--n1", "32,64", "--n2", "64",
                           "--k1", "4,8", "--k2", "8")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "n1,n2,k1,k2,R,R_tilde,branch"
        assert len(lines) == 5




_CAL_16 = ["--n1", "16", "--n2", "16", "--k1", "4", "--k2", "4", "--p0", "0.25",
           "--trials", "200", "--seed", "1"]


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
        # NaN passes `< 0` and `<= 0` checks, and inf passes both.
        (["calibrate", *_CAL_16, "--detector", "TRUNC_DEGREE_AXIS1", "--tau", "nan"], None),
        (["calibrate", *_CAL_16, "--detector", "TRUNC_DEGREE_AXIS1", "--tau", "inf"], None),
        (["calibrate", *_CAL_16, "--C-tau", "nan"], None),
        (["risk", "--n1", "16", "--n2", "16", "--k1", "4", "--k2", "4", "--p0", "0.25",
          "--delta", "0.3", "--trials", "200", "--seed", "1", "--threshold-mode", "ANALYTIC",
          "--C-star", "nan"], None),
        (["rates", "--n1", "100", "--n2", "100", "--k1", "10", "--k2", "10",
          "--c-phi", "nan"], None),
        ([], {"consts": {"C_star": math.nan}}),
        # And 0 and inf fail RateConstants' `0 < value < inf`, field by field.
        (["calibrate", *_CAL_16, "--c1", "0"], None),
        ([], {"consts": {"c_prime": math.inf}}),
        ([], {"detector": {"tag": "TRUNC_DEGREE_AXIS1", "tau": math.inf}}),
        ([], {"threshold": {"value": math.nan}}),
    ], ids=["risk-delta", "sweep-delta", "phase-n1", "p0", "trials", "seed",
            "threshold-alpha", "consts", "delta-grid", "detector-tau",
            "calibrate-seed-negative", "risk-seed-2^64", "seed-negative", "seed-2^64",
            "threshold-seed-negative", "calibrate-tau-nan", "calibrate-tau-inf",
            "calibrate-C-tau-nan", "risk-C-star-nan", "rates-c-phi-nan",
            "consts-C-star-nan", "calibrate-c1-zero", "consts-c-prime-inf",
            "detector-tau-inf", "threshold-value-nan"])
    def test_usage_error(self, tmp_path, capsys, argv, config):
        if config is not None:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps({**BASE_CONFIG, **config}))
            argv = ["sweep", "--config", str(path)]
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert json.loads(err)["error"] == "usage"


def _matrix(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("2 2\n01\n10\n")
    return str(path)


_RISK_16 = ["--n1", "16", "--n2", "16", "--k1", "4", "--k2", "4", "--p0", "0.25",
            "--trials", "100", "--seed", "1", "--delta", "0.3"]


class TestUnreadDetectorValues:
    """A tau, scan size or subset budget that the detector's statistic does
    not read is a usage error naming it; it used to be dropped without a
    word."""

    @pytest.mark.parametrize("argv,config", [
        *[([command, *base, "--detector", tag, "--tau", "5"], None)
          for command, base in (("calibrate", _CAL_16), ("risk", _RISK_16), ("sweep", _RISK_16))
          for tag in ("DELTA_STAR", "TOTAL_DEGREE")],
        (["stat", None, "--p0", "0.25", "--detector", "TOTAL_DEGREE", "--tau", "1"], None),
        (["stat", None, "--p0", "0.25", "--detector", "TOTAL_DEGREE", "--k1", "1"], None),
        ([], {"detector": {"tag": "TOTAL_DEGREE", "tau": 3}}),
        ([], {"detector": {"tag": "TOTAL_DEGREE", "k_scan": 4}}),
    ], ids=["calibrate-delta-star-tau", "calibrate-total-tau", "risk-delta-star-tau",
            "risk-total-tau", "sweep-delta-star-tau", "sweep-total-tau", "stat-total-tau",
            "stat-total-k1", "config-total-tau", "config-total-k_scan"])
    def test_refused(self, tmp_path, capsys, argv, config):
        argv = [_matrix(tmp_path) if a is None else a for a in argv]
        if config is not None:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps({**BASE_CONFIG, **config}))
            argv = ["sweep", "--config", str(path)]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        error = json.loads(err)
        assert error["error"] == "usage"
        assert "tau" in error["message"] or "k_scan" in error["message"]

    @pytest.mark.parametrize("argv,config", [
        *[([command, *base, "--detector", tag, *tau, "--budget", "100"], None)
          for command, base in (("calibrate", _CAL_16), ("risk", _RISK_16), ("sweep", _RISK_16))
          for tag, tau in (("TOTAL_DEGREE", []), ("TRUNC_DEGREE_AXIS1", ["--tau", "0.5"]))],
        (["calibrate", *_CAL_16, "--detector", "TOTAL_DEGREE", "--budget", "0"], None),
        (["stat", None, "--p0", "0.25", "--detector", "TOTAL_DEGREE", "--budget", "-3"], None),
        ([], {"detector": "TOTAL_DEGREE", "budget": 100}),
        # The composite resolves to the total degree test at 64x64, k = 16.
        (["calibrate", "--n1", "64", "--n2", "64", "--k1", "16", "--k2", "16", "--p0", "0.25",
          "--trials", "100", "--seed", "1", "--budget", "5"], None),
    ], ids=["calibrate-total", "calibrate-trunc", "risk-total", "risk-trunc", "sweep-total",
            "sweep-trunc", "calibrate-total-budget-0", "stat-total-budget-negative",
            "config-total", "calibrate-delta-star-degree-test"])
    def test_budget_refused(self, tmp_path, capsys, argv, config):
        """A subset budget is read only by a max scan: on any other detector,
        the composite's degree tests included, it is a usage error."""
        argv = [_matrix(tmp_path) if a is None else a for a in argv]
        if config is not None:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps({**BASE_CONFIG, **config}))
            argv = ["sweep", "--config", str(path)]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.count("\n") == 1
        error = json.loads(err)
        assert error["error"] == "usage"
        assert "budget" in error["message"]

    def test_budget_reaches_composite_max_scan(self, capsys):
        """Where the composite runs MAX_TRUNC_AXIS1 (k_scan 5 of 20 rows), a
        budget of 5 subsets is read by its scan and exceeded."""
        code, out, err = run(capsys, "calibrate", "--n1", "20", "--n2", "64", "--k1", "5",
                             "--k2", "4", "--p0", "0.25", "--trials", "64", "--seed", "0",
                             "--budget", "5")
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == "budget"

    @pytest.mark.parametrize("tag,flags", [
        ("TRUNC_DEGREE_AXIS1", ["--tau", "0.5"]),
        ("MAX_TRUNC_AXIS1", ["--tau", "0.5", "--k1", "2"]),
        ("MAX_TRUNC_AXIS2", ["--tau", "0.5", "--k1", "2"]),
    ], ids=["trunc-axis1", "max-axis1", "max-axis2"])
    def test_stat_reads_what_it_takes(self, tmp_path, capsys, tag, flags):
        code, out, _ = run(capsys, "stat", _matrix(tmp_path), "--p0", "0.25",
                           "--detector", tag, *flags)
        assert code == 0
        assert out.startswith("statistic ")


class TestSeedRequired:
    @pytest.mark.parametrize("argv", [
        ["gen", "--null", "--n1", "4", "--n2", "4", "--p0", "0.25", "--out", "m.txt"],
        ["calibrate", "--n1", "4", "--n2", "4", "--p0", "0.25"],
        ["risk", "--n1", "4", "--n2", "4", "--p0", "0.25", "--delta", "0.1"],
        ["sweep", "--n1", "4", "--n2", "4", "--p0", "0.25", "--delta", "0.1"],
    ], ids=["gen", "calibrate", "risk", "sweep"])
    def test_missing_seed_is_usage_error(self, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        code, _, err = run(capsys, *argv)
        assert code == 1
        error = json.loads(err)
        assert error["error"] == "usage"
        assert "seed" in error["message"]
        assert not (tmp_path / "m.txt").exists()


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


class TestSingleCountTruncation:
    """Where the composite detector's max scan passes only the full count of
    its k_scan rows, its statistic would be constant: the run exits 1 and
    writes nothing.  At the first shape it used to report threshold 0 and
    miss an all-ones 3x6 block on every trial."""

    @pytest.mark.parametrize("argv", [
        ["risk", "--n1", "16", "--n2", "128", "--k1", "3", "--k2", "6", "--p0", "0.25",
         "--delta", "0.75", "--trials", "200", "--seed", "1"],
        ["sweep", "--n1", "16", "--n2", "64", "--k1", "2", "--k2", "4", "--p0", "0.2",
         "--delta", "0,0.4,0.8", "--trials", "400", "--seed", "1"],
    ], ids=["risk", "sweep"])
    def test_refused(self, tmp_path, capsys, argv):
        out = tmp_path / "r.csv"
        code, stdout, err = run(capsys, *argv, "--out", str(out))
        assert (code, stdout) == (1, "")
        assert "would be constant" in json.loads(err)["message"]
        assert not out.exists()


class TestCompositeRefusal:
    """A refusal of the sub-test that DELTA_STAR resolves to keeps its type
    and exit code, and says that the composite resolved to that test."""

    def test_budget_on_degree_subtest(self, capsys):
        code, out, err = run(capsys, "calibrate", "--n1", "64", "--n2", "64", "--k1", "16",
                             "--k2", "16", "--p0", "0.25", "--trials", "100", "--seed", "1",
                             "--budget", "5")
        assert (code, out) == (1, "")
        error = json.loads(err)
        assert error["error"] == "usage"
        assert error["message"].startswith(
            "DELTA_STAR resolved to TOTAL_DEGREE (branch BRANCH_A) on this shape: "
            "a subset budget is read only by max tests, tag=TOTAL_DEGREE")

    def test_single_count_truncation(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        code, stdout, err = run(capsys, "risk", "--n1", "16", "--n2", "128", "--k1", "3",
                                "--k2", "6", "--p0", "0.25", "--delta", "0.75", "--trials",
                                "200", "--seed", "1", "--out", str(out))
        assert (code, stdout) == (1, "")
        error = json.loads(err)
        assert error["error"] == "error"
        assert error["message"].startswith(
            "DELTA_STAR resolved to MAX_TRUNC_AXIS1 (branch MAX_TRUNC_1) on this shape: "
            "tau=1.776786971918233 leaves only counts >= 3 of n=3")
        assert not out.exists()


class TestUsage:
    def test_unknown_flag(self, capsys):
        code, _, err = run(capsys, "rates", "--n1", "4", "--n2", "4", "--bogus", "1")
        assert code == 1

    def test_unknown_subcommand(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 1

    @pytest.mark.parametrize("mode", ["CALIBRATED", "ANALYTIC"])
    def test_sweep_trials_below_100(self, capsys, mode):
        """From flags, --trials sets the null, planted and calibration trials
        alike, and 99 is refused in either threshold mode: no clamp raises
        the calibration to 100."""
        code, out, err = run(capsys, "sweep", "--n1", "16", "--n2", "16", "--k1", "4",
                             "--k2", "4", "--p0", "0.25", "--delta", "0,0.3", "--trials", "99",
                             "--seed", "1", "--threshold-mode", mode)
        error = json.loads(err)
        assert (code, out, error["error"]) == (1, "", "usage")
        assert error["message"].endswith(">= 100, got 99")


# Imports a command, builds the parser and runs one of each command that does
# numeric work, then prints the scipy and numpy.ma modules ever loaded.  The
# calibrate is a max scan whose candidate pass runs: its kernel is offered
# groups of fewer than n1 = 8 rows, the ones of a column.
_FRESH_COMMANDS = """
import sys
from planted_bipartite import cli, detectors

cli.build_parser()
score, ran = detectors._score_subsets, []
detectors._score_subsets = lambda flat, owner, rows, *a: ran.append(rows.shape[1]) or score(
    flat, owner, rows, *a)
for argv in (
    ["calibrate", "--n1", "8", "--n2", "16", "--k1", "3", "--k2", "3", "--p0", "0.25",
     "--detector", "MAX_TRUNC_AXIS1", "--tau", "1.0", "--trials", "50", "--seed", "1"],
    ["sweep", "--n1", "16", "--n2", "16", "--k1", "4", "--k2", "4", "--p0", "0.25",
     "--delta", "0,0.3", "--trials", "100", "--seed", "1", "--out", "r.csv"],
    ["gen", "--null", "--n1", "16", "--n2", "16", "--p0", "0.25", "--seed", "1",
     "--out", "m.txt"],
    ["stat", "m.txt", "--p0", "0.25", "--detector", "TRUNC_DEGREE_AXIS1", "--tau", "1.0"],
    ["lb", "--n1", "2", "--n2", "2", "--k1", "1", "--k2", "1", "--p0", "0.25",
     "--delta", "0.25"],
    ["phase", "--n1", "32,64", "--n2", "64", "--k1", "4,8", "--k2", "8"],
):
    assert cli.dispatch(argv) == 0, argv
assert ran and min(ran) < 8, "the candidate pass did not run"
print(sorted(m for m in sys.modules
             if m.split(".")[0] == "scipy" or m == "numpy.ma" or m.startswith("numpy.ma.")))
"""


def test_commands_load_no_scipy_or_numpy_ma(tmp_path):
    """Every command runs without scipy, and none pays numpy.ma's import."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", _FRESH_COMMANDS], cwd=tmp_path,
                          capture_output=True, text=True, env=env, check=False)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[]"
