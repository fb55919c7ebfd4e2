"""Workload definitions: the steps each run executes and the checks on
their outputs.

A workload is built from (seed, smoke) into a list of steps.  A step is one
CLI argv run through `cli.dispatch`, or one library computation (`tv`,
`moments`).  `check` returns the names of the steps whose outputs break an
invariant that must hold for every seed.  Sizes are chosen so that one
repetition takes two to three seconds on a 2-vCPU Xeon (Sapphire Rapids)
virtual machine; smoke sizes finish in well under a second.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random

ALPHA = 0.1
P0 = 0.25

# A4 grid: 0, d/3, 2d/3, d with d = sqrt(16 p0 (1 - p0) R) for 64x64, k = 16.
_A4_DELTA = 0.4090937099072257
A4_GRID = [0.0, _A4_DELTA / 3, 2 * _A4_DELTA / 3, _A4_DELTA]

SIZES = {
    False: {
        "sweep_shape": (64, 64, 16, 16), "sweep_detector": "DELTA_STAR",
        "sweep_grid": A4_GRID, "sweep_trials": 500, "sweep_calibration": 2500,
        "scan_argv": ["--n1", "20", "--n2", "64", "--k1", "5", "--k2", "4"],
        "scan_trials": 64,
        "graph_n": 256, "graph_trials": 1024,
        "tv_shape": (3, 6, 2, 2),
        # k1 k2 <= 100 keeps exp(mu^2 k1 k2) finite for every seed's signal.
        "lb_shapes": [(4, 4, 2, 2), (10, 10, 3, 3), (64, 64, 8, 8),
                      (100, 100, 10, 10), (1000, 1000, 8, 8)],
        "phase": ["50,100,200,400", "50,100,200,400", "5,10,20", "5,10,20"],
        "moment_ns": list(range(10, 400, 13)), "moment_taus": [0.5, 1.0, 1.5, 2.0],
    },
    True: {
        "sweep_shape": (16, 16, 4, 4), "sweep_detector": "TOTAL_DEGREE",
        "sweep_grid": [0.0, 0.2, 0.4, 0.6], "sweep_trials": 100, "sweep_calibration": 200,
        "scan_argv": ["--n1", "8", "--n2", "16", "--k1", "3", "--k2", "2",
                      "--detector", "MAX_TRUNC_AXIS1", "--tau", "1.0"],
        "scan_trials": 100,
        "graph_n": 16, "graph_trials": 100,
        "tv_shape": (2, 3, 1, 1),
        "lb_shapes": [(4, 4, 2, 2)],
        "phase": ["50,100", "50", "5", "5,10"],
        "moment_ns": [10, 20], "moment_taus": [0.5, 1.0],
    },
}

NAMES = ("power_sweep", "scan_calibrate", "observed_graph", "exact_bounds")


def _cli(name, argv, files=()):
    return {"name": name, "kind": "cli", "argv": [str(a) for a in argv], "files": list(files)}


def build(name: str, seed: int, smoke: bool) -> dict:
    """Steps, input files to write, and the work they request.

    `trials` is the number of Monte Carlo trials the steps ask for.  `work`,
    the numerator of `trials_per_s`, equals `trials`, except on
    `exact_bounds`, which runs no trials: there it is the number of matrix
    probabilities the exact total variation enumerates.
    """
    z = SIZES[smoke]
    if name == "power_sweep":
        n1, n2, k1, k2 = z["sweep_shape"]
        trials, cal, grid = z["sweep_trials"], z["sweep_calibration"], z["sweep_grid"]
        config = {
            "shape": {"n1": n1, "n2": n2, "k1": k1, "k2": k2},
            "p0": P0,
            "delta_grid": grid,
            "detector": z["sweep_detector"],
            "threshold": {"mode": "CALIBRATED", "alpha": ALPHA, "trials": cal, "seed": seed + 1},
            "trials": trials,
            "seed": seed,
        }
        steps = [_cli("sweep", ["sweep", "--config", "sweep.json", "--out", "sweep.csv"],
                      ["sweep.csv", "sweep.csv.meta.json"])]
        requested = cal + trials * (1 + len(grid))
        return {"steps": steps, "inputs": {"sweep.json": json.dumps(config)},
                "trials": requested, "work": requested}
    if name == "scan_calibrate":
        trials = z["scan_trials"]
        argv = ["calibrate", *z["scan_argv"], "--p0", P0, "--trials", trials, "--seed", seed]
        return {"steps": [_cli("calibrate", argv)], "inputs": {}, "trials": trials, "work": trials}
    if name == "observed_graph":
        n, trials = z["graph_n"], z["graph_trials"]
        det = ["--detector", "TRUNC_DEGREE_AXIS1", "--tau", "1.5"]
        steps = [
            _cli("gen", ["gen", "--null", "--n1", n, "--n2", n, "--p0", P0, "--seed", seed,
                         "--out", "graph.txt"], ["graph.txt"]),
            _cli("stat", ["stat", "graph.txt", "--p0", P0, *det]),
            _cli("calibrate", ["calibrate", "--n1", n, "--n2", n, "--p0", P0, *det,
                               "--trials", trials, "--seed", seed]),
        ]
        return {"steps": steps, "inputs": {}, "trials": 1 + trials, "work": 1 + trials}
    if name == "exact_bounds":
        rnd = random.Random(seed)
        p0 = rnd.choice([0.1, 0.2, 0.25])
        delta = round(rnd.uniform(0.05, 0.5), 6)
        tv_shape = z["tv_shape"]
        steps = [{"name": "tv", "kind": "tv", "shape": tv_shape, "p0": p0, "delta": delta}]
        for s in [tv_shape] + z["lb_shapes"]:
            steps.append(_cli("lb_" + "x".join(map(str, s)), [
                "lb", "--n1", s[0], "--n2", s[1], "--k1", s[2], "--k2", s[3],
                "--p0", p0, "--delta", delta]))
        n1s, n2s, k1s, k2s = z["phase"]
        steps.append(_cli("phase", ["phase", "--n1", n1s, "--n2", n2s, "--k1", k1s, "--k2", k2s]))
        taus = [t + rnd.uniform(0, 0.1) for t in z["moment_taus"]]
        steps.append({"name": "moments", "kind": "moments", "p0": p0,
                      "ns": z["moment_ns"], "taus": taus})
        n1, n2, k1, k2 = tv_shape
        supports = math.comb(n1, k1) * math.comb(n2, k2)
        return {"steps": steps, "inputs": {}, "trials": 0,
                "work": (1 << (n1 * n2)) * (1 + supports)}
    raise ValueError(f"unknown workload {name!r}")


def _number(text: str, key: str) -> float | None:
    for line in text.splitlines():
        parts = line.split()
        if len(parts) == 2 and parts[0] == key:
            try:
                return float(parts[1])
            except ValueError:
                return None
    return None


def check(name: str, spec: dict, outputs: dict) -> list[str]:
    """Step names whose outputs break a seed-independent invariant.

    `outputs` maps step name to {"stdout": str, "files": {name: {"text": ...}}}.
    """
    bad = []
    if name == "power_sweep":
        config = json.loads(spec["inputs"]["sweep.json"])
        rows = list(csv.DictReader(io.StringIO(outputs["sweep"]["files"]["sweep.csv"]["text"])))
        trials = config["trials"]
        se = math.sqrt(ALPHA * (1 - ALPHA) / trials)
        type1 = {float(r["type1"]) for r in rows}
        type2 = [float(r["type2"]) for r in sorted(rows, key=lambda r: float(r["delta"]))]
        ok = (
            len(rows) == len(config["delta_grid"])
            and len(type1) == 1
            # Calibrated Type I, measured on the fresh null stream, is near alpha.
            and abs(type1.pop() - ALPHA) <= 4 * se
            # Common random numbers make Type II monotone over the grid.
            and all(b <= a for a, b in zip(type2, type2[1:]))
        )
        if not ok:
            bad.append("sweep")
    elif name in ("scan_calibrate", "observed_graph"):
        for step in spec["steps"]:
            if step["argv"][0] == "gen":
                continue
            key = "threshold" if step["argv"][0] == "calibrate" else "statistic"
            value = _number(outputs[step["name"]]["stdout"], key)
            if value is None or not math.isfinite(value):
                bad.append(step["name"])
    elif name == "exact_bounds":
        tv = _number(outputs["tv"]["stdout"], "tv")
        lb_step = spec["steps"][1]["name"]
        risk_lb = _number(outputs[lb_step]["stdout"], "risk_lb")
        # Minimax risk >= 1 - TV >= 1 - sqrt(chi^2)/2 = risk_lb.
        if tv is None or risk_lb is None or not 0.0 <= tv <= 1.0 or 1.0 - tv < risk_lb - 1e-12:
            bad.append("tv")
    return bad
