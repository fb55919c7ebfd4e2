"""Benchmark of the planted-bipartite toolkit: end-to-end CLI runs plus
per-layer traced timings.

Run one workload (from the root of a checkout that holds `src/`):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
        [--out RESULTS.jsonl] [--smoke]

Compare two result files written with --out:

    python3 perfbench/run.py --compare OLD.jsonl NEW.jsonl

Record reference output digests for a range of seeds, after a change that
is meant to alter outputs:

    python3 perfbench/run.py --record-reference 0-15

Workloads are defined in `workloads.py`.  Every repetition runs in a fresh
interpreter (`child.py`), so its peak RSS belongs to that repetition alone;
BLAS runs single-threaded.  A run first makes one untimed repetition to warm
the bytecode and page caches, then repeats the workload for --seconds (at
least three times), starting no repetition that would end past that time.
Set-up time is measured in every repetition.

With --trace 0 the run reports the end-to-end metrics: medians over the
repetitions.  The host is shared and its speed drifts by up to a third over
minutes, for every program alike, so `run_s` and `setup_s` are wall times
scaled to a nominal host speed: each repetition's times are multiplied by
PROBE_NOMINAL_S over the mean time of the probes that bracket its steps
(see `child.py`), and the scaled values' median is reported.  The unscaled
wall-time medians are printed and recorded as `wall_s` and `setup_wall_s`.
With --trace 1 it alternates untraced repetitions with repetitions traced
by `spans.py`, and reports the per-layer metrics (medians over traced
repetitions, unscaled) plus the tracing overhead.

Which end-to-end metric each per-layer metric should move, and where:

    rng.uniforms_s, rng.cells, rng.cells_per_s   run_s: power_sweep, observed_graph
    rng.subset_s, rng.subsets                    run_s: power_sweep only
    detectors.statistic_s, .statistic_trials,
      .trials_per_s                              run_s: scan_calibrate
    detectors.calibrations, .calibration_s,
      .calibration_useful_ratio, harness.*       run_s: power_sweep
    detectors.chunk_bytes_max                    peak_rss_mb: observed_graph
    lower_bound.*, binomial_kernel.*, rates.*    run_s: exact_bounds
    graph_model.io_s, .io_bytes, cli.self_s      run_s, setup_s: observed_graph

On scan_calibrate, chunk_bytes_max sees only the small bits array: the
(chunk, subsets, n2) count tensor that sets its peak RSS is built inside the
statistic, below any boundary.

Correctness: every step must exit 0; all repetitions of a run must give
identical outputs, traced or not; outputs must match `reference.json` when
it holds the seed; the invariants in `workloads.check` must hold; spans must
nest; counts must repeat exactly across traced repetitions (and `--compare`
marks counts that differ between runs).  Each failure counts as a failed
operation; `failed_ratio` is printed in the report.  The last line of
standard output is the JSON result; the exit code is 0 only when the result
is correct.

Tests of the benchmark itself: python3 -m pytest perfbench -q
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
WORK_ROOT = ROOT / ".perfbench_work"

MIN_REPS = 3
CHILD_TIMEOUT_S = 150
CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
COUNT_UNITS = {"count", "bytes", "ratio"}
# The probe's time on a 2-vCPU Xeon (Sapphire Rapids) virtual machine at its
# usual speed; scaled times are wall times at that speed.
PROBE_NOMINAL_S = 0.25


class BenchError(Exception):
    """The benchmark cannot run at all; no result is printed."""


def _load_bench() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path.name} not found at the checkout root")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _child(work: Path, job: dict) -> tuple[dict | None, str]:
    """Run one child interpreter; returns (result or None, error text)."""
    job_path, result_path = work / "job.json", work / "result.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    result_path.unlink(missing_ok=True)
    env = dict(os.environ, **CHILD_ENV)
    argv = [sys.executable, str(HERE / "child.py"), job_path.name, result_path.name]
    try:
        proc = subprocess.run(
            argv + [repr(time.time())], cwd=work, env=env, timeout=CHILD_TIMEOUT_S,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
    except subprocess.TimeoutExpired:
        return None, f"child exceeded {CHILD_TIMEOUT_S} s"
    if proc.returncode != 0 or not result_path.is_file():
        return None, proc.stderr.strip()[-2000:]
    return json.loads(result_path.read_text(encoding="utf-8")), ""


def _step_digests(result: dict) -> dict[str, str]:
    digests = {}
    for step in result["steps"]:
        h = hashlib.sha256(step["stdout"].encode())
        for name in sorted(step["files"]):
            h.update(f"\n{name} {step['files'][name]['sha256']}".encode())
        digests[step["name"]] = h.hexdigest()
    return digests


def _load_reference() -> dict:
    if not REFERENCE.is_file():
        return {}
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


class Run:
    """One workload run: its repetitions, failures and samples."""

    def __init__(self, name: str, seed: int, smoke: bool, work: Path, count_names=()):
        self.name, self.work, self.count_names = name, work, set(count_names)
        self.spec = workloads.build(name, seed, smoke)
        for fname, text in self.spec["inputs"].items():
            (work / fname).write_text(text, encoding="ascii")
        self.job = {"src": str(SRC), "steps": self.spec["steps"],
                    "trials": self.spec["trials"], "trace": False}
        ref = {} if smoke else _load_reference().get(name, {})
        self.reference = ref.get(str(seed))
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.first_digests: dict[str, str] | None = None
        self.first_counts: dict | None = None
        self.setup: list[float] = []  # scaled to PROBE_NOMINAL_S
        self.setup_wall: list[float] = []
        self.untraced: list[dict] = []
        self.traced: list[dict] = []
        self.versions: dict = {}

    def _fail(self, n: int, why: str) -> None:
        self.failed += n
        if len(self.errors) < 20:
            self.errors.append(why)

    def warm_up(self) -> None:
        """One checked but untimed repetition: it compiles bytecode and lets
        the page cache and the kernel's free page pool settle, which the
        first repetition otherwise pays for."""
        self.repeat(False)
        self.setup.clear()
        self.setup_wall.clear()
        self.untraced.clear()

    def repeat(self, trace: bool) -> None:
        steps = self.spec["steps"]
        self.attempted += len(steps)
        result, err = _child(self.work, dict(self.job, trace=trace))
        if result is None:
            self._fail(len(steps), f"child failed: {err}")
            return
        self.setup.append(result["setup_s"] * PROBE_NOMINAL_S / result["probe_s"])
        self.setup_wall.append(result["setup_s"])
        self.versions = result["versions"]
        digests = _step_digests(result)
        if self.first_digests is None:
            self.first_digests = digests
        outputs = {s["name"]: s for s in result["steps"]}
        broken = set()
        if all(s["rc"] == 0 for s in result["steps"]):
            broken = set(workloads.check(self.name, self.spec, outputs))
        for step in result["steps"]:
            name = step["name"]
            why = None
            if step["rc"] != 0:
                why = f"exit {step['rc']}: {step['stderr'].strip()}"
            elif digests[name] != self.first_digests[name]:
                why = "output differs from the first repetition"
            elif self.reference is not None and digests[name] != self.reference.get(name):
                why = "output differs from reference.json"
            elif name in broken:
                why = "invariant broken"
            if why:
                self._fail(1, f"{self.name}/{name}: {why}")
        if trace:
            self.attempted += 1
            layers = result["layers"]
            counts = {k: v for k, v in layers.items() if k in self.count_names}
            if self.first_counts is None:
                self.first_counts = counts
            if result["nesting_errors"]:
                self._fail(1, f"{result['nesting_errors']} spans do not nest")
            elif counts != self.first_counts:
                self._fail(1, f"counts differ between traced repetitions: {counts}")
            self.traced.append(result)
        else:
            self.untraced.append(result)


def run_workload(args, bench: dict) -> tuple[dict, dict]:
    """Execute one run; returns (result line, full record)."""
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT))
    try:
        counts = [m["name"] for m in bench["per_layer"] if m["unit"] in COUNT_UNITS]
        run = Run(args.workload, args.seed, args.smoke, work, counts)
        run.warm_up()
        deadline = time.monotonic() + args.seconds
        # With tracing, alternate untraced and traced repetitions so that
        # both see the same machine state; at least two of each.
        pattern = [False, True] if args.trace else [False]
        # Start a repetition only if a typical one ends by the deadline, so a
        # run lasts --seconds after warm-up and does not overrun it.
        took: list[float] = []
        while (len(took) < max(MIN_REPS, 2 * len(pattern))
               or time.monotonic() + statistics.median(took) <= deadline):
            start = time.monotonic()
            run.repeat(pattern[len(took) % len(pattern)])
            took.append(time.monotonic() - start)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()  # only when no other run is using it

    samples: dict[str, list[float]] = {}
    wall = [r["run_s"] for r in run.untraced]
    run_s = [r["run_s"] * PROBE_NOMINAL_S / r["probe_s"] for r in run.untraced]
    if not args.trace:
        samples["run_s"] = run_s
        samples["setup_s"] = run.setup
        samples["wall_s"] = wall
        samples["setup_wall_s"] = run.setup_wall
        samples["probe_s"] = [r["probe_s"] for r in run.untraced]
        samples["peak_rss_mb"] = [r["peak_rss_mb"] for r in run.untraced]
        samples["trials_per_s"] = [run.spec["work"] / t for t in run_s]
        wanted = bench["end_to_end"]
    else:
        for r in run.traced:
            for k, v in r["layers"].items():
                samples.setdefault(k, []).append(v)
        samples["trace.run_s"] = [r["run_s"] for r in run.traced]
        wanted = bench["per_layer"]
    metrics = {}
    missing = []
    for m in wanted:
        values = samples.get(m["name"])
        if m["name"] == "trace.overhead_s" and run.traced and wall:
            # Unscaled, like trace.run_s and the layer times.
            value = statistics.median(samples["trace.run_s"]) - statistics.median(wall)
        elif m["name"] == "trials_per_s" and run_s:
            # Work per second at the median run time, not a median of rates.
            value = run.spec["work"] / statistics.median(run_s)
        elif values and m["unit"] in COUNT_UNITS:
            value = statistics.median_low(values)  # one of the (equal) counts
        elif values:
            value = statistics.median(values)
        else:
            missing.append(m["name"])
            continue
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    run.attempted += 1
    if missing:
        run._fail(1, f"metrics not measured: {', '.join(missing)}")

    attempted = max(run.attempted, 1)
    result = {
        "correct": run.failed == 0,
        "attempted": attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "smoke": args.smoke,
        **result,
        "failed_ratio": run.failed / attempted,
        "errors": run.errors,
        "samples": samples,
        "env": _environment(run.versions),
    }
    return result, record


def _git_sha() -> str:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cache_bytes(level: str) -> int | None:
    try:
        out = subprocess.run(["getconf", f"LEVEL{level}_CACHE_SIZE"], capture_output=True,
                             text=True, timeout=10)
        return int(out.stdout.strip())
    except (OSError, ValueError, subprocess.TimeoutExpired):
        return None


def _environment(versions: dict) -> dict:
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        **versions,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": int(CHILD_ENV["OPENBLAS_NUM_THREADS"]),
        "l2_bytes": _cache_bytes("2"),
        "l3_bytes": _cache_bytes("3"),
    }


def _print_report(record: dict) -> None:
    print(f"workload {record['workload']} seed {record['seed']} trace {record['trace']}")
    for name, m in record["metrics"].items():
        line = f"  {name:36s} {m['value']:.6g} {m['unit']}"
        values = record["samples"].get(name)
        if values:
            q1, med, q3 = _quartiles(values)
            line += f"   (n={len(values)}, median {med:.6g}, quartiles {q1:.6g} .. {q3:.6g})"
        if name == "detectors.chunk_bytes_max":
            env = record["env"]
            line += f"   (L2 {env['l2_bytes']} bytes, L3 {env['l3_bytes']} bytes)"
        print(line)
    for name in ("wall_s", "setup_wall_s", "probe_s"):
        if record["samples"].get(name):
            q1, med, q3 = _quartiles(record["samples"][name])
            print(f"  {name:36s} {med:.6g} s   (unscaled; quartiles {q1:.6g} .. {q3:.6g})")
    print(f"  {'failed_ratio':36s} {record['failed_ratio']:.6g} ratio"
          f"   ({record['failed']} of {record['attempted']} operations)")
    for err in record["errors"]:
        print(f"  error: {err}")
    print("env " + json.dumps(record["env"], sort_keys=True))


def compare(old_path: str, new_path: str, bench: dict) -> int:
    """Print each side's median and quartiles per workload and metric; mark
    end-to-end metrics that worsened beyond their bound or whose spread
    exceeds it, and counts that do not repeat within one side.  Returns 1 if
    anything is marked."""
    sides = []
    for path in (old_path, new_path):
        with open(path, encoding="utf-8") as fh:
            sides.append([json.loads(line) for line in fh if line.strip()])
    defs = [(m, True) for m in bench["end_to_end"]] + [(m, False) for m in bench["per_layer"]]
    marked = 0
    for side, path in zip(sides, (old_path, new_path)):
        bad = [r for r in side if not r["correct"]]
        if bad:
            marked += 1
            print(f"INCORRECT: {len(bad)} run(s) in {path} failed their correctness checks")
    print(f"{'workload':16s} {'metric':34s} {'unit':6s} "
          f"{'old median [q1, q3] n':34s} {'new median [q1, q3] n':34s} change")
    for workload in sorted({r["workload"] for side in sides for r in side}):
        for m, end_to_end in defs:
            cols = []
            for side in sides:
                values = [r["metrics"][m["name"]]["value"] for r in side
                          if r["workload"] == workload and m["name"] in r["metrics"]]
                cols.append(values)
            if not all(cols):
                continue
            (q1a, a, q3a), (q1b, b, q3b) = _quartiles(cols[0]), _quartiles(cols[1])
            change = (b - a) / abs(a) if a else 0.0
            flag = ""
            if end_to_end:
                worse = change if m["better"] == "lower" else -change
                spread = max((q3a - q1a) / abs(a) if a else 0.0, (q3b - q1b) / abs(b) if b else 0.0)
                if worse > m["bound"]:
                    flag = f"WORSE (bound {m['bound']:.0%})"
                elif spread > m["bound"]:
                    flag = f"UNRESOLVED (spread {spread:.0%} > bound {m['bound']:.0%})"
            elif m["unit"] in COUNT_UNITS and any(len(set(v)) > 1 for v in cols):
                flag = "UNSTEADY count"
            marked += bool(flag)
            print(f"{workload:16s} {m['name']:34s} {m['unit']:6s} "
                  f"{f'{a:.5g} [{q1a:.5g}, {q3a:.5g}] {len(cols[0])}':34s} "
                  f"{f'{b:.5g} [{q1b:.5g}, {q3b:.5g}] {len(cols[1])}':34s} "
                  f"{change:+.1%} {flag}")
    return 1 if marked else 0


def record_reference(seeds: str) -> int:
    lo, _, hi = seeds.partition("-")
    reference = _load_reference()
    WORK_ROOT.mkdir(exist_ok=True)
    for name in workloads.NAMES:
        for seed in range(int(lo), int(hi or lo) + 1):
            work = Path(tempfile.mkdtemp(prefix="ref-", dir=WORK_ROOT))
            try:
                run = Run(name, seed, False, work)
                run.reference = None
                run.repeat(False)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            if run.failed:
                print(f"{name} seed {seed}: not recorded: {run.errors}", file=sys.stderr)
                return 1
            reference.setdefault(name, {})[str(seed)] = run.first_digests
            print(f"{name} seed {seed}: recorded")
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="ascii")
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=workloads.NAMES)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's tests")
    p.add_argument("--out", help="append the full record of this run to this JSON-lines file")
    p.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    p.add_argument("--record-reference", metavar="LO-HI")
    args = p.parse_args(argv)
    try:
        bench = _load_bench()
        if args.compare:
            return compare(*args.compare, bench)
        if not (SRC / "planted_bipartite" / "cli.py").is_file():
            raise BenchError(f"{SRC / 'planted_bipartite'} not found; run from a full checkout")
        if args.record_reference:
            return record_reference(args.record_reference)
        if args.workload is None:
            p.error("--workload is required")
        result, record = run_workload(args, bench)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    _print_report(record)
    if args.out:
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
