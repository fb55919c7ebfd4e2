"""One benchmark repetition in a fresh interpreter.

Usage: python3 child.py JOB.json RESULT.json SPAWN_TIME  (run with the work
directory as the current directory).

Set-up is interpreter start plus package import plus parser build, measured
from SPAWN_TIME, the wall-clock time the parent stamped just before it
started this process.  The steps then run in-process through
`cli.dispatch`, exactly as the `planted-bipartite` entry point runs them, or
as direct library calls.  With tracing on, `spans.Tracer` wraps the layer
boundaries first.  Peak RSS is this process's own `ru_maxrss`.

Just before and just after the steps, `_probe` times a fixed loop of pure
Python and small numpy operations.  The mean of the two tracks how fast the
shared host ran this process meanwhile, and the parent scales the
repetition's times by it.
"""

import contextlib
import hashlib
import io
import json
import resource
import sys
import time


def _run_step(step, cli, lower_bound, bk, ProblemShape):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if step["kind"] == "cli":
            rc = cli.dispatch(step["argv"])
        elif step["kind"] == "tv":
            tv = lower_bound.tv_exact(ProblemShape(*step["shape"]), step["p0"], step["delta"])
            print(f"tv {tv:.17g}")
            rc = 0
        elif step["kind"] == "moments":
            for n in step["ns"]:
                kernel = bk.BennettKernel(n, step["p0"])
                for tau in step["taus"]:
                    print(f"{n} {tau:.17g} {bk.nu(tau, kernel):.17g} {bk.gamma(tau, kernel):.17g}")
            rc = 0
        else:
            raise ValueError(f"unknown step kind {step['kind']!r}")
    files = {}
    for name in step.get("files", ()) if rc == 0 else ():
        with open(name, "rb") as fh:
            data = fh.read()
        files[name] = {"sha256": hashlib.sha256(data).hexdigest(),
                       "text": data.decode("ascii") if len(data) <= 16384 else None}
    return {"name": step["name"], "rc": rc,
            "stdout": out.getvalue(), "stderr": err.getvalue(), "files": files}


def _probe(numpy) -> float:
    """Seconds a fixed, program-independent loop takes; it allocates only a
    256 KiB array, so it leaves peak RSS unchanged."""
    start = time.perf_counter()
    acc = 0
    for i in range(1_500_000):
        acc += i * i % 7
    a = numpy.ones(32768)
    for _ in range(3000):
        a = a * 1.0000001 + 0.5
    return time.perf_counter() - start


def main(job_path, result_path, spawn_time):
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    sys.path.insert(0, job["src"])
    from planted_bipartite import binomial_kernel as bk
    from planted_bipartite import cli, lower_bound
    from planted_bipartite.graph_model import ProblemShape

    cli.build_parser()
    setup_s = time.time() - spawn_time
    import numpy
    import scipy

    probe_before = _probe(numpy)
    tracer = None
    if job["trace"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    start = time.perf_counter()
    steps = [_run_step(s, cli, lower_bound, bk, ProblemShape) for s in job["steps"]]
    run_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    probe_after = _probe(numpy)  # after the steps and the peak RSS reading
    result = {"setup_s": setup_s, "run_s": run_s, "peak_rss_mb": peak_rss_mb,
              "probe_s": (probe_before + probe_after) / 2, "steps": steps}
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.layer_metrics(run_s, job["trials"])
        result["nesting_errors"] = tracer.nesting_errors()
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy < 2 has no mode argument
        blas = "unknown"
    result["versions"] = {"numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas}
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2], float(sys.argv[3]))
