"""Every function the benchmark tracer wraps still exists in the package,
and the tracer runs on the package.

`perfbench/spans.py` lists its traced functions by module and name; a
renamed or deleted one breaks `perfbench/run.py --trace 1`, and so does a
renamed parameter that its counters read by name.  spans.py imports only
the standard library, so it is loaded here by file path.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

_SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", _SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_spans = _load_spans()
_PACKAGE, _BOUNDARIES = _spans.PACKAGE, _spans.BOUNDARIES


@pytest.mark.parametrize("home,name", [(home, name) for _, home, name in _BOUNDARIES],
                         ids=[f"{home}.{name}" for _, home, name in _BOUNDARIES])
def test_boundary_resolves(home, name):
    assert callable(getattr(importlib.import_module(f"{_PACKAGE}.{home}"), name))


def test_tracer_counts_every_layer(tmp_path, monkeypatch):
    """A tiny run of each traced path: every counter the tracer keeps moves,
    and every span nests inside its parent."""
    from planted_bipartite import cli, harness, lower_bound
    from planted_bipartite.detectors import DetectorKind, DetectorTag, ThresholdMode, ThresholdSpec
    from planted_bipartite.graph_model import ProblemShape

    monkeypatch.chdir(tmp_path)
    shape = ["--n1", "6", "--n2", "6", "--k1", "2", "--k2", "2", "--p0", "0.25"]
    cfg = harness.ExperimentConfig(
        shape=ProblemShape(6, 6, 2, 2), p0=0.25, delta_grid=(0.3,),
        detector=DetectorKind(DetectorTag.TOTAL_DEGREE),
        threshold=ThresholdSpec(ThresholdMode.CALIBRATED, alpha=0.1, trials=100, seed=1),
        trials=100, seed=1,
    )
    tracer = _spans.Tracer()
    tracer.install()
    try:
        codes = [cli.dispatch(argv) for argv in (
            ["gen", *shape, "--delta", "0.5", "--seed", "1", "--out", "m.txt"],
            ["stat", "m.txt", "--p0", "0.25", "--detector", "TRUNC_DEGREE_AXIS1", "--tau", "1"],
            ["calibrate", *shape, "--detector", "TOTAL_DEGREE", "--trials", "100", "--seed", "1"],
            ["lb", "--n1", "2", "--n2", "2", "--k1", "1", "--k2", "1", "--p0", "0.25",
             "--delta", "0.25"],
        )]
        harness.estimate_risk(cfg, 0.3)
        lower_bound.tv_exact(ProblemShape(2, 2, 1, 1), 0.25, 0.25)
    finally:
        tracer.uninstall()
    assert codes == [0, 0, 0, 0]
    assert all(count > 0 for count in tracer.counts.values()), tracer.counts
    assert tracer.nesting_errors() == 0
