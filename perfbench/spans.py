"""Span tracing at the package's layer boundaries, from outside the package.

`Tracer.install` wraps each boundary function listed in `BOUNDARIES` and
rebinds every name under which a package module refers to it (for example
both `harness.batch_cell_uniforms` and `detectors.batch_cell_uniforms`), so
calls between modules pass through the wrapper.  Each span records layer,
function name, start, end and the index of its parent span; spans stay in
memory until `layer_metrics` reduces them.  Nothing in the package changes.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import os
import time

PACKAGE = "planted_bipartite"
LAYERS = (
    "cli", "harness", "detectors", "rng", "graph_model",
    "binomial_kernel", "rates", "lower_bound",
)

# (layer, home module, function) for every traced boundary function.
BOUNDARIES = (
    ("cli", "cli", "dispatch"),
    ("harness", "harness", "power_sweep"),
    ("harness", "harness", "estimate_risk"),
    ("harness", "harness", "_null_reject_count"),
    ("harness", "harness", "_planted_accept_count"),
    ("harness", "harness", "result_rows"),
    ("harness", "harness", "emit_results"),
    ("harness", "harness", "phase_diagram"),
    ("detectors", "detectors", "resolve_threshold"),
    ("detectors", "detectors", "calibrate_threshold"),
    ("detectors", "detectors", "null_statistics"),
    ("detectors", "detectors", "statistic"),
    ("detectors", "detectors", "_batch_statistic"),
    ("rng", "rng", "batch_cell_uniforms"),
    ("rng", "rng", "cell_uniforms"),
    ("rng", "rng", "sample_subset"),
    ("graph_model", "graph_model", "sample_null"),
    ("graph_model", "graph_model", "sample_planted_uniform_support"),
    ("graph_model", "graph_model", "read_matrix"),
    ("graph_model", "graph_model", "write_matrix"),
    ("binomial_kernel", "binomial_kernel", "w_stat"),
    ("binomial_kernel", "binomial_kernel", "z_threshold_to_count"),
    ("binomial_kernel", "binomial_kernel", "nu"),
    ("binomial_kernel", "binomial_kernel", "gamma"),
    ("binomial_kernel", "binomial_kernel", "binomial_tail"),
    ("rates", "rates", "rate_bundle"),
    ("rates", "rates", "log_binom"),
    ("rates", "rates", "delta_star_bounds"),
    ("lower_bound", "lower_bound", "second_moment_summary"),
    ("lower_bound", "lower_bound", "second_moment_exact"),
    ("lower_bound", "lower_bound", "second_moment_exp_bounds"),
    ("lower_bound", "lower_bound", "risk_lower_bound"),
    ("lower_bound", "lower_bound", "tv_exact"),
)

_UNIFORMS = {"batch_cell_uniforms", "cell_uniforms"}
_IO = {"read_matrix", "write_matrix"}
_SECOND_MOMENT = {"second_moment_exact", "second_moment_exp_bounds"}
_COUNTED = {
    "batch_cell_uniforms", "cell_uniforms", "sample_subset", "_batch_statistic",
    "calibrate_threshold", "estimate_risk", "tv_exact", "second_moment_exact",
} | _IO


class Tracer:
    """Records spans and boundary counts for one traced computation."""

    def __init__(self):
        self.spans: list[list] = []  # [layer, name, start, end, parent index]
        self._stack: list[int] = []
        self._restore: list[tuple] = []
        self.counts = {
            "rng.cells": 0,
            "rng.subsets": 0,
            "detectors.statistic_trials": 0,
            "detectors.chunk_bytes_max": 0,
            "detectors.calibrations": 0,
            "harness.risk_calls": 0,
            "graph_model.io_bytes": 0,
            "lower_bound.tv_matrices": 0,
            "lower_bound.second_moment_calls": 0,
        }
        self._calibration_keys: set[str] = set()

    def install(self) -> None:
        modules = [importlib.import_module(PACKAGE)] + [
            importlib.import_module(f"{PACKAGE}.{name}") for name in LAYERS
        ]
        for layer, home, name in BOUNDARIES:
            original = getattr(importlib.import_module(f"{PACKAGE}.{home}"), name)
            wrapper = self._wrap(layer, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._restore.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    def _wrap(self, layer: str, fn):
        name = fn.__name__
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [layer, name, 0.0, None, self._stack[-1] if self._stack else -1]
            self.spans.append(span)
            self._stack.append(index)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self._stack.pop()
            if name in _COUNTED:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self._count(name, bound.arguments)
            return result

        return traced

    def _count(self, name: str, a: dict) -> None:
        c = self.counts
        if name == "batch_cell_uniforms":
            c["rng.cells"] += len(a["seeds"]) * a["n1"] * a["n2"]
        elif name == "cell_uniforms":
            c["rng.cells"] += a["n1"] * a["n2"]
        elif name == "sample_subset":
            c["rng.subsets"] += 1
        elif name == "_batch_statistic":
            c["detectors.statistic_trials"] += a["bits"].shape[0]
            c["detectors.chunk_bytes_max"] = max(c["detectors.chunk_bytes_max"], a["bits"].nbytes)
        elif name == "calibrate_threshold":
            c["detectors.calibrations"] += 1
            self._calibration_keys.add(repr(sorted(a.items())))
        elif name == "estimate_risk":
            c["harness.risk_calls"] += 1
        elif name in _IO:
            c["graph_model.io_bytes"] += os.path.getsize(a["path"])
        elif name == "tv_exact":
            shape = a["shape"]
            supports = math.comb(shape.n1, shape.k1) * math.comb(shape.n2, shape.k2)
            c["lower_bound.tv_matrices"] += (1 << (shape.n1 * shape.n2)) * (1 + supports)
        elif name == "second_moment_exact":
            c["lower_bound.second_moment_calls"] += 1

    def nesting_errors(self) -> int:
        """Spans that are unfinished or not inside their parent's interval."""
        bad = 0
        for _, _, start, end, parent in self.spans:
            if end is None or end < start:
                bad += 1
            elif parent >= 0:
                p = self.spans[parent]
                if p[3] is None or not (p[2] <= start and end <= p[3]):
                    bad += 1
        return bad

    def layer_metrics(self, run_s: float, trials_requested: int) -> dict[str, float]:
        """Reduce spans and counts to the per-layer metrics."""
        n = len(self.spans)
        duration = [s[3] - s[2] for s in self.spans]
        child_time = [0.0] * n
        for i, s in enumerate(self.spans):
            if s[4] >= 0:
                child_time[s[4]] += duration[i]
        self_time = {layer: 0.0 for layer in LAYERS}
        calls = {layer: 0 for layer in LAYERS}
        by_name: dict[str, float] = {}
        self_by_name: dict[str, float] = {}
        top_level = 0.0
        for i, (layer, name, _, _, parent) in enumerate(self.spans):
            own = duration[i] - child_time[i]
            self_time[layer] += own
            by_name[name] = by_name.get(name, 0.0) + duration[i]
            self_by_name[name] = self_by_name.get(name, 0.0) + own
            if parent < 0:
                top_level += duration[i]
            if parent < 0 or self.spans[parent][0] != layer:
                calls[layer] += 1

        c = self.counts
        uniforms_s = sum(self_by_name.get(k, 0.0) for k in _UNIFORMS)
        statistic_s = self_by_name.get("_batch_statistic", 0.0)
        evaluated = c["detectors.statistic_trials"]
        calibrations = c["detectors.calibrations"]
        return {
            "rng.uniforms_s": uniforms_s,
            "rng.cells": c["rng.cells"],
            "rng.cells_per_s": c["rng.cells"] / uniforms_s if uniforms_s else 0.0,
            "rng.subset_s": self_by_name.get("sample_subset", 0.0),
            "rng.subsets": c["rng.subsets"],
            "rng.self_s": self_time["rng"],
            "detectors.statistic_s": statistic_s,
            "detectors.statistic_trials": evaluated,
            "detectors.trials_per_s": evaluated / statistic_s if statistic_s else 0.0,
            "detectors.calibrations": calibrations,
            "detectors.calibrations_distinct": len(self._calibration_keys),
            "detectors.calibration_s": by_name.get("calibrate_threshold", 0.0),
            "detectors.calibration_useful_ratio": (
                len(self._calibration_keys) / calibrations if calibrations else 0.0
            ),
            "detectors.chunk_bytes_max": c["detectors.chunk_bytes_max"],
            "detectors.self_s": self_time["detectors"],
            "harness.self_s": self_time["harness"],
            "harness.risk_calls": c["harness.risk_calls"],
            "harness.trials_requested": trials_requested,
            "harness.useful_trial_ratio": trials_requested / evaluated if evaluated else 0.0,
            "lower_bound.tv_s": self_by_name.get("tv_exact", 0.0),
            "lower_bound.tv_matrices": c["lower_bound.tv_matrices"],
            "lower_bound.second_moment_s": sum(
                self_by_name.get(k, 0.0) for k in _SECOND_MOMENT
            ),
            "lower_bound.second_moment_calls": c["lower_bound.second_moment_calls"],
            "lower_bound.self_s": self_time["lower_bound"],
            "binomial_kernel.calls": calls["binomial_kernel"],
            "binomial_kernel.s": self_time["binomial_kernel"],
            "rates.calls": calls["rates"],
            "rates.s": self_time["rates"],
            "graph_model.io_s": sum(self_by_name.get(k, 0.0) for k in _IO),
            "graph_model.io_bytes": c["graph_model.io_bytes"],
            "graph_model.self_s": self_time["graph_model"],
            "cli.self_s": self_time["cli"],
            "trace.spans": n,
            "trace.unaccounted_s": run_s - top_level,
        }
