"""Command-line interface.

Subcommands: gen, stat, calibrate, risk, rates, lb, sweep, phase.  Each
takes only the rate constants it reads: rates and phase take --c-phi,
calibrate adds --c1 and --C-tau (the composite detector's dispatch), and
risk and sweep add --C-star and --c-prime (the analytic thresholds).  From
flags, risk and sweep calibrate on --trials null trials, at least 100,
seeded by --seed.  `sweep --config` reads the experiment from a JSON file
alone: only --seed, which replaces the config's `seed`, and --out may be
given beside it; _CONFIG_SCHEMA lists every config key, its JSON kind and
default, and its numbers are read as floats.  The tau, scan size
(`stat --k1`, `detector.k_scan`, or from flags --k1 on axis 1 and --k2 on
axis 2) and subset budget given go to DetectorKind, which refuses one that
no statistic reads.  gen, calibrate and risk require --seed, `gen --null`
refuses --delta, and the streams reject a seed outside [0, 2^64).  Exit
codes: 0 success, 1 usage error, 2 budget exceeded or out of memory (a
MemoryError, also one raised in a worker of a split pass), 3 I/O error,
each reported as one JSON line on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import json
import sys

from . import lower_bound
from .detectors import (
    _MAX_TAGS,
    _TRUNC_TAGS,
    DetectorKind,
    DetectorTag,
    ThresholdMode,
    ThresholdSpec,
    calibrate_threshold,
    statistic,
)
from .errors import (
    BudgetError,
    ConfigError,
    FormatError,
    ParameterError,
    PlantedBipartiteError,
)
from .graph_model import (
    ProblemShape,
    SignalConfig,
    read_matrix,
    sample_null,
    sample_planted_uniform_support,
    write_matrix,
)
from .harness import (
    ExperimentConfig,
    _fmt,
    emit_results,
    phase_diagram,
    power_sweep,
    result_rows,
)
from .rates import RateConstants, rate_bundle

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BUDGET = 2
EXIT_IO = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ParameterError(message)


class _Given(argparse.Action):
    """The store action, which also records the flag in `given`: a flag
    given at its default value still counts as given."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace.given = getattr(namespace, "given", ()) + (self.option_strings[0],)


def _add_shape_flags(p, required=True):
    p.add_argument("--n1", type=int, required=required)
    p.add_argument("--n2", type=int, required=required)
    p.add_argument("--k1", type=int)
    p.add_argument("--k2", type=int)


# The CLI flag of each RateConstants field that some command reads: phi
# reads C_phi, the composite detector's dispatch reads c1 and C_tau, and the
# analytic thresholds read C_star and c_prime.  A JSON config's `consts`
# block takes the same names.
_CONST_FLAGS = {
    "C_phi": "--c-phi", "c1": "--c1", "C_tau": "--C-tau", "C_star": "--C-star",
    "c_prime": "--c-prime",
}
_RATE_CONSTS = ("C_phi",)
_DISPATCH_CONSTS = _RATE_CONSTS + ("c1", "C_tau")
_RISK_CONSTS = tuple(_CONST_FLAGS)


def _add_const_flags(p, names):
    d = RateConstants()
    for name in names:
        p.add_argument(_CONST_FLAGS[name], dest=name, type=float, default=getattr(d, name))


def _consts_from(args) -> RateConstants:
    return RateConstants(**{name: getattr(args, name) for name in _CONST_FLAGS if name in args})


def _add_trial_flags(p, trials, required=True, risk=True):
    """Flags of the Monte Carlo subcommands, with --p0 and --seed `required`
    unless a config may give them; `risk` adds those of risk estimation (the
    threshold mode and the analytic threshold constants)."""
    p.add_argument("--p0", type=float, required=required)
    p.add_argument("--alpha", type=float, default=0.1)
    p.add_argument("--trials", type=int, default=trials)
    p.add_argument("--seed", type=int, required=required)
    p.add_argument("--detector", default="DELTA_STAR")
    p.add_argument("--tau", type=float)
    p.add_argument("--budget", type=int)
    p.add_argument("--out")
    _add_const_flags(p, _RISK_CONSTS if risk else _DISPATCH_CONSTS)
    if risk:
        p.add_argument("--threshold-mode", dest="threshold_mode", default="CALIBRATED",
                       choices=["CALIBRATED", "ANALYTIC"])


def _number_list(kind):
    """argparse type for comma-separated values of `kind`; a malformed
    value is a usage error."""
    def parse(text):
        return [kind(tok) for tok in text.split(",") if tok]

    parse.__name__ = f"comma-separated {kind.__name__}"
    return parse


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process: each parse
    starts from a fresh namespace, so nothing of one parse reaches the
    next."""
    parser = _Parser(prog="planted-bipartite", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="sample a matrix and write it in text format")
    _add_shape_flags(g)
    signal = g.add_mutually_exclusive_group()
    signal.add_argument("--null", action="store_true", help="sample the null model")
    g.add_argument("--p0", type=float, required=True)
    signal.add_argument("--delta", type=float, default=0.0)
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--out", required=True)

    s = sub.add_parser("stat", help="evaluate a statistic on a matrix file")
    s.add_argument("matrix", help="path to a matrix in the text format")
    s.add_argument("--p0", type=float, required=True)
    s.add_argument("--detector", default="TOTAL_DEGREE")
    s.add_argument("--tau", type=float)
    s.add_argument("--k1", type=int, help="scan size for max tests on either axis")
    s.add_argument("--budget", type=int)
    s.add_argument("--out")

    c = sub.add_parser("calibrate", help="empirical null quantile threshold")
    _add_shape_flags(c)
    _add_trial_flags(c, trials=10_000, risk=False)

    r = sub.add_parser("risk", help="Monte Carlo risk at one signal level")
    _add_shape_flags(r)
    r.add_argument("--delta", type=float, required=True, help="signal level (single value)")
    _add_trial_flags(r, trials=1000)

    ra = sub.add_parser("rates", help="rate components, R, R_tilde, branch")
    _add_shape_flags(ra)
    ra.add_argument("--out")
    _add_const_flags(ra, _RATE_CONSTS)

    lb = sub.add_parser("lb", help="second-moment lower bound quantities")
    _add_shape_flags(lb)
    lb.add_argument("--p0", type=float, required=True)
    lb.add_argument("--delta", type=float, required=True)
    lb.add_argument("--out")

    sw = sub.add_parser("sweep", help="risk over a delta grid (flags or --config)")
    sw.register("action", None, _Given)
    _add_shape_flags(sw, required=False)
    sw.add_argument("--config", help="JSON experiment config")
    sw.add_argument("--delta", type=_number_list(float),
                    help="comma-separated grid of signal levels")
    _add_trial_flags(sw, trials=1000, required=False)

    ph = sub.add_parser("phase", help="rate bundles over a shape grid")
    for flag in ("--n1", "--n2", "--k1", "--k2"):
        ph.add_argument(flag, type=_number_list(int), required=True, help="comma-separated values")
    ph.add_argument("--out")
    _add_const_flags(ph, _RATE_CONSTS)
    return parser


def _detector_kind(name: str, tau: tuple, scans: dict, budget) -> DetectorKind:
    """Detector `name` within subset `budget`; `tau` is the truncation level
    and the option or key naming it, and `scans` maps a tag to its scan size
    and the option or key naming it.  DetectorKind gets all three values as
    given and refuses a tau, k_scan or budget that the tag's statistic does
    not read."""
    try:
        tag = DetectorTag[name.upper().replace("-", "_")]
    except KeyError:
        raise ParameterError(f"unknown detector {name!r}") from None
    tau, tau_source = tau
    k_scan, source = scans.get(tag, (None, None))
    if tau is None and tag in _TRUNC_TAGS:
        raise ParameterError(f"detector {tag.value} requires {tau_source}")
    if k_scan is None and tag in _MAX_TAGS:
        raise ParameterError(f"detector {tag.value} requires a scan size ({source})")
    return DetectorKind(tag, tau=tau, k_scan=k_scan, budget=budget)


def _flag_detector(args) -> DetectorKind:
    """--detector, --tau and --budget.  A max scan takes --k1 rows on axis 1
    and --k2 columns on axis 2; from flags, no other detector has a scan
    size."""
    scans = {DetectorTag.MAX_TRUNC_AXIS1: (args.k1, "--k1"),
             DetectorTag.MAX_TRUNC_AXIS2: (args.k2, "--k2")}
    return _detector_kind(args.detector, (args.tau, "--tau"), scans, args.budget)


def _shape_from(args) -> ProblemShape:
    k1 = args.k1 if args.k1 is not None else args.n1
    k2 = args.k2 if args.k2 is not None else args.n2
    return ProblemShape(args.n1, args.n2, k1, k2)


def _emit_text(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_gen(args) -> int:
    shape = _shape_from(args)
    if args.null or args.delta == 0.0:
        A = sample_null(shape, args.p0, args.seed)
    else:
        A, _ = sample_planted_uniform_support(
            shape, SignalConfig(args.p0, args.delta), args.seed
        )
    write_matrix(A, args.out)
    return EXIT_OK


def _cmd_stat(args) -> int:
    A = read_matrix(args.matrix)
    scans = dict.fromkeys(DetectorTag, (args.k1, "--k1"))
    kind = _detector_kind(args.detector, (args.tau, "--tau"), scans, args.budget)
    value = statistic(A, args.p0, kind)
    _emit_text(f"statistic {_fmt(value)}\n", args.out)
    return EXIT_OK


def _cmd_calibrate(args) -> int:
    shape = _shape_from(args)
    kind = _flag_detector(args)
    h = calibrate_threshold(
        kind, shape, args.p0, args.alpha, args.trials, args.seed, _consts_from(args)
    )
    _emit_text(f"threshold {_fmt(h)}\n", args.out)
    return EXIT_OK


def _sweep_config(args, grid) -> ExperimentConfig:
    return ExperimentConfig(
        shape=_shape_from(args),
        p0=args.p0,
        delta_grid=tuple(grid),
        detector=_flag_detector(args),
        threshold=ThresholdSpec(
            mode=ThresholdMode[args.threshold_mode],
            alpha=args.alpha,
            trials=args.trials,
            seed=args.seed,
        ),
        trials=args.trials,
        seed=args.seed,
        consts=_consts_from(args),
    )


def _run_sweep(cfg: ExperimentConfig, out_path, experiment_id: str) -> int:
    sweep = power_sweep(cfg)
    if out_path:
        emit_results(result_rows(cfg, sweep, experiment_id), out_path)
        sidecar = {
            "experiment_id": experiment_id,
            "detector": sweep.kind.tag.value,
            "tau": sweep.kind.tau,
            "k_scan": sweep.kind.k_scan,
            "threshold": _fmt(sweep.threshold),
            "threshold_mode": cfg.threshold.mode.value,
            "alpha": cfg.threshold.alpha,
            "consts": dataclasses.asdict(cfg.consts),
        }
        with open(str(out_path) + ".meta.json", "w", encoding="ascii") as fh:
            json.dump(sidecar, fh, indent=2)
            fh.write("\n")
    else:
        lines = ["delta,type1,type2,risk"]
        for row in sweep.rows:
            lines.append(",".join(map(_fmt, (row.delta, row.type1, row.type2, row.risk))))
        _emit_text("\n".join(lines) + "\n", None)
    return EXIT_OK


def _cmd_risk(args) -> int:
    cfg = _sweep_config(args, [args.delta])
    return _run_sweep(cfg, args.out, "risk")


def _cmd_sweep(args) -> int:
    if args.config:
        extra = [flag for flag in args.given if flag not in ("--config", "--seed", "--out")]
        if extra:
            raise ParameterError(f"--config does not combine with {', '.join(extra)}")
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg = dataclasses.replace(cfg, seed=args.seed)
        return _run_sweep(cfg, args.out, str(args.config))
    for flag in ("n1", "n2", "p0", "delta", "seed"):
        if getattr(args, flag) is None:
            raise ParameterError(f"sweep without --config requires --{flag}")
    cfg = _sweep_config(args, args.delta)
    return _run_sweep(cfg, args.out, "sweep")


def _emit_fields(record, out_path) -> None:
    """One "name value" line per dataclass field: floats to 17 digits,
    enums by value."""
    values = [(f.name, getattr(record, f.name)) for f in dataclasses.fields(record)]
    _emit_text("".join(f"{name} {_fmt(getattr(v, 'value', v))}\n" for name, v in values), out_path)


def _cmd_rates(args) -> int:
    _emit_fields(rate_bundle(_shape_from(args), _consts_from(args)), args.out)
    return EXIT_OK


def _cmd_lb(args) -> int:
    res = lower_bound.second_moment_summary(_shape_from(args), args.p0, args.delta)
    _emit_fields(res, args.out)
    return EXIT_OK


def _cmd_phase(args) -> int:
    grid = [
        ProblemShape(n1, n2, k1, k2)
        for n1, n2, k1, k2 in itertools.product(args.n1, args.n2, args.k1, args.k2)
        if k1 <= n1 and k2 <= n2
    ]
    rows = phase_diagram(grid, _consts_from(args))
    lines = ["n1,n2,k1,k2,R,R_tilde,branch"]
    for shape, rb in rows:
        lines.append(
            f"{shape.n1},{shape.n2},{shape.k1},{shape.k2},"
            f"{_fmt(rb.R)},{_fmt(rb.R_tilde)},{rb.branch.value}"
        )
    _emit_text("\n".join(lines) + "\n", args.out)
    return EXIT_OK


# JSON kind -> (Python types, description in error messages).
_JSON_KINDS = {
    "number": ((int, float), "a JSON number that a float can hold"),
    "integer": (int, "a JSON integer"),
    "seed": (int, "an integer in [0, 2^64)"),
    "string": (str, "a JSON string"),
    "object": (dict, "a JSON object"),
    "numbers": (list, "a list of JSON numbers that a float can hold"),
}


def _is_json(value, kind: str) -> bool:
    return (
        not isinstance(value, bool)
        and isinstance(value, _JSON_KINDS[kind][0])
        and (kind != "seed" or 0 <= value < 1 << 64)
        # NaN, +-inf and an integer beyond the float range fail the bound.
        and (kind != "number" or abs(value) <= sys.float_info.max)
        and (kind != "numbers" or all(_is_json(x, "number") for x in value))
    )


_REQUIRED = "required"
_UNSET = "unset"

# Every key of a JSON config: dotted path -> (JSON kind, default), parents
# before their entries, in the order they are checked.  A null entry counts
# as absent.  An absent _REQUIRED key is an error.  An absent _UNSET key is
# left out, so the dataclass default holds; a null one is missing.
_CONFIG_SCHEMA = {
    "shape": ("object", _REQUIRED),
    **{f"shape.{k}": ("integer", _REQUIRED) for k in ("n1", "n2", "k1", "k2")},
    "detector": ("object", {}),
    "detector.tag": ("string", "DELTA_STAR"),
    "detector.tau": ("number", None),
    "detector.k_scan": ("integer", None),
    "seed": ("seed", _REQUIRED),
    "threshold": ("object", {}),
    "threshold.mode": ("string", "CALIBRATED"),
    "threshold.alpha": ("number", 0.1),
    "threshold.trials": ("integer", 10_000),
    "threshold.seed": ("seed", None),  # None: the config's seed
    "threshold.value": ("number", None),
    "consts": ("object", {}),
    **{f"consts.{name}": ("number", _UNSET) for name in _CONST_FLAGS},
    "delta_grid": ("numbers", _REQUIRED),
    "p0": ("number", _REQUIRED),
    "trials": ("integer", _REQUIRED),
    "budget": ("integer", None),
}


def _reject_unknown(doc: dict, prefix: str = "") -> None:
    """ConfigError naming the dotted path of the first key, in document
    order, that _CONFIG_SCHEMA does not list."""
    for key, value in doc.items():
        path = prefix + key
        if "." in key or path not in _CONFIG_SCHEMA:
            raise ConfigError(path, "unknown key")
        if isinstance(value, dict) and _CONFIG_SCHEMA[path][0] == "object":
            _reject_unknown(value, path + ".")


def _read_config(doc: dict) -> dict:
    """Dotted path -> value of every _CONFIG_SCHEMA key, with defaults
    filled in: unknown keys are rejected first, then each entry is checked
    against its JSON kind in table order; numbers become floats."""
    _reject_unknown(doc)
    values = {}
    for path, (kind, default) in _CONFIG_SCHEMA.items():
        parent, _, key = path.rpartition(".")
        obj = values[parent] if parent else doc
        value = obj.get(key)
        if value is None:
            if default is _REQUIRED or (default is _UNSET and key in obj):
                raise ConfigError(path, "missing required field")
            if default is _UNSET:
                continue
            value = default
        elif not _is_json(value, kind):
            raise ConfigError(path, f"expected {_JSON_KINDS[kind][1]}, got {value!r}")
        elif kind in ("number", "numbers"):
            value = float(value) if kind == "number" else tuple(map(float, value))
        values[path] = value
    return values


def load_config(path) -> ExperimentConfig:
    """Parse a JSON experiment config mirroring ExperimentConfig fields."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # bad JSON or UTF-8, or an integer past 4,300 digits
            raise FormatError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(str(path), "must be a JSON object")
    if isinstance(doc.get("detector"), str):
        doc["detector"] = {"tag": doc["detector"]}
    v = _read_config(doc)
    try:
        shape = ProblemShape(*(v[f"shape.{k}"] for k in ("n1", "n2", "k1", "k2")))
    except ParameterError as exc:
        raise ConfigError("shape", str(exc)) from exc
    tau = (v["detector.tau"], "detector.tau")
    scans = dict.fromkeys(DetectorTag, (v["detector.k_scan"], "detector.k_scan"))
    detector = _detector_kind(v["detector.tag"], tau, scans, v["budget"])
    try:
        threshold = ThresholdSpec(
            mode=ThresholdMode[v["threshold.mode"]],
            alpha=v["threshold.alpha"],
            trials=v["threshold.trials"],
            seed=v["seed"] if v["threshold.seed"] is None else v["threshold.seed"],
            value=v["threshold.value"],
        )
    except (KeyError, ParameterError) as exc:
        raise ConfigError("threshold", str(exc)) from exc
    try:
        consts = RateConstants(
            **{key[len("consts."):]: x for key, x in v.items() if key.startswith("consts.")}
        )
    except ParameterError as exc:
        raise ConfigError("consts", str(exc)) from exc
    return ExperimentConfig(
        shape=shape,
        p0=v["p0"],
        delta_grid=v["delta_grid"],
        detector=detector,
        threshold=threshold,
        trials=v["trials"],
        seed=v["seed"],
        consts=consts,
    )


_COMMANDS = {
    "gen": _cmd_gen,
    "stat": _cmd_stat,
    "calibrate": _cmd_calibrate,
    "risk": _cmd_risk,
    "rates": _cmd_rates,
    "lb": _cmd_lb,
    "sweep": _cmd_sweep,
    "phase": _cmd_phase,
}


def _fail(kind: str, message: str, code: int) -> int:
    sys.stderr.write(json.dumps({"error": kind, "message": str(message)}) + "\n")
    return code


def dispatch(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except BudgetError as exc:
        return _fail("budget", exc, EXIT_BUDGET)
    except MemoryError as exc:
        return _fail("memory", exc, EXIT_BUDGET)
    except (ConfigError, ParameterError) as exc:
        return _fail("usage", exc, EXIT_USAGE)
    except FormatError as exc:
        return _fail("format", exc, EXIT_IO)
    except PlantedBipartiteError as exc:
        return _fail("error", exc, EXIT_USAGE)
    except OSError as exc:
        return _fail("io", exc, EXIT_IO)


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
