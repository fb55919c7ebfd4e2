"""Command-line interface.

Subcommands: gen, stat, calibrate, risk, rates, lb, sweep, phase.  Exit
codes: 0 success, 1 usage error, 2 budget exceeded, 3 I/O error.  Every
randomized subcommand requires an explicit --seed.  Errors are reported as
a single JSON line on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import sys

from . import lower_bound
from .detectors import (
    DEFAULT_SUBSET_BUDGET,
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

_RANDOMIZED = {"gen", "calibrate", "risk", "sweep"}
_SEED_LIMIT = 1 << 64


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _add_shape_flags(p, required=True):
    p.add_argument("--n1", type=int, required=required)
    p.add_argument("--n2", type=int, required=required)
    p.add_argument("--k1", type=int)
    p.add_argument("--k2", type=int)


# The CLI flag of every RateConstants field.
_CONST_FLAGS = {
    "C_phi": "--c-phi", "c1": "--c1", "c_delta": "--c-delta", "C_delta": "--C-delta",
    "C_eta": "--C-eta", "C_star": "--C-star", "c_prime": "--c-prime", "C_tau": "--C-tau",
}


def _add_const_flags(p):
    d = RateConstants()
    for name, flag in _CONST_FLAGS.items():
        p.add_argument(flag, dest=name, type=float, default=getattr(d, name))


def _consts_from(args) -> RateConstants:
    return RateConstants(**{name: getattr(args, name) for name in _CONST_FLAGS})


def _add_trial_flags(p, trials, p0_required=True, risk=True):
    """Flags of the Monte Carlo subcommands; `risk` adds those of risk
    estimation (eta and the threshold mode)."""
    p.add_argument("--p0", type=float, required=p0_required)
    p.add_argument("--alpha", type=float, default=0.1)
    p.add_argument("--trials", type=int, default=trials)
    p.add_argument("--seed", type=_seed)
    p.add_argument("--detector", default="DELTA_STAR")
    p.add_argument("--tau", type=float)
    p.add_argument("--budget", type=int, default=DEFAULT_SUBSET_BUDGET)
    p.add_argument("--out")
    _add_const_flags(p)
    if risk:
        p.add_argument("--eta", type=float, default=0.5)
        p.add_argument("--threshold-mode", dest="threshold_mode", default="CALIBRATED",
                       choices=["CALIBRATED", "ANALYTIC"])


def _seed(text: str) -> int:
    """argparse type of --seed: an integer in [0, 2^64), the range of the
    counter-based streams (which would otherwise reduce it mod 2^64)."""
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or not 0 <= value < _SEED_LIMIT:
        raise argparse.ArgumentTypeError(f"seed must be an integer in [0, 2^64), got {text!r}")
    return value


def _number_list(kind):
    """argparse type for comma-separated values of `kind`; a malformed
    value is a usage error."""
    def parse(text):
        return [kind(tok) for tok in text.split(",") if tok]

    parse.__name__ = f"comma-separated {kind.__name__}"
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="planted-bipartite", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="sample a matrix and write it in text format")
    _add_shape_flags(g)
    g.add_argument("--null", action="store_true", help="sample the null model")
    g.add_argument("--p0", type=float, required=True)
    g.add_argument("--delta", type=float, default=0.0)
    g.add_argument("--seed", type=_seed)
    g.add_argument("--out", required=True)

    s = sub.add_parser("stat", help="evaluate a statistic on a matrix file")
    s.add_argument("matrix", help="path to a matrix in the text format")
    s.add_argument("--p0", type=float, required=True)
    s.add_argument("--detector", default="TOTAL_DEGREE")
    s.add_argument("--tau", type=float)
    s.add_argument("--k1", type=int, help="scan size for max tests")
    s.add_argument("--budget", type=int, default=DEFAULT_SUBSET_BUDGET)
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
    _add_const_flags(ra)

    lb = sub.add_parser("lb", help="second-moment lower bound quantities")
    _add_shape_flags(lb)
    lb.add_argument("--p0", type=float, required=True)
    lb.add_argument("--delta", type=float, required=True)
    lb.add_argument("--out")

    sw = sub.add_parser("sweep", help="risk over a delta grid (flags or --config)")
    _add_shape_flags(sw, required=False)
    sw.add_argument("--config", help="JSON experiment config")
    sw.add_argument("--delta", type=_number_list(float),
                    help="comma-separated grid of signal levels")
    _add_trial_flags(sw, trials=1000, p0_required=False)

    ph = sub.add_parser("phase", help="rate bundles over a shape grid")
    for flag in ("--n1", "--n2", "--k1", "--k2"):
        ph.add_argument(flag, type=_number_list(int), required=True, help="comma-separated values")
    ph.add_argument("--out")
    _add_const_flags(ph)
    return parser


def _detector_kind(name: str, tau, k_scan) -> DetectorKind:
    try:
        tag = DetectorTag[name.upper().replace("-", "_")]
    except KeyError:
        raise ParameterError(f"unknown detector {name!r}") from None
    if tag is DetectorTag.DELTA_STAR or tag is DetectorTag.TOTAL_DEGREE:
        return DetectorKind(tag)
    if tau is None:
        raise ParameterError(f"detector {tag.value} requires --tau")
    if tag in (DetectorTag.MAX_TRUNC_AXIS1, DetectorTag.MAX_TRUNC_AXIS2):
        if k_scan is None:
            raise ParameterError(f"detector {tag.value} requires a scan size (--k1)")
        return DetectorKind(tag, tau=tau, k_scan=k_scan)
    return DetectorKind(tag, tau=tau)


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


def _f(v: float) -> str:
    return format(v, ".17g")


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
    kind = _detector_kind(args.detector, args.tau, args.k1)
    if kind.tag is DetectorTag.DELTA_STAR:
        raise ParameterError("stat requires a concrete detector, not DELTA_STAR")
    value = statistic(A, args.p0, kind, args.budget)
    _emit_text(f"statistic {_f(value)}\n", args.out)
    return EXIT_OK


def _cmd_calibrate(args) -> int:
    shape = _shape_from(args)
    kind = _detector_kind(args.detector, args.tau, args.k1)
    h = calibrate_threshold(
        kind, shape, args.p0, args.alpha, args.trials, args.seed,
        _consts_from(args), args.budget,
    )
    _emit_text(f"threshold {_f(h)}\n", args.out)
    return EXIT_OK


def _sweep_config(args, grid) -> ExperimentConfig:
    shape = _shape_from(args)
    return ExperimentConfig(
        shape=shape,
        p0=args.p0,
        delta_grid=tuple(grid),
        detector=_detector_kind(args.detector, args.tau, shape.k1),
        threshold=ThresholdSpec(
            mode=ThresholdMode[args.threshold_mode],
            alpha=args.alpha,
            trials=max(args.trials, 100),
            seed=args.seed,
        ),
        trials=args.trials,
        seed=args.seed,
        eta=args.eta,
        consts=_consts_from(args),
        budget=args.budget,
    )


def _run_sweep(cfg: ExperimentConfig, out_path, experiment_id: str) -> int:
    sweep = power_sweep(cfg)
    if out_path:
        emit_results(result_rows(cfg, sweep, experiment_id), out_path, "CSV")
        sidecar = {
            "experiment_id": experiment_id,
            "detector": sweep.kind.tag.value,
            "tau": sweep.kind.tau,
            "k_scan": sweep.kind.k_scan,
            "threshold": _f(sweep.threshold),
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
            e = row.estimate
            lines.append(",".join(map(_f, (row.delta, e.type1, e.type2, e.risk))))
        _emit_text("\n".join(lines) + "\n", None)
    return EXIT_OK


def _cmd_risk(args) -> int:
    cfg = _sweep_config(args, [args.delta])
    return _run_sweep(cfg, args.out, "risk")


def _cmd_sweep(args) -> int:
    if args.config:
        return run_config(args.config, args.out, args.seed)
    for flag in ("n1", "n2", "p0", "delta", "seed"):
        if getattr(args, flag) is None:
            raise ParameterError(f"sweep without --config requires --{flag}")
    cfg = _sweep_config(args, args.delta)
    return _run_sweep(cfg, args.out, "sweep")


def _emit_fields(record, out_path) -> None:
    """One "name value" line per dataclass field: floats to 17 digits,
    enums by value."""
    values = [(f.name, getattr(record, f.name)) for f in dataclasses.fields(record)]
    _emit_text("".join(
        f"{name} {_f(v) if isinstance(v, float) else v.value}\n" for name, v in values
    ), out_path)


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
            f"{_f(rb.R)},{_f(rb.R_tilde)},{rb.branch.value}"
        )
    _emit_text("\n".join(lines) + "\n", args.out)
    return EXIT_OK


# JSON kind -> (Python types, description in error messages).
_JSON_KINDS = {
    "number": ((int, float), "a JSON number"),
    "integer": (int, "a JSON integer"),
    "seed": (int, "an integer in [0, 2^64)"),
    "string": (str, "a JSON string"),
    "object": (dict, "a JSON object"),
    "list": (list, "a JSON list"),
}


def _config_field(doc: dict, field: str, required=True, default=None, kind=None):
    """The entry at dotted path `field` (its parents already checked to be
    objects), or `default` when it is absent or null and not required.  A
    present entry must have JSON type `kind`."""
    value = doc
    for key in field.split("."):
        value = None if value is None else value.get(key)
    if value is None:
        if required:
            raise ConfigError(field, "missing required field")
        return default
    if kind is not None and not _is_json(value, kind):
        raise ConfigError(field, f"expected {_JSON_KINDS[kind][1]}, got {value!r}")
    return value


def _is_json(value, kind: str) -> bool:
    return (
        not isinstance(value, bool)
        and isinstance(value, _JSON_KINDS[kind][0])
        and (kind != "seed" or 0 <= value < _SEED_LIMIT)
    )


def load_config(path) -> ExperimentConfig:
    """Parse a JSON experiment config mirroring ExperimentConfig fields."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(str(path), "must be a JSON object")
    _config_field(doc, "shape", kind="object")
    try:
        shape = ProblemShape(
            *(_config_field(doc, f"shape.{k}", kind="integer") for k in ("n1", "n2", "k1", "k2"))
        )
    except ParameterError as exc:
        raise ConfigError("shape", str(exc)) from exc
    if isinstance(doc.get("detector"), str):
        doc["detector"] = {"tag": doc["detector"]}
    _config_field(doc, "detector", False, kind="object")
    detector = _detector_kind(
        _config_field(doc, "detector.tag", False, "DELTA_STAR", "string"),
        _config_field(doc, "detector.tau", False, None, "number"),
        _config_field(doc, "detector.k_scan", False, None, "integer"),
    )
    seed = _config_field(doc, "seed", kind="seed")
    _config_field(doc, "threshold", False, kind="object")
    try:
        threshold = ThresholdSpec(
            mode=ThresholdMode[_config_field(doc, "threshold.mode", False, "CALIBRATED", "string")],
            alpha=_config_field(doc, "threshold.alpha", False, 0.1, "number"),
            trials=_config_field(doc, "threshold.trials", False, 10_000, "integer"),
            seed=_config_field(doc, "threshold.seed", False, seed, "seed"),
            value=_config_field(doc, "threshold.value", False, None, "number"),
        )
    except (KeyError, ParameterError) as exc:
        raise ConfigError("threshold", str(exc)) from exc
    consts_doc = _config_field(doc, "consts", False, {}, "object")
    try:
        consts = RateConstants(
            **{k: _config_field(doc, f"consts.{k}", kind="number") for k in consts_doc}
        )
    except (TypeError, ParameterError) as exc:
        raise ConfigError("consts", str(exc)) from exc
    delta_grid = _config_field(doc, "delta_grid", kind="list")
    if not delta_grid or not all(_is_json(d, "number") for d in delta_grid):
        raise ConfigError("delta_grid", "must be a nonempty list of numbers")
    return ExperimentConfig(
        shape=shape,
        p0=_config_field(doc, "p0", kind="number"),
        delta_grid=tuple(float(d) for d in delta_grid),
        detector=detector,
        threshold=threshold,
        trials=_config_field(doc, "trials", kind="integer"),
        seed=seed,
        eta=_config_field(doc, "eta", False, 0.5, "number"),
        consts=consts,
        budget=_config_field(doc, "budget", False, DEFAULT_SUBSET_BUDGET, "integer"),
    )


def run_config(config_path, out_path=None, seed_override=None) -> int:
    """Execute the power sweep described by a JSON config file."""
    cfg = load_config(config_path)
    if seed_override is not None:
        cfg = dataclasses.replace(cfg, seed=seed_override)
    return _run_sweep(cfg, out_path, experiment_id=str(config_path))


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
        if args.command in _RANDOMIZED and args.command != "sweep":
            if getattr(args, "seed", None) is None:
                raise _UsageError(f"subcommand {args.command} requires --seed")
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        return _fail("usage", exc, EXIT_USAGE)
    except BudgetError as exc:
        return _fail("budget", exc, EXIT_BUDGET)
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
