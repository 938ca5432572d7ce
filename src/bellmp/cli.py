"""Command-line front end.

Subcommands: eval, lhv, optimize, analytic, reproduce, scan, sample.
All machine output goes to stdout, as JSON (or CSV for scan) with
floats rounded to 12 significant digits; optimize --export-angles also
writes an angle file.  Every subcommand evaluates the paper's m + n
kernel.  A --state is a comma list of coefficients, and their number is
the outcome dimension.  optimize takes exactly one of --state and --d;
--d searches at the flat state of d outcomes, or over all its states
with --free-state.  Exit codes: 0 success, 1 validation error,
2 reproduction failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

import numpy as np

from .model import (
    SETTING_NAMES,
    SETTING_PAIRS,
    BellError,
    Dimension,
    MeasurementSettings,
    PureState,
    ValidationError,
    make_state,
    maximally_entangled_state,
    zero_settings,
)
from .analytic import (
    _ring_sorted,
    gamma_constants,
    max_entangled_value,
    noise_resistance_gain,
    optimal_max_state,
    optimal_min_state,
    sorted_magnitudes,
    threshold_noise,
    vertex_candidates,
)
from .engine import (bell_value_from_table, correlation_q,
                     joint_probabilities, mix_uniform_noise, sample_experiment)
from .lhv import lhv_bounds
from .optimize import Direction, OptimizerConfig, optimize_angles, optimize_joint
from .report import (
    SCAN_COLUMNS,
    ReproductionReport,
    ScanSpec,
    branch_record,
    build_reproduction_report,
    scan_rows,
)

__all__ = ["main", "main_entry"]

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_REPRODUCTION = 2

# A d = 4 joint restart takes about 0.3 ms on a 2-vCPU host, so a capped
# d = 4 search ends within a second (0.7 s with interpreter start-up).
MAX_RESTARTS = 1000
# Probability tables hold 4 d^2 entries.  The paper works at d = 4.
MAX_DIMENSION = 64
# A search's work grows with both flags.  A restart counts as (d - 1) d^2
# work units.  Measured on a 2-vCPU host (one-restart searches, seeds 0
# and 1, both directions), a joint restart takes 6-33 ms at d = 16
# (19-75 Newton steps), 0.05-0.09 s at d = 32 and 0.30-0.52 s at
# d = 64, 1.2-2.9e-6 s per unit at the larger two.  The budget keeps one
# search well within a minute: at seed 0, minimizing, 7 restarts at
# d = 64 took 2.6-3.1 s and 63 at d = 32 took 3.2-4.0 s; up to d = 12
# the restart cap binds first (1000 restarts at d = 12 took 3.0-3.5 s).
MAX_WORK = 2_000_000
# One scan row holds about 430 B and takes about 21 us to compute on a
# 2-vCPU host, so a capped scan holds about 43 MB of rows and prints its
# CSV in about 4 s.
MAX_SCAN_STEPS = 100_000


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad arguments; the CLI contract
    # reserves 2 for reproduction failures, so remap to 1.
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_VALIDATION)


def _fmt(value: float) -> float:
    return float(f"{float(value):.12g}")


def _round_floats(obj):
    if isinstance(obj, float):
        return _fmt(obj)
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def _emit_json(obj) -> None:
    print(json.dumps(_round_floats(obj), indent=2, sort_keys=True))


def _check_dimension(d: int, source: str) -> None:
    if d > MAX_DIMENSION:
        raise ValidationError(f"{source} must be at most {MAX_DIMENSION}, got {d}")


def _check_restarts(restarts: int) -> None:
    if restarts > MAX_RESTARTS:
        raise ValidationError(f"--restarts must be at most {MAX_RESTARTS}, got {restarts}")


def _check_work(d: int, restarts: int) -> None:
    per_restart = (d - 1) * d * d
    if restarts * per_restart > MAX_WORK:
        raise ValidationError(
            f"--restarts {restarts} at dimension {d} is {restarts * per_restart} work "
            f"units, above the budget of {MAX_WORK}; use at most "
            f"{MAX_WORK // per_restart} restarts at this dimension"
        )


def _state_values(text: str) -> list[float]:
    parts = [p.strip() for p in text.split(",")]
    if any(p == "" for p in parts):
        raise ValidationError(f"malformed state spec {text!r}")
    try:
        values = [float(p) for p in parts]
    except ValueError as exc:
        raise ValidationError(f"malformed state spec {text!r}") from exc
    _check_dimension(len(values), "the number of state coefficients")
    return values


def _parse_state(text: str) -> PureState:
    values = _state_values(text)
    return make_state(Dimension(len(values)), values)


def _open_output(path: str, mode: str = "w"):
    try:
        return open(path, mode, encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"cannot write {path!r}: {exc.strerror or exc}") from exc


def _load_angles(path: str, d: int) -> MeasurementSettings:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise ValidationError(f"cannot read angle file {path!r}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ValidationError(f"angle file {path!r} is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"angle file {path!r} is not valid JSON: {exc}") from exc
    except ValueError as exc:
        # An integer literal past Python's int-string digit limit.
        raise ValidationError(f"angle file {path!r} holds an unreadable number: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValidationError(f"angle file {path!r} must hold a JSON object")
    missing = {"d", *SETTING_NAMES} - raw.keys()
    if missing:
        raise ValidationError(f"angle file {path!r} lacks keys {sorted(missing)}")
    try:
        dim = Dimension(raw["d"])
        if dim.d != d:
            raise ValidationError(f"dimension {dim.d} does not match expected {d}")
        return MeasurementSettings.from_phases(dim, (raw[key] for key in SETTING_NAMES))
    except BellError as exc:
        raise ValidationError(f"angle file {path!r}: {exc}") from exc


def _angles_dict(settings: MeasurementSettings) -> dict:
    return {"d": settings.dim.d,
            **{key: list(row) for key, row in zip(SETTING_NAMES, settings.phases)}}


def _by_setting(tables: np.ndarray) -> dict:
    # (2, 2, d, d) per-setting tables keyed "11", "12", "21", "22".
    return {f"{i}{j}": tables[i - 1, j - 1].tolist() for i, j in SETTING_PAIRS}


def _state_and_settings(args) -> tuple[PureState, MeasurementSettings]:
    # The --state, and the --angles file's settings or zero phases.
    state = _parse_state(args.state)
    if args.angles:
        return state, _load_angles(args.angles, state.dim.d)
    return state, zero_settings(state.dim)


def cmd_eval(args) -> int:
    state, settings = _state_and_settings(args)
    table = mix_uniform_noise(joint_probabilities(state, settings), args.noise)
    q = {f"Q{i}{j}": correlation_q(table, i, j) for i, j in SETTING_PAIRS}
    value = bell_value_from_table(table)
    record = {
        "d": state.dim.d,
        "noise": float(args.noise),
        "state": list(state.coefficients),
        "I": value,
        **q,
        "probabilities": _by_setting(table.probabilities),
    }
    if value > 2.0:
        record["threshold_noise"] = threshold_noise(value)
    _emit_json(record)
    return EXIT_OK


def cmd_lhv(args) -> int:
    report = lhv_bounds(Dimension(args.d))
    _emit_json({
        "d": args.d,
        "max": str(report.max_value),
        "min": str(report.min_value),
        "argmax": list(report.argmax.outcomes),
        "argmin": list(report.argmin.outcomes),
        "strategies_scanned": report.strategies_scanned,
    })
    return EXIT_OK


def cmd_optimize(args) -> int:
    # argparse requires exactly one of --d and --state.
    if args.free_state and args.state is not None:
        raise ValidationError("--free-state optimizes the state; drop --state")
    if args.state is None:
        _check_dimension(args.d, "--d")
        values, d = None, args.d
    else:
        values = _state_values(args.state)
        d = len(values)
    _check_restarts(args.restarts)
    _check_work(d, args.restarts)
    config = OptimizerConfig(restarts=args.restarts, seed=args.seed,
                             direction=Direction(args.direction))
    dim = Dimension(d)
    if args.export_angles:
        # Fail before the search, without truncating an existing file.
        _open_output(args.export_angles, "a").close()
    if args.free_state:
        run = optimize_joint(dim, config)
    elif values is None:
        run = optimize_angles(maximally_entangled_state(dim), config)
    else:
        run = optimize_angles(make_state(dim, values), config)
    best = run.best
    angles = _angles_dict(best.settings)
    record = {
        "direction": args.direction,
        "restarts": args.restarts,
        "seed": args.seed,
        "value": best.value,
        "best_restart": run.best_restart,
        "converged": run.converged,
        "iterations_used": run.iterations_used,
        "per_restart_values": list(run.per_restart_values),
        "per_restart_iterations": list(run.per_restart_iterations),
        "per_restart_converged": list(run.per_restart_converged),
        "per_restart_gradient_norms": list(run.per_restart_gradient_norms),
        "per_restart_rejected": list(run.per_restart_rejected),
        "per_restart_mu": list(run.per_restart_mu),
        "evaluations": {"calls": run.evaluations.calls, "rows": run.evaluations.rows,
                        "hessians": run.evaluations.hessians},
        "state": list(best.state.coefficients),
        "angles": angles,
    }
    if args.free_state:
        record["per_restart_eigengaps"] = list(run.per_restart_eigengaps)
    if args.export_angles:
        with _open_output(args.export_angles) as handle:
            json.dump(_round_floats(angles), handle, indent=2, sort_keys=True)
            handle.write("\n")
    _emit_json(record)
    return EXIT_OK


def cmd_analytic(args) -> int:
    g = gamma_constants()
    if args.state is None:
        max_state, max_value = optimal_max_state()
        min_state, min_value = optimal_min_state()
        me_value = max_entangled_value()
        _emit_json({
            "gamma1": g.gamma1,
            "gamma2": g.gamma2,
            "gamma3": g.gamma3,
            "max_entangled": {
                "value": me_value,
                "threshold_noise": threshold_noise(me_value),
            },
            "optimal_max": {
                "state": list(max_state.coefficients),
                "value": max_value,
                "threshold_noise": threshold_noise(max_value),
            },
            "optimal_min": {
                "state": list(min_state.coefficients),
                "value": min_value,
            },
            "noise_resistance_gain": noise_resistance_gain(max_value, me_value),
        })
        return EXIT_OK
    state = _parse_state(args.state)
    vertices = vertex_candidates(state)
    witness_max, witness_min = vertices.witnesses
    record = {
        "state": list(state.coefficients),
        "sorted_magnitudes": list(sorted_magnitudes(state)),
        "ring_sorted": _ring_sorted(state),
        **branch_record(state),
        "vertex_max": vertices.max,
        "vertex_min": vertices.min,
        "vertex_max_witness": {
            "table": witness_max.pattern.table_id,
            "row": witness_max.pattern.row,
            "assignment": list(witness_max.assignment),
        },
        "vertex_min_witness": {
            "table": witness_min.pattern.table_id,
            "row": witness_min.pattern.row,
            "assignment": list(witness_min.assignment),
        },
    }
    _emit_json(record)
    return EXIT_OK


def _print_report(report: ReproductionReport) -> None:
    width = max(len(row.label) for row in report.rows)
    for row in report.rows:
        status = "PASS" if row.passed else "FAIL"
        print(
            f"{row.label:<{width}}  expected {row.expected:>15.10g}  "
            f"computed {row.computed:>17.12g}  tol {row.tolerance:>7.1e}  "
            f"{status}  [{row.provenance}]"
        )
    print()
    for note in report.diagnostics:
        print(f"note: {note}")
    print()
    print(f"overall: {'PASS' if report.overall_pass else 'FAIL'}")


def cmd_reproduce(args) -> int:
    report = build_reproduction_report()
    if args.json:
        _emit_json({
            "rows": [
                {
                    "label": row.label,
                    "expected": row.expected,
                    "computed": row.computed,
                    "tolerance": row.tolerance,
                    "pass": row.passed,
                    "provenance": row.provenance,
                }
                for row in report.rows
            ],
            "overall_pass": report.overall_pass,
            "diagnostics": list(report.diagnostics),
        })
    else:
        _print_report(report)
    return EXIT_OK if report.overall_pass else EXIT_REPRODUCTION


def cmd_scan(args) -> int:
    if args.steps > MAX_SCAN_STEPS:
        raise ValidationError(f"--steps must be at most {MAX_SCAN_STEPS}, got {args.steps}")
    spec = ScanSpec(r_from=args.r_from, r_to=args.r_to, steps=args.steps)
    if args.json:
        _emit_json({"family": "step", "rows": scan_rows(spec)})
        return EXIT_OK
    writer = csv.writer(sys.stdout)
    writer.writerow(SCAN_COLUMNS)
    for row in scan_rows(spec):
        writer.writerow([f"{row[c]:.12g}" for c in SCAN_COLUMNS])
    return EXIT_OK


def cmd_sample(args) -> int:
    state, settings = _state_and_settings(args)
    estimate = sample_experiment(state, settings, args.shots, args.seed)
    _emit_json({
        "d": state.dim.d,
        "shots_per_setting": estimate.shots_per_setting,
        "seed": args.seed,
        "estimate": estimate.value_estimate,
        "std_error": estimate.std_error,
        "counts": _by_setting(estimate.counts),
    })
    return EXIT_OK


def _build_parser() -> _Parser:
    parser = _Parser(prog="bellmp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_state(p, required=True):
        p.add_argument("--state", required=required,
                       help="comma-separated coefficients, auto-normalized; "
                            "their number is the outcome dimension")

    p = sub.add_parser("eval", help="Bell value of a state at fixed angles")
    add_state(p)
    p.add_argument("--angles", help="angle file (JSON)")
    p.add_argument("--noise", type=float, default=0.0)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("lhv", help="exact classical bounds by enumeration")
    p.add_argument("--d", type=int, required=True)
    p.set_defaults(func=cmd_lhv)

    p = sub.add_parser("optimize", help="numerically optimize the Bell value")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--d", type=int,
                        help="outcome dimension: search at the flat state, or "
                             "over states too with --free-state")
    add_state(source, required=False)
    p.add_argument("--direction", choices=("max", "min"), default="max")
    p.add_argument("--free-state", action="store_true")
    p.add_argument("--restarts", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--export-angles", metavar="PATH",
                   help="write the optimizing angles as an angle file")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("analytic", help="branch formulas (ring-sorted states), vertex outer bound")
    p.add_argument("--state", default=None,
                   help="d=4 coefficients; omit for the global constants")
    p.set_defaults(func=cmd_analytic)

    p = sub.add_parser("reproduce", help="recompute and check the headline numbers")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_reproduce)

    p = sub.add_parser("scan", help="branch values over the (1,1,r,r) family")
    p.add_argument("--from", dest="r_from", type=float, default=0.0)
    p.add_argument("--to", dest="r_to", type=float, default=1.0)
    p.add_argument("--steps", type=int, default=11)
    p.add_argument("--json", action="store_true", help="JSON instead of CSV")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("sample", help="finite-shot simulated experiment")
    add_state(p)
    p.add_argument("--angles", help="angle file (JSON)")
    p.add_argument("--shots", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_sample)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except BellError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def main_entry() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except OSError as exc:
        # The reader closing stdout early (as `| head` does) ends the
        # output; any other failed write (a full disk) is an error.  Point
        # stdout at devnull so the exit flush cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if isinstance(exc, BrokenPipeError):
            code = EXIT_OK
        else:
            print(f"error: cannot write output: {exc.strerror or exc}", file=sys.stderr)
            code = EXIT_VALIDATION
    sys.exit(code)
