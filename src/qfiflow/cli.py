"""Run orchestration, bit-stable output emission, and the command line.

A run configuration, read by :func:`qfiflow.config.parse_config`, is
executed end to end (propagate, SLD/QFI, per-channel flow decomposition,
validity checks) and emitted as a CSV time series plus a JSON summary.
Numbers are written with 17 significant digits so double-precision values
round-trip exactly and reruns are byte-identical.  The summary is
:class:`RunSummary` itself.

Command-line flags are config fields: ``main`` turns them into a partial
config document that ``parse_config`` merges over the file's top-level
keys (a ``--tol-*`` flag into the file's ``tolerances`` object) before
validating, so a flag is checked exactly like its field and reported under
the field's pointer.

Exit codes: 0 success, 1 enabled check failed, 2 config error (including an
output path in a missing directory, an output path that is a directory, and
one path used twice across the outputs), 3 runtime or numerical abort, or
an output file that cannot be written.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from dataclasses import dataclass

import numpy as np

from .config import CheckFlags, ConfigError, RunConfig, parse_config
from .flow import (
    DEFAULT_EPS_RANK,
    SIGN_THRESHOLD,
    FlowTable,
    IntervalReport,
    classify_intervals,
)
from .model import ScalarPoleError, ThetaDependence, probe_theta_dependence
from .operators import ToleranceConfig
from .propagation import PropagationError, propagate

__all__ = [
    "CheckOutcome",
    "RunSummary",
    "parse_config",
    "run_simulate",
    "emit_csv",
    "emit_summary",
    "summary_to_dict",
    "main",
]

# Relative tolerance factor for the flow-vs-oracle checks; the absolute
# tolerance is FLOW_ACCEPT_FACTOR * max(1, max_t F).
FLOW_ACCEPT_FACTOR = 1e-5
THETA_CONSISTENCY_TOL = 1e-5
INTERVAL_OVERLAP_MIN = 0.99
# Rows of the CSV formatted and written at once.
CSV_ROWS = 1024


@dataclass(frozen=True)
class CheckOutcome:
    enabled: bool
    passed: bool | None  # None: disabled or not applicable
    value: float | None
    tolerance: float | None


@dataclass(frozen=True, eq=False)
class RunSummary:
    model_name: str
    theta: float
    t_end: float
    dt: float
    delta_theta: float
    max_abs_flow_fd_minus_full_flow: float
    max_abs_flow_fd_minus_subflow_sum: float
    max_abs_ham_term: float
    max_abs_residual_t: float
    max_trace_drift: float
    min_rho_eigenvalue: float
    # SLD support convention: grid points where it cut at least one eigenvalue
    # pair, the most pairs cut at one point, and the first such time.
    sld_support_cut_points: int
    sld_support_cut_max_pairs: int
    sld_support_cut_first_t: float | None
    interval_reports: tuple[IntervalReport, ...]
    theta_independence: dict[str, ThetaDependence]
    checks: dict[str, CheckOutcome]
    tolerances: dict[str, float]

    @property
    def all_checks_passed(self) -> bool:
        return all(c.passed is not False for c in self.checks.values())


# ---------------------------------------------------------------------------
# run orchestration
# ---------------------------------------------------------------------------


def run_simulate(config: RunConfig) -> RunSummary:
    """Propagate, decompose the flow, run the enabled checks, emit files.

    All summary statistics over finite-difference comparisons use interior
    grid points only (one-sided endpoint stencils carry larger truncation
    error); pointwise quantities use the whole grid.
    """
    model = config.model
    theta = config.theta
    delta_theta = config.delta_theta if config.checks.theta_consistency else None
    traj = propagate(model, theta, config.t_end, config.dt, config.tolerances, delta_theta)
    table = traj.flow
    flow_accept = FLOW_ACCEPT_FACTOR * max(1.0, float(np.max(table.qfi)))
    max_completeness = float(np.max(np.abs(table.flow_fd - table.full_flow)[1:-1]))
    max_decomposition = float(np.max(np.abs(table.flow_fd - sum(table.I))[1:-1]))
    max_ham = float(np.max(np.abs(table.ham_term)))
    max_residual = float(np.max(np.abs(table.residual_T)))
    cuts = np.flatnonzero(table.thresholded_pairs)

    probes = probe_theta_dependence(model, theta, traj.grid, config.dt)

    interval_reports = tuple(classify_intervals(table))

    def outcome(enabled: bool, tolerance: float, measure) -> CheckOutcome:  # measure() gives (passed, value)
        return CheckOutcome(True, *measure(), tolerance) if enabled else CheckOutcome(False, None, None, tolerance)

    def oracle() -> tuple:
        passed, value = max_completeness <= flow_accept and all(p.consistent for p in probes.values()), max_completeness
        if all(p.holds for p in probes.values()):  # condition (ii): the subflows sum to the flow
            passed, value = passed and max_decomposition <= flow_accept, max(value, max_decomposition)
        return passed, value

    def theta_consistency() -> tuple:  # measured by propagate
        return traj.theta_consistency <= THETA_CONSISTENCY_TOL, traj.theta_consistency

    def intervals() -> tuple:
        overlaps = [rep.overlap_fraction for rep in interval_reports if rep.overlap_fraction is not None]
        return (min(overlaps) >= INTERVAL_OVERLAP_MIN, min(overlaps)) if overlaps else (None, None)

    checks = {
        "oracle": outcome(config.checks.oracle, flow_accept, oracle),
        "theta_consistency": outcome(config.checks.theta_consistency, THETA_CONSISTENCY_TOL, theta_consistency),
        "intervals": outcome(config.checks.intervals, INTERVAL_OVERLAP_MIN, intervals),
    }

    summary = RunSummary(
        model_name=config.model_name,
        theta=theta,
        t_end=config.t_end,
        dt=config.dt,
        delta_theta=config.delta_theta,
        max_abs_flow_fd_minus_full_flow=max_completeness,
        max_abs_flow_fd_minus_subflow_sum=max_decomposition,
        max_abs_ham_term=max_ham,
        max_abs_residual_t=max_residual,
        max_trace_drift=traj.max_trace_drift,
        min_rho_eigenvalue=traj.min_eigenvalue,
        sld_support_cut_points=len(cuts),
        sld_support_cut_max_pairs=int(np.max(table.thresholded_pairs)),
        sld_support_cut_first_t=float(table.t[cuts[0]]) if len(cuts) else None,
        interval_reports=interval_reports,
        theta_independence=probes,
        checks=checks,
        tolerances={
            **dataclasses.asdict(config.tolerances),
            "flow_accept": flow_accept,
            "theta_consistency": THETA_CONSISTENCY_TOL,
            "interval_overlap": INTERVAL_OVERLAP_MIN,
            "sign_threshold": SIGN_THRESHOLD,
            "eps_rank": DEFAULT_EPS_RANK,
        },
    )
    for target in config.outputs:
        if target.csv_path:
            emit_csv(table, target.csv_path)
        if target.json_summary_path:
            emit_summary(summary, target.json_summary_path)
    return summary


# ---------------------------------------------------------------------------
# output emission
# ---------------------------------------------------------------------------


def emit_csv(table: FlowTable, path: str) -> None:
    """Time series CSV: base columns then gamma/J/I triplets per channel, in
    channel declaration order; 17-significant-digit decimals, LF endings.
    Written CSV_ROWS rows at a time, so its transients do not grow with the table."""
    if not len(table):
        raise ValueError("empty flow table")
    header = ["t", "F", "flow_fd", "full_flow", "ham_term", "residual_T"]
    columns = [table.t, table.qfi, table.flow_fd, table.full_flow, table.ham_term, table.residual_T]
    for label, *triplet in zip(table.labels, table.gamma, table.J, table.I):
        header += [f"gamma_{label}", f"J_{label}", f"I_{label}"]
        columns += triplet
    row = ",".join(["%.17g"] * len(header)) + "\n"
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for k in range(0, len(table), CSV_ROWS):
            block = np.column_stack([c[k : k + CSV_ROWS] for c in columns])
            fh.write(row * len(block) % tuple(block.ravel().tolist()))


def _json_native(v):
    """Tuples as lists, so a summary dict equals its JSON round trip."""
    return [_json_native(x) for x in v] if isinstance(v, (tuple, list)) else v


def summary_to_dict(summary: RunSummary) -> dict:
    d = dataclasses.asdict(summary, dict_factory=lambda items: {k: _json_native(v) for k, v in items})
    d["all_enabled_checks_passed"] = summary.all_checks_passed
    return d


def emit_summary(summary: RunSummary, path: str) -> None:
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        json.dump(summary_to_dict(summary), fh, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

_CHECK_ALIASES = {"theta": "theta_consistency"}


def _given(**values) -> dict:
    return {k: v for k, v in values.items() if v is not None}


def _flags(args: argparse.Namespace) -> dict:
    """The given flags as a partial config document, validated by :func:`parse_config`.

    ``--check`` enables the checks it names and disables the others; a name
    that is no check stays a key of ``checks`` and is rejected there.
    """
    flags = _given(dt=args.dt, t_end=args.t_end)
    target = _given(csv_path=args.out, json_summary_path=args.summary)
    if target:
        flags["outputs"] = [target]
    if args.check is not None:
        enabled = {_CHECK_ALIASES.get(n, n): True for n in map(str.strip, args.check.split(",")) if n}
        flags["checks"] = dict.fromkeys((f.name for f in dataclasses.fields(CheckFlags)), False) | enabled
    tolerances = _given(
        **{f.name: getattr(args, f"tol_{f.name}") for f in dataclasses.fields(ToleranceConfig)}
    )
    if tolerances:
        flags["tolerances"] = tolerances
    return flags


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qfiflow",
        description="Simulate QFI flow for time-local master equations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sim = sub.add_parser("simulate", help="run a configured simulation")
    sim.add_argument("--config", required=True, help="path to the JSON run configuration")
    sim.add_argument("--out", help="CSV output path (overrides config outputs)")
    sim.add_argument("--summary", help="JSON summary path (overrides config outputs)")
    sim.add_argument("--check", help="comma-separated checks to enable: oracle,theta,intervals")
    sim.add_argument("--dt", type=float, help="override time step")
    sim.add_argument("--t-end", dest="t_end", type=float, help="override end time")
    for f in dataclasses.fields(ToleranceConfig):
        sim.add_argument(f"--tol-{f.name}", type=float, help=f"override tolerances/{f.name}")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        with open(args.config, "rb") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    try:
        config = parse_config(text, _flags(args))
    except ConfigError as exc:
        print(f"config error: {exc.pointer or '/'}: {exc}", file=sys.stderr)
        return 2
    try:
        summary = run_simulate(config)
    except (PropagationError, ScalarPoleError) as exc:
        print(f"runtime abort: {exc}", file=sys.stderr)
        return 3
    except (ValueError, ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 3
    for name, outcome in summary.checks.items():
        status = {None: "n/a", True: "pass", False: "FAIL"}[outcome.passed] if outcome.enabled else "skipped"
        detail = "" if outcome.value is None else f" (value {outcome.value:.3e}, tolerance {outcome.tolerance:.3e})"
        print(f"check {name}: {status}{detail}")
    for key, probe in summary.theta_independence.items():
        verdict = "holds" if probe.holds else f"violated (magnitude {probe.magnitude:.6g})"
        if not probe.consistent:
            verdict += f"; declared derivative inconsistent (defect {probe.defect:.3e}, "
            verdict += f"tolerance {probe.defect_tolerance:.3e})"
        print(f"theta-independence {key}: {verdict}")
    return 0 if summary.all_checks_passed else 1


if __name__ == "__main__":
    sys.exit(main())
