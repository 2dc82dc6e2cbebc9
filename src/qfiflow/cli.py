"""Configuration, run orchestration, and bit-stable output emission.

A run is described by a strict JSON config (unknown keys rejected, errors
carry JSON-pointer paths), executed end to end (propagate, SLD/QFI,
per-channel flow decomposition, validity checks), and emitted as a CSV time
series plus a JSON summary.  Numbers are written with 17 significant digits
so double-precision values round-trip exactly and reruns are byte-identical.

Exit codes: 0 success, 1 enabled check failed, 2 config error, 3 runtime or
numerical abort.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from .estimation import DEFAULT_EPS_RANK
from .flow import (
    SIGN_THRESHOLD,
    FlowTable,
    IntervalReport,
    classify_intervals,
    flow_records,
)
from .model import (
    Channel,
    FixedRyStateFamily,
    LinearStateFamily,
    ModelSpec,
    OperatorTerm,
    RyStateFamily,
    ScalarPoleError,
    TimeDependentOperator,
    builtin_model,
    constant_operator,
    matrix_to_config,
    model_to_config,
    probe_theta_dependence,
    scalar_from_config,
    scalar_is_zero,
    validate_model,
    zero_operator,
)
from .operators import DEFAULT_TOLERANCES, ToleranceConfig
from .propagation import PropagationError, fd_theta_consistency, propagate

__all__ = [
    "ConfigError",
    "OutputTarget",
    "CheckFlags",
    "RunConfig",
    "Verdict",
    "CheckOutcome",
    "RunSummary",
    "parse_config",
    "run_simulate",
    "emit_csv",
    "emit_summary",
    "summary_to_dict",
    "matrix_from_config",
    "matrix_to_config",
    "model_to_config",
    "main",
]

# Relative tolerance factor for the flow-vs-oracle checks; the absolute
# tolerance is FLOW_ACCEPT_FACTOR * max(1, max_t F).
FLOW_ACCEPT_FACTOR = 1e-5
THETA_CONSISTENCY_TOL = 1e-5
INTERVAL_OVERLAP_MIN = 0.99
THETA_DEPENDENCE_EPS = 1e-10

DEFAULT_CSV_PATH = "qfi_flow.csv"
DEFAULT_SUMMARY_PATH = "qfi_flow_summary.json"


class ConfigError(ValueError):
    """Config rejected; ``pointer`` locates the offending field."""

    def __init__(self, message: str, pointer: str = ""):
        self.pointer = pointer
        super().__init__(f"{pointer or '/'}: {message}")


@dataclass(frozen=True)
class OutputTarget:
    csv_path: str | None = None
    json_summary_path: str | None = None


@dataclass(frozen=True)
class CheckFlags:
    oracle: bool = True
    theta_consistency: bool = False
    intervals: bool = True


@dataclass(frozen=True, eq=False)
class RunConfig:
    model: ModelSpec
    model_name: str
    theta: float
    t_end: float
    dt: float
    delta_theta: float
    outputs: tuple[OutputTarget, ...]
    checks: CheckFlags
    tolerances: ToleranceConfig


@dataclass(frozen=True)
class Verdict:
    """Measured theta-(in)dependence of one generator ingredient."""

    status: str  # "holds" | "violated"
    magnitude: float


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
    theta_independence: dict[str, Verdict]
    checks: dict[str, CheckOutcome]
    tolerances: dict[str, float]

    @property
    def all_checks_passed(self) -> bool:
        return all(c.passed is not False for c in self.checks.values())


# ---------------------------------------------------------------------------
# strict JSON parsing helpers
# ---------------------------------------------------------------------------


def _as_object(v, ptr: str) -> dict:
    if not isinstance(v, dict):
        raise ConfigError(f"expected an object, got {type(v).__name__}", ptr)
    return v


def _as_list(v, ptr: str) -> list:
    if not isinstance(v, list):
        raise ConfigError(f"expected an array, got {type(v).__name__}", ptr)
    return v


def _check_keys(d: dict, allowed: set[str], required: set[str], ptr: str) -> None:
    unknown = sorted(set(d) - allowed)
    if unknown:
        raise ConfigError(f"unknown key(s): {', '.join(unknown)}", f"{ptr}/{unknown[0]}")
    missing = sorted(required - set(d))
    if missing:
        raise ConfigError(f"missing required key(s): {', '.join(missing)}", f"{ptr}/{missing[0]}")


def _number(v, ptr: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"expected a number, got {type(v).__name__}", ptr)
    if not math.isfinite(v):
        raise ConfigError("number must be finite", ptr)
    return float(v)


def _positive(v, ptr: str, name: str) -> float:
    x = _number(v, ptr)
    if x <= 0.0:
        raise ConfigError(f"invariant violation: {name} > 0", ptr)
    return x


def _check_grid(t_end: float, dt: float) -> None:
    """The grid t_k = k dt up to t_end needs 3 points for the finite-difference oracle."""
    if t_end / dt < 1.5:
        raise ConfigError(
            f"the grid needs at least 3 points, so t_end >= 1.5 dt (t_end / dt = {t_end / dt:.6g})",
            "/t_end",
        )


def _boolean(v, ptr: str) -> bool:
    if not isinstance(v, bool):
        raise ConfigError(f"expected a boolean, got {type(v).__name__}", ptr)
    return v


def _string(v, ptr: str) -> str:
    if not isinstance(v, str):
        raise ConfigError(f"expected a string, got {type(v).__name__}", ptr)
    return v


def matrix_from_config(v, ptr: str) -> np.ndarray:
    """Square complex matrix from row-major nested arrays of [re, im] pairs."""
    rows = _as_list(v, ptr)
    if not rows:
        raise ConfigError("matrix must be non-empty", ptr)
    n = len(rows)
    out = np.zeros((n, n), dtype=complex)
    for i, row in enumerate(rows):
        row = _as_list(row, f"{ptr}/{i}")
        if len(row) != n:
            raise ConfigError(f"row has {len(row)} entries, expected {n}", f"{ptr}/{i}")
        for j, pair in enumerate(row):
            pair = _as_list(pair, f"{ptr}/{i}/{j}")
            if len(pair) != 2:
                raise ConfigError("matrix entry must be a [re, im] pair", f"{ptr}/{i}/{j}")
            re = _number(pair[0], f"{ptr}/{i}/{j}/0")
            im = _number(pair[1], f"{ptr}/{i}/{j}/1")
            out[i, j] = complex(re, im)
    return out


def _scalar_from_config(v, ptr: str):
    try:
        return scalar_from_config(v)
    except ValueError as exc:
        raise ConfigError(str(exc), ptr) from exc


def _operator_from_config(v, dim: int, ptr: str) -> TimeDependentOperator:
    """Operator = bare matrix, or array of {"matrix": ..., "modulation": scalar} terms."""
    items = _as_list(v, ptr)
    if not items:
        return zero_operator(dim)
    if all(isinstance(item, list) for item in items):
        op = constant_operator(matrix_from_config(items, ptr))
    else:
        terms = []
        for i, item in enumerate(items):
            term = _as_object(item, f"{ptr}/{i}")
            _check_keys(term, {"matrix", "modulation"}, {"matrix"}, f"{ptr}/{i}")
            base = matrix_from_config(term["matrix"], f"{ptr}/{i}/matrix")
            mod = (
                _scalar_from_config(term["modulation"], f"{ptr}/{i}/modulation")
                if "modulation" in term
                else scalar_from_config(1.0)
            )
            terms.append(OperatorTerm(base, mod))
        op = TimeDependentOperator(terms[0].base.shape[0], tuple(terms))
    if op.dim != dim:
        raise ConfigError(f"operator dimension {op.dim} does not match model dim {dim}", ptr)
    return op


def _family_from_config(v, dim: int, ptr: str):
    d = _as_object(v, ptr)
    family = _string(d.get("family"), f"{ptr}/family") if "family" in d else None
    if family is None:
        raise ConfigError("missing required key(s): family", f"{ptr}/family")
    if family == "ry":
        _check_keys(d, {"family"}, {"family"}, ptr)
        fam = RyStateFamily()
    elif family == "ry_fixed":
        _check_keys(d, {"family", "angle"}, {"family", "angle"}, ptr)
        fam = FixedRyStateFamily(angle=_number(d["angle"], f"{ptr}/angle"))
    elif family == "linear":
        _check_keys(d, {"family", "rho0", "drho0_dtheta", "theta_ref"}, {"family", "rho0", "drho0_dtheta", "theta_ref"}, ptr)
        fam = LinearStateFamily(
            base=matrix_from_config(d["rho0"], f"{ptr}/rho0"),
            slope=matrix_from_config(d["drho0_dtheta"], f"{ptr}/drho0_dtheta"),
            theta_ref=_number(d["theta_ref"], f"{ptr}/theta_ref"),
        )
    else:
        raise ConfigError(
            f"unknown family {family!r}; expected one of ['linear', 'ry', 'ry_fixed']",
            f"{ptr}/family",
        )
    if fam.dim() != dim:
        raise ConfigError(f"family dimension {fam.dim()} does not match model dim {dim}", ptr)
    return fam


def _channel_from_config(v, dim: int, index: int, ptr: str) -> Channel:
    d = _as_object(v, ptr)
    _check_keys(d, {"label", "A", "gamma", "dA_dtheta", "dgamma_dtheta"}, {"A", "gamma"}, ptr)
    label = _string(d["label"], f"{ptr}/label") if "label" in d else f"ch{index}"
    return Channel(
        label=label,
        A=_operator_from_config(d["A"], dim, f"{ptr}/A"),
        gamma=_scalar_from_config(d["gamma"], f"{ptr}/gamma"),
        dA_dtheta=(
            _operator_from_config(d["dA_dtheta"], dim, f"{ptr}/dA_dtheta")
            if "dA_dtheta" in d
            else zero_operator(dim)
        ),
        dgamma_dtheta=(
            _scalar_from_config(d["dgamma_dtheta"], f"{ptr}/dgamma_dtheta")
            if "dgamma_dtheta" in d
            else scalar_from_config(0.0)
        ),
    )


def _model_from_config(v, ptr: str) -> tuple[ModelSpec, str]:
    d = _as_object(v, ptr)
    if "builtin" in d:
        _check_keys(d, {"builtin", "params"}, {"builtin"}, ptr)
        name = _string(d["builtin"], f"{ptr}/builtin")
        params = _as_object(d.get("params", {}), f"{ptr}/params")
        try:
            return builtin_model(name, params), name
        except ValueError as exc:
            raise ConfigError(str(exc), f"{ptr}/builtin") from exc
    allowed = {"dim", "hamiltonian", "dH_dtheta", "channels", "rho0_family", "theta"}
    _check_keys(d, allowed, {"dim", "hamiltonian", "rho0_family", "theta"}, ptr)
    dim_val = d["dim"]
    if isinstance(dim_val, bool) or not isinstance(dim_val, int) or dim_val < 1:
        raise ConfigError("dim must be a positive integer", f"{ptr}/dim")
    dim = dim_val
    channels = tuple(
        _channel_from_config(c, dim, i, f"{ptr}/channels/{i}")
        for i, c in enumerate(_as_list(d.get("channels", []), f"{ptr}/channels"))
    )
    try:
        model = ModelSpec(
            dim=dim,
            H=_operator_from_config(d["hamiltonian"], dim, f"{ptr}/hamiltonian"),
            dH_dtheta=(
                _operator_from_config(d["dH_dtheta"], dim, f"{ptr}/dH_dtheta")
                if "dH_dtheta" in d
                else zero_operator(dim)
            ),
            channels=channels,
            rho0_family=_family_from_config(d["rho0_family"], dim, f"{ptr}/rho0_family"),
            theta=_number(d["theta"], f"{ptr}/theta"),
        )
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc), ptr) from exc
    return model, "inline"


def parse_config(text: bytes | str) -> RunConfig:
    """Validate a UTF-8 JSON run configuration (strict: unknown keys rejected)."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config is not valid UTF-8: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"JSON syntax error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    d = _as_object(doc, "")
    allowed = {"model", "theta", "t_end", "dt", "delta_theta", "outputs", "checks", "tolerances"}
    _check_keys(d, allowed, {"model", "t_end", "dt"}, "")
    model, model_name = _model_from_config(d["model"], "/model")
    theta = _number(d["theta"], "/theta") if "theta" in d else model.theta
    t_end = _positive(d["t_end"], "/t_end", "t_end")
    dt = _positive(d["dt"], "/dt", "dt")
    _check_grid(t_end, dt)
    delta_theta = (
        _positive(d["delta_theta"], "/delta_theta", "delta_theta")
        if "delta_theta" in d
        else 1e-4
    )
    outputs: list[OutputTarget] = []
    if "outputs" in d:
        for i, item in enumerate(_as_list(d["outputs"], "/outputs")):
            o = _as_object(item, f"/outputs/{i}")
            _check_keys(o, {"csv_path", "json_summary_path"}, set(), f"/outputs/{i}")
            csv_path = _string(o["csv_path"], f"/outputs/{i}/csv_path") if "csv_path" in o else None
            summary_path = (
                _string(o["json_summary_path"], f"/outputs/{i}/json_summary_path")
                if "json_summary_path" in o
                else None
            )
            if csv_path is None and summary_path is None:
                raise ConfigError(
                    "output target needs csv_path and/or json_summary_path", f"/outputs/{i}"
                )
            outputs.append(OutputTarget(csv_path, summary_path))
    if not outputs:
        outputs = [OutputTarget(DEFAULT_CSV_PATH, DEFAULT_SUMMARY_PATH)]
    checks = CheckFlags()
    if "checks" in d:
        c = _as_object(d["checks"], "/checks")
        _check_keys(c, {"oracle", "theta_consistency", "intervals"}, set(), "/checks")
        checks = CheckFlags(
            oracle=_boolean(c["oracle"], "/checks/oracle") if "oracle" in c else checks.oracle,
            theta_consistency=(
                _boolean(c["theta_consistency"], "/checks/theta_consistency")
                if "theta_consistency" in c
                else checks.theta_consistency
            ),
            intervals=(
                _boolean(c["intervals"], "/checks/intervals")
                if "intervals" in c
                else checks.intervals
            ),
        )
    tolerances = DEFAULT_TOLERANCES
    if "tolerances" in d:
        td = _as_object(d["tolerances"], "/tolerances")
        _check_keys(td, {"herm", "trace", "positivity"}, set(), "/tolerances")
        tolerances = ToleranceConfig(
            herm=_positive(td["herm"], "/tolerances/herm", "herm") if "herm" in td else tolerances.herm,
            trace=_positive(td["trace"], "/tolerances/trace", "trace") if "trace" in td else tolerances.trace,
            positivity=(
                _positive(td["positivity"], "/tolerances/positivity", "positivity")
                if "positivity" in td
                else tolerances.positivity
            ),
        )
    return RunConfig(
        model=model,
        model_name=model_name,
        theta=theta,
        t_end=t_end,
        dt=dt,
        delta_theta=delta_theta,
        outputs=tuple(outputs),
        checks=checks,
        tolerances=tolerances,
    )


# ---------------------------------------------------------------------------
# run orchestration
# ---------------------------------------------------------------------------


def _generator_theta_independent(model: ModelSpec) -> bool:
    return (
        model.dH_dtheta.is_zero
        and all(scalar_is_zero(ch.dgamma_dtheta) for ch in model.channels)
        and all(ch.dA_dtheta.is_zero for ch in model.channels)
    )


def run_simulate(config: RunConfig) -> RunSummary:
    """Propagate, decompose the flow, run the enabled checks, emit files.

    All summary statistics over finite-difference comparisons use interior
    grid points only (one-sided endpoint stencils carry larger truncation
    error); pointwise quantities use the whole grid.
    """
    model = config.model
    theta = config.theta
    validate_model(model, theta, tol=config.tolerances, delta_theta=config.delta_theta)
    traj = propagate(model, theta, config.t_end, config.dt, config.tolerances)
    table = flow_records(traj)
    flow_accept = FLOW_ACCEPT_FACTOR * max(1.0, float(np.max(table.qfi)))
    max_completeness = float(np.max(np.abs(table.flow_fd - table.full_flow)[1:-1]))
    max_decomposition = float(np.max(np.abs(table.flow_fd - sum(table.I))[1:-1]))
    max_ham = float(np.max(np.abs(table.ham_term)))
    max_residual = float(np.max(np.abs(table.residual_T)))
    cuts = np.flatnonzero(table.thresholded_pairs)

    probe_times = tuple(float(x) for x in np.linspace(0.0, config.t_end, 5))
    probes = probe_theta_dependence(model, theta, probe_times, config.delta_theta)
    verdicts = {}
    declarations_consistent = True
    for key, probe in probes.items():
        dependent = probe.fd_magnitude > THETA_DEPENDENCE_EPS
        verdicts[key] = Verdict(
            status="violated" if dependent else "holds",
            magnitude=probe.fd_magnitude,
        )
        if dependent == probe.declared_zero:
            declarations_consistent = False

    interval_reports = tuple(classify_intervals(table))

    checks: dict[str, CheckOutcome] = {}
    if config.checks.oracle:
        value = max_completeness
        passed = max_completeness <= flow_accept and declarations_consistent
        if _generator_theta_independent(model):
            value = max(value, max_decomposition)
            passed = passed and max_decomposition <= flow_accept
        checks["oracle"] = CheckOutcome(True, passed, value, flow_accept)
    else:
        checks["oracle"] = CheckOutcome(False, None, None, flow_accept)
    if config.checks.theta_consistency:
        deviation = fd_theta_consistency(traj, config.delta_theta)
        checks["theta_consistency"] = CheckOutcome(
            True, deviation <= THETA_CONSISTENCY_TOL, deviation, THETA_CONSISTENCY_TOL
        )
    else:
        checks["theta_consistency"] = CheckOutcome(False, None, None, THETA_CONSISTENCY_TOL)
    if config.checks.intervals:
        overlaps = [
            rep.overlap_fraction
            for rep in interval_reports
            if rep.overlap_fraction is not None
        ]
        if overlaps:
            worst = min(overlaps)
            checks["intervals"] = CheckOutcome(
                True, worst >= INTERVAL_OVERLAP_MIN, worst, INTERVAL_OVERLAP_MIN
            )
        else:
            checks["intervals"] = CheckOutcome(True, None, None, INTERVAL_OVERLAP_MIN)
    else:
        checks["intervals"] = CheckOutcome(False, None, None, INTERVAL_OVERLAP_MIN)

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
        theta_independence=verdicts,
        checks=checks,
        tolerances={
            "herm": config.tolerances.herm,
            "trace": config.tolerances.trace,
            "positivity": config.tolerances.positivity,
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
    channel declaration order; 17-significant-digit decimals, LF endings."""
    if not len(table):
        raise ValueError("empty flow table")
    header = ["t", "F", "flow_fd", "full_flow", "ham_term", "residual_T"]
    for label in table.labels:
        header += [f"gamma_{label}", f"J_{label}", f"I_{label}"]
    triplets = np.stack([table.gamma, table.J, table.I], axis=1).reshape(-1, len(table))
    columns = np.vstack(
        [table.t, table.qfi, table.flow_fd, table.full_flow, table.ham_term, table.residual_T, triplets]
    )
    row = ",".join(["%.17g"] * len(header)) + "\n"
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        fh.write(row * len(table) % tuple(columns.T.ravel().tolist()))


def _interval_report_to_dict(rep: IntervalReport) -> dict:
    return {
        "channel": rep.channel,
        "negative_rate_intervals": [[a, b] for a, b in rep.negative_rate_intervals],
        "positive_subflow_intervals": [[a, b] for a, b in rep.positive_subflow_intervals],
        "overlap_fraction": rep.overlap_fraction,
    }


def summary_to_dict(summary: RunSummary) -> dict:
    return {
        "model_name": summary.model_name,
        "theta": summary.theta,
        "t_end": summary.t_end,
        "dt": summary.dt,
        "delta_theta": summary.delta_theta,
        "max_abs_flow_fd_minus_full_flow": summary.max_abs_flow_fd_minus_full_flow,
        "max_abs_flow_fd_minus_subflow_sum": summary.max_abs_flow_fd_minus_subflow_sum,
        "max_abs_ham_term": summary.max_abs_ham_term,
        "max_abs_residual_t": summary.max_abs_residual_t,
        "max_trace_drift": summary.max_trace_drift,
        "min_rho_eigenvalue": summary.min_rho_eigenvalue,
        "sld_support_cut_points": summary.sld_support_cut_points,
        "sld_support_cut_max_pairs": summary.sld_support_cut_max_pairs,
        "sld_support_cut_first_t": summary.sld_support_cut_first_t,
        "interval_reports": [_interval_report_to_dict(r) for r in summary.interval_reports],
        "theta_independence": {
            key: {"status": v.status, "magnitude": v.magnitude}
            for key, v in summary.theta_independence.items()
        },
        "checks": {
            name: dataclasses.asdict(outcome) for name, outcome in summary.checks.items()
        },
        "tolerances": dict(summary.tolerances),
        "all_enabled_checks_passed": summary.all_checks_passed,
    }


def emit_summary(summary: RunSummary, path: str) -> None:
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        json.dump(summary_to_dict(summary), fh, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

_CHECK_ALIASES = {
    "oracle": "oracle",
    "theta": "theta_consistency",
    "theta_consistency": "theta_consistency",
    "intervals": "intervals",
}


def _apply_overrides(config: RunConfig, args: argparse.Namespace) -> RunConfig:
    updates: dict = {}
    if args.dt is not None:
        if args.dt <= 0.0:
            raise ConfigError("invariant violation: dt > 0", "/dt")
        updates["dt"] = args.dt
    if args.t_end is not None:
        if args.t_end <= 0.0:
            raise ConfigError("invariant violation: t_end > 0", "/t_end")
        updates["t_end"] = args.t_end
    _check_grid(updates.get("t_end", config.t_end), updates.get("dt", config.dt))
    if args.out is not None or args.summary is not None:
        updates["outputs"] = (OutputTarget(args.out, args.summary),)
    if args.check is not None:
        enabled = set()
        for token in args.check.split(","):
            token = token.strip()
            if not token:
                continue
            if token not in _CHECK_ALIASES:
                raise ConfigError(
                    f"unknown check {token!r}; expected one of "
                    f"{sorted(set(_CHECK_ALIASES))}",
                    "/checks",
                )
            enabled.add(_CHECK_ALIASES[token])
        updates["checks"] = CheckFlags(
            oracle="oracle" in enabled,
            theta_consistency="theta_consistency" in enabled,
            intervals="intervals" in enabled,
        )
    tol_updates = {}
    if args.tol_herm is not None:
        tol_updates["herm"] = args.tol_herm
    if args.tol_trace is not None:
        tol_updates["trace"] = args.tol_trace
    if args.tol_positivity is not None:
        tol_updates["positivity"] = args.tol_positivity
    if tol_updates:
        updates["tolerances"] = dataclasses.replace(config.tolerances, **tol_updates)
    return dataclasses.replace(config, **updates) if updates else config


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qfiflow",
        description="Simulate QFI flow for time-local master equations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sim = sub.add_parser("simulate", help="run a configured simulation")
    sim.add_argument("--config", required=True, help="path to the JSON run configuration")
    sim.add_argument("--out", default=None, help="CSV output path (overrides config outputs)")
    sim.add_argument("--summary", default=None, help="JSON summary path (overrides config outputs)")
    sim.add_argument(
        "--check",
        default=None,
        help="comma-separated checks to enable: oracle,theta,intervals",
    )
    sim.add_argument("--dt", type=float, default=None, help="override time step")
    sim.add_argument("--t-end", dest="t_end", type=float, default=None, help="override end time")
    sim.add_argument("--tol-herm", type=float, default=None, help="override Hermiticity tolerance")
    sim.add_argument("--tol-trace", type=float, default=None, help="override trace tolerance")
    sim.add_argument(
        "--tol-positivity", type=float, default=None, help="override positivity tolerance"
    )
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
        config = parse_config(text)
        config = _apply_overrides(config, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        summary = run_simulate(config)
    except (PropagationError, ScalarPoleError) as exc:
        print(f"runtime abort: {exc}", file=sys.stderr)
        return 3
    except (ValueError, ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return 3
    for name, outcome in summary.checks.items():
        if not outcome.enabled:
            status = "skipped"
        elif outcome.passed is None:
            status = "n/a"
        else:
            status = "pass" if outcome.passed else "FAIL"
        detail = ""
        if outcome.value is not None:
            detail = f" (value {outcome.value:.3e}, tolerance {outcome.tolerance:.3e})"
        print(f"check {name}: {status}{detail}")
    for key, verdict in summary.theta_independence.items():
        if verdict.status == "holds":
            print(f"theta-independence {key}: holds")
        else:
            print(f"theta-independence {key}: violated (magnitude {verdict.magnitude:.6g})")
    return 0 if summary.all_checks_passed else 1


if __name__ == "__main__":
    sys.exit(main())
