"""Configuration, run orchestration, and bit-stable output emission.

A run is described by a strict JSON config (unknown keys rejected, errors
carry JSON-pointer paths), executed end to end (propagate, SLD/QFI,
per-channel flow decomposition, validity checks), and emitted as a CSV time
series plus a JSON summary.  Numbers are written with 17 significant digits
so double-precision values round-trip exactly and reruns are byte-identical.

Command-line flags are config fields: ``main`` turns them into a partial
config document that :func:`parse_config` merges over the file's top-level
keys (a ``--tol-*`` flag into the file's ``tolerances`` object) before
validating, so a flag is checked exactly like its field and reported under
the field's pointer.  The ``checks``, ``tolerances`` and ``outputs`` objects
are parsed from the fields of their dataclasses, and the summary is
:class:`RunSummary` itself.

Exit codes: 0 success, 1 enabled check failed, 2 config error (including an
output path in a missing directory, an output path that is a directory, and
one path used twice across the outputs), 3 runtime or numerical abort, or
an output file that cannot be written.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from .estimation import DEFAULT_EPS_RANK
from .flow import (
    SIGN_THRESHOLD,
    FlowTable,
    IntervalReport,
    classify_intervals,
)
from .model import (
    Channel,
    ConfigError,
    FixedRyStateFamily,
    LinearStateFamily,
    ModelSpec,
    OperatorTerm,
    RyStateFamily,
    ScalarPoleError,
    TimeDependentOperator,
    builtin_model,
    check_config_keys,
    config_number,
    constant_operator,
    matrix_to_config,
    model_to_config,
    probe_theta_dependence,
    scalar_from_config,
    validate_model,
    zero_operator,
)
from .operators import ToleranceConfig
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


def _positive(v, ptr: str) -> float:
    name = ptr.rsplit("/", 1)[-1]
    x = config_number(v, ptr, name)
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
            re = config_number(pair[0], f"{ptr}/{i}/{j}/0", "matrix entry")
            im = config_number(pair[1], f"{ptr}/{i}/{j}/1", "matrix entry")
            out[i, j] = complex(re, im)
    return out


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
            check_config_keys(term, ("matrix", "modulation"), ("matrix",), f"{ptr}/{i}")
            base = matrix_from_config(term["matrix"], f"{ptr}/{i}/matrix")
            mod = (
                scalar_from_config(term["modulation"], f"{ptr}/{i}/modulation")
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
        raise ConfigError("missing key(s) ['family']", f"{ptr}/family")
    if family == "ry":
        check_config_keys(d, ("family",), (), ptr)
        fam = RyStateFamily()
    elif family == "ry_fixed":
        check_config_keys(d, ("family", "angle"), ("angle",), ptr)
        fam = FixedRyStateFamily(angle=config_number(d["angle"], f"{ptr}/angle", "angle"))
    elif family == "linear":
        fields = ("rho0", "drho0_dtheta", "theta_ref")
        check_config_keys(d, ("family",) + fields, fields, ptr)
        fam = LinearStateFamily(
            base=matrix_from_config(d["rho0"], f"{ptr}/rho0"),
            slope=matrix_from_config(d["drho0_dtheta"], f"{ptr}/drho0_dtheta"),
            theta_ref=config_number(d["theta_ref"], f"{ptr}/theta_ref", "theta_ref"),
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
    check_config_keys(d, ("label", "A", "gamma", "dA_dtheta", "dgamma_dtheta"), ("A", "gamma"), ptr)
    label = _string(d["label"], f"{ptr}/label") if "label" in d else f"ch{index}"
    return Channel(
        label=label,
        A=_operator_from_config(d["A"], dim, f"{ptr}/A"),
        gamma=scalar_from_config(d["gamma"], f"{ptr}/gamma"),
        dA_dtheta=(
            _operator_from_config(d["dA_dtheta"], dim, f"{ptr}/dA_dtheta")
            if "dA_dtheta" in d
            else zero_operator(dim)
        ),
        dgamma_dtheta=(
            scalar_from_config(d["dgamma_dtheta"], f"{ptr}/dgamma_dtheta")
            if "dgamma_dtheta" in d
            else scalar_from_config(0.0)
        ),
    )


def _model_from_config(v, ptr: str) -> tuple[ModelSpec, str]:
    d = _as_object(v, ptr)
    if "builtin" in d:
        check_config_keys(d, ("builtin", "params"), ("builtin",), ptr)
        name = _string(d["builtin"], f"{ptr}/builtin")
        return builtin_model(name, _as_object(d.get("params", {}), f"{ptr}/params"), ptr), name
    allowed = ("dim", "hamiltonian", "dH_dtheta", "channels", "rho0_family", "theta")
    check_config_keys(d, allowed, ("dim", "hamiltonian", "rho0_family", "theta"), ptr)
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
            theta=config_number(d["theta"], f"{ptr}/theta", "theta"),
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc), ptr) from exc
    return model, "inline"


def _fields_from_config(cls, v, ptr: str, parse):
    """The dataclass ``cls`` from a config object of its fields, each read by
    ``parse(value, pointer)``, in declaration order; absent fields keep their defaults."""
    d = _as_object(v, ptr)
    names = [f.name for f in dataclasses.fields(cls)]
    check_config_keys(d, names, (), ptr)
    return cls(**{name: parse(d[name], f"{ptr}/{name}") for name in names if name in d})


def _output_from_config(v, ptr: str, seen: set) -> OutputTarget:
    """An output target whose paths are files in existing directories, none of them
    in ``seen``, the resolved paths of earlier targets (checked before a run)."""
    target = _fields_from_config(OutputTarget, v, ptr, _string)
    if target == OutputTarget():
        raise ConfigError("output target needs csv_path and/or json_summary_path", ptr)
    for name, path in dataclasses.asdict(target).items():
        if not path:
            continue
        if not os.path.isdir(os.path.dirname(path) or "."):
            raise ConfigError(f"directory of {path!r} does not exist", f"{ptr}/{name}")
        if os.path.isdir(path):
            raise ConfigError(f"{path!r} is a directory", f"{ptr}/{name}")
        if os.path.realpath(path) in seen:
            raise ConfigError(f"{path!r} is already an output path", f"{ptr}/{name}")
        seen.add(os.path.realpath(path))
    return target


def parse_config(text: bytes | str, flags: dict | None = None) -> RunConfig:
    """Validate a UTF-8 JSON run configuration (strict: unknown keys rejected).

    ``flags`` is a partial config document, merged over the file's top-level
    keys before validation; its ``tolerances`` object merges into the file's.
    """
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
    except (ValueError, RecursionError) as exc:  # a too long integer, a too deep nesting
        raise ConfigError(f"JSON value rejected: {exc}") from exc
    d = dict(_as_object(doc, ""))
    for key, value in (flags or {}).items():
        if key == "tolerances":
            value = {**_as_object(d.get(key, {}), "/tolerances"), **value}
        d[key] = value
    allowed = ("model", "theta", "t_end", "dt", "delta_theta", "outputs", "checks", "tolerances")
    check_config_keys(d, allowed, ("model", "t_end", "dt"), "")
    model, model_name = _model_from_config(d["model"], "/model")
    theta = config_number(d["theta"], "/theta", "theta") if "theta" in d else model.theta
    t_end = _positive(d["t_end"], "/t_end")
    dt = _positive(d["dt"], "/dt")
    _check_grid(t_end, dt)
    seen: set[str] = set()
    outputs = tuple(
        _output_from_config(item, f"/outputs/{i}", seen)
        for i, item in enumerate(_as_list(d.get("outputs", []), "/outputs"))
    )
    return RunConfig(
        model=model,
        model_name=model_name,
        theta=theta,
        t_end=t_end,
        dt=dt,
        delta_theta=_positive(d["delta_theta"], "/delta_theta") if "delta_theta" in d else 1e-4,
        outputs=outputs or (OutputTarget(DEFAULT_CSV_PATH, DEFAULT_SUMMARY_PATH),),
        checks=_fields_from_config(CheckFlags, d.get("checks", {}), "/checks", _boolean),
        tolerances=_fields_from_config(ToleranceConfig, d.get("tolerances", {}), "/tolerances", _positive),
    )


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
    validate_model(model, theta, tol=config.tolerances, delta_theta=config.delta_theta)
    traj = propagate(model, theta, config.t_end, config.dt, config.tolerances)
    table = traj.flow
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
        if all(p.declared_zero for p in probes.values()):
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
    sim.add_argument("--out", default=None, help="CSV output path (overrides config outputs)")
    sim.add_argument("--summary", default=None, help="JSON summary path (overrides config outputs)")
    sim.add_argument(
        "--check",
        default=None,
        help="comma-separated checks to enable: oracle,theta,intervals",
    )
    sim.add_argument("--dt", type=float, default=None, help="override time step")
    sim.add_argument("--t-end", dest="t_end", type=float, default=None, help="override end time")
    for f in dataclasses.fields(ToleranceConfig):
        sim.add_argument(
            f"--tol-{f.name}", type=float, default=None, help=f"override tolerances/{f.name}"
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
