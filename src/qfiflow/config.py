"""The run configuration format, read and written in one place.

A run is described by a strict JSON document: unknown keys are rejected and
every error is a :class:`ConfigError` carrying the JSON pointer of the
offending field.  The tagged objects -- scalar forms and initial-state
families -- are written once, as tables ``tag -> (class, ((key, attribute,
kind), ...))``; their reader and their writer both come from the table, and
a dataclass default marks a key as optional.  :func:`model_to_config` writes
an inline model that :func:`parse_config` reads back to the same generator.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .model import (
    BUILTIN_MODEL_NAMES,
    BUILTINS,
    Channel,
    ConstantScalar,
    FixedRyStateFamily,
    JcLorentzianScalar,
    LinearStateFamily,
    ModelSpec,
    OperatorTerm,
    RyStateFamily,
    SinusoidalScalar,
    ThetaScaledScalar,
    TimeDependentOperator,
    TimeDependentScalar,
    constant_operator,
    zero_operator,
)
from .operators import ModelError, ToleranceConfig
from .propagation import DEFAULT_DELTA_THETA, grid_steps

__all__ = [
    "ConfigError",
    "config_number",
    "check_config_keys",
    "matrix_from_config",
    "matrix_to_config",
    "scalar_from_config",
    "scalar_to_config",
    "builtin_model",
    "OutputTarget",
    "CheckFlags",
    "RunConfig",
    "parse_config",
    "model_to_config",
]

DEFAULT_CSV_PATH = "qfi_flow.csv"
DEFAULT_SUMMARY_PATH = "qfi_flow_summary.json"


class ConfigError(ValueError):
    """A config document rejected; ``pointer`` is the JSON pointer of the offending
    field, relative to the document the parsing function was given."""

    def __init__(self, message: str, pointer: str = ""):
        super().__init__(message)
        self.pointer = pointer


def config_number(v, pointer: str, what: str) -> float:
    """v as a float if it is a finite JSON number (not a boolean)."""
    x = math.nan
    if isinstance(v, (int, float)) and not isinstance(v, bool):
        try:
            x = float(v)
        except OverflowError:  # an integer beyond the float range
            pass
    if not math.isfinite(x):
        raise ConfigError(f"{what} must be a finite number, got {v!r}", pointer)
    return x


def check_config_keys(d: dict, allowed, required, pointer: str, noun: str = "key", where: str = "") -> None:
    """Reject keys of the object d outside ``allowed`` and keys of ``required`` it lacks."""
    unknown = sorted(set(d) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown {noun}(s) {unknown}{where}", f"{pointer}/{unknown[0]}")
    missing = [k for k in required if k not in d]
    if missing:
        raise ConfigError(f"missing {noun}(s) {missing}{where}", f"{pointer}/{missing[0]}")


def _expect(kind: type, noun: str):
    """A reader passing a value of type ``kind`` and rejecting any other at its pointer."""

    def read(v, ptr: str):
        if not isinstance(v, kind):
            raise ConfigError(f"expected {noun}, got {type(v).__name__}", ptr)
        return v

    return read


_as_object, _as_list, _boolean, _string = (
    _expect(dict, "an object"), _expect(list, "an array"), _expect(bool, "a boolean"), _expect(str, "a string")
)


def _positive(v, ptr: str) -> float:
    name = ptr.rsplit("/", 1)[-1]
    x = config_number(v, ptr, name)
    if x <= 0.0:
        raise ConfigError(f"invariant violation: {name} > 0", ptr)
    return x


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


def matrix_to_config(m: np.ndarray) -> list:
    """Inverse of :func:`matrix_from_config`."""
    return [[[float(x.real), float(x.imag)] for x in row] for row in np.asarray(m, dtype=complex)]


# ---------------------------------------------------------------------------
# tagged objects: scalar forms and initial-state families
# ---------------------------------------------------------------------------


SCALAR_FORMS = {
    "constant": (ConstantScalar, (("c", "c", "number"),)),
    "sinusoidal": (
        SinusoidalScalar,
        (("c0", "c0", "number"), ("a", "a", "number"), ("omega", "omega", "number"), ("phi", "phi", "number")),
    ),
    "jc_lorentzian": (JcLorentzianScalar, (("gamma0", "gamma0", "number"), ("lambda", "lam", "number"))),
    "theta_scaled": (ThetaScaledScalar, (("base", "base", "base"),)),
}

FAMILIES = {
    "ry": (RyStateFamily, ()),
    "ry_fixed": (FixedRyStateFamily, (("angle", "angle", "number"),)),
    "linear": (
        LinearStateFamily,
        (("rho0", "base", "matrix"), ("drho0_dtheta", "slope", "matrix"), ("theta_ref", "theta_ref", "number")),
    ),
}


def _from_table(table: dict, key: str, noun: str, d: dict, ptr: str, what: str, where: str = ""):
    """The object whose tag ``d[key]`` names it in ``table``; ``what`` and ``where``
    (formatted with a key and with the tag) name a number and the object in errors."""
    tag = d.get(key)
    if not isinstance(tag, str) or tag not in table:
        raise ConfigError(f"unknown {noun} {tag!r}; expected one of {sorted(table)}", f"{ptr}/{key}")
    cls, fields = table[tag]
    optional = {f.name for f in dataclasses.fields(cls) if f.default is not dataclasses.MISSING}
    required = [k for k, attr, _ in fields if attr not in optional]
    check_config_keys(d, [key, *(k for k, _, _ in fields)], required, ptr, where=where.format(tag))
    return cls(**{attr: _KINDS[kind][0](d[k], f"{ptr}/{k}", what.format(k)) for k, attr, kind in fields if k in d})


def _to_table(table: dict, key: str, obj) -> dict:
    """Inverse of :func:`_from_table`."""
    tag = next(tag for tag, (cls, _) in table.items() if type(obj) is cls)
    return {key: tag, **{k: _KINDS[kind][1](getattr(obj, attr)) for k, attr, kind in table[tag][1]}}


def scalar_from_config(obj, pointer: str = "") -> TimeDependentScalar:
    """Build a scalar form from its JSON representation (a bare number means
    constant); a :class:`ConfigError` points below ``pointer``, the scalar's own."""
    if isinstance(obj, (int, float)) and not isinstance(obj, bool):
        return ConstantScalar(config_number(obj, pointer, "scalar"))
    if not isinstance(obj, dict):
        raise ConfigError("scalar must be a number or an object with a 'form' key", pointer)
    return _from_table(SCALAR_FORMS, "form", "scalar form", obj, pointer, "scalar field {!r}", " for scalar form {!r}")


def scalar_to_config(s: TimeDependentScalar) -> dict:
    """Inverse of :func:`scalar_from_config`."""
    return _to_table(SCALAR_FORMS, "form", s)


def _scalar_base(v, ptr: str, what: str) -> TimeDependentScalar:
    """The base of a theta_scaled form: a theta-independent scalar form."""
    s = scalar_from_config(v, ptr)
    if isinstance(s, ThetaScaledScalar):
        raise ConfigError("theta_scaled base must itself be theta-independent", ptr)
    return s


# The kinds of a table's fields: kind -> (reader of (value, pointer, name of a number), writer).
_KINDS = {
    "number": (config_number, float),
    "matrix": (lambda v, ptr, what: matrix_from_config(v, ptr), matrix_to_config),
    "base": (_scalar_base, scalar_to_config),
}


def _family_from_config(v, ptr: str):
    d = _as_object(v, ptr)
    if "family" not in d:
        raise ConfigError("missing key(s) ['family']", f"{ptr}/family")
    _string(d["family"], f"{ptr}/family")
    return _from_table(FAMILIES, "family", "family", d, ptr, "{}")


# ---------------------------------------------------------------------------
# models
# ---------------------------------------------------------------------------


def builtin_model(name: str, params: dict | None = None, pointer: str = "") -> ModelSpec:
    """Instantiate one of the built-in demonstration models by name.

    ``pointer`` locates the model's config object ``{"builtin", "params"}``;
    a :class:`ConfigError` points at ``/builtin`` or at a parameter below
    ``/params``.  A parameter whose default is a scalar form takes a
    theta-independent scalar; the others take finite numbers.
    """
    if name not in BUILTINS:
        raise ConfigError(f"unknown model {name!r}; expected one of {BUILTIN_MODEL_NAMES}", f"{pointer}/builtin")
    build, defaults = BUILTINS[name]
    params, pointer = params or {}, f"{pointer}/params"
    check_config_keys(params, defaults, (), pointer, noun="parameter", where=f" for model {name!r}")
    values = []
    for k, default in defaults.items():
        if isinstance(default, float):
            values.append(config_number(params.get(k, default), f"{pointer}/{k}", f"parameter {k!r}"))
            continue
        try:
            s = scalar_from_config(params[k], f"{pointer}/{k}") if k in params else default
        except ConfigError as exc:
            raise ConfigError(f"parameter {k!r}: {exc}", exc.pointer) from exc
        if isinstance(s, ThetaScaledScalar):
            raise ConfigError(f"parameter {k!r} must be theta-independent (theta scaling is implied)", f"{pointer}/{k}")
        values.append(s)
    return build(*values)


def _operator_from_config(v, dim: int, ptr: str) -> TimeDependentOperator:
    """Operator = bare matrix, or array of {"matrix": ..., "modulation": scalar} terms."""
    items = _as_list(v, ptr)
    if not items:
        return zero_operator(dim)
    if all(isinstance(item, list) for item in items):
        return constant_operator(matrix_from_config(items, ptr))
    terms = []
    for i, item in enumerate(items):
        term = _as_object(item, f"{ptr}/{i}")
        check_config_keys(term, ("matrix", "modulation"), ("matrix",), f"{ptr}/{i}")
        base = matrix_from_config(term["matrix"], f"{ptr}/{i}/matrix")
        terms.append(OperatorTerm(base, scalar_from_config(term.get("modulation", 1.0), f"{ptr}/{i}/modulation")))
    return TimeDependentOperator(terms[0].base.shape[0], tuple(terms))


def _operator_to_config(op: TimeDependentOperator) -> list:
    return [{"matrix": matrix_to_config(t.base), "modulation": scalar_to_config(t.modulation)} for t in op.terms]


def _channel_from_config(v, dim: int, ptr: str, default_label: str) -> Channel:
    d = _as_object(v, ptr)
    check_config_keys(d, ("label", "A", "gamma", "dA_dtheta", "dgamma_dtheta"), ("A", "gamma"), ptr)
    return Channel(
        label=_string(d["label"], f"{ptr}/label") if "label" in d else default_label,
        A=_operator_from_config(d["A"], dim, f"{ptr}/A"),
        gamma=scalar_from_config(d["gamma"], f"{ptr}/gamma"),
        dA_dtheta=_operator_from_config(d.get("dA_dtheta", []), dim, f"{ptr}/dA_dtheta"),
        dgamma_dtheta=scalar_from_config(d.get("dgamma_dtheta", 0.0), f"{ptr}/dgamma_dtheta"),
    )


def _model_from_config(v, ptr: str) -> tuple[ModelSpec, str]:
    d = _as_object(v, ptr)
    if "builtin" in d:
        check_config_keys(d, ("builtin", "params"), ("builtin",), ptr)
        name = _string(d["builtin"], f"{ptr}/builtin")
        return builtin_model(name, _as_object(d.get("params", {}), f"{ptr}/params"), ptr), name
    allowed = ("dim", "hamiltonian", "dH_dtheta", "channels", "rho0_family", "theta")
    check_config_keys(d, allowed, ("dim", "hamiltonian", "rho0_family", "theta"), ptr)
    dim = d["dim"]
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise ConfigError("dim must be a positive integer", f"{ptr}/dim")
    try:  # the channels first; an operator's terms of unequal shapes point at the model
        channels = _as_list(d.get("channels", []), f"{ptr}/channels")
        model = ModelSpec(
            channels=tuple(_channel_from_config(c, dim, f"{ptr}/channels/{i}", f"ch{i}") for i, c in enumerate(channels)),
            dim=dim,
            H=_operator_from_config(d["hamiltonian"], dim, f"{ptr}/hamiltonian"),
            dH_dtheta=_operator_from_config(d.get("dH_dtheta", []), dim, f"{ptr}/dH_dtheta"),
            rho0_family=_family_from_config(d["rho0_family"], f"{ptr}/rho0_family"),
            theta=config_number(d["theta"], f"{ptr}/theta", "theta"),
        )
    except ModelError as exc:
        raise ConfigError(str(exc), ptr + exc.pointer) from exc
    return model, "inline"


def model_to_config(model: ModelSpec) -> dict:
    """Inline-model JSON representation; parses back to an equivalent ModelSpec."""
    return {
        "dim": model.dim,
        "hamiltonian": _operator_to_config(model.H),
        "dH_dtheta": _operator_to_config(model.dH_dtheta),
        "channels": [
            {
                "label": ch.label,
                "A": _operator_to_config(ch.A),
                "gamma": scalar_to_config(ch.gamma),
                "dA_dtheta": _operator_to_config(ch.dA_dtheta),
                "dgamma_dtheta": scalar_to_config(ch.dgamma_dtheta),
            }
            for ch in model.channels
        ],
        "rho0_family": _to_table(FAMILIES, "family", model.rho0_family),
        "theta": model.theta,
    }


# ---------------------------------------------------------------------------
# run configuration
# ---------------------------------------------------------------------------


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
    The grid t_k = k dt up to t_end needs 3 points and a trajectory within the byte
    budget (:func:`~qfiflow.propagation.grid_steps`).
    """
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config is not valid UTF-8: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"JSON syntax error at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
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
    try:
        grid_steps(t_end, dt, model.dim)
    except ValueError as exc:
        raise ConfigError(str(exc), "/t_end") from exc
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
        delta_theta=_positive(d["delta_theta"], "/delta_theta") if "delta_theta" in d else DEFAULT_DELTA_THETA,
        outputs=outputs or (OutputTarget(DEFAULT_CSV_PATH, DEFAULT_SUMMARY_PATH),),
        checks=_fields_from_config(CheckFlags, d.get("checks", {}), "/checks", _boolean),
        tolerances=_fields_from_config(ToleranceConfig, d.get("tolerances", {}), "/tolerances", _positive),
    )
