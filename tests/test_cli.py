import dataclasses
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference_generator import apply_generator
from strategies import models, real

import qfiflow
from qfiflow import cli
from qfiflow.cli import emit_csv, emit_summary, main, run_simulate, summary_to_dict
from qfiflow.config import (
    DEFAULT_CSV_PATH,
    DEFAULT_SUMMARY_PATH,
    CheckFlags,
    ConfigError,
    OutputTarget,
    builtin_model,
    matrix_from_config,
    matrix_to_config,
    model_to_config,
    parse_config,
    scalar_from_config,
)
from qfiflow.flow import FlowTable
from qfiflow.model import BUILTIN_MODEL_NAMES, compile_generator, scalar_values
from qfiflow.operators import ModelError

AD_NM_CONFIG = {
    "model": {
        "builtin": "ad-nm",
        "params": {"gamma0": 1, "a": 1.5, "omega": 2, "omega0": 1},
    },
    "theta": 0.7853981634,
    "t_end": 5,
    "dt": 0.001,
}


def _config(**overrides):
    doc = dict(AD_NM_CONFIG)
    doc.update(overrides)
    return json.dumps(doc)


class TestParseConfig:
    def test_documented_example_is_valid(self):
        cfg = parse_config(json.dumps(AD_NM_CONFIG).encode())
        assert cfg.model_name == "ad-nm"
        assert cfg.theta == pytest.approx(0.7853981634)
        assert cfg.t_end == 5.0
        assert cfg.dt == 0.001
        assert cfg.delta_theta == 1e-4
        assert cfg.outputs == (OutputTarget(DEFAULT_CSV_PATH, DEFAULT_SUMMARY_PATH),)
        assert cfg.checks == CheckFlags(oracle=True, theta_consistency=False, intervals=True)

    def test_missing_dt(self):
        doc = dict(AD_NM_CONFIG)
        del doc["dt"]
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps(doc))
        assert err.value.pointer == "/dt"

    def test_negative_dt(self):
        with pytest.raises(ConfigError, match="dt > 0") as err:
            parse_config(_config(dt=-0.1))
        assert err.value.pointer == "/dt"

    def test_integer_beyond_float_range_rejected(self):
        with pytest.raises(ConfigError, match="finite number") as err:
            parse_config(_config(dt=10**400))
        assert err.value.pointer == "/dt"
        with pytest.raises(ConfigError, match="JSON value rejected"):
            parse_config(_config(dt=0).replace('"dt": 0', '"dt": 1' + "0" * 5000))

    def test_nesting_beyond_recursion_limit_rejected(self):
        with pytest.raises(ConfigError, match="JSON value rejected"):
            parse_config('{"model": ' + "[" * 200000 + "]" * 200000 + "}")

    def test_grid_of_fewer_than_three_points_rejected(self):
        # t_end / dt rounds to the number of steps; one step gives two grid points
        for t_end in (0.001, 0.0014):
            with pytest.raises(ConfigError, match="at least 3 points") as err:
                parse_config(_config(t_end=t_end, dt=0.001))
            assert err.value.pointer == "/t_end"
        assert parse_config(_config(t_end=0.0015, dt=0.001)).t_end == 0.0015

    def test_syntax_error_carries_position(self):
        with pytest.raises(ConfigError, match="line 1, column"):
            parse_config(b'{"model": }')

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError) as err:
            parse_config(_config(fps=60))
        assert err.value.pointer == "/fps"

    def test_unknown_builtin(self):
        with pytest.raises(ConfigError) as err:
            parse_config(_config(model={"builtin": "bogus"}))
        assert err.value.pointer == "/model/builtin"

    def test_unknown_builtin_param(self):
        with pytest.raises(ConfigError, match="unknown parameter"):
            parse_config(_config(model={"builtin": "ad-nm", "params": {"zeta": 1}}))

    def test_theta_defaults_to_model_theta(self):
        doc = dict(AD_NM_CONFIG)
        del doc["theta"]
        cfg = parse_config(json.dumps(doc))
        assert cfg.theta == pytest.approx(math.pi / 4)

    def test_explicit_outputs_and_checks(self):
        cfg = parse_config(
            _config(
                outputs=[{"csv_path": "a.csv"}, {"json_summary_path": "b.json"}],
                checks={"oracle": True, "theta_consistency": True, "intervals": False},
            )
        )
        assert cfg.outputs == (OutputTarget("a.csv", None), OutputTarget(None, "b.json"))
        assert cfg.checks == CheckFlags(True, True, False)

    def test_empty_output_target_rejected(self):
        with pytest.raises(ConfigError) as err:
            parse_config(_config(outputs=[{}]))
        assert err.value.pointer == "/outputs/0"

    def test_tolerances_override(self):
        cfg = parse_config(_config(tolerances={"trace": 1e-6}))
        assert cfg.tolerances.trace == 1e-6
        assert cfg.tolerances.herm == 1e-10

    def test_not_utf8(self):
        with pytest.raises(ConfigError, match="UTF-8"):
            parse_config(b"\xff\xfe{}")

    @pytest.mark.parametrize(
        "model, pointer",
        [
            ({"builtin": "ad-nm", "params": {"gamma0": "one"}}, "/model/params/gamma0"),
            ({"builtin": "ad-nm", "params": {"zeta": 1}}, "/model/params/zeta"),
            (
                {"builtin": "rate-estimation", "params": {"g": {"form": "sinusoidal", "c0": 1, "a": 0.5, "omega": None}}},
                "/model/params/g/omega",
            ),
            ({"builtin": "rate-estimation", "params": {"g": {"form": "constant"}}}, "/model/params/g/c"),
        ],
    )
    def test_bad_builtin_parameter_pointer(self, model, pointer):
        with pytest.raises(ConfigError) as err:
            parse_config(_config(model=model))
        assert err.value.pointer == pointer

    @pytest.mark.parametrize(
        "gamma, pointer",
        [
            ({"form": "sinusoidal", "c0": 0.2, "a": 0.5, "omega": "fast"}, "/model/channels/0/gamma/omega"),
            ({"form": "sinusoidal", "c0": 0.2, "a": 0.5}, "/model/channels/0/gamma/omega"),
            ({"form": "theta_scaled", "base": {"form": "constant", "c": 1e400}}, "/model/channels/0/gamma/base/c"),
            ({"form": "sawtooth"}, "/model/channels/0/gamma/form"),
            ({"form": ["constant"]}, "/model/channels/0/gamma/form"),
            (float("nan"), "/model/channels/0/gamma"),
        ],
    )
    def test_bad_scalar_field_pointer(self, gamma, pointer):
        model = json.loads(json.dumps(INLINE_MODEL))
        model["channels"][0]["gamma"] = gamma
        with pytest.raises(ConfigError) as err:
            parse_config(_config(model=model))
        assert err.value.pointer == pointer

    def test_library_errors_keep_their_messages(self):
        with pytest.raises(ValueError, match=r"^parameter 'gamma0' must be a finite number, got 'one'$"):
            builtin_model("ad-nm", {"gamma0": "one"})
        with pytest.raises(ValueError, match=r"^unknown parameter\(s\) \['zeta'\] for model 'ad-nm'$"):
            builtin_model("ad-nm", {"zeta": 1})
        with pytest.raises(ValueError, match=r"^scalar field 'omega' must be a finite number"):
            scalar_from_config({"form": "sinusoidal", "c0": 1, "a": 0, "omega": "w"})
        with pytest.raises(ValueError, match=r"^parameter 'g': unknown scalar form 'x'"):
            builtin_model("rate-estimation", {"g": {"form": "x"}})


INLINE_MODEL = {
    "dim": 2,
    "hamiltonian": [
        {
            "matrix": [[[0.5, 0], [0, 0]], [[0, 0], [-0.5, 0]]],
            "modulation": {"form": "theta_scaled", "base": {"form": "constant", "c": 1.0}},
        }
    ],
    "dH_dtheta": [[[0.5, 0], [0, 0]], [[0, 0], [-0.5, 0]]],
    "channels": [
        {
            "label": "dz",
            "A": [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]],
            "gamma": {"form": "sinusoidal", "c0": 0.2, "a": 0.5, "omega": 2.0},
        }
    ],
    "rho0_family": {"family": "ry_fixed", "angle": 1.5707963267948966},
    "theta": 0.3,
}

# rho0 = |0><0| with d rho0 / d theta = sigma_x / 2, the textbook pure-state QFI input
# (F = 1).  rho0 +/- 1e-4 sigma_x / 2 has eigenvalue -2.5e-9, outside the state space,
# so only a run that evolves those states, the theta check's, rejects them.
PURE_STATE = {
    "model": {
        "dim": 2,
        "hamiltonian": [[[0.5, 0], [0, 0]], [[0, 0], [-0.5, 0]]],
        "rho0_family": {
            "family": "linear",
            "rho0": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]],
            "drho0_dtheta": [[[0, 0], [0.5, 0]], [[0.5, 0], [0, 0]]],
            "theta_ref": 0,
        },
        "theta": 0,
    },
    "t_end": 0.05,
    "dt": 0.001,
}

# 1 - cos(200 pi t), as sinusoidal: zero at every t = k / 100
NOTCH = {"form": "sinusoidal", "c0": 1, "a": -1, "omega": 200 * math.pi, "phi": math.pi / 2}
EYE3 = [[[1, 0], [0, 0], [0, 0]], [[0, 0], [1, 0], [0, 0]], [[0, 0], [0, 0], [1, 0]]]
SCALAR_FORMS = "['constant', 'jc_lorentzian', 'sinusoidal', 'theta_scaled']"


# A term whose base is Hermitian only to 5e-11, scaled by theta times 1e6.
THETA_SCALED_TERM = {
    "matrix": [[[0, 0], [0, 0]], [[5e-11, 0], [0, 0]]],
    "modulation": {"form": "theta_scaled", "base": {"form": "constant", "c": 1e6}},
}


def _inline(**changes):
    """A config document with INLINE_MODEL's top-level keys replaced."""
    return {"model": dict(INLINE_MODEL, **changes), "t_end": 0.05, "dt": 0.001}


def _gamma(gamma):
    return _inline(channels=[dict(INLINE_MODEL["channels"][0], gamma=gamma)])


def _label(label):
    return _inline(channels=[dict(INLINE_MODEL["channels"][0], label=label)])


def _family(family):
    return _inline(rho0_family=family)


def _builtin(name, **params):
    return {"model": {"builtin": name, "params": params}, "t_end": 0.05, "dt": 0.001}


def _top(**changes):
    return dict(_builtin("ad-nm"), **changes)


# One document per rejection the config reader can raise, with the JSON pointer
# and the message it must carry; "{tmp}" stands for a scratch directory.
REJECTIONS = [
    # the document as a whole
    (b"\xff{}", "", "config is not valid UTF-8: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
    ('{"model": }', "", "JSON syntax error at line 1, column 11: Expecting value"),
    (
        '{"dt": 1' + "0" * 5000 + "}",
        "",
        "JSON value rejected: Exceeds the limit (4300 digits) for integer string conversion: "
        "value has 5001 digits; use sys.set_int_max_str_digits() to increase the limit",
    ),
    (_top(fps=60), "/fps", "unknown key(s) ['fps']"),
    ({"model": {"builtin": "ad-nm"}, "t_end": 1}, "/dt", "missing key(s) ['dt']"),
    (_top(dt="fast"), "/dt", "dt must be a finite number, got 'fast'"),
    (_top(dt=0), "/dt", "invariant violation: dt > 0"),
    (_top(t_end=0.001), "/t_end", "the grid needs at least 3 points, so t_end >= 1.5 dt (t_end / dt = 1)"),
    (_top(outputs={}), "/outputs", "expected an array, got dict"),
    (_top(outputs=[{}]), "/outputs/0", "output target needs csv_path and/or json_summary_path"),
    (_top(outputs=[{"csv_path": 5}]), "/outputs/0/csv_path", "expected a string, got int"),
    (
        _top(outputs=[{"csv_path": "{tmp}/missing/o.csv"}]),
        "/outputs/0/csv_path",
        "directory of '{tmp}/missing/o.csv' does not exist",
    ),
    (_top(outputs=[{"json_summary_path": "{tmp}"}]), "/outputs/0/json_summary_path", "'{tmp}' is a directory"),
    (
        _top(outputs=[{"csv_path": "{tmp}/o.csv"}, {"json_summary_path": "{tmp}/o.csv"}]),
        "/outputs/1/json_summary_path",
        "'{tmp}/o.csv' is already an output path",
    ),
    (_top(checks={"oracle": 1}), "/checks/oracle", "expected a boolean, got int"),
    (_top(checks={"vibes": True}), "/checks/vibes", "unknown key(s) ['vibes']"),
    (_top(tolerances=[]), "/tolerances", "expected an object, got list"),
    (_top(tolerances={"herm": -1}), "/tolerances/herm", "invariant violation: herm > 0"),
    # builtin models
    (_top(model=5), "/model", "expected an object, got int"),
    (_top(model={"builtin": 5}), "/model/builtin", "expected a string, got int"),
    (
        _builtin("bogus"),
        "/model/builtin",
        "unknown model 'bogus'; expected one of ('ad-jc', 'ad-nm', 'phase-dephasing', 'rate-estimation')",
    ),
    (_top(model={"builtin": "ad-nm", "params": []}), "/model/params", "expected an object, got list"),
    (_builtin("ad-nm", zeta=1), "/model/params/zeta", "unknown parameter(s) ['zeta'] for model 'ad-nm'"),
    (_builtin("ad-jc", gamma0="one"), "/model/params/gamma0", "parameter 'gamma0' must be a finite number, got 'one'"),
    (
        _builtin("rate-estimation", g={"form": "x"}),
        "/model/params/g/form",
        f"parameter 'g': unknown scalar form 'x'; expected one of {SCALAR_FORMS}",
    ),
    (
        _builtin("rate-estimation", g={"form": "theta_scaled", "base": 1}),
        "/model/params/g",
        "parameter 'g' must be theta-independent (theta scaling is implied)",
    ),
    # scalar forms
    (_gamma("fast"), "/model/channels/0/gamma", "scalar must be a number or an object with a 'form' key"),
    (_gamma(float("nan")), "/model/channels/0/gamma", "scalar must be a finite number, got nan"),
    (_gamma({"c": 1}), "/model/channels/0/gamma/form", f"unknown scalar form None; expected one of {SCALAR_FORMS}"),
    (
        _gamma({"form": "sinusoidal", "c0": 1, "a": 0.5}),
        "/model/channels/0/gamma/omega",
        "missing key(s) ['omega'] for scalar form 'sinusoidal'",
    ),
    (
        _gamma({"form": "constant", "c": 1, "x": 2}),
        "/model/channels/0/gamma/x",
        "unknown key(s) ['x'] for scalar form 'constant'",
    ),
    (
        _gamma({"form": "jc_lorentzian", "gamma0": 1, "lambda": None}),
        "/model/channels/0/gamma/lambda",
        "scalar field 'lambda' must be a finite number, got None",
    ),
    (
        _gamma({"form": "theta_scaled", "base": {"form": "theta_scaled", "base": 1}}),
        "/model/channels/0/gamma/base",
        "theta_scaled base must itself be theta-independent",
    ),
    # inline models, operators and matrices
    (_inline(dim=0), "/model/dim", "dim must be a positive integer"),
    (_inline(theta=None), "/model/theta", "theta must be a finite number, got None"),
    (_inline(channels={}), "/model/channels", "expected an array, got dict"),
    (
        _inline(channels=[dict(INLINE_MODEL["channels"][0], label=5)]),
        "/model/channels/0/label",
        "expected a string, got int",
    ),
    (_inline(channels=[{"A": []}]), "/model/channels/0/gamma", "missing key(s) ['gamma']"),
    (_inline(hamiltonian=[5]), "/model/hamiltonian/0", "expected an object, got int"),
    (_inline(hamiltonian=[{"modulation": 1}]), "/model/hamiltonian/0/matrix", "missing key(s) ['matrix']"),
    (_inline(hamiltonian=EYE3), "/model/hamiltonian", "operator dimension 3 does not match model dim 2"),
    (
        _inline(hamiltonian=[{"matrix": INLINE_MODEL["dH_dtheta"]}, {"matrix": EYE3}]),
        "/model",
        "operator term has shape (3, 3), expected (2, 2)",
    ),
    (_inline(dH_dtheta=[[[1, 0], [0, 0]], [[0, 0], [0]]]), "/model/dH_dtheta/1/1", "matrix entry must be a [re, im] pair"),
    (_inline(dH_dtheta=[[[1, 0], [0, 0]], [[0, 0]]]), "/model/dH_dtheta/1", "row has 1 entries, expected 2"),
    (
        _family({"family": "linear", "rho0": [[[1, 0], [0, 0]], 5], "drho0_dtheta": [], "theta_ref": 0}),
        "/model/rho0_family/rho0/1",
        "expected an array, got int",
    ),
    (_inline(dH_dtheta=[[[1, 0], [0, "i"]], [[0, 0], [0, 0]]]), "/model/dH_dtheta/0/1/1", "matrix entry must be a finite number, got 'i'"),
    # initial-state families
    (_family({}), "/model/rho0_family/family", "missing key(s) ['family']"),
    (_family({"family": 2}), "/model/rho0_family/family", "expected a string, got int"),
    (
        _family({"family": "gauss"}),
        "/model/rho0_family/family",
        "unknown family 'gauss'; expected one of ['linear', 'ry', 'ry_fixed']",
    ),
    (_family({"family": "ry", "angle": 1}), "/model/rho0_family/angle", "unknown key(s) ['angle']"),
    (_family({"family": "ry_fixed"}), "/model/rho0_family/angle", "missing key(s) ['angle']"),
    (_family({"family": "ry_fixed", "angle": float("inf")}), "/model/rho0_family/angle", "angle must be a finite number, got inf"),
    (
        _family({"family": "linear", "rho0": [], "drho0_dtheta": [], "theta_ref": 0}),
        "/model/rho0_family/rho0",
        "matrix must be non-empty",
    ),
    (
        _family({"family": "linear", "rho0": EYE3, "drho0_dtheta": EYE3, "theta_ref": "0"}),
        "/model/rho0_family/theta_ref",
        "theta_ref must be a finite number, got '0'",
    ),
    (
        _family({"family": "linear", "rho0": EYE3, "drho0_dtheta": EYE3, "theta_ref": 0}),
        "/model/rho0_family",
        "family dimension 3 does not match model dim 2",
    ),
    (
        _family({"family": "linear", "rho0": INLINE_MODEL["dH_dtheta"], "drho0_dtheta": EYE3, "theta_ref": 0}),
        "/model/rho0_family/drho0_dtheta",
        "drho0_dtheta has shape (3, 3), expected (2, 2)",
    ),
    # the grid again, last so that the rows above keep their test ids
    (_top(t_end=1e300, dt=1e-300), "/t_end", "the grid needs a finite number of steps (t_end / dt = inf)"),
    (
        _top(t_end=1e12, dt=1e-3),
        "/t_end",
        "1000000000000001 states of dimension 2 need 128000000000000128 bytes, over the budget of 1073741824",
    ),
    # channel labels, which name CSV columns unquoted; appended last, as the grid rows above were
    *(
        (_label(label), "/model/channels/0/label", f"label {label!r} holds a comma, quote or newline, unfit for a CSV column name")
        for label in ("a,b", 'say "dz"', "a\rb", "a\nb")
    ),
    (_inline(channels=[INLINE_MODEL["channels"][0]] * 2), "/model/channels/1/label", "label 'dz' is already channel 0's"),
    (
        _inline(channels=[{"A": INLINE_MODEL["channels"][0]["A"], "gamma": 1}, _label("ch0")["model"]["channels"][0]]),
        "/model/channels/1/label",
        "label 'ch0' is already channel 0's",
    ),
    # ingredients the model decides when it is built, appended last as the rows above were:
    # a non-Hermitian term whose modulation 1 - cos(200 pi t) is zero at t = 0, 0.37 and 1
    (
        _inline(hamiltonian=[{"matrix": INLINE_MODEL["dH_dtheta"]}, {"matrix": [[[0, 0], [1e-9, 0]], [[0, 0], [0, 0]]], "modulation": NOTCH}]),
        "/model/hamiltonian",
        "H not Hermitian: defect 1.000e-09 on its terms modulated by "
        "SinusoidalScalar(c0=1.0, a=-1.0, omega=628.3185307179587, phi=1.5707963267948966)",
    ),
    (
        _inline(dH_dtheta=[[[0, 0], [0, 0]], [[1, 0], [0, 0]]]),
        "/model/dH_dtheta",
        "dH_dtheta not Hermitian: defect 1.000e+00 on its terms modulated by ConstantScalar(c=1.0)",
    ),
    *(
        (
            _family({"family": "linear", "rho0": INLINE_MODEL["dH_dtheta"], "drho0_dtheta": slope, "theta_ref": 0}),
            "/model/rho0_family/drho0_dtheta",
            f"initial-state theta-derivative is not {what}",
        )
        for slope, what in (([[[0, 0], [1, 0]], [[0, 0], [0, 0]]], "Hermitian"), ([[[1, 0], [0, 0]], [[0, 0], [1, 0]]], "traceless"))
    ),
    # a sinusoid's c0 scales its group's bases, as a constant's c does: 5e-11 |1><0| under c0 = 1e6
    (
        _inline(
            hamiltonian=[
                {"matrix": INLINE_MODEL["dH_dtheta"]},
                {"matrix": [[[0, 0], [0, 0]], [[5e-11, 0], [0, 0]]], "modulation": {"form": "sinusoidal", "c0": 1e6, "a": 1, "omega": 1}},
            ]
        ),
        "/model/hamiltonian",
        "H not Hermitian: defect 5.000e-05 on its terms modulated by SinusoidalScalar(c0=1.0, a=1.0, omega=1.0, phi=0.0)",
    ),
    # so does a theta_scaled form's base amplitude (theta itself is not folded): 5e-11 |1><0| under theta 1e6
    (
        _inline(hamiltonian=[{"matrix": INLINE_MODEL["dH_dtheta"]}, THETA_SCALED_TERM]),
        "/model/hamiltonian",
        "H not Hermitian: defect 5.000e-05 on its terms modulated by ThetaScaledScalar(base=ConstantScalar(c=1.0))",
    ),
]


class TestRejections:
    @pytest.mark.parametrize("doc, pointer, message", REJECTIONS)
    def test_every_rejection_names_its_field(self, tmp_path, doc, pointer, message):
        text = doc if isinstance(doc, (bytes, str)) else json.dumps(doc)
        if isinstance(text, str):
            text = text.replace("{tmp}", str(tmp_path))
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert (err.value.pointer, str(err.value)) == (pointer, message.replace("{tmp}", str(tmp_path)))


class TestInlineModel:
    def test_parses_and_evaluates(self):
        cfg = parse_config(_config(model=INLINE_MODEL, theta=0.3))
        assert cfg.model_name == "inline"
        m = cfg.model
        npt.assert_allclose(m.H.evaluate_many(np.array([0.0]), theta=0.3), [np.diag([0.15, -0.15])], atol=1e-15)
        (ch,) = m.channels
        assert ch.label == "dz"
        assert scalar_values(ch.gamma, np.array([0.0]), 0.3) == pytest.approx(0.2)
        out = apply_generator(m, 0.3, 0.0, np.array([[0.5, 0.5], [0.5, 0.5]], complex))
        assert np.all(np.isfinite(out))

    def test_matrix_pointer_on_bad_entry(self):
        model = json.loads(json.dumps(INLINE_MODEL))
        model["dH_dtheta"][0][1] = [0.0]  # not a [re, im] pair
        with pytest.raises(ConfigError) as err:
            parse_config(_config(model=model))
        assert err.value.pointer == "/model/dH_dtheta/0/1"

    def test_channel_operator_terms_of_unequal_shapes_point_at_the_model(self):
        # like the Hamiltonian's in REJECTIONS: a config error, not an uncaught DimensionMismatchError
        doc = _inline(channels=[{"A": [{"matrix": INLINE_MODEL["dH_dtheta"]}, {"matrix": EYE3}], "gamma": 1}])
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps(doc))
        assert (err.value.pointer, str(err.value)) == ("/model", "operator term has shape (3, 3), expected (2, 2)")

    def test_dim_mismatch_detected(self):
        model = json.loads(json.dumps(INLINE_MODEL))
        model["dim"] = 3
        with pytest.raises(ConfigError, match="does not match model dim"):
            parse_config(_config(model=model))

    def test_matrix_round_trip(self):
        rng = np.random.default_rng(5)
        m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        npt.assert_array_equal(matrix_from_config(matrix_to_config(m), ""), m)

    @settings(max_examples=40, deadline=None)
    @given(
        st.one_of(st.sampled_from(BUILTIN_MODEL_NAMES).map(builtin_model), models()),
        st.lists(st.floats(0.0, 5.0), min_size=1, max_size=4),
        real(),
    )
    @example(builtin_model("ad-nm"), [0.0, 0.8], math.pi / 4)
    @example(builtin_model("ad-jc"), [0.0, 0.8], math.pi / 4)
    @example(builtin_model("phase-dephasing"), [0.0, 0.8], 0.3)
    @example(builtin_model("rate-estimation"), [0.0, 0.8], 1.0)
    def test_builtin_models_round_trip_through_inline_schema(self, model, times, theta):
        # builtins and drawn models: the same generator and dK/dtheta, bit for bit
        clone = parse_config(json.dumps({"model": model_to_config(model), "t_end": 1, "dt": 0.1})).model
        assert clone.dim == model.dim and clone.theta == model.theta
        assert [ch.label for ch in clone.channels] == [ch.label for ch in model.channels]
        gen, clone_gen = compile_generator(model), compile_generator(clone)
        npt.assert_array_equal(clone_gen.jumps, gen.jumps)
        npt.assert_array_equal(clone_gen.operators(times, (theta,)), gen.operators(times, (theta,)))
        for family in (clone.rho0_family, model.rho0_family):
            npt.assert_array_equal(family.rho0(theta), model.rho0_family.rho0(theta))
            npt.assert_array_equal(family.drho0_dtheta(theta), model.rho0_family.drho0_dtheta(theta))


def _table(times, labels=()):
    t = np.asarray(times, dtype=float)
    ones, zeros = np.ones(len(t)), np.zeros(len(t))
    gamma = np.outer(0.1 * np.arange(1, len(labels) + 1), ones)
    return FlowTable(
        t=t, qfi=1.0 + t, flow_fd=ones, full_flow=ones, ham_term=zeros, residual_T=zeros,
        thresholded_pairs=np.zeros(len(t), dtype=int), labels=tuple(labels),
        gamma=gamma, J=-np.ones_like(gamma), I=-gamma,
    )


class TestEmitCsv:
    def test_no_channels(self, tmp_path):
        path = tmp_path / "out.csv"
        emit_csv(_table([0.0]), str(path))
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert lines[0] == "t,F,flow_fd,full_flow,ham_term,residual_T"
        assert len(lines[1].split(",")) == 6

    def test_two_channels_in_declaration_order(self, tmp_path):
        path = tmp_path / "out.csv"
        emit_csv(_table([0.0, 0.001], ("ad", "dz")), str(path))
        lines = path.read_text().splitlines()
        header = lines[0].split(",")
        assert header == [
            "t", "F", "flow_fd", "full_flow", "ham_term", "residual_T",
            "gamma_ad", "J_ad", "I_ad", "gamma_dz", "J_dz", "I_dz",
        ]
        assert all(len(line.split(",")) == 12 for line in lines[1:])

    def test_reemission_is_byte_identical(self, tmp_path):
        table = _table([k * 1e-3 for k in range(5)], ("ad",))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(table, str(p1))
        emit_csv(table, str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_lf_line_endings(self, tmp_path):
        path = tmp_path / "out.csv"
        emit_csv(_table([0.0]), str(path))
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")

    def test_transients_do_not_grow_with_the_table(self, tmp_path):
        # Bound, derived before measuring: written CSV_ROWS rows at a time, the
        # transients of tables longer than one block are one block's, so the traced
        # peak grows by nothing per row; allowed under one float64 per value, 8 (6 +
        # 3 c) bytes.  Formatting the whole table at once holds, per value, a Python
        # float, list and tuple slots and its ~19 digits, at least 40 bytes.
        def peak(rows):
            table = _table([k * 1e-3 for k in range(rows)], ("ad",))
            tracemalloc.start()
            try:
                emit_csv(table, str(tmp_path / "out.csv"))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        short, long = 2048, 8192
        assert (peak(long) - peak(short)) / (long - short) <= 8 * (6 + 3)
        assert cli.CSV_ROWS <= short  # both tables are longer than a block

    def test_empty_records_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_csv(_table([]), str(tmp_path / "out.csv"))

    @pytest.mark.parametrize("labels, pointer", [(("a,b",), "/channels/0/label"), (("ad", "ad"), "/channels/1/label")])
    def test_labels_that_break_the_csv_are_rejected_before_a_run(self, tmp_path, labels, pointer):
        # through the Python API as through the config: the model is never built
        cfg = parse_config(_config(t_end=0.05, outputs=[{"csv_path": str(tmp_path / "o.csv")}]))
        (ch,) = cfg.model.channels
        with pytest.raises(ModelError) as err:
            model = dataclasses.replace(cfg.model, channels=tuple(dataclasses.replace(ch, label=x) for x in labels))
            run_simulate(dataclasses.replace(cfg, model=model))
        assert err.value.pointer == pointer
        assert not (tmp_path / "o.csv").exists()


class TestRunSimulate:
    def test_ad_nm_short_run(self, tmp_path):
        csv = tmp_path / "flow.csv"
        summ = tmp_path / "summary.json"
        cfg = parse_config(
            _config(
                t_end=1.0,
                outputs=[{"csv_path": str(csv), "json_summary_path": str(summ)}],
            )
        )
        summary = run_simulate(cfg)
        assert summary.all_checks_passed
        assert summary.checks["oracle"].passed is True
        assert summary.max_abs_flow_fd_minus_subflow_sum <= summary.tolerances["flow_accept"]
        assert all(p.holds and p.consistent for p in summary.theta_independence.values())
        assert csv.exists() and summ.exists()
        assert json.loads(summ.read_text()) == summary_to_dict(summary)

    def test_phase_dephasing_detects_hamiltonian_dependence(self, tmp_path):
        cfg = parse_config(
            json.dumps(
                {
                    "model": {"builtin": "phase-dephasing", "params": {"theta": 0.3, "gamma0": 0.2}},
                    "t_end": 1.0,
                    "dt": 0.001,
                    "outputs": [{"csv_path": str(tmp_path / "o.csv")}],
                }
            )
        )
        summary = run_simulate(cfg)
        assert not summary.theta_independence["hamiltonian"].holds
        assert summary.theta_independence["hamiltonian"].magnitude == 0.5
        assert summary.theta_independence["decay_rates"].holds
        assert summary.max_abs_ham_term > 0.0
        # decomposition-only residual is large, full-flow residual small
        assert summary.max_abs_flow_fd_minus_subflow_sum > 100 * summary.tolerances["flow_accept"]
        assert summary.max_abs_flow_fd_minus_full_flow <= summary.tolerances["flow_accept"]
        assert summary.all_checks_passed

    def test_rate_estimation_detects_rate_dependence(self, tmp_path):
        cfg = parse_config(
            json.dumps(
                {
                    "model": {"builtin": "rate-estimation", "params": {"theta": 1.0, "g": 1.0}},
                    "t_end": 1.0,
                    "dt": 0.001,
                    "outputs": [{"csv_path": str(tmp_path / "o.csv")}],
                }
            )
        )
        summary = run_simulate(cfg)
        assert not summary.theta_independence["decay_rates"].holds
        assert summary.max_abs_residual_t > 0.0
        assert summary.all_checks_passed

    def test_theta_consistency_check_enabled(self, tmp_path):
        cfg = parse_config(
            _config(
                t_end=0.3,
                outputs=[{"csv_path": str(tmp_path / "o.csv")}],
                checks={"theta_consistency": True},
            )
        )
        summary = run_simulate(cfg)
        outcome = summary.checks["theta_consistency"]
        assert outcome.enabled and outcome.passed is True
        assert outcome.value <= outcome.tolerance

    def test_sld_support_convention_in_summary(self, tmp_path):
        out = [{"csv_path": str(tmp_path / "o.csv")}]

        def cut(doc):
            s = run_simulate(parse_config(json.dumps(dict(doc, t_end=0.2, dt=0.001, outputs=out))))
            return s.sld_support_cut_points, s.sld_support_cut_max_pairs, s.sld_support_cut_first_t

        # ad-nm starts pure and mixes at once; without decay a pure state stays pure
        assert cut(AD_NM_CONFIG) == (1, 1, 0.0)
        unitary = {"model": {"builtin": "phase-dephasing", "params": {"gamma0": 0.0}}}
        assert cut(unitary) == (201, 1, 0.0)
        mixed = json.loads(json.dumps(INLINE_MODEL))
        mixed["rho0_family"] = {
            "family": "linear",
            "rho0": [[[0.6, 0], [0.1, 0]], [[0.1, 0], [0.4, 0]]],
            "drho0_dtheta": [[[0, 0], [0.1, 0]], [[0.1, 0], [0, 0]]],
            "theta_ref": 0.3,
        }
        assert cut({"model": mixed}) == (0, 0, None)

    def test_summary_round_trip_is_lossless(self, tmp_path):
        summ = tmp_path / "s.json"
        cfg = parse_config(
            _config(t_end=0.2, outputs=[{"json_summary_path": str(summ)}])
        )
        summary = run_simulate(cfg)
        emit_summary(summary, str(summ))
        assert json.loads(summ.read_bytes()) == summary_to_dict(summary)


SIGMA_MINUS_DOC = [[[0, 0], [1, 0]], [[0, 0], [0, 0]]]
# A qubit decaying through A = theta sigma_minus, so dA_dtheta = sigma_minus.
THETA_A_MODEL = {
    "dim": 2,
    "hamiltonian": [[[0.5, 0], [0, 0]], [[0, 0], [-0.5, 0]]],
    "channels": [
        {
            "label": "ad",
            "A": [{"matrix": SIGMA_MINUS_DOC, "modulation": {"form": "theta_scaled", "base": 1.0}}],
            "gamma": 1.0,
            "dA_dtheta": [{"matrix": SIGMA_MINUS_DOC, "modulation": 1.0}],
        }
    ],
    "rho0_family": {"family": "ry_fixed", "angle": 1.5707963267948966},
    "theta": 1.0,
}


class TestDeclaredDerivatives:
    """A wrong declared theta-derivative fails the oracle check.  The run forms
    drho_dtheta, F and every flow column from the declarations, so the flow agrees
    with its oracle either way; only the probe's defect shows the mistake."""

    @staticmethod
    def _check(tmp_path, model, key, double, defect):
        def run(doc):
            outputs = [{"csv_path": str(tmp_path / "o.csv")}]
            return run_simulate(parse_config(json.dumps({"model": doc, "t_end": 0.5, "dt": 0.001, "outputs": outputs})))

        right = run(model)
        assert right.checks["oracle"].passed is True
        assert right.theta_independence[key].consistent
        double(model)  # the declared derivative: 1 -> 2
        wrong = run(model)
        assert wrong.theta_independence[key].defect == pytest.approx(defect)
        assert not wrong.theta_independence[key].consistent
        assert wrong.checks["oracle"].passed is False

    def test_doubled_dH_dtheta(self, tmp_path):
        model = model_to_config(builtin_model("phase-dephasing"))
        self._check(tmp_path, model, "hamiltonian", lambda m: m["dH_dtheta"][0].update(modulation=2.0), 0.5)

    def test_doubled_dgamma_dtheta(self, tmp_path):
        model = model_to_config(builtin_model("rate-estimation"))
        self._check(tmp_path, model, "decay_rates", lambda m: m["channels"][0].update(dgamma_dtheta=2.0), 1.0)

    def test_doubled_dA_dtheta(self, tmp_path):
        model = json.loads(json.dumps(THETA_A_MODEL))
        double = lambda m: m["channels"][0]["dA_dtheta"][0].update(modulation=2.0)  # noqa: E731
        self._check(tmp_path, model, "lindblad_operators", double, 1.0)


class TestMain:
    def _write_config(self, tmp_path, doc):
        p = tmp_path / "config.json"
        p.write_text(json.dumps(doc))
        return str(p)

    def test_success_exit_zero(self, tmp_path, capsys):
        doc = dict(AD_NM_CONFIG, t_end=0.5, outputs=[{"csv_path": str(tmp_path / "o.csv")}])
        rc = main(["simulate", "--config", self._write_config(tmp_path, doc)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "check oracle: pass" in out
        assert "theta-independence hamiltonian: holds" in out

    def test_qubit_run_makes_no_lapack_call(self, tmp_path, monkeypatch, solver_calls):
        # a d = 2 run's eigendecompositions, the pair's and the theta check's
        # eigenvalues alike, are the density gate's closed form
        lapack = []
        for name in ("eigh", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, lambda *args, name=name, **kwargs: lapack.append(name))
        doc = dict(AD_NM_CONFIG, t_end=0.5, outputs=[{"csv_path": str(tmp_path / "o.csv")}])
        argv = ["simulate", "--config", self._write_config(tmp_path, doc), "--check", "oracle,theta,intervals"]
        assert main(argv) == 0
        assert lapack == []
        assert {vectors for _, vectors in solver_calls} == {True, False}

    def test_module_entry_point_runs_without_runpy_warning(self):
        # runpy warns when the package __init__ has already imported qfiflow.cli
        src = os.path.dirname(os.path.dirname(os.path.abspath(qfiflow.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "qfiflow.cli", "--help"],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr

    def test_library_does_not_import_cli(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(qfiflow.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        code = (
            "import sys\n"
            "import qfiflow.config\n"
            "qfiflow.config.model_to_config(qfiflow.builtin_model('ad-nm'))\n"
            "assert 'qfiflow.cli' not in sys.modules\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr

    def test_package_entry_point_simulates(self, tmp_path):
        src = os.path.dirname(os.path.dirname(os.path.abspath(qfiflow.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        config = self._write_config(tmp_path, dict(AD_NM_CONFIG, t_end=0.05))
        csv = tmp_path / "o.csv"
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "qfiflow", "simulate",
             "--config", config, "--out", str(csv), "--summary", str(tmp_path / "s.json")],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert "check oracle: pass" in proc.stdout
        assert len(csv.read_text().splitlines()) == 52

    def test_wrong_declared_derivative_exit_one(self, tmp_path, capsys):
        # rate-estimation inline, gamma = theta with dgamma_dtheta declared 2, default checks;
        # the oracle value is the flow residual, within its tolerance, so only the probe's
        # line can say why the check failed
        model = model_to_config(builtin_model("rate-estimation"))
        model["channels"][0]["dgamma_dtheta"] = 2.0
        doc = {"model": model, "t_end": 1.0, "dt": 0.001, "outputs": [{"csv_path": str(tmp_path / "o.csv")}]}
        assert main(["simulate", "--config", self._write_config(tmp_path, doc)]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("check oracle: FAIL")
        assert lines[-3:] == [
            "theta-independence hamiltonian: holds",
            "theta-independence decay_rates: violated (magnitude 1); "
            "declared derivative inconsistent (defect 1.000e+00, tolerance 3.553e-15)",
            "theta-independence lindblad_operators: holds",
        ]

    def test_derivative_wrong_between_sample_times_exit_one(self, tmp_path, capsys):
        # gamma = theta with dgamma_dtheta = 1 + sin(4 pi t / 5): right at t = 0, 1.25,
        # 2.5, 3.75 and 5, wrong by up to 1 in between, so a probe sampling those five
        # times passes it; the run evaluates the generator at every grid point and midpoint
        model = model_to_config(builtin_model("rate-estimation"))
        model["channels"][0]["dgamma_dtheta"] = {"form": "sinusoidal", "c0": 1, "a": 1, "omega": 4 * math.pi / 5}
        doc = {"model": model, "t_end": 5, "dt": 0.001, "outputs": [{"csv_path": str(tmp_path / "o.csv")}]}
        assert main(["simulate", "--config", self._write_config(tmp_path, doc)]) == 1
        out = capsys.readouterr().out
        assert "check oracle: FAIL" in out
        assert (
            "theta-independence decay_rates: violated (magnitude 1); "
            "declared derivative inconsistent (defect 1.000e+00, tolerance 3.553e-15)\n"
        ) in out

    def test_missing_config_exit_two(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "nope.json")]) == 2

    def test_bad_config_exit_two(self, tmp_path):
        doc = dict(AD_NM_CONFIG, dt=-1.0)
        assert main(["simulate", "--config", self._write_config(tmp_path, doc)]) == 2

    def test_pole_exit_three(self, tmp_path, capsys):
        doc = {
            "model": {"builtin": "ad-jc", "params": {"gamma0": 1.0, "lambda": 0.5}},
            "t_end": 5,
            "dt": 0.001,
            "outputs": [{"csv_path": str(tmp_path / "o.csv")}],
        }
        assert main(["simulate", "--config", self._write_config(tmp_path, doc)]) == 3
        # the time as a plain number, not a numpy repr
        assert capsys.readouterr().err == (
            "runtime abort: run interval contains a pole of the lorentzian rate near t=4.837\n"
        )

    def test_pole_of_a_rate_whose_discriminant_overflows_exit_three(self, tmp_path, capsys):
        # gamma0 = lambda = -1e200: lam^2 - 2 gamma0 lam overflows float64, yet the
        # first pole, t* = pi/2 1e-200, is found before the first step
        doc = {
            "model": {"builtin": "ad-jc", "params": {"gamma0": -1e200, "lambda": -1e200}},
            "t_end": 0.05,
            "dt": 0.001,
            "outputs": [{"csv_path": str(tmp_path / "o.csv")}],
        }
        assert main(["simulate", "--config", self._write_config(tmp_path, doc)]) == 3
        assert capsys.readouterr().err == (
            "runtime abort: run interval contains a pole of the lorentzian rate near t=1.571e-200\n"
        )
        assert not (tmp_path / "o.csv").exists()

    def test_pole_of_an_operator_modulation_exit_three(self, tmp_path, capsys):
        # every lorentzian form the run evaluates raises at its pole, not only the rates
        jc = {"form": "jc_lorentzian", "gamma0": 1.0, "lambda": 0.5}
        model = dict(INLINE_MODEL, hamiltonian=[{"matrix": INLINE_MODEL["dH_dtheta"], "modulation": jc}])
        doc = {"model": model, "t_end": 5, "dt": 0.001, "outputs": [{"csv_path": str(tmp_path / "o.csv")}]}
        assert main(["simulate", "--config", self._write_config(tmp_path, doc)]) == 3
        assert capsys.readouterr().err == (
            "runtime abort: run interval contains a pole of the lorentzian rate near t=4.837\n"
        )

    def test_pole_of_a_zero_rate_channels_operator_exit_three(self, tmp_path, capsys):
        # gamma = 0, yet the run evaluates A, whose modulation has its first pole at t = 4.837
        jc = {"form": "jc_lorentzian", "gamma0": 1.0, "lambda": 0.5}
        channel = {"label": "ad", "A": [{"matrix": [[[0, 0], [0, 0]], [[1, 0], [0, 0]]], "modulation": jc}], "gamma": 0}
        model = {"dim": 2, "hamiltonian": INLINE_MODEL["dH_dtheta"], "channels": [channel], "rho0_family": {"family": "ry"}, "theta": 0.3}
        doc = {"model": model, "t_end": 5, "dt": 0.001, "outputs": [{"csv_path": str(tmp_path / "o.csv")}]}
        assert main(["simulate", "--config", self._write_config(tmp_path, doc), "--check", "oracle,intervals"]) == 3
        assert capsys.readouterr().err == (
            "runtime abort: run interval contains a pole of the lorentzian rate near t=4.837\n"
        )

    def test_structurally_zero_lorentzian_rate_has_no_pole(self, tmp_path, capsys):
        # gamma0 = 0: the rate is 0 at every time, though its real-root denominator
        # 1 - tanh(d t/2) falls below 1e-9 near t = 7.76
        channel = {"label": "ad", "A": [[[0, 0], [0, 0]], [[1, 0], [0, 0]]], "gamma": {"form": "jc_lorentzian", "gamma0": 0, "lambda": -2.76}}
        model = {"dim": 2, "hamiltonian": INLINE_MODEL["dH_dtheta"], "channels": [channel], "rho0_family": {"family": "ry"}, "theta": 0.3}
        doc = {"model": model, "t_end": 10, "dt": 0.01}
        out = tmp_path / "o.csv"
        assert main(["simulate", "--config", self._write_config(tmp_path, doc), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        header, *rows = out.read_text().splitlines()
        column = header.split(",").index("gamma_ad")
        assert len(rows) == 1001 and all(float(row.split(",")[column]) == 0.0 for row in rows)

    def test_long_lorentzian_run_keeps_a_finite_rate(self, tmp_path, capsys):
        # ad-jc past t = 820.39, where sinh(d t/2) overflows (d = sqrt(3)): the rate
        # stays at its limit 2 gamma0 lam/(d + lam), within the 32 u of
        # TestScalars::test_real_root_rate_is_finite_at_its_limit, and the run succeeds
        doc = {"model": {"builtin": "ad-jc"}, "t_end": 900, "dt": 0.1}
        out = tmp_path / "o.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            argv = ["simulate", "--config", self._write_config(tmp_path, doc), "--check", "intervals", "--out", str(out)]
            rc = main(argv)
        assert rc == 0 and capsys.readouterr().err == ""
        header, *_, last = out.read_text().splitlines()
        gamma = float(last.split(",")[header.split(",").index("gamma_ad")])
        limit = 6.0 / (math.sqrt(3.0) + 3.0)
        assert abs(gamma - limit) <= 32 * 2.0**-53 * limit

    def test_non_finite_state_exit_three_with_time_stamp(self, tmp_path, capsys):
        doc = {
            "model": {"builtin": "ad-nm", "params": {"gamma0": 1e300}},
            "t_end": 0.01,
            "dt": 0.001,
            "outputs": [{"csv_path": str(tmp_path / "o.csv")}],
        }
        assert main(["simulate", "--config", self._write_config(tmp_path, doc)]) == 3
        assert "runtime abort: state invalid at t=0.001: " in capsys.readouterr().err

    @pytest.mark.parametrize(
        "params, line",
        [
            (
                {"a": 3.0, "phi": math.pi},
                "state invalid at t=0.34800000000000003: minimum eigenvalue -1.891e-05 < -1.000e-09",
            ),
            (
                {"a": 1.5, "phi": math.pi, "gamma0": 3.0},
                "state invalid at t=0.857: minimum eigenvalue -2.319e-06 < -1.000e-09",
            ),
            ({"gamma0": 1e300}, "state invalid at t=0.001: matrix contains non-finite entries"),
        ],
    )
    def test_state_gate_abort_names_first_failing_time(self, tmp_path, capsys, params, line):
        # the first two fail in the middle of a block of validated steps
        doc = {
            "model": {"builtin": "ad-nm", "params": params},
            "t_end": 5,
            "dt": 0.001,
            "outputs": [{"csv_path": str(tmp_path / "o.csv")}],
        }
        assert main(["simulate", "--config", self._write_config(tmp_path, doc)]) == 3
        assert capsys.readouterr().err == f"runtime abort: {line}\n"

    def test_pure_state_runs_with_the_default_checks(self, tmp_path, capsys):
        out = tmp_path / "o.csv"
        assert main(["simulate", "--config", self._write_config(tmp_path, PURE_STATE), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        header, *rows = out.read_text().splitlines()
        qfi = np.array([float(row.split(",")[header.split(",").index("F")]) for row in rows])
        assert np.max(np.abs(qfi - 1.0)) <= 1e-14  # 4 Var(sigma_x / 2) in |0>, kept by a theta-free unitary

    def test_pure_state_theta_check_rejects_its_shifted_states_at_t0(self, tmp_path, capsys):
        argv = ["simulate", "--config", self._write_config(tmp_path, PURE_STATE), "--check", "oracle,theta,intervals"]
        assert main(argv + ["--out", str(tmp_path / "o.csv")]) == 3
        line = "runtime abort: state invalid at t=0.0: minimum eigenvalue -2.500e-09 < -1.000e-09\n"
        assert capsys.readouterr().err == line

    def test_theta_scaled_amplitude_counts_in_the_hermiticity_check(self, tmp_path, capsys):
        # H(t) has a defect of 0.3 x 5e-5: rejected when the model is built, not blamed
        # on the state once it has drifted (exit 3, trace deviation at t = 0.022)
        model = {"dim": 2, "hamiltonian": [{"matrix": INLINE_MODEL["dH_dtheta"]}, THETA_SCALED_TERM],
                 "rho0_family": {"family": "ry"}, "theta": 0.3}
        doc = {"model": model, "t_end": 1, "dt": 0.001}
        argv = ["simulate", "--config", self._write_config(tmp_path, doc), "--check", "oracle,theta,intervals"]
        assert main(argv + ["--out", str(tmp_path / "o.csv")]) == 2
        line = "config error: /model/hamiltonian: H not Hermitian: defect 5.000e-05 on its terms modulated by "
        assert capsys.readouterr().err == line + "ThetaScaledScalar(base=ConstantScalar(c=1.0))\n"
        assert not (tmp_path / "o.csv").exists()

    def test_off_trace_initial_state_exit_three_at_t0(self, tmp_path, capsys):
        doc = json.loads(json.dumps(PURE_STATE))
        doc["model"]["rho0_family"]["rho0"][1][1] = [0.2, 0]
        assert main(["simulate", "--config", self._write_config(tmp_path, doc), "--out", str(tmp_path / "o.csv")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("runtime abort: state invalid at t=0.0: trace deviation")
        assert not (tmp_path / "o.csv").exists()

    def test_inconsistent_declaration_fails_oracle_check(self, tmp_path, capsys):
        # H depends on theta but the declared derivative field is zero
        model = json.loads(json.dumps(INLINE_MODEL))
        del model["dH_dtheta"]
        model["channels"] = []
        doc = {
            "model": model,
            "theta": 0.3,
            "t_end": 0.3,
            "dt": 0.001,
            "outputs": [{"csv_path": str(tmp_path / "o.csv")}],
        }
        rc = main(["simulate", "--config", self._write_config(tmp_path, doc)])
        assert rc == 1
        assert "check oracle: FAIL" in capsys.readouterr().out

    def test_flag_overrides(self, tmp_path):
        csv = tmp_path / "cli.csv"
        summ = tmp_path / "cli.json"
        doc = dict(AD_NM_CONFIG)
        rc = main(
            [
                "simulate",
                "--config", self._write_config(tmp_path, doc),
                "--out", str(csv),
                "--summary", str(summ),
                "--t-end", "0.2",
                "--dt", "0.001",
                "--check", "oracle,intervals",
            ]
        )
        assert rc == 0
        assert csv.exists() and summ.exists()
        emitted = json.loads(summ.read_text())
        assert emitted["t_end"] == 0.2
        assert emitted["checks"]["theta_consistency"]["enabled"] is False

    def test_overrides_leaving_fewer_than_three_points_exit_two(self, tmp_path, capsys):
        config = self._write_config(tmp_path, dict(AD_NM_CONFIG, t_end=0.2))
        for flags in (["--t-end", "0.001"], ["--dt", "0.2"]):
            assert main(["simulate", "--config", config, *flags]) == 2
            assert "config error: /t_end: the grid needs at least 3 points" in capsys.readouterr().err

    def test_unknown_check_name_exit_two(self, tmp_path):
        doc = dict(AD_NM_CONFIG, t_end=0.2)
        rc = main(
            [
                "simulate",
                "--config", self._write_config(tmp_path, doc),
                "--check", "vibes",
            ]
        )
        assert rc == 2

    @pytest.mark.parametrize(
        "flags, pointer",
        [
            (["--dt", "nan"], "/dt"),
            (["--t-end", "inf"], "/t_end"),
            (["--tol-herm", "-1"], "/tolerances/herm"),
            (["--tol-positivity", "nan"], "/tolerances/positivity"),
            (["--check", "oracle,vibes"], "/checks/vibes"),
        ],
    )
    def test_flags_are_validated_like_their_fields(self, tmp_path, capsys, flags, pointer):
        # a working positivity gate aborts this run at t = 0.348
        doc = {
            "model": {"builtin": "ad-nm", "params": {"a": 3.0, "phi": math.pi}},
            "t_end": 5,
            "dt": 0.001,
            "outputs": [{"csv_path": str(tmp_path / "o.csv")}],
        }
        assert main(["simulate", "--config", self._write_config(tmp_path, doc), *flags]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {pointer}: ")
        assert not (tmp_path / "o.csv").exists()

    def test_flag_replaces_malformed_field(self, tmp_path):
        summ = tmp_path / "s.json"
        doc = dict(AD_NM_CONFIG, t_end=0.05, dt="fast", tolerances={"herm": -1, "trace": 1e-8})
        rc = main(
            [
                "simulate",
                "--config", self._write_config(tmp_path, doc),
                "--summary", str(summ),
                "--dt", "0.001",
                "--tol-herm", "1e-10",
            ]
        )
        assert rc == 0
        emitted = json.loads(summ.read_text())
        assert emitted["dt"] == 0.001
        assert (emitted["tolerances"]["herm"], emitted["tolerances"]["trace"]) == (1e-10, 1e-8)

    def test_malformed_tolerances_object_fails_despite_flag(self, tmp_path, capsys):
        doc = dict(AD_NM_CONFIG, t_end=0.05, tolerances=[1e-10])
        rc = main(["simulate", "--config", self._write_config(tmp_path, doc), "--tol-herm", "1e-10"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("config error: /tolerances: expected an object")

    @pytest.mark.parametrize(
        "flags, outputs, pointer",
        [
            (["--out", "{missing}/o.csv"], None, "/outputs/0/csv_path"),
            (["--summary", "{missing}/s.json"], None, "/outputs/0/json_summary_path"),
            ([], [{"csv_path": "{tmp}/o.csv"}, {"json_summary_path": "{missing}/s.json"}], "/outputs/1/json_summary_path"),
        ],
    )
    def test_output_in_missing_directory_exit_two_before_running(
        self, tmp_path, capsys, monkeypatch, flags, outputs, pointer
    ):
        def fill(path):
            return path.format(missing=tmp_path / "missing", tmp=tmp_path)

        doc = dict(AD_NM_CONFIG, t_end=0.05)
        if outputs is not None:
            doc["outputs"] = [{k: fill(v) for k, v in target.items()} for target in outputs]

        def no_run(*args, **kwargs):
            raise AssertionError("propagated despite a bad output path")

        monkeypatch.setattr(qfiflow.cli, "propagate", no_run)
        rc = main(["simulate", "--config", self._write_config(tmp_path, doc), *map(fill, flags)])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"config error: {pointer}: directory of ")
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize(
        "flags, outputs, pointer, message",
        [
            (["--out", "{tmp}"], None, "/outputs/0/csv_path", "is a directory"),
            (["--summary", "{tmp}/"], None, "/outputs/0/json_summary_path", "is a directory"),
            (["--out", "{tmp}/x", "--summary", "{tmp}/x"], None, "/outputs/0/json_summary_path", "is already an output path"),
            ([], [{"csv_path": "{tmp}/o.csv"}, {"csv_path": "{tmp}/./o.csv"}], "/outputs/1/csv_path", "is already an output path"),
        ],
    )
    def test_directory_or_repeated_output_exit_two_before_running(
        self, tmp_path, capsys, monkeypatch, flags, outputs, pointer, message
    ):
        def fill(path):
            return path.format(tmp=tmp_path)

        doc = dict(AD_NM_CONFIG, t_end=0.05)
        if outputs is not None:
            doc["outputs"] = [{k: fill(v) for k, v in target.items()} for target in outputs]

        def no_run(*args, **kwargs):
            raise AssertionError("propagated despite a bad output path")

        monkeypatch.setattr(qfiflow.cli, "propagate", no_run)
        rc = main(["simulate", "--config", self._write_config(tmp_path, doc), *map(fill, flags)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {pointer}: ") and message in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    def test_unwritable_output_exit_three(self, tmp_path, capsys):
        # the path's directory exists, so only opening the file fails (a symlink loop)
        (tmp_path / "o.csv").symlink_to("o.csv")
        config = self._write_config(tmp_path, dict(AD_NM_CONFIG, t_end=0.05))
        assert main(["simulate", "--config", config, "--out", str(tmp_path / "o.csv")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("output error: ") and "Traceback" not in err
