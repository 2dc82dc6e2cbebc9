import json
import math
import os
import subprocess
import sys

import numpy as np
import numpy.testing as npt
import pytest

import qfiflow
from qfiflow.cli import (
    DEFAULT_CSV_PATH,
    DEFAULT_SUMMARY_PATH,
    CheckFlags,
    ConfigError,
    OutputTarget,
    emit_csv,
    emit_summary,
    main,
    matrix_from_config,
    matrix_to_config,
    model_to_config,
    parse_config,
    run_simulate,
    summary_to_dict,
)
from qfiflow.flow import FlowTable
from qfiflow.model import apply_generator, builtin_model

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


class TestInlineModel:
    def test_parses_and_evaluates(self):
        cfg = parse_config(_config(model=INLINE_MODEL, theta=0.3))
        assert cfg.model_name == "inline"
        m = cfg.model
        npt.assert_allclose(m.H.evaluate(0.0, theta=0.3), np.diag([0.15, -0.15]), atol=1e-15)
        (ch,) = m.channels
        assert ch.label == "dz"
        assert ch.gamma(0.0) == pytest.approx(0.2)
        out = apply_generator(m, 0.3, 0.0, np.array([[0.5, 0.5], [0.5, 0.5]], complex))
        assert np.all(np.isfinite(out))

    def test_matrix_pointer_on_bad_entry(self):
        model = json.loads(json.dumps(INLINE_MODEL))
        model["dH_dtheta"][0][1] = [0.0]  # not a [re, im] pair
        with pytest.raises(ConfigError) as err:
            parse_config(_config(model=model))
        assert err.value.pointer == "/model/dH_dtheta/0/1"

    def test_dim_mismatch_detected(self):
        model = json.loads(json.dumps(INLINE_MODEL))
        model["dim"] = 3
        with pytest.raises(ConfigError, match="does not match model dim"):
            parse_config(_config(model=model))

    def test_matrix_round_trip(self):
        rng = np.random.default_rng(5)
        m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        npt.assert_array_equal(matrix_from_config(matrix_to_config(m), ""), m)

    def test_builtin_models_round_trip_through_inline_schema(self):
        rng = np.random.default_rng(6)
        rho = np.array([[0.6, 0.2 + 0.1j], [0.2 - 0.1j, 0.4]], dtype=complex)
        for name in ("ad-nm", "ad-jc", "phase-dephasing", "rate-estimation"):
            model = builtin_model(name)
            cfg = parse_config(_config(model=model_to_config(model), theta=model.theta))
            clone = cfg.model
            assert clone.dim == model.dim
            assert [ch.label for ch in clone.channels] == [ch.label for ch in model.channels]
            for t in (0.0, 0.8):
                npt.assert_array_equal(
                    apply_generator(clone, model.theta, t, rho),
                    apply_generator(model, model.theta, t, rho),
                )
            npt.assert_array_equal(
                clone.rho0_family.rho0(model.theta), model.rho0_family.rho0(model.theta)
            )


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

    def test_empty_records_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_csv(_table([]), str(tmp_path / "out.csv"))


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
        assert all(v.status == "holds" for v in summary.theta_independence.values())
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
        assert summary.theta_independence["hamiltonian"].status == "violated"
        assert summary.theta_independence["hamiltonian"].magnitude == pytest.approx(0.5)
        assert summary.theta_independence["decay_rates"].status == "holds"
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
        assert summary.theta_independence["decay_rates"].status == "violated"
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
            "import numpy as np\n"
            "import qfiflow\n"
            "qfiflow.LinearStateFamily(np.eye(2) / 2, np.zeros((2, 2)), 0.0).to_config()\n"
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

    def test_missing_config_exit_two(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "nope.json")]) == 2

    def test_bad_config_exit_two(self, tmp_path):
        doc = dict(AD_NM_CONFIG, dt=-1.0)
        assert main(["simulate", "--config", self._write_config(tmp_path, doc)]) == 2

    def test_pole_exit_three(self, tmp_path):
        doc = {
            "model": {"builtin": "ad-jc", "params": {"gamma0": 1.0, "lambda": 0.5}},
            "t_end": 5,
            "dt": 0.001,
            "outputs": [{"csv_path": str(tmp_path / "o.csv")}],
        }
        assert main(["simulate", "--config", self._write_config(tmp_path, doc)]) == 3

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
