import dataclasses
import json
import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from conftest import run_states
from exact_qubit import damped_min_eigenvalue, sinusoid_integral, sinusoid_integral_first_root
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st
from reference_generator import apply_generator, reference_generator, step_map_chain, step_rk4
from strategies import GKSL_GENERATOR_NORM, gksl_models, models

from qfiflow import model as model_module
from qfiflow import propagation
from qfiflow.config import builtin_model, matrix_to_config, parse_config
from qfiflow.model import (
    BUILTIN_MODEL_NAMES,
    Channel,
    ConstantScalar,
    FixedRyStateFamily,
    ModelSpec,
    RyStateFamily,
    ScalarPoleError,
    constant_operator,
    scalar_values,
    zero_operator,
)
from qfiflow.operators import (
    DEFAULT_TOLERANCES,
    SIGMA_MINUS,
    SIGMA_Z,
    ToleranceConfig,
    hermiticity_defect,
    hermitize,
    validate_density,
)
from qfiflow.propagation import (
    PropagationError,
    propagate,
)

# Taylor polynomial of exp(-0.1) through fourth order: what one RK4 step of
# y' = -y must produce for dt = 0.1.
RK4_DECAY_ONE_STEP = sum((-0.1) ** k / math.factorial(k) for k in range(5))


def trace_deviation(m):
    """|Tr m - 1|."""
    return float(abs(np.trace(m) - 1.0))


def min_eigenvalue(m):
    """Smallest eigenvalue of the hermitized input."""
    return float(np.linalg.eigvalsh(hermitize(m))[0])


def _unitary_model():
    return ModelSpec(
        dim=2,
        H=constant_operator(0.5 * SIGMA_Z),
        dH_dtheta=zero_operator(2),
        channels=(),
        rho0_family=RyStateFamily(),
        theta=0.4,
    )


def _constant_damping_model(gamma, angle=math.pi):
    return ModelSpec(
        dim=2,
        H=zero_operator(2),
        dH_dtheta=zero_operator(2),
        channels=(
            Channel(
                label="ad",
                A=constant_operator(SIGMA_MINUS),
                gamma=ConstantScalar(gamma),
                dA_dtheta=zero_operator(2),
                dgamma_dtheta=ConstantScalar(0.0),
            ),
        ),
        rho0_family=FixedRyStateFamily(angle=angle),
        theta=0.0,
    )


class TestStepRk4:
    def test_pure_decay_single_step(self):
        model = _constant_damping_model(1.0)
        rho, _ = step_rk4(model, 0.0, 0.0, model.rho0_family.rho0(0.0), np.zeros((2, 2), complex), 0.1)
        assert rho[1, 1].real == pytest.approx(RK4_DECAY_ONE_STEP, abs=1e-15)
        assert rho[1, 1].real == pytest.approx(0.9048375, abs=1e-7)
        assert abs(rho[1, 1].real - math.exp(-0.1)) < 1e-7

    def test_unitary_trace_exact(self):
        model = _unitary_model()
        rho0 = model.rho0_family.rho0(model.theta)
        sig0 = model.rho0_family.drho0_dtheta(model.theta)
        for dt in (0.01, 0.17, 0.5):
            rho, _ = step_rk4(model, model.theta, 0.0, rho0, sig0, dt)
            assert abs(np.trace(rho) - 1.0) < 1e-15

    def test_fourth_order_convergence(self):
        # Richardson: one dt-step vs two dt/2-steps against a fine reference
        model = builtin_model("ad-nm")
        grid, rhos, sigs = run_states(model, model.theta, 0.5, 1e-3)

        def advance(nsub):
            t, rho, sig = float(grid[-1]), rhos[-1], sigs[-1]
            for _ in range(nsub):
                rho, sig = step_rk4(model, model.theta, t, rho, sig, 0.1 / nsub)
                t += 0.1 / nsub
            return rho

        ref = advance(128)
        e1 = np.max(np.abs(advance(1) - ref))
        e2 = np.max(np.abs(advance(2) - ref))
        assert 12.0 < e1 / e2 < 24.0

    def test_output_exactly_hermitian(self):
        model = builtin_model("ad-nm")
        rho, sig = step_rk4(
            model,
            model.theta,
            0.0,
            model.rho0_family.rho0(model.theta),
            model.rho0_family.drho0_dtheta(model.theta),
            1e-3,
        )
        assert hermiticity_defect(rho) == 0.0
        assert hermiticity_defect(sig) == 0.0

    def test_rejects_nonpositive_dt(self):
        model = builtin_model("ad-nm")
        with pytest.raises(ValueError):
            step_rk4(model, model.theta, 0.0, np.eye(2, dtype=complex) / 2, np.zeros((2, 2), complex), 0.0)

    def test_pre_hermitize_drift_is_rounding_level(self):
        # the raw RK4 update loses Hermiticity only through floating rounding
        model = builtin_model("ad-nm")
        grid, rhos, _ = run_states(model, model.theta, 0.2, 1e-3)
        t, rho = float(grid[-1]), rhos[-1]
        dt = 1e-3

        def rhs(t, r):
            return apply_generator(model, model.theta, t, r)

        k1 = rhs(t, rho)
        k2 = rhs(t + dt / 2, rho + dt / 2 * k1)
        k3 = rhs(t + dt / 2, rho + dt / 2 * k2)
        k4 = rhs(t + dt, rho + dt * k3)
        raw = rho + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        assert hermiticity_defect(raw) <= 1e-13


class TestPropagate:
    def test_amplitude_damping_benchmark(self):
        # constant gamma = 1 from the excited state: rho11(1) = exp(-1)
        model = builtin_model("ad-nm", {"a": 0.0, "theta": math.pi})
        _, rho, _ = run_states(model, model.theta, 1.0, 1e-3)
        assert abs(rho[-1, 1, 1].real - math.exp(-1.0)) < 1e-8

    def test_unitary_spectrum_invariant(self):
        model = builtin_model("phase-dephasing", {"theta": 0.9, "gamma0": 0.0})
        _, rhos, _ = run_states(model, 0.9, 2.0, 1e-3)
        ref = np.linalg.eigvalsh(rhos[0])
        for rho in rhos[::200]:
            npt.assert_allclose(np.linalg.eigvalsh(rho), ref, atol=1e-12)

    def test_negative_rate_windows_stay_physical(self):
        model = builtin_model("ad-nm", {"a": 1.5})
        traj = propagate(model, model.theta, 5.0, 1e-3)
        gammas = [scalar_values(ch.gamma, traj.grid, model.theta) for ch in model.channels]
        assert np.min(gammas) < 0.0
        assert traj.min_eigenvalue >= -1e-9

    def test_trace_and_derivative_trace_drift(self):
        for name in ("ad-nm", "ad-jc", "phase-dephasing", "rate-estimation"):
            model = builtin_model(name)
            traj = propagate(model, model.theta, 2.0, 1e-3)
            assert traj.max_trace_drift <= 1e-9
            _, _, sigs = run_states(model, model.theta, 2.0, 1e-3)
            assert max(abs(np.trace(sig)) for sig in sigs) <= 1e-9

    def test_grid_and_time_stamps_agree(self):
        model = builtin_model("ad-nm")
        traj = propagate(model, model.theta, 0.05, 1e-3)
        assert len(traj.grid) == 51
        npt.assert_array_equal(traj.flow.t, traj.grid)
        grid, rho, sig = run_states(model, model.theta, 0.05, 1e-3)
        npt.assert_array_equal(grid, traj.grid)
        assert rho.shape == sig.shape == (51, 2, 2)

    def test_invalid_state_aborts_with_time_stamp(self):
        # constant negative rate inflates the excited population past 1
        model = _constant_damping_model(-1.0, angle=math.pi / 2)
        with pytest.raises(PropagationError) as err:
            propagate(model, 0.0, 5.0, 1e-3)
        assert 0.0 < err.value.t <= 5.0

    def test_non_finite_state_aborts_with_time_stamp(self):
        # the first step overflows; the gate reports it at t = dt without numpy warnings
        model = builtin_model("ad-nm", {"gamma0": 1e300})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PropagationError, match="non-finite") as err:
                propagate(model, model.theta, 0.01, 1e-3)
        assert err.value.t == 0.001

    def test_pole_inside_run_rejected(self):
        model = builtin_model("ad-jc", {"gamma0": 1.0, "lambda": 0.5})
        with pytest.raises(ScalarPoleError):
            propagate(model, model.theta, 5.0, 1e-3)

    def test_argument_validation(self):
        model = builtin_model("ad-nm")
        with pytest.raises(ValueError):
            propagate(model, model.theta, -1.0, 1e-3)
        with pytest.raises(ValueError):
            propagate(model, model.theta, 1.0, -1e-3)
        with pytest.raises(ValueError):
            propagate(model, model.theta, 1.0, 1e-9)  # over the trajectory byte budget

    def test_grid_rule_rejects_before_integrating(self, monkeypatch):
        model = builtin_model("ad-nm")
        assert len(propagate(model, model.theta, 1.5e-3, 1e-3).grid) == 3

        def no_integration(*args, **kwargs):
            raise AssertionError("integrated before the grid rule")

        monkeypatch.setattr(propagation, "_integrate", no_integration)
        with pytest.raises(ValueError, match="the grid needs at least 3 points"):
            propagate(model, model.theta, 1e-3, 1e-3)
        for t_end, dt in ((math.inf, 1e-3), (math.nan, 1e-3), (1.0, math.nan), (1e308, 1e-10)):
            with pytest.raises(ValueError, match="the grid needs a finite number of steps"):
                propagate(model, model.theta, t_end, dt)

    def test_byte_budget_rejects_before_allocating(self, monkeypatch):
        model = builtin_model("ad-nm")
        need = 2 * 101 * 2 * 2 * 16  # two (101, 2, 2) complex stacks
        monkeypatch.setattr(propagation, "TRAJECTORY_BYTES", need)
        assert len(propagate(model, model.theta, 0.1, 1e-3).grid) == 101
        monkeypatch.setattr(propagation, "TRAJECTORY_BYTES", need - 1)

        def no_allocation(*args, **kwargs):
            raise AssertionError("allocated before the budget check")

        with monkeypatch.context() as m:
            m.setattr(np, "empty", no_allocation)
            m.setattr(np, "arange", no_allocation)
            with pytest.raises(ValueError, match="budget"):
                propagate(model, model.theta, 0.1, 1e-3)


class TestGkslIntegrity:
    # |lambda| dt <= 444 * 2e-4 = 0.089 for every eigenvalue lambda of the
    # generator: far inside RK4's stability region, which reaches |lambda| dt
    # of about 2.8 on the real and the imaginary axis.
    DT = 2e-4

    @settings(max_examples=40, deadline=None)
    @given(gksl_models())
    def test_short_run_keeps_trace_hermiticity_and_positivity(self, model):
        d = model.dim
        basis = np.eye(d * d, dtype=complex).reshape(d * d, d, d)
        K = np.stack([reference_generator(model, model.theta, 0.0, e).ravel() for e in basis], axis=1)
        assert np.max(np.abs(np.linalg.eigvals(K))) * self.DT <= GKSL_GENERATOR_NORM * self.DT <= 0.1
        tol = DEFAULT_TOLERANCES
        traj = propagate(model, model.theta, 500 * self.DT, self.DT, tol)
        assert traj.max_trace_drift <= tol.trace
        assert traj.min_eigenvalue >= -tol.positivity
        _, rhos, _ = run_states(model, model.theta, 500 * self.DT, self.DT, tol)
        assert max(hermiticity_defect(rho) for rho in rhos) <= tol.herm


class TestPositivityGateTiming:
    """ad-nm in closed form: the excited population P = exp(-int gamma) passes 1,
    and rho leaves the state space, at the first root t* of int gamma; the gate
    must abort at the first grid time after t*."""

    DT = 1e-3
    T_END = 2.0

    def _check(self, gamma0, a, omega, phi):
        model = builtin_model("ad-nm", {"gamma0": gamma0, "a": a, "omega": omega, "phi": phi})
        t_star = sinusoid_integral_first_root(gamma0, a, omega, phi, self.T_END)
        with pytest.raises(PropagationError, match="minimum eigenvalue") as err:
            propagate(model, model.theta, self.T_END, self.DT)
        assert t_star < err.value.t <= t_star + self.DT
        return t_star, err.value.t

    def test_reference_case(self):
        t_star, t_abort = self._check(1.0, 3.0, 2.0, math.pi)
        assert t_star == pytest.approx(0.34705, abs=1e-5)
        assert t_abort == pytest.approx(0.348, abs=1e-12)

    # about three draws in four have no root in (2 dt, t_end] and are filtered out
    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    @given(st.floats(0.5, 2.0), st.floats(1.0, 5.0), st.floats(0.5, 4.0), st.floats(0.0, 2.0 * math.pi))
    def test_random_sinusoidal_rates(self, gamma0, a, omega, phi):
        t_star = sinusoid_integral_first_root(gamma0, a, omega, phi, self.T_END)
        assume(t_star is not None and 2 * self.DT <= t_star <= self.T_END - self.DT)
        # a transversal root, not a tangent one
        assume(gamma0 * (1.0 + a * math.sin(omega * t_star + phi)) <= -0.1 * gamma0)
        # the state at the first grid time after t* is already past the gate's tolerance
        t_next = math.ceil(t_star / self.DT) * self.DT
        P = math.exp(-sinusoid_integral(t_next, gamma0, a, omega, phi))
        assume(damped_min_eigenvalue(P, math.pi / 4) < -2.0 * DEFAULT_TOLERANCES.positivity)
        self._check(gamma0, a, omega, phi)


class TestHealthFigures:
    def test_stacked_figures_match_scalar_helpers(self, qutrit_model):
        # the per-matrix helpers are the reference for the batched figures
        for model in (builtin_model("ad-nm"), qutrit_model):
            traj = propagate(model, model.theta, 2.0, 1e-3)
            _, rhos, _ = run_states(model, model.theta, 2.0, 1e-3)
            assert rhos.shape == (len(traj.grid), model.dim, model.dim)
            drift = max(trace_deviation(rho) for rho in rhos)
            lam_min = min(min_eigenvalue(rho) for rho in rhos)
            assert abs(traj.max_trace_drift - drift) <= 1e-15
            assert abs(traj.min_eigenvalue - lam_min) <= 1e-15


# The pure-state ``linear`` family of the CI's pure.json: the run passes, yet
# rho0(theta +/- delta) leaves the state space at t = 0.
PURE_LINEAR = {
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


# H = sigma_z/2 + theta sigma_z/2: two terms on one base, which the generator sums
# into one form, _ScalarSum(ConstantScalar, ThetaScaledScalar); theta enters K
# only through that sum's part.
SIGMA_Z_HALF = [[[0.5, 0], [0, 0]], [[0, 0], [-0.5, 0]]]
SCALAR_SUM = {
    "model": {
        "dim": 2,
        "hamiltonian": [
            {"matrix": SIGMA_Z_HALF},
            {"matrix": SIGMA_Z_HALF, "modulation": {"form": "theta_scaled", "base": 1}},
        ],
        "dH_dtheta": SIGMA_Z_HALF,
        "channels": [{"label": "ad", "A": [[[0, 0], [1, 0]], [[0, 0], [0, 0]]], "gamma": 0.2}],
        "rho0_family": {"family": "ry_fixed", "angle": math.pi / 2},
        "theta": 0.3,
    },
    "t_end": 2,
    "dt": 0.001,
}


def _two_propagations_deviation(model, theta, delta, t_end):
    """The theta check's value from separate runs at theta and theta +/- delta."""
    _, _, sig = run_states(model, theta, t_end, 1e-3)
    _, plus, _ = run_states(model, theta + delta, t_end, 1e-3)
    _, minus, _ = run_states(model, theta - delta, t_end, 1e-3)
    return float(np.max(np.abs(sig - (plus - minus) / (2 * delta))))


class TestFdThetaConsistency:
    def test_ad_nm(self):
        model = builtin_model("ad-nm")
        assert propagate(model, model.theta, 1.0, 1e-3, delta_theta=1e-4).theta_consistency <= 1e-5

    def test_phase_dephasing(self):
        model = builtin_model("phase-dephasing")
        assert propagate(model, model.theta, 1.0, 1e-3, delta_theta=1e-4).theta_consistency <= 1e-5

    def test_fully_theta_independent_problem_is_exact(self):
        # theta enters neither the generator nor the initial state
        model = _constant_damping_model(0.7, angle=math.pi / 3)
        assert propagate(model, 0.0, 0.5, 1e-3, delta_theta=1e-4).theta_consistency <= 1e-13

    def test_reuses_trajectory_and_matches_central_difference(self, monkeypatch):
        model = builtin_model("ad-nm")
        theta, delta = model.theta, 1e-4
        expected = _two_propagations_deviation(model, theta, delta, 0.5)

        calls = []
        integrate = propagation._integrate

        def counting_integrate(gen, thetas, *args):
            calls.append(thetas)
            return integrate(gen, thetas, *args)

        monkeypatch.setattr(propagation, "_integrate", counting_integrate)
        assert propagate(model, theta, 0.5, 1e-3).theta_consistency is None
        assert propagate(model, theta, 0.5, 1e-3, delta_theta=delta).theta_consistency == expected
        # theta +/- delta evolve together, in one stack beside the pair
        assert calls == [(theta,), (theta,), (theta + delta, theta - delta)]

    @pytest.mark.parametrize("name", ["phase-dephasing", "rate-estimation"])
    def test_batched_pass_matches_two_propagations(self, name):
        # models whose generator depends on theta through H or gamma
        model = builtin_model(name)
        theta, delta = model.theta, 1e-4
        expected = _two_propagations_deviation(model, theta, delta, 0.5)
        assert abs(propagate(model, theta, 0.5, 1e-3, delta_theta=delta).theta_consistency - expected) <= 1e-12

    def test_theta_entering_k_through_a_sum_keeps_a_map_per_theta(self):
        # Were the stack's K taken as theta-free, theta +/- delta would share
        # one map: both members would evolve under K(theta + delta), and the
        # check would read 0.819, failing criterion 8's 1e-5.
        config = parse_config(json.dumps(SCALAR_SUM))
        model, theta = config.model, config.theta
        gen = model_module.compile_generator(model, derivative=False)
        (form,) = [f for f in gen.forms if isinstance(f, model_module._ScalarSum)]
        assert [type(part) for part in form.parts] == [ConstantScalar, model_module.ThetaScaledScalar]
        deviation = propagate(model, theta, config.t_end, config.dt, delta_theta=1e-4).theta_consistency
        assert deviation <= 1e-5
        assert abs(deviation - _two_propagations_deviation(model, theta, 1e-4, config.t_end)) <= 1e-12

    def test_gate_reports_first_failing_time_of_either_member(self, monkeypatch):
        # with a = 3 the theta +/- delta states go negative near t = 0.35,
        # inside the first block of steps
        model = builtin_model("ad-nm", {"a": 3.0, "phi": math.pi})
        loose = ToleranceConfig(positivity=1.0)
        grid = run_states(model, model.theta, 1.0, 1e-3, loose)[0]
        members = [run_states(model, model.theta + s * 1e-4, 1.0, 1e-3, loose)[1] for s in (1, -1)]
        first = next(
            k for k in range(len(grid))
            if any(min_eigenvalue(m[k]) < -DEFAULT_TOLERANCES.positivity for m in members)
        )
        assert 0 < first < len(grid) - 1
        # the pair passes its gate at the loose tolerances, the theta +/- delta stack's gate keeps the defaults
        monkeypatch.setattr(propagation, "validate_density", lambda m, tol: validate_density(m, DEFAULT_TOLERANCES))
        with pytest.raises(PropagationError, match="minimum eigenvalue") as err:
            propagate(model, model.theta, 1.0, 1e-3, loose, delta_theta=1e-4)
        assert err.value.t == grid.tolist()[first]

    def test_rejects_nonpositive_delta(self):
        model = builtin_model("ad-nm")
        with pytest.raises(ValueError):
            propagate(model, model.theta, 0.1, 1e-3, delta_theta=0.0)


class TestThetaStackErrorPrecedence:
    def test_theta_only_failure_is_raised_once_the_pair_finishes(self):
        config = parse_config(json.dumps(PURE_LINEAR))
        assert propagate(config.model, config.theta, config.t_end, config.dt).theta_consistency is None
        with pytest.raises(PropagationError, match=r"^state invalid at t=0\.0: ") as err:
            propagate(config.model, config.theta, config.t_end, config.dt, delta_theta=config.delta_theta)
        assert err.value.t == 0.0

    def test_pair_failure_wins_over_a_held_theta_failure(self, monkeypatch):
        # the theta +/- delta stack fails at t = 0 (its gate sees twice the trace),
        # the pair only later: the pair's error is raised, as it was when the
        # theta stack ran after the whole pair
        model = _constant_damping_model(-1.0, angle=math.pi / 2)
        seen = []

        def doubled(m, tol):
            seen.append(len(m))
            return validate_density(2.0 * m, tol)

        monkeypatch.setattr(propagation, "validate_density", doubled)
        with pytest.raises(PropagationError) as err:
            propagate(model, 0.0, 5.0, 1e-3, delta_theta=1e-4)
        assert seen == [2]  # the theta stack failed at its first block and was drawn no further
        assert err.value.t > 0.0
        with pytest.raises(PropagationError) as pair_only:
            propagate(model, 0.0, 5.0, 1e-3)
        assert str(err.value) == str(pair_only.value) and err.value.t == pair_only.value.t


def _spy_paths(mp):
    """Count the calls into each integration path of ``propagation``."""
    calls = {"maps": 0, "stacked": 0}
    maps, step = propagation._generator_maps, propagation._rk4_step

    def counting_maps(*args):
        calls["maps"] += 1
        return maps(*args)

    def counting_step(*args):
        calls["stacked"] += 1
        return step(*args)

    mp.setattr(propagation, "_generator_maps", counting_maps)
    mp.setattr(propagation, "_rk4_step", counting_step)
    return calls


# The gate accepts every finite state, so random models with rates of either
# sign compare over the whole run.
ANY_FINITE_STATE = ToleranceConfig(herm=math.inf, trace=math.inf, positivity=math.inf)


class TestStepMapPath:
    def test_path_is_chosen_by_bytes(self, monkeypatch):
        model = builtin_model("ad-nm")
        calls = _spy_paths(monkeypatch)
        propagate(model, model.theta, 0.01, 1e-3)
        assert calls["maps"] > 0 and calls["stacked"] == 0

        monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
        from workloads import qubit_model

        config = parse_config(json.dumps({"model": qubit_model(0), "t_end": 0.002, "dt": 1e-3}))
        # checked first: on the map path this model's unit map alone would take 10.7 GB
        assert propagation._block_steps(model_module.compile_generator(config.model), 1)[1] == 0
        calls.update(maps=0, stacked=0)
        propagate(config.model, config.theta, 0.002, 1e-3)
        assert calls["maps"] == 0 and calls["stacked"] == 2

    @settings(max_examples=60, deadline=None)
    @given(models())
    # the map path's branches: an uncoupled pair and a theta-free stack (ad-nm), a
    # coupled pair and a stack with a map per theta (phase-dephasing, and theta in a sum)
    @example(builtin_model("ad-nm"))
    @example(builtin_model("phase-dephasing"))
    @example(parse_config(json.dumps(SCALAR_SUM)).model)
    def test_paths_agree_on_random_models(self, model):
        # delta = 0.05 keeps the central difference's rounding (eps / delta per
        # state) well below the 1e-12 bound; at 1e-4 it alone reaches ~1e-12
        def run(budget, path):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(propagation, "COEFFICIENT_BYTES", budget)
                calls = _spy_paths(mp)
                _, rho, sig = run_states(model, model.theta, 0.02, 1e-3, ANY_FINITE_STATE)
                deviation = propagate(model, model.theta, 0.02, 1e-3, ANY_FINITE_STATE, 0.05).theta_consistency
            assert calls[path] > 0 and sum(calls.values()) == calls[path]
            return (rho, sig), deviation

        maps, maps_dev = run(2**26, "maps")
        ref, ref_dev = run(0, "stacked")
        for got, want in zip(maps, ref):
            assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))
        assert abs(maps_dev - ref_dev) <= 1e-12 * max(1.0, ref_dev)

    @pytest.mark.parametrize(
        "name, shapes",
        [
            # no dK/dtheta block, K free of theta: the pair's and the stack's members are columns of one 4 x 4 map
            ("ad-nm", {(1, 4, 4)}),
            ("ad-jc", {(1, 4, 4)}),
            # a dK/dtheta block: the pair's [[S_K, 0], [S_dK, S_K]]; theta in K: the stack's map per theta
            ("phase-dephasing", {(1, 8, 8), (2, 4, 4)}),
            ("rate-estimation", {(1, 8, 8), (2, 4, 4)}),
            ("qutrit", {(1, 9, 9)}),
        ],
    )
    def test_each_stack_takes_its_branch(self, monkeypatch, qutrit_model, name, shapes):
        model = qutrit_model if name == "qutrit" else builtin_model(name)
        seen, maps = set(), propagation._generator_maps

        def recording_maps(*args):
            s = maps(*args)
            seen.add(s.shape[1:])
            return s

        monkeypatch.setattr(propagation, "_generator_maps", recording_maps)
        propagate(model, model.theta, 0.1, 1e-3, delta_theta=1e-4)
        assert seen == shapes

    def test_states_exactly_hermitian(self):
        for name in ("ad-nm", "phase-dephasing"):
            model = builtin_model(name)
            _, *stacks = run_states(model, model.theta, 1.0, 1e-3)
            for stack in stacks:
                assert np.max(np.abs(stack - stack.conj().swapaxes(1, 2))) == 0.0

    def test_generator_evaluated_once_per_half_grid_time(self, monkeypatch):
        model = builtin_model("ad-nm")
        block = propagation._block_steps(model_module.compile_generator(model), 1)[0]
        seen = _spy_times(monkeypatch)
        traj = propagate(model, model.theta, (2 * block + block // 2) * 1e-3, 1e-3)
        _check_half_grid_once(seen, traj.grid)

    def test_non_finite_operator_mid_block_aborts_at_next_grid_time(self, monkeypatch):
        # an inf rate at the half-grid time t_j + dt/2 spoils step j only, so
        # the first non-finite state is the one at t_(j+1)
        model = builtin_model("ad-nm")
        block = propagation._block_steps(model_module.compile_generator(model), 1)[0]
        j = block + block // 2
        grid = np.arange(3 * block + 1) * 1e-3
        bad = grid[j] + 0.5e-3
        values = model_module.scalar_values

        def inf_at_bad(s, times, theta):
            return np.where(times == bad, np.inf, values(s, times, theta))

        monkeypatch.setattr(model_module, "scalar_values", inf_at_bad)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PropagationError, match="non-finite entries") as err:
                propagate(model, model.theta, grid[-1], 1e-3)
        assert err.value.t == grid.tolist()[j + 1]


def _map_layout(gen, thetas, x):
    """The map path's unit map, the thetas its operators are evaluated at, and the
    coordinates (n_thetas, m, cols) of the stack x, by the integrator's rules: a pair
    without a dK/dtheta block, and a stack whose K is free of theta, are the columns
    of one K's map."""
    thetas = thetas if gen.theta_dependent else thetas[:1]
    units = propagation._unit_maps(gen if len(gen.blocks) > 1 else dataclasses.replace(gen, derivative=False))
    c = propagation._coordinates(hermitize(x)).reshape(len(thetas), -1, math.isqrt(units.shape[1]))
    return units, thetas, c.swapaxes(1, 2)


def _first_full_block_peak(gen, thetas, x) -> tuple[int, int]:
    """The steps of a full block of the map path and the bytes it holds at its peak: the
    unit map kept through the run, plus the traced peak of the memory allocated while
    the block's operators are evaluated and its states advanced."""
    steps, batch, chunk = propagation._block_steps(gen, len(thetas))
    grid = np.arange(steps + 1) * 1e-3
    units, thetas, c = _map_layout(gen, thetas, x)  # the unit map is built once per run
    carry = gen.operators(grid[:1], thetas), c
    tracemalloc.start()
    try:
        ops = gen.operators(propagation._half_grid(grid, 1e-3), thetas)
        xs, _, _ = propagation._advance_maps(gen, units, batch, chunk, ops, carry, 1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(xs) == steps
    return steps, units.nbytes + peak


class TestMapBlocks:
    # before the increments were formed in batches, a block held every step's
    # S(t) and RK4 stage products: the ad-nm pair took 183 steps per block
    PAIR_STEPS_BEFORE = 183

    @pytest.mark.parametrize(
        "case",
        ["ad-nm pair", "phase-dephasing theta stack", "rate-estimation pair", "qutrit pair", "qutrit theta stack"],
    )
    def test_a_block_fits_coefficient_bytes(self, case, qutrit_model):
        name, stack = case.split(" ", 1)
        model = qutrit_model if name == "qutrit" else builtin_model(name)
        theta = model.theta
        if stack == "pair":
            gen = model_module.compile_generator(model)
            thetas, x = (theta,), np.stack([model.rho0_family.rho0(theta), model.rho0_family.drho0_dtheta(theta)])
        else:
            gen = model_module.compile_generator(model, derivative=False)
            thetas = (theta + 1e-4, theta - 1e-4)
            x = np.stack([model.rho0_family.rho0(t) for t in thetas])
        block, peak = _first_full_block_peak(gen, thetas, x)
        assert peak <= propagation.COEFFICIENT_BYTES
        if case == "ad-nm pair":
            assert block >= 2.5 * self.PAIR_STEPS_BEFORE

    @pytest.mark.parametrize("name", [*BUILTIN_MODEL_NAMES, "qutrit"])
    def test_pair_and_theta_stack_split_the_grid_alike(self, name, qutrit_model):
        # The theta check matches two separate propagations to 1e-12, below the
        # rounding floor of its central difference, only while the (rho,
        # drho_dtheta) pair and the theta +/- delta stack round alike: the same
        # chunks of the scan, and blocks that end on chunk boundaries.
        model = qutrit_model if name == "qutrit" else builtin_model(name)
        pair = propagation._block_steps(model_module.compile_generator(model), 1)
        stack = propagation._block_steps(model_module.compile_generator(model, derivative=False), 2)
        assert pair[1] > 0 and stack[1] > 0  # both on the map path
        assert pair[2] == stack[2]
        assert pair[0] % pair[2] == 0 and stack[0] % stack[2] == 0

    @settings(max_examples=60, deadline=None)
    @given(
        st.one_of(st.just(1), st.integers(1, 31).map(lambda s: s * s), st.integers(1, 1000)),
        st.integers(1, 18),
        st.floats(0.0, 1e-2),
        st.integers(0, 2**32 - 1),
    )
    @example(steps=1, k=1, norm=1e-2, seed=0)
    @example(steps=961, k=18, norm=1e-2, seed=1)
    @example(steps=1000, k=18, norm=1e-2, seed=2)
    def test_scan_matches_the_recurrence(self, steps, k, norm, seed):
        # Bound, derived before measuring: with gamma_m = m u / (1 - m u), each
        # state of either evaluation is at most B + 1 nested roundings deep, each
        # one a product over k terms and at most two sums, so its error is at
        # most ((1 + gamma_(k+2))^(B+1) - 1) times the same evaluation on
        # absolute values, |N_j| ... |N_0| |c_0| with I + |N| per step (Higham,
        # Accuracy and Stability, ch. 3).  The recurrence runs in long double.
        # per theta, k x cols coordinates: the layouts of a coupled pair, of the columns
        # of one map, and of one map per theta
        thetas, cols = [(1, 1), (1, 2), (2, 1)][seed % 3]
        rng = np.random.default_rng(seed)
        n = rng.standard_normal((steps, thetas, k, k))
        n *= norm / np.maximum(np.linalg.norm(n, 2, axis=(-2, -1)), 1e-300)[..., None, None]
        c = rng.standard_normal((thetas, k, cols))
        ref = step_map_chain(n.astype(np.longdouble), c.astype(np.longdouble))
        scale = step_map_chain(np.abs(n).astype(np.longdouble), np.abs(c).astype(np.longdouble))
        size = math.isqrt(steps - 1) + 1  # chunks of ceil(sqrt(B)): exact for B = s^2, else a ragged last one

        def growth(u, m, depth):
            gamma = m * u / (1 - m * u)
            return math.expm1(depth * math.log1p(gamma))

        long_u = float(np.finfo(np.longdouble).eps) / 2
        bound = (growth(2.0**-53, k + 2, steps + 1) + growth(long_u, k + 1, steps + 1)) * scale
        cs, last = propagation._chain(n.copy(), c, size)
        assert np.all(np.abs(cs - ref) <= bound)
        assert np.all(np.abs(last - ref[-1]) <= bound[-1])

    @pytest.mark.parametrize("j", [0, 1, 9, 10, 37, 99])
    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_increment_spoils_only_later_states(self, j, bad):
        rng = np.random.default_rng(j)
        n = 1e-3 * rng.standard_normal((100, 1, 8, 8))
        n[j, 0, 3, 5] = bad
        with np.errstate(invalid="ignore", over="ignore"):
            cs, last = propagation._chain(n, rng.standard_normal((1, 8, 2)), 10)
        assert np.all(np.isfinite(cs[:j]))
        assert not np.any(np.isfinite(cs[j:, 0, 3])) and not np.any(np.isfinite(last[0, 3]))


class TestGeneratorMaps:
    @pytest.mark.parametrize(
        "case",
        [
            "phase-dephasing pair",
            "phase-dephasing theta stack",
            "rate-estimation pair",
            "rate-estimation theta stack",
            "qutrit pair",
            "qutrit theta stack",
        ],
    )
    def test_map_applies_the_generator(self, case, qutrit_model):
        # Bound, derived before measuring: every real term either side sums is
        # +/- (an operator real) (a jump entry, or a unit) (a coordinate), of
        # magnitude at most f l c (l >= 1, as L_0 = I).  A theta's S c acts on
        # the n = m coordinates of one column (of cols), so it sums at most 2 w n
        # of them (a unit-map entry is t_ij + conj(t_ji) of one product each),
        # act at most 16 j d^2 (4 per complex triple product, nj d^2 of them per
        # entry, doubled by t + t^H and by a pair's dK/dtheta), and no term is
        # more than r = w + n + 4 j d + 8 roundings deep on either side, so
        # |S c - act| <= gamma_r (2 w n + 16 j d^2) f l c, gamma_r = r u / (1 - r u).
        name, stack = case.split(" ", 1)
        model = qutrit_model if name == "qutrit" else builtin_model(name)
        gen = model_module.compile_generator(model, derivative=stack == "pair")
        thetas = (model.theta,) if stack == "pair" else (model.theta + 0.1, model.theta - 0.1)
        rng = np.random.default_rng(len(case))
        units, thetas, _ = _map_layout(gen, thetas, np.zeros((2, gen.dim, gen.dim)))
        ops = gen.operators(rng.uniform(0.0, 5.0, 7), thetas)
        d, j, w = gen.dim, len(gen.jumps) // gen.dim, ops.shape[-2] * 2 * gen.dim
        n = math.isqrt(units.shape[1])
        cols = 2 * d * d // (len(thetas) * n)  # two members: rho and drho_dtheta, or theta +/- 0.1
        c = rng.uniform(-1.0, 1.0, (len(ops), len(thetas), n, cols))
        got = (propagation._generator_maps(ops, units) @ c).swapaxes(-1, -2).reshape(len(ops), 2, d * d)
        want = propagation._coordinates(gen.act(ops, propagation._matrices(c.swapaxes(-1, -2).reshape(got.shape), d)))
        r, u = w + n + 4 * j * d + 8, 2.0**-53
        scale = np.abs(ops.view(float)).max() * np.abs(gen.jumps).max() * np.abs(c).max()
        bound = r * u / (1 - r * u) * (2 * w * n + 16 * j * d * d) * scale
        assert np.max(np.abs(got - want)) <= bound


    @pytest.mark.parametrize("case", ["ad-nm pair", "rate-estimation pair", "qutrit pair", "qutrit theta stack"])
    def test_unit_map_is_built_within_coefficient_bytes(self, case, qutrit_model):
        # built a chunk of unit rows at a time, the map equals, bit for bit, the one
        # of a single ``act`` call on all w rows, which peaked at 1.84 MB for the
        # qutrit pair (about 100 w m^2 bytes)
        name, stack = case.split(" ", 1)
        model = qutrit_model if name == "qutrit" else builtin_model(name)
        gen = model_module.compile_generator(model, derivative=stack == "pair")
        tracemalloc.start()
        try:
            units = propagation._unit_maps(gen)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= propagation.COEFFICIENT_BYTES
        d, (w, m2) = gen.dim, units.shape
        m = math.isqrt(m2)
        x = np.broadcast_to(propagation._matrices(np.eye(m).reshape(m, -1, d * d), d), (w, m, m // (d * d), d, d))
        y = gen.act(np.eye(w).view(complex).reshape(w, 1, 1, w // (2 * d), d), x)
        assert np.array_equal(units, propagation._coordinates(y).reshape(w, m, m).swapaxes(1, 2).reshape(w, m2))


def _qubit_model(monkeypatch):
    """Model 0 of the benchmark's 4-qubit pool (d = 16), whose unit map alone
    exceeds COEFFICIENT_BYTES: it runs on the stacked path."""
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
    from workloads import qubit_model

    model = parse_config(json.dumps({"model": qubit_model(0), "t_end": 0.01, "dt": 1e-3})).model
    gen = model_module.compile_generator(model)
    assert propagation._block_steps(gen, 1)[1] == 0
    return model, gen


def _spy_times(mp) -> list:
    """The times of every ``CompiledGenerator.operators`` call, one array per call."""
    seen = []
    operators = model_module.CompiledGenerator.operators

    def spy(self, times, thetas):
        seen.append(np.asarray(times, dtype=float).ravel())
        return operators(self, times, thetas)

    mp.setattr(model_module.CompiledGenerator, "operators", spy)
    return seen


def _check_half_grid_once(seen, grid):
    """The generator was evaluated at every grid time and midpoint exactly once."""
    times = np.concatenate(seen)
    assert len(seen) > 2  # the initial point and several blocks of several steps
    assert np.array_equal(np.sort(times), np.sort(np.concatenate([grid, grid[:-1] + 0.5e-3])))
    # the boundary point of consecutive blocks is carried over, not evaluated twice
    assert len(times) == 2 * (len(grid) - 1) + 1


class TestStackedPath:
    def test_blocks_take_as_many_steps_as_their_operators_fit(self, monkeypatch):
        model, gen = _qubit_model(monkeypatch)
        steps, batch, _ = propagation._block_steps(gen, 1)
        assert batch == 0
        assert steps == (propagation.COEFFICIENT_BYTES // gen.bytes_per_time(1) - 1) // 2 > 1

    def test_generator_evaluated_once_per_half_grid_time(self, monkeypatch):
        model, gen = _qubit_model(monkeypatch)
        seen = _spy_times(monkeypatch)
        traj = propagate(model, model.theta, 40 * 1e-3, 1e-3)
        _check_half_grid_once(seen, traj.grid)

    def test_four_acts_per_step_and_one_at_the_end(self, monkeypatch):
        # RK4's four stages per step, the first of them being the previous state's
        # derivative for the flow; the last state's derivative is the one more
        model, gen = _qubit_model(monkeypatch)
        calls = []
        act = model_module.CompiledGenerator.act
        monkeypatch.setattr(model_module.CompiledGenerator, "act", lambda *a: calls.append(1) or act(*a))
        n = 40
        propagate(model, model.theta, n * 1e-3, 1e-3)
        assert len(calls) == 4 * n + 1

    def test_memory_beyond_the_stored_stacks_does_not_grow_with_the_run(self, monkeypatch):
        # the run stores no states: they, their derivatives and eigenvectors
        # live one block at a time.  Per grid point the flow keeps a few scalar
        # columns; one stored (N, d, d) stack would add 16 d^2 bytes per point,
        # four times the growth allowed here.
        model, gen = _qubit_model(monkeypatch)
        d = model.dim
        peaks = {}
        for n in (40, 400):
            tracemalloc.start()
            try:
                propagate(model, model.theta, n * 1e-3, 1e-3)
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[400] - peaks[40] <= (400 - 40) * 16 * d * d // 4

    def test_non_finite_operator_mid_block_aborts_at_next_grid_time(self, monkeypatch):
        # the stacked-path twin of TestStepMapPath's test: an inf rate at the
        # half-grid time t_j + dt/2 spoils step j only, inside a block of steps
        model, gen = _qubit_model(monkeypatch)
        steps = propagation._block_steps(gen, 1)[0]
        assert steps > 1
        j = steps + steps // 2
        grid = np.arange(3 * steps + 1) * 1e-3
        bad = grid[j] + 0.5e-3
        values = model_module.scalar_values

        def inf_at_bad(s, times, theta):
            return np.where(times == bad, np.inf, values(s, times, theta))

        monkeypatch.setattr(model_module, "scalar_values", inf_at_bad)
        calls = _spy_paths(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PropagationError, match="non-finite entries") as err:
                propagate(model, model.theta, grid[-1], 1e-3)
        assert err.value.t == grid.tolist()[j + 1]
        # the gate runs once the second block has taken all its steps
        assert calls["stacked"] == 2 * steps and calls["maps"] == 0


def _inline_d8_model():
    """An inline 3-qubit model (d = 8) of two channels, on the stacked path."""
    d = 8
    rng = np.random.default_rng(8)
    h = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    doc = {
        "model": {
            "dim": d,
            "hamiltonian": matrix_to_config((h + h.conj().T) / 4),
            "channels": [
                {
                    "label": "down",
                    "A": matrix_to_config(np.diag(np.ones(d - 1), 1).astype(complex)),
                    "gamma": {"form": "sinusoidal", "c0": 0.3, "a": 0.5, "omega": 2.0},
                },
                {"label": "z", "A": matrix_to_config(np.diag(np.arange(d) / d).astype(complex)), "gamma": 0.2},
            ],
            "rho0_family": {
                "family": "linear",
                "rho0": matrix_to_config(np.eye(d, dtype=complex) / d),
                "drho0_dtheta": matrix_to_config(np.diag(np.linspace(-0.01, 0.01, d)).astype(complex)),
                "theta_ref": 0.0,
            },
            "theta": 0.0,
        },
        "t_end": 0.01,
        "dt": 1e-3,
    }
    return parse_config(json.dumps(doc)).model


class TestStreamingRun:
    def test_memory_per_grid_point_is_the_flow_tables(self):
        # Bound, derived before measuring: per grid point a run keeps its flow
        # table, 7 + 3c float64 columns (t, F, flow_fd, full_flow, ham_term,
        # residual_T, thresholded_pairs, and gamma, J, I per channel).  At its
        # peak, forming the table, the per-block columns and their concatenation
        # are alive together with the rates' products and the residual's three
        # temporaries: 15 + 5c columns, within twice the table for c >= 1.  Per
        # block, the flow's tuple of six arrays and the block's minimum
        # eigenvalue take under 1 KiB of Python objects.  Stored states would add
        # 2 x 16 d^2 = 2048 bytes per point at d = 8, over nine times this bound.
        model = _inline_d8_model()
        c = len(model.channels)
        steps, batch, _ = propagation._block_steps(model_module.compile_generator(model), 1)
        assert batch == 0
        peaks = {}
        for blocks in (2, 8):
            tracemalloc.start()
            try:
                propagate(model, model.theta, blocks * steps * 1e-3, 1e-3)
                peaks[blocks] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        per_point = 2 * 8 * (7 + 3 * c) + 1024 / steps
        assert per_point * 9 <= 2 * 16 * model.dim**2
        assert peaks[8] - peaks[2] <= (8 - 2) * steps * per_point


class TestOnePass:
    @pytest.mark.parametrize("path", ["maps", "stacked"])
    def test_each_state_decomposed_once(self, monkeypatch, solver_calls, path):
        # the density gate's eigendecomposition feeds the SLD: one per grid point,
        # and no eigenvalues-only pass
        if path == "maps":
            model = builtin_model("ad-nm")
            n = 2 * propagation._block_steps(model_module.compile_generator(model), 1)[0] + 7
        else:
            model, _ = _qubit_model(monkeypatch)
            n = 40
        _, rho, _ = run_states(model, model.theta, n * 1e-3, 1e-3)
        solver_calls.clear()
        propagate(model, model.theta, n * 1e-3, 1e-3)
        assert all(vectors for _, vectors in solver_calls)
        assert np.array_equal(np.concatenate([h for h, _ in solver_calls]), hermitize(rho))
