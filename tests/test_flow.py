import json
import math
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
import reference_flow as ref
from exact_qubit import exact_qfi
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_generator import evaluate, reference_generator, reference_generator_theta_derivative, scalar
from strategies import models, real

from qfiflow import propagation
from qfiflow.config import builtin_model, parse_config
from qfiflow.estimation import sld_stack
from qfiflow.flow import (
    FlowTable,
    _fd_series,
    classify_intervals,
    full_flow,
    hamiltonian_term,
    subflow_J,
)
from qfiflow.model import (
    BUILTIN_MODEL_NAMES,
    Channel,
    ConstantScalar,
    LinearStateFamily,
    ModelSpec,
    OperatorTerm,
    RyStateFamily,
    SinusoidalScalar,
    TimeDependentOperator,
    compile_generator,
    constant_operator,
    scalar_values,
    zero_operator,
)
from qfiflow.operators import (
    DEFAULT_TOLERANCES,
    ToleranceConfig,
    IDENTITY_2,
    SIGMA_MINUS,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    DimensionMismatchError,
    hermitize,
)
from qfiflow.propagation import Trajectory, propagate

PLUS = 0.5 * (IDENTITY_2 + SIGMA_X)

# The gate accepts every finite state, so random models with rates of either
# sign run to the end.
ANY_FINITE_STATE = ToleranceConfig(herm=math.inf, trace=math.inf, positivity=math.inf)


def random_density(rng, n):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def one(*ms):
    """Single matrices as one-matrix stacks."""
    return [np.asarray(m, dtype=complex)[None] for m in ms]


class TestSubflowJ:
    def test_commuting_pair_vanishes(self):
        npt.assert_array_equal(subflow_J(*one(IDENTITY_2 / 2, SIGMA_Z, SIGMA_Z)), [0.0])

    def test_lowering_operator(self):
        npt.assert_allclose(subflow_J(*one(IDENTITY_2 / 2, SIGMA_X, SIGMA_MINUS)), [-1.0])

    def test_dephasing_operator(self):
        npt.assert_allclose(subflow_J(*one(IDENTITY_2 / 2, SIGMA_X, SIGMA_Z)), [-4.0])

    def test_stack_is_matrix_by_matrix(self):
        rho, L = np.stack([IDENTITY_2 / 2] * 3), np.stack([SIGMA_X] * 3)
        A = np.stack([SIGMA_Z, SIGMA_MINUS, SIGMA_Z])
        npt.assert_allclose(subflow_J(rho, L, A), [-4.0, -1.0, -4.0])

    def test_dimension_mismatch(self):
        rho, L = one(IDENTITY_2 / 2, SIGMA_X)
        for A in (np.eye(3, dtype=complex)[None], np.stack([SIGMA_Z] * 2), SIGMA_Z):
            with pytest.raises(DimensionMismatchError):
                subflow_J(rho, L, A)
        with pytest.raises(DimensionMismatchError):
            subflow_J(IDENTITY_2 / 2, SIGMA_X, SIGMA_Z)

    def test_non_hermitian_state_warns(self):
        bad_rho = np.array([[1j, 0.0], [0.0, 0.0]], dtype=complex)
        with pytest.warns(RuntimeWarning, match="imaginary residue"):
            subflow_J(*one(bad_rho, SIGMA_X, SIGMA_MINUS))

    def test_sign_property_random_sample(self):
        rng = np.random.default_rng(31)
        for _ in range(300):
            n = int(rng.integers(2, 5))
            rho = random_density(rng, n)
            L = hermitize(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
            A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            assert subflow_J(*one(rho, L, A))[0] <= 1e-12


def _single_channel_model(gamma):
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
        rho0_family=RyStateFamily(),
        theta=0.3,
    )


class TestChannelDecomposition:
    def test_no_channels(self):
        model = ModelSpec(
            dim=2,
            H=constant_operator(SIGMA_Z),
            dH_dtheta=zero_operator(2),
            channels=(),
            rho0_family=RyStateFamily(),
            theta=0.0,
        )
        table = propagate(model, 0.0, 0.01, 1e-3).flow
        assert table.labels == ()
        assert table.gamma.shape == table.J.shape == table.I.shape == (0, len(table))
        assert sum(table.I) == 0.0

    def test_negative_rate_gives_positive_subflow(self):
        (ch,) = _single_channel_model(-0.5).channels
        gamma = scalar(ch.gamma, 0.0, 0.0)
        (J,) = subflow_J(*one(IDENTITY_2 / 2, SIGMA_X, evaluate(ch.A, 0.0, 0.0)))
        assert gamma == pytest.approx(-0.5)
        assert J == pytest.approx(-1.0)
        assert gamma * J == pytest.approx(0.5)

    def test_positive_rate_instants_give_nonpositive_subflow(self):
        model = builtin_model("ad-nm", {"a": 1.5})
        traj = propagate(model, model.theta, 1.0, 1e-3)
        (ch,) = model.channels
        t, rho, sig = traj.grid[::100], traj.rho[::100], traj.drho_dtheta[::100]
        L = sld_stack(rho, sig)[0]
        gamma = scalar_values(ch.gamma, t, model.theta)
        I = gamma * subflow_J(rho, L, ch.A.evaluate_many(t, model.theta))
        assert np.any(gamma > 0) and np.all(I[gamma > 0] <= 1e-12)


class TestHamiltonianTerm:
    def test_zero_derivative_is_exactly_zero(self):
        npt.assert_array_equal(hamiltonian_term(*one(np.zeros((2, 2)), IDENTITY_2 / 2, SIGMA_X)), [0.0])
        model = builtin_model("ad-nm")
        table = propagate(model, model.theta, 0.05, 1e-3).flow
        npt.assert_array_equal(table.ham_term, 0.0)

    def test_diagonal_pair_vanishes(self):
        model = builtin_model("phase-dephasing")
        dH = model.dH_dtheta.evaluate_many(np.array([0.0]), 0.3)
        rho = np.diag([0.3, 0.7]).astype(complex)
        L = np.diag([1.0, -2.0]).astype(complex)
        npt.assert_allclose(hamiltonian_term(dH, *one(rho, L)), [0.0], atol=1e-15)

    def test_phase_family_value(self):
        # matches dF/dt = 2t at t = 1 for the analytic pure-phase family
        model = builtin_model("phase-dephasing")
        dH = model.dH_dtheta.evaluate_many(np.array([1.0]), 0.3)
        npt.assert_allclose(hamiltonian_term(dH, *one(PLUS, SIGMA_Y)), [2.0])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            hamiltonian_term(*one(np.eye(3), IDENTITY_2 / 2, SIGMA_X))


class TestFullFlow:
    def test_theta_independent_unitary_flow_vanishes(self):
        model = ModelSpec(
            dim=2,
            H=constant_operator(0.5 * SIGMA_Z),
            dH_dtheta=zero_operator(2),
            channels=(),
            rho0_family=RyStateFamily(),
            theta=0.4,
        )
        traj = propagate(model, 0.4, 2.0, 1e-3)
        table = traj.flow
        assert np.max(np.abs(table.full_flow)) <= 1e-9
        assert np.max(np.abs(table.qfi - table.qfi[0])) <= 1e-6
        t, rho, sig = traj.grid[500], traj.rho[500], traj.drho_dtheta[500]
        L = sld_stack(rho[None], sig[None])[0]
        rhodot = reference_generator(model, 0.4, t, rho)
        sigdot = reference_generator_theta_derivative(model, 0.4, t, rho, sig)
        assert abs(full_flow(L, *one(rhodot, sigdot))[0]) <= 1e-9

    def test_pure_phase_estimation_flow(self):
        model = builtin_model("phase-dephasing", {"gamma0": 0.0})
        traj = propagate(model, model.theta, 1.0, 1e-3)
        table = traj.flow
        late = table.t >= 0.1
        npt.assert_allclose(table.full_flow[late], 2.0 * table.t[late], rtol=0, atol=1e-6)

    def test_matches_oracle_on_ad_nm(self):
        model = builtin_model("ad-nm")
        traj = propagate(model, model.theta, 1.0, 1e-3)
        table = traj.flow
        tol = 1e-5 * max(1.0, np.max(table.qfi))
        assert np.max(np.abs(table.flow_fd - table.full_flow)[1:-1]) <= tol


    def test_dimension_mismatch(self):
        rho = IDENTITY_2 / 2
        for pair in ((np.eye(3) / 3, rho), (rho, np.zeros((3, 3)))):
            with pytest.raises(DimensionMismatchError):
                full_flow(*one(SIGMA_X, *pair))


class TestResidual:
    def test_theta_independent_model_residual_vanishes(self):
        model = builtin_model("ad-nm")
        traj = propagate(model, model.theta, 1.0, 1e-3)
        table = traj.flow
        tau = 1e-6 * max(1.0, np.max(np.abs(table.qfi)))
        assert np.max(np.abs(table.residual_T)) <= tau
        assert np.max(np.abs(table.ham_term)) <= tau

    def test_phase_dephasing_residual_vanishes_but_ham_does_not(self):
        # only the Hamiltonian depends on theta: no rate/operator terms
        model = builtin_model("phase-dephasing")
        traj = propagate(model, model.theta, 1.0, 1e-3)
        table = traj.flow
        tau = 1e-6 * max(1.0, np.max(np.abs(table.qfi)))
        assert np.max(np.abs(table.residual_T)) <= tau
        assert np.max(np.abs(table.ham_term)) > 100 * tau

    def test_rate_estimation_residual_matches_oracle(self):
        model = builtin_model("rate-estimation")
        traj = propagate(model, model.theta, 1.0, 1e-3)
        table = traj.flow
        tol = 1e-5 * max(1.0, np.max(table.qfi))
        sub = sum(table.I)
        gap = table.residual_T - (table.flow_fd - table.ham_term - sub)
        assert np.max(np.abs(gap)[1:-1]) <= tol
        assert np.max(np.abs(table.residual_T)[1:-1]) > 100 * tol


class TestFdFlowOracle:
    def test_quadratic_exact_at_center(self):
        assert _fd_series(np.array([0.0, 1.0, 4.0, 9.0]), 1.0)[2] == pytest.approx(4.0)

    def test_constant_series(self):
        npt.assert_array_equal(_fd_series(np.full(5, 2.0), 0.1), 0.0)

    def test_sine_series(self):
        dt = 1e-3
        t = np.arange(2001) * dt
        npt.assert_allclose(_fd_series(np.sin(t), dt)[[1, 700, 1999]], np.cos(t[[1, 700, 1999]]), rtol=0, atol=1e-6)

    def test_one_sided_stencils_exact_on_quadratics(self):
        dt = 0.25
        fd = _fd_series((np.arange(5) * dt) ** 2, dt)
        npt.assert_allclose(fd, 2.0 * np.arange(5) * dt, rtol=0, atol=1e-12)

    def test_errors(self):
        with pytest.raises(ValueError):
            _fd_series(np.array([1.0, 2.0]), 0.1)


def _synthetic_table(times, gamma, J):
    n = len(times)
    zeros = np.zeros(n)
    return FlowTable(
        t=np.asarray(times), qfi=np.ones(n), flow_fd=zeros, full_flow=zeros, ham_term=zeros,
        residual_T=zeros, thresholded_pairs=np.zeros(n, dtype=int), labels=("x",),
        gamma=np.full((1, n), gamma), J=np.full((1, n), J), I=np.full((1, n), gamma * J),
    )


class TestClassifyIntervals:
    def test_all_positive_rates(self):
        table = _synthetic_table(np.linspace(0, 1, 11), gamma=0.5, J=-1.0)
        (report,) = classify_intervals(table)
        assert report.negative_rate_intervals == ()
        assert report.overlap_fraction is None

    def test_synthetic_negative_rate_spans_run(self):
        times = np.linspace(0, 1, 11)
        table = _synthetic_table(times, gamma=-1.0, J=-1.0)
        (report,) = classify_intervals(table)
        assert report.negative_rate_intervals == ((0.0, 1.0),)
        assert report.positive_subflow_intervals == ((0.0, 1.0),)
        assert report.overlap_fraction == 1.0

    def test_ad_nm_window_matches_analytic_sign_change(self):
        # gamma(t) = 1 + 1.5 sin 2t < 0 exactly where sin 2t < -2/3
        model = builtin_model("ad-nm", {"a": 1.5})
        traj = propagate(model, model.theta, 5.0, 1e-3)
        (report,) = classify_intervals(traj.flow)
        s = math.asin(2.0 / 3.0)
        expected = ((math.pi + s) / 2.0, (2.0 * math.pi - s) / 2.0)
        ((t0, t1),) = report.negative_rate_intervals
        assert t0 == pytest.approx(expected[0], abs=2e-3)
        assert t1 == pytest.approx(expected[1], abs=2e-3)
        assert report.overlap_fraction >= 0.99

    def test_empty_records_rejected(self):
        with pytest.raises(ValueError):
            classify_intervals(_synthetic_table(np.array([]), gamma=0.5, J=-1.0))


# Builtin parameters, each within its documented range, narrowed to runs that
# stay valid and away from pure states after t = 0 -- rates that never go
# negative (a <= 1), a Jaynes-Cummings reservoir without poles
# (lambda > 2 gamma0), decay no faster than about exp(-13) by t = 5 -- and
# slow enough that RK4's truncation at dt = 1e-3 stays below the bound
# (|theta| <= 1 for the phase, lambda <= 5 gamma0: theta = 3 or
# lambda = 14 gamma0 reach it).
_ANGLE = st.floats(0.2, math.pi - 0.2)
BUILTIN_PARAMS = {
    "ad-nm": st.fixed_dictionaries(
        {"gamma0": st.floats(0.1, 1.5), "a": st.floats(0.0, 1.0), "omega": st.floats(0.5, 4.0),
         "phi": st.floats(0.0, 2.0 * math.pi), "omega0": st.floats(0.0, 2.0), "theta": _ANGLE}
    ),
    "ad-jc": st.tuples(st.floats(0.1, 1.5), st.floats(2.5, 5.0), st.floats(0.0, 2.0), _ANGLE).map(
        lambda p: {"gamma0": p[0], "lambda": p[0] * p[1], "omega0": p[2], "theta": p[3]}
    ),
    "phase-dephasing": st.fixed_dictionaries(
        {"gamma0": st.floats(0.0, 1.0), "a": st.floats(0.0, 1.0), "omega": st.floats(0.5, 4.0),
         "phi": st.floats(0.0, 2.0 * math.pi), "theta": st.floats(-1.0, 1.0)}
    ),
    "rate-estimation": st.fixed_dictionaries(
        {"theta": st.floats(0.2, 1.5), "g": st.floats(0.2, 1.5), "omega0": st.floats(0.0, 2.0), "alpha": _ANGLE}
    ),
}


class TestExactQubitOracle:
    # reference settings; the closed form shares no code with propagate,
    # sld_stack, the flow or the finite-difference stencil

    @pytest.mark.parametrize("name", BUILTIN_MODEL_NAMES)
    def test_qfi_matches_closed_form(self, name):
        model = builtin_model(name)
        table = propagate(model, model.theta, 5.0, 1e-3).flow
        exact = exact_qfi(name, table.t)
        error, bound = np.max(np.abs(exact - table.qfi)), 1e-12 * max(1.0, np.max(exact))
        print(f"CLOSED-FORM QFI [{name}]: max|F - F_exact| = {error:.3e} <= {bound:.1e}")  # in CI's log
        assert error <= bound

    @pytest.mark.parametrize("name", BUILTIN_MODEL_NAMES)
    @settings(max_examples=8, deadline=None)
    @given(data=st.data())
    def test_qfi_matches_closed_form_at_drawn_parameters(self, name, data):
        params = data.draw(BUILTIN_PARAMS[name])
        model = builtin_model(name, params)
        table = propagate(model, model.theta, 5.0, 1e-3).flow
        exact = exact_qfi(name, table.t, params)
        assert np.max(np.abs(exact - table.qfi)) <= 1e-12 * max(1.0, np.max(exact))

    @pytest.mark.parametrize("name", BUILTIN_MODEL_NAMES)
    def test_full_flow_matches_closed_form_derivative(self, name):
        # five-point stencil of the closed form, its truncation included
        model = builtin_model(name)
        table = propagate(model, model.theta, 5.0, 1e-3).flow
        h, late = 1e-3, table.t >= 2e-3
        t = table.t[late]
        dF = (-exact_qfi(name, t + 2 * h) + 8 * exact_qfi(name, t + h) - 8 * exact_qfi(name, t - h)
              + exact_qfi(name, t - 2 * h)) / (12 * h)
        bound = 1e-10 * max(1.0, np.max(exact_qfi(name, table.t)))
        assert np.max(np.abs(dF - table.full_flow[late])) <= bound


class TestFlowOfThePass:
    """``propagate``'s flow, from the derivatives and eigendecompositions of its
    own pass, against the flow recomputed from the stored states."""

    @staticmethod
    def _check(traj, rtol=1e-12, column_scale=False):
        want = ref.flow_records(traj)
        got = traj.flow
        assert got.labels == want.labels
        npt.assert_array_equal(got.t, want.t)
        npt.assert_array_equal(got.thresholded_pairs, want.thresholded_pairs)
        for column in ("qfi", "flow_fd", "full_flow", "ham_term", "residual_T", "gamma", "J", "I"):
            g, w = getattr(got, column), getattr(want, column)
            scale = max(1.0, float(np.max(np.abs(w if column_scale else want.qfi), initial=0.0)))
            assert np.max(np.abs(g - w), initial=0.0) <= rtol * scale

    @pytest.mark.parametrize("name", BUILTIN_MODEL_NAMES)
    def test_builtins(self, name):
        # the step-map path, over several blocks
        model = builtin_model(name)
        self._check(propagate(model, model.theta, 1.0, 1e-3))

    def test_qutrit(self, qutrit_model):
        self._check(propagate(qutrit_model, 0.0, 0.5, 1e-3))

    def test_four_qubits(self, monkeypatch):
        # d = 16: the stacked path, whose derivatives are carried RK4 stages
        monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
        from workloads import qubit_model

        model = parse_config(json.dumps({"model": qubit_model(3), "t_end": 0.05, "dt": 1e-3})).model
        assert propagation._block_steps(compile_generator(model), 1)[1] == 0
        self._check(propagate(model, model.theta, 0.05, 1e-3))

    @settings(max_examples=30, deadline=None)
    @given(models(), st.booleans())
    def test_random_models_on_both_paths(self, model, maps):
        # States off the positivity boundary give large SLDs, which amplify the
        # rounding of the derivatives (S c against act) to about 1e-12 of each
        # column; a derivative of the wrong state or time would be off by O(1).
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(propagation, "COEFFICIENT_BYTES", 2**26 if maps else 0)
            traj = propagate(model, model.theta, 0.02, 1e-3, ANY_FINITE_STATE)
        self._check(traj, rtol=1e-9, column_scale=True)


class TestMultilevelSystem:
    def test_qutrit_two_channel_decomposition(self, qutrit_model):
        # theta enters only through the initial state, so the subflow sum is
        # the whole flow; exercises dim > 2 and multiple channels at once
        model = qutrit_model
        traj = propagate(model, 0.0, 2.0, 1e-3)
        table = traj.flow
        tol = 1e-5 * max(1.0, np.max(table.qfi))
        assert np.max(np.abs(table.flow_fd - sum(table.I))[1:-1]) <= tol
        assert np.max(np.abs(table.flow_fd - table.full_flow)[1:-1]) <= tol
        assert np.max(table.J) <= 1e-12
        reports = classify_intervals(table)
        assert [rep.channel for rep in reports] == ["lo01", "lo12"]
        assert reports[0].overlap_fraction == 1.0
        assert reports[1].overlap_fraction is None


class TestFlowRecords:
    def test_residual_identity_holds_exactly(self):
        model = builtin_model("rate-estimation")
        traj = propagate(model, model.theta, 0.2, 1e-3)
        table = traj.flow
        expected = table.full_flow - table.ham_term - sum(table.I)
        npt.assert_allclose(table.residual_T, expected, rtol=0, atol=1e-15)

    def test_record_grid_alignment(self):
        model = builtin_model("ad-nm")
        traj = propagate(model, model.theta, 0.05, 1e-3)
        table = traj.flow
        assert len(table) == len(traj.grid)
        npt.assert_array_equal(table.t, traj.grid)
        for column in (table.qfi, table.flow_fd, table.full_flow, table.ham_term, table.residual_T):
            assert column.shape == (len(traj.grid),)
        assert table.gamma.shape == table.J.shape == table.I.shape == (1, len(traj.grid))


def _state_pair(rng, d):
    """A density matrix of random rank (pure states included) and a Hermitian direction.

    Eigenvalues off the support are zero or, as after negative-rate
    intervals, slightly negative within the positivity tolerance.
    """
    q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    rank = int(rng.integers(1, d + 1))
    p = -rng.uniform(0.0, 5e-10, d) * rng.integers(0, 2)
    p[:rank] = rng.uniform(0.05, 1.0, rank)
    rho = hermitize((q * (p / p.sum())) @ q.conj().T)
    sig = hermitize(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return rho, sig - np.trace(sig).real / d * np.eye(d)


class TestStackedFlowMatchesScalarReferences:
    @settings(max_examples=60, deadline=None)
    @given(models(), real(1.0), st.integers(3, 8), st.integers(0, 2**32 - 1))
    def test_random_models_and_states(self, model, theta, n, seed):
        rng = np.random.default_rng(seed)
        dt = 0.1
        rho, sig = map(np.array, zip(*(_state_pair(rng, model.dim) for _ in range(n))))
        traj = Trajectory(
            model=model, theta=theta, grid=np.arange(n) * dt, rho=rho, drho_dtheta=sig,
            dt=dt, tolerances=DEFAULT_TOLERANCES, max_trace_drift=0.0, min_eigenvalue=0.0, flow=None,
        )
        table = ref.flow_records(traj)
        refs = [ref.sld(r, s) for r, s in zip(rho, sig)]
        qfis = [res.qfi for res in refs]

        def close(got, ref):
            assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref))

        assert len(table) == n
        assert table.labels == tuple(ch.label for ch in model.channels)
        for k, (res, t) in enumerate(zip(refs, traj.grid.tolist())):
            assert table.t[k] == t
            assert table.thresholded_pairs[k] == res.thresholded_pairs
            close(table.qfi[k], res.qfi)
            close(table.flow_fd[k], ref.fd_flow_oracle(qfis, dt, k))
            close(table.ham_term[k], ref.hamiltonian_term(model, theta, t, rho[k], res.L))
            close(table.full_flow[k], ref.full_flow(model, theta, t, rho[k], sig[k], res.L))
            for i, ch in enumerate(model.channels):
                close(table.gamma[i, k], scalar(ch.gamma, t, theta))
                close(table.J[i, k], ref.subflow_J(rho[k], res.L, evaluate(ch.A, t, theta)))
        npt.assert_array_equal(table.I, table.gamma * table.J)
        npt.assert_array_equal(table.residual_T, table.full_flow - table.ham_term - sum(table.I))

    def test_terms_on_one_base_with_cancelling_modulations(self):
        # The example this test's draws shrank to: A = c1 B + c2 B with
        # c1 = -1.609375, c2 = 1.5625 (1 - sin 6.25), so A = 0.00497 B, gamma = 2.
        # Formed per pair of terms, W_ab = gamma c_a c_b has four products of
        # size 5.2 whose sum is gamma s^2 = 4.9e-5, s = c1 + c2: their rounding,
        # 1e5 times that sum's, put full_flow 1.06e-12 from the reference, |L|^2
        # being up to 4400.  With the modulations on one base added first, s is
        # exact (Sterbenz: c2 / 2 <= -c1 <= 2 c2) and K scales one sandwich by
        # gamma s^2, so the error is that of any generator of this size: a few
        # d u of gamma s^2 |B|_F^2 |X|_F in K X, magnified by |L|_F^2, of order
        # 1e-16, far below the 1e-12 x max(1, |F'|) the draws are held to.
        d, gamma = 4, 2.0
        B = np.ones((d, d), dtype=complex)
        B[0] = 0.0
        mods = (ConstantScalar(-1.609375), SinusoidalScalar(1.5625, -1.0, 0.0, 6.25))
        A = TimeDependentOperator(d, tuple(OperatorTerm(B, m) for m in mods))
        model = ModelSpec(
            dim=d, H=zero_operator(d), dH_dtheta=zero_operator(d),
            channels=(Channel("ch0", A, ConstantScalar(gamma), zero_operator(d), ConstantScalar(0.0)),),
            rho0_family=LinearStateFamily(np.eye(d, dtype=complex) / d, np.zeros((d, d), dtype=complex), 0.0),
            theta=0.0,
        )
        rng = np.random.default_rng(2)
        rho, sig = map(np.array, zip(*(_state_pair(rng, d) for _ in range(3))))
        traj = Trajectory(
            model=model, theta=0.0, grid=np.arange(3) * 0.1, rho=rho, drho_dtheta=sig,
            dt=0.1, tolerances=DEFAULT_TOLERANCES, max_trace_drift=0.0, min_eigenvalue=0.0, flow=None,
        )
        table = ref.flow_records(traj)
        # extended-precision K X = gamma (A X A^dag - {A^dag A, X}/2), with A from the
        # modulations' float64 values, and Tr{L [2 K sig - L K rho]} with the SLDs L
        x = np.clongdouble
        Ax = sum(x(scalar(m, 0.0)) for m in mods) * B.astype(x)
        Ad = Ax.conj().T

        def K(X):
            X = X.astype(x)
            return gamma * (Ax @ X @ Ad - (Ad @ Ax @ X + X @ Ad @ Ax) / 2)

        L = sld_stack(rho, sig)[0].astype(x)
        want = np.array([np.trace(Lk @ (2 * K(s) - Lk @ K(r))).real for Lk, r, s in zip(L, rho, sig)])
        assert np.all(np.abs(table.full_flow - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))
