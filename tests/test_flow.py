import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from strategies import models, real

from qfiflow.estimation import sld
from qfiflow.flow import (
    FlowTable,
    classify_intervals,
    fd_flow_oracle,
    flow_records,
    full_flow,
    hamiltonian_term,
    residual_T,
    subflow_J,
)
from qfiflow.model import (
    Channel,
    ConstantScalar,
    ModelSpec,
    RyStateFamily,
    builtin_model,
    constant_operator,
    zero_operator,
)
from qfiflow.operators import (
    DEFAULT_TOLERANCES,
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


def random_density(rng, n):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


class TestSubflowJ:
    def test_commuting_pair_vanishes(self):
        assert subflow_J(IDENTITY_2 / 2, SIGMA_Z, SIGMA_Z) == 0.0

    def test_lowering_operator(self):
        assert subflow_J(IDENTITY_2 / 2, SIGMA_X, SIGMA_MINUS) == pytest.approx(-1.0)

    def test_dephasing_operator(self):
        assert subflow_J(IDENTITY_2 / 2, SIGMA_X, SIGMA_Z) == pytest.approx(-4.0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            subflow_J(IDENTITY_2 / 2, SIGMA_X, np.eye(3, dtype=complex))

    def test_non_hermitian_state_warns(self):
        bad_rho = np.array([[1j, 0.0], [0.0, 0.0]], dtype=complex)
        with pytest.warns(RuntimeWarning, match="imaginary residue"):
            subflow_J(bad_rho, SIGMA_X, SIGMA_MINUS)

    def test_sign_property_random_sample(self):
        rng = np.random.default_rng(31)
        for _ in range(300):
            n = int(rng.integers(2, 5))
            rho = random_density(rng, n)
            L = hermitize(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
            A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            assert subflow_J(rho, L, A) <= 1e-12


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
        table = flow_records(propagate(model, 0.0, 0.01, 1e-3))
        assert table.labels == ()
        assert table.gamma.shape == table.J.shape == table.I.shape == (0, len(table))
        assert sum(table.I) == 0.0

    def test_negative_rate_gives_positive_subflow(self):
        (ch,) = _single_channel_model(-0.5).channels
        gamma = ch.gamma(0.0, 0.0)
        J = subflow_J(IDENTITY_2 / 2, SIGMA_X, ch.A.evaluate(0.0, 0.0))
        assert gamma == pytest.approx(-0.5)
        assert J == pytest.approx(-1.0)
        assert gamma * J == pytest.approx(0.5)

    def test_positive_rate_instants_give_nonpositive_subflow(self):
        model = builtin_model("ad-nm", {"a": 1.5})
        traj = propagate(model, model.theta, 1.0, 1e-3)
        (ch,) = model.channels
        for t, rho, sig in zip(traj.grid[::100], traj.rho[::100], traj.drho_dtheta[::100]):
            if ch.gamma(t) > 0:
                res = sld(rho, sig)
                J = subflow_J(rho, res.L, ch.A.evaluate(t, model.theta))
                assert ch.gamma(t, model.theta) * J <= 1e-12


class TestHamiltonianTerm:
    def test_zero_derivative_is_exactly_zero(self):
        model = builtin_model("ad-nm")
        assert hamiltonian_term(model, model.theta, 0.5, IDENTITY_2 / 2, SIGMA_X) == 0.0

    def test_diagonal_pair_vanishes(self):
        model = builtin_model("phase-dephasing")
        rho = np.diag([0.3, 0.7]).astype(complex)
        L = np.diag([1.0, -2.0]).astype(complex)
        assert hamiltonian_term(model, 0.3, 0.0, rho, L) == pytest.approx(0.0, abs=1e-15)

    def test_phase_family_value(self):
        # matches dF/dt = 2t at t = 1 for the analytic pure-phase family
        model = builtin_model("phase-dephasing")
        assert hamiltonian_term(model, 0.3, 1.0, PLUS, SIGMA_Y) == pytest.approx(2.0)


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
        table = flow_records(traj)
        assert np.max(np.abs(table.full_flow)) <= 1e-9
        assert np.max(np.abs(table.qfi - table.qfi[0])) <= 1e-6
        t, rho, sig = traj.grid[500], traj.rho[500], traj.drho_dtheta[500]
        res = sld(rho, sig)
        assert abs(full_flow(model, 0.4, t, rho, sig, res.L)) <= 1e-9

    def test_pure_phase_estimation_flow(self):
        model = builtin_model("phase-dephasing", {"gamma0": 0.0})
        traj = propagate(model, model.theta, 1.0, 1e-3)
        table = flow_records(traj)
        late = table.t >= 0.1
        npt.assert_allclose(table.full_flow[late], 2.0 * table.t[late], rtol=0, atol=1e-6)

    def test_matches_oracle_on_ad_nm(self):
        model = builtin_model("ad-nm")
        traj = propagate(model, model.theta, 1.0, 1e-3)
        table = flow_records(traj)
        tol = 1e-5 * max(1.0, np.max(table.qfi))
        assert np.max(np.abs(table.flow_fd - table.full_flow)[1:-1]) <= tol


class TestResidual:
    def test_arithmetic(self):
        assert residual_T(5.0, 2.0, 1.5) == pytest.approx(1.5)

    def test_theta_independent_model_residual_vanishes(self):
        model = builtin_model("ad-nm")
        traj = propagate(model, model.theta, 1.0, 1e-3)
        table = flow_records(traj)
        tau = 1e-6 * max(1.0, np.max(np.abs(table.qfi)))
        assert np.max(np.abs(table.residual_T)) <= tau
        assert np.max(np.abs(table.ham_term)) <= tau

    def test_phase_dephasing_residual_vanishes_but_ham_does_not(self):
        # only the Hamiltonian depends on theta: no rate/operator terms
        model = builtin_model("phase-dephasing")
        traj = propagate(model, model.theta, 1.0, 1e-3)
        table = flow_records(traj)
        tau = 1e-6 * max(1.0, np.max(np.abs(table.qfi)))
        assert np.max(np.abs(table.residual_T)) <= tau
        assert np.max(np.abs(table.ham_term)) > 100 * tau

    def test_rate_estimation_residual_matches_oracle(self):
        model = builtin_model("rate-estimation")
        traj = propagate(model, model.theta, 1.0, 1e-3)
        table = flow_records(traj)
        tol = 1e-5 * max(1.0, np.max(table.qfi))
        sub = sum(table.I)
        gap = table.residual_T - (table.flow_fd - table.ham_term - sub)
        assert np.max(np.abs(gap)[1:-1]) <= tol
        assert np.max(np.abs(table.residual_T)[1:-1]) > 100 * tol


class TestFdFlowOracle:
    def test_quadratic_exact_at_center(self):
        assert fd_flow_oracle([0.0, 1.0, 4.0, 9.0], 1.0, 2) == pytest.approx(4.0)

    def test_constant_series(self):
        assert fd_flow_oracle([2.0] * 5, 0.1, 2) == 0.0

    def test_sine_series(self):
        dt = 1e-3
        series = [math.sin(k * dt) for k in range(2001)]
        for k in (1, 700, 1999):
            assert fd_flow_oracle(series, dt, k) == pytest.approx(
                math.cos(k * dt), abs=1e-6
            )

    def test_one_sided_stencils_exact_on_quadratics(self):
        dt = 0.25
        series = [(k * dt) ** 2 for k in range(5)]
        assert fd_flow_oracle(series, dt, 0) == pytest.approx(0.0, abs=1e-12)
        assert fd_flow_oracle(series, dt, 4) == pytest.approx(2.0 * 4 * dt, abs=1e-12)

    def test_errors(self):
        with pytest.raises(ValueError):
            fd_flow_oracle([1.0, 2.0], 0.1, 0)
        with pytest.raises(IndexError):
            fd_flow_oracle([1.0, 2.0, 3.0], 0.1, 5)


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
        (report,) = classify_intervals(flow_records(traj))
        s = math.asin(2.0 / 3.0)
        expected = ((math.pi + s) / 2.0, (2.0 * math.pi - s) / 2.0)
        ((t0, t1),) = report.negative_rate_intervals
        assert t0 == pytest.approx(expected[0], abs=2e-3)
        assert t1 == pytest.approx(expected[1], abs=2e-3)
        assert report.overlap_fraction >= 0.99

    def test_empty_records_rejected(self):
        with pytest.raises(ValueError):
            classify_intervals(_synthetic_table(np.array([]), gamma=0.5, J=-1.0))


class TestMultilevelSystem:
    def test_qutrit_two_channel_decomposition(self, qutrit_model):
        # theta enters only through the initial state, so the subflow sum is
        # the whole flow; exercises dim > 2 and multiple channels at once
        model = qutrit_model
        traj = propagate(model, 0.0, 2.0, 1e-3)
        table = flow_records(traj)
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
        table = flow_records(traj)
        expected = table.full_flow - table.ham_term - sum(table.I)
        npt.assert_allclose(table.residual_T, expected, rtol=0, atol=1e-15)

    def test_record_grid_alignment(self):
        model = builtin_model("ad-nm")
        traj = propagate(model, model.theta, 0.05, 1e-3)
        table = flow_records(traj)
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
            dt=dt, tolerances=DEFAULT_TOLERANCES, max_trace_drift=0.0, min_eigenvalue=0.0,
        )
        table = flow_records(traj)
        refs = [sld(r, s) for r, s in zip(rho, sig)]
        qfis = [ref.qfi for ref in refs]

        def close(got, ref):
            assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref))

        assert len(table) == n
        assert table.labels == tuple(ch.label for ch in model.channels)
        for k, (ref, t) in enumerate(zip(refs, traj.grid.tolist())):
            assert table.t[k] == t
            assert table.thresholded_pairs[k] == ref.thresholded_pairs
            close(table.qfi[k], ref.qfi)
            close(table.flow_fd[k], fd_flow_oracle(qfis, dt, k))
            close(table.ham_term[k], hamiltonian_term(model, theta, t, rho[k], ref.L))
            close(table.full_flow[k], full_flow(model, theta, t, rho[k], sig[k], ref.L))
            for i, ch in enumerate(model.channels):
                close(table.gamma[i, k], ch.gamma(t, theta))
                close(table.J[i, k], subflow_J(rho[k], ref.L, ch.A.evaluate(t, theta)))
        npt.assert_array_equal(table.I, table.gamma * table.J)
        npt.assert_array_equal(table.residual_T, table.full_flow - table.ham_term - sum(table.I))
