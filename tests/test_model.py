import math
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_generator import reference_generator, reference_generator_theta_derivative
from strategies import models, real

from qfiflow.model import (
    BUILTIN_MODEL_NAMES,
    COEFFICIENT_BYTES,
    Channel,
    ConstantScalar,
    FixedRyStateFamily,
    JcLorentzianScalar,
    ModelSpec,
    RyStateFamily,
    ScalarPoleError,
    SinusoidalScalar,
    ThetaScaledScalar,
    _jc_pieces,
    apply_generator,
    apply_generator_theta_derivative,
    builtin_model,
    compile_generator,
    constant_operator,
    modulated_operator,
    probe_theta_dependence,
    ry_rotation,
    scalar_from_config,
    scalar_is_zero,
    scalar_to_config,
    scalar_values,
    scan_scalar_poles,
    validate_model,
    zero_operator,
)
from qfiflow.operators import (
    IDENTITY_2,
    SIGMA_MINUS,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    DimensionMismatchError,
    hermitize,
    hermiticity_defect,
)

EXCITED = np.diag([0.0, 1.0]).astype(complex)
PLUS = 0.5 * (IDENTITY_2 + SIGMA_X)


def all_builtins():
    return [builtin_model(name) for name in BUILTIN_MODEL_NAMES]


class TestScalars:
    def test_constant(self):
        assert ConstantScalar(2.5)(0.0) == 2.5
        assert ConstantScalar(2.5)(17.3, theta=4.0) == 2.5

    def test_sinusoidal(self):
        s = SinusoidalScalar(c0=1.0, a=1.5, omega=2.0, phi=0.3)
        for t in (0.0, 0.7, 3.1):
            assert s(t) == pytest.approx(1.0 * (1.0 + 1.5 * math.sin(2.0 * t + 0.3)))

    def test_jc_weak_coupling_matches_real_root_formula(self):
        g0, lam = 1.0, 3.0
        d = math.sqrt(lam * lam - 2 * g0 * lam)
        s = JcLorentzianScalar(g0, lam)
        for t in (0.0, 0.5, 2.0, 5.0):
            ref = (
                2 * g0 * lam * math.sinh(d * t / 2)
                / (d * math.cosh(d * t / 2) + lam * math.sinh(d * t / 2))
                if t > 0
                else 0.0
            )
            assert s(t) == pytest.approx(ref, abs=1e-14)

    def test_jc_strong_coupling_matches_trig_formula(self):
        g0, lam = 1.0, 0.5
        om = math.sqrt(2 * g0 * lam - lam * lam)
        s = JcLorentzianScalar(g0, lam)
        for t in (0.5, 2.0, 4.0):
            x = om * t / 2
            ref = 2 * g0 * lam * math.sin(x) / (om * math.cos(x) + lam * math.sin(x))
            assert s(t) == pytest.approx(ref, abs=1e-13)

    def test_jc_critical_damping_limit(self):
        s = JcLorentzianScalar(1.0, 2.0)
        for t in (0.0, 0.3, 1.7):
            assert s(t) == pytest.approx(2.0 * t / (1.0 + t), abs=1e-12)

    def test_jc_pole_raises(self):
        # strong coupling: denominator crosses zero near t = 4.84
        s = JcLorentzianScalar(1.0, 0.5)
        om = math.sqrt(2 * 1.0 * 0.5 - 0.25)
        t_pole = 2.0 * (math.pi - math.atan(om / 0.5)) / om
        with pytest.raises(ScalarPoleError):
            s(t_pole)

    def test_pole_scan_catches_crossing_between_samples(self):
        s = JcLorentzianScalar(1.0, 0.5)
        with pytest.raises(ScalarPoleError):
            scan_scalar_poles(s, np.arange(0, 5.001, 1e-3))
        scan_scalar_poles(s, np.arange(0, 3.0, 1e-3))  # pole-free prefix passes
        scan_scalar_poles(JcLorentzianScalar(1.0, 3.0), np.arange(0, 10.0, 1e-2))

    @pytest.mark.parametrize(
        "g0, lam, t_end",
        [
            (1.0, 3.0, 5.0),  # ad-jc
            # strong coupling, up to 4.5: past that the denominator's
            # cancellation near the pole at 4.84 magnifies last-bit differences
            (1.0, 0.5, 4.5),
        ],
    )
    def test_jc_vectorised_values_match_scalar_form(self, g0, lam, t_end):
        s = JcLorentzianScalar(g0, lam)
        grid = np.arange(int(round(t_end / 1e-3)) + 1) * 1e-3
        times = np.sort(np.r_[grid, grid[:-1] + 0.5e-3])  # the RK4 half grid
        values = scalar_values(s, times, 0.0)
        ref = np.array([s(t) for t in times.tolist()])
        assert np.all(np.abs(values - ref) <= 1e-15 * np.abs(ref))
        den = _jc_pieces(s, times)[1].real
        ref_den = np.array([s.denominator(t) for t in times.tolist()])
        assert np.all(np.abs(den - ref_den) <= 1e-15 * np.abs(ref_den))

    def test_jc_vectorised_falls_back_to_the_scalar_errors(self):
        s = JcLorentzianScalar(1.0, 0.5)
        om = math.sqrt(2 * 1.0 * 0.5 - 0.25)
        t_pole = 2.0 * (math.pi - math.atan(om / 0.5)) / om
        times = np.r_[np.arange(0.0, 4.8, 1e-3), t_pole, t_pole + 1e-3]
        with pytest.raises(ScalarPoleError) as err:
            s(t_pole)
        with pytest.raises(ScalarPoleError) as vec_err:
            scalar_values(s, times, 0.0)
        assert str(vec_err.value) == str(err.value) and vec_err.value.t == t_pole
        with pytest.raises(OverflowError):  # cmath.sinh and cosh overflow at t = 2000
            scalar_values(JcLorentzianScalar(1.0, 3.0), np.array([1.0, 2000.0]), 0.0)
        with pytest.raises(OverflowError):
            scan_scalar_poles(JcLorentzianScalar(1.0, 3.0), np.array([1.0, 2000.0]))

    def test_theta_scaled(self):
        g = ThetaScaledScalar(SinusoidalScalar(1.0, 0.5, 2.0))
        assert g(0.3, theta=2.0) == pytest.approx(2.0 * (1.0 + 0.5 * math.sin(0.6)))

    def test_zero_detection(self):
        assert scalar_is_zero(ConstantScalar(0.0))
        assert not scalar_is_zero(ConstantScalar(1e-30))
        assert scalar_is_zero(SinusoidalScalar(0.0, 1.0, 2.0))
        assert scalar_is_zero(ThetaScaledScalar(ConstantScalar(0.0)))
        assert not scalar_is_zero(ThetaScaledScalar(ConstantScalar(1.0)))

    def test_config_round_trip(self):
        forms = [
            ConstantScalar(0.25),
            SinusoidalScalar(1.0, 1.5, 2.0, 0.1),
            JcLorentzianScalar(1.0, 3.0),
            ThetaScaledScalar(SinusoidalScalar(0.2, 0.5, 2.0, 0.0)),
        ]
        for s in forms:
            assert scalar_from_config(scalar_to_config(s)) == s

    def test_config_errors(self):
        with pytest.raises(ValueError, match="unknown scalar form"):
            scalar_from_config({"form": "sawtooth"})
        with pytest.raises(ValueError, match="missing key"):
            scalar_from_config({"form": "sinusoidal", "c0": 1.0})
        with pytest.raises(ValueError, match="unknown key"):
            scalar_from_config({"form": "constant", "c": 1.0, "x": 2})
        with pytest.raises(ValueError, match="theta-independent"):
            scalar_from_config(
                {"form": "theta_scaled", "base": {"form": "theta_scaled", "base": 1.0}}
            )


def _bare_damping_model(gamma):
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
        rho0_family=FixedRyStateFamily(angle=math.pi),
        theta=0.0,
    )


class TestApplyGenerator:
    def test_commuting_hamiltonian_gives_zero(self):
        m = ModelSpec(
            dim=2,
            H=constant_operator(SIGMA_Z),
            dH_dtheta=zero_operator(2),
            channels=(),
            rho0_family=RyStateFamily(),
            theta=0.0,
        )
        npt.assert_allclose(apply_generator(m, 0.0, 0.0, IDENTITY_2 / 2), 0, atol=1e-15)

    def test_amplitude_damping_on_excited_state(self):
        out = apply_generator(_bare_damping_model(1.0), 0.0, 0.0, EXCITED)
        npt.assert_allclose(out, np.diag([1.0, -1.0]), atol=1e-15)

    def test_negative_rate_flips_sign(self):
        out = apply_generator(_bare_damping_model(-1.0), 0.0, 0.0, EXCITED)
        npt.assert_allclose(out, np.diag([-1.0, 1.0]), atol=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            apply_generator(_bare_damping_model(1.0), 0.0, 0.0, np.eye(3, dtype=complex))

    def test_hermiticity_and_trace_preservation(self):
        rng = np.random.default_rng(11)
        for model in all_builtins():
            for _ in range(20):
                g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
                rho = hermitize(g)
                out = apply_generator(model, model.theta, 0.37, rho)
                scale = max(1.0, float(np.max(np.abs(rho))))
                assert hermiticity_defect(out) <= 1e-12 * scale
                assert abs(np.trace(out)) <= 1e-12 * scale

    def test_linearity(self):
        rng = np.random.default_rng(12)
        model = builtin_model("ad-nm")
        r1 = hermitize(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        r2 = hermitize(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        a, b = 0.7, -1.3
        lhs = apply_generator(model, model.theta, 0.5, a * r1 + b * r2)
        rhs = a * apply_generator(model, model.theta, 0.5, r1) + b * apply_generator(
            model, model.theta, 0.5, r2
        )
        npt.assert_allclose(lhs, rhs, atol=1e-12 * max(1.0, float(np.max(np.abs(lhs)))))


class TestGeneratorThetaDerivative:
    def test_fully_theta_independent_is_zero(self):
        m = _bare_damping_model(1.0)
        out = apply_generator_theta_derivative(m, 0.0, 0.0, PLUS, np.zeros((2, 2)))
        npt.assert_allclose(out, 0, atol=1e-15)

    def test_state_derivative_only(self):
        # H=0, gamma=1, A=sigma_minus, theta-independent; drho = sigma_y/2
        m = _bare_damping_model(1.0)
        rho = np.diag([0.3, 0.7]).astype(complex)
        out = apply_generator_theta_derivative(m, 0.0, 0.0, rho, SIGMA_Y / 2)
        npt.assert_allclose(out, -SIGMA_Y / 4, atol=1e-15)

    def test_hamiltonian_derivative_only(self):
        m = ModelSpec(
            dim=2,
            H=modulated_operator(0.5 * SIGMA_Z, ThetaScaledScalar(ConstantScalar(1.0))),
            dH_dtheta=constant_operator(0.5 * SIGMA_Z),
            channels=(),
            rho0_family=FixedRyStateFamily(angle=math.pi / 2),
            theta=0.0,
        )
        out = apply_generator_theta_derivative(m, 0.0, 0.0, PLUS, np.zeros((2, 2)))
        npt.assert_allclose(out, SIGMA_Y / 2, atol=1e-15)

    @pytest.mark.parametrize("delta", [1e-3, 1e-4])
    def test_matches_finite_difference_of_chain(self, delta):
        # FD of theta -> K(theta) rho0(theta) vs the product-rule evaluation
        for model in all_builtins():
            theta = model.theta
            fam = model.rho0_family
            for t in (0.0, 0.4, 1.3):
                fd = (
                    apply_generator(model, theta + delta, t, fam.rho0(theta + delta))
                    - apply_generator(model, theta - delta, t, fam.rho0(theta - delta))
                ) / (2 * delta)
                direct = apply_generator_theta_derivative(
                    model, theta, t, fam.rho0(theta), fam.drho0_dtheta(theta)
                )
                assert np.max(np.abs(fd - direct)) <= 10 * delta * delta

    def test_derivative_output_hermitian_traceless(self):
        rng = np.random.default_rng(13)
        for model in all_builtins():
            rho = hermitize(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
            sig = hermitize(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
            sig -= 0.5 * np.trace(sig) * np.eye(2)
            out = apply_generator_theta_derivative(model, model.theta, 0.9, rho, sig)
            scale = max(1.0, float(np.max(np.abs(out))))
            assert hermiticity_defect(out) <= 1e-12 * scale
            assert abs(np.trace(out)) <= 1e-12 * scale


class TestCompiledGenerator:
    @settings(max_examples=80, deadline=None)
    @given(models(), real(1.0), st.floats(0.0, 3.0), st.integers(0, 2**32 - 1))
    def test_matches_reference_loops(self, model, theta, t, seed):
        rng = np.random.default_rng(seed)
        d = model.dim
        rho = hermitize(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
        sig = hermitize(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
        for got, ref in (
            (apply_generator(model, theta, t, rho), reference_generator(model, theta, t, rho)),
            (
                apply_generator_theta_derivative(model, theta, t, rho, sig),
                reference_generator_theta_derivative(model, theta, t, rho, sig),
            ),
        ):
            scale = max(1.0, float(np.max(np.abs(ref))))
            assert float(np.max(np.abs(got - ref))) <= 1e-12 * scale

    @settings(max_examples=30, deadline=None)
    @given(models(), st.booleans())
    def test_operators_block_fits_coefficient_bytes(self, model, derivative):
        # the (rho, drho_dtheta) pair of a run, or the theta +/- delta pair of the theta check
        thetas = (0.3,) if derivative else (0.3, 0.2)
        gen = compile_generator(model, derivative=derivative)
        times = np.linspace(0.0, 1.0, gen.times_per_block(len(thetas)))
        tracemalloc.start()
        try:
            gen.operators(times, thetas)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= COEFFICIENT_BYTES


class TestBuiltinModels:
    def test_registry(self):
        assert BUILTIN_MODEL_NAMES == ("ad-jc", "ad-nm", "phase-dephasing", "rate-estimation")

    def test_ad_nm_construction(self):
        m = builtin_model(
            "ad-nm", {"gamma0": 1, "a": 1.5, "omega": 2, "omega0": 1, "theta": math.pi / 4}
        )
        assert m.dH_dtheta.is_zero
        (ch,) = m.channels
        assert ch.label == "ad"
        assert scalar_is_zero(ch.dgamma_dtheta)
        assert ch.dA_dtheta.is_zero
        npt.assert_allclose(ch.A.evaluate(0.0), SIGMA_MINUS)
        assert ch.gamma(0.5) == pytest.approx(1.0 * (1 + 1.5 * math.sin(1.0)))
        npt.assert_allclose(m.H.evaluate(2.0, m.theta), 0.5 * SIGMA_Z)

    def test_phase_dephasing_construction(self):
        m = builtin_model("phase-dephasing", {"theta": 0.0, "gamma0": 0.0})
        assert m.channels == ()
        npt.assert_allclose(m.H.evaluate(1.0, theta=0.0), 0, atol=1e-15)
        npt.assert_allclose(m.dH_dtheta.evaluate(1.0, theta=0.0), 0.5 * SIGMA_Z)
        npt.assert_allclose(m.rho0_family.rho0(m.theta), PLUS, atol=1e-15)

    def test_rate_estimation_construction(self):
        m = builtin_model("rate-estimation", {"theta": 1.0, "g": 1.0})
        (ch,) = m.channels
        assert ch.dgamma_dtheta(3.0) == pytest.approx(1.0)
        assert ch.gamma(3.0, theta=1.0) == pytest.approx(1.0)
        assert ch.gamma(3.0, theta=2.5) == pytest.approx(2.5)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown model"):
            builtin_model("ou-process")

    def test_unknown_parameter(self):
        with pytest.raises(ValueError, match="unknown parameter"):
            builtin_model("ad-nm", {"gamma": 1.0})

    def test_invalid_parameter_value(self):
        with pytest.raises(ValueError, match="finite number"):
            builtin_model("ad-nm", {"gamma0": "one"})

    def test_all_builtins_validate(self):
        for model in all_builtins():
            validate_model(model)

    def test_validate_model_rejects_non_hermitian_hamiltonian(self):
        bad = ModelSpec(
            dim=2,
            H=constant_operator(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)),
            dH_dtheta=zero_operator(2),
            channels=(),
            rho0_family=RyStateFamily(),
            theta=0.1,
        )
        with pytest.raises(ValueError, match="not Hermitian"):
            validate_model(bad)


class TestThetaDependenceProbe:
    def test_ad_nm_independent(self):
        probes = probe_theta_dependence(builtin_model("ad-nm"), 0.7, (0.0, 1.0, 2.0))
        for probe in probes.values():
            assert probe.fd_magnitude == 0.0
            assert probe.declared_zero
            assert probe.defect <= 1e-12

    def test_phase_dephasing_hamiltonian_dependence(self):
        probes = probe_theta_dependence(builtin_model("phase-dephasing"), 0.3, (0.0, 1.0))
        assert probes["hamiltonian"].fd_magnitude == pytest.approx(0.5)
        assert not probes["hamiltonian"].declared_zero
        assert probes["hamiltonian"].defect <= 1e-10
        assert probes["decay_rates"].fd_magnitude == 0.0

    def test_rate_estimation_rate_dependence(self):
        probes = probe_theta_dependence(builtin_model("rate-estimation"), 1.0, (0.0, 1.0))
        assert probes["decay_rates"].fd_magnitude == pytest.approx(1.0)
        assert not probes["decay_rates"].declared_zero
        assert probes["decay_rates"].defect <= 1e-10
        assert probes["hamiltonian"].fd_magnitude == 0.0


class TestStateFamilies:
    def test_ry_rotation_takes_ground_to_excited(self):
        npt.assert_allclose(ry_rotation(math.pi)[:, 0], np.array([0.0, 1.0]), atol=1e-15)

    def test_ry_family_derivative_matches_finite_difference(self):
        fam = RyStateFamily()
        theta, d = 0.61, 1e-6
        fd = (fam.rho0(theta + d) - fam.rho0(theta - d)) / (2 * d)
        npt.assert_allclose(fam.drho0_dtheta(theta), fd, atol=1e-9)

    def test_fixed_family_is_theta_independent(self):
        fam = FixedRyStateFamily(angle=1.1)
        npt.assert_array_equal(fam.rho0(0.2), fam.rho0(5.0))
        npt.assert_array_equal(fam.drho0_dtheta(0.2), np.zeros((2, 2)))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DimensionMismatchError):
            ModelSpec(
                dim=3,
                H=zero_operator(3),
                dH_dtheta=zero_operator(3),
                channels=(),
                rho0_family=RyStateFamily(),
                theta=0.0,
            )
