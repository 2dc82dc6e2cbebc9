import cmath
import dataclasses
import math
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
import reference_generator as ref
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_generator import (
    apply_generator,
    apply_generator_theta_derivative,
    reference_generator,
    reference_generator_theta_derivative,
)
from strategies import models, real

from qfiflow.config import builtin_model, scalar_from_config, scalar_to_config
from qfiflow.model import (
    BUILTIN_MODEL_NAMES,
    Channel,
    ConstantScalar,
    FixedRyStateFamily,
    JcLorentzianScalar,
    LinearStateFamily,
    ModelSpec,
    OperatorTerm,
    RyStateFamily,
    ScalarPoleError,
    SinusoidalScalar,
    ThetaScaledScalar,
    TimeDependentOperator,
    _jc_pieces,
    compile_generator,
    constant_operator,
    modulated_operator,
    probe_theta_dependence,
    ry_rotation,
    scalar_is_zero,
    scalar_values,
    theta_slope,
    zero_operator,
)
from qfiflow.operators import (
    IDENTITY_2,
    SIGMA_MINUS,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    DimensionMismatchError,
    ModelError,
    hermitize,
    hermiticity_defect,
)
from qfiflow.propagation import COEFFICIENT_BYTES, propagate

EXCITED = np.diag([0.0, 1.0]).astype(complex)
PLUS = 0.5 * (IDENTITY_2 + SIGMA_X)


def all_builtins():
    return [builtin_model(name) for name in BUILTIN_MODEL_NAMES]


def values(s, times, theta=0.0):
    """scalar_values of s at a sequence of times, as floats."""
    return np.broadcast_to(scalar_values(s, np.array(times, dtype=float), theta), len(times)).tolist()


class TestScalars:
    def test_constant(self):
        assert values(ConstantScalar(2.5), [0.0]) == [2.5]
        assert values(ConstantScalar(2.5), [17.3], theta=4.0) == [2.5]

    def test_sinusoidal(self):
        s = SinusoidalScalar(c0=1.0, a=1.5, omega=2.0, phi=0.3)
        ts = (0.0, 0.7, 3.1)
        for t, v in zip(ts, values(s, ts)):
            assert v == pytest.approx(1.0 * (1.0 + 1.5 * math.sin(2.0 * t + 0.3)))

    def test_jc_weak_coupling_matches_real_root_formula(self):
        g0, lam = 1.0, 3.0
        d = math.sqrt(lam * lam - 2 * g0 * lam)
        s = JcLorentzianScalar(g0, lam)
        ts = (0.0, 0.5, 2.0, 5.0)
        for t, v in zip(ts, values(s, ts)):
            expected = (
                2 * g0 * lam * math.sinh(d * t / 2)
                / (d * math.cosh(d * t / 2) + lam * math.sinh(d * t / 2))
                if t > 0
                else 0.0
            )
            assert v == pytest.approx(expected, abs=1e-14)

    def test_jc_strong_coupling_matches_trig_formula(self):
        g0, lam = 1.0, 0.5
        om = math.sqrt(2 * g0 * lam - lam * lam)
        s = JcLorentzianScalar(g0, lam)
        ts = (0.5, 2.0, 4.0)
        for t, v in zip(ts, values(s, ts)):
            x = om * t / 2
            expected = 2 * g0 * lam * math.sin(x) / (om * math.cos(x) + lam * math.sin(x))
            assert v == pytest.approx(expected, abs=1e-13)

    def test_jc_critical_damping_limit(self):
        s = JcLorentzianScalar(1.0, 2.0)
        ts = (0.0, 0.3, 1.7)
        for t, v in zip(ts, values(s, ts)):
            assert v == pytest.approx(2.0 * t / (1.0 + t), abs=1e-12)

    def test_jc_pole_raises(self):
        # strong coupling: denominator crosses zero near t = 4.84
        s = JcLorentzianScalar(1.0, 0.5)
        om = math.sqrt(2 * 1.0 * 0.5 - 0.25)
        t_pole = 2.0 * (math.pi - math.atan(om / 0.5)) / om
        with pytest.raises(ScalarPoleError):
            values(s, [t_pole])

    @pytest.mark.parametrize(
        "g0, lam, times",
        [
            (1.0, 0.5, np.arange(5001) * 1e-3),  # a pole between samples near t = 4.837
            (1.0, 0.5, np.arange(4801) * 1e-3),  # pole-free
            (2.0, 0.3, np.arange(1001) * 1e-2),
            (1.0, 3.0, np.arange(90001) * 1e-2),  # past t = 820.39, where float64 cosh overflows
            (0.7, 5.0, np.arange(1001) * 0.5),  # to d t/2 = 1061
            (1.0, 2.0, np.arange(1001) * 1e-2),  # critically damped
            (-0.25, -1.0, np.arange(5001) * 1e-3),  # real d, lam < 0 < gamma0 lam: a pole near t = 2.493
            (-0.5, -1.0, np.arange(5001) * 1e-3),  # d = 0: a pole at t = -2/lam = 2
            (0.0, -2.76, np.arange(2001) * 1e-2),  # structurally zero, also where 1 - tanh(d t/2) rounds to 0
            (0.3, -2.0, np.arange(1001) * 1e-2),  # real d, lam < 0 and gamma0 lam < 0: no pole
            # lam^2 - 2 gamma0 lam = -1e400 overflows float64: a pole at t = pi/2 1e-200
            (-1e200, -1e200, np.arange(5001) * 1e-203),
        ],
    )
    def test_pole_scan_matches_the_per_point_reference(self, g0, lam, times):
        # the first pole t* lies within one step below the reference scan's first flagged
        # time, and a form raises, bare or theta-scaled, exactly when its times reach t*
        s = JcLorentzianScalar(g0, lam)
        t_star = s.first_pole
        try:
            ref.scan_poles(s, times)
            flagged = math.inf
        except ScalarPoleError as exc:
            flagged = exc.t
        if scalar_is_zero(s):  # the reference's 1e-9 test flags 1 - tanh(d t/2) on a form that is 0
            assert t_star == math.inf and np.all(scalar_values(s, times, 0.0) == 0.0)
            return
        if flagged == math.inf:
            assert t_star > times[-1]
        else:
            assert flagged - (times[1] - times[0]) <= t_star <= flagged
        for form in (s, ThetaScaledScalar(s)):
            if times[-1] < t_star:
                assert np.all(np.isfinite(scalar_values(form, times, 2.0)))
                continue
            with pytest.raises(ScalarPoleError) as err:
                scalar_values(form, times, 2.0)
            assert err.value.t == t_star
            assert str(err.value) == f"run interval contains a pole of the lorentzian rate near t={t_star:.4g}"

    def test_imaginary_root_pole_messages_are_pinned(self):
        # the first pole rounded to 4 digits, as the CLI prints it and the CI greps it
        for g0, lam, times, near in ((1.0, 0.5, np.arange(5001) * 1e-3, "4.837"), (2.0, 0.3, np.arange(1001) * 1e-2, "3.508")):
            s = JcLorentzianScalar(g0, lam)
            for form in (s, ThetaScaledScalar(s)):
                with pytest.raises(ScalarPoleError) as err:
                    scalar_values(form, times, 0.3)
                assert str(err.value) == f"run interval contains a pole of the lorentzian rate near t={near}"
                assert err.value.t == s.first_pole

    @pytest.mark.parametrize("g0, lam", [(1.0, 3.0), (0.3, 5.0), (0.7, 5.0)])
    def test_real_root_rate_is_finite_at_its_limit(self, g0, lam):
        # Past d t/2 = 19.1 tanh rounds to 1, so h = (t/2)/(d t/2) and the rate
        # 2 gamma0 lam h/(1 + lam h) is within e^(-d t) of its limit
        # 2 gamma0 lam/(d + lam).  Bound, derived before measuring, with
        # u = 2^-53: d carries the cancellation of lam^2 - 2 gamma0 lam
        # (condition at most 5 for these parameters, so 6 u) halved by the root,
        # plus the root's own rounding: 4 u.  h adds two roundings, and the rate,
        # whose condition in h is below 1, five more: 11 u.  The reference limit
        # takes no more, so the two differ by at most 22 u; the bound is 32 u.
        d = math.sqrt(lam * lam - 2.0 * g0 * lam)
        limit = 2.0 * g0 * lam / (d + lam)
        times = np.array([820.0, 820.39, 2000.0, 1e4, 1e6])
        rate = scalar_values(JcLorentzianScalar(g0, lam), times, 0.0)
        assert np.all(np.abs(rate - limit) <= 32 * 2.0**-53 * limit)

    @pytest.mark.parametrize("g0, lam", [(1.0, 3.0), (0.7, 5.0)])
    def test_real_root_rate_matches_the_extended_reference_at_long_times(self, g0, lam):
        # The reference evaluates the unscaled closed form in np.clongdouble, which
        # reaches d t/2 = 10607 at t = 5000 for (0.7, 5).  Bound, derived before
        # measuring, with u = 2^-53: the library's rate is within 11 u of the exact
        # one (see test_real_root_rate_is_finite_at_its_limit), the reference within
        # 20 long-double units (under 0.01 u) before it is rounded to float64 (0.5 u):
        # 12 u in all.
        s = JcLorentzianScalar(g0, lam)
        times = np.r_[820.0, 820.39, np.arange(830.0, 5001.0, 10.0)]
        rate = scalar_values(s, times, 0.0)
        expected = np.array([ref.scalar(s, t) for t in times.tolist()])
        assert np.all(np.abs(rate - expected) <= 12 * 2.0**-53 * expected)

    def test_pole_scan_catches_crossing_between_samples(self):
        # exact: times that reach t*, on a sample or past it, raise; one ulp below t* does not
        s = JcLorentzianScalar(1.0, 0.5)
        t_star = s.first_pole
        for form in (s, ThetaScaledScalar(s)):
            for times in (np.arange(0, 5.001, 1e-3), np.array([0.0, t_star])):
                with pytest.raises(ScalarPoleError):
                    scalar_values(form, times, 1.0)
            scalar_values(form, np.array([0.0, np.nextafter(t_star, 0.0)]), 1.0)
            scalar_values(form, np.arange(0, 3.0, 1e-3), 1.0)  # pole-free prefix passes
        assert JcLorentzianScalar(1.0, 3.0).first_pole == math.inf

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
        got = scalar_values(s, times, 0.0)
        # the per-point form in the library's own precision: near the pole the
        # cancellation magnifies float64 rounding beyond 1e-15 of the exact rate
        expected = np.array([ref.scalar(s, t, dtype=complex) for t in times.tolist()])
        assert np.all(np.abs(got - expected) <= 1e-15 * np.abs(expected))
        den = _jc_pieces(s, times)[1].real
        d = cmath.sqrt(lam * lam - 2.0 * g0 * lam)
        scale = np.ones_like(times) if d.imag else np.cosh(0.5 * d.real * times)  # real d: divided by cosh(d t/2)
        ref_den = np.array([ref.jc_denominator(s, t, complex) for t in times.tolist()]) / scale
        assert np.all(np.abs(den - ref_den) <= 1e-15 * np.abs(ref_den))

    def test_jc_vectorised_falls_back_to_the_scalar_errors(self):
        # t* within a few ulps of the closed forms written apart from the library's atan2 and
        # atanh, and a time the per-point form refuses (float64 denominator below 1e-9)
        for g0, lam in ((1.0, 0.5), (2.0, 0.3), (1.0, 1.999), (-1.0, -0.5), (-0.25, -1.0), (-1.0, -3.0), (-0.5, -1.0)):
            s = JcLorentzianScalar(g0, lam)
            d2 = lam * lam - 2.0 * g0 * lam
            if d2 < 0.0:
                om = math.sqrt(-d2)
                expected = (math.pi + 2.0 * math.atan(lam / om)) / om
            elif d2 > 0.0:
                d = math.sqrt(d2)
                expected = math.log((lam - d) / (lam + d)) / d
            else:
                expected = -2.0 / lam
            assert abs(s.first_pole - expected) <= 4 * np.spacing(expected)
            with pytest.raises(ScalarPoleError):
                ref.scalar(s, s.first_pole, dtype=complex)
            with pytest.raises(ScalarPoleError) as err:
                scalar_values(s, np.r_[np.arange(0.0, 1.0, 1e-3), s.first_pole], 0.0)
            assert err.value.t == s.first_pole
        # a real-root rate of lam > 0 has no pole, and stays finite where sinh and cosh overflow (t = 2000)
        assert np.all(np.isfinite(scalar_values(JcLorentzianScalar(1.0, 3.0), np.array([1.0, 2000.0]), 0.0)))
        assert JcLorentzianScalar(1.0, 3.0).first_pole == math.inf

    def test_theta_scaled(self):
        g = ThetaScaledScalar(SinusoidalScalar(1.0, 0.5, 2.0))
        assert values(g, [0.3], theta=2.0) == [pytest.approx(2.0 * (1.0 + 0.5 * math.sin(0.6)))]

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
        # Hermiticity by structure: H gaining f B and f B† is built, H gaining f (B - B†) is not
        b, f = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)), SinusoidalScalar(1.0, 0.5, 7.0)

        def gaining(*bases):
            terms = model.H.terms + tuple(OperatorTerm(x, f) for x in bases)
            return dataclasses.replace(model, H=TimeDependentOperator(d, terms))

        gaining(b, b.conj().T)
        with pytest.raises(ModelError, match="^H not Hermitian"):
            gaining(b - b.conj().T)

    @settings(max_examples=30, deadline=None)
    @given(models(), st.booleans())
    def test_operators_block_fits_coefficient_bytes(self, model, derivative):
        # the (rho, drho_dtheta) pair of a run, or the theta +/- delta pair of the theta check
        thetas = (0.3,) if derivative else (0.3, 0.2)
        gen = compile_generator(model, derivative=derivative)
        times = np.linspace(0.0, 1.0, max(1, COEFFICIENT_BYTES // gen.bytes_per_time(len(thetas))))
        tracemalloc.start()
        try:
            gen.operators(times, thetas)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= COEFFICIENT_BYTES


    def test_terms_on_one_base_compile_as_one_with_their_modulations_summed(self):
        def damping(*modulations):
            A = TimeDependentOperator(2, tuple(OperatorTerm(SIGMA_MINUS, m) for m in modulations))
            channel = Channel("ad", A, ConstantScalar(1.0), zero_operator(2), ConstantScalar(0.0))
            return ModelSpec(2, constant_operator(0.5 * SIGMA_Z), zero_operator(2), (channel,), RyStateFamily(), 0.3)

        one = compile_generator(damping(ConstantScalar(1.0)))
        two = compile_generator(damping(ConstantScalar(0.75), ConstantScalar(0.25)))
        times = np.linspace(0.0, 1.0, 5)
        assert len(two.jumps) == len(one.jumps) and len(two.factors[0][0]) == len(one.factors[0][0])
        npt.assert_array_equal(two.operators(times, (0.3,)), one.operators(times, (0.3,)))
        # a pole of one summand is still found where the run evaluates their sum
        with pytest.raises(ScalarPoleError, match="near t=4.837"):
            propagate(damping(JcLorentzianScalar(1.0, 0.5), ConstantScalar(0.1)), 0.3, 5.0, 1e-3)


class TestEvaluateMany:
    @staticmethod
    def _operator(d, rng):
        terms = []
        for form in (SinusoidalScalar(1.0, 0.5, 2.0), ConstantScalar(0.3), ConstantScalar(np.inf)):
            base = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            base.real[0], base.imag[-1] = 0.0, 0.0
            terms.append(OperatorTerm(base, form))
        return TimeDependentOperator(d, tuple(terms))

    def test_terms_add_as_their_complex_products(self):
        # the sum of each term's complex product values x base, bit for bit, also
        # where a value is infinite and meets a zero part of its base
        rng = np.random.default_rng(5)
        op, times = self._operator(3, rng), rng.uniform(0.0, 5.0, 40)
        want = np.zeros((len(times), 3, 3), dtype=complex)
        with np.errstate(invalid="ignore"):
            for term in op.terms:
                want += np.multiply.outer(scalar_values(term.modulation, times, 0.0), term.base)
            got = op.evaluate_many(times)
        assert got.tobytes() == want.tobytes()

    def test_peak_is_a_bounded_multiple_of_the_result(self):
        # Bound, derived before measuring: the result, 16 n d^2 bytes; one real
        # part of a term's product, 8 n d^2, freed before the next; a modulation's
        # values and the sinusoidal form's temporaries, at most 4 arrays of n
        # reals; and the buffers of one ufunc on the strided real or imaginary
        # part of the result, 3 operands of np.getbufsize() reals.  A complex
        # product per term, cast through those buffers, took 2.3 times the result.
        n, d = 4096, 4
        op, times = self._operator(d, np.random.default_rng(6)), np.linspace(0.0, 5.0, n)
        bound = 16 * n * d * d + 8 * n * d * d + 4 * 8 * n + 3 * 8 * np.getbufsize()
        tracemalloc.start()
        try:
            with np.errstate(invalid="ignore"):
                op.evaluate_many(times)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound < 2 * 16 * n * d * d


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
        npt.assert_allclose(ch.A.evaluate_many(np.array([0.0])), [SIGMA_MINUS])
        assert values(ch.gamma, [0.5]) == [pytest.approx(1.0 * (1 + 1.5 * math.sin(1.0)))]
        npt.assert_allclose(m.H.evaluate_many(np.array([2.0]), m.theta), [0.5 * SIGMA_Z])

    def test_phase_dephasing_construction(self):
        m = builtin_model("phase-dephasing", {"theta": 0.0, "gamma0": 0.0})
        assert m.channels == ()
        npt.assert_allclose(m.H.evaluate_many(np.array([1.0]), theta=0.0), 0, atol=1e-15)
        npt.assert_allclose(m.dH_dtheta.evaluate_many(np.array([1.0]), theta=0.0), [0.5 * SIGMA_Z])
        npt.assert_allclose(m.rho0_family.rho0(m.theta), PLUS, atol=1e-15)

    def test_rate_estimation_construction(self):
        m = builtin_model("rate-estimation", {"theta": 1.0, "g": 1.0})
        (ch,) = m.channels
        assert values(ch.dgamma_dtheta, [3.0]) == [pytest.approx(1.0)]
        assert values(ch.gamma, [3.0], theta=1.0) == [pytest.approx(1.0)]
        assert values(ch.gamma, [3.0], theta=2.5) == [pytest.approx(2.5)]

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown model"):
            builtin_model("ou-process")

    def test_unknown_parameter(self):
        with pytest.raises(ValueError, match="unknown parameter"):
            builtin_model("ad-nm", {"gamma": 1.0})

    def test_invalid_parameter_value(self):
        with pytest.raises(ValueError, match="finite number"):
            builtin_model("ad-nm", {"gamma0": "one"})

    def test_all_builtins_pass_the_construction_checks(self):
        # the initial-state derivative is checked at the model's theta: each family's at several
        for name in BUILTIN_MODEL_NAMES:
            for theta in (-2.0, 0.0, 1.3):
                assert builtin_model(name, {"theta": theta}).theta == theta

    def test_non_hermitian_hamiltonian_rejected_at_construction(self):
        with pytest.raises(ModelError, match=r"^H not Hermitian: defect 1\.000e\+00") as err:
            ModelSpec(
                dim=2,
                H=constant_operator(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)),
                dH_dtheta=zero_operator(2),
                channels=(),
                rho0_family=RyStateFamily(),
                theta=0.1,
            )
        assert err.value.pointer == "/hamiltonian"

    def test_construction_checks_ingredients_not_states(self):
        # an off-trace rho0 is the density gate's at t = 0 (see test_cli); the
        # initial-state derivative, which no gate sees, must still be traceless
        rho0 = np.diag([1.0, 0.2]).astype(complex)
        off_trace = ModelSpec(
            dim=2,
            H=constant_operator(0.5 * SIGMA_Z),
            dH_dtheta=zero_operator(2),
            channels=(),
            rho0_family=LinearStateFamily(rho0, 0.5 * SIGMA_X, 0.0),
            theta=0.0,
        )
        with pytest.raises(ModelError, match="not traceless"):
            dataclasses.replace(off_trace, rho0_family=LinearStateFamily(rho0, SIGMA_Z + IDENTITY_2, 0.0))
        with pytest.raises(ModelError, match="not Hermitian") as err:
            dataclasses.replace(off_trace, rho0_family=LinearStateFamily(rho0, SIGMA_MINUS, 0.0))
        assert err.value.pointer == "/rho0_family/drho0_dtheta"
        with pytest.raises(ModelError, match="^H not Hermitian"):
            dataclasses.replace(off_trace, H=constant_operator(SIGMA_MINUS))
        with pytest.raises(ModelError, match="^dH_dtheta not Hermitian") as err:
            dataclasses.replace(off_trace, dH_dtheta=constant_operator(SIGMA_MINUS))
        assert err.value.pointer == "/dH_dtheta"
        with pytest.raises(DimensionMismatchError, match=r"^drho0_dtheta has shape \(3, 3\), expected \(2, 2\)$"):
            LinearStateFamily(rho0, np.eye(3), 0.0)

    def test_hermiticity_is_decided_per_modulation_not_per_term(self):
        # f (X + iY) + f (X - iY) = 2 f X, and 2 |0><1| + 1 (2 |1><0|) = 2 X: Hermitian
        # though no term is; with two modulations the anti-Hermitian parts no longer cancel
        f, g = SinusoidalScalar(1.0, 0.5, 2.0), SinusoidalScalar(1.0, 0.5, 3.0)
        raising, lowering = SIGMA_X + 1j * SIGMA_Y, SIGMA_X - 1j * SIGMA_Y

        def model(*terms):
            return ModelSpec(2, TimeDependentOperator(2, terms), zero_operator(2), (), RyStateFamily(), 0.3)

        model(OperatorTerm(raising, f), OperatorTerm(lowering, f))
        model(OperatorTerm(0.5 * raising, ConstantScalar(2.0)), OperatorTerm(lowering, ConstantScalar(1.0)))
        model(OperatorTerm(raising, ConstantScalar(0.0)), OperatorTerm(raising, SinusoidalScalar(0.0, 1.0, 1.0)))
        for terms in ((raising, f), (lowering, g)), ((raising, f), (lowering, ConstantScalar(1.0))):
            with pytest.raises(ModelError, match=r"^H not Hermitian: defect 2\.000e\+00 on its terms modulated by "):
                model(*(OperatorTerm(b, m) for b, m in terms))


def _declared_from_forms(model: ModelSpec) -> ModelSpec:
    """The model with every theta-derivative declared from its forms: a rate or a
    term's modulation theta f declares f, any other declares nothing."""

    def slope(s):
        return s.base if isinstance(s, ThetaScaledScalar) else ConstantScalar(0.0)

    def d_op(op):
        terms = (t for t in op.terms if isinstance(t.modulation, ThetaScaledScalar))
        return TimeDependentOperator(op.dim, tuple(OperatorTerm(t.base, t.modulation.base) for t in terms))

    channels = [dataclasses.replace(ch, dA_dtheta=d_op(ch.A), dgamma_dtheta=slope(ch.gamma)) for ch in model.channels]
    return dataclasses.replace(model, dH_dtheta=d_op(model.H), channels=tuple(channels))


def _grid(n: int, dt: float) -> np.ndarray:
    return np.arange(n + 1) * dt


class TestThetaDependenceProbe:
    def test_slope_of_each_form(self):
        g = SinusoidalScalar(0.5, 0.3, 2.0)
        assert theta_slope(ThetaScaledScalar(g)) == g
        for s in (ConstantScalar(2.0), g, JcLorentzianScalar(1.0, 3.0)):
            assert scalar_is_zero(theta_slope(s))
        op = TimeDependentOperator(2, (OperatorTerm(SIGMA_X, g), OperatorTerm(SIGMA_Z, ThetaScaledScalar(g))))
        (term,) = theta_slope(op).terms
        assert term.base is SIGMA_Z and term.modulation == g

    def test_ad_nm_independent(self):
        probes = probe_theta_dependence(builtin_model("ad-nm"), 0.7, _grid(2000, 1e-3), 1e-3)
        for probe in probes.values():
            assert probe.magnitude == 0.0 and probe.holds
            assert probe.defect == 0.0 and probe.consistent

    def test_phase_dephasing_hamiltonian_dependence(self):
        probes = probe_theta_dependence(builtin_model("phase-dephasing"), 0.3, _grid(1000, 1e-3), 1e-3)
        assert probes["hamiltonian"].magnitude == 0.5
        assert not probes["hamiltonian"].holds
        assert probes["hamiltonian"].defect == 0.0
        assert probes["decay_rates"].magnitude == 0.0

    def test_rate_estimation_rate_dependence(self):
        probes = probe_theta_dependence(builtin_model("rate-estimation"), 1.0, _grid(1000, 1e-3), 1e-3)
        assert probes["decay_rates"].magnitude == 1.0
        assert not probes["decay_rates"].holds
        assert probes["decay_rates"].defect == 0.0
        assert probes["hamiltonian"].magnitude == 0.0

    @settings(max_examples=150, deadline=None)
    @given(models(), real(1.0), st.integers(1, 6), st.floats(0.01, 0.5))
    def test_matches_per_point_reference(self, model, theta, n, dt):
        # The library's exact slope against the reference's central difference of the
        # same closed forms, at the grid points and step midpoints.  An entry of a
        # models() draw sums at most 3 terms, a modulation of modulus at most 6 (times
        # |theta +/- delta| <= 1 + delta where theta-scaled) on a matrix part of modulus
        # at most 2.  In f(theta +/- delta) each term rounds at most three times (theta
        # +/- delta, its product with the modulation, the product with the matrix), at
        # most 12.01 u each (u = 2**-53), and the sum twice, at most 24.01 u and 36.01 u:
        # 168.1 u per real part of each side.  The central difference divides the two
        # sides' errors by 2 delta = 2e-4: 2 * 168.1 u / 2e-4 = 1.87e-10 per real part,
        # 2.64e-10 in modulus.  math.sin against np.sin and the library's own sums add
        # below 1e-13, so magnitudes and defects agree within 3e-10.
        grid = _grid(n, dt)
        got = probe_theta_dependence(model, theta, grid, dt)
        expected = ref.probe_theta_dependence(model, theta, list(grid) + [t + 0.5 * dt for t in grid[:-1]])
        assert got.keys() == expected.keys()
        for key, (magnitude, defect) in expected.items():
            assert abs(got[key].magnitude - magnitude) <= 3e-10
            assert abs(got[key].defect - defect) <= 3e-10
        # the same draw with its declarations made right passes the defect check
        for probe in probe_theta_dependence(_declared_from_forms(model), theta, grid, dt).values():
            assert probe.defect <= probe.defect_tolerance

    @staticmethod
    def _peaked(d: int, t_peak: float, omega: float = 7.3) -> ModelSpec:
        """A d-level model whose A = theta (1 + sin(omega t + phi)) sigma_x (x) 1, dA_dtheta
        = sigma_x (x) 1: slope 2 and defect 1 at t_peak, smaller at every other time."""
        base = np.kron(SIGMA_X, np.eye(d // 2)).astype(complex)
        form = SinusoidalScalar(1.0, 1.0, omega, math.pi / 2 - omega * t_peak)
        channel = Channel("x", modulated_operator(base, ThetaScaledScalar(form)), ConstantScalar(0.5), constant_operator(base), ConstantScalar(0.0))
        return ModelSpec(d, zero_operator(d), zero_operator(d), (channel,), LinearStateFamily(np.eye(d) / d, np.zeros((d, d)), 0.0), 0.3)

    def test_reads_the_last_step_midpoint(self):
        # at d = 16 the 300 steps take many blocks; a probe that missed the last block,
        # or the step midpoints, would read at most cos(omega dt / 2) = 1 - 6.7e-4 there
        dt, n = 0.01, 300
        probe = probe_theta_dependence(self._peaked(16, n * dt - 0.5 * dt), 0.3, _grid(n, dt), dt)["lindblad_operators"]
        assert probe.magnitude == pytest.approx(2.0, abs=1e-12)
        assert probe.defect == pytest.approx(1.0, abs=1e-12)
        assert not probe.consistent

    def test_transient_memory_does_not_grow_with_the_run(self):
        dt = 1e-3
        model = self._peaked(16, 0.1)
        peaks = []
        for n in (250, 1000):
            grid = _grid(n, dt)
            tracemalloc.start()
            try:
                probe_theta_dependence(model, 0.3, grid, dt)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0] + 4096
        assert peaks[1] <= COEFFICIENT_BYTES // 2


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
