"""Hypothesis strategies for random GKSL models, shared by the model and flow tests."""

import dataclasses
import math

import numpy as np
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from qfiflow.model import (
    Channel,
    ConstantScalar,
    LinearStateFamily,
    ModelSpec,
    OperatorTerm,
    SinusoidalScalar,
    ThetaScaledScalar,
    TimeDependentOperator,
)
from qfiflow.operators import hermitize


def real(bound=2.0):
    return st.floats(-bound, bound, allow_nan=False, allow_infinity=False)


_untheta_scalars = st.one_of(
    st.just(ConstantScalar(0.0)),
    st.builds(ConstantScalar, real()),
    st.builds(SinusoidalScalar, real(), real(), st.floats(0.0, 5.0), st.floats(0.0, 6.3)),
)
_scalars = st.one_of(_untheta_scalars, st.builds(ThetaScaledScalar, _untheta_scalars))


def _matrices(d):
    elements = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)
    return hnp.arrays(np.complex128, (d, d), elements=elements)


@st.composite
def operators(draw, d, hermitian=False, min_terms=0, scalars=_scalars, unit_norm=False):
    """Up to 3 terms of a random matrix times a drawn modulation; with ``unit_norm``
    each matrix is scaled to spectral norm at most 1."""
    terms = []
    for _ in range(draw(st.integers(min_terms, 3))):
        base = draw(_matrices(d))
        base = hermitize(base) if hermitian else base
        if unit_norm:
            base = base / max(1.0, np.linalg.norm(base, 2))
        terms.append(OperatorTerm(base, draw(scalars)))
    return TimeDependentOperator(d, tuple(terms))


@st.composite
def _channel(draw, d, label):
    """A channel of one of three kinds: free draws of every field; A = f0 B0 +
    theta f1 B1 with dA_dtheta = f1 B1 on the same base B1; or theta-independent
    (theta-free rate, zero rate derivative, empty dA_dtheta)."""
    kind = draw(st.sampled_from(("free", "reused_base", "theta_free")))
    if kind == "free":
        return Channel(label, draw(operators(d, min_terms=1)), draw(_scalars), draw(operators(d)), draw(_scalars))
    if kind == "reused_base":
        b0, b1, f0, f1 = draw(_matrices(d)), draw(_matrices(d)), draw(_untheta_scalars), draw(_untheta_scalars)
        A = TimeDependentOperator(d, (OperatorTerm(b0, f0), OperatorTerm(b1, ThetaScaledScalar(f1))))
        dA = TimeDependentOperator(d, (OperatorTerm(b1, f1),))
        return Channel(label, A, draw(_scalars), dA, draw(_scalars))
    A = draw(operators(d, min_terms=1, scalars=_untheta_scalars))
    return Channel(label, A, draw(_untheta_scalars), TimeDependentOperator(d, ()), ConstantScalar(0.0))


@st.composite
def models(draw):
    """Random GKSL models: multi-term operators, several channels, rates of either
    sign, declared derivatives (not required to match the ingredients) and a
    random full-rank initial-state family.  Channels may reuse A's bases in
    dA_dtheta or be theta-independent (see ``_channel``), and the first base
    of the first channel's A may be shared by the second channel's A."""
    d = draw(st.integers(2, 4))
    channels = [draw(_channel(d, f"ch{i}")) for i in range(draw(st.integers(0, 3)))]
    if len(channels) >= 2 and draw(st.booleans()):
        first, terms = channels[0].A.terms[0], channels[1].A.terms
        shared = OperatorTerm(first.base, terms[0].modulation)
        channels[1] = dataclasses.replace(channels[1], A=TimeDependentOperator(d, (shared,) + terms[1:]))
    return ModelSpec(
        dim=d,
        H=draw(operators(d, hermitian=True)),
        dH_dtheta=draw(operators(d, hermitian=True)),
        channels=tuple(channels),
        rho0_family=draw(state_families(d)),
        theta=0.0,
    )


@st.composite
def state_families(draw, d):
    """A full-rank initial state at theta = 0 and a traceless Hermitian theta-slope."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T + 0.1 * np.eye(d)
    slope = hermitize(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    slope -= np.trace(slope) / d * np.eye(d)
    return LinearStateFamily(hermitize(rho / np.trace(rho)), 0.1 * slope, 0.0)


@st.composite
def rank_deficient_state_families(draw, d):
    """An initial state of rank 1 to d - 1, on the positivity boundary (its other
    eigenvalues are zero up to rounding), and a traceless Hermitian theta-slope."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rank = draw(st.integers(1, d - 1))
    g = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
    rho = g @ g.conj().T
    slope = hermitize(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    slope -= np.trace(slope) / d * np.eye(d)
    return LinearStateFamily(hermitize(rho / np.trace(rho)), 0.1 * slope, 0.0)


def _bounded_scalars(low):
    """Constants in [low, 1] and sinusoids c0 (1 + a sin(omega t + phi)) with c0 in
    [low, 1] and |a| <= 1: values within [2 min(low, 0), 2]."""
    return st.one_of(
        st.builds(ConstantScalar, st.floats(low, 1.0)),
        st.builds(
            SinusoidalScalar, st.floats(low, 1.0), real(1.0), st.floats(0.0, 5.0), st.floats(0.0, 6.3)
        ),
    )


def _bounded_operators(d, hermitian=False, min_terms=0):
    """Unit-norm terms times modulations of modulus at most 2: operator norm at most 6."""
    return operators(d, hermitian, min_terms, scalars=_bounded_scalars(-1.0), unit_norm=True)


# Sinusoids c0 (1 + a cos(omega t)) with c0 and a in [0.9, 1]: at the top of
# the _bounded_scalars range, near their maximum 2 at t = 0.
_peak_scalars = st.builds(
    SinusoidalScalar, st.floats(0.9, 1.0), st.floats(0.9, 1.0), st.floats(0.0, 5.0), st.just(math.pi / 2)
)


@st.composite
def _strong_operators(draw, d, hermitian=False, shared=None):
    """Three terms of spectral norm 1 times peak modulations; with ``shared``,
    every term has that base, so the operator norm reaches 6 near t = 0."""
    terms = []
    for _ in range(3):
        base = draw(_matrices(d)) if shared is None else shared
        base = hermitize(base) if hermitian else base
        norm = np.linalg.norm(base, 2)
        terms.append(OperatorTerm(base / norm if norm > 1e-3 else np.eye(d), draw(_peak_scalars)))
    return TimeDependentOperator(d, tuple(terms))


# Bound on the norm of the generator K X = -i[H, X] + sum_i gamma_i (A_i X A_i†
# - 1/2 {A_i† A_i, X}) of every gksl_models draw: ||K|| <= 2 ||H|| +
# 2 sum_i gamma_i ||A_i||^2 <= 2 * 6 + 3 * 2 * 2 * 36, so every eigenvalue
# lambda of K has |lambda| <= GKSL_GENERATOR_NORM.
GKSL_GENERATOR_NORM = 444.0


@st.composite
def gksl_models(draw):
    """Random GKSL models with nonnegative rates: a completely positive, trace
    preserving evolution.  Rates are constants in [0, 1] or sinusoids with
    c0 in [0, 1] and |a| <= 1 (so gamma_i(t) in [0, 2]), over up to 3 channels
    of bounded operators; the generator norm is at most GKSL_GENERATOR_NORM.

    Strong draws push the generator toward that bound: three channels whose
    A are one shared unit-norm base times three peak modulations, with peak
    rates, so sum_i gamma_i ||A_i||^2 nears 3 * 2 * 36 at t = 0.  Some draws
    start from a rank-deficient state on the positivity boundary.
    """
    d = draw(st.integers(2, 4))
    if draw(st.booleans()):
        base = draw(_matrices(d))
        channels = tuple(
            Channel(
                label=f"ch{i}",
                A=draw(_strong_operators(d, shared=base)),
                gamma=draw(_peak_scalars),
                dA_dtheta=draw(_bounded_operators(d)),
                dgamma_dtheta=draw(_bounded_scalars(-1.0)),
            )
            for i in range(3)
        )
        H = draw(_strong_operators(d, hermitian=True))
    else:
        channels = tuple(
            Channel(
                label=f"ch{i}",
                A=draw(_bounded_operators(d, min_terms=1)),
                gamma=draw(_bounded_scalars(0.0)),
                dA_dtheta=draw(_bounded_operators(d)),
                dgamma_dtheta=draw(_bounded_scalars(-1.0)),
            )
            for i in range(draw(st.integers(0, 3)))
        )
        H = draw(_bounded_operators(d, hermitian=True))
    return ModelSpec(
        dim=d,
        H=H,
        dH_dtheta=draw(_bounded_operators(d, hermitian=True)),
        channels=channels,
        rho0_family=draw(state_families(d) | rank_deficient_state_families(d)),
        theta=0.0,
    )
