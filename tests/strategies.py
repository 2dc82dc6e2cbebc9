"""Hypothesis strategies for random GKSL models, shared by the model and flow tests."""

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


@st.composite
def operators(draw, d, hermitian=False, min_terms=0, scalars=_scalars, unit_norm=False):
    """Up to 3 terms of a random matrix times a drawn modulation; with ``unit_norm``
    each matrix is scaled to spectral norm at most 1."""
    elements = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)
    terms = []
    for _ in range(draw(st.integers(min_terms, 3))):
        base = draw(hnp.arrays(np.complex128, (d, d), elements=elements))
        base = hermitize(base) if hermitian else base
        if unit_norm:
            base = base / max(1.0, np.linalg.norm(base, 2))
        terms.append(OperatorTerm(base, draw(scalars)))
    return TimeDependentOperator(d, tuple(terms))


@st.composite
def models(draw):
    """Random GKSL models: multi-term operators, several channels, rates of either
    sign, declared derivatives (not required to match the ingredients) and a
    random full-rank initial-state family."""
    d = draw(st.integers(2, 4))
    channels = tuple(
        Channel(
            label=f"ch{i}",
            A=draw(operators(d, min_terms=1)),
            gamma=draw(_scalars),
            dA_dtheta=draw(operators(d)),
            dgamma_dtheta=draw(_scalars),
        )
        for i in range(draw(st.integers(0, 3)))
    )
    return ModelSpec(
        dim=d,
        H=draw(operators(d, hermitian=True)),
        dH_dtheta=draw(operators(d, hermitian=True)),
        channels=channels,
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
    of bounded operators; the generator norm is at most GKSL_GENERATOR_NORM."""
    d = draw(st.integers(2, 4))
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
    return ModelSpec(
        dim=d,
        H=draw(_bounded_operators(d, hermitian=True)),
        dH_dtheta=draw(_bounded_operators(d, hermitian=True)),
        channels=channels,
        rho0_family=draw(state_families(d)),
        theta=0.0,
    )
