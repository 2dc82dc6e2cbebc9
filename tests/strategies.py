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
def operators(draw, d, hermitian=False, min_terms=0):
    elements = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)
    terms = []
    for _ in range(draw(st.integers(min_terms, 3))):
        base = draw(hnp.arrays(np.complex128, (d, d), elements=elements))
        terms.append(OperatorTerm(hermitize(base) if hermitian else base, draw(_scalars)))
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
