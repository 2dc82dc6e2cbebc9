import numpy as np
import pytest

from qfiflow import operators
from qfiflow.model import (
    Channel,
    ConstantScalar,
    LinearStateFamily,
    ModelSpec,
    SinusoidalScalar,
    constant_operator,
    zero_operator,
)


@pytest.fixture
def qutrit_model():
    """Three-level model with two decay channels; theta enters only through the initial state."""
    A1 = np.zeros((3, 3), complex)
    A1[0, 1] = 1.0
    A2 = np.zeros((3, 3), complex)
    A2[1, 2] = 1.0
    slope = np.zeros((3, 3), complex)
    slope[0, 1] = slope[1, 0] = 0.1
    slope[0, 0] = 0.05
    slope[1, 1] = -0.05
    return ModelSpec(
        dim=3,
        H=constant_operator(np.diag([0.0, 1.0, 2.3]).astype(complex)),
        dH_dtheta=zero_operator(3),
        channels=(
            Channel(
                label="lo01",
                A=constant_operator(A1),
                gamma=SinusoidalScalar(0.8, 1.4, 3.0),
                dA_dtheta=zero_operator(3),
                dgamma_dtheta=ConstantScalar(0.0),
            ),
            Channel(
                label="lo12",
                A=constant_operator(A2),
                gamma=ConstantScalar(0.5),
                dA_dtheta=zero_operator(3),
                dgamma_dtheta=ConstantScalar(0.0),
            ),
        ),
        rho0_family=LinearStateFamily(
            base=np.diag([0.5, 0.3, 0.2]).astype(complex),
            slope=slope,
            theta_ref=0.0,
        ),
        theta=0.0,
    )


@pytest.fixture
def solver_calls(monkeypatch):
    """The (stack, vectors) of every call of the density gate's solver, in order."""
    seen = []
    solver = operators._spectrum

    def spy(h, vectors):
        seen.append((np.array(h), vectors))
        return solver(h, vectors)

    monkeypatch.setattr(operators, "_spectrum", spy)
    return seen
