from functools import partial

import numpy as np
import pytest

from qfiflow import operators, propagation
from qfiflow.model import (
    Channel,
    ConstantScalar,
    LinearStateFamily,
    ModelSpec,
    SinusoidalScalar,
    compile_generator,
    constant_operator,
    zero_operator,
)


def run_states(model, theta, t_end, dt, tol=operators.DEFAULT_TOLERANCES):
    """The grid and the rho and drho_dtheta stacks ``(len(grid), d, d)`` of a run,
    drawn block by block from the generator that ``propagate`` drains, which
    stores no states; copied, as the stacked path reuses its buffer."""
    grid = np.arange(propagation.grid_steps(t_end, dt, model.dim) + 1) * dt
    x = np.stack([model.rho0_family.rho0(theta), model.rho0_family.drho0_dtheta(theta)])
    gate = partial(operators.density_eigh, tol=tol)
    blocks = propagation._integrate(compile_generator(model), (theta,), x, grid, dt, gate)
    states = np.concatenate([xs.copy() for _, xs, _, _ in blocks])
    return grid, states[:, 0], states[:, 1]


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
