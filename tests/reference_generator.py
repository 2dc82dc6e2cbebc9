"""Hand-written generator loops: the reference for the compiled generator.

These evaluate every operator at (theta, t) and apply K and the product
rule for d/dtheta (K rho) term by term, the way the library did before the
generator was compiled into scalar coefficients on constant matrices.
"""

import numpy as np

from qfiflow.operators import anticommutator, commutator, dagger


def reference_generator(model, theta, t, rho):
    """K(t) rho = -i[H, rho] + sum_i gamma_i (A_i rho A_i† - 1/2 {A_i†A_i, rho})."""
    rho = np.asarray(rho, dtype=complex)
    H = model.H.evaluate(t, theta)
    out = -1j * commutator(H, rho)
    for ch in model.channels:
        g = ch.gamma(t, theta)
        A = ch.A.evaluate(t, theta)
        Ad = dagger(A)
        AdA = Ad @ A
        out += g * (A @ rho @ Ad - 0.5 * anticommutator(AdA, rho))
    return out


def reference_generator_theta_derivative(model, theta, t, rho, drho_dtheta):
    """Product-rule derivative of K rho in theta from the declared derivative fields.

    -i[dH, rho] - i[H, drho] plus, per channel, the dgamma term on the plain
    dissipator and the gamma term with A and rho derivatives distributed.
    """
    rho = np.asarray(rho, dtype=complex)
    sig = np.asarray(drho_dtheta, dtype=complex)
    H = model.H.evaluate(t, theta)
    out = -1j * commutator(H, sig)
    if not model.dH_dtheta.is_zero:
        out = out - 1j * commutator(model.dH_dtheta.evaluate(t, theta), rho)
    for ch in model.channels:
        g = ch.gamma(t, theta)
        A = ch.A.evaluate(t, theta)
        Ad = dagger(A)
        AdA = Ad @ A
        dg = ch.dgamma_dtheta(t, theta)
        if dg != 0.0:
            out += dg * (A @ rho @ Ad - 0.5 * anticommutator(AdA, rho))
        out += g * (A @ sig @ Ad - 0.5 * anticommutator(AdA, sig))
        if not ch.dA_dtheta.is_zero:
            dA = ch.dA_dtheta.evaluate(t, theta)
            dAd = dagger(dA)
            dAdA = dAd @ A + Ad @ dA
            out += g * (dA @ rho @ Ad + A @ rho @ dAd - 0.5 * anticommutator(dAdA, rho))
    return out
