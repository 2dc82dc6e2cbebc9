"""Closed-form states and QFI of the four builtin qubit models.

Each builtin's state at time t follows in closed form from one function P(t),
so the QFI computed here shares nothing with the pipeline: no RK4, no SLD
solver, no finite-difference stencil.

- ad-nm, ad-jc, rate-estimation: amplitude damping |1> -> |0> under
  H = omega0 sigma_z / 2 from R_y(alpha)|0>.  The excited population is P(t)
  times its initial value sin^2(alpha/2), and the coherence sqrt(P(t))
  e^{-i omega0 t} times its initial value sin(alpha)/2.  In the frame that
  rotates with H (which leaves the QFI unchanged, being independent of theta)
  the Bloch vector is r = (sqrt(P) sin alpha, 0, 1 - 2 P sin^2(alpha/2)), and
  1 - |r|^2 = 4 det rho = 4 P sin^4(alpha/2) (1 - P).
  P = exp(-int gamma) for ad-nm, |G|^2 for ad-jc with the Lorentzian
  reservoir's amplitude G, exp(-theta int g) for rate-estimation.
- phase-dephasing: |+> precesses at rate theta while its coherence decays as
  exp(-2 int gamma), so F = t^2 exp(-4 int gamma).

The QFI of a qubit with Bloch vector r is F = |dr|^2 + (r.dr)^2 / (1 - |r|^2),
and |dr|^2 at a pure state (1 - |r|^2 = 0), with dr = d r / d theta.
"""

import cmath
import math

import numpy as np


def sinusoid_integral(t, c0, a, omega, phi):
    """int_0^t c0 (1 + a sin(omega s + phi)) ds."""
    return c0 * (t + a * (math.cos(phi) - np.cos(omega * t + phi)) / omega)


def sinusoid_integral_first_root(c0, a, omega, phi, t_end, h=1e-5):
    """The first t in (0, t_end] where :func:`sinusoid_integral` turns negative,
    bisected to rounding from samples h apart; None if it stays nonnegative."""
    t = np.arange(1, int(t_end / h) + 1) * h
    below = np.flatnonzero(sinusoid_integral(t, c0, a, omega, phi) < 0.0)
    if not len(below):
        return None
    lo, hi = (t[below[0] - 1] if below[0] else 0.0), t[below[0]]
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if sinusoid_integral(mid, c0, a, omega, phi) < 0.0 else (mid, hi)
    return hi


def damped_min_eigenvalue(P, alpha):
    """Smallest eigenvalue (1 - |r|)/2 of the amplitude-damped R_y(alpha)|0>; negative
    where P > 1, as when int gamma < 0."""
    s = math.sin(0.5 * alpha) ** 2
    return 0.5 * (1.0 - np.sqrt(1.0 - 4.0 * P * s * s * (1.0 - P)))


def jc_amplitude(t, gamma0, lam):
    """G(t) = e^{-lam t/2} (cosh(d t/2) + lam sinh(d t/2) / d), d = sqrt(lam^2 - 2 gamma0 lam)."""
    d = cmath.sqrt(lam * lam - 2.0 * gamma0 * lam)
    return np.exp(-0.5 * lam * t) * (np.cosh(0.5 * d * t) + lam * np.sinh(0.5 * d * t) / d)


def qubit_qfi(r, dr, one_minus_r2):
    """F from Bloch vectors r, dr of shape (3, n) and 1 - |r|^2 of shape (n,)."""
    dr2 = np.sum(dr * dr, axis=0)
    mixed = one_minus_r2 > 0.0
    cross = np.sum(r * dr, axis=0) ** 2 / np.where(mixed, one_minus_r2, 1.0)
    return dr2 + np.where(mixed, cross, 0.0)


def _damped(P, dP, alpha, dalpha):
    """QFI of the amplitude-damped R_y(alpha)|0> with population factor P, given
    dP = dP/dtheta and dalpha = dalpha/dtheta."""
    s = math.sin(0.5 * alpha) ** 2
    q = np.sqrt(P)
    zero = np.zeros_like(P)
    r = np.array([q * math.sin(alpha), zero, 1.0 - 2.0 * P * s])
    dr = np.array(
        [
            0.5 * dP / q * math.sin(alpha) + dalpha * q * math.cos(alpha),
            zero,
            -2.0 * dP * s - dalpha * P * math.sin(alpha),
        ]
    )
    return qubit_qfi(r, dr, 4.0 * P * s * s * (1.0 - P))


# The builtins' documented defaults for the parameters their QFI depends on;
# omega0, and theta of phase-dephasing, leave it unchanged.
DEFAULTS = {
    "ad-nm": {"gamma0": 1.0, "a": 1.5, "omega": 2.0, "phi": 0.0, "theta": math.pi / 4},
    "ad-jc": {"gamma0": 1.0, "lambda": 3.0, "theta": math.pi / 4},
    "phase-dephasing": {"gamma0": 0.2, "a": 0.5, "omega": 2.0, "phi": 0.0},
    "rate-estimation": {"theta": 1.0, "g": 1.0, "alpha": math.pi / 2},
}


def exact_qfi(name, t, params=None):
    """The QFI of builtin ``name`` at times t, with ``params`` over its defaults
    (``g`` of rate-estimation a number)."""
    if name not in DEFAULTS:
        raise ValueError(f"no closed form for {name!r}")
    p = {**DEFAULTS[name], **(params or {})}
    t = np.asarray(t, dtype=float)
    zero = np.zeros_like(t)
    if name == "ad-nm":
        P = np.exp(-sinusoid_integral(t, p["gamma0"], p["a"], p["omega"], p["phi"]))
        return _damped(P, zero, p["theta"], 1.0)
    if name == "ad-jc":
        return _damped(np.abs(jc_amplitude(t, p["gamma0"], p["lambda"])) ** 2, zero, p["theta"], 1.0)
    if name == "phase-dephasing":
        return t * t * np.exp(-4.0 * sinusoid_integral(t, p["gamma0"], p["a"], p["omega"], p["phi"]))
    G = p["g"] * t
    P = np.exp(-p["theta"] * G)
    return _damped(P, -G * P, p["alpha"], 0.0)
