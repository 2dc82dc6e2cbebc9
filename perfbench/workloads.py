"""Seeded workload configs for the qfiflow benchmark.

Each workload is a fixed cycle of ``qfiflow simulate`` calls.  A call is
described by a :class:`SimSpec`: a stable id (the key into
``reference.json``), the config document, and the ``--check`` flags.  The
seed only chooses the order of a cycle and, for ``qubits-inline``, which
four models of a fixed pool are run, so every config a seed can produce has
a committed reference.

The qubit models are generated in pure Python (``random.Random`` plus
float arithmetic), never with numpy, so the config bytes are identical on
every machine and numpy version.
"""

from __future__ import annotations

import cmath
import json
import math
import random
from dataclasses import dataclass

REF_DT = 1e-3
REF_T_END = 5.0
QUBITS_T_END = 1.0
N_QUBITS = 4
QUBIT_POOL_SIZE = 32
QUBITS_PER_RUN = 4
# Share of the maximally mixed state in rho0: a floor of MIX / d on every
# eigenvalue, so the initial state is full rank by construction.
MIX = 0.2

BUILTINS = ("ad-nm", "ad-jc", "phase-dephasing", "rate-estimation")
THETA_BUILTINS = ("ad-nm", "phase-dephasing")
DEFAULT_CHECKS = "oracle,intervals"
THETA_CHECKS = "oracle,theta,intervals"

WORKLOADS = ("builtins-ref", "theta-check", "qubits-inline")


@dataclass(frozen=True)
class SimSpec:
    """One simulation of a workload cycle."""

    sim_id: str
    config: dict
    checks: str

    def config_bytes(self) -> bytes:
        return (json.dumps(self.config) + "\n").encode("utf-8")


def _builtin_config(name: str, t_end: float) -> dict:
    return {"model": {"builtin": name}, "t_end": t_end, "dt": REF_DT}


def _c(z: complex) -> list:
    return [z.real, z.imag]


def _matrix(rows) -> list:
    return [[_c(complex(z)) for z in row] for row in rows]


def _zeros(d: int) -> list:
    return [[0j] * d for _ in range(d)]


def _embed(single: list, qubit: int, n: int) -> list:
    """single (2x2) acting on ``qubit`` of an n-qubit register (qubit 0 most significant)."""
    d = 2**n
    shift = n - 1 - qubit
    out = _zeros(d)
    for i in range(d):
        for j in range(d):
            if (i ^ j) & ~(1 << shift):
                continue
            out[i][j] = single[(i >> shift) & 1][(j >> shift) & 1]
    return out


def _add(a: list, b: list, scale: complex = 1.0) -> list:
    return [[x + scale * y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def _hermitian(rng: random.Random, d: int, sigma: float) -> list:
    """GUE-like Hermitian matrix, built from its upper triangle so it is exactly Hermitian."""
    m = _zeros(d)
    for i in range(d):
        m[i][i] = complex(rng.gauss(0.0, sigma), 0.0)
        for j in range(i + 1, d):
            z = complex(rng.gauss(0.0, sigma), rng.gauss(0.0, sigma)) / math.sqrt(2.0)
            m[i][j] = z
            m[j][i] = z.conjugate()
    return m


def _frobenius(m: list) -> float:
    return math.sqrt(sum(abs(z) ** 2 for row in m for z in row))


def _initial_state(rng: random.Random, d: int) -> tuple[list, list]:
    """Full-rank rho0 = (1 - MIX) W W^dag / tr + MIX I / d and a traceless Hermitian slope.

    The slope's Frobenius norm (an upper bound on its spectral norm) is half
    the eigenvalue floor MIX / d, so rho0(theta) stays positive definite for
    |theta - theta_ref| < 2, far beyond any finite-difference probe.
    """
    w = [[complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)) for _ in range(d)] for _ in range(d)]
    r = _zeros(d)
    for i in range(d):
        for j in range(i, d):
            z = sum(w[i][k] * w[j][k].conjugate() for k in range(d))
            r[i][j] = z
            r[j][i] = z.conjugate()
        r[i][i] = complex(r[i][i].real, 0.0)
    tr = sum(r[i][i].real for i in range(d))
    rho = [[(1.0 - MIX) * r[i][j] / tr for j in range(d)] for i in range(d)]
    for i in range(d):
        rho[i][i] += MIX / d
    s = _hermitian(rng, d, 1.0)
    mean = sum(s[i][i].real for i in range(d)) / d
    for i in range(d):
        s[i][i] -= mean
    scale = 0.5 * (MIX / d) / _frobenius(s)
    slope = [[scale * z for z in row] for row in s]
    return rho, slope


def qubit_model(index: int) -> dict:
    """Inline model ``index`` of the pool: 4 qubits, d = 16.

    - random Hermitian H (spectral radius about 2);
    - one amplitude-damping channel per qubit, rate c0 (1 + a sin(omega t + phi))
      with c0 > 0 and 0 < a < 1, so the rate is positive;
    - a collective channel A(theta) = sum_q e^{i phi_q} sigma^-_q + theta sum_q w_q sigma^z_q
      with constant positive rate and declared dA_dtheta = sum_q w_q sigma^z_q;
    - a full-rank ``linear`` initial-state family.
    """
    rng = random.Random(f"qfiflow-bench/qubits/{index}")
    n, d = N_QUBITS, 2**N_QUBITS
    sm = [[0j, 1 + 0j], [0j, 0j]]
    sz = [[1 + 0j, 0j], [0j, -1 + 0j]]
    channels = []
    for q in range(n):
        channels.append(
            {
                "label": f"ad{q}",
                "A": _matrix(_embed(sm, q, n)),
                "gamma": {
                    "form": "sinusoidal",
                    "c0": round(rng.uniform(0.05, 0.3), 6),
                    "a": round(rng.uniform(0.2, 0.9), 6),
                    "omega": round(rng.uniform(1.0, 4.0), 6),
                    "phi": round(rng.uniform(0.0, 2.0 * math.pi), 6),
                },
            }
        )
    b0 = _zeros(d)
    b1 = _zeros(d)
    for q in range(n):
        b0 = _add(b0, _embed(sm, q, n), cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi)))
        b1 = _add(b1, _embed(sz, q, n), rng.gauss(0.0, 0.3))
    one = {"form": "constant", "c": 1.0}
    channels.append(
        {
            "label": "coll",
            "A": [
                {"matrix": _matrix(b0), "modulation": one},
                {"matrix": _matrix(b1), "modulation": {"form": "theta_scaled", "base": one}},
            ],
            "gamma": {"form": "constant", "c": round(rng.uniform(0.05, 0.2), 6)},
            "dA_dtheta": _matrix(b1),
        }
    )
    h = _hermitian(rng, d, 0.25)
    rho0, slope = _initial_state(rng, d)
    theta = round(rng.uniform(0.2, 1.0), 6)
    return {
        "dim": d,
        "hamiltonian": _matrix(h),
        "channels": channels,
        "rho0_family": {
            "family": "linear",
            "rho0": _matrix(rho0),
            "drho0_dtheta": _matrix(slope),
            "theta_ref": theta,
        },
        "theta": theta,
    }


def qubit_spec(index: int, t_end: float = QUBITS_T_END) -> SimSpec:
    config = {"model": qubit_model(index), "t_end": t_end, "dt": REF_DT}
    return SimSpec(f"qubits-{index:02d}", config, DEFAULT_CHECKS)


def _builtin_specs(names, checks: str, suffix: str, t_end: float) -> list[SimSpec]:
    return [SimSpec(name + suffix, _builtin_config(name, t_end), checks) for name in names]


def all_specs() -> list[SimSpec]:
    """Every simulation any seed can produce, each once (the reference set)."""
    return (
        _builtin_specs(BUILTINS, DEFAULT_CHECKS, "", REF_T_END)
        + _builtin_specs(THETA_BUILTINS, THETA_CHECKS, "+theta", REF_T_END)
        + [qubit_spec(i) for i in range(QUBIT_POOL_SIZE)]
    )


def cycle(workload: str, seed: int, t_end: float | None = None) -> list[SimSpec]:
    """The simulations of one pass of ``workload``, in the seed's order.

    ``t_end`` shortens every simulation (smoke mode); such configs have no
    reference.
    """
    rng = random.Random(f"qfiflow-bench/{workload}/{seed}")
    if workload == "builtins-ref":
        specs = _builtin_specs(BUILTINS, DEFAULT_CHECKS, "", t_end or REF_T_END)
    elif workload == "theta-check":
        specs = _builtin_specs(THETA_BUILTINS, THETA_CHECKS, "+theta", t_end or REF_T_END)
    elif workload == "qubits-inline":
        picks = rng.sample(range(QUBIT_POOL_SIZE), QUBITS_PER_RUN)
        specs = [qubit_spec(i, t_end or QUBITS_T_END) for i in picks]
    else:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng.shuffle(specs)
    return specs
