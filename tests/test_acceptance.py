"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -v -rA`` to see the per-criterion
PASS/FAIL lines.  All runs use the reference settings dt = 1e-3, t_end = 5
unless a criterion states otherwise.
"""

import json
import math

import numpy as np
import pytest
from conftest import run_states

from qfiflow.cli import run_simulate
from qfiflow.config import builtin_model, parse_config
from qfiflow.flow import classify_intervals, subflow_J
from qfiflow.operators import hermitize
from qfiflow.propagation import propagate

DT = 1e-3
T_END = 5.0

MODEL_PARAMS = {
    "ad-nm": {"gamma0": 1.0, "a": 1.5, "omega": 2.0, "theta": math.pi / 4},
    "ad-jc": {"gamma0": 1.0, "lambda": 3.0},
    "phase-dephasing": {"theta": 0.3, "gamma0": 0.2},
    "rate-estimation": {"theta": 1.0, "g": 1.0},
}


def _run(name, params, t_end=T_END, delta_theta=None):
    model = builtin_model(name, params)
    traj = propagate(model, model.theta, t_end, DT, delta_theta=delta_theta)
    return model, traj, traj.flow


@pytest.fixture(scope="module")
def runs():
    # with the theta check's stack of theta +/- 1e-4 drained beside each run
    return {name: _run(name, params, delta_theta=1e-4) for name, params in MODEL_PARAMS.items()}


@pytest.fixture(scope="module")
def unitary_phase_run():
    return _run("phase-dephasing", {"theta": 0.3, "gamma0": 0.0})


@pytest.fixture(scope="module")
def markovian_run():
    return _run("ad-nm", {"a": 0.5})


def _tolerance(table):
    return 1e-5 * max(1.0, float(np.max(table.qfi)))


def _report(num, name, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {num} [{name}]: {status} ({detail})")
    assert passed, f"criterion {num} ({name}): {detail}"


def test_criterion_1_decomposition_validity(runs):
    details = []
    ok = True
    for name in ("ad-nm", "ad-jc"):
        _, _, table = runs[name]
        tol = _tolerance(table)
        worst = float(np.max(np.abs(table.flow_fd - sum(table.I))[1:-1]))
        ok &= worst <= tol
        details.append(f"{name}: max|flow_fd - sum(gamma_i J_i)| = {worst:.3e} <= {tol:.1e}")
    _report(1, "decomposition validity", ok, "; ".join(details))


def test_criterion_2_full_flow_completeness(runs):
    details = []
    ok = True
    for name, (_, _, table) in runs.items():
        tol = _tolerance(table)
        worst = float(np.max(np.abs(table.flow_fd - table.full_flow)[1:-1]))
        ok &= worst <= tol
        details.append(f"{name}: {worst:.3e} <= {tol:.1e}")
    _report(2, "full-flow completeness", ok, "; ".join(details))


def test_criterion_3_violation_detection(runs, tmp_path):
    _, _, phase = runs["phase-dephasing"]
    _, _, rate = runs["rate-estimation"]
    tol_phase = _tolerance(phase)
    tol_rate = _tolerance(rate)
    max_ham = float(np.max(np.abs(phase.ham_term)))
    max_res_phase = float(np.max(np.abs(phase.residual_T)))
    max_res_rate = float(np.max(np.abs(rate.residual_T)))
    ok = (
        max_ham > 10 * tol_phase
        and max_res_phase <= tol_phase
        and max_res_rate > 10 * tol_rate
    )

    # exit-status side: the runs are legitimate (checks pass, exit 0) and the
    # summaries carry the "violated" verdicts for the right ingredient
    for name, ingredient in (
        ("phase-dephasing", "hamiltonian"),
        ("rate-estimation", "decay_rates"),
    ):
        cfg = parse_config(
            json.dumps(
                {
                    "model": {"builtin": name, "params": MODEL_PARAMS[name]},
                    "t_end": T_END,
                    "dt": DT,
                    "outputs": [{"csv_path": str(tmp_path / f"{name}.csv")}],
                }
            )
        )
        summary = run_simulate(cfg)
        ok &= not summary.theta_independence[ingredient].holds
        ok &= summary.all_checks_passed  # exit status would be 0
    _report(
        3,
        "condition-violation detection",
        ok,
        f"phase: max|ham|={max_ham:.3e} > {10 * tol_phase:.1e}, "
        f"max|residual|={max_res_phase:.3e} <= {tol_phase:.1e}; "
        f"rate: max|residual|={max_res_rate:.3e} > {10 * tol_rate:.1e}; "
        "verdicts violated with passing checks",
    )


def test_criterion_4_subflow_sign_property():
    rng = np.random.default_rng(2024)
    n_trials = 10_000
    draws = {2: [], 3: [], 4: []}  # (rho, L, A) per dimension, in draw order
    for _ in range(n_trials):
        n = int(rng.integers(2, 5))
        g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        L = hermitize(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        draws[n].append((rho, L, A))
    stacks = (map(np.array, zip(*triples)) for triples in draws.values())
    worst = max(float(np.max(subflow_J(*stack))) for stack in stacks)
    _report(
        4,
        "subflow sign property",
        worst <= 1e-12,
        f"max J over {n_trials} random (rho, L, A) in dims 2-4 = {worst:.3e} <= 1e-12",
    )


def test_criterion_5_analytic_phase_estimation(unitary_phase_run):
    _, _, table = unitary_phase_run
    late = table.t >= 0.1
    t = table.t[late]
    rel_err = float(np.max(np.abs(table.qfi[late] - t * t) / (t * t)))
    flow_err = float(np.max(np.abs(table.full_flow[late] - 2.0 * t)))
    ok = rel_err <= 1e-6 and flow_err <= 1e-6
    _report(
        5,
        "analytic phase estimation",
        ok,
        f"max rel|F - t^2| = {rel_err:.3e} <= 1e-6, max|flow - 2t| = {flow_err:.3e} <= 1e-6",
    )


def test_criterion_6_markovian_monotonicity(markovian_run):
    _, _, table = markovian_run
    worst = float(np.max(table.flow_fd[1:-1]))
    _report(
        6,
        "markovian monotonicity",
        worst <= 1e-6,
        f"max interior flow_fd = {worst:.3e} <= 1e-6 (rate never negative)",
    )


def test_criterion_7_non_markovian_marker(runs):
    _, _, table = runs["ad-nm"]
    (report,) = classify_intervals(table)
    ok = report.overlap_fraction is not None and report.overlap_fraction >= 0.99
    _report(
        7,
        "non-markovian marker",
        ok,
        f"overlap fraction of I>0 over gamma<0 = {report.overlap_fraction} >= 0.99 "
        f"(negative windows: {report.negative_rate_intervals})",
    )


def test_criterion_8_theta_consistency(runs):
    details = []
    ok = True
    for name, (_, traj, _) in runs.items():
        dev = traj.theta_consistency
        ok &= dev <= 1e-5
        details.append(f"{name}: {dev:.3e}")
    _report(8, "co-evolved derivative vs finite difference", ok, "; ".join(details) + " <= 1e-5")


def test_criterion_9_state_integrity(runs):
    details = []
    ok = True
    for name, (_, traj, _) in runs.items():
        ok &= traj.max_trace_drift <= 1e-9 and traj.min_eigenvalue >= -1e-9
        details.append(
            f"{name}: drift={traj.max_trace_drift:.1e}, min eig={traj.min_eigenvalue:.1e}"
        )
    bench = builtin_model("ad-nm", {"a": 0.0, "theta": math.pi})
    _, rho, _ = run_states(bench, bench.theta, 1.0, DT)
    err = abs(rho[-1, 1, 1].real - math.exp(-1.0))
    ok &= err <= 1e-8
    details.append(f"pure damping benchmark |rho11(1) - e^-1| = {err:.1e} <= 1e-8")
    _report(9, "state integrity", ok, "; ".join(details))


def test_criterion_10_determinism(tmp_path):
    doc = {
        "model": {"builtin": "ad-nm", "params": MODEL_PARAMS["ad-nm"]},
        "t_end": 1.0,
        "dt": DT,
        "outputs": [{"csv_path": None, "json_summary_path": None}],
    }
    outputs = []
    for tag in ("first", "second"):
        csv = tmp_path / f"{tag}.csv"
        summ = tmp_path / f"{tag}.json"
        doc["outputs"] = [{"csv_path": str(csv), "json_summary_path": str(summ)}]
        run_simulate(parse_config(json.dumps(doc)))
        outputs.append((csv.read_bytes(), summ.read_bytes()))
    csv_same = outputs[0][0] == outputs[1][0]
    summary_same = outputs[0][1] == outputs[1][1]
    _report(
        10,
        "determinism",
        csv_same and summary_same,
        f"byte-identical CSV: {csv_same}, byte-identical summary: {summary_same}",
    )
