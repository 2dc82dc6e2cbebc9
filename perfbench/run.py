#!/usr/bin/env python3
"""Closed-loop benchmark of ``qfiflow simulate``, one client, one process.

    python3 perfbench/run.py --workload builtins-ref --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

Run from the repository root.  A workload is a fixed cycle of simulations
(see ``workloads.py``); each simulation is one in-process call of
``qfiflow.cli.main(argv)`` on a generated config file, written into a
temporary directory under ``.bench_tmp/``.  Whole cycles repeat until
``--seconds`` of simulation time have been measured; the timing metrics use
these cycles only.  When one cycle was enough, its first config runs once
more, untimed, so every run compares a repeated config's output bytes.

Every simulation is checked: exit code 0, no enabled check failed, the QFI
at eleven fixed grid points and the summary maxima match ``reference.json``
within RTOL of their scale, and a repeated config gives byte-identical CSV
and summary output.  A simulation that fails any of these counts in
``failed``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` reports the
per-layer metrics of ``tracer.py`` instead: one tracemalloc pass over a
single simulation, then cycles in which each config runs untraced and then
span-traced, so the tracing overhead is measured in the same process.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A report with the
environment, every sample and the per-simulation trace goes to
``.bench_out/``; traced runs also write their spans there.  ``--smoke``
runs every workload with a tiny ``t_end`` (no reference comparison), checks
that every metric named in ``BENCHMARK.json`` is emitted with its unit and
that traced self times sum to the traced wall time.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TMP_DIR = os.path.join(ROOT, ".bench_tmp")
OUT_DIR = os.path.join(ROOT, ".bench_out")
REFERENCE_PATH = os.path.join(HERE, "reference.json")

sys.path.insert(0, HERE)

import workloads  # noqa: E402  (stdlib only; safe before the thread limits)

BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

# Reference comparisons: |x - ref| <= RTOL * max(|ref|, scale), where scale
# is max(1, max_t F) for QFI and flow quantities and 1 for quantities of the
# state (trace drift, eigenvalues, d_theta rho deviations).
RTOL = 1e-9
FLOW_ACCEPT_FACTOR = 1e-5  # flow_accept = FLOW_ACCEPT_FACTOR * max(1, max_t F)
QFI_SAMPLES = 11
FLOW_MAXIMA = (
    "max_abs_flow_fd_minus_full_flow",
    "max_abs_flow_fd_minus_subflow_sum",
    "max_abs_ham_term",
    "max_abs_residual_t",
)
STATE_MAXIMA = ("max_trace_drift", "min_rho_eigenvalue")
SETUP_PROBES = 5
SMOKE_T_END = 0.02


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def limit_blas_threads() -> None:
    """Unset BLAS thread counts become 1, set ones are clamped to [1, nproc]; call before numpy loads."""
    for var in BLAS_THREAD_VARS:
        try:
            n = int(os.environ.get(var, "1"))
        except ValueError:
            n = 1
        os.environ[var] = str(max(1, min(n, nproc())))


def import_qfiflow():
    """Import the package from this checkout's ``src`` (never an installed copy)."""
    sys.path.insert(0, SRC)
    import qfiflow.cli

    origin = os.path.dirname(os.path.abspath(qfiflow.__file__))
    if os.path.dirname(origin) != SRC:
        raise ImportError(f"qfiflow imported from {origin}, expected {SRC}")
    return qfiflow.cli


def git_commit() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def environment(args) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": nproc(),
        "machine": platform.machine(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def setup_probe(workload: str, seed: int, t_end: float | None) -> None:
    """Child side of a set-up sample: import qfiflow, write the configs, report ready."""
    import_qfiflow()
    workdir = tempfile.mkdtemp(prefix="probe-", dir=TMP_DIR)
    try:
        for spec in workloads.cycle(workload, seed, t_end):
            with open(os.path.join(workdir, f"{spec.sim_id}.json"), "wb") as fh:
                fh.write(spec.config_bytes())
        print("ready", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure_setup(workload: str, seed: int, t_end: float | None, probes: int) -> list[float]:
    """Seconds from spawning a fresh interpreter to its configs being written, per probe."""
    argv = [sys.executable, os.path.abspath(__file__), "--setup-probe", "--workload", workload, "--seed", str(seed)]
    if t_end is not None:
        argv += ["--t-end", repr(t_end)]
    samples = []
    for _ in range(probes):
        t0 = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
            if proc.wait(timeout=60) != 0 or line.strip() != "ready":
                raise RuntimeError(f"set-up probe failed: {line!r}")
        samples.append(t1 - t0)
    return samples


class Runner:
    """Runs and checks simulations of one workload in a private directory."""

    def __init__(self, cli, specs, workdir: str, reference: dict | None):
        self.cli = cli
        self.specs = specs
        self.workdir = workdir
        self.reference = reference
        self.outputs: dict[str, tuple[str, str]] = {}
        self.base_margin: dict[str, float] = {}
        self.samples: list[dict] = []
        for spec in specs:
            with open(self.path(spec, "json"), "wb") as fh:
                fh.write(spec.config_bytes())

    def path(self, spec, ext: str) -> str:
        return os.path.join(self.workdir, f"{spec.sim_id}.{ext}")

    def argv(self, spec) -> list[str]:
        return [
            "simulate",
            "--config", self.path(spec, "json"),
            "--check", spec.checks,
            "--out", self.path(spec, "csv"),
            "--summary", self.path(spec, "summary.json"),
        ]

    def run(self, spec, phase: str, wrap=None) -> dict:
        """One simulation, timed around ``cli.main``; ``wrap`` runs the call (tracing)."""
        for ext in ("csv", "summary.json"):
            with contextlib.suppress(FileNotFoundError):
                os.remove(self.path(spec, ext))
        call = lambda: self.cli.main(self.argv(spec))  # noqa: E731
        rc = None
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            try:
                rc = wrap(spec.sim_id, call) if wrap else call()
            except Exception:  # a crash is a failed simulation, not a failed benchmark
                crash = traceback.format_exc(limit=3).strip().replace("\n", " | ")
            t1 = time.perf_counter()
        if rc is None:
            failures, summary, points = ["raised: " + crash], None, 0
        else:
            failures, summary, points = self.verify(spec, rc)
        sample = {
            "sim_id": spec.sim_id,
            "phase": phase,
            "wall_s": t1 - t0,
            "points": points,
            "exit_code": rc,
            "failures": failures,
            "oracle_margin": _margin(summary, "oracle"),
            "theta_margin": _margin(summary, "theta_consistency"),
        }
        sample["oracle_margin_vs_ref"] = self._vs_base(spec, sample["oracle_margin"])
        self.samples.append(sample)
        return sample

    def _vs_base(self, spec, margin: float | None) -> float | None:
        """Oracle margin over the reference's for this config, or over its first run here."""
        if margin is None:
            return None
        ref = (self.reference or {}).get(spec.sim_id)
        if ref is not None and "oracle" in ref["check_values"]:
            base = ref["check_values"]["oracle"] / ref["flow_accept"]
        else:
            base = self.base_margin.setdefault(spec.sim_id, margin)
        return margin / base

    def verify(self, spec, rc: int) -> tuple[list[str], dict | None, int]:
        """Failures of one finished simulation, its summary, and its CSV row count."""
        failures = [] if rc == 0 else [f"exit code {rc}"]
        try:
            with open(self.path(spec, "csv"), "rb") as fh:
                csv_bytes = fh.read()
            with open(self.path(spec, "summary.json"), "rb") as fh:
                summary_bytes = fh.read()
            summary = json.loads(summary_bytes)
        except (OSError, ValueError) as exc:
            return failures + [f"unreadable output: {exc}"], None, 0
        for name, check in summary["checks"].items():
            if check["enabled"] and check["passed"] is False:
                failures.append(f"check {name} failed")
        digests = (sha256(csv_bytes), sha256(summary_bytes))
        if self.outputs.setdefault(spec.sim_id, digests) != digests:
            failures.append("repeated config gave different output bytes")
        if self.reference is not None:
            failures += compare_reference(spec, csv_bytes, summary, self.reference.get(spec.sim_id))
        return failures, summary, csv_bytes.count(b"\n") - 1


def _margin(summary: dict | None, check: str) -> float | None:
    """An enabled check's value over its tolerance."""
    c = summary["checks"].get(check) if summary else None
    if not c or not c["enabled"] or c["value"] is None:
        return None
    return c["value"] / c["tolerance"]


def fingerprint(spec, csv_bytes: bytes, summary: dict) -> dict:
    """What the reference records of one simulation."""
    rows = csv_bytes.decode("utf-8").splitlines()[1:]
    n = len(rows)
    idx = sorted({round(i * (n - 1) / (QFI_SAMPLES - 1)) for i in range(QFI_SAMPLES)})
    checks = summary["checks"]
    return {
        "config_sha256": sha256(spec.config_bytes()),
        "checks": spec.checks,
        "points": n,
        "flow_accept": summary["tolerances"]["flow_accept"],
        "qfi_samples": [[k, float(rows[k].split(",")[1])] for k in idx],
        "maxima": {key: summary[key] for key in FLOW_MAXIMA + STATE_MAXIMA},
        "check_values": {name: c["value"] for name, c in checks.items() if c["enabled"]},
    }


def compare_reference(spec, csv_bytes: bytes, summary: dict, ref: dict | None) -> list[str]:
    if ref is None:
        return [f"no reference for {spec.sim_id}"]
    if sha256(spec.config_bytes()) != ref["config_sha256"] or spec.checks != ref["checks"]:
        return ["config differs from the one the reference was made with"]
    got = fingerprint(spec, csv_bytes, summary)
    if got["points"] != ref["points"]:
        return [f"{got['points']} grid points, reference has {ref['points']}"]
    scale = ref["flow_accept"] / FLOW_ACCEPT_FACTOR
    failures = []

    def close(what: str, x, r, s: float) -> None:
        if x is None or r is None:
            if x is not r:
                failures.append(f"{what}: {x!r} vs reference {r!r}")
        elif abs(x - r) > RTOL * max(abs(r), s):
            failures.append(f"{what}: {x!r} vs reference {r!r}")

    for (k, f), (_, f_ref) in zip(got["qfi_samples"], ref["qfi_samples"]):
        close(f"F[{k}]", f, f_ref, scale)
    for key in FLOW_MAXIMA:
        close(key, got["maxima"][key], ref["maxima"][key], scale)
    for key in STATE_MAXIMA:
        close(key, got["maxima"][key], ref["maxima"][key], 1.0)
    if set(got["check_values"]) != set(ref["check_values"]):
        failures.append(f"enabled checks {sorted(got['check_values'])} vs reference")
    for name, r in ref["check_values"].items():
        close(f"check {name}", got["check_values"].get(name), r, scale if name == "oracle" else 1.0)
    return failures


def _passes(runner: Runner, phase: str, seconds: float, wrap=None) -> int:
    """Whole cycles, at least one, until ``seconds`` of simulation time; returns the count."""
    spent, done = 0.0, 0
    while done == 0 or spent < seconds:
        for spec in runner.specs:
            spent += runner.run(spec, phase, wrap)["wall_s"]
        done += 1
    return done


def _max_margin(samples, key: str) -> float:
    values = [s[key] for s in samples if s[key] is not None]
    return max(values) if values else 0.0


def end_to_end_metrics(samples: list[dict], setup: list[float]) -> dict:
    walls = [s["wall_s"] for s in samples]
    return {
        "setup_s": (statistics.median(setup), "s"),
        "sim_s_p50": (statistics.median(walls), "s"),
        "points_per_s": (sum(s["points"] for s in samples) / sum(walls), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "oracle_margin_vs_ref": (_max_margin(samples, "oracle_margin_vs_ref"), "ratio"),
    }


def traced_run(runner: Runner, seconds: float):
    """tracemalloc pass, then whole cycles of untraced and span-traced pairs until ``seconds``."""
    import tracemalloc

    from tracer import AllocPeak, Tracer, per_layer_metrics

    tracer = Tracer()
    alloc = AllocPeak(tracer.layers.get("cli.run_simulate"))
    if alloc.fn is not None:
        tracemalloc.start()
        try:
            with alloc.install():
                runner.run(min(runner.specs, key=lambda s: s.sim_id), "tracemalloc")
        finally:
            tracemalloc.stop()
    spent = 0.0
    while spent == 0.0 or spent < seconds:
        # Each config untraced, then traced, back to back: the pair shares the host's state.
        for spec in runner.specs:
            spent += runner.run(spec, "untraced")["wall_s"]
            with tracer.install():
                spent += runner.run(spec, "traced", wrap=tracer.simulation)["wall_s"]
    traced = [s for s in runner.samples if s["phase"] == "traced"]
    untraced = [s for s in runner.samples if s["phase"] == "untraced"]
    theta_margin = _max_margin(runner.samples, "theta_margin")
    metrics = per_layer_metrics(tracer, traced, untraced, alloc.peaks_mb, theta_margin)
    summary = tracer.summary()
    summary["traced_wall_s"] = sum(s["wall_s"] for s in traced)
    return metrics, summary, tracer


def run_workload(cli, workload: str, seed: int, seconds: float, trace: bool,
                 reference: dict | None, t_end: float | None = None, probes: int = SETUP_PROBES) -> dict:
    """Set up, measure and check one workload; returns metrics, samples and trace data."""
    os.makedirs(TMP_DIR, exist_ok=True)
    setup = measure_setup(workload, seed, t_end, probes)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=TMP_DIR)
    try:
        runner = Runner(cli, workloads.cycle(workload, seed, t_end), workdir, reference)
        # Lazy numpy and interpreter set-up, outside the timed passes.
        warmdir = os.path.join(workdir, "warmup")
        os.mkdir(warmdir)
        warm = Runner(cli, workloads.cycle(workload, seed, SMOKE_T_END)[:1], warmdir, None)
        warm.run(warm.specs[0], "warmup")
        result = {"setup_samples": setup, "trace": None}
        if not trace:
            if _passes(runner, "measure", seconds) == 1:
                # Untimed rerun, so every run compares a repeated config's output bytes.
                runner.run(runner.specs[0], "repeat")
            measured = [s for s in runner.samples if s["phase"] == "measure"]
            result["metrics"] = end_to_end_metrics(measured, setup)
        else:
            result["metrics"], result["trace"], result["tracer"] = traced_run(runner, seconds)
        result["samples"] = warm.samples + runner.samples
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def summarize(result: dict) -> dict:
    samples = result["samples"]
    failed = sum(1 for s in samples if s["failures"])
    return {
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }


def print_human(workload: str, result: dict, out: dict) -> None:
    for s in result["samples"]:
        for f in s["failures"]:
            print(f"FAILED {s['sim_id']} ({s['phase']}): {f}")
    n = out["attempted"]
    timed = sum(1 for s in result["samples"] if s["phase"] in ("measure", "traced"))
    print(f"workload {workload}: {n} simulations ({timed} timed), {out['failed']} failed, "
          f"error_rate {out['failed'] / n:.6g} fraction")
    for key in ("oracle_margin", "theta_margin"):
        values = [s[key] for s in result["samples"] if s[key] is not None]
        if values:
            print(f"  {key} {max(values):.6g} ratio")
    for name, m in out["metrics"].items():
        print(f"  {name} {m['value']:.6g} {m['unit']}")
    if result["trace"] and result["trace"]["absent_layers"]:
        print("  absent layers: " + ", ".join(result["trace"]["absent_layers"]))


def write_report(workload: str, seed: int, trace: bool, env: dict, result: dict, out: dict) -> None:
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{workload}-seed{seed}-trace{int(trace)}")
    report = {"env": env, "result": out, "setup_samples": result["setup_samples"],
              "samples": result["samples"], "trace": result["trace"]}
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    if trace:
        result["tracer"].save(stem + "-spans.npz")


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)["simulations"]


def smoke(cli, seed: int) -> int:
    """Tiny-t_end pass over every workload and both metric sets; 0 when all checks hold."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    problems = []
    for w in bench["workloads"]:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            result = run_workload(cli, w["name"], seed, 0.0, trace, None, SMOKE_T_END, probes=2)
            out = summarize(result)
            print_human(w["name"], result, out)
            if not out["correct"]:
                problems.append(f"{w['name']}: {out['failed']} failed simulations")
            want = {m["name"]: m["unit"] for m in bench[key]}
            got = {k: m["unit"] for k, m in out["metrics"].items()}
            if want != got:
                problems.append(f"{w['name']} {key}: emitted {got}, BENCHMARK.json names {want}")
            if trace:
                t = result["trace"]
                # Spans must tile each simulation: self times add up to its root span,
                # and root spans cover the wall time measured around the calls, up to
                # 1 ms of wrapper cost per simulation.
                gap = t["traced_wall_s"] - t["root_wall_s"]
                if abs(t["self_sum_s"] - t["root_wall_s"]) > 1e-9 * t["root_wall_s"] or not (
                    0.0 <= gap <= 1e-3 * len(t["simulations"])
                ):
                    problems.append(
                        f"{w['name']}: self times sum to {t['self_sum_s']} s, root spans "
                        f"{t['root_wall_s']} s, measured traced wall {t['traced_wall_s']} s"
                    )
    for p in problems:
        print(f"SMOKE FAILED: {p}")
    print("smoke ok" if not problems else "smoke failed")
    return 0 if not problems else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny t_end over every workload")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--t-end", type=float, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    limit_blas_threads()
    if args.setup_probe:
        setup_probe(args.workload, args.seed, args.t_end)
        return 0
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")
    try:
        cli = import_qfiflow()
    except ImportError as exc:
        print(f"error: cannot import qfiflow from {SRC}: {exc}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke(cli, args.seed)
    try:
        reference = load_reference()
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: cannot read {REFERENCE_PATH}: {exc}", file=sys.stderr)
        return 2
    env = environment(args)
    print("env " + json.dumps(env, sort_keys=True))
    result = run_workload(cli, args.workload, args.seed, args.seconds, bool(args.trace), reference)
    out = summarize(result)
    print_human(args.workload, result, out)
    write_report(args.workload, args.seed, bool(args.trace), env, result, out)
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
