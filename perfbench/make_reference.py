#!/usr/bin/env python3
"""Regenerate ``reference.json``: the fingerprint of every simulation a seed can produce.

    python3 perfbench/make_reference.py

Run from the repository root, on a commit whose outputs are trusted.  Each
simulation runs once at the workload's full settings; its QFI at eleven
grid points, summary maxima and check values are recorded with the hash of
its config.  The benchmark fails a simulation that strays from these by more
than ``run.RTOL`` of their scale.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

import run
import workloads


def main() -> int:
    run.limit_blas_threads()
    cli = run.import_qfiflow()
    import numpy

    os.makedirs(run.TMP_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="reference-", dir=run.TMP_DIR)
    simulations = {}
    try:
        runner = run.Runner(cli, workloads.all_specs(), workdir, None)
        for spec in runner.specs:
            sample = runner.run(spec, "reference")
            if sample["failures"]:
                print(f"{spec.sim_id}: {sample['failures']}", file=sys.stderr)
                return 1
            with open(runner.path(spec, "csv"), "rb") as fh:
                csv_bytes = fh.read()
            with open(runner.path(spec, "summary.json"), "rb") as fh:
                summary = json.load(fh)
            simulations[spec.sim_id] = run.fingerprint(spec, csv_bytes, summary)
            print(f"{spec.sim_id}: {sample['wall_s']:.2f} s, oracle margin {sample['oracle_margin']:.4g}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    doc = {
        "made_with": {"git_commit": run.git_commit(), "numpy": numpy.__version__,
                      "python": run.platform.python_version()},
        "rtol": run.RTOL,
        "simulations": simulations,
    }
    sims = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in simulations.items())
    head = json.dumps({k: v for k, v in doc.items() if k != "simulations"})[:-1]
    with open(run.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        fh.write(f'{head}, "simulations": {{\n{sims}\n}}}}\n')
    return 0


if __name__ == "__main__":
    sys.exit(main())
