"""Record the reference values the benchmark's output checks compare against.

Usage (from the repository root, at the commit whose numbers are the
reference)::

    python3 perfbench/record_reference.py

Runs one untraced pass of every workload at seed 42 and writes λ*, σ* and
the branch λ column of each to ``perfbench/reference.json``.  Ops that
report the same quantity (``extended`` and ``branch`` both report λ*) must
agree within the check tolerance.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run

SEED = 42


def record(workload):
    lines, commands, points = run.WORKLOADS[workload]
    workdir = os.path.join(run.OUT, f"reference-{workload}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    config = os.path.join(workdir, "run.cfg")
    with open(config, "w", encoding="utf-8") as handle:
        handle.write("".join(line + "\n" for line in lines))
    result = run.run_worker(os.path.join(workdir, "pass"), config, commands, SEED)
    values = {}
    for op in result["ops"]:
        if op["error"] or op["exit_code"] != 0 or run.report_problems(op, points):
            raise SystemExit(f"{workload}: {op['command']} failed: {op}")
        for key, value in run.op_values(op).items():
            values.setdefault(key, value)
            if run.value_problems({key: value}, values):
                raise SystemExit(f"{workload}: ops disagree on {key}")
    return values


def main():
    reference = {name: record(name) for name in run.WORKLOADS}
    path = os.path.join(run.HERE, "reference.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=2)
        handle.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
