"""hopfkit benchmark: time to a certified branch on three workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload production --seed 42 --seconds 20 --trace 0

Each pass runs the workload's CLI commands back to back in one fresh
Python process (``worker.py``) whose BLAS/OpenMP pools are pinned to one
thread before numpy is imported: a closed loop with one client.  Passes
repeat until ``--seconds`` have elapsed (at least one).  Set-up time is
also measured in separate set-up-only processes, after one warm-up process
that is not counted.  Every op (one command invocation) is checked against
its reports and against the values recorded from the seed commit in
``reference.json``.

With ``--trace 0`` the last stdout line reports the end-to-end metrics;
with ``--trace 1`` each pass is an untraced and a traced process, and the
line reports the per-layer metrics of the traced one plus the tracing
overhead.  Metric names and units come from ``BENCHMARK.json``.  Full
results, spans and the recorded environment are written under
``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

#: One thread for every BLAS/OpenMP pool, set before numpy is imported.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}

#: Set-up-only processes per run, besides the pass processes.
SETUP_REPEATS = 5

#: Accuracy the outputs must meet (the acceptance suite's contract).
VALUE_TOL = 1e-8

WORKER_TIMEOUT_S = 170

#: name -> (config lines, commands, expected branch points or None).
#: Keys not listed keep their defaults.
WORKLOADS = {
    # What users run, with the exact oracle: band LU and band products.
    "production": ([], ["check", "extended", "branch", "verify-exact"], 11),
    # Newton iterates and the band is wide (h_stencil = 2): band assembly.
    "quasilinear": ([
        "problem.variant = quasilinear",
        "problem.L = 20",
        "problem.dx = 0.2",
        "solver.alpha_max = 0.1",
        "solver.alpha_steps = 8",
    ], ["check", "branch"], 9),
    # One ~1 GB band and a single dgbtrf per solve: memory and kernel.
    "fine-time": (["solver.n_t = 32"], ["verify-exact"], None),
}

COMMAND_METRICS = {
    "check": "check_s",
    "extended": "extended_s",
    "branch": "branch_s",
    "verify-exact": "verify_exact_s",
}


class BenchError(RuntimeError):
    """A worker process failed to produce a result."""


# ---------------------------------------------------------------------------
# processes


def run_worker(workdir, config, commands, seed, trace=False):
    """Run one fresh worker process and return its result dict."""
    os.makedirs(workdir, exist_ok=True)
    spec_path = os.path.join(workdir, "spec.json")
    result_path = os.path.join(workdir, "result.json")
    env = dict(os.environ, **THREAD_ENV)
    # Cache bytecode, as an installed package has it, but inside the checkout.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = os.path.join(OUT, "pycache")
    spec = {"src": SRC, "config": config, "commands": commands, "seed": seed,
            "outdir": workdir, "trace": trace, "result": result_path}
    with open(os.path.join(workdir, "worker.log"), "w", encoding="utf-8") as log:
        spec["t0"] = time.time()
        with open(spec_path, "w", encoding="utf-8") as handle:
            json.dump(spec, handle)
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py"), spec_path],
            env=env, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT,
        )
        try:
            code = proc.wait(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise BenchError(f"worker in {workdir} timed out") from None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if code != 0 or not os.path.exists(result_path):
        with open(os.path.join(workdir, "worker.log"), encoding="utf-8") as log:
            tail = log.read()[-2000:]
        raise BenchError(f"worker in {workdir} exited {code}:\n{tail}")
    with open(result_path, encoding="utf-8") as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# output checks


def _load_json(outdir, name):
    with open(os.path.join(outdir, name), encoding="utf-8") as handle:
        return json.load(handle)


def _csv_column(outdir, name, column):
    with open(os.path.join(outdir, name), encoding="utf-8", newline="") as handle:
        return [float(row[column]) for row in csv.DictReader(handle)]


def op_values(op):
    """The numbers an op reports that must match the seed commit."""
    outdir, command = op["outdir"], op["command"]
    if command == "extended":
        report = _load_json(outdir, "extended.json")
        return {"lambda_star": report["lambda"], "sigma_star": report["sigma"]}
    if command == "branch":
        report = _load_json(outdir, "branch_summary.json")["extended"]
        return {"lambda_star": report["lambda"], "sigma_star": report["sigma"],
                "branch_lambda": _csv_column(outdir, "branch.csv", "lambda")}
    if command == "verify-exact":
        return {"branch_lambda": _csv_column(
            outdir, "exact_comparison.csv", "lambda_computed")}
    return {}


def report_problems(op, points):
    outdir, command = op["outdir"], op["command"]
    problems = []
    if command in ("check", "branch"):
        if _load_json(outdir, "hypotheses.json").get("all_passed") is not True:
            problems.append("hypotheses.json: all_passed is not true")
    if command == "extended":
        report = _load_json(outdir, "extended.json")
        if report.get("converged") is not True:
            problems.append("extended.json: not converged")
        if report.get("jacobian", {}).get("nonsingular") is not True:
            problems.append("extended.json: jacobian not nonsingular")
    if command == "branch":
        summary = _load_json(outdir, "branch_summary.json")
        if summary.get("passed") is not True:
            problems.append("branch_summary.json: not passed")
        if summary.get("truncated") is not False:
            problems.append("branch_summary.json: truncated")
        if summary.get("points") != points:
            problems.append(
                f"branch_summary.json: {summary.get('points')} points, "
                f"expected {points}")
    if command == "verify-exact":
        summary = _load_json(outdir, "exact_summary.json")
        if summary.get("passed") is not True:
            problems.append("exact_summary.json: not passed")
        for key in ("max_lambda_error", "max_state_error"):
            if not summary.get(key, float("inf")) <= VALUE_TOL:
                problems.append(f"exact_summary.json: {key} = {summary.get(key)}")
    return problems


def value_problems(values, reference):
    problems = []
    for key, got in values.items():
        want = reference[key]
        if isinstance(want, list):
            if len(got) != len(want):
                problems.append(f"{key}: {len(got)} values, expected {len(want)}")
                continue
            worst = max(abs(a - b) for a, b in zip(got, want))
        else:
            worst = abs(got - want)
        if not worst <= VALUE_TOL:
            problems.append(f"{key}: off the seed commit by {worst:.3e}")
    return problems


def check_op(op, points, reference):
    """Problems found with one op; empty when it passes."""
    if op["error"] is not None:
        return [op["error"].strip().splitlines()[-1]]
    problems = []
    if op["exit_code"] != 0:
        problems.append(f"exit code {op['exit_code']}")
    try:
        problems += report_problems(op, points)
        problems += value_problems(op_values(op), reference)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        problems.append(f"unreadable report: {exc!r}")
    return problems


def report_bytes(ops):
    """Bytes of reports the ops wrote, less the width of the one wall time.

    ``branch_summary.json`` records the continuation's wall time, whose
    printed width varies from run to run; it is left out so the count
    repeats exactly.
    """
    total = 0
    for op in ops:
        for name in os.listdir(op["outdir"]):
            total += os.path.getsize(os.path.join(op["outdir"], name))
        if op["command"] == "branch":
            seconds = _load_json(op["outdir"], "branch_summary.json")["seconds"]
            total -= len(json.dumps(seconds))
    return total


# ---------------------------------------------------------------------------
# one run


def _median(values):
    return statistics.median(values) if values else 0.0


def command_times(passes):
    """Median seconds per command metric name over the passes (0 if unused)."""
    times = {name: [] for name in COMMAND_METRICS.values()}
    for result in passes:
        for op in result["ops"]:
            times[COMMAND_METRICS[op["command"]]].append(op["seconds"])
    return {name: _median(values) for name, values in times.items()}


def end_to_end(passes, setups):
    return {
        "setup_s": _median([r["setup_s"] for r in passes + setups]),
        "workflow_s": _median([r["workflow_s"] for r in passes]),
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in passes]),
    }


def layer_metrics(plain, traced):
    """Per-layer metrics of the traced passes plus the tracing overhead."""
    layers = traced[0]["layers"]
    metrics = {name: _median([r["layers"][name] for r in traced]) for name in layers}
    metrics["cli.report_bytes"] = report_bytes(traced[0]["ops"])
    untraced = {**end_to_end(plain, []), **command_times(plain)}
    with_trace = {**end_to_end(traced, []), **command_times(traced)}
    for name, value in untraced.items():
        if name in COMMAND_METRICS.values():
            metrics[f"cli.{name}"] = value
        metrics[f"overhead.{name}"] = with_trace[name] - value
    return metrics


def run_benchmark(workload, seed, seconds, trace, workdir, reference):
    """Run one benchmark run; returns (summary dict, list of op failures)."""
    lines, commands, points = WORKLOADS[workload]
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    config = os.path.join(workdir, "run.cfg")
    with open(config, "w", encoding="utf-8") as handle:
        handle.write("".join(line + "\n" for line in lines))

    # Warm-up, not counted: writes the bytecode cache and fills the file cache.
    run_worker(os.path.join(workdir, "warmup"), config, [], seed)
    setups = []
    if not trace:
        setups = [run_worker(os.path.join(workdir, f"setup{k}"), config, [], seed)
                  for k in range(SETUP_REPEATS)]

    plain, traced = [], []
    started = time.monotonic()
    while not plain or time.monotonic() - started < seconds:
        k = len(plain)
        plain.append(run_worker(os.path.join(workdir, f"pass{k}"),
                                config, commands, seed))
        if trace:
            traced.append(run_worker(os.path.join(workdir, f"traced{k}"),
                                     config, commands, seed, trace=True))

    failures = []
    attempted = 0
    for result in plain + traced:
        for op in result["ops"]:
            attempted += 1
            problems = check_op(op, points, reference)
            if problems:
                failures.append({"outdir": op["outdir"], "problems": problems})

    summary = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "passes": len(plain),
        "attempted": attempted,
        "failed": len(failures),
        "end_to_end": end_to_end(plain, setups),
        "command_s": command_times(plain),
        "environment": plain[0]["environment"],
    }
    if trace:
        summary["layers"] = layer_metrics(plain, traced)
    return summary, failures


# ---------------------------------------------------------------------------
# entry point


def git_commit():
    """The checked-out commit read from ``.git``, or None outside a clone."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def metric_spec(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return spec["per_layer" if trace else "end_to_end"]


def build_parser():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    # Turn SIGTERM into SystemExit so a running worker is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isdir(os.path.join(SRC, "hopfkit")):
        print(f"perfbench: no hopfkit sources under {SRC}", file=sys.stderr)
        return 2
    wanted = metric_spec(args.trace)
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as handle:
        reference = json.load(handle)[args.workload]

    workdir = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    try:
        summary, failures = run_benchmark(
            args.workload, args.seed, args.seconds, bool(args.trace),
            workdir, reference)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    summary["environment"].update(seed=args.seed, git_commit=git_commit())
    summary["failures"] = failures
    with open(os.path.join(workdir, "summary.json"), "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=2)

    values = summary["layers"] if args.trace else summary["end_to_end"]
    for failure in failures:
        print(f"FAILED {failure['outdir']}: {'; '.join(failure['problems'])}")
    print("environment: " + json.dumps(summary["environment"], sort_keys=True))
    print("command_s (median over passes): " + json.dumps(summary["command_s"]))
    print(json.dumps({
        "correct": not failures,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
