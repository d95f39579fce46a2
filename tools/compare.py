"""Paired A/B comparison of two commits on one benchmark workload.

Usage (from the repository root)::

    python3 tools/compare.py --base HEAD~1 --workload fine-time --pairs 10

The base revision and ``HEAD`` are each checked out with ``git worktree
add`` under ``.perfbench_out/compare/`` and measured by their own
``perfbench/run.py`` (which measures the ``src/`` next to it), so nothing
under ``perfbench/`` is edited and uncommitted changes are not measured.
Each run lasts ``BENCHMARK.json``'s ``run_seconds`` unless ``--seconds``
says otherwise.  The untraced runs go in ABBA order -- base then head,
head then base, and so on -- so a linear drift of the machine weighs on
both sides alike.  For each end-to-end
metric of ``BENCHMARK.json`` the tool prints both sides' medians and
quartiles, the median of the paired ratios head/base, the pairs head
wins, and a distribution-free sign-test interval for the median ratio
(`sign_interval`).  Then it runs one traced pass per side and prints every
count-like per-layer metric (any unit but seconds and MiB) that differs.

The last stdout line is one JSON object with the same results.  The exit
code is 0 when every run completed with every op correct, 1 otherwise.
The worktrees are removed at the end.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Per-layer units that are not counts: times and the process's memory.
NOT_COUNTS = ("s", "MiB")
#: Coverage of the sign-test interval.
CONFIDENCE = 0.95


class CompareError(RuntimeError):
    """A git command or a benchmark run failed."""


def _git(repo, *args):
    proc = subprocess.run(["git", "-C", repo, *args], capture_output=True, text=True)
    if proc.returncode != 0:
        raise CompareError(f"git {' '.join(args)}: {proc.stderr.strip()}")
    return proc.stdout.strip()


def sign_interval(ratios, confidence=CONFIDENCE):
    """``(lo, hi, level)``: the sign-test interval for the median ratio.

    With ``n`` ratios sorted, it is ``[r_(k), r_(n+1-k)]`` (1-based) for the
    largest ``k`` whose coverage ``level = 1 - 2 P(B <= k - 1)``, ``B ~
    Binomial(n, 1/2)``, is at least ``confidence`` (Hollander & Wolfe,
    *Nonparametric Statistical Methods*, 3.6).  With too few pairs for that
    (fewer than 6 at 0.95) no order statistic bounds the median, and the
    interval is ``(0, inf)`` at level 1.
    """
    r = sorted(ratios)
    n = len(r)

    def tail(j):  # P(B <= j)
        return sum(math.comb(n, i) for i in range(j + 1)) / 2.0**n

    k = 0
    while k < n // 2 and 1.0 - 2.0 * tail(k) >= confidence:
        k += 1
    if k == 0:
        return 0.0, math.inf, 1.0
    return r[k - 1], r[n - k], 1.0 - 2.0 * tail(k - 1)


def quartiles(values):
    """``[q1, median, q3]`` of the values (all three the value for one)."""
    if len(values) < 2:
        return [values[0]] * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return [q1, q2, q3]


def run_bench(tree, workload, seed, seconds, trace):
    """One ``perfbench/run.py`` call in ``tree``: its last stdout line."""
    proc = subprocess.run(
        [sys.executable, os.path.join(tree, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(int(trace))],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise CompareError(f"perfbench in {tree} exited {proc.returncode}:\n"
                           f"{proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def summarize(spec, base_runs, head_runs):
    """Per end-to-end metric: each side's quartiles, the median ratio, the
    pairs head wins and the ratio's sign-test interval."""
    out = {}
    for metric in spec["end_to_end"]:
        name = metric["name"]
        base = [run["metrics"][name]["value"] for run in base_runs]
        head = [run["metrics"][name]["value"] for run in head_runs]
        ratios = [h / b for b, h in zip(base, head)]
        lower = metric["better"] == "lower"
        wins = sum((h < b) if lower else (h > b) for b, h in zip(base, head))
        lo, hi, level = sign_interval(ratios)
        out[name] = {"unit": metric["unit"], "better": metric["better"],
                     "base_quartiles": quartiles(base),
                     "head_quartiles": quartiles(head),
                     "ratio_median": statistics.median(ratios),
                     "head_wins": wins, "pairs": len(ratios),
                     "interval": [lo, hi], "level": level}
    return out


def count_differences(spec, base_layers, head_layers):
    """``{name: [base, head]}`` for every count-like metric that differs."""
    return {m["name"]: [base_layers[m["name"]]["value"], head_layers[m["name"]]["value"]]
            for m in spec["per_layer"]
            if m["unit"] not in NOT_COUNTS
            and base_layers[m["name"]]["value"] != head_layers[m["name"]]["value"]}


def compare(repo, base, workload, pairs, seed, seconds):
    """Compare ``base`` with ``HEAD`` in worktrees of ``repo``; returns
    the summary.  ``seconds`` None runs the benchmark's own run length."""
    shas = {side: _git(repo, "rev-parse", "--verify", f"{rev}^{{commit}}")
            for side, rev in (("base", base), ("head", "HEAD"))}
    parent = os.path.join(repo, ".perfbench_out", "compare")
    trees = {side: os.path.join(parent, f"{side}-{sha[:12]}")
             for side, sha in shas.items()}
    try:
        for side, tree in trees.items():
            shutil.rmtree(tree, ignore_errors=True)
            _git(repo, "worktree", "prune")
            _git(repo, "worktree", "add", "--detach", "--force", tree, shas[side])
        with open(os.path.join(trees["head"], "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        if seconds is None:
            seconds = spec["run_seconds"]
        print(f"base {shas['base'][:12]}, head {shas['head'][:12]}, workload "
              f"{workload}, {pairs} pairs, seed {seed}, --seconds {seconds}")
        runs = {"base": [], "head": []}
        failed = 0
        for k in range(pairs):
            order = ("base", "head") if k % 2 == 0 else ("head", "base")
            for side in order:
                result = run_bench(trees[side], workload, seed, seconds, False)
                failed += result["failed"] + (not result["correct"])
                runs[side].append(result)
            values = "  ".join(
                f"{m['name']} {runs['base'][-1]['metrics'][m['name']]['value']:.4g}"
                f" -> {runs['head'][-1]['metrics'][m['name']]['value']:.4g}"
                for m in spec["end_to_end"])
            print(f"pair {k + 1} ({order[0]} first): {values}")
        metrics = summarize(spec, runs["base"], runs["head"])
        traced = {side: run_bench(trees[side], workload, seed, 0, True)
                  for side in ("base", "head")}
        failed += sum(t["failed"] + (not t["correct"]) for t in traced.values())
        counts = count_differences(spec, traced["base"]["metrics"],
                                   traced["head"]["metrics"])
    finally:
        for tree in trees.values():
            subprocess.run(["git", "-C", repo, "worktree", "remove", "--force", tree],
                           capture_output=True)
        _git(repo, "worktree", "prune")
    return {"base": shas["base"], "head": shas["head"], "workload": workload,
            "pairs": pairs, "seed": seed, "failed": failed, "metrics": metrics,
            "count_differences": counts}


def report(summary):
    def spread(q):
        return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"

    print("metric: base median [quartiles] -> head median [quartiles]; median "
          "ratio head/base; pairs head wins; sign-test interval (level)")
    for name, m in summary["metrics"].items():
        lo, hi = m["interval"]
        print(f"{name}: {spread(m['base_quartiles'])} -> "
              f"{spread(m['head_quartiles'])}; {m['ratio_median']:.4f}; "
              f"{m['head_wins']}/{m['pairs']}; [{lo:.4f}, {hi:.4f}] "
              f"({100 * m['level']:.1f}%)")
    counts = summary["count_differences"]
    print(f"traced counts: {len(counts)} differ" + "".join(
        f"\n  {name}: {b} -> {h}" for name, (b, h) in sorted(counts.items())))
    if summary["failed"]:
        print(f"{summary['failed']} failed ops or incorrect runs")


def build_parser():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision to compare HEAD with")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=None,
                        help="run.py --seconds of each untraced run; by default "
                        "BENCHMARK.json's run_seconds, 0 for one pass")
    parser.add_argument("--repo", default=ROOT, help="the git repository")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.pairs < 1:
        print("compare: need at least one pair", file=sys.stderr)
        return 2
    try:
        summary = compare(args.repo, args.base, args.workload, args.pairs,
                          args.seed, args.seconds)
    except CompareError as exc:
        print(f"compare: {exc}", file=sys.stderr)
        return 1
    report(summary)
    print(json.dumps(summary))
    return 0 if not summary["failed"] else 1


if __name__ == "__main__":
    sys.exit(main())
