"""Tests of ``tools/compare.py``; run like the benchmark's own tests::

    python -m pytest -q tools

One test compares HEAD with itself on the real benchmark (about half a
minute); the others use a two-commit repository whose ``perfbench/run.py``
prints fixed numbers.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import compare  # noqa: E402

FAKE_SPEC = {
    "end_to_end": [{"name": "workflow_s", "unit": "s", "better": "lower"},
                   {"name": "peak_rss_mb", "unit": "MiB", "better": "lower"}],
    "per_layer": [{"name": "cli.calls", "unit": "count", "better": "lower"},
                  {"name": "cli.check_s", "unit": "s", "better": "lower"}],
}

FAKE_RUN = """import json, sys
WORKFLOW_S, CALLS = {workflow_s}, {calls}
trace = sys.argv[sys.argv.index("--trace") + 1] == "1"
metrics = ({{"cli.calls": CALLS, "cli.check_s": WORKFLOW_S}} if trace else
           {{"workflow_s": WORKFLOW_S, "peak_rss_mb": 70.0}})
print(json.dumps({{"correct": True, "attempted": 1, "failed": 0, "metrics": {{
    name: {{"value": value, "unit": "x"}} for name, value in metrics.items()}}}}))
"""


def _git(repo, *args):
    subprocess.run(["git", "-C", str(repo), *args], check=True, capture_output=True)


@pytest.fixture
def fake_repo(tmp_path):
    """A repository of two commits: the second one's runs take 1.25 times
    as long and make one more call."""
    repo = tmp_path / "repo"
    (repo / "perfbench").mkdir(parents=True)
    (repo / "BENCHMARK.json").write_text(json.dumps(FAKE_SPEC))
    _git(repo, "init", "-q")
    for workflow_s, calls in ((0.4, 3), (0.5, 4)):
        (repo / "perfbench" / "run.py").write_text(
            FAKE_RUN.format(workflow_s=workflow_s, calls=calls))
        _git(repo, "add", "-A")
        _git(repo, "-c", "user.name=t", "-c", "user.email=t@t", "commit", "-qm",
             f"calls {calls}")
    return repo


def test_sign_interval_takes_the_order_statistics_of_its_level():
    ratios = [1.0 + k / 100 for k in range(10)]
    lo, hi, level = compare.sign_interval(list(reversed(ratios)))
    assert (lo, hi) == (ratios[1], ratios[8])  # k = 2 of 10 at 95%
    assert level == 1.0 - 2.0 * 11 / 1024
    assert compare.sign_interval(ratios[:6]) == (ratios[0], ratios[5], 1.0 - 2.0 / 64)
    assert compare.sign_interval(ratios[:5]) == (0.0, math.inf, 1.0)
    assert compare.sign_interval(ratios, confidence=0.99)[:2] == (ratios[0], ratios[9])


def test_a_slower_head_loses_every_pair(fake_repo, capsys):
    code = compare.main(["--repo", str(fake_repo), "--base", "HEAD~1",
                         "--workload", "any", "--pairs", "6", "--seconds", "0"])
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0 and summary["failed"] == 0
    slower = summary["metrics"]["workflow_s"]
    assert slower["head_wins"] == 0 and slower["ratio_median"] == 1.25
    assert slower["interval"] == [1.25, 1.25]
    same = summary["metrics"]["peak_rss_mb"]
    assert same["head_wins"] == 0 and same["interval"] == [1.0, 1.0]
    assert summary["count_differences"] == {"cli.calls": [3, 4]}
    listed = subprocess.run(["git", "-C", str(fake_repo), "worktree", "list"],
                            capture_output=True, text=True, check=True).stdout
    assert len(listed.strip().splitlines()) == 1  # the worktrees are removed


def test_head_against_head(capsys):
    """The real benchmark, HEAD against itself: every op is correct, no
    traced count differs, and every interval contains 1 (two pairs bound
    no median at 95%, so each is the whole half-line)."""
    code = compare.main(["--base", "HEAD", "--workload", "fine-time", "--pairs", "2",
                         "--seconds", "0"])
    out = capsys.readouterr().out
    summary = json.loads(out.strip().splitlines()[-1])
    assert code == 0 and summary["failed"] == 0, out
    assert summary["base"] == summary["head"]
    assert summary["count_differences"] == {}
    for metric in summary["metrics"].values():
        lo, hi = metric["interval"]
        assert lo <= 1.0 <= hi
        assert metric["base_quartiles"][0] > 0 and metric["head_quartiles"][0] > 0
