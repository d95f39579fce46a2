"""Tests of the benchmark itself: traced counts repeat exactly.

Run from the repository root with ``python3 -m pytest -q perfbench``.  Each
workload runs its own commands on a tiny grid (the smoke configs below), so
the whole file takes well under a minute.
"""

from __future__ import annotations

import json
import os

import pytest

import run
import spans

#: Tiny grids: the workload's commands and layers at a fraction of the cost.
SMOKE = {
    "production": ["problem.L = 20", "problem.dx = 0.2", "solver.n_t = 4",
                   "solver.alpha_max = 0.2", "solver.alpha_steps = 4"],
    "quasilinear": ["problem.variant = quasilinear", "problem.L = 20",
                    "problem.dx = 0.2", "solver.n_t = 4",
                    "solver.alpha_max = 0.1", "solver.alpha_steps = 4"],
    "fine-time": ["problem.L = 20", "problem.dx = 0.2", "solver.n_t = 6",
                  "solver.alpha_max = 0.2", "solver.alpha_steps = 4"],
}

_SOLVE = {
    "spectral.build_projection", "spectral.eigenpair_near", "spectral.splu",
    "solver.solve_extended", "trajectory.sample_values",
    "trajectory.trajectory_from_samples", "problem.linearised_g",
}
_CONTINUE = _SOLVE | {
    "solver.continue_branch", "problem.residual_g",
    "newton.assemble_jacobian_band", "newton.bordered_solve",
    "newton.dgbtrf", "newton.dgbtrs",
}
_CHECK = {
    "config.load_config", "reaction_diffusion.make_problem",
    "spectral.run_hypothesis_checks", "problem.check_derivatives",
    "spectral.eigenpair_near", "spectral.check_simplicity",
    "spectral.crossing_speed", "spectral.resolvent_scan",
    "spectral.resolvent_norm", "spectral.splu", "spectral.build_projection",
}

#: Layer spans each command must reach.
COMMAND_SPANS = {
    "check": _CHECK,
    "extended": _SOLVE | {
        "solver.verify_jacobian_nonsingular", "newton.assemble_jacobian_band",
        "newton.bordered_solve", "newton.bordered_solve_transpose",
        "newton.matvec", "newton.rmatvec", "newton.dgbtrf", "newton.dgbtrs",
        "solver.decompose_crossing_term", "linear_periodic.solve_periodic_full",
    },
    "branch": _CHECK | _CONTINUE | {"solver.check_branch_symmetry"},
    "verify-exact": _CONTINUE,
}

#: Counters each command must move.
COMMAND_COUNTERS = {
    "check": set(),
    "extended": {"solver.certificate_power_iters", "newton.band_kl",
                 "newton.band_mb", "newton.dgbtrf_gflop",
                 "newton.solves_per_factorization"},
    "branch": {"solver.branch_newton_iters", "solver.symmetry_factorizations",
               "newton.band_kl", "newton.band_mb", "newton.dgbtrf_gflop",
               "newton.solves_per_factorization"},
    "verify-exact": {"solver.branch_newton_iters", "newton.band_kl",
                     "newton.band_mb", "newton.dgbtrf_gflop",
                     "newton.solves_per_factorization"},
}

EXACT = ("newton.band_kl", "newton.band_mb", "newton.dgbtrf_retries",
         "newton.dgbtrf_gflop", "solver.symmetry_factorizations",
         "cli.report_bytes")


def _smoke_passes(workload, workdir):
    """One untraced and two traced smoke passes of a workload."""
    _, commands, _ = run.WORKLOADS[workload]
    os.makedirs(workdir)
    config = os.path.join(workdir, "run.cfg")
    with open(config, "w", encoding="utf-8") as handle:
        handle.write("".join(line + "\n" for line in SMOKE[workload]))
    plain = run.run_worker(os.path.join(workdir, "plain"), config, commands, 7)
    traced = [
        run.run_worker(os.path.join(workdir, f"traced{k}"), config, commands, 7,
                       trace=True)
        for k in range(2)
    ]
    return commands, plain, traced


@pytest.fixture(scope="module", params=sorted(run.WORKLOADS))
def smoke(request, tmp_path_factory):
    workdir = tmp_path_factory.mktemp("perfbench") / request.param
    return (request.param, *_smoke_passes(request.param, str(workdir)))


def _with_bytes(result):
    return dict(result["layers"], **{"cli.report_bytes": run.report_bytes(result["ops"])})


def test_counts_repeat_exactly(smoke):
    _, _, _, traced = smoke
    first, second = (_with_bytes(r) for r in traced)
    counted = [name for name in first
               if name.endswith(("_calls", "_iters")) or name in EXACT]
    assert len(counted) > len(spans.LAYER_SPANS)
    assert {n: first[n] for n in counted} == {n: second[n] for n in counted}


def test_layers_present_where_they_run(smoke):
    _, commands, _, traced = smoke
    layers = traced[0]["layers"]
    for command in commands:
        for name in COMMAND_SPANS[command]:
            assert layers[f"{name}_calls"] > 0, (command, name)
            assert layers[f"{name}_s"] > 0.0, (command, name)
        for name in COMMAND_COUNTERS[command]:
            assert layers[name] > 0, (command, name)
    assert run.report_bytes(traced[0]["ops"]) > 0


def test_metrics_match_benchmark_json(smoke):
    _, commands, plain, traced = smoke
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    per_layer = run.layer_metrics([plain], traced)
    assert sorted(m["name"] for m in spec["per_layer"]) == sorted(per_layer)
    end_to_end = run.end_to_end([plain], [])
    assert sorted(m["name"] for m in spec["end_to_end"]) == sorted(end_to_end)
    assert all(value > 0 for value in end_to_end.values())
    for result in [plain] + traced:
        assert [op["command"] for op in result["ops"]] == commands
        assert all(op["error"] is None for op in result["ops"])
