"""Command-line driver around the library: hypothesis reports, bifurcation
solves, branch continuation, and closed-form verification.

Usage::

    hopfkit check        --config run.cfg [--out DIR] [--seed N] ...
    hopfkit extended     --config run.cfg ...
    hopfkit branch       --config run.cfg [--skip-check] ...
    hopfkit verify-exact --config run.cfg ...

Exit codes form a stable contract: 0 on success, 1 when the science fails
(a hypothesis verdict is false, a tolerance is breached, Newton gives up),
2 on usage or configuration errors, and when a report cannot be written.
Reports are still written on exit 1 so the failure can be inspected.

All outputs are deterministic for a fixed config and ``--seed`` (the seed
feeds the randomized norm estimates and is echoed in every JSON report).
Files are written atomically (temp file + rename) so a crashed run never
leaves a truncated report behind.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time

import numpy as np

from .config import ConfigError, build_problem, load_config
from .problem import ConvergenceError
from .reaction_diffusion import exact_branch_trajectory, reference_eigenvector
from .solver import (
    check_branch_symmetry,
    continue_branch,
    decompose_crossing_term,
    fit_branch_curvature,
    initial_extended_state,
    solve_extended,
    verify_jacobian_nonsingular,
)
from .spectral import (
    DegeneratePairingError,
    _projection_from_pair,
    build_projection,
    run_hypothesis_checks,
)
from .trajectory import build_amplitude_functional

EXIT_OK = 0
EXIT_SCIENCE = 1
EXIT_USAGE = 2

#: Error-constant cap for standard-stencil verification: the branch is
#: accepted when the worst pointwise error is below ``cap * dx**2``.
STANDARD_MODE_ERROR_CAP = 0.1
CONSISTENT_MODE_TOLERANCE = 1e-8


# ---------------------------------------------------------------------------
# output plumbing


class _ReportWriteError(OSError):
    """A report could not be written; `main` exits 2 with its message."""


def _write_atomic(path, text):
    directory = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-hopfkit-")
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        # mkstemp creates the file 0600; a report gets the mode open() would.
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise _ReportWriteError(f"cannot write {path}: {exc}") from exc
        raise


def _write_json(path, obj):
    _write_atomic(path, json.dumps(obj, indent=2) + "\n")


def _write_csv(path, rows):
    _write_atomic(path, "\n".join(",".join(row) for row in rows) + "\n")


class _Reporter:
    def __init__(self, verbosity):
        self.verbosity = verbosity

    def info(self, message):
        if self.verbosity >= 1:
            print(message)

    def detail(self, message):
        if self.verbosity >= 2:
            print(message)


# ---------------------------------------------------------------------------
# shared pieces


def _bifurcation_point(run_config, problem, outdir, seed, reporter, report,
                       failure, located=None):
    """Projection, amplitude functional and the extended Newton solve.

    ``located``: the critical pair and its adjoint, if the checks found them.
    Returns ``(decomp, functional, solution)``; when the eigen iteration,
    the projection or the solve fails, writes the failure report
    ``report``, prints ``failure`` with the error and returns ``None``.
    """
    try:
        reference = reference_eigenvector(run_config.problem)
        decomp = (build_projection(problem, reference=reference)
                  if located is None else
                  _projection_from_pair(problem, *located, reference))
        functional = build_amplitude_functional(decomp.psi, decomp.phi_adj)
        solution = solve_extended(
            problem, functional,
            initial_extended_state(decomp.psi, n_t=run_config.solver.n_t),
            newton_tol=run_config.solver.newton_tol,
            max_iter=run_config.solver.max_iter,
        )
    except (ConvergenceError, DegeneratePairingError) as exc:
        _write_json(os.path.join(outdir, report), {
            "schema": 1, "seed": seed, "converged": False, "error": str(exc),
        })
        reporter.info(f"{failure} ({exc})")
        return None
    return decomp, functional, solution


def _configured_branch(run_config, problem, functional, solution):
    """The configured branch from the solved point."""
    solver = run_config.solver
    return continue_branch(
        problem, functional, solution.u,
        alpha_max=solver.alpha_max, steps=solver.alpha_steps,
        newton_tol=solver.newton_tol, max_iter=solver.max_iter,
        params_star=solution.params,
    )


# ---------------------------------------------------------------------------
# subcommands


def _check(run_config, problem, outdir, seed, reporter):
    """`check`'s reports and verdict line; returns the `HypothesisReport`."""
    report = run_hypothesis_checks(
        problem, n_max=run_config.solver.n_max_resolvent, seed=seed
    )
    obj = report.to_json_dict()
    obj["seed"] = seed
    _write_json(os.path.join(outdir, "hypotheses.json"), obj)
    if run_config.output.format == "csv":
        rows = [["n", "norm_estimate", "weighted"]]
        rows += [
            [str(row.n), repr(row.norm_estimate), repr(row.weighted)]
            for row in report.resolvent_table
        ]
        _write_csv(os.path.join(outdir, "resolvent.csv"), rows)
    for line in report.summary_lines():
        reporter.detail(line)
    verdict = "pass" if report.all_passed else "FAIL"
    reporter.info(f"check: {verdict} ({os.path.join(outdir, 'hypotheses.json')})")
    return report


def cmd_check(run_config, problem, outdir, seed, reporter, args):
    report = _check(run_config, problem, outdir, seed, reporter)
    return EXIT_OK if report.all_passed else EXIT_SCIENCE


def cmd_extended(run_config, problem, outdir, seed, reporter, args):
    point = _bifurcation_point(
        run_config, problem, outdir, seed, reporter, "extended.json",
        "extended: bifurcation-point solve failed")
    if point is None:
        return EXIT_SCIENCE
    decomp, functional, solution = point
    certificate = verify_jacobian_nonsingular(
        problem, functional, solution.u, seed=seed
    )
    obj = {
        "schema": 1,
        "seed": seed,
        "converged": True,
        "lambda": solution.params.lam,
        "sigma": solution.params.sigma,
        "iterations": solution.iterations,
        "residual": solution.residual,
        "newton_notes": list(solution.notes),
        "jacobian": {
            "sigma_min": certificate.smallest_singular_value,
            "nonsingular": certificate.nonsingular,
            "leakage": certificate.leakage,
            "tolerance": certificate.tolerance,
            "sigma_min_by_mode": certificate.sigma_min_by_mode,
            "skew_bound": certificate.skew_bound,
        },
    }
    try:
        crossing = decompose_crossing_term(problem, decomp)
        obj["crossing"] = {
            "p": crossing.p,
            "q": crossing.q,
            "reconstruction_residual": crossing.reconstruction_residual,
        }
    except (ValueError, RuntimeError) as exc:
        obj["crossing"] = {"error": str(exc)}
    _write_json(os.path.join(outdir, "extended.json"), obj)

    reporter.info(
        f"extended: lambda = {solution.params.lam:.6e}, "
        f"sigma = {solution.params.sigma:.6e}, "
        f"{solution.iterations} iterations; {certificate.summary()}"
    )
    return EXIT_OK if certificate.nonsingular else EXIT_SCIENCE


def cmd_branch(run_config, problem, outdir, seed, reporter, args):
    located = None
    if not args.skip_check:
        report = _check(run_config, problem, outdir, seed, reporter)
        if not report.all_passed:
            reporter.info("branch: aborted, hypothesis checks failed")
            return EXIT_SCIENCE
        located = (report.eig_plus, report.eig_adjoint)

    point = _bifurcation_point(
        run_config, problem, outdir, seed, reporter, "branch_summary.json",
        "branch: bifurcation-point solve failed", located)
    if point is None:
        return EXIT_SCIENCE
    _, functional, solution = point
    started = time.perf_counter()
    result = _configured_branch(run_config, problem, functional, solution)
    elapsed = time.perf_counter() - started

    summary = {
        "schema": 1,
        "seed": seed,
        "converged": True,
        "extended": {
            "lambda": solution.params.lam,
            "sigma": solution.params.sigma,
            "iterations": solution.iterations,
            "residual": solution.residual,
        },
        "points": len(result.points),
        "truncated": result.truncated,
        "notes": list(result.notes),
        "seconds": elapsed,
        "newton_space": result.newton_space,
        "newton_max_mode": result.newton_max_mode,
        "factorizations": result.factorizations,
    }

    passed = not result.truncated
    symmetry = None
    if len(result.points) >= 4 and not result.truncated:
        fit = fit_branch_curvature(result)
        summary["fit"] = {
            "c1": fit.c1, "c2": fit.c2, "s1": fit.s1, "s2": fit.s2,
            "max_fit_residual": fit.max_fit_residual, "ok": fit.ok,
        }
        passed = passed and fit.ok
        try:
            symmetry = check_branch_symmetry(problem, functional, result)
            summary["symmetry"] = symmetry.to_json_dict()
            passed = passed and symmetry.passed
        except ConvergenceError as exc:
            summary["symmetry"] = {"error": str(exc)}
            passed = False

    if run_config.output.format == "json":
        _write_json(
            os.path.join(outdir, "branch.json"),
            result.to_json_dict(),
        )
    else:
        _write_csv(os.path.join(outdir, "branch.csv"), result.to_csv_rows())
    summary["passed"] = passed
    _write_json(os.path.join(outdir, "branch_summary.json"), summary)

    line = (f"branch: {len(result.points)} points in {elapsed:.1f}s, "
            + ("PASS" if passed else "FAIL"))
    if reporter.verbosity >= 2:
        line += (f"; newton space: {result.newton_space} up to mode "
                 f"{result.newton_max_mode}; continuation: "
                 f"{result.factorizations} factorizations")
        if symmetry is not None:
            line += (f"; symmetry check: {symmetry.newton_iters} Newton "
                     f"iterations, {symmetry.factorizations} factorizations")
    reporter.info(line)
    for note in result.notes:
        reporter.info(f"  note: {note}")
    return EXIT_OK if passed else EXIT_SCIENCE


def cmd_verify_exact(run_config, problem, outdir, seed, reporter, args):
    if run_config.problem.variant != "semilinear":
        print(
            "verify-exact: no closed-form branch for variant "
            f"{run_config.problem.variant!r}",
            file=sys.stderr,
        )
        return EXIT_USAGE

    point = _bifurcation_point(
        run_config, problem, outdir, seed, reporter, "exact_summary.json",
        "verify-exact: bifurcation-point solve failed")
    if point is None:
        return EXIT_SCIENCE
    _, functional, solution = point
    result = _configured_branch(run_config, problem, functional, solution)

    rows = [["alpha", "lambda_computed", "lambda_exact", "abs_err"]]
    max_lambda_err = 0.0
    max_state_err = 0.0
    for pt in result.points:
        lam_exact = pt.alpha**2
        err = abs(pt.lam - lam_exact)
        max_lambda_err = max(max_lambda_err, err)
        exact = exact_branch_trajectory(
            run_config.problem, lam_exact, n_t=result.u_star.n_t
        )
        state_err = float(np.abs((pt.u - exact).sample_values()).max())
        max_state_err = max(max_state_err, state_err)
        rows.append([repr(float(v)) for v in (pt.alpha, pt.lam, lam_exact, err)])
    _write_csv(os.path.join(outdir, "exact_comparison.csv"), rows)

    dx = run_config.problem.dx
    if run_config.problem.discretely_consistent_rho:
        mode = "consistent"
        tolerance = CONSISTENT_MODE_TOLERANCE
    else:
        mode = "standard"
        tolerance = STANDARD_MODE_ERROR_CAP * dx * dx
    worst = float(max(max_lambda_err, max_state_err))
    passed = bool((not result.truncated) and worst <= tolerance)

    _write_json(os.path.join(outdir, "exact_summary.json"), {
        "schema": 1,
        "seed": seed,
        "mode": mode,
        "tolerance": float(tolerance),
        "max_lambda_error": float(max_lambda_err),
        "max_state_error": float(max_state_err),
        "error_constant": worst / (dx * dx),
        "truncated": result.truncated,
        "passed": passed,
        "newton_space": result.newton_space,
        "newton_max_mode": result.newton_max_mode,
    })
    line = (
        f"verify-exact ({mode}): max |lambda - alpha^2| = {max_lambda_err:.3e}, "
        f"max state error = {max_state_err:.3e}, tolerance {tolerance:.3e}: "
        + ("PASS" if passed else "FAIL")
    )
    if reporter.verbosity >= 2:
        line += (f"; newton space: {result.newton_space} up to mode "
                 f"{result.newton_max_mode}")
    reporter.info(line)
    return EXIT_OK if passed else EXIT_SCIENCE


# ---------------------------------------------------------------------------
# argument parsing and dispatch


_COMMANDS = {
    "check": cmd_check,
    "extended": cmd_extended,
    "branch": cmd_branch,
    "verify-exact": cmd_verify_exact,
}


def _seed(text):
    """``--seed``: numpy seeds are non-negative integers."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {text!r}")
    return value


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hopfkit",
        description="Hopf bifurcation toolkit: hypothesis checks, "
        "bifurcation-point solves, and branch continuation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True, help="run config file")
        cmd.add_argument("--out", help="output directory (default from config)")
        cmd.add_argument(
            "--skip-check", action="store_true",
            help="skip the hypothesis checks that gate `branch`",
        )
        cmd.add_argument("--seed", type=_seed, default=42,
                         help="seed for randomized estimates (default 42)")
        cmd.add_argument("--verbose", action="store_true",
                         help="print detailed reports")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)

    try:
        run_config = load_config(args.config)
    except ConfigError as exc:
        print(f"hopfkit: {exc}", file=sys.stderr)
        return EXIT_USAGE

    outdir = args.out or run_config.output.path
    try:
        os.makedirs(outdir, exist_ok=True)
    except OSError as exc:
        print(f"hopfkit: cannot create output directory {outdir}: {exc}",
              file=sys.stderr)
        return EXIT_USAGE
    verbosity = run_config.output.verbosity
    if args.verbose:
        verbosity = max(verbosity, 2)
    reporter = _Reporter(verbosity)

    try:
        problem = build_problem(run_config)
    except ValueError as exc:
        print(f"hopfkit: {exc}", file=sys.stderr)
        return EXIT_USAGE

    try:
        return _COMMANDS[args.command](
            run_config, problem, outdir, args.seed, reporter, args
        )
    except _ReportWriteError as exc:
        print(f"hopfkit: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
