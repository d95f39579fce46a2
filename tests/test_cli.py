"""Config parsing and the command-line driver, end to end on a coarse grid."""

import json
import os

import numpy as np
import pytest

from hopfkit.cli import main
from hopfkit.config import (
    ConfigError,
    build_problem,
    load_config,
    parse_config,
)

# ---------------------------------------------------------------------------
# config file parsing


def test_empty_config_is_all_defaults():
    cfg = parse_config("")
    assert cfg.problem.variant == "semilinear"
    assert cfg.problem.L == 30.0
    assert cfg.problem.dx == 0.05
    assert cfg.problem.discretely_consistent_rho
    assert not cfg.frozen_parameter
    assert cfg.solver.newton_tol == 1e-10
    assert cfg.solver.n_t == 16
    assert cfg.solver.alpha_max == 0.5
    assert cfg.solver.alpha_steps == 10
    assert cfg.output.format == "csv"
    assert cfg.output.path == "out"


def test_config_comments_and_blank_lines():
    cfg = parse_config(
        """
        # a comment line
        problem.L = 20   # trailing comment

        solver.n_t = 8
        """
    )
    assert cfg.problem.L == 20.0
    assert cfg.solver.n_t == 8


def test_config_unknown_key_reports_line():
    with pytest.raises(ConfigError, match="line 2.*unknown key"):
        parse_config("problem.L = 20\nproblem.nope = 3\n")


def test_config_duplicate_key():
    with pytest.raises(ConfigError, match="duplicate key 'problem.dx'"):
        parse_config("problem.dx = 0.1\nproblem.dx = 0.2\n")


def test_config_syntax_error():
    with pytest.raises(ConfigError, match="line 1: expected"):
        parse_config("just some words\n")


def test_config_bad_value_types():
    with pytest.raises(ConfigError, match="line 1: bad value for problem.dx"):
        parse_config("problem.dx = abc\n")
    with pytest.raises(ConfigError, match="expected a boolean"):
        parse_config("problem.frozen_parameter = maybe\n")
    with pytest.raises(ConfigError, match="expected one of"):
        parse_config("problem.variant = cubic\n")


def test_config_validation_ranges():
    with pytest.raises(ConfigError, match="alpha_steps"):
        parse_config("solver.alpha_steps = 1\n")
    with pytest.raises(ConfigError, match="newton_tol"):
        parse_config("solver.newton_tol = 0\n")
    # domain validation from the problem constructor is wrapped, not leaked
    with pytest.raises(ConfigError, match="problem configuration"):
        parse_config("problem.dx = 0.5\n")
    with pytest.raises(ConfigError, match="alpha_max"):
        parse_config("solver.alpha_max = -1\n")


def test_config_accepts_benchmark_grids(monkeypatch):
    """The memory bound leaves every shipped grid runnable on 4 GiB."""
    pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 2**20}
    monkeypatch.setattr(os, "sysconf", pages.__getitem__)
    for text in ("", "solver.n_t = 32\n",
                 "problem.variant = quasilinear\nproblem.L = 20\n"
                 "problem.dx = 0.2\n"):
        parse_config(text)
    with pytest.raises(ConfigError, match="grid too large"):
        parse_config("solver.n_t = 100\n")


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(str(tmp_path / "nope.cfg"))


def test_build_problem_plain():
    cfg = parse_config("problem.L = 20\nproblem.dx = 0.2\n")
    problem = build_problem(cfg)
    assert problem.name == "reaction-diffusion/semilinear/consistent"
    assert problem.L == 20.0


def test_build_problem_frozen_parameter():
    """The frozen wrap keeps h but zeroes both parameter derivatives."""
    text = "problem.L = 20\nproblem.dx = 0.2\n"
    base = build_problem(parse_config(text))
    frozen = build_problem(
        parse_config(text + "problem.frozen_parameter = yes\n")
    )
    assert frozen.name.endswith("/frozen-parameter")

    rng = np.random.default_rng(3)
    w = rng.normal(size=base.A.shape[0])
    v = rng.normal(size=base.A.shape[0])
    assert np.abs(frozen.apply_h_lambda(0.3, w)).max() == 0.0
    assert np.abs(frozen.apply_h_lambda_u(0.3, w, v)).max() == 0.0
    # the state nonlinearity is the lambda = 0 slice of the original
    np.testing.assert_allclose(
        frozen.apply_h(0.7, w), base.apply_h(0.0, w), rtol=0, atol=0
    )
    np.testing.assert_allclose(
        frozen.apply_h_u(0.7, w, v), base.apply_h_u(0.0, w, v), rtol=0, atol=0
    )
    assert frozen.check_derivatives(seed=5).ok


# ---------------------------------------------------------------------------
# command-line driver

COARSE = """
problem.L = 20
problem.dx = 0.2
solver.n_t = 8
solver.alpha_max = 0.3
solver.alpha_steps = 6
solver.n_max_resolvent = 6
"""


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run_cli(tmp_path, command, extra_text="", *flags):
    cfg = write_config(tmp_path, COARSE + extra_text)
    out = str(tmp_path / "out")
    code = main([command, "--config", cfg, "--out", out, *flags])
    return code, out


def test_cli_check_passes(tmp_path):
    code, out = run_cli(tmp_path, "check")
    assert code == 0
    report = json.loads((tmp_path / "out" / "hypotheses.json").read_text())
    assert report["schema"] == 1
    assert report["seed"] == 42
    assert report["all_passed"]
    assert all(report["verdicts"].values())
    lines = (tmp_path / "out" / "resolvent.csv").read_text().splitlines()
    assert lines[0] == "n,norm_estimate,weighted"
    assert len(lines) > 2


def test_cli_check_seed_echo(tmp_path):
    code, out = run_cli(tmp_path, "check", "", "--seed", "7")
    assert code == 0
    report = json.loads((tmp_path / "out" / "hypotheses.json").read_text())
    assert report["seed"] == 7


def test_cli_check_frozen_parameter_fails_only_transversality(tmp_path):
    code, out = run_cli(
        tmp_path, "check", "problem.frozen_parameter = true\n"
    )
    assert code == 1
    report = json.loads((tmp_path / "out" / "hypotheses.json").read_text())
    verdicts = report["verdicts"]
    assert not verdicts["transversality"]
    for key in ("derivative_consistency", "simple_pair",
                "nonresonance", "resolvent_bound"):
        assert verdicts[key], key


def test_cli_missing_config_is_usage_error(tmp_path, capsys):
    code = main(["check", "--config", str(tmp_path / "missing.cfg")])
    assert code == 2
    assert "cannot read" in capsys.readouterr().err


def test_cli_bad_config_is_usage_error(tmp_path, capsys):
    cfg = write_config(tmp_path, "problem.bogus = 1\n")
    code = main(["check", "--config", cfg])
    assert code == 2
    assert "unknown key" in capsys.readouterr().err


def test_cli_extended(tmp_path):
    code, out = run_cli(tmp_path, "extended")
    assert code == 0
    report = json.loads((tmp_path / "out" / "extended.json").read_text())
    assert report["converged"]
    assert abs(report["lambda"]) <= 1e-10
    assert abs(report["sigma"]) <= 1e-10
    assert report["jacobian"]["nonsingular"]
    assert report["jacobian"]["sigma_min"] > 1e-3
    by_mode = report["jacobian"]["sigma_min_by_mode"]
    assert list(by_mode) == ["0-1"] + [str(n) for n in range(2, 9)]
    assert min(by_mode.values()) == report["jacobian"]["sigma_min"]
    # eigenvalue crossing speed, both components
    assert report["crossing"]["p"] == pytest.approx(2.0 / 3.0, abs=1e-6)
    assert abs(report["crossing"]["q"]) <= 1e-8


def test_cli_branch_writes_csv_and_summary(tmp_path):
    code, out = run_cli(tmp_path, "branch")
    assert code == 0
    # the gate ran and left its report
    assert (tmp_path / "out" / "hypotheses.json").exists()

    lines = (tmp_path / "out" / "branch.csv").read_text().splitlines()
    assert lines[0] == "alpha,lambda,sigma,eta_norm,residual,newton_iters"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 7  # trivial point + 6 steps
    for row in rows:
        alpha, lam = float(row[0]), float(row[1])
        assert abs(lam - alpha**2) <= 1e-10

    summary = json.loads(
        (tmp_path / "out" / "branch_summary.json").read_text()
    )
    assert summary["passed"]
    assert not summary["truncated"]
    assert summary["points"] == 7
    assert abs(summary["fit"]["c2"] - 1.0) <= 1e-3
    assert summary["symmetry"]["passed"]


def test_cli_branch_skip_check(tmp_path):
    code, out = run_cli(tmp_path, "branch", "", "--skip-check")
    assert code == 0
    assert not (tmp_path / "out" / "hypotheses.json").exists()
    assert (tmp_path / "out" / "branch.csv").exists()


def test_cli_branch_gated_by_failing_check(tmp_path):
    code, out = run_cli(
        tmp_path, "branch", "problem.frozen_parameter = on\n"
    )
    assert code == 1
    # the check report is written, the branch never ran
    assert (tmp_path / "out" / "hypotheses.json").exists()
    assert not (tmp_path / "out" / "branch.csv").exists()


def test_cli_branch_zero_amplitude(tmp_path):
    cfg = write_config(
        tmp_path,
        "problem.L = 20\nproblem.dx = 0.2\nsolver.n_t = 8\n"
        "solver.alpha_max = 0\n",
    )
    out = str(tmp_path / "out")
    code = main(["branch", "--config", cfg, "--out", out, "--skip-check"])
    assert code == 0
    lines = (tmp_path / "out" / "branch.csv").read_text().splitlines()
    assert len(lines) == 2  # header + trivial point
    assert [float(x) for x in lines[1].split(",")[:3]] == [0.0, 0.0, 0.0]


def test_cli_branch_json_format(tmp_path):
    code, out = run_cli(
        tmp_path, "branch", "output.format = json\n", "--skip-check"
    )
    assert code == 0
    branch = json.loads((tmp_path / "out" / "branch.json").read_text())
    assert branch["schema"] == 1
    assert len(branch["points"]) == 7


def test_cli_verify_exact_consistent(tmp_path):
    code, out = run_cli(tmp_path, "verify-exact")
    assert code == 0
    lines = (
        tmp_path / "out" / "exact_comparison.csv"
    ).read_text().splitlines()
    assert lines[0] == "alpha,lambda_computed,lambda_exact,abs_err"
    assert len(lines) == 8  # header + trivial + 6 steps
    for line in lines[1:]:
        alpha, lam, lam_exact, err = map(float, line.split(","))
        assert lam_exact == pytest.approx(alpha**2, abs=0)
        assert abs(lam - lam_exact) == pytest.approx(err, abs=0)
    summary = json.loads((tmp_path / "out" / "exact_summary.json").read_text())
    assert summary["mode"] == "consistent"
    assert summary["passed"]
    assert summary["max_lambda_error"] <= 1e-8
    assert summary["max_state_error"] <= 1e-8


def test_cli_verify_exact_standard_mode(tmp_path):
    code, out = run_cli(
        tmp_path, "verify-exact",
        "problem.discretely_consistent_rho = false\n",
    )
    assert code == 0
    summary = json.loads((tmp_path / "out" / "exact_summary.json").read_text())
    assert summary["mode"] == "standard"
    # discretization error: visible, but below the cap * dx^2 budget
    assert 1e-8 < summary["max_lambda_error"] <= summary["tolerance"]
    assert summary["tolerance"] == pytest.approx(0.1 * 0.2**2)
    assert summary["passed"]


def test_cli_verify_exact_quasilinear_has_no_oracle(tmp_path, capsys):
    code, out = run_cli(
        tmp_path, "verify-exact", "problem.variant = quasilinear\n"
    )
    assert code == 2
    assert "no closed-form branch" in capsys.readouterr().err


def test_cli_out_defaults_to_config_path(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, COARSE + "output.path = from-config\n")
    code = main(["check", "--config", cfg])
    assert code == 0
    assert (tmp_path / "from-config" / "hypotheses.json").exists()


def test_cli_reports_survive_failure(tmp_path):
    """Exit 1 still writes the report files for inspection."""
    code, out = run_cli(
        tmp_path, "check", "problem.frozen_parameter = true\n"
    )
    assert code == 1
    assert (tmp_path / "out" / "hypotheses.json").exists()
    assert (tmp_path / "out" / "resolvent.csv").exists()


def test_cli_branch_truncates_on_domain_error(tmp_path, capsys):
    """lambda = alpha^2 leaves the admissible window at alpha = 1.2: the
    branch is truncated with a note and the reports are still written."""
    cfg = write_config(
        tmp_path,
        "problem.L = 20\nproblem.dx = 0.2\n"
        "solver.alpha_max = 1.2\nsolver.alpha_steps = 6\n",
    )
    out = tmp_path / "out"
    code = main(["branch", "--config", cfg, "--out", str(out)])
    assert code == 1
    summary = json.loads((out / "branch_summary.json").read_text())
    assert summary["truncated"] is True
    assert "branch truncated at alpha = 1.2" in summary["notes"][-1]
    assert (out / "branch.csv").exists()
    assert "Traceback" not in capsys.readouterr().err


def test_cli_branch_phase_seed_domain_error(tmp_path, capsys, monkeypatch):
    """A phase-seed solve of the symmetry check that leaves the domain ends
    in the symmetry error entry and exit 1, not a traceback."""
    from hopfkit import solver
    from hopfkit.problem import DomainError

    branch_newton = solver._branch_newton
    mirrored = []

    def failing_phase_seeds(problem, functional, alpha, *args):
        # The mirrored branch (alpha < 0) runs first; a positive amplitude
        # after it is a phase-seed solve.
        if alpha < 0:
            mirrored.append(alpha)
        elif mirrored:
            raise DomainError("phase seed left the trust region")
        return branch_newton(problem, functional, alpha, *args)

    monkeypatch.setattr(solver, "_branch_newton", failing_phase_seeds)
    code, out = run_cli(tmp_path, "branch", "", "--skip-check")
    assert code == 1
    summary = json.loads((tmp_path / "out" / "branch_summary.json").read_text())
    assert summary["passed"] is False
    assert "phase seed left the trust region" in summary["symmetry"]["error"]
    assert mirrored
    assert (tmp_path / "out" / "branch.csv").exists()
    assert "Traceback" not in capsys.readouterr().err


def test_cli_extended_failure_writes_report(tmp_path, capsys):
    """A singular bordered system in the bifurcation-point solve ends in
    the failure report and exit 1 for every command that runs it."""
    cfg = write_config(
        tmp_path,
        "problem.L = 20\nproblem.dx = 0.2\nproblem.frozen_parameter = true\n"
        "problem.discretely_consistent_rho = false\nsolver.n_t = 4\n",
    )
    for command, report in (("extended", "extended.json"),
                            ("verify-exact", "exact_summary.json"),
                            ("branch", "branch_summary.json")):
        out = tmp_path / command
        code = main([command, "--config", cfg, "--out", str(out),
                     "--skip-check"])
        assert code == 1, command
        failure = json.loads((out / report).read_text())
        assert failure["converged"] is False
        assert failure["error"].startswith("extended Newton failed")
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "line", ["problem.L = 1e9", "solver.n_t = 100000", "problem.L = inf"]
)
def test_cli_rejects_oversized_grid(tmp_path, capsys, line):
    cfg = write_config(tmp_path, line + "\n")
    out = tmp_path / "out"
    assert main(["extended", "--config", cfg, "--out", str(out)]) == 2
    assert "grid too large" in capsys.readouterr().err
    assert not out.exists()
