"""Config parsing and the command-line driver, end to end on a coarse grid."""

import csv
import json
import os
import pathlib
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import with_even_term, with_sampled_wobble
from hopfkit import spectral
from hopfkit.cli import main
from hopfkit.config import (
    _SCHEMA,
    ConfigError,
    build_problem,
    load_config,
    parse_config,
)
from hopfkit.problem import ConvergenceError

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


def test_readme_config_block_is_the_schema():
    """The README's ``ini`` block names every key the parser knows, and
    the parser accepts it as written."""
    readme = (pathlib.Path(__file__).resolve().parent.parent
              / "README.md").read_text(encoding="utf-8")
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    keys = {line.split("=", 1)[0].strip() for line in block.splitlines()
            if line.split("#", 1)[0].strip()}
    assert keys == set(_SCHEMA)
    parse_config(block)


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
    assert problem.nx == 201  # 2 L / dx + 1 points on [-L, L]


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


def test_cli_reports_follow_the_umask(tmp_path):
    previous = os.umask(0o022)
    try:
        code, out = run_cli(tmp_path, "check")
    finally:
        os.umask(previous)
    assert code == 0
    assert (tmp_path / "out" / "hypotheses.json").stat().st_mode & 0o777 == 0o644
    assert not [p for p in os.listdir(out) if p.startswith(".tmp-hopfkit-")]


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


def test_load_config_rejects_non_utf8(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"problem.L = 20\n\xff\n")
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(str(cfg))
    assert main(["check", "--config", str(cfg)]) == 2
    assert "cannot read" in capsys.readouterr().err


@pytest.mark.parametrize("where", ["--out", "output.path"])
def test_cli_uncreatable_output_directory_is_usage_error(tmp_path, capsys,
                                                         where):
    """An output path naming an existing file (``--out``) or lying under
    one (``output.path``) is a usage error, not a traceback."""
    blocker = tmp_path / "file"
    blocker.write_text("")
    if where == "--out":
        cfg = write_config(tmp_path, COARSE)
        argv = ["check", "--config", cfg, "--out", str(blocker)]
    else:
        cfg = write_config(tmp_path, COARSE + f"output.path = {blocker}/out\n")
        argv = ["check", "--config", cfg]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "cannot create output directory" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["check", "verify-exact"])
def test_cli_rejects_negative_seed(tmp_path, capsys, command):
    cfg = write_config(tmp_path, COARSE)
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as info:
        main([command, "--config", cfg, "--out", str(out), "--seed", "-1"])
    assert info.value.code == 2
    assert "non-negative integer" in capsys.readouterr().err
    assert not out.exists()


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


def test_cli_reports_say_which_rows_are_proofs(tmp_path, capsys):
    # beta = 1 on the coarse operator: every resolvent row n >= 2 and every
    # certificate block n >= 2 is the proved bound n - beta, attained.
    code, out = run_cli(tmp_path, "check", "", "--verbose")
    assert code == 0
    report = json.loads((tmp_path / "out" / "hypotheses.json").read_text())
    beta = report["skew_bound"]
    assert 1.0 <= beta <= 1.0 + 1e-14
    assert f"(proved for n > beta = {beta:.6g})" in capsys.readouterr().out
    for row in report["resolvent_table"]:
        if row["n"] >= 2:
            assert row["norm_estimate"] == 1.0 / (row["n"] - beta)
    lines = (tmp_path / "out" / "resolvent.csv").read_text().splitlines()
    assert lines[0] == "n,norm_estimate,weighted"

    code, out = run_cli(tmp_path, "extended")
    assert code == 0
    jacobian = json.loads((tmp_path / "out" / "extended.json").read_text())["jacobian"]
    assert jacobian["skew_bound"] == beta
    for key, sigma in jacobian["sigma_min_by_mode"].items():
        if key != "0-1":
            assert sigma == int(key) - beta


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
    assert summary["factorizations"] == 1
    assert abs(summary["fit"]["c2"] - 1.0) <= 1e-3
    assert summary["symmetry"]["passed"]


def test_cli_branch_anchors_at_the_solved_point(tmp_path, capsys):
    """With standard rho the discrete bifurcation sits at lambda* != 0; the
    branch starts there and the fit measures lambda - lambda*, so the
    branch passes.  The summary and the verbose line report the band
    factorizations of the continuation, which iterates at every point
    through the held factor, factored once per rung it climbs (the odd
    modes up to 3, then up to 7), and the symmetry check's cost: one
    factor, at the mid point's rung."""
    cfg = write_config(
        tmp_path,
        "problem.variant = quasilinear\nproblem.L = 20\nproblem.dx = 0.2\n"
        "problem.discretely_consistent_rho = false\n"
        "solver.alpha_max = 0.1\nsolver.alpha_steps = 8\n",
    )
    out = tmp_path / "out"
    code = main(["branch", "--config", cfg, "--out", str(out), "--verbose"])
    assert code == 0
    summary = json.loads((out / "branch_summary.json").read_text())
    lam_star = summary["extended"]["lambda"]
    assert lam_star < -1e-5
    origin = (out / "branch.csv").read_text().splitlines()[1].split(",")
    assert float(origin[0]) == 0.0 and float(origin[1]) == lam_star
    assert summary["fit"]["ok"] and abs(summary["fit"]["c1"]) <= 1e-3
    assert summary["factorizations"] == 2
    assert (summary["newton_space"], summary["newton_max_mode"]) == ("half-wave", 7)
    symmetry = summary["symmetry"]
    assert symmetry["passed"] and symmetry["factorizations"] == 1
    assert ("; newton space: half-wave up to mode 7; continuation: "
            "2 factorizations; symmetry check: "
            f"{symmetry['newton_iters']} Newton iterations, 1 factorizations"
            ) in capsys.readouterr().out


def run_both_reports(tmp_path):
    """``branch`` and ``verify-exact`` with ``--verbose``: their exit codes
    and the ``newton_space`` and ``newton_max_mode`` of their summaries."""
    results = []
    for command, report in (("branch", "branch_summary.json"),
                            ("verify-exact", "exact_summary.json")):
        code, out = run_cli(tmp_path, command, "", "--skip-check", "--verbose")
        summary = json.loads((tmp_path / "out" / report).read_text())
        results.append((code, summary["newton_space"], summary["newton_max_mode"]))
    return results


def test_cli_reports_the_half_wave_space(tmp_path, capsys):
    """The reports name the space of the branch's Newton steps and its
    highest mode, and ``--verbose`` prints both on the command lines: on
    the semilinear config the branch is made of rotating waves, single
    harmonics, so both reports name mode 1; on the coarse quasilinear
    config the residual has mode-3 content and h is odd, so the branch
    names the half-wave space, up to mode 3 at ``n_t = 4``."""
    assert run_both_reports(tmp_path) == [(0, "mode-1", 1), (0, "mode-1", 1)]
    assert capsys.readouterr().out.count(
        "; newton space: mode-1 up to mode 1") == 2
    cfg = write_config(
        tmp_path,
        "problem.variant = quasilinear\nproblem.L = 20\nproblem.dx = 0.2\n"
        "solver.n_t = 4\nsolver.alpha_max = 0.1\nsolver.alpha_steps = 8\n",
        name="quasi.cfg",
    )
    out = tmp_path / "quasi-out"
    code = main(["branch", "--config", cfg, "--out", str(out), "--skip-check",
                 "--verbose"])
    summary = json.loads((out / "branch_summary.json").read_text())
    assert (code, summary["newton_space"], summary["newton_max_mode"]) == (
        0, "half-wave", 3)
    assert capsys.readouterr().out.count(
        "; newton space: half-wave up to mode 3") == 1


def test_cli_even_term_reports_the_full_space(tmp_path, capsys, monkeypatch):
    """An even term in h sends the solves to the full space; the branch
    still passes, and verify-exact fails only against the closed form that
    the even term breaks."""
    from hopfkit import cli

    build = cli.build_problem
    monkeypatch.setattr(cli, "build_problem",
                        lambda run_config: with_even_term(build(run_config), 0.5))
    assert run_both_reports(tmp_path) == [(0, "full", 8), (1, "full", 8)]
    assert capsys.readouterr().out.count("; newton space: full") == 2


def test_cli_extended_fails_on_leakage(tmp_path, monkeypatch):
    """A certificate whose leakage exceeds its tolerance fails ``extended``
    with exit 1, and the report is still written with the verdict."""
    from hopfkit import cli

    build = cli.build_problem
    monkeypatch.setattr(cli, "build_problem", lambda run_config:
                        with_sampled_wobble(build(run_config), 1e-7))
    code, _ = run_cli(tmp_path, "extended", "")
    assert code == 1
    jacobian = json.loads((tmp_path / "out" / "extended.json").read_text())["jacobian"]
    assert jacobian["leakage"] > 1e-10
    assert jacobian["nonsingular"] is False


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


@pytest.mark.parametrize("delta, code", [(1e-7, 1), (1e-9, 0)])
def test_cli_verify_exact_reads_the_lambda_error(tmp_path, monkeypatch,
                                                 delta, code):
    """Every alpha > 0 point of the branch moved off lambda = alpha^2 by
    delta: the consistent mode's 1e-8 tolerance fails the run a factor 10
    above it and passes it a factor 10 below."""
    import dataclasses

    from hopfkit import cli

    branch = cli.continue_branch

    def shifted_branch(*args, **kwargs):
        result = branch(*args, **kwargs)
        result.points = [
            dataclasses.replace(pt, lam=pt.lam + delta) if pt.alpha > 0 else pt
            for pt in result.points
        ]
        return result

    monkeypatch.setattr(cli, "continue_branch", shifted_branch)
    assert run_cli(tmp_path, "verify-exact")[0] == code
    summary = json.loads((tmp_path / "out" / "exact_summary.json").read_text())
    assert summary["mode"] == "consistent"
    assert summary["passed"] is (code == 0)
    assert summary["max_lambda_error"] == pytest.approx(delta, rel=0.1)


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


def test_cli_branch_on_a_large_domain_runs_quietly(tmp_path, capsys):
    """At L = 300, dx = 0.2 the resolvents' Green's functions underflow
    across the box; the condition guard's estimates stay quiet, so
    ``branch`` exits 0 with no traceback with RuntimeWarnings as errors."""
    cfg = write_config(
        tmp_path,
        "problem.L = 300\nproblem.dx = 0.2\nsolver.n_t = 4\n"
        "solver.alpha_max = 0.2\nsolver.alpha_steps = 4\n",
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["branch", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == 0
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


def test_cli_eigen_failure_writes_report(tmp_path, capsys, monkeypatch):
    """A stalled eigen iteration while the critical pair is located ends
    in the failure report and exit 1 for every command that solves for
    the bifurcation point, not in a traceback."""
    def stalled(*args, **kwargs):
        raise ConvergenceError("eigen iteration stalled near 1j")

    monkeypatch.setattr(spectral, "eigenpair_near", stalled)
    cfg = write_config(tmp_path, COARSE)
    for command, report in (("extended", "extended.json"),
                            ("verify-exact", "exact_summary.json"),
                            ("branch", "branch_summary.json")):
        out = tmp_path / command
        code = main([command, "--config", cfg, "--out", str(out),
                     "--skip-check"])
        assert code == 1, command
        failure = json.loads((out / report).read_text())
        assert failure["converged"] is False
        assert failure["error"] == "eigen iteration stalled near 1j"
    assert "Traceback" not in capsys.readouterr().err


def test_cli_never_touches_the_global_generator(tmp_path, monkeypatch):
    """Every estimate draws from its own generator: with numpy's global
    seeding, state and draw functions made to raise, ``check`` and
    ``extended`` still exit 0."""
    def forbidden(*args, **kwargs):
        raise AssertionError("numpy's global generator was used")

    for name in ("seed", "get_state", "set_state", "randint"):
        monkeypatch.setattr(np.random, name, forbidden)
    cfg = write_config(
        tmp_path, "problem.L = 20\nproblem.dx = 0.2\nsolver.n_t = 4\n")
    for command in ("check", "extended"):
        assert main([command, "--config", cfg,
                     "--out", str(tmp_path / command)]) == 0, command


def test_cli_time_transforms_need_no_fft(tmp_path, monkeypatch):
    """Collocation samples, spectra and the Newton band's coupling blocks
    are products with one real DFT pair: with numpy's FFTs made to raise,
    the coarse ``extended`` (whose certificate assembles the 0-1 band),
    ``branch`` and ``verify-exact`` still exit 0."""
    def forbidden(*args, **kwargs):
        raise AssertionError("numpy's FFT was used")

    for name in ("fft", "rfft", "irfft"):
        monkeypatch.setattr(np.fft, name, forbidden)
    cfg = write_config(tmp_path, COARSE)
    for command in ("extended", "branch", "verify-exact"):
        assert main([command, "--config", cfg,
                     "--out", str(tmp_path / command)]) == 0, command


@pytest.mark.parametrize(
    "line", ["problem.L = 1e9", "solver.n_t = 100000", "problem.L = inf"]
)
def test_cli_rejects_oversized_grid(tmp_path, capsys, line):
    cfg = write_config(tmp_path, line + "\n")
    out = tmp_path / "out"
    assert main(["extended", "--config", cfg, "--out", str(out)]) == 2
    assert "grid too large" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "line",
    ["solver.alpha_max = nan", "solver.newton_tol = inf",
     "solver.alpha_max = inf",
     "solver.alpha_max = 2e-309"],  # 1 / alpha overflows
)
def test_cli_rejects_non_finite_solver_values(tmp_path, capsys, line):
    cfg = write_config(
        tmp_path, "problem.L = 20\nproblem.dx = 0.2\nsolver.n_t = 4\n" + line
    )
    out = tmp_path / "out"
    assert main(["branch", "--config", cfg, "--out", str(out)]) == 2
    assert line.split(" = ")[0] + " must be" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("n_max", ["2", "3"])
def test_cli_rejects_resolvent_scan_without_head(tmp_path, capsys, n_max):
    # Below 4 the scan has no modes 2..n_max/2 to compare its tail with, so
    # the resolvent-bound verdict could never pass.
    cfg = write_config(
        tmp_path, "problem.L = 20\nproblem.dx = 0.2\n"
        f"solver.n_max_resolvent = {n_max}\n"
    )
    out = tmp_path / "out"
    assert main(["check", "--config", cfg, "--out", str(out)]) == 2
    assert "solver.n_max_resolvent must be at least 4" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# fuzz over the config schema


# key -> (strategy of accepted values as config text, rejected texts).
# Accepted values stay on a tiny grid (L in [20, 21], dx in [0.15, 0.2],
# n_t <= 4) so a run takes well under a second.
_FUZZ_SCHEMA = {
    "problem.variant": (st.sampled_from(["semilinear", "quasilinear"]),
                        ["cubic"]),
    "problem.L": (st.floats(20.0, 21.0).map(repr),
                  ["nan", "inf", "-inf", "0", "-20", "1e9", "abc"]),
    "problem.dx": (st.floats(0.15, 0.2).map(repr),
                   ["nan", "inf", "0", "-0.2", "0.5"]),
    "problem.discretely_consistent_rho": (st.sampled_from(["yes", "no"]),
                                          ["2"]),
    "problem.boundary": (st.just("dirichlet"), ["periodic"]),
    "problem.frozen_parameter": (st.sampled_from(["yes", "no"]), ["maybe"]),
    "solver.newton_tol": (st.floats(1e-12, 1e-6).map(repr),
                          ["nan", "inf", "-inf", "0", "-1e-10"]),
    "solver.max_iter": (st.integers(1, 30).map(str), ["0", "-1", "inf"]),
    "solver.n_t": (st.integers(1, 4).map(str),
                   ["0", "-1", "100000", "nan", "2.5"]),
    "solver.alpha_max": (st.floats(0.0, 1.5).map(repr),
                         ["nan", "inf", "-inf", "-0.1"]),
    "solver.alpha_steps": (st.integers(2, 6).map(str), ["1", "0", "-3"]),
    "solver.n_max_resolvent": (st.integers(4, 8).map(str),
                                ["3", "1", "0", "nan"]),
    "output.format": (st.sampled_from(["csv", "json"]), ["xml"]),
    "output.path": (st.sampled_from(["out", "nested/out"]), []),
    "output.verbosity": (st.integers(0, 2).map(str), ["-1", "x"]),
}
# Their defaults are the production grid, so these keys are always set.
_GRID_KEYS = ("problem.L", "problem.dx", "solver.n_t")


@st.composite
def _configs(draw):
    """Accepted values for a random subset of the keys (the grid keys
    always), then at most one key set to a rejected value."""
    config = {}
    for key, (accepted, _) in _FUZZ_SCHEMA.items():
        if key in _GRID_KEYS or draw(st.booleans()):
            config[key] = draw(accepted)
    if draw(st.booleans()):
        bad = draw(st.sampled_from(
            [key for key, (_, rejected) in _FUZZ_SCHEMA.items() if rejected]))
        config[bad] = draw(st.sampled_from(_FUZZ_SCHEMA[bad][1]))
    return config


_REPORTS = {
    "check": ["hypotheses.json"],
    "extended": ["extended.json"],
    "branch": ["hypotheses.json", "branch_summary.json"],
    "verify-exact": ["exact_summary.json"],
}
# Values the schema once accepted and a run then mishandled.
_REGRESSIONS = [
    {"problem.L": "20.0", "problem.dx": "0.2", "solver.n_t": "4", key: value}
    for key, value in [("solver.alpha_max", "nan"),
                       ("solver.newton_tol", "inf"),
                       ("solver.alpha_max", "inf"),
                       ("solver.alpha_max", "2e-309"),
                       ("solver.alpha_steps", "1000000000000"),
                       ("solver.n_max_resolvent", "100000000000000")]
]


def _reject_constant(name):
    raise ValueError(f"report holds the non-JSON constant {name}")


def _branch_points(outdir):
    """Rows of the written branch table (csv or json), or None."""
    path = os.path.join(outdir, "branch.csv")
    if os.path.exists(path):
        with open(path, newline="") as handle:
            return len(list(csv.reader(handle))) - 1
    path = os.path.join(outdir, "branch.json")
    if os.path.exists(path):
        with open(path) as handle:
            return len(json.load(handle)["points"])
    return None


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command", list(_REPORTS))
@settings(max_examples=12, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(config=_configs(), skip_check=st.booleans())
@example(config=_REGRESSIONS[0], skip_check=False)
@example(config=_REGRESSIONS[1], skip_check=False)
@example(config=_REGRESSIONS[2], skip_check=False)
@example(config=_REGRESSIONS[3], skip_check=False)
@example(config=_REGRESSIONS[4], skip_check=False)
@example(config=_REGRESSIONS[5], skip_check=False)
def test_cli_fuzz_config_schema(command, config, skip_check):
    """Every drawn config ends in exit 0, 1 or 2 without an exception (a
    NumPy RuntimeWarning counts as one); on 0 and 1 the command's report
    exists and every JSON report is strict JSON; a passing branch covers
    the whole amplitude grid."""
    with tempfile.TemporaryDirectory() as tmp:
        config = dict(config, **{"output.path": os.path.join(
            tmp, config.get("output.path", "out"))})
        cfg = os.path.join(tmp, "run.cfg")
        with open(cfg, "w") as handle:
            handle.writelines(f"{k} = {v}\n" for k, v in config.items())
        argv = [command, "--config", cfg]
        if skip_check:
            argv.append("--skip-check")
        code = main(argv)
        assert code in (0, 1, 2)
        if code == 2:
            return
        outdir = config["output.path"]
        reports = set(os.listdir(outdir))
        assert reports & set(_REPORTS[command]), sorted(reports)
        for name in reports:
            if name.endswith(".json"):
                with open(os.path.join(outdir, name)) as handle:
                    json.load(handle, parse_constant=_reject_constant)
        points = _branch_points(outdir)
        if code == 0 and points is not None:
            alpha_max = float(config.get("solver.alpha_max", "0.5"))
            steps = int(config.get("solver.alpha_steps", "10"))
            assert points == (1 if alpha_max == 0 else steps + 1)
