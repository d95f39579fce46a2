"""Acceptance suite: the package's end-to-end quantitative guarantees.

Each test prints one numbered ``PASS`` line with the measured quantities
(run ``pytest tests/test_acceptance.py -v -s`` to see them).  Tolerances
here are contractual -- loosening one is an API break, not a test fix.
"""

import dataclasses
import time

import numpy as np
import pytest
import scipy.linalg as sla

from conftest import (
    evaluate_path,
    psi_forcing,
    psi_path,
    rotation_block,
    synthetic_problem,
)
from hopfkit.cli import main as cli_main
from hopfkit.linear_periodic import solve_periodic_full
from hopfkit.reaction_diffusion import (
    ExampleConfig,
    make_problem,
    reference_eigenvector,
)
from hopfkit.solver import (
    check_branch_symmetry,
    continue_branch,
    decompose_crossing_term,
    fit_branch_curvature,
    initial_extended_state,
    solve_extended,
    verify_jacobian_nonsingular,
)
from hopfkit.spectral import (
    build_projection,
    crossing_speed,
    eigenpair_near,
    run_hypothesis_checks,
)
from hopfkit.trajectory import (
    PeriodicTrajectory,
    build_amplitude_functional,
    single_harmonic,
)


def announce(number, label, detail):
    print(f"\n{number}. {label}: PASS  ({detail})")


def collinearity_defect(vec, reference):
    """Relative distance of ``vec`` from the complex line through ``reference``."""
    a, b = vec.data, reference.data
    coeff = np.vdot(b, a) / np.vdot(b, b)
    return float(np.linalg.norm(a - coeff * b) / np.linalg.norm(a))


# ---------------------------------------------------------------------------
# shared default-resolution run (the expensive part, built once)


@pytest.fixture(scope="module")
def default_run():
    """Full pipeline at production resolution, wall-clock timed.

    Covers exactly what ``hopfkit branch --skip-check`` executes: problem
    assembly, eigenprojection, bifurcation-point solve, and continuation
    over ten amplitude steps.
    """
    cfg = ExampleConfig()  # L = 30, dx = 0.05, semilinear, consistent
    started = time.perf_counter()
    problem = make_problem(cfg)
    decomp = build_projection(problem, reference=reference_eigenvector(cfg))
    functional = build_amplitude_functional(decomp.psi, decomp.phi_adj)
    solution = solve_extended(
        problem, functional, initial_extended_state(decomp.psi, n_t=16)
    )
    branch = continue_branch(
        problem, functional, solution.u, alpha_max=0.5, steps=10
    )
    elapsed = time.perf_counter() - started
    return {
        "cfg": cfg,
        "problem": problem,
        "decomp": decomp,
        "functional": functional,
        "solution": solution,
        "branch": branch,
        "elapsed": elapsed,
    }


@pytest.fixture(scope="module")
def default_symmetry(default_run):
    return check_branch_symmetry(
        default_run["problem"], default_run["functional"],
        default_run["branch"],
    )


# ---------------------------------------------------------------------------
# 1. exact-branch reproduction at production resolution


def test_exact_branch_reproduction(default_run):
    branch = default_run["branch"]
    assert branch.notes == []
    points = [pt for pt in branch.points if pt.alpha > 0]
    assert len(points) == 10
    np.testing.assert_allclose(
        [pt.alpha for pt in points], 0.05 * np.arange(1, 11), atol=1e-14
    )

    lam_err = max(abs(pt.lam - pt.alpha**2) for pt in points)
    sig_err = max(abs(pt.sigma) for pt in points)
    eta_norm = max(pt.eta_norm for pt in points)
    assert lam_err <= 1e-8
    assert sig_err <= 1e-8
    assert eta_norm <= 1e-8
    assert default_run["elapsed"] <= 60.0
    announce(
        1, "exact-branch reproduction",
        f"max |lambda - alpha^2| = {lam_err:.2e}, max |sigma| = {sig_err:.2e}, "
        f"max ||eta|| = {eta_norm:.2e}, {default_run['elapsed']:.1f} s",
    )


# ---------------------------------------------------------------------------
# 2. eigenvalue crossing speed, two independent ways


def test_crossing_speed_constant(default_run):
    problem, decomp = default_run["problem"], default_run["decomp"]
    sweep = crossing_speed(problem, decomp=decomp).finite_difference.real
    split = decompose_crossing_term(problem, decomp, n_t=8)

    assert abs(sweep - 2.0 / 3.0) <= 1e-2
    assert abs(split.p - 2.0 / 3.0) <= 1e-2
    gap = abs(sweep - split.p) / abs(split.p)
    assert gap <= 1e-3
    announce(
        2, "crossing speed 2/3 two ways",
        f"eigenvalue sweep {sweep:.8f}, forcing split {split.p:.8f}, "
        f"relative gap {gap:.1e}",
    )


# ---------------------------------------------------------------------------
# 3. eigenpair accuracy and grid convergence


def test_eigenpair_and_grid_refinement(default_run):
    cfg = default_run["cfg"]
    pair = eigenpair_near(default_run["problem"], 1j)
    err_consistent = abs(pair.mu - 1j)
    assert err_consistent <= 1e-10
    assert collinearity_defect(pair.psi, reference_eigenvector(cfg)) <= 1e-8

    errors = {}
    for dx in (0.1, 0.05, 0.025):
        std_cfg = ExampleConfig(dx=dx, discretely_consistent_rho=False)
        std_pair = eigenpair_near(make_problem(std_cfg), 1j)
        errors[dx] = abs(std_pair.mu - 1j)
        if dx == 0.05:
            assert errors[dx] <= 5e-3
            defect = collinearity_defect(
                std_pair.psi, reference_eigenvector(std_cfg)
            )
            assert defect <= 1e-2

    ratios = (errors[0.1] / errors[0.05], errors[0.05] / errors[0.025])
    assert 3.5 <= ratios[0] <= 4.5
    assert 3.5 <= ratios[1] <= 4.5
    announce(
        3, "eigenpair accuracy and refinement",
        f"|mu - i| = {err_consistent:.1e} consistent / "
        f"{errors[0.05]:.1e} standard, refinement ratios "
        f"{ratios[0]:.2f}, {ratios[1]:.2f}",
    )


# ---------------------------------------------------------------------------
# 4. branch-parameter fits on both variants


def test_branch_parameter_fits(default_run, coarse_quasi_cfg,
                               coarse_quasi_problem):
    fit = fit_branch_curvature(default_run["branch"])
    assert fit.ok
    assert abs(fit.c1) <= 1e-3 and abs(fit.s1) <= 1e-3
    assert abs(fit.c2 - 1.0) <= 1e-3

    decomp = build_projection(
        coarse_quasi_problem,
        reference=reference_eigenvector(coarse_quasi_cfg),
    )
    functional = build_amplitude_functional(decomp.psi, decomp.phi_adj)
    solution = solve_extended(
        coarse_quasi_problem, functional,
        initial_extended_state(decomp.psi, n_t=8),
    )
    quasi_branch = continue_branch(
        coarse_quasi_problem, functional, solution.u,
        alpha_max=0.1, steps=8,
    )
    assert quasi_branch.notes == []
    quasi_fit = fit_branch_curvature(quasi_branch)
    assert quasi_fit.ok
    assert abs(quasi_fit.c1) <= 1e-3 and abs(quasi_fit.s1) <= 1e-3
    announce(
        4, "quadratic branch openings",
        f"semilinear c1 = {fit.c1:.1e}, c2 - 1 = {fit.c2 - 1.0:.1e}; "
        f"quasilinear c1 = {quasi_fit.c1:.1e}, s1 = {quasi_fit.s1:.1e}",
    )


# ---------------------------------------------------------------------------
# 5. amplitude-reflection symmetry


def test_branch_reflection_symmetry(default_symmetry):
    assert default_symmetry.parameter_deviation <= 1e-7
    assert default_symmetry.state_deviation <= 1e-7
    assert default_symmetry.passed
    announce(
        5, "amplitude-reflection symmetry",
        f"max parameter deviation {default_symmetry.parameter_deviation:.1e}, "
        f"max state deviation {default_symmetry.state_deviation:.1e}",
    )


# ---------------------------------------------------------------------------
# 6. linear periodic solver against manufactured solutions


def test_linear_solver_oracles(coarse_problem):
    dim, dx, n_t = coarse_problem.dim, coarse_problem.dx, 8
    decomp = build_projection(coarse_problem)
    worst = 0.0
    for trial in range(100):
        rng = np.random.default_rng(1000 + trial)
        coeffs = np.zeros((n_t + 1, dim), dtype=complex)
        coeffs[2:] = rng.normal(size=(n_t - 1, dim)) + 1j * rng.normal(
            size=(n_t - 1, dim)
        )
        u0 = PeriodicTrajectory(coeffs, dx)
        v = u0.time_derivative() - u0.with_coeffs((coarse_problem.A @ u0.coeffs.T).T)
        u = solve_periodic_full(coarse_problem, decomp, v)
        worst = max(worst, (u - u0).norm() / u0.norm())
    assert worst <= 1e-8

    # the coordinate along psi against the antiderivative form of
    # c' - i c = g: c(t) = e^{it} (phi(t) - mean(phi)),
    # phi(t) = int_0^t g(s) e^{-is} ds
    ts = np.linspace(0.0, 2.0 * np.pi, 33)
    ns = np.arange(-n_t, n_t + 1)
    worst_ode = 0.0
    for trial in range(20):
        rng = np.random.default_rng(2000 + trial)
        g = rng.normal(size=2 * n_t + 1) + 1j * rng.normal(size=2 * n_t + 1)
        g[n_t + 1] = 0.0  # no secular content
        v = psi_forcing(decomp, g, dx)
        c = psi_path(decomp, solve_periodic_full(coarse_problem, decomp, v))

        phi = np.zeros_like(ts, dtype=complex)
        mean_phi = 0.0j
        for n, gn in zip(ns, g):
            if n == 1:
                continue
            phi += gn * (np.exp(1j * (n - 1) * ts) - 1.0) / (1j * (n - 1))
            mean_phi -= gn / (1j * (n - 1))
        closed_form = np.exp(1j * ts) * (phi - mean_phi)
        gap = np.abs(evaluate_path(c, ts) - closed_form).max()
        worst_ode = max(worst_ode, gap / np.linalg.norm(g))
    assert worst_ode <= 1e-10
    announce(
        6, "linear periodic solver oracles",
        f"worst recovery of 100 manufactured solutions {worst:.1e}, "
        f"worst of 20 resonant closed forms {worst_ode:.1e}",
    )


# ---------------------------------------------------------------------------
# 7. bifurcation-Jacobian gates


def _synthetic_certificate(problem):
    decomp = build_projection(problem)
    functional = build_amplitude_functional(decomp.psi, decomp.phi_adj)
    solution = solve_extended(
        problem, functional, initial_extended_state(decomp.psi, n_t=4)
    )
    return verify_jacobian_nonsingular(problem, functional, solution.u)


def test_jacobian_invertibility_gates(default_run):
    cert = verify_jacobian_nonsingular(
        default_run["problem"], default_run["functional"],
        default_run["solution"].u,
    )
    assert cert.nonsingular
    assert cert.leakage <= 1e-10

    # no parameter coupling: the parameter column vanishes
    flat = _synthetic_certificate(
        synthetic_problem(rotation_block(), h="zero")
    )
    assert not flat.nonsingular

    # second eigenvalue pair at 2i: a kernel in the second harmonic block
    doubled = _synthetic_certificate(
        synthetic_problem(
            sla.block_diag(
                rotation_block()[:2, :2], rotation_block(freq=2.0)[:2, :2]
            ),
            h="linear", c=0.8,
        )
    )
    assert not doubled.nonsingular
    announce(
        7, "Jacobian invertibility gates",
        f"example sigma_min = {cert.smallest_singular_value:.3f}; "
        f"degenerate-crossing and doubled-frequency synthetics both "
        f"flagged singular "
        f"({flat.smallest_singular_value:.1e}, "
        f"{doubled.smallest_singular_value:.1e})",
    )


# ---------------------------------------------------------------------------
# 8. hypothesis checker, end to end and per-condition


ALL_CHECKS = ("derivative_consistency", "simple_pair", "transversality",
              "nonresonance", "resolvent_bound")


def _assert_single_flip(report, broken):
    for key in ALL_CHECKS:
        if key == broken:
            assert not report.verdicts[key], f"{key} should have failed"
        else:
            assert report.verdicts[key], f"{key} should have passed"


def test_hypothesis_checker(tmp_path):
    cfg = tmp_path / "defaults.cfg"
    cfg.write_text("")  # production defaults
    code = cli_main(
        ["check", "--config", str(cfg), "--out", str(tmp_path / "out")]
    )
    assert code == 0

    # eigenvalue not simple: two rotation pairs at +-i
    doubled = synthetic_problem(
        sla.block_diag(
            np.kron(np.eye(2), rotation_block()[:2, :2]),
            np.diag([-2.0, -3.0]),
        ),
        h="linear", c=1.0,
    )
    _assert_single_flip(run_hypothesis_checks(doubled, n_max=8), "simple_pair")

    # no eigenvalue crossing: parameter-independent linearisation
    flat = synthetic_problem(rotation_block(), h="zero")
    _assert_single_flip(run_hypothesis_checks(flat, n_max=8), "transversality")

    # spectrum hits an overtone: critical pair at 2i makes i*2 - A singular
    shifted = synthetic_problem(
        sla.block_diag(
            rotation_block(freq=2.0)[:2, :2], np.diag([-3.0, -4.0])
        ),
        h="linear", c=1.0,
    )
    _assert_single_flip(
        run_hypothesis_checks(shifted, target=2j, n_max=8), "nonresonance"
    )

    # supplied h contradicts its derivatives: h = 0 while h_u = lam
    def zero_h(lam, w):
        return np.zeros_like(np.asarray(w, dtype=float))

    lying = dataclasses.replace(
        synthetic_problem(rotation_block(), h="linear"), apply_h=zero_h
    )
    _assert_single_flip(
        run_hypothesis_checks(lying, n_max=8), "derivative_consistency"
    )

    # eigenvalues -10^(1-k) +- i k creep towards the overtones: every
    # i k - A stays invertible, but k * ||(i k - A)^-1|| = 10^(k-1) k grows
    creeping = synthetic_problem(
        sla.block_diag(
            rotation_block()[:2, :2],
            *[[[-10.0 ** (1 - k), -k], [k, -10.0 ** (1 - k)]]
              for k in range(3, 9)],
            np.diag([-2.0, -3.0]),
        ),
        h="linear",
    )
    report = run_hypothesis_checks(creeping, n_max=8)
    _assert_single_flip(report, "resolvent_bound")
    assert report.bound_constant >= 1e7
    announce(
        8, "hypothesis checker",
        "exit 0 on production defaults; doubled / flat / shifted / lying / "
        "creeping synthetics each flip exactly their own verdict "
        "(simple_pair, transversality, nonresonance, derivative_consistency, "
        "resolvent_bound)",
    )


# ---------------------------------------------------------------------------
# 9. uniqueness under phase-rotated seeds


def test_phase_seeded_uniqueness(default_run, default_symmetry):
    # every branch point sits exactly on the amplitude/phase slice
    for pt in default_run["branch"].points:
        target = np.array([pt.alpha, 0.0])
        assert np.abs(np.asarray(pt.l_check) - target).max() <= 1e-8

    devs = default_symmetry.phase_deviations
    assert set(np.round(list(devs), 6)) == {
        round(np.pi / 6, 6), round(np.pi / 3, 6), round(np.pi / 2, 6)
    }
    worst = max(devs.values())
    assert worst <= 1e-7
    announce(
        9, "phase-seeded uniqueness",
        f"three rotated seeds return to the phase-fixed branch point, "
        f"worst deviation {worst:.1e}",
    )
