import copy
import dataclasses
import gc
import tracemalloc
import weakref

import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg as sla

import hopfkit.newton as newton_module
import hopfkit.solver as solver_module

from conftest import (
    dense_of_storage,
    rotation_block,
    skewed_rotation_block,
    synthetic_problem,
    with_even_term,
    with_rotation_breaking_term,
    with_sampled_wobble,
)
from hopfkit.newton import SingularBandError, odd_modes
from hopfkit.problem import ConvergenceError, DomainError, ScaledParams
from hopfkit.reaction_diffusion import (
    ExampleConfig,
    exact_branch_trajectory,
    make_problem,
    reference_eigenvector,
)
from hopfkit.solver import (
    FIT_TOLERANCE,
    NEWTON_TOL,
    BRANCH_CSV_COLUMNS,
    BifurcationJacobian,
    BranchPoint,
    BranchResult,
    check_branch_symmetry,
    continue_branch,
    decompose_crossing_term,
    extended_residual,
    fit_branch_curvature,
    initial_extended_state,
    solve_extended,
    verify_jacobian_nonsingular,
)
from hopfkit.spectral import (
    SpectralDecomposition,
    build_projection,
    crossing_speed,
    eigenpair_near,
    run_hypothesis_checks,
)
from hopfkit.trajectory import (
    ComplexStateVector,
    PeriodicTrajectory,
    build_amplitude_functional,
    single_harmonic,
    trajectory_from_samples,
    zero_trajectory,
)


# ---------------------------------------------------------------------------
# shared setups: the coarse example (grid-exact branch), its standard-stencil
# sibling, and a four-dimensional rotation problem small enough for dense
# linear-algebra oracles


@pytest.fixture(scope="module")
def coarse_decomp(coarse_problem, coarse_cfg):
    return build_projection(
        coarse_problem, reference=reference_eigenvector(coarse_cfg)
    )


@pytest.fixture(scope="module")
def coarse_functional(coarse_decomp):
    return build_amplitude_functional(coarse_decomp.psi, coarse_decomp.phi_adj)


@pytest.fixture(scope="module")
def coarse_solution(coarse_problem, coarse_functional, coarse_decomp):
    return solve_extended(
        coarse_problem, coarse_functional,
        initial_extended_state(coarse_decomp.psi, n_t=8),
    )


@pytest.fixture(scope="module")
def coarse_branch(coarse_problem, coarse_functional, coarse_solution):
    return continue_branch(
        coarse_problem, coarse_functional, coarse_solution.u,
        alpha_max=0.5, steps=10,
    )


def with_overtone(u, eps=1e-12):
    """``u`` plus a mode-3 overtone, ``eps`` times its mode 1: Newton
    systems at it, and at a branch continued from it, take the half-wave
    space instead of mode 1."""
    coeffs = np.array(u.coeffs)
    coeffs[3] = eps * coeffs[1]
    return PeriodicTrajectory(coeffs, u.dx)


@pytest.fixture(scope="module")
def overtone_branch(coarse_problem, coarse_functional, coarse_solution):
    """`coarse_branch` continued from a ``u_star`` with a mode-3 overtone:
    the same points, solved in the half-wave space."""
    return continue_branch(
        coarse_problem, coarse_functional, with_overtone(coarse_solution.u),
        alpha_max=0.5, steps=10,
    )


@pytest.fixture(scope="module")
def standard_setup(coarse_standard_problem, coarse_standard_cfg):
    decomp = build_projection(
        coarse_standard_problem,
        reference=reference_eigenvector(coarse_standard_cfg),
    )
    functional = build_amplitude_functional(decomp.psi, decomp.phi_adj)
    solution = solve_extended(
        coarse_standard_problem, functional,
        initial_extended_state(decomp.psi, n_t=8),
    )
    return decomp, functional, solution


@pytest.fixture(scope="module")
def spinner():
    """Rotation-block problem with h = 0.8 lam w, crossing speed exactly 0.8."""
    problem = synthetic_problem(rotation_block(), h="linear", c=0.8)
    decomp = build_projection(problem)
    functional = build_amplitude_functional(decomp.psi, decomp.phi_adj)
    solution = solve_extended(
        problem, functional, initial_extended_state(decomp.psi, n_t=4)
    )
    return problem, decomp, functional, solution


# ---------------------------------------------------------------------------
# the extended system and its residual


def test_extended_residual_at_solution(coarse_problem, coarse_functional,
                                       coarse_decomp):
    u_star = single_harmonic(coarse_decomp.psi, 8)
    pair, core = extended_residual(
        coarse_problem, coarse_functional, ScaledParams(0.0, 0.0), u_star
    )
    assert np.abs(pair).max() <= 1e-10
    assert core.norm() <= 1e-10


def test_extended_residual_amplitude_offsets(coarse_problem, coarse_functional,
                                             coarse_decomp):
    # The core is linear in u, the pair affine: doubling the exact state
    # moves only the first functional, zeroing it lands at (-1, 0).
    u_star = single_harmonic(coarse_decomp.psi, 8)
    pair, core = extended_residual(
        coarse_problem, coarse_functional, ScaledParams(0.0, 0.0),
        2.0 * u_star,
    )
    assert np.allclose(pair, [1.0, 0.0], atol=1e-10)
    assert core.norm() <= 1e-9

    zero = zero_trajectory(8, u_star.dim, u_star.dx)
    pair, core = extended_residual(
        coarse_problem, coarse_functional, ScaledParams(0.0, 0.0), zero
    )
    assert np.allclose(pair, [-1.0, 0.0], atol=1e-14)
    assert core.norm() == 0.0


def test_initial_extended_state(coarse_decomp):
    params, u = initial_extended_state(coarse_decomp.psi, n_t=6)
    assert params == ScaledParams(0.0, 0.0)
    assert u.n_t == 6
    assert np.allclose(
        u.fourier_coeff(1), coarse_decomp.psi.data / 2.0, atol=1e-14
    )


def test_solve_extended_from_eigen_seed(coarse_solution):
    assert coarse_solution.residual <= NEWTON_TOL
    assert coarse_solution.iterations <= 1
    assert abs(coarse_solution.params.lam) <= 1e-11
    assert abs(coarse_solution.params.sigma) <= 1e-11
    assert coarse_solution.notes == []


def test_solve_extended_isolated_solution(coarse_problem, coarse_functional,
                                          coarse_decomp, coarse_solution):
    # A badly scaled, noise-contaminated seed must fall back to the same
    # solution: the bordered system is nonsingular, so the solution is
    # locally unique and Newton's basin covers such perturbations.
    rng = np.random.default_rng(3)
    u_star = coarse_solution.u
    noise1 = coarse_decomp.complement(
        rng.normal(size=u_star.dim) + 1j * rng.normal(size=u_star.dim)
    )
    seed_traj = 1.3 * u_star + 0.1 * single_harmonic(noise1, 8, dx=u_star.dx)
    bump = np.zeros((9, u_star.dim), dtype=complex)
    bump[3] = 0.05 * (rng.normal(size=u_star.dim) + 1j * rng.normal(size=u_star.dim))
    seed_traj = seed_traj + PeriodicTrajectory(bump, u_star.dx)

    sol = solve_extended(
        coarse_problem, coarse_functional,
        (ScaledParams(0.05, -0.03), seed_traj),
    )
    assert abs(sol.params.lam) <= 1e-9
    assert abs(sol.params.sigma) <= 1e-9
    assert (sol.u - u_star).norm() <= 1e-8
    assert sol.iterations <= 8


def test_solve_extended_contracts_quadratically(coarse_problem,
                                                coarse_functional,
                                                coarse_solution):
    sol = solve_extended(
        coarse_problem, coarse_functional,
        (ScaledParams(0.2, 0.1), 1.5 * coarse_solution.u),
    )
    steps = sol.step_norms
    assert len(steps) >= 2
    assert all(b <= a * a for a, b in zip(steps, steps[1:]))
    assert sol.residual <= NEWTON_TOL
    assert sol.notes == []


def far_factor(monkeypatch, problem, functional,
               params=ScaledParams(100.0, 0.0), base=None,
               space=solver_module._FULL - 1):
    """Make every `_SharedFactor`, which starts empty, hold the band at
    ``params`` and ``base`` (default the zero trajectory, ``n_t = 8`` as
    the coarse branch) with a zero core instead, in rung ``space`` (by
    default the half-wave space, the top odd rung): the steps of a
    narrower or equal rung chord through it.  By default a factor so far
    from the branch that its first chord step leaves the lambda window."""

    class FarFactor(solver_module._SharedFactor):
        def __init__(self):
            super().__init__()
            zero = zero_trajectory(8, problem.dim, problem.dx)
            far = solver_module._branch_linearization(
                problem, functional, params,
                zero if base is None else base, zero)
            self.refactor(far, space)

    monkeypatch.setattr(solver_module, "_SharedFactor", FarFactor)


def test_newton_factors_each_band_in_place(monkeypatch, coarse_problem,
                                           coarse_functional, coarse_solution):
    """Every factor a Newton solve makes is its assembled band's own
    storage: one band-sized array per factorization."""
    bands, factors = [], []
    assemble = solver_module.assemble_jacobian_band
    dgbtrf = newton_module.lapack.dgbtrf

    def recording_assemble(*args):
        bands.append(assemble(*args))
        return bands[-1]

    def recording_dgbtrf(*args, **kwargs):
        out = dgbtrf(*args, **kwargs)
        factors.append(out[0])
        return out

    monkeypatch.setattr(solver_module, "assemble_jacobian_band", recording_assemble)
    monkeypatch.setattr(newton_module.lapack, "dgbtrf", recording_dgbtrf)
    far_factor(monkeypatch, coarse_problem, coarse_functional)
    continue_branch(coarse_problem, coarse_functional, coarse_solution.u,
                    alpha_max=0.5, steps=10)
    assert len(bands) == len(factors) >= 2
    for band, lub in zip(bands, factors):
        assert band.consumed and np.shares_memory(lub, band.ab)


def test_newton_releases_each_step_before_the_next_band(
        monkeypatch, coarse_problem, coarse_functional, coarse_solution):
    """When a Newton step assembles its band, no earlier step's bordered
    system (band plus factor) is still alive, even without a cyclic GC:
    here the refactor after a chord step that left the domain, on a
    half-wave sweep."""
    systems, dead = [], []

    class RecordedSystem(newton_module.BorderedSystem):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            systems.append(weakref.ref(self))

    assemble = solver_module.assemble_jacobian_band

    def checking_assemble(*args):
        dead.append([ref() is None for ref in systems])
        return assemble(*args)

    monkeypatch.setattr(solver_module, "BorderedSystem", RecordedSystem)
    monkeypatch.setattr(solver_module, "assemble_jacobian_band", checking_assemble)
    far_factor(monkeypatch, coarse_problem, coarse_functional)
    gc.disable()
    try:
        continue_branch(coarse_problem, coarse_functional,
                        with_overtone(coarse_solution.u), alpha_max=0.5, steps=10)
    finally:
        gc.enable()
    assert len(dead) >= 2 and dead[1]
    assert all(all(step) for step in dead)


def test_solve_extended_standard_stencil(standard_setup):
    # Without the grid-consistent potential the bifurcation point moves off
    # zero by the stencil error; the period correction stays exactly zero
    # because the rotational coupling is untouched by the discretisation.
    _, _, solution = standard_setup
    assert solution.iterations >= 1
    assert solution.residual <= NEWTON_TOL
    assert 1e-7 <= abs(solution.params.lam) <= 1e-3
    assert abs(solution.params.sigma) <= 1e-12


def test_solve_extended_offset_shrinks_quadratically_in_dx(standard_setup):
    _, _, coarse_sol = standard_setup
    cfg = ExampleConfig(L=20.0, dx=0.1, discretely_consistent_rho=False)
    problem = make_problem(cfg)
    decomp = build_projection(problem, reference=reference_eigenvector(cfg))
    functional = build_amplitude_functional(decomp.psi, decomp.phi_adj)
    fine_sol = solve_extended(
        problem, functional, initial_extended_state(decomp.psi, n_t=8)
    )
    ratio = coarse_sol.params.lam / fine_sol.params.lam
    assert 3.5 <= ratio <= 4.5


def test_solve_extended_respects_iteration_budget(coarse_standard_problem,
                                                  standard_setup):
    decomp, functional, _ = standard_setup
    with pytest.raises(ConvergenceError, match="did not reach"):
        solve_extended(
            coarse_standard_problem, functional,
            initial_extended_state(decomp.psi, n_t=8), max_iter=0,
        )


# ---------------------------------------------------------------------------
# the frozen Jacobian at the bifurcation point


def test_jacobian_columns_match_residual_derivatives(coarse_problem,
                                                     coarse_functional,
                                                     coarse_solution):
    # The core residual is exactly linear in each parameter, so a single
    # finite difference reproduces the frozen columns to rounding.
    u_star = coarse_solution.u
    jac = BifurcationJacobian(coarse_problem, coarse_functional, u_star)
    eps = 0.25

    _, core0 = extended_residual(
        coarse_problem, coarse_functional, ScaledParams(0.0, 0.0), u_star
    )
    _, core_l = extended_residual(
        coarse_problem, coarse_functional, ScaledParams(eps, 0.0), u_star
    )
    _, core_s = extended_residual(
        coarse_problem, coarse_functional, ScaledParams(0.0, eps), u_star
    )
    fd_lam = (1.0 / eps) * (core_l - core0)
    fd_sig = (1.0 / eps) * (core_s - core0)

    pair, image_lam = jac.apply(1.0, 0.0, zero_trajectory(
        u_star.n_t, u_star.dim, u_star.dx))
    assert np.abs(pair).max() == 0.0
    assert (image_lam - fd_lam).norm() <= 1e-11 * max(1.0, fd_lam.norm())

    _, image_sig = jac.apply(0.0, 1.0, zero_trajectory(
        u_star.n_t, u_star.dim, u_star.dx))
    assert (image_sig - fd_sig).norm() <= 1e-11 * max(1.0, fd_sig.norm())


def test_jacobian_apply_on_overtone(coarse_problem, coarse_functional,
                                    coarse_solution):
    # Higher harmonics feel only the linear flow: image = v_t - A v, and
    # the phase functionals cannot see them.
    rng = np.random.default_rng(5)
    u_star = coarse_solution.u
    coeffs = np.zeros((u_star.n_t + 1, u_star.dim), dtype=complex)
    coeffs[3] = rng.normal(size=u_star.dim) + 1j * rng.normal(size=u_star.dim)
    v = PeriodicTrajectory(coeffs, u_star.dx)

    jac = BifurcationJacobian(coarse_problem, coarse_functional, u_star)
    pair, image = jac.apply(0.0, 0.0, v)
    linear = v.with_coeffs((coarse_problem.A @ v.coeffs.T).T)
    oracle = v.time_derivative() - linear
    assert np.abs(pair).max() <= 1e-12 * v.norm()
    assert (image - oracle).norm() <= 1e-11 * oracle.norm()


def test_jacobian_bordered_matches_apply(spinner):
    problem, _, functional, solution = spinner
    jac = BifurcationJacobian(problem, functional, solution.u)
    system, layout = jac.bordered_system()
    dense = dense_of_storage(system)

    rng = np.random.default_rng(6)
    flat = rng.normal(size=layout.size)
    dlam, dsig = 0.7, -1.1
    vec = np.concatenate([flat, [dlam, dsig]])

    pair, image = jac.apply(dlam, dsig, layout.to_trajectory(flat))
    oracle = dense @ vec
    assert np.allclose(oracle[:-2], layout.flatten_trajectory(image), atol=1e-12)
    assert np.allclose(oracle[-2:], pair, atol=1e-12)


_SECOND_PAIR = sla.block_diag(
    rotation_block()[:2, :2], rotation_block(freq=2.05)[:2, :2]
)


@pytest.mark.parametrize(
    "a, shift, smallest_block",
    [
        (rotation_block(), 0.0, "0-1"),
        # a second eigenvalue pair at 2.05i: sigma_min = 0.05 in mode 2
        (_SECOND_PAIR, 0.0, "2"),
        # the same operator split as A - 0.5 plus h_u(0, 0) = 0.5
        (_SECOND_PAIR - 0.5 * np.eye(4), 0.5, "2"),
    ],
    ids=["spinner", "second-pair-2.05i", "second-pair-h_u-shift"],
)
def test_sigma_min_matches_dense_svd(a, shift, smallest_block):
    problem = synthetic_problem(a, h="linear", c=0.8, shift=shift)
    decomp = build_projection(problem)
    functional = build_amplitude_functional(decomp.psi, decomp.phi_adj)
    solution = solve_extended(
        problem, functional, initial_extended_state(decomp.psi, n_t=4)
    )
    jac = BifurcationJacobian(problem, functional, solution.u)
    # the certificate covers every mode, so compare with the full space
    system, _ = jac.bordered_system(jac.layout())
    svals = np.linalg.svd(dense_of_storage(system), compute_uv=False)

    cert = verify_jacobian_nonsingular(
        problem, functional, solution.u, power_iterations=300
    )
    assert cert.nonsingular
    assert abs(cert.smallest_singular_value - svals[-1]) <= 1e-4 * svals[-1]
    assert list(cert.sigma_min_by_mode) == ["0-1", "2", "3", "4"]
    by_mode = cert.sigma_min_by_mode
    assert min(by_mode, key=by_mode.get) == smallest_block
    assert f"mode block {smallest_block} " in cert.summary()


def test_checks_analyse_the_linearisation_not_bare_A():
    # A - 0.5 I with h_u(0, 0) = 0.5 I: every check must see B = A + h_u(0, 0),
    # which is the unshifted operator, not bare A (pair at -0.5 +- i).
    shifted = synthetic_problem(_SECOND_PAIR - 0.5 * np.eye(4), h="linear",
                                c=0.8, shift=0.5)
    plain = synthetic_problem(_SECOND_PAIR, h="linear", c=0.8)
    assert abs(eigenpair_near(shifted, 1j).mu - 1j) <= 1e-10
    got = run_hypothesis_checks(shifted)
    expect = run_hypothesis_checks(plain)
    assert [row.n for row in got.resolvent_table] == \
        [row.n for row in expect.resolvent_table]
    assert np.allclose(
        [row.norm_estimate for row in got.resolvent_table],
        [row.norm_estimate for row in expect.resolvent_table],
        rtol=1e-12, atol=0.0,
    )
    assert abs(got.simplicity.margin - expect.simplicity.margin) <= 1e-12


def test_certificate_factors_each_head_block_once(monkeypatch):
    # The certificate's head blocks n <= skew_bound each take one guarded
    # LU of i n - B of their own, the tail blocks none and no inverse-power
    # step; the hypothesis checks before them leave no factor behind.
    import hopfkit.problem as problem_module

    problem = synthetic_problem(skewed_rotation_block(), h="linear", c=0.8)
    run_hypothesis_checks(problem, n_max=8)
    decomp = build_projection(problem)
    functional = build_amplitude_functional(decomp.psi, decomp.phi_adj)
    solution = solve_extended(
        problem, functional, initial_extended_state(decomp.psi, n_t=4)
    )
    shifts = []
    splu = problem_module.spla.splu

    def counting_splu(matrix, *args, **kwargs):
        shifts.append(complex(matrix[0, 0]))  # i n - B[0, 0], and B[0, 0] = 0
        return splu(matrix, *args, **kwargs)

    monkeypatch.setattr(problem_module.spla, "splu", counting_splu)
    cert = verify_jacobian_nonsingular(problem, functional, solution.u)
    assert list(cert.sigma_min_by_mode) == ["0-1", "2", "3", "4"]
    assert shifts == [2j]
    beta = cert.skew_bound
    assert beta == problem.skew_bound and 2.5 <= beta <= 2.5 * (1 + 1e-15)
    assert cert.sigma_min_by_mode["3"] == 3 - beta
    assert cert.sigma_min_by_mode["4"] == 4 - beta
    # Only the factored blocks "0-1" and "2" step, each within the cap.
    assert 2 <= cert.power_iterations <= 2 * 30


def test_jacobian_certificate_on_example(coarse_problem, coarse_functional,
                                         coarse_solution):
    cert = verify_jacobian_nonsingular(
        coarse_problem, coarse_functional, coarse_solution.u
    )
    assert cert.nonsingular and bool(cert)
    assert 0.1 <= cert.smallest_singular_value <= 0.5
    assert cert.leakage <= 1e-10
    assert "nonsingular" in cert.summary()


@pytest.mark.parametrize("eps, nonsingular", [(1e-8, True), (1e-7, False)])
def test_certificate_verdict_reads_the_leakage(
        coarse_problem, coarse_functional, coarse_solution, eps, nonsingular):
    """A mode coupling of size eps in the sampled h_u leaks about 7e-3 eps
    of a low image into the overtones: the verdict holds just below the
    1e-10 leakage tolerance and fails just above it, whatever sigma_min."""
    cert = verify_jacobian_nonsingular(
        with_sampled_wobble(coarse_problem, eps), coarse_functional,
        coarse_solution.u)
    assert 5e-3 * eps <= cert.leakage <= 1e-2 * eps
    assert cert.smallest_singular_value > 0.1
    assert cert.nonsingular is nonsingular


@pytest.mark.parametrize("c, nonsingular", [(2e-7, False), (2e-5, True)])
def test_certificate_verdict_reads_sigma_min(c, nonsingular):
    """The "0-1" block of a linear crossing at speed c has sigma_min c/2:
    the verdict fails at 1e-7, a factor 10 below the 1e-6 tolerance, and
    holds at 1e-5, a factor 10 above it, with no leakage either way."""
    problem = synthetic_problem(rotation_block(), h="linear", c=c)
    decomp = build_projection(problem)
    functional = build_amplitude_functional(decomp.psi, decomp.phi_adj)
    solution = solve_extended(
        problem, functional, initial_extended_state(decomp.psi, n_t=4)
    )
    cert = verify_jacobian_nonsingular(problem, functional, solution.u)
    assert cert.sigma_min_by_mode["0-1"] == pytest.approx(c / 2, rel=1e-6)
    assert cert.leakage <= 1e-10
    assert cert.nonsingular is nonsingular


def test_certificate_flags_degenerate_crossing():
    # Parameter-independent linearisation: the lambda column vanishes and
    # the bordered operator is structurally singular.
    problem = synthetic_problem(rotation_block(), h="zero")
    decomp = build_projection(problem)
    functional = build_amplitude_functional(decomp.psi, decomp.phi_adj)
    solution = solve_extended(
        problem, functional, initial_extended_state(decomp.psi, n_t=4)
    )
    cert = verify_jacobian_nonsingular(problem, functional, solution.u)
    assert not cert.nonsingular and not bool(cert)
    assert cert.smallest_singular_value <= 1e-8
    assert "SINGULAR" in cert.summary()


def test_certificate_flags_internal_resonance():
    # A second eigenvalue pair at 2i puts a kernel in the overtone block
    # that no border can repair.
    a = sla.block_diag(
        rotation_block()[:2, :2], rotation_block(freq=2.0)[:2, :2]
    )
    problem = synthetic_problem(a, h="linear", c=0.8)
    decomp = build_projection(problem)
    functional = build_amplitude_functional(decomp.psi, decomp.phi_adj)
    solution = solve_extended(
        problem, functional, initial_extended_state(decomp.psi, n_t=4)
    )
    cert = verify_jacobian_nonsingular(problem, functional, solution.u)
    assert not cert.nonsingular
    assert cert.smallest_singular_value <= 1e-8
    assert "mode block 2 " in cert.summary()


# ---------------------------------------------------------------------------
# crossing-term decomposition


def test_crossing_matches_analytic_value(coarse_problem, coarse_decomp):
    # <kappa^2 psi, phi> for the example: the crossing speed is 2/3 + i*0,
    # up to the (exponentially small) domain truncation.
    dec = decompose_crossing_term(coarse_problem, coarse_decomp, n_t=8)
    assert abs(dec.p - 2.0 / 3.0) <= 1e-6
    assert abs(dec.q) <= 1e-8
    assert dec.reconstruction_residual <= 1e-8
    assert dec.u_sharp.norm() >= 0.1  # genuinely off the critical span

    # the lifted part carries no kernel coordinate in its fundamental mode
    kernel_coord = complex(
        dec.u_sharp.fourier_coeff(1) @ np.conj(coarse_decomp.phi_adj.data)
    ) * coarse_problem.dx
    assert abs(kernel_coord) <= 1e-10


def test_crossing_cross_checks_eigenvalue_derivative(coarse_problem,
                                                     coarse_decomp):
    dec = decompose_crossing_term(coarse_problem, coarse_decomp, n_t=8)
    speed = crossing_speed(coarse_problem, decomp=coarse_decomp).formula
    assert abs(dec.p - speed.real) <= 1e-3 * abs(speed.real)
    assert abs(dec.q - speed.imag) <= 1e-6


def test_crossing_on_standard_stencil(coarse_standard_problem,
                                      coarse_standard_cfg):
    decomp = build_projection(
        coarse_standard_problem,
        reference=reference_eigenvector(coarse_standard_cfg),
    )
    dec = decompose_crossing_term(coarse_standard_problem, decomp, n_t=8)
    assert abs(dec.p - 2.0 / 3.0) <= 1e-2
    assert dec.reconstruction_residual <= 1e-8


def test_crossing_pure_span(spinner):
    # h_lambda_u = 0.8 I sends psi to 0.8 psi: everything lands in the
    # span, the lifted remainder is empty.
    problem, decomp, _, _ = spinner
    dec = decompose_crossing_term(problem, decomp, n_t=4)
    assert abs(dec.p - 0.8) <= 1e-12
    assert abs(dec.q) <= 1e-12
    assert dec.u_sharp.norm() <= 1e-13
    assert dec.reconstruction_residual <= 1e-12


def test_crossing_zero_forcing():
    problem = synthetic_problem(rotation_block(), h="zero")
    decomp = build_projection(problem)
    dec = decompose_crossing_term(problem, decomp, n_t=4)
    assert dec.p == 0.0 and dec.q == 0.0
    assert dec.u_sharp.norm() == 0.0
    assert dec.reconstruction_residual == 0.0


def test_crossing_rejects_degenerate_span():
    problem = synthetic_problem(np.diag([-1.0, -2.0, -3.0, -4.0]), h="zero")
    e1 = np.zeros(4, dtype=complex)
    e1[0] = 1.0
    fake = SpectralDecomposition(
        psi=ComplexStateVector(e1, 1.0),
        phi_adj=ComplexStateVector(e1.copy(), 1.0),
        mu=-1.0 + 0.0j,
    )
    with pytest.raises(ValueError, match="degenerate"):
        decompose_crossing_term(problem, fake, n_t=4)


# ---------------------------------------------------------------------------
# branch continuation


def test_branch_reproduces_exact_solution(coarse_branch, coarse_problem):
    assert len(coarse_branch.points) == 11
    assert coarse_branch.notes == [] and not coarse_branch.truncated
    for pt in coarse_branch.points[1:]:
        assert abs(pt.lam - pt.alpha**2) <= 1e-9
        assert abs(pt.sigma) <= 1e-10
        assert pt.eta_norm <= 1e-8
        assert pt.residual <= NEWTON_TOL
        assert np.allclose(pt.l_check, [pt.alpha, 0.0], atol=1e-9)
        core = coarse_problem.residual_g(pt.params, pt.u)
        assert np.abs(core.sample_values()).max() <= 10.0 * NEWTON_TOL


def test_branch_matches_closed_form_trajectory(coarse_branch, coarse_cfg):
    pt = coarse_branch.points[6]
    assert pt.alpha == pytest.approx(0.3)
    exact = exact_branch_trajectory(coarse_cfg, 0.09, n_t=pt.u.n_t)
    assert (pt.u - exact).norm() <= 1e-8


def test_branch_includes_trivial_origin(coarse_branch):
    origin = coarse_branch.points[0]
    assert origin.alpha == 0.0 and origin.lam == 0.0 and origin.sigma == 0.0
    assert origin.u.norm() == 0.0
    assert origin.residual == 0.0


def test_branch_starts_at_the_solved_point(standard_setup,
                                          coarse_standard_problem):
    _, functional, solution = standard_setup
    assert solution.params.lam != 0.0
    result = continue_branch(coarse_standard_problem, functional, solution.u,
                             alpha_max=0.3, steps=6,
                             params_star=solution.params)
    assert result.points[0].params == solution.params
    fit = fit_branch_curvature(result)
    assert fit.ok and abs(fit.c1) <= 1e-4


def test_branch_newton_stays_cheap(coarse_branch):
    # Rescaling predictors put every seed inside the quadratic basin.
    assert all(pt.newton_iters <= 3 for pt in coarse_branch.points)


def test_branch_truncates_with_note(coarse_quasi_problem):
    decomp = build_projection(coarse_quasi_problem)
    functional = build_amplitude_functional(decomp.psi, decomp.phi_adj)
    u_star = single_harmonic(decomp.psi, 8)
    result = continue_branch(
        coarse_quasi_problem, functional, u_star,
        alpha_max=0.3, steps=3, max_iter=0,
    )
    assert len(result.points) == 1  # only the origin survived
    assert result.truncated
    assert any("truncated at alpha" in note for note in result.notes)


def test_branch_validates_grid(coarse_problem, coarse_functional,
                               coarse_solution):
    with pytest.raises(ValueError):
        continue_branch(coarse_problem, coarse_functional,
                        coarse_solution.u, alpha_max=-0.1, steps=4)
    with pytest.raises(ValueError):
        continue_branch(coarse_problem, coarse_functional,
                        coarse_solution.u, alpha_max=0.5, steps=0)


def test_branch_zero_amplitude_is_trivial(coarse_problem, coarse_functional,
                                          coarse_solution):
    result = continue_branch(coarse_problem, coarse_functional,
                             coarse_solution.u, alpha_max=0.0, steps=4)
    assert len(result.points) == 1
    assert result.points[0].alpha == 0.0
    assert result.notes == []
    assert not result.truncated


def test_branch_csv_rows(coarse_branch):
    rows = coarse_branch.to_csv_rows()
    assert rows[0] == list(BRANCH_CSV_COLUMNS)
    assert len(rows) == len(coarse_branch.points) + 1
    for row, pt in zip(rows[1:], coarse_branch.points):
        assert float(row[0]) == pt.alpha
        assert float(row[1]) == pt.lam
        assert int(row[5]) == pt.newton_iters


def test_branch_json_dict(coarse_branch):
    obj = coarse_branch.to_json_dict()
    assert obj["schema"] == 1
    assert len(obj["points"]) == len(coarse_branch.points)
    assert set(obj["points"][0]) == {
        "alpha", "lambda", "sigma", "eta_norm", "residual",
        "newton_iters", "l_check",
    }


@pytest.fixture(scope="module")
def quasi_setup(coarse_quasi_problem, coarse_quasi_cfg):
    decomp = build_projection(
        coarse_quasi_problem, reference=reference_eigenvector(coarse_quasi_cfg)
    )
    functional = build_amplitude_functional(decomp.psi, decomp.phi_adj)
    solution = solve_extended(
        coarse_quasi_problem, functional,
        initial_extended_state(decomp.psi, n_t=8),
    )
    return functional, solution


def quasi_sweep(problem, quasi_setup, **kwargs):
    functional, solution = quasi_setup
    return continue_branch(problem, functional, solution.u, alpha_max=0.1,
                           steps=8, **kwargs)


@pytest.fixture(scope="module")
def quasi_branch(coarse_quasi_problem, quasi_setup):
    return quasi_sweep(coarse_quasi_problem, quasi_setup)


def test_quasilinear_branch_curvature(quasi_branch):
    # No closed form here; the checkable structure is the parity of the
    # parameters in the amplitude and a curvature of order one.
    fit = fit_branch_curvature(quasi_branch)
    assert fit.ok
    assert abs(fit.c1) <= 1e-3
    assert abs(fit.c2 - 1.0) <= 0.05
    assert abs(fit.s1) <= 1e-3


def test_quasilinear_correction_is_second_order(quasi_branch):
    alphas = quasi_branch.alphas[1:]
    etas = np.array([pt.eta_norm for pt in quasi_branch.points[1:]])
    assert all(b > a for a, b in zip(etas, etas[1:]))
    ratios = etas / alphas**2
    assert ratios.max() <= 1.5 * ratios.min()


# ---------------------------------------------------------------------------
# branch points keep only their live Fourier modes


def recorded_sweep(monkeypatch, problem, functional, u_star, **kwargs):
    """`continue_branch` plus the converged Newton iterate of each point
    after the trivial one, in order."""
    iterates = []
    branch_newton = solver_module._branch_newton

    def recording(*args):
        out = branch_newton(*args)
        iterates.append(out[1])
        return out

    monkeypatch.setattr(solver_module, "_branch_newton", recording)
    result = continue_branch(problem, functional, u_star, **kwargs)
    return result, iterates


def assert_points_give_back(result, iterates, live_rows):
    """Each nontrivial point keeps ``live_rows`` coefficient rows, and
    every read of its state is a fresh full-shaped, read-only copy of the
    converged iterate; the trivial point keeps no row."""
    assert not result.truncated and len(iterates) == len(result.points) - 1
    origin = result.points[0]
    assert origin.rows.shape == (0, result.u_star.dim)
    assert not origin.u.coeffs.any()
    for pt, iterate in zip(result.points[1:], iterates):
        assert pt.rows.shape == (live_rows, iterate.dim)
        u = pt.u
        assert np.array_equal(u.coeffs, iterate.coeffs)
        assert u.dx == iterate.dx
        assert not u.coeffs.flags.writeable and u.coeffs.flags.c_contiguous
        assert not np.shares_memory(pt.u.coeffs, pt.u.coeffs)
        assert not np.shares_memory(u.coeffs, pt.rows)


def test_semilinear_points_keep_modes_0_and_1(monkeypatch, coarse_problem,
                                              coarse_functional,
                                              coarse_solution):
    result, iterates = recorded_sweep(
        monkeypatch, coarse_problem, coarse_functional, coarse_solution.u,
        alpha_max=0.5, steps=10)
    assert result.newton_space == "mode-1"
    assert_points_give_back(result, iterates, live_rows=2)


def test_quasilinear_points_keep_modes_up_to_3(monkeypatch,
                                               coarse_quasi_problem,
                                               quasi_setup):
    """At ``n_t = 4`` the half-wave branch reaches mode 3: four of the
    five rows are kept, mode 0 and mode 2 zero among them."""
    functional, solution = quasi_setup
    seed = PeriodicTrajectory(solution.u.coeffs[:5], solution.u.dx)
    star = solve_extended(coarse_quasi_problem, functional,
                          (solution.params, seed))
    result, iterates = recorded_sweep(
        monkeypatch, coarse_quasi_problem, functional, star.u,
        alpha_max=0.1, steps=8, params_star=star.params)
    assert (result.newton_space, result.newton_max_mode) == ("half-wave", 3)
    assert_points_give_back(result, iterates, live_rows=4)
    assert not any(pt.rows[0::2].any() for pt in result.points)


def test_point_with_every_mode_live_keeps_every_row():
    rng = np.random.default_rng(3)
    coeffs = rng.standard_normal((5, 6)) + 1j * rng.standard_normal((5, 6))
    coeffs[0] = coeffs[0].real
    u = PeriodicTrajectory(coeffs, 0.5)
    pt = BranchPoint(
        alpha=0.1, lam=0.01, sigma=0.0, u=u, residual=0.0, newton_iters=0,
        l_check=np.zeros(2), eta_norm=0.0,
    )
    assert pt.rows.shape == (5, 6) and not np.shares_memory(pt.rows, coeffs)
    assert np.array_equal(pt.u.coeffs, u.coeffs) and pt.u.dx == 0.5


def test_sweep_holds_a_fraction_of_its_full_states(coarse_problem,
                                                   coarse_functional,
                                                   coarse_solution):
    """At ``n_t = 16`` a mode-1 point keeps 2 of its 17 rows, so what a
    sweep leaves allocated is well below a quarter of its full-shaped
    states; points that kept their states whole would leave more than
    all of them."""
    coeffs = np.zeros((17, coarse_solution.u.dim), dtype=complex)
    coeffs[:9] = coarse_solution.u.coeffs
    u_star = PeriodicTrajectory(coeffs, coarse_solution.u.dx)
    gc.collect()
    tracemalloc.start()
    try:
        result = continue_branch(coarse_problem, coarse_functional, u_star,
                                 alpha_max=0.5, steps=10)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(result.points) == 11 and result.newton_space == "mode-1"
    assert held < len(result.points) * 17 * u_star.dim * 16 / 4


# ---------------------------------------------------------------------------
# chord continuation: the Newton solves of a sweep share one held factor


def test_quasilinear_sweep_factorizes_once_per_rung(monkeypatch, coarse_quasi_problem,
                                                    quasi_setup):
    """Newton iterates at every quasilinear point, and the steps of the
    sweep solve through the held band, factored once per rung they climb:
    the odd modes up to 3 at the first point, whose residual has mode-3
    content, then up to 7, the top odd rung at ``n_t = 8``, once the
    iterate's mode 3 drives modes 5 and 7 above the tolerance.  The chord
    steps reach the branch that a tighter tolerance finds.  A residual of
    1e-10 leaves lambda 1.0e-9 off at the smallest amplitude, whose one
    step is exact either way, hence the bound of 2e-9."""
    tight = quasi_sweep(coarse_quasi_problem, quasi_setup, newton_tol=1e-13)
    calls, modes = [], []
    dgbtrf = newton_module.lapack.dgbtrf
    assemble = solver_module.assemble_jacobian_band

    def counting_dgbtrf(*args, **kwargs):
        calls.append(1)
        return dgbtrf(*args, **kwargs)

    def recording(problem, params, base, layout):
        modes.append(layout.modes)
        return assemble(problem, params, base, layout)

    monkeypatch.setattr(newton_module.lapack, "dgbtrf", counting_dgbtrf)
    monkeypatch.setattr(solver_module, "assemble_jacobian_band", recording)
    result = quasi_sweep(coarse_quasi_problem, quasi_setup)
    assert not result.truncated and result.notes == []
    assert all(pt.newton_iters >= 1 for pt in result.points[1:])
    assert modes == [range(1, 4, 2), range(1, 8, 2)]
    assert len(calls) == result.factorizations == 2
    assert result.newton_space == "half-wave" and result.newton_max_mode == 7
    npt.assert_allclose(result.lambdas, tight.lambdas, rtol=0.0, atol=2e-9)
    npt.assert_allclose(result.sigmas, tight.sigmas, rtol=0.0, atol=2e-9)


def count_live_bands(monkeypatch):
    """Per band assembly from now on, the number of earlier bands still
    alive when it starts."""
    bands, alive = [], []
    assemble = solver_module.assemble_jacobian_band

    def tracking(*args):
        alive.append(sum(ref() is not None for ref in bands))
        band = assemble(*args)
        bands.append(weakref.ref(band))
        return band

    monkeypatch.setattr(solver_module, "assemble_jacobian_band", tracking)
    return alive


def test_sweep_keeps_at_most_one_band_alive(monkeypatch, coarse_problem,
                                            coarse_functional, coarse_solution):
    """No band outlives the next band's assembly, even without a cyclic
    GC, across a sweep that refactors and the symmetry check after it:
    the held factor is released before a new band is assembled."""
    alive = count_live_bands(monkeypatch)
    far_factor(monkeypatch, coarse_problem, coarse_functional)
    gc.disable()
    try:
        result = continue_branch(coarse_problem, coarse_functional,
                                 coarse_solution.u, alpha_max=0.5, steps=10)
        check_branch_symmetry(coarse_problem, coarse_functional, result)
    finally:
        gc.enable()
    assert result.factorizations == 2 and len(alive) >= 3
    assert not any(alive)


def test_singular_chord_steps_are_taken_exactly(monkeypatch, coarse_quasi_problem,
                                                quasi_setup, quasi_branch):
    """A chord step whose bordered reduction fails is taken again at the
    same iterate through a new factor: with every chord step failing, the
    sweep is exact Newton, one factorization per iteration, and reaches
    the same branch."""
    step = solver_module._bordered_step
    made = []  # the bands whose exact step has run

    def singular_chords(lin, layout, held, core, r_pair):
        if any(band is held.band for band in made):
            raise SingularBandError("chord reduction failed")
        made.append(held.band)
        return step(lin, layout, held, core, r_pair)

    monkeypatch.setattr(solver_module, "_bordered_step", singular_chords)
    result = quasi_sweep(coarse_quasi_problem, quasi_setup)
    assert not result.truncated and result.notes == []
    iterations = sum(pt.newton_iters for pt in result.points)
    assert result.factorizations == iterations == len(made) > len(result.points)
    npt.assert_allclose(result.lambdas, quasi_branch.lambdas, rtol=0.0, atol=2e-9)


def test_chord_step_out_of_the_window_steps_exactly(
        monkeypatch, coarse_problem, coarse_functional, coarse_solution,
        coarse_branch):
    """A held factor so far off that a chord step leaves the lambda window:
    the solve takes an exact step from the iterate before it, and the
    half-wave sweep gives the full, untruncated branch."""
    left = []
    residual_g = type(coarse_problem).residual_g

    def recording(self, params, u):
        try:
            return residual_g(self, params, u)
        except DomainError as exc:
            left.append(str(exc))
            raise

    monkeypatch.setattr(type(coarse_problem), "residual_g", recording)
    far_factor(monkeypatch, coarse_problem, coarse_functional)
    result = continue_branch(coarse_problem, coarse_functional,
                             with_overtone(coarse_solution.u), alpha_max=0.5,
                             steps=10)
    assert left and all("outside admissible window" in note for note in left)
    assert not result.truncated and result.notes == []
    assert result.newton_space == "half-wave"
    assert len(result.points) == len(coarse_branch.points)
    assert result.factorizations == 2
    npt.assert_allclose(result.lambdas, coarse_branch.lambdas, rtol=0.0, atol=1e-9)


def test_chord_steps_do_not_trip_the_stall_note(
        monkeypatch, coarse_problem, coarse_functional, coarse_solution):
    """A first factor at 50 u* (zero core, inside the trust radius): a
    chord step of 2.3e-10 and the larger exact step that replaces it are
    not compared, so the half-wave sweep, which converges onto lambda =
    alpha**2, records no stall note."""
    far_factor(monkeypatch, coarse_problem, coarse_functional,
               ScaledParams(0.0, 0.0), 50.0 * coarse_solution.u)
    result = continue_branch(coarse_problem, coarse_functional,
                             with_overtone(coarse_solution.u), alpha_max=0.5,
                             steps=10)
    assert not result.truncated and result.notes == []
    npt.assert_allclose(result.lambdas, result.alphas ** 2, rtol=0.0, atol=1e-9)


def test_mode_one_factor_that_stops_halving_is_replaced(
        monkeypatch, coarse_problem, coarse_functional, coarse_solution,
        coarse_branch):
    """A held mode-1 factor at 50 u* (zero core): the sweep's steps chord
    through it until one does not halve the residual, and the next step
    factors at its iterate, a factor that serves the rest of the sweep.
    No step is dropped (one bordered step per iteration), the sweep stays
    on mode 1, and it finds the branch that a fresh factor finds."""
    bands = []
    step = solver_module._bordered_step

    def recording(lin, layout, held, core, r_pair):
        bands.append(held.band)
        return step(lin, layout, held, core, r_pair)

    far_factor(monkeypatch, coarse_problem, coarse_functional,
               ScaledParams(0.0, 0.0), 50.0 * coarse_solution.u, space=0)
    monkeypatch.setattr(solver_module, "_bordered_step", recording)
    result = continue_branch(coarse_problem, coarse_functional,
                             coarse_solution.u, alpha_max=0.5, steps=10)
    assert not result.truncated and result.notes == []
    assert result.newton_space == "mode-1" and result.factorizations == 2
    assert len(bands) == sum(pt.newton_iters for pt in result.points)
    far, last = bands[0], bands[-1]
    switch = next(k for k, band in enumerate(bands) if band is not far)
    assert switch >= 2  # the far factor halved the residual before
    assert all(band is last for band in bands[switch:])
    for got, want in ((result.lambdas, coarse_branch.lambdas),
                      (result.sigmas, coarse_branch.sigmas)):
        npt.assert_allclose(got, want, rtol=0.0, atol=10.0 * NEWTON_TOL)


@pytest.mark.parametrize("rotation_breaking, space", [
    pytest.param(0.0, "mode-1", id="rotating-waves"),
    pytest.param(0.5, "half-wave", id="rotation-breaking"),
])
def test_chord_sweep_matches_exact_newton(monkeypatch, rotation_breaking, space,
                                         coarse_problem, coarse_functional,
                                         coarse_solution):
    """With no held factor ever fitting, every step factors at its iterate
    (exact Newton): the oracle.  The chord sweep, whose steps go through
    the held factor on every rung, mode 1 included, finds lambda and sigma
    within ten times the Newton tolerance of it, in the same space; the
    rotation-breaking term still moves the chord sweep off mode 1."""
    problem = coarse_problem
    if rotation_breaking:
        problem = with_rotation_breaking_term(coarse_problem, rotation_breaking)

    def sweep():
        return continue_branch(problem, coarse_functional, coarse_solution.u,
                               alpha_max=0.5, steps=10)

    chord = sweep()
    monkeypatch.setattr(solver_module._SharedFactor, "fits",
                        lambda self, layout: False)
    exact = sweep()
    for result in (chord, exact):
        assert not result.truncated and result.notes == []
        assert result.newton_space == space
    assert exact.factorizations == sum(pt.newton_iters for pt in exact.points)
    assert chord.factorizations <= exact.factorizations
    for got, want in ((chord.lambdas, exact.lambdas),
                      (chord.sigmas, exact.sigmas)):
        npt.assert_allclose(got, want, rtol=0.0, atol=10.0 * NEWTON_TOL)


def test_stall_note_compares_consecutive_exact_steps():
    """Growth inside the contraction region (below 100 tol) is noted
    between two exact steps, not between a chord step and an exact one."""
    exact = solver_module._NewtonTrace(1e-10)
    exact.record_step(2e-10, exact=True)
    exact.record_step(3e-10, exact=True)
    assert exact.notes == [
        "step norm stalled inside the contraction region (2.000e-10 -> 3.000e-10)"
    ]
    chord = solver_module._NewtonTrace(1e-10)
    chord.record_step(2e-10, exact=False)
    chord.record_step(3e-10, exact=True)
    assert chord.notes == [] and chord.step_norms == [2e-10, 3e-10]


# ---------------------------------------------------------------------------
# Newton spaces: the periodic systems on mode 1, on the odd Fourier modes
# (half-wave) or on all modes


def space_name(layout):
    """The name in `_SPACES` of a Newton layout's mode set: every odd rung
    above mode 1 is ``"half-wave"``."""
    if layout.modes == range(1, 2):
        return "mode-1"
    if layout.modes == range(layout.n_t + 1):
        return "full"
    assert layout.modes.start == 1 and layout.modes.step == 2
    return "half-wave"


def synthetic_trajectory(n_t, **modes):
    """A trajectory of two fields on two grid points whose Fourier mode
    ``n`` (keyword ``m<n>``) is the given multiple of ``(1, -2, 0.5, 1)``."""
    coeffs = np.zeros((n_t + 1, 4), dtype=complex)
    for name, scale in modes.items():
        coeffs[int(name[1:])] = scale * np.array([1.0, -2.0, 0.5, 1.0])
    return PeriodicTrajectory(coeffs, 0.5)


@pytest.mark.parametrize("iterate, residual, expected", [
    pytest.param({"m1": 1.0}, {"m1": 1.0}, "mode-1", id="single-harmonic"),
    pytest.param({"m1": 1.0, "m3": 1e-20}, {"m1": 1.0}, "half-wave",
                 id="odd-overtone"),
    pytest.param({"m1": 1.0, "m2": 1e-20}, {"m1": 1.0}, "full", id="even-mode"),
    pytest.param({"m0": 1e-20, "m1": 1.0}, {}, "full", id="mean"),
    pytest.param({"m1": 1.0}, {"m3": 1.0}, "half-wave", id="odd-residual"),
    pytest.param({"m1": 1.0}, {"m4": 1.0}, "full", id="even-residual"),
])
def test_newton_space_is_the_narrowest_that_holds_everything(
        iterate, residual, expected):
    """The space holds the base and the iterate exactly, and the residual
    outside it is at most the tolerance; a residual of norm 1 anywhere
    outside mode 1 fails the tolerance."""
    n_t = 4
    core = synthetic_trajectory(n_t, **residual)
    space = solver_module._newton_space(
        (synthetic_trajectory(n_t, m1=1.0), synthetic_trajectory(n_t, **iterate)),
        core, 1e-10)
    assert solver_module._SPACES[space] == expected


@pytest.mark.parametrize("mode, wider", [(3, "half-wave"), (2, "full"),
                                         (0, "full")])
def test_newton_space_compares_the_residual_with_the_tolerance(mode, wider):
    """Residual content outside mode 1 of norm just at the tolerance keeps
    the solve on mode 1; just above it, the solve takes the next space
    that holds it."""
    n_t, tol = 4, 1e-10
    unit = synthetic_trajectory(n_t, **{f"m{mode}": 1.0})
    single = synthetic_trajectory(n_t, m1=1.0)
    for factor, expected in ((1.0 - 1e-9, "mode-1"), (1.0 + 1e-9, wider)):
        core = single + (factor * tol / unit.norm()) * unit
        space = solver_module._newton_space((single,), core, tol)
        assert solver_module._SPACES[space] == expected


def test_newton_space_never_narrows_below_its_floor():
    """From ``narrowest`` on, the pick is the wider of ``narrowest`` and
    the free pick: the spaces are nested, so whatever qualifies for a
    narrow space qualifies for every wider one."""
    n_t, tol = 4, 1e-10
    single = synthetic_trajectory(n_t, m1=1.0)
    cases = [
        ((single,), single),
        ((synthetic_trajectory(n_t, m1=1.0, m3=0.1),), single),
        ((single,), synthetic_trajectory(n_t, m2=1.0)),
        ((zero_trajectory(n_t, 4, 0.5),), zero_trajectory(n_t, 4, 0.5)),
    ]
    for trajectories, core in cases:
        free = solver_module._newton_space(trajectories, core, tol)
        for narrowest in range(len(solver_module._SPACES)):
            picked = solver_module._newton_space(trajectories, core, tol, narrowest)
            assert picked == max(free, narrowest)


@pytest.mark.parametrize("n_t", [1, 2])
def test_newton_space_at_two_time_modes_or_fewer(n_t):
    """At ``n_t <= 2`` the odd modes are mode 1 alone: a single harmonic
    picks mode 1, a pick from the half-wave space on has the same modes,
    and a factor held in mode 1 serves a layout of either rung.  At
    ``n_t = 0`` every pick is the full space."""
    single = synthetic_trajectory(n_t, m1=1.0)
    assert solver_module._newton_space((single,), single, 1e-10) == 0
    assert solver_module._newton_space((single,), single, 1e-10, 1) == 1
    held = solver_module._SharedFactor()
    for space in range(2):
        layout = newton_module.TrajectoryLayout(
            n_t, 2, 0.5, solver_module._space_modes(space, n_t))
        assert layout.modes == range(1, 2)
        held.band, held.layout = object(), layout  # a factor held in it
        assert held.fits(layout)
    wide = newton_module.TrajectoryLayout(4, 2, 0.5, odd_modes(4))
    held.layout = wide
    assert held.fits(wide)
    zero = zero_trajectory(0, 4, 0.5)
    assert solver_module._newton_space((zero,), zero, 1e-10) == solver_module._FULL


@pytest.mark.parametrize("n_t, tops", [
    (1, [1]), (4, [1, 3, 4]), (8, [1, 3, 7, 8]), (16, [1, 3, 7, 15, 16]),
    (300, [1, 3, 7, 15, 31, 63, 127, 299, 300]),
])
def test_ladder_doubles_up_to_the_half_wave_set(n_t, tops):
    """The rungs' highest modes, each mode set counted once: ``2**j - 1``
    capped at ``n_t``, the top odd rung every odd mode (the half-wave
    set), then all modes; every rung holds the ones below it."""
    ladder = [solver_module._space_modes(space, n_t)
              for space in range(solver_module._FULL + 1)]
    assert ladder[-2] == odd_modes(n_t) and ladder[-1] == range(n_t + 1)
    assert all(set(narrow) <= set(wide) for narrow, wide in zip(ladder, ladder[1:]))
    assert sorted({modes[-1] for modes in ladder}) == tops


@pytest.mark.parametrize("space, top", [(1, 3), (2, 7), (3, 15)])
def test_newton_space_picks_each_rung(space, top):
    """At ``n_t = 16``: an iterate whose highest mode is the rung's top
    picks the rung, one with the next odd mode the rung above it (all
    modes above the top odd rung, which has no next odd mode), and an even
    mode all modes.  A residual at the top of the rung, just above the
    tolerance, picks the rung; just below it, mode 1."""
    n_t, tol = 16, 1e-10
    single = synthetic_trajectory(n_t, m1=1.0)

    def pick(*trajectories, core=single):
        return solver_module._newton_space((single, *trajectories), core, tol)

    assert solver_module._space_modes(space, n_t)[-1] == top
    assert pick(synthetic_trajectory(n_t, m1=1.0, **{f"m{top}": 1e-20})) == space
    if top + 2 <= n_t:
        above = synthetic_trajectory(n_t, m1=1.0, **{f"m{top + 2}": 1e-20})
        assert pick(above) == space + 1
    assert pick(synthetic_trajectory(n_t, m1=1.0, **{f"m{top + 1}": 1e-20})
                ) == solver_module._FULL
    unit = synthetic_trajectory(n_t, **{f"m{top}": 1.0})
    for factor, expected in ((1.0 - 1e-9, 0), (1.0 + 1e-9, space)):
        assert pick(core=single + (factor * tol / unit.norm()) * unit) == expected


@pytest.mark.parametrize("space", [0, 1, 2])
def test_rung_step_is_the_full_step_restricted(space, coarse_quasi_problem,
                                               quasi_setup):
    """The extended system at an iterate with odd modes up to the rung's
    top (the base is zero, so the derivative couples no modes): the step
    in the rung `_newton_space` picks is the full-space step, whose modes
    outside the rung are zero."""
    problem = coarse_quasi_problem
    functional, solution = quasi_setup
    n_t = 8
    top = solver_module._space_modes(space, n_t)[-1]
    coeffs = np.array(solution.u.coeffs)  # a single harmonic, n_t = 8
    for n in range(3, top + 1, 2):
        coeffs[n] = 0.1 ** n * coeffs[1]
    u = PeriodicTrajectory(coeffs, solution.u.dx)
    params = ScaledParams(0.03, -0.01)
    r_pair, core = extended_residual(problem, functional, params, u)
    lin = solver_module._extended_linearization(problem, functional, params, u, core)
    assert solver_module._newton_space((lin.base, u), core, NEWTON_TOL) == space
    rung_system, rung = lin.bordered_system(lin.layout(space))
    full_system, full = lin.bordered_system(lin.layout())
    dy, dp = full_system.solve(-full.flatten_trajectory(core), -r_pair)
    step = np.concatenate([dy, dp])
    dy, dp = rung_system.solve(-rung.flatten_trajectory(core), -r_pair)
    npt.assert_allclose(np.concatenate([full.flatten(rung.unflatten(dy)), dp]),
                        step, rtol=0.0, atol=1e-9 * np.abs(step).max())


@pytest.mark.parametrize("space", [1, 2])
def test_rung_step_is_the_galerkin_step(space, coarse_quasi_problem, quasi_setup):
    """The branch system at an odd base with modes up to the rung's top:
    the base couples each mode into the ones two above it, so the rung's
    step is the Galerkin step of the full system, whose exact derivative
    leaves a residual only outside the rung.  On the top odd rung that is
    the even modes, where it is zero: the half-wave step is the full one."""
    problem = coarse_quasi_problem
    functional, solution = quasi_setup
    n_t = 8
    modes = solver_module._space_modes(space, n_t)
    coeffs = 0.05 * np.array(solution.u.coeffs)
    coeffs[3:modes[-1] + 1:2] = 1e-3 * coeffs[1]
    u = PeriodicTrajectory(coeffs, solution.u.dx)
    params = ScaledParams(0.03, -0.01)
    core = problem.residual_g(params, u)
    r_pair = functional.pair(u) - np.array([0.06, 0.0])
    lin = solver_module._branch_linearization(problem, functional, params, u, core)
    system, layout = lin.bordered_system(lin.layout(space))
    dy, dp = system.solve(-layout.flatten_trajectory(core), -r_pair)
    pair, image = lin.apply(dp[0], dp[1], layout.to_trajectory(dy))
    left = (image + core).coeffs
    inside = np.zeros(n_t + 1, dtype=bool)
    inside[modes] = True
    scale = core.norm() / np.sqrt(core.dx)
    assert np.abs(left[inside]).max() <= 1e-9 * scale
    assert np.abs(pair + r_pair).max() <= 1e-9 * np.abs(r_pair).max()
    outside = np.abs(left[~inside]).max()
    if modes == odd_modes(n_t):
        assert outside <= 1e-9 * scale
    else:
        assert outside > 1e-6 * scale


def test_linearization_apply_is_the_trajectory_sum(coarse_quasi_problem, quasi_setup):
    """`_Linearization.apply` adds its parameter columns into the array of
    `linearised_g`'s result: bit for bit ``core + dlam * col_lam + dsig *
    col_sig`` on trajectories, and as read-only."""
    problem = coarse_quasi_problem
    functional, solution = quasi_setup
    u = PeriodicTrajectory(0.05 * np.array(solution.u.coeffs), solution.u.dx)
    params = ScaledParams(0.03, -0.01)
    lin = solver_module._branch_linearization(
        problem, functional, params, u, problem.residual_g(params, u))
    rng = np.random.default_rng(5)
    coeffs = rng.normal(size=u.coeffs.shape) + 1j * rng.normal(size=u.coeffs.shape)
    coeffs[0] = coeffs[0].real
    v = PeriodicTrajectory(coeffs, u.dx)
    pair, image = lin.apply(0.4, -0.7, v)
    expect = (problem.linearised_g(params, u, v) + 0.4 * lin.col_lam
              + -0.7 * lin.col_sig)
    assert np.array_equal(image.coeffs, expect.coeffs)
    assert not image.coeffs.flags.writeable
    assert np.array_equal(pair, functional.pair(v))


def test_linearization_apply_reads_its_columns_live_modes(coarse_problem,
                                                          coarse_decomp,
                                                          coarse_functional):
    """`_Linearization.apply` writes its parameter columns into
    `linearised_g`'s fresh array and adopts it again, the one write into a
    trajectory's array after it is made: the result's `top_mode` is that
    of a fresh scan, which reads ``col_lam``'s mode 5 above the mode-1
    direction and product."""
    problem, n_t = coarse_problem, 8
    params = ScaledParams(0.02, 0.0)
    zero = zero_trajectory(n_t, problem.dim, problem.dx)
    v = single_harmonic(coarse_decomp.psi, n_t)
    assert problem.linearised_g(params, zero, v).top_mode() == 1
    coeffs = np.zeros((n_t + 1, problem.dim), dtype=complex)
    coeffs[5] = 1e-3
    f_lambda = PeriodicTrajectory(coeffs, problem.dx)
    lin = solver_module._Linearization(problem, coarse_functional, params, zero,
                                       v, problem.residual_g(params, v), f_lambda)
    _, image = lin.apply(0.5, 0.0, v)
    assert image.top_mode() == 5
    assert PeriodicTrajectory(image.coeffs, image.dx).top_mode() == 5


def test_held_wider_factor_serves_a_narrower_rung(monkeypatch, coarse_quasi_problem,
                                                  quasi_setup, quasi_branch):
    """The first point of the quasilinear branch picks the odd modes up to
    3; with the mid point's factor held (the odd modes up to 7) its steps
    solve through that factor instead of factoring the narrower band, and
    reach the same point."""
    problem = coarse_quasi_problem
    functional, solution = quasi_setup
    mid = quasi_branch.points[len(quasi_branch.points) // 2]
    first = quasi_branch.points[1]
    core = problem.residual_g(mid.params, mid.u)
    held = solver_module._SharedFactor()
    held.refactor(
        solver_module._branch_linearization(problem, functional, mid.params,
                                            mid.u, core),
        solver_module._newton_space((mid.u,), core, NEWTON_TOL))
    assert held.layout.modes == range(1, 8, 2)
    u = first.alpha * solution.u
    params = ScaledParams(*solution.params)
    assert solver_module._newton_space(
        (u,), problem.residual_g(params, u), NEWTON_TOL) == 1

    spaces = []
    step = solver_module._bordered_step

    def recording(lin, layout, factor, core, r_pair):
        spaces.append(layout.modes)
        return step(lin, layout, factor, core, r_pair)

    monkeypatch.setattr(solver_module, "_bordered_step", recording)
    params, u, _, iters, trace = solver_module._branch_newton(
        problem, functional, first.alpha, params, u, NEWTON_TOL, 25, held)
    assert iters >= 1 and set(spaces) == {range(1, 8, 2)}
    assert held.factorizations == 1 and trace.residuals[-1] <= NEWTON_TOL
    assert abs(params.lam - first.lam) <= 2e-9 and (u - first.u).norm() <= 1e-8


def test_newton_max_mode_is_the_widest_rung_top(coarse_branch, quasi_branch):
    """The semilinear sweep stays on mode 1; the quasilinear one at ``n_t =
    8`` climbs to the odd modes up to 7."""
    assert (coarse_branch.newton_space, coarse_branch.newton_max_mode) == ("mode-1", 1)
    assert (quasi_branch.newton_space, quasi_branch.newton_max_mode) == ("half-wave", 7)


@pytest.mark.parametrize("grid, overtone, space", [
    pytest.param("coarse", 0.01, "half-wave", id="coarse"),
    pytest.param("coarse_quasi", 0.01, "half-wave", id="coarse_quasi"),
    pytest.param("coarse", 0.0, "mode-1", id="coarse-single-harmonic"),
    pytest.param("coarse_quasi", 0.0, "half-wave", id="coarse_quasi-single-harmonic"),
])
def test_half_wave_step_matches_the_full_step(grid, overtone, space, request):
    """One bordered Newton step at an odd iterate, in the space Newton
    picks there: the half-wave step, with zero even modes, and the
    full-space step both match a dense solve of the full system.  Without
    the overtone the iterate is a rotating wave: on the semilinear grid
    the residual stays in mode 1, and so does the step; the quasilinear
    residual has mode-3 content, so that step stays half-wave."""
    cfg = request.getfixturevalue(f"{grid}_cfg")
    problem = request.getfixturevalue(f"{grid}_problem")
    decomp = build_projection(problem, reference=reference_eigenvector(cfg))
    functional = build_amplitude_functional(decomp.psi, decomp.phi_adj)
    n_t = 3
    coeffs = np.array(exact_branch_trajectory(cfg, 0.04, n_t=n_t).coeffs)
    coeffs[3] = overtone * coeffs[1]  # an odd overtone off the branch
    u = PeriodicTrajectory(coeffs, cfg.dx)
    params = ScaledParams(0.03, -0.01)
    core = problem.residual_g(params, u)
    r_pair = functional.pair(u) - np.array([0.25, 0.0])
    lin = solver_module._branch_linearization(problem, functional, params, u, core)
    picked = solver_module._newton_space((u,), core, NEWTON_TOL)
    half_system, half = lin.bordered_system(lin.layout(picked))
    full_system, full = lin.bordered_system(lin.layout())
    assert space_name(half) == space and full.modes == range(n_t + 1)

    rhs = np.concatenate([-full.flatten_trajectory(core), -r_pair])
    oracle = np.linalg.solve(dense_of_storage(full_system), rhs)
    atol = 1e-9 * np.abs(oracle).max()
    dy, dp = half_system.solve(-half.flatten_trajectory(core), -r_pair)
    npt.assert_allclose(np.concatenate([full.flatten(half.unflatten(dy)), dp]),
                        oracle, rtol=0.0, atol=atol)
    npt.assert_allclose(np.concatenate(full_system.solve(rhs[:-2], rhs[-2:])),
                        oracle, rtol=0.0, atol=atol)


@pytest.fixture(scope="module")
def even_setup(coarse_problem, coarse_cfg):
    """The coarse example with an even term ``0.5 w**2`` added to h."""
    problem = with_even_term(coarse_problem, 0.5)
    decomp = build_projection(problem, reference=reference_eigenvector(coarse_cfg))
    functional = build_amplitude_functional(decomp.psi, decomp.phi_adj)
    solution = solve_extended(
        problem, functional, initial_extended_state(decomp.psi, n_t=8))
    return problem, functional, solution


def even_branch(problem, functional, u_star, params_star):
    return continue_branch(problem, functional, u_star, alpha_max=0.3,
                           steps=6, params_star=params_star)


def test_even_term_takes_the_full_space_and_converges(even_setup, overtone_branch,
                                                     coarse_problem, coarse_cfg):
    problem, functional, solution = even_setup
    assert overtone_branch.newton_space == "half-wave"
    # at the same odd iterate with an overtone only the odd problem takes
    # the half-wave space, and at the single harmonic only it takes mode 1:
    # the even problem's residual has even modes, so it reads full
    single = exact_branch_trajectory(coarse_cfg, 0.01, n_t=8)
    u = with_overtone(single, 1e-3)
    params = ScaledParams(0.01, 0.0)
    for prob, spaces in ((coarse_problem, ["half-wave", "mode-1"]),
                         (problem, ["full", "full"])):
        assert [solver_module._SPACES[solver_module._newton_space(
            (v,), prob.residual_g(params, v), NEWTON_TOL)] for v in (u, single)
        ] == spaces
    result = even_branch(problem, functional, solution.u, solution.params)
    assert result.newton_space == "full"
    assert result.notes == [] and len(result.points) == 7
    assert all(pt.residual <= NEWTON_TOL for pt in result.points)
    # the even term drives the modes a half-wave solve would drop
    assert np.abs(result.points[-1].u.coeffs[0::2]).max() > 1e-3


def test_even_residual_moves_the_solve_to_the_full_space(even_setup, monkeypatch):
    """A problem whose residual has even modes, from an odd start whose
    iterates the half-wave space holds: the even residual exceeds the
    tolerance, so every step runs in the full space and finds the branch
    that the full space finds."""
    problem, functional, solution = even_setup
    reference = even_branch(problem, functional, solution.u, solution.params)
    coeffs = np.array(solution.u.coeffs)
    coeffs[0::2] = 0.0
    u_star = PeriodicTrajectory(coeffs, solution.u.dx)

    spaces = []
    assemble = solver_module.assemble_jacobian_band

    def recording(problem, params, base, layout):
        spaces.append(layout.modes)
        return assemble(problem, params, base, layout)

    monkeypatch.setattr(solver_module, "assemble_jacobian_band", recording)
    result = even_branch(problem, functional, u_star, solution.params)
    assert result.newton_space == "full" and result.notes == []
    assert spaces and set(spaces) == {range(9)}
    npt.assert_allclose(result.lambdas, reference.lambdas, rtol=0.0, atol=1e-10)


@pytest.mark.parametrize("cube", [
    pytest.param(lambda u: u * u * u, id="product"),
    pytest.param(lambda u: u ** 3, id="power"),
])
def test_residual_off_mode_one_widens_the_solve(
        monkeypatch, cube, coarse_problem, coarse_functional, coarse_solution):
    """A term that breaks the rotation symmetry only away from lam = 0: the
    first step from the predictor at lam = 0, a single harmonic with a
    mode-1 residual, takes mode 1; at the lam it reaches the residual has
    mode-3 content, so the solve widens to the half-wave space and the
    sweep finds the branch that half-wave steps alone find with the cube
    written ``u * u * u``.  Written ``u ** 3``, the cube is not
    sign-symmetric to the bit, and the solve takes the same spaces."""
    def sweep(cube):
        problem = with_rotation_breaking_term(coarse_problem, 0.5, cube)
        return continue_branch(problem, coarse_functional, coarse_solution.u,
                               alpha_max=0.3, steps=3)

    newton_space = solver_module._newton_space
    monkeypatch.setattr(
        solver_module, "_newton_space",
        lambda trajectories, core, tol, narrowest=0: newton_space(
            trajectories, core, tol, max(narrowest, 1)))
    reference = sweep(lambda u: u * u * u)
    assert reference.newton_space == "half-wave"
    monkeypatch.setattr(solver_module, "_newton_space", newton_space)
    spaces = []
    step = solver_module._bordered_step

    def recording(lin, layout, held, core, r_pair):
        spaces.append(space_name(layout))
        return step(lin, layout, held, core, r_pair)

    monkeypatch.setattr(solver_module, "_bordered_step", recording)
    result = sweep(cube)
    assert spaces[:2] == ["mode-1", "half-wave"]
    assert "mode-1" not in spaces[1:]
    assert result.newton_space == "half-wave"
    assert not result.truncated and result.notes == []
    assert np.abs(result.points[-1].u.coeffs[3]).max() > 1e-6
    npt.assert_allclose(result.lambdas, reference.lambdas, rtol=0.0, atol=1e-10)


@pytest.mark.parametrize("error", [SingularBandError, np.linalg.LinAlgError,
                                   DomainError])
def test_failed_mode_one_step_widens(monkeypatch, error, coarse_problem,
                                     coarse_functional, coarse_solution,
                                     coarse_branch):
    """A mode-1 step that fails (a singular band, or a residual outside
    the solver's domain) is taken again at the same iterate in the
    half-wave space: the sweep neither raises nor truncates, and finds the
    same branch."""
    spaces = []
    step = solver_module._bordered_step

    def failing_mode_1_step(lin, layout, held, core, r_pair):
        spaces.append(space_name(layout))
        if spaces[-1] == "mode-1":
            raise error("failed mode-1 step")
        return step(lin, layout, held, core, r_pair)

    monkeypatch.setattr(solver_module, "_bordered_step", failing_mode_1_step)
    result = continue_branch(coarse_problem, coarse_functional,
                             coarse_solution.u, alpha_max=0.5, steps=10)
    assert spaces[:2] == ["mode-1", "half-wave"]
    assert result.newton_space == "half-wave"
    assert not result.truncated and result.notes == []
    npt.assert_allclose(result.lambdas, coarse_branch.lambdas, rtol=0.0, atol=1e-9)


def test_uneven_iterate_drops_a_half_wave_factor(monkeypatch, coarse_problem,
                                                 coarse_functional, overtone_branch):
    """An iterate with even modes cannot step through a half-wave held
    factor (the odd modes up to 3, the rung the mid point picks: its
    overtone leaves modes 5 and 7 of the residual below the tolerance):
    its first step releases it and factors in the full space, and the
    later steps solve through that factor."""
    alive = count_live_bands(monkeypatch)
    mid = overtone_branch.points[5]
    core = coarse_problem.residual_g(mid.params, mid.u)
    factor = solver_module._SharedFactor()
    factor.refactor(
        solver_module._branch_linearization(
            coarse_problem, coarse_functional, mid.params, mid.u, core),
        solver_module._newton_space((mid.u,), core, NEWTON_TOL))
    assert factor.layout.modes == range(1, 4, 2)
    coeffs = np.array(mid.u.coeffs)
    coeffs[2] = 1e-3 * coeffs[1]
    params, u, _, iters, trace = solver_module._branch_newton(
        coarse_problem, coarse_functional, mid.alpha, mid.params,
        PeriodicTrajectory(coeffs, mid.u.dx), NEWTON_TOL, 25, factor)
    assert iters >= 2 and trace.widest == solver_module._SPACES.index("full")
    assert factor.factorizations == 2 and factor.layout.modes == range(9)
    assert alive == [0, 0]
    assert (u - mid.u).norm() <= 1e-8 and abs(params.lam - mid.lam) <= 1e-10


# ---------------------------------------------------------------------------
# symmetry of the branch under amplitude reflection


@pytest.fixture(scope="module")
def coarse_symmetry(coarse_problem, coarse_functional, coarse_branch):
    return check_branch_symmetry(
        coarse_problem, coarse_functional, coarse_branch
    )


def test_symmetry_report_passes(coarse_branch, coarse_symmetry):
    report = coarse_symmetry
    assert report.passed
    assert report.parameter_deviation <= 1e-9
    assert report.state_deviation <= 1e-9
    assert len(report.phase_deviations) == 3
    assert all(v <= report.tolerance for v in report.phase_deviations.values())
    assert coarse_branch.symmetry_report is report


def test_symmetry_json_dict(coarse_symmetry):
    obj = coarse_symmetry.to_json_dict()
    assert obj["schema"] == 1
    assert obj["passed"] is True
    assert set(obj) >= {"parameter_deviation", "state_deviation", "tolerance"}
    assert obj["factorizations"] == coarse_symmetry.factorizations
    assert obj["newton_iters"] == coarse_symmetry.newton_iters


def test_symmetry_check_factorizes_one_band(monkeypatch, coarse_problem,
                                            coarse_functional, overtone_branch):
    """On a half-wave branch the mirrored branch and the phase seeds all
    solve through the mid point's factor, rotated: one dgbtrf for the
    whole check."""
    calls = []
    dgbtrf = newton_module.lapack.dgbtrf

    def counting_dgbtrf(*args, **kwargs):
        calls.append(1)
        return dgbtrf(*args, **kwargs)

    monkeypatch.setattr(newton_module.lapack, "dgbtrf", counting_dgbtrf)
    report = check_branch_symmetry(
        coarse_problem, coarse_functional, dataclasses.replace(overtone_branch))
    assert report.passed
    assert len(calls) == 1 and report.factorizations == 1
    assert report.newton_iters >= 3  # every phase seed iterates


def test_symmetry_check_on_rotating_waves_shares_one_mode_1_factor(
        monkeypatch, coarse_problem, coarse_functional, coarse_branch,
        coarse_symmetry):
    """On the semilinear branch (rotating waves) the check makes no
    mid-point factor: the first Newton step factors a mode-1 band,
    ``kl = 4``, and every later step solves through it, rotated."""
    assert coarse_branch.newton_space == "mode-1"
    bands = []
    assemble = solver_module.assemble_jacobian_band

    def recording(*args):
        band = assemble(*args)
        bands.append((args[3].modes, band.kl))
        return band

    monkeypatch.setattr(solver_module, "assemble_jacobian_band", recording)
    report = check_branch_symmetry(
        coarse_problem, coarse_functional, dataclasses.replace(coarse_branch))
    assert report.passed and report.newton_iters >= 3
    assert report.factorizations == len(bands) == 1
    assert bands == [(range(1, 2), 4)]
    assert report.to_json_dict() == coarse_symmetry.to_json_dict()


def test_symmetry_check_refactors_when_the_factor_stalls(
        monkeypatch, coarse_problem, coarse_functional, overtone_branch):
    """A first factor far from the half-wave branch (the band at the
    origin) stops halving the residual; those solves refactor and finish
    with exact Newton, and the check still passes."""

    class PoorFactor(solver_module._SharedFactor):
        def refactor(self, lin, space):
            if not self.factorizations:
                zero = zero_trajectory(lin.base.n_t, lin.base.dim, lin.base.dx)
                lin = solver_module._branch_linearization(
                    lin.problem, lin.functional, ScaledParams(0.0, 0.0),
                    zero, zero)
            super().refactor(lin, space)

    monkeypatch.setattr(solver_module, "_SharedFactor", PoorFactor)
    report = check_branch_symmetry(
        coarse_problem, coarse_functional, dataclasses.replace(overtone_branch))
    assert report.passed
    assert report.factorizations > 1


def test_mirrored_branch_adopts_a_factor_at_phase_pi(monkeypatch, even_setup):
    """On the full space (h has an even term, so the mirror does not
    commute with the derivative), a first factor that stalls on the
    mirrored branch is replaced there by another at phase pi.  Rotated by
    the phase difference, it serves the later mirrored points as well as
    the branch's own factor served their partners, and the check passes."""
    problem, functional, solution = even_setup
    branch = even_branch(problem, functional, solution.u, solution.params)
    phases, solves = [], []

    class StallingFactor(solver_module._SharedFactor):
        def refactor(self, lin, space):
            if not self.factorizations:  # the first band, sigma off by 0.5
                lin = copy.copy(lin)
                lin.params = ScaledParams(lin.params.lam, lin.params.sigma + 0.5)
            super().refactor(lin, space)
            phases.append(self.phase)

    newton = solver_module._newton_square

    def recording(*args):
        out = newton(*args)
        solves.append((args[1][0], out[3], len(phases)))
        return out

    monkeypatch.setattr(solver_module, "_SharedFactor", StallingFactor)
    monkeypatch.setattr(solver_module, "_newton_square", recording)
    report = check_branch_symmetry(problem, functional, dataclasses.replace(branch))
    assert report.passed and report.factorizations == 2
    assert all(abs(abs(phase) - np.pi) <= 1e-3 for phase in phases)
    plus = branch.points[1:]
    assert solves[0][0] == -plus[0].alpha and solves[0][2] == 2
    for pt, (alpha, iters, factors) in zip(plus[1:], solves[1:len(plus)]):
        assert alpha == -pt.alpha and factors == 2
        assert iters <= pt.newton_iters


def test_symmetry_check_seeds_the_phases_at_the_mid_point(
        monkeypatch, coarse_problem, coarse_functional, coarse_branch):
    """Each phase seed starts at the plus branch's mid point: its
    parameters and the translate ``tau_theta(alpha_mid u*)``.  The seed
    then differs from the phase-fixed point only along the orbit, and the
    check takes 8 iterations (a seed from the origin's parameters must
    also correct lambda, and takes 5 alone), each seed landing within a
    tenth of the tolerance.  The mirrored sweep starts at the origin's
    parameters."""
    plus = [pt for pt in coarse_branch.points if pt.alpha > 0.0]
    mid = plus[len(plus) // 2]
    calls = []
    newton = solver_module._branch_newton

    def recording(problem, functional, alpha, params, u, *args):
        calls.append((alpha, params, u))
        return newton(problem, functional, alpha, params, u, *args)

    monkeypatch.setattr(solver_module, "_branch_newton", recording)
    report = check_branch_symmetry(
        coarse_problem, coarse_functional, dataclasses.replace(coarse_branch))
    seeds = [(alpha, params, u) for alpha, params, u in calls if alpha > 0]
    assert len(seeds) == len(solver_module.SYMMETRY_PHASES)
    for theta, (alpha, params, u) in zip(solver_module.SYMMETRY_PHASES, seeds):
        assert alpha == mid.alpha and params == mid.params
        npt.assert_array_equal(
            u.coeffs, (mid.alpha * coarse_branch.u_star).time_shift(theta).coeffs)
    mirrored = [params for alpha, params, _ in calls if alpha < 0]
    assert mirrored[0] == coarse_branch.points[0].params
    assert report.passed and report.newton_iters == 8
    assert all(v <= report.tolerance / 10
               for v in report.phase_deviations.values())


@pytest.mark.parametrize("delta, passed", [(1e-7, False), (2e-9, True)])
def test_symmetry_check_reads_the_mirrored_parameters(
        monkeypatch, coarse_problem, coarse_functional, coarse_branch,
        delta, passed):
    """Every mirrored point's lambda moved by ``delta``: the check's
    tolerance, ``1e-8 + 10 newton_tol = 1.1e-8``, fails it about a factor
    10 above and passes it about a factor 5 below."""
    newton = solver_module._branch_newton

    def shifted(problem, functional, alpha, *args):
        params, *rest = newton(problem, functional, alpha, *args)
        if alpha < 0:
            params = ScaledParams(params.lam + delta, params.sigma)
        return (params, *rest)

    monkeypatch.setattr(solver_module, "_branch_newton", shifted)
    report = check_branch_symmetry(
        coarse_problem, coarse_functional, dataclasses.replace(coarse_branch))
    assert report.passed is passed
    assert report.parameter_deviation == pytest.approx(delta, rel=0.01)
    assert report.state_deviation <= 1e-12


def test_symmetry_check_keeps_the_branch_iteration_cap(
        monkeypatch, coarse_problem, coarse_functional, coarse_solution):
    """The mirrored and phase-seed solves stop at the ``max_iter`` the
    branch was continued with (2 here), not at `MAX_NEWTON_ITERATIONS`.
    From the mid point's parameters the seeds at theta = pi/6 and pi/3
    converge within 2 iterations and the one at pi/2 needs 3, so the
    check fails there, after 10 mirrored and 3 phase-seed solves."""
    result = continue_branch(coarse_problem, coarse_functional,
                             coarse_solution.u, alpha_max=0.5, steps=10,
                             max_iter=2, params_star=coarse_solution.params)
    assert result.max_iter == 2 and result.notes == []
    caps = []
    newton = solver_module._newton_square

    def recording(*args):
        caps.append(args[7])
        return newton(*args)

    monkeypatch.setattr(solver_module, "_newton_square", recording)
    with pytest.raises(ConvergenceError,
                       match="phase-seed Newton failed .* within 2 iterations"):
        check_branch_symmetry(coarse_problem, coarse_functional, result)
    assert len(caps) == 13 and set(caps) == {2}  # 10 mirrored, 3 phase seeds


def test_symmetry_requires_nontrivial_points(coarse_problem,
                                             coarse_functional,
                                             coarse_solution):
    empty = BranchResult(
        points=[], u_star=coarse_solution.u, newton_tol=NEWTON_TOL
    )
    with pytest.raises(ValueError, match="no nontrivial"):
        check_branch_symmetry(coarse_problem, coarse_functional, empty)


# ---------------------------------------------------------------------------
# curvature fit


def fake_branch(alphas, lams, sigmas):
    zero = zero_trajectory(1, 2, 1.0)
    points = [
        BranchPoint(
            alpha=float(a), lam=float(l), sigma=float(s), u=zero,
            residual=0.0, newton_iters=0, l_check=np.array([a, 0.0]),
            eta_norm=0.0,
        )
        for a, l, s in zip(alphas, lams, sigmas)
    ]
    return BranchResult(points=points, u_star=zero, newton_tol=NEWTON_TOL)


def test_fit_on_exact_branch(coarse_branch):
    fit = fit_branch_curvature(coarse_branch)
    assert fit.ok
    assert abs(fit.c1) <= 1e-8
    assert abs(fit.c2 - 1.0) <= 1e-8
    assert abs(fit.s1) <= 1e-8 and abs(fit.s2) <= 1e-8
    assert fit.max_fit_residual <= 1e-8


@pytest.mark.parametrize("param", ["c1", "s1"])
@pytest.mark.parametrize("scale, ok", [(10.0, False), (0.1, True)])
def test_fit_flags_linear_contamination(param, scale, ok):
    """A linear term in lambda (c1) or in sigma (s1) fails the fit at 10x
    `FIT_TOLERANCE` and passes it at 0.1x."""
    alphas = np.linspace(0.0, 0.5, 6)
    slope = scale * FIT_TOLERANCE
    lams = alphas**2 + (slope * alphas if param == "c1" else 0.0)
    sigmas = slope * alphas if param == "s1" else 0.0 * alphas
    fit = fit_branch_curvature(fake_branch(alphas, lams, sigmas))
    assert fit.ok is ok
    assert getattr(fit, param) == pytest.approx(slope, rel=1e-8)
    assert fit.c2 == pytest.approx(1.0, abs=1e-10)


def test_fit_is_relative_to_the_origin_point():
    alphas = np.linspace(0.0, 0.5, 6)
    fit = fit_branch_curvature(
        fake_branch(alphas, -1.5e-4 + alphas**2, 2e-3 + 0.0 * alphas))
    assert fit.ok
    assert abs(fit.c1) <= 1e-12 and abs(fit.c2 - 1.0) <= 1e-12
    assert abs(fit.s1) <= 1e-12 and abs(fit.s2) <= 1e-12


def test_fit_zero_branch_is_clean():
    alphas = np.linspace(0.0, 0.5, 6)
    fit = fit_branch_curvature(fake_branch(alphas, 0 * alphas, 0 * alphas))
    assert fit.ok
    assert fit.c1 == 0.0 and fit.c2 == 0.0


def test_fit_needs_enough_points():
    with pytest.raises(ValueError, match="4"):
        fit_branch_curvature(fake_branch([0.0, 0.1, 0.2], [0, 0, 0], [0, 0, 0]))
