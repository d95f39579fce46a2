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
from hopfkit.linear_periodic import (
    ResonantForcingError,
    _deflated_critical_solve,
    solve_periodic_full,
)
from hopfkit.problem import ResonanceError, SingularOperatorError
from hopfkit.spectral import SpectralDecomposition, build_projection
from hopfkit.trajectory import ComplexStateVector, PeriodicTrajectory


def make_nonresonant_trajectory(dim, dx, n_t=6, seed=0, scale=1.0):
    """Random real trajectory with temporal modes |n| >= 2 only."""
    rng = np.random.default_rng(seed)
    coeffs = np.zeros((n_t + 1, dim), dtype=complex)
    coeffs[2:] = scale * (
        rng.normal(size=(n_t - 1, dim)) + 1j * rng.normal(size=(n_t - 1, dim))
    )
    return PeriodicTrajectory(coeffs, dx)


def mode_by_mode(problem, v):
    """``(i n - B)^{-1} v_hat(n)`` for every mode: the oracle for forcing
    with no modes in {-1, 0, 1}."""
    out = np.zeros_like(v.coeffs)
    for n in range(2, v.n_t + 1):
        out[n] = problem.solve_resolvent(n, v.coeffs[n])
    return v.with_coeffs(out)


@pytest.fixture(scope="module")
def coarse_decomp(coarse_problem):
    return build_projection(coarse_problem)


# ---------------------------------------------------------------------------
# along the critical pair: c' - i c = g, solved by c_hat(n) = g_hat(n) / (i (n - 1))


def test_resonant_ode_mode_two_closed_form(coarse_problem, coarse_decomp):
    g = np.zeros(9, dtype=complex)
    g[4 + 2] = 1.0
    v = psi_forcing(coarse_decomp, g, coarse_problem.dx)
    c = psi_path(coarse_decomp, solve_periodic_full(coarse_problem, coarse_decomp, v))
    assert np.isclose(c[4 + 2], -1j, atol=1e-12)
    assert np.allclose(np.delete(c, 4 + 2), 0.0, atol=1e-12)


def test_resonant_ode_negative_mode_closed_form(coarse_problem, coarse_decomp):
    # mode -1 along psi is conj(psi) content at the critical mode n = 1
    g = np.zeros(7, dtype=complex)
    g[3 - 1] = 1.0
    v = psi_forcing(coarse_decomp, g, coarse_problem.dx)
    assert np.allclose(v.coeffs[1], np.conj(coarse_decomp.psi.data))
    c = psi_path(coarse_decomp, solve_periodic_full(coarse_problem, coarse_decomp, v))
    assert np.isclose(c[3 - 1], 0.5j, atol=1e-12)


def test_resonant_ode_zero(coarse_problem, coarse_decomp):
    # forcing without critical-pair content leaves the path along psi at zero
    rng = np.random.default_rng(20)
    dim = coarse_problem.dim
    coeffs = [coarse_decomp.complement(rng.normal(size=dim) + 1j * rng.normal(size=dim))
              for _ in range(6)]
    coeffs[0] = coeffs[0].real  # P maps real vectors to real vectors
    v = PeriodicTrajectory(np.array(coeffs), coarse_problem.dx)
    u = solve_periodic_full(coarse_problem, coarse_decomp, v)
    assert np.abs(psi_path(coarse_decomp, u)).max() <= 1e-10 * u.norm()


def random_admissible_path(rng, n_t):
    """A random two-sided path with no content at the resonant mode n = 1."""
    g = rng.normal(size=2 * n_t + 1) + 1j * rng.normal(size=2 * n_t + 1)
    g[n_t + 1] = 0.0
    return g


def test_resonant_ode_satisfies_equation(coarse_problem, coarse_decomp):
    g = random_admissible_path(np.random.default_rng(2), n_t=5)
    v = psi_forcing(coarse_decomp, g, coarse_problem.dx)
    c = psi_path(coarse_decomp, solve_periodic_full(coarse_problem, coarse_decomp, v))
    ns = np.arange(-5, 6)
    defect = 1j * ns * c - 1j * c - g
    assert np.linalg.norm(defect) <= 1e-10 * np.linalg.norm(g)
    assert abs(c[5 + 1]) <= 1e-12


def test_resonant_ode_quadrature_oracle(coarse_problem, coarse_decomp):
    # Closed form: c(t) = e^{it} (phi(t) - mean(phi)) with
    # phi(t) = int_0^t e^{-is} g(s) ds, for any admissible forcing.
    g = random_admissible_path(np.random.default_rng(3), n_t=4)
    v = psi_forcing(coarse_decomp, g, coarse_problem.dx)
    c = psi_path(coarse_decomp, solve_periodic_full(coarse_problem, coarse_decomp, v))

    ts = np.linspace(0.0, 2 * np.pi, 40001)
    integrand = np.exp(-1j * ts) * evaluate_path(g, ts)
    phi = np.concatenate([[0.0], np.cumsum(
        (integrand[1:] + integrand[:-1]) / 2 * np.diff(ts))])
    mean_phi = np.sum((phi[1:] + phi[:-1]) / 2 * np.diff(ts)) / (2 * np.pi)
    closed = np.exp(1j * ts) * (phi - mean_phi)
    assert np.abs(evaluate_path(c, ts) - closed).max() <= 1e-6


def test_resonant_ode_rejects_secular_forcing(coarse_problem, coarse_decomp):
    # a secular part of 1e-3 inside larger admissible forcing is refused
    v = make_nonresonant_trajectory(coarse_problem.dim, coarse_problem.dx, seed=21)
    coeffs = np.array(v.coeffs)
    coeffs[1] = 1e-3 * coarse_decomp.psi.data
    with pytest.raises(ResonantForcingError, match="secular"):
        solve_periodic_full(coarse_problem, coarse_decomp,
                            PeriodicTrajectory(coeffs, v.dx))


def test_resonant_ode_scale_reference(coarse_problem, coarse_decomp):
    # The forcing's norm decides whether tiny resonant content is roundoff
    # (dropped) or genuinely secular (rejected).
    tiny = np.zeros((7, coarse_problem.dim), dtype=complex)
    tiny[1] = 1e-12 * coarse_decomp.psi.data
    with pytest.raises(ResonantForcingError):
        solve_periodic_full(coarse_problem, coarse_decomp,
                            PeriodicTrajectory(tiny, coarse_problem.dx))
    v = make_nonresonant_trajectory(coarse_problem.dim, coarse_problem.dx, seed=22)
    u = solve_periodic_full(coarse_problem, coarse_decomp,
                            v + PeriodicTrajectory(tiny, v.dx))
    assert abs(coarse_decomp.coordinates(u.coeffs[1])[0]) <= 1e-15
    assert (u - mode_by_mode(coarse_problem, v)).norm() <= 1e-10 * u.norm()


# ---------------------------------------------------------------------------
# forcing without critical temporal modes: the resolvent mode by mode


def test_nonresonant_zero_forcing(coarse_problem, coarse_decomp):
    v = make_nonresonant_trajectory(coarse_problem.dim, coarse_problem.dx) * 0.0
    u = solve_periodic_full(coarse_problem, coarse_decomp, v)
    assert u.norm() == 0.0


def test_nonresonant_round_trip(coarse_quasi_problem):
    # on the quasilinear grid, against its own linearisation B
    problem = coarse_quasi_problem
    decomp = build_projection(problem)
    u0 = make_nonresonant_trajectory(problem.dim, problem.dx, seed=4)
    v = u0.time_derivative() - u0.with_coeffs((problem.operator() @ u0.coeffs.T).T)
    u = solve_periodic_full(problem, decomp, v)
    assert (u - u0).norm() <= 1e-9 * u0.norm()


def test_nonresonant_single_mode_consistency(coarse_problem, coarse_decomp):
    rng = np.random.default_rng(5)
    w = rng.normal(size=coarse_problem.dim)
    coeffs = np.zeros((5, coarse_problem.dim), dtype=complex)
    coeffs[2] = w
    v = PeriodicTrajectory(coeffs, coarse_problem.dx)
    u = solve_periodic_full(coarse_problem, coarse_decomp, v)
    direct = coarse_problem.solve_resolvent(2, w.astype(complex))
    assert np.linalg.norm(u.coeffs[2] - direct) <= 1e-10 * np.linalg.norm(direct)
    assert np.allclose(np.delete(u.coeffs, 2, axis=0), 0.0)


def test_nonresonant_superposition(coarse_problem, coarse_decomp):
    v1 = make_nonresonant_trajectory(coarse_problem.dim, coarse_problem.dx, seed=6)
    v2 = make_nonresonant_trajectory(coarse_problem.dim, coarse_problem.dx, seed=7)
    lhs = solve_periodic_full(coarse_problem, coarse_decomp, v1 + v2)
    rhs = solve_periodic_full(coarse_problem, coarse_decomp, v1) + \
        solve_periodic_full(coarse_problem, coarse_decomp, v2)
    assert (lhs - rhs).norm() <= 1e-10 * max(lhs.norm(), 1.0)


def test_nonresonant_propagates_spectrum_defect():
    # Eigenvalues +-i and exactly +-2i: the n = 2 solve must fail loudly.
    a = sla.block_diag(rotation_block()[:2, :2], rotation_block(freq=2.0))
    p = synthetic_problem(a)
    decomp = build_projection(p)
    v = make_nonresonant_trajectory(6, 1.0, n_t=3, seed=9)
    with pytest.raises(ResonanceError):
        solve_periodic_full(p, decomp, v)


# ---------------------------------------------------------------------------
# full solve through the spectral splitting


def test_full_solve_round_trip(coarse_problem, coarse_decomp):
    u0 = make_nonresonant_trajectory(coarse_problem.dim, coarse_problem.dx, seed=10)
    a_u0 = u0.with_coeffs((coarse_problem.A @ u0.coeffs.T).T)
    v = u0.time_derivative() - a_u0
    u = solve_periodic_full(coarse_problem, coarse_decomp, v)
    assert (u - u0).norm() <= 1e-8 * u0.norm()


def test_full_solve_agrees_with_direct(coarse_problem, coarse_decomp):
    v = make_nonresonant_trajectory(coarse_problem.dim, coarse_problem.dx, seed=11)
    via_split = solve_periodic_full(coarse_problem, coarse_decomp, v)
    direct = mode_by_mode(coarse_problem, v)
    assert (via_split - direct).norm() <= 1e-8 * direct.norm()


def test_full_solve_eigenvector_forcing(coarse_problem, coarse_decomp):
    # v = psi e^{2it} + conj: the critical-pair ODE gives u = -i psi e^{2it} + conj.
    psi = coarse_decomp.psi.data
    coeffs = np.zeros((5, coarse_problem.dim), dtype=complex)
    coeffs[2] = psi
    v = PeriodicTrajectory(coeffs, coarse_problem.dx)
    u = solve_periodic_full(coarse_problem, coarse_decomp, v)
    assert np.linalg.norm(u.coeffs[2] + 1j * psi) <= 1e-8 * np.linalg.norm(psi)


def test_full_solve_pure_complement_forcing(coarse_problem, coarse_decomp):
    rng = np.random.default_rng(12)
    w = rng.normal(size=coarse_problem.dim) + 1j * rng.normal(size=coarse_problem.dim)
    w = coarse_decomp.complement(w)
    coeffs = np.zeros((6, coarse_problem.dim), dtype=complex)
    coeffs[3] = w
    v = PeriodicTrajectory(coeffs, coarse_problem.dx)
    u = solve_periodic_full(coarse_problem, coarse_decomp, v)
    direct = mode_by_mode(coarse_problem, v)
    assert (u - direct).norm() <= 1e-9 * max(direct.norm(), 1e-30)


def test_full_solve_output_nonresonant(coarse_problem, coarse_decomp):
    v = make_nonresonant_trajectory(coarse_problem.dim, coarse_problem.dx, seed=13)
    u = solve_periodic_full(coarse_problem, coarse_decomp, v)
    scale = np.abs(u.coeffs).max()
    assert np.abs(u.coeffs[0]).max() <= 1e-10 * scale
    assert np.abs(u.coeffs[1]).max() <= 1e-10 * scale


def test_full_solve_round_trip_with_critical_modes(coarse_problem, coarse_decomp):
    # Admissible forcing in the *critical* temporal modes: complement
    # content at n = 0 and n = 1 is solvable (the mean mode through -A,
    # the fundamental through the deflated shift), so a trajectory whose
    # mode-1 coefficient has no eigenvector coordinate round-trips.
    rng = np.random.default_rng(14)
    dim, dx = coarse_problem.dim, coarse_problem.dx
    coeffs = np.zeros((4, dim), dtype=complex)
    coeffs[0] = coarse_decomp.complement(rng.normal(size=dim) + 0j)
    coeffs[1] = coarse_decomp.complement(
        rng.normal(size=dim) + 1j * rng.normal(size=dim))
    coeffs[2] = rng.normal(size=(dim,)) + 1j * rng.normal(size=dim)
    coeffs[3] = rng.normal(size=(dim,)) + 1j * rng.normal(size=dim)
    u0 = PeriodicTrajectory(coeffs, dx)

    a_u0 = u0.with_coeffs((coarse_problem.A @ u0.coeffs.T).T)
    v = u0.time_derivative() - a_u0
    u = solve_periodic_full(coarse_problem, coarse_decomp, v)
    assert (u - u0).norm() <= 1e-8 * u0.norm()


def test_full_solve_mean_mode_forcing(coarse_problem, coarse_decomp):
    # Constant-in-time complement forcing reduces to the steady solve -A u = v.
    rng = np.random.default_rng(15)
    w = np.real(coarse_decomp.complement(rng.normal(size=coarse_problem.dim) + 0j))
    coeffs = np.zeros((3, coarse_problem.dim), dtype=complex)
    coeffs[0] = w
    v = PeriodicTrajectory(coeffs, coarse_problem.dx)
    u = solve_periodic_full(coarse_problem, coarse_decomp, v)
    direct = coarse_problem.solve_resolvent(0, w)
    assert np.linalg.norm(u.coeffs[0] - direct) <= 1e-8 * np.linalg.norm(direct)
    assert np.abs(u.coeffs[1:]).max() <= 1e-10 * np.abs(direct).max()


def test_full_solve_mean_only_forcing_without_time_modes(coarse_problem,
                                                          coarse_decomp):
    # n_t = 0: the steady solve -B u = v, critical-pair content included.
    rng = np.random.default_rng(17)
    w = rng.normal(size=coarse_problem.dim)
    v = PeriodicTrajectory(w[None, :], coarse_problem.dx)
    u = solve_periodic_full(coarse_problem, coarse_decomp, v)
    direct = coarse_problem.solve_resolvent(0, w)
    assert u.n_t == 0
    assert np.linalg.norm(u.coeffs[0] - direct) <= 1e-8 * np.linalg.norm(direct)


def test_full_solve_rejects_secular_forcing(coarse_problem, coarse_decomp):
    # Eigenvector forcing at its own frequency has no periodic solution.
    coeffs = np.zeros((3, coarse_problem.dim), dtype=complex)
    coeffs[1] = coarse_decomp.psi.data
    v = PeriodicTrajectory(coeffs, coarse_problem.dx)
    with pytest.raises(ResonantForcingError, match="secular"):
        solve_periodic_full(coarse_problem, coarse_decomp, v)


@pytest.mark.parametrize("eps, accurate", [(1e-7, False), (1e-9, True)])
def test_full_solve_reads_the_split_residual_tolerance(eps, accurate):
    """A projection whose psi is moved by ``eps`` off the eigenvector
    leaves a relative defect of about ``eps``: the 1e-8 tolerance fails the
    solve a factor 10 above and passes it a factor 10 below.  The forcing
    has no ``n = 1`` coordinate along the moved psi, so it is not
    secular."""
    p = synthetic_problem(rotation_block())
    true = build_projection(p)
    psi = true.psi.data + eps * np.eye(p.dim)[2]
    moved = SpectralDecomposition(
        ComplexStateVector(psi, p.dx), true.phi_adj, true.mu)
    rng = np.random.default_rng(0)
    coeffs = rng.normal(size=(4, p.dim)) + 1j * rng.normal(size=(4, p.dim))
    coeffs[0] = coeffs[0].real
    coeffs[1] -= moved.coordinates(coeffs[1])[0] * psi
    v = PeriodicTrajectory(coeffs, p.dx)
    if not accurate:
        with pytest.raises(RuntimeError, match="splitting solve left residual"):
            solve_periodic_full(p, moved, v)
        return
    u = solve_periodic_full(p, moved, v)
    linear = u.with_coeffs((p.operator() @ u.coeffs.T).T)
    assert (u.time_derivative() - linear - v).norm() <= 1e-8 * v.norm()


def test_harmonic_embedding_intertwines_operator(coarse_problem):
    # (d/dt - A) applied to the first-harmonic embedding of w equals the
    # embedding of (i - A) w: the embedding turns the periodic operator
    # into the shifted spatial one, which is what makes the critical-mode
    # solves below reducible to spatial systems.
    from hopfkit.trajectory import single_harmonic

    rng = np.random.default_rng(16)
    dim, dx = coarse_problem.dim, coarse_problem.dx
    w = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    u = single_harmonic(w, 4, dx=dx)
    au = u.with_coeffs((coarse_problem.A @ u.coeffs.T).T)
    lhs = u.time_derivative() - au
    rhs = single_harmonic(1j * w - coarse_problem.A @ w, 4, dx=dx)
    assert (lhs - rhs).norm() <= 1e-10 * rhs.norm()


def test_deflated_solve_rejects_a_singular_bordered_operator():
    # B has the eigenvalue i exactly, but an adjoint orthogonal to psi
    # leaves the bordered operator singular.
    p = synthetic_problem(rotation_block())
    psi = np.array([1.0, -1.0j, 0.0, 0.0]) / np.sqrt(2.0)
    assert np.allclose(p.operator() @ psi, 1j * psi)
    phi_adj = np.array([0.0, 0.0, 1.0, 0.0], dtype=complex)
    decomp = SpectralDecomposition(
        ComplexStateVector(psi, p.dx), ComplexStateVector(phi_adj, p.dx), 1j)
    with pytest.raises(
        SingularOperatorError,
        match=r"^operator \('deflated-critical', 1\) is numerically singular "
              r"\(cond ~ \S+\)$",
    ):
        _deflated_critical_solve(p, decomp, np.ones(p.dim, dtype=complex))
