import numpy as np
import pytest

from conftest import rotation_block, synthetic_problem
from hopfkit.linear_periodic import (
    ResonantContentError,
    ResonantForcingError,
    ResonantScalarPath,
    _deflated_critical_solve,
    solve_periodic_full,
    solve_periodic_nonresonant,
    solve_resonant_ode,
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


def linear_residual(problem, u, v):
    au = u.with_coeffs((problem.A @ u.coeffs.T).T)
    return (u.time_derivative() - au - v).norm()


# ---------------------------------------------------------------------------
# scalar paths


def test_scalar_path_basics():
    path = ResonantScalarPath([1j, 2.0, 0.5 - 1j])  # modes -1, 0, 1
    assert path.n_t == 1
    assert path.coeff(-1) == 1j and path.coeff(0) == 2.0
    with pytest.raises(ValueError):
        path.coeff(2)
    with pytest.raises(ValueError):
        ResonantScalarPath([1.0, 2.0])  # even length
    ts = np.array([0.0, 0.4, 2.2])
    direct = (
        1j * np.exp(-1j * ts) + 2.0 + (0.5 - 1j) * np.exp(1j * ts)
    )
    assert np.allclose(path.evaluate(ts), direct, atol=1e-14)


def test_scalar_path_derivative_and_reflection():
    rng = np.random.default_rng(1)
    path = ResonantScalarPath(rng.normal(size=9) + 1j * rng.normal(size=9))
    t = 0.73
    eps = 1e-6
    fd = (path.evaluate(t + eps) - path.evaluate(t - eps)) / (2 * eps)
    assert np.isclose(path.derivative().evaluate(t), fd, atol=1e-7)
    refl = path.conjugate_reflected()
    assert np.isclose(refl.evaluate(t), np.conj(path.evaluate(t)), atol=1e-14)


# ---------------------------------------------------------------------------
# resonant scalar ODE


def test_resonant_ode_mode_two_closed_form():
    g = ResonantScalarPath.single_mode(2, 1.0, n_t=4)
    c = solve_resonant_ode(g)
    assert np.isclose(c.coeff(2), -1j, atol=1e-15)
    others = [c.coeff(n) for n in range(-4, 5) if n != 2]
    assert np.allclose(others, 0.0)


def test_resonant_ode_negative_mode_closed_form():
    g = ResonantScalarPath.single_mode(-1, 1.0, n_t=3)
    c = solve_resonant_ode(g)
    assert np.isclose(c.coeff(-1), 0.5j, atol=1e-15)


def test_resonant_ode_zero():
    c = solve_resonant_ode(ResonantScalarPath.zero(5))
    assert c.norm() == 0.0


def test_resonant_ode_satisfies_equation():
    rng = np.random.default_rng(2)
    coeffs = rng.normal(size=11) + 1j * rng.normal(size=11)
    coeffs[5 + 1] = 0.0  # kill the resonant mode (n = 1)
    g = ResonantScalarPath(coeffs)
    c = solve_resonant_ode(g)
    defect = c.derivative() - 1j * c - g
    assert defect.norm() <= 1e-10 * g.norm()
    assert abs(c.coeff(1)) == 0.0


def test_resonant_ode_quadrature_oracle():
    # Closed form: c(t) = e^{it} (phi(t) - mean(phi)) with
    # phi(t) = int_0^t e^{-is} g(s) ds, for any admissible forcing.
    rng = np.random.default_rng(3)
    coeffs = rng.normal(size=9) + 1j * rng.normal(size=9)
    coeffs[4 + 1] = 0.0
    g = ResonantScalarPath(coeffs)
    c = solve_resonant_ode(g)

    ts = np.linspace(0.0, 2 * np.pi, 40001)
    integrand = np.exp(-1j * ts) * g.evaluate(ts)
    phi = np.concatenate([[0.0], np.cumsum(
        (integrand[1:] + integrand[:-1]) / 2 * np.diff(ts))])
    mean_phi = np.sum((phi[1:] + phi[:-1]) / 2 * np.diff(ts)) / (2 * np.pi)
    closed = np.exp(1j * ts) * (phi - mean_phi)
    assert np.abs(c.evaluate(ts) - closed).max() <= 1e-6


def test_resonant_ode_rejects_secular_forcing():
    g = ResonantScalarPath.single_mode(1, 1e-3, n_t=3)
    with pytest.raises(ResonantForcingError):
        solve_resonant_ode(g)


# ---------------------------------------------------------------------------
# nonresonant trajectory solve


def test_nonresonant_zero_forcing(coarse_problem):
    v = make_nonresonant_trajectory(coarse_problem.dim, coarse_problem.dx) * 0.0
    u = solve_periodic_nonresonant(coarse_problem, v)
    assert u.norm() == 0.0


def test_nonresonant_round_trip(coarse_problem):
    u0 = make_nonresonant_trajectory(coarse_problem.dim, coarse_problem.dx, seed=4)
    a_u0 = u0.with_coeffs((coarse_problem.A @ u0.coeffs.T).T)
    v = u0.time_derivative() - a_u0
    u = solve_periodic_nonresonant(coarse_problem, v)
    assert (u - u0).norm() <= 1e-9 * u0.norm()
    assert linear_residual(coarse_problem, u, v) <= 1e-9 * v.norm()


def test_nonresonant_single_mode_consistency(coarse_problem):
    rng = np.random.default_rng(5)
    w = rng.normal(size=coarse_problem.dim)
    coeffs = np.zeros((5, coarse_problem.dim), dtype=complex)
    coeffs[2] = w
    v = PeriodicTrajectory(coeffs, coarse_problem.dx)
    u = solve_periodic_nonresonant(coarse_problem, v)
    direct = coarse_problem.solve_resolvent(2, w.astype(complex))
    assert np.allclose(u.coeffs[2], direct, atol=1e-12)
    assert np.allclose(np.delete(u.coeffs, 2, axis=0), 0.0)


def test_nonresonant_superposition(coarse_problem):
    v1 = make_nonresonant_trajectory(coarse_problem.dim, coarse_problem.dx, seed=6)
    v2 = make_nonresonant_trajectory(coarse_problem.dim, coarse_problem.dx, seed=7)
    lhs = solve_periodic_nonresonant(coarse_problem, v1 + v2)
    rhs = solve_periodic_nonresonant(coarse_problem, v1) + \
        solve_periodic_nonresonant(coarse_problem, v2)
    assert (lhs - rhs).norm() <= 1e-10 * max(lhs.norm(), 1.0)


def test_nonresonant_rejects_resonant_content(coarse_problem):
    v = make_nonresonant_trajectory(coarse_problem.dim, coarse_problem.dx, seed=8)
    bad = np.array(v.coeffs)
    bad[1] = 1.0
    with pytest.raises(ResonantContentError, match="modes"):
        solve_periodic_nonresonant(coarse_problem, PeriodicTrajectory(bad, v.dx))
    bad = np.array(v.coeffs)
    bad[0] = 1.0
    with pytest.raises(ResonantContentError):
        solve_periodic_nonresonant(coarse_problem, PeriodicTrajectory(bad, v.dx))


def test_nonresonant_propagates_spectrum_defect():
    # Operator with eigenvalue exactly 2i: the n = 2 solve must fail loudly.
    import scipy.linalg as sla

    a = sla.block_diag(rotation_block(freq=2.0)[:2, :2], np.diag([-3.0, -4.0]))
    p = synthetic_problem(a)
    v = make_nonresonant_trajectory(4, 1.0, n_t=3, seed=9)
    with pytest.raises(ResonanceError):
        solve_periodic_nonresonant(p, v)


# ---------------------------------------------------------------------------
# full solve through the spectral splitting


@pytest.fixture(scope="module")
def coarse_decomp(coarse_problem):
    return build_projection(coarse_problem)


def test_full_solve_round_trip(coarse_problem, coarse_decomp):
    u0 = make_nonresonant_trajectory(coarse_problem.dim, coarse_problem.dx, seed=10)
    a_u0 = u0.with_coeffs((coarse_problem.A @ u0.coeffs.T).T)
    v = u0.time_derivative() - a_u0
    u = solve_periodic_full(coarse_problem, coarse_decomp, v)
    assert (u - u0).norm() <= 1e-8 * u0.norm()


def test_full_solve_agrees_with_direct(coarse_problem, coarse_decomp):
    v = make_nonresonant_trajectory(coarse_problem.dim, coarse_problem.dx, seed=11)
    via_split = solve_periodic_full(coarse_problem, coarse_decomp, v)
    direct = solve_periodic_nonresonant(coarse_problem, v)
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
    direct = solve_periodic_nonresonant(coarse_problem, v)
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


def test_full_solve_rejects_secular_forcing(coarse_problem, coarse_decomp):
    # Eigenvector forcing at its own frequency has no periodic solution.
    coeffs = np.zeros((3, coarse_problem.dim), dtype=complex)
    coeffs[1] = coarse_decomp.psi.data
    v = PeriodicTrajectory(coeffs, coarse_problem.dx)
    with pytest.raises(ResonantForcingError, match="secular"):
        solve_periodic_full(coarse_problem, coarse_decomp, v)


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


def test_resonant_ode_scale_reference():
    # A caller-supplied scale decides whether tiny resonant content is
    # roundoff (tolerated, dropped) or genuinely secular (rejected).
    g = ResonantScalarPath.single_mode(1, 1e-12, n_t=3)
    with pytest.raises(ResonantForcingError):
        solve_resonant_ode(g)  # relative to its own norm: 100% secular
    c = solve_resonant_ode(g, scale=1.0)
    assert c.norm() == 0.0


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
