import dataclasses
import threading
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from conftest import rotation_block, synthetic_problem
from hopfkit import config
from hopfkit.config import RunConfig, build_problem
from hopfkit.linear_periodic import _deflated_critical_solve
from hopfkit.problem import (
    DomainError,
    ProblemDef,
    ResonanceError,
    ScaledParams,
    _guarded_lu,
)
from hopfkit.reaction_diffusion import (
    ExampleConfig,
    make_problem,
    reference_eigenvector,
)
from hopfkit.newton import TrajectoryLayout, assemble_jacobian_band
from hopfkit.solver import (
    _branch_linearization,
    _mixed_column,
    extended_residual,
    initial_extended_state,
    solve_extended,
    verify_jacobian_nonsingular,
)
from hopfkit.spectral import (
    build_projection,
    check_simplicity,
    eigenpair_near,
    run_hypothesis_checks,
)
from hopfkit.trajectory import (
    AmplitudeFunctional,
    PeriodicTrajectory,
    StateVector,
    build_amplitude_functional,
    single_harmonic,
    trajectory_from_samples,
    zero_trajectory,
)


def cubic_problem(nx=3, dx=0.5, trust=np.inf, window=(-1.0, 1.0)):
    """h(lam, w) = lam*w - |w|^2 w with |w|^2 = u^2 + v^2 pointwise."""

    def split(w):
        return w[..., :nx], w[..., nx:]

    def mag2(w):
        u, v = split(w)
        m = u * u + v * v
        return np.concatenate([m, m], axis=-1)

    def wdot(a, b):
        ua, va = split(a)
        ub, vb = split(b)
        m = ua * ub + va * vb
        return np.concatenate([m, m], axis=-1)

    def h(lam, w):
        return lam * w - mag2(w) * w

    def h_u(lam, w, v):
        return lam * v - mag2(w) * v - 2.0 * wdot(w, v) * w

    def h_lam(lam, w):
        return np.array(w, dtype=float, copy=True)

    def h_lam_u(lam, w, v):
        return np.array(v, dtype=float, copy=True)

    rng = np.random.default_rng(42)
    a = rng.normal(size=(2 * nx, 2 * nx))
    a = a - 5.0 * np.eye(2 * nx)  # comfortably invertible, spectrum well left
    return ProblemDef(
        A=sp.csc_matrix(a),
        apply_h=h,
        apply_h_u=h_u,
        apply_h_lambda=h_lam,
        apply_h_lambda_u=h_lam_u,
        dx=dx,
        lambda_window=window,
        trust_radius=trust,
        name="cubic-test",
    )


def rotation_block_problem():
    """A with eigenvalues exactly +-i (and -2, -3): resonant at n = +-1."""
    a = np.array(
        [
            [0.0, -1.0, 0.0, 0.0],
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, -2.0, 0.0],
            [0.0, 0.0, 0.0, -3.0],
        ]
    )
    zero = lambda lam, w: np.zeros_like(w)
    zero3 = lambda lam, w, v: np.zeros_like(v)
    return ProblemDef(
        A=sp.csc_matrix(a),
        apply_h=zero,
        apply_h_u=zero3,
        apply_h_lambda=zero,
        apply_h_lambda_u=zero3,
        dx=1.0,
        name="rotation-test",
    )


# ---------------------------------------------------------------------------
# linear operator and resolvent


def test_apply_A_linearity():
    p = cubic_problem()
    rng = np.random.default_rng(0)
    w1 = rng.normal(size=p.dim)
    w2 = rng.normal(size=p.dim)
    a, b = 2.5, -1.25
    lhs = p.apply_A(a * w1 + b * w2)
    rhs = a * p.apply_A(w1) + b * p.apply_A(w2)
    assert np.allclose(lhs, rhs, atol=1e-14)


def test_apply_A_statevector_and_batch():
    p = cubic_problem()
    rng = np.random.default_rng(1)
    w = rng.normal(size=p.dim)
    sv = p.apply_A(StateVector(w, p.dx))
    assert isinstance(sv, StateVector)
    assert np.allclose(sv.data, p.apply_A(w))
    batch = rng.normal(size=(4, p.dim))
    out = p.apply_A(batch)
    for k in range(4):
        assert np.allclose(out[k], p.apply_A(batch[k]))


def test_resolvent_mode0_roundtrip():
    # Mode 0 solves (0 - B) w = rhs; here h_u(0, 0) = 0, so B = A.
    p = cubic_problem()
    rng = np.random.default_rng(2)
    w = rng.normal(size=p.dim)
    assert np.allclose(p.solve_resolvent(0, -p.apply_A(w)), w, atol=1e-10)
    rhs = rng.normal(size=p.dim)
    sol = p.solve_resolvent(0, rhs)
    assert np.linalg.norm(p.apply_A(sol.real) + rhs) <= 1e-10 * np.linalg.norm(rhs)
    assert np.abs(sol.imag).max() == 0.0
    assert np.allclose(p.solve_resolvent(0, np.zeros(p.dim)), 0.0)


def test_singular_A_rejected():
    p = cubic_problem(nx=2)
    bad = ProblemDef(
        A=sp.csc_matrix(np.zeros((4, 4))),
        apply_h=p.apply_h,
        apply_h_u=p.apply_h_u,
        apply_h_lambda=p.apply_h_lambda,
        apply_h_lambda_u=p.apply_h_lambda_u,
        dx=1.0,
    )
    with pytest.raises(ResonanceError, match="z = 0"):
        bad.solve_resolvent(0, np.ones(4))


@pytest.mark.parametrize(
    "name", ["coarse_problem", "coarse_standard_problem", "coarse_quasi_problem",
             "frozen"],
)
def test_operator_is_bitwise_A_when_h_u_vanishes(request, name):
    # Every shipped problem has h_u(0, 0) = 0, so B = A + h_u(0, 0) must be
    # the very same matrix: the checks and solves see unchanged numbers.
    if name == "frozen":
        run = RunConfig(problem=ExampleConfig(L=20.0, dx=0.2),
                        frozen_parameter=True)
        p = build_problem(run)
    else:
        p = request.getfixturevalue(name)
    op = p.operator()
    assert op.format == "csc" and op is p.operator()
    for attr in ("indptr", "indices", "data"):
        got, want = getattr(op, attr), getattr(p.A, attr)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), attr


def test_operator_adds_h_u():
    p = cubic_problem()
    dense = p.operator(0.3).toarray()
    assert np.array_equal(dense, p.A.toarray() + 0.3 * np.eye(p.dim))


@pytest.mark.parametrize("lam", [0.0, 0.3])
def test_shifted_is_z_minus_the_linearisation(lam):
    # A - 0.5 I with h_u(lam, 0) = (0.8 lam + 0.5) I: the shift is taken of
    # B = A + h_u(lam, 0), not of bare A, and its factor also solves with
    # the conjugate transpose, which is what an adjoint iteration uses.
    a = rotation_block() - 0.5 * np.eye(4)
    p = synthetic_problem(a, h="linear", c=0.8, shift=0.5)
    z = 0.25 + 1.5j
    dense = z * np.eye(4) - (a + (0.8 * lam + 0.5) * np.eye(4))
    shifted = p.shifted(z, lam)
    assert shifted.format == "csc" and shifted.dtype == complex
    np.testing.assert_array_equal(shifted.toarray(), dense)
    rhs = np.arange(1.0, 5.0) + 1j
    x = spla.splu(shifted).solve(rhs, "H")
    np.testing.assert_allclose(dense.conj().T @ x, rhs, rtol=0, atol=1e-12)
    if lam == 0.0:
        np.testing.assert_array_equal(p.shifted(z).toarray(), dense)


def test_replaced_problem_has_caches_of_its_own(monkeypatch, coarse_cfg):
    """A copy made by `dataclasses.replace`, as the frozen-parameter
    problem is, builds its own operator instead of seeing its base's."""
    base = make_problem(coarse_cfg)
    operator = base.operator()
    assert base.operator() is operator
    monkeypatch.setattr(config, "make_problem", lambda cfg: base)
    frozen = build_problem(RunConfig(problem=coarse_cfg, frozen_parameter=True))
    renamed = dataclasses.replace(base, name="copy")
    for copy in (frozen, renamed):
        assert "_operator_at_zero" not in vars(copy)
        assert copy.operator() is not operator
        assert (copy.operator() != operator).nnz == 0


def test_problem_holds_no_factorization(coarse_cfg):
    """The checks and the certificate factor ``i n - B`` for each mode and
    free the factor afterwards: nothing reachable from the problem is a
    SuperLU object, and each `resolvent_lu` call factors afresh."""
    problem = make_problem(coarse_cfg)
    run_hypothesis_checks(problem, n_max=8)
    decomp = build_projection(problem, reference=reference_eigenvector(coarse_cfg))
    functional = build_amplitude_functional(decomp.psi, decomp.phi_adj)
    solution = solve_extended(problem, functional,
                              initial_extended_state(decomp.psi, n_t=4))
    verify_jacobian_nonsingular(problem, functional, solution.u)

    seen, stack = set(), list(vars(problem).values())
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        assert not isinstance(obj, spla.SuperLU)
        if isinstance(obj, dict):
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set)):
            stack.extend(obj)
        elif hasattr(obj, "__dict__") and not callable(obj):
            stack.extend(vars(obj).values())
    assert problem.resolvent_lu(2j) is not problem.resolvent_lu(2j)


def test_resolvent_solves_shifted_system():
    p = cubic_problem()
    rng = np.random.default_rng(3)
    rhs = rng.normal(size=p.dim) + 1j * rng.normal(size=p.dim)
    for n in (0, 2, -3, 7):
        sol = p.solve_resolvent(n, rhs)
        res = 1j * n * sol - p.apply_A(sol.real) - 1j * p.apply_A(sol.imag)
        assert np.linalg.norm(res - rhs) <= 1e-10 * np.linalg.norm(rhs)
    assert np.allclose(p.solve_resolvent(4, np.zeros(p.dim)), 0.0)


def test_resolvent_mode0_matches_dense_solve():
    p = cubic_problem()
    rng = np.random.default_rng(4)
    rhs = rng.normal(size=p.dim)
    dense = -np.linalg.solve(p.A.toarray(), rhs)
    assert np.allclose(p.solve_resolvent(0, rhs), dense, atol=1e-12)


def test_resolvent_identity():
    # (in - A)^{-1} - (im - A)^{-1} = (im - in) (in - A)^{-1} (im - A)^{-1}
    p = cubic_problem(nx=4)
    rng = np.random.default_rng(5)
    rhs = rng.normal(size=p.dim) + 1j * rng.normal(size=p.dim)
    n, m = 2, 5
    lhs = p.solve_resolvent(n, rhs) - p.solve_resolvent(m, rhs)
    rhs2 = (1j * m - 1j * n) * p.solve_resolvent(n, p.solve_resolvent(m, rhs))
    assert np.linalg.norm(lhs - rhs2) <= 1e-8 * np.linalg.norm(lhs)


def test_resonant_mode_raises():
    p = rotation_block_problem()
    with pytest.raises(ResonanceError, match="projection"):
        p.solve_resolvent(1, np.ones(4, dtype=complex))
    with pytest.raises(ResonanceError):
        p.solve_resolvent(-1, np.ones(4, dtype=complex))
    # Non-resonant modes on the same operator still solve fine.
    sol = p.solve_resolvent(2, np.ones(4, dtype=complex))
    res = 2j * sol - p.apply_A(sol.real) - 1j * p.apply_A(sol.imag)
    assert np.linalg.norm(res - np.ones(4)) < 1e-10


def test_concurrent_resolvent_solves_agree():
    p = cubic_problem(nx=6)
    rng = np.random.default_rng(6)
    rhs = rng.normal(size=p.dim) + 1j * rng.normal(size=p.dim)
    expect = p.solve_resolvent(3, rhs)
    results = [None] * 8
    fresh = cubic_problem(nx=6)

    def worker(k):
        results[k] = fresh.solve_resolvent(3, rhs)

    threads = [threading.Thread(target=worker, args=(k,)) for k in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for r in results:
        assert np.allclose(r, expect, atol=1e-12)


def underflowing_bidiagonal(n=400):
    """Unit diagonal, subdiagonal ``-0.02 (1 + i)``: the inverse's entries
    ``(0.02 (1 + i))**k`` fall through the subnormal range down the first
    column."""
    return sp.diags([np.ones(n, dtype=complex), np.full(n - 1, -0.02 * (1 + 1j))],
                    [0, -1], format="csc")


def test_condition_guard_is_quiet_on_underflowing_inverses():
    """The inverse-power estimate behind the guard divides only by a norm,
    so an inverse with subnormal entries raises no RuntimeWarning, and
    ``||M||_1 / sigma_min`` stays within a factor 3 of the dense 1-norm
    condition number, whatever the state of numpy's global generator: the
    test runs it from ten global seeds and puts the generator's state
    back."""
    matrix = underflowing_bidiagonal()
    exact = np.linalg.cond(matrix.toarray(), 1)
    state = np.random.get_state()
    try:
        for seed in range(10):
            np.random.seed(seed)
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                lu, sigma, steps, cond = _guarded_lu(matrix)
            assert lu is not None and 0 < steps <= 15
            assert cond == float(abs(matrix).sum(axis=0).max()) / sigma
            assert exact / 3.0 <= cond <= 3.0 * exact
    finally:
        np.random.set_state(state)


def test_condition_guard_ignores_the_global_generator():
    """The guard's start vector comes from its own seed: two global seeds
    give the same ``cond``, and the caller's generator state is untouched."""
    matrix = underflowing_bidiagonal()
    state = np.random.get_state()
    try:
        conds = []
        for seed in (1, 7):
            np.random.seed(seed)
            before = np.random.get_state()
            conds.append(_guarded_lu(matrix)[3])
            after = np.random.get_state()
            assert before[0] == after[0] and before[2:] == after[2:]
            assert np.array_equal(before[1], after[1])
    finally:
        np.random.set_state(state)
    assert conds[0] == conds[1]


@pytest.mark.parametrize("value", [np.inf, np.nan])
def test_condition_guard_refuses_a_non_finite_estimate(monkeypatch, value):
    """A factor whose solves return inf or nan reads as sigma 0 and is
    refused with a non-finite ``cond``."""
    class Poisoned:
        def __init__(self, lu):
            self.shape = lu.shape

        def solve(self, b, trans="N"):
            return np.full_like(b, value)

    splu = spla.splu
    monkeypatch.setattr(spla, "splu", lambda m, **kw: Poisoned(splu(m, **kw)))
    lu, sigma, _, cond = _guarded_lu(underflowing_bidiagonal(8))
    assert lu is None and sigma == 0.0 and not np.isfinite(cond)


def test_condition_guard_refuses_a_factor_that_exists():
    """Near the resonance ``z - B`` factors, and the guard decides: at
    ``z = i (1 + 1e-10)`` (cond ~ 3e10) the resolvent solves, at ``z = i (1
    + 1e-13)`` (cond ~ 3e13) it is refused although `splu` succeeds."""
    p = rotation_block_problem()
    rhs = np.ones(4, dtype=complex)
    z = 1j * (1 + 1e-10)
    sol = p.resolvent_lu(z).solve(rhs)
    assert np.linalg.norm(p.shifted(z) @ sol - rhs) <= 1e-12
    z = 1j * (1 + 1e-13)
    spla.splu(p.shifted(z))
    with pytest.raises(ResonanceError, match=r"cond ~ 3\.\de\+13"):
        p.resolvent_lu(z)


def test_bordered_factors_fill_like_the_unbordered_one(monkeypatch):
    """At L = 60, dx = 0.05 the two factorizations of ``z - B`` bordered
    with a dense column and row (the simplicity margin's and the deflated
    critical solve's) keep L + U within 3 times the nonzeros of the
    unbordered ``z - B``; scipy's default column ordering made them 58
    times as many."""
    cfg = ExampleConfig(L=60.0, dx=0.05)
    problem = make_problem(cfg)
    decomp = build_projection(problem, reference=reference_eigenvector(cfg))
    fill = {}
    splu = spla.splu

    def recording(matrix, **kwargs):
        lu = splu(matrix, **kwargs)
        fill.setdefault(matrix.shape[0], []).append(lu.L.nnz + lu.U.nnz)
        return lu

    monkeypatch.setattr(spla, "splu", recording)
    unbordered = recording(problem.shifted(1j))
    assert check_simplicity(problem, eigenpair_near(problem, 1j)).simple
    rhs = decomp.complement(np.linspace(-1.0, 1.0, problem.dim) + 0j)
    _deflated_critical_solve(problem, decomp, rhs)
    bordered = fill[problem.dim + 1]
    assert len(bordered) == 2
    assert max(bordered) <= 3 * unbordered.L.nnz + 3 * unbordered.U.nnz


# ---------------------------------------------------------------------------
# residuals


def test_residual_f_zero_state():
    p = cubic_problem()
    for lam in (-0.5, 0.0, 0.3, 0.9):
        out = p.residual_f(lam, np.zeros(p.dim))
        assert np.allclose(out, 0.0, atol=1e-15)


def test_residual_f_matches_formula():
    p = cubic_problem()
    rng = np.random.default_rng(7)
    w = rng.normal(size=p.dim) * 0.1
    lam = 0.25
    direct = p.apply_A(w) + p.apply_h(lam, w)
    assert np.allclose(p.residual_f(lam, w), direct, atol=1e-14)
    out = p.residual_f(lam, StateVector(w, p.dx))
    assert isinstance(out, StateVector)


def test_residual_f_domain_errors():
    p = cubic_problem(trust=0.5, window=(-0.2, 0.4))
    with pytest.raises(DomainError, match="lambda"):
        p.residual_f(0.5, np.zeros(p.dim))
    with pytest.raises(DomainError, match="trust"):
        p.residual_f(0.1, np.full(p.dim, 0.6))
    with pytest.raises(DomainError):
        p.residual_f(0.1, np.full(p.dim, np.nan))


def test_residual_g_zero_trajectory():
    p = cubic_problem()
    z = zero_trajectory(5, p.dim, p.dx)
    for params in (ScaledParams(0.0, 0.0), ScaledParams(0.3, -0.4),
                   ScaledParams(-0.5, 2.0)):
        out = p.residual_g(params, z)
        assert out.norm() == 0.0


def test_residual_g_linear_problem_mode_formula():
    # With h = lam*u only, g acts mode-by-mode:
    # g_hat(n) = (i n) u_hat(n) - (sigma+1) (A + lam) u_hat(n).
    nx = 3
    p_cubic = cubic_problem(nx=nx)
    lin = ProblemDef(
        A=p_cubic.A,
        apply_h=lambda lam, w: lam * w,
        apply_h_u=lambda lam, w, v: lam * v,
        apply_h_lambda=lambda lam, w: np.array(w, dtype=float, copy=True),
        apply_h_lambda_u=lambda lam, w, v: np.array(v, dtype=float, copy=True),
        dx=p_cubic.dx,
    )
    rng = np.random.default_rng(8)
    n_t = 4
    coeffs = rng.normal(size=(n_t + 1, 2 * nx)) + 1j * rng.normal(size=(n_t + 1, 2 * nx))
    coeffs[0] = coeffs[0].real
    u = PeriodicTrajectory(coeffs, lin.dx)
    lam, sigma = 0.3, -0.25
    g = lin.residual_g(ScaledParams(lam, sigma), u)
    amat = lin.A.toarray()
    for n in range(n_t + 1):
        expect = 1j * n * coeffs[n] - (sigma + 1) * (amat @ coeffs[n] + lam * coeffs[n])
        assert np.allclose(g.coeffs[n], expect, atol=1e-12)


@pytest.mark.parametrize("fixture", ["coarse_problem", "coarse_quasi_problem"])
def test_collocated_kernel_is_the_trajectory_composition(fixture, request):
    """`residual_g` and `linearised_g` build ``v_t - (sigma+1)(A v + N)``
    in one array, bit for bit the composition of public trajectory
    operations, and their coefficients are C-contiguous and read-only."""
    p = request.getfixturevalue(fixture)
    rng = np.random.default_rng(11)
    n_t = 4

    def random_traj(scale):
        coeffs = scale * (rng.normal(size=(n_t + 1, p.dim))
                          + 1j * rng.normal(size=(n_t + 1, p.dim)))
        coeffs[0] = coeffs[0].real
        return PeriodicTrajectory(coeffs, p.dx)

    u, v = random_traj(0.02), random_traj(1.0)
    params = ScaledParams(0.03, -0.02)
    lam, sigma = params

    def composed(w, samples):
        nonlinear = trajectory_from_samples(samples, w.dx)
        linear = w.with_coeffs((p.A @ w.coeffs.T).T)
        return w.time_derivative() - (sigma + 1.0) * (linear + nonlinear)

    vals = u.sample_values()
    pairs = [
        (p.residual_g(params, u), composed(u, p.apply_h(lam, vals))),
        (p.linearised_g(params, u, v),
         composed(v, p.apply_h_u(lam, vals, v.sample_values()))),
    ]
    for got, expect in pairs:
        assert np.array_equal(got.coeffs, expect.coeffs)
        assert got.coeffs.flags.c_contiguous and not got.coeffs.flags.writeable


@pytest.mark.parametrize("fixture", ["coarse_problem", "coarse_quasi_problem"])
def test_collocated_kernel_matches_an_fft_composition(fixture, request):
    """`residual_g` and `linearised_g` agree to rounding with
    ``v_t - (sigma+1)(A v + N)`` composed on coefficient arrays, with
    numpy's real FFTs for the samples and the spectrum of ``N``."""
    p = request.getfixturevalue(fixture)
    rng = np.random.default_rng(12)
    n_t = 4
    m = 2 * n_t + 2

    def random_coeffs(scale):
        coeffs = scale * (rng.normal(size=(n_t + 1, p.dim))
                          + 1j * rng.normal(size=(n_t + 1, p.dim)))
        coeffs[0] = coeffs[0].real
        return coeffs

    def samples(coeffs):
        spec = np.zeros((m // 2 + 1, p.dim), dtype=complex)
        spec[: n_t + 1] = coeffs * m
        return np.fft.irfft(spec, n=m, axis=0)

    def composed(coeffs, nonlinear_samples):
        nonlinear = np.fft.rfft(nonlinear_samples, axis=0)[: m // 2] / m
        linear = (p.A @ coeffs.T).T
        return 1j * np.arange(n_t + 1)[:, None] * coeffs - (sigma + 1.0) * (
            linear + nonlinear)

    cu, cv = random_coeffs(0.02), random_coeffs(1.0)
    u, v = PeriodicTrajectory(cu, p.dx), PeriodicTrajectory(cv, p.dx)
    params = ScaledParams(0.03, -0.02)
    lam, sigma = params
    vals = samples(cu)
    pairs = [
        (p.residual_g(params, u), composed(cu, p.apply_h(lam, vals))),
        (p.linearised_g(params, u, v),
         composed(cv, p.apply_h_u(lam, vals, samples(cv)))),
    ]
    for got, expect in pairs:
        assert np.abs(got.coeffs - expect).max() <= (
            1e-13 * np.abs(expect).max())


def test_residual_g_sigma_domain():
    p = cubic_problem()
    z = zero_trajectory(3, p.dim, p.dx)
    with pytest.raises(DomainError, match="sigma"):
        p.residual_g(ScaledParams(0.0, -1.0), z)


def test_linearised_g_sigma_domain():
    """The derivative shares `residual_g`'s domain: no non-positive period,
    so the extended residual at sigma = -1 raises too."""
    p = synthetic_problem(rotation_block(), h="linear")
    z = zero_trajectory(3, p.dim, p.dx)
    params = ScaledParams(0.0, -1.0)
    with pytest.raises(DomainError, match="sigma"):
        p.linearised_g(params, z, z)
    decomp = build_projection(p)
    functional = build_amplitude_functional(decomp.psi, decomp.phi_adj)
    with pytest.raises(DomainError, match="sigma"):
        extended_residual(p, functional, params, single_harmonic(decomp.psi, 3))


def test_linearised_g_matches_finite_difference():
    p = cubic_problem()
    rng = np.random.default_rng(9)
    n_t = 5
    base = rng.normal(size=(n_t + 1, p.dim)) * 0.05
    direction = rng.normal(size=(n_t + 1, p.dim)) * 0.05
    uc = base + 1j * np.roll(base, 1, axis=0) * 0.3
    vc = direction + 1j * np.roll(direction, 1, axis=0) * 0.2
    uc[0], vc[0] = uc[0].real, vc[0].real
    u = PeriodicTrajectory(uc, p.dx)
    v = PeriodicTrajectory(vc, p.dx)
    params = ScaledParams(0.2, 0.1)
    eps = 1e-6
    fd = (p.residual_g(params, u + eps * v) - p.residual_g(params, u - eps * v)) \
        * (1.0 / (2 * eps))
    lin = p.linearised_g(params, u, v)
    assert (fd - lin).norm() <= 1e-8 * max(1.0, lin.norm())


# ---------------------------------------------------------------------------
# derivative validation


def test_check_derivatives_cubic():
    p = cubic_problem()
    report = p.check_derivatives(samples=5, step=1e-5, scale=0.1, seed=1)
    assert report.ok, str(report)


def test_check_derivatives_zero_nonlinearity():
    p = cubic_problem()
    zero = ProblemDef(
        A=p.A,
        apply_h=lambda lam, w: np.zeros_like(w),
        apply_h_u=lambda lam, w, v: np.zeros_like(v),
        apply_h_lambda=lambda lam, w: np.zeros_like(w),
        apply_h_lambda_u=lambda lam, w, v: np.zeros_like(v),
        dx=p.dx,
    )
    report = zero.check_derivatives(samples=3, seed=2)
    assert report.worst == 0.0


@pytest.mark.parametrize("callable_name, wrong, field", [
    ("apply_h_u", lambda lam, w, v: lam * v, "err_h_u"),  # no cubic terms
    ("apply_h_lambda", lambda lam, w: 2.0 * w, "err_h_lambda"),
    ("apply_h_lambda_u", lambda lam, w, v: np.zeros_like(v), "err_h_lambda_u"),
], ids=["h_u", "h_lambda", "h_lambda_u"])
def test_check_derivatives_catches_wrong_derivative(callable_name, wrong, field):
    """Each derivative callable broken alone fails the check through its
    own error field, and the report names it; the other fields stay at
    finite-difference accuracy."""
    broken = dataclasses.replace(cubic_problem(), **{callable_name: wrong})
    report = broken.check_derivatives(samples=3, scale=0.1, seed=3)
    assert not report.ok
    assert getattr(report, field) > 1e-4
    others = {"err_h_u", "err_h_lambda", "err_h_lambda_u"} - {field}
    assert all(getattr(report, other) <= 1e-6 for other in others)
    assert str(report).endswith(f"wrong beyond 1e-06: {callable_name}")


def test_doubled_h_lambda_is_reported_under_its_own_name():
    """A synthetic problem with ``h = lam w`` whose ``apply_h_lambda`` is
    doubled: the error sits in ``err_h_lambda`` and the note names
    ``apply_h_lambda``, not ``apply_h_lambda_u``."""
    problem = synthetic_problem(rotation_block(), h="linear")
    doubled = dataclasses.replace(
        problem, apply_h_lambda=lambda lam, w: 2.0 * problem.apply_h_lambda(lam, w))
    report = doubled.check_derivatives(samples=3, seed=4)
    assert report.err_h_lambda > 0.1 and report.worst == report.err_h_lambda
    assert report.err_h_u <= 1e-6 and report.err_h_lambda_u <= 1e-6
    checks = run_hypothesis_checks(doubled, n_max=4)
    assert checks.verdicts == {"derivative_consistency": False, "simple_pair": True,
                               "transversality": True, "nonresonance": True,
                               "resolvent_bound": True}
    assert checks.notes["derivative_consistency"].endswith(
        "; wrong beyond 1e-06: apply_h_lambda")


def test_directional_derivative_second_order():
    # Central differences of h converge at order 2: halving the step
    # divides the defect by about 4.
    p = cubic_problem()
    rng = np.random.default_rng(10)
    lam = 0.2
    u = rng.normal(size=p.dim) * 0.2
    v = rng.normal(size=p.dim) * 0.2

    def defect(eps):
        fd = (p.apply_h(lam, u + eps * v) - p.apply_h(lam, u - eps * v)) / (2 * eps)
        return np.abs(fd - p.apply_h_u(lam, u, v)).max()

    e1, e2 = defect(1e-3), defect(5e-4)
    assert 3.5 <= e1 / e2 <= 4.5


@pytest.mark.parametrize("field, value", [
    ("h_stencil", -1), ("h_stencil", 1.5), ("h_stencil", "2"),
    ("dx", 0.0), ("dx", -1.0), ("dx", np.nan), ("dx", np.inf),
])
def test_problem_rejects_invalid_grid_fields(field, value):
    """A negative stencil would drop h_u(lam, 0) from every probe, and a
    non-positive dx has no grid; the constructor refuses both, also when
    `dataclasses.replace` calls it."""
    p = synthetic_problem(rotation_block(), h="linear", c=0.8)
    with pytest.raises(ValueError, match=field):
        dataclasses.replace(p, **{field: value})


def test_scaled_params_fields():
    params = ScaledParams(0.25)
    assert params.lam == 0.25 and params.sigma == 0.0
    lam, sigma = ScaledParams(0.1, -0.5)
    assert lam == 0.1 and sigma == -0.5


def _full_sampling(problem):
    """A copy of ``problem`` whose degree check counts as failed, so that
    every product samples at the full ``M``."""
    full = dataclasses.replace(problem)
    full.__dict__["_degree_holds"] = False
    return full


def _collocated_products(problem, top, n_t=16, seed=5):
    """Every collocated product of ``problem`` on random trajectories with
    live modes ``0 .. top``: ``residual_g``, ``linearised_g``, the branch
    linearization's ``f_lambda`` column, ``_mixed_column`` and the Newton
    band's storage in the layout of the odd modes up to ``top``."""
    rng = np.random.default_rng(seed)

    def draw():
        coeffs = np.zeros((n_t + 1, problem.dim), dtype=complex)
        coeffs[: top + 1] = 0.1 * (rng.normal(size=(top + 1, problem.dim))
                                   + 1j * rng.normal(size=(top + 1, problem.dim)))
        coeffs[0] = coeffs[0].real
        return PeriodicTrajectory(coeffs, problem.dx)

    u, v = draw(), draw()
    params = ScaledParams(0.2, 0.1)
    core = problem.residual_g(params, u)
    functional = AmplitudeFunctional(StateVector(np.ones(problem.dim), problem.dx))
    layout = TrajectoryLayout(n_t, problem.nx, problem.dx, range(1, top + 1, 2))
    return [
        core.coeffs,
        problem.linearised_g(params, u, v).coeffs,
        _branch_linearization(problem, functional, params, u, core).col_lam.coeffs,
        _mixed_column(problem, params.lam, v).coeffs,
        assemble_jacobian_band(problem, params, u, layout).ab,
    ]


@pytest.mark.parametrize("top", [1, 3])
@pytest.mark.parametrize("fixture", ["coarse_problem", "coarse_quasi_problem"])
def test_degree_aware_products_match_full_sampling(fixture, top, request):
    """Both variants' ``h`` is cubic, so a product on mode-``top``
    trajectories at ``n_t = 16`` samples far fewer than ``M = 34`` times;
    each agrees with the full sampling to 1e-15 of its largest entry, the
    overtones above the product's modes included."""
    problem = request.getfixturevalue(fixture)
    assert problem.collocation_n_t(16, top, top) < 16
    full = _full_sampling(problem)
    assert full.collocation_n_t(16, top, top) == 16
    for got, expect in zip(_collocated_products(problem, top),
                           _collocated_products(full, top)):
        assert got.shape == expect.shape
        assert np.abs(got - expect).max() <= 1e-15 * np.abs(expect).max()


def test_a_non_cubic_h_falls_back_to_full_sampling(coarse_problem):
    """``h = sin(u)`` is not cubic: its degree check fails, so every
    product samples at the full ``M``, bit for bit.  The wobble of
    `test_certificate_verdict_reads_the_leakage` is caught the same way,
    on the zero base."""
    sine = dataclasses.replace(
        coarse_problem, apply_h=lambda lam, w: np.sin(w),
        apply_h_u=lambda lam, w, z: np.cos(w) * z)
    assert not sine._degree_holds and sine.collocation_n_t(16, 1, 1) == 16
    full = _full_sampling(sine)
    for top in (1, 3):
        for got, expect in zip(_collocated_products(sine, top),
                               _collocated_products(full, top)):
            assert np.array_equal(got, expect)
    assert coarse_problem.collocation_n_t(16, 1, 1) == 3


@pytest.mark.parametrize("amplitude, raises", [(2.6, False), (3.0, True)])
def test_trust_check_reads_the_samples_past_its_bound(
        coarse_problem, amplitude, raises):
    """``u = 2a (cos t + sin 2t)`` at every point has the bound ``|c_0| +
    2 sum |c_n| = 4a`` but reads ``3.52a`` at the ``M = 10`` samples of
    ``n_t = 4``.  At ``a = 2.6`` the bound, 10.4, is past the radius 10 and
    the samples, 9.15, are not: the check passes, as on the samples.  At
    ``a = 3`` the samples read 10.56 and raise the samples' message."""
    coeffs = np.zeros((5, coarse_problem.dim), dtype=complex)
    coeffs[1], coeffs[2] = amplitude, -1j * amplitude
    u = PeriodicTrajectory(coeffs, coarse_problem.dx)
    params = ScaledParams(0.1, 0.0)
    if raises:
        message = r"sup\|u\| = 10\.56\d* exceeds trust radius 10"
        with pytest.raises(DomainError, match=message):
            coarse_problem.residual_g(params, u)
    else:
        assert np.all(np.isfinite(coarse_problem.residual_g(params, u).coeffs))


@pytest.mark.parametrize("mode", [0, 1])
@pytest.mark.parametrize("value", [np.inf, np.nan])
def test_trust_check_refuses_non_finite_coefficients(coarse_problem, value, mode):
    coeffs = np.zeros((5, coarse_problem.dim), dtype=complex)
    coeffs[mode, 3] = value
    u = PeriodicTrajectory(coeffs, coarse_problem.dx)
    with pytest.raises(DomainError, match="non-finite"):
        coarse_problem.residual_g(ScaledParams(0.1, 0.0), u)
