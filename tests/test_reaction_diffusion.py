import numpy as np
import pytest

from hopfkit.problem import ScaledParams
from hopfkit.reaction_diffusion import (
    ExampleConfig,
    exact_branch_state,
    exact_branch_trajectory,
    grid,
    kappa,
    kappa_grid,
    make_problem,
    reference_eigenvector,
    rho,
    rho_grid,
)
from hopfkit.trajectory import PeriodicTrajectory

SMALL = dict(L=20.0, dx=0.2)


def small_cfg(**over):
    base = dict(SMALL)
    base.update(over)
    return ExampleConfig(**base)


# ---------------------------------------------------------------------------
# closed-form profiles


def test_profile_satisfies_linear_ode():
    # kappa'' = rho * kappa, checked by second-order finite differences of
    # the closed form at off-grid points.
    xs = np.array([-7.3, -1.0, 0.0, 0.4, 2.9, 11.0])
    h = 1e-4
    kpp = (kappa(xs + h) - 2 * kappa(xs) + kappa(xs - h)) / h**2
    assert np.allclose(kpp, rho(xs) * kappa(xs), atol=1e-7)


def test_rho_range():
    xs = np.linspace(-40, 40, 2001)
    vals = rho(xs)
    assert vals.min() >= -0.25 - 1e-12
    assert vals.max() <= 0.25 + 1e-12
    assert np.isclose(rho(0.0), -0.25)


def test_kappa_boundary_decay():
    for L in (20.0, 30.0):
        cfg = ExampleConfig(L=L, dx=0.2)
        kap = kappa_grid(cfg)
        assert kap[0] == kap[-1] <= kappa(L) <= 1e-4


def test_grid_layout():
    cfg = small_cfg()
    x = grid(cfg)
    assert x.size == cfg.nx
    assert np.isclose(x[0], -cfg.L) and np.isclose(x[-1], cfg.L)
    assert np.isclose(x[cfg.nx // 2], 0.0)
    assert np.allclose(np.diff(x), cfg.dx)


def test_config_validation():
    with pytest.raises(ValueError, match="variant"):
        ExampleConfig(variant="cubic")
    with pytest.raises(ValueError, match="L"):
        ExampleConfig(L=10.0)
    with pytest.raises(ValueError, match="dx"):
        ExampleConfig(dx=0.5)
    with pytest.raises(ValueError, match="dirichlet"):
        ExampleConfig(boundary="neumann")


# ---------------------------------------------------------------------------
# assembled operator


def test_A_matches_stencil_on_random_vector():
    cfg = small_cfg()
    p = make_problem(cfg)
    rng = np.random.default_rng(0)
    w = rng.normal(size=p.dim)
    u, v = w[: cfg.nx], w[cfg.nx :]

    def d2(f):
        out = -2.0 * f
        out[1:] += f[:-1]
        out[:-1] += f[1:]
        return out / cfg.dx**2

    r = rho_grid(cfg)
    expect = np.concatenate([d2(u) - r * u - v, d2(v) - r * v + u])
    assert np.allclose(p.apply_A(w), expect, atol=1e-11)


def test_A_invertible():
    p = make_problem(small_cfg())
    rng = np.random.default_rng(1)
    rhs = rng.normal(size=p.dim)
    sol = p.solve_resolvent(0, -rhs).real
    assert np.linalg.norm(p.apply_A(sol) - rhs) <= 1e-10 * np.linalg.norm(rhs)


def test_consistent_mode_identity_exact():
    cfg = small_cfg(discretely_consistent_rho=True)
    p = make_problem(cfg)
    kap = kappa_grid(cfg)
    w = np.concatenate([kap, np.zeros(cfg.nx)])
    out = p.apply_A(w)
    expect = np.concatenate([np.zeros(cfg.nx), kap])
    assert np.abs(out - expect).max() <= 1e-12


def test_standard_mode_second_order_in_interior():
    # Away from the boundary (where Dirichlet truncation dominates) the
    # defect of A(kappa, 0) = (0, kappa) shrinks like dx^2.
    errs = []
    for dx in (0.2, 0.1):
        cfg = small_cfg(dx=dx, discretely_consistent_rho=False)
        p = make_problem(cfg)
        kap = kappa_grid(cfg)
        w = np.concatenate([kap, np.zeros(cfg.nx)])
        defect = p.apply_A(w) - np.concatenate([np.zeros(cfg.nx), kap])
        x = np.concatenate([grid(cfg), grid(cfg)])
        errs.append(np.abs(defect[np.abs(x) <= cfg.L / 2]).max())
    assert errs[1] < errs[0]
    assert 3.3 <= errs[0] / errs[1] <= 4.7


def test_reference_eigenvector_consistent_mode():
    cfg = small_cfg(discretely_consistent_rho=True)
    p = make_problem(cfg)
    psi = reference_eigenvector(cfg)
    aw = p.apply_A(psi.data.real) + 1j * p.apply_A(psi.data.imag)
    assert np.abs(aw - 1j * psi.data).max() <= 1e-10


def test_reference_eigenvector_standard_mode_close():
    cfg = small_cfg(discretely_consistent_rho=False)
    p = make_problem(cfg)
    psi = reference_eigenvector(cfg)
    aw = p.apply_A(psi.data.real) + 1j * p.apply_A(psi.data.imag)
    # O(dx^2) interior + O(sech(L)/dx^2) boundary defect, both small.
    assert np.abs(aw - 1j * psi.data).max() <= 5e-3


# ---------------------------------------------------------------------------
# semilinear nonlinearity


def test_h_vanishes_at_zero_and_on_branch():
    cfg = small_cfg()
    p = make_problem(cfg)
    lam = 0.3
    assert np.allclose(p.apply_h(lam, np.zeros(p.dim)), 0.0)
    for t in (0.0, 1.1, 4.6):
        w = exact_branch_state(cfg, lam, t).data
        assert np.abs(p.apply_h(lam, w)).max() <= 1e-14


def test_h_u_at_origin_scales_with_lambda():
    cfg = small_cfg()
    p = make_problem(cfg)
    rng = np.random.default_rng(2)
    z = rng.normal(size=p.dim)
    # h_u(0, 0) = 0; at lam != 0 it is multiplication by lam*kappa^2.
    assert np.allclose(p.apply_h_u(0.0, np.zeros(p.dim), z), 0.0, atol=1e-15)
    kap2 = np.tile(kappa_grid(cfg) ** 2, 2)
    assert np.allclose(p.apply_h_u(0.4, np.zeros(p.dim), z), 0.4 * kap2 * z,
                       atol=1e-14)


def test_semilinear_rotational_equivariance():
    cfg = small_cfg()
    p = make_problem(cfg)
    rng = np.random.default_rng(3)
    w = rng.normal(size=p.dim) * 0.3
    lam = 0.2
    n = cfg.nx
    for theta in (0.4, 2.0):
        c, s = np.cos(theta), np.sin(theta)
        u, v = w[:n], w[n:]
        rw = np.concatenate([u * c - v * s, u * s + v * c])
        fw = p.apply_A(w) + p.apply_h(lam, w)
        fu, fv = fw[:n], fw[n:]
        rfw = np.concatenate([fu * c - fv * s, fu * s + fv * c])
        frw = p.apply_A(rw) + p.apply_h(lam, rw)
        assert np.allclose(frw, rfw, atol=1e-11)


def test_semilinear_derivatives_validate():
    p = make_problem(small_cfg())
    report = p.check_derivatives(samples=4, step=1e-5, scale=0.1, seed=4)
    assert report.ok, str(report)


# ---------------------------------------------------------------------------
# quasilinear variant


def test_quasilinear_h1_zero_cases():
    cfg = small_cfg(variant="quasilinear")
    p = make_problem(cfg)
    rng = np.random.default_rng(5)
    z = rng.normal(size=p.dim)
    assert np.allclose(p.apply_h(0.0, np.zeros(p.dim)), 0.0)
    # the linearisation at the origin survives the quasilinear extra
    # term: h_u(0, 0) = 0, so both variants share the same critical pair
    assert np.allclose(p.apply_h_u(0.0, np.zeros(p.dim), z), 0.0, atol=1e-15)


def test_quasilinear_constant_field_annihilated():
    # For constant u the transport term (u^2 u_x)_x vanishes identically
    # in the interior; compare against the semilinear part there.
    cfg = small_cfg(variant="quasilinear")
    p = make_problem(cfg)
    semi = make_problem(small_cfg())
    w = np.full(p.dim, 0.3)
    inner = np.abs(np.concatenate([grid(cfg)] * 2)) <= cfg.L - 1
    diff = p.apply_h(0.1, w) - semi.apply_h(0.1, w)
    assert np.abs(diff[inner]).max() <= 1e-14


def test_quasilinear_derivatives_validate():
    p = make_problem(small_cfg(variant="quasilinear"))
    report = p.check_derivatives(samples=4, step=1e-5, scale=0.05, seed=6)
    assert report.ok, str(report)


def test_h_stencil_metadata():
    assert make_problem(small_cfg()).h_stencil == 0
    assert make_problem(small_cfg(variant="quasilinear")).h_stencil == 2


# ---------------------------------------------------------------------------
# exact branch


def test_exact_branch_basics():
    cfg = small_cfg()
    assert np.allclose(exact_branch_state(cfg, 0.0, 1.3).data, 0.0)
    peak = np.abs(exact_branch_state(cfg, 0.25, 0.0).data).max()
    assert np.isclose(peak, 0.5, atol=1e-6)
    with pytest.raises(ValueError):
        exact_branch_state(cfg, -0.1, 0.0)
    with pytest.raises(ValueError):
        exact_branch_trajectory(cfg, -0.1)


def test_exact_branch_solves_pde_pointwise():
    # d/dt of the branch equals f(lam, branch) at sampled phases
    # (discretely consistent mode: identity holds to rounding).
    cfg = small_cfg(discretely_consistent_rho=True)
    p = make_problem(cfg)
    lam = 0.09
    kap = kappa_grid(cfg)
    for t in (0.0, 0.7, 2.0, 5.1):
        w = exact_branch_state(cfg, lam, t).data
        dwdt = np.sqrt(lam) * np.concatenate([-kap * np.sin(t), kap * np.cos(t)])
        assert np.abs(p.residual_f(lam, w) - dwdt).max() <= 1e-12


def test_exact_branch_trajectory_residual():
    cfg = small_cfg(discretely_consistent_rho=True)
    p = make_problem(cfg)
    lam = 0.09
    u = exact_branch_trajectory(cfg, lam, n_t=8)
    g = p.residual_g(ScaledParams(lam, 0.0), u)
    assert g.norm() <= 1e-12


def test_exact_branch_trajectory_matches_state_samples():
    cfg = small_cfg()
    lam = 0.16
    u = exact_branch_trajectory(cfg, lam, n_t=6)
    for t in (0.0, 0.9, 3.3):
        assert np.allclose(u.at_time(t).data, exact_branch_state(cfg, lam, t).data,
                           atol=1e-13)


def test_exact_branch_trajectory_is_the_scaled_eigenvector():
    """The first-harmonic embedding of ``sqrt(lam) * (kappa, -i kappa)``
    equals the coefficient-by-coefficient construction on the samples."""
    cfg = small_cfg()
    lam, n_t = 0.16, 5
    kap = np.sqrt(lam) * kappa_grid(cfg)
    coeffs = np.zeros((n_t + 1, 2 * cfg.nx), dtype=complex)
    coeffs[1, : cfg.nx] = kap / 2.0
    coeffs[1, cfg.nx :] = -1j * kap / 2.0
    u = exact_branch_trajectory(cfg, lam, n_t=n_t)
    assert u.dx == cfg.dx
    assert np.array_equal(u.coeffs, coeffs)
    assert np.array_equal(u.sample_values(),
                          PeriodicTrajectory(coeffs, cfg.dx).sample_values())


def test_standard_mode_branch_residual_is_small_not_zero():
    cfg = small_cfg(discretely_consistent_rho=False)
    p = make_problem(cfg)
    lam = 0.09
    u = exact_branch_trajectory(cfg, lam, n_t=8)
    g = p.residual_g(ScaledParams(lam, 0.0), u)
    # O(dx^2) defect: nonzero but small at dx = 0.2.
    assert 1e-12 < g.norm() <= 5e-2
