"""Bifurcation-point solves and amplitude continuation of the periodic branch.

Everything here works on the square bordered systems built from two
phase-fixing rows (the amplitude functional), the banded space-time core,
and two parameter columns.  One private `_Linearization` defines the
derivative of such a map; the extended solve, the branch solve and the
certificate all build and apply it:

* `solve_extended` polishes the bifurcation data: it solves
  ``(l u - (1, 0), g_u(params, 0) u) = 0`` for ``(lambda, sigma, u)``,
  whose isolated solution is the rescaled-period bifurcation point with
  its normalised first harmonic.
* `BifurcationJacobian` / `verify_jacobian_nonsingular` take the Newton
  linearisation of that map frozen at ``((0,0), u*)`` and certify it is
  boundedly invertible (smallest singular value per Fourier-mode block
  plus the block-structure check: parameters couple only into the
  mean/fundamental part, higher harmonics stay among themselves).
* `decompose_crossing_term` splits the parameter-derivative forcing into
  its span{u*, Au*} part -- whose coefficients are the eigenvalue crossing
  speed -- and a remainder lifted through the periodic solver.
* `continue_branch` tracks the periodic branch parameterised by the
  amplitude ``alpha = l1(u)``, with `check_branch_symmetry` and
  `fit_branch_curvature` validating the odd symmetry and the quadratic
  leading behaviour of the parameter along the branch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import NamedTuple, Optional

import numpy as np
import scipy.sparse as sp

from .linear_periodic import solve_periodic_full
from .newton import (
    BorderedSystem,
    SingularBandError,
    TrajectoryLayout,
    assemble_jacobian_band,
)
from .problem import (
    ConvergenceError,
    DomainError,
    ScaledParams,
    linearization_matrix,
)
from .spectral import inverse_power_sigma_min, sparse_sigma_min
from .trajectory import (
    PeriodicTrajectory,
    single_harmonic,
    trajectory_from_samples,
    zero_trajectory,
)

__all__ = [
    "NEWTON_TOL",
    "MAX_NEWTON_ITERATIONS",
    "BIJECTIVITY_TOLERANCE",
    "FIT_TOLERANCE",
    "ExtendedState",
    "ExtendedSolution",
    "extended_residual",
    "initial_extended_state",
    "solve_extended",
    "BifurcationJacobian",
    "JacobianCertificate",
    "verify_jacobian_nonsingular",
    "CrossingDecomposition",
    "decompose_crossing_term",
    "BranchPoint",
    "BranchResult",
    "BRANCH_CSV_COLUMNS",
    "continue_branch",
    "SymmetryReport",
    "check_branch_symmetry",
    "CurvatureFit",
    "fit_branch_curvature",
]

NEWTON_TOL = 1e-10
MAX_NEWTON_ITERATIONS = 25
BIJECTIVITY_TOLERANCE = 1e-6
FIT_TOLERANCE = 1e-3
_LEAKAGE_TOL = 1e-10


# ---------------------------------------------------------------------------
# shared Newton machinery


class _NewtonTrace:
    """Step/residual history plus the quadratic-contraction bookkeeping."""

    def __init__(self, tol):
        self.tol = tol
        self.step_norms = []
        self.residuals = []
        self.notes = []

    def record_step(self, step):
        if (
            self.step_norms
            and self.step_norms[-1] < 100.0 * self.tol
            and step >= self.step_norms[-1]
            and step > 1e-14
        ):
            self.notes.append(
                f"step norm stalled inside the contraction region "
                f"({self.step_norms[-1]:.3e} -> {step:.3e})"
            )
        self.step_norms.append(step)


def _mixed_column(problem, lam, u):
    """``h_lambda_u(lam, 0) u`` as a trajectory."""
    zeros = np.zeros((u.n_samples, u.dim))
    return trajectory_from_samples(
        problem.apply_h_lambda_u(lam, zeros, u.sample_values()), u.dx
    )


class _Linearization:
    """Derivative of a phase-bordered square map over ``(lambda, sigma, u)``.

    The map is ``(l u - target, core)`` with ``core = u_t - (sigma+1) f``,
    linearised at ``(params, u)``: the state direction goes through
    ``g_u(params, base)`` (``base`` is ``u`` itself for the nonlinear
    system, the origin for the linear-in-u extended system), the parameter
    directions through the columns ``-(sigma+1) f_lambda`` and ``-f``.
    ``core`` is the residual at ``(params, u)`` and ``f_lambda`` the
    lambda-derivative of ``f``.
    """

    def __init__(self, problem, functional, params, base, u, core, f_lambda):
        self.problem = problem
        self.functional = functional
        self.params = params
        self.base = base
        factor = params.sigma + 1.0
        self.col_lam = -(factor) * f_lambda
        # g = u_t - (sigma+1) f  =>  f = (u_t - g) / (sigma+1)
        self.col_sig = -1.0 / factor * (u.time_derivative() - core)

    def apply(self, dlam, dsig, v):
        """Returns ``(pair, trajectory)`` image of ``(dlam, dsig, v)``."""
        core = self.problem.linearised_g(self.params, self.base, v)
        core = core + dlam * self.col_lam + dsig * self.col_sig
        return self.functional.pair(v), core

    def bordered_system(self):
        """Assembled matrix form, core rows first, parameter slots last."""
        base = self.base
        layout = TrajectoryLayout(base.n_t, base.nx, base.dx)
        band = assemble_jacobian_band(self.problem, self.params, base, layout)
        columns = np.column_stack(
            [layout.flatten_trajectory(self.col_lam),
             layout.flatten_trajectory(self.col_sig)]
        )
        rows = layout.functional_rows(self.functional.weight.data)
        return BorderedSystem(band, columns, rows), layout


def _newton_square(functional, target_pair, params, u, residual_fn,
                   linearize, newton_tol, max_iter):
    """Newton on {l u = target, core(params, u) = 0} over (lambda, sigma, u).

    ``residual_fn(params, u)`` gives the core residual trajectory and
    ``linearize(params, u, core)`` the `_Linearization` there.  Returns
    ``(params, u, core, iterations, trace)`` with ``core`` the converged
    residual.
    """
    target = np.asarray(target_pair, dtype=float)
    trace = _NewtonTrace(newton_tol)

    for iteration in range(max_iter + 1):
        core = residual_fn(params, u)
        r_pair = functional.pair(u) - target
        residual = core.norm() + abs(r_pair[0]) + abs(r_pair[1])
        trace.residuals.append(residual)
        if residual <= newton_tol:
            return params, u, core, iteration, trace
        if iteration == max_iter:
            raise ConvergenceError(
                f"Newton did not reach {newton_tol:.1e} within {max_iter} "
                f"iterations (residual {residual:.3e})"
            )

        lin = linearize(params, u, core)
        system, layout = lin.bordered_system()
        (i1, v1), (i2, v2) = system.rows

        def matvec(y, p):
            _, image = lin.apply(p[0], p[1], layout.to_trajectory(y))
            return (
                layout.flatten_trajectory(image),
                np.array([v1 @ y[i1], v2 @ y[i2]]),
            )

        dy, dp = system.solve(
            -layout.flatten_trajectory(core), -r_pair, matvec=matvec
        )
        du = layout.to_trajectory(dy)
        trace.record_step(du.norm() + abs(dp[0]) + abs(dp[1]))
        u = u + du
        params = ScaledParams(params.lam + dp[0], params.sigma + dp[1])


# ---------------------------------------------------------------------------
# extended system


class ExtendedState(NamedTuple):
    params: ScaledParams
    u: PeriodicTrajectory


@dataclass
class ExtendedSolution:
    """Converged bifurcation data with Newton diagnostics."""

    params: ScaledParams
    u: PeriodicTrajectory
    residual: float
    iterations: int
    step_norms: list
    notes: list = field(default_factory=list)


def extended_residual(problem, functional, params, u):
    """Residual of the bifurcation-point system.

    Returns ``(l u - (1, 0), u_t - (sigma+1)(A u + h_u(lambda, 0) u))`` --
    the second block is the linearisation of the rescaled flow at the
    origin applied to ``u``, so the pair vanishes exactly at the
    bifurcation point with normalised first harmonic.
    """
    zero = zero_trajectory(u.n_t, u.dim, u.dx)
    core = problem.linearised_g(params, zero, u)
    pair = functional.pair(u) - np.array([1.0, 0.0])
    return pair, core


def _extended_linearization(problem, functional, params, u, core):
    """The extended map's `_Linearization` at ``(params, u)``."""
    zero = zero_trajectory(u.n_t, u.dim, u.dx)
    return _Linearization(problem, functional, params, zero, u, core,
                          _mixed_column(problem, params.lam, u))


def initial_extended_state(psi, n_t=16):
    """Default Newton seed: parameters zero, pure first harmonic of ``psi``."""
    return ExtendedState(ScaledParams(0.0, 0.0), single_harmonic(psi, n_t))


def solve_extended(problem, functional, initial, newton_tol=NEWTON_TOL,
                   max_iter=MAX_NEWTON_ITERATIONS):
    """Newton-solve the extended bifurcation system.

    Parameters
    ----------
    problem : ProblemDef
    functional : AmplitudeFunctional
    initial : ExtendedState or (params, trajectory)
        Seed; `initial_extended_state` builds the standard one from an
        eigenvector.

    Raises `ConvergenceError` when Newton does not converge, leaves the
    solver's domain or meets a singular bordered system.
    """
    params, u = initial
    params = ScaledParams(*params)

    def residual_fn(prm, traj):
        return extended_residual(problem, functional, prm, traj)[1]

    try:
        params, u, _, iters, trace = _newton_square(
            functional, (1.0, 0.0), params, u, residual_fn,
            partial(_extended_linearization, problem, functional),
            newton_tol, max_iter,
        )
    except (DomainError, SingularBandError, np.linalg.LinAlgError) as exc:
        raise ConvergenceError(f"extended Newton failed: {exc}") from exc
    return ExtendedSolution(
        params, u, trace.residuals[-1], iters, trace.step_norms, trace.notes
    )


# ---------------------------------------------------------------------------
# frozen Jacobian at the bifurcation point


def BifurcationJacobian(problem, functional, u_star):
    """The extended map's Newton linearisation, frozen at ``((0,0), u_star)``.

    The `_Linearization` that `solve_extended` steps with, taken at the
    bifurcation point: its ``apply`` maps ``(dlam, dsig, v)`` to ``(l1 v,
    l2 v, v_t - A v - h_u(0,0) v - dsig * (A + h_u(0,0)) u_star - dlam *
    h_lambda_u(0,0) u_star)`` and ``bordered_system()`` assembles it.
    """
    params = ScaledParams(0.0, 0.0)
    _, core = extended_residual(problem, functional, params, u_star)
    return _extended_linearization(problem, functional, params, u_star, core)


@dataclass
class JacobianCertificate:
    """Invertibility evidence for the frozen bifurcation Jacobian.

    ``sigma_min_by_mode`` maps each Fourier block (``"0-1"``, ``"2"``, ...,
    ``"n_t"``) to its smallest singular value; ``power_iterations`` counts
    the inverse-power steps of all blocks.
    """

    smallest_singular_value: float
    nonsingular: bool
    leakage: float
    tolerance: float
    power_iterations: int
    sigma_min_by_mode: dict

    def __bool__(self):
        return self.nonsingular

    def summary(self):
        verdict = "nonsingular" if self.nonsingular else "SINGULAR"
        block = min(self.sigma_min_by_mode, key=self.sigma_min_by_mode.get)
        return (
            f"sigma_min ~ {self.smallest_singular_value:.3e} in mode block "
            f"{block} (tolerance {self.tolerance:.1e}), leakage "
            f"{self.leakage:.1e}: {verdict}"
        )


def _subspace_leakage(jac, rng):
    """Cross-block contamination of the frozen Jacobian.

    Parameter directions and low harmonics must map into low harmonics;
    higher harmonics must map into higher harmonics and be invisible to
    the functionals.
    """
    n_t, dim, dx = jac.base.n_t, jac.base.dim, jac.base.dx
    worst = 0.0

    def random_traj(lowpass):
        coeffs = rng.normal(size=(n_t + 1, dim)) + 1j * rng.normal(
            size=(n_t + 1, dim)
        )
        coeffs[0] = coeffs[0].real
        if lowpass:
            coeffs[2:] = 0.0
        else:
            coeffs[:2] = 0.0
        return PeriodicTrajectory(coeffs, dx)

    # low block (parameters and modes 0, 1) -> low block
    v = random_traj(lowpass=True)
    pair, image = jac.apply(0.7, -0.4, v)
    _, _, overtones = image.split_subspaces()
    worst = max(worst, overtones.norm() / max(1.0, image.norm()))

    # high block (modes >= 2) -> high block, invisible to the functionals
    v = random_traj(lowpass=False)
    pair, image = jac.apply(0.0, 0.0, v)
    mean, fundamental, _ = image.split_subspaces()
    low = np.sqrt(mean.norm() ** 2 + fundamental.norm() ** 2)
    worst = max(worst, low / max(1.0, image.norm()))
    worst = max(worst, float(np.abs(pair).max()) / max(1.0, v.norm()))
    return worst


def verify_jacobian_nonsingular(problem, functional, u_star,
                                tolerance=BIJECTIVITY_TOLERANCE,
                                power_iterations=30, seed=0):
    """Certify invertibility of the frozen bifurcation Jacobian.

    At the base state 0 the Jacobian is block-diagonal over Fourier modes:
    its smallest singular value is the least over the blocks, each from
    `inverse_power_sigma_min` in at most ``power_iterations`` steps.  Block
    ``"0-1"`` is the bordered system of ``u_star`` cut to modes 0 and 1,
    block ``"n"`` the sparse ``i n - A - h_u(0,0)``.  The leakage check on the
    full Jacobian justifies the split.  The verdict is
    ``smallest_singular_value > tolerance`` and ``leakage <= 1e-10``.
    """
    rng = np.random.default_rng(seed)
    low = PeriodicTrajectory(u_star.coeffs[:2], u_star.dx)
    system, layout = BifurcationJacobian(problem, functional, low).bordered_system()
    try:
        sigma, steps = inverse_power_sigma_min(
            lambda b: np.concatenate(system.solve(b[:-2], b[-2:])),
            lambda b: np.concatenate(system.solve_transpose(b[:-2], b[-2:])),
            rng.normal(size=layout.size + 2), power_iterations,
        )
    except (SingularBandError, np.linalg.LinAlgError):
        sigma, steps = 0.0, 1
    by_mode = {"0-1": sigma}

    operator = problem.A + linearization_matrix(problem, 0.0)
    for n in range(2, u_star.n_t + 1):
        by_mode[str(n)], taken = sparse_sigma_min(
            1j * n * sp.identity(problem.dim) - operator, power_iterations, rng
        )
        steps += taken

    sigma_min = min(by_mode.values())
    leakage = _subspace_leakage(BifurcationJacobian(problem, functional, u_star), rng)
    return JacobianCertificate(
        smallest_singular_value=float(sigma_min),
        nonsingular=bool(sigma_min > tolerance and leakage <= _LEAKAGE_TOL),
        leakage=float(leakage),
        tolerance=float(tolerance),
        power_iterations=steps,
        sigma_min_by_mode=by_mode,
    )


# ---------------------------------------------------------------------------
# crossing-term decomposition


@dataclass
class CrossingDecomposition:
    """Split of the parameter-derivative forcing at the bifurcation point.

    ``h_lambda_u(0,0) u_star = p * u_star + q * A u_star + (core of) u_sharp``
    where ``u_sharp`` solves the periodic linear problem for the remainder.
    ``(p, q)`` equal the real and imaginary parts of the eigenvalue
    crossing speed.
    """

    p: float
    q: float
    u_sharp: PeriodicTrajectory
    reconstruction_residual: float


def decompose_crossing_term(problem, decomp, n_t=8):
    """Decompose the crossing forcing into span{u*, Au*} plus a lifted rest.

    Parameters
    ----------
    problem : ProblemDef
    decomp : SpectralDecomposition
        Normalised eigentriple ``(psi, phi_adj, mu)`` at the imaginary
        crossing; the span coefficients are read off against ``phi_adj``.
    n_t : int
        Temporal truncation of the returned trajectories.

    Raises
    ------
    ValueError
        If the 2x2 span system is degenerate (crossing eigenvalue too
        close to the real axis).
    """
    psi = decomp.psi
    u_star = single_harmonic(psi, n_t)
    forcing = _mixed_column(problem, 0.0, u_star)

    w1 = 2.0 * forcing.fourier_coeff(1)  # = h_lambda_u(0,0) psi
    a_psi = np.asarray(problem.A @ psi.data, dtype=complex)
    phi = decomp.phi_adj
    c = complex(w1 @ np.conj(phi.data)) * psi.dx
    m = complex(a_psi @ np.conj(phi.data)) * psi.dx  # ~ mu, but exact in A
    if abs(m.imag) < 1e-8 * max(1.0, abs(m)):
        raise ValueError(
            "span{u*, Au*} is degenerate: <A psi, phi> is numerically real "
            f"({m:.3e})"
        )
    q = c.imag / m.imag
    p = c.real - q * m.real

    remainder_vec = w1 - p * psi.data - q * a_psi
    remainder = single_harmonic(remainder_vec, n_t, dx=psi.dx)
    if remainder.norm() <= 1e-13 * max(1.0, forcing.norm()):
        u_sharp = zero_trajectory(n_t, u_star.dim, u_star.dx)
    else:
        u_sharp = solve_periodic_full(problem, decomp, remainder)

    # reconstruction: p u* + q Au* + (d/dt - A) u_sharp should equal forcing
    lifted = u_sharp.time_derivative() - u_sharp.with_coeffs(
        (problem.A @ u_sharp.coeffs.T).T
    )
    a_u_star = u_star.with_coeffs((problem.A @ u_star.coeffs.T).T)
    recon = p * u_star + q * a_u_star + lifted
    residual = (recon - forcing).norm() / max(1.0, forcing.norm())
    return CrossingDecomposition(
        p=float(p), q=float(q), u_sharp=u_sharp,
        reconstruction_residual=float(residual),
    )


# ---------------------------------------------------------------------------
# branch continuation


BRANCH_CSV_COLUMNS = (
    "alpha", "lambda", "sigma", "eta_norm", "residual", "newton_iters"
)


@dataclass
class BranchPoint:
    """One converged point of the amplitude-parameterised branch."""

    alpha: float
    lam: float
    sigma: float
    u: PeriodicTrajectory
    residual: float
    newton_iters: int
    l_check: np.ndarray          # the actual (l1, l2) value at convergence
    eta_norm: float              # ||u/alpha - u_star||, 0 at the origin
    sup_residual: float
    step_norms: list

    @property
    def params(self):
        return ScaledParams(self.lam, self.sigma)


@dataclass
class BranchResult:
    """An amplitude-ordered sweep of branch points plus diagnostics."""

    points: list
    u_star: PeriodicTrajectory
    newton_tol: float
    notes: list = field(default_factory=list)
    symmetry_report: Optional["SymmetryReport"] = None

    @property
    def alphas(self):
        return np.array([pt.alpha for pt in self.points])

    @property
    def lambdas(self):
        return np.array([pt.lam for pt in self.points])

    @property
    def sigmas(self):
        return np.array([pt.sigma for pt in self.points])

    def to_csv_rows(self):
        rows = [list(BRANCH_CSV_COLUMNS)]
        for pt in self.points:
            rows.append(
                [
                    repr(float(pt.alpha)), repr(float(pt.lam)),
                    repr(float(pt.sigma)), repr(float(pt.eta_norm)),
                    repr(float(pt.residual)), str(pt.newton_iters),
                ]
            )
        return rows

    def to_json_dict(self, include_trajectories=False):
        points = []
        for pt in self.points:
            entry = {
                "alpha": pt.alpha, "lambda": pt.lam, "sigma": pt.sigma,
                "eta_norm": pt.eta_norm, "residual": pt.residual,
                "newton_iters": pt.newton_iters,
                "l_check": list(map(float, pt.l_check)),
            }
            if include_trajectories:
                entry["u"] = pt.u.to_json_dict()
            points.append(entry)
        out = {
            "schema": 1,
            "newton_tol": self.newton_tol,
            "points": points,
            "notes": list(self.notes),
        }
        if self.symmetry_report is not None:
            out["symmetry"] = self.symmetry_report.to_json_dict()
        return out


def _branch_newton(problem, functional, alpha, params, u,
                   newton_tol, max_iter):
    def linearize(prm, traj, core):
        f_lambda = trajectory_from_samples(
            problem.apply_h_lambda(prm.lam, traj.sample_values()), traj.dx
        )
        return _Linearization(problem, functional, prm, traj, traj, core,
                              f_lambda)

    return _newton_square(
        functional, (alpha, 0.0), params, u, problem.residual_g, linearize,
        newton_tol, max_iter,
    )


def _trivial_point(u_star):
    zero = zero_trajectory(u_star.n_t, u_star.dim, u_star.dx)
    return BranchPoint(
        alpha=0.0, lam=0.0, sigma=0.0, u=zero, residual=0.0,
        newton_iters=0, l_check=np.zeros(2), eta_norm=0.0,
        sup_residual=0.0, step_norms=[],
    )


def _continue_grid(problem, functional, u_star, grid, newton_tol, max_iter,
                   notes):
    """March the square system over an amplitude grid with rescaling
    predictors; returns the list of converged points, truncating with a
    note if Newton fails or leaves the solver's domain."""
    points = []
    params = ScaledParams(0.0, 0.0)
    u = None
    prev_alpha = None
    for alpha in grid:
        if u is None:
            u = float(alpha) * u_star
        else:
            ratio = alpha / prev_alpha
            u = ratio * u
            params = ScaledParams(ratio**2 * params.lam,
                                  ratio**2 * params.sigma)
        try:
            params, u, core, iters, trace = _branch_newton(
                problem, functional, alpha, params, u, newton_tol, max_iter
            )
        except (ConvergenceError, DomainError, SingularBandError,
                np.linalg.LinAlgError) as exc:
            notes.append(
                f"branch truncated at alpha = {alpha:g}: {exc}"
            )
            break
        notes.extend(trace.notes)
        l_val = functional.pair(u)
        eta = (1.0 / alpha) * u - u_star
        points.append(
            BranchPoint(
                alpha=float(alpha), lam=params.lam, sigma=params.sigma,
                u=u, residual=trace.residuals[-1], newton_iters=iters,
                l_check=l_val, eta_norm=eta.norm(),
                sup_residual=core.sup_norm(),
                step_norms=trace.step_norms,
            )
        )
        prev_alpha = alpha
    return points


def continue_branch(problem, functional, u_star, alpha_max, steps,
                    newton_tol=NEWTON_TOL, max_iter=MAX_NEWTON_ITERATIONS):
    """Continue the periodic branch over ``alpha = alpha_max * k / steps``.

    Each point solves ``{l1 u = alpha, l2 u = 0, g((lambda, sigma), u) = 0}``
    by Newton, predicted from the previous point by amplitude rescaling
    (``u`` linearly, parameters quadratically).  When Newton fails or
    leaves the solver's domain (parameter window, trust radius, singular
    band), the branch is truncated at the last converged point and a
    diagnostic note is recorded -- no extrapolation.

    ``alpha_max = 0`` is allowed and returns only the trivial point.

    Returns
    -------
    BranchResult
        Points sorted by amplitude, including the trivial point at 0.
    """
    if alpha_max < 0 or steps < 1:
        raise ValueError("need alpha_max >= 0 and at least one step")
    grid = alpha_max * np.arange(1, steps + 1) / steps if alpha_max > 0 else []
    notes = []
    points = _continue_grid(
        problem, functional, u_star, grid, newton_tol, max_iter, notes
    )
    points.insert(0, _trivial_point(u_star))
    return BranchResult(
        points=points, u_star=u_star, newton_tol=newton_tol, notes=notes
    )


# ---------------------------------------------------------------------------
# symmetry and curvature checks


@dataclass
class SymmetryReport:
    """Deviations from the amplitude-reflection symmetry of the branch.

    Reflecting the amplitude maps a branch point to the half-period
    translate of its partner: parameters even in ``alpha``, state obeying
    ``u(-alpha) = tau_pi u(alpha)`` (equivalently, the first-order part
    flips sign while the correction translates).
    """

    parameter_deviation: float
    state_deviation: float
    phase_deviations: dict
    tolerance: float
    passed: bool
    per_alpha: list = field(default_factory=list)

    def to_json_dict(self):
        return {
            "schema": 1,
            "parameter_deviation": self.parameter_deviation,
            "state_deviation": self.state_deviation,
            "phase_deviations": {
                f"{k:.6f}": v for k, v in self.phase_deviations.items()
            },
            "tolerance": self.tolerance,
            "passed": self.passed,
        }


def check_branch_symmetry(problem, functional, result,
                          thetas=(np.pi / 6, np.pi / 3, np.pi / 2),
                          newton_tol=None, max_iter=MAX_NEWTON_ITERATIONS):
    """Re-solve the branch at negated amplitudes and compare.

    For each computed ``alpha > 0`` the mirrored system is solved from a
    ``-alpha`` predictor and the identities ``params(-alpha) =
    params(alpha)`` and ``u(-alpha) = tau_pi u(alpha)`` are measured in
    norm.  Additionally, Newton started from time-translated seeds
    ``tau_theta(alpha u_star)`` must fall back to the same phase-fixed
    representative (the phase row selects it), which is the sampled
    uniqueness test.

    The report is attached to ``result.symmetry_report`` and returned.
    Raises `ConvergenceError` when the mirrored branch truncates or a
    phase-seed solve fails, leaves the solver's domain or meets a singular
    band.
    """
    if newton_tol is None:
        newton_tol = result.newton_tol
    tol = 1e-8 + 10.0 * newton_tol
    plus = [pt for pt in result.points if pt.alpha > 0.0]
    if not plus:
        raise ValueError("branch has no nontrivial points to mirror")

    notes = []
    grid = np.array([-pt.alpha for pt in plus])
    minus = _continue_grid(
        problem, functional, result.u_star, grid, newton_tol, max_iter, notes
    )
    if len(minus) != len(plus):
        raise ConvergenceError(
            "mirrored branch truncated; cannot complete the symmetry check: "
            + "; ".join(notes)
        )

    per_alpha = []
    param_dev = 0.0
    state_dev = 0.0
    for pt, mt in zip(plus, minus):
        dp = max(abs(mt.lam - pt.lam), abs(mt.sigma - pt.sigma))
        ds = (mt.u - pt.u.time_shift(np.pi)).norm()
        per_alpha.append((pt.alpha, dp, ds))
        param_dev = max(param_dev, dp)
        state_dev = max(state_dev, ds)

    # sampled uniqueness: translated seeds must converge back to the
    # phase-fixed representative
    mid = plus[len(plus) // 2]
    phase_deviations = {}
    for theta in thetas:
        seed = (mid.alpha * result.u_star).time_shift(theta)
        try:
            params, u, *_ = _branch_newton(
                problem, functional, mid.alpha,
                ScaledParams(0.0, 0.0), seed, newton_tol, max_iter,
            )
        except (DomainError, SingularBandError, np.linalg.LinAlgError) as exc:
            raise ConvergenceError(
                f"phase-seed Newton failed at theta = {theta:g}: {exc}"
            ) from exc
        dev = (u - mid.u).norm() + max(
            abs(params.lam - mid.lam), abs(params.sigma - mid.sigma)
        )
        phase_deviations[float(theta)] = float(dev)

    passed = (
        param_dev <= tol
        and state_dev <= tol
        and all(v <= tol for v in phase_deviations.values())
    )
    report = SymmetryReport(
        parameter_deviation=float(param_dev),
        state_deviation=float(state_dev),
        phase_deviations=phase_deviations,
        tolerance=float(tol),
        passed=bool(passed),
        per_alpha=per_alpha,
    )
    result.symmetry_report = report
    return report


@dataclass
class CurvatureFit:
    """Least-squares model ``param ~ c1 * alpha + c2 * alpha**2``.

    ``(c1, s1)`` estimate the branch-parameter derivatives at the origin
    (zero at a genuine bifurcation), ``(c2, s2)`` the curvatures.
    """

    c1: float
    c2: float
    s1: float
    s2: float
    max_fit_residual: float
    ok: bool
    tolerance: float


def fit_branch_curvature(result, fit_tolerance=FIT_TOLERANCE):
    """Quadratic fit of the branch parameters against the amplitude.

    Requires at least 4 points; the verdict passes when the linear
    coefficients vanish within ``fit_tolerance`` (the branch parameters
    must be even functions of the amplitude to leading order).
    """
    alphas = result.alphas
    if alphas.size < 4:
        raise ValueError("need at least 4 branch points for the fit")
    design = np.column_stack([alphas, alphas**2])
    coeff_l, res_l, *_ = np.linalg.lstsq(design, result.lambdas, rcond=None)
    coeff_s, res_s, *_ = np.linalg.lstsq(design, result.sigmas, rcond=None)
    fit_l = design @ coeff_l - result.lambdas
    fit_s = design @ coeff_s - result.sigmas
    worst = float(max(np.abs(fit_l).max(), np.abs(fit_s).max()))
    c1, c2 = map(float, coeff_l)
    s1, s2 = map(float, coeff_s)
    ok = abs(c1) <= fit_tolerance and abs(s1) <= fit_tolerance
    return CurvatureFit(
        c1=c1, c2=c2, s1=s1, s2=s2, max_fit_residual=worst,
        ok=bool(ok), tolerance=float(fit_tolerance),
    )
