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
  its span{u*, Bu*} part (``B = A + h_u(0, 0)``) -- whose coefficients are
  the eigenvalue crossing speed -- and a remainder lifted through the
  periodic solver.
* `continue_branch` tracks the periodic branch parameterised by the
  amplitude ``alpha = l1(u)`` from the solved bifurcation point, with
  `check_branch_symmetry` and `fit_branch_curvature` validating the odd
  symmetry and the quadratic leading behaviour of the parameter along the
  branch.

The continuation and the extended solve factor one band per Newton step.
When ``h`` is odd (`ProblemDef.odd_symmetric`, probed on the first Newton
solve) and the iterate has no even Fourier modes, a Newton step solves on
the odd modes only (the half-wave space, `newton.odd_modes`): the branch
keeps ``u(t + pi) = -u(t)``, the Jacobian there maps odd modes to odd
modes, and the band is about a quarter of the full one.  The full
residual, even modes included, still decides convergence; a solve whose
even residual exceeds the tolerance finishes in the full space.  The
hypothesis checks and the certificate stay on the full space.
The symmetry check factors one band for all of its solves: g is autonomous,
so its derivative at a time translate ``tau_psi u`` is ``S_psi g_u(p, u)
S_psi^-1`` with ``S_psi`` an O(size) rotation of the Fourier modes, and
every Newton step of the mirrored branch and of the phase seeds solves
through the mid point's factor rotated to the iterate's phase, refined
against the exact derivative (a chord iteration; the residual and the
tolerance stay exact).  A solve whose step does not at least halve the
residual refactors at its iterate and finishes with exact Newton.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import NamedTuple, Optional

import numpy as np

from .linear_periodic import solve_periodic_full
from .newton import (
    BorderedSystem,
    SingularBandError,
    TrajectoryLayout,
    assemble_jacobian_band,
    odd_modes,
)
from .problem import ConvergenceError, DomainError, ScaledParams
from .spectral import _resolvent_sigma_min, inverse_power_sigma_min
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
SYMMETRY_PHASES = (np.pi / 6, np.pi / 3, np.pi / 2)
#: How a Newton solve fails besides running out of iterations: it leaves
#: the solver's domain or meets a singular bordered system.
_SOLVE_ERRORS = (DomainError, SingularBandError, np.linalg.LinAlgError)


# ---------------------------------------------------------------------------
# shared Newton machinery


class _NewtonTrace:
    """Step/residual history plus the quadratic-contraction bookkeeping;
    ``full_steps`` counts the steps solved in the full space."""

    def __init__(self, tol):
        self.tol = tol
        self.step_norms = []
        self.residuals = []
        self.notes = []
        self.full_steps = 0

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


def _even_part(traj):
    """Modes 0, 2, 4, ... of ``traj``: zero exactly when ``u(t + pi) =
    -u(t)``."""
    coeffs = np.zeros_like(traj.coeffs)
    coeffs[0::2] = traj.coeffs[0::2]
    return traj.with_coeffs(coeffs)


def _half_wave(problem, *trajectories):
    """Whether Newton systems at these trajectories take the half-wave
    space: ``h`` is odd (`ProblemDef.odd_symmetric`) and no trajectory has
    an even mode."""
    return (trajectories[0].n_t >= 1
            and not any(np.any(traj.coeffs[0::2]) for traj in trajectories)
            and problem.odd_symmetric())


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
        self.u = u
        factor = params.sigma + 1.0
        self.col_lam = -(factor) * f_lambda
        # g = u_t - (sigma+1) f  =>  f = (u_t - g) / (sigma+1)
        self.col_sig = -1.0 / factor * (u.time_derivative() - core)

    def apply(self, dlam, dsig, v):
        """Returns ``(pair, trajectory)`` image of ``(dlam, dsig, v)``."""
        core = self.problem.linearised_g(self.params, self.base, v)
        core = core + dlam * self.col_lam + dsig * self.col_sig
        return self.functional.pair(v), core

    def layout(self, full=False):
        """The space of this linearization's systems: the half-wave modes
        (`odd_modes`) when ``h`` is odd and neither ``base`` nor ``u`` has
        an even mode (`_half_wave`), unless ``full``; all modes otherwise.

        On the half-wave space ``g_u(params, base)`` maps odd modes to odd
        modes (``h_u`` is even in an odd base), so the Newton step of an
        odd residual is the full step restricted to the odd modes.
        """
        base = self.base
        half = not full and _half_wave(self.problem, base, self.u)
        return TrajectoryLayout(base.n_t, base.nx, base.dx,
                                odd_modes(base.n_t) if half else None)

    def bordered_system(self, layout=None, factor=None, psi=0.0):
        """Assembled matrix form in ``layout`` (default `layout()`), core
        rows first, parameter slots last.

        With a factored `BorderedSystem` ``factor`` in ``layout`` no band
        is assembled: the core is ``factor``'s, rotated by ``psi``
        (`BorderedSystem.rebordered`), and the parameter columns and rows
        are this one's.
        """
        layout = self.layout() if layout is None else layout
        columns = np.column_stack(
            [layout.flatten_trajectory(self.col_lam),
             layout.flatten_trajectory(self.col_sig)]
        )
        rows = layout.functional_rows(self.functional.weight.data)
        if factor is not None:
            return factor.rebordered(columns, rows, layout, psi), layout
        band = assemble_jacobian_band(self.problem, self.params, self.base, layout)
        return BorderedSystem(band, columns, rows), layout


class _SharedFactor:
    """One factored branch linearisation serving every time translate.

    g is autonomous, so ``g_u(p, tau_psi u) = S_psi g_u(p, u) S_psi^-1``
    with ``S_psi`` the layout rotation of ``time_shift(psi)``.  ``system``
    is the factored bordered system at a branch point whose pair is
    ``(alpha, 0)``, ``alpha > 0``; an iterate near ``tau_psi`` of that point
    has ``phase_angle = -psi``.  ``layout`` is the system's space (the
    half-wave one when the point is half-wave).  ``factorizations`` counts
    this factor plus every exact Newton step taken after a solve left it.
    """

    def __init__(self, lin):
        self.system, self.layout = lin.bordered_system()
        self.system.factorize(overwrite=True)
        self.factorizations = 1


def _newton_square(functional, target_pair, params, u, residual_fn,
                   linearize, newton_tol, max_iter, factor=None):
    """Newton on {l u = target, core(params, u) = 0} over (lambda, sigma, u).

    ``residual_fn(params, u)`` gives the core residual trajectory and
    ``linearize(params, u, core)`` the `_Linearization` there.  Returns
    ``(params, u, core, iterations, trace)`` with ``core`` the converged
    residual.

    Each step solves in its linearization's space (`_Linearization.
    layout`): the half-wave one keeps the iterate free of even modes.  The
    full residual, even modes included, decides convergence; once its even
    modes exceed ``newton_tol`` the rest of the solve takes the full space.

    With a `_SharedFactor` the steps solve through its factor rotated to
    the iterate's phase (a chord iteration refined against the exact
    derivative) instead of a new band each.  A step that does not halve
    the residual, or whose space is not the factor's, ends that: the solve
    finishes with exact Newton, each step counted in
    ``factor.factorizations``.

    Each exact step factors its band in place and releases the system
    before the next step assembles, so one band-sized array is alive at a
    time (plus the shared factor's).
    """
    target = np.asarray(target_pair, dtype=float)
    trace = _NewtonTrace(newton_tol)
    shared = factor
    full = False

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

        if shared is not None and iteration and residual > 0.5 * trace.residuals[-2]:
            shared = None  # the last chord step did not halve the residual
        full = full or _even_part(core).norm() > newton_tol
        lin = linearize(params, u, core)
        layout = lin.layout(full)
        if shared is not None and shared.layout.modes != layout.modes:
            shared = None  # the factor is not in this step's space
        if layout.modes != odd_modes(layout.n_t):
            trace.full_steps += 1
        if shared is None:
            system, _ = lin.bordered_system(layout)
            system.factorize(overwrite=True)
            if factor is not None:
                factor.factorizations += 1
        else:
            system, _ = lin.bordered_system(
                layout, shared.system, -functional.phase_angle(u))
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
        del system  # its band and factor, before the next step assembles
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
    except _SOLVE_ERRORS as exc:
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
                                power_iterations=30, seed=0):
    """Certify invertibility of the frozen bifurcation Jacobian.

    At the base state 0 the Jacobian is block-diagonal over Fourier modes:
    its smallest singular value is the least over the blocks, each from
    `inverse_power_sigma_min` in at most ``power_iterations`` steps.  Block
    ``"0-1"`` is the bordered system of ``u_star`` cut to modes 0 and 1,
    in the full space whatever space the Newton solves took, block ``"n"``
    the resolvent ``i n - B`` with ``B = A + h_u(0,0)``, estimated as in
    the resolvent scan (`spectral._resolvent_sigma_min`);
    a failed condition guard there reads as 0.  The leakage check on the
    full Jacobian justifies the split.  The verdict is ``leakage <= 1e-10``
    and ``smallest_singular_value > BIJECTIVITY_TOLERANCE``.
    """
    rng = np.random.default_rng(seed)
    low = BifurcationJacobian(
        problem, functional, PeriodicTrajectory(u_star.coeffs[:2], u_star.dx))
    system, layout = low.bordered_system(low.layout(full=True))
    try:
        sigma, steps = inverse_power_sigma_min(
            lambda b: np.concatenate(system.solve(b[:-2], b[-2:])),
            lambda b: np.concatenate(system.solve_transpose(b[:-2], b[-2:])),
            rng.normal(size=layout.size + 2), power_iterations,
        )
    except (SingularBandError, np.linalg.LinAlgError):
        sigma, steps = 0.0, 1
    by_mode = {"0-1": sigma}

    for n in range(2, u_star.n_t + 1):
        by_mode[str(n)], taken = _resolvent_sigma_min(
            problem, 1j * n, power_iterations, rng)
        steps += taken

    sigma_min = min(by_mode.values())
    leakage = _subspace_leakage(BifurcationJacobian(problem, functional, u_star), rng)
    return JacobianCertificate(
        smallest_singular_value=float(sigma_min),
        nonsingular=bool(sigma_min > BIJECTIVITY_TOLERANCE and leakage <= _LEAKAGE_TOL),
        leakage=float(leakage),
        tolerance=float(BIJECTIVITY_TOLERANCE),
        power_iterations=steps,
        sigma_min_by_mode=by_mode,
    )


# ---------------------------------------------------------------------------
# crossing-term decomposition


@dataclass
class CrossingDecomposition:
    """Split of the parameter-derivative forcing at the bifurcation point.

    ``h_lambda_u(0,0) u_star = p * u_star + q * B u_star + (core of) u_sharp``
    with ``B = A + h_u(0,0)``, where ``u_sharp`` solves the periodic linear
    problem for the remainder.
    ``(p, q)`` equal the real and imaginary parts of the eigenvalue
    crossing speed.
    """

    p: float
    q: float
    u_sharp: PeriodicTrajectory
    reconstruction_residual: float


def decompose_crossing_term(problem, decomp, n_t=8):
    """Decompose the crossing forcing into span{u*, Bu*} plus a lifted rest.

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
    operator = problem.operator()
    a_psi = np.asarray(operator @ psi.data, dtype=complex)
    phi = decomp.phi_adj
    c = complex(w1 @ np.conj(phi.data)) * psi.dx
    m = complex(a_psi @ np.conj(phi.data)) * psi.dx  # ~ mu, but exact in B
    if abs(m.imag) < 1e-8 * max(1.0, abs(m)):
        raise ValueError(
            "span{u*, Bu*} is degenerate: <B psi, phi> is numerically real "
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

    # reconstruction: p u* + q Bu* + (d/dt - B) u_sharp should equal forcing
    lifted = u_sharp.time_derivative() - u_sharp.with_coeffs(
        (operator @ u_sharp.coeffs.T).T
    )
    a_u_star = u_star.with_coeffs((operator @ u_star.coeffs.T).T)
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
    """An amplitude-ordered sweep of branch points plus diagnostics.

    ``newton_tol`` and ``max_iter`` are the Newton settings of the sweep.
    ``newton_space`` is ``"half-wave"`` when ``h`` is odd, ``u_star`` has no
    even Fourier mode and no Newton step of the sweep left the odd modes
    (`_Linearization.layout`), ``"full"`` otherwise.
    """

    points: list
    u_star: PeriodicTrajectory
    newton_tol: float
    max_iter: int = MAX_NEWTON_ITERATIONS
    newton_space: str = "full"
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


def _branch_linearization(problem, functional, params, u, core):
    """The branch map's `_Linearization` at ``(params, u)``."""
    f_lambda = trajectory_from_samples(
        problem.apply_h_lambda(params.lam, u.sample_values()), u.dx
    )
    return _Linearization(problem, functional, params, u, u, core, f_lambda)


def _branch_newton(problem, functional, alpha, params, u,
                   newton_tol, max_iter, factor=None):
    return _newton_square(
        functional, (alpha, 0.0), params, u, problem.residual_g,
        partial(_branch_linearization, problem, functional),
        newton_tol, max_iter, factor,
    )


def _trivial_point(u_star, origin):
    zero = zero_trajectory(u_star.n_t, u_star.dim, u_star.dx)
    return BranchPoint(
        alpha=0.0, lam=origin.lam, sigma=origin.sigma, u=zero, residual=0.0,
        newton_iters=0, l_check=np.zeros(2), eta_norm=0.0,
        sup_residual=0.0, step_norms=[],
    )


def _continue_grid(problem, functional, u_star, origin, grid, newton_tol,
                   max_iter, notes, factor=None):
    """March the square system over an amplitude grid with rescaling
    predictors from the bifurcation point's parameters ``origin``; returns
    the list of converged points, truncating with a note if Newton fails
    or leaves the solver's domain, and the number of Newton steps solved
    in the full space.  ``factor`` goes to every Newton solve (see
    `_newton_square`)."""
    points = []
    full_steps = 0
    params = origin
    u = None
    prev_alpha = None
    for alpha in grid:
        if u is None:
            u = float(alpha) * u_star
        else:
            ratio = alpha / prev_alpha
            u = ratio * u
            params = ScaledParams(
                origin.lam + ratio**2 * (params.lam - origin.lam),
                origin.sigma + ratio**2 * (params.sigma - origin.sigma),
            )
        try:
            params, u, core, iters, trace = _branch_newton(
                problem, functional, alpha, params, u, newton_tol, max_iter,
                factor,
            )
        except (ConvergenceError, *_SOLVE_ERRORS) as exc:
            notes.append(
                f"branch truncated at alpha = {alpha:g}: {exc}"
            )
            break
        notes.extend(trace.notes)
        full_steps += trace.full_steps
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
    return points, full_steps


def continue_branch(problem, functional, u_star, alpha_max, steps,
                    newton_tol=NEWTON_TOL, max_iter=MAX_NEWTON_ITERATIONS,
                    params_star=ScaledParams(0.0, 0.0)):
    """Continue the periodic branch over ``alpha = alpha_max * k / steps``.

    The branch starts at the bifurcation point ``(params_star, u_star)``
    that `solve_extended` found.  Each point solves ``{l1 u = alpha,
    l2 u = 0, g((lambda, sigma), u) = 0}`` by Newton, predicted from the
    previous point by amplitude rescaling (``u`` linearly, parameters
    ``params - params_star`` quadratically).  When Newton fails or
    leaves the solver's domain (parameter window, trust radius, singular
    band), the branch is truncated at the last converged point and a
    diagnostic note is recorded -- no extrapolation.

    ``alpha_max = 0`` is allowed and returns only the trivial point.

    Returns
    -------
    BranchResult
        Points sorted by amplitude, including the trivial point at 0, which
        carries ``params_star``, and the space the Newton steps took.
    """
    if alpha_max < 0 or steps < 1:
        raise ValueError("need alpha_max >= 0 and at least one step")
    grid = alpha_max * np.arange(1, steps + 1) / steps if alpha_max > 0 else []
    notes = []
    origin = ScaledParams(*params_star)
    points, full_steps = _continue_grid(
        problem, functional, u_star, origin, grid, newton_tol, max_iter, notes
    )
    points.insert(0, _trivial_point(u_star, origin))
    half = not full_steps and _half_wave(problem, u_star)
    return BranchResult(
        points=points, u_star=u_star, newton_tol=newton_tol, max_iter=max_iter,
        newton_space="half-wave" if half else "full", notes=notes,
    )


# ---------------------------------------------------------------------------
# symmetry and curvature checks


@dataclass
class SymmetryReport:
    """Deviations from the amplitude-reflection symmetry of the branch.

    Reflecting the amplitude maps a branch point to the half-period
    translate of its partner: parameters even in ``alpha``, state obeying
    ``u(-alpha) = tau_pi u(alpha)`` (equivalently, the first-order part
    flips sign while the correction translates).  ``newton_iters`` sums
    the Newton iterations of the mirrored points and the phase seeds,
    ``factorizations`` counts the band factorizations they took.
    """

    parameter_deviation: float
    state_deviation: float
    phase_deviations: dict
    tolerance: float
    passed: bool
    per_alpha: list = field(default_factory=list)
    newton_iters: int = 0
    factorizations: int = 0

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
            "newton_iters": self.newton_iters,
            "factorizations": self.factorizations,
        }


def check_branch_symmetry(problem, functional, result):
    """Re-solve the branch at negated amplitudes and compare.

    For each computed ``alpha > 0`` the mirrored system is solved from a
    ``-alpha`` predictor and the identities ``params(-alpha) =
    params(alpha)`` and ``u(-alpha) = tau_pi u(alpha)`` are measured in
    norm.  Additionally, Newton started from time-translated seeds
    ``tau_theta(alpha u_star)``, ``theta`` in `SYMMETRY_PHASES`, must fall
    back to the same phase-fixed representative (the phase row selects it):
    the sampled uniqueness test.  All solves start from ``result.points[0]``
    and stop at ``result.newton_tol`` or ``result.max_iter`` iterations.

    The whole check factorizes one band: the branch linearisation at the
    mid point, whose pair is ``(alpha, 0)``.  g is autonomous, so the
    derivative at a time translate ``tau_psi u`` is ``S_psi g_u(p, u)
    S_psi^-1``, with ``S_psi`` the O(size) rotation of each mode ``n`` by
    ``n psi`` (``S_pi`` is the mirror).  Every Newton step of the mirrored
    branch and of the seeds solves through that factor rotated by ``psi =
    -phase_angle(u)`` of its iterate, refined against the exact
    derivative; the residual and the tolerance stay exact.  A step that
    does not at least halve the residual refactors at its iterate and
    finishes that solve with exact Newton.  The report counts the Newton
    iterations and every factorization.

    The report is attached to ``result.symmetry_report`` and returned.
    Raises `ConvergenceError` when the mirrored branch truncates or a
    phase-seed solve fails, leaves the solver's domain or meets a singular
    band.
    """
    newton_tol = result.newton_tol
    tol = 1e-8 + 10.0 * newton_tol
    plus = [pt for pt in result.points if pt.alpha > 0.0]
    if not plus:
        raise ValueError("branch has no nontrivial points to mirror")
    origin = result.points[0].params
    mid = plus[len(plus) // 2]
    try:
        factor = _SharedFactor(_branch_linearization(
            problem, functional, mid.params, mid.u,
            problem.residual_g(mid.params, mid.u)))
    except SingularBandError as exc:
        raise ConvergenceError(
            f"symmetry check: no factor at alpha = {mid.alpha:g}: {exc}"
        ) from exc

    notes = []
    grid = np.array([-pt.alpha for pt in plus])
    minus, _ = _continue_grid(
        problem, functional, result.u_star, origin, grid, newton_tol,
        result.max_iter, notes, factor,
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
    newton_iters = sum(mt.newton_iters for mt in minus)
    phase_deviations = {}
    for theta in SYMMETRY_PHASES:
        seed = (mid.alpha * result.u_star).time_shift(theta)
        try:
            params, u, _, iters, _ = _branch_newton(
                problem, functional, mid.alpha, origin, seed, newton_tol,
                result.max_iter, factor,
            )
        except (ConvergenceError, *_SOLVE_ERRORS) as exc:
            raise ConvergenceError(
                f"phase-seed Newton failed at theta = {theta:g}: {exc}"
            ) from exc
        newton_iters += iters
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
        newton_iters=newton_iters,
        factorizations=factor.factorizations,
    )
    result.symmetry_report = report
    return report


@dataclass
class CurvatureFit:
    """Least-squares model ``param - param_star ~ c1 * alpha + c2 * alpha**2``.

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


def fit_branch_curvature(result):
    """Quadratic fit of the branch parameters against the amplitude.

    Parameters are taken relative to the origin point ``result.points[0]``
    (the bifurcation point).  Requires at least 4 points; the verdict
    passes when the linear coefficients vanish within `FIT_TOLERANCE`
    (the branch parameters must be even functions of the amplitude to
    leading order).
    """
    alphas = result.alphas
    if alphas.size < 4:
        raise ValueError("need at least 4 branch points for the fit")
    design = np.column_stack([alphas, alphas**2])
    origin = result.points[0]
    lambdas = result.lambdas - origin.lam
    sigmas = result.sigmas - origin.sigma
    coeff_l, res_l, *_ = np.linalg.lstsq(design, lambdas, rcond=None)
    coeff_s, res_s, *_ = np.linalg.lstsq(design, sigmas, rcond=None)
    fit_l = design @ coeff_l - lambdas
    fit_s = design @ coeff_s - sigmas
    worst = float(max(np.abs(fit_l).max(), np.abs(fit_s).max()))
    c1, c2 = map(float, coeff_l)
    s1, s2 = map(float, coeff_s)
    ok = abs(c1) <= FIT_TOLERANCE and abs(s1) <= FIT_TOLERANCE
    return CurvatureFit(
        c1=c1, c2=c2, s1=s1, s2=s2, max_fit_residual=worst,
        ok=bool(ok), tolerance=float(FIT_TOLERANCE),
    )
