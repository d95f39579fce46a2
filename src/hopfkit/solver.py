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

Every Newton solve steps through one held band factor (`_SharedFactor`), a
chord (Shamanskii) iteration: g is autonomous, so its derivative at a time
translate ``tau_psi u`` is ``S_psi g_u(p, u) S_psi^-1`` with ``S_psi`` an
O(size) rotation of the Fourier modes, and a step solves through the held
factor rotated by the phase difference between the factor's iterate and
its own, refined against the exact derivative (the residual and the
tolerance stay exact).  A step factors at its iterate instead, replacing
the held factor, when the factor is not in the step's space or the last
chord step did not at least halve the residual; a chord step that fails
(its residual leaves the solver's domain, or its bordered reduction is
singular) is taken again at the same iterate through a new factor.
Every Newton run (`solve_extended`, `continue_branch`, the symmetry check)
starts with no factor, and its first step makes one; `continue_branch` and
the symmetry check hold theirs across the whole sweep.

A Newton step solves in the narrowest space of a ladder of nested Fourier
spaces that holds its base and iterate exactly and outside which its
residual is at most the tolerance (`_newton_space`, the one rule for every
rung):

* mode 1 alone: when ``A`` and ``h`` commute with rotating each grid
  point's field pair (S^1-equivariance, as in the shipped lambda-omega
  example), the branch is made of rotating waves, single harmonics, and at
  such an iterate the exact Newton step lies in mode 1 too.  The band has 4
  unknowns per grid point, so its factor is cheap;
* the odd modes up to ``K = 3, 7, 15, ...`` (``K = 2**j - 1``, capped at
  ``n_t``), the top odd rung holding every odd mode (the half-wave space,
  `newton.odd_modes`): when ``h`` is odd the branch keeps ``u(t + pi) =
  -u(t)``, the Jacobian there maps odd modes to odd modes, and near the
  bifurcation mode ``n`` of the orbit scales like ``alpha**n``, so the
  residual leaves the modes above some ``K`` below the tolerance.  Each
  rung is about a quarter of the band of the next, and the rungs double
  because climbing one costs a factorization;
* all modes otherwise.

On a problem without the symmetry, or with Fourier content above the rung,
a narrow step is the Galerkin step of the full one.  Within one solve the
space only widens, and no step narrows below the space of the held factor:
it goes through the wider factor instead of factoring a narrower band.
Mode 1 is the bottom rung of the ladder, under the same chord rule as
every other.  The full residual, every mode included, still decides
convergence, so no result rests on a symmetry or on the decay of the
harmonics: a solve whose residual outside its space exceeds the tolerance,
or whose exact mode-1 step fails, goes on in the next wider space that
qualifies.  The hypothesis checks and the certificate stay on the full
space, and the memory guard (`config`) prices the full one, which any solve
may still reach.
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
from .problem import (
    ConvergenceError,
    DomainError,
    ScaledParams,
    inverse_power_sigma_min,
)
from .spectral import _resolvent_sigma_min
from .trajectory import (
    PeriodicTrajectory,
    _adopt,
    single_harmonic,
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
#: The ladder of Newton spaces, narrowest first (`_newton_space`), named as
#: the reports name them: rung ``j < _FULL - 1`` keeps the odd modes up to
#: ``2**(j+1) - 1``, capped at ``n_t`` (mode 1 alone at ``j = 0``), rung
#: ``_FULL - 1`` every odd mode and rung `_FULL` all modes.
_SPACES = ("mode-1",) + ("half-wave",) * 7 + ("full",)
_FULL = len(_SPACES) - 1


# ---------------------------------------------------------------------------
# shared Newton machinery


class _NewtonTrace:
    """Step/residual history plus the quadratic-contraction bookkeeping;
    ``widest`` is the index in `_SPACES` of the widest rung a step solved
    in (-1 before the first step).

    A step that does not shrink inside the contraction region is noted
    only between two consecutive exact steps: chord steps contract
    linearly, and `_newton_square` already refactors after one that does
    not halve the residual."""

    def __init__(self, tol):
        self.tol = tol
        self.step_norms = []
        self.residuals = []
        self.notes = []
        self.widest = -1
        self.last_exact = False

    def record_step(self, step, exact):
        if (
            exact and self.last_exact
            and self.step_norms[-1] < 100.0 * self.tol
            and step >= self.step_norms[-1]
            and step > 1e-14
        ):
            self.notes.append(
                f"step norm stalled inside the contraction region "
                f"({self.step_norms[-1]:.3e} -> {step:.3e})"
            )
        self.step_norms.append(step)
        self.last_exact = exact


def _space_modes(space, n_t):
    """The Fourier modes of rung ``space`` of `_SPACES` at ``n_t``."""
    if space == _FULL:
        return range(n_t + 1)
    if space == _FULL - 1:
        return odd_modes(n_t)
    return range(1, min(2 ** (space + 1), n_t + 1), 2)


def _newton_space(trajectories, core, tol, narrowest=0):
    """The index in `_SPACES` of the narrowest rung, from ``narrowest`` on,
    that a Newton step may take at ``trajectories`` (its base and iterate)
    with residual ``core``: every trajectory has exactly zero coefficients
    outside the rung's modes, and ``core`` there has norm at most ``tol``.
    The rungs are nested, so what qualifies for one qualifies for every
    wider one.  The full space always qualifies, and is the only one at
    ``n_t < 1``."""
    if core.n_t < 1:
        return _FULL
    for space in range(narrowest, _FULL):
        outside = np.ones(core.n_t + 1, dtype=bool)
        outside[_space_modes(space, core.n_t)] = False
        if (core.norm(np.flatnonzero(outside)) <= tol
                and not any(np.any(traj.coeffs[outside]) for traj in trajectories)):
            return space
    return _FULL


def _mixed_column(problem, lam, u):
    """``h_lambda_u(lam, 0) u`` as a trajectory, at a one-row zero base."""
    return problem.collocate(problem.apply_h_lambda_u, lam,
                             zero_trajectory(0, u.dim, u.dx), u, n_t=u.n_t)


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
        # ``linearised_g``'s result is fresh and referenced only here, so
        # the parameter columns are added into its array, in the order of
        # ``core + dlam * col_lam + dsig * col_sig``.
        coeffs = self.problem.linearised_g(self.params, self.base, v).coeffs
        coeffs.flags.writeable = True
        coeffs += self.col_lam.coeffs * float(dlam)
        coeffs += self.col_sig.coeffs * float(dsig)
        return self.functional.pair(v), _adopt(coeffs, v.dx)

    def layout(self, space=_FULL):
        """The layout of this linearization's systems in ``_SPACES[space]``
        (`_newton_space`), all modes by default.

        When ``h`` is odd, ``g_u(params, base)`` at an odd base maps odd
        modes to odd modes (``h_u`` is even there), so the half-wave step
        of an odd residual is the full step restricted to the odd modes.
        Every narrower rung's system is the Galerkin projection of the full
        one: the odd rung up to ``K`` is the full step restricted to it when
        the base and the residual have no content above ``K``, and the
        mode-1 step is the full step when that lies in mode 1, as at a
        rotating wave of an S^1-equivariant problem, or at the zero base of
        the extended system, where the derivative does not couple modes.
        """
        base = self.base
        return TrajectoryLayout(base.n_t, base.nx, base.dx,
                                _space_modes(space, base.n_t))

    def bordered_system(self, layout=None, held=None):
        """Assembled matrix form in ``layout`` (default all modes), core
        rows first, parameter slots last.

        With a `_SharedFactor` ``held`` in ``layout`` no band is assembled:
        the core is the held band's, rotated from its phase to ``u``'s,
        and the parameter columns and rows are this one's.
        """
        layout = self.layout() if layout is None else layout
        columns = np.column_stack(
            [layout.flatten_trajectory(self.col_lam),
             layout.flatten_trajectory(self.col_sig)]
        )
        rows = layout.functional_rows(self.functional.weight.data)
        if held is None:
            band = assemble_jacobian_band(self.problem, self.params, self.base, layout)
            rotation = None
        else:
            band = held.band
            rotation = (layout, held.phase - self.functional.phase_angle(self.u))
        return BorderedSystem(band, columns, rows, rotation), layout


class _SharedFactor:
    """The one band factor a run of Newton solves steps through.

    g is autonomous, so ``g_u(p, tau_psi u) = S_psi g_u(p, u) S_psi^-1``
    with ``S_psi`` the layout rotation of ``time_shift(psi)``: a factor
    made at an iterate of phase ``phase`` (`AmplitudeFunctional.
    phase_angle`) serves an iterate of phase ``theta`` through ``S_psi``,
    ``psi = phase - theta``.  Only what the solves need is kept: ``band``,
    factored in place and holding its own LU (`BandedMatrix.lu`), the rung
    ``space`` of `_SPACES` it was made in (0, the bottom rung, while none
    is held), its ``layout`` and ``phase``; no border columns and no Schur
    complement.  ``factorizations`` counts the factors made.

    A step in the held factor's space goes through it, on every rung,
    mode 1 included, and while one is held no step narrows below its
    space: a step whose rung is narrower solves through it, the Galerkin
    step of the held rung, rather than factor a narrower band.  A chord
    step changes the path to convergence, not the test for it: it is
    refined against the exact derivative, the full residual decides
    convergence, and residual content outside mode 1 above ``newton_tol``
    widens the solve.

    Every run starts with no factor: only a Newton step makes one
    (`refactor`, from `_newton_square`).
    """

    def __init__(self):
        self.release()
        self.phase = 0.0
        self.factorizations = 0

    def fits(self, layout):
        """Whether a factor is held that a step in ``layout`` may go
        through: one in the same space."""
        return self.band is not None and self.layout.modes == layout.modes

    def release(self):
        """Drop the held band, and with it its LU."""
        self.band = self.layout = None
        self.space = 0

    def refactor(self, lin, space):
        """Replace the held factor by ``lin``'s in rung ``space``.  The old
        one goes first, so one band is alive at a time."""
        self.release()
        layout = lin.layout(space)
        band = assemble_jacobian_band(lin.problem, lin.params, lin.base, layout)
        band.factorize(overwrite=True)
        self.band, self.layout, self.space = band, layout, space
        self.phase = lin.functional.phase_angle(lin.u)
        self.factorizations += 1


def _bordered_step(lin, layout, held, core, r_pair):
    """The Newton step ``(du, dp)`` of ``lin`` in ``layout`` through the
    held factor, refined against ``lin``'s exact derivative.  The bordered
    system is local, so nothing of it outlives the step."""
    system, _ = lin.bordered_system(layout, held)

    def matvec(y, p):
        _, image = lin.apply(p[0], p[1], layout.to_trajectory(y))
        return layout.flatten_trajectory(image), system._row_dot(y)

    dy, dp = system.solve(-layout.flatten_trajectory(core), -r_pair, matvec=matvec)
    return layout.to_trajectory(dy), dp


def _newton_square(functional, target_pair, params, u, residual_fn,
                   linearize, newton_tol, max_iter, held):
    """Newton on {l u = target, core(params, u) = 0} over (lambda, sigma, u).

    ``residual_fn(params, u)`` gives the core residual trajectory and
    ``linearize(params, u, core)`` the `_Linearization` there.  Returns
    ``(params, u, core, iterations, trace)`` with ``core`` the converged
    residual.

    Each step solves in the rung `_newton_space` picks at its base,
    iterate and residual, never narrower than the last step's nor than the
    held factor's (`_SharedFactor.space`): the mode-1 space keeps the
    iterate a single harmonic, an odd rung keeps it free of even modes and
    of the odd modes above it.  The full residual, every mode included,
    decides convergence.  An exact mode-1 step whose solve or next
    residual fails (`_SOLVE_ERRORS`) is taken again at the same iterate in
    the rung picked from the first odd one on; a failed exact step in a
    wider space raises.

    Every step, on every rung, solves through the `_SharedFactor`
    ``held``, rotated to the iterate's phase and refined against the exact
    derivative (a chord step), while the held factor is in the step's
    space and the last chord step at least halved the residual.
    Otherwise the step factors at its iterate (an exact step), and that
    factor is held from then on, by this solve and by the later ones that
    share ``held``; so a run of solves factors once per rung it climbs.  A
    chord step whose solve or next residual fails (`_SOLVE_ERRORS`) is
    dropped: the solve takes an exact step at the same iterate instead,
    and only that one counts as an iteration.
    The old factor is released before a new band is assembled, and each
    step's bordered system before the next, so one band-sized array is
    alive at a time.
    """
    target = np.asarray(target_pair, dtype=float)
    trace = _NewtonTrace(newton_tol)
    space = 0  # index in `_SPACES`; it only grows
    chord = False  # whether the last step went through an older factor
    core = residual_fn(params, u)

    for iteration in range(max_iter + 1):
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

        if chord and residual > 0.5 * trace.residuals[-2]:
            held.release()  # the last chord step did not halve the residual
        lin = linearize(params, u, core)
        space = _newton_space((lin.base, u), core, newton_tol,
                              max(space, held.space))
        layout = lin.layout(space)
        while True:
            chord = held.fits(layout)
            if not chord:
                held.refactor(lin, space)
            try:
                du, dp = _bordered_step(lin, layout, held, core, r_pair)
                next_params = ScaledParams(params.lam + dp[0], params.sigma + dp[1])
                next_u = u + du
                next_core = residual_fn(next_params, next_u)
                break
            except _SOLVE_ERRORS:
                if chord:
                    held.release()  # a failed chord step: step exactly from here
                elif space == 0:  # a failed exact mode-1 step: widen
                    space = _newton_space((lin.base, u), core, newton_tol, 1)
                    layout = lin.layout(space)
                else:
                    raise
        trace.widest = max(trace.widest, space)
        trace.record_step(du.norm() + abs(dp[0]) + abs(dp[1]), exact=not chord)
        params, u, core = next_params, next_u, next_core


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
            newton_tol, max_iter, _SharedFactor(),
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
    ``"n_t"``) to its smallest singular value: for the blocks ``n >
    skew_bound`` a proved lower bound, for the others an estimate.
    ``power_iterations`` counts the inverse-power steps of the factored
    blocks only.
    """

    smallest_singular_value: float
    nonsingular: bool
    leakage: float
    tolerance: float
    power_iterations: int
    sigma_min_by_mode: dict
    skew_bound: float

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
    worst = max(worst, image.norm(range(2, n_t + 1)) / max(1.0, image.norm()))

    # high block (modes >= 2) -> high block, invisible to the functionals
    v = random_traj(lowpass=False)
    pair, image = jac.apply(0.0, 0.0, v)
    worst = max(worst, image.norm(range(2)) / max(1.0, image.norm()))
    worst = max(worst, float(np.abs(pair).max()) / max(1.0, v.norm()))
    return worst


def verify_jacobian_nonsingular(problem, functional, u_star,
                                power_iterations=30, seed=0):
    """Certify invertibility of the frozen bifurcation Jacobian.

    At the base state 0 the Jacobian is block-diagonal over Fourier modes:
    its smallest singular value is the least over the blocks.  Block
    ``"0-1"`` is the bordered system of ``u_star`` cut to modes 0 and 1,
    in the full space whatever space the Newton solves took, estimated by
    `inverse_power_sigma_min` in at most ``power_iterations`` steps.  Block
    ``"n"`` is the resolvent ``i n - B`` with ``B = A + h_u(0,0)``, read
    as in the resolvent scan (`spectral._resolvent_sigma_min`): for ``n >
    problem.skew_bound`` the proved bound ``n - skew_bound`` with no
    factor and no random draw, else the estimate of the condition guard of
    its one LU, a failed guard read as 0.  The leakage check on the full
    Jacobian justifies the split.  The verdict
    is ``leakage <= 1e-10`` and ``smallest_singular_value >
    BIJECTIVITY_TOLERANCE``.
    """
    rng = np.random.default_rng(seed)
    low = BifurcationJacobian(
        problem, functional, PeriodicTrajectory(u_star.coeffs[:2], u_star.dx))
    system, layout = low.bordered_system(low.layout())
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
        skew_bound=problem.skew_bound,
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


class _LiveModes:
    """The ``u`` field of `BranchPoint`: set from a trajectory, it stores
    a copy of its live coefficient rows (`PeriodicTrajectory._live_rows`)
    in ``rows``, with ``n_t`` and ``dx``; each read rebuilds a fresh,
    read-only trajectory of the full shape ``(n_t + 1, dim)``, equal to
    the one set (a dropped row comes back as +0 whatever the signs of its
    zeros)."""

    def __get__(self, point, owner=None):
        if point is None:
            raise AttributeError("u")  # no class default: a required field
        coeffs = np.zeros((point.n_t + 1, point.rows.shape[1]), dtype=complex)
        coeffs[: len(point.rows)] = point.rows
        return _adopt(coeffs, point.dx)

    def __set__(self, point, u):
        point.rows = u.coeffs[: u._live_rows()].copy()
        point.n_t, point.dx = u.n_t, u.dx


@dataclass
class BranchPoint:
    """One converged point of the amplitude-parameterised branch.

    The state ``u`` keeps only its live Fourier modes: ``rows`` holds the
    coefficient rows up to the last nonzero one (two on a mode-1 branch,
    none at the trivial point), and each read of ``u`` builds a new
    full-shaped trajectory from them (`_LiveModes`), so bind it once
    where it is used more than once.  Every field reaches a report or
    ``verify-exact``; a solve's step norms stay in its `_NewtonTrace`.
    """

    alpha: float
    lam: float
    sigma: float
    u: PeriodicTrajectory = _LiveModes()
    residual: float
    newton_iters: int
    l_check: np.ndarray          # the actual (l1, l2) value at convergence
    eta_norm: float              # ||u/alpha - u_star||, 0 at the origin
    rows: np.ndarray = field(init=False, repr=False)  # set with ``u``
    n_t: int = field(init=False)
    dx: float = field(init=False)

    @property
    def params(self):
        return ScaledParams(self.lam, self.sigma)


@dataclass
class BranchResult:
    """An amplitude-ordered sweep of branch points plus diagnostics.

    Each `BranchPoint` keeps only the live Fourier modes of its state, and
    ``u_star`` is the one full-shaped trajectory the result holds.
    ``newton_tol`` and ``max_iter`` are the Newton settings of the sweep,
    ``factorizations`` the number of band factorizations it took, on
    whichever rungs its steps solved in.
    ``truncated`` is set when the sweep stopped short of its amplitude grid's
    end (a note says why).  ``newton_space`` is the widest space the
    sweep's Newton steps solved in (`_newton_space`), and at least the
    narrowest that ``u_star`` allows: ``"mode-1"`` when ``u_star`` is a
    single harmonic and every step stayed on mode 1, ``"half-wave"`` when
    ``u_star`` has no even Fourier mode and no step left the odd modes
    (whichever odd rung they took), ``"full"`` otherwise.
    ``newton_max_mode`` is the highest Fourier mode of that space; by
    default the full space's, ``u_star.n_t``.
    """

    points: list
    u_star: PeriodicTrajectory
    newton_tol: float
    max_iter: int = MAX_NEWTON_ITERATIONS
    newton_space: str = "full"
    newton_max_mode: Optional[int] = None
    factorizations: int = 0
    truncated: bool = False
    notes: list = field(default_factory=list)
    symmetry_report: Optional["SymmetryReport"] = None

    def __post_init__(self):
        if self.newton_max_mode is None:
            self.newton_max_mode = self.u_star.n_t

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

    def to_json_dict(self):
        points = [
            {
                "alpha": pt.alpha, "lambda": pt.lam, "sigma": pt.sigma,
                "eta_norm": pt.eta_norm, "residual": pt.residual,
                "newton_iters": pt.newton_iters,
                "l_check": list(map(float, pt.l_check)),
            }
            for pt in self.points
        ]
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
    f_lambda = problem.collocate(problem.apply_h_lambda, params.lam, u, n_t=u.n_t)
    return _Linearization(problem, functional, params, u, u, core, f_lambda)


def _branch_newton(problem, functional, alpha, params, u,
                   newton_tol, max_iter, held):
    return _newton_square(
        functional, (alpha, 0.0), params, u, problem.residual_g,
        partial(_branch_linearization, problem, functional),
        newton_tol, max_iter, held,
    )


def _trivial_point(u_star, origin):
    return BranchPoint(
        alpha=0.0, lam=origin.lam, sigma=origin.sigma,
        u=zero_trajectory(u_star.n_t, u_star.dim, u_star.dx), residual=0.0,
        newton_iters=0, l_check=np.zeros(2), eta_norm=0.0,
    )


def _continue_grid(problem, functional, u_star, origin, grid, newton_tol,
                   max_iter, notes, held):
    """March the square system over an amplitude grid with rescaling
    predictors from the bifurcation point's parameters ``origin``; returns
    the list of converged points, truncating with a note if Newton fails
    or leaves the solver's domain, and the index in `_SPACES` of the
    widest space a Newton step solved in (-1 without steps).  Every Newton
    solve steps through the `_SharedFactor` ``held`` (see
    `_newton_square`); a point keeps only its residual norm."""
    points = []
    widest = -1
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
            params, u, _, iters, trace = _branch_newton(
                problem, functional, alpha, params, u, newton_tol, max_iter,
                held,
            )
        except (ConvergenceError, *_SOLVE_ERRORS) as exc:
            notes.append(
                f"branch truncated at alpha = {alpha:g}: {exc}"
            )
            break
        notes.extend(trace.notes)
        widest = max(widest, trace.widest)
        points.append(BranchPoint(
            alpha=float(alpha), lam=params.lam, sigma=params.sigma, u=u,
            residual=trace.residuals[-1], newton_iters=iters,
            l_check=functional.pair(u),
            eta_norm=((1.0 / alpha) * u - u_star).norm(),
        ))
        prev_alpha = alpha
    return points, widest


def continue_branch(problem, functional, u_star, alpha_max, steps,
                    newton_tol=NEWTON_TOL, max_iter=MAX_NEWTON_ITERATIONS,
                    params_star=ScaledParams(0.0, 0.0)):
    """Continue the periodic branch over ``alpha = alpha_max * k / steps``.

    The branch starts at the bifurcation point ``(params_star, u_star)``
    that `solve_extended` found.  Each point solves ``{l1 u = alpha,
    l2 u = 0, g((lambda, sigma), u) = 0}`` by Newton, predicted from the
    previous point by amplitude rescaling (``u`` linearly, parameters
    ``params - params_star`` quadratically).  The Newton steps of the
    whole sweep solve through one held band factor, refactored only when a
    step climbs to a wider rung or stops contracting (`_newton_square`).
    When Newton fails or leaves the solver's domain (parameter window, trust
    radius, singular band), the branch is truncated at the last converged
    point and a diagnostic note is recorded -- no extrapolation.

    ``alpha_max = 0`` is allowed and returns only the trivial point.

    Returns
    -------
    BranchResult
        Points sorted by amplitude, including the trivial point at 0, which
        carries ``params_star``, the widest space the Newton steps took and
        its highest mode, and the number of band factorizations (one per
        rung climbed, plus one per refactor after a chord step that did not
        halve the residual or failed).  Each point stores the coefficient
        rows of its converged iterate up to the last nonzero one (two on a
        mode-1 branch, none at the trivial point); its ``u`` rebuilds the
        full-shaped iterate on each read.
    """
    if alpha_max < 0 or steps < 1:
        raise ValueError("need alpha_max >= 0 and at least one step")
    grid = alpha_max * np.arange(1, steps + 1) / steps if alpha_max > 0 else []
    notes = []
    origin = ScaledParams(*params_star)
    held = _SharedFactor()
    points, widest = _continue_grid(
        problem, functional, u_star, origin, grid, newton_tol, max_iter,
        notes, held,
    )
    truncated = len(points) < len(grid)
    points.insert(0, _trivial_point(u_star, origin))
    # the floor: the space at u_star with the trivial point's zero residual
    widest = max(widest, _newton_space((u_star,), 0.0 * u_star, newton_tol))
    return BranchResult(
        points=points, u_star=u_star, newton_tol=newton_tol, max_iter=max_iter,
        newton_space=_SPACES[widest],
        newton_max_mode=_space_modes(widest, u_star.n_t)[-1],
        factorizations=held.factorizations, truncated=truncated, notes=notes,
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
    the Newton iterations of the mirrored points and the phase seeds (the
    seeds start at the mid point's parameters, so they correct only the
    phase), ``factorizations`` counts the band factorizations their Newton
    steps made; the check starts with none.  The two deviations are
    maxima over the mirrored pairs.
    """

    parameter_deviation: float
    state_deviation: float
    phase_deviations: dict
    tolerance: float
    passed: bool
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
    the sampled uniqueness test.  The mirrored branch starts from
    ``result.points[0]``, as the branch it mirrors did; the phase seeds
    start at the mid point ``alpha`` of the plus branch, from its
    parameters, as a continuation predictor would, so a seed differs from
    the representative only along the orbit.  Every solve stops at
    ``result.newton_tol`` or ``result.max_iter`` iterations.

    The Newton solves share one held factor (`_newton_square`).  Like
    `continue_branch`, the check starts with none, and the mirrored
    branch's first Newton step makes it (`_SharedFactor`), so the mirrored
    sweep factors as the sweep it mirrors.  g is autonomous, so the
    derivative at a time translate ``tau_psi u`` is ``S_psi g_u(p, u)
    S_psi^-1``, with ``S_psi`` the O(size) rotation of each mode ``n`` by
    ``n psi`` (``S_pi`` is the mirror).  Every Newton step of the mirrored
    branch and of the seeds solves through the held factor rotated by the
    phase difference between the factor's iterate and its own, refined
    against the exact derivative; the residual and the tolerance stay
    exact.  A step after a chord step that did not at least halve the
    residual, or that climbs above the factor's rung, factors at its
    iterate, and that factor is held from then on (a factor made on the
    mirrored branch sits at phase ``pi``).  So on a branch whose first
    factor serves every solve, mode 1 (rotating waves), half-wave or full,
    the check factorizes one band.
    The report counts the Newton iterations and every factorization.

    The mirrored points, like the branch's, keep only their live Fourier
    modes; each point's state is rebuilt once for its comparison, and the
    mid point's once for the whole check.

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
    held = _SharedFactor()
    notes = []
    grid = np.array([-pt.alpha for pt in plus])
    minus, _ = _continue_grid(
        problem, functional, result.u_star, origin, grid, newton_tol,
        result.max_iter, notes, held,
    )
    if len(minus) != len(plus):
        raise ConvergenceError(
            "mirrored branch truncated; cannot complete the symmetry check: "
            + "; ".join(notes)
        )

    param_dev = state_dev = 0.0
    for pt, mt in zip(plus, minus):
        param_dev = max(param_dev, abs(mt.lam - pt.lam), abs(mt.sigma - pt.sigma))
        state_dev = max(state_dev, (mt.u - pt.u.time_shift(np.pi)).norm())

    # sampled uniqueness: translated seeds must converge back to the
    # phase-fixed representative
    mid_u = mid.u
    newton_iters = sum(mt.newton_iters for mt in minus)
    phase_deviations = {}
    for theta in SYMMETRY_PHASES:
        seed = (mid.alpha * result.u_star).time_shift(theta)
        try:
            params, u, _, iters, _ = _branch_newton(
                problem, functional, mid.alpha, mid.params, seed, newton_tol,
                result.max_iter, held,
            )
        except (ConvergenceError, *_SOLVE_ERRORS) as exc:
            raise ConvergenceError(
                f"phase-seed Newton failed at theta = {theta:g}: {exc}"
            ) from exc
        newton_iters += iters
        dev = (u - mid_u).norm() + max(
            abs(params.lam - mid.lam), abs(params.sigma - mid.sigma)
        )
        phase_deviations[float(theta)] = float(dev)

    passed = all(v <= tol for v in (param_dev, state_dev,
                                     *phase_deviations.values()))
    result.symmetry_report = SymmetryReport(
        parameter_deviation=float(param_dev),
        state_deviation=float(state_dev),
        phase_deviations=phase_deviations,
        tolerance=float(tol),
        passed=bool(passed),
        newton_iters=newton_iters,
        factorizations=held.factorizations,
    )
    return result.symmetry_report


@dataclass
class CurvatureFit:
    """Least-squares model ``param - param_star ~ c1 * alpha + c2 * alpha**2``.

    ``(c1, s1)`` estimate the branch-parameter derivatives at the origin
    (zero at a genuine bifurcation), ``(c2, s2)`` the curvatures; ``ok``:
    both derivatives are within the module constant `FIT_TOLERANCE`.
    """

    c1: float
    c2: float
    s1: float
    s2: float
    max_fit_residual: float
    ok: bool


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
    coeff_l = np.linalg.lstsq(design, lambdas, rcond=None)[0]
    coeff_s = np.linalg.lstsq(design, sigmas, rcond=None)[0]
    fit_l = design @ coeff_l - lambdas
    fit_s = design @ coeff_s - sigmas
    worst = float(max(np.abs(fit_l).max(), np.abs(fit_s).max()))
    c1, c2 = map(float, coeff_l)
    s1, s2 = map(float, coeff_s)
    ok = abs(c1) <= FIT_TOLERANCE and abs(s1) <= FIT_TOLERANCE
    return CurvatureFit(c1=c1, c2=c2, s1=s1, s2=s2, max_fit_residual=worst,
                        ok=bool(ok))
