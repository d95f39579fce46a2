"""Problem definitions: the linear operator, the nonlinearity, and residuals.

A `ProblemDef` bundles the sparse linear operator ``A`` with closed-form
callables for the nonlinearity ``h`` and its derivatives, together with the
admissible parameter window and the trust radius on which ``h`` is defined.
Residuals of the steady and period-rescaled problems, the linearisation
``B = A + h_u(0, 0)`` at the equilibrium (`ProblemDef.operator`), its
shifts ``z - B`` (`ProblemDef.shifted`) with a condition-guarded
factorization (`_guarded_lu`) that lives only as long as its caller, and a
finite-difference validation of the supplied derivatives all live here.
The guard and every resolvent bound read one estimate per factor: the
smallest singular value from `inverse_power_sigma_min`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple, Tuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .trajectory import StateVector, _adopt, trajectory_from_samples

__all__ = [
    "ProblemDef",
    "ScaledParams",
    "DomainError",
    "SingularOperatorError",
    "ResonanceError",
    "ConvergenceError",
    "DerivativeReport",
    "linearization_matrix",
]

#: Ceiling on ``||M||_1 / sigma_min(M)``, with sigma_min the inverse-power
#: estimate of `_guarded_lu`, beyond which a factorization is treated as
#: singular.
COND_GUARD = 1e12
DERIVATIVE_TOLERANCE = 1e-6
#: Default step cap and start seed of `_guarded_lu`'s estimate, also the
#: resolvent scan's.
RESOLVENT_PROBES = 15
RESOLVENT_SEED = 13


class DomainError(ValueError):
    """Raised when an evaluation leaves the declared domain of ``h``."""


class SingularOperatorError(RuntimeError):
    """Raised when a required factorization does not exist."""


class ResonanceError(RuntimeError):
    """Raised when ``i*n - B`` is numerically singular.

    On a bifurcation problem this is expected for ``n = +-1``; those modes
    must be handled through the spectral-projection path instead of a
    direct solve.
    """


class ConvergenceError(RuntimeError):
    """An iterative method ran out of iterations; carries the last defect."""


class ScaledParams(NamedTuple):
    """The two scalar unknowns: parameter ``lam`` and period stretch ``sigma``.

    The trajectory equations are posed at rescaled period ``2*pi``; the
    physical period is ``2*pi*(sigma + 1)``, so ``sigma > -1`` always.
    """

    lam: float
    sigma: float = 0.0


def _as_flat(w):
    return w.data if isinstance(w, StateVector) else np.asarray(w, dtype=float)


@dataclass(frozen=True)
class ProblemDef:
    """A two-field evolution problem ``u_t = A u + h(lam, u)``.

    Its linearisation at the equilibrium ``u = 0`` is ``B = A + h_u(0, 0)``
    (`operator`); the spectral checks, the resolvents and the periodic
    solver all analyse ``B``.

    Parameters
    ----------
    A : scipy.sparse matrix, shape (dim, dim)
        The linear part on the flattened state.
    apply_h : callable ``(lam, w) -> array``
        Nonlinearity evaluated pointwise in time; ``w`` has shape
        ``(..., dim)`` and the call must vectorise over leading axes.
    apply_h_u : callable ``(lam, w, v) -> array``
        Directional derivative ``h_u(lam, w) v``.
    apply_h_lambda : callable ``(lam, w) -> array``
        Parameter derivative ``h_lam(lam, w)``.
    apply_h_lambda_u : callable ``(lam, w, v) -> array``
        Mixed derivative ``h_{lam u}(lam, w) v``.
    dx : float
        Spatial grid spacing; positive and finite.
    lambda_window : (float, float)
        Open interval of admissible parameters; must contain 0.
    trust_radius : float
        Evaluations with ``sup|u| >= trust_radius`` are rejected.
    h_stencil : int
        Spatial locality of ``h``: the derivative at grid point ``j``
        depends on points within ``|j' - j| <= h_stencil``.  0 for
        pointwise nonlinearities; used to probe Jacobians efficiently.
        A non-negative integer.
    name : str
        Human-readable tag used in reports.
    """

    A: sp.spmatrix
    apply_h: Callable
    apply_h_u: Callable
    apply_h_lambda: Callable
    apply_h_lambda_u: Callable
    dx: float
    lambda_window: Tuple[float, float] = (-1.0, 1.0)
    trust_radius: float = np.inf
    h_stencil: int = 0
    name: str = "problem"

    def __post_init__(self):
        a = sp.csc_matrix(self.A)
        if a.shape[0] != a.shape[1] or a.shape[0] % 2 != 0:
            raise ValueError("A must be square with even dimension")
        lo, hi = self.lambda_window
        if not lo < 0.0 < hi:
            raise ValueError("lambda window must be an open interval containing 0")
        if not self.trust_radius > 0:
            raise ValueError("trust radius must be positive")
        if not 0.0 < self.dx < np.inf:
            raise ValueError("dx must be positive and finite")
        if not (isinstance(self.h_stencil, (int, np.integer)) and self.h_stencil >= 0):
            raise ValueError("h_stencil must be a non-negative integer")
        object.__setattr__(self, "A", a)

    # -- shape helpers -------------------------------------------------------

    @property
    def dim(self):
        return self.A.shape[0]

    @property
    def nx(self):
        return self.dim // 2

    def state(self, data):
        """Wrap a flat array as a `StateVector` on this problem's grid."""
        return StateVector(data, self.dx)

    # -- domain checks ---------------------------------------------------------

    def check_lambda(self, lam):
        lo, hi = self.lambda_window
        if not lo < lam < hi:
            raise DomainError(
                f"lambda = {lam:g} outside admissible window ({lo:g}, {hi:g})"
            )

    def check_trust(self, values):
        if not np.all(np.isfinite(values)):
            raise DomainError("state contains non-finite values")
        peak = float(np.abs(values).max()) if np.size(values) else 0.0
        if peak >= self.trust_radius:
            raise DomainError(
                f"sup|u| = {peak:g} exceeds trust radius {self.trust_radius:g}"
            )

    # -- linear part ------------------------------------------------------------

    def apply_A(self, w):
        """``A w`` for a flat array, batch of rows, or `StateVector`."""
        if isinstance(w, StateVector):
            return self.state(self.A @ w.data)
        arr = np.asarray(w)
        if arr.ndim == 1:
            return self.A @ arr
        return (self.A @ arr.T).T

    def operator(self, lam=0.0):
        """``B = A + h_u(lam, 0)`` in CSC; the sparse sum drops exact zeros,
        so this is bitwise ``A`` when ``h_u(lam, 0) = 0``.  The ``lam = 0``
        matrix is built once per problem and must not be modified."""
        if lam == 0.0:
            return self._operator_at_zero
        return (self.A + linearization_matrix(self, lam)).tocsc()

    @cached_property
    def _operator_at_zero(self):
        return (self.A + linearization_matrix(self, 0.0)).tocsc()

    def solve_resolvent(self, n, rhs):
        """Solve ``(i*n - B) w = rhs`` for integer temporal mode ``n``.

        Raises `ResonanceError` when the shifted operator is numerically
        singular, which on a bifurcation problem happens at ``n = +-1``.
        """
        rhs = np.asarray(rhs, dtype=complex)
        return self.resolvent_lu(1j * int(n)).solve(rhs)

    def shifted(self, z, lam=0.0):
        """``z - B`` in complex CSC, with ``B = operator(lam)``."""
        eye = sp.identity(self.dim, format="csc", dtype=complex)
        return eye * z - self.operator(lam)

    def resolvent_lu(self, z):
        """A fresh LU of ``z - B`` (`shifted`) through `_guarded_lu` with
        its default estimate; `ResonanceError` when it is singular or
        ``||z - B||_1 / sigma_min`` exceeds `COND_GUARD`."""
        lu, _, _, cond = _guarded_lu(self.shifted(z))
        if lu is None:
            raise ResonanceError(
                f"z - B is numerically singular at z = {z:g} "
                f"(cond ~ {cond:.1e}); that mode must go through the "
                "spectral-projection path, not a direct solve"
            )
        return lu

    # -- residuals ---------------------------------------------------------------

    def residual_f(self, lam, u):
        """Steady residual ``f(lam, u) = A u + h(lam, u)``."""
        self.check_lambda(lam)
        w = _as_flat(u)
        self.check_trust(w)
        out = self.A @ w + self.apply_h(lam, w)
        return self.state(out) if isinstance(u, StateVector) else out

    def residual_g(self, params, u):
        """Period-rescaled residual ``g = u_t - (sigma+1) f(lam, u)``.

        ``u`` is a `PeriodicTrajectory`; the nonlinearity is evaluated at
        the collocation samples and transformed back, so products alias
        into the guard mode but retained modes are those of the sampled
        composition.
        """
        return self._collocated(params, u, u, self.apply_h)

    def linearised_g(self, params, u, v):
        """Directional derivative ``g_u(params, u) v`` for trajectories."""
        return self._collocated(params, u, v, lambda lam, vals: self.apply_h_u(
            lam, vals, v.sample_values()))

    def _collocated(self, params, u, v, apply):
        """``v_t - (sigma+1)(A v + N)``, the kernel of `residual_g` (``v =
        u``) and `linearised_g`: ``N`` is ``apply(lam, samples of u)``
        transformed back, after the parameter, period and trust checks.

        The result is one C-contiguous array, adopted by the returned
        trajectory: ``A v + N`` is formed in it and scaled and subtracted
        from ``v_t`` in place, in the order of ``v.time_derivative() -
        (sigma + 1.0) * (linear + nonlinear)`` on trajectories, so it is
        that composition bit for bit.
        """
        lam, sigma = params
        self.check_lambda(lam)
        if not sigma > -1.0:
            raise DomainError(f"sigma = {sigma:g} must exceed -1")
        vals = u.sample_values()
        self.check_trust(vals)
        # ``samples`` lives until the return: freeing it before the products
        # below are allocated changed glibc's heap placement and raised the
        # peak RSS of 7 of 15 production passes by 5-59 MiB.
        samples = apply(lam, vals)
        nonlinear = trajectory_from_samples(samples, v.dx)
        out = np.add((self.A @ v.coeffs.T).T, nonlinear.coeffs, order="C")
        out *= float(sigma + 1.0)
        np.subtract(v.time_derivative().coeffs, out, out=out)
        return _adopt(out, v.dx)

    # -- derivative validation ------------------------------------------------------

    def check_derivatives(self, samples=5, step=1e-5, scale=0.01, seed=0):
        """Compare the supplied derivative callables with finite differences.

        Draws ``samples`` random states of sup-norm about ``scale`` and
        random admissible parameters, and central-differences ``apply_h``
        to check ``apply_h_u``, ``apply_h_lambda`` and ``apply_h_lambda_u``.

        Returns
        -------
        DerivativeReport
            Maximum relative errors; `DerivativeReport.ok` applies
            `DERIVATIVE_TOLERANCE`, appropriate for central differences.
        """
        if step <= 0:
            raise ValueError("step must be positive")
        rng = np.random.default_rng(seed)
        lo, hi = self.lambda_window
        span = min(hi, -lo, 1.0)
        err_u = err_l = err_lu = 0.0
        for _ in range(samples):
            lam = float(rng.uniform(-0.4, 0.4) * span)
            u = rng.normal(size=self.dim) * scale
            v = rng.normal(size=self.dim) * scale
            ref = max(scale, float(np.abs(self.apply_h(lam, u)).max()))

            fd = (self.apply_h(lam, u + step * v)
                  - self.apply_h(lam, u - step * v)) / (2 * step)
            err_u = max(err_u, _rel(fd, self.apply_h_u(lam, u, v), ref))

            dl = step * span
            fd = (self.apply_h_u(lam + dl, u, v)
                  - self.apply_h_u(lam - dl, u, v)) / (2 * dl)
            err_lu = max(err_lu, _rel(fd, self.apply_h_lambda_u(lam, u, v), ref))

            fd = (self.apply_h(lam + dl, u) - self.apply_h(lam - dl, u)) / (2 * dl)
            err_l = max(err_l, _rel(fd, self.apply_h_lambda(lam, u), ref))
        return DerivativeReport(err_u, err_l, err_lu, step)


def _bordered_lu(core, column, row):
    """``(matrix, lu)``: ``matrix = [[core, column], [row, 0]]`` in CSC,
    ``core`` bordered with one dense column and one dense row, and its
    SuperLU factor; raises RuntimeError when it is exactly singular.

    The columns are ordered by minimum degree on ``A^T + A``: under
    scipy's default COLAMD the dense border fills L and U superlinearly in
    the grid (1 673 748 nonzeros against 38 412 at L = 60, dx = 0.05),
    while the unbordered ``core`` fills alike under both orderings.
    """
    matrix = sp.bmat([[core, column], [row, None]], format="csc")
    return matrix, spla.splu(matrix, permc_spec="MMD_AT_PLUS_A")


def inverse_power_sigma_min(solve, solve_adjoint, start, max_steps):
    """``(sigma, steps)``: sigma_min(M) by power iteration on ``(M^H M)^-1``.

    ``solve`` and ``solve_adjoint`` apply ``M^-1`` and ``M^-H``.  Stops once
    the estimate changes by at most 1e-6 (relative) after more than three
    steps, or after ``max_steps``; a non-finite or zero step reads as
    ``sigma = 0`` (numerically singular ``M``).
    """
    z = start / np.linalg.norm(start)
    estimate = steps = 0
    while steps < max_steps:
        steps += 1
        w = solve_adjoint(solve(z))
        new = float(np.linalg.norm(w))
        if not np.isfinite(new) or new == 0.0:
            return 0.0, steps
        z = w / new
        estimate, previous = new, estimate
        if steps > 3 and abs(estimate - previous) <= 1e-6 * estimate:
            break
    return (float(1.0 / np.sqrt(estimate)) if estimate else 0.0), steps


def _guarded_lu(matrix, border=None, steps=RESOLVENT_PROBES,
                seed=RESOLVENT_SEED):
    """``(lu, sigma, steps, cond)``: the SuperLU factor of ``matrix``, or
    with ``border = (column, row)`` of ``matrix`` bordered by them
    (`_bordered_lu`), its smallest singular value ``sigma`` by
    `inverse_power_sigma_min` in at most ``steps`` steps from a complex
    start drawn with ``seed`` (or generator), the steps taken, and ``cond
    = ||M||_1 / sigma`` with ``||M||_1`` the factored matrix's largest
    absolute column sum.

    ``lu`` is None, and ``sigma`` reads as 0, when the factored matrix is
    exactly singular or ``cond`` is not finite or exceeds `COND_GUARD`;
    the caller raises the error that fits its operator.  Capped inverse
    power overestimates ``sigma``, so ``cond`` errs low, as a lower bound
    on ``||M^-1||`` would.
    """
    try:
        if border is None:
            matrix = sp.csc_matrix(matrix)
            lu = spla.splu(matrix)
        else:
            matrix, lu = _bordered_lu(matrix, *border)
    except RuntimeError:  # exactly singular
        return None, 0.0, 0, np.inf
    rng = np.random.default_rng(seed)
    start = rng.normal(size=lu.shape[0]) + 1j * rng.normal(size=lu.shape[0])
    sigma, taken = inverse_power_sigma_min(
        lu.solve, lambda b: lu.solve(b, trans="H"), start, steps)
    norm = float(abs(matrix).sum(axis=0).max())
    cond = norm / sigma if sigma > 0.0 else np.inf
    if not np.isfinite(cond) or cond > COND_GUARD:
        return None, 0.0, taken, cond
    return lu, sigma, taken, cond


def _rel(approx, exact, ref):
    return float(np.abs(approx - exact).max() / ref)


def stencil_probes(problem, apply):
    """Colour-probe a linear map with ``problem.h_stencil`` spatial locality.

    Unit combs with one tooth every ``2*h_stencil + 1`` grid points within
    one field share no stencil support, so every response entry belongs to
    exactly one tooth.  Yields ``(field, owner, valid, response)`` for each
    field and colour: ``response = apply(comb)`` for the flat comb vector,
    and ``owner[j]`` the tooth whose stencil covers grid point ``j``,
    meaningful where ``valid[j]``.
    """
    nx = problem.nx
    width = problem.h_stencil
    stride = 2 * width + 1
    positions = np.arange(nx)
    for fld in range(2):
        for colour in range(min(stride, nx)):
            probed = np.arange(colour, nx, stride)
            comb = np.zeros(problem.dim)
            comb[fld * nx + probed] = 1.0
            owner = probed[np.clip(
                np.round((positions - colour) / stride).astype(int),
                0, probed.size - 1,
            )]
            yield fld, owner, np.abs(positions - owner) <= width, apply(comb)


def linearization_matrix(problem, lam):
    """The sparse matrix of ``v -> h_u(lam, 0, v)``, at the equilibrium only.

    Recovers the matrix from the black-box directional derivative with
    the ``2 * (2*h_stencil + 1)`` probes of `stencil_probes`.

    Returns
    -------
    scipy.sparse.csr_matrix, shape (dim, dim)
    """
    nx = problem.nx
    dim = problem.dim
    zero = np.zeros(dim)
    rows, cols, vals = [], [], []
    positions = np.arange(nx)
    probes = stencil_probes(
        problem, lambda comb: np.asarray(problem.apply_h_u(lam, zero, comb)))
    for fld, owner, valid, response in probes:
        for rf in range(2):
            block = response[rf * nx : (rf + 1) * nx]
            hit = valid & (block != 0.0)
            rows.append(rf * nx + positions[hit])
            cols.append(fld * nx + owner[hit])
            vals.append(block[hit])
    rows = np.concatenate(rows) if rows else np.empty(0, dtype=int)
    cols = np.concatenate(cols) if cols else np.empty(0, dtype=int)
    vals = np.concatenate(vals) if vals else np.empty(0)
    return sp.csr_matrix((vals, (rows, cols)), shape=(dim, dim))


class DerivativeReport(NamedTuple):
    """Outcome of `ProblemDef.check_derivatives`: the max relative error
    of ``apply_h_u``, ``apply_h_lambda`` and ``apply_h_lambda_u``, each in
    its own field."""

    err_h_u: float
    err_h_lambda: float
    err_h_lambda_u: float
    step: float

    @property
    def worst(self):
        return max(self.err_h_u, self.err_h_lambda, self.err_h_lambda_u)

    @property
    def ok(self):
        return self.worst <= DERIVATIVE_TOLERANCE

    def __str__(self):
        errors = {"h_u": self.err_h_u, "h_lambda": self.err_h_lambda,
                  "h_lambda_u": self.err_h_lambda_u}
        text = f"derivative check (step {self.step:g}): " + ", ".join(
            f"{name} {err:.2e}" for name, err in errors.items())
        wrong = [f"apply_{name}" for name, err in errors.items()
                 if err > DERIVATIVE_TOLERANCE]
        if wrong:
            text += f"; wrong beyond {DERIVATIVE_TOLERANCE:g}: " + ", ".join(wrong)
        return text
