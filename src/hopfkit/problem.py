"""Problem definitions: the linear operator, the nonlinearity, and residuals.

A `ProblemDef` bundles the sparse linear operator ``A`` with closed-form
callables for the nonlinearity ``h`` and its derivatives, together with the
admissible parameter window and the trust radius on which ``h`` is defined.
Residuals of the steady and period-rescaled problems, the linearisation
``B = A + h_u(0, 0)`` at the equilibrium (`ProblemDef.operator`), a
bound on its skew part (`ProblemDef.skew_bound`), its shifts ``z - B``
(`ProblemDef.shifted`) with a condition-guarded
factorization (`_guarded_lu`) that lives only as long as its caller, and a
finite-difference validation of the supplied derivatives all live here.
The guard and every resolvent bound read one estimate per factor: the
smallest singular value from `inverse_power_sigma_min`.
Only `ProblemDef` samples ``h`` and picks how often (`collocation_n_t`):
`ProblemDef.collocate` for the residuals, ``f_lambda`` and the mixed
column, `ProblemDef.band_samples` for a Newton band's base.  Every
assembled matrix of ``h_u`` is read from the black-box ``apply_h_u`` by
one colour-probe decoder, `stencil_couplings`: the sparse ``h_u(lam, 0)``
(`linearization_matrix`) and the Newton band's couplings.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple, Tuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .trajectory import (PeriodicTrajectory, StateVector, _adopt,
                         trajectory_from_samples)

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
#: The degree of ``h`` that reduced collocation is exact for (any lower
#: degree is too), and the relative agreement and seed of its check.
H_DEGREE, DEGREE_TOLERANCE, DEGREE_SEED = 3, 1e-12, 3


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
        pointwise nonlinearities; `stencil_couplings` reads every
        Jacobian with ``2 * (2*h_stencil + 1)`` probes.  A non-negative
        integer.
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

    @cached_property
    def skew_bound(self):
        """``beta >= ||(B - B^H)/2||_2`` for ``B = operator()``.

        The skew part is normal, so its 2-norm is at most its largest
        absolute row sum.  That sum is rounded up by ``(k+1) 2^-53``
        relative, ``k`` the nonzero count of the longest row (one rounding
        of the difference and ``k - 1`` of the sum, to first order), and
        one float up for the rounding of that product.  The numerical range
        of ``B`` then lies in the strip ``|Im z| <= beta``, so
        ``sigma_min(z - B) >= |Im z| - beta`` (`spectral._resolvent_sigma_min`).
        """
        b = self.operator()
        skew = abs(sp.csr_matrix(b - b.conj().T)) * 0.5
        total = float(np.asarray(skew.sum(axis=1)).max())
        if total == 0.0:  # every difference is exact when it is zero
            return 0.0
        longest = int(np.diff(skew.indptr).max())
        grown = total + total * ((longest + 1) * 2.0**-53)
        return float(np.nextafter(grown, np.inf))

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
        `collocation_n_t`'s ``2n + 2`` samples (`collocate`).  At ``n =
        n_t`` products alias into the guard mode but retained modes are
        those of the sampled composition; a smaller ``n`` is exact.
        """
        return self._collocated(params, self.apply_h, u)

    def linearised_g(self, params, u, v):
        """Directional derivative ``g_u(params, u) v`` for trajectories."""
        return self._collocated(params, self.apply_h_u, u, v)

    def _collocated(self, params, apply, *inputs):
        """``v_t - (sigma+1)(A v + N)`` for ``inputs`` ``(u,)`` (`residual_g`,
        ``v = u``) or ``(u, v)`` (`linearised_g`): ``N`` is ``apply`` at the
        inputs, `collocate`d after the parameter, period and trust checks,
        and ``A`` and ``d/dt`` act on the rows that ``v`` or ``N`` can hold.

        The result is one C-contiguous array, adopted by the returned
        trajectory: ``A v + N`` is formed in it and scaled and subtracted
        from ``v_t`` in place, in the order of ``v.time_derivative() -
        (sigma + 1.0) * (linear + nonlinear)`` on trajectories, so at ``n =
        n_t`` it is that composition bit for bit.
        """
        lam, sigma = params
        self.check_lambda(lam)
        if not sigma > -1.0:
            raise DomainError(f"sigma = {sigma:g} must exceed -1")
        u, v = inputs[0], inputs[-1]
        moduli = np.abs(u.coeffs[: u.top_mode() + 1])  # |u| <= |c_0| + 2 sum |c_n|
        bound = (moduli[0] + 2.0 * moduli[1:].sum(axis=0)).max() * (1.0 + 1e-12)
        if not bound < self.trust_radius:  # widened for rounding; samples decide
            self.check_trust(u.sample_values())
        nonlinear = self.collocate(apply, lam, *inputs)
        rows = nonlinear.n_t + 1  # >= v.top_mode() + 1: the rows past stay zero
        out = np.zeros(v.coeffs.shape, dtype=complex)
        out[:rows] = (self.A @ v.coeffs[:rows].T).T
        out[:rows] += nonlinear.coeffs
        out *= float(sigma + 1.0)
        rate = v.coeffs[:rows] * (1j * np.arange(rows))[:, None]  # d/dt there
        np.subtract(rate, out[:rows], out=out[:rows])
        return _adopt(out, v.dx)

    def collocate(self, apply, lam, *inputs, n_t=None):
        """``apply(lam, *samples)`` transformed back, ``samples`` those of
        ``inputs`` (a base, then a direction for ``apply_h_u`` and
        ``apply_h_lambda_u``) at `collocation_n_t`'s ``2n + 2`` times: the
        ``n + 1`` rows that hold the product, or zero-padded to ``n_t``."""
        u, v = inputs[0], inputs[-1]
        n = self.collocation_n_t(v.n_t, u.top_mode(), v.top_mode())
        samples = apply(lam, *(t.sample_values(n) for t in inputs))
        return trajectory_from_samples(samples, v.dx, n_t)

    def band_samples(self, u, top):
        """``u``'s samples for a Newton band whose layout keeps modes up to
        ``top``: its probes are constant in time, and its blocks map those
        modes to themselves."""
        return u.sample_values(self.collocation_n_t(u.n_t, u.top_mode(), top, top))

    def collocation_n_t(self, n_t, k_u, k_v, k_out=None):
        """`_exact_n_t` where `_degree_holds`, else ``n_t``."""
        return _exact_n_t(n_t, k_u, k_v, k_out) if self._degree_holds else n_t

    @cached_property
    def _degree_holds(self):
        """Whether ``h`` is of degree `H_DEGREE` at most, as far as
        collocation can tell: each collocated callable, at random mode-1
        trajectories and the zero base, agrees in every row at `_exact_n_t`'s
        samples and at all of ``n_t = 2 H_DEGREE + 2`` within `DEGREE_TOLERANCE`,
        relative.  Where it does not, products keep the full ``M``."""
        rng = np.random.default_rng(DEGREE_SEED)
        n_t, lo, hi = 2 * H_DEGREE + 2, *self.lambda_window
        lam = float(rng.uniform(-0.4, 0.4) * min(hi, -lo, 1.0))
        coeffs = np.zeros((3, n_t + 1, self.dim), dtype=complex)
        coeffs[:2, :2] = 0.1 * rng.normal(size=(2, 2, self.dim, 2)) @ [1.0, 1j]
        coeffs[:, 0].imag = 0.0
        u, v, zero = (PeriodicTrajectory(c, self.dx) for c in coeffs)
        for apply, *inputs in ((self.apply_h, u), (self.apply_h_lambda, u),
                               (self.apply_h_u, u, v), (self.apply_h_u, zero, v),
                               (self.apply_h_lambda_u, zero, v)):
            n = _exact_n_t(n_t, inputs[0].top_mode(), inputs[-1].top_mode())
            reduced, full = (trajectory_from_samples(
                apply(lam, *(t.sample_values(m) for t in inputs)), self.dx, n_t
            ).coeffs for m in (n, n_t))
            if not abs(reduced - full).max() <= DEGREE_TOLERANCE * abs(full).max():
                return False
        return True

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


def _exact_n_t(n_t, k_u, k_v, k_out=None):
    """The smallest ``n <= n_t`` whose ``2n + 2 > P + k_out`` samples hold
    the inputs of a product of ``h``'s callables (live modes up to ``k_u``,
    ``k_v``) and read its modes up to ``k_out = min(P, n_t)``, ``P = (d-1)
    k_u + k_v`` for ``d`` = `H_DEGREE`, exactly (Orszag's 3/2 rule, 1971)."""
    p = (H_DEGREE - 1) * k_u + k_v
    k_out = min(p, n_t) if k_out is None else k_out
    return min(n_t, max((p + k_out) // 2, k_u, k_v))


def _rel(approx, exact, ref):
    return float(np.abs(approx - exact).max() / ref)


def stencil_couplings(problem, lam, base):
    """``(rows, cols, values)``: the entries of ``v -> h_u(lam, base) v``,
    ``base`` one state or a stack of them (one per collocation sample), with
    ``problem.h_stencil`` spatial locality, read by colour probing.

    Combs with one tooth every ``2*h_stencil + 1`` grid points within one
    field, the same at every sample, share no stencil support (Curtis,
    Powell and Reid, J. Inst. Math. Appl. 13, 1974), so ``2 * (2*h_stencil
    + 1)`` probes reach each entry (state row ``rows[k]``, state column
    ``cols[k]``) once.  ``values[:, k]`` is that entry's response at every
    sample, shape ``(samples, entries)``, a single row for a single state;
    entries that respond with zero everywhere are left out.
    """
    nx, dim = problem.nx, problem.dim
    width = problem.h_stencil
    stride = 2 * width + 1
    positions = np.arange(nx)
    rows, cols, values = [], [], []
    for fld in range(2):
        for colour in range(min(stride, nx)):
            probed = np.arange(colour, nx, stride)
            comb = np.zeros(dim)
            comb[fld * nx + probed] = 1.0
            owner = probed[np.clip(
                np.round((positions - colour) / stride).astype(int),
                0, probed.size - 1,
            )]
            response = np.reshape(problem.apply_h_u(
                lam, base, np.broadcast_to(comb, base.shape)), (-1, dim))
            hit = np.tile(np.abs(positions - owner) <= width, 2)
            hit &= np.any(response, axis=0)
            reached = np.flatnonzero(hit)
            rows.append(reached)
            cols.append(fld * nx + owner[reached % nx])
            values.append(response[:, reached])
    return np.concatenate(rows), np.concatenate(cols), np.hstack(values)


def linearization_matrix(problem, lam):
    """The sparse matrix of ``v -> h_u(lam, 0, v)``, at the equilibrium only,
    read from the black-box directional derivative by `stencil_couplings`.

    Returns
    -------
    scipy.sparse.csr_matrix, shape (dim, dim)
    """
    rows, cols, values = stencil_couplings(problem, lam, np.zeros(problem.dim))
    return sp.csr_matrix((values[0], (rows, cols)), shape=(problem.dim,) * 2)


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
