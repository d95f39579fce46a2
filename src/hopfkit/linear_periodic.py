"""The linear periodic problem ``u_t - B u = v`` around the resonance.

``B = A + h_u(0, 0)`` is the linearisation at the equilibrium
(`ProblemDef.operator`).  For forcing ``v`` with no temporal modes in
{-1, 0, 1} the equation has a unique periodic solution, obtained
mode-by-mode as ``u_hat(n) = (i n - B)^{-1} v_hat(n)``.
`solve_periodic_nonresonant` does exactly that.

`solve_periodic_full` follows the structure of the underlying uniqueness
argument instead: it splits ``v`` by the rank-two spectral projection,
solves one scalar first-order ODE for the coefficient along the critical
eigenvector (`solve_resonant_ode`, done by exact division in coefficient
space), takes the coefficient along its conjugate as that path's
conjugate reflection (``v`` is real), and solves a complement system mode
by mode -- including the critical temporal modes, where the complement
operator is made invertible by bordering with the eigenpair.  Its domain
is the full range of the period-one linearisation: everything except
genuinely secular forcing (eigenvector direction at frequency ``+-1``),
which it rejects.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .problem import SingularOperatorError, _guarded_lu
from .trajectory import PeriodicTrajectory

__all__ = [
    "ResonantScalarPath",
    "ResonantContentError",
    "ResonantForcingError",
    "solve_periodic_nonresonant",
    "solve_resonant_ode",
    "solve_periodic_full",
]

#: Relative size above which modes {-1, 0, 1} in the forcing are rejected.
RESONANT_CONTENT_TOL = 1e-12
#: Relative size above which forcing at the resonant frequency of the
#: scalar ODE is rejected.
RESONANT_FORCING_TOL = 1e-10
#: Relative residual `solve_periodic_full` must meet.
SPLIT_RESIDUAL_TOL = 1e-8


class ResonantContentError(ValueError):
    """Forcing has content in temporal modes {-1, 0, 1}."""


class ResonantForcingError(ValueError):
    """Scalar ODE forcing has content at its resonant frequency."""


class ResonantScalarPath:
    """A scalar ``2*pi``-periodic function as two-sided Fourier coefficients.

    Coefficients are stored for ``n = -n_t .. n_t`` (index ``n + n_t``);
    unlike `PeriodicTrajectory` no reality constraint is imposed -- these
    paths are the complex coordinates along an eigenvector.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        arr = np.asarray(coeffs, dtype=complex).copy()
        if arr.ndim != 1 or arr.size % 2 != 1:
            raise ValueError("need an odd number of coefficients (-n_t .. n_t)")
        arr.flags.writeable = False
        self.coeffs = arr

    @property
    def n_t(self):
        return self.coeffs.size // 2

    def coeff(self, n):
        if abs(n) > self.n_t:
            raise ValueError(f"mode {n} outside |n| <= {self.n_t}")
        return complex(self.coeffs[n + self.n_t])

    @classmethod
    def zero(cls, n_t):
        return cls(np.zeros(2 * n_t + 1, dtype=complex))

    @classmethod
    def single_mode(cls, n, value, n_t):
        out = np.zeros(2 * n_t + 1, dtype=complex)
        out[n + n_t] = value
        return cls(out)

    def evaluate(self, t):
        """Value of the path at (array of) times ``t``."""
        t = np.asarray(t, dtype=float)
        ns = np.arange(-self.n_t, self.n_t + 1)
        return np.exp(1j * np.multiply.outer(t, ns)) @ self.coeffs

    def derivative(self):
        ns = np.arange(-self.n_t, self.n_t + 1)
        return ResonantScalarPath(1j * ns * self.coeffs)

    def conjugate_reflected(self):
        """The path ``t -> conj(c(t))`` (conjugate and flip mode order)."""
        return ResonantScalarPath(np.conj(self.coeffs[::-1]))

    def norm(self):
        return float(np.linalg.norm(self.coeffs))

    def __add__(self, other):
        return ResonantScalarPath(self.coeffs + other.coeffs)

    def __sub__(self, other):
        return ResonantScalarPath(self.coeffs - other.coeffs)

    def __mul__(self, scalar):
        return ResonantScalarPath(self.coeffs * scalar)

    __rmul__ = __mul__

    def __repr__(self):
        return f"ResonantScalarPath(n_t={self.n_t}, norm={self.norm():.3e})"


def _check_nonresonant(v):
    scale = max(float(np.abs(v.coeffs).max()), 1e-300)
    bad = {}
    for n in (0, 1):
        if v.n_t >= n:
            worst = float(np.abs(v.coeffs[n]).max())
            if worst > RESONANT_CONTENT_TOL * scale:
                bad[n] = worst
    if bad:
        raise ResonantContentError(
            f"forcing has resonant temporal modes {sorted(bad)} with "
            f"magnitudes {[f'{w:.2e}' for w in bad.values()]}; this solver "
            "requires modes -1, 0, 1 to vanish"
        )


def solve_periodic_nonresonant(problem, v):
    """Unique periodic solution of ``u_t - B u = v`` for nonresonant ``v``.

    ``v`` must have (numerically) no temporal modes in {-1, 0, 1}; the
    solution is ``u_hat(n) = (i n - B)^{-1} v_hat(n)`` mode by mode and
    inherits that property.

    Raises
    ------
    ResonantContentError
        If ``v`` has content in the excluded modes.
    ResonanceError
        Propagated from the per-mode solves if some ``i n - B`` is
        (numerically) singular -- a genuine spectrum-on-the-axis defect.
    """
    _check_nonresonant(v)
    out = np.zeros_like(v.coeffs)
    for n in range(2, v.n_t + 1):
        col = v.coeffs[n]
        if np.any(col != 0.0):
            out[n] = problem.solve_resolvent(n, col)
    return v.with_coeffs(out)


def solve_resonant_ode(forcing, scale=None):
    """Solve ``c'(t) - i c(t) = forcing(t)`` periodically.

    This is the equation along the eigenvector.  In coefficient space it
    is diagonal: ``c_hat(n) = g_hat(n) / (i (n - 1))``, which pins every
    coefficient except the resonant one (``n = 1``); that one is set to
    zero -- the normalisation that makes the solution unique.

    Parameters
    ----------
    forcing : ResonantScalarPath
        Must have (numerically) zero coefficient at ``n = 1``.
    scale : float, optional
        Reference magnitude for the secularity test.  Defaults to the
        forcing's own norm; callers that obtained the forcing by
        projecting a larger object should pass that object's norm so
        projection roundoff is not mistaken for secular content.

    Raises
    ------
    ResonantForcingError
        If the forcing has content at the resonant frequency (no periodic
        solution exists then).
    """
    n_t = forcing.n_t
    if scale is None:
        scale = forcing.norm()
    scale = max(scale, 1e-300)
    pinned = forcing.coeff(1)
    if abs(pinned) > RESONANT_FORCING_TOL * scale:
        raise ResonantForcingError(
            f"forcing has secular content {abs(pinned):.2e} at the resonant "
            "frequency n = 1; the periodic problem is unsolvable"
        )
    ns = np.arange(-n_t, n_t + 1)
    out = np.zeros_like(forcing.coeffs)
    mask = ns != 1
    out[mask] = forcing.coeffs[mask] / (1j * (ns[mask] - 1))
    return ResonantScalarPath(out)


def _projected_scalar_path(decomp, v):
    """Coefficient path ``g_hat`` of ``P v`` along ``psi``, ``n = -n_t ..
    n_t``.  ``v`` is real, ``v_hat(-n) = conj(v_hat(n))``, so ``g_hat(-n)``
    is the conjugate of ``v_hat(n)``'s coordinate along ``conj(psi)``.
    """
    n_t = v.n_t
    ghat = np.zeros(2 * n_t + 1, dtype=complex)
    for n in range(0, n_t + 1):
        g, h = decomp.coordinates(v.coeffs[n])
        ghat[n + n_t] = g
        if n > 0:
            ghat[-n + n_t] = np.conj(h)
    return ResonantScalarPath(ghat)


def _deflated_critical_solve(problem, decomp, rhs):
    """Solve ``(i - B) s = rhs`` for ``rhs`` in the critical complement.

    The shifted operator is singular by construction (the crossing
    eigenvalue); bordering it with the eigenvector column and the adjoint
    row makes it regular, and for range-compatible right-hand sides the
    border multiplier vanishes, so the core part is the unique solution
    with zero eigenvector coordinate.
    """
    col = sp.csc_matrix(decomp.psi.data.reshape(-1, 1))
    row = sp.csc_matrix(
        np.conj(decomp.phi_adj.data).reshape(1, -1) * problem.dx
    )
    bordered = sp.bmat([[problem.shifted(1j), col], [row, None]], format="csc")
    lu, cond = _guarded_lu(bordered)
    if lu is None:
        raise SingularOperatorError(
            "operator ('deflated-critical', 1) is numerically singular "
            f"(cond ~ {cond:.1e})"
        )
    sol = lu.solve(np.concatenate([rhs, [0.0j]]))
    return sol[:problem.dim]


def solve_periodic_full(problem, decomp, v):
    """Solve ``u_t - B u = v`` through the spectral splitting.

    The forcing is decomposed as ``v = P v + (I - P) v``.  Along the
    critical pair the equation reduces to one scalar ODE ``c' - i c = g``
    along ``psi``, solved by `solve_resonant_ode`, plus its conjugate
    reflection: ``v`` is real, so the coefficient along ``conj(psi)`` is
    ``conj(c(-n))``.  The complement is solved mode by mode, with the
    critical temporal modes going through a deflated (bordered) solve.
    The assembled solution is checked against the equation and must meet
    `SPLIT_RESIDUAL_TOL` relative accuracy.

    The solvability constraint is genuine: forcing with an eigenvector
    component at frequency ``+-1`` is secular and raises
    `ResonantForcingError`.  Everything else -- including mean and
    fundamental-mode content off the critical pair -- is admissible.
    The returned solution is normalised to zero kernel coordinates (no
    eigenvector component in its fundamental mode).
    """
    n_t = v.n_t

    cpath = solve_resonant_ode(_projected_scalar_path(decomp, v), scale=v.norm())
    dpath = cpath.conjugate_reflected()

    psi = decomp.psi.data
    psi_bar = np.conj(psi)
    out = np.zeros_like(v.coeffs)
    for n in range(0, n_t + 1):
        out[n] = cpath.coeff(n) * psi + dpath.coeff(n) * psi_bar

    for n in range(0, n_t + 1):
        rest = decomp.complement(v.coeffs[n])
        if not np.any(rest != 0.0):
            continue
        if n == 1:
            out[n] += _deflated_critical_solve(problem, decomp, rest)
        else:
            out[n] += problem.solve_resolvent(n, rest)

    u = v.with_coeffs(out)
    linear = u.with_coeffs((problem.operator() @ u.coeffs.T).T)
    defect = (u.time_derivative() - linear - v).norm()
    if defect > SPLIT_RESIDUAL_TOL * max(v.norm(), 1e-300):
        raise RuntimeError(
            f"splitting solve left residual {defect:.2e}; the spectral "
            "decomposition is not accurate enough for this forcing"
        )
    return u
