"""The linear periodic problem ``u_t - B u = v`` around the resonance.

``B = A + h_u(0, 0)`` is the linearisation at the equilibrium
(`ProblemDef.operator`), with the critical pair ``B psi = i psi``.
`solve_periodic_full` follows the uniqueness argument of the Hopf theorem:
it splits each temporal mode ``v_hat(n)`` by the rank-two spectral
projection.  Along the pair the equation is diagonal: the coefficient
``g`` along ``psi`` divides by ``i (n - 1)`` and the coefficient ``h``
along ``conj(psi)`` by ``i (n + 1)``.  The complement goes through the
resolvent ``(i n - B)^{-1}``; at ``n = 1``, where ``i - B`` is singular,
through a solve bordered with the eigenpair.  Its domain is the full range
of the period-one linearisation: everything except genuinely secular
forcing (eigenvector direction at frequency ``+-1``), which it rejects.
"""

from __future__ import annotations

import numpy as np

from .problem import SingularOperatorError, _guarded_lu

__all__ = ["ResonantForcingError", "solve_periodic_full"]

#: Relative size above which forcing along ``psi`` at ``n = 1`` is rejected.
RESONANT_FORCING_TOL = 1e-10
#: Relative residual `solve_periodic_full` must meet.
SPLIT_RESIDUAL_TOL = 1e-8


class ResonantForcingError(ValueError):
    """Forcing has eigenvector content at the resonant frequency."""


def _deflated_critical_solve(problem, decomp, rhs):
    """Solve ``(i - B) s = rhs`` for ``rhs`` in the critical complement.

    The shifted operator is singular by construction (the crossing
    eigenvalue); bordering it with the eigenvector column and the adjoint
    row makes it regular, and for range-compatible right-hand sides the
    border multiplier vanishes, so the core part is the unique solution
    with zero eigenvector coordinate.
    """
    col = decomp.psi.data.reshape(-1, 1)
    row = np.conj(decomp.phi_adj.data).reshape(1, -1) * problem.dx
    lu, cond = _guarded_lu(problem.shifted(1j), (col, row))
    if lu is None:
        raise SingularOperatorError(
            "operator ('deflated-critical', 1) is numerically singular "
            f"(cond ~ {cond:.1e})"
        )
    sol = lu.solve(np.concatenate([rhs, [0.0j]]))
    return sol[:problem.dim]


def solve_periodic_full(problem, decomp, v):
    """Solve ``u_t - B u = v`` through the spectral splitting.

    Each mode ``v_hat(n)``, ``n = 0 .. n_t``, has coordinates ``(g, h)``
    along ``(psi, conj(psi))`` (`SpectralDecomposition.coordinates`); the
    solution's are ``g / (i (n - 1))`` and ``h / (i (n + 1))``.  Along
    ``psi`` this is the periodic solution of the scalar ODE ``c' - i c =
    g``.  The complement is solved mode by mode, with the critical mode
    ``n = 1`` going through a deflated (bordered) solve.  The assembled
    solution is checked against the equation and must meet
    `SPLIT_RESIDUAL_TOL` relative accuracy.

    The solvability constraint is genuine: forcing with an eigenvector
    component at frequency ``+-1`` (``|g| > RESONANT_FORCING_TOL * |v|``
    at ``n = 1``) is secular and raises `ResonantForcingError`; below that
    it is dropped as roundoff.  Everything else -- including mean and
    fundamental-mode content off the critical pair -- is admissible.  The
    returned solution is normalised to zero kernel coordinates (no
    eigenvector component in its fundamental mode).
    """
    n_t = v.n_t
    g, h = np.array([decomp.coordinates(col) for col in v.coeffs]).T
    scale = max(v.norm(), 1e-300)
    if n_t >= 1 and abs(g[1]) > RESONANT_FORCING_TOL * scale:
        raise ResonantForcingError(
            f"forcing has secular content {abs(g[1]):.2e} at the resonant "
            "frequency n = 1; the periodic problem is unsolvable"
        )
    ns = np.arange(n_t + 1)
    c = np.zeros(n_t + 1, dtype=complex)
    mask = ns != 1
    c[mask] = g[mask] / (1j * (ns[mask] - 1))
    d = h / (1j * (ns + 1))
    psi = decomp.psi.data
    out = c[:, None] * psi + d[:, None] * np.conj(psi)

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
    if defect > SPLIT_RESIDUAL_TOL * scale:
        raise RuntimeError(
            f"splitting solve left residual {defect:.2e}; the spectral "
            "decomposition is not accurate enough for this forcing"
        )
    return u
