"""The linear periodic solver underneath everything, probed directly.

Every Newton step and every correction term reduces to solving

    u_t - A u = v,   u 2*pi-periodic,

in temporal Fourier space.  Away from the critical frequencies +-1 each
mode is a shifted linear solve; at the critical frequencies the system is
singular along the eigenvector, and the component along it obeys a scalar
ODE with an explicit solution.  This demo drives both paths and shows the
one genuinely unsolvable input being refused.
"""

import numpy as np

from hopfkit import (
    ExampleConfig,
    PeriodicTrajectory,
    ResonantForcingError,
    ResonantScalarPath,
    build_projection,
    make_problem,
    reference_eigenvector,
    single_harmonic,
    solve_periodic_full,
    solve_periodic_nonresonant,
    solve_resonant_ode,
)

cfg = ExampleConfig(L=20.0, dx=0.2)
problem = make_problem(cfg)
rng = np.random.default_rng(7)

# -- manufactured solution, non-resonant content only ----------------------
n_t = 8
coeffs = np.zeros((n_t + 1, problem.dim), dtype=complex)
coeffs[2:] = rng.normal(size=(n_t - 1, problem.dim)) * 0.1
u0 = PeriodicTrajectory(coeffs, problem.dx)
v = u0.time_derivative() - u0.with_coeffs((problem.A @ u0.coeffs.T).T)
u = solve_periodic_nonresonant(problem, v)
print(f"manufactured recovery: relative error "
      f"{(u - u0).norm() / u0.norm():.2e}")

# -- scalar resonant equation c' - i c = g ---------------------------------
g_coeffs = rng.normal(size=2 * n_t + 1) + 1j * rng.normal(size=2 * n_t + 1)
g_coeffs[n_t + 1] = 0.0  # zero content at the resonant frequency
g = ResonantScalarPath(g_coeffs)
c = solve_resonant_ode(g)
ts = np.linspace(0, 2 * np.pi, 9)
ode_residual = np.abs(
    c.derivative().evaluate(ts) - 1j * c.evaluate(ts) - g.evaluate(ts)
).max()
print(f"resonant scalar ODE:   residual {ode_residual:.2e}, "
      f"pinned coefficient {abs(c.coeff(1)):.1e}")

# -- forcing with critical-frequency content, handled by deflation ---------
# Content at frequency +-1 is fine as long as it avoids the eigenvector
# itself: the solver splits it off and solves the complement through a
# bordered (deflated) factorisation.
decomp = build_projection(problem, reference=reference_eigenvector(cfg))
w = rng.normal(size=problem.dim) + 1j * rng.normal(size=problem.dim)
v_mixed = v + single_harmonic(decomp.complement(w), n_t, problem.dx)
u_mixed = solve_periodic_full(problem, decomp, v_mixed)
defect = (
    u_mixed.time_derivative()
    - u_mixed.with_coeffs((problem.A @ u_mixed.coeffs.T).T)
    - v_mixed
).norm()
print(f"critical-frequency forcing: solved, defect {defect:.2e}")

# -- the one unsolvable case ------------------------------------------------
secular = single_harmonic(decomp.psi, n_t)
try:
    solve_periodic_full(problem, decomp, secular)
except ResonantForcingError as exc:
    print(f"secular forcing:       refused ({exc})")
