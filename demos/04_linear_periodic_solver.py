"""The linear periodic solver, probed directly.

`solve_periodic_full` solves

    u_t - B u = v,   u 2*pi-periodic,

in temporal Fourier space; `decompose_crossing_term` lifts its remainder
through it.  (Newton steps do not: they solve the banded Jacobian of the
full nonlinear system.)  Each mode splits by the spectral projection onto
the critical pair ``B psi = i psi``.  Along ``psi`` the equation is the
scalar ODE ``c' - i c = g``, solved by ``c_hat(n) = g_hat(n) / (i (n - 1))``;
the complement is a shifted linear solve, bordered with the eigenpair at the
critical frequency.  This demo drives each part and shows the one genuinely
unsolvable input being refused.
"""

import numpy as np

from hopfkit import (
    ExampleConfig,
    PeriodicTrajectory,
    ResonantForcingError,
    build_projection,
    make_problem,
    reference_eigenvector,
    single_harmonic,
    solve_periodic_full,
)

cfg = ExampleConfig(L=20.0, dx=0.2)
problem = make_problem(cfg)
decomp = build_projection(problem, reference=reference_eigenvector(cfg))
psi = decomp.psi.data
rng = np.random.default_rng(7)


def defect(u, v):
    linear = u.with_coeffs((problem.operator() @ u.coeffs.T).T)
    return (u.time_derivative() - linear - v).norm()


# -- manufactured solution on the modes n >= 2 -----------------------------
n_t = 8
coeffs = np.zeros((n_t + 1, problem.dim), dtype=complex)
coeffs[2:] = rng.normal(size=(n_t - 1, problem.dim)) * 0.1
u0 = PeriodicTrajectory(coeffs, problem.dx)
v = u0.time_derivative() - u0.with_coeffs((problem.operator() @ u0.coeffs.T).T)
u = solve_periodic_full(problem, decomp, v)
print(f"manufactured recovery: relative error "
      f"{(u - u0).norm() / u0.norm():.2e}")

# -- forcing along psi against the scalar closed form -----------------------
# g(t) psi + conj(g(t) psi) with g on the modes -n_t .. n_t, none at n = 1;
# mode n of the real forcing carries g(n) along psi and conj(g(-n)) along
# conj(psi), and the solution's coordinates are the closed-form quotients.
ns = np.arange(-n_t, n_t + 1)
g = rng.normal(size=ns.size) + 1j * rng.normal(size=ns.size)
g[ns == 1] = 0.0
v_psi = PeriodicTrajectory(
    [g[n_t + n] * psi + np.conj(g[n_t - n] * psi) for n in range(n_t + 1)],
    problem.dx,
)
u_psi = solve_periodic_full(problem, decomp, v_psi)
pairs = [decomp.coordinates(col) for col in u_psi.coeffs]
c = np.array([np.conj(h) for _, h in pairs[:0:-1]] + [a for a, _ in pairs])
closed = np.zeros_like(g)
closed[ns != 1] = g[ns != 1] / (1j * (ns[ns != 1] - 1))
print(f"scalar ODE along psi:  max gap to g(n) / (i (n - 1)) "
      f"{np.abs(c - closed).max():.2e}, coefficient at n = 1 {abs(c[n_t + 1]):.1e}")

# -- forcing with critical-frequency content, handled by deflation ---------
# Content at frequency +-1 is fine as long as it avoids the eigenvector
# itself: the solver splits it off and solves the complement through a
# bordered (deflated) factorisation.
w = rng.normal(size=problem.dim) + 1j * rng.normal(size=problem.dim)
v_mixed = v + single_harmonic(decomp.complement(w), n_t, problem.dx)
u_mixed = solve_periodic_full(problem, decomp, v_mixed)
print(f"critical-frequency forcing: solved, defect {defect(u_mixed, v_mixed):.2e}")

# -- the one unsolvable case ------------------------------------------------
secular = single_harmonic(decomp.psi, n_t)
try:
    solve_periodic_full(problem, decomp, secular)
except ResonantForcingError as exc:
    print(f"secular forcing:       refused ({exc})")
else:
    raise SystemExit("secular forcing was not refused")
