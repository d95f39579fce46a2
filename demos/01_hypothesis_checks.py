"""Verify the spectral hypotheses behind a Hopf bifurcation.

Before trusting any branch computation, the toolkit checks the conditions
that make the bifurcation well-posed, all on the linearisation
B = A + h_u(0, 0) at the equilibrium:

  * the supplied derivative callables are mutually consistent,
  * the critical eigenvalue pair +-i is simple,
  * the eigenvalues cross the imaginary axis with nonzero speed,
  * no other temporal mode i*n lies in the spectrum,
  * the resolvent norms n * ||(i n - B)^-1|| level off.

Each condition gets its own verdict, so a broken assumption points at
itself instead of producing a mysterious solver failure downstream.
"""

import numpy as np
import scipy.linalg as sla

from hopfkit import ExampleConfig, make_problem, run_hypothesis_checks
from hopfkit.problem import ProblemDef

# A coarse version of the built-in reaction-diffusion example keeps this
# demo instant; drop dx for production work.
cfg = ExampleConfig(L=20.0, dx=0.2)
problem = make_problem(cfg)

report = run_hypothesis_checks(problem, n_max=8)
for line in report.summary_lines():
    print(line)
print()

# Now break exactly one condition on purpose.  This 4-dimensional toy has
# its critical rotation at frequency 2, so the second temporal mode hits
# the spectrum: the scan must flag non-resonance and nothing else.
a = sla.block_diag(
    np.array([[0.0, -2.0], [2.0, 0.0]]), np.diag([-3.0, -4.0])
)
toy = ProblemDef(
    A=a,
    apply_h=lambda lam, w: lam * w,
    apply_h_u=lambda lam, w, v: lam * v,
    apply_h_lambda=lambda lam, w: np.asarray(w, dtype=float),
    apply_h_lambda_u=lambda lam, w, v: np.asarray(v, dtype=float),
    dx=1.0, name="overtone-in-spectrum",
)
broken = run_hypothesis_checks(toy, target=2j, n_max=8)
for line in broken.summary_lines():
    print(line)

assert report.all_passed
assert not broken.verdicts["nonresonance"]
assert broken.verdicts["simple_pair"] and broken.verdicts["transversality"]
print("\nthe broken toy flips exactly the non-resonance verdict")
