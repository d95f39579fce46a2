"""Spectral checks at the equilibrium: the conditions for a bifurcation.

Everything the bifurcation argument needs from the linearisation is
verified here numerically:

* a simple eigenvalue pair on the imaginary axis (`eigenpair_near`,
  `check_simplicity`),
* the speed with which that eigenvalue crosses the axis as the parameter
  moves (`crossing_speed`, computed two independent ways and
  cross-checked),
* invertibility of ``i*n - A`` for the non-critical integer modes plus a
  uniform bound ``M`` on ``n * ||(i*n - A)^{-1}||`` (`resolvent_scan`),
* the rank-two spectral projection onto the critical pair
  (`build_projection`).

`run_hypothesis_checks` bundles all of it into a `HypothesisReport` with
one boolean verdict per condition.  Each verdict is computed independently
and a failure (or an outright error) in one check never poisons the
others.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, NamedTuple, Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .problem import (
    ConvergenceError,
    ResonanceError,
    linearization_matrix,
)
from .trajectory import ComplexStateVector

__all__ = [
    "EigenPair",
    "SimplicityCheck",
    "CrossingSpeed",
    "SpectralDecomposition",
    "HypothesisReport",
    "eigenpair_near",
    "check_simplicity",
    "crossing_speed",
    "resolvent_scan",
    "resolvent_norm",
    "inverse_power_sigma_min",
    "sparse_sigma_min",
    "build_projection",
    "run_hypothesis_checks",
]

SIMPLICITY_TOLERANCE = 1e-3
TRANSVERSALITY_TOLERANCE = 1e-6
EIG_RESIDUAL_TOLERANCE = 1e-8
#: Relative agreement required between the two crossing-speed computations.
CROSSING_AGREEMENT = 1e-4


class InconsistencyError(RuntimeError):
    """Two independent computations of the same quantity disagree."""


class DegeneratePairingError(RuntimeError):
    """The eigenvector pairs to ~0 against its adjoint (defective pair)."""


class EigenPair(NamedTuple):
    """An eigenvalue with its normalized eigenvector and defect."""

    mu: complex
    psi: ComplexStateVector
    residual: float


class SimplicityCheck(NamedTuple):
    """Outcome of `check_simplicity`."""

    margin: float
    simple: bool
    note: str = ""


def _operator_matrix(problem, lam):
    """``A + h_u(lam, 0)`` as a sparse matrix (just ``A`` when ``lam = 0``)."""
    if lam == 0.0:
        return problem.A
    return (problem.A + linearization_matrix(problem, lam)).tocsc()


def _normalize_phase(vec, dx):
    """Unit discrete norm and a deterministic phase (largest entry real > 0)."""
    k = int(np.argmax(np.abs(vec)))
    phase = vec[k] / abs(vec[k])
    out = vec / (phase * np.linalg.norm(vec) * np.sqrt(dx))
    return out


def eigenpair_near(problem, target, lam=0.0, max_iter=60, tol=1e-10,
                   adjoint=False, seed=7):
    """Find the eigenvalue of ``A + h_u(lam, 0)`` closest to ``target``.

    Shifted inverse iteration with Rayleigh-quotient readout; the shift
    starts slightly off ``target`` (so an exact eigenvalue at the target
    still factorises) and is re-centred once on the current Rayleigh
    quotient if progress stalls.

    Parameters
    ----------
    problem : ProblemDef
    target : complex
        Where to look.
    lam : float
        Parameter of the linearisation (0 = bare ``A``).
    adjoint : bool
        Solve for the transpose operator instead; use
        ``target = conj(mu)`` to get the adjoint vector of ``mu``.
    seed : int
        Seed for the start vector.

    Returns
    -------
    EigenPair
        With ``residual <= tol * max(1, |mu|)`` guaranteed.

    Raises
    ------
    ConvergenceError
        If the residual tolerance is not reached.
    """
    mat = _operator_matrix(problem, lam)
    if adjoint:
        mat = mat.T.tocsc()
    dim = mat.shape[0]
    rng = np.random.default_rng(seed)
    x = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    x /= np.linalg.norm(x)

    offset = 1e-4 * (1.0 + 1.0j) / np.sqrt(2.0)
    shift = complex(target) + offset
    eye = sp.identity(dim, format="csc", dtype=complex)
    lu = spla.splu(sp.csc_matrix(eye * shift - mat))

    mu = complex(target)
    residual = np.inf
    refactored = False
    for it in range(max_iter):
        y = lu.solve(x)
        x = y / np.linalg.norm(y)
        ax = mat @ x
        mu = complex(np.vdot(x, ax))
        residual = float(np.linalg.norm(ax - mu * x))
        if residual <= tol * max(1.0, abs(mu)):
            vec = _normalize_phase(x, problem.dx)
            return EigenPair(mu, ComplexStateVector(vec, problem.dx), residual)
        if not refactored and it >= 12:
            # Stalled: re-centre the shift on the Rayleigh quotient.
            refactored = True
            try:
                lu = spla.splu(sp.csc_matrix(eye * (mu + offset * 1e-3) - mat))
            except RuntimeError:
                pass  # keep the old factorisation
    raise ConvergenceError(
        f"eigen iteration stalled near {mu:.6f} with residual {residual:.2e}"
    )


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


def _lu_sigma_min(lu, max_steps, seed):
    """`inverse_power_sigma_min` on a SuperLU factor, from a complex start
    drawn with ``seed`` (or generator)."""
    rng = np.random.default_rng(seed)
    start = rng.normal(size=lu.shape[0]) + 1j * rng.normal(size=lu.shape[0])
    return inverse_power_sigma_min(
        lu.solve, lambda b: lu.solve(b, trans="H"), start, max_steps
    )


def sparse_sigma_min(matrix, max_steps, seed):
    """`inverse_power_sigma_min` through a fresh sparse LU of ``matrix``;
    a singular LU reads as ``(0.0, 0)``."""
    try:
        lu = spla.splu(sp.csc_matrix(matrix))
    except RuntimeError:
        return 0.0, 0
    return _lu_sigma_min(lu, max_steps, seed)


def check_simplicity(problem, pair, lam=0.0, tolerance=SIMPLICITY_TOLERANCE):
    """Decide whether an eigenpair is simple (1-D kernel, margin below).

    The margin is the second-smallest singular value of ``mu - A``,
    estimated as the smallest singular value of the bordered matrix

        [[mu - A, psi], [psi^H, 0]]

    which deflates the known kernel direction.  The pair counts as simple
    when the margin clears ``tolerance`` while the eigen-residual (an
    upper bound for the smallest singular value) is smaller by a factor
    ``1e8``.
    """
    mat = _operator_matrix(problem, lam)
    dim = mat.shape[0]
    psi = pair.psi.data / np.linalg.norm(pair.psi.data)
    shifted = sp.identity(dim, dtype=complex, format="csc") * pair.mu - mat
    bordered = sp.bmat(
        [[shifted, psi[:, None]], [psi[None, :].conj(), None]], format="csc"
    )
    margin, _ = sparse_sigma_min(bordered, 40, 11)
    if margin <= tolerance:
        return SimplicityCheck(margin, False,
                               f"margin {margin:.2e} <= {tolerance:g}")
    if not pair.residual < 1e-8 * margin:
        return SimplicityCheck(
            margin, False,
            f"eigen-residual {pair.residual:.2e} not << margin {margin:.2e}; "
            "no eigenvalue this close to the target",
        )
    return SimplicityCheck(margin, True)


class CrossingSpeed(NamedTuple):
    """d(mu)/d(lambda) at the bifurcation point, two ways.

    ``formula`` pairs the mixed derivative against the adjoint eigenvector;
    ``finite_difference`` tracks the eigenvalue at ``lam = +-dlam``.  The
    constructor-level cross-check guarantees they agree; ``value`` exposes
    the formula variant.
    """

    formula: complex
    finite_difference: complex
    dlam: float

    @property
    def value(self):
        return self.formula

    @property
    def transversal(self):
        return abs(self.formula.real) > TRANSVERSALITY_TOLERANCE


def crossing_speed(problem, dlam=1e-4, target=1j, decomp=None):
    """The eigenvalue's parameter-derivative at the bifurcation point.

    Computed two independent ways and cross-checked before returning:

    (a) central finite difference of `eigenpair_near` at ``lam = +-dlam``;
    (b) ``<h_lambda_u(0,0) psi, phi>`` with ``phi`` the adjoint eigenvector
        normalised against ``psi`` -- the perturbation-theory formula.

    Raises
    ------
    InconsistencyError
        If the two disagree beyond ``CROSSING_AGREEMENT`` (relative); this
        usually means ``dlam`` is too large or the adjoint pair is wrong.
    """
    problem.check_lambda(dlam)
    problem.check_lambda(-dlam)
    if decomp is None:
        decomp = build_projection(problem, target=target)
    psi, phi = decomp.psi, decomp.phi_adj

    mixed = problem.apply_h_lambda_u(0.0, np.zeros(problem.dim), psi.data.real)
    mixed = mixed + 1j * problem.apply_h_lambda_u(
        0.0, np.zeros(problem.dim), psi.data.imag
    )
    formula = complex(np.sum(mixed * np.conj(phi.data)) * problem.dx)

    plus = eigenpair_near(problem, target, lam=+dlam)
    minus = eigenpair_near(problem, target, lam=-dlam)
    fdiff = (plus.mu - minus.mu) / (2.0 * dlam)

    gap = abs(formula - fdiff)
    if gap > CROSSING_AGREEMENT * max(abs(formula), abs(fdiff)) + 1e-8:
        raise InconsistencyError(
            f"crossing-speed mismatch: formula {formula:.6e} vs "
            f"finite difference {fdiff:.6e} (dlam = {dlam:g})"
        )
    return CrossingSpeed(formula, fdiff, dlam)


def resolvent_norm(problem, z, probes=15, seed=13):
    """Estimate of ``||(z - A)^{-1}||_2 = 1 / sigma_min(z - A)``.

    Inverse power on the problem's cached, condition-guarded LU of ``z - A``
    (`ProblemDef.resolvent_lu`, shared with `ProblemDef.solve_resolvent`);
    a failed guard, as at an eigenvalue of ``A``, reads as ``inf``.
    """
    try:
        lu = problem.resolvent_lu(z)
    except ResonanceError:
        return np.inf
    sigma, _ = _lu_sigma_min(lu, probes, seed)
    return 1.0 / sigma if sigma > 0.0 else np.inf


class ResolventRow(NamedTuple):
    n: int
    norm_estimate: float
    weighted: float  # n * norm_estimate, the quantity that must stay bounded


def resolvent_scan(problem, n_max=16, probes=15):
    """Check invertibility of ``i*n - A`` over integer modes and bound it.

    For ``n = 0, 2, 3, ..., n_max`` the resolvent norm is estimated by
    `resolvent_norm`, one guarded factorization per mode; modes ``+-1`` are
    excluded (they carry the critical eigenvalues).  Returns ``(table,
    failures)`` where ``failures`` lists the modes whose estimate is not
    finite: ``i*n - A`` (numerically) singular.

    The quantity that must stay bounded in ``n`` is
    ``weighted = n * norm``; see `HypothesisReport` for the plateau
    verdict derived from this table.
    """
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    table: List[ResolventRow] = []
    failures: List[int] = []
    for n in [0] + list(range(2, n_max + 1)):
        est = resolvent_norm(problem, 1j * n, probes=probes)
        if not np.isfinite(est):
            failures.append(n)
            continue
        table.append(ResolventRow(n, est, n * est))
    return table, failures


def _resolvent_verdicts(table, failures, n_max, plateau_factor=1.05):
    """Non-resonance and resolvent-bound verdicts from a scan table.

    The bound verdict asks that ``n * norm`` has stopped growing: its
    maximum over the tail ``n > n_max/2`` must not exceed the maximum over
    the first half by more than ``plateau_factor``.  A finite scan cannot
    prove the infinite statement; this is the recorded heuristic.
    """
    nonresonant = not failures
    weighted = [(row.n, row.weighted) for row in table if row.n >= 2]
    if not weighted:
        return nonresonant, False, 0.0
    half = n_max / 2.0
    head = [w for n, w in weighted if n <= half]
    tail = [w for n, w in weighted if n > half]
    m_const = max(w for _, w in weighted)
    bounded = bool(head) and (not tail or max(tail) <= plateau_factor * max(head))
    return nonresonant, bounded, m_const


@dataclass(frozen=True)
class SpectralDecomposition:
    """The critical pair and the rank-two spectral projection onto it.

    ``P w = <w, phi_adj> psi + <w, conj(phi_adj)> conj(psi)`` with the
    normalisation ``<psi, phi_adj> = 1``, so ``P`` fixes ``psi`` and
    ``conj(psi)`` and (within eigen-residual accuracy) commutes with the
    operator.  ``complement`` gives the part of a vector in the invariant
    complement.
    """

    psi: ComplexStateVector
    phi_adj: ComplexStateVector
    mu: complex

    def project(self, w):
        data = w.data if isinstance(w, ComplexStateVector) else np.asarray(w, dtype=complex)
        dx = self.psi.dx
        c1 = complex(np.sum(data * np.conj(self.phi_adj.data)) * dx)
        c2 = complex(np.sum(data * self.phi_adj.data) * dx)
        out = c1 * self.psi.data + c2 * np.conj(self.psi.data)
        if isinstance(w, ComplexStateVector):
            return ComplexStateVector(out, dx)
        return out

    def complement(self, w):
        data = w.data if isinstance(w, ComplexStateVector) else np.asarray(w, dtype=complex)
        out = data - (self.project(data))
        if isinstance(w, ComplexStateVector):
            return ComplexStateVector(out, self.psi.dx)
        return out

    def coordinates(self, w):
        """The two complex coefficients of ``P w`` along ``psi, conj(psi)``."""
        data = w.data if isinstance(w, ComplexStateVector) else np.asarray(w, dtype=complex)
        dx = self.psi.dx
        return (
            complex(np.sum(data * np.conj(self.phi_adj.data)) * dx),
            complex(np.sum(data * self.phi_adj.data) * dx),
        )


def build_projection(problem, target=1j, reference=None, tol=1e-10):
    """Compute the critical eigenpair, its adjoint, and the projection.

    Parameters
    ----------
    problem : ProblemDef
    target : complex
        Where the critical eigenvalue is expected (defaults to ``i``).
    reference : ComplexStateVector, optional
        If given, the eigenvector is rescaled (complex scalar) to best
        match this profile instead of the default unit normalisation --
        used to pin amplitude conventions to an analytic profile.

    Raises
    ------
    DegeneratePairingError
        If ``<psi, phi>`` is numerically zero -- the pair is defective and
        no rank-two projection exists.
    """
    pair = eigenpair_near(problem, target, tol=tol)
    adj = eigenpair_near(problem, np.conj(complex(target)), adjoint=True, tol=tol)
    psi_vec = pair.psi.data
    if reference is not None:
        scale = complex(
            np.sum(np.conj(psi_vec) * reference.data)
            / np.sum(np.conj(psi_vec) * psi_vec)
        )
        psi_vec = psi_vec * scale
    phi_vec = adj.psi.data
    pairing = complex(np.sum(psi_vec * np.conj(phi_vec)) * problem.dx)
    norms = np.linalg.norm(psi_vec) * np.linalg.norm(phi_vec) * problem.dx
    # For a defective pair the pairing collapses towards 0 (here: to the
    # eigenvector accuracy); normalising against it would amplify errors by
    # the reciprocal, so refuse well before that becomes catastrophic.
    if abs(pairing) < 1e-4 * max(norms, 1e-300):
        raise DegeneratePairingError(
            f"<psi, phi> = {abs(pairing):.2e} (relative to norms "
            f"{norms:.2e}); eigenpair is numerically defective, no usable "
            "spectral projection onto it exists"
        )
    phi_vec = phi_vec / np.conj(pairing)
    dx = problem.dx
    return SpectralDecomposition(
        psi=ComplexStateVector(psi_vec, dx),
        phi_adj=ComplexStateVector(phi_vec, dx),
        mu=pair.mu,
    )


@dataclass
class HypothesisReport:
    """Everything the bifurcation needs from the linearisation, with verdicts.

    Verdict keys:

    * ``derivative_consistency`` -- supplied derivatives of ``h`` match
      finite differences;
    * ``simple_pair`` -- a simple eigenvalue sits at the target with a
      clean margin;
    * ``transversality`` -- the eigenvalue crosses the axis with nonzero
      speed as the parameter moves;
    * ``nonresonance`` -- ``i*n - A`` is invertible for all scanned
      ``n != +-1``;
    * ``resolvent_bound`` -- ``n * ||(i*n - A)^{-1}||`` has plateaued by
      the end of the scan.
    """

    problem_name: str
    eig_plus: Optional[EigenPair]
    simplicity: Optional[SimplicityCheck]
    crossing: Optional[CrossingSpeed]
    resolvent_table: List[ResolventRow]
    resolvent_failures: List[int]
    bound_constant: float
    verdicts: dict
    notes: dict = field(default_factory=dict)

    @property
    def all_passed(self):
        return all(self.verdicts.values())

    def to_json_dict(self):
        def cplx(z):
            return None if z is None else [float(np.real(z)), float(np.imag(z))]

        return {
            "schema": 1,
            "problem": self.problem_name,
            "eigenvalue": cplx(self.eig_plus.mu if self.eig_plus else None),
            "eig_residual": self.eig_plus.residual if self.eig_plus else None,
            "simplicity_margin": self.simplicity.margin if self.simplicity else None,
            "crossing_speed": cplx(self.crossing.formula if self.crossing else None),
            "crossing_speed_fd": cplx(
                self.crossing.finite_difference if self.crossing else None
            ),
            "bound_constant": self.bound_constant,
            "resolvent_table": [
                {"n": row.n, "norm_estimate": row.norm_estimate,
                 "weighted": row.weighted}
                for row in self.resolvent_table
            ],
            "resolvent_failures": list(self.resolvent_failures),
            "verdicts": dict(self.verdicts),
            "notes": dict(self.notes),
            "all_passed": self.all_passed,
        }

    def summary_lines(self):
        lines = [f"hypothesis checks for {self.problem_name}:"]
        for key in ("derivative_consistency", "simple_pair", "transversality",
                    "nonresonance", "resolvent_bound"):
            status = "pass" if self.verdicts.get(key) else "FAIL"
            extra = self.notes.get(key, "")
            lines.append(f"  {key:24s} {status}" + (f"  ({extra})" if extra else ""))
        if self.eig_plus is not None:
            lines.append(f"  eigenvalue            {self.eig_plus.mu:.8f}")
        if self.crossing is not None:
            lines.append(f"  crossing speed        {self.crossing.formula:.6f}")
        lines.append(f"  resolvent bound M     {self.bound_constant:.4f}")
        return lines


def run_hypothesis_checks(problem, target=1j, n_max=16, dlam=1e-4,
                          derivative_samples=4, seed=0):
    """Run every spectral check and collect independent verdicts.

    Each check runs in isolation: an exception inside one records a
    ``False`` verdict and a note for that key only, so a deliberately
    broken condition does not hide the state of the others.
    """
    verdicts = {}
    notes = {}

    report = problem.check_derivatives(samples=derivative_samples, seed=seed)
    verdicts["derivative_consistency"] = report.ok(1e-6)
    if not verdicts["derivative_consistency"]:
        notes["derivative_consistency"] = str(report)

    eig = None
    simplicity = None
    try:
        eig = eigenpair_near(problem, target)
        simplicity = check_simplicity(problem, eig)
        ok = simplicity.simple and eig.residual <= EIG_RESIDUAL_TOLERANCE
        verdicts["simple_pair"] = bool(ok)
        if simplicity.note:
            notes["simple_pair"] = simplicity.note
    except (ConvergenceError, RuntimeError) as exc:
        verdicts["simple_pair"] = False
        notes["simple_pair"] = str(exc)

    crossing = None
    try:
        crossing = crossing_speed(problem, dlam=dlam, target=target)
        verdicts["transversality"] = crossing.transversal
        if not crossing.transversal:
            notes["transversality"] = (
                f"Re crossing speed {crossing.formula.real:.2e} below "
                f"{TRANSVERSALITY_TOLERANCE:g}"
            )
    except (InconsistencyError, DegeneratePairingError, ConvergenceError) as exc:
        verdicts["transversality"] = False
        notes["transversality"] = str(exc)

    table, failures = resolvent_scan(problem, n_max=n_max)
    nonres, bounded, m_const = _resolvent_verdicts(table, failures, n_max)
    verdicts["nonresonance"] = nonres
    if failures:
        notes["nonresonance"] = f"singular at n = {failures}"
    verdicts["resolvent_bound"] = bounded
    if not bounded:
        notes["resolvent_bound"] = "n * norm still growing at scan end"

    return HypothesisReport(
        problem_name=problem.name,
        eig_plus=eig,
        simplicity=simplicity,
        crossing=crossing,
        resolvent_table=table,
        resolvent_failures=failures,
        bound_constant=m_const,
        verdicts=verdicts,
        notes=notes,
    )
