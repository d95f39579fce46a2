"""Spectral checks at the equilibrium: the conditions for a bifurcation.

Everything the bifurcation argument needs from the linearisation
``B = A + h_u(0, 0)`` (`ProblemDef.operator`) is verified here numerically:

* a simple eigenvalue pair on the imaginary axis (`eigenpair_near`,
  `check_simplicity`),
* the speed with which that eigenvalue crosses the axis as the parameter
  moves (`crossing_speed`, computed two independent ways and
  cross-checked),
* invertibility of ``i*n - B`` for the non-critical integer modes plus a
  uniform bound ``M`` on ``n * ||(i*n - B)^{-1}||`` (`resolvent_scan`),
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
import scipy.sparse.linalg as spla

from .problem import (
    RESOLVENT_PROBES,
    RESOLVENT_SEED,
    ConvergenceError,
    _guarded_lu,
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
    "build_projection",
    "run_hypothesis_checks",
]

SIMPLICITY_TOLERANCE = 1e-3
#: Step cap and start seed of `check_simplicity`'s inverse power iteration.
SIMPLICITY_STEPS = 40
SIMPLICITY_SEED = 11
TRANSVERSALITY_TOLERANCE = 1e-6
EIG_RESIDUAL_TOLERANCE = 1e-8
EIG_ITERATION_TOLERANCE = 1e-10
EIG_START_SEED = 7
#: Relative agreement required between the two crossing-speed computations.
CROSSING_AGREEMENT = 1e-4
PLATEAU_FACTOR = 1.05
DERIVATIVE_SAMPLES = 4


class InconsistencyError(RuntimeError):
    """Two independent computations of the same quantity disagree."""


class DegeneratePairingError(RuntimeError):
    """The eigenvector pairs to ~0 against its adjoint (defective pair)."""


class EigenPair(NamedTuple):
    """An eigenvalue with its normalized eigenvector and defect.

    ``lu`` is the factor that located a right pair, for its adjoint; a
    stored pair drops it, as it holds SuperLU's whole work pool.
    """

    mu: complex
    psi: ComplexStateVector
    residual: float
    lu: Optional[spla.SuperLU] = None


class SimplicityCheck(NamedTuple):
    """Outcome of `check_simplicity`."""

    margin: float
    simple: bool
    note: str = ""


def _normalize_phase(vec, dx):
    """Unit discrete norm and a deterministic phase (largest entry real > 0)."""
    k = int(np.argmax(np.abs(vec)))
    phase = vec[k] / abs(vec[k])
    return vec / (phase * np.linalg.norm(vec) * np.sqrt(dx))


def eigenpair_near(problem, target, lam=0.0, max_iter=60, adjoint_of=None):
    """Find the eigenvalue of ``A + h_u(lam, 0)`` closest to ``target``.

    Shifted inverse iteration with Rayleigh-quotient readout from a random
    start vector (seed `EIG_START_SEED`); the shift starts slightly off
    ``target`` (so an exact eigenvalue at the target still factorises) and
    is re-centred once on the current Rayleigh quotient if progress stalls.

    Parameters
    ----------
    problem : ProblemDef
    target : complex
        Where to look.
    lam : float
        Parameter of the linearisation (0 = ``B``, the equilibrium's).
    adjoint_of : EigenPair, optional
        A right pair that still holds its factor ``lu``: find its adjoint
        near ``target = conj(mu)`` by solving with ``trans='H'`` on ``lu``.

    Returns
    -------
    EigenPair
        ``residual <= EIG_ITERATION_TOLERANCE * max(1, |mu|)`` guaranteed;
        only a right pair carries its factor ``lu``.

    Raises
    ------
    ConvergenceError
        If the residual tolerance is not reached.
    """
    adjoint = adjoint_of is not None
    mat = problem.operator(lam).T if adjoint else problem.operator(lam)

    def factor(z):
        # B is real, so through "H" the factor of conj(z) - B solves z - B^T.
        return spla.splu(problem.shifted(np.conj(z) if adjoint else z, lam))

    rng = np.random.default_rng(EIG_START_SEED)
    x = rng.normal(size=problem.dim) + 1j * rng.normal(size=problem.dim)
    x /= np.linalg.norm(x)

    offset = 1e-4 * (1.0 + 1.0j) / np.sqrt(2.0)
    lu = adjoint_of.lu if adjoint else factor(complex(target) + offset)

    mu, residual = complex(target), np.inf
    for it in range(max_iter):
        y = lu.solve(x, "H" if adjoint else "N")
        x = y / np.linalg.norm(y)
        ax = mat @ x
        mu = complex(np.vdot(x, ax))
        residual = float(np.linalg.norm(ax - mu * x))
        if residual <= EIG_ITERATION_TOLERANCE * max(1.0, abs(mu)):
            vec = _normalize_phase(x, problem.dx)
            return EigenPair(mu, ComplexStateVector(vec, problem.dx), residual,
                             None if adjoint else lu)
        if it == 12:
            # Stalled: re-centre the shift on the Rayleigh quotient, once.
            try:
                lu = factor(mu + offset * 1e-3)
            except RuntimeError:
                pass  # keep the old factorisation
    raise ConvergenceError(
        f"eigen iteration stalled near {mu:.6f} with residual {residual:.2e}"
    )


def check_simplicity(problem, pair):
    """Decide whether an eigenpair is simple (1-D kernel, margin below).

    The margin is the second-smallest singular value of ``mu - B``
    (``B = A + h_u(0, 0)``), estimated as the smallest singular value of
    the bordered matrix

        [[mu - B, psi], [psi^H, 0]]

    which deflates the known kernel direction: the condition guard's
    estimate (`problem._guarded_lu`) in `SIMPLICITY_STEPS` steps from
    `SIMPLICITY_SEED`, a failed guard read as 0.  The pair counts as
    simple when the margin clears `SIMPLICITY_TOLERANCE` while the
    eigen-residual (an upper bound for the smallest singular value) is
    smaller by a factor ``1e8``.
    """
    psi = pair.psi.data / np.linalg.norm(pair.psi.data)
    _, margin, _, _ = _guarded_lu(
        problem.shifted(pair.mu), (psi[:, None], psi[None, :].conj()),
        SIMPLICITY_STEPS, SIMPLICITY_SEED)
    if margin <= SIMPLICITY_TOLERANCE:
        return SimplicityCheck(
            margin, False, f"margin {margin:.2e} <= {SIMPLICITY_TOLERANCE:g}")
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
    constructor-level cross-check guarantees they agree.
    """

    formula: complex
    finite_difference: complex
    dlam: float

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

    plus = eigenpair_near(problem, target, lam=+dlam).mu
    minus = eigenpair_near(problem, target, lam=-dlam).mu
    fdiff = (plus - minus) / (2.0 * dlam)

    gap = abs(formula - fdiff)
    if gap > CROSSING_AGREEMENT * max(abs(formula), abs(fdiff)) + 1e-8:
        raise InconsistencyError(
            f"crossing-speed mismatch: formula {formula:.6e} vs "
            f"finite difference {fdiff:.6e} (dlam = {dlam:g})"
        )
    return CrossingSpeed(formula, fdiff, dlam)


def _resolvent_sigma_min(problem, z, max_steps, seed):
    """``(sigma, steps)``: sigma_min(z - B), proved or estimated.

    For ``|Im z| > beta = problem.skew_bound`` it is the proved lower bound
    ``|Im z| - beta`` in 0 steps, with no factor: for a unit ``x``,
    ``||(z - B) x|| >= |x^H (z - B) x| >= |Im z| - beta``.  Otherwise it
    is the estimate of the condition guard of one LU
    (`problem._guarded_lu`, the factorization `ProblemDef.solve_resolvent`
    takes), in at most ``max_steps`` steps from ``seed`` (or generator);
    the LU is freed on return, and a failed guard, as at an eigenvalue of
    ``B``, reads as ``sigma = 0``."""
    margin = abs(complex(z).imag) - problem.skew_bound
    if margin > 0.0:
        return margin, 0
    _, sigma, steps, _ = _guarded_lu(problem.shifted(z), steps=max_steps,
                                     seed=seed)
    return sigma, steps


def resolvent_norm(problem, z):
    """Proved bound or estimate of ``||(z - B)^{-1}||_2 = 1 / sigma_min(z - B)``.

    `_resolvent_sigma_min` with the condition guard's defaults
    (`problem.RESOLVENT_PROBES` steps from `problem.RESOLVENT_SEED`): a
    proved upper bound for ``|Im z| > problem.skew_bound``, else the
    estimate `ProblemDef.resolvent_lu` reads; a failed guard reads as
    ``inf``.
    """
    sigma, _ = _resolvent_sigma_min(problem, z, RESOLVENT_PROBES, RESOLVENT_SEED)
    return 1.0 / sigma if sigma > 0.0 else np.inf


class ResolventRow(NamedTuple):
    n: int
    norm_estimate: float
    weighted: float  # n * norm_estimate, the quantity that must stay bounded


def resolvent_scan(problem, n_max=16):
    """Check invertibility of ``i*n - B`` over integer modes and bound it.

    For ``n = 0, 2, 3, ..., n_max`` the resolvent norm comes from
    `resolvent_norm`: a proved bound with no factorization for the tail
    modes ``n > problem.skew_bound``, and one guarded factorization per
    head mode; modes ``+-1`` are excluded (they carry the critical
    eigenvalues).  Returns ``(table, failures)`` where ``failures`` lists
    the modes whose value is not finite: ``i*n - B`` (numerically)
    singular.

    The quantity that must stay bounded in ``n`` is
    ``weighted = n * norm``; see `HypothesisReport` for the plateau
    verdict derived from this table.
    """
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    table: List[ResolventRow] = []
    failures: List[int] = []
    for n in [0] + list(range(2, n_max + 1)):
        est = resolvent_norm(problem, 1j * n)
        if not np.isfinite(est):
            failures.append(n)
            continue
        table.append(ResolventRow(n, est, n * est))
    return table, failures


def _resolvent_verdicts(table, failures, n_max):
    """Non-resonance and resolvent-bound verdicts from a scan table.

    The bound verdict asks that ``n * norm`` has stopped growing: its
    maximum over the tail ``n > n_max/2`` must not exceed the maximum over
    the first half by more than `PLATEAU_FACTOR`.  A finite scan cannot
    prove the infinite statement; this is the recorded heuristic.  The
    rows with ``n > skew_bound`` are proved bounds that over-state the
    norm, so on a non-normal operator they can only turn a pass into a
    fail.
    """
    nonresonant = not failures
    weighted = [(row.n, row.weighted) for row in table if row.n >= 2]
    if not weighted:
        return nonresonant, False, 0.0
    half = n_max / 2.0
    head = [w for n, w in weighted if n <= half]
    tail = [w for n, w in weighted if n > half]
    m_const = max(w for _, w in weighted)
    bounded = bool(head) and (not tail or max(tail) <= PLATEAU_FACTOR * max(head))
    return nonresonant, bounded, m_const


@dataclass(frozen=True)
class SpectralDecomposition:
    """The critical pair and the rank-two spectral projection onto it.

    ``P w = <w, phi_adj> psi + <w, conj(phi_adj)> conj(psi)`` with the
    normalisation ``<psi, phi_adj> = 1``, so ``P`` fixes ``psi`` and
    ``conj(psi)`` and (within eigen-residual accuracy) commutes with the
    operator.  ``complement`` gives the part of a vector in the invariant
    complement.  Vectors are flat arrays.
    """

    psi: ComplexStateVector
    phi_adj: ComplexStateVector
    mu: complex

    def project(self, w):
        c1, c2 = self.coordinates(w)
        return c1 * self.psi.data + c2 * np.conj(self.psi.data)

    def complement(self, w):
        return np.asarray(w, dtype=complex) - self.project(w)

    def coordinates(self, w):
        """The two complex coefficients of ``P w`` along ``psi, conj(psi)``."""
        data = np.asarray(w, dtype=complex)
        dx = self.psi.dx
        return (
            complex(np.sum(data * np.conj(self.phi_adj.data)) * dx),
            complex(np.sum(data * self.phi_adj.data) * dx),
        )


def build_projection(problem, target=1j, reference=None):
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
    pair = eigenpair_near(problem, target)
    adj = eigenpair_near(problem, np.conj(target), adjoint_of=pair)
    return _projection_from_pair(problem, pair, adj, reference)


def _projection_from_pair(problem, pair, adj, reference=None):
    """`build_projection` from a located critical ``pair`` and its adjoint
    ``adj``, with no eigen-iteration; `DegeneratePairingError` as there."""
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
    * ``nonresonance`` -- ``i*n - B`` is invertible for all scanned
      ``n != +-1``;
    * ``resolvent_bound`` -- ``n * ||(i*n - B)^{-1}||`` has plateaued by
      the end of the scan.

    ``skew_bound`` is the problem's ``beta``: the resolvent rows with
    ``n > beta`` are proved bounds, the others estimates.  ``eig_adjoint``
    (not serialised) is the adjoint of ``eig_plus``; neither holds a factor.
    """

    problem_name: str
    eig_plus: Optional[EigenPair]
    eig_adjoint: Optional[EigenPair]
    simplicity: Optional[SimplicityCheck]
    crossing: Optional[CrossingSpeed]
    resolvent_table: List[ResolventRow]
    resolvent_failures: List[int]
    bound_constant: float
    skew_bound: float
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
            "skew_bound": self.skew_bound,
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
        lines.append(f"  resolvent bound M     {self.bound_constant:.4f}  "
                     f"(proved for n > beta = {self.skew_bound:.6g})")
        return lines


def run_hypothesis_checks(problem, target=1j, n_max=16, seed=0):
    """Run every spectral check and collect independent verdicts.

    Each check runs in isolation: an exception inside one records a
    ``False`` verdict and a note for that key only, so a deliberately
    broken condition does not hide the state of the others; the crossing
    speed reuses the ``simple_pair`` eigenpair, and its factor for the
    adjoint, when there is one.  Raises `ValueError` for ``n_max < 4``,
    where the bound verdict has no head.  The derivatives are checked at
    `DERIVATIVE_SAMPLES` states from ``seed``.
    """
    if n_max < 4:
        raise ValueError("n_max must be at least 4")
    verdicts = {}
    notes = {}

    report = problem.check_derivatives(samples=DERIVATIVE_SAMPLES, seed=seed)
    verdicts["derivative_consistency"] = report.ok
    if not verdicts["derivative_consistency"]:
        notes["derivative_consistency"] = str(report)

    eig = simplicity = None
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

    adj = crossing = decomp = None
    try:
        if eig is not None:
            try:
                adj = eigenpair_near(problem, np.conj(target), adjoint_of=eig)
            finally:
                eig = eig._replace(lu=None)
            decomp = _projection_from_pair(problem, eig, adj)
        crossing = crossing_speed(problem, target=target, decomp=decomp)
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
        eig_adjoint=adj,
        simplicity=simplicity,
        crossing=crossing,
        resolvent_table=table,
        resolvent_failures=failures,
        bound_constant=m_const,
        skew_bound=problem.skew_bound,
        verdicts=verdicts,
        notes=notes,
    )
