import json

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rotation_block, skewed_rotation_block, synthetic_problem
from hopfkit.problem import RESOLVENT_PROBES, RESOLVENT_SEED, ConvergenceError
from hopfkit.reaction_diffusion import (
    ExampleConfig,
    make_problem,
    reference_eigenvector,
)
from hopfkit.spectral import (
    DegeneratePairingError,
    _resolvent_sigma_min,
    EigenPair,
    InconsistencyError,
    build_projection,
    check_simplicity,
    crossing_speed,
    eigenpair_near,
    resolvent_norm,
    resolvent_scan,
    run_hypothesis_checks,
)
from hopfkit.trajectory import ComplexStateVector


# ---------------------------------------------------------------------------
# eigenpair location


def test_eigenpair_consistent_mode_exact(coarse_cfg, coarse_problem):
    pair = eigenpair_near(coarse_problem, 1j)
    assert abs(pair.mu - 1j) <= 1e-10
    assert pair.residual <= 1e-10
    # Collinear with the analytic profile (kappa, -i kappa).
    ref = reference_eigenvector(coarse_cfg)
    c = np.vdot(pair.psi.data, ref.data) / np.vdot(pair.psi.data, pair.psi.data)
    defect = np.abs(c * pair.psi.data - ref.data).max() / np.abs(ref.data).max()
    assert defect <= 1e-8


def test_eigenpair_standard_mode_close(coarse_standard_problem):
    pair = eigenpair_near(coarse_standard_problem, 1j)
    assert abs(pair.mu - 1j) <= 5e-3
    assert pair.residual <= 1e-10


def test_eigenvalue_grid_convergence_second_order():
    mus = []
    for dx in (0.2, 0.1, 0.05):
        p = make_problem(ExampleConfig(L=20.0, dx=dx,
                                       discretely_consistent_rho=False))
        mus.append(eigenpair_near(p, 1j).mu)
    ratio = abs(mus[0] - mus[1]) / abs(mus[1] - mus[2])
    assert 3.5 <= ratio <= 4.5


def test_conjugate_eigenpair(coarse_problem):
    plus = eigenpair_near(coarse_problem, 1j)
    minus = eigenpair_near(coarse_problem, -1j)
    assert abs(minus.mu - np.conj(plus.mu)) <= 1e-9
    # Eigenvectors collinear with each other's conjugates.
    overlap = abs(np.vdot(minus.psi.data, np.conj(plus.psi.data)))
    overlap /= np.linalg.norm(minus.psi.data) * np.linalg.norm(plus.psi.data)
    assert overlap >= 1.0 - 1e-9


def test_eigenpair_matches_dense_oracle(coarse_problem):
    evals = np.linalg.eigvals(coarse_problem.A.toarray())
    nearest = evals[np.argmin(np.abs(evals - 1j))]
    pair = eigenpair_near(coarse_problem, 1j)
    assert abs(pair.mu - nearest) <= 1e-8


def test_eigenpair_nonconvergence_reports():
    # A scrambled dense block has no isolated eigenvalue near the target;
    # the fixed-iteration budget must end in a ConvergenceError, not junk.
    rng = np.random.default_rng(0)
    a = rng.normal(size=(6, 6))
    p = synthetic_problem(a - 4 * np.eye(6))
    with pytest.raises(ConvergenceError):
        eigenpair_near(p, 1j, max_iter=2)


@pytest.mark.parametrize("target, factorizations", [(1.08j, 2), (1.02j, 1)])
def test_eigenpair_recentres_a_stalled_shift(monkeypatch, target,
                                             factorizations):
    # Eigenvalues +-i and +-1.2i: from 1.08i the iteration contracts only
    # by 0.08 / 0.12 per step, stalls, and re-centres its shift once on the
    # Rayleigh quotient; from 1.02i it converges on the first factor.
    import hopfkit.spectral as spectral_module

    calls = []
    splu = spectral_module.spla.splu

    def counting_splu(matrix, *args, **kwargs):
        calls.append(matrix.shape)
        return splu(matrix, *args, **kwargs)

    monkeypatch.setattr(spectral_module.spla, "splu", counting_splu)
    p = synthetic_problem(sla.block_diag(
        rotation_block()[:2, :2], rotation_block(freq=1.2)[:2, :2]))
    pair = eigenpair_near(p, target)
    assert abs(pair.mu - 1j) <= 1e-10
    assert pair.residual <= 1e-10
    assert len(calls) == factorizations


# ---------------------------------------------------------------------------
# simplicity


def test_simplicity_margin_matches_dense_sigma2(coarse_problem):
    pair = eigenpair_near(coarse_problem, 1j)
    result = check_simplicity(coarse_problem, pair)
    assert result.simple
    sv = sla.svdvals(1j * np.eye(coarse_problem.dim) - coarse_problem.A.toarray())
    sigma2 = sv[-2]
    assert result.margin > 1e-3
    assert abs(result.margin - sigma2) <= 1e-3 * sigma2


def test_double_eigenvalue_not_simple():
    a = np.kron(np.eye(2), rotation_block()[:2, :2])  # +-i twice
    a = sla.block_diag(a, np.diag([-2.0, -3.0]))
    p = synthetic_problem(a)
    pair = eigenpair_near(p, 1j)
    result = check_simplicity(p, pair)
    assert not result.simple
    assert result.margin <= 1e-3


def test_regular_point_not_reported_simple():
    # Feed a fabricated "pair" at a resolvent point: the residual cannot be
    # small, and the check must refuse rather than report a clean margin.
    p = synthetic_problem(rotation_block())
    mu = 0.5 + 0.2j
    psi = np.array([1.0, 1j, 0.3, -0.2]) / np.sqrt(2.15)
    resid = float(np.linalg.norm(p.A @ psi - mu * psi))
    fake = EigenPair(mu, ComplexStateVector(psi, 1.0), resid)
    result = check_simplicity(p, fake)
    assert not result.simple
    assert "residual" in result.note


# ---------------------------------------------------------------------------
# crossing speed


def test_crossing_speed_reaction_diffusion(coarse_problem):
    cs = crossing_speed(coarse_problem)
    assert abs(cs.formula - 2.0 / 3.0) <= 1e-2
    assert abs(cs.formula.imag) <= 1e-6
    assert abs(cs.finite_difference - cs.formula) <= 1e-4 * abs(cs.formula) + 1e-8
    assert cs.transversal


def test_crossing_speed_zero_when_h_lambda_u_vanishes():
    p = synthetic_problem(rotation_block(), h="zero")
    cs = crossing_speed(p, dlam=1e-3)
    assert abs(cs.formula) <= 1e-12
    assert not cs.transversal


def test_crossing_speed_identity_shift():
    c = 0.37
    p = synthetic_problem(rotation_block(), h="linear", c=c)
    cs = crossing_speed(p, dlam=1e-3)
    assert abs(cs.formula - c) <= 1e-8
    assert abs(cs.finite_difference - c) <= 1e-8
    assert cs.transversal


def test_crossing_speed_inconsistency_detected():
    # Lie about the mixed derivative: the finite-difference track will
    # disagree and the cross-check must flag it.
    p = synthetic_problem(rotation_block(), h="linear", c=1.0)
    lying = synthetic_problem(rotation_block(), h="linear", c=1.0)
    object.__setattr__(lying, "apply_h_lambda_u",
                       lambda lam, w, v: 3.0 * np.asarray(v, dtype=float))
    with pytest.raises(InconsistencyError):
        crossing_speed(lying, dlam=1e-3)
    # sanity: the honest problem passes
    crossing_speed(p, dlam=1e-3)


# ---------------------------------------------------------------------------
# resolvent scan


def test_resolvent_scan_reaction_diffusion(coarse_problem):
    table, failures = resolvent_scan(coarse_problem, n_max=16)
    assert failures == []
    ns = [row.n for row in table]
    assert ns == [0] + list(range(2, 17))
    # Dense oracle: A is normal here, so the norm is 1/dist(i n, spec A),
    # which is 1/(n - 1) for the scanned modes.
    # The rows n >= 2 lie above the skew bound beta = 1 (up to rounding),
    # so they are the proved bound 1/(n - beta), which attains it.
    for row in table:
        if row.n >= 2:
            assert abs(row.norm_estimate - 1.0 / (row.n - 1)) <= 1e-12 / (row.n - 1)
    weighted = [row.weighted for row in table if row.n >= 2]
    assert max(weighted) == weighted[0]  # peak at n = 2, then decay
    assert abs(max(weighted) - 2.0) <= 1e-12


def test_resolvent_diagnostic_blows_up_at_critical_mode(coarse_problem):
    assert resolvent_norm(coarse_problem, 1j) >= 1e6


def test_resolvent_scan_detects_resonance_at_two():
    a = sla.block_diag(rotation_block(freq=2.0)[:2, :2], np.diag([-3.0, -4.0]))
    p = synthetic_problem(a)
    table, failures = resolvent_scan(p, n_max=8)
    assert failures == [2]
    assert all(row.n != 2 for row in table)


def test_resolvent_scan_factorises_each_head_mode_once(monkeypatch):
    import hopfkit.problem as problem_module

    shifts = []
    splu = problem_module.spla.splu

    def counting_splu(matrix, *args, **kwargs):
        shifts.append(complex(matrix[0, 0]))  # z - B[0, 0], and B[0, 0] = 0
        return splu(matrix, *args, **kwargs)

    monkeypatch.setattr(problem_module.spla, "splu", counting_splu)
    p = synthetic_problem(skewed_rotation_block())
    beta = p.skew_bound
    assert 2.5 <= beta <= 2.5 * (1 + 1e-15)
    table, failures = resolvent_scan(p, n_max=8)
    assert failures == []
    assert [row.n for row in table] == [0, 2, 3, 4, 5, 6, 7, 8]
    # One guarded LU per head mode, none repeated, none for the tail.
    assert shifts == [0j, 2j]
    for row in table[2:]:
        assert row.norm_estimate == 1.0 / (row.n - beta)


def _advection_operator(m, speed, rng):
    """Centred advection-diffusion on ``m`` points per field, fields coupled
    by a random diagonal: the skew part is the advection stencil."""
    lap = sp.diags([1.0, -2.0, 1.0], [-1, 0, 1], shape=(m, m))
    adv = sp.diags([-speed, speed], [-1, 1], shape=(m, m))
    coupling = sp.diags(rng.normal(size=m))
    return sp.bmat([[lap + adv, coupling], [-coupling, lap - adv]])


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    m=st.integers(1, 8),
    advection=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    ulps=st.one_of(st.integers(1, 8), st.just(0)),
    gap=st.floats(0.0, 6.0),
    re_z=st.floats(-3.0, 3.0),
    sign=st.sampled_from([-1.0, 1.0]),
)
def test_skew_bound_is_a_lower_bound_for_sigma_min(m, advection, seed, ulps,
                                                   gap, re_z, sign):
    # Random sparse non-normal B, or an advection-like skew stencil, at a
    # z above the strip |Im z| <= beta: from a few ulps of beta (ulps > 0)
    # to several units (ulps = 0) away.
    rng = np.random.default_rng(seed)
    if advection:
        b = _advection_operator(m, rng.uniform(0.1, 5.0), rng)
    else:
        b = sp.random(2 * m, 2 * m, density=0.4, random_state=rng,
                      data_rvs=lambda k: rng.normal(scale=3.0, size=k))
    p = synthetic_problem(b.toarray())
    beta = p.skew_bound
    dense = p.operator().toarray()
    skew = (dense - dense.T) / 2.0
    assert np.linalg.norm(skew, 2) <= beta
    im_z = beta * (1.0 + ulps * np.finfo(float).eps) if ulps else beta + gap
    if not im_z > beta:
        im_z = np.nextafter(beta, np.inf)
    z = complex(re_z, sign * im_z)
    sigma, steps = _resolvent_sigma_min(p, z, RESOLVENT_PROBES, RESOLVENT_SEED)
    assert steps == 0
    assert sigma == abs(z.imag) - beta
    shifted = z * np.eye(p.dim) - dense
    exact = np.linalg.svd(shifted, compute_uv=False)
    assert exact[-1] >= sigma - 10 * np.finfo(float).eps * exact[0]


@pytest.mark.parametrize("fixture", [
    "coarse_problem", "coarse_quasi_problem", "coarse_standard_problem"])
def test_skew_bound_on_the_shipped_operators(request, fixture):
    # The skew part is the field coupling (0 -1; 1 0): beta = 1.  On the
    # consistent operators the bound n - beta is attained; with the
    # standard rho it lies below the dense sigma_min by the gap between
    # i n and the operator's nearest spectrum, a few 1e-9.
    p = request.getfixturevalue(fixture)
    assert abs(p.skew_bound - 1.0) <= 1e-14
    dense = p.operator().toarray()
    attained = fixture != "coarse_standard_problem"
    for n in (2, 3, 8):
        sigma, steps = _resolvent_sigma_min(p, 1j * n, RESOLVENT_PROBES,
                                            RESOLVENT_SEED)
        assert steps == 0
        exact = np.linalg.svd(1j * n * np.eye(p.dim) - dense,
                              compute_uv=False)[-1]
        assert sigma <= exact + 1e-12
        assert exact - sigma <= (1e-12 if attained else 1e-8)


def test_resolvent_scan_validates_n_max(coarse_problem):
    with pytest.raises(ValueError):
        resolvent_scan(coarse_problem, n_max=1)
    # The checks' bound verdict compares modes 2..n_max/2 with the tail.
    with pytest.raises(ValueError, match="at least 4"):
        run_hypothesis_checks(coarse_problem, n_max=3)


# ---------------------------------------------------------------------------
# spectral projection


def test_projection_invariants(coarse_problem):
    decomp = build_projection(coarse_problem)
    rng = np.random.default_rng(1)
    w = rng.normal(size=coarse_problem.dim) + 1j * rng.normal(size=coarse_problem.dim)
    pw = decomp.project(w)
    assert np.linalg.norm(decomp.project(pw) - pw) <= 1e-10 * np.linalg.norm(w)
    # Fixes its own range.
    psi = decomp.psi.data
    assert np.linalg.norm(decomp.project(psi) - psi) <= 1e-8 * np.linalg.norm(psi)
    conj_psi = np.conj(psi)
    assert np.linalg.norm(decomp.project(conj_psi) - conj_psi) \
        <= 1e-8 * np.linalg.norm(psi)
    # Complement really is the complement.
    assert np.linalg.norm(pw + decomp.complement(w) - w) <= 1e-12 * np.linalg.norm(w)


def test_projection_commutes_with_operator(coarse_problem):
    decomp = build_projection(coarse_problem)
    rng = np.random.default_rng(2)
    w = rng.normal(size=coarse_problem.dim) + 1j * rng.normal(size=coarse_problem.dim)
    aw = coarse_problem.A @ w
    comm = decomp.project(aw) - coarse_problem.A @ decomp.project(w)
    assert np.linalg.norm(comm) <= 1e-8 * np.linalg.norm(aw)


def test_complement_invariant_under_resolvent(coarse_problem):
    # Solving (2i - A) x = (I - P) w stays in the complement.
    decomp = build_projection(coarse_problem)
    rng = np.random.default_rng(3)
    w = rng.normal(size=coarse_problem.dim) + 1j * rng.normal(size=coarse_problem.dim)
    rhs = decomp.complement(w)
    x = coarse_problem.solve_resolvent(2, rhs)
    assert np.linalg.norm(decomp.project(x)) <= 1e-8 * np.linalg.norm(x)
    ax = coarse_problem.A @ x
    assert np.linalg.norm(decomp.project(ax)) <= 1e-8 * np.linalg.norm(ax)


def test_projection_reference_rescaling(coarse_cfg, coarse_problem):
    ref = reference_eigenvector(coarse_cfg)
    decomp = build_projection(coarse_problem, reference=ref)
    assert np.abs(decomp.psi.data - ref.data).max() <= 1e-8
    # Normalisation survives the rescale.
    pairing = np.sum(decomp.psi.data * np.conj(decomp.phi_adj.data)) * coarse_problem.dx
    assert abs(pairing - 1.0) <= 1e-10


def test_defective_pair_rejected():
    # Real Jordan structure: double eigenvalue at i, one eigenvector only.
    j = rotation_block()[:2, :2]
    a = np.block([[j, np.eye(2)], [np.zeros((2, 2)), j]])
    p = synthetic_problem(a)
    with pytest.raises((DegeneratePairingError, ConvergenceError)):
        build_projection(p)


# ---------------------------------------------------------------------------
# bundled report


def test_hypothesis_report_all_pass(coarse_problem):
    report = run_hypothesis_checks(coarse_problem, n_max=12)
    assert report.verdicts == {
        "derivative_consistency": True,
        "simple_pair": True,
        "transversality": True,
        "nonresonance": True,
        "resolvent_bound": True,
    }
    assert report.all_passed
    assert abs(report.crossing.formula - 2 / 3) <= 1e-2
    assert 1.8 <= report.bound_constant <= 2.2
    blob = json.dumps(report.to_json_dict())
    parsed = json.loads(blob)
    assert parsed["schema"] == 1
    assert parsed["all_passed"] is True
    assert len(parsed["resolvent_table"]) == 12
    lines = report.summary_lines()
    assert any("transversality" in ln and "pass" in ln for ln in lines)


def test_hypothesis_verdicts_are_independent():
    # Broken transversality (h_lambda_u = 0) leaves the other verdicts alone.
    p = synthetic_problem(rotation_block(), h="zero", name="no-crossing")
    report = run_hypothesis_checks(p, n_max=8)
    assert not report.verdicts["transversality"]
    assert report.verdicts["simple_pair"]
    assert report.verdicts["nonresonance"]
    assert report.verdicts["derivative_consistency"]
    assert not report.all_passed

    # Resonance at n = 2 breaks nonresonance only; the bound statistic is
    # computed from the modes that do factor.
    a = sla.block_diag(rotation_block(freq=2.0)[:2, :2], np.diag([-3.0, -4.0]))
    p2 = synthetic_problem(a, h="linear", c=1.0, name="resonant-at-2")
    report2 = run_hypothesis_checks(p2, target=2j, n_max=8)
    assert not report2.verdicts["nonresonance"]
    assert report2.verdicts["simple_pair"]
    assert report2.verdicts["transversality"]
    assert "n = [2]" in report2.notes["nonresonance"]

    # Double eigenvalue breaks simplicity; transversality still evaluates.
    a3 = sla.block_diag(
        np.kron(np.eye(2), rotation_block()[:2, :2]), np.diag([-2.0, -3.0])
    )
    p3 = synthetic_problem(a3, h="linear", c=1.0, name="double-eig")
    report3 = run_hypothesis_checks(p3, n_max=8)
    assert not report3.verdicts["simple_pair"]
    assert report3.verdicts["transversality"]
    assert report3.verdicts["nonresonance"]


def test_hypothesis_checks_locate_the_pair_once(monkeypatch):
    # The pair found for simple_pair feeds the crossing speed's projection:
    # the pair, its adjoint and the pair at lam = +-dlam, nothing twice.
    import hopfkit.spectral as spectral_module

    calls = []
    locate = spectral_module.eigenpair_near

    def counting(problem, target, **kwargs):
        calls.append((target, kwargs.get("lam", 0.0), kwargs.get("adjoint", False)))
        return locate(problem, target, **kwargs)

    monkeypatch.setattr(spectral_module, "eigenpair_near", counting)
    p = synthetic_problem(rotation_block(), h="linear", c=0.8)
    report = run_hypothesis_checks(p, n_max=8)
    assert report.verdicts["simple_pair"] and report.verdicts["transversality"]
    assert calls == [(1j, 0.0, False), (-1j, 0.0, True),
                     (1j, 1e-4, False), (1j, -1e-4, False)]
