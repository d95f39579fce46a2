"""Tests for the banded space-time linear algebra.

The assembled band must be the *exact* matrix of the pseudo-spectral
linearised operator (same collocation aliasing), so the main oracles
compare `BandedMatrix.matvec` against `ProblemDef.linearised_g` applied to
random trajectories.  The bordered solver is checked against dense
solves, including the deliberately singular-core case it exists for.
"""

import dataclasses
import gc
import tracemalloc
import weakref

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import hopfkit.newton as newton_module
from conftest import dense_of_storage, synthetic_problem
from hopfkit.newton import (
    BandedMatrix,
    BorderedSystem,
    SingularBandError,
    TrajectoryLayout,
    assemble_jacobian_band,
    band_bytes_bound,
    coupling_blocks,
    odd_modes,
)
from hopfkit.problem import ScaledParams, linearization_matrix
from hopfkit.reaction_diffusion import exact_branch_trajectory
from hopfkit.trajectory import (
    AmplitudeFunctional,
    PeriodicTrajectory,
    StateVector,
    zero_trajectory,
)


def random_trajectory(rng, n_t, nx, dx, scale=1.0):
    coeffs = rng.normal(size=(n_t + 1, 2 * nx)) + 1j * rng.normal(
        size=(n_t + 1, 2 * nx)
    )
    coeffs[0] = coeffs[0].real
    return PeriodicTrajectory(coeffs * scale, dx)


# ---------------------------------------------------------------------------
# layout


def test_layout_roundtrip():
    rng = np.random.default_rng(0)
    layout = TrajectoryLayout(n_t=3, nx=5, dx=0.7)
    u = random_trajectory(rng, 3, 5, 0.7)
    y = layout.flatten(u.coeffs)
    assert y.shape == (layout.size,)
    npt.assert_array_equal(layout.unflatten(y), u.coeffs)


@settings(max_examples=60, deadline=None)
@given(n_t=st.integers(0, 5), nx=st.integers(1, 6),
       dx=st.floats(0.01, 10.0), seed=st.integers(0, 2**32 - 1))
def test_layout_roundtrip_property(n_t, nx, dx, seed):
    rng = np.random.default_rng(seed)
    layout = TrajectoryLayout(n_t=n_t, nx=nx, dx=dx)
    u = random_trajectory(rng, n_t, nx, dx)
    npt.assert_array_equal(layout.unflatten(layout.flatten(u.coeffs)), u.coeffs)
    y = rng.normal(size=layout.size)
    npt.assert_array_equal(layout.flatten(layout.unflatten(y)), y)
    npt.assert_array_equal(layout.flatten_trajectory(layout.to_trajectory(y)), y)


def test_layout_index_semantics():
    # Independently re-derive the flat position of every coefficient part.
    n_t, nx = 2, 4
    layout = TrajectoryLayout(n_t, nx, dx=1.0)
    r = 2 * n_t + 1
    rng = np.random.default_rng(1)
    u = random_trajectory(rng, n_t, nx, 1.0)
    y = layout.flatten(u.coeffs)
    for j in range(nx):
        for f in range(2):
            c = f * nx + j
            base = j * 2 * r + f * r
            assert y[base] == u.coeffs[0, c].real
            for n in range(1, n_t + 1):
                assert y[base + 2 * n - 1] == u.coeffs[n, c].real
                assert y[base + 2 * n] == u.coeffs[n, c].imag


def test_layout_trajectory_helpers():
    rng = np.random.default_rng(2)
    layout = TrajectoryLayout(n_t=2, nx=3, dx=0.25)
    u = random_trajectory(rng, 2, 3, 0.25)
    back = layout.to_trajectory(layout.flatten_trajectory(u))
    npt.assert_allclose(back.coeffs, u.coeffs, atol=1e-15)
    assert back.dx == u.dx


@settings(max_examples=60, deadline=None)
@given(n_t=st.integers(1, 6), nx=st.integers(1, 4),
       psi=st.floats(-7.0, 7.0), seed=st.integers(0, 2**32 - 1))
def test_layout_rotate_is_time_shift_property(n_t, nx, psi, seed):
    rng = np.random.default_rng(seed)
    layout = TrajectoryLayout(n_t=n_t, nx=nx, dx=0.3)
    u = random_trajectory(rng, n_t, nx, 0.3)
    y = layout.flatten_trajectory(u)
    turned = layout.rotate(y, psi)
    npt.assert_allclose(turned, layout.flatten_trajectory(u.time_shift(psi)),
                        rtol=1e-13, atol=1e-13)
    npt.assert_allclose(layout.rotate(turned, -psi), y, rtol=1e-13, atol=1e-13)
    # a stack of vectors turns column by column
    stack = rng.normal(size=(layout.size, 2))
    turned = layout.rotate(stack, psi)
    for k in range(2):
        npt.assert_array_equal(turned[:, k], layout.rotate(stack[:, k], psi))


def test_functional_rows_match_amplitude_pair():
    rng = np.random.default_rng(3)
    nx, n_t, dx = 6, 3, 0.4
    layout = TrajectoryLayout(n_t, nx, dx)
    weight = StateVector(rng.normal(size=2 * nx), dx)
    func = AmplitudeFunctional(weight)
    u = random_trajectory(rng, n_t, nx, dx)
    y = layout.flatten_trajectory(u)
    (i1, v1), (i2, v2) = layout.functional_rows(weight.data)
    got = np.array([v1 @ y[i1], v2 @ y[i2]])
    npt.assert_allclose(got, func.pair(u), rtol=1e-13)


def test_functional_rows_need_first_harmonic():
    layout = TrajectoryLayout(n_t=0, nx=3, dx=1.0)
    with pytest.raises(ValueError):
        layout.functional_rows(np.ones(6))


def test_functional_rows_check_weight_length():
    layout = TrajectoryLayout(n_t=2, nx=3, dx=1.0)
    with pytest.raises(ValueError):
        layout.functional_rows(np.ones(4))


def odd_trajectory(rng, n_t, nx, dx):
    """A random trajectory with odd Fourier modes only: u(t + pi) = -u(t)."""
    coeffs = np.array(random_trajectory(rng, n_t, nx, dx).coeffs)
    coeffs[0::2] = 0.0
    return PeriodicTrajectory(coeffs, dx)


@settings(max_examples=60, deadline=None)
@given(n_t=st.integers(1, 7), nx=st.integers(1, 5),
       psi=st.floats(-7.0, 7.0), seed=st.integers(0, 2**32 - 1))
def test_half_wave_layout_property(n_t, nx, psi, seed):
    """On the odd modes: flatten/unflatten round trip, `rotate` is
    `time_shift`, and the functional rows give the amplitude pair."""
    rng = np.random.default_rng(seed)
    dx = 0.3
    layout = TrajectoryLayout(n_t, nx, dx, odd_modes(n_t))
    assert layout.block == 4 * len(odd_modes(n_t))
    u = odd_trajectory(rng, n_t, nx, dx)
    y = layout.flatten_trajectory(u)
    assert y.shape == (layout.size,)
    npt.assert_array_equal(layout.unflatten(y), u.coeffs)
    z = rng.normal(size=layout.size)
    npt.assert_array_equal(layout.flatten(layout.unflatten(z)), z)
    assert not np.any(layout.unflatten(z)[0::2])

    turned = layout.rotate(y, psi)
    npt.assert_allclose(turned, layout.flatten_trajectory(u.time_shift(psi)),
                        rtol=1e-13, atol=1e-13)
    npt.assert_allclose(layout.rotate(turned, -psi), y, rtol=1e-13, atol=1e-13)

    weight = StateVector(rng.normal(size=2 * nx), dx)
    (i1, v1), (i2, v2) = layout.functional_rows(weight.data)
    npt.assert_allclose([v1 @ y[i1], v2 @ y[i2]],
                        AmplitudeFunctional(weight).pair(u), rtol=1e-13, atol=1e-14)


def test_layout_mode_set_is_checked():
    for modes in (range(1, 5, 2), odd_modes(0), range(2, 0, -1)):
        with pytest.raises(ValueError, match="mode set"):
            TrajectoryLayout(2, 3, 1.0, modes)
    with pytest.raises(ValueError, match="first harmonic"):
        TrajectoryLayout(4, 3, 1.0, range(0, 5, 2)).functional_rows(np.ones(6))


# ---------------------------------------------------------------------------
# mode-coupling blocks


def modes_to_samples(parts, n_t):
    m = 2 * n_t + 2
    t = 2.0 * np.pi * np.arange(m) / m
    vals = np.full(m, parts[0])
    for n in range(1, n_t + 1):
        c = parts[2 * n - 1] + 1j * parts[2 * n]
        vals += 2.0 * np.real(c * np.exp(1j * n * t))
    return vals


def samples_to_modes(samples, n_t):
    m = samples.size
    spec = np.fft.fft(samples) / m
    parts = np.empty(2 * n_t + 1)
    parts[0] = spec[0].real
    for n in range(1, n_t + 1):
        parts[2 * n - 1] = spec[n].real
        parts[2 * n] = spec[n].imag
    return parts


def test_coupling_block_matches_sampled_product():
    # The block must reproduce sample-pointwise multiplication followed by
    # truncation to the retained modes -- aliasing and all.
    rng = np.random.default_rng(10)
    for n_t in (1, 3, 6):
        m_samples = rng.normal(size=(2 * n_t + 2, 1))
        block = coupling_blocks(m_samples, n_t)[0]
        for _ in range(3):
            parts = rng.normal(size=2 * n_t + 1)
            product = m_samples[:, 0] * modes_to_samples(parts, n_t)
            expected = samples_to_modes(product, n_t)
            npt.assert_allclose(block @ parts, expected, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(n_t=st.integers(0, 6), nx=st.integers(1, 3),
       seed=st.integers(0, 2**32 - 1))
def test_coupling_blocks_match_sampled_product_property(n_t, nx, seed):
    # One block per state column: multiplying at the 2 n_t + 2 collocation
    # points and keeping the retained rfft modes is the block product.
    rng = np.random.default_rng(seed)
    u = random_trajectory(rng, n_t, nx, 1.0)
    samples = rng.normal(size=(u.n_samples, u.dim))
    product = np.fft.rfft(samples * u.sample_values(), axis=0) / u.n_samples
    layout = TrajectoryLayout(n_t, nx, 1.0)

    def by_column(coeffs):  # (dim, R) mode-part vectors, column f*nx + j
        parts = layout.flatten(coeffs).reshape(nx, 2, 2 * n_t + 1)
        return parts.transpose(1, 0, 2).reshape(u.dim, 2 * n_t + 1)

    image = np.einsum("cij,cj->ci", coupling_blocks(samples, n_t),
                      by_column(u.coeffs))
    npt.assert_allclose(image, by_column(product[: n_t + 1]), atol=1e-12)


def test_coupling_block_batch_layout():
    rng = np.random.default_rng(11)
    n_t = 2
    samples = rng.normal(size=(2 * n_t + 2, 4))
    blocks = coupling_blocks(samples, n_t)
    assert blocks.shape == (4, 2 * n_t + 1, 2 * n_t + 1)
    for b in range(4):
        single = coupling_blocks(samples[:, b : b + 1], n_t)[0]
        npt.assert_allclose(blocks[b], single, atol=0)


def test_coupling_block_constant_is_identity_multiple():
    n_t = 3
    samples = np.full((2 * n_t + 2, 1), 2.5)
    block = coupling_blocks(samples, n_t)[0]
    npt.assert_allclose(block, 2.5 * np.eye(2 * n_t + 1), atol=1e-13)


def test_coupling_block_cosine():
    # m(t) = 2 cos t against v(t) = 2 cos t: product is 2 + 2 cos 2t.
    n_t = 3
    m = 2 * n_t + 2
    t = 2.0 * np.pi * np.arange(m) / m
    block = coupling_blocks((2.0 * np.cos(t))[:, None], n_t)[0]
    parts = np.zeros(2 * n_t + 1)
    parts[1] = 1.0  # Re of mode 1
    out = block @ parts
    expected = np.zeros(2 * n_t + 1)
    expected[0] = 2.0
    expected[3] = 1.0  # Re of mode 2
    npt.assert_allclose(out, expected, atol=1e-13)


def test_coupling_block_sample_count_checked():
    with pytest.raises(ValueError):
        coupling_blocks(np.zeros((7, 1)), 3)


@pytest.mark.parametrize("n_t", range(1, 9))
def test_half_wave_coupling_blocks_are_the_odd_sub_blocks(n_t):
    rng = np.random.default_rng(40 + n_t)
    samples = rng.normal(size=(2 * n_t + 2, 5))
    full = coupling_blocks(samples, n_t)
    slots = [s for n in odd_modes(n_t) for s in (2 * n - 1, 2 * n)]
    odd = coupling_blocks(samples, n_t, odd_modes(n_t))
    npt.assert_array_equal(odd.view(np.int64),
                           full[:, slots][:, :, slots].view(np.int64))


# ---------------------------------------------------------------------------
# Jacobian band assembly


def operator_oracle(problem, params, base, v):
    return problem.linearised_g(params, base, v)


def band_error(problem, params, base, layout, rng, scale=1.0):
    """Worst relative mismatch of the band against the operator, checked
    before and after a bordered solve has factorized the band; returns it
    with the band."""
    band = assemble_jacobian_band(problem, params, base, layout)

    def worst_error():
        worst = 0.0
        for _ in range(3):
            v = random_trajectory(rng, layout.n_t, layout.nx, layout.dx, scale)
            got = band.matvec(layout.flatten_trajectory(v))
            want = layout.flatten_trajectory(
                operator_oracle(problem, params, base, v))
            worst = max(
                worst,
                float(np.abs(got - want).max() / max(1.0, np.abs(want).max())),
            )
        return worst

    before = worst_error()
    system = BorderedSystem(
        band, rng.normal(size=(band.size, 2)), make_rows(rng, band.size)
    )
    system.solve(rng.normal(size=band.size), rng.normal(size=2))
    return max(before, worst_error()), band


def band_reach(band):
    """Lower and upper reach ``max(i - j)``, ``max(j - i)`` of the stored
    nonzero entries."""
    offsets = [d for d in range(-band.ku, band.kl + 1)
               if np.any(band.ab[band.kl + band.ku + d])]
    return max(offsets), -min(offsets)


def test_band_is_time_derivative_when_operator_trivial():
    problem = synthetic_problem(np.zeros((4, 4)))
    layout = TrajectoryLayout(n_t=3, nx=2, dx=1.0)
    base = zero_trajectory(3, 4, 1.0)
    band = assemble_jacobian_band(problem, ScaledParams(0.0, 0.0), base, layout)
    rng = np.random.default_rng(20)
    v = random_trajectory(rng, 3, 2, 1.0)
    got = band.matvec(layout.flatten_trajectory(v))
    npt.assert_allclose(
        got, layout.flatten_trajectory(v.time_derivative()), atol=1e-14
    )


def test_band_matches_operator_at_origin(coarse_problem, coarse_cfg):
    rng = np.random.default_rng(21)
    layout = TrajectoryLayout(4, coarse_cfg.nx, coarse_cfg.dx)
    base = zero_trajectory(4, 2 * coarse_cfg.nx, coarse_cfg.dx)
    err, band = band_error(
        coarse_problem, ScaledParams(0.02, 0.01), base, layout, rng)
    assert err < 1e-12
    assert (band.kl, band.ku) == band_reach(band) == (18, 18)


def test_band_matches_operator_on_branch(coarse_problem, coarse_cfg):
    rng = np.random.default_rng(22)
    layout = TrajectoryLayout(4, coarse_cfg.nx, coarse_cfg.dx)
    base = exact_branch_trajectory(coarse_cfg, 0.04, n_t=4)
    err, band = band_error(
        coarse_problem, ScaledParams(0.04, -0.3), base, layout, rng)
    assert err < 1e-12
    assert (band.kl, band.ku) == band_reach(band) == (18, 18)


def test_band_matches_operator_quasilinear(coarse_quasi_problem, coarse_quasi_cfg):
    rng = np.random.default_rng(23)
    cfg = coarse_quasi_cfg
    layout = TrajectoryLayout(3, cfg.nx, cfg.dx)
    base = random_trajectory(rng, 3, cfg.nx, cfg.dx, scale=0.05)
    err, band = band_error(
        coarse_quasi_problem, ScaledParams(0.03, 0.2), base, layout, rng, scale=0.1
    )
    assert err < 1e-10
    assert (band.kl, band.ku) == band_reach(band) == (34, 34)


@pytest.mark.parametrize("grid", ["coarse", "coarse_quasi"])
def test_band_is_equivariant_on_the_collocation_lattice(grid, request):
    """At ``psi = 2 pi k / M`` (``M`` collocation samples) the samples of
    ``tau_psi u`` are those of ``u`` cycled, so the band at ``tau_psi u`` is
    ``S_psi J(u) S_psi^-1`` exactly; the mirror ``psi = pi`` is on it.  Off
    the lattice the sampled product's aliasing breaks the identity."""
    cfg = request.getfixturevalue(f"{grid}_cfg")
    problem = request.getfixturevalue(f"{grid}_problem")
    n_t = 3
    layout = TrajectoryLayout(n_t, cfg.nx, cfg.dx)
    rng = np.random.default_rng(24)
    base = random_trajectory(rng, n_t, cfg.nx, cfg.dx, scale=0.05)
    params = ScaledParams(0.04, -0.3)

    def dense_at(u):
        return dense_of_storage(assemble_jacobian_band(problem, params, u, layout))

    dense = dense_at(base)
    for k in (1, 3, n_t + 1):
        psi = 2.0 * np.pi * k / (2 * n_t + 2)
        shifted = dense_at(base.time_shift(psi))
        # S J S^-1 with S orthogonal: J S^-1 = (S J^T)^T
        conjugated = layout.rotate(layout.rotate(dense.T, psi).T, psi)
        assert np.abs(shifted - conjugated).max() <= 1e-12


def band_case(grid, kind, n_t, request):
    """``(problem, params, base, layout)`` on a coarse grid; ``kind`` is
    ``"origin"``, ``"branch"`` or ``"random"``."""
    cfg = request.getfixturevalue(f"{grid}_cfg")
    problem = request.getfixturevalue(f"{grid}_problem")
    layout = TrajectoryLayout(n_t, cfg.nx, cfg.dx)
    if kind == "origin":
        base = zero_trajectory(n_t, 2 * cfg.nx, cfg.dx)
    elif kind == "branch":
        base = exact_branch_trajectory(cfg, 0.04, n_t=n_t)
    else:
        base = random_trajectory(np.random.default_rng(25), n_t, cfg.nx,
                                 cfg.dx, scale=0.05)
    return problem, ScaledParams(0.03, -0.3), base, layout


def recording_coupling_blocks(monkeypatch):
    """Patch `coupling_blocks` in the assembly; returns the list of the
    shapes of the blocks it makes."""
    made = []

    def record(samples, n_t, modes=None):
        blocks = coupling_blocks(samples, n_t, modes)
        made.append(blocks.shape)
        return blocks

    monkeypatch.setattr(newton_module, "coupling_blocks", record)
    return made


@pytest.mark.parametrize("grid, kind", [
    ("coarse", "origin"), ("coarse", "branch"), ("coarse", "random"),
    ("coarse_quasi", "random"),
])
def test_band_is_bitwise_chunk_invariant(grid, kind, request, monkeypatch):
    """A budget of a few blocks splits every coupling family into several
    chunks with a partial last one; the band keeps every bit."""
    problem, params, base, layout = band_case(grid, kind, 4, request)
    whole = assemble_jacobian_band(problem, params, base, layout)
    r = layout.r_per_field
    monkeypatch.setattr(newton_module, "_CHUNK_BYTES", 4 * 8 * r * r)
    made = recording_coupling_blocks(monkeypatch)
    chunked = assemble_jacobian_band(problem, params, base, layout)
    batches = {shape[0] for shape in made}
    assert max(batches) == 4 and min(batches) < 4
    assert (chunked.kl, chunked.ku) == (whole.kl, whole.ku)
    npt.assert_array_equal(chunked.ab.view(np.int64), whole.ab.view(np.int64))


def test_band_makes_each_coupling_block_once(request, monkeypatch):
    """Assembly makes the block of every live coupling once, in the pass
    that writes it: on the coarse quasilinear grid at a random base, 2 400
    blocks in 7 batches, one per block offset."""
    problem, params, base, layout = band_case("coarse_quasi", "random", 4, request)
    made = recording_coupling_blocks(monkeypatch)
    assemble_jacobian_band(problem, params, base, layout)
    assert (len(made), sum(shape[0] for shape in made)) == (7, 2400)


@pytest.mark.parametrize("grid", ["coarse", "coarse_quasi"])
@pytest.mark.parametrize("kind", ["origin", "branch", "random"])
def test_band_is_within_the_memory_guard_bound(grid, kind, request):
    """`config._check_memory` prices every Newton band by
    `band_bytes_bound`: the full, top odd and mode-1 bands stay within it,
    with ``kl``, ``ku`` at most ``(max(1, h_stencil) + 1) * block``."""
    problem, params, base, full = band_case(grid, kind, 4, request)
    bound = band_bytes_bound(full.nx, full.n_t, problem.h_stencil)
    for modes in (None, odd_modes(full.n_t), range(1, 2)):
        layout = TrajectoryLayout(full.n_t, full.nx, full.dx, modes)
        band = assemble_jacobian_band(problem, params, base, layout)
        assert 8 * band.ab.size <= bound
        width = (max(1, problem.h_stencil) + 1) * layout.block
        assert max(band.kl, band.ku) <= width


@pytest.mark.parametrize("grid", ["coarse", "coarse_quasi"])
def test_band_reach_is_that_of_the_dense_operator(grid, request):
    """``kl``/``ku`` are the block bound (each live coupling's block
    offset plus or minus ``r - 1``); at a base with content in every mode
    the blocks fill their corners, and the bound is the largest ``i - j``
    and ``j - i`` over the nonzero entries of the operator, built column by
    column."""
    problem, params, base, layout = band_case(grid, "random", 2, request)
    band = assemble_jacobian_band(problem, params, base, layout)
    dense = np.empty((layout.size, layout.size))
    unit = np.zeros(layout.size)
    for k in range(layout.size):
        unit[k] = 1.0
        dense[:, k] = layout.flatten_trajectory(problem.linearised_g(
            params, base, layout.to_trajectory(unit)))
        unit[k] = 0.0
    rows, cols = np.nonzero(dense)
    assert (band.kl, band.ku) == ((rows - cols).max(), (cols - rows).max())


def stencil_problem(rng, nx, width):
    """A problem whose ``h_u`` reaches ``width`` grid points: at base ``w``,
    field ``g`` at point ``j + o`` couples into field ``f`` at point ``j``
    by ``kernel[f, g, o] * (1 + w_f(j)**2)``.  Random couplings ``(f, g,
    o)`` vanish at every point, the others at random points, and ``A``
    couples random pairs of points up to ``max(1, width)`` apart."""
    shape = (2, 2, 2 * width + 1, nx)
    kernel = (rng.normal(size=shape) * (rng.random(shape[:3] + (1,)) < 0.7)
              * (rng.random(shape) < 0.7))

    def h_u(lam, w, z):
        w, z = np.asarray(w, dtype=float), np.asarray(z, dtype=float)
        out = np.zeros(np.broadcast_shapes(w.shape, z.shape))
        for f in range(2):
            scale = 1.0 + w[..., f * nx : (f + 1) * nx] ** 2
            for g in range(2):
                for o in range(-width, width + 1):
                    lo, hi = max(0, -o), min(nx, nx - o)
                    if lo < hi:
                        out[..., f * nx + lo : f * nx + hi] += (
                            kernel[f, g, o + width, lo:hi] * scale[..., lo:hi]
                            * z[..., g * nx + lo + o : g * nx + hi + o])
        return out

    points = np.arange(2 * nx) % nx
    near = np.abs(points[:, None] - points[None, :]) <= max(1, width)
    a = rng.normal(size=near.shape) * near * (rng.random(near.shape) < 0.5)
    return dataclasses.replace(synthetic_problem(a), apply_h_u=h_u,
                               h_stencil=width)


@settings(max_examples=30, deadline=None)
@given(nx=st.integers(1, 9), width=st.integers(0, 3), n_t=st.integers(1, 3),
       zero_base=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_stencil_couplings_give_every_jacobian_property(nx, width, n_t,
                                                        zero_base, seed):
    """`stencil_couplings` decodes both Jacobians of a base-dependent
    ``h_u`` whose couplings vanish at some points, ``nx`` below ``2 *
    width + 1`` included: the band matches `linearised_g` column by column
    on the full, half-wave and mode-1 layouts, with ``kl``/``ku`` the reach
    of the dense operator at a base with content in every mode, and
    `linearization_matrix` is the unit-vector matrix of ``h_u(lam, 0, .)``
    exactly."""
    rng = np.random.default_rng(seed)
    problem = stencil_problem(rng, nx, width)
    lam, sigma = rng.uniform(-0.5, 0.5, size=2)
    params = ScaledParams(float(lam), float(sigma))
    if zero_base:
        base = zero_trajectory(n_t, 2 * nx, 1.0)
    else:
        base = random_trajectory(rng, n_t, nx, 1.0, scale=0.5)
    for modes in (None, odd_modes(n_t), range(1, 2)):
        layout = TrajectoryLayout(n_t, nx, 1.0, modes)
        band = assemble_jacobian_band(problem, params, base, layout)
        units = np.eye(layout.size)
        got = np.column_stack([band.matvec(e) for e in units])
        want = np.column_stack([layout.flatten_trajectory(problem.linearised_g(
            params, base, layout.to_trajectory(e))) for e in units])
        assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())
        if not zero_base:
            rows, cols = np.nonzero(want)
            assert (band.kl, band.ku) == ((rows - cols).max(), (cols - rows).max())
    zero = np.zeros(problem.dim)
    dense = np.column_stack([problem.apply_h_u(float(lam), zero, e)
                             for e in np.eye(problem.dim)])
    npt.assert_array_equal(linearization_matrix(problem, float(lam)).toarray(),
                           dense)


def test_band_assembly_holds_one_chunk_of_blocks(monkeypatch, request):
    """Beside the band, assembly allocates at most two chunks of blocks
    plus arrays of a fixed multiple of ``size`` (probe samples, the entries
    of ``A`` and their band indices), not the summed blocks of every
    coupling family."""
    problem, params, base, layout = band_case("coarse", "random", 16, request)
    r = layout.r_per_field
    budget = 4 * 8 * r * r
    monkeypatch.setattr(newton_module, "_CHUNK_BYTES", budget)
    made = recording_coupling_blocks(monkeypatch)
    tracemalloc.start()
    try:
        band = assemble_jacobian_band(problem, params, base, layout)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(8 * np.prod(shape) for shape in made) >= 8 * budget
    assert peak - band.ab.nbytes < 2 * budget + 32 * 8 * layout.size


def test_band_rejects_operator_wider_than_stencil():
    # A couples next-nearest neighbours but h_stencil says bandwidth 1.
    nx = 6
    a = np.zeros((2 * nx, 2 * nx))
    for j in range(nx - 2):
        a[j, j + 2] = 1.0
        a[j + 2, j] = 1.0
    a -= 3.0 * np.eye(2 * nx)
    problem = synthetic_problem(a)
    layout = TrajectoryLayout(2, nx, 1.0)
    base = zero_trajectory(2, 2 * nx, 1.0)
    with pytest.raises(ValueError, match="stencil"):
        assemble_jacobian_band(problem, ScaledParams(0.0, 0.0), base, layout)


@pytest.mark.parametrize("grid", ["coarse", "coarse_quasi"])
def test_half_wave_band_is_the_odd_part_of_the_full_band(grid, request):
    """At an odd base the band on the odd modes is the full band's odd
    block, and it is under 0.3 times the full band's size at n_t = 16."""
    problem, params, _, full = band_case(grid, "random", 16, request)
    rng = np.random.default_rng(26)
    base = odd_trajectory(rng, 16, full.nx, full.dx) * 0.05
    half = TrajectoryLayout(16, full.nx, full.dx, odd_modes(16))
    full_band = assemble_jacobian_band(problem, params, base, full)
    half_band = assemble_jacobian_band(problem, params, base, half)
    assert half_band.ab.nbytes <= 0.3 * full_band.ab.nbytes
    y = rng.normal(size=half.size)
    image = full.to_trajectory(full_band.matvec(full.flatten(half.unflatten(y))))
    npt.assert_allclose(half_band.matvec(y), half.flatten_trajectory(image),
                        rtol=1e-12, atol=1e-12 * np.abs(y).max())
    # the odd modes map to odd modes: the even part of the image is rounding
    assert np.abs(image.coeffs[0::2]).max() <= 1e-12 * np.abs(image.coeffs).max()


def test_band_rejects_mismatched_trajectory(coarse_problem, coarse_cfg):
    layout = TrajectoryLayout(4, coarse_cfg.nx, coarse_cfg.dx)
    base = zero_trajectory(3, 2 * coarse_cfg.nx, coarse_cfg.dx)  # wrong n_t
    with pytest.raises(ValueError):
        assemble_jacobian_band(
            coarse_problem, ScaledParams(0.0, 0.0), base, layout
        )


# ---------------------------------------------------------------------------
# bordered solves


def add_diagonal(band, d, values):
    """Add ``values`` along diagonal ``i - j = d`` of the band, through its
    LAPACK storage (``ab[kl + ku + i - j, j]`` is entry ``(i, j)``)."""
    cols = np.arange(max(0, -d), band.size - max(0, d))
    band.ab[band.kl + band.ku + d, cols] += values


def random_band(rng, size, kl, ku, dominance=0.0):
    band = BandedMatrix(size, kl, ku)
    for d in range(-ku, kl + 1):
        add_diagonal(band, d, rng.normal(size=size - abs(d)))
    if dominance:
        add_diagonal(band, 0, dominance)
    return band


def make_rows(rng, size, k=4):
    idx = rng.choice(size, size=k, replace=False)
    return (idx, rng.normal(size=k)), (
        rng.choice(size, size=k, replace=False),
        rng.normal(size=k),
    )


def test_bordered_matches_dense():
    rng = np.random.default_rng(30)
    size, kl, ku = 24, 3, 2
    band = random_band(rng, size, kl, ku, dominance=12.0)
    system = BorderedSystem(
        band,
        rng.normal(size=(size, 2)),
        make_rows(rng, size),
    )
    rhs_core = rng.normal(size=size)
    rhs_border = rng.normal(size=2)
    y, p = system.solve(rhs_core, rhs_border)
    dense = dense_of_storage(system)
    expected = np.linalg.solve(dense, np.concatenate([rhs_core, rhs_border]))
    npt.assert_allclose(np.concatenate([y, p]), expected, rtol=1e-10, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(size=st.integers(4, 30), kl=st.integers(0, 4), ku=st.integers(0, 4),
       seed=st.integers(0, 2**32 - 1))
def test_bordered_solves_match_dense_property(size, kl, ku, seed):
    """Both orientations against a dense solve, on unequal bandwidths: the
    transpose must swap the border roles."""
    assume(kl != ku)
    rng = np.random.default_rng(seed)
    band = random_band(rng, size, kl, ku, dominance=4.0 * (kl + ku + 1))
    system = BorderedSystem(
        band, rng.normal(size=(size, 2)), make_rows(rng, size, k=min(4, size)),
    )
    dense = dense_of_storage(system)
    assume(np.linalg.cond(dense) < 1e8)
    rhs_core = rng.normal(size=size)
    rhs_border = rng.normal(size=2)
    rhs = np.concatenate([rhs_core, rhs_border])
    for solve, matrix in ((system.solve, dense),
                          (system.solve_transpose, dense.T)):
        for _ in range(2):  # first call builds the Schur cache, second reuses it
            y, p = solve(rhs_core, rhs_border)
            npt.assert_allclose(np.concatenate([y, p]),
                                np.linalg.solve(matrix, rhs),
                                rtol=1e-9, atol=1e-11)


def test_bordered_system_freed_without_cycle_collector():
    """A solved system holds a band and its factor; it must go when its
    last reference does, not at some later cyclic collection."""
    rng = np.random.default_rng(37)
    size = 16
    system = BorderedSystem(
        random_band(rng, size, 2, 1, dominance=10.0),
        rng.normal(size=(size, 2)), make_rows(rng, size),
    )
    system.solve(rng.normal(size=size), rng.normal(size=2))
    system.solve_transpose(rng.normal(size=size), rng.normal(size=2))
    ref = weakref.ref(system)
    gc.disable()
    try:
        del system
        assert ref() is None
    finally:
        gc.enable()


def test_rebordered_system_solves_the_rotated_core():
    """A system with a rotation, bordered on a band factored already,
    solves ``[[S J S^-1, C], [R^T, 0]]`` in both orientations through the
    band's own LU, with no new factor; its refinement needs an exact
    matvec."""
    rng = np.random.default_rng(38)
    layout = TrajectoryLayout(n_t=2, nx=3, dx=0.5)
    size, psi = layout.size, 0.9
    band = random_band(rng, size, 4, 3, dominance=20.0)
    factor = band.factorize()
    system = BorderedSystem(band, rng.normal(size=(size, 2)),
                            make_rows(rng, size), rotation=(layout, psi))
    assert system.band is band and band.lu is factor

    eye = np.eye(size)
    turn = layout.rotate(eye, psi)
    full = dense_of_storage(system)
    full[:size, :size] = turn @ dense_of_storage(band) @ turn.T

    def exact(y, p):
        out = full @ np.concatenate([y, p])
        return out[:size], out[size:]

    def exact_transpose(y, p):
        out = full.T @ np.concatenate([y, p])
        return out[:size], out[size:]

    rhs_core, rhs_border = rng.normal(size=size), rng.normal(size=2)
    rhs = np.concatenate([rhs_core, rhs_border])
    for solve, matvec, matrix in ((system.solve, exact, full),
                                  (system.solve_transpose, exact_transpose, full.T)):
        for refine in (0, 2):  # the factor is exact for this core
            y, p = solve(rhs_core, rhs_border, matvec=matvec, refine=refine)
            npt.assert_allclose(np.concatenate([y, p]),
                                np.linalg.solve(matrix, rhs),
                                rtol=1e-10, atol=1e-12)
    with pytest.raises(ValueError, match="exact matvec"):
        system.solve(rhs_core, rhs_border)
    assert band.factorize() is factor  # the solves made no new factor
    with pytest.raises(ValueError, match="layout"):
        BorderedSystem(band, system.columns, system.rows,
                       rotation=(TrajectoryLayout(n_t=1, nx=3, dx=0.5), psi))


def test_band_refined_solve_keeps_the_band():
    """A solve refined against the band's own product factors a copy:
    ``ab`` stays exactly as assembled."""
    rng = np.random.default_rng(39)
    size = 24
    band = random_band(rng, size, 3, 2, dominance=10.0)
    before = band.ab.copy()
    system = BorderedSystem(band, rng.normal(size=(size, 2)), make_rows(rng, size))
    system.solve(rng.normal(size=size), rng.normal(size=2))
    assert not band.consumed
    assert not np.shares_memory(band.lu[0], band.ab)
    npt.assert_array_equal(band.ab, before)


def test_in_place_factor_with_zero_pivot_matches_dense(monkeypatch):
    """An exactly zero pivot is replaced inside the one factor dgbtrf made
    in place, without a second factorization; refinement against the exact
    operator recovers the dense solution of the regular bordered system."""
    rng = np.random.default_rng(40)
    size, kl, ku, j = 16, 2, 3, 6
    band = random_band(rng, size, kl, ku, dominance=10.0)
    # Rows >= j vanish in columns <= j: elimination of the leading block
    # leaves them alone and then meets an all-zero pivot column at j.
    for i in range(j, min(size, j + kl + 1)):
        for k in range(max(0, i - kl), j + 1):
            band.ab[kl + ku + i - k, k] = 0.0
    system = BorderedSystem(band, rng.normal(size=(size, 2)), make_rows(rng, size))
    dense = dense_of_storage(system)
    assert np.linalg.matrix_rank(dense[:size, :size]) == size - 1

    infos = []
    dgbtrf = newton_module.lapack.dgbtrf

    def recording_dgbtrf(*args, **kwargs):
        out = dgbtrf(*args, **kwargs)
        infos.append(out[-1])
        return out

    monkeypatch.setattr(newton_module.lapack, "dgbtrf", recording_dgbtrf)
    band.factorize(overwrite=True)
    assert infos == [j + 1]  # LAPACK counts columns from 1
    assert band.consumed and np.shares_memory(band.lu[0], band.ab)

    def exact(y, p):
        out = dense @ np.concatenate([y, p])
        return out[:size], out[size:]

    rhs = rng.normal(size=size + 2)
    y, p = system.solve(rhs[:size], rhs[size:], matvec=exact, refine=3)
    npt.assert_allclose(np.concatenate([y, p]), np.linalg.solve(dense, rhs),
                        rtol=1e-8, atol=1e-10)
    assert infos == [j + 1]  # the solve went through the band's own LU


def test_consumed_band_refuses_products():
    """After an in-place factorization ``ab`` holds LU data: every product
    that would read it as the matrix raises, and so does a solve that
    refines against the band."""
    rng = np.random.default_rng(41)
    size = 12
    band = random_band(rng, size, 2, 1, dominance=8.0)
    system = BorderedSystem(band, rng.normal(size=(size, 2)), make_rows(rng, size))
    band.factorize(overwrite=True)
    y, p = rng.normal(size=size), rng.normal(size=2)
    for product in (band.matvec, band.rmatvec):
        with pytest.raises(ValueError, match="LU data"):
            product(y)
    for product in (system.apply, system.apply_transpose, system.solve):
        with pytest.raises(ValueError, match="LU data"):
            product(y, p)


def test_band_rmatvec_is_transpose_of_matvec():
    rng = np.random.default_rng(34)
    band = random_band(rng, 18, 3, 2)
    dense = dense_of_storage(band)
    x = rng.normal(size=18)
    npt.assert_allclose(band.rmatvec(x), dense.T @ x, atol=1e-12)


def test_bordered_transpose_solve_matches_dense():
    rng = np.random.default_rng(35)
    size = 22
    band = random_band(rng, size, 2, 3, dominance=10.0)
    system = BorderedSystem(
        band,
        rng.normal(size=(size, 2)),
        make_rows(rng, size),
    )
    rhs_core = rng.normal(size=size)
    rhs_border = rng.normal(size=2)
    y, p = system.solve_transpose(rhs_core, rhs_border)
    dense = dense_of_storage(system)
    expected = np.linalg.solve(dense.T, np.concatenate([rhs_core, rhs_border]))
    npt.assert_allclose(np.concatenate([y, p]), expected, rtol=1e-10, atol=1e-12)
    # and the exact transpose apply agrees with the dense transpose
    vec_y = rng.normal(size=size)
    vec_p = rng.normal(size=2)
    core, border = system.apply_transpose(vec_y, vec_p)
    full = dense.T @ np.concatenate([vec_y, vec_p])
    npt.assert_allclose(np.concatenate([core, border]), full, atol=1e-12)


def test_bordered_transpose_with_singular_core():
    size = 10
    diag = np.arange(1.0, size + 1.0)
    diag[3] = 0.0
    band = BandedMatrix(size, 0, 0)
    add_diagonal(band, 0, diag)
    columns = np.zeros((size, 2))
    columns[3, 0] = 1.0
    columns[7, 1] = 1.0
    rows = ((np.array([3]), np.array([1.0])), (np.array([7]), np.array([1.0])))
    system = BorderedSystem(band, columns, rows)
    rng = np.random.default_rng(36)
    rhs_core = rng.normal(size=size)
    rhs_border = rng.normal(size=2)
    y, p = system.solve_transpose(rhs_core, rhs_border, refine=3)
    dense = dense_of_storage(system)
    expected = np.linalg.solve(dense.T, np.concatenate([rhs_core, rhs_border]))
    npt.assert_allclose(np.concatenate([y, p]), expected, rtol=1e-8, atol=1e-10)


def test_bordered_apply_matches_dense():
    rng = np.random.default_rng(31)
    size = 15
    band = random_band(rng, size, 2, 2, dominance=8.0)
    system = BorderedSystem(
        band, rng.normal(size=(size, 2)), make_rows(rng, size)
    )
    y = rng.normal(size=size)
    p = rng.normal(size=2)
    core, border = system.apply(y, p)
    dense = dense_of_storage(system)
    full = dense @ np.concatenate([y, p])
    npt.assert_allclose(core, full[:size], atol=1e-12)
    npt.assert_allclose(border, full[size:], atol=1e-12)


def test_bordered_with_exactly_singular_core():
    # The core has a zero pivot (like the time-translation kernel at a
    # converged branch point); the bordered system is regular and must be
    # solved accurately via jitter + refinement.
    size = 12
    diag = np.arange(1.0, size + 1.0)
    diag[5] = 0.0
    band = BandedMatrix(size, 0, 0)
    add_diagonal(band, 0, diag)
    columns = np.zeros((size, 2))
    columns[5, 0] = 1.0
    columns[8, 1] = 1.0
    rows = ((np.array([5]), np.array([1.0])), (np.array([8]), np.array([1.0])))
    system = BorderedSystem(band, columns, rows)
    rng = np.random.default_rng(32)
    rhs_core = rng.normal(size=size)
    rhs_border = rng.normal(size=2)
    y, p = system.solve(rhs_core, rhs_border, matvec=system.apply, refine=3)
    npt.assert_array_equal(band.ab[0], diag)  # the jitter stays in the factor
    dense = dense_of_storage(system)
    expected = np.linalg.solve(dense, np.concatenate([rhs_core, rhs_border]))
    npt.assert_allclose(np.concatenate([y, p]), expected, rtol=1e-8, atol=1e-10)


def test_bordered_refinement_tightens_residual():
    rng = np.random.default_rng(33)
    size = 20
    diag = np.linspace(1.0, 3.0, size)
    diag[7] = 1e-11  # nearly singular pivot: direct Schur loses digits
    band = BandedMatrix(size, 0, 0)
    add_diagonal(band, 0, diag)
    columns = np.zeros((size, 2))
    columns[7, 0] = 1.0
    columns[11, 1] = 1.0
    rows = ((np.array([7]), np.array([1.0])), (np.array([11]), np.array([1.0])))
    system = BorderedSystem(band, columns, rows)
    rhs_core = rng.normal(size=size)
    rhs_border = rng.normal(size=2)

    def residual(y, p):
        core, border = system.apply(y, p)
        return np.abs(np.concatenate([core - rhs_core, border - rhs_border])).max()

    rough = residual(*system.solve(rhs_core, rhs_border, refine=0))
    tight = residual(*system.solve(rhs_core, rhs_border, refine=2))
    assert tight <= rough
    assert tight < 1e-9


def test_bordered_validates_column_shape():
    band = BandedMatrix(6, 1, 1)
    add_diagonal(band, 0, 1.0)
    with pytest.raises(ValueError):
        BorderedSystem(
            band,
            np.zeros((6, 3)),
            ((np.array([0]), np.array([1.0])), (np.array([1]), np.array([1.0]))),
        )


def test_bordered_reports_unfixable_singularity():
    # Entire zero core cannot be rescued by jitter alone at zero scale...
    # it actually can (jitter uses scale 1 fallback), so instead check a
    # NaN band fails loudly.
    band = BandedMatrix(4, 0, 0)
    add_diagonal(band, 0, np.nan)
    system = BorderedSystem(
        band,
        np.zeros((4, 2)),
        ((np.array([0]), np.array([1.0])), (np.array([1]), np.array([1.0]))),
    )
    with pytest.raises((SingularBandError, np.linalg.LinAlgError)):
        system.solve(np.ones(4), np.ones(2))
