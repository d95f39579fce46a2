import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hopfkit.newton import TrajectoryLayout
from hopfkit.trajectory import (
    _adopt,
    _dft_matrices,
    ComplexStateVector,
    PeriodicTrajectory,
    StateVector,
    build_amplitude_functional,
    single_harmonic,
    trajectory_from_samples,
    zero_trajectory,
)


def make_traj(n_t=6, nx=5, dx=0.3, seed=0):
    rng = np.random.default_rng(seed)
    coeffs = rng.normal(size=(n_t + 1, 2 * nx)) + 1j * rng.normal(size=(n_t + 1, 2 * nx))
    coeffs[0] = coeffs[0].real
    return PeriodicTrajectory(coeffs, dx)


def test_sample_roundtrip_is_exact():
    u = make_traj()
    v = trajectory_from_samples(u.sample_values(), u.dx)
    assert np.allclose(v.coeffs, u.coeffs, atol=1e-14)


def test_samples_match_pointwise_series():
    # Oracle: evaluate the truncated series by brute force at each sample time.
    u = make_traj(n_t=4, nx=3)
    times = u.sample_times()
    vals = u.sample_values()
    for k, t in enumerate(times):
        direct = u.coeffs[0].real.astype(float).copy()
        for n in range(1, u.n_t + 1):
            direct += 2.0 * (u.coeffs[n] * np.exp(1j * n * t)).real
        assert np.allclose(vals[k], direct, atol=1e-12)


def test_at_time_agrees_with_samples():
    u = make_traj(n_t=5, nx=4)
    vals = u.sample_values()
    for k, t in enumerate(u.sample_times()):
        assert np.allclose(u.at_time(t).data, vals[k], atol=1e-12)


def test_mode0_reality_enforced():
    coeffs = np.zeros((3, 4), dtype=complex)
    coeffs[0, 1] = 0.5j
    with pytest.raises(ValueError, match="real"):
        PeriodicTrajectory(coeffs, 0.1)


@pytest.mark.parametrize("imag, scale, real", [
    (0.9e-9, 1.0, True),
    (1.1e-9, 1.0, False),
    (2e-6, 1e4, True),
    (2e-5, 1e4, False),
])
def test_mode0_check_is_relative_to_the_largest_coefficient(imag, scale, real):
    """Row 0's imaginary part may reach 1e-9 times max(1, max|coeffs|)."""
    coeffs = np.zeros((3, 4), dtype=complex)
    coeffs[0, 1] = 1j * imag
    coeffs[2, 3] = scale
    if not real:
        with pytest.raises(ValueError, match="real"):
            PeriodicTrajectory(coeffs, 0.1)
        return
    traj = PeriodicTrajectory(coeffs, 0.1)
    assert not np.any(traj.coeffs[0].imag)
    assert coeffs[0, 1] == 1j * imag  # the caller's array is not touched


def test_constructor_copies_the_callers_array():
    coeffs = np.array(make_traj().coeffs)
    traj = PeriodicTrajectory(coeffs, 0.3)
    before = np.array(traj.coeffs)
    coeffs[:] = 7.0
    assert np.array_equal(traj.coeffs, before)
    assert not np.shares_memory(traj.coeffs, coeffs)
    assert not traj.coeffs.flags.writeable


def _from_samples(u, w):
    samples = u.sample_values()
    return trajectory_from_samples(samples, u.dx), (samples,)


def _layout_roundtrip(u, w):
    layout = TrajectoryLayout(u.n_t, u.nx, u.dx)
    y = layout.flatten_trajectory(u)
    return layout.to_trajectory(y), (y,)


#: name -> ``(u, w) -> (result, operand arrays besides u's and w's)``.
RESULTS = {
    "add": lambda u, w: (u + w, ()),
    "sub": lambda u, w: (u - w, ()),
    "mul": lambda u, w: (u * 2.5, ()),
    "rmul": lambda u, w: (2.5 * u, ()),
    "neg": lambda u, w: (-u, ()),
    "time_derivative": lambda u, w: (u.time_derivative(), ()),
    "time_shift": lambda u, w: (u.time_shift(0.7), ()),
    "with_coeffs": lambda u, w: (u.with_coeffs(w.coeffs), ()),
    "trajectory_from_samples": _from_samples,
    "to_trajectory": _layout_roundtrip,
}


@pytest.mark.parametrize("name", sorted(RESULTS))
def test_results_own_a_locked_array(name):
    """Every arithmetic and transform result holds read-only C-contiguous
    coefficients that share no memory with its operands."""
    u, w = make_traj(seed=1), make_traj(seed=2)
    result, others = RESULTS[name](u, w)
    arr = result.coeffs
    assert arr.dtype == complex and arr.flags.c_contiguous
    assert not arr.flags.writeable
    with pytest.raises(ValueError):
        arr[1, 0] = 1.0
    for operand in (u.coeffs, w.coeffs, *others):
        assert not np.shares_memory(arr, operand)


def test_fourier_coeff_negative_mode_conjugate():
    u = make_traj()
    assert np.allclose(u.fourier_coeff(-3), np.conj(u.fourier_coeff(3)))
    with pytest.raises(ValueError):
        u.fourier_coeff(u.n_t + 1)


def test_time_derivative_on_pure_mode():
    # d/dt Re(psi e^{int}) = Re(i n psi e^{int})
    nx, n_t, dx = 4, 5, 0.2
    rng = np.random.default_rng(1)
    psi = rng.normal(size=2 * nx) + 1j * rng.normal(size=2 * nx)
    coeffs = np.zeros((n_t + 1, 2 * nx), dtype=complex)
    coeffs[3] = psi
    u = PeriodicTrajectory(coeffs, dx)
    du = u.time_derivative()
    assert np.allclose(du.coeffs[3], 3j * psi)
    assert np.allclose(np.delete(du.coeffs, 3, axis=0), 0.0)


def test_time_derivative_matches_finite_difference():
    u = make_traj(n_t=3, nx=2)
    du = u.time_derivative()
    eps = 1e-6
    for t in (0.0, 0.7, 2.9):
        fd = (u.at_time(t + eps).data - u.at_time(t - eps).data) / (2 * eps)
        assert np.allclose(du.at_time(t).data, fd, atol=1e-7)


def test_time_shift_group_law_and_period():
    u = make_traj()
    a, b = 0.8, 1.9
    two_step = u.time_shift(a).time_shift(b)
    one_step = u.time_shift(a + b)
    assert np.allclose(two_step.coeffs, one_step.coeffs, atol=1e-13)
    full = u.time_shift(2 * np.pi)
    assert np.allclose(full.coeffs, u.coeffs, atol=1e-12)


def test_time_shift_pointwise():
    u = make_traj(n_t=4, nx=3)
    theta = 1.234
    shifted = u.time_shift(theta)
    for t in (0.0, 0.5, 3.1):
        assert np.allclose(shifted.at_time(t).data, u.at_time(t + theta).data,
                           atol=1e-12)


def test_half_period_shift_of_first_harmonic_is_negation():
    rng = np.random.default_rng(2)
    psi = ComplexStateVector(rng.normal(size=6) + 1j * rng.normal(size=6), 0.5)
    u = single_harmonic(psi, n_t=4)
    v = u.time_shift(np.pi)
    assert np.allclose(v.coeffs, -u.coeffs, atol=1e-14)


def test_norm_parseval_against_quadrature():
    # Oracle: trapezoid rule in time on |u(t)|^2 over a fine grid.
    u = make_traj(n_t=3, nx=2, dx=0.41)
    ts = np.linspace(0.0, 2 * np.pi, 4001)
    vals = np.array([u.at_time(t).data for t in ts])
    power = np.sum(vals**2, axis=1)
    sq = np.sum((power[1:] + power[:-1]) / 2 * np.diff(ts)) / (2 * np.pi) * u.dx
    assert np.isclose(u.norm(), np.sqrt(sq), rtol=1e-8)


def test_split_subspaces_partition():
    # The mean, fundamental and overtone subspaces, read as mode-set norms,
    # partition the squared norm, and each part is the norm of its own rows.
    u = make_traj(n_t=5, nx=3)
    mean, fund, rest = u.norm({0}), u.norm({1}), u.norm(range(2, u.n_t + 1))
    assert np.isclose(mean**2 + fund**2 + rest**2, u.norm() ** 2, rtol=1e-14)
    assert np.isclose(mean, np.sqrt(np.sum(u.coeffs[0].real ** 2) * u.dx), rtol=1e-14)
    assert np.isclose(fund, np.sqrt(2.0 * np.sum(np.abs(u.coeffs[1]) ** 2) * u.dx),
                      rtol=1e-14)


def test_split_subspaces_of_a_mean_only_trajectory():
    # At n_t = 0 there is no mode 1: the trajectory is its mean, and the
    # fundamental and overtone parts have zero norm.
    u = PeriodicTrajectory(np.array([[1.5, -2.0, 0.25, 3.0]]), 0.1)
    assert u.norm({0}) == u.norm()
    assert u.norm({1}) == 0.0
    assert u.norm(range(2, 5)) == 0.0


@settings(max_examples=60, deadline=None)
@given(n_t=st.integers(0, 6), nx=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
       modes=st.sets(st.integers(0, 8)))
def test_mode_set_norm_is_the_norm_of_the_zeroed_copy(n_t, nx, seed, modes):
    """The norm over a mode set is bitwise the norm of the copy whose other
    coefficient rows are zero, ``n_t = 0`` and modes past ``n_t``
    included; the full set gives the whole norm."""
    u = make_traj(n_t=n_t, nx=nx, seed=seed)
    kept = np.zeros_like(u.coeffs)
    rows = [n for n in modes if n <= n_t]
    kept[rows] = u.coeffs[rows]
    assert u.norm(modes) == u.with_coeffs(kept).norm()
    assert u.norm(range(n_t + 1)) == u.norm()


def test_single_harmonic_layout():
    psi = ComplexStateVector([1 + 2j, 3 - 1j, 0.5j, -2.0], 0.7)
    u = single_harmonic(psi, n_t=3)
    assert u.n_t == 3 and u.dx == 0.7
    assert np.allclose(u.fourier_coeff(1), psi.data / 2)
    assert np.allclose(u.fourier_coeff(0), 0)
    # Pointwise it really is Re(psi e^{it}).
    for t in (0.0, 0.9, 4.0):
        assert np.allclose(u.at_time(t).data, (psi.data * np.exp(1j * t)).real,
                           atol=1e-13)


def test_grid_mismatch_raises():
    u = make_traj(n_t=3, nx=2, dx=0.1)
    v = make_traj(n_t=3, nx=2, dx=0.2)
    with pytest.raises(ValueError):
        _ = u + v
    w = make_traj(n_t=4, nx=2, dx=0.1)
    with pytest.raises(ValueError):
        _ = u - w


# ---------------------------------------------------------------------------
# the real DFT products against numpy's FFT


def _live_prefix_traj(n_t, dim, live, seed):
    """A trajectory whose nonzero rows are ``live``: "none", "mode-0",
    "mode-1" (a single harmonic) or "all"."""
    rng = np.random.default_rng(seed)
    coeffs = np.zeros((n_t + 1, dim), dtype=complex)
    rows = {"none": [], "mode-0": [0], "mode-1": [1],
            "all": range(n_t + 1)}[live]
    for n in rows:
        coeffs[n] = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    coeffs[0] = coeffs[0].real
    return PeriodicTrajectory(coeffs, 0.3)


def _fft_samples(u):
    m = u.n_samples
    spec = np.zeros((m // 2 + 1, u.dim), dtype=complex)
    spec[: u.n_t + 1] = u.coeffs * m
    return np.fft.irfft(spec, n=m, axis=0)


def _fft_coeffs(samples):
    m = samples.shape[0]
    return np.fft.rfft(np.asarray(samples, dtype=float), axis=0)[: m // 2] / m


def _assert_close(got, expect, rel=1e-14):
    assert got.shape == expect.shape
    assert np.abs(got - expect).max() <= rel * np.abs(expect).max()


def _transform_cases(test):
    """Run ``test`` over ``n_t`` 0-40, ``dim`` 2-50 and the live modes."""
    cases = given(n_t=st.integers(0, 40), half_dim=st.integers(1, 25),
                  live=st.sampled_from(["none", "mode-0", "mode-1", "all"]),
                  seed=st.integers(0, 2**32 - 1))
    return settings(max_examples=60, deadline=None, derandomize=True,
                    database=None)(cases(test))


@_transform_cases
def test_sample_values_match_the_inverse_fft(n_t, half_dim, live, seed):
    assume(n_t >= 1 or live != "mode-1")
    u = _live_prefix_traj(n_t, 2 * half_dim, live, seed)
    samples = u.sample_values()
    _assert_close(samples, _fft_samples(u))
    assert samples.dtype == float and samples.flags.writeable
    assert not np.shares_memory(samples, u.coeffs)
    assert not np.shares_memory(samples, _dft_matrices(n_t)[0])


@_transform_cases
def test_truncated_synthesis_is_the_full_product(n_t, half_dim, live, seed):
    """Multiplying only the live modes gives the product with the whole
    synthesis matrix up to rounding: the dropped rows are zeros, though
    BLAS may sum a short product in another order than a long one."""
    assume(n_t >= 1 or live != "mode-1")
    u = _live_prefix_traj(n_t, 2 * half_dim, live, seed)
    stacked = np.stack((u.coeffs.real, u.coeffs.imag), axis=1)
    full = _dft_matrices(n_t)[0] @ stacked.reshape(-1, u.dim)
    assert np.abs(u.sample_values() - full).max() <= 1e-15 * np.abs(full).max()


@_transform_cases
def test_trajectory_from_samples_matches_the_forward_fft(n_t, half_dim, live,
                                                          seed):
    """C-ordered, Fortran-ordered, sliced and integer samples alike; the
    round trip restores the coefficients and row 0 is exactly real."""
    assume(n_t >= 1 or live != "mode-1")
    dim = 2 * half_dim
    u = _live_prefix_traj(n_t, dim, live, seed)
    rng = np.random.default_rng(seed)
    m = u.n_samples
    samples = rng.normal(size=(m, dim))
    inputs = [samples, np.asfortranarray(samples),
              rng.normal(size=(2 * m, dim + 3))[::2, 1:dim + 1],
              rng.integers(-5, 6, size=(m, dim))]
    for arr in inputs:
        _assert_close(trajectory_from_samples(arr, u.dx).coeffs,
                      _fft_coeffs(arr))
    back = trajectory_from_samples(u.sample_values(), u.dx)
    assert np.abs(back.coeffs - u.coeffs).max() <= (
        1e-14 * max(1.0, np.abs(u.coeffs).max()))
    assert not np.any(back.coeffs[0].imag)


@pytest.mark.parametrize("n_t", [0, 1, 16])
def test_dft_matrices_are_cached_and_locked(n_t):
    synthesis, analysis = _dft_matrices(n_t)
    m = 2 * n_t + 2
    assert synthesis.shape == (m, 2 * (n_t + 1))
    assert analysis.shape == (2 * (n_t + 1), m)
    assert _dft_matrices(n_t)[0] is synthesis
    for matrix in (synthesis, analysis):
        assert not matrix.flags.writeable
        with pytest.raises(ValueError):
            matrix[0, 0] = 1.0


@pytest.mark.parametrize("shape", [(3, 4), (0, 4), (4,)])
def test_samples_must_be_even_and_nonempty(shape):
    with pytest.raises(ValueError, match="M even"):
        trajectory_from_samples(np.zeros(shape), 0.1)


def test_samples_pad_to_a_truncation_no_lower_than_theirs():
    samples = np.ones((6, 4))
    padded = trajectory_from_samples(samples, 0.1, n_t=4).coeffs
    assert padded.shape == (5, 4) and not padded[3:].any()
    assert np.array_equal(padded[:3], trajectory_from_samples(samples, 0.1).coeffs)
    with pytest.raises(ValueError, match="below M/2 - 1 = 2"):
        trajectory_from_samples(samples, 0.1, n_t=1)


@pytest.mark.parametrize("n_t", [1, 2])
def test_samples_below_the_top_mode_are_refused(n_t):
    """A mode-3 trajectory cannot be sampled at ``2 n_t + 2`` times for
    ``n_t`` below 3: the error names both numbers."""
    coeffs = np.zeros((5, 4), dtype=complex)
    coeffs[3] = 1.0
    u = PeriodicTrajectory(coeffs, 0.1)
    with pytest.raises(ValueError, match=f"n_t = {n_t} is below the top mode 3"):
        u.sample_values(n_t)
    assert u.sample_values(3).shape == (8, 4)


# ---------------------------------------------------------------------------
# amplitude / phase functionals


def rotation(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def random_pair(nx=6, dx=0.35, seed=3):
    rng = np.random.default_rng(seed)
    psi = ComplexStateVector(rng.normal(size=2 * nx) + 1j * rng.normal(size=2 * nx), dx)
    phi = ComplexStateVector(rng.normal(size=2 * nx) + 1j * rng.normal(size=2 * nx), dx)
    return psi, phi


def test_functional_normalisation_self():
    psi, _ = random_pair()
    func = build_amplitude_functional(psi)
    u = single_harmonic(psi, n_t=5)
    assert np.allclose(func.pair(u), [1.0, 0.0], atol=1e-12)
    v = single_harmonic(1j * psi, n_t=5)
    assert np.allclose(func.pair(v), [0.0, -1.0], atol=1e-12)


def test_functional_normalisation_with_adjoint_weight():
    psi, phi = random_pair(seed=11)
    func = build_amplitude_functional(psi, adjoint=phi)
    u = single_harmonic(psi, n_t=4)
    assert np.allclose(func.pair(u), [1.0, 0.0], atol=1e-12)
    # Weight lies in the span of the adjoint's real and imaginary parts.
    basis = np.vstack([phi.data.real, phi.data.imag])
    coefs, residual, *_ = np.linalg.lstsq(basis.T, func.weight.data, rcond=None)
    assert residual.size == 0 or residual[0] < 1e-20


def test_rotation_law_under_time_shift():
    psi, phi = random_pair(seed=7)
    func = build_amplitude_functional(psi, adjoint=phi)
    u = make_traj(n_t=6, nx=6, dx=psi.dx, seed=9)
    base = func.pair(u)
    for theta in (0.3, 1.2, -2.5):
        shifted = func.pair(u.time_shift(theta))
        assert np.allclose(shifted, rotation(-theta) @ base, atol=1e-12)
    # Advancing by the phase angle lands on the positive first axis.
    ahead = u.time_shift(func.phase_angle(u))
    p, q = func.pair(ahead)
    assert p > 0 and abs(q) < 1e-12 * max(1.0, p)


def test_functional_sees_only_first_harmonic():
    psi, _ = random_pair(seed=13)
    func = build_amplitude_functional(psi)
    coeffs = np.zeros((5, psi.data.size), dtype=complex)
    coeffs[0] = 1.0
    coeffs[2] = 2.0 + 1j
    coeffs[4] = -0.5j
    u = PeriodicTrajectory(coeffs, psi.dx)
    assert np.allclose(func.pair(u), [0.0, 0.0], atol=1e-13)


def test_degenerate_weight_family_raises():
    # A real eigenvector makes span{Re, Im} collapse to one dimension.
    psi = ComplexStateVector(np.array([1.0, 2.0, 0.5, -1.0]), 0.5)
    with pytest.raises(ValueError, match="degenerate"):
        build_amplitude_functional(psi)


def test_phase_angle_tracks_shift():
    psi, phi = random_pair(seed=21)
    func = build_amplitude_functional(psi, adjoint=phi)
    u = single_harmonic(psi, n_t=4)
    assert abs(func.phase_angle(u)) < 1e-12
    theta = 0.77
    # An advance by theta needs an advance by -theta to undo.
    assert np.isclose(func.phase_angle(u.time_shift(theta)), -theta, atol=1e-12)


def test_zero_trajectory():
    z = zero_trajectory(4, 6, 0.2)
    assert z.norm() == 0.0
    assert z.n_t == 4 and z.dim == 6


def test_state_vector_ops():
    a = StateVector([1.0, 2.0, 3.0, 4.0], 0.5)
    b = StateVector([0.0, 1.0, -1.0, 2.0], 0.5)
    assert np.isclose(a.dot(b), (0 + 2 - 3 + 8) * 0.5)
    assert np.isclose((2.0 * a - b).norm(), np.sqrt(np.sum(
        (2 * a.data - b.data) ** 2) * 0.5))
    u, v = a.fields
    assert np.allclose(u, [1.0, 2.0]) and np.allclose(v, [3.0, 4.0])
    with pytest.raises(ValueError):
        a.dot(StateVector([1.0, 2.0], 0.5))


def test_complex_state_vector_ops():
    a = ComplexStateVector([1 + 2j, -1j, 0.5, 2.0], 0.5)
    b = ComplexStateVector([1j, 1.0, -1.0, 2j], 0.5)
    assert np.allclose((a + 2.0j * b - a).data, 2.0j * b.data)
    assert np.isclose(a.norm(), np.sqrt(np.sum(np.abs(a.data) ** 2) * 0.5))
    assert repr(a).startswith("ComplexStateVector(nx=2, dx=0.5")
    assert isinstance(a.real, StateVector) and not isinstance(a, StateVector)
    for other in (ComplexStateVector([1.0, 2.0], 0.5),
                  ComplexStateVector(b.data, 0.25)):
        with pytest.raises(ValueError, match="different grids"):
            a + other
        with pytest.raises(ValueError, match="different grids"):
            a - other
    with pytest.raises(TypeError, match="expected a ComplexStateVector"):
        a + a.real
    with pytest.raises(TypeError, match="expected a StateVector"):
        a.real + a


# ---------------------------------------------------------------------------
# stored rows against the full-height array


def _same(a, b):
    """Equal bit for bit, a zero's sign aside: adding +0.0 turns -0.0 into
    +0.0 and leaves every other value as it is."""
    a, b = np.asarray(a) + 0.0, np.asarray(b) + 0.0
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _full_height(rng, n_t, dim, live):
    """An ``(n_t + 1, dim)`` coefficient array whose rows from ``live`` on
    are zero, row 0 real."""
    full = np.zeros((n_t + 1, dim), dtype=complex)
    full[:live] = rng.normal(size=(live, dim)) + 1j * rng.normal(size=(live, dim))
    full[0] = full[0].real
    return full


def _pair(rng, n_t, dim, live, dx=0.3):
    """The same trajectory twice: stored as its live rows, and stored at
    full height, as every trajectory was before it kept its live rows."""
    full = _full_height(rng, n_t, dim, live)
    return PeriodicTrajectory(full, dx), _adopt(full.copy(), n_t, dx), full


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(n_t=st.integers(0, 33), half_dim=st.integers(1, 4), data=st.data(),
       seed=st.integers(0, 2**32 - 1))
def test_stored_rows_compute_as_the_full_height_array(n_t, half_dim, data, seed):
    """On random ``n_t``, live rows ``L`` and ``dim``, every operation on a
    trajectory that stores its ``L`` live rows equals the same operation
    on the full-height array bit for bit (a zero's sign aside), its norms
    to one ulp; so do the coefficient round trips and the layouts' flat
    forms on the mode-1, odd-up-to-7 and full mode sets."""
    rng = np.random.default_rng(seed)
    dim, dx = 2 * half_dim, 0.3
    live = data.draw(st.integers(0, n_t + 1), label="live")
    other = data.draw(st.integers(0, n_t + 1), label="other live")
    u, tall, full = _pair(rng, n_t, dim, live, dx)
    w, w_tall, _ = _pair(rng, n_t, dim, other, dx)
    assert u.rows.shape == (live, dim) and tall.rows.shape == (n_t + 1, dim)
    assert not u.rows.flags.writeable and u.rows.flags.c_contiguous

    # the coefficients read back, and round-trip through the constructor
    assert _same(u.coeffs, full) and not u.coeffs.flags.writeable
    assert not np.shares_memory(u.coeffs, u.rows)
    again = PeriodicTrajectory(u.coeffs, dx)
    assert _same(again.coeffs, full) and again.rows.shape == (live, dim)

    theta, scalar = 0.7, -2.5
    results = {
        "add": (u + w, tall + w_tall), "sub": (u - w, tall - w_tall),
        "sub_reversed": (w - u, w_tall - tall),
        "mul": (u * scalar, tall * scalar), "rmul": (scalar * u, scalar * tall),
        "neg": (-u, -tall), "time_derivative": (u.time_derivative(),
                                                tall.time_derivative()),
        "time_shift": (u.time_shift(theta), tall.time_shift(theta)),
    }
    for name, (short_result, tall_result) in results.items():
        assert short_result.rows.shape[0] <= max(live, other), name
        assert short_result.n_t == n_t and short_result.dx == dx, name
        assert _same(short_result.coeffs, tall_result.coeffs), name
    for n in range(-n_t, n_t + 1):
        assert _same(u.fourier_coeff(n), tall.fourier_coeff(n))
    for t in (0.0, 1.3, 5.9):
        assert _same(u.at_time(t).data, tall.at_time(t).data)
    assert _same(u.sample_values(), tall.sample_values())
    assert _same(u.sample_values(n_t + 2), tall.sample_values(n_t + 2))
    assert u.top_mode() == tall.top_mode()
    for modes in (None, {0}, {1}, range(1, n_t + 1, 2), range(2, n_t + 1)):
        assert abs(u.norm(modes) - tall.norm(modes)) <= np.spacing(tall.norm(modes))
        if modes is not None:
            assert u.vanishes_outside(modes) == tall.vanishes_outside(modes)
    operator = sp.diags([np.arange(dim - 1.0), np.full(dim, -2.0), np.ones(dim - 1)],
                        [-1, 0, 1], format="csr")  # a sparse operator, as A and B are
    assert _same(u.apply_spatial(operator).coeffs, tall.apply_spatial(operator).coeffs)

    # grid checks compare n_t, dim and dx, not the stored heights
    for mismatched in (zero_trajectory(n_t + 1, dim, dx),
                       zero_trajectory(n_t, dim + 2, dx),
                       zero_trajectory(n_t, dim, 2 * dx)):
        with pytest.raises(ValueError, match="different grids"):
            u + mismatched
    zero = zero_trajectory(n_t, dim, dx)
    assert zero.rows.shape == (0, dim) and _same(zero.coeffs, np.zeros_like(full))
    assert _same((u + zero).coeffs, full) and zero.norm() == 0.0

    # the constructors that store fewer rows than n_t + 1
    if n_t >= 1:
        psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        harmonic = single_harmonic(psi, n_t, dx)
        expect = np.zeros_like(full)
        expect[1] = psi / 2.0
        assert harmonic.rows.shape == (2, dim) and _same(harmonic.coeffs, expect)
    samples = rng.normal(size=(2 * (live // 2) + 2, dim))
    spectrum = trajectory_from_samples(samples, dx, n_t)
    alone = trajectory_from_samples(samples, dx)
    assert spectrum.n_t == n_t and spectrum.rows.shape == alone.rows.shape
    padded = np.zeros_like(full)
    padded[: alone.rows.shape[0]] = alone.coeffs
    assert _same(spectrum.coeffs, padded)

    # the layouts' flat forms, from and to stored rows
    layouts = [range(n_t + 1)]
    if n_t >= 1:
        layouts += [range(1, 2), range(1, min(n_t, 7) + 1, 2)]
    for modes in layouts:
        layout = TrajectoryLayout(n_t, dim // 2, dx, modes)
        y = layout.flatten_trajectory(u)
        assert _same(y, layout.flatten(full))
        kept = np.zeros_like(full)
        kept[modes] = full[modes]
        assert layout.unflatten(y).shape == (modes[-1] + 1, dim)
        assert _same(layout.unflatten(y), kept[: modes[-1] + 1])
        back = layout.to_trajectory(y)
        assert back.n_t == n_t and _same(back.coeffs, kept)
