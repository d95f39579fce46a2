"""Time-periodic trajectories stored as truncated Fourier series.

A trajectory ``u(t, x)`` with period ``2*pi`` is represented by its complex
Fourier coefficients ``u_hat(n)`` for ``n = 0 .. n_t``; negative modes are
implied by the reality condition ``u_hat(-n) = conj(u_hat(n))``.  Each
coefficient is a vector over the spatial grid (all fields concatenated), so
the coefficient array has shape ``(n_t + 1, dim)``.

Collocation in time uses ``M = 2*n_t + 2`` equispaced samples, which leaves
one guard mode (index ``n_t + 1``) that is discarded on analysis; a product
with few modes is exact at fewer, and `ProblemDef` alone picks how many
(`ProblemDef.collocation_n_t`).  Each transform is one real matrix product
with a cached real DFT matrix (`_dft_matrices`), and the two are inverse on
the retained modes up to rounding.  A product over ``L`` modes costs ``2 *
M * 2L * dim`` flops; at these lengths BLAS runs it faster than an FFT runs
``dim`` strided transforms.  Synthesis multiplies only the modes up to the
last nonzero one, so a single harmonic costs a 2-mode product whatever
``n_t`` is; a trajectory finds those live modes once and keeps their count.
`newton.coupling_blocks` builds the Newton band's blocks from the same
pair.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = [
    "StateVector",
    "ComplexStateVector",
    "PeriodicTrajectory",
    "AmplitudeFunctional",
    "build_amplitude_functional",
    "single_harmonic",
    "zero_trajectory",
    "trajectory_from_samples",
]

_MODE0_IMAG_TOL = 1e-9


class _GridVector:
    """What `StateVector` and `ComplexStateVector` share: a read-only copy
    of ``data`` with grid spacing ``dx``.  They differ in ``_dtype``, the
    dtype of ``data`` and the type of the scalars that scale it."""

    __slots__ = ("data", "dx")
    _dtype = float

    def __init__(self, data, dx):
        arr = np.asarray(data, dtype=self._dtype).copy()
        if arr.ndim != 1 or arr.size % 2 != 0:
            raise ValueError("state vector must be 1-D with even length")
        arr.flags.writeable = False
        self.data = arr
        self.dx = float(dx)

    @property
    def nx(self):
        return self.data.size // 2

    def norm(self):
        return float(np.sqrt((self.data @ np.conj(self.data)).real * self.dx))

    def __add__(self, other):
        self._check_compatible(other)
        return type(self)(self.data + other.data, self.dx)

    def __sub__(self, other):
        self._check_compatible(other)
        return type(self)(self.data - other.data, self.dx)

    def __mul__(self, scalar):
        return type(self)(self.data * self._dtype(scalar), self.dx)

    __rmul__ = __mul__

    def _check_compatible(self, other):
        if not isinstance(other, type(self)):
            raise TypeError(f"expected a {type(self).__name__}")
        if other.data.size != self.data.size or other.dx != self.dx:
            raise ValueError("state vectors live on different grids")

    def __repr__(self):
        return (f"{type(self).__name__}(nx={self.nx}, dx={self.dx:g}, "
                f"norm={self.norm():.3e})")


class StateVector(_GridVector):
    """A real vector on the spatial grid: both fields concatenated.

    Parameters
    ----------
    data : array_like
        Real values, length ``2 * nx`` (field ``u`` then field ``v``).
    dx : float
        Grid spacing, used by the inner product and norms.
    """

    __slots__ = ()

    @property
    def fields(self):
        """The two component fields as a pair of views ``(u, v)``."""
        n = self.nx
        return self.data[:n], self.data[n:]

    def dot(self, other):
        """Grid inner product ``sum(self * other) * dx``."""
        self._check_compatible(other)
        return float(self.data @ other.data) * self.dx

    def __neg__(self):
        return StateVector(-self.data, self.dx)


class ComplexStateVector(_GridVector):
    """A complex vector on the spatial grid, e.g. an eigenvector.

    Carries the same grid metadata as `StateVector`.
    """

    __slots__ = ()
    _dtype = complex

    @property
    def real(self):
        return StateVector(self.data.real, self.dx)

    @property
    def imag(self):
        return StateVector(self.data.imag, self.dx)


class PeriodicTrajectory:
    """A ``2*pi``-periodic trajectory truncated at temporal mode ``n_t``.

    Parameters
    ----------
    coeffs : array_like, shape (n_t + 1, dim)
        Complex Fourier coefficients for modes ``0 .. n_t``.  Row 0 must be
        (numerically) real; its imaginary part is discarded after a sanity
        check, so the reality condition holds exactly.
    dx : float
        Spatial grid spacing.

    Notes
    -----
    Instances are immutable; arithmetic returns new trajectories.  ``dim``
    is the full concatenated state dimension (``2 * nx`` for two fields).

    The constructor (and `with_coeffs`) copies the array it is given, so
    the caller may go on changing its own.  Results computed inside the
    package -- arithmetic, negation, `time_derivative`, `time_shift`,
    `trajectory_from_samples`, the collocated residuals, the Newton
    products and `TrajectoryLayout.to_trajectory` -- instead adopt the
    fresh array they allocated (`_adopt`).  Either way ``coeffs`` is
    read-only, C-contiguous and shares no memory with an operand.
    """

    __slots__ = ("coeffs", "dx", "_live")

    def __init__(self, coeffs, dx):
        self._own(np.array(coeffs, dtype=complex, order="C"), dx)

    def _own(self, arr, dx):
        """Validate ``arr``, make row 0 exactly real and lock ``arr`` as
        this trajectory's coefficients, without copying it."""
        if arr.ndim != 2:
            raise ValueError("coefficient array must have shape (n_t + 1, dim)")
        if arr.shape[1] % 2 != 0:
            raise ValueError("state dimension must be even (two fields)")
        # The tolerance is relative to max(1, max|coeffs|): row 0 decides
        # alone unless it exceeds the bare tolerance, and only then is the
        # whole array scanned for the scale.
        worst = float(np.abs(arr[0].imag).max()) if arr.size else 0.0
        if worst > _MODE0_IMAG_TOL:
            scale = max(1.0, float(np.abs(arr).max()))
            if worst > _MODE0_IMAG_TOL * scale:
                raise ValueError(
                    f"mode-0 coefficient has imaginary part {worst:.2e}; "
                    "trajectory would not be real-valued"
                )
        arr[0] = arr[0].real
        arr.flags.writeable = False
        self.coeffs = arr
        self.dx = float(dx)
        self._live = None

    # -- basic shape info -------------------------------------------------

    @property
    def n_t(self):
        return self.coeffs.shape[0] - 1

    @property
    def dim(self):
        return self.coeffs.shape[1]

    @property
    def nx(self):
        return self.dim // 2

    @property
    def n_samples(self):
        """Number of collocation points in time, ``2 * n_t + 2``."""
        return 2 * self.n_t + 2

    # -- construction helpers ---------------------------------------------

    def with_coeffs(self, coeffs):
        """A trajectory on the same grid with different coefficients."""
        return PeriodicTrajectory(coeffs, self.dx)

    # -- evaluation ---------------------------------------------------------

    def _live_rows(self):
        """The number of coefficient rows up to the last nonzero one: the
        live modes ``0 .. L-1``, which `sample_values` multiplies and a
        branch point keeps; scanned once and kept, as ``coeffs`` is read-only."""
        if self._live is None:
            live = np.flatnonzero(self.coeffs.any(axis=1))
            self._live = int(live[-1]) + 1 if live.size else 0
        return self._live

    def fourier_coeff(self, n):
        """Coefficient of ``exp(i*n*t)`` for ``-n_t <= n <= n_t``."""
        if abs(n) > self.n_t:
            raise ValueError(f"mode {n} outside retained range |n| <= {self.n_t}")
        if n >= 0:
            return self.coeffs[n].copy()
        return np.conj(self.coeffs[-n])

    def top_mode(self):
        """The last live mode (`_live_rows`), 0 for the zero trajectory."""
        return max(self._live_rows() - 1, 0)

    def sample_values(self, n_t=None):
        """Values at the ``M = 2*n_t + 2`` collocation times, shape (M, dim).

        ``n_t``, the trajectory's own by default, may be any from `top_mode`
        on.  The samples are real, in a fresh writable array;
        ``trajectory_from_samples`` inverts this up to rounding.  Only the
        live modes ``0 .. L-1``, up to the last nonzero coefficient row,
        enter the product: their real and imaginary rows are stacked in
        the order of the synthesis matrix's columns, so they meet its
        first ``2L`` columns.
        """
        n_t = self.n_t if n_t is None else n_t
        n_live = self._live_rows()
        if n_t < n_live - 1:
            raise ValueError(f"n_t = {n_t} is below the top mode {n_live - 1}")
        kept = self.coeffs[:n_live]
        stacked = np.stack((kept.real, kept.imag), axis=1).reshape(-1, self.dim)
        return _dft_matrices(n_t)[0][:, : 2 * n_live] @ stacked

    def sample_times(self):
        m = self.n_samples
        return 2.0 * np.pi * np.arange(m) / m

    def at_time(self, t):
        """Evaluate the series at an arbitrary time, as a `StateVector`."""
        phases = np.exp(1j * float(t) * np.arange(self.n_t + 1))
        vals = phases @ self.coeffs
        vals = 2.0 * vals - self.coeffs[0]  # n>=1 modes count twice (conjugates)
        return StateVector(vals.real, self.dx)

    # -- calculus and symmetries -------------------------------------------

    def time_derivative(self):
        """d/dt of the trajectory (mode ``n`` multiplied by ``i*n``)."""
        factors = 1j * np.arange(self.n_t + 1)
        return _adopt(self.coeffs * factors[:, None], self.dx)

    def time_shift(self, theta):
        """The translated trajectory ``t -> u(t + theta, .)``."""
        phases = np.exp(1j * float(theta) * np.arange(self.n_t + 1))
        return _adopt(self.coeffs * phases[:, None], self.dx)

    # -- norms ---------------------------------------------------------------

    def norm(self, modes=None):
        """Space-time L2 norm over one period, normalised in time.

        Parseval: ``|u|^2 = sum_n |u_hat(n)|^2`` with weight 2 on ``n >= 1``,
        times ``dx`` for the spatial measure.  ``modes``, a set of mode
        numbers ``n >= 0``, restricts the sum to them by giving every other
        mode weight 0 (modes above ``n_t`` are not there to count): for
        finite coefficients, bitwise the norm of a copy with the other rows
        zeroed.
        """
        w = np.full(self.n_t + 1, 2.0)
        w[0] = 1.0
        if modes is not None:
            w[~np.isin(np.arange(self.n_t + 1), list(modes))] = 0.0
        power = np.einsum("n,nd->", w, (self.coeffs * np.conj(self.coeffs)).real)
        return float(np.sqrt(power * self.dx))

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        self._check_compatible(other)
        return _adopt(self.coeffs + other.coeffs, self.dx)

    def __sub__(self, other):
        self._check_compatible(other)
        return _adopt(self.coeffs - other.coeffs, self.dx)

    def __mul__(self, scalar):
        return _adopt(self.coeffs * float(scalar), self.dx)

    __rmul__ = __mul__

    def __neg__(self):
        return _adopt(-self.coeffs, self.dx)

    def _check_compatible(self, other):
        if not isinstance(other, PeriodicTrajectory):
            raise TypeError("expected a PeriodicTrajectory")
        if other.coeffs.shape != self.coeffs.shape or other.dx != self.dx:
            raise ValueError("trajectories live on different grids")

    def __repr__(self):
        return (
            f"PeriodicTrajectory(n_t={self.n_t}, nx={self.nx}, "
            f"dx={self.dx:g}, norm={self.norm():.3e})"
        )


def _adopt(coeffs, dx):
    """A `PeriodicTrajectory` that takes ``coeffs`` as its own, no copy.

    For complex C-contiguous arrays a caller has just allocated and keeps
    no other reference to (an array of another layout or dtype is copied
    into one); row 0 is made exactly real in place and the array is
    locked, so the caller must not write to it afterwards.
    """
    traj = PeriodicTrajectory.__new__(PeriodicTrajectory)
    traj._own(np.require(coeffs, dtype=complex, requirements="C"), dx)
    return traj


def zero_trajectory(n_t, dim, dx):
    """The zero trajectory with the given truncation and grid."""
    return PeriodicTrajectory(np.zeros((n_t + 1, dim), dtype=complex), dx)


@functools.lru_cache(maxsize=16)
def _dft_matrices(n_t):
    """The read-only real DFT pair for ``M = 2*n_t + 2`` samples.

    ``synthesis`` has shape ``(M, 2(n_t+1))``: columns ``2n`` and ``2n+1``
    are ``w_n cos(n t_j)`` and ``-w_n sin(n t_j)`` with ``w_0 = 1`` and
    ``w_n = 2`` above, so the stacked rows ``Re u_hat(n), Im u_hat(n)``
    map to the samples.  ``analysis`` has shape ``(2(n_t+1), M)``: rows
    ``cos(n t_j) / M`` for every mode, then ``-sin(n t_j) / M``, the real
    and imaginary halves of the retained spectrum.  Each angle is taken
    from ``(j*n) mod M``, so every entry is within about one ulp of 1 of
    its exact value, however large ``j*n`` is.
    """
    m = 2 * n_t + 2
    modes = np.arange(n_t + 1)
    angle = 2.0 * np.pi / m * ((np.arange(m)[:, None] * modes) % m)
    cos, sin = np.cos(angle), np.sin(angle)
    weight = np.where(modes == 0, 1.0, 2.0)
    synthesis = np.stack((weight * cos, -weight * sin), axis=2).reshape(m, -1)
    analysis = np.concatenate((cos.T, -sin.T)) / m
    synthesis.flags.writeable = False
    analysis.flags.writeable = False
    return synthesis, analysis


def trajectory_from_samples(samples, dx, n_t=None):
    """Build a trajectory from values at the standard collocation times.

    Parameters
    ----------
    samples : array_like, shape (M, dim)
        Real values at ``t_k = 2*pi*k/M``.  ``M`` must be even and
        positive; the result keeps modes ``0 .. M/2 - 1`` (the guard mode
        ``M/2`` is dropped).
    dx : float
        Spatial grid spacing.
    n_t : int, optional
        The result's truncation, ``M/2 - 1`` by default and at least that;
        modes above ``M/2 - 1`` are zero.

    Notes
    -----
    One product with the cached analysis matrix gives the real and the
    imaginary halves of the spectrum, written into one fresh complex
    array that the result adopts.
    """
    arr = np.asarray(samples, dtype=float)
    if arr.ndim != 2 or arr.shape[0] % 2 != 0 or not arr.shape[0]:
        raise ValueError("samples must have shape (M, dim) with M even")
    if n_t is not None and not n_t >= arr.shape[0] // 2 - 1:
        raise ValueError(f"n_t = {n_t} is below M/2 - 1 = {arr.shape[0] // 2 - 1}")
    n_modes = arr.shape[0] // 2
    halves = _dft_matrices(n_modes - 1)[1] @ arr
    spec = np.zeros((n_modes if n_t is None else n_t + 1, arr.shape[1]), complex)
    spec.real[:n_modes] = halves[:n_modes]
    spec.imag[:n_modes] = halves[n_modes:]
    return _adopt(spec, dx)


def single_harmonic(psi, n_t, dx=None):
    """Embed a complex vector as the pure first harmonic ``Re(psi * e^{it})``.

    This is the linear map used to seed Newton iterations and to state the
    phase normalisation: the resulting trajectory has ``u_hat(1) = psi / 2``
    and no other content.

    Parameters
    ----------
    psi : ComplexStateVector or array_like
        Complex spatial profile.
    n_t : int
        Temporal truncation of the result.
    dx : float, optional
        Required when ``psi`` is a bare array.
    """
    if isinstance(psi, ComplexStateVector):
        data, dx = psi.data, psi.dx
    else:
        if dx is None:
            raise ValueError("dx is required when psi is a plain array")
        data = np.asarray(psi, dtype=complex)
    if n_t < 1:
        raise ValueError("need n_t >= 1 to hold the first harmonic")
    coeffs = np.zeros((n_t + 1, data.size), dtype=complex)
    coeffs[1] = data / 2.0
    return PeriodicTrajectory(coeffs, float(dx))


class AmplitudeFunctional:
    """The pair of phase-fixing functionals built from a real weight profile.

    ``l1(u) = <u(0, .), w>`` and ``l2(u) = l1`` applied a quarter period
    later -- concretely, with ``m(x) = <x, w> * dx`` on state vectors and
    ``m_c`` its complexification,

    ``l(u) = (2 * Re(m_c(u_hat(1))), -2 * Im(m_c(u_hat(1))))``

    which picks out the first temporal harmonic only.  Under a time
    advance by ``theta`` the pair rotates clockwise:
    ``l(u(. + theta)) = R(-theta) @ l(u)`` with ``R`` the usual rotation
    matrix, so the translation orbit of a trajectory traces a circle in the
    ``(l1, l2)`` plane.  The weight is normalised so that the designated
    first-harmonic profile scores ``(1, 0)``.

    Attributes
    ----------
    weight : StateVector
        The real profile defining ``m``.
    """

    __slots__ = ("weight",)

    def __init__(self, weight):
        if not isinstance(weight, StateVector):
            raise TypeError("weight must be a StateVector")
        self.weight = weight

    def m_complex(self, z):
        """Complexification of ``m`` (linear, no conjugation) on an array."""
        return complex(np.asarray(z) @ self.weight.data) * self.weight.dx

    def pair(self, traj):
        """Evaluate ``(l1, l2)`` on a trajectory; returns shape-(2,) array."""
        w1 = self.m_complex(traj.fourier_coeff(1))
        return np.array([2.0 * w1.real, -2.0 * w1.imag])

    def phase_angle(self, traj):
        """The angle ``theta`` with ``l(u) = |l(u)| * (cos, sin)(theta)``.

        Advancing the trajectory by this angle aligns its pair with the
        positive first axis: ``pair(traj.time_shift(phase_angle(traj)))``
        is ``(|l(u)|, 0)``.
        """
        p, q = self.pair(traj)
        return float(np.arctan2(q, p))


def build_amplitude_functional(psi, adjoint=None):
    """Construct the phase functional adapted to an eigenvector.

    The weight ``w`` is chosen in ``span{Re(phi), Im(phi)}`` (``phi`` the
    adjoint eigenvector, or ``psi`` itself when none is supplied) so that
    the complexified functional satisfies ``m_c(psi) = 1``.  Consequently
    the first-harmonic embedding of ``psi`` scores ``l = (1, 0)``, and the
    same embedding of ``i * psi`` scores ``(0, -1)``.

    Parameters
    ----------
    psi : ComplexStateVector
        The eigenvector that defines the phase convention.
    adjoint : ComplexStateVector, optional
        Adjoint eigenvector; using it makes the functional annihilate the
        complementary spectral subspace, which sharpens the bordered
        systems downstream.

    Raises
    ------
    ValueError
        If the 2x2 normalisation system is numerically singular (the
        weight family cannot see ``psi``).
    """
    phi = adjoint if adjoint is not None else psi
    d1, d2 = phi.real, phi.imag
    a, b = psi.real, psi.imag
    # Solve for weight = c1*d1 + c2*d2 with m(a) = 1, m(b) = 0.
    gram = np.array([[a.dot(d1), a.dot(d2)], [b.dot(d1), b.dot(d2)]])
    cond = np.linalg.cond(gram)
    if not np.isfinite(cond) or cond > 1e12:
        raise ValueError(
            "eigenvector and weight family are numerically degenerate "
            f"(cond = {cond:.2e}); cannot normalise the phase functional"
        )
    c = np.linalg.solve(gram, np.array([1.0, 0.0]))
    weight = c[0] * d1 + c[1] * d2
    func = AmplitudeFunctional(weight)
    check = func.m_complex(psi.data)
    if abs(check - 1.0) > 1e-10:
        raise ValueError(f"normalisation failed: m_c(psi) = {check:.3e}, wanted 1")
    return func
