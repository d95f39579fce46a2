"""Shared fixtures and synthetic problem builders for the test suite."""

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

from hopfkit.problem import ProblemDef
from hopfkit.reaction_diffusion import ExampleConfig, make_problem
from hopfkit.trajectory import PeriodicTrajectory


def synthetic_problem(a, h="zero", c=1.0, dx=1.0, name="synthetic",
                      shift=0.0):
    """Wrap a small dense matrix as a ProblemDef with a trivial nonlinearity.

    h = "zero":    h(lam, w) = 0
    h = "linear":  h(lam, w) = (c * lam + shift) * w
                   (so h_lambda_u = c * identity and h_u(0, 0) = shift)
    """
    if h == "zero":
        def hfun(lam, w):
            return np.zeros_like(w)

        def hu(lam, w, v):
            return np.zeros_like(v)

        def hlam(lam, w):
            return np.zeros_like(w)

        def hlamu(lam, w, v):
            return np.zeros_like(v)

    elif h == "linear":
        def hfun(lam, w):
            return (c * lam + shift) * np.asarray(w, dtype=float)

        def hu(lam, w, v):
            return (c * lam + shift) * np.asarray(v, dtype=float)

        def hlam(lam, w):
            return c * np.asarray(w, dtype=float)

        def hlamu(lam, w, v):
            return c * np.asarray(v, dtype=float)

    else:
        raise ValueError(h)

    return ProblemDef(
        A=sp.csc_matrix(np.asarray(a, dtype=float)),
        apply_h=hfun,
        apply_h_u=hu,
        apply_h_lambda=hlam,
        apply_h_lambda_u=hlamu,
        dx=dx,
        name=name,
    )


def with_even_term(problem, eps):
    """``problem`` with ``eps * w**2`` added to h, pointwise: h is no longer
    odd, so the periodic branch has even Fourier modes.  ``h_u(lam, 0)``,
    and with it every hypothesis check, is unchanged."""
    return dataclasses.replace(
        problem,
        apply_h=lambda lam, w: problem.apply_h(lam, w) + eps * w * w,
        apply_h_u=lambda lam, w, v: problem.apply_h_u(lam, w, v) + 2.0 * eps * w * v,
        name=problem.name + "+even",
    )


def with_sampled_wobble(problem, eps):
    """``problem`` whose ``h_u`` gains ``eps * cos(t_j) * z`` when it is
    given collocation samples (``z`` of shape ``(M, dim)``, ``t_j = 2 pi j
    / M``), and only then.  On single states, which the derivative check
    and ``B`` read, ``h_u`` is unchanged, and so is ``h``; the Jacobian of
    the periodic problem couples mode ``n`` to ``n +- 1`` by ``eps``, even
    at the zero base."""
    def h_u(lam, w, z):
        out = problem.apply_h_u(lam, w, z)
        if np.ndim(z) == 2:
            t = 2.0 * np.pi * np.arange(len(z)) / len(z)
            out = out + eps * np.cos(t)[:, None] * z
        return out

    return dataclasses.replace(problem, apply_h_u=h_u,
                               name=problem.name + "+wobble")


def with_rotation_breaking_term(problem, eps, cube=lambda u: u * u * u):
    """``problem`` with ``eps * lam * (u**3, 0)`` added to h, pointwise,
    ``u`` the first field and its cube computed as ``cube(u)`` (written
    ``u ** 3``, numpy's cube is odd only up to rounding): h stays odd, but
    no longer commutes with rotating a grid point's field pair, so the
    branch is not made of rotating waves.  At ``lam = 0`` the term
    vanishes, and ``h_u(lam, 0)``, ``h_lambda_u(lam, 0)`` and with them
    every hypothesis check are unchanged."""
    nx = problem.dim // 2

    def cubed(w, z=None):
        """``(u**3, 0)``, or with ``z`` its derivative ``(3 u**2 z_u, 0)``."""
        out = np.zeros(np.shape(w if z is None else z))
        u = w[..., :nx]
        out[..., :nx] = cube(u) if z is None else 3.0 * u * u * z[..., :nx]
        return out

    return dataclasses.replace(
        problem,
        apply_h=lambda lam, w: problem.apply_h(lam, w) + eps * lam * cubed(w),
        apply_h_u=lambda lam, w, v: (problem.apply_h_u(lam, w, v)
                                     + eps * lam * cubed(w, v)),
        apply_h_lambda=lambda lam, w: problem.apply_h_lambda(lam, w) + eps * cubed(w),
        apply_h_lambda_u=lambda lam, w, v: (problem.apply_h_lambda_u(lam, w, v)
                                            + eps * cubed(w, v)),
        name=problem.name + "+anisotropic",
    )


def psi_forcing(decomp, g, dx):
    """The real forcing ``g(t) psi + conj(g(t) psi)`` of a two-sided scalar
    path ``g`` (coefficients of ``n = -n_t .. n_t`` at ``n + n_t``)."""
    n_t = len(g) // 2
    psi = decomp.psi.data
    coeffs = np.array([g[n_t + n] * psi + np.conj(g[n_t - n] * psi)
                       for n in range(n_t + 1)])
    return PeriodicTrajectory(coeffs, dx)


def psi_path(decomp, u):
    """The two-sided coordinate path of ``u`` along ``psi``: ``u`` is real,
    so mode ``-n`` is the conjugate of mode ``n``'s ``conj(psi)``
    coordinate."""
    pairs = [decomp.coordinates(col) for col in u.coeffs]
    negative = [np.conj(h) for _, h in pairs[:0:-1]]
    return np.array(negative + [g for g, _ in pairs])


def evaluate_path(path, ts):
    """Values at times ``ts`` of a two-sided scalar path."""
    n_t = len(path) // 2
    return np.exp(1j * np.multiply.outer(ts, np.arange(-n_t, n_t + 1))) @ path


def dense_of_storage(system):
    """Dense copy of a `BandedMatrix`, or of a `BorderedSystem` with its
    two border columns and rows appended, read from the band's LAPACK
    storage (``ab[kl + ku + i - j, j]`` is entry ``(i, j)``) rather than
    through the band's own products."""
    band = getattr(system, "band", system)
    assert not band.consumed, "the band was factorized in place"
    offsets = np.arange(-band.kl, band.ku + 1)  # j - i
    core = sp.dia_matrix((band.ab[band.kl + band.ku - offsets], offsets),
                         shape=(band.size, band.size)).toarray()
    if band is system:
        return core
    n = band.size
    dense = np.zeros((n + 2, n + 2))
    dense[:n, :n] = core
    dense[:n, n:] = system.columns
    for k, (idx, vals) in enumerate(system.rows):
        np.add.at(dense[n + k], idx, vals)
    return dense


def rotation_block(freq=1.0, decay=(-2.0, -3.0)):
    """4x4 matrix with eigenvalues +-i*freq and the given real decay rates."""
    return np.array(
        [
            [0.0, -freq, 0.0, 0.0],
            [freq, 0.0, 0.0, 0.0],
            [0.0, 0.0, decay[0], 0.0],
            [0.0, 0.0, 0.0, decay[1]],
        ]
    )


def skewed_rotation_block():
    """`rotation_block` with a non-normal decay block: its skew part has
    absolute row sums 1, 1, 2.5, 2.5, so the skew bound is 2.5 and the
    modes n = 0, 2 are head modes, n >= 3 tail modes."""
    a = rotation_block()
    a[2, 3] = 5.0
    return a


@pytest.fixture(scope="session")
def coarse_cfg():
    return ExampleConfig(L=20.0, dx=0.2)


@pytest.fixture(scope="session")
def coarse_problem(coarse_cfg):
    return make_problem(coarse_cfg)


@pytest.fixture(scope="session")
def coarse_standard_cfg():
    return ExampleConfig(L=20.0, dx=0.2, discretely_consistent_rho=False)


@pytest.fixture(scope="session")
def coarse_standard_problem(coarse_standard_cfg):
    return make_problem(coarse_standard_cfg)


@pytest.fixture(scope="session")
def coarse_quasi_cfg():
    return ExampleConfig(L=20.0, dx=0.2, variant="quasilinear")


@pytest.fixture(scope="session")
def coarse_quasi_problem(coarse_quasi_cfg):
    return make_problem(coarse_quasi_cfg)
