"""Shared fixtures and synthetic problem builders for the test suite."""

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

from hopfkit.problem import ProblemDef
from hopfkit.reaction_diffusion import ExampleConfig, make_problem


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
        apply_h_uu=lambda lam, w, v1, v2: np.zeros_like(v1),
        dx=dx,
        L=1.0,
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
        apply_h_uu=lambda lam, w, v1, v2: (
            problem.apply_h_uu(lam, w, v1, v2) + 2.0 * eps * v1 * v2),
        name=problem.name + "+even",
    )


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
