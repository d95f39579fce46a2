"""The concrete two-field reaction-diffusion example on a truncated line.

The system couples two diffusing fields through a rotation and a bound-state
potential:

    u_t = u_xx - rho(x) u - v + h-part,    v_t = v_xx - rho(x) v + u + ...

with ``rho(x) = (2 tanh^2(x/2) - 1) / 4`` and the profile
``kappa(x) = sech(x/2)`` satisfying ``kappa'' = rho kappa``.  In complex
form ``w = u + i v`` the linear part is ``S + i`` with
``S = d_xx - rho``, whose top eigenvalue is 0 with eigenfunction
``kappa``; hence ``psi = (kappa, -i kappa)`` is an eigenvector of the full
operator at eigenvalue ``i`` and the system sits exactly at a bifurcation
point at ``lam = 0``.

Two nonlinear variants are provided:

* ``semilinear``: ``h = (u, v) * (lam kappa^2 - u^2 - v^2)`` pointwise,
  which admits the closed-form branch
  ``(u, v) = sqrt(lam) kappa (cos t, sin t)`` with period exactly
  ``2*pi`` -- the main end-to-end oracle.
* ``quasilinear``: additionally ``h1 = ((u^2 u_x)_x, (v^2 v_x)_x)``,
  discretised with the same central stencils as the linear part.

Discretisation: second-order central differences on a uniform grid over
``[-L, L]`` with homogeneous Dirichlet values beyond the endpoints.  In
``discretely_consistent_rho`` mode the potential is replaced gridwise by
``rho_h = (D2 kappa_h) / kappa_h`` so the identity ``D2 kappa_h = rho_h
kappa_h`` -- and with it the exact branch -- holds to rounding on the grid
rather than to O(dx^2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .problem import ProblemDef
from .trajectory import ComplexStateVector, StateVector, single_harmonic

__all__ = [
    "ExampleConfig",
    "make_problem",
    "grid",
    "kappa",
    "rho",
    "kappa_grid",
    "rho_grid",
    "reference_eigenvector",
    "exact_branch_state",
    "exact_branch_trajectory",
]

VARIANTS = ("semilinear", "quasilinear")


def kappa(x):
    """The localisation profile ``sech(x/2)``."""
    return 1.0 / np.cosh(np.asarray(x) / 2.0)


def rho(x):
    """The potential ``(2 tanh^2(x/2) - 1) / 4``; note ``kappa'' = rho kappa``."""
    t = np.tanh(np.asarray(x) / 2.0)
    return (2.0 * t * t - 1.0) / 4.0


@dataclass(frozen=True)
class ExampleConfig:
    """Grid and variant selection for the example problem.

    ``L >= 20`` keeps the Dirichlet truncation error of ``kappa`` below
    ``sech(10) ~ 1e-4``; ``dx <= 0.2`` keeps the stencil in its asymptotic
    range.
    """

    variant: str = "semilinear"
    L: float = 30.0
    dx: float = 0.05
    discretely_consistent_rho: bool = True
    boundary: str = "dirichlet"

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}; pick from {VARIANTS}")
        if self.boundary != "dirichlet":
            raise ValueError("only dirichlet boundaries are implemented")
        if not self.L >= 20:
            raise ValueError("L must be >= 20 (profile truncation)")
        if not 0 < self.dx <= 0.2:
            raise ValueError("dx must lie in (0, 0.2]")

    @property
    def nx(self):
        return int(round(2 * self.L / self.dx)) + 1

    @property
    def h_stencil(self):
        """Spatial reach of the nonlinearity: pointwise, or the quasilinear
        nested central differences."""
        return 2 if self.variant == "quasilinear" else 0


def grid(cfg):
    """The uniform grid over ``[-L, L]`` including both endpoints."""
    return -cfg.L + cfg.dx * np.arange(cfg.nx)


def kappa_grid(cfg):
    return kappa(grid(cfg))


def _second_difference(nx, dx):
    main = np.full(nx, -2.0)
    off = np.ones(nx - 1)
    return sp.diags([off, main, off], [-1, 0, 1], format="csr") / dx**2


def rho_grid(cfg):
    """The potential on the grid, exact or discretely consistent.

    In consistent mode the quotient ``(D2 kappa_h) / kappa_h`` is well
    defined everywhere (``kappa > 0``) but picks up large values near the
    boundary where the Dirichlet ghost cuts off the tail; the resulting
    spurious potential well only moves spectrum far into the stable
    half-plane.
    """
    kap = kappa_grid(cfg)
    if cfg.discretely_consistent_rho:
        d2 = _second_difference(cfg.nx, cfg.dx)
        return (d2 @ kap) / kap
    return rho(grid(cfg))


def _diff1(vals, dx):
    """Central first difference along the last axis, zero beyond the ends."""
    out = np.empty_like(vals)
    out[..., 1:-1] = vals[..., 2:] - vals[..., :-2]
    out[..., 0] = vals[..., 1]
    out[..., -1] = -vals[..., -2]
    return out / (2.0 * dx)


def make_problem(cfg=ExampleConfig()):
    """Assemble the example as a `ProblemDef`.

    The linear part is the block matrix ``[[S, -I], [I, S]]`` with
    ``S = D2 - diag(rho_h)``; its spectrum is the spectrum of ``S``
    shifted by ``+-i``, so 0 is in the resolvent set and the leading
    eigenvalues are the pair at ``+-i``.
    """
    nx = cfg.nx
    dx = cfg.dx
    kap = kappa_grid(cfg)
    kap2 = kap * kap
    s_op = _second_difference(nx, dx) - sp.diags(rho_grid(cfg))
    eye = sp.identity(nx, format="csr")
    a = sp.bmat([[s_op, -eye], [eye, s_op]], format="csc")

    def split(w):
        return w[..., :nx], w[..., nx:]

    def join(u, v):
        return np.concatenate([u, v], axis=-1)

    def fieldwise(fn, *ws):
        """``fn`` on the ``u`` parts of ``ws``, then on the ``v`` parts."""
        parts = [split(w) for w in ws]
        return join(fn(*(p[0] for p in parts)), fn(*(p[1] for p in parts)))

    def cubic_factor(lam, u, v):
        return lam * kap2 - u * u - v * v

    def h_semi(lam, w):
        u, v = split(w)
        c = cubic_factor(lam, u, v)
        return join(u * c, v * c)

    def h_semi_u(lam, w, z):
        u, v = split(w)
        zu, zv = split(z)
        c = cubic_factor(lam, u, v)
        return join(
            (c - 2.0 * u * u) * zu - 2.0 * u * v * zv,
            -2.0 * u * v * zu + (c - 2.0 * v * v) * zv,
        )

    def h_semi_lam(lam, w):
        return fieldwise(lambda f: f * kap2, w)

    def h_semi_lam_u(lam, w, z):  # h_lam is linear in w
        return h_semi_lam(lam, z)

    if cfg.variant == "semilinear":
        h, h_u = h_semi, h_semi_u
    else:
        # Quasilinear: add h1 = ((u^2 u_x)_x, (v^2 v_x)_x) per field, with
        # nested central differences so that the derivative formulas below
        # are the exact derivatives of the discrete h1.
        def h1_field(u):
            return _diff1(u * u * _diff1(u, dx), dx)

        def h1_field_u(u, z):
            return _diff1(2.0 * u * _diff1(u, dx) * z + u * u * _diff1(z, dx), dx)

        def h(lam, w):
            return h_semi(lam, w) + fieldwise(h1_field, w)

        def h_u(lam, w, z):
            return h_semi_u(lam, w, z) + fieldwise(h1_field_u, w, z)

    mode = "consistent" if cfg.discretely_consistent_rho else "standard"
    return ProblemDef(
        A=a,
        apply_h=h,
        apply_h_u=h_u,
        apply_h_lambda=h_semi_lam,
        apply_h_lambda_u=h_semi_lam_u,
        dx=dx,
        lambda_window=(-1.0, 1.0),
        trust_radius=10.0,
        h_stencil=cfg.h_stencil,
        name=f"reaction-diffusion/{cfg.variant}/{mode}",
    )


def reference_eigenvector(cfg):
    """The analytic eigenvector ``(kappa, -i kappa)`` at eigenvalue ``i``.

    Exact for the discrete operator in consistent mode; O(dx^2) close in
    standard mode.  The adjoint (transpose) eigenvector at ``-i`` has the
    same components.
    """
    kap = kappa_grid(cfg)
    return ComplexStateVector(np.concatenate([kap, -1j * kap]), cfg.dx)


def exact_branch_state(cfg, lam, t):
    """The closed-form orbit sampled at phase ``t`` (semilinear variant).

    ``(u, v) = sqrt(lam) kappa(x) (cos t, sin t)``; requires ``lam >= 0``.
    """
    if lam < 0:
        raise ValueError("the closed-form branch needs lam >= 0")
    amp = np.sqrt(lam) * kappa_grid(cfg)
    return StateVector(
        np.concatenate([amp * np.cos(t), amp * np.sin(t)]), cfg.dx
    )


def exact_branch_trajectory(cfg, lam, n_t=16):
    """The closed-form orbit as a `PeriodicTrajectory`: the first harmonic
    `single_harmonic` of ``sqrt(lam) * reference_eigenvector(cfg)``."""
    if lam < 0:
        raise ValueError("the closed-form branch needs lam >= 0")
    return single_harmonic(reference_eigenvector(cfg) * np.sqrt(lam), n_t)
