"""Run configuration: a flat dotted-key config file and its schema.

The file format is deliberately primitive so any tool can read and diff it:
one ``section.key = value`` assignment per line, ``#`` comments, blank lines
ignored.  Example::

    # coarse run for quick iteration
    problem.variant = semilinear
    problem.L = 20
    problem.dx = 0.2
    solver.alpha_steps = 10
    output.path = out/coarse

Every key has a default, so the empty file is a valid configuration (the
default problem).  Unknown keys are hard errors -- a typo must not silently
fall back to a default.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .problem import ProblemDef
from .reaction_diffusion import ExampleConfig, make_problem

__all__ = [
    "ConfigError",
    "SolverSettings",
    "OutputSettings",
    "RunConfig",
    "parse_config",
    "load_config",
    "build_problem",
]


class ConfigError(Exception):
    """A configuration file could not be read, parsed, or validated."""


@dataclass(frozen=True)
class SolverSettings:
    newton_tol: float = 1e-10
    max_iter: int = 25
    n_t: int = 16
    alpha_max: float = 0.5
    alpha_steps: int = 10
    n_max_resolvent: int = 16


@dataclass(frozen=True)
class OutputSettings:
    format: str = "csv"
    path: str = "out"
    verbosity: int = 1


@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration: the problem plus solver/output knobs.

    ``frozen_parameter`` decouples the nonlinearity from the parameter
    (it is evaluated at ``lambda = 0`` regardless), which removes the
    eigenvalue crossing -- a deliberate way to exercise the degenerate
    paths of the hypothesis checks from a config file.
    """

    problem: ExampleConfig = ExampleConfig()
    frozen_parameter: bool = False
    solver: SolverSettings = SolverSettings()
    output: OutputSettings = OutputSettings()


def _parse_bool(text):
    lowered = text.lower()
    if lowered in ("true", "yes", "on", "1"):
        return True
    if lowered in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _parse_choice(choices):
    def parse(text):
        if text not in choices:
            raise ValueError(f"expected one of {choices}, got {text!r}")
        return text

    return parse


_SCHEMA = {
    "problem.variant": _parse_choice(("semilinear", "quasilinear")),
    "problem.L": float,
    "problem.dx": float,
    "problem.discretely_consistent_rho": _parse_bool,
    "problem.boundary": _parse_choice(("dirichlet",)),
    "problem.frozen_parameter": _parse_bool,
    "solver.newton_tol": float,
    "solver.max_iter": int,
    "solver.n_t": int,
    "solver.alpha_max": float,
    "solver.alpha_steps": int,
    "solver.n_max_resolvent": int,
    "output.format": _parse_choice(("csv", "json")),
    "output.path": str,
    "output.verbosity": int,
}


def _parse_lines(text):
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(
                f"line {lineno}: expected 'section.key = value', got {raw!r}"
            )
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _SCHEMA:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            values[key] = _SCHEMA[key](value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: {exc}") from exc
    return values


def _validate_solver(settings):
    if not 0 < settings.newton_tol < np.inf:
        raise ConfigError("solver.newton_tol must be positive and finite")
    if settings.max_iter < 1:
        raise ConfigError("solver.max_iter must be at least 1")
    if settings.n_t < 1:
        raise ConfigError("solver.n_t must be at least 1")
    if not 0 <= settings.alpha_max < np.inf:
        raise ConfigError("solver.alpha_max must be nonnegative and finite")
    if settings.alpha_steps < 2:
        raise ConfigError("solver.alpha_steps must be at least 2")
    # The branch divides by its first amplitude; below the smallest normal
    # float the quotient overflows.
    if 0 < settings.alpha_max / settings.alpha_steps < np.finfo(float).tiny:
        raise ConfigError(
            "solver.alpha_max must be 0 or at least alpha_steps times the "
            "smallest normal float"
        )
    if settings.n_max_resolvent < 2:
        raise ConfigError("solver.n_max_resolvent must be at least 2")


def _check_memory(problem, solver):
    """Reject grids whose Newton band cannot fit in physical memory.

    Upper bound of one factorized band (the band plus its LU factor, 8
    bytes per entry): ``block = 4 n_t + 2`` unknowns per grid point and
    ``kl = ku <= (max(1, h_stencil) + 1) * block``.  Computed in floats so
    an infinite grid is rejected too.
    """
    block = 4.0 * solver.n_t + 2.0
    half_width = (max(1, problem.h_stencil) + 1) * block
    nx = 2.0 * problem.L / problem.dx + 1.0
    need = 2 * 8.0 * (3.0 * half_width + 1.0) * nx * block
    available = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if not need <= available:
        raise ConfigError(
            f"grid too large: a Newton band needs up to {need / 2**30:.3g} GiB "
            f"(nx ~ {nx:.3g}, n_t = {solver.n_t}), physical memory is "
            f"{available / 2**30:.3g} GiB"
        )


def parse_config(text):
    """Parse config text into a validated `RunConfig`.

    Raises
    ------
    ConfigError
        On syntax errors, unknown or duplicate keys, unparseable values,
        domain violations (both the solver invariants and the grid
        constraints enforced by `ExampleConfig`), and grids whose Newton
        band would not fit in physical memory.
    """
    values = _parse_lines(text)

    def section(prefix, cls):
        fields = {
            key.split(".", 1)[1]: val
            for key, val in values.items()
            if key.startswith(prefix + ".")
        }
        return cls(**fields)

    try:
        problem = section("problem", lambda **kw: kw)
        frozen = problem.pop("frozen_parameter", False)
        problem_cfg = ExampleConfig(**problem)
    except ValueError as exc:
        raise ConfigError(f"problem configuration: {exc}") from exc

    solver = section("solver", SolverSettings)
    _validate_solver(solver)
    _check_memory(problem_cfg, solver)
    output = section("output", OutputSettings)
    if output.verbosity < 0:
        raise ConfigError("output.verbosity must be nonnegative")

    return RunConfig(
        problem=problem_cfg, frozen_parameter=frozen,
        solver=solver, output=output,
    )


def load_config(path):
    """Read and parse a config file; all failures become `ConfigError`."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text)


def build_problem(run_config):
    """Assemble the `ProblemDef` described by a `RunConfig`.

    With ``frozen_parameter`` the nonlinearity is pinned to its
    ``lambda = 0`` slice: ``h(lam, u) := h(0, u)`` with matching (zero)
    parameter derivatives, so the supplied derivatives stay consistent
    while the transversality genuinely vanishes.
    """
    base = make_problem(run_config.problem)
    if not run_config.frozen_parameter:
        return base

    def h_frozen(lam, w):
        return base.apply_h(0.0, w)

    def h_u_frozen(lam, w, z):
        return base.apply_h_u(0.0, w, z)

    def h_uu_frozen(lam, w, a, b):
        return base.apply_h_uu(0.0, w, a, b)

    def h_lambda_zero(lam, w):
        return np.zeros_like(np.asarray(w, dtype=float))

    def h_lambda_u_zero(lam, w, z):
        return np.zeros_like(np.asarray(z, dtype=float))

    return ProblemDef(
        A=base.A,
        apply_h=h_frozen,
        apply_h_u=h_u_frozen,
        apply_h_lambda=h_lambda_zero,
        apply_h_lambda_u=h_lambda_u_zero,
        apply_h_uu=h_uu_frozen,
        dx=base.dx,
        L=base.L,
        lambda_window=base.lambda_window,
        trust_radius=base.trust_radius,
        h_stencil=base.h_stencil,
        name=base.name + "/frozen-parameter",
    )
