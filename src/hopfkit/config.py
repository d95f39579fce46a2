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
from dataclasses import dataclass, replace

import numpy as np

from .newton import band_bytes_bound
from .reaction_diffusion import VARIANTS, ExampleConfig, make_problem
from .solver import MAX_NEWTON_ITERATIONS, NEWTON_TOL

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
    newton_tol: float = NEWTON_TOL
    max_iter: int = MAX_NEWTON_ITERATIONS
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
    "problem.variant": _parse_choice(VARIANTS),
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
    # The branch divides by its first amplitude alpha_max / alpha_steps,
    # which must be a normal float; a subnormal alpha_max underflows it to 0.
    step = settings.alpha_max / settings.alpha_steps
    if settings.alpha_max > 0 and step < np.finfo(float).tiny:
        raise ConfigError(
            "solver.alpha_max must be 0 or at least alpha_steps times the "
            "smallest normal float"
        )
    # The resolvent-bound verdict compares the scan's head (modes 2..n/2)
    # with its tail; below 4 the head is empty and the verdict always fails.
    if settings.n_max_resolvent < 4:
        raise ConfigError("solver.n_max_resolvent must be at least 4")


def _check_memory(problem, solver):
    """Reject grids whose Newton bands, and counts whose first arrays,
    cannot fit in physical memory.

    Upper bound of two band-sized arrays (`newton.band_bytes_bound`).  The
    Newton solves hold one band at a time, factored in place, and release
    it before the next is assembled; the second band's worth is a margin
    for what lives beside it (iterates, border solves, and the fixed chunk
    of coupling blocks that assembly adds).  Computed in floats so an
    infinite grid is rejected too.  The branch's amplitude grid and the
    resolvent scan's mode list take 8 bytes per amplitude and per mode.
    """
    nx = 2.0 * problem.L / problem.dx + 1.0
    need = 2 * band_bytes_bound(nx, solver.n_t, problem.h_stencil)
    available = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if not need <= available:
        raise ConfigError(
            f"grid too large: a Newton band needs up to {need / 2**30:.3g} GiB "
            f"(nx ~ {nx:.3g}, n_t = {solver.n_t}), physical memory is "
            f"{available / 2**30:.3g} GiB"
        )
    for key in ("alpha_steps", "n_max_resolvent"):
        count = getattr(solver, key)
        if not 8.0 * count <= available:
            raise ConfigError(
                f"solver.{key} = {count} too large: its array needs "
                f"{8.0 * count / 2**30:.3g} GiB, physical memory is "
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
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text)


def _at_zero_lambda(apply):
    """``apply`` with its parameter pinned: ``(lam, *args) -> apply(0, *args)``."""
    return lambda lam, *args: apply(0.0, *args)


def _zeros_like_last(lam, *args):
    """Zeros shaped like the last argument: a vanishing lambda-derivative."""
    return np.zeros_like(np.asarray(args[-1], dtype=float))


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

    return replace(
        base,
        apply_h=_at_zero_lambda(base.apply_h),
        apply_h_u=_at_zero_lambda(base.apply_h_u),
        apply_h_lambda=_zeros_like_last,
        apply_h_lambda_u=_zeros_like_last,
        name=base.name + "/frozen-parameter",
    )
