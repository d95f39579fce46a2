"""Span tracing for the benchmark's traced run.

`Tracer.install` wraps the public entry points of each hopfkit layer where
the caller looks the name up: every hopfkit module attribute bound to a
wrapped function, the class attributes of the wrapped methods, and the
``lapack`` and ``scipy.sparse.linalg`` modules as hopfkit sees them.  A
wrapper placed only on the defining module would miss callers that
imported the name directly.  Nothing under ``src/`` is edited; the wrappers
live in this process only.

Each wrapped call records one span ``[name, start, end, parent, op]``.
Spans stay in memory until `Tracer.write`.  `Tracer.metrics` reduces them
to per-layer calls, total time (nested calls of the same name counted
once), self time (duration minus the time covered by child spans) and
counters read from the wrapped calls' arguments and results.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from collections import defaultdict

#: Free functions: ``metric stem -> (module, attribute)`` of the definition.
#: The wrapper replaces every hopfkit module attribute bound to it.
FUNCTIONS = {
    "config.load_config": ("hopfkit.config", "load_config"),
    "reaction_diffusion.make_problem": ("hopfkit.reaction_diffusion", "make_problem"),
    "trajectory.trajectory_from_samples": ("hopfkit.trajectory", "trajectory_from_samples"),
    "newton.assemble_jacobian_band": ("hopfkit.newton", "assemble_jacobian_band"),
    "spectral.run_hypothesis_checks": ("hopfkit.spectral", "run_hypothesis_checks"),
    "spectral.eigenpair_near": ("hopfkit.spectral", "eigenpair_near"),
    "spectral.check_simplicity": ("hopfkit.spectral", "check_simplicity"),
    "spectral.crossing_speed": ("hopfkit.spectral", "crossing_speed"),
    "spectral.resolvent_scan": ("hopfkit.spectral", "resolvent_scan"),
    "spectral.resolvent_norm": ("hopfkit.spectral", "resolvent_norm"),
    "spectral.build_projection": ("hopfkit.spectral", "build_projection"),
    "linear_periodic.solve_periodic_full": ("hopfkit.linear_periodic", "solve_periodic_full"),
    "solver.solve_extended": ("hopfkit.solver", "solve_extended"),
    "solver.verify_jacobian_nonsingular": ("hopfkit.solver", "verify_jacobian_nonsingular"),
    "solver.decompose_crossing_term": ("hopfkit.solver", "decompose_crossing_term"),
    "solver.continue_branch": ("hopfkit.solver", "continue_branch"),
    "solver.check_branch_symmetry": ("hopfkit.solver", "check_branch_symmetry"),
}

#: Methods: ``metric stem -> (module, class, attribute)``.
METHODS = {
    "newton.matvec": ("hopfkit.newton", "BandedMatrix", "matvec"),
    "newton.rmatvec": ("hopfkit.newton", "BandedMatrix", "rmatvec"),
    "newton.bordered_solve": ("hopfkit.newton", "BorderedSystem", "solve"),
    "newton.bordered_solve_transpose": ("hopfkit.newton", "BorderedSystem", "solve_transpose"),
    "problem.residual_g": ("hopfkit.problem", "ProblemDef", "residual_g"),
    "problem.linearised_g": ("hopfkit.problem", "ProblemDef", "linearised_g"),
    "problem.check_derivatives": ("hopfkit.problem", "ProblemDef", "check_derivatives"),
    "trajectory.sample_values": ("hopfkit.trajectory", "PeriodicTrajectory", "sample_values"),
}

#: Functions reached through a third-party module object that hopfkit
#: modules hold: ``metric stem -> (module name, attribute)``.
MODULE_FUNCTIONS = {
    "newton.dgbtrf": ("scipy.linalg.lapack", "dgbtrf"),
    "newton.dgbtrs": ("scipy.linalg.lapack", "dgbtrs"),
    "spectral.splu": ("scipy.sparse.linalg", "splu"),
}

LAYER_SPANS = tuple(FUNCTIONS) + tuple(METHODS) + tuple(MODULE_FUNCTIONS)

#: Spans the worker opens around its own phases, one op each.  Only their
#: self time is reported: the time no wrapped layer accounts for.
PHASES = ("bench.setup", "cli.check", "cli.extended", "cli.branch", "cli.verify_exact")

#: Counters derived from arguments or results rather than from spans.
COUNTERS = (
    "newton.dgbtrf_retries",
    "newton.dgbtrf_gflop",
    "newton.band_kl",
    "newton.band_mb",
    "newton.solves_per_factorization",
    "solver.extended_newton_iters",
    "solver.branch_newton_iters",
    "solver.symmetry_factorizations",
    "solver.certificate_power_iters",
)


def _rebind(old, new):
    """Point every hopfkit module attribute bound to ``old`` at ``new``."""
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "hopfkit" or name.startswith("hopfkit.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, key, new)


class _ModuleProxy:
    """A module seen through a few replaced attributes."""

    def __init__(self, module, overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    """In-memory span recorder for one workload pass."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._active = defaultdict(int)
        self.op = 0
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._dgbtrf_ok = 0

    # -- recording -----------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter(), 0.0, parent, self.op,
                  self._active[name] > 0]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        self._active[name] += 1
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._active[name] -= 1
            self._stack.pop()

    @contextlib.contextmanager
    def phase(self, op, name):
        """One op: a CLI command invocation, or the set-up (op 0)."""
        self.op = op
        with self.span(name):
            yield

    def wrap(self, name, fn, observe=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if observe is not None:
                observe(args, kwargs, result)
            return result
        return wrapper

    # -- counters read from arguments and results ------------------------------

    def _observe_dgbtrf(self, args, kwargs, result):
        ab = _arg(args, kwargs, 0, "ab")
        kl = int(_arg(args, kwargs, 1, "kl"))
        ku = int(_arg(args, kwargs, 2, "ku"))
        n = ab.shape[1]
        c = self.counters
        if result[-1] > 0:
            c["newton.dgbtrf_retries"] += 1
        elif result[-1] == 0:
            self._dgbtrf_ok += 1
        # Computed, not measured: partial pivoting widens U to kl + ku.
        c["newton.dgbtrf_gflop"] += 2.0 * n * kl * (kl + ku) / 1e9
        c["newton.band_kl"] = max(c["newton.band_kl"], kl)
        c["newton.band_mb"] = max(c["newton.band_mb"], ab.size * ab.itemsize / 1e6)

    def _observe_extended(self, args, kwargs, result):
        self.counters["solver.extended_newton_iters"] += result.iterations

    def _observe_branch(self, args, kwargs, result):
        self.counters["solver.branch_newton_iters"] += sum(
            pt.newton_iters for pt in result.points)

    def _observe_certificate(self, args, kwargs, result):
        self.counters["solver.certificate_power_iters"] += result.power_iterations

    # -- installation ------------------------------------------------------------

    def install(self):
        """Wrap every traced entry point; hopfkit must already be imported."""
        observers = {
            "newton.dgbtrf": self._observe_dgbtrf,
            "solver.solve_extended": self._observe_extended,
            "solver.continue_branch": self._observe_branch,
            "solver.verify_jacobian_nonsingular": self._observe_certificate,
        }
        for name, (module, attr) in FUNCTIONS.items():
            original = getattr(importlib.import_module(module), attr)
            _rebind(original, self.wrap(name, original, observers.get(name)))
        for name, (module, cls, attr) in METHODS.items():
            klass = getattr(importlib.import_module(module), cls)
            setattr(klass, attr, self.wrap(name, getattr(klass, attr)))

        by_module = defaultdict(dict)
        for name, (module, attr) in MODULE_FUNCTIONS.items():
            real = importlib.import_module(module)
            by_module[module][attr] = self.wrap(
                name, getattr(real, attr), observers.get(name))
        for module, overrides in by_module.items():
            real = importlib.import_module(module)
            _rebind(real, _ModuleProxy(real, overrides))

    # -- reduction -----------------------------------------------------------------

    def _has_ancestor(self, index, name):
        parent = self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def metrics(self):
        """Per-layer metrics of every span name and counter (0 when unused)."""
        names = LAYER_SPANS + PHASES
        calls = dict.fromkeys(names, 0)
        total = dict.fromkeys(names, 0.0)
        own = dict.fromkeys(names, 0.0)
        for name, start, end, parent, _, nested in self.spans:
            duration = end - start
            calls[name] += 1
            own[name] += duration
            if not nested:
                total[name] += duration
            if parent >= 0:
                own[self.spans[parent][0]] -= duration
        out = {}
        for name in LAYER_SPANS:
            out[f"{name}_calls"] = calls[name]
            out[f"{name}_s"] = total[name]
        for name in names:
            out[f"{name}_self_s"] = own[name]
        counters = dict(self.counters)
        counters["newton.solves_per_factorization"] = (
            calls["newton.bordered_solve"] / self._dgbtrf_ok
            if self._dgbtrf_ok else 0.0
        )
        counters["solver.symmetry_factorizations"] = sum(
            1 for i, span in enumerate(self.spans)
            if span[0] == "newton.dgbtrf"
            and self._has_ancestor(i, "solver.check_branch_symmetry")
        )
        out.update(counters)
        return out

    def write(self, path):
        """Write every span as JSON: name, start, end, parent index, op."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({
                "fields": ["name", "start", "end", "parent", "op"],
                "spans": [span[:5] for span in self.spans],
            }, handle)
