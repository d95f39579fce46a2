"""One workload pass in a fresh Python process.

Usage: ``python3 perfbench/worker.py SPEC.json`` (``run.py`` writes the spec
and starts this process).  The spec names the hopfkit source tree, the
config file, the commands, the seed, the output directory and where to
write the result.  The parent pins the BLAS/OpenMP pools through this
process's environment, so they are fixed before numpy is imported here.

The pass first sets the problem up the way every command does (import,
config, problem, projection, amplitude functional), then, unless the spec
asks for set-up only, calls ``hopfkit.cli.main`` once per command, each
with its own output directory.  With ``trace`` set, every layer entry
point is wrapped (see ``spans.py``) after the import.
"""

from __future__ import annotations

import contextlib
import json
import os
import platform
import resource
import sys
import time
import traceback


def _blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if not found."""
    import ctypes
    import glob

    import scipy

    libs = os.path.join(os.path.dirname(scipy.__file__), os.pardir, "scipy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas*.so")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            func = getattr(lib, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                return int(func())
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def environment():
    import numpy
    import scipy

    def blas_version(module):
        deps = module.show_config(mode="dicts").get("Build Dependencies", {})
        return deps.get("lapack", {}).get("version")

    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "blas_threads": _blas_threads(),
        "thread_env": {var: os.environ.get(var) for var in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": blas_version(numpy),
        "scipy_openblas": blas_version(scipy),
    }


def run(spec):
    sys.path.insert(0, spec["src"])
    import hopfkit
    from hopfkit import cli

    tracer = None
    if spec["trace"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()

    def phase(op, name):
        return tracer.phase(op, name) if tracer else contextlib.nullcontext()

    with phase(0, "bench.setup"):
        run_config = hopfkit.load_config(spec["config"])
        problem = hopfkit.build_problem(run_config)
        reference = hopfkit.reference_eigenvector(run_config.problem)
        decomp = hopfkit.build_projection(problem, reference=reference)
        hopfkit.build_amplitude_functional(decomp.psi, decomp.phi_adj)
    setup_s = time.time() - spec["t0"]

    ops = []
    for op, command in enumerate(spec["commands"], start=1):
        outdir = os.path.join(spec["outdir"], f"{op}-{command}")
        argv = [command, "--config", spec["config"], "--out", outdir,
                "--seed", str(spec["seed"])]
        record = {"command": command, "outdir": outdir, "exit_code": None,
                  "error": None}
        start = time.perf_counter()
        try:
            with phase(op, "cli." + command.replace("-", "_")):
                record["exit_code"] = cli.main(argv)
        except Exception:  # one failed op must not hide the others
            record["error"] = traceback.format_exc()
        record["seconds"] = time.perf_counter() - start
        ops.append(record)

    result = {
        "setup_s": setup_s,
        "workflow_s": time.time() - spec["t0"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops": ops,
        "environment": environment(),
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
        tracer.write(os.path.join(spec["outdir"], "spans.json"))
    return result


def main(argv):
    with open(argv[1], encoding="utf-8") as handle:
        spec = json.load(handle)
    result = run(spec)
    with open(spec["result"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
