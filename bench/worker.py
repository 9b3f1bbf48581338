"""One pipeline call of a benchmark workload, in a fresh interpreter.

    python3 bench/worker.py --workload NAME --seed N --out DIR [--trace] [--setup-only]

Imports cplab, parses the workload's committed config, then calls
``cplab.cli.run`` (for ``oracle-spindle`` followed by reading
``oracle.cpvox`` back and writing it again) and writes ``DIR/result.json``:
the monotonic time at which the call started, its wall and CPU time, the
process's peak resident memory, the correctness checks, the drift
scalars and the artifact digest. With ``--trace`` the call runs under the
layer wrappers and the result also holds the per-layer metrics.
``--setup-only`` stops after parsing the config. ``run.py`` starts this.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import logging
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def environment() -> dict:
    """Versions, cores, thread settings and the linear-solver path taken."""
    import numpy
    import scipy

    try:
        importlib.import_module("pyamg")
        pyamg = True
    except ImportError:
        pyamg = False
    env = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "pyamg": pyamg,
        "solver_path": "amg" if pyamg else "jacobi-cg-fallback",
        "CPL_THREADS": os.environ.get("CPL_THREADS"),
    }
    env.update({var: os.environ.get(var) for var in BLAS_THREAD_VARS})
    return env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    call_dir = Path(args.out)
    art = call_dir / "artifacts"

    # Setup: the imports and the config parse a user of the CLI pays.
    from cplab import cli, config, fieldio

    import workloads

    w = workloads.WORKLOADS[args.workload]
    if args.setup_only:
        config.parse_config(w.config)
        ready = time.monotonic()
        (call_dir / "result.json").write_text(json.dumps({"ready": ready}))
        return 0

    logging.basicConfig(stream=sys.stderr, level=logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    tracer = None
    if args.trace:
        import layers
        from tracer import Tracer

        tracer = Tracer()
        layers.install(tracer)

    result = {"rc": None, "error": None}
    try:
        cfg = config.parse_config(w.config)
        result["ready"] = time.monotonic()
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        with tracer.span(layers.PIPELINE) if tracer else contextlib.nullcontext():
            result["rc"] = cli.run(w.subcommand, cfg, art, args.seed, quiet=True)
            if w.readback:
                vox = fieldio.read_voxels(art / "oracle.cpvox")
                fieldio.write_voxels(vox, call_dir / workloads.READBACK)
        result["wall_s"] = time.perf_counter() - t0
        result["cpu_s"] = time.process_time() - cpu0
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    except Exception:  # a failed pipeline is counted by run.py, not fatal here
        result["error"] = traceback.format_exc()
    finally:
        if tracer is not None:
            tracer.restore()

    if tracer is not None:
        result["layers"] = layers.metrics(tracer)
    if result["error"] is None:
        try:
            result["checks"] = w.checks(art, call_dir)
            result["scalars"] = w.scalars(art, cfg)
            result["digest"] = workloads.digest(art)
        except (OSError, LookupError, ValueError) as exc:
            result["error"] = f"artifacts unreadable: {exc!r}"
    result["env"] = environment()
    (call_dir / "result.json").write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
