"""Which cplab entry points the traced run wraps, and the per-layer metrics.

Each wrapped entry point becomes a span named ``<module>.<function>``
(``cplab.`` dropped); ``on_result`` hooks read the counts the program
already returns (eigen iterations, Newton iterations and damping events,
multistart convergence, homotopy steps, voxel counts, bytes written).
"""

from __future__ import annotations

import os

from tracer import Tracer

# name -> unit, in report order. Every name is reported on every workload;
# a layer the workload does not reach reads 0.
PER_LAYER = {
    "stability.smallest_eigenvalue.calls": "count",
    "stability.smallest_eigenvalue.s": "s",
    "stability.smallest_eigenvalue.self_s": "s",
    "stability.smallest_eigenvalue.iterations": "count",
    "stability.smallest_eigenvalue.s_per_iteration": "s",
    "stability.smallest_eigenvalue.failures": "count",
    "stability.rayleigh_quotient.s": "s",
    "solver.AxisymOperator.calls": "count",
    "solver.AxisymOperator.s": "s",
    "solver.AxisymOperator.solve.calls": "count",
    "solver.AxisymOperator.solve.s": "s",
    "solver.AxisymOperator.solve.s_per_call": "s",
    "solver.AxisymOperator.solve.failures": "count",
    "solver.newton_solve.calls": "count",
    "solver.newton_solve.s": "s",
    "solver.newton_solve.self_s": "s",
    "solver.newton_solve.iterations": "count",
    "solver.newton_solve.damping_events": "count",
    "solver.newton_solve.unconverged": "count",
    "verify.uniqueness_multistart.s": "s",
    "verify.uniqueness_multistart.converged_ratio": "ratio",
    "verify.uniqueness_multistart.parallelism": "ratio",
    "verify.run_verification.s": "s",
    "verify.check_monotonicity.s": "s",
    "verify.moving_plane_check.s": "s",
    "verify.derivative_pde_residual.s": "s",
    "morse.find_critical_points.calls": "count",
    "morse.find_critical_points.s": "s",
    "domain.build_grid.calls": "count",
    "domain.build_grid.s": "s",
    "continuation.warm_start_transfer.calls": "count",
    "continuation.warm_start_transfer.s": "s",
    "continuation.steps_accepted": "count",
    "continuation.rejections": "count",
    "continuation.accept_ratio": "ratio",
    "continuation.step_s": "s",
    "oracle3d.solve_3d.s": "s",
    "oracle3d.scan_critical_voxels.s": "s",
    "oracle3d.compare_with_axisymmetric.s": "s",
    "oracle3d.symmetry_witnesses.s": "s",
    "oracle3d.voxels_inside": "count",
    "fieldio.write_field.s": "s",
    "fieldio.write_voxels.s": "s",
    "fieldio.read_voxels.s": "s",
    "fieldio.bytes_written": "bytes",
    "config.parse_config.s": "s",
    "pipeline.self_s": "s",
    "trace.overhead_s": "s",
}

PIPELINE = "pipeline"


def _eigen(tracer, report, args, kwargs):
    tracer.count("stability.smallest_eigenvalue.iterations", report.iterations)


def _newton(tracer, result, args, kwargs):
    rep = result[1]
    tracer.count("solver.newton_solve.iterations", rep.newton_iterations)
    tracer.count("solver.newton_solve.damping_events", rep.damping_events)
    tracer.count("solver.newton_solve.unconverged", not rep.converged)


def _multistart(tracer, result, args, kwargs):
    _, converged, failed = result
    tracer.count("verify.uniqueness_multistart.converged", converged)
    tracer.count("verify.uniqueness_multistart.started", converged + failed)


def _homotopy(tracer, record, args, kwargs):
    accepted = record.steps[1:]  # steps[0] is the t = 0 ball solve
    tracer.count("continuation.steps_accepted", len(accepted))
    tracer.count("continuation.rejections", len(record.rejections))
    tracer.count("continuation.step_time", sum(s.runtime_s for s in accepted))


def _voxels(tracer, vox, args, kwargs):
    tracer.count("oracle3d.voxels_inside", int(vox.mask.sum()))


def _bytes(tracer, result, args, kwargs):
    path = args[1] if len(args) > 1 else kwargs["path"]
    tracer.count("fieldio.bytes_written", os.path.getsize(path))


def install(tracer: Tracer) -> None:
    """Wrap the layer entry points of an imported cplab."""
    from cplab import (config, continuation, domain, fieldio, morse, oracle3d,
                       solver, stability, verify)

    wrap = tracer.wrap_function
    wrap(stability, "smallest_eigenvalue", on_result=_eigen)
    wrap(stability, "rayleigh_quotient")
    tracer.wrap_method(solver.AxisymOperator, "__init__", "solver.AxisymOperator")
    tracer.wrap_method(solver.AxisymOperator, "solve", "solver.AxisymOperator.solve")
    wrap(solver, "newton_solve", on_result=_newton)
    wrap(verify, "uniqueness_multistart", on_result=_multistart)
    for name in ("run_verification", "check_monotonicity", "moving_plane_check",
                 "derivative_pde_residual"):
        wrap(verify, name)
    tracer.link_pool(verify)
    wrap(morse, "find_critical_points")
    wrap(domain, "build_grid")
    wrap(continuation, "warm_start_transfer")
    wrap(continuation, "run_homotopy", on_result=_homotopy)
    wrap(oracle3d, "solve_3d", on_result=_voxels)
    for name in ("scan_critical_voxels", "compare_with_axisymmetric", "symmetry_witnesses"):
        wrap(oracle3d, name)
    wrap(fieldio, "write_field", on_result=_bytes)
    wrap(fieldio, "write_voxels", on_result=_bytes)
    wrap(fieldio, "read_voxels")
    wrap(config, "parse_config")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def parallelism(tracer: Tracer) -> float:
    """Newton busy time in pool threads over the wall time of the multistart calls."""
    kids = tracer.children()
    wall = busy = 0.0
    for sp in tracer.spans:
        if sp.name != "verify.uniqueness_multistart":
            continue
        wall += sp.duration
        busy += sum(c.duration for c in kids.get(id(sp), ())
                    if c.name == "solver.newton_solve" and c.thread != sp.thread)
    return _ratio(busy, wall)


def metrics(tracer: Tracer) -> dict[str, float]:
    """Every PER_LAYER value except ``trace.overhead_s``, which needs an untraced run."""
    layers = tracer.layers()
    c = tracer.counters
    out = {}
    for name in PER_LAYER:
        head, _, field = name.rpartition(".")
        if head in layers and field in ("calls", "s", "self_s", "failures"):
            out[name] = float(getattr(layers[head], field))
    for name in ("stability.smallest_eigenvalue.iterations",
                 "solver.newton_solve.iterations", "solver.newton_solve.damping_events",
                 "solver.newton_solve.unconverged", "continuation.steps_accepted",
                 "continuation.rejections", "oracle3d.voxels_inside",
                 "fieldio.bytes_written"):
        out[name] = c.get(name, 0.0)
    eig = layers.get("stability.smallest_eigenvalue")
    out["stability.smallest_eigenvalue.s_per_iteration"] = _ratio(
        eig.s if eig else 0.0, out["stability.smallest_eigenvalue.iterations"])
    solve = layers.get("solver.AxisymOperator.solve")
    out["solver.AxisymOperator.solve.s_per_call"] = _ratio(
        solve.s if solve else 0.0, solve.calls if solve else 0)
    out["verify.uniqueness_multistart.converged_ratio"] = _ratio(
        c.get("verify.uniqueness_multistart.converged", 0.0),
        c.get("verify.uniqueness_multistart.started", 0.0))
    out["verify.uniqueness_multistart.parallelism"] = parallelism(tracer)
    steps = out["continuation.steps_accepted"]
    out["continuation.accept_ratio"] = _ratio(steps, steps + out["continuation.rejections"])
    out["continuation.step_s"] = _ratio(c.get("continuation.step_time", 0.0), steps)
    return {name: out.get(name, 0.0) for name in PER_LAYER if name != "trace.overhead_s"}

