"""Domain homotopy driver: deform the ball into the target, re-solving.

The family g_t(r) = t*g(r) + (1-t)*sqrt(a^2 - r^2) starts at the ball
B_a (where every conclusion is verified directly) and ends at the target
profile. Each accepted step re-solves on the deformed domain with a warm
start from the previous solution and passes a gate set: Newton converged,
first eigenvalue above its margin, census equal to one nondegenerate
on-axis maximum, monotonicity margins within tolerance. A gate failure
halves the step and retries from the last good parameter; once the step
underflows T_STEP_MIN the failing parameter is recorded as
first_failure_t — the numerical analogue of the infimum at which the
conclusions would break. A completed run reaches t = 1 with every gate
green and the full verification suite (plus, in three dimensions, the
voxel-oracle comparison) passing at the target.

Grid resolution is fixed across t on a bounding box covering the whole
family, so fields at different t are directly comparable and the warm
start is an identity wherever the domain did not move.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field

import numpy as np

from . import oracle3d
from .domain import HomotopyFamily, MeridianDomain, MeridianGrid, build_grid
from .errors import CplabError, IndefiniteOperatorError, EigenFailureError
from .morse import find_critical_points
from .nonlinearity import Nonlinearity
from .solver import AxisymOperator, Field, newton_solve
from .stability import smallest_eigenvalue
from .verify import (UNIQUENESS_SEEDS, check_monotonicity, eps_disc, monotone,
                     run_verification)

logger = logging.getLogger(__name__)

T_STEP0_DEFAULT = 0.05
T_STEP0_MAX = 0.1
T_STEP_MIN = 1e-3
LAMBDA_JUMP_FACTOR = 10.0


@dataclass
class StepRecord:
    """An accepted step: its solve converged and passed every gate."""

    t: float
    lambda1: float
    cp_count: int
    m_z: float
    m_r: float
    runtime_s: float


@dataclass
class ContinuationRecord:
    steps: list = field(default_factory=list)
    rejections: list = field(default_factory=list)  # (t, reason)
    first_failure_t: float | None = None
    completed: bool = False
    final_verification: object = None
    oracle_comparison: dict | None = None

    @property
    def final_t(self) -> float:
        return self.steps[-1].t if self.steps else np.nan


def warm_start_transfer(u_prev: Field, grid_next: MeridianGrid) -> Field:
    """Carry a solution to the next homotopy grid: keep, zero outside, clamp.

    `grid_next` must have the nodes of u_prev's grid (every grid of one
    homotopy run covers the same bounding box at the same resolution);
    other grids raise ValueError. Values at nodes inside both domains are
    kept, nodes new to the domain start at 0, and the result is clamped
    below at 0 (the stable branch is nonnegative). On identical grids the
    transfer is an exact identity.
    """
    grid_prev = u_prev.grid
    if not (np.array_equal(grid_prev.rs, grid_next.rs)
            and np.array_equal(grid_prev.zs, grid_next.zs)):
        raise ValueError("warm start needs grids with the same nodes")
    return Field(grid_next, np.maximum(u_prev.values, 0.0), u_prev.n)


def _solve_and_gate(u0, nl, phi0):
    """Newton from u0 on its grid, then the per-step gate set.

    Returns (failure, u, metrics, eigenfield), failure None when every gate
    passed. One operator serves the grid and keeps its factor from Newton
    into the eigen gate, so the two share it when they factor the same
    matrix. An indefinite Newton linearization raises
    IndefiniteOperatorError.
    """
    grid = u0.grid
    op = AxisymOperator(grid, u0.n)
    with op.keep_factor():
        u, rep = newton_solve(grid, u0.n, nl, u0, op=op)
        if not rep.converged:
            return f"Newton stalled at residual {rep.final_residual:.3g}", u, {}, None
        try:
            stab = smallest_eigenvalue(u, nl, phi0=phi0, op=op)
        except EigenFailureError as exc:
            return f"eigen failure: {exc}", u, {"lambda1": np.nan}, None
    metrics = {"lambda1": stab.lambda1}
    phi = stab.eigenfield
    if not stab.stable:
        return f"lambda1 {stab.lambda1:.3g} below margin", u, metrics, phi

    census = find_critical_points(u)
    metrics["cp_count"] = len(census.points)
    if not census.unique_axis_max:
        kinds = [p.type for p in census.points]
        return f"census {kinds} is not one on-axis nondegenerate max", u, metrics, phi

    eps = eps_disc(grid)
    m_z, m_r, pct_z, pct_r = check_monotonicity(u)
    metrics.update(m_z=m_z, m_r=m_r)
    if not (monotone(m_z, pct_z, eps) and monotone(m_r, pct_r, eps)):
        return f"monotonicity margins ({m_z:.3g}, {m_r:.3g}) exceed {eps:.3g}", u, metrics, phi
    return None, u, metrics, phi


def run_homotopy(target: MeridianDomain, nl: Nonlinearity, nr: int, nz: int,
                 t_step0: float = T_STEP0_DEFAULT,
                 seed: int = 0, uniqueness_seeds: int = UNIQUENESS_SEEDS,
                 oracle_n: int = 0, field_sink=None) -> ContinuationRecord:
    """Drive the homotopy from the ball to the target domain.

    `oracle_n` > 0 runs the voxel oracle comparison at t = 1 when n = 3;
    other dimensions skip it. The t = 0 solve must succeed for a catalog
    nonlinearity; its failure is a setup error, not a recorded one.
    `field_sink(t, field)` is called for every accepted step when given.

    Each tried grid gets one operator, which keeps its factor across the
    Newton solve and the eigen gate, so a matrix that both factor (f_u
    independent of u) is factored once per grid.
    """
    if t_step0 > T_STEP0_MAX:
        raise ValueError(f"t_step0 must not exceed {T_STEP0_MAX}")
    n = target.n
    family = HomotopyFamily(target)
    rmax = max(family.a, target.profile.R)
    zmax = family.a
    record = ContinuationRecord()

    def grid_at(t):
        return build_grid(family, nr, nz, t=t, rmax=rmax, zmax=zmax)

    t0 = time.perf_counter()
    grid = grid_at(0.0)
    failure, u, metrics, phi = _solve_and_gate(Field.zeros(grid, n), nl, None)
    if failure is not None:
        raise CplabError(f"homotopy setup failed on the ball: {failure}")
    record.steps.append(StepRecord(0.0, metrics["lambda1"], metrics["cp_count"],
                                   metrics["m_z"], metrics["m_r"], time.perf_counter() - t0))
    if field_sink is not None:
        field_sink(0.0, u)

    # A target identical to the ball keeps the family constant; jump to 1.
    probe = np.linspace(0.0, rmax, 257)
    trivial = bool(np.max(np.abs(family.profile_at(probe, 1.0)
                                 - family.profile_at(probe, 0.0))) <= 1e-13 * max(family.a, 1.0))

    t = 0.0
    step = t_step0 if not trivial else 1.0
    consecutive = 0
    jumps = []
    while t < 1.0:
        t_next = min(1.0, t + step)
        t_try0 = time.perf_counter()
        grid_next = grid_at(t_next)
        u_start = warm_start_transfer(u, grid_next)
        phi_start = warm_start_transfer(Field(grid, np.abs(phi.values), n), grid_next)
        try:
            failure, u_next, metrics, phi_next = _solve_and_gate(u_start, nl, phi_start)
        except IndefiniteOperatorError as exc:
            failure = f"indefinite linearization: {exc}"

        if failure is None and len(jumps) >= 3:
            jump = abs(metrics["lambda1"] - record.steps[-1].lambda1)
            if jump > LAMBDA_JUMP_FACTOR * float(np.median(jumps)):
                failure = (f"lambda1 jump {jump:.3g} exceeds "
                           f"{LAMBDA_JUMP_FACTOR}x running median")

        if failure is not None:
            record.rejections.append((t_next, failure))
            logger.info("homotopy step to t=%.5f rejected: %s", t_next, failure)
            step *= 0.5
            consecutive = 0
            if step < T_STEP_MIN:
                record.first_failure_t = t_next
                break
            continue

        jumps.append(abs(metrics["lambda1"] - record.steps[-1].lambda1))
        record.steps.append(StepRecord(t_next, metrics["lambda1"], metrics["cp_count"],
                                       metrics["m_z"], metrics["m_r"],
                                       time.perf_counter() - t_try0))
        t, grid, u, phi = t_next, grid_next, u_next, phi_next
        if field_sink is not None:
            field_sink(t, u)
        consecutive += 1
        if consecutive >= 3:
            step = min(2.0 * step, t_step0)
            consecutive = 0

    if t >= 1.0 and record.first_failure_t is None:
        report = run_verification(u, nl, seeds=uniqueness_seeds, seed=seed)
        record.final_verification = report
        oracle_ok = True
        if oracle_n > 0 and n == 3:
            try:
                vox = oracle3d.solve_3d(target, nl, oracle_n)
                record.oracle_comparison, oracle_ok = oracle3d.oracle_verdict(vox, u)
            except CplabError as exc:
                logger.warning("oracle comparison failed: %s", exc)
                record.oracle_comparison = {"error": str(exc)}
                oracle_ok = False
        record.completed = bool(report.passed and oracle_ok)
    return record


__all__ = ["ContinuationRecord", "StepRecord", "run_homotopy", "warm_start_transfer"]
