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
green; its record keeps the last accepted field, on which the caller runs
the full verification suite (and, in three dimensions, the voxel oracle).

Grid resolution is fixed across t on a bounding box covering the whole
family, so fields at different t are directly comparable and the warm
start is an identity wherever the domain did not move.
"""

from __future__ import annotations

import dataclasses
import logging
import time

import numpy as np

from .domain import MeridianDomain, MeridianGrid, build_grid
from .errors import (CplabError, IndefiniteOperatorError, EigenFailureError,
                     ResolutionTooCoarseError)
from .morse import find_critical_points
from .nonlinearity import Nonlinearity
from .solver import AxisymOperator, Field, newton_solve
from .stability import smallest_eigenvalue
from .verify import check_monotonicity, eps_disc, monotone

logger = logging.getLogger(__name__)

T_STEP0_DEFAULT = 0.05
T_STEP0_MAX = 0.1
T_STEP_MIN = 1e-3
LAMBDA_JUMP_FACTOR = 10.0


@dataclasses.dataclass
class StepRecord:
    """An accepted step: its solve converged and passed every gate."""

    t: float
    lambda1: float
    cp_count: int
    m_z: float
    m_r: float
    runtime_s: float


@dataclasses.dataclass
class ContinuationRecord:
    steps: list = dataclasses.field(default_factory=list)
    rejections: list = dataclasses.field(default_factory=list)  # (t, reason)
    first_failure_t: float | None = None
    field: Field | None = None  # the last accepted solution

    @property
    def final_t(self) -> float:
        return self.steps[-1].t if self.steps else np.nan

    @property
    def completed(self) -> bool:
        """t = 1 was reached with every step gate green."""
        return self.first_failure_t is None and self.final_t >= 1.0


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
    passed; an indefinite Newton linearization is a failure too. One
    operator serves the grid and keeps its factor from Newton into the
    eigen gate, so the two share it when they factor the same matrix.
    """
    grid = u0.grid
    op = AxisymOperator(grid, u0.n)
    with op.keep_factor():
        try:
            u, rep = newton_solve(grid, u0.n, nl, u0, op=op)
        except IndefiniteOperatorError as exc:
            return f"indefinite linearization: {exc}", u0, {}, None
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
                 t_step0: float = T_STEP0_DEFAULT, field_sink=None) -> ContinuationRecord:
    """Drive the homotopy from the ball to the target domain.

    The record keeps the steps, rejections and last accepted field. The
    t = 0 solve must succeed for a catalog nonlinearity; its failure is a
    setup error, not a recorded one. `field_sink(t, field)` is called for
    every accepted step when given.

    Each tried grid gets one operator, which keeps its factor across the
    Newton solve and the eigen gate, so a matrix that both factor (f_u
    independent of u) is factored once per grid.
    """
    if not 0.0 < t_step0 <= T_STEP0_MAX:  # a zero step would never advance t
        raise ValueError(f"t_step0 must lie in (0, {T_STEP0_MAX}]")
    n = target.n
    rmax, zmax = target.homotopy_box
    record = ContinuationRecord()

    def grid_at(t):
        return build_grid(target, nr, nz, t=t, rmax=rmax, zmax=zmax)

    t0 = time.perf_counter()
    try:
        grid = grid_at(0.0)
    except ResolutionTooCoarseError:
        # build_grid names the core of g_0, a domain the user never gave.
        raise ResolutionTooCoarseError(
            f"the homotopy's starting ball (t = 0), of radius {target.profile.a0:.3g}, is "
            f"thinner than 3 cells of the {nr}x{nz} grid on the target's box "
            f"r <= {rmax:.3g}, |z| <= {zmax:.3g} (hr = {rmax / (nr - 1):.3g}, "
            f"hz = {2 * zmax / (nz - 1):.3g})") from None
    failure, u, metrics, phi = _solve_and_gate(Field.zeros(grid, n), nl, None)
    if failure is not None:
        raise CplabError(f"homotopy setup failed on the ball: {failure}")
    record.steps.append(StepRecord(0.0, **metrics, runtime_s=time.perf_counter() - t0))
    if field_sink is not None:
        field_sink(0.0, u)

    # A target identical to the ball keeps the family constant; jump to 1.
    probe = np.linspace(0.0, rmax, 257)
    trivial = bool(np.max(np.abs(target.profile_at(probe, 1.0) - target.profile_at(probe, 0.0)))
                   <= 1e-13 * max(target.profile.a0, 1.0))

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
        failure, u_next, metrics, phi_next = _solve_and_gate(u_start, nl, phi_start)

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
        record.steps.append(StepRecord(t_next, **metrics, runtime_s=time.perf_counter() - t_try0))
        t, grid, u, phi = t_next, grid_next, u_next, phi_next
        if field_sink is not None:
            field_sink(t, u)
        consecutive += 1
        if consecutive >= 3:
            step = min(2.0 * step, t_step0)
            consecutive = 0

    record.field = u
    return record


__all__ = ["ContinuationRecord", "StepRecord", "run_homotopy", "warm_start_transfer"]
