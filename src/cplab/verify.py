"""Quantitative checks of the theorem conclusions on a solved field.

Every conclusion becomes a measured margin with a resolution-aware
tolerance:

* axial symmetry        max |u(r, z) - u(r, -z)|        <= 10 * TOL_PDE
* monotonicity          max du/dz (z >= 2hz), max du/dr  <= eps_disc
* moving plane          max of u(p) - u(p_lambda)        <= eps_disc
* derivative PDE        || Lap v + f_u v + f_dir ||_inf  <= C * h
* uniqueness            multi-start max pairwise gap     <= 10 * TOL_PDE
* critical points       census = one nondegenerate max on the axis

TOL_PDE is the Newton tolerance of `solver`, so the symmetry and
uniqueness rows hold to ten times the residual every solve reaches.
eps_disc = MONOTONICITY_C * h^2 and the derivative-residual constant are
calibrated once on the torsion ball / a manufactured solution and reused
unchanged everywhere (see tests); strict paper inequalities are asserted
as "<= eps_disc and negative in the bulk-percentile sense", never as a
strict machine-level sign.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .domain import MeridianGrid, inside, neighbours
from .errors import (CplabError, GeometryViolationError, IndefiniteOperatorError,
                     InternalContradictionError)
from .interp import Bicubic, safe_cells, cell_index
from .morse import find_critical_points
from .nonlinearity import Nonlinearity
from .solver import AxisymOperator, Field, TOL_PDE, derivative_field, newton_solve, operator_for

# Calibrated on the torsion ball at the acceptance grids (see
# tests/test_verify.py): the largest observed derivative error divided by
# h^2, times a 3x safety factor. The stencil is exact on quadratics, so
# that torsion error is at rounding (1e-14 at 65x129 and 129x257) and
# the bound is far from tight; a tighter value needs its own calibration
# on a grid ladder of non-quadratic solutions.
MONOTONICITY_C = 250.0
# Calibrated with the manufactured solution: derivative-PDE residual / h
# (~0.065 on the ball), times a ~60x safety factor: the calibration domain
# has benign boundary curvature, while cusp-tipped profiles (spindle)
# concentrate third derivatives near the scan edge and need the headroom.
DERIV_RESIDUAL_C = 4.0

BULK_PERCENTILE = 10.0
# Random starts of the uniqueness multistart.
UNIQUENESS_SEEDS = 5


def eps_disc(grid: MeridianGrid) -> float:
    return MONOTONICITY_C * grid.h * grid.h


def check_axial_symmetry(u: Field) -> float:
    """max |u(i, j) - u(i, -j)| over inside nodes (mirror in z).

    Rotational symmetry about the axis is structural in the meridian
    reduction; the voxel oracle checks it independently.
    """
    g = u.grid
    return float(np.abs(u.values - u.values[::-1, :])[g.inside].max(initial=0.0))


def _bulk_mask(grid: MeridianGrid) -> np.ndarray:
    """Inside nodes at least 3 stencil steps from the boundary.

    Three erosions by the 4-neighbour cross; a node off the array is
    outside, so the array's frame, the axis column included, erodes too
    and no bulk node lies in the first 3 columns.
    """
    m = grid.inside
    for _ in range(3):
        e, w, n, s = neighbours(m)
        m = m & e & w & n & s
    return m


def check_monotonicity(u: Field):
    """Margins (m_z, m_r) for the axial and radial monotonicity conclusions.

    m_z is the maximum of du/dz over interior nodes with z >= 2hz, m_r the
    maximum of du/dr over interior nodes with r >= 2hr. The theorems state
    strict negativity; discretely both margins must stay below eps_disc and
    the bulk of the sampled values (90th percentile of the sign) must be
    strictly negative. Returns (m_z, m_r, pct_z, pct_r) with the
    BULK_PERCENTILE-th percentile values.
    """
    g = u.grid
    dz = derivative_field(u, "z").values
    dr = derivative_field(u, "r").values

    mask_z = g.interior & (np.abs(g.zs)[:, None] >= 2.0 * g.hz) & (g.zs[:, None] > 0)
    mask_r = g.interior & (g.rs[None, :] >= 2.0 * g.hr)

    if not mask_z.any() or not mask_r.any():
        return np.nan, np.nan, np.nan, np.nan
    vz = dz[mask_z]
    vr = dr[mask_r]
    m_z = float(vz.max())
    m_r = float(vr.max())
    pct_z = float(np.percentile(vz, BULK_PERCENTILE))
    pct_r = float(np.percentile(vr, BULK_PERCENTILE))
    return m_z, m_r, pct_z, pct_r


def monotone(margin: float, pct: float, eps: float) -> bool:
    """Discrete strict monotonicity: margin within eps_disc, bulk strictly negative."""
    return margin <= eps and pct < 0.0


def moving_plane_check(u: Field, lambdas=None) -> float:
    """Worst margin of w_lambda = u(p) - u(p_lambda) over reflections.

    Reflection is taken in the first transverse coordinate: the meridian
    sample (r, z) is the 3-D point (r, 0, ..., 0, z) with r > lambda, and
    its reflection lands at radius |2*lambda - r| with the same z. For a
    monotone profile the reflected region stays inside the domain; this is
    verified by `domain.inside` on the grid's profile, the rule that made
    every source inside, and a violation raises GeometryViolationError; a
    grid with no profile (a field from `read_field` that
    `fieldio.on_domain` has not rebuilt) raises ValueError. Samples whose
    reflected interpolation stencil touches the boundary are skipped (a
    grid-width strip, consistent with checking the open reflected set).
    """
    g = u.grid
    if g.g is None:
        raise ValueError("the moving-plane check needs the grid's profile; "
                         "a field from read_field gets it from fieldio.on_domain")
    inside_cols = np.nonzero(g.inside.any(axis=0))[0]
    r_max = g.rs[inside_cols[-1]] if inside_cols.size else 0.0
    if lambdas is None:
        lambdas = np.linspace(0.1, 0.9, 9) * r_max

    interp = Bicubic(g.rs, g.zs, u.values)
    cells = safe_cells(g.inside)
    R, Z = g.R, g.Z

    worst = -np.inf
    for lam in lambdas:
        sel = g.inside & (R > lam + 1e-12)
        if not sel.any():
            continue
        r_src = R[sel]
        z_src = Z[sel]
        r_ref = np.abs(2.0 * lam - r_src)
        if not np.all(inside(g.g(r_ref), z_src)):
            raise GeometryViolationError(f"reflection at lambda={lam:g} leaves the domain")
        jc, ic = cell_index(g.rs, g.zs, r_ref, z_src)
        ok = cells[jc, ic]
        if not ok.any():
            continue
        w = u.values[sel][ok] - interp.value(r_ref[ok], z_src[ok])
        worst = max(worst, float(w.max()))
    return worst


def derivative_pde_residual(u: Field, nl: Nonlinearity, direction: str,
                            op: AxisymOperator | None = None) -> float:
    """L-inf residual of the differentiated PDE on the bulk of the domain.

    Differentiating -Lap u = f(x, u) in x_n gives, for v = du/dz,

        Lap v + f_u v + f_z = 0,

    with Lap the solver's own discrete Laplacian (`AxisymOperator`) acting
    on v. The radial direction uses w = du/dr, which is the first azimuthal
    mode of the transverse derivative field, so its Laplacian carries the
    extra -(n-2)/r^2 term. The scan covers the nodes at least 3 cells from
    the boundary and from the array's frame (`_bulk_mask`). Every scanned
    node has four full arms, so Lap v there is the centred five-point
    stencil whatever v holds on the boundary-adjacent nodes, and r >= 3hr:
    the axis, where v is even in r and the radial mode equation
    degenerates, is never scanned. `op`, when given, must be the operator
    of u's grid and dimension (`operator_for`), which the call then does
    not assemble.
    """
    n = u.n
    op = operator_for(u.grid, n, op)
    dv = derivative_field(u, direction)
    bulk = _bulk_mask(u.grid)
    if not bulk.any():
        return np.nan
    r, z, scan = op.r, op.z, bulk[op.nodes]
    uv, v = u.values[op.nodes], dv.values[op.nodes]
    fu = nl.eval_du(r, z, uv)
    lap = op.L @ v
    if direction == "z":
        fdir = nl.eval_dz(r, z, uv)
    else:
        fdir = nl.eval_dr(r, z, uv)
        lap[scan] -= (n - 2) / (r[scan] * r[scan]) * v[scan]

    resid = lap + fu * v + fdir
    return float(np.abs(resid[scan]).max())


def uniqueness_multistart(grid: MeridianGrid, n: int, nl: Nonlinearity,
                          seeds: int = UNIQUENESS_SEEDS, seed: int = 0,
                          base: Field | None = None, op: AxisymOperator | None = None):
    """Max pairwise L-inf distance of converged multi-start solutions.

    Newton runs from `seeds` random nonnegative initial fields, uniform in
    [0, 2*max(u_0)], and each converged solution is compared with the
    others and with the baseline u_0. The baseline is `base`, a solution
    the caller already holds, or else the zero-guess solution, which costs
    one more Newton solve; if that solve does not converge, the result is
    a CplabError. A seed whose Newton solve does not converge, or meets an
    indefinite linearization (IndefiniteOperatorError), is a basin
    failure, not a uniqueness failure, and is reported separately; any
    other error propagates. All solves share one operator: `op` when given
    (built on this grid and n, or a ValueError), else a new one. The
    seeds run in seed order, one at a time, so at most one factorization
    exists at once. They factor in a worker thread, so an `op` that has
    factored before (as `cplab verify` and `continue` pass) keeps the
    column order it computed on the caller's thread (see
    `AxisymOperator._build`).
    `seeds` below 1 is a ValueError, raised before any solve.
    """
    if seeds < 1:
        raise ValueError(f"seeds must be at least 1, got {seeds}")
    op = operator_for(grid, n, op)
    if base is None:
        base, rep = newton_solve(grid, n, nl, Field.zeros(grid, n), op=op)
        if not rep.converged:
            raise CplabError("baseline zero-guess solve did not converge")
    amp = 2.0 * max(base.max_inside(), 0.0)
    rng = np.random.default_rng(seed)
    starts = [Field(grid, rng.uniform(0.0, amp, base.values.shape), n) for _ in range(seeds)]

    def run(u0):
        try:
            f, r = newton_solve(grid, n, nl, u0, op=op)
        except IndefiniteOperatorError:
            return None
        return f if r.converged else None

    # One worker runs the seeds in seed order; bench/layers.py traces this executor.
    with ThreadPoolExecutor(max_workers=1) as pool:
        results = list(pool.map(run, starts))

    converged = [base] + [f for f in results if f is not None]
    failed = sum(1 for f in results if f is None)
    worst = 0.0
    for i in range(len(converged)):
        for j in range(i + 1, len(converged)):
            d = converged[i].values - converged[j].values
            worst = max(worst, float(np.abs(d[grid.inside]).max(initial=0.0)))
    return worst, len(converged) - 1, failed


@dataclass
class CheckRow:
    name: str
    margin: float
    tolerance: float
    passed: bool


@dataclass
class VerificationReport:
    rows: list

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows)

    def row(self, name: str) -> CheckRow:
        return next(r for r in self.rows if r.name == name)

    def __str__(self):
        out = [f"{'check':24s} {'margin':>13s} {'tolerance':>13s}  pass"]
        for r in self.rows:
            out.append(f"{r.name:24s} {r.margin:13.4e} {r.tolerance:13.4e}  "
                       f"{'yes' if r.passed else 'NO'}")
        out.append(f"overall: {'pass' if self.passed else 'FAIL'}")
        return "\n".join(out)


def run_verification(u: Field, nl: Nonlinearity, seeds: int = UNIQUENESS_SEEDS,
                     seed: int = 0, with_uniqueness: bool = True,
                     op: AxisymOperator | None = None) -> VerificationReport:
    """Full theorem-conclusion report on a solved field, on its grid and dimension.

    Five conclusion lines (symmetry, axial monotonicity, transverse
    monotonicity, radial monotonicity, census) plus the moving-plane,
    derivative-residual and uniqueness lines.

    `monotone_transverse` is the identity du/dx_1 = u_r * x_1 / r: for
    x_1 > 0 it has the sign of u_r, so the row is built from the same
    (m_r, pct_r) as `monotone_radial` and cannot disagree with it. It stays
    because the row set is the report's CSV contract. `uniqueness`
    fails, with margin nan, when no multistart seed converged.

    One operator serves the residual rows and the multistart: `op` when
    given (built on u's grid and dimension, or a ValueError), typically
    the one that solved u, whose column order the multistart then reuses;
    else a new one.
    """
    grid = u.grid
    op = operator_for(grid, u.n, op)
    eps = eps_disc(grid)
    rows = []

    # The multistart runs first, though its row comes last: its factors,
    # made in a worker thread's malloc arena, set the peak memory, and
    # the main arena's leftovers from the checks below would add to it
    # (3 MB of peak RSS on the 97x193 ball).
    uniqueness = None
    if with_uniqueness:
        worst, converged, _ = uniqueness_multistart(grid, u.n, nl, seeds=seeds, seed=seed,
                                                    base=u, op=op)
        # With no converged seed nothing was compared: the margin is
        # undefined and the row fails.
        if converged == 0:
            worst = np.nan
        uniqueness = CheckRow("uniqueness", worst, 10.0 * TOL_PDE, worst <= 10.0 * TOL_PDE)

    sym = check_axial_symmetry(u)
    rows.append(CheckRow("axial_symmetry", sym, 10.0 * TOL_PDE, sym <= 10.0 * TOL_PDE))

    m_z, m_r, pct_z, pct_r = check_monotonicity(u)
    rows.append(CheckRow("monotone_axial", m_z, eps, monotone(m_z, pct_z, eps)))
    rows.append(CheckRow("monotone_transverse", m_r, eps, monotone(m_r, pct_r, eps)))
    rows.append(CheckRow("monotone_radial", m_r, eps, monotone(m_r, pct_r, eps)))

    try:
        census = find_critical_points(u)
    except InternalContradictionError:
        census = None
    if census is not None:
        cp_ok = census.unique_axis_max
        cp_margin = abs(len(census.points) - 1) + (0.0 if cp_ok else 1.0)
    else:
        cp_ok, cp_margin = False, 1.0
    rows.append(CheckRow("critical_point_census", cp_margin, 0.5, cp_ok))

    mp = moving_plane_check(u)
    rows.append(CheckRow("moving_plane", mp, eps, mp <= eps))

    res = max(derivative_pde_residual(u, nl, "z", op=op),
              derivative_pde_residual(u, nl, "r", op=op))
    tol_res = DERIV_RESIDUAL_C * grid.h
    rows.append(CheckRow("derivative_residual", res, tol_res, res <= tol_res))

    if uniqueness is not None:
        rows.append(uniqueness)
    return VerificationReport(rows)
