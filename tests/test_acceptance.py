"""Acceptance suite: one test per criterion, at the stated tolerances.

Run `pytest -s tests/test_acceptance.py` to see the pass/fail line for
every criterion. Heavy artifacts (scenario solves, homotopy runs) are
shared through module fixtures; their wall time is measured where a
criterion bounds it.
"""

import time

import numpy as np
import pytest

from cplab import domain as dm
from cplab import fieldio
from cplab import morse as mo
from cplab import nonlinearity as nlin
from cplab import oracle3d as o3
from cplab import solver as sv
from cplab import stability as st
from cplab import verify as vf
from cplab.cli import main
from cplab.continuation import run_homotopy
from cplab.errors import IndefiniteOperatorError, OracleMismatchError

from oracles import (BALL_LAMBDA1, SlicingStencil, ball_lambda1, manufactured_problem,
                     taylor_fit)


def note(num, ok, msg):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {msg}")
    assert ok, f"criterion {num}: {msg}"


# -- shared heavy artifacts ----------------------------------------------------


@pytest.fixture(scope="module")
def scenarios(spheroid_torsion_129, gelfand_ball_129, spindle_torsion_129):
    """(a) torsion oblate spheroid, (b) gelfand unit ball, (c) torsion spindle.

    Each entry carries the solved field plus the stability report, census
    and verification margins, with the wall time of all of it.
    """
    out = {}
    specs = {
        "a": (spheroid_torsion_129[1], spheroid_torsion_129[2], nlin.constant(1.0),
              spheroid_torsion_129[4]),
        "b": (gelfand_ball_129[0], gelfand_ball_129[1], nlin.gelfand(1.0),
              gelfand_ball_129[3]),
        "c": (spindle_torsion_129[1], spindle_torsion_129[2], nlin.constant(1.0),
              spindle_torsion_129[4]),
    }
    for key, (grid, u, nl, solve_time) in specs.items():
        t0 = time.perf_counter()
        stab = st.smallest_eigenvalue(u, nl)
        census = mo.find_critical_points(u)
        sym = vf.check_axial_symmetry(u)
        m_z, m_r, pct_z, pct_r = vf.check_monotonicity(u)
        elapsed = solve_time + (time.perf_counter() - t0)
        out[key] = dict(grid=grid, u=u, nl=nl, stab=stab, census=census,
                        sym=sym, m_z=m_z, m_r=m_r, pct_z=pct_z, pct_r=pct_r,
                        elapsed=elapsed)
    return out


@pytest.fixture(scope="module")
def homotopy_runs():
    """Criterion 8/9 runs: targets (a) and (c) with the voxel oracle at t=1."""
    runs = {}
    t0 = time.perf_counter()
    runs["a"] = (run_homotopy(dm.MeridianDomain(3, dm.spheroid(1.0, 0.5)),
                              nlin.constant(1.0), 97, 97, t_step0=0.05,
                              oracle_n=48, seed=1),
                 time.perf_counter() - t0)
    t0 = time.perf_counter()
    runs["c"] = (run_homotopy(dm.MeridianDomain(3, dm.polynomial_bump([1, 0, -2, 0, 1])),
                              nlin.constant(1.0), 97, 193, t_step0=0.05,
                              oracle_n=48, seed=1),
                 time.perf_counter() - t0)
    return runs


# -- criteria -------------------------------------------------------------------


def test_criterion_01_torsion_ball(torsion_ball_65, torsion_ball_129):
    g65, _, _, dt65 = torsion_ball_65
    g129, u129, _, dt129 = torsion_ball_129
    t0 = time.perf_counter()
    u_center = u129.values[g129.origin_index]
    rel = abs(u_center - 1.0 / 6.0) * 6.0

    # Observed order from the manufactured solution on the same geometry:
    # the torsion solution itself is reproduced exactly by the stencil (its
    # error is at rounding, orders below the 0.5% tolerance).
    errors = {}
    for grid in (g65, g129):
        ustar, F, _, _ = manufactured_problem(3)
        op = sv.AxisymOperator(grid, 3)
        Z, R = np.meshgrid(grid.zs, grid.rs, indexing="ij")
        ref = SlicingStencil(grid, 3, grid.inside)
        rhs = np.where(grid.inside, F(R, Z), 0.0) + ref.dirichlet_rhs(ustar)
        x = op.solve(np.zeros_like(rhs), rhs)
        errors[grid.nr] = np.abs(x - np.where(grid.inside, ustar(R, Z), 0.0))[grid.inside].max()
    order = np.log2(errors[65] / errors[129])
    elapsed = dt65 + dt129 + (time.perf_counter() - t0)

    note(1, rel <= 5e-3 and order >= 1.8 and elapsed < 30.0,
         f"u(o) rel err {rel:.2e} (<=0.5%), observed order {order:.2f} (>=1.8), "
         f"runtime {elapsed:.1f}s (<30s)")


def test_criterion_02_eigenvalue_regression(torsion_ball_129, monkeypatch):
    grid, _, _, _ = torsion_ball_129
    u0 = sv.Field.zeros(grid, 3)
    monkeypatch.setattr(st, "TOL_EIG", 1e-9)
    r0 = st.smallest_eigenvalue(u0, nlin.constant(1.0))
    r5 = st.smallest_eigenvalue(u0, nlin.affine(5.0, 1.0))
    rel = abs(r0.lambda1 / BALL_LAMBDA1 - 1.0)
    shift_err = abs(r5.lambda1 - (r0.lambda1 - 5.0))
    note(2, rel <= 1e-2 and shift_err <= 1e-10,
         f"lambda1 = {r0.lambda1:.6f} vs pi^2 (rel {rel:.2e} <= 1%), "
         f"affine shift identity error {shift_err:.2e} (<= 1e-10)")


def test_criterion_03_theorem_suite(scenarios):
    for key, s in scenarios.items():
        grid = s["grid"]
        eps = vf.eps_disc(grid)
        census = s["census"]
        p = census.points[0] if census.points else None
        ev = np.linalg.eigvalsh(p.hessian) if p is not None else np.array([0.0])
        ok = (census.unique_axis_max
              and p.signature == (3, 0, 0)
              and np.all(np.abs(ev) > census.tau_h)
              and s["sym"] <= 10.0 * sv.TOL_PDE
              and s["m_z"] <= eps and s["m_r"] <= eps
              and s["pct_z"] < 0.0 and s["pct_r"] < 0.0
              and s["stab"].stable
              and s["elapsed"] < 60.0)
        note(3, ok,
             f"scenario ({key}): census=1 on-axis max {p.signature if p else '-'}"
             f", |eig|>tau_H, sym {s['sym']:.1e}, m_z {s['m_z']:.1e}, "
             f"m_r {s['m_r']:.1e} (eps {eps:.1e}), lambda1 {s['stab'].lambda1:.3f} "
             f"> margin, runtime {s['elapsed']:.1f}s (<60s)")


def test_criterion_04_hessian_structure(torsion_ball_129, scenarios):
    g129, u129, _, _ = torsion_ball_129
    census = mo.find_critical_points(u129)
    H = census.points[0].hessian
    ball_ok = np.all(np.abs(H + np.eye(3) / 3.0) <= 0.05 / 3.0)
    note(4, ball_ok, f"torsion ball Hessian = -(1/3) I within 5% "
                     f"(max dev {np.abs(H + np.eye(3) / 3.0).max():.2e})")
    for key, s in scenarios.items():
        p = s["census"].points[0]
        H = p.hessian
        tau = s["census"].tau_h
        off = np.abs(H - np.diag(np.diag(H))).max()
        transverse = abs(H[0, 0] - H[1, 1])
        fit = taylor_fit(s["u"], (p.r, p.z))
        ok = (transverse <= tau and off <= tau
              and abs(fit["cross"]) <= tau
              and fit["c1"] < 0.0 and fit["c2"] < 0.0)
        note(4, ok,
             f"scenario ({key}): transverse equal within tau_H ({transverse:.1e}), "
             f"off-diag {off:.1e} <= {tau:.1e}, Taylor c1={fit['c1']:.4f} < 0, "
             f"c2={fit['c2']:.4f} < 0")


def test_criterion_05_moving_plane(torsion_ball_129, gelfand_ball_129):
    lambdas = np.linspace(0.1, 0.9, 9)
    for name, (grid, u, _, _) in (("torsion", torsion_ball_129),
                                  ("gelfand", gelfand_ball_129)):
        margin = vf.moving_plane_check(u, lambdas=lambdas)
        eps = vf.eps_disc(grid)
        note(5, margin <= eps,
             f"{name} ball: max w_lambda = {margin:.2e} <= eps_disc {eps:.2e}")


def test_criterion_06_derivative_pde_residuals(scenarios):
    for key, s in scenarios.items():
        grid = s["grid"]
        h = max(grid.hr, grid.hz)
        res = max(vf.derivative_pde_residual(s["u"], s["nl"], "z"),
                  vf.derivative_pde_residual(s["u"], s["nl"], "r"))
        bound = vf.DERIV_RESIDUAL_C * h
        note(6, res <= bound,
             f"scenario ({key}): derivative-PDE residual {res:.2e} <= C*h = {bound:.2e}")


def test_criterion_07_uniqueness_multistart(gelfand_ball_129):
    grid, _, _, _ = gelfand_ball_129
    worst, converged, failed = vf.uniqueness_multistart(
        grid, 3, nlin.gelfand(1.0), seeds=5, seed=42)
    note(7, worst <= 1e-8 and converged >= 1,
         f"gelfand(1) ball, 5 seeds: {converged} converged, {failed} diverged, "
         f"max pairwise distance {worst:.2e} (<= 1e-8)")


def test_criterion_08_homotopy_completion(homotopy_runs):
    for key, (rec, elapsed) in homotopy_runs.items():
        ts = [s.t for s in rec.steps]
        ok = (rec.completed
              and rec.first_failure_t is None
              and ts[-1] == 1.0
              and len(rec.steps) >= 15
              and all(s.cp_count == 1 for s in rec.steps)
              and elapsed < 300.0)
        note(8, ok,
             f"target ({key}): t=1 reached in {len(rec.steps)} steps, "
             f"all gates green, first_failure_t={rec.first_failure_t}, "
             f"runtime {elapsed:.0f}s (<300s)")


SPHEROID_N5 = """
[domain]
kind = spheroid
a = 1.0
b = 0.5
n = 5

[nonlinearity]
form = constant
c = 1.0

[grid]
nr = 49
nz = 65

[run]
uniqueness_seeds = 2
"""


def test_criterion_08_homotopy_completion_in_dimension_5(tmp_path):
    # The theorem holds for every n >= 3. At n = 5 the weighted operator is
    # not a Z-matrix, and the eigen gate still certifies every step.
    cfg = tmp_path / "n5.cfg"
    cfg.write_text(SPHEROID_N5)
    eigen_status = main(["eigen", "--config", str(cfg), "--out", str(tmp_path / "eigen"),
                         "--quiet"])
    continue_status = main(["continue", "--config", str(cfg), "--out",
                            str(tmp_path / "continue"), "--quiet"])
    eig_head = (tmp_path / "eigen" / "eigenfield.cpfield").read_text().splitlines()[0]
    lam_target = float(eig_head.split("=")[1])
    rows = (tmp_path / "continue" / "continuation.csv").read_text().splitlines()[1:]
    lam_ball, lam_end = float(rows[0].split(",")[2]), float(rows[-1].split(",")[2])
    # t = 0 is the inscribed ball, radius b; the spheroid lies between the
    # balls of radius b and a, so its lambda1 lies between theirs.
    exact_ball = ball_lambda1(5, 0.5)
    ball_rel = abs(lam_ball / exact_ball - 1.0)
    ok = (eigen_status == 0 and continue_status == 0
          and ball_rel <= 2e-2
          and ball_lambda1(5, 1.0) < lam_target < exact_ball
          and lam_end == pytest.approx(lam_target, rel=1e-6))
    note(8, ok,
         f"n = 5 spheroid b = 0.5, 49x65: eigen exits {eigen_status}, continue exits "
         f"{continue_status} in {len(rows)} steps; lambda1 at t=0 {lam_ball:.4f} vs "
         f"j^2/b^2 = {exact_ball:.4f} (rel {ball_rel:.2e} <= 2%), at t=1 {lam_end:.4f} "
         f"vs eigen {lam_target:.4f}")


def test_criterion_09_oracle_agreement(homotopy_runs):
    for key, (rec, _) in homotopy_runs.items():
        oc = rec.oracle_comparison
        assert oc is not None and "linf_rel" in oc, f"oracle missing for ({key})"
        bound = 5e-3 * oc["max_value"]
        ok = (oc["linf_rel"] <= 2e-2
              and oc["cp_offset_cells"] <= 2.0
              and oc["rotation_witness"] <= bound
              and oc["mirror_witness"] <= bound)
        note(9, ok,
             f"target ({key}) at t=1, N=48: Linf_rel {oc['linf_rel']:.2e} (<=2e-2), "
             f"cp offset {oc['cp_offset_cells']:.2f} cells (<=2), witnesses "
             f"({oc['rotation_witness']:.1e}, {oc['mirror_witness']:.1e}) <= {bound:.1e}")


def test_criterion_10_negative_controls(tmp_path, torsion_ball_65):
    grid, _, _, _ = torsion_ball_65

    # (i) injected asymmetric field fails the symmetry check, nonzero exit.
    bad = sv.Field(grid, np.where(grid.inside, 0.1 + 0.05 * grid.zs[:, None], 0.0), 3)
    field_path = tmp_path / "asym.cpfield"
    fieldio.write_field(bad, field_path)
    cfg = tmp_path / "ball.cfg"
    cfg.write_text("[domain]\nkind = ball\na = 1.0\nn = 3\n"
                   "[nonlinearity]\nform = constant\nc = 1.0\n"
                   "[grid]\nnr = 65\nnz = 129\n")
    status = main(["verify", "--config", str(cfg), "--out", str(tmp_path / "o1"),
                   "--field", str(field_path), "--quiet"])
    note(10, status == 1, f"injected asymmetric field: verify exits {status} (nonzero)")

    # (ii) injected double-bump voxel field yields 2 clusters and a loud
    # mismatch against the meridian census.
    d = dm.MeridianDomain(3, dm.ball(1.0))
    vox = o3.solve_3d(d, nlin.constant(1.0), 32)
    Z, Y, X = np.meshgrid(vox.zs, vox.ys, vox.xs, indexing="ij")
    vals = 0.3 * X
    k0, j0 = np.argmin(np.abs(vox.zs)), np.argmin(np.abs(vox.ys))
    for x0 in (0.4, -0.4):
        vals[k0, j0, np.argmin(np.abs(vox.xs - x0))] += 1.0
    injected = o3.VoxelField(vox.N, vox.xs, vox.ys, vox.zs, vox.mask,
                             np.where(vox.mask, vals, 0.0))
    clusters = o3.scan_critical_voxels(injected)
    u65, _ = sv.newton_solve(grid, 3, nlin.constant(1.0), sv.Field.zeros(grid, 3))
    mismatch_loud = False
    try:
        o3.compare_with_axisymmetric(injected, u65)
    except OracleMismatchError:
        mismatch_loud = True
    note(10, len(clusters) == 2 and mismatch_loud,
         f"double-bump voxel field: {len(clusters)} clusters, mismatch raises")

    # (iii) concave tabulated phi fails the hypothesis check.
    us = np.linspace(0.0, 3.0, 31)
    report = nlin.check_hypotheses(nlin.tabulated_phi(us, -us ** 2))
    note(10, not report.passed and "convex in u" in report.violated(),
         f"concave tabulated phi: hypotheses violated {report.violated()}")

    # (iv) affine(15) on the unit ball: indefinite operator, nonzero exit.
    raised = False
    try:
        sv.newton_solve(grid, 3, nlin.affine(15.0, 1.0), sv.Field.zeros(grid, 3))
    except IndefiniteOperatorError:
        raised = True
    cfg15 = tmp_path / "affine15.cfg"
    cfg15.write_text("[domain]\nkind = ball\na = 1.0\nn = 3\n"
                     "[nonlinearity]\nform = affine\nlambda = 15.0\nc = 1.0\n"
                     "[grid]\nnr = 65\nnz = 129\n")
    status = main(["solve", "--config", str(cfg15), "--out", str(tmp_path / "o2"),
                   "--quiet"])
    note(10, raised and status == 1,
         f"affine(15): IndefiniteOperatorError raised, solve exits {status}")
