import sys

import numpy as np
import pytest

from cplab import domain as dm
from cplab import nonlinearity as nlin
from cplab import solver as sv
from cplab import verify as vf

from oracles import manufactured_problem


def test_axial_symmetry_of_solve(torsion_ball_65):
    grid, u, _, _ = torsion_ball_65
    assert vf.check_axial_symmetry(u) <= 1e-12


def test_axial_symmetry_flags_injected_field(torsion_ball_65):
    grid, _, _, _ = torsion_ball_65
    u = sv.Field.from_function(grid, 3, lambda R, Z: Z)
    margin = vf.check_axial_symmetry(u)
    zmax_inside = np.abs(np.meshgrid(grid.zs, grid.rs, indexing="ij")[0][grid.inside]).max()
    assert margin == pytest.approx(2.0 * zmax_inside, rel=1e-12)
    assert margin > 10 * sv.TOL_PDE_DEFAULT


def test_monotonicity_margins_torsion(torsion_ball_65):
    grid, u, _, _ = torsion_ball_65
    m_z, m_r, pct_z, pct_r = vf.check_monotonicity(u)
    eps = vf.eps_disc(grid)
    # most positive value sits near the smallest tested radius: -2h/3
    assert m_r == pytest.approx(-2.0 * grid.hr / 3.0, rel=0.05)
    assert m_z <= eps and m_r <= eps
    assert pct_z < 0 and pct_r < 0


def test_monotonicity_fails_on_increasing_field(torsion_ball_65):
    grid, _, _, _ = torsion_ball_65
    u = sv.Field.from_function(grid, 3, lambda R, Z: R ** 2)
    _, m_r, _, _ = vf.check_monotonicity(u)
    assert m_r > vf.eps_disc(grid)


def test_moving_plane_torsion(torsion_ball_65):
    grid, u, _, _ = torsion_ball_65
    margin = vf.moving_plane_check(u)
    assert margin <= vf.eps_disc(grid)
    # near-empty slab as lambda -> a: margin still defined and small
    m_edge = vf.moving_plane_check(u, lambdas=[0.95])
    assert m_edge <= vf.eps_disc(grid)


def test_moving_plane_rejects_radially_increasing_field(torsion_ball_65):
    grid, _, _, _ = torsion_ball_65
    u = sv.Field.from_function(grid, 3, lambda R, Z: R ** 2 * (1 - Z ** 2))
    assert vf.moving_plane_check(u) > vf.eps_disc(grid)


def test_derivative_residual_torsion(torsion_ball_65):
    grid, u, _, _ = torsion_ball_65
    h = max(grid.hr, grid.hz)
    assert vf.derivative_pde_residual(u, nlin.constant(1.0), "z") <= vf.DERIV_RESIDUAL_C * h
    assert vf.derivative_pde_residual(u, nlin.constant(1.0), "r") <= vf.DERIV_RESIDUAL_C * h


def test_derivative_residual_affine_and_separable():
    d = dm.MeridianDomain(3, dm.ball(1.0))
    grid = dm.build_grid(d, 65, 129)
    h = max(grid.hr, grid.hz)
    for nl in (nlin.affine(3.0, 1.0), nlin.separable(0.5, 1.0, nlin.gelfand(0.5))):
        u, rep = sv.newton_solve(grid, 3, nl, sv.Field.zeros(grid, 3))
        assert rep.converged
        for direction in ("z", "r"):
            res = vf.derivative_pde_residual(u, nl, direction)
            assert res <= vf.DERIV_RESIDUAL_C * h, (nl.form, direction, res)


def test_uniqueness_multistart_linear(torsion_ball_65):
    grid, _, _, _ = torsion_ball_65
    worst, converged, failed = vf.uniqueness_multistart(grid, 3, nlin.constant(1.0),
                                                        seeds=3, seed=11)
    assert converged == 3
    assert failed == 0
    assert worst <= 10 * sv.TOL_PDE_DEFAULT


def test_uniqueness_multistart_gelfand(gelfand_ball_65):
    grid, _, _, _ = gelfand_ball_65
    worst, converged, failed = vf.uniqueness_multistart(grid, 3, nlin.gelfand(1.0),
                                                        seeds=3, seed=3)
    assert converged >= 2
    assert worst <= 1e-8


def test_uniqueness_multistart_is_independent_of_thread_count(gelfand_ball_65, monkeypatch):
    # The pool threads share one operator and the factorization lock; with
    # more threads than cores and frequent switches the result must not move.
    grid, _, _, _ = gelfand_ball_65
    results = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for threads in ("1", "2", "4"):
            monkeypatch.setenv("CPL_THREADS", threads)
            results.append(vf.uniqueness_multistart(grid, 3, nlin.gelfand(1.0),
                                                    seeds=4, seed=3))
    finally:
        sys.setswitchinterval(interval)
    assert results[0][1:] == (4, 0)
    assert results[1] == results[0] and results[2] == results[0]


def test_uniqueness_multistart_near_fold():
    # close to the fold of the exponential branch: seeds may diverge (that is
    # a basin failure, reported separately), converged runs must agree.
    d = dm.MeridianDomain(3, dm.ball(1.0))
    grid = dm.build_grid(d, 49, 99)
    worst, converged, failed = vf.uniqueness_multistart(grid, 3, nlin.gelfand(3.0),
                                                        seeds=4, seed=2)
    assert converged + failed == 4
    assert converged >= 1
    assert worst <= 1e-8


def test_full_report_shape_and_pass(gelfand_ball_65):
    grid, u, _, _ = gelfand_ball_65
    report = vf.run_verification(grid, 3, nlin.gelfand(1.0), u, seeds=2, seed=1)
    names = [r.name for r in report.rows]
    assert names == ["axial_symmetry", "monotone_axial", "monotone_transverse",
                     "monotone_radial", "critical_point_census", "moving_plane",
                     "derivative_residual", "uniqueness"]
    assert report.passed
    assert report.row("monotone_transverse").margin == report.row("monotone_radial").margin


def test_report_fails_on_asymmetric_field(torsion_ball_65):
    grid, _, _, _ = torsion_ball_65
    vals = np.where(grid.inside, 0.1 + 0.05 * grid.zs[:, None], 0.0)
    u = sv.Field(grid, vals, 3)
    report = vf.run_verification(grid, 3, nlin.constant(1.0), u, with_uniqueness=False)
    assert not report.passed
    assert not report.row("axial_symmetry").passed


def test_monotonicity_calibration_still_covers(torsion_ball_65, torsion_ball_129):
    """The frozen constant must dominate the measured torsion-ball error."""
    for grid, u, _, _ in (torsion_ball_65, torsion_ball_129):
        Z, R = np.meshgrid(grid.zs, grid.rs, indexing="ij")
        dz = sv.derivative_field(u, "z").values
        dr = sv.derivative_field(u, "r").values
        mask_z = grid.interior & (np.abs(Z) >= 2 * grid.hz)
        mask_r = grid.interior & (R >= 2 * grid.hr)
        err = max(np.abs(dz + Z / 3.0)[mask_z].max(),
                  np.abs(dr + R / 3.0)[mask_r].max())
        h = max(grid.hr, grid.hz)
        assert err <= vf.MONOTONICITY_C * h * h / 2.0, \
            f"calibration margin eroded: err={err:.3e} vs eps={vf.MONOTONICITY_C * h * h:.3e}"


def test_derivative_residual_calibration_still_covers():
    d = dm.MeridianDomain(3, dm.ball(1.0))
    grid = dm.build_grid(d, 65, 129)
    ustar, F, Fr, Fz = manufactured_problem(3)
    op = sv.AxisymOperator(grid, 3)
    Z, R = np.meshgrid(grid.zs, grid.rs, indexing="ij")
    rhs = np.where(grid.inside, F(R, Z), 0.0) + op.dirichlet_rhs(ustar)
    x = op.solve(np.zeros_like(rhs), rhs)
    u = sv.Field(grid, x, 3)
    src = nlin.manufactured_source(F, Fr, Fz)
    h = max(grid.hr, grid.hz)
    res = max(vf.derivative_pde_residual(u, src, "z"),
              vf.derivative_pde_residual(u, src, "r"))
    assert res <= vf.DERIV_RESIDUAL_C * h / 10.0, \
        f"manufactured-solution calibration margin eroded: {res / h:.3f} per h"


def test_worker_count_env(monkeypatch):
    monkeypatch.setenv("CPL_THREADS", "2")
    assert vf.worker_count() == 2
    monkeypatch.setenv("CPL_THREADS", "junk")
    assert vf.worker_count() >= 1
    monkeypatch.delenv("CPL_THREADS")
    assert vf.worker_count() >= 1
