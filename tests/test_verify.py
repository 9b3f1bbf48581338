import sys
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays
from scipy import ndimage

from cplab import domain as dm
from cplab import fieldio
from cplab import nonlinearity as nlin
from cplab import solver as sv
from cplab import stability
from cplab import verify as vf
from cplab.errors import CplabError, IndefiniteOperatorError
from cplab.morse import find_critical_points

from oracles import SlicingStencil, manufactured_problem


def test_axial_symmetry_of_solve(torsion_ball_65):
    grid, u, _, _ = torsion_ball_65
    assert vf.check_axial_symmetry(u) <= 1e-12


def test_axial_symmetry_flags_injected_field(torsion_ball_65):
    grid, _, _, _ = torsion_ball_65
    u = sv.Field.from_function(grid, 3, lambda R, Z: Z)
    margin = vf.check_axial_symmetry(u)
    zmax_inside = np.abs(np.meshgrid(grid.zs, grid.rs, indexing="ij")[0][grid.inside]).max()
    assert margin == pytest.approx(2.0 * zmax_inside, rel=1e-12)
    assert margin > 10 * sv.TOL_PDE


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


def test_moving_plane_needs_the_profile_of_a_read_back_field(tmp_path, torsion_ball_65, ball3):
    grid, u, _, _ = torsion_ball_65
    fieldio.write_field(u, tmp_path / "u.cpfield")
    stored, _ = fieldio.read_field(tmp_path / "u.cpfield")
    with pytest.raises(ValueError, match="fieldio.on_domain"):
        vf.moving_plane_check(stored)
    assert vf.moving_plane_check(fieldio.on_domain(stored, ball3)) == vf.moving_plane_check(u)


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


def centred_derivative_residual(u, nl, direction):
    """Reference: the derivative-PDE residual with its own centred stencil."""
    g, n = u.grid, u.n
    hr, hz = g.hr, g.hz
    v = sv.derivative_field(u, direction).values
    Z, R = np.meshgrid(g.zs, g.rs, indexing="ij")
    vrr, vzz, vr = np.zeros_like(v), np.zeros_like(v), np.zeros_like(v)
    vrr[:, 1:-1] = (v[:, 2:] - 2.0 * v[:, 1:-1] + v[:, :-2]) / (hr * hr)
    vzz[1:-1, :] = (v[2:, :] - 2.0 * v[1:-1, :] + v[:-2, :]) / (hz * hz)
    vr[:, 1:-1] = (v[:, 2:] - v[:, :-2]) / (2.0 * hr)
    with np.errstate(divide="ignore", invalid="ignore"):
        rr = np.where(R > 0, R, 1.0)
        lap = vrr + (n - 2) / rr * vr + vzz
        if direction == "z":
            fdir = nl.eval_dz(R, Z, u.values)
        else:
            fdir = nl.eval_dr(R, Z, u.values)
            lap = lap - (n - 2) / (rr * rr) * v
    resid = lap + nl.eval_du(R, Z, u.values) * v + fdir
    return float(np.abs(resid[vf._bulk_mask(g)]).max())


def test_derivative_residual_is_the_centred_stencil(gelfand_ball_65, spindle_torsion_129):
    # The check applies the solver's Laplacian to du/dz and du/dr; on the
    # bulk every arm is full, so it is the centred stencil up to rounding.
    grid, u, _, _ = gelfand_ball_65
    _, _, v, _, _ = spindle_torsion_129
    for field, nl in ((u, nlin.gelfand(1.0)), (v, nlin.constant(1.0))):
        for direction in ("z", "r"):
            res = vf.derivative_pde_residual(field, nl, direction)
            assert res == pytest.approx(centred_derivative_residual(field, nl, direction),
                                        rel=0.0, abs=1e-12)


@pytest.mark.parametrize("prof, nr, nz", [
    (dm.polynomial_bump([1.0, 0.0, -2.0, 0.0, 1.0]), 257, 513),
    (dm.spheroid(1.0, 0.5), 385, 385)], ids=["spindle-257x513", "spheroid-385x385"])
def test_radial_derivative_residual_holds_on_fine_grids(prof, nr, nz):
    # The radial residual differentiates the solution once more, so an
    # O(h) solution error at the boundary would keep it from shrinking
    # with h; the bisected cut arms keep the solve second order.
    grid = dm.build_grid(dm.MeridianDomain(3, prof), nr, nz)
    u, rep = sv.newton_solve(grid, 3, nlin.constant(1.0), sv.Field.zeros(grid, 3))
    assert rep.converged
    res = vf.derivative_pde_residual(u, nlin.constant(1.0), "r")
    assert res <= vf.DERIV_RESIDUAL_C * max(grid.hr, grid.hz)


@settings(max_examples=12, deadline=None)
@given(st.sampled_from([1.0, 0.5]), st.sampled_from([3, 5]), st.floats(-12.0, -3.0),
       st.sampled_from([nlin.constant(1.0), nlin.gelfand(1.0)]))
def test_a_node_next_to_the_boundary_keeps_every_number_finite(b, n, log_eps, nl):
    # On a box of side 1 the ball (b = 1) or spheroid reaches eps*h past
    # the node (r = 1, z = 0), so that node's east arm is cut at theta ~ eps.
    nr, eps = 33, 10.0 ** log_eps
    h = 1.0 / (nr - 1)
    if b == 1.0:
        d = dm.MeridianDomain(n, dm.ball(1.0 + eps * h))
        grid = dm.build_grid(d, nr, 2 * nr - 1, rmax=1.0, zmax=1.0)
    else:
        d = dm.MeridianDomain(n, dm.spheroid(1.0 + eps * h, b))
        grid = dm.build_grid(d, nr, nr, rmax=1.0)
    assert abs(grid.theta_e[grid.j_equator, -1] - eps) <= 2.0 ** -45
    try:
        u, rep = sv.newton_solve(grid, n, nl, sv.Field.zeros(grid, n))
        stab = stability.smallest_eigenvalue(u, nl)
        census = find_critical_points(u)
        report = vf.run_verification(u, nl, seeds=2)
    except CplabError:
        return  # a typed failure is an allowed outcome; any other is not
    assert rep.converged and np.all(np.isfinite(u.values))
    assert np.isfinite(stab.lambda1) and np.isfinite(stab.residual)
    assert all(np.isfinite([p.r, p.z, p.value]).all() for p in census.points)
    assert all(np.isfinite(row.margin) for row in report.rows)


def test_uniqueness_multistart_linear(torsion_ball_65):
    grid, _, _, _ = torsion_ball_65
    worst, converged, failed = vf.uniqueness_multistart(grid, 3, nlin.constant(1.0),
                                                        seeds=3, seed=11)
    assert converged == 3
    assert failed == 0
    assert worst <= 10 * sv.TOL_PDE


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


def test_uniqueness_multistart_seeds_keep_the_solver_budget(gelfand_ball_65, monkeypatch):
    # No random start reaches the solution in one Newton step: with a budget
    # of one every seed is a basin failure.
    grid, u, _, _ = gelfand_ball_65
    monkeypatch.setattr(sv, "MAX_NEWTON", 1)
    assert vf.uniqueness_multistart(grid, 3, nlin.gelfand(1.0), seeds=2, base=u) == (0.0, 0, 2)


def test_uniqueness_multistart_unconverged_baseline_is_a_cplab_error(monkeypatch):
    monkeypatch.setattr(sv, "MAX_NEWTON", 1)
    grid = dm.build_grid(dm.MeridianDomain(3, dm.ball(1.0)), 17, 33)
    with pytest.raises(CplabError, match="baseline zero-guess solve did not converge"):
        vf.uniqueness_multistart(grid, 3, nlin.gelfand(1.0), seeds=2)


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


def test_uniqueness_multistart_counts_only_indefinite_seeds_as_failed(gelfand_ball_65,
                                                                       monkeypatch):
    grid, u, _, _ = gelfand_ball_65

    def raising(exc):
        def newton(*args, **kwargs):
            raise exc
        return newton

    monkeypatch.setattr(vf, "newton_solve", raising(IndefiniteOperatorError("pivot -1")))
    assert vf.uniqueness_multistart(grid, 3, nlin.gelfand(1.0), seeds=2, base=u) == (0.0, 0, 2)
    # Anything else is a programming error and propagates.
    monkeypatch.setattr(vf, "newton_solve", raising(RuntimeError("bug")))
    with pytest.raises(RuntimeError, match="bug"):
        vf.uniqueness_multistart(grid, 3, nlin.gelfand(1.0), seeds=2, base=u)


def test_uniqueness_row_fails_when_no_seed_converged():
    # gelfand(3.3) on the coarse ball has a stable solution (lambda1 ~ 1.2)
    # but no random start reaches it: with nothing compared, the row must
    # not pass.
    grid = dm.build_grid(dm.MeridianDomain(3, dm.ball(1.0)), 33, 65)
    nl = nlin.gelfand(3.3)
    u, rep = sv.newton_solve(grid, 3, nl, sv.Field.zeros(grid, 3))
    assert rep.converged
    assert vf.uniqueness_multistart(grid, 3, nl, seeds=5, base=u) == (0.0, 0, 5)
    row = vf.run_verification(u, nl, seeds=5).row("uniqueness")
    assert np.isnan(row.margin)
    assert not row.passed


def test_full_report_shape_and_pass(gelfand_ball_65):
    grid, u, _, _ = gelfand_ball_65
    report = vf.run_verification(u, nlin.gelfand(1.0), seeds=2, seed=1)
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
    report = vf.run_verification(u, nlin.constant(1.0), with_uniqueness=False)
    assert not report.passed
    assert not report.row("axial_symmetry").passed


def test_axial_symmetry_row_holds_ten_times_the_newton_tolerance(torsion_ball_65):
    # 1e-4 added on the upper half is far above the Newton tolerance and
    # far below any discretization error the other rows allow.
    grid, u, _, _ = torsion_ball_65
    shift = np.where(grid.zs[:, None] > 0.0, 1e-4, 0.0)
    report = vf.run_verification(sv.Field(grid, u.values + shift, 3), nlin.constant(1.0),
                                 with_uniqueness=False)
    row = report.row("axial_symmetry")
    assert row.tolerance == 10 * sv.TOL_PDE == pytest.approx(1e-8)
    assert row.margin == pytest.approx(1e-4, rel=1e-6)
    assert not row.passed


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
    ref = SlicingStencil(grid, 3, grid.inside)
    rhs = np.where(grid.inside, F(R, Z), 0.0) + ref.dirichlet_rhs(ustar)
    x = op.solve(np.zeros_like(rhs), rhs)
    u = sv.Field(grid, x, 3)
    # The u-independent source f(r, z): f_u = 0, analytic spatial partials.
    src = SimpleNamespace(eval_du=lambda r, z, u: np.zeros_like(u),
                          eval_dz=lambda r, z, u: Fz(r, z),
                          eval_dr=lambda r, z, u: Fr(r, z))
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


def test_run_verification_reuses_the_field_as_the_multistart_baseline(gelfand_ball_65,
                                                                       monkeypatch):
    grid, u, _, _ = gelfand_ball_65
    nl = nlin.gelfand(1.0)
    zero_guess = vf.uniqueness_multistart(grid, 3, nl, seeds=3, seed=5)
    calls = []
    newton = vf.newton_solve

    def counted(*args, **kwargs):
        calls.append(args[3])
        return newton(*args, **kwargs)

    monkeypatch.setattr(vf, "newton_solve", counted)
    report = vf.run_verification(u, nl, seeds=3, seed=5)
    assert len(calls) == 3
    assert all(start.max_inside() > 0.0 for start in calls)  # no zero-guess solve
    assert report.row("uniqueness").margin == zero_guess[0]
    assert vf.uniqueness_multistart(grid, 3, nl, seeds=3, seed=5, base=u) == zero_guess


@st.composite
def masks_2d(draw):
    """Boolean masks up to 14x14, mostly one value with scattered flips."""
    shape = draw(array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=14))
    return draw(arrays(bool, shape, elements=st.booleans(), fill=st.just(draw(st.booleans()))))


@settings(max_examples=300, deadline=None)
@given(masks_2d())
def test_bulk_mask_equals_the_ndimage_erosion(m):
    ref = ndimage.binary_erosion(m, structure=ndimage.generate_binary_structure(2, 1),
                                 iterations=3, border_value=0)
    bulk = vf._bulk_mask(SimpleNamespace(inside=m))
    assert bulk.dtype == ref.dtype and np.array_equal(bulk, ref)
    # The axis column and the next two are never bulk, so every node the
    # derivative-PDE residual scans has r >= 3hr and needs no axis rule.
    assert not bulk[:, :3].any()
