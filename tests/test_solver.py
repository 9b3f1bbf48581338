import numpy as np
import pytest

from cplab import domain as dm
from cplab import nonlinearity as nlin
from cplab import solver as sv
from cplab.errors import IndefiniteOperatorError

from oracles import (GELFAND1_U0, gelfand_radial_shoot, manufactured_problem,
                     torsion_ball_exact)


def test_laplacian_exact_on_quadratic(torsion_ball_65):
    grid, _, _, _ = torsion_ball_65
    u = sv.Field.from_function(grid, 3, lambda R, Z: (1 - R ** 2 - Z ** 2) / 6.0)
    lap = sv.apply_axisym_laplacian(grid, 3, u)
    # Interior nodes: exact up to rounding. Clamped cut arms are the
    # documented exception and are excluded here.
    assert np.abs(lap.values[grid.interior] + 1.0).max() < 1e-9


def test_laplacian_trivial_fields(torsion_ball_65):
    grid, _, _, _ = torsion_ball_65
    zero = sv.Field.zeros(grid, 3)
    assert sv.apply_axisym_laplacian(grid, 3, zero).linf() == 0.0
    lin = sv.Field.from_function(grid, 3, lambda R, Z: Z)
    lap = sv.apply_axisym_laplacian(grid, 3, lin)
    assert np.abs(lap.values[grid.interior]).max() < 1e-9


def test_solve_linear_torsion(torsion_ball_65):
    grid, _, _, _ = torsion_ball_65
    rhs = sv.Field.from_function(grid, 3, lambda R, Z: np.ones_like(R))
    c = sv.Field.zeros(grid, 3)
    phi = sv.solve_linear(grid, 3, c, rhs)
    assert phi.values[grid.origin_index] == pytest.approx(1.0 / 6.0, rel=2e-4)


def test_solve_linear_zero_rhs(torsion_ball_65):
    grid, _, _, _ = torsion_ball_65
    phi = sv.solve_linear(grid, 3, sv.Field.zeros(grid, 3), sv.Field.zeros(grid, 3))
    assert phi.linf() == 0.0


def test_solve_linear_definiteness_threshold(torsion_ball_65):
    grid, _, _, _ = torsion_ball_65
    rhs = sv.Field.from_function(grid, 3, lambda R, Z: np.ones_like(R))
    lam1 = np.pi ** 2
    ok = sv.solve_linear(grid, 3,
                         sv.Field.from_function(grid, 3, lambda R, Z: 0.5 * lam1 * np.ones_like(R)),
                         rhs)
    assert np.isfinite(ok.linf())
    with pytest.raises(IndefiniteOperatorError):
        sv.solve_linear(grid, 3,
                        sv.Field.from_function(grid, 3, lambda R, Z: 2.0 * lam1 * np.ones_like(R)),
                        rhs)


def test_factor_inertia_brackets_the_first_eigenvalue(torsion_ball_65):
    # The discrete lambda1 of the unit ball is ~pi^2: -Lap - 9 is positive
    # definite, -Lap - 10.5 is not, and the pivots of the factor say so.
    grid, _, _, _ = torsion_ball_65
    rhs = sv.Field.from_function(grid, 3, lambda R, Z: np.ones_like(R))

    def const(value):
        return sv.Field.from_function(grid, 3, lambda R, Z: value * np.ones_like(R))

    # 1e-11 relative is below the rounding floor of the residual of a
    # solution this large (~2.3), so this solve asks for 1e-10.
    phi = sv.solve_linear(grid, 3, const(9.0), rhs, tol_lin=1e-10)
    assert phi.min_inside() > 0.0
    with pytest.raises(IndefiniteOperatorError, match="pivot"):
        sv.solve_linear(grid, 3, const(10.5), rhs)


def test_torsion_one_newton_step(torsion_ball_65):
    grid, u, rep, _ = torsion_ball_65
    assert rep.newton_iterations == 1
    assert rep.damping_events == 0
    assert rep.converged
    exact = torsion_ball_exact(1.0, 3)
    Z, R = np.meshgrid(grid.zs, grid.rs, indexing="ij")
    err = np.abs(u.values - np.where(grid.inside, exact(R, Z), 0.0))[grid.inside].max()
    assert err < 5e-4


def test_affine_one_newton_step(torsion_ball_65):
    grid, _, _, _ = torsion_ball_65
    u, rep = sv.newton_solve(grid, 3, nlin.affine(5.0, 1.0), sv.Field.zeros(grid, 3))
    assert rep.converged
    assert rep.newton_iterations == 1
    assert rep.damping_events == 0


def test_gelfand_matches_shooting_oracle(gelfand_ball_65):
    grid, u, rep, _ = gelfand_ball_65
    # the oracle reproduces its frozen value
    alpha, _ = gelfand_radial_shoot(1.0)
    assert alpha == pytest.approx(GELFAND1_U0, abs=1e-11)
    assert u.values[grid.origin_index] == pytest.approx(GELFAND1_U0, rel=5e-4)


def test_gelfand_newton_quadratic_tail(gelfand_ball_65):
    _, _, rep, _ = gelfand_ball_65
    hist = rep.residual_history
    assert hist is not None and len(hist) >= 2
    checked = False
    for rk, rk1 in zip(hist[:-1], hist[1:]):
        if rk <= 1e-4:
            assert rk1 <= rk ** 1.5
            checked = True
    assert checked, f"no residual in the quadratic tail window: {hist}"


def test_unstable_affine_raises(torsion_ball_65):
    grid, _, _, _ = torsion_ball_65
    with pytest.raises(IndefiniteOperatorError):
        sv.newton_solve(grid, 3, nlin.affine(15.0, 1.0), sv.Field.zeros(grid, 3))


def test_positivity_of_catalog_solutions():
    d = dm.MeridianDomain(3, dm.ball(1.0))
    grid = dm.build_grid(d, 49, 99)
    for nl in (nlin.constant(1.0), nlin.affine(2.0, 1.0), nlin.gelfand(0.5),
               nlin.power(0.5, 2.0), nlin.separable(1.0, 0.5, nlin.gelfand(0.5))):
        u, rep = sv.newton_solve(grid, 3, nl, sv.Field.zeros(grid, 3))
        assert rep.converged, nl.form
        assert rep.min_value > 0.0, nl.form


def test_manufactured_solution_convergence_order():
    errors = {}
    for nr, nz in ((65, 129), (129, 257)):
        d = dm.MeridianDomain(3, dm.ball(1.0))
        g = dm.build_grid(d, nr, nz)
        ustar, F, _, _ = manufactured_problem(3)
        op = sv.AxisymOperator(g, 3)
        Z, R = np.meshgrid(g.zs, g.rs, indexing="ij")
        rhs = np.where(g.inside, F(R, Z), 0.0) + op.dirichlet_rhs(ustar)
        x = op.solve(np.zeros_like(rhs), rhs)
        err = np.abs(x - np.where(g.inside, ustar(R, Z), 0.0))[g.inside].max()
        errors[nr] = err
    ratio = errors[65] / errors[129]
    assert ratio >= 3.4, f"observed ratio {ratio:.2f}"


def test_derivative_field_torsion(torsion_ball_65):
    grid, u, _, _ = torsion_ball_65
    dr = sv.derivative_field(u, "r")
    dz = sv.derivative_field(u, "z")
    Z, R = np.meshgrid(grid.zs, grid.rs, indexing="ij")
    sel = grid.interior
    assert np.abs(dr.values[sel] + R[sel] / 3.0).max() < 2e-2
    # exactly zero radial derivative on the axis
    assert np.all(dr.values[:, 0] == 0.0)
    # du/dz vanishes on the equator and is negative above it
    jmid = grid.j_equator
    assert np.abs(dz.values[jmid, :][grid.inside[jmid, :]]).max() < 2e-2
    upper = sel & (Z >= 2 * grid.hz)
    assert dz.values[upper].max() < 0.0


def test_newton_rejects_nonfinite_start(torsion_ball_65):
    grid, _, _, _ = torsion_ball_65
    bad = sv.Field.zeros(grid, 3)
    bad.values[grid.origin_index] = np.nan
    with pytest.raises(ValueError):
        sv.newton_solve(grid, 3, nlin.constant(1.0), bad)


def test_field_io_shape_contract(torsion_ball_65):
    grid, u, _, _ = torsion_ball_65
    assert u.values.shape == (grid.nz, grid.nr)
    assert u.min_inside() > 0.0
    assert u.t == grid.t == 1.0
