import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from cplab import domain as dm
from cplab import fieldio
from cplab import nonlinearity as nlin
from cplab import solver as sv
from cplab import stability as st
from cplab.errors import EigenFailureError, UndefinedQuotientError

from oracles import BALL_LAMBDA1, ball_lambda1


def first_ball_mode(grid):
    """sin(pi*rho)/rho, the first Dirichlet eigenfunction of the unit ball."""
    def mode(R, Z):
        rho = np.hypot(R, Z)
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = np.where(rho > 1e-12, np.sin(np.pi * rho) / (np.pi * rho), 1.0)
        return vals
    return sv.Field.from_function(grid, 3, mode)


def test_rayleigh_quotient_of_first_mode(torsion_ball_65):
    grid, u, _, _ = torsion_ball_65
    phi = first_ball_mode(grid)
    q = st.rayleigh_quotient(u, nlin.constant(1.0), phi)
    assert q == pytest.approx(BALL_LAMBDA1, rel=0.01)


def test_rayleigh_lower_bound(torsion_ball_65):
    grid, u, _, _ = torsion_ball_65
    rng = np.random.default_rng(5)
    for _ in range(5):
        vals = np.where(grid.inside, rng.uniform(0.1, 1.0, (grid.nz, grid.nr)), 0.0)
        q = st.rayleigh_quotient(u, nlin.constant(1.0), sv.Field(grid, vals, 3))
        assert q >= BALL_LAMBDA1 - 0.5


def test_rayleigh_shift_identity_exact(torsion_ball_65):
    grid, u, _, _ = torsion_ball_65
    phi = first_ball_mode(grid)
    q0 = st.rayleigh_quotient(u, nlin.constant(1.0), phi)
    q5 = st.rayleigh_quotient(u, nlin.affine(5.0, 1.0), phi)
    assert q5 == pytest.approx(q0 - 5.0, abs=1e-12)


def test_rayleigh_rejects_zero_field(torsion_ball_65):
    grid, u, _, _ = torsion_ball_65
    with pytest.raises(UndefinedQuotientError):
        st.rayleigh_quotient(u, nlin.constant(1.0), sv.Field.zeros(grid, 3))


def test_smallest_eigenvalue_ball(torsion_ball_65):
    grid, u, _, _ = torsion_ball_65
    rep = st.smallest_eigenvalue(u, nlin.constant(1.0))
    assert rep.lambda1 == pytest.approx(BALL_LAMBDA1, rel=0.02)
    assert rep.stable
    assert rep.single_signed
    # unit norm in the weighted discrete L2
    op = sv.AxisymOperator(grid, 3)
    assert op.norm(rep.eigenfield.values[op.nodes]) == pytest.approx(1.0, abs=1e-10)


def test_eigen_iteration_past_its_budget_raises(torsion_ball_65, monkeypatch):
    _, u, _, _ = torsion_ball_65
    monkeypatch.setattr(st, "MAX_EIG_ITER", 2)
    with pytest.raises(EigenFailureError, match="stalled at residual .* after 2 steps"):
        st.smallest_eigenvalue(u, nlin.constant(1.0))


@pytest.mark.parametrize("a", [5.0, 25.0])
def test_affine_shift_identity(torsion_ball_65, monkeypatch, a):
    # lambda1(-Lap - a) = lambda1(-Lap) - a. Past pi^2 the factor at shift 0
    # is indefinite, and the eigen solve falls back to the shift max f_u = a,
    # so the unstable linearization is still measured and reported.
    grid, u, _, _ = torsion_ball_65
    monkeypatch.setattr(st, "TOL_EIG", 1e-9)
    r0 = st.smallest_eigenvalue(u, nlin.constant(1.0))
    ra = st.smallest_eigenvalue(u, nlin.affine(a, 1.0))
    assert abs(ra.lambda1 - (r0.lambda1 - a)) <= 1e-10
    unstable = a > BALL_LAMBDA1
    assert ra.shift == (a if unstable else 0.0)
    assert ra.stable is not unstable
    assert ra.single_signed
    # eigen_report.csv records the shift its lambda1 was measured at.
    header, row = fieldio.stability_csv(ra).splitlines()
    assert float(dict(zip(header.split(","), row.split(",")))["shift"]) == ra.shift


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_unit_ball_lambda1_is_the_squared_bessel_zero(n):
    # Against j_{n/2-1,1}^2; for n >= 5 the weighted operator is not a
    # Z-matrix, and the shift-0 factor still converges.
    exact = ball_lambda1(n)
    if n == 3:
        assert exact == pytest.approx(BALL_LAMBDA1, rel=1e-13)  # j_{1/2,1} = pi
    errors = []
    for nr, nz in ((33, 65), (65, 129)):
        grid = dm.build_grid(dm.MeridianDomain(n, dm.ball(1.0)), nr, nz)
        rep = st.smallest_eigenvalue(sv.Field.zeros(grid, n), nlin.constant(1.0))
        assert rep.stable and rep.shift == 0.0
        errors.append(abs(rep.lambda1 / exact - 1.0))
    print(f"n={n}: lambda1 rel err {errors[0]:.2e} -> {errors[1]:.2e}, "
          f"observed order {np.log2(errors[0] / errors[1]):.2f}")
    assert errors[1] <= 1e-2
    # lambda1 is the operator quotient of a second-order stencil.
    assert np.log2(errors[0] / errors[1]) >= 1.8


def test_torsion_always_stable(spheroid_torsion_129):
    _, grid, u, _, _ = spheroid_torsion_129
    rep = st.smallest_eigenvalue(u, nlin.constant(1.0))
    assert rep.stable
    assert rep.lambda1 > 0


def test_halfdomain_eigenvalue_monotonicity(torsion_ball_65):
    grid, u, _, _ = torsion_ball_65
    full = st.smallest_eigenvalue(u, nlin.constant(1.0))
    half = st.smallest_eigenvalue(u, nlin.constant(1.0),
                                  op=sv.AxisymOperator(grid, 3, active=grid.Z > 0))
    assert half.lambda1 >= full.lambda1 - 1e-6
    # the hemisphere's first eigenvalue is markedly larger
    assert half.lambda1 > 1.5 * full.lambda1


def bump(height, power):
    """height * (1 - r^2)^power: a cap for power 1, a spindle for power 2."""
    return dm.polynomial_bump(height * (np.polynomial.Polynomial([1.0, 0.0, -1.0]) ** power).coef)


@settings(max_examples=25, deadline=None)
@given(profile=hst.one_of(hst.builds(dm.spheroid, hst.floats(0.5, 1.5), hst.floats(0.3, 1.5)),
                          hst.builds(bump, hst.floats(0.4, 1.5), hst.sampled_from([1, 2]))),
       n=hst.sampled_from([3, 4, 5]),
       lam=hst.none() | hst.floats(0.1, 1.0),
       shape=hst.sampled_from([(17, 33), (33, 33), (33, 65)]))
def test_halfdomain_eigenvalue_is_at_least_the_whole_domains(profile, n, lam, shape):
    # Domain monotonicity: removing nodes cannot lower the first Dirichlet
    # eigenvalue, whatever the potential f_u. lam None is f = 1 (f_u = 0).
    grid = dm.build_grid(dm.MeridianDomain(n, profile), *shape)
    nl = nlin.constant(1.0) if lam is None else nlin.gelfand(lam)
    u, rep = sv.newton_solve(grid, n, nl, sv.Field.zeros(grid, n))
    assert rep.converged
    full = st.smallest_eigenvalue(u, nl)
    half_op = sv.AxisymOperator(grid, n, active=grid.Z > 0)
    half = st.smallest_eigenvalue(u, nl, op=half_op)
    assert half.lambda1 >= full.lambda1 - (full.margin + half.margin)
    assert np.all(half.eigenfield.values[~half_op.active] == 0.0)
    assert half.single_signed


def test_stable_means_lambda1_strictly_above_ten_residuals(torsion_ball_65):
    grid, u, _, _ = torsion_ball_65
    rep = st.smallest_eigenvalue(u, nlin.constant(1.0))
    assert rep.stable
    at_margin = dataclasses.replace(rep, residual=rep.lambda1 / 10.0)
    assert at_margin.margin == rep.lambda1
    assert not at_margin.stable
    below = dataclasses.replace(rep, residual=rep.lambda1 / 10.0 * (1.0 - 1e-12))
    assert below.margin < rep.lambda1
    assert below.stable


def test_gelfand_stability(gelfand_ball_65):
    grid, u, _, _ = gelfand_ball_65
    rep = st.smallest_eigenvalue(u, nlin.gelfand(1.0))
    assert rep.stable
    # lambda1(-Lap - e^u) < lambda1(-Lap) strictly
    assert rep.lambda1 < BALL_LAMBDA1 - 0.5


def assert_same_report(a, b):
    assert a.lambda1 == b.lambda1
    assert a.iterations == b.iterations
    assert a.residual == b.residual and a.shift == b.shift
    assert np.array_equal(a.eigenfield.values, b.eigenfield.values)


def test_eigen_solve_reuses_newtons_factor_bitwise(torsion_ball_65, factor_count):
    grid, u, _, _ = torsion_ball_65
    nl = nlin.constant(1.0)
    plain = st.smallest_eigenvalue(u, nl)
    op = sv.AxisymOperator(grid, 3)
    with op.keep_factor():
        start = len(factor_count)
        solved, rep = sv.newton_solve(grid, 3, nl, sv.Field.zeros(grid, 3), op=op)
        assert rep.newton_iterations >= 1 and len(factor_count) == start + 1
        kept = st.smallest_eigenvalue(solved, nl, op=op)
        assert len(factor_count) == start + 1  # torsion: f_u = 0
    assert np.array_equal(solved.values, u.values)
    assert_same_report(kept, plain)


def test_gelfand_eigen_solve_in_keep_factor_makes_a_fresh_factor(gelfand_ball_65, factor_count):
    grid, u, _, _ = gelfand_ball_65
    nl = nlin.gelfand(1.0)
    plain = st.smallest_eigenvalue(u, nl)
    op = sv.AxisymOperator(grid, 3)
    with op.keep_factor():
        solved, rep = sv.newton_solve(grid, 3, nl, sv.Field.zeros(grid, 3), op=op)
        start = len(factor_count)
        kept = st.smallest_eigenvalue(solved, nl, op=op)
        assert len(factor_count) == start + 1  # f_u moved with u
    assert kept.shift == 0.0
    assert_same_report(kept, plain)
