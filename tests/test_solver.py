import gc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as hst

from cplab import domain as dm
from cplab import nonlinearity as nlin
from cplab import solver as sv
from cplab import stability as st
from cplab.errors import IndefiniteOperatorError

from oracles import (GELFAND1_U0, SlicingStencil, gelfand_radial_shoot, manufactured_problem,
                     torsion_ball_exact, torsion_spheroid_exact)


def test_laplacian_exact_on_quadratic(torsion_ball_65):
    grid, _, _, _ = torsion_ball_65
    u = sv.Field.from_function(grid, 3, lambda R, Z: (1 - R ** 2 - Z ** 2) / 6.0)
    op = sv.AxisymOperator(grid, 3)
    lap = op.L @ u.values[op.nodes]
    # Interior nodes: exact up to rounding. Cut arms are covered by
    # test_torsion_is_exact_on_balls_and_spheroids.
    assert np.abs(lap[grid.interior[op.nodes]] + 1.0).max() < 1e-9


def test_laplacian_trivial_fields(torsion_ball_65):
    grid, _, _, _ = torsion_ball_65
    op = sv.AxisymOperator(grid, 3)
    assert not (op.L @ np.zeros(op.r.size)).any()
    lap = op.L @ op.z
    assert np.abs(lap[grid.interior[op.nodes]]).max() < 1e-9


def test_solve_linear_torsion(torsion_ball_65):
    grid, _, _, _ = torsion_ball_65
    op = sv.AxisymOperator(grid, 3)
    phi = op.field(op.solve(0.0, np.ones(op.r.size)))
    assert phi.values[grid.origin_index] == pytest.approx(1.0 / 6.0, rel=2e-4)


def test_solve_linear_zero_rhs(torsion_ball_65):
    grid, _, _, _ = torsion_ball_65
    op = sv.AxisymOperator(grid, 3)
    phi = op.solve(np.zeros(op.r.size), np.zeros(op.r.size))
    assert phi.shape == (op.r.size,) and not phi.any()


def test_solve_linear_definiteness_threshold(torsion_ball_65):
    grid, _, _, _ = torsion_ball_65
    lam1 = np.pi ** 2
    op = sv.AxisymOperator(grid, 3)
    rhs = np.ones(op.r.size)
    assert np.all(np.isfinite(op.solve(np.full(op.r.size, 0.5 * lam1), rhs)))
    with pytest.raises(IndefiniteOperatorError):
        op.solve(np.full(op.r.size, 2.0 * lam1), rhs)


def test_factor_inertia_brackets_the_first_eigenvalue(torsion_ball_65):
    # The discrete lambda1 of the unit ball is ~pi^2: -Lap - 9 is positive
    # definite, -Lap - 10.5 is not, and the pivots of the factor say so.
    grid, _, _, _ = torsion_ball_65
    op = sv.AxisymOperator(grid, 3)
    rhs = np.ones(op.r.size)
    assert op.solve(np.full(op.r.size, 9.0), rhs).min() > 0.0
    with pytest.raises(IndefiniteOperatorError, match="pivot"):
        op.solve(np.full(op.r.size, 10.5), rhs)
    # The verdict of a factor that reuses the column order of the
    # operator's first factor, here one at c = 0.
    lam = st.smallest_eigenvalue(sv.Field.zeros(grid, 3), nlin.constant(1.0)).lambda1
    ordered = sv.AxisymOperator(grid, 3)
    ordered.factor(np.zeros(ordered.r.size))
    assert ordered._order is not None
    with pytest.raises(IndefiniteOperatorError, match="pivot"):
        ordered.factor(np.full(ordered.r.size, 1.05 * lam))


THRESHOLD_CASES = [(2, 49, 97, None), (3, 65, 129, None), (4, 49, 97, None),
                   (5, 33, 65, None), (6, 33, 65, None), (8, 33, 65, None),
                   (5, 49, 49, 0.5)]


@pytest.mark.parametrize("n, nr, nz, b", THRESHOLD_CASES, ids=[
    f"{n}-{nr}-{nz}" + ("" if b is None else f"-spheroid{b}") for n, nr, nz, b in THRESHOLD_CASES])
def test_definiteness_threshold_is_the_first_eigenvalue(monkeypatch, n, nr, nz, b):
    # The pivots test the operator that is solved: -Lap - c solves right
    # up to its first eigenvalue and raises just past it. For n >= 5 the
    # weighted operator is not a Z-matrix, so no M-matrix theorem backs
    # this there; the first eigenvalue of the true operator W^-1 B (by
    # shift-invert Arnoldi) pins it instead.
    profile = dm.ball(1.0) if b is None else dm.spheroid(1.0, b)
    grid = dm.build_grid(dm.MeridianDomain(n, profile), nr, nz)
    monkeypatch.setattr(st, "TOL_EIG", 1e-10)
    rep = st.smallest_eigenvalue(sv.Field.zeros(grid, n), nlin.constant(1.0))
    assert rep.shift == 0.0
    op = sv.AxisymOperator(grid, n)
    phi = rep.eigenfield.values[op.nodes]
    lam = op.dot(phi, op.apply(phi, 0.0)) / op.dot(phi, phi)
    W_inv = sp.diags(1.0 / op.w)
    arnoldi = spla.eigs((W_inv @ op.B).tocsc(), k=1, sigma=0.0,
                        return_eigenvectors=False)[0]
    assert abs(arnoldi.imag) <= 1e-9 * lam
    assert lam == pytest.approx(arnoldi.real, rel=1e-9)
    rhs = np.ones(op.r.size)
    for c in (lam - 1e-4, lam - 0.05):
        assert op.solve(np.full(op.r.size, c), rhs).min() > 0.0
    with pytest.raises(IndefiniteOperatorError, match="pivot"):
        op.solve(np.full(op.r.size, lam + 1e-4), rhs)


def default_supernode_factor(op, c):
    """splu of ShiftedFactor's matrix under SuperLU's default relax and panel size.

    Returns the factor, or None where ShiftedFactor's definiteness test
    (diagonal pivots, all positive) fails on it.
    """
    A = (op.B - sp.diags(op.w * c)).tocsc()
    lu = spla.splu(A, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                   options=dict(SymmetricMode=True))
    definite = np.array_equal(lu.perm_r, lu.perm_c) and lu.U.diagonal().min() > 0.0
    return lu if definite else None


COLUMN_FACTOR_CASES = {
    "ball-n3": (dm.ball(1.0), 65, 129, 3), "ball-n5": (dm.ball(1.0), 65, 129, 5),
    "ball-n8": (dm.ball(1.0), 65, 129, 8), "spheroid-n3": (dm.spheroid(1.0, 0.5), 97, 97, 3),
    "spindle-n3": (dm.polynomial_bump([1, 0, -2, 0, 1]), 129, 257, 3)}


@pytest.mark.parametrize("profile, nr, nz, n", COLUMN_FACTOR_CASES.values(),
                         ids=COLUMN_FACTOR_CASES.keys())
def test_column_factor_agrees_with_default_supernodes(profile, nr, nz, n):
    # ShiftedFactor factors column by column; SuperLU's default relaxed
    # supernodes and panels must give the same solves, diagonal pivots and
    # definiteness verdict on either side of the first eigenvalue.
    grid = dm.build_grid(dm.MeridianDomain(n, profile), nr, nz)
    op = sv.AxisymOperator(grid, n)
    lam = st.smallest_eigenvalue(sv.Field.zeros(grid, n), nlin.constant(1.0)).lambda1
    rhs = np.random.default_rng(n).standard_normal(op.r.size)
    for c in (0.0, 0.95 * lam):
        factor = sv.ShiftedFactor(op, c)
        assert np.array_equal(factor._lu.perm_r, factor._lu.perm_c)
        ref = default_supernode_factor(op, c)
        assert ref is not None
        x = factor.solve(rhs)
        x_ref = ref.solve(op.w * rhs)
        assert np.abs(x - x_ref).max() <= 1e-12 * np.abs(x_ref).max()
    with pytest.raises(IndefiniteOperatorError):
        sv.ShiftedFactor(op, 1.05 * lam)
    assert default_supernode_factor(op, 1.05 * lam) is None


ORDER_PROFILES = {"ball": dm.ball(1.0), "spheroid": dm.spheroid(1.0, 0.5),
                  "bump": dm.polynomial_bump([1, 0, -2, 0, 1])}


def factor_or_error(op, c):
    """op's factor of c, or the message of the IndefiniteOperatorError it raised."""
    try:
        return op.factor(c)
    except IndefiniteOperatorError as exc:
        return str(exc)


@settings(max_examples=30, deadline=None)
@given(hst.sampled_from(sorted(ORDER_PROFILES)), hst.sampled_from([3, 4, 5]),
       hst.integers(9, 33), hst.floats(0.0, 25.0), hst.integers(0, 2 ** 32 - 1))
def test_a_reordered_factor_is_bitwise_a_fresh_one(kind, n, nr, scale, seed):
    # An operator's second factor reuses the column order of its first; it
    # must solve bit for bit like a fresh operator's first factor of the
    # same c, and raise the same error where that one raises.
    grid = dm.build_grid(dm.MeridianDomain(n, ORDER_PROFILES[kind]), nr, 2 * nr - 1)
    rng = np.random.default_rng(seed)
    op, fresh = sv.AxisymOperator(grid, n), sv.AxisymOperator(grid, n)
    c0, c = rng.uniform(0.0, scale, (2, op.r.size))
    factor_or_error(op, c0)
    assert op._order is not None
    ordered, first = factor_or_error(op, c), factor_or_error(fresh, c)
    if isinstance(first, str):
        assert ordered == first
        return
    assert first._order is None and ordered._order is op._order
    rhs = rng.standard_normal(op.r.size)
    assert_bitwise(ordered.solve(rhs), first.solve(rhs))
    assert_bitwise(ordered._lu.U.diagonal().min(), first._lu.U.diagonal().min())


def test_an_ordered_operator_keeps_each_columns_rows_in_bs_order(torsion_ball_65):
    # After its first factor the operator stores P B P^T: column perm[j] is
    # B's column j, its rows renumbered by perm and kept in B's order, so
    # ascending in node numbering and not in the new one. Later factors
    # leave that layout unsorted, and B in node order comes back exactly.
    grid, _, _, _ = torsion_ball_65
    op = sv.AxisymOperator(grid, 3)
    B = op.B.copy()
    c = np.random.default_rng(0).uniform(0.0, 5.0, op.r.size)
    op.factor(c)
    order, A = op._order, op._B
    cols = np.repeat(np.arange(op.r.size), np.diff(A.indptr))
    same_column = np.diff(cols) == 0
    assert np.all(np.diff(order.inv[A.indices])[same_column] > 0)
    assert np.any(np.diff(A.indices)[same_column] < 0)
    assert np.array_equal(A.indices[op._diag], np.arange(op.r.size))
    indices = A.indices.copy()
    op.factor(c + 1.0)
    assert np.array_equal(op._B.indices, indices)
    assert_bitwise(op.B.data, B.data)
    assert np.array_equal(op.B.indices, B.indices) and np.array_equal(op.B.indptr, B.indptr)


def test_torsion_one_newton_step(torsion_ball_65):
    grid, u, rep, _ = torsion_ball_65
    assert rep.newton_iterations == 1
    assert rep.damping_events == 0
    assert rep.converged
    exact = torsion_ball_exact(1.0, 3)
    Z, R = np.meshgrid(grid.zs, grid.rs, indexing="ij")
    err = np.abs(u.values - np.where(grid.inside, exact(R, Z), 0.0))[grid.inside].max()
    assert err < 5e-4


@pytest.mark.parametrize("n", [5, 6])
def test_torsion_one_newton_step_in_higher_dimensions(n):
    grid = dm.build_grid(dm.MeridianDomain(n, dm.ball(1.0)), 33, 65)
    u, rep = sv.newton_solve(grid, n, nlin.constant(1.0), sv.Field.zeros(grid, n))
    assert rep.converged
    assert rep.newton_iterations == 1
    exact = torsion_ball_exact(1.0, n)
    Z, R = np.meshgrid(grid.zs, grid.rs, indexing="ij")
    assert np.abs(u.values - exact(R, Z))[grid.inside].max() < 5e-4


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
        ref = SlicingStencil(g, 3, g.inside)
        rhs = F(op.r, op.z) + ref.dirichlet_rhs(ustar)[op.nodes]
        x = op.solve(0.0, rhs)
        err = np.abs(x - ustar(op.r, op.z)).max()
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


@pytest.mark.parametrize("nr, nz", [(33, 65), (65, 129)])
@pytest.mark.parametrize("n", [3, 5])
@pytest.mark.parametrize("b", [1.0, 0.5], ids=["ball", "spheroid"])
def test_torsion_is_exact_on_balls_and_spheroids(b, n, nr, nz):
    # The quadratic torsion solution vanishes on the boundary, and the
    # Shortley-Weller stencil on the bisected arms is exact on quadratics.
    prof = dm.ball(1.0) if b == 1.0 else dm.spheroid(1.0, b)
    grid = dm.build_grid(dm.MeridianDomain(n, prof), nr, nz)
    u, rep = sv.newton_solve(grid, n, nlin.constant(1.0), sv.Field.zeros(grid, n))
    assert rep.converged
    Z, R = np.meshgrid(grid.zs, grid.rs, indexing="ij")
    exact = torsion_spheroid_exact(1.0, b, n)(R, Z)
    assert np.abs(u.values - exact)[grid.inside].max() <= 1e-12


@settings(max_examples=40, deadline=None)
@given(hst.floats(0.3, 2.0), hst.floats(0.3, 2.0), hst.integers(17, 97), hst.integers(8, 48))
def test_derivative_field_is_exact_on_the_sampled_quadratic(a, b, nr, half):
    grid = dm.build_grid(dm.MeridianDomain(3, dm.spheroid(a, b)), nr, 2 * half + 1)
    Z, R = np.meshgrid(grid.zs, grid.rs, indexing="ij")
    u = sv.Field(grid, np.where(grid.inside, 1.0 - (R / a) ** 2 - (Z / b) ** 2, 0.0), 3)
    grads = {"r": (-2.0 * R / a ** 2, grid.theta_e, grid.theta_w, grid.hr),
             "z": (-2.0 * Z / b ** 2, grid.theta_n, grid.theta_s, grid.hz)}
    gmax = max(np.abs(g[0][grid.inside]).max() for g in grads.values())
    for direction, (exact, aP, aM, h) in grads.items():
        d = sv.derivative_field(u, direction).values
        # Exact on quadratics, cut arms included. What is left is the
        # 2^-46 h bisection bracket of the cut point and the rounding of
        # the samples, each weighed by at most 3 / (h min(theta)); it only
        # matters at a node within rounding of the boundary.
        slack = 3.0 * (gmax * h * 2.0 ** -46 + 16 * np.finfo(float).eps) / (h * np.minimum(aP, aM))
        err = np.abs(d - exact)[grid.inside]
        assert np.all(err <= 1e-9 * gmax + slack[grid.inside]), (direction, err.max() / gmax)


def test_newton_on_a_restricted_operator_solves_on_its_active_nodes(torsion_ball_65):
    # The half-domain z > 0, with a Dirichlet line on the removed nodes.
    grid, _, _, _ = torsion_ball_65
    op = sv.AxisymOperator(grid, 3, active=grid.Z > 0)
    nl = nlin.gelfand(1.0)
    u, rep = sv.newton_solve(grid, 3, nl, sv.Field.zeros(grid, 3), op=op)
    assert rep.converged and rep.newton_iterations > 1
    assert not u.values[~op.active].any()
    assert u.values[op.nodes].min() > 0.0
    assert np.abs(sv.pde_residual(op, nl, u.values[op.nodes])).max() <= sv.TOL_PDE


def test_newton_rejects_nonfinite_start(torsion_ball_65):
    grid, _, _, _ = torsion_ball_65
    vals = np.zeros(grid.inside.shape)
    vals[grid.origin_index] = np.nan
    bad = sv.Field(grid, vals, 3)
    with pytest.raises(ValueError):
        sv.newton_solve(grid, 3, nlin.constant(1.0), bad)


def test_field_io_shape_contract(torsion_ball_65):
    grid, u, _, _ = torsion_ball_65
    assert u.values.shape == (grid.nz, grid.nr)
    assert u.values[grid.inside].min() > 0.0
    assert u.grid.t == grid.t == 1.0


def test_a_field_zeroes_its_exterior_and_is_read_only(torsion_ball_65):
    grid, _, _, _ = torsion_ball_65
    vals = np.full(grid.inside.shape, 2.0)
    f = sv.Field(grid, vals, 3)
    assert np.all(f.values[~grid.inside] == 0.0)
    assert np.all(f.values[grid.inside] == 2.0)
    assert np.all(vals == 2.0)  # the caller's array is not written
    with pytest.raises(ValueError):
        f.values[grid.origin_index] = 1.0


# -- Factor reuse inside AxisymOperator.keep_factor.


def test_factor_outside_keep_factor_is_fresh(torsion_ball_65):
    grid, _, _, _ = torsion_ball_65
    op = sv.AxisymOperator(grid, 3)
    c = np.zeros(op.r.size)
    assert op.factor(c) is not op.factor(c)
    with op.keep_factor():
        kept = op.factor(c)
    assert op.factor(c) is not kept


def test_kept_factor_is_reused_for_an_equal_system_only(torsion_ball_65):
    grid, _, _, _ = torsion_ball_65
    op = sv.AxisymOperator(grid, 3)
    c = np.zeros(op.r.size)
    with op.keep_factor():
        kept = op.factor(c)
        assert op.factor(c - 0.0) is kept
        shifted = op.factor(c - 1.0)
        assert shifted is not kept
        assert op.factor(c - 1.0) is shifted
        # The shifted factor replaced the first one: c is factored afresh.
        other = op.factor(c)
        assert other is not shifted and other is not kept


def test_keep_factor_frees_the_old_factor_before_it_factors(torsion_ball_65, monkeypatch):
    grid, _, _, _ = torsion_ball_65
    op = sv.AxisymOperator(grid, 3)
    c = np.zeros(op.r.size)
    init = sv.ShiftedFactor.__init__
    made, old_alive = [], []

    def spy(self, *args):
        old_alive.append(any(ref() is not None for ref in made))
        init(self, *args)
        made.append(weakref.ref(self))

    monkeypatch.setattr(sv.ShiftedFactor, "__init__", spy)
    with op.keep_factor():
        op.factor(c)
        op.factor(c)
        op.factor(c - 1.0)
    # Two factorizations, and the first was dead when the second began.
    assert old_alive == [False, False]


def test_dropping_an_operator_frees_its_kept_factor(torsion_ball_65):
    grid, _, _, _ = torsion_ball_65
    c = np.zeros(int(grid.inside.sum()))
    rhs = np.ones_like(c)
    enabled = gc.isenabled()
    gc.disable()
    try:
        op = sv.AxisymOperator(grid, 3)
        keep = op.keep_factor()
        keep.__enter__()
        factor_ref = weakref.ref(op.factor(c))
        # The factor does not hold its operator: it outlives it and still solves.
        held = op.factor(c)
        op_ref = weakref.ref(op)
        del op, keep
        assert op_ref() is None
        x = held.solve(rhs)
        del held
        assert factor_ref() is None
    finally:
        if enabled:
            gc.enable()
    assert np.array_equal(x, sv.AxisymOperator(grid, 3).solve(c, rhs))


def assert_bitwise(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


EQUIVALENCE_GRIDS = [(dm.ball(1.0), 33, 65), (dm.spheroid(1.0, 0.5), 49, 49),
                     (dm.polynomial_bump([1, 0, -2, 0, 1]), 65, 129),
                     (dm.polynomial_bump([1, -2, 1]), 17, 33)]


def test_csr_operator_is_the_slicing_stencil():
    # The one CSR assembly reproduces the nine-array slicing stencil and its
    # COO weighted matrix bit for bit, signs of zeros included: products
    # and the factored matrix, on four domains (a cusp and a kink among
    # them), six dimensions (the n = 4 coupling at r = h is exactly 0) and
    # a full and a half-plane active set.
    for n in (2, 3, 4, 5, 6, 8):
        for profile, nr, nz in EQUIVALENCE_GRIDS:
            grid = dm.build_grid(dm.MeridianDomain(n, profile), nr, nz)
            Z, R = np.meshgrid(grid.zs, grid.rs, indexing="ij")
            for active in (None, Z > 0):
                op = sv.AxisymOperator(grid, n, active=active)
                ref = SlicingStencil(grid, n, op.active)
                rng = np.random.default_rng(100 * n + nr)
                v, c = rng.standard_normal((2,) + grid.inside.shape)
                assert_bitwise(op.L @ v[op.nodes], ref.laplacian(v)[op.nodes])
                assert_bitwise(op.apply(v[op.nodes], c[op.nodes]), ref.apply(v, c)[op.nodes])
                B, B_ref = op.B.tocsc(), ref.weighted_matrix(op.w).tocsc()
                assert_bitwise(B.data, B_ref.data)
                assert np.array_equal(B.indices, B_ref.indices)
                assert np.array_equal(B.indptr, B_ref.indptr)
