import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays
from scipy import ndimage

from cplab import domain as dm
from cplab import nonlinearity as nlin
from cplab import oracle3d as o3
from cplab.errors import OracleFailureError, OracleMismatchError

from oracles import GELFAND1_U0, torsion_spheroid_exact


@pytest.fixture(scope="module")
def ball_torsion_vox():
    d = dm.MeridianDomain(3, dm.ball(1.0))
    return d, o3.solve_3d(d, nlin.constant(1.0), 32)


def center_value(v):
    k = np.argmin(np.abs(v.zs))
    j = np.argmin(np.abs(v.ys))
    i = np.argmin(np.abs(v.xs))
    return v.values[k, j, i]


def test_torsion_ball_center_value(ball_torsion_vox):
    _, v = ball_torsion_vox
    assert center_value(v) == pytest.approx(1.0 / 6.0, abs=2e-3)


@pytest.mark.parametrize("N", [24, 48])
def test_torsion_is_exact_on_the_spheroid(N):
    # The 7-point stencil on the bisected arms is exact on quadratics.
    d = dm.MeridianDomain(3, dm.spheroid(1.0, 0.5))
    v = o3.solve_3d(d, nlin.constant(1.0), N)
    Z, Y, X = np.meshgrid(v.zs, v.ys, v.xs, indexing="ij")
    exact = torsion_spheroid_exact(1.0, 0.5, 3)(np.hypot(X, Y), Z)
    assert np.abs(v.values - exact)[v.mask].max() <= 1e-11


def test_zero_source_gives_zero_solution():
    d = dm.MeridianDomain(3, dm.ball(1.0))
    v = o3.solve_3d(d, nlin.constant(0.0), 24)
    assert np.abs(v.values).max() == 0.0


def test_gelfand_center_matches_shooting():
    d = dm.MeridianDomain(3, dm.ball(1.0))
    v = o3.solve_3d(d, nlin.gelfand(1.0), 32)
    assert center_value(v) == pytest.approx(GELFAND1_U0, rel=1e-2)


def test_cg_budget_exhausted_is_an_oracle_failure(monkeypatch):
    op = o3._VoxelOperator(dm.MeridianDomain(3, dm.ball(1.0)), 16)
    rhs = np.ones(op.r.size)
    cycles = []
    v_cycle = o3._v_cycle
    monkeypatch.setattr(o3, "_v_cycle", lambda levels, r: cycles.append(1) or v_cycle(levels, r))
    op.solve_spd(0.0, rhs)
    assert len(cycles) > 6  # solvable, but not within 5 iterations
    cycles.clear()
    monkeypatch.setattr(o3, "_CG_MAX_ITER", 5)
    with pytest.raises(OracleFailureError, match="^voxel linear solve did not converge$"):
        op.solve_spd(0.0, rhs)
    assert len(cycles) <= 6


def test_symmetry_witnesses_on_converged_solve(ball_torsion_vox):
    _, v = ball_torsion_vox
    rot, mir = o3.symmetry_witnesses(v)
    vmax = np.abs(v.values[v.mask]).max()
    assert rot <= 5e-3 * vmax
    assert mir <= 5e-3 * vmax


def test_witness_flags_asymmetric_perturbation(ball_torsion_vox):
    _, v = ball_torsion_vox
    vmax = np.abs(v.values[v.mask]).max()
    perturbed = o3.VoxelField(v.N, v.xs, v.ys, v.zs, v.mask, v.values.copy())
    sel = v.mask & (v.xs[None, None, :] > 0.3)
    perturbed.values[sel] += 0.05 * vmax
    rot, mir = o3.symmetry_witnesses(perturbed)
    assert rot > 5e-3 * vmax


def test_scan_single_cluster(ball_torsion_vox):
    _, v = ball_torsion_vox
    clusters = o3.scan_critical_voxels(v)
    assert len(clusters) == 1
    cx, cy, cz = clusters[0]["centroid"]
    assert np.hypot(cx, cy) < 2 * v.spacings[0]
    assert abs(cz) < 2 * v.spacings[2]


def double_bump(v):
    """Two single-voxel peaks on a tilted background.

    The tilt keeps the gradient alive everywhere else, so the scan flips
    in exactly the two peak voxels: a field with exactly two critical
    clusters by construction.
    """
    Z, Y, X = np.meshgrid(v.zs, v.ys, v.xs, indexing="ij")
    vals = 0.3 * X
    k0 = np.argmin(np.abs(v.zs))
    j0 = np.argmin(np.abs(v.ys))
    for x0 in (0.4, -0.4):
        vals[k0, j0, np.argmin(np.abs(v.xs - x0))] += 1.0
    return o3.VoxelField(v.N, v.xs, v.ys, v.zs, v.mask,
                         np.where(v.mask, vals, 0.0))


def test_scan_double_bump_two_clusters(ball_torsion_vox):
    _, v = ball_torsion_vox
    clusters = o3.scan_critical_voxels(double_bump(v))
    assert len(clusters) == 2


def reference_clusters(mark):
    """Reference: 26-connected clusters by scipy.ndimage, as ((k, j, i) centroid, size)."""
    labels, count = ndimage.label(mark, structure=np.ones((3, 3, 3), dtype=int))
    if not count:
        return []
    centroids = ndimage.center_of_mass(mark, labels, range(1, count + 1))
    sizes = ndimage.sum_labels(mark.astype(int), labels, range(1, count + 1))
    return list(zip(centroids, sizes))


def assert_same_clusters(got, ref):
    assert len(got) == len(ref)
    for (c, size), (c_ref, size_ref) in zip(got, ref):
        assert int(size) == int(size_ref)
        assert np.array(c, float).tobytes() == np.array(c_ref, float).tobytes()


@st.composite
def masks_3d(draw):
    """Boolean boxes up to 9^3, mostly one value with scattered flips."""
    shape = draw(array_shapes(min_dims=3, max_dims=3, min_side=1, max_side=9))
    return draw(arrays(bool, shape, elements=st.booleans(), fill=st.just(draw(st.booleans()))))


@settings(max_examples=300, deadline=None)
@given(masks_3d())
@example(np.zeros((4, 5, 6), bool))
@example(np.ones((4, 5, 6), bool))
@example(np.eye(5, dtype=bool)[None].repeat(3, axis=0))
def test_clusters_equal_ndimage_labels(mark):
    """Same cluster order, sizes and centroid bits as ndimage.label / center_of_mass."""
    assert_same_clusters(o3._clusters(mark), reference_clusters(mark))


@pytest.mark.parametrize("field", ["spindle", "double_bump"])
def test_scan_equals_the_ndimage_scan(field, ball_torsion_vox, monkeypatch):
    if field == "spindle":
        d = dm.MeridianDomain(3, dm.polynomial_bump([1, 0, -2, 0, 1]))
        v = o3.solve_3d(d, nlin.constant(1.0), 24)
    else:
        v = double_bump(ball_torsion_vox[1])
    clusters = o3.scan_critical_voxels(v)
    monkeypatch.setattr(o3, "_clusters", reference_clusters)
    assert repr(clusters) == repr(o3.scan_critical_voxels(v))
    assert len(clusters) == (1 if field == "spindle" else 2)


def test_compare_with_meridian(ball_torsion_vox, torsion_ball_65):
    _, v = ball_torsion_vox
    grid, u, _, _ = torsion_ball_65
    linf_rel, offset = o3.compare_with_axisymmetric(v, u)
    assert linf_rel <= 2e-2
    assert offset <= 2.0


def test_compare_mismatch_raises(ball_torsion_vox, torsion_ball_65):
    _, v = ball_torsion_vox
    grid, u, _, _ = torsion_ball_65
    with pytest.raises(OracleMismatchError):
        o3.compare_with_axisymmetric(double_bump(v), u)


def test_interpolation_round_trip(torsion_ball_65):
    """A voxel field sampled from the meridian field matches it to interp error."""
    from cplab.interp import Bicubic
    grid, u, _, _ = torsion_ball_65
    d = dm.MeridianDomain(3, dm.ball(1.0))
    op = o3._VoxelOperator(d, 24)
    interp = Bicubic(grid.rs, grid.zs, np.where(grid.inside, u.values, 0.0))
    Z, Y, X = np.meshgrid(op.zs, op.ys, op.xs, indexing="ij")
    vals = np.where(op.mask, interp.value(np.hypot(X, Y), Z), 0.0)
    v = o3.VoxelField(24, op.xs, op.ys, op.zs, op.mask, vals)
    linf_rel, _ = o3.compare_with_axisymmetric(v, u)
    assert linf_rel <= 1e-10


def test_guards():
    d = dm.MeridianDomain(4, dm.ball(1.0))
    with pytest.raises(ValueError):
        o3.solve_3d(d, nlin.constant(1.0), 24)
    d3 = dm.MeridianDomain(3, dm.ball(1.0))
    with pytest.raises(ValueError):
        o3.solve_3d(d3, nlin.constant(1.0), 128)


def slicing_stencil(d, op):
    """Reference: the 7-point embedded-boundary stencil on the full box.

    Cut arms are bisected on whole-box arrays and the product is formed
    from shifted slices, adding the diagonal, then the +x, -x, +y, -y,
    +z, -z arms. Returns v -> Lap v on (N, N, N) fields, 0 outside.
    """
    mask = op.mask
    Z, Y, X = np.meshgrid(op.zs, op.ys, op.xs, indexing="ij")
    coeff = {}
    diag = np.zeros(mask.shape)
    for axis, h in ((2, op.h[0]), (1, op.h[1]), (0, op.h[2])):
        arms = {}
        for sgn in (+1, -1):
            nbr = np.zeros_like(mask)
            src = [slice(None)] * 3
            dst = [slice(None)] * 3
            dst[axis] = slice(None, -1) if sgn > 0 else slice(1, None)
            src[axis] = slice(1, None) if sgn > 0 else slice(None, -1)
            nbr[tuple(dst)] = mask[tuple(src)]
            theta = np.ones(mask.shape)
            kk, jj, ii = np.nonzero(mask & ~nbr)
            dx = np.zeros(3)
            dx[axis] = sgn * h
            x0, y0, z0 = X[kk, jj, ii], Y[kk, jj, ii], Z[kk, jj, ii]
            lo, hi = np.zeros(kk.size), np.ones(kk.size)
            for _ in range(o3._BISECT):
                mid = 0.5 * (lo + hi)
                x, y, z = x0 + mid * dx[2], y0 + mid * dx[1], z0 + mid * dx[0]
                ok = np.abs(z) < d.profile(np.hypot(x, y))
                lo, hi = np.where(ok, mid, lo), np.where(ok, hi, mid)
            theta[kk, jj, ii] = 0.5 * (lo + hi)
            arms[sgn] = (nbr, theta)
        (nbr_p, th_p), (nbr_m, th_m) = arms[+1], arms[-1]
        diag += -2.0 / (th_p * th_m * h * h)
        coeff[(axis, +1)] = np.where(mask & nbr_p, 2.0 / (th_p * (th_p + th_m) * h * h), 0.0)
        coeff[(axis, -1)] = np.where(mask & nbr_m, 2.0 / (th_m * (th_p + th_m) * h * h), 0.0)

    def lap(v):
        u = np.where(mask, v, 0.0)
        out = diag * u
        out[:, :, :-1] += coeff[(2, +1)][:, :, :-1] * u[:, :, 1:]
        out[:, :, 1:] += coeff[(2, -1)][:, :, 1:] * u[:, :, :-1]
        out[:, :-1, :] += coeff[(1, +1)][:, :-1, :] * u[:, 1:, :]
        out[:, 1:, :] += coeff[(1, -1)][:, 1:, :] * u[:, :-1, :]
        out[:-1, :, :] += coeff[(0, +1)][:-1, :, :] * u[1:, :, :]
        out[1:, :, :] += coeff[(0, -1)][1:, :, :] * u[:-1, :, :]
        return np.where(mask, out, 0.0)

    return lap


STENCIL_DOMAINS = {"ball": dm.ball(1.0), "spheroid": dm.spheroid(1.0, 0.5),
                   "spindle": dm.polynomial_bump([1, 0, -2, 0, 1])}


@pytest.mark.parametrize("name", sorted(STENCIL_DOMAINS))
def test_csr_operator_is_the_slicing_stencil(name):
    d = dm.MeridianDomain(3, STENCIL_DOMAINS[name])
    op = o3._VoxelOperator(d, 24)
    lap = slicing_stencil(d, op)
    rng = np.random.default_rng(24)
    for _ in range(3):
        v = rng.standard_normal(op.mask.shape)
        assert np.array_equal(op.L @ v[op.mask], lap(v)[op.mask])


@pytest.mark.parametrize("name", sorted(STENCIL_DOMAINS))
def test_negated_operator_rows_are_weakly_diagonally_dominant(name):
    op = o3._VoxelOperator(dm.MeridianDomain(3, STENCIL_DOMAINS[name]), 24)
    A = (-op.L).tocoo()
    on = A.row == A.col
    diag = np.zeros(A.shape[0])
    diag[A.row[on]] = A.data[on]
    assert np.count_nonzero(on) == A.shape[0]
    assert np.all(diag > 0.0)
    assert np.all(A.data[~on] <= 0.0)
    off = np.bincount(A.row[~on], weights=-A.data[~on], minlength=A.shape[0])
    # A full row sums to zero exactly; allow its few roundings.
    assert np.all(off <= diag * (1.0 + 8 * np.finfo(float).eps))


def test_indefinite_solve_raises_typed_failure():
    # c = 12 lies above the discrete first eigenvalue (~ pi^2) of the ball.
    op = o3._VoxelOperator(dm.MeridianDomain(3, dm.ball(1.0)), 16)
    with pytest.raises(OracleFailureError):
        op.solve_spd(12.0, np.ones(op.r.size))


@pytest.mark.parametrize("kind", ["scalar", "vector"])
def test_cg_solution_has_its_true_residual(kind):
    # The residual is measured with -(L @ x) - c*x, not with the matrix the
    # CG iterates on, so a fused diagonal with the wrong sign or without c
    # fails here.
    op = o3._VoxelOperator(dm.MeridianDomain(3, STENCIL_DOMAINS["spindle"]), 24)
    rng = np.random.default_rng(24)
    rhs = rng.uniform(0.5, 1.5, op.r.size)
    c = 4.0 if kind == "scalar" else rng.uniform(0.0, 8.0, op.r.size)
    x = op.solve_spd(c, rhs)
    residual = -(op.L @ x) - c * x - rhs
    assert np.abs(residual).max() <= 1.5 * o3._CG_TOL_REL * np.abs(rhs).max()


def test_even_n_maximum_is_the_centred_eight_voxel_cluster(ball_torsion_vox):
    # For even N the maximum lies between the two middle voxels on every
    # axis; their differences are ties, so all eight are marked.
    _, v = ball_torsion_vox
    clusters = o3.scan_critical_voxels(v)
    assert [c["size"] for c in clusters] == [8]
    assert np.abs(clusters[0]["centroid"]).max() <= 1e-12


@pytest.mark.parametrize("size", ["4ulp", "3e-14"])
def test_scan_ignores_roundoff_perturbations(size, ball_torsion_vox):
    # 3e-14 of the maximum is the solve's own roundoff asymmetry (its
    # witnesses); either size may flip the sign of a tied difference.
    _, v = ball_torsion_vox
    rng = np.random.default_rng(4)
    unit = np.spacing(v.values) if size == "4ulp" else 7.5e-15 * np.abs(v.values).max()
    noise = rng.integers(-4, 5, v.values.shape) * unit
    perturbed = o3.VoxelField(v.N, v.xs, v.ys, v.zs, v.mask,
                              np.where(v.mask, v.values + noise, 0.0))
    assert repr(o3.scan_critical_voxels(perturbed)) == repr(o3.scan_critical_voxels(v))


@pytest.mark.parametrize("name", sorted(STENCIL_DOMAINS))
def test_prolongation_is_trilinear(name):
    # Rows sum to exactly 1 and reproduce the index coordinates exactly
    # (the coarse point K sits at fine index 2K), so P reproduces x, y
    # and z at every inside voxel; P.T is the stored restriction.
    op = o3._VoxelOperator(dm.MeridianDomain(3, STENCIL_DOMAINS[name]), 24)
    mask = op.mask
    assert len(op.transfers) >= 1
    for P, R in op.transfers:
        P_ref, coarse = o3._prolongation(mask)
        assert (P != P_ref).nnz == 0 and (R != P.T).nnz == 0
        assert np.all(np.add.reduceat(P.data, P.indptr[:-1]) == 1.0)
        for fine, coarse_at in zip(np.nonzero(mask), np.nonzero(coarse)):
            assert np.array_equal(P @ (2.0 * coarse_at), fine.astype(float))
        mask = coarse
    assert np.count_nonzero(mask) <= o3._COARSEST


V_CYCLE_CASES = [(name, N) for name in ("ball", "spindle") for N in (24, 48, 96)] + [
    ("spheroid", 24), ("spheroid", 48)]


@pytest.mark.parametrize("name,N", V_CYCLE_CASES)
def test_v_cycles_per_solve_do_not_grow_with_n(name, N, monkeypatch):
    op = o3._VoxelOperator(dm.MeridianDomain(3, STENCIL_DOMAINS[name]), N)
    cycles = []
    v_cycle = o3._v_cycle

    def counted(levels, r):
        cycles.append(1)
        return v_cycle(levels, r)

    monkeypatch.setattr(o3, "_v_cycle", counted)
    op.solve_spd(0.0, np.ones(op.r.size))
    assert len(cycles) <= 45


def test_solve_leaves_the_operator_unchanged():
    # The CG matrix shares L's index arrays: nothing in the solve may sort them.
    op = o3._VoxelOperator(dm.MeridianDomain(3, STENCIL_DOMAINS["spindle"]), 24)
    before = [a.copy() for a in (op.L.data, op.L.indices, op.L.indptr)]
    op.solve_spd(np.linspace(0.0, 4.0, op.r.size), np.ones(op.r.size))
    for a, b in zip(before, (op.L.data, op.L.indices, op.L.indptr)):
        assert a.tobytes() == b.tobytes()


def test_blocked_galerkin_is_the_plain_product():
    # At N = 48 the spindle's first coarse level has more than one block of rows.
    op = o3._VoxelOperator(dm.MeridianDomain(3, STENCIL_DOMAINS["spindle"]), 48)
    P, R = op.transfers[0]
    assert R.shape[0] > o3._GALERKIN_ROWS
    A = -op.L
    blocked, plain = o3._galerkin(R, A, P), (R @ A) @ P
    for a, b in zip((blocked.data, blocked.indices, blocked.indptr),
                    (plain.data, plain.indices, plain.indptr)):
        assert np.array_equal(a, b)
