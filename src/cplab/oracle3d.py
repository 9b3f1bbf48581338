"""Brute-force voxel oracle: the same PDE in full 3-D, no symmetry assumed.

Solves -Lap u = f(x, u) on an N^3 voxel grid over the domain's bounding
box with a 7-point embedded-boundary stencil, then scans for discrete
critical points. The implementation deliberately shares no stencil,
Newton or linear-solver code with the meridian solver: an oracle must be
able to fail independently. What it shares with the meridian grid is the
definition of the body, from `domain`: the membership rule, the cut-arm
bisection and the box. Agreement between the two — values, critical
point count and location, and the symmetry witnesses of the raw voxel
solution — is what backs the meridian results.

All linear algebra runs on vectors over the inside voxels only: the
stencil is assembled once as a CSR matrix over them, and Newton, its
line search and the CG all work on those compact vectors; the full N^3
box appears only in the returned VoxelField. The CG is preconditioned
with one geometric multigrid V(1,1) cycle: trilinear prolongations from
each level's even-index box, built once with the operator, down to at
most _COARSEST unknowns (224,080 -> 32,148 -> 5,162 -> 1,005 -> 227 for
the N = 96 spindle); Galerkin coarse operators P^T A P formed per solve;
l1-Jacobi smoothing, which needs no damping parameter, and
_COARSE_SWEEPS sweeps of it on the coarsest level. A solve takes 21-34
cycles at every N from 24 to 96 (ball, spheroid, spindle). Sparse
products only: no factorisation and no BLAS, so the oracle stays apart
from the meridian solver's sparse LU on purpose and its result does not
depend on the BLAS thread count.

Memory: each large array is held once, and no step builds a copy of one.
The stencil is written entry by entry into its CSR arrays; a level
stores its prolongation P only and restricts through P.T, a view; a
solve runs the CG on L's own values, turned into A in place and back;
a Galerkin product is written block by block into one result; the
comparison interpolates _COMPARE_POINTS voxels at a time, and the
critical-voxel scan differences views of the interior box. Each result
is bitwise that of the whole-array form. On the N = 96 spindle that cut
the tracemalloc peak of `solve_3d` from 89.3 to 66.1 MiB and that of
`oracle_verdict` from 74.3 to 39.1 MiB, and the peak RSS of
`cplab oracle3d` from 161.6 to 137.7 MB (benchmark medians).

Desk scale only: N <= N_MAX, ambient dimension 3.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components

from .domain import MeridianDomain, bisect
from .errors import OracleFailureError, OracleMismatchError
from .fieldio import VoxelField, _symmetric_coords
from .interp import Bicubic
from .morse import find_critical_points
from .nonlinearity import Nonlinearity

N_MAX = 96  # voxels per axis: desk scale
# Newton stops at this max-norm PDE residual; each CG solve at this
# relative max-norm residual, within _CG_MAX_ITER iterations: over ten
# times the 21-34 V-cycles a solve takes at every N from 24 to 96, so a
# CG that cannot converge fails in seconds.
TOL_NEWTON = 1e-8
_CG_TOL_REL = 1e-10
_CG_MAX_ITER = 400
# Multigrid hierarchy: coarsen until a level has at most _COARSEST
# unknowns, and smooth the coarsest with _COARSE_SWEEPS l1-Jacobi sweeps.
_COARSEST = 300
_COARSE_SWEEPS = 10
# Rows of a Galerkin product formed at once: bounds its intermediate.
_GALERKIN_ROWS = 4096
# Voxels interpolated at once by the meridian comparison.
_COMPARE_POINTS = 16384

# Verdict of the oracle comparison: relative L-inf gap to the meridian
# field, critical cluster offset in voxel cells, and both symmetry
# witnesses relative to the oracle maximum.
LINF_REL_MAX = 2e-2
CP_OFFSET_CELLS_MAX = 2.0
WITNESS_REL_MAX = 5e-3

# Neighbour differences of the critical-voxel scan at most this far from
# zero, relative to its scale max(1, max|u|), are ties: far above the solve's
# roundoff asymmetry (witnesses <= 3e-14) and far below any resolved
# difference near an extremum (u_zz h^2 ~ 1e-4 at N = 96).
_TIE_REL = 1e-12


def _padded_index(mask: np.ndarray):
    """(ids, at) for the True voxels of `mask`, in a box padded by one False layer.

    `ids` holds each True voxel's C-order number and -1 elsewhere, and `at`
    the padded coordinates of the True voxels, so that the number of the
    neighbour at any offset of at most one cell is one lookup.
    """
    ids = np.full(tuple(s + 2 for s in mask.shape), -1, dtype=np.int32)
    at = np.nonzero(mask)
    ids[1:-1, 1:-1, 1:-1][mask] = np.arange(at[0].size, dtype=np.int32)
    return ids, [k + 1 for k in at]


class _VoxelOperator:
    """7-point Laplacian with fractional Dirichlet arms, on the inside voxels.

    `L` is the operator as a CSR matrix over the inside voxels, numbered in
    C order of `mask` (the order of `values[mask]`). Each row holds the
    diagonal, then the +x, -x, +y, -y, +z, -z arms whose neighbour is
    inside; a cut arm carries the boundary value 0 and so only enters the
    diagonal. `r` and `z` are the cylindrical coordinates of the inside
    voxels in the same order. `transfers` holds the multigrid hierarchy,
    finest level first: per level only the prolongation P from the next
    coarser level (`_prolongation`), down to at most _COARSEST unknowns.
    The restriction is P.T, a CSC view of P's arrays: a CSC product adds
    the terms of each entry in the order of the CSR product with a copy,
    so it is bitwise the same.

    `L` keeps the sign of the Laplacian, but during `solve_spd` its values
    are those of A = -L - diag(c): negated in place, the diagonal shifted
    by -c, and put back bit for bit when the solve returns or raises. So
    an operator serves one solve at a time.
    """

    def __init__(self, d: MeridianDomain, N: int):
        rmax, zmax = d.box
        xs = ys = _symmetric_coords(rmax, N)
        zs = _symmetric_coords(zmax, N)
        # The profile depends on the radius only: it is read on one (y, x) plane.
        mask = d.inside(np.hypot(ys[:, None], xs[None, :]), zs[:, None, None])
        # The box holds the body, so no voxel on its faces is inside. The
        # end coordinates can fall an ulp short of the extents, and the
        # profile can peak between the samples of `profile_height`.
        for face in (0, -1):
            mask[face] = mask[:, face] = mask[:, :, face] = False
        self.xs, self.ys, self.zs = xs, ys, zs
        self.mask = mask
        self.h = (xs[1] - xs[0], ys[1] - ys[0], zs[1] - zs[0])
        # Built before the stencil, so that the work arrays of the two never
        # coexist: they set the peak memory of the oracle.
        self.transfers = []
        coarse = mask
        while np.count_nonzero(coarse) > _COARSEST:
            P, coarse = _prolongation(coarse)
            self.transfers.append(P)

        ids, at = _padded_index(mask)
        x_in, y_in, z_in = xs[at[2] - 1], ys[at[1] - 1], zs[at[0] - 1]
        self.r = np.hypot(x_in, y_in)
        self.z = z_in

        # Neighbour numbers of the +x, -x, +y, -y, +z, -z arms (-1 where the
        # neighbour is outside); they fix each row's length before any entry
        # is written.
        nbrs = []
        for axis in (2, 1, 0):
            for sgn in (+1, -1):
                shifted = list(at)
                shifted[axis] = at[axis] + sgn
                nbrs.append(ids[tuple(shifted)])
        del ids, at
        n_in = z_in.size
        count = np.ones(n_in, dtype=np.int32)
        for nbr in nbrs:
            count += nbr >= 0
        indptr = np.zeros(n_in + 1, dtype=np.int32)
        np.cumsum(count, out=indptr[1:])
        indices = np.empty(indptr[-1], dtype=np.int32)
        data = np.empty(indptr[-1])
        # Each row in the order diagonal, +x, -x, +y, -y, +z, -z: the product
        # then adds the terms in the order of the slicing stencil. `slot` is
        # every row's next free entry; the diagonal's value comes last.
        slot = indptr[:-1].copy()
        indices[slot] = np.arange(n_in, dtype=np.int32)
        slot += 1
        diag = np.zeros(n_in)
        for k, (axis, h) in enumerate(((2, self.h[0]), (1, self.h[1]), (0, self.h[2]))):
            theta = []
            for sgn, nbr in ((+1, nbrs[2 * k]), (-1, nbrs[2 * k + 1])):
                # Fractional arm length where the neighbour is outside.
                th = np.ones(n_in)
                cut = nbr < 0
                dx = np.zeros(3)
                dx[axis] = sgn * h
                x0, y0, z0 = x_in[cut], y_in[cut], z_in[cut]
                th[cut] = bisect(lambda s: d.inside(np.hypot(x0 + s * dx[2], y0 + s * dx[1]),
                                                    z0 + s * dx[0]), x0.size)
                theta.append(th)
            th_p, th_m = theta
            diag += -2.0 / (th_p * th_m * h * h)
            for th, nbr in ((th_p, nbrs[2 * k]), (th_m, nbrs[2 * k + 1])):
                rows = np.flatnonzero(nbr >= 0)
                at_slot = slot[rows]
                indices[at_slot] = nbr[rows]
                data[at_slot] = 2.0 / (th[rows] * (th_p[rows] + th_m[rows]) * h * h)
                slot[rows] += 1
        data[indptr[:-1]] = diag
        self.L = sparse.csr_matrix((data, indices, indptr), shape=(n_in, n_in))

    def solve_spd(self, c, rhs):
        """Multigrid-preconditioned CG for (-Lap - c) x = rhs.

        c, rhs and the solution are vectors over the inside voxels (c may
        be a scalar). Each call turns L's values into those of A = -L - c
        in place (see the class), forms the Galerkin operators of A on the
        stored transfers and preconditions with one V-cycle
        (`_v_cycle`). A is not exactly symmetric at cut arms with unequal
        theta, so CG theory does not certify the result: the returned x is
        the one whose true residual rhs - A x passed the recheck at
        1.5 * _CG_TOL_REL in the max norm, relative to rhs; a failed recheck
        restarts CG from x on the true residual. A nonpositive curvature
        p.Ap or preconditioned residual r.z, or no convergence within
        _CG_MAX_ITER iterations, raises OracleFailureError.
        """
        bnorm = float(np.abs(rhs).max(initial=0.0))
        if bnorm == 0.0:
            return np.zeros_like(rhs)
        # A = -L - diag(c) in L's own arrays for the duration of the solve:
        # the values are negated in place and the diagonal, the first entry
        # of every row, is shifted by -c; `finally` negates them back and
        # puts the saved diagonal back bit for bit. Nothing below may
        # canonicalise A (abs(A) and A.sum would sort its arrays in place).
        A = self.L
        first = A.indptr[:-1]
        diag = A.data[first]
        np.negative(A.data, out=A.data)
        try:
            A.data[first] -= c
            levels = []
            Al = A
            for P in self.transfers:
                levels.append((Al, _l1_jacobi(Al), P, P.T))
                Al = _galerkin(P, Al)
            levels.append((Al, _l1_jacobi(Al), None, None))
            return _pcg(A, levels, rhs, bnorm)
        finally:
            np.negative(A.data, out=A.data)
            A.data[first] = diag


def _pcg(A, levels, rhs, bnorm):
    """CG for A x = rhs, preconditioned with one `_v_cycle` on `levels`.

    `bnorm` is max|rhs| > 0; the exit and the failures are those that
    `_VoxelOperator.solve_spd` states.
    """

    def dot(a, b):
        # Not a @ b: BLAS splits that sum by its thread count, which
        # would make the artifacts depend on it. Neither forms a temporary.
        return float(np.einsum("i,i", a, b))

    x = np.zeros_like(rhs)
    r = rhs.copy()
    z = _v_cycle(levels, r)
    p = z.copy()
    rz = dot(r, z)
    for _ in range(_CG_MAX_ITER):
        if float(np.abs(r).max(initial=0.0)) <= _CG_TOL_REL * bnorm:
            r = rhs - A @ x
            if float(np.abs(r).max(initial=0.0)) <= 1.5 * _CG_TOL_REL * bnorm:
                return x
            z = _v_cycle(levels, r)
            p = z.copy()
            rz = dot(r, z)
        if rz <= 0.0:
            raise OracleFailureError(f"nonpositive preconditioned residual r·z = {rz:.3g}")
        Ap = A @ p
        pAp = dot(p, Ap)
        if pAp <= 0.0:
            raise OracleFailureError(f"nonpositive curvature p·Ap = {pAp:.3g}")
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        z = _v_cycle(levels, r)
        rz_new = dot(r, z)
        beta = rz_new / rz
        rz = rz_new
        p *= beta
        p += z
    raise OracleFailureError("voxel linear solve did not converge")


def _prolongation(mask: np.ndarray):
    """(P, coarse mask): trilinear prolongation onto the True voxels of `mask`.

    The coarse box holds the even-index points of `mask`'s box: voxel
    (k, j, i) lies at (k/2, j/2, i/2) in coarse index units, so along
    each axis it takes weight 1 from one coarse point when its index is
    even and 1/2 from each of two when it is odd. A row of P thus has
    2^(odd axes) of the 8 slots, each of weight 1 / their count. The
    coarse mask is the set of coarse points that some True voxel
    touches; rows and columns are numbered in C order of the two masks.
    """
    at = np.nonzero(mask)
    shape = tuple(s // 2 + 1 for s in mask.shape)
    # Slot s = 4 dk + 2 dj + di steps up by (dk, dj, di); a voxel keeps the
    # slots that step up along its odd axes only. The slots it drops may
    # lie beyond the coarse box, so their flat numbers are never used.
    odd = 4 * (at[0] % 2) + 2 * (at[1] % 2) + at[2] % 2
    slots = np.arange(8)
    keep = (slots & odd[:, None]) == slots
    step = (slots >> 2) * (shape[1] * shape[2]) + (slots >> 1 & 1) * shape[2] + (slots & 1)
    base = np.ravel_multi_index(tuple(a // 2 for a in at), shape)
    flat = (base[:, None] + step)[keep]
    count = keep.sum(axis=1)
    coarse = np.zeros(shape, bool)
    coarse.reshape(-1)[flat] = True
    ids = np.cumsum(coarse.ravel(), dtype=np.int32) - 1
    indptr = np.zeros(count.size + 1, dtype=np.int32)
    np.cumsum(count, out=indptr[1:])
    P = sparse.csr_matrix((np.repeat(1.0 / count, count), ids[flat], indptr),
                          shape=(count.size, int(ids[-1]) + 1))
    return P, coarse


def _galerkin(P, A):
    """The coarse operator P.T @ A @ P, formed _GALERKIN_ROWS rows at a time.

    Row by row this is the product (R @ A) @ P with R = P.T as a CSR
    matrix. Each block of R's rows is cut from P's columns, so neither R
    nor the intermediate R @ A (about 80 entries a row for a 7-point A)
    exists whole, and each block is written straight into the one result.
    Its size is bounded before the first block exists: P's column K spans
    the fine indices 2K-1..2K+1 on every axis and a row of A reaches one
    step, so a coarse row couples at most the 27 coarse points within one
    step.
    """
    n = P.shape[1]
    indptr = np.zeros(n + 1, dtype=np.int32)
    indices = np.empty(27 * n, dtype=np.int32)
    data = np.empty(27 * n)
    for i in range(0, n, _GALERKIN_ROWS):
        block = (P[:, i:i + _GALERKIN_ROWS].T.tocsr() @ A) @ P
        start = indptr[i]
        indices[start:start + block.nnz] = block.indices
        data[start:start + block.nnz] = block.data
        indptr[i + 1:i + 1 + block.shape[0]] = start + block.indptr[1:]
    # No view of either array outlives its statement, so both can shrink
    # to the result's size in place.
    indices.resize(indptr[-1], refcheck=False)
    data.resize(indptr[-1], refcheck=False)
    return sparse.csr_matrix((data, indices, indptr), shape=(n, n))


def _l1_jacobi(A) -> np.ndarray:
    """1 / sum_j |a_ij|: the l1-Jacobi inverse diagonal, convergent with no damping.

    Row sums by reduceat over A.data, so that A is not canonicalised
    (every row holds its diagonal, so none is empty).
    """
    return 1.0 / np.add.reduceat(np.abs(A.data), A.indptr[:-1])


def _v_cycle(levels, r):
    """One V(1,1) cycle from zero for A x = r on `levels`, finest first.

    Each level is (A, l1-Jacobi inverse diagonal, P, P.T) with the
    transfers to the next coarser level; the coarsest, whose transfers are
    None, gets _COARSE_SWEEPS l1-Jacobi sweeps. Pre- and post-smoothing
    are the same sweep, so the cycle is a symmetric preconditioner when A
    is symmetric. Sparse products only: no BLAS, no factorisation.
    """
    down = []
    for A, dinv, _, R in levels[:-1]:
        x = dinv * r
        down.append((x, r))
        r = R @ (r - A @ x)
    A, dinv = levels[-1][:2]
    x = dinv * r
    for _ in range(_COARSE_SWEEPS - 1):
        x += dinv * (r - A @ x)
    for (A, dinv, P, _), (xf, rf) in zip(levels[-2::-1], down[::-1]):
        xf += P @ x
        xf += dinv * (rf - A @ xf)
        x = xf
    return x


def solve_3d(d: MeridianDomain, nl: Nonlinearity, N: int) -> VoxelField:
    """Newton-solve the PDE on the voxel grid (n = 3 only, N <= N_MAX).

    Damped Newton from zero until the max-norm residual is at most
    TOL_NEWTON; every linear step is one `solve_spd`.
    """
    if d.n != 3:
        raise ValueError("the voxel oracle is three-dimensional only")
    if N > N_MAX:
        raise ValueError(f"desk scale only: N <= {N_MAX}")
    op = _VoxelOperator(d, N)
    r, z = op.r, op.z

    u = np.zeros(r.size)
    resv = op.L @ u + nl.eval(r, z, u)
    res = float(np.abs(resv).max(initial=0.0))
    for _ in range(30):
        if res <= TOL_NEWTON:
            break
        delta = op.solve_spd(nl.eval_du(r, z, u), resv)
        step = 1.0
        accepted = False
        for _ in range(21):
            u_try = u + step * delta
            res_try_v = op.L @ u_try + nl.eval(r, z, u_try)
            res_try = float(np.abs(res_try_v).max(initial=0.0))
            if np.isfinite(res_try) and res_try < res:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            raise OracleFailureError(f"voxel Newton stalled at residual {res:.3g}")
        u, resv, res = u_try, res_try_v, res_try
    if res > TOL_NEWTON:
        raise OracleFailureError(f"voxel Newton did not reach tolerance ({res:.3g})")
    values = np.zeros(op.mask.shape)
    values[op.mask] = u
    return VoxelField(N, op.xs, op.ys, op.zs, op.mask, values)


def scan_critical_voxels(v: VoxelField):
    """Clusters of voxels where all three centered differences vanish.

    The marked voxels are those of `_critical_marks`. Marks are clustered
    with 26-connectivity; returns a list of {centroid, size} dicts with
    physical centroids.
    """
    clusters = []
    for (ck, cj, ci), size in _clusters(_critical_marks(v)):
        x = np.interp(ci, np.arange(v.N), v.xs)
        y = np.interp(cj, np.arange(v.N), v.ys)
        z = np.interp(ck, np.arange(v.N), v.zs)
        clusters.append({"centroid": (float(x), float(y), float(z)),
                         "size": int(size)})
    return clusters


def _critical_marks(v: VoxelField) -> np.ndarray:
    """The voxels that `scan_critical_voxels` clusters, as an (N, N, N) mask.

    A voxel is marked when it and its six neighbours are inside and, along
    every axis, the one-sided differences change sign across it or the
    centered difference is below h^2 (scaled by the field magnitude). A
    one-sided difference within _TIE_REL of that scale is a tie and counts
    as zero, so that a maximum between two voxels marks both, whatever the
    sign of its roundoff. Only the interior box can hold such a voxel, so
    every difference is taken on interior slices, which are views.
    """
    m = v.mask
    inner = (slice(1, -1),) * 3
    mark = np.zeros_like(m)
    core = mark[inner]
    core[...] = m[inner]
    scale = max(1.0, float(np.abs(v.values[m]).max(initial=0.0)))
    u = v.values[inner]
    for axis, h in ((2, v.spacings[0]), (1, v.spacings[1]), (0, v.spacings[2])):
        up, down = list(inner), list(inner)
        up[axis], down[axis] = slice(2, None), slice(None, -2)
        core &= m[tuple(up)]
        core &= m[tuple(down)]
        vp, vm = v.values[tuple(up)], v.values[tuple(down)]
        dplus = vp - u
        dminus = u - vm
        dplus[np.abs(dplus) <= _TIE_REL * scale] = 0.0
        dminus[np.abs(dminus) <= _TIE_REL * scale] = 0.0
        centered = (vp - vm) / (2.0 * h)
        core &= (dplus * dminus <= 0.0) | (np.abs(centered) <= h * h * scale)
    return mark


# The 13 of the 26 neighbour offsets that follow a voxel in C order; each
# 26-connected pair of voxels is one such offset apart, in one direction.
_FORWARD = [(dk, dj, di) for dk in (-1, 0, 1) for dj in (-1, 0, 1) for di in (-1, 0, 1)
            if (dk, dj, di) > (0, 0, 0)]


def _clusters(mark: np.ndarray) -> list:
    """26-connected clusters of `mark` as ((k, j, i) centroid, size) pairs.

    Clusters are ordered by their first voxel in C order, as
    `scipy.ndimage.label` numbers them, and each centroid coordinate is
    the C-order sum of its voxels' indices over their count, as
    `scipy.ndimage.center_of_mass` computes it.
    """
    ids, at = _padded_index(mark)
    n = at[0].size
    if n == 0:
        return []
    src, dst = [], []
    for off in _FORWARD:
        nbr = ids[tuple(a + o for a, o in zip(at, off))]
        linked = nbr >= 0
        src.append(np.nonzero(linked)[0])
        dst.append(nbr[linked])
    src, dst = np.concatenate(src), np.concatenate(dst)
    graph = sparse.coo_matrix((np.ones(src.size), (src, dst)), shape=(n, n))
    # Labels follow each component's smallest node, i.e. its first voxel.
    count, labels = connected_components(graph, directed=False)
    sizes = np.bincount(labels, minlength=count)
    centroids = np.stack([np.bincount(labels, weights=a - 1.0, minlength=count) / sizes
                          for a in at], axis=1)
    return list(zip(map(tuple, centroids), sizes))


def symmetry_witnesses(v: VoxelField):
    """(quarter-turn, mirror) discrepancies of the raw voxel solution.

    Rotational symmetry about the axis and evenness in z are theorem
    conclusions; the voxel solve never assumes them, so these witnesses
    measure how well the unconstrained solution recovers them.
    """
    rot = np.rot90(v.values, 1, axes=(1, 2))
    rot_mask = np.rot90(v.mask, 1, axes=(1, 2))
    common = v.mask & rot_mask
    w_rot = float(np.abs(v.values[common] - rot[common]).max(initial=0.0))

    mir = v.values[::-1, :, :]
    mir_mask = v.mask[::-1, :, :]
    common = v.mask & mir_mask
    w_mir = float(np.abs(v.values[common] - mir[common]).max(initial=0.0))
    return w_rot, w_mir


def compare_with_axisymmetric(v: VoxelField, u) -> tuple:
    """(Linf_rel, cp_offset_cells) between the oracle and the meridian field.

    The meridian solution is interpolated at every inside voxel center;
    the relative maximum discrepancy and the distance (in voxel units)
    between the oracle's critical cluster centroid and the meridian
    census point are returned. A cluster/census count mismatch raises
    OracleMismatchError.
    """
    g = u.grid
    interp = Bicubic(g.rs, g.zs, u.values)
    inside = np.flatnonzero(v.mask)
    vals = v.values[v.mask]
    vmax = float(np.abs(vals).max(initial=0.0))
    if vmax == 0.0:
        raise OracleMismatchError("oracle solution is identically zero")
    # _COMPARE_POINTS voxels at a time: each goes through the same
    # interpolation as in one batch, and a maximum does not depend on the
    # grouping, but the (points, 4, 4) patches never exist whole.
    gap = np.float64(-np.inf)
    for i in range(0, inside.size, _COMPARE_POINTS):
        kk, jj, ii = np.unravel_index(inside[i:i + _COMPARE_POINTS], v.mask.shape)
        u_at = interp.value(np.hypot(v.xs[ii], v.ys[jj]), v.zs[kk])
        gap = np.maximum(gap, np.abs(u_at - vals[i:i + _COMPARE_POINTS]).max())
    linf_rel = float(gap / vmax)

    clusters = scan_critical_voxels(v)
    census = find_critical_points(u)
    if len(clusters) != len(census.points):
        raise OracleMismatchError(
            f"oracle found {len(clusters)} critical clusters, meridian census "
            f"has {len(census.points)} points")

    offset = 0.0
    hx, hy, hz = v.spacings
    for cl in clusters:
        cx, cy, cz = cl["centroid"]
        best = np.inf
        for p in census.points:
            if p.on_axis:
                d = np.sqrt((cx / hx) ** 2 + (cy / hy) ** 2 + ((cz - p.z) / hz) ** 2)
            else:
                d = np.sqrt(((np.hypot(cx, cy) - p.r) / max(hx, hy)) ** 2
                            + ((cz - p.z) / hz) ** 2)
            best = min(best, float(d))
        offset = max(offset, best)
    return linf_rel, offset


def oracle_verdict(v: VoxelField, u) -> tuple[dict, bool]:
    """Compare the oracle with the meridian field u: (comparison row, agreement)."""
    linf_rel, offset = compare_with_axisymmetric(v, u)
    rot, mir = symmetry_witnesses(v)
    vmax = float(np.abs(v.values[v.mask]).max())
    row = {"linf_rel": linf_rel, "cp_offset_cells": offset,
           "rotation_witness": rot, "mirror_witness": mir, "max_value": vmax}
    agrees = (linf_rel <= LINF_REL_MAX and offset <= CP_OFFSET_CELLS_MAX
              and rot <= WITNESS_REL_MAX * vmax and mir <= WITNESS_REL_MAX * vmax)
    return row, agrees
