"""Brute-force voxel oracle: the same PDE in full 3-D, no symmetry assumed.

Solves -Lap u = f(x, u) on an N^3 voxel grid over the domain's bounding
box with a 7-point embedded-boundary stencil, then scans for discrete
critical points. The implementation deliberately shares no stencil,
Newton or linear-solver code with the meridian solver: an oracle must be
able to fail independently. Agreement between the two — values, critical
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

Desk scale only: N <= 96, ambient dimension 3.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components

from .domain import MeridianDomain
from .errors import OracleFailureError, OracleMismatchError
from .fieldio import VoxelField, _symmetric_coords
from .nonlinearity import Nonlinearity

_BISECT = 45
# Multigrid hierarchy: coarsen until a level has at most _COARSEST
# unknowns, and smooth the coarsest with _COARSE_SWEEPS l1-Jacobi sweeps.
_COARSEST = 300
_COARSE_SWEEPS = 10
# Rows of a Galerkin product formed at once: bounds its intermediate.
_GALERKIN_ROWS = 4096

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
    finest level first: per level the prolongation P from the next coarser
    level (`_prolongation`) and its transpose, down to at most _COARSEST
    unknowns.
    """

    def __init__(self, d: MeridianDomain, N: int):
        R = d.profile.R
        a0 = d.profile.a0
        xs = _symmetric_coords(R, N)
        ys = _symmetric_coords(R, N)
        zs = _symmetric_coords(a0, N)
        # The profile depends on the radius only: one (y, x) plane of it.
        g = np.asarray(d.profile(np.hypot(ys[:, None], xs[None, :])), float)
        mask = np.abs(zs)[:, None, None] < g
        self.domain = d
        self.N = N
        self.xs, self.ys, self.zs = xs, ys, zs
        self.mask = mask
        self.h = (xs[1] - xs[0], ys[1] - ys[0], zs[1] - zs[0])
        # Built before the stencil, so that the work arrays of the two never
        # coexist: they set the peak memory of the oracle.
        self.transfers = []
        coarse = mask
        while np.count_nonzero(coarse) > _COARSEST:
            P, coarse = _prolongation(coarse)
            self.transfers.append((P, P.T.tocsr()))

        ids, at = _padded_index(mask)
        x_in, y_in, z_in = xs[at[2] - 1], ys[at[1] - 1], zs[at[0] - 1]
        self.r = np.hypot(x_in, y_in)
        self.z = z_in

        def inside_pt(x, y, z):
            return np.abs(z) < np.asarray(d.profile(np.hypot(x, y)), float)

        n_in = z_in.size
        diag = np.zeros(n_in)
        cols, vals = [], []
        for axis, h in ((2, self.h[0]), (1, self.h[1]), (0, self.h[2])):
            nbr, theta = {}, {}
            for sgn in (+1, -1):
                shifted = list(at)
                shifted[axis] = at[axis] + sgn
                nbr[sgn] = ids[tuple(shifted)]
                # Fractional arm length where the neighbour is outside.
                theta[sgn] = np.ones(n_in)
                cut = nbr[sgn] < 0
                if cut.any():
                    dx = np.zeros(3)
                    dx[axis] = sgn * h
                    x0, y0, z0 = x_in[cut], y_in[cut], z_in[cut]
                    lo = np.zeros(x0.size)
                    hi = np.ones(x0.size)
                    for _ in range(_BISECT):
                        mid = 0.5 * (lo + hi)
                        ok = inside_pt(x0 + mid * dx[2], y0 + mid * dx[1], z0 + mid * dx[0])
                        lo = np.where(ok, mid, lo)
                        hi = np.where(ok, hi, mid)
                    theta[sgn][cut] = 0.5 * (lo + hi)
            th_p, th_m = theta[+1], theta[-1]
            diag += -2.0 / (th_p * th_m * h * h)
            cols += [nbr[+1], nbr[-1]]
            vals += [2.0 / (th_p * (th_p + th_m) * h * h),
                     2.0 / (th_m * (th_p + th_m) * h * h)]

        # Rows in the order diagonal, +x, -x, +y, -y, +z, -z: the product
        # then adds the terms in the order of the slicing stencil.
        cols = np.stack([np.arange(n_in, dtype=np.int32)] + cols, axis=1)
        keep = cols >= 0
        indptr = np.zeros(n_in + 1, dtype=np.int32)
        np.cumsum(keep.sum(axis=1), out=indptr[1:])
        self.L = sparse.csr_matrix(
            (np.stack([diag] + vals, axis=1)[keep], cols[keep], indptr), shape=(n_in, n_in))

    def solve_spd(self, c, rhs, tol_rel=1e-10, max_iter=40000):
        """Multigrid-preconditioned CG for (-Lap - c) x = rhs, restart on stall.

        c, rhs and the solution are vectors over the inside voxels (c may
        be a scalar). Each call forms the Galerkin operators of A = -L - c
        on the stored transfers and preconditions with one V-cycle
        (`_v_cycle`). A is not exactly symmetric at cut arms with unequal
        theta, so CG theory does not certify the result: the returned x is
        the one whose true residual rhs - A x passed the recheck at
        1.5 * tol_rel in the max norm. A nonpositive curvature p.Ap or
        preconditioned residual r.z raises OracleFailureError.
        """
        bnorm = float(np.abs(rhs).max(initial=0.0))
        if bnorm == 0.0:
            return np.zeros_like(rhs)
        L = self.L
        # A = -L - diag(c) on L's sparsity pattern: the diagonal is the
        # first entry of every row, so one product per iteration. A shares
        # L's index arrays, so nothing below may canonicalise A (abs(A)
        # and A.sum would sort them in place).
        A = sparse.csr_matrix((-L.data, L.indices, L.indptr), shape=L.shape)
        A.data[L.indptr[:-1]] -= c
        levels = []
        Al = A
        for P, R in self.transfers:
            levels.append((Al, _l1_jacobi(Al), P, R))
            Al = _galerkin(R, Al, P)
        levels.append((Al, _l1_jacobi(Al), None, None))

        def dot(a, b):
            # Not a @ b: BLAS splits that sum by its thread count, which
            # would make the artifacts depend on it. Neither forms a temporary.
            return float(np.einsum("i,i", a, b))

        x = np.zeros_like(rhs)
        r = rhs.copy()
        z = _v_cycle(levels, r)
        p = z.copy()
        rz = dot(r, z)
        best = np.inf
        stall = 0
        for _ in range(max_iter):
            rn = float(np.abs(r).max(initial=0.0))
            if rn <= tol_rel * bnorm:
                r = rhs - A @ x
                if float(np.abs(r).max(initial=0.0)) <= 1.5 * tol_rel * bnorm:
                    return x
                z = _v_cycle(levels, r)
                p = z.copy()
                rz = dot(r, z)
            if rn < 0.999 * best:
                best, stall = rn, 0
            else:
                stall += 1
                if stall >= 60:
                    r = rhs - A @ x
                    z = _v_cycle(levels, r)
                    p = z.copy()
                    rz = dot(r, z)
                    best, stall = float(np.abs(r).max(initial=0.0)), 0
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


def _galerkin(R, A, P):
    """The coarse operator R @ A @ P, formed _GALERKIN_ROWS rows of R at a time.

    Row by row this is the product (R @ A) @ P, but the intermediate
    R @ A, about 80 entries a row for a 7-point A, never exists whole.
    """
    return sparse.vstack([(R[i:i + _GALERKIN_ROWS] @ A) @ P
                          for i in range(0, R.shape[0], _GALERKIN_ROWS)], format="csr")


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


def solve_3d(d: MeridianDomain, nl: Nonlinearity, N: int, tol: float = 1e-8) -> VoxelField:
    """Newton-solve the PDE on the voxel grid (n = 3 only, N <= 96)."""
    if d.n != 3:
        raise ValueError("the voxel oracle is three-dimensional only")
    if N > 96:
        raise ValueError("desk scale only: N <= 96")
    op = _VoxelOperator(d, N)
    r, z = op.r, op.z

    u = np.zeros(r.size)
    resv = op.L @ u + nl.eval(r, z, u)
    res = float(np.abs(resv).max(initial=0.0))
    for _ in range(30):
        if res <= tol:
            break
        delta = op.solve_spd(nl.eval_du(r, z, u), resv, tol_rel=min(1e-10, tol * 1e-2))
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
    if res > tol:
        raise OracleFailureError(f"voxel Newton did not reach tolerance ({res:.3g})")
    values = np.zeros(op.mask.shape)
    values[op.mask] = u
    return VoxelField(N, op.xs, op.ys, op.zs, op.mask, values)


def scan_critical_voxels(v: VoxelField):
    """Clusters of voxels where all three centered differences vanish.

    A voxel is marked when, along every axis, the one-sided differences
    change sign across it or the centered difference is below h^2 (scaled
    by the field magnitude). A one-sided difference within _TIE_REL of that
    scale is a tie and counts as zero, so that a maximum between two voxels
    marks both, whatever the sign of its roundoff. Marks are clustered with
    26-connectivity; returns a list of {centroid, size} dicts with physical
    centroids.
    """
    m = v.mask
    core = m.copy()
    core[1:-1, 1:-1, 1:-1] &= (m[2:, 1:-1, 1:-1] & m[:-2, 1:-1, 1:-1]
                               & m[1:-1, 2:, 1:-1] & m[1:-1, :-2, 1:-1]
                               & m[1:-1, 1:-1, 2:] & m[1:-1, 1:-1, :-2])
    core[[0, -1], :, :] = False
    core[:, [0, -1], :] = False
    core[:, :, [0, -1]] = False

    scale = max(1.0, float(np.abs(v.values[m]).max(initial=0.0)))
    mark = core.copy()
    for axis, h in ((2, v.spacings[0]), (1, v.spacings[1]), (0, v.spacings[2])):
        vp = np.roll(v.values, -1, axis=axis)
        vm = np.roll(v.values, 1, axis=axis)
        dplus = vp - v.values
        dminus = v.values - vm
        dplus[np.abs(dplus) <= _TIE_REL * scale] = 0.0
        dminus[np.abs(dminus) <= _TIE_REL * scale] = 0.0
        centered = (vp - vm) / (2.0 * h)
        crit = (dplus * dminus <= 0.0) | (np.abs(centered) <= h * h * scale)
        mark &= crit

    clusters = []
    for (ck, cj, ci), size in _clusters(mark):
        x = np.interp(ci, np.arange(v.N), v.xs)
        y = np.interp(cj, np.arange(v.N), v.ys)
        z = np.interp(ck, np.arange(v.N), v.zs)
        clusters.append({"centroid": (float(x), float(y), float(z)),
                         "size": int(size)})
    return clusters


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
    w_rot = float(np.abs((v.values - rot)[common]).max(initial=0.0))

    mir = v.values[::-1, :, :]
    mir_mask = v.mask[::-1, :, :]
    common = v.mask & mir_mask
    w_mir = float(np.abs((v.values - mir)[common]).max(initial=0.0))
    return w_rot, w_mir


def compare_with_axisymmetric(v: VoxelField, u) -> tuple:
    """(Linf_rel, cp_offset_cells) between the oracle and the meridian field.

    The meridian solution is interpolated at every inside voxel center;
    the relative maximum discrepancy and the distance (in voxel units)
    between the oracle's critical cluster centroid and the meridian
    census point are returned. A cluster/census count mismatch raises
    OracleMismatchError.
    """
    from .interp import Bicubic
    from .morse import find_critical_points

    g = u.grid
    interp = Bicubic(g.rs, g.zs, np.where(g.inside, u.values, 0.0))
    m = v.mask
    kk, jj, ii = np.nonzero(m)
    u_at = interp.value(np.hypot(v.xs[ii], v.ys[jj]), v.zs[kk])
    vmax = float(np.abs(v.values[m]).max(initial=0.0))
    if vmax == 0.0:
        raise OracleMismatchError("oracle solution is identically zero")
    linf_rel = float(np.abs(u_at - v.values[m]).max() / vmax)

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
