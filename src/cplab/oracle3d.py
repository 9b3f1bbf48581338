"""Brute-force voxel oracle: the same PDE in full 3-D, no symmetry assumed.

Solves -Lap u = f(x, u) on an N^3 voxel grid over the domain's bounding
box with a 7-point embedded-boundary stencil, then scans for discrete
critical points. The implementation deliberately shares no stencil,
Newton or linear-solver code with the meridian solver: an oracle must be
able to fail independently. Agreement between the two — values, critical
point count and location, and the symmetry witnesses of the raw voxel
solution — is what backs the meridian results.

Desk scale only: N <= 96, ambient dimension 3.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .domain import MeridianDomain
from .errors import OracleFailureError, OracleMismatchError
from .nonlinearity import Nonlinearity

THETA_MIN_VOX = 0.1
_BISECT = 45

# Verdict of the oracle comparison: relative L-inf gap to the meridian
# field, critical cluster offset in voxel cells, and both symmetry
# witnesses relative to the oracle maximum.
LINF_REL_MAX = 2e-2
CP_OFFSET_CELLS_MAX = 2.0
WITNESS_REL_MAX = 5e-3


@dataclass
class VoxelField:
    """Values on voxel centers of [-R, R]^2 x [-a0, a0]; outside = 0."""

    N: int
    xs: np.ndarray
    ys: np.ndarray
    zs: np.ndarray
    mask: np.ndarray    # inside voxels, shape (N, N, N) ordered [z, y, x]
    values: np.ndarray

    @property
    def spacings(self):
        return (self.xs[1] - self.xs[0], self.ys[1] - self.ys[0],
                self.zs[1] - self.zs[0])


def _symmetric_coords(extent: float, N: int) -> np.ndarray:
    # (i - (N-1)/2) * dx is bitwise antisymmetric under i -> N-1-i.
    dx = 2.0 * extent / (N - 1)
    return (np.arange(N) - (N - 1) / 2.0) * dx


class _VoxelOperator:
    """7-point Laplacian with fractional Dirichlet arms on a voxel mask."""

    def __init__(self, d: MeridianDomain, N: int):
        R = d.profile.R
        a0 = d.profile.a0
        xs = _symmetric_coords(R, N)
        ys = _symmetric_coords(R, N)
        zs = _symmetric_coords(a0, N)
        Z, Y, X = np.meshgrid(zs, ys, xs, indexing="ij")
        rr = np.hypot(X, Y)
        g = np.asarray(d.profile(rr), float)
        mask = np.abs(Z) < g
        self.domain = d
        self.N = N
        self.xs, self.ys, self.zs = xs, ys, zs
        self.X, self.Y, self.Z = X, Y, Z
        self.mask = mask
        self.h = (xs[1] - xs[0], ys[1] - ys[0], zs[1] - zs[0])

        def inside_pt(x, y, z):
            return np.abs(z) < np.asarray(d.profile(np.hypot(x, y)), float)

        # Fractional arm lengths per axis and orientation.
        self.arms = {}
        for axis, h in ((2, self.h[0]), (1, self.h[1]), (0, self.h[2])):
            for sgn in (+1, -1):
                nbr = np.zeros_like(mask)
                src = [slice(None)] * 3
                dst = [slice(None)] * 3
                if sgn > 0:
                    dst[axis] = slice(None, -1)
                    src[axis] = slice(1, None)
                else:
                    dst[axis] = slice(1, None)
                    src[axis] = slice(None, -1)
                nbr[tuple(dst)] = mask[tuple(src)]
                cut = mask & ~nbr
                theta = np.ones_like(mask, dtype=float)
                kk, jj, ii = np.nonzero(cut)
                if kk.size:
                    dx = np.zeros(3)
                    dx[axis] = sgn * h
                    x0, y0, z0 = self.X[kk, jj, ii], self.Y[kk, jj, ii], self.Z[kk, jj, ii]
                    lo = np.zeros(kk.size)
                    hi = np.ones(kk.size)
                    for _ in range(_BISECT):
                        mid = 0.5 * (lo + hi)
                        ok = inside_pt(x0 + mid * dx[2], y0 + mid * dx[1], z0 + mid * dx[0])
                        lo = np.where(ok, mid, lo)
                        hi = np.where(ok, hi, mid)
                    theta[kk, jj, ii] = np.clip(0.5 * (lo + hi), THETA_MIN_VOX, 1.0)
                self.arms[(axis, sgn)] = (nbr, theta)

        # Stencil coefficients for Lap; cut arms carry boundary value 0.
        self.coeff = {}
        diag = np.zeros(mask.shape)
        for axis, h in ((2, self.h[0]), (1, self.h[1]), (0, self.h[2])):
            nbr_p, th_p = self.arms[(axis, +1)]
            nbr_m, th_m = self.arms[(axis, -1)]
            cp = 2.0 / (th_p * (th_p + th_m) * h * h)
            cm = 2.0 / (th_m * (th_p + th_m) * h * h)
            diag += -2.0 / (th_p * th_m * h * h)
            self.coeff[(axis, +1)] = np.where(mask & nbr_p, cp, 0.0)
            self.coeff[(axis, -1)] = np.where(mask & nbr_m, cm, 0.0)
        self.diag = np.where(mask, diag, 0.0)

    def laplacian(self, v):
        u = np.where(self.mask, v, 0.0)
        out = self.diag * u
        out[:, :, :-1] += self.coeff[(2, +1)][:, :, :-1] * u[:, :, 1:]
        out[:, :, 1:] += self.coeff[(2, -1)][:, :, 1:] * u[:, :, :-1]
        out[:, :-1, :] += self.coeff[(1, +1)][:, :-1, :] * u[:, 1:, :]
        out[:, 1:, :] += self.coeff[(1, -1)][:, 1:, :] * u[:, :-1, :]
        out[:-1, :, :] += self.coeff[(0, +1)][:-1, :, :] * u[1:, :, :]
        out[1:, :, :] += self.coeff[(0, -1)][1:, :, :] * u[:-1, :, :]
        return np.where(self.mask, out, 0.0)

    def solve_spd(self, c, rhs, tol_rel=1e-10, max_iter=40000):
        """Jacobi-preconditioned CG for (-Lap - c) x = rhs, restart on stall."""
        m = self.mask
        b = np.where(m, rhs, 0.0)
        bnorm = float(np.abs(b).max(initial=0.0))
        if bnorm == 0.0:
            return np.zeros_like(b)
        denom = np.where(m, -self.diag - c, 1.0)
        dinv = np.where(m, 1.0 / denom, 0.0)

        def A(v):
            return np.where(m, -self.laplacian(v) - c * v, 0.0)

        x = np.zeros_like(b)
        r = b.copy()
        z = dinv * r
        p = z.copy()
        rz = float(np.sum(r * z))
        best = np.inf
        stall = 0
        for _ in range(max_iter):
            rn = float(np.abs(r).max(initial=0.0))
            if rn <= tol_rel * bnorm:
                r = b - A(x)
                if float(np.abs(r).max(initial=0.0)) <= 1.5 * tol_rel * bnorm:
                    return x
                z = dinv * r
                p = z.copy()
                rz = float(np.sum(r * z))
            if rn < 0.999 * best:
                best, stall = rn, 0
            else:
                stall += 1
                if stall >= 60:
                    r = b - A(x)
                    z = dinv * r
                    p = z.copy()
                    rz = float(np.sum(r * z))
                    best, stall = float(np.abs(r).max(initial=0.0)), 0
            Ap = A(p)
            pAp = float(np.sum(p * Ap))
            if pAp <= 0.0:
                raise OracleFailureError("voxel operator is not positive definite")
            alpha = rz / pAp
            x += alpha * p
            r -= alpha * Ap
            z = dinv * r
            rz_new = float(np.sum(r * z))
            beta = rz_new / rz
            rz = rz_new
            p = z + beta * p
        raise OracleFailureError("voxel linear solve did not converge")


def solve_3d(d: MeridianDomain, nl: Nonlinearity, N: int, tol: float = 1e-8) -> VoxelField:
    """Newton-solve the PDE on the voxel grid (n = 3 only, N <= 96)."""
    if d.n != 3:
        raise ValueError("the voxel oracle is three-dimensional only")
    if N > 96:
        raise ValueError("desk scale only: N <= 96")
    op = _VoxelOperator(d, N)
    m = op.mask
    rr = np.hypot(op.X, op.Y)

    u = np.zeros(m.shape)
    resv = np.where(m, op.laplacian(u) + nl.eval(rr, op.Z, u), 0.0)
    res = float(np.abs(resv).max(initial=0.0))
    for _ in range(30):
        if res <= tol:
            break
        c = np.where(m, nl.eval_du(rr, op.Z, u), 0.0)
        delta = op.solve_spd(c, resv, tol_rel=min(1e-10, tol * 1e-2))
        step = 1.0
        accepted = False
        for _ in range(21):
            u_try = u + step * delta
            res_try_v = np.where(m, op.laplacian(u_try) + nl.eval(rr, op.Z, u_try), 0.0)
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
    return VoxelField(N, op.xs, op.ys, op.zs, m, np.where(m, u, 0.0))


def scan_critical_voxels(v: VoxelField):
    """Clusters of voxels where all three centered differences vanish.

    A voxel is marked when, along every axis, the one-sided differences
    change sign across it or the centered difference is below h^2 (scaled
    by the field magnitude). Marks are clustered with 26-connectivity;
    returns a list of {centroid, size} dicts with physical centroids.
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
        centered = (vp - vm) / (2.0 * h)
        crit = (dplus * dminus <= 0.0) | (np.abs(centered) <= h * h * scale)
        mark &= crit

    labels, count = ndimage.label(mark, structure=np.ones((3, 3, 3), dtype=int))
    clusters = []
    if count:
        centroids = ndimage.center_of_mass(mark, labels, range(1, count + 1))
        sizes = ndimage.sum_labels(mark.astype(int), labels, range(1, count + 1))
        for (ck, cj, ci), size in zip(centroids, sizes):
            x = np.interp(ci, np.arange(v.N), v.xs)
            y = np.interp(cj, np.arange(v.N), v.ys)
            z = np.interp(ck, np.arange(v.N), v.zs)
            clusters.append({"centroid": (float(x), float(y), float(z)),
                             "size": int(size)})
    return clusters


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
    Z, Y, X = np.meshgrid(v.zs, v.ys, v.xs, indexing="ij")
    rr = np.hypot(X[m], Y[m])
    u_at = interp.value(rr, Z[m])
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
