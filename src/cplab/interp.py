"""Local bicubic (Catmull-Rom) interpolation on uniform grids.

C^1 tensor-product interpolant from 4x4 node neighborhoods; reproduces
quadratics exactly, values O(h^3), gradients O(h^2). Evaluation clamps
the cell index at grid edges (mild extrapolation), so callers that need
trustworthy values pass a safety mask built from the inside classification.
"""

from __future__ import annotations

import numpy as np


def _weights(s):
    s2 = s * s
    s3 = s2 * s
    return np.stack([
        0.5 * (-s3 + 2.0 * s2 - s),
        0.5 * (3.0 * s3 - 5.0 * s2 + 2.0),
        0.5 * (-3.0 * s3 + 4.0 * s2 + s),
        0.5 * (s3 - s2)], axis=-1)


def _dweights(s):
    s2 = s * s
    return np.stack([
        0.5 * (-3.0 * s2 + 4.0 * s - 1.0),
        0.5 * (9.0 * s2 - 10.0 * s),
        0.5 * (-9.0 * s2 + 8.0 * s + 1.0),
        0.5 * (3.0 * s2 - 2.0 * s)], axis=-1)


class Bicubic:
    """Catmull-Rom interpolant of F[j, i] sampled at (zs[j], rs[i])."""

    def __init__(self, rs, zs, F):
        self.rs = np.asarray(rs, float)
        self.zs = np.asarray(zs, float)
        self.F = np.asarray(F, float)
        self.hr = self.rs[1] - self.rs[0]
        self.hz = self.zs[1] - self.zs[0]

    def _locate(self, r, z):
        r = np.asarray(r, float)
        z = np.asarray(z, float)
        ic = np.clip(np.floor((r - self.rs[0]) / self.hr).astype(int), 1, len(self.rs) - 3)
        jc = np.clip(np.floor((z - self.zs[0]) / self.hz).astype(int), 1, len(self.zs) - 3)
        sr = (r - self.rs[ic]) / self.hr
        sz = (z - self.zs[jc]) / self.hz
        return ic, jc, sr, sz

    def _stencil(self, ic, jc):
        # (..., 4, 4) neighborhoods: rows vary in z, columns in r.
        joff = jc[..., None, None] + np.arange(-1, 3)[:, None]
        ioff = ic[..., None, None] + np.arange(-1, 3)[None, :]
        return self.F[joff, ioff]

    def value(self, r, z):
        ic, jc, sr, sz = self._locate(r, z)
        patch = self._stencil(ic, jc)
        wr = _weights(sr)
        wz = _weights(sz)
        return np.einsum("...jk,...j,...k->...", patch, wz, wr)

    def grad(self, r, z):
        """Returns (d/dr, d/dz) of the interpolant."""
        ic, jc, sr, sz = self._locate(r, z)
        patch = self._stencil(ic, jc)
        wr, dwr = _weights(sr), _dweights(sr)
        wz, dwz = _weights(sz), _dweights(sz)
        dr = np.einsum("...jk,...j,...k->...", patch, wz, dwr) / self.hr
        dz = np.einsum("...jk,...j,...k->...", patch, dwz, wr) / self.hz
        return dr, dz


class CubicLine:
    """1-D Catmull-Rom interpolant along a uniform coordinate line."""

    def __init__(self, xs, vals):
        self.xs = np.asarray(xs, float)
        self.vals = np.asarray(vals, float)
        self.h = self.xs[1] - self.xs[0]

    def _locate(self, x):
        x = np.asarray(x, float)
        k = np.clip(np.floor((x - self.xs[0]) / self.h).astype(int), 1, len(self.xs) - 3)
        s = (x - self.xs[k]) / self.h
        return k, s

    def value(self, x):
        k, s = self._locate(x)
        patch = self.vals[k[..., None] + np.arange(-1, 3)]
        return np.einsum("...j,...j->...", patch, _weights(s))


def safe_cells(inside: np.ndarray) -> np.ndarray:
    """Cells whose full 4x4 interpolation footprint lies inside the domain.

    Returns a (nz-1, nr-1) boolean array indexed by the cell's lower-left
    node. Queries restricted to safe cells never read exterior values.
    """
    nz, nr = inside.shape
    padded = np.zeros((nz + 2, nr + 2), bool)
    padded[1:-1, 1:-1] = inside
    ok = np.ones((nz - 1, nr - 1), bool)
    for dj in range(4):
        for di in range(4):
            ok &= padded[dj:dj + nz - 1, di:di + nr - 1]
    return ok


def cell_index(rs, zs, r, z):
    """Containing-cell index of query points, clipped to the grid."""
    hr = rs[1] - rs[0]
    hz = zs[1] - zs[0]
    ic = np.clip(np.floor((np.asarray(r, float) - rs[0]) / hr).astype(int), 0, len(rs) - 2)
    jc = np.clip(np.floor((np.asarray(z, float) - zs[0]) / hz).astype(int), 0, len(zs) - 2)
    return jc, ic
