"""Critical point census and Morse classification of meridian fields.

A critical point of the reconstructed n-dimensional field is located in
the meridian half-plane: on the axis only the axial derivative can
vanish nontrivially (the radial one is zero by symmetry), off the axis
both derivatives must vanish and the point represents a whole (n-2)-
sphere of critical points ("ring"), degenerate by rotational symmetry.

Sub-grid location uses Newton iteration on the bicubically interpolated
gradient; Hessians are assembled from grid second differences via the
cylindrical-to-Cartesian chain rule, with the degeneracy threshold
tau_H = C_H * h^2 scaled to the resolution (C_H calibrated so the
torsion-ball eigenvalues sit two orders above it).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import neighbours
from .errors import InternalContradictionError, TooCloseToBoundaryError
from .interp import Bicubic, CubicLine, safe_cells
from .solver import Field, derivative_field

C_HESSIAN = 10.0
TOL_CP = 1e-9  # gradient residual at which a critical point is accepted
MAX_CP_NEWTON = 50


def hessian_threshold(grid) -> float:
    """Resolution-aware zero threshold for Hessian eigenvalues."""
    return C_HESSIAN * grid.h * grid.h


@dataclass
class CriticalPoint:
    r: float
    z: float
    on_axis: bool
    gradient_residual: float
    hessian: np.ndarray
    signature: tuple  # (negative, zero, positive) inertia counts
    type: str         # max | min | saddle | degenerate | ring
    value: float

    @property
    def nondegenerate(self) -> bool:
        return self.signature[1] == 0


@dataclass
class Census:
    points: list
    tau_h: float

    @property
    def unique_axis_max(self) -> bool:
        """The census the theorems predict: one nondegenerate max, on the axis."""
        return bool(len(self.points) == 1 and self.points[0].type == "max"
                    and self.points[0].nondegenerate and self.points[0].on_axis)


def classify(hessian: np.ndarray, tau_h: float):
    """Eigenvalue inertia with zero threshold tau_h.

    All-negative -> max, all-positive -> min, mixed nonzero -> saddle,
    any |eigenvalue| <= tau_h -> degenerate.
    """
    H = 0.5 * (hessian + hessian.T)
    ev = np.linalg.eigvalsh(H)
    neg = int(np.sum(ev < -tau_h))
    pos = int(np.sum(ev > tau_h))
    zero = len(ev) - neg - pos
    if zero > 0:
        kind = "degenerate"
    elif neg == len(ev):
        kind = "max"
    elif pos == len(ev):
        kind = "min"
    else:
        kind = "saddle"
    return kind, (neg, zero, pos)


def _second_difference_arrays(u: Field):
    """u_rr, u_zz, u_rz on the grid; nan where a stencil leg leaves the domain."""
    g = u.grid
    act = g.inside
    v = u.values
    hr, hz = g.hr, g.hz

    urr = np.full_like(v, np.nan)
    uzz = np.full_like(v, np.nan)
    urz = np.full_like(v, np.nan)

    # A leg off the array leaves the domain; the axis column gets its own rule below.
    e, w, n, s = neighbours(act)
    ok_r = act & e & w
    urr[:, 1:-1] = (v[:, 2:] - 2.0 * v[:, 1:-1] + v[:, :-2]) / (hr * hr)
    urr[~ok_r] = np.nan
    # Axis column: even reflection u(-hr, z) = u(hr, z).
    ax_ok = act[:, 0] & e[:, 0]
    urr[ax_ok, 0] = 2.0 * (v[ax_ok, 1] - v[ax_ok, 0]) / (hr * hr)

    ok_z = act & n & s
    uzz[1:-1, :] = (v[2:, :] - 2.0 * v[1:-1, :] + v[:-2, :]) / (hz * hz)
    uzz[~ok_z] = np.nan

    ok_c = np.zeros_like(act)
    ok_c[1:-1, 1:-1] = (act[2:, 2:] & act[2:, :-2] & act[:-2, 2:] & act[:-2, :-2]
                        & act[1:-1, 1:-1])
    urz[1:-1, 1:-1] = (v[2:, 2:] - v[2:, :-2] - v[:-2, 2:] + v[:-2, :-2]) / (4.0 * hr * hz)
    urz[~ok_c] = np.nan
    return urr, uzz, urz


def hessian_at(u: Field, p) -> np.ndarray:
    """Full n x n Cartesian Hessian at the meridian point p = (r, z).

    On the axis (r < hr / 2) the Hessian is diagonal: the first n-1
    entries are u_rr(0, z*) (even-reflection second difference) and the
    last is u_zz(0, z*); mixed terms vanish by symmetry. Off the axis the entries
    come from u_rr, u_rz, u_zz and the angular term u_r / r through the
    cylindrical chain rule. Raises TooCloseToBoundaryError when the
    required stencils touch the boundary (within ~2 cells).
    """
    g = u.grid
    n = u.n
    r0, z0 = float(p[0]), float(p[1])
    urr, uzz, urz = _second_difference_arrays(u)

    if r0 < 0.5 * g.hr:
        col_ok = ~np.isnan(urr[:, 0]) & ~np.isnan(uzz[:, 0])
        jc = int(round((z0 - g.zs[0]) / g.hz))
        if not np.all(col_ok[max(jc - 2, 0):jc + 3]):
            raise TooCloseToBoundaryError("axis Hessian stencil leaves the domain")
        line_rr = CubicLine(g.zs, np.nan_to_num(urr[:, 0]))
        line_zz = CubicLine(g.zs, np.nan_to_num(uzz[:, 0]))
        h_rr = float(line_rr.value(z0))
        h_zz = float(line_zz.value(z0))
        return np.diag([h_rr] * (n - 1) + [h_zz])

    jc = int(round((z0 - g.zs[0]) / g.hz))
    ic = int(round((r0 - g.rs[0]) / g.hr))
    window = np.s_[max(jc - 2, 0):jc + 3, max(ic - 2, 0):ic + 3]
    if (np.any(np.isnan(urr[window])) or np.any(np.isnan(uzz[window]))
            or np.any(np.isnan(urz[window]))):
        raise TooCloseToBoundaryError("Hessian stencil within two cells of the boundary")

    ur = derivative_field(u, "r").values
    h_rr = float(Bicubic(g.rs, g.zs, np.nan_to_num(urr)).value(r0, z0))
    h_zz = float(Bicubic(g.rs, g.zs, np.nan_to_num(uzz)).value(r0, z0))
    h_rz = float(Bicubic(g.rs, g.zs, np.nan_to_num(urz)).value(r0, z0))
    h_ang = float(Bicubic(g.rs, g.zs, ur).value(r0, z0)) / r0

    H = np.zeros((n, n))
    H[0, 0] = h_rr
    H[n - 1, n - 1] = h_zz
    H[0, n - 1] = H[n - 1, 0] = h_rz
    for k in range(1, n - 1):
        H[k, k] = h_ang
    return H


def _axis_zeros(uz: Field):
    """Roots of the axial derivative field uz along the axis column."""
    g = uz.grid
    col_in = g.inside[:, 0]
    uz0 = uz.values[:, 0]
    line = CubicLine(g.zs, uz0)
    roots = []
    jj = np.nonzero(col_in[:-1] & col_in[1:])[0]
    for j in jj:
        a, b = uz0[j], uz0[j + 1]
        if a == 0.0:
            roots.append(g.zs[j])
        elif a * b < 0.0:
            lo, hi = g.zs[j], g.zs[j + 1]
            flo = line.value(lo)
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                fm = line.value(mid)
                if flo * fm <= 0.0:
                    hi = mid
                else:
                    lo, flo = mid, fm
            roots.append(0.5 * (lo + hi))
    if col_in[-1] and uz0[-1] == 0.0:
        roots.append(g.zs[-1])
    return [(0.0, float(z), abs(float(line.value(z)))) for z in roots
            if abs(float(line.value(z))) <= TOL_CP]


def find_critical_points(u: Field) -> Census:
    """Locate and classify all critical points of the field.

    Candidate cells show a sign change of both du/dz and du/dr; each seeds
    a damped Newton iteration on the interpolated gradient. Axis points
    come from the 1-D problem du/dz(0, z) = 0 alone. Points closer than
    two cells are deduplicated.
    """
    g = u.grid
    tau_h = hessian_threshold(g)
    ur = derivative_field(u, "r")
    uz = derivative_field(u, "z")

    cells = safe_cells(g.inside)
    urv, uzv = ur.values, uz.values

    def corners(a):
        return np.stack([a[:-1, :-1], a[:-1, 1:], a[1:, :-1], a[1:, 1:]])

    # Seed only from cells whose corners are interior: derivative values at
    # boundary-adjacent nodes of injected (non-solution) fields are not
    # trustworthy, and boundary critical points are out of scope anyway.
    int_corners = corners(g.interior).all(axis=0)
    cz = corners(uzv)
    cr = corners(urv)
    sign_z = (cz.min(axis=0) <= 0.0) & (cz.max(axis=0) >= 0.0)
    sign_r = (cr.min(axis=0) <= 0.0) & (cr.max(axis=0) >= 0.0)
    cand = cells & int_corners & sign_z & sign_r

    interp_r = Bicubic(g.rs, g.zs, urv)
    interp_z = Bicubic(g.rs, g.zs, uzv)
    r_lo, r_hi = g.rs[1], g.rs[-3]
    z_lo, z_hi = g.zs[1], g.zs[-3]

    found = []
    jj, ii = np.nonzero(cand)
    for j, i in zip(jj, ii):
        r = g.rs[i] + 0.5 * g.hr
        z = g.zs[j] + 0.5 * g.hz
        fr, fz = float(interp_r.value(r, z)), float(interp_z.value(r, z))
        fnorm = np.hypot(fr, fz)
        ok = True
        for _ in range(MAX_CP_NEWTON):
            if fnorm <= TOL_CP:
                break
            arr, arz = interp_r.grad(r, z)
            azr, azz = interp_z.grad(r, z)
            J = np.array([[float(arr), float(arz)], [float(azr), float(azz)]])
            try:
                dr, dz = np.linalg.solve(J, [-fr, -fz])
            except np.linalg.LinAlgError:
                ok = False
                break
            step = 1.0
            improved = False
            for _ in range(10):
                rn = min(max(r + step * dr, r_lo), r_hi)
                zn = min(max(z + step * dz, z_lo), z_hi)
                frn, fzn = float(interp_r.value(rn, zn)), float(interp_z.value(rn, zn))
                fn = np.hypot(frn, fzn)
                if fn < fnorm:
                    r, z, fr, fz, fnorm = rn, zn, frn, fzn, fn
                    improved = True
                    break
                step *= 0.5
            if not improved:
                ok = False
                break
        if not ok or fnorm > TOL_CP:
            continue
        jc, ic = int((z - g.zs[0]) / g.hz), int((r - g.rs[0]) / g.hr)
        if not (0 <= jc < g.nz - 1 and 0 <= ic < g.nr - 1 and cells[jc, ic]):
            continue
        found.append((r, z, fnorm))

    found.extend(_axis_zeros(uz))

    # Deduplicate within two cells; prefer the smaller gradient residual.
    radius = 2.0 * g.h
    found.sort(key=lambda q: q[2])
    kept = []
    for r, z, res in found:
        r = 0.0 if r < 0.5 * g.hr else r
        if any(np.hypot(r - kr, z - kz) < radius for kr, kz, _ in kept):
            continue
        kept.append((r, z, res))

    uval = Bicubic(g.rs, g.zs, u.values)
    points = []
    for r, z, res in kept:
        on_axis = r == 0.0
        try:
            H = hessian_at(u, (r, z))
        except TooCloseToBoundaryError:
            # Boundary critical points are out of scope; a zero of the
            # interpolated gradient hugging the boundary is discarded.
            continue
        kind, sig = classify(H, tau_h)
        if not on_axis:
            kind = "ring"
        points.append(CriticalPoint(r, z, on_axis, res, H, sig, kind,
                                    float(uval.value(r, z))))
    points.sort(key=lambda p: (-p.value, p.r, p.z))

    if not points:
        vals = u.values[g.inside]
        if vals.size and vals.min() >= -1e-14 and vals.max() > 0.0:
            raise InternalContradictionError(
                "no critical point found on a positive field with zero boundary "
                "(an interior maximum must exist)")
    return Census(points, tau_h)
