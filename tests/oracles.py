"""Independent oracles shared by the tests.

These deliberately avoid the package's discretization machinery: the
radial shooting oracle integrates the reduced ODE with an adaptive
integrator, and the exact solutions are closed-form. Frozen reference
values were computed with these same routines; the tests re-derive them
so a regression in the oracle itself is caught. `SlicingStencil` writes
the Shortley-Weller stencil out again on grid arrays (it takes only the
full-arm masks from `domain`) and carries the cut-arm Dirichlet data of
the manufactured-solution tests; `taylor_fit` is a least-squares check of
a critical point that shares nothing with the census.
"""

import numpy as np
import scipy.sparse as sp
from scipy.integrate import solve_ivp
from scipy.optimize import brentq
from scipy.special import jv

from cplab import domain as dm

# Frozen outputs of gelfand_radial_shoot(1.0) (minimal branch, unit ball, n=3).
GELFAND1_U0 = 0.19026604075919906
GELFAND1_URR0 = -0.4031904500453374


def gelfand_radial_shoot(lam: float, n: int = 3, alpha_hi: float = 2.0):
    """Minimal-branch center value and axial curvature for the unit ball.

    Solves u'' + ((n-1)/r) u' + lam e^u = 0, u'(0) = 0, by shooting on the
    center value alpha and bisecting the boundary mismatch u(1; alpha); the
    minimal stable branch is the smallest root. Returns (u(0), u_rr(0)),
    with u_rr(0) = -lam * e^(u(0)) / n from the ODE at the origin.
    """
    eps = 1e-8

    def boundary_value(alpha):
        u0 = alpha - lam * np.exp(alpha) * eps ** 2 / (2 * n)
        up0 = -lam * np.exp(alpha) * eps / n

        def rhs(r, y):
            u, up = y
            return [up, -(n - 1) / r * up - lam * np.exp(u)]

        sol = solve_ivp(rhs, (eps, 1.0), [u0, up0], rtol=1e-12, atol=1e-14)
        return sol.y[0][-1]

    alpha = brentq(boundary_value, 0.0, alpha_hi, xtol=1e-13)
    return alpha, -lam * np.exp(alpha) / n


def ball_lambda1(n: int, a: float = 1.0) -> float:
    """First Dirichlet eigenvalue of -Lap on the ball of radius a in R^n.

    (j_{n/2-1,1} / a)^2 (Courant & Hilbert, vol. 1, ch. V). The first zero
    of J_nu lies past nu; it is bracketed by the first sign change on a
    0.05 grid and refined with brentq.
    """
    nu = n / 2.0 - 1.0
    xs = np.arange(nu + 0.05, nu + 10.0, 0.05)
    vals = jv(nu, xs)
    i = int(np.nonzero(np.sign(vals[1:]) != np.sign(vals[:-1]))[0][0])
    return (brentq(lambda x: jv(nu, x), xs[i], xs[i + 1], xtol=1e-14) / a) ** 2


def torsion_ball_exact(a: float, n: int):
    """u(r, z) = (a^2 - r^2 - z^2) / (2n) solves -Lap u = 1 on the ball."""
    return lambda r, z: (a * a - r * r - z * z) / (2.0 * n)


def torsion_spheroid_exact(a: float, b: float, n: int):
    """Quadratic torsion solution on the spheroid r^2/a^2 + z^2/b^2 < 1."""
    c = 1.0 / (2.0 * (n - 1) / (a * a) + 2.0 / (b * b))
    return lambda r, z: c * (1.0 - (r / a) ** 2 - (z / b) ** 2)


def manufactured_problem(n: int, g0: float = 1.0, R: float = 1.0):
    """The calibration solution u* = cos(pi z / (2 g0)) (1 - (r/R)^2).

    Returns (u*, F, dF/dr, dF/dz) with F = -Lap u*.
    """
    w = np.pi / (2.0 * g0)

    def ustar(r, z):
        return np.cos(w * z) * (1.0 - (r / R) ** 2)

    def F(r, z):
        return 2.0 * (n - 1) * np.cos(w * z) / (R * R) + w * w * ustar(r, z)

    def Fr(r, z):
        return -w * w * np.cos(w * z) * 2.0 * r / (R * R)

    def Fz(r, z):
        return -w * np.sin(w * z) * (2.0 * (n - 1) / (R * R) + w * w * (1.0 - (r / R) ** 2))

    return ustar, F, Fr, Fz


BALL_LAMBDA1 = np.pi ** 2  # first Dirichlet eigenvalue of -Lap on the unit ball, n = 3


class SlicingStencil:
    """Reference: the stencil as nine grid arrays, applied by slicing, assembled through COO.

    The coefficients are the Shortley-Weller expressions written out
    again, independently of `AxisymOperator`; couplings toward a node
    that is not active are zeroed and the raw cut-arm coefficients kept.
    """

    def __init__(self, grid, n, active):
        hr, hz = grid.hr, grid.hz
        act = active
        aE, aW, aN, aS = grid.theta_e, grid.theta_w, grid.theta_n, grid.theta_s
        fullE, fullW, fullN, fullS = dm.full_arms(act)
        R = np.broadcast_to(grid.rs[None, :], act.shape)
        with np.errstate(divide="ignore", invalid="ignore"):
            mu = np.where(R > 0, (n - 2) / np.where(R > 0, R, 1.0), 0.0)
        cE = 2.0 / (aE * (aE + aW) * hr * hr) + mu * aW / (aE * (aE + aW) * hr)
        cW = 2.0 / (aW * (aE + aW) * hr * hr) - mu * aE / (aW * (aE + aW) * hr)
        cPr = -2.0 / (aE * aW * hr * hr) + mu * (aE - aW) / (aE * aW * hr)
        axis = np.zeros_like(act); axis[:, 0] = True
        cE = np.where(axis, 2.0 * (n - 1) / (aE * aE * hr * hr), cE)
        cW = np.where(axis, 0.0, cW)
        cPr = np.where(axis, -2.0 * (n - 1) / (aE * aE * hr * hr), cPr)
        cN = 2.0 / (aN * (aN + aS) * hz * hz)
        cS = 2.0 / (aS * (aN + aS) * hz * hz)
        cPz = -2.0 / (aN * aS * hz * hz)
        self.grid, self.active = grid, act
        self.cut = [np.where(act & ~f, c, 0.0)
                    for c, f in ((cE, fullE), (cW, fullW), (cN, fullN), (cS, fullS))]
        self.cE, self.cW, self.cN, self.cS = [np.where(act & f, c, 0.0) for c, f in (
            (cE, fullE), (cW, fullW), (cN, fullN), (cS, fullS))]
        self.cP = np.where(act, cPr + cPz, 0.0)
        self.arm = (aE, aW, aN, aS)

    def laplacian(self, values):
        u = np.where(self.active, values, 0.0)
        out = self.cP * u
        out[:, :-1] += self.cE[:, :-1] * u[:, 1:]
        out[:, 1:] += self.cW[:, 1:] * u[:, :-1]
        out[:-1, :] += self.cN[:-1, :] * u[1:, :]
        out[1:, :] += self.cS[1:, :] * u[:-1, :]
        return np.where(self.active, out, 0.0)

    def apply(self, values, c):
        return np.where(self.active, -self.laplacian(values) - c * values, 0.0)

    def weighted_matrix(self, wn):
        """The weighted matrix for the weight `wn` over the active nodes in C order."""
        nun = int(np.count_nonzero(self.active))
        idx = -np.ones(self.active.shape, dtype=np.int64)
        idx[self.active] = np.arange(nun)
        jj, ii = np.nonzero(self.active)
        rows, cols, data = [idx[jj, ii]], [idx[jj, ii]], [-self.cP[jj, ii] * wn]
        for coeff, dj, di in ((self.cE, 0, 1), (self.cW, 0, -1), (self.cN, 1, 0), (self.cS, -1, 0)):
            cvals = coeff[jj, ii]
            sel = cvals != 0.0
            rows.append(idx[jj[sel], ii[sel]])
            cols.append(idx[jj[sel] + dj, ii[sel] + di])
            data.append(-cvals[sel] * wn[sel])
        return sp.csr_matrix((np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
                             shape=(nun, nun))

    def dirichlet_rhs(self, gfun):
        g = self.grid
        Z, R = np.meshgrid(g.zs, g.rs, indexing="ij")
        out = np.zeros_like(self.cP)
        for cut, arm, dr, dz in zip(self.cut, self.arm, (g.hr, -g.hr, 0.0, 0.0),
                                    (0.0, 0.0, g.hz, -g.hz)):
            jj, ii = np.nonzero(cut != 0.0)
            th = arm[jj, ii]
            out[jj, ii] += cut[jj, ii] * np.asarray(gfun(R[jj, ii] + th * dr, Z[jj, ii] + th * dz))
        return out


def taylor_fit(u, center) -> dict:
    """Least-squares quadratic fit of u around a point of the meridian plane.

    Fits u = M + a1*r + a2*dz + c1*r^2 + x*r*dz + c2*dz^2 on inside nodes
    within 4h of the center, h = max(hr, hz). For the solutions under
    study the linear and cross coefficients vanish up to discretization
    and c1, c2 are strictly negative.
    """
    g = u.grid
    r0, z0 = float(center[0]), float(center[1])
    radius = 4.0 * max(g.hr, g.hz)
    Z, R = np.meshgrid(g.zs, g.rs, indexing="ij")
    sel = g.inside & (np.hypot(R - r0, Z - z0) <= radius)
    rr = (R[sel] - r0)
    zz = (Z[sel] - z0)
    A = np.column_stack([np.ones_like(rr), rr, zz, rr * rr, rr * zz, zz * zz])
    b = u.values[sel]
    coef, res, *_ = np.linalg.lstsq(A, b, rcond=None)
    fit = A @ coef
    return {
        "M": float(coef[0]), "lin_r": float(coef[1]), "lin_z": float(coef[2]),
        "c1": float(coef[3]), "cross": float(coef[4]), "c2": float(coef[5]),
        "rms": float(np.sqrt(np.mean((fit - b) ** 2))),
        "samples": int(sel.sum()),
    }
