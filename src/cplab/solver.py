"""Meridian solver for -Lap(u) = f(x, u) with zero Dirichlet data.

The axisymmetric reduction of the n-dimensional Laplacian acting on
u(r, z) is

    Lap u = u_rr + (n-2)/r * u_r + u_zz,

with the regularized form Lap u = (n-1)*u_rr + u_zz on the axis r = 0
(even reflection). Stencils are centered second differences with the
Shortley-Weller modification on arms that cross the curved boundary:
a cut arm of length theta*h carries the homogeneous boundary value at
the cut point.

The discrete operator is self-adjoint under the axisymmetric volume
weight w = r^(n-2) (exactly so in the bulk for n = 2 and n = 3; cut
arms perturb symmetry locally). Linear systems are solved by
Jacobi-preconditioned conjugate gradients on the exactly symmetric part
of the weighted operator, inside a defect-correction loop that drives
the residual of the true Shortley-Weller stencil to tolerance. Loss of
positive definiteness (p^T A p <= 0, or running out of iterations)
raises IndefiniteOperatorError — the numerical signature of an unstable
linearization.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .domain import MeridianGrid
from .errors import IndefiniteOperatorError
from .nonlinearity import Nonlinearity

logger = logging.getLogger(__name__)

TOL_PDE_DEFAULT = 1e-9     # discrete L-inf residual of the PDE
TOL_LIN_DEFAULT = 1e-11    # relative residual of inner linear solves
MAX_NEWTON_DEFAULT = 30
MAX_LIN_ITER_DEFAULT = 20000  # CG iterations shared by one solve's sweeps


@dataclass
class Field:
    """Scalar samples on a meridian grid; exterior nodes hold 0.

    The zero Dirichlet trace is built into the stencils, so `values` only
    carry information at inside nodes. `n` is the ambient dimension of the
    problem the field belongs to.
    """

    grid: MeridianGrid
    values: np.ndarray
    n: int

    @classmethod
    def zeros(cls, grid: MeridianGrid, n: int) -> "Field":
        return cls(grid, np.zeros((grid.nz, grid.nr)), n)

    @classmethod
    def from_function(cls, grid: MeridianGrid, n: int, fn) -> "Field":
        Z, R = np.meshgrid(grid.zs, grid.rs, indexing="ij")
        vals = np.where(grid.inside, fn(R, Z), 0.0)
        return cls(grid, vals, n)

    def copy(self) -> "Field":
        return Field(self.grid, self.values.copy(), self.n)

    def linf(self) -> float:
        return float(np.abs(self.values[self.grid.inside]).max(initial=0.0))

    def max_inside(self) -> float:
        return float(self.values[self.grid.inside].max())

    def min_inside(self) -> float:
        return float(self.values[self.grid.inside].min())

    @property
    def t(self) -> float:
        return self.grid.t


@dataclass
class SolveReport:
    newton_iterations: int
    final_residual: float
    converged: bool
    damping_events: int
    min_value: float = np.nan
    residual_history: list = None


class AxisymOperator:
    """Shortley-Weller discretization of -Lap on the active node set.

    `active` defaults to the grid's inside mask; passing a restricted mask
    (e.g. the upper half plane) imposes a homogeneous Dirichlet line on the
    removed nodes, which is how subdomain eigenvalues are computed.
    """

    def __init__(self, grid: MeridianGrid, n: int, active: np.ndarray | None = None):
        self.grid = grid
        self.n = int(n)
        self.active = grid.inside if active is None else (grid.inside & active)
        self._build()

    def _build(self):
        g, n = self.grid, self.n
        hr, hz = g.hr, g.hz
        act = self.active
        thE, thW = g.theta_e, g.theta_w
        thN, thS = g.theta_n, g.theta_s

        nbrE = np.zeros_like(act); nbrE[:, :-1] = act[:, 1:]
        nbrW = np.zeros_like(act); nbrW[:, 1:] = act[:, :-1]
        nbrN = np.zeros_like(act); nbrN[:-1, :] = act[1:, :]
        nbrS = np.zeros_like(act); nbrS[1:, :] = act[:-1, :]

        R = np.broadcast_to(g.rs[None, :], act.shape)
        with np.errstate(divide="ignore", invalid="ignore"):
            mu = np.where(R > 0, (n - 2) / np.where(R > 0, R, 1.0), 0.0)

        # Arm lengths as fractions of h. Arms toward active neighbors are
        # full; the rest use the stored cut fraction.
        aE = np.where(nbrE, 1.0, thE)
        aW = np.where(nbrW, 1.0, thW)
        aN = np.where(nbrN, 1.0, thN)
        aS = np.where(nbrS, 1.0, thS)

        # Radial direction: second plus weighted first derivative.
        cE = 2.0 / (aE * (aE + aW) * hr * hr) + mu * aW / (aE * (aE + aW) * hr)
        cW = 2.0 / (aW * (aE + aW) * hr * hr) - mu * aE / (aW * (aE + aW) * hr)
        cPr = -2.0 / (aE * aW * hr * hr) + mu * (aE - aW) / (aE * aW * hr)

        # Axis column: Lap u = (n-1)*u_rr + u_zz with even reflection.
        axis = np.zeros_like(act); axis[:, 0] = True
        cE = np.where(axis, 2.0 * (n - 1) / (aE * aE * hr * hr), cE)
        cW = np.where(axis, 0.0, cW)
        cPr = np.where(axis, -2.0 * (n - 1) / (aE * aE * hr * hr), cPr)

        cN = 2.0 / (aN * (aN + aS) * hz * hz)
        cS = 2.0 / (aS * (aN + aS) * hz * hz)
        cPz = -2.0 / (aN * aS * hz * hz)

        # Keep the raw arm coefficients for inhomogeneous boundary data,
        # then zero couplings into non-active nodes (their value is 0).
        self.cE_cut = np.where(act & ~nbrE, cE, 0.0)
        self.cW_cut = np.where(act & ~nbrW & ~axis, cW, 0.0)
        self.cN_cut = np.where(act & ~nbrN, cN, 0.0)
        self.cS_cut = np.where(act & ~nbrS, cS, 0.0)

        self.cE = np.where(act & nbrE, cE, 0.0)
        self.cW = np.where(act & nbrW, cW, 0.0)
        self.cN = np.where(act & nbrN, cN, 0.0)
        self.cS = np.where(act & nbrS, cS, 0.0)
        self.cP = np.where(act, cPr + cPz, 0.0)
        self.arm = {"E": aE, "W": aW, "N": aN, "S": aS}

        # Axisymmetric volume weight r^(n-2); the axis column carries its
        # control-volume average so the weighted operator stays symmetric.
        w = R.astype(float) ** (n - 2) if n > 2 else np.ones_like(R, dtype=float)
        w_axis = (hr / 2.0) ** (n - 1) / ((n - 1) * hr)
        w = np.where(axis, w_axis, w)
        self.w = np.where(act, w, 0.0)
        self.cell = hr * hz

    # -- operator application ------------------------------------------------

    def laplacian(self, values: np.ndarray) -> np.ndarray:
        """Discrete Lap applied to values (exterior entries ignored)."""
        u = np.where(self.active, values, 0.0)
        out = self.cP * u
        out[:, :-1] += self.cE[:, :-1] * u[:, 1:]
        out[:, 1:] += self.cW[:, 1:] * u[:, :-1]
        out[:-1, :] += self.cN[:-1, :] * u[1:, :]
        out[1:, :] += self.cS[1:, :] * u[:-1, :]
        return np.where(self.active, out, 0.0)

    def apply(self, values: np.ndarray, c: np.ndarray, shift: float = 0.0) -> np.ndarray:
        """(-Lap - c + shift) applied to values."""
        out = -self.laplacian(values) - c * values + shift * values
        return np.where(self.active, out, 0.0)

    def dirichlet_rhs(self, gfun) -> np.ndarray:
        """RHS contribution of inhomogeneous Dirichlet data on cut arms.

        For solving -Lap u = F with u = gdata on the boundary: the cut-arm
        coefficients multiply known boundary values, which move to the
        right-hand side. Used by manufactured-solution calibration.
        """
        g = self.grid
        Z, R = np.meshgrid(g.zs, g.rs, indexing="ij")
        out = np.zeros_like(self.cP)
        for cut, arm, dr, dz in (
                (self.cE_cut, self.arm["E"], g.hr, 0.0),
                (self.cW_cut, self.arm["W"], -g.hr, 0.0),
                (self.cN_cut, self.arm["N"], 0.0, g.hz),
                (self.cS_cut, self.arm["S"], 0.0, -g.hz)):
            jj, ii = np.nonzero(cut != 0.0)
            if jj.size == 0:
                continue
            th = arm[jj, ii]
            vals = gfun(R[jj, ii] + th * dr, Z[jj, ii] + th * dz)
            out[jj, ii] += cut[jj, ii] * np.asarray(vals, float)
        return out

    # -- inner products and norms ---------------------------------------------

    def dot(self, a: np.ndarray, b: np.ndarray) -> float:
        return float(np.sum(self.w * a * b) * self.cell)

    def norm(self, a: np.ndarray) -> float:
        return np.sqrt(max(self.dot(a, a), 0.0))

    def linf(self, a: np.ndarray) -> float:
        return float(np.abs(a[self.active]).max(initial=0.0))

    def gershgorin_floor(self, c: np.ndarray) -> float:
        """Lower bound for eigenvalues of (-Lap - c) from row sums."""
        diag = -self.cP - c
        offsum = np.abs(self.cE) + np.abs(self.cW) + np.abs(self.cN) + np.abs(self.cS)
        vals = (diag - offsum)[self.active]
        return float(vals.min())

    # -- symmetric part ------------------------------------------------------

    def _flat_index(self):
        idx = -np.ones(self.active.shape, dtype=np.int64)
        idx[self.active] = np.arange(np.count_nonzero(self.active))
        return idx

    def weighted_matrix(self) -> sp.csr_matrix:
        """W * (-Lap) over active nodes, symmetrized: the operator inner CG sees."""
        idx = self._flat_index()
        nun = int(np.count_nonzero(self.active))
        rows, cols, data = [], [], []
        jj, ii = np.nonzero(self.active)
        w = self.w[jj, ii]
        rows.append(idx[jj, ii]); cols.append(idx[jj, ii]); data.append(-self.cP[jj, ii] * w)
        for coeff, dj, di in ((self.cE, 0, 1), (self.cW, 0, -1),
                              (self.cN, 1, 0), (self.cS, -1, 0)):
            cvals = coeff[jj, ii]
            sel = cvals != 0.0
            jj_s, ii_s = jj[sel], ii[sel]
            rows.append(idx[jj_s, ii_s])
            cols.append(idx[jj_s + dj, ii_s + di])
            data.append(-cvals[sel] * w[sel])
        B = sp.csr_matrix((np.concatenate(data),
                           (np.concatenate(rows), np.concatenate(cols))),
                          shape=(nun, nun))
        return (B + B.T) * 0.5

    @cached_property
    def _sym_system(self):
        """Symmetric weighted Laplacian, its inverse diagonal and the active nodes."""
        Bs = self.weighted_matrix()
        jj, ii = np.nonzero(self.active)
        return Bs, 1.0 / Bs.diagonal(), jj, ii

    # -- linear solves -----------------------------------------------------------

    def solve(self, c: np.ndarray, rhs: np.ndarray, *, shift: float = 0.0,
              tol_rel: float = TOL_LIN_DEFAULT,
              x0: np.ndarray | None = None) -> np.ndarray:
        """Solve (-Lap - c + shift) x = rhs with zero Dirichlet data.

        Defect-corrected conjugate gradients: inner CG, preconditioned by
        the inverse diagonal of the weighted Laplacian (Jacobi), acts on the
        exactly symmetric part Bs + diag(w * (shift - c)) of the weighted
        operator, and an outer correction loop drives the residual of the
        true Shortley-Weller operator below tol_rel * ||rhs||_inf. The
        cut-arm perturbation is small and boundary-local, so the outer loop
        contracts by orders of magnitude per sweep. Indefiniteness
        (p^T A p <= 0 in the inner CG, or exhausting the shared budget of
        MAX_LIN_ITER_DEFAULT iterations) raises IndefiniteOperatorError.
        """
        act = self.active
        b = np.where(act, rhs, 0.0)
        bnorm = self.linf(b)
        if bnorm == 0.0:
            return np.zeros_like(b)
        Bs, dinv, jj, ii = self._sym_system
        Bc = Bs + sp.diags((self.w * (shift - np.where(act, c, 0.0)))[jj, ii])

        x = np.where(act, x0, 0.0) if x0 is not None else np.zeros_like(b)
        budget = [MAX_LIN_ITER_DEFAULT]
        prev = np.inf
        stalled = 0
        for _ in range(40):
            rtrue = b - self.apply(x, c, shift)
            rn = self.linf(rtrue)
            if rn <= tol_rel * bnorm:
                return x
            stalled = stalled + 1 if rn >= 0.5 * prev else 0
            if stalled >= 3:
                break  # rounding floor of the true-operator residual
            prev = rn
            d = _cg_flat(Bc, (self.w * rtrue)[jj, ii], dinv,
                         tol_rel=1e-6, budget=budget)
            upd = np.zeros_like(x)
            upd[jj, ii] = d
            x = x + upd
        raise IndefiniteOperatorError(
            "defect-correction loop failed to reach tolerance "
            f"(residual {self.linf(b - self.apply(x, c, shift)):.3g}, "
            f"target {tol_rel * bnorm:.3g})")


def _cg_flat(A: sp.csr_matrix, b: np.ndarray, dinv: np.ndarray, *,
             tol_rel: float, budget: list) -> np.ndarray:
    """Jacobi-preconditioned CG on a symmetric positive definite sparse system.

    `budget` is a single-element mutable iteration allowance shared across
    calls; exhausting it, or detecting p^T A p <= 0, raises
    IndefiniteOperatorError.
    """
    bnorm = np.linalg.norm(b)
    x = np.zeros_like(b)
    if bnorm == 0.0:
        return x
    r = b.copy()
    z = dinv * r
    p = z.copy()
    rz = float(r @ z)
    while True:
        if np.linalg.norm(r) <= tol_rel * bnorm:
            return x
        if budget[0] <= 0:
            raise IndefiniteOperatorError("linear solver iteration budget exhausted")
        budget[0] -= 1
        Ap = A @ p
        pAp = float(p @ Ap)
        if pAp <= 0.0:
            raise IndefiniteOperatorError(
                f"operator not positive definite (p^T A p = {pAp:.3g})")
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        z = dinv * r
        rz_new = float(r @ z)
        beta = rz_new / rz
        rz = rz_new
        p = z + beta * p


def apply_axisym_laplacian(grid: MeridianGrid, n: int, u: Field) -> Field:
    """Discrete axisymmetric Laplacian of u (values at inside nodes)."""
    if not np.all(np.isfinite(u.values[grid.inside])):
        raise ValueError("field contains non-finite values on inside nodes")
    op = AxisymOperator(grid, n)
    return Field(grid, op.laplacian(u.values), n)


def solve_linear(grid: MeridianGrid, n: int, c: Field, rhs: Field,
                 tol_lin: float = TOL_LIN_DEFAULT) -> Field:
    """Solve (-Lap - c) phi = rhs with zero boundary data."""
    op = AxisymOperator(grid, n)
    x = op.solve(np.where(grid.inside, c.values, 0.0), rhs.values, tol_rel=tol_lin)
    return Field(grid, x, n)


def _coordinate_arrays(grid: MeridianGrid):
    return np.meshgrid(grid.zs, grid.rs, indexing="ij")


def pde_residual(op: AxisymOperator, nl: Nonlinearity, values: np.ndarray) -> np.ndarray:
    """Residual Lap(u) + f(x, u) of the PDE in -Lap u = f form."""
    g = op.grid
    Z, R = _coordinate_arrays(g)
    f = np.where(op.active, nl.eval(R, Z, values), 0.0)
    return np.where(op.active, op.laplacian(values) + f, 0.0)


def newton_solve(grid: MeridianGrid, n: int, nl: Nonlinearity, u0: Field,
                 tol_pde: float = TOL_PDE_DEFAULT,
                 max_newton: int = MAX_NEWTON_DEFAULT,
                 tol_lin: float = TOL_LIN_DEFAULT,
                 op: AxisymOperator | None = None) -> tuple[Field, SolveReport]:
    """Damped Newton iteration for -Lap u = f(x, u), u = 0 on the boundary.

    Each step solves (-Lap - f_u(., u_k)) delta = f(., u_k) + Lap u_k and
    backtracks (factor 1/2, at most 20 halvings) while the L-inf residual
    does not decrease. An indefinite linearization propagates out as
    IndefiniteOperatorError: there is no stable solution to converge to.
    """
    op = op or AxisymOperator(grid, n)
    Z, R = _coordinate_arrays(grid)
    u = np.where(op.active, u0.values, 0.0)
    if not np.all(np.isfinite(u[op.active])):
        raise ValueError("initial guess contains non-finite values")

    resvec = pde_residual(op, nl, u)
    res = op.linf(resvec)
    history = [res]
    iters = 0
    damping_events = 0
    converged = res <= tol_pde

    while not converged and iters < max_newton:
        c = np.where(op.active, nl.eval_du(R, Z, u), 0.0)
        delta = op.solve(c, resvec, tol_rel=tol_lin)
        step = 1.0
        accepted = False
        for halving in range(21):
            u_try = u + step * delta
            res_try_vec = pde_residual(op, nl, u_try)
            res_try = op.linf(res_try_vec)
            if np.isfinite(res_try) and res_try < res:
                accepted = True
                break
            if halving < 20:
                step *= 0.5
                damping_events += 1
        iters += 1
        if not accepted:
            logger.warning("Newton stalled at residual %.3g after %d iterations", res, iters)
            break
        u, resvec, res = u_try, res_try_vec, res_try
        history.append(res)
        converged = res <= tol_pde

    field = Field(grid, u, n)
    min_value = float(u[op.active].min()) if np.any(op.active) else np.nan
    if converged and nl.positive_at_zero and min_value <= 0.0:
        logger.warning("converged solution is not strictly positive (min %.3g)", min_value)
    return field, SolveReport(iters, res, converged, damping_events, min_value, history)


def derivative_field(u: Field, direction: str) -> Field:
    """First derivative of u in 'r' or 'z' on the same grid.

    Centered differences at interior nodes; at boundary-adjacent nodes the
    same three-point formula uses the zero boundary value at the cut point
    (one-sided, second order). The radial derivative on the axis vanishes
    by even symmetry.
    """
    g = u.grid
    act = g.inside
    vals = np.where(act, u.values, 0.0)

    if direction == "r":
        thP, thM, h = g.theta_e, g.theta_w, g.hr
        nbrP = np.zeros_like(act); nbrP[:, :-1] = act[:, 1:]
        nbrM = np.zeros_like(act); nbrM[:, 1:] = act[:, :-1]
        uP = np.zeros_like(vals); uP[:, :-1] = vals[:, 1:]
        uM = np.zeros_like(vals); uM[:, 1:] = vals[:, :-1]
    elif direction == "z":
        thP, thM, h = g.theta_n, g.theta_s, g.hz
        nbrP = np.zeros_like(act); nbrP[:-1, :] = act[1:, :]
        nbrM = np.zeros_like(act); nbrM[1:, :] = act[:-1, :]
        uP = np.zeros_like(vals); uP[:-1, :] = vals[1:, :]
        uM = np.zeros_like(vals); uM[1:, :] = vals[:-1, :]
    else:
        raise ValueError("direction must be 'r' or 'z'")

    aP = np.where(nbrP, 1.0, thP)
    aM = np.where(nbrM, 1.0, thM)
    d = (aM * aM * uP - aP * aP * uM + (aP * aP - aM * aM) * vals) / (
        h * aP * aM * (aP + aM))
    if direction == "r":
        d[:, 0] = 0.0  # even in r on the axis
    return Field(g, np.where(act, d, 0.0), u.n)
