"""Meridian solver for -Lap(u) = f(x, u) with zero Dirichlet data.

The axisymmetric reduction of the n-dimensional Laplacian acting on
u(r, z) is

    Lap u = u_rr + (n-2)/r * u_r + u_zz,

with the regularized form Lap u = (n-1)*u_rr + u_zz on the axis r = 0
(even reflection). Stencils are centered second differences with the
Shortley-Weller modification on arms that cross the curved boundary:
a cut arm of length theta*h carries the homogeneous boundary value at
the cut point.

The stencil is assembled once per operator, as the CSR matrix L of Lap
over the active nodes; every product with the operator is a product with
L. The discrete operator is self-adjoint under the axisymmetric volume
weight w = r^(n-2) (exactly so in the bulk for n = 2 and n = 3; cut
arms perturb symmetry locally). The operator holds B = W(-Lap), L's rows
scaled by -w; the weighted operator W(-Lap - c) = B - diag(w c) is
factored once by sparse LU (SuperLU, symmetric mode, diagonal pivots),
and every solve is one exact back-solve with that factor. The same
pivots test definiteness: a nonpositive pivot raises
IndefiniteOperatorError — the numerical signature of an unstable
linearization.
"""

from __future__ import annotations

import contextlib
import logging
import threading
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .domain import MeridianGrid, neighbours
from .errors import IndefiniteOperatorError
from .nonlinearity import Nonlinearity

logger = logging.getLogger(__name__)

TOL_PDE = 1e-9     # Newton stops at this discrete L-inf residual of the PDE
MAX_NEWTON = 30    # Newton iterations before a solve counts as unconverged

# Bounds peak memory, not speed. SuperLU releases the GIL, so two threads
# factor 1.3-1.8x faster than one, but each factor in flight holds its own
# L and U: without the lock, `cplab verify` with 5 seeds on the 97x193
# ball ran 25-30% faster and peaked 13-15% higher in RSS (90 -> 104 MB).
# AxisymOperator.solve holds this lock from factor to back-solve, so the
# threads that share an operator keep at most one factor resident between
# them. A factor kept by `keep_factor` lives outside the lock and is for
# one thread only.
_FACTOR_LOCK = threading.Lock()


@dataclass
class Field:
    """Scalar samples on a meridian grid; exterior nodes hold 0.

    The zero Dirichlet trace is built into the stencils, so `values` only
    carry information at inside nodes. The field stores the given values
    with every exterior node set to 0, read-only: this is the one place
    the exterior is zeroed, and every reader may rely on it. `n` is the
    ambient dimension of the problem the field belongs to.
    """

    grid: MeridianGrid
    values: np.ndarray
    n: int

    def __post_init__(self):
        values = np.where(self.grid.inside, self.values, 0.0)
        values.flags.writeable = False
        self.values = values

    @classmethod
    def zeros(cls, grid: MeridianGrid, n: int) -> "Field":
        return cls(grid, np.zeros((grid.nz, grid.nr)), n)

    @classmethod
    def from_function(cls, grid: MeridianGrid, n: int, fn) -> "Field":
        return cls(grid, fn(grid.R, grid.Z), n)

    def max_inside(self) -> float:
        return float(self.values[self.grid.inside].max())


@dataclass
class SolveReport:
    newton_iterations: int
    final_residual: float
    converged: bool
    damping_events: int
    min_value: float
    residual_history: list


class AxisymOperator:
    """Shortley-Weller discretization of -Lap on the active node set.

    `active` defaults to the grid's inside mask; passing a restricted mask
    (e.g. `grid.Z > 0`, the upper half plane) imposes a homogeneous
    Dirichlet line on the removed nodes; `stability.smallest_eigenvalue`
    on such an operator gives the eigenvalue of that region.

    The stencil is assembled once, as the CSR matrix `L` of Lap over the
    active nodes in the order of np.nonzero(active). `laplacian` and
    `apply` multiply by it; `B`, the matrix every factor shifts, is L's
    pattern with each row scaled by minus the volume weight, and `nodes`
    are the active nodes in its order.
    """

    def __init__(self, grid: MeridianGrid, n: int, active: np.ndarray | None = None):
        self.grid = grid
        self.n = int(n)
        self.active = grid.inside if active is None else (grid.inside & active)
        self._keeping = False
        self._kept = None
        self._build()

    def _coefficients(self):
        """Raw arm coefficients (E, W, N, S) and the centre coefficient, on the grid.

        Arm lengths are the grid's fractions of h, 1 on every arm toward an
        inside neighbour. An arm's coefficient multiplies the neighbour's
        value on a full arm and the boundary value at the cut otherwise.
        """
        g, n = self.grid, self.n
        hr, hz = g.hr, g.hz
        aE, aW, aN, aS = g.theta_e, g.theta_w, g.theta_n, g.theta_s

        with np.errstate(divide="ignore", invalid="ignore"):
            mu = np.where(g.R > 0, (n - 2) / np.where(g.R > 0, g.R, 1.0), 0.0)

        # Radial direction: second plus weighted first derivative.
        cE = 2.0 / (aE * (aE + aW) * hr * hr) + mu * aW / (aE * (aE + aW) * hr)
        cW = 2.0 / (aW * (aE + aW) * hr * hr) - mu * aE / (aW * (aE + aW) * hr)
        cPr = -2.0 / (aE * aW * hr * hr) + mu * (aE - aW) / (aE * aW * hr)

        # Axis column: Lap u = (n-1)*u_rr + u_zz with even reflection, so
        # the west arm folds onto the east one and couples nothing.
        cE[:, 0] = 2.0 * (n - 1) / (aE[:, 0] * aE[:, 0] * hr * hr)
        cW[:, 0] = 0.0
        cPr[:, 0] = -2.0 * (n - 1) / (aE[:, 0] * aE[:, 0] * hr * hr)

        cN = 2.0 / (aN * (aN + aS) * hz * hz)
        cS = 2.0 / (aS * (aN + aS) * hz * hz)
        cPz = -2.0 / (aN * aS * hz * hz)
        return cE, cW, cN, cS, cPr + cPz

    def _build(self):
        g, n = self.grid, self.n
        hr, hz = g.hr, g.hz
        act = self.active
        self._flat = np.flatnonzero(act)
        nun = self._flat.size

        # Rows in the order centre, E, W, N, S, so that a product adds its
        # terms in the order of the five-point stencil. A coupling runs to
        # an active neighbour along a full arm; nonexistent neighbours (off
        # the array or not active) are numbered -1, and the coupling across
        # the axis and the n = 4 one at r = h are exactly 0: none is stored.
        cE, cW, cN, cS, cP = self._coefficients()
        num = np.zeros(act.shape, dtype=np.int32)
        num[act] = np.arange(1, nun + 1)
        cols = np.stack([num[act] - 1] + [m[act] - 1 for m in neighbours(num)], axis=1)
        vals = np.stack([cP[act], cE[act], cW[act], cN[act], cS[act]], axis=1)
        keep = (cols >= 0) & (vals != 0.0)
        indptr = np.zeros(nun + 1, dtype=np.int32)
        np.cumsum(keep.sum(axis=1), out=indptr[1:])
        self.L = sp.csr_matrix((vals[keep], cols[keep], indptr), shape=(nun, nun))

        # Axisymmetric volume weight r^(n-2); the axis column carries its
        # control-volume average so the weighted operator stays symmetric.
        w = g.R ** (n - 2) if n > 2 else np.ones(act.shape)
        w[:, 0] = (hr / 2.0) ** (n - 1) / ((n - 1) * hr)
        self.w = np.where(act, w, 0.0)
        self.cell = hr * hz
        # B = W(-Lap), the weighted Laplacian that every factor shifts: L's
        # rows scaled by -w, on copies of L's index arrays, so that a
        # consumer that sorts them in place (abs() does) leaves L intact.
        # Assembled here, in the thread that builds the operator, so that
        # pool threads only factor: a matrix assembled in a pool thread
        # stays in that thread's malloc arena, which raised peak RSS by
        # 2.3 MB on the 97x97 spheroid homotopy.
        L = self.L
        wrow = np.repeat(np.take(self.w, self._flat), np.diff(L.indptr))
        self.B = sp.csr_matrix((-L.data * wrow, L.indices.copy(), L.indptr.copy()),
                               shape=L.shape)
        self.nodes = np.nonzero(act)  # the active nodes in the order of B's rows

    # -- operator application ------------------------------------------------

    def laplacian(self, values: np.ndarray) -> np.ndarray:
        """Discrete Lap applied to values (exterior entries ignored)."""
        out = np.zeros(self.active.shape)
        np.put(out, self._flat, self.L @ np.take(values, self._flat))
        return out

    def apply(self, values: np.ndarray, c: np.ndarray) -> np.ndarray:
        """(-Lap - c) applied to values."""
        out = -self.laplacian(values) - c * values
        return np.where(self.active, out, 0.0)

    # -- inner products and norms ---------------------------------------------

    def dot(self, a: np.ndarray, b: np.ndarray) -> float:
        return float(np.sum(self.w * a * b) * self.cell)

    def norm(self, a: np.ndarray) -> float:
        return np.sqrt(max(self.dot(a, a), 0.0))

    def linf(self, a: np.ndarray) -> float:
        return float(np.abs(a[self.active]).max(initial=0.0))

    # -- linear solves -----------------------------------------------------------

    @contextlib.contextmanager
    def keep_factor(self):
        """Within the block, `factor` returns its last factor for an equal system.

        The factor is reused when `c` is equal on the active nodes, so a
        Newton solve and an eigen solve of the same matrix share one
        factorization. A different system drops the kept factor before it
        factors, and leaving the block drops it, so at most one kept factor
        is resident. Not for operators shared between threads.
        """
        self._keeping = True
        try:
            yield
        finally:
            self._keeping = False
            self._kept = None

    def factor(self, c: np.ndarray) -> "ShiftedFactor":
        """Factor (-Lap - c) once for any number of solves."""
        if not self._keeping:
            return ShiftedFactor(self, c)
        kept = self._kept
        if kept is not None and kept.matches(c):
            return kept
        self._kept = None  # free the old factor before the new one is made
        self._kept = ShiftedFactor(self, c)
        return self._kept

    def solve(self, c: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """Solve (-Lap - c) x = rhs with zero Dirichlet data.

        Factor, then solve: see ShiftedFactor, whose IndefiniteOperatorError
        propagates.
        """
        with _FACTOR_LOCK:
            return self.factor(c).solve(rhs)


class ShiftedFactor:
    """Sparse LU of the weighted operator W(-Lap - c).

    A = B - diag(w * c), with B = W(-Lap) the weighted Shortley-Weller
    matrix, is factored by SuperLU in symmetric mode with diagonal pivots,
    P A P^T = L U, so every solve is one back-solve of W rhs. A shifted
    operator -Lap - c + s is the same factor of c - s. The pivots of U are
    all positive iff every leading principal minor of P A P^T is. For
    n <= 4, A is a Z-matrix, for which that holds iff A is a nonsingular
    M-matrix (Berman & Plemmons, ch. 6), i.e. iff the first eigenvalue of
    -Lap - c is positive. For n >= 5 the radial coupling toward the axis
    changes sign next to it, and the pivot test is the same criterion
    without that theorem (checked against the eigenvalue in the tests). A
    nonpositive pivot, an off-diagonal pivot (perm_r != perm_c) or an
    exactly singular A raises IndefiniteOperatorError.

    SuperLU factors column by column here (relax=1, panel_size=1), not
    with its default relaxed supernodes and multi-column panels. On these
    five-point meridian matrices the padding the defaults add for dense
    BLAS blocks costs more than it saves: a factorization took 33-36% less
    time on the 97x193 and larger balls and 27-29% less on the 33x65 ball
    and the 97x97 spheroid, with the same pivots and a slightly smaller
    factor (one process, OpenBLAS on one thread).

    The factor keeps the weight and the node index, not the operator, so
    an operator that keeps its factor forms no reference cycle with it.
    """

    def __init__(self, op: AxisymOperator, c: np.ndarray):
        self._nodes = op.nodes
        self._w = op.w
        self._c = np.broadcast_to(c, op.w.shape)[self._nodes]
        A = op.B - sp.diags(self._w[self._nodes] * self._c)
        try:
            lu = spla.splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                           relax=1, panel_size=1, options=dict(SymmetricMode=True))
        except RuntimeError as exc:
            raise IndefiniteOperatorError(f"operator is singular ({exc})") from None
        if not np.array_equal(lu.perm_r, lu.perm_c):
            raise IndefiniteOperatorError("operator not positive definite (off-diagonal pivot)")
        pivot = float(lu.U.diagonal().min())
        if pivot <= 0.0:
            raise IndefiniteOperatorError(f"operator not positive definite (pivot {pivot:.3g})")
        self._lu = lu

    def matches(self, c: np.ndarray) -> bool:
        """Whether this factors (-Lap - c): equal c on the active nodes."""
        return np.array_equal(np.broadcast_to(c, self._w.shape)[self._nodes], self._c)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Exact solve of (-Lap - c) x = rhs: one back-solve of W rhs."""
        x = np.zeros_like(self._w)
        x[self._nodes] = self._lu.solve((self._w * rhs)[self._nodes])
        return x


def pde_residual(op: AxisymOperator, nl: Nonlinearity, values: np.ndarray) -> np.ndarray:
    """Residual Lap(u) + f(x, u) of the PDE in -Lap u = f form."""
    g = op.grid
    f = np.where(op.active, nl.eval(g.R, g.Z, values), 0.0)
    return np.where(op.active, op.laplacian(values) + f, 0.0)


def newton_solve(grid: MeridianGrid, n: int, nl: Nonlinearity, u0: Field,
                 op: AxisymOperator | None = None) -> tuple[Field, SolveReport]:
    """Damped Newton iteration for -Lap u = f(x, u), u = 0 on the boundary.

    Each step solves (-Lap - f_u(., u_k)) delta = f(., u_k) + Lap u_k and
    backtracks (factor 1/2, at most 20 halvings) while the L-inf residual
    does not decrease. The solve converges when that residual falls to
    TOL_PDE and stops unconverged after MAX_NEWTON steps. An indefinite
    linearization propagates out as IndefiniteOperatorError: there is no
    stable solution to converge to.
    """
    op = op or AxisymOperator(grid, n)
    u = np.where(op.active, u0.values, 0.0)
    if not np.all(np.isfinite(u[op.active])):
        raise ValueError("initial guess contains non-finite values")

    resvec = pde_residual(op, nl, u)
    res = op.linf(resvec)
    history = [res]
    iters = 0
    damping_events = 0
    converged = res <= TOL_PDE

    while not converged and iters < MAX_NEWTON:
        c = np.where(op.active, nl.eval_du(grid.R, grid.Z, u), 0.0)
        delta = op.solve(c, resvec)
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
        converged = res <= TOL_PDE

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
    vals = u.values
    uE, uW, uN, uS = neighbours(vals)

    if direction == "r":
        aP, aM, uP, uM, h = g.theta_e, g.theta_w, uE, uW, g.hr
    elif direction == "z":
        aP, aM, uP, uM, h = g.theta_n, g.theta_s, uN, uS, g.hz
    else:
        raise ValueError("direction must be 'r' or 'z'")

    d = (aM * aM * uP - aP * aP * uM + (aP * aP - aM * aM) * vals) / (
        h * aP * aM * (aP + aM))
    if direction == "r":
        d[:, 0] = 0.0  # even in r on the axis
    return Field(g, d, u.n)
