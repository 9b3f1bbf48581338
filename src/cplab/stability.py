"""Stability certification: first eigenvalue of the linearized operator.

A solution u is stable when the first Dirichlet eigenvalue of
-Lap - f_u(., u) on the domain is positive. The smallest eigenvalue comes
from inverse power iteration: the true Shortley-Weller operator
-Lap - f_u is factored once and every iteration is one exact back-solve
with that factor. The eigenvalue is that of the operator's active node
set: the whole domain by default, or a part of it such as the reflection
half-domain z > 0 when the caller passes an `AxisymOperator` built with
that `active` mask. The reported lambda1 is the operator Rayleigh quotient
(phi, (-Lap - f_u) phi) / (phi, phi), with the axisymmetric volume weight
r^(n-2) (the angular measure factor cancels): the same quotient whose
eigen residual the iteration drives below TOL_EIG, so the residual
certifies the number that is reported. `rayleigh_quotient` evaluates the
variational form of the quotient with node-sampled gradients; it is a
cross-check, not part of the certificate.

The factor's pivots decide the shift: all positive, and the shift is 0.
Otherwise the linearization is not stable, and the operator is factored
once more at s = max f_u, where it is -Lap plus a nonnegative diagonal
(for n <= 4 a nonsingular M-matrix), so that a lambda1 <= 0 is still
reported. A caller that passes its own operator inside
`AxisymOperator.keep_factor` shares that factorization: when the Newton
solve that produced u factored the same matrix (f_u independent of u),
the eigen solve factors nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EigenFailureError, IndefiniteOperatorError, UndefinedQuotientError
from .nonlinearity import Nonlinearity
from .solver import AxisymOperator, Field, derivative_field

TOL_EIG = 1e-8
MAX_EIG_ITER = 200


@dataclass
class StabilityReport:
    """First eigenpair of -Lap - f_u, and `stable`, the verdict it certifies."""

    lambda1: float
    eigenfield: Field
    iterations: int
    residual: float
    shift: float
    single_signed: bool

    @property
    def margin(self) -> float:
        """Certification margin: lambda1 must exceed 10x the eigen residual."""
        return 10.0 * self.residual

    @property
    def stable(self) -> bool:
        """Definition of stability: lambda1 strictly above `margin`.

        So coarse grids do not certify stability they cannot resolve, and
        the gap between "lambda1 > 0" and "lambda1 > margin" stays visible.
        """
        return bool(self.lambda1 > self.margin)


def _fprime_field(u: Field, nl: Nonlinearity) -> np.ndarray:
    g = u.grid
    return np.where(g.inside, nl.eval_du(g.R, g.Z, u.values), 0.0)


def rayleigh_quotient(u: Field, nl: Nonlinearity, phi: Field) -> float:
    """(sum w |grad phi|^2 - sum w f_u phi^2) / (sum w phi^2).

    Gradients are the node-sampled derivative fields (zero-extended outside
    the domain), w the axisymmetric volume weight on the grid and in the
    dimension of u. Raises for phi == 0.
    """
    op = AxisymOperator(u.grid, u.n)
    pv = phi.values
    denom = op.dot(pv, pv)
    if denom == 0.0:
        raise UndefinedQuotientError("Rayleigh quotient of the zero field")
    dr = derivative_field(phi, "r").values
    dz = derivative_field(phi, "z").values
    grad2 = op.dot(dr, dr) + op.dot(dz, dz)
    fp = _fprime_field(u, nl)
    return (grad2 - op.dot(fp * pv, pv)) / denom


def smallest_eigenvalue(u: Field, nl: Nonlinearity, phi0: Field | None = None,
                        op: AxisymOperator | None = None) -> StabilityReport:
    """Inverse power iteration for the first eigenvalue of -Lap - f_u on op.active.

    `op` is the operator to factor, on u's grid and in u's dimension; by
    default the whole domain's. An operator built with a restricted
    `active` mask, e.g. `AxisymOperator(grid, n, active=grid.Z > 0)` for
    the reflection half-domain, gives the eigenvalue on that region,
    with a Dirichlet line on the removed nodes. The reported lambda1 is
    the operator Rayleigh quotient of the last iterate, and its residual
    ||(-Lap - f_u) phi - lambda1 phi|| must fall to TOL_EIG * max(1, |lambda1|)
    within MAX_EIG_ITER steps, or EigenFailureError is raised. The shift
    rule is the module's; when its fallback factor fails too,
    EigenFailureError names the shift. The eigenfield is 0 off op.active.
    """
    op = op or AxisymOperator(u.grid, u.n)
    c = np.where(op.active, _fprime_field(u, nl), 0.0)

    phi = np.where(op.active, 1.0, 0.0) if phi0 is None else np.where(op.active, phi0.values, 0.0)
    nrm = op.norm(phi)
    if nrm == 0.0:
        raise UndefinedQuotientError("empty active set for eigen iteration")
    phi = phi / nrm

    shift = 0.0
    try:
        lu = op.factor(c)
    except IndefiniteOperatorError:
        shift = float(c[op.active].max())
        try:
            lu = op.factor(c - shift)
        except IndefiniteOperatorError as exc:
            raise EigenFailureError(f"eigen solve failed at shift {shift:.6g}: {exc}") from None

    lam_op = None
    residual = np.inf
    iterations = 0
    for _ in range(MAX_EIG_ITER):
        x = lu.solve(phi)
        nrm = op.norm(x)
        if not np.isfinite(nrm) or nrm == 0.0:
            raise EigenFailureError(
                f"inverse iteration produced a null vector at shift {shift:.6g}")
        phi = x / nrm
        Lphi = op.apply(phi, c)
        lam_op = op.dot(phi, Lphi)
        residual = op.norm(Lphi - lam_op * phi)
        iterations += 1
        if residual <= TOL_EIG * max(1.0, abs(lam_op)):
            break

    if residual > TOL_EIG * max(1.0, abs(lam_op)):
        raise EigenFailureError(
            f"inverse iteration stalled at residual {residual:.3g} after {iterations} steps")

    # First eigenfunction: orient positive and record single-signedness.
    if np.sum(phi[op.active]) < 0.0:
        phi = -phi
    vals = phi[op.active]
    single_signed = bool(vals.min() * vals.max() > 0.0)

    eigenfield = Field(u.grid, np.where(op.active, phi, 0.0), u.n)
    return StabilityReport(
        lambda1=lam_op, eigenfield=eigenfield, iterations=iterations,
        residual=residual, shift=shift, single_signed=single_signed)
