"""Stability certification: first eigenvalue of the linearized operator.

A solution u is stable when the first Dirichlet eigenvalue of
-Lap - f_u(., u) on the domain is positive. The smallest eigenvalue comes
from inverse power iteration: the true Shortley-Weller operator
-Lap - f_u is factored once and every iteration is one exact back-solve
with that factor. The reported lambda1 is the operator Rayleigh quotient
(phi, (-Lap - f_u) phi) / (phi, phi), with the axisymmetric volume weight
r^(n-2) (the angular measure factor cancels): the same quotient whose
eigen residual the iteration drives below its tolerance, so the residual
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

from .domain import MeridianGrid
from .errors import EigenFailureError, IndefiniteOperatorError, UndefinedQuotientError
from .nonlinearity import Nonlinearity
from .solver import AxisymOperator, Field, derivative_field

TOL_EIG_DEFAULT = 1e-8
MAX_EIG_ITER = 200


@dataclass
class StabilityReport:
    """First eigenpair of -Lap - f_u, and `stable`, the verdict it certifies."""

    lambda1: float
    eigenfield: Field
    iterations: int
    residual: float
    shift: float = 0.0
    single_signed: bool = True

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


def _fprime_field(grid: MeridianGrid, nl: Nonlinearity, u: Field) -> np.ndarray:
    return np.where(grid.inside, nl.eval_du(grid.R, grid.Z, u.values), 0.0)


def rayleigh_quotient(grid: MeridianGrid, n: int, u: Field, nl: Nonlinearity,
                      phi: Field) -> float:
    """(sum w |grad phi|^2 - sum w f_u phi^2) / (sum w phi^2).

    Gradients are the node-sampled derivative fields (zero-extended outside
    the domain), w the axisymmetric volume weight. Raises for phi == 0.
    """
    op = AxisymOperator(grid, n)
    pv = np.where(grid.inside, phi.values, 0.0)
    denom = op.dot(pv, pv)
    if denom == 0.0:
        raise UndefinedQuotientError("Rayleigh quotient of the zero field")
    dr = derivative_field(phi, "r").values
    dz = derivative_field(phi, "z").values
    grad2 = op.dot(dr, dr) + op.dot(dz, dz)
    fp = _fprime_field(grid, nl, u)
    return (grad2 - op.dot(fp * pv, pv)) / denom


def smallest_eigenvalue(grid: MeridianGrid, n: int, u: Field, nl: Nonlinearity,
                        tol_eig: float = TOL_EIG_DEFAULT,
                        subdomain: str | None = None,
                        phi0: Field | None = None,
                        op: AxisymOperator | None = None) -> StabilityReport:
    """Inverse power iteration for the first eigenvalue of -Lap - f_u.

    `subdomain` of 'z>0' masks the grid at the equatorial plane with a
    Dirichlet line (reusing all stencils), which is how the eigenvalue on
    the reflection half-domain is estimated. The reported lambda1 is
    the operator Rayleigh quotient of the last iterate, and its residual
    ||(-Lap - f_u) phi - lambda1 phi|| must fall to `tol_eig * max(1, |lambda1|)`
    within MAX_EIG_ITER steps, or EigenFailureError is raised. `op`, when
    given, is the full-domain operator of (grid, n) to factor; it cannot
    be combined with a subdomain. The shift rule is the module's;
    when its fallback factor fails too, EigenFailureError names the shift.
    """
    active = None
    if subdomain == "z>0":
        active = np.broadcast_to((grid.zs > 0.0)[:, None], grid.inside.shape)
    elif subdomain is not None:
        raise ValueError("subdomain must be None or 'z>0'")
    if op is not None and subdomain is not None:
        raise ValueError("op is a full-domain operator; a subdomain builds its own")

    op = op or AxisymOperator(grid, n, active=active)
    c = np.where(op.active, _fprime_field(grid, nl, u), 0.0)

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
        if residual <= tol_eig * max(1.0, abs(lam_op)):
            break

    if residual > tol_eig * max(1.0, abs(lam_op)):
        raise EigenFailureError(
            f"inverse iteration stalled at residual {residual:.3g} after {iterations} steps")

    # First eigenfunction: orient positive and record single-signedness.
    if np.sum(phi[op.active]) < 0.0:
        phi = -phi
    vals = phi[op.active]
    single_signed = bool(vals.min() * vals.max() > 0.0)

    eigenfield = Field(grid, np.where(op.active, phi, 0.0), n)
    return StabilityReport(
        lambda1=lam_op, eigenfield=eigenfield, iterations=iterations,
        residual=residual, shift=shift, single_signed=single_signed)
