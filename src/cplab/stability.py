"""Stability certification: first eigenvalue of the linearized operator.

A solution u is stable when the first Dirichlet eigenvalue of
-Lap - f_u(., u) on the domain is positive, equivalently when the
quadratic form

    (integral |grad phi|^2 - integral f_u(., u) phi^2) / integral phi^2

is positive for every nonzero test function. The quotient is evaluated
with the axisymmetric volume weight r^(n-2) (the angular measure factor
cancels). The smallest eigenvalue comes from shifted inverse power
iteration: the operator, shifted by a Gershgorin bound, is factored once
and every iteration back-solves with that factor. Pivots that show it is
not positive definite double the shift for a fresh factorization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import MeridianGrid
from .errors import EigenFailureError, IndefiniteOperatorError, UndefinedQuotientError
from .nonlinearity import Nonlinearity
from .solver import AxisymOperator, Field, derivative_field

TOL_EIG_DEFAULT = 1e-8
MAX_EIG_ITER_DEFAULT = 200


@dataclass
class StabilityReport:
    lambda1: float
    eigenfield: Field
    iterations: int
    residual: float
    stable: bool
    shift: float = 0.0
    single_signed: bool = True

    @property
    def margin(self) -> float:
        """Certification margin: lambda1 must exceed 10x the eigen residual."""
        return 10.0 * self.residual


def _fprime_field(grid: MeridianGrid, nl: Nonlinearity, u: Field) -> np.ndarray:
    Z, R = np.meshgrid(grid.zs, grid.rs, indexing="ij")
    return np.where(grid.inside, nl.eval_du(R, Z, u.values), 0.0)


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
                        max_iter: int = MAX_EIG_ITER_DEFAULT,
                        subdomain: str | None = None,
                        phi0: Field | None = None,
                        shift: float | None = None) -> StabilityReport:
    """Shifted inverse power iteration for the first eigenvalue of -Lap - f_u.

    `subdomain` of 'z>0' or 'z<0' masks the grid at the equatorial plane
    with a Dirichlet line (reusing all stencils), which is how eigenvalues
    on the reflection half-domains are estimated. Residual control uses the
    operator Rayleigh quotient; the reported lambda1 is the variational
    quotient of the converged eigenfunction.
    """
    active = None
    if subdomain == "z>0":
        active = np.broadcast_to((grid.zs > 0.0)[:, None], grid.inside.shape)
    elif subdomain == "z<0":
        active = np.broadcast_to((grid.zs < 0.0)[:, None], grid.inside.shape)
    elif subdomain is not None:
        raise ValueError("subdomain must be None, 'z>0' or 'z<0'")

    op = AxisymOperator(grid, n, active=active)
    c = np.where(op.active, _fprime_field(grid, nl, u), 0.0)

    floor = op.gershgorin_floor(c)
    if shift is None:
        shift = max(0.0, -floor)
    elif shift < -floor:
        raise ValueError(f"requested shift {shift:g} does not make the "
                         f"operator provably positive definite (need >= {-floor:g})")

    phi = np.where(op.active, 1.0, 0.0) if phi0 is None else np.where(op.active, phi0.values, 0.0)
    nrm = op.norm(phi)
    if nrm == 0.0:
        raise UndefinedQuotientError("empty active set for eigen iteration")
    phi = phi / nrm

    lam_op = None
    residual = np.inf
    iterations = 0
    for attempt in range(3):
        try:
            lu = op.factor(c, shift)
            for _ in range(max_iter):
                x0 = None if lam_op is None else phi / max(lam_op + shift, 1e-30)
                x = lu.solve(phi, x0=x0)
                nrm = op.norm(x)
                if not np.isfinite(nrm) or nrm == 0.0:
                    raise IndefiniteOperatorError("inverse iteration produced a null vector")
                phi = x / nrm
                Lphi = op.apply(phi, c, 0.0)
                lam_op = op.dot(phi, Lphi)
                residual = op.norm(Lphi - lam_op * phi)
                iterations += 1
                if residual <= tol_eig * max(1.0, abs(lam_op)):
                    break
            break
        except IndefiniteOperatorError:
            if attempt == 2:
                raise EigenFailureError(
                    f"eigen solve failed after shift retries (last shift {shift:.3g})")
            shift = 2.0 * shift + max(1.0, abs(floor))
            lam_op = None

    if residual > tol_eig * max(1.0, abs(lam_op)):
        raise EigenFailureError(
            f"inverse iteration stalled at residual {residual:.3g} after {iterations} steps")

    # First eigenfunction: orient positive and record single-signedness.
    if np.sum(phi[op.active]) < 0.0:
        phi = -phi
    vals = phi[op.active]
    single_signed = bool(vals.min() * vals.max() > 0.0)

    eigenfield = Field(grid, np.where(op.active, phi, 0.0), n)
    lam_var = rayleigh_quotient(grid, n, u, nl, eigenfield)
    report = StabilityReport(
        lambda1=lam_var, eigenfield=eigenfield, iterations=iterations,
        residual=residual, stable=False, shift=shift, single_signed=single_signed)
    report.stable = is_stable(report)
    return report


def is_stable(report: StabilityReport, margin: float | None = None) -> bool:
    """Definition of stability: lambda1 strictly above the margin.

    The default margin is 10x the eigen residual, so coarse grids do not
    certify stability they cannot resolve. The gap between "lambda1 > 0"
    and "lambda1 > margin" is visible in the report, never hidden.
    """
    m = report.margin if margin is None else margin
    return bool(report.lambda1 > m)
