"""Catalog of right-hand sides f(r, z, u) = kappa(r, z) * phi(u).

The paper treats two kinds of semilinear problems, -Lap u = f(u) and
-Lap u = f(x, u) with f(x, .) convex. Every catalog entry is the product
of a scalar profile phi(u) and the spatial weight
kappa(r, z) = exp(-alpha*r^2 - beta*z^2): alpha = beta = 0 gives the
first kind (`constant`, `affine`, `gelfand`, `power`, `tabulated_phi`),
`separable` the second. With alpha, beta >= 0 and phi convex, f is convex
in u, even in x_n, depends on x' only through r = |x'| and is
nonincreasing in r and |x_n| — the assumptions under which the symmetry
and critical-point conclusions hold.

Evaluators are vectorized over numpy arrays. Exponentials saturate at
exp(EXP_CAP) so damped Newton sees a finite, monotone residual instead
of overflow.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

EXP_CAP = 500.0


def _exp(u):
    return np.exp(np.minimum(u, EXP_CAP))


@dataclass(frozen=True)
class Nonlinearity:
    """f(r, z, u) = kappa(r, z) * phi(u) with its partial derivatives.

    `phi` and `dphi` map u to phi(u) and phi'(u); `alpha` and `beta` are
    the weights of kappa, which is never formed when both are 0.
    """

    form: str
    phi: Callable = field(repr=False)
    dphi: Callable = field(repr=False)
    alpha: float = 0.0
    beta: float = 0.0

    def _kappa(self, r, z):
        return np.exp(-self.alpha * r * r - self.beta * z * z)

    def _weighted(self, g, r, z, u):
        r, z, u = (np.asarray(v, float) for v in (r, z, u))
        out = g(u)
        if self.alpha or self.beta:
            out = self._kappa(r, z) * out
        return np.broadcast_to(out, np.broadcast(r, z, u).shape)

    def eval(self, r, z, u):
        """f at radial coordinate r, axial coordinate z, value u.

        Broadcasts over any mix of scalars and arrays.
        """
        return self._weighted(self.phi, r, z, u)

    def eval_du(self, r, z, u):
        """Partial derivative of f with respect to u."""
        return self._weighted(self.dphi, r, z, u)

    def eval_dr(self, r, z, u):
        """Partial derivative in r: -2*alpha*r*f, zero when alpha = 0."""
        return self._spatial(self.alpha, 0, r, z, u)

    def eval_dz(self, r, z, u):
        """Partial derivative in z: -2*beta*z*f, zero when beta = 0."""
        return self._spatial(self.beta, 1, r, z, u)

    def _spatial(self, weight, axis, r, z, u):
        r, z, u = (np.asarray(v, float) for v in (r, z, u))
        shape = np.broadcast(r, z, u).shape
        if weight == 0.0:
            # Not -2*0*x*f: that is NaN wherever phi overflows.
            return np.zeros(shape)
        x = (r, z)[axis]
        return np.broadcast_to(-2.0 * weight * x * self._kappa(r, z) * self.phi(u), shape)

    @property
    def positive_at_zero(self) -> bool:
        """f(., 0) > 0 guarantees positivity of nontrivial solutions."""
        return float(self.eval(0.0, 0.0, 0.0)) > 0.0


def constant(c: float) -> Nonlinearity:
    """Torsion-type source f = c."""
    c = float(c)
    return Nonlinearity("constant", lambda u: c, lambda u: 0.0)


def affine(lam_hat: float, c: float) -> Nonlinearity:
    """Linear source f = lam_hat*u + c."""
    lam_hat, c = float(lam_hat), float(c)
    return Nonlinearity("affine", lambda u: lam_hat * u + c, lambda u: lam_hat)


def gelfand(lam: float) -> Nonlinearity:
    """Exponential source f = lam * e^u (minimal stable branch for small lam)."""
    lam = float(lam)
    if lam <= 0:
        raise ValueError("gelfand lambda must be positive")
    return Nonlinearity("gelfand", lambda u: lam * _exp(u), lambda u: lam * _exp(u))


def power(lam: float, p: float) -> Nonlinearity:
    """Source f = lam * (1 + u)^p with p >= 1, so f(., 0) = lam > 0.

    Below u = 0 the evaluator continues linearly with matching slope; Newton
    transients that undershoot stay finite and the extension is still convex.
    """
    lam, p = float(lam), float(p)
    if lam <= 0 or p < 1:
        raise ValueError("power form needs lam > 0 and p >= 1")

    def phi(u):
        pos = np.maximum(u, 0.0)
        vals = lam * (1.0 + pos) ** p
        return np.where(u >= 0, vals, lam * (1.0 + p * u))

    def dphi(u):
        pos = np.maximum(u, 0.0)
        vals = lam * p * (1.0 + pos) ** (p - 1.0)
        return np.where(u >= 0, vals, lam * p)

    return Nonlinearity("power", phi, dphi)


def separable(alpha: float, beta: float, phi: Nonlinearity) -> Nonlinearity:
    """Spatially weighted source f = exp(-alpha*r^2 - beta*z^2) * phi(u).

    alpha, beta >= 0 keep the weight nonincreasing in r and |x_n|. The
    weight uses z^2, which is exactly even in z. `phi` must be unweighted.
    """
    alpha, beta = float(alpha), float(beta)
    if alpha < 0 or beta < 0:
        raise ValueError("separable weights need alpha, beta >= 0")
    if phi.alpha or phi.beta:
        raise ValueError("phi must be a scalar (x-independent) nonlinearity")
    return Nonlinearity("separable", phi.phi, phi.dphi, alpha, beta)


def tabulated_phi(u_knots, phi_values) -> Nonlinearity:
    """Scalar phi(u) interpolated through knots; for negative testing only.

    Carries no convexity guarantee, so the hypothesis checker can
    demonstrate failures.
    """
    u_knots = np.asarray(u_knots, float)
    phi_values = np.asarray(phi_values, float)
    # Imported here, the one use: keeps scipy.interpolate off the import path.
    from scipy.interpolate import PchipInterpolator

    interp = PchipInterpolator(u_knots, phi_values, extrapolate=True)
    return Nonlinearity("tabulated-phi", interp, interp.derivative())


@dataclass
class HypothesisReport:
    """Sampled verdicts for the structural hypotheses of the theorems."""

    checks: list  # of (name, passed, detail)

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def violated(self) -> list:
        return [name for name, ok, _ in self.checks if not ok]

    def __str__(self):
        return "\n".join(f"[{'pass' if ok else 'FAIL'}] {name}: {d}"
                         for name, ok, d in self.checks)


def check_hypotheses(nl: Nonlinearity) -> HypothesisReport:
    """Sample the hypotheses: convexity in u, spatial monotonicity, evenness.

    Convexity is tested through second differences (>= -1e-10) over
    u in [0, 3]; spatial monotonicity through first differences of f in r
    and |z| over [0, 1] at u = 1, with 41 samples each.
    """
    samples = 41
    us = np.linspace(0.0, 3.0, samples)
    pts = [(0.0, 0.0), (0.5, 0.0), (0.5, 0.3)]

    worst_dd = np.inf
    for (r, z) in pts:
        vals = np.asarray(nl.eval(r, z, us), float)
        dd = vals[2:] - 2.0 * vals[1:-1] + vals[:-2]
        worst_dd = min(worst_dd, float(dd.min()))
    convex_ok = worst_dd >= -1e-10

    rs = np.linspace(0.0, 1.0, samples)
    fr = np.asarray(nl.eval(rs, 0.2, 1.0), float)
    zs = np.linspace(0.0, 1.0, samples)
    fz = np.asarray(nl.eval(0.3, zs, 1.0), float)
    tol = 1e-12 * max(1.0, np.abs(fr).max(), np.abs(fz).max())
    mono_r_ok = bool(np.all(np.diff(fr) <= tol))
    mono_z_ok = bool(np.all(np.diff(fz) <= tol))

    zprobe = np.linspace(0.0, 1.0, 17)
    even_ok = bool(np.array_equal(np.asarray(nl.eval(0.4, zprobe, 1.0)),
                                  np.asarray(nl.eval(0.4, -zprobe, 1.0))))

    checks = [
        ("convex in u", convex_ok, f"min second difference {worst_dd:.3g}"),
        ("nonincreasing in r", mono_r_ok, f"max increase {np.diff(fr).max():.3g}"),
        ("nonincreasing in |x_n|", mono_z_ok, f"max increase {np.diff(fz).max():.3g}"),
        ("even in x_n", even_ok, "bit-exact comparison"),
    ]
    return HypothesisReport(checks)
