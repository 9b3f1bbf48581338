"""Catalog of right-hand sides f(x, u) and their structural hypotheses.

All catalog entries are convex in u, even in x_n, depend on x' only
through r = |x'|, and are nonincreasing in r and |x_n| — the assumptions
under which the symmetry and critical-point conclusions hold. The
separable family multiplies a scalar profile phi(u) by the spatial
weight kappa(r, s) = exp(-alpha*r^2 - beta*s^2) with s = |x_n|.

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
    """A right-hand side f(r, z, u) with partial derivative evaluators.

    `conforming` marks catalog entries that satisfy every hypothesis of
    the main theorems; test-only forms (tabulated phi, manufactured
    sources) are representable but flagged non-conforming.
    """

    form: str
    params: dict = field(default_factory=dict)
    x_dependent: bool = False
    conforming: bool = True
    _f: Callable = field(repr=False, default=None)
    _fu: Callable = field(repr=False, default=None)
    _fr: Callable = field(repr=False, default=None)
    _fz: Callable = field(repr=False, default=None)

    def eval(self, r, z, u):
        """f at radial coordinate r, axial coordinate z, value u.

        Broadcasts over any mix of scalars and arrays.
        """
        r, z, u = (np.asarray(v, float) for v in (r, z, u))
        out = self._f(r, z, u)
        return np.broadcast_to(out, np.broadcast(r, z, u).shape)

    def eval_du(self, r, z, u):
        """Partial derivative of f with respect to u."""
        r, z, u = (np.asarray(v, float) for v in (r, z, u))
        out = self._fu(r, z, u)
        return np.broadcast_to(out, np.broadcast(r, z, u).shape)

    def eval_dr(self, r, z, u):
        """Spatial partial in the radial direction (zero unless x-dependent)."""
        if self._fr is None:
            return np.zeros(np.broadcast(r, z, u).shape)
        return self._fr(np.asarray(r, float), np.asarray(z, float), np.asarray(u, float))

    def eval_dz(self, r, z, u):
        """Spatial partial in the axial direction (zero unless x-dependent)."""
        if self._fz is None:
            return np.zeros(np.broadcast(r, z, u).shape)
        return self._fz(np.asarray(r, float), np.asarray(z, float), np.asarray(u, float))

    @property
    def positive_at_zero(self) -> bool:
        """f(., 0) > 0 guarantees positivity of nontrivial solutions."""
        return float(self.eval(0.0, 0.0, 0.0)) > 0.0


def constant(c: float) -> Nonlinearity:
    """Torsion-type source f = c."""
    c = float(c)
    return Nonlinearity(
        "constant", {"c": c},
        _f=lambda r, z, u: np.full(np.broadcast(r, z, u).shape, c),
        _fu=lambda r, z, u: np.zeros(np.broadcast(r, z, u).shape))


def affine(lam_hat: float, c: float) -> Nonlinearity:
    """Linear source f = lam_hat*u + c."""
    lam_hat, c = float(lam_hat), float(c)
    return Nonlinearity(
        "affine", {"lambda": lam_hat, "c": c},
        _f=lambda r, z, u: lam_hat * u + c,
        _fu=lambda r, z, u: np.full(np.broadcast(r, z, u).shape, lam_hat))


def gelfand(lam: float) -> Nonlinearity:
    """Exponential source f = lam * e^u (minimal stable branch for small lam)."""
    lam = float(lam)
    if lam <= 0:
        raise ValueError("gelfand lambda must be positive")
    return Nonlinearity(
        "gelfand", {"lambda": lam},
        _f=lambda r, z, u: lam * _exp(u),
        _fu=lambda r, z, u: lam * _exp(u))


def power(lam: float, p: float) -> Nonlinearity:
    """Source f = lam * (1 + u)^p with p >= 1, so f(., 0) = lam > 0.

    Below u = 0 the evaluator continues linearly with matching slope; Newton
    transients that undershoot stay finite and the extension is still convex.
    """
    lam, p = float(lam), float(p)
    if lam <= 0 or p < 1:
        raise ValueError("power form needs lam > 0 and p >= 1")

    def f(r, z, u):
        pos = np.maximum(u, 0.0)
        vals = lam * (1.0 + pos) ** p
        return np.where(u >= 0, vals, lam * (1.0 + p * u))

    def fu(r, z, u):
        pos = np.maximum(u, 0.0)
        vals = lam * p * (1.0 + pos) ** (p - 1.0)
        return np.where(u >= 0, vals, lam * p)

    return Nonlinearity("power", {"lambda": lam, "p": p}, _f=f, _fu=fu)


def separable(alpha: float, beta: float, phi: Nonlinearity) -> Nonlinearity:
    """Spatially weighted source f = exp(-alpha*r^2 - beta*z^2) * phi(u).

    alpha, beta >= 0 keep the weight nonincreasing in r and |x_n|. The
    weight uses z^2, which is exactly even in z.
    """
    alpha, beta = float(alpha), float(beta)
    if alpha < 0 or beta < 0:
        raise ValueError("separable weights need alpha, beta >= 0")
    if phi.x_dependent:
        raise ValueError("phi must be a scalar (x-independent) nonlinearity")

    def kappa(r, z):
        return np.exp(-alpha * r * r - beta * z * z)

    return Nonlinearity(
        "separable",
        {"alpha": alpha, "beta": beta, "phi": phi.form, **{f"phi_{k}": v for k, v in phi.params.items()}},
        x_dependent=True,
        conforming=phi.conforming,
        _f=lambda r, z, u: kappa(r, z) * phi.eval(r, z, u),
        _fu=lambda r, z, u: kappa(r, z) * phi.eval_du(r, z, u),
        _fr=lambda r, z, u: -2.0 * alpha * r * kappa(r, z) * phi.eval(r, z, u),
        _fz=lambda r, z, u: -2.0 * beta * z * kappa(r, z) * phi.eval(r, z, u))


def tabulated_phi(u_knots, phi_values) -> Nonlinearity:
    """Scalar phi(u) interpolated through knots; for negative testing only.

    Carries no convexity guarantee and is flagged non-conforming so the
    hypothesis checker can demonstrate failures.
    """
    u_knots = np.asarray(u_knots, float)
    phi_values = np.asarray(phi_values, float)
    # Imported here, the one use: keeps scipy.interpolate off the import path.
    from scipy.interpolate import PchipInterpolator

    interp = PchipInterpolator(u_knots, phi_values, extrapolate=True)
    dinterp = interp.derivative()
    return Nonlinearity(
        "tabulated-phi", {"knots": tuple(u_knots)},
        conforming=False,
        _f=lambda r, z, u: interp(u) * np.ones(np.broadcast(r, z, u).shape),
        _fu=lambda r, z, u: dinterp(u) * np.ones(np.broadcast(r, z, u).shape))


def manufactured_source(F: Callable, Fr: Callable = None, Fz: Callable = None) -> Nonlinearity:
    """u-independent source f(r, z) with analytic spatial partials.

    Used by manufactured-solution calibration; not a catalog entry.
    """
    return Nonlinearity(
        "source", {}, x_dependent=True, conforming=False,
        _f=lambda r, z, u: F(r, z) * np.ones(np.broadcast(r, z, u).shape),
        _fu=lambda r, z, u: np.zeros(np.broadcast(r, z, u).shape),
        _fr=None if Fr is None else (lambda r, z, u: Fr(r, z) * np.ones(np.broadcast(r, z, u).shape)),
        _fz=None if Fz is None else (lambda r, z, u: Fz(r, z) * np.ones(np.broadcast(r, z, u).shape)))


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
