"""Independent oracles shared by the tests.

These deliberately avoid the package's discretization machinery: the
radial shooting oracle integrates the reduced ODE with an adaptive
integrator, and the exact solutions are closed-form. Frozen reference
values were computed with these same routines; the tests re-derive them
so a regression in the oracle itself is caught.
"""

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq
from scipy.special import jv

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
