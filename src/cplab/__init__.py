"""cplab: numerical laboratory for critical points of stable solutions.

Computes positive stable solutions of -Lap u = f(x, u) with zero
Dirichlet data on simple rotationally symmetric domains, certifies
stability through the first eigenvalue of the linearized operator, and
verifies symmetry, monotonicity, the moving-plane property, and the
uniqueness and non-degeneracy of the critical point — directly on the
target domain and along the explicit homotopy from a ball to it.
"""

from .continuation import ContinuationRecord, run_homotopy, warm_start_transfer
from .domain import (MeridianDomain, MeridianGrid, ProfileFunction, ball, build_grid,
                     polynomial_bump, spheroid, tabulated, tabulated_from_file,
                     validate_simple_domain)
from .morse import Census, CriticalPoint, classify, find_critical_points, hessian_at
from .nonlinearity import (Nonlinearity, affine, check_hypotheses, constant,
                           gelfand, power, separable, tabulated_phi)
from .solver import AxisymOperator, Field, SolveReport, derivative_field, newton_solve
from .stability import StabilityReport, rayleigh_quotient, smallest_eigenvalue
from .verify import (VerificationReport, check_axial_symmetry, check_monotonicity,
                     derivative_pde_residual, moving_plane_check, run_verification,
                     uniqueness_multistart)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
