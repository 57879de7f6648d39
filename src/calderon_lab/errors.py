"""Exception types shared across the package.

Every error raised on a validation or solver failure derives from
:class:`CalderonLabError` so callers (and the command line driver) can
distinguish computational failures from configuration mistakes.
"""

from __future__ import annotations


class CalderonLabError(Exception):
    """Base class for all package errors."""


class ConfigInvalid(CalderonLabError):
    """A configuration document failed schema or consistency checks."""


# ---------------------------------------------------------------------------
# metric / grid errors


class DimensionTooSmall(CalderonLabError):
    """An operation requires a higher cylinder dimension than supplied."""


class Asymmetric(CalderonLabError):
    """A sampled metric matrix is not symmetric at some node."""

    def __init__(self, node: tuple, defect: float):
        self.node = tuple(int(k) for k in node)
        self.defect = float(defect)
        super().__init__(
            f"metric asymmetric at node {self.node}: |g - g^T| = {self.defect:.3e}"
        )


class NonPositiveDefinite(CalderonLabError):
    """A metric node table fails its Cholesky check at some node. The
    ``eigenvalue`` payload is the node's smallest: <= 0 when the matrix is
    not positive definite, > 0 when ``sqrt(det g)`` is not finite and > 0,
    NaN when an entry is not finite."""

    def __init__(self, node: tuple, eigenvalue: float):
        self.node = tuple(int(k) for k in node)
        self.eigenvalue = lam = float(eigenvalue)
        what = ("not positive definite" if lam <= 0.0 else "sqrt(det g) not finite and > 0"
                if lam > 0.0 else "entry not finite")
        super().__init__(f"metric {what} at node {self.node}: min eigenvalue {lam:.3e}")


# ---------------------------------------------------------------------------
# solver errors


class SingularInteriorBlock(CalderonLabError):
    """The interior stiffness block is not positive definite: conjugate
    gradients broke down (``p^T A p <= 0``, the detail names the iteration
    and the value), or the dense map's block Cholesky failed or its pivot
    ratio fell below the floor (the detail names the t-layer)."""

    def __init__(self, detail: str):
        super().__init__(f"interior block not positive definite: {detail}")


class NoConvergence(CalderonLabError):
    """A linear solve did not reach the requested residual tolerance."""

    def __init__(self, residual: float, tolerance: float):
        self.residual = float(residual)
        self.tolerance = float(tolerance)
        super().__init__(
            f"solve residual {self.residual:.3e} exceeds tolerance {self.tolerance:.3e}"
        )


class ShapeMismatch(CalderonLabError):
    """Two operators or mode matrices are not comparable (different
    boundary component, incompatible cylinder or different shapes), a
    boundary component is unknown or not the one layer an operation needs,
    an array does not fit the operator applied to it, or a torus mode set
    or mode cut breaks the one mode rule (``dn_solver.check_modes``)."""


# ---------------------------------------------------------------------------
# conformal errors


class NonPositiveFactor(CalderonLabError):
    """A conformal factor is not finite and strictly positive on the grid."""


class FactorTooLarge(CalderonLabError):
    """A conformal family parameter violates its positivity floor."""


class MissingAnalyticGradient(CalderonLabError):
    """A gradient was asked of a field that carries no closed form."""


class InsufficientSamples(CalderonLabError):
    """A requested fit did not get the number of distinct sample points it needs."""


# ---------------------------------------------------------------------------
# gauge errors


class NonOrientationPreserving(CalderonLabError):
    """A cylinder diffeomorphism has a non-positive Jacobian determinant."""


# ---------------------------------------------------------------------------
# dataset errors


class MalformedContainer(CalderonLabError):
    """A dataset container is structurally invalid."""


class GridMismatch(CalderonLabError):
    """Sizes that make no cylinder grid, or a table, field, dataset, slot or
    dimension that does not fit the grid or cylinder it is used on."""


class InfeasibleBounds(CalderonLabError):
    """A dataset, synthesis or assembly input is out of range: dataset
    metadata outside the paper's ranges, an amplitude whose fit is not
    finite, a synthesis ``T`` that leaves no t-node to fit, a potential with a
    non-finite entry, a profile support (lo, hi) with hi <= lo, or a
    diffeomorphism collar width outside [0, 1/2)."""


class TrivialU(CalderonLabError):
    """An operation requires a non-trivial solution field u."""
