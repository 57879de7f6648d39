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
# calculus errors


class BoundaryLayerRequested(CalderonLabError):
    """A stencil quantity was required on the t-boundary layers where the
    interior stencil is undefined and no one-sided extension was enabled."""


# ---------------------------------------------------------------------------
# solver errors


class SingularInteriorBlock(CalderonLabError):
    """The interior stiffness block is singular or numerically near-singular."""

    def __init__(self, detail: str):
        super().__init__(f"interior block singular: {detail}")


class NoConvergence(CalderonLabError):
    """A linear solve did not reach the requested residual tolerance."""

    def __init__(self, residual: float, tolerance: float):
        self.residual = float(residual)
        self.tolerance = float(tolerance)
        super().__init__(
            f"solve residual {self.residual:.3e} exceeds tolerance {self.tolerance:.3e}"
        )


class ShapeMismatch(CalderonLabError):
    """Two operators are not comparable (different boundary component or
    incompatible cylinder), or an array does not fit the operator applied
    to it."""


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
    """Dataset arrays do not match the declared grid, or a dataset does not
    match the grid an operation was asked to use."""


class InfeasibleBounds(CalderonLabError):
    """A dataset or synthesis parameter is out of range: dataset metadata
    outside the paper's ranges, a synthesis mode that aliases on the grid,
    or an amplitude whose fit is not finite."""


class TrivialU(CalderonLabError):
    """An operation requires a non-trivial solution field u."""
