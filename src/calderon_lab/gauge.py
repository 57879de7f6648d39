"""Boundary-fixing diffeomorphisms of the cylinder and DN invariance
under metric pullback.

The diffeos handled here are products of a t-reparametrization and
a t-dependent shear of each angular axis,

    phi(t, x) = (s(t), x + theta(t)),

with s and theta equal to the identity (resp. zero) on the collars
[0, delta] and [1-delta, 1]. That structure keeps the Jacobian
closed-form and guarantees phi restricts to the identity on both
boundary layers, so the boundary data of the Dirichlet problem is
literally unchanged and any DN difference is pure discretisation error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .analytic import bump_profile
from .dn_solver import assemble_stiffness, dn_mode_matrix, mode_gap
from .errors import GridMismatch, InfeasibleBounds, NonOrientationPreserving
from .grid_geometry import MetricSource, cyl_grid, sample_metric

DEFAULT_COLLAR = 0.1

# dense 1-D sample used to certify s' > 0 and collar identity at build time
_CHECK_SAMPLES = 4097


def _cubic_profile(lo: float, hi: float):
    """C^1 hump assembled from cubic smoothstep ramps: zero with zero slope
    at lo and hi, peak 1 in the middle, piecewise-polynomial inside."""
    lo, hi = float(lo), float(hi)
    if not hi > lo:
        raise InfeasibleBounds("profile requires hi > lo")
    width = hi - lo

    def _eval(t):
        t = np.asarray(t, dtype=float)
        z = np.clip((t - lo) / width, 0.0, 1.0)
        w = z * z * (3.0 - 2.0 * z)
        dw = 6.0 * z * (1.0 - z) / width
        inside = (t > lo) & (t < hi)
        # product of the up-ramp and its reflection, renormalised to peak 1
        out = np.where(inside, 4.0 * w * (1.0 - w), 0.0)
        dout = np.where(inside, 4.0 * dw * (1.0 - 2.0 * w), 0.0)
        return out, dout

    return _eval


@dataclass(frozen=True)
class CylinderDiffeo:
    """phi(t, x) = (s(t), x + theta(t)) with collar-fixing components.

    ``parts`` maps a t array to ``(s, s', theta, theta')``: s and s' have
    the shape of t, theta and theta' the shape ``t.shape + (n-1,)`` with
    column k - 1 shearing the angular axis x_k.
    """

    n: int
    parts: Callable[[np.ndarray], tuple]
    delta: float = DEFAULT_COLLAR

    def __post_init__(self):
        if self.n < 2:
            raise NonOrientationPreserving("cylinder dimension is at least 2")
        # a negative collar is empty, one of 1/2 or more covers the cylinder
        if not 0.0 <= self.delta < 0.5:
            raise InfeasibleBounds(f"collar delta = {self.delta} must lie in [0, 0.5)")
        t = np.linspace(0.0, 1.0, _CHECK_SAMPLES)
        s, ds, theta, _ = self.parts(t)
        if np.shape(theta) != t.shape + (self.n - 1,):
            raise NonOrientationPreserving(
                f"expected theta of shape {t.shape + (self.n - 1,)}, got {np.shape(theta)}"
            )
        # each check is written to fail on NaN
        if not (abs(s[0]) <= 1e-14 and abs(s[-1] - 1.0) <= 1e-14):
            raise NonOrientationPreserving("s must fix the endpoints 0 and 1")
        if not ds.min() > 0.0:
            raise NonOrientationPreserving(
                f"s' reaches {ds.min():.3e}; reparametrization folds over"
            )
        collar = (t <= self.delta) | (t >= 1.0 - self.delta)
        if not np.abs(s[collar] - t[collar]).max() <= 1e-14:
            raise NonOrientationPreserving("s is not the identity on the collars")
        if not np.abs(theta[collar]).max() <= 1e-14:
            raise NonOrientationPreserving("a shear does not vanish on the collars")

    def apply(self, points: np.ndarray) -> np.ndarray:
        pts = np.array(points, dtype=float, copy=True)
        s, _, theta, _ = self.parts(pts[..., 0])
        pts[..., 0] = s
        pts[..., 1:] += theta
        return pts

    def jacobian(self, t: np.ndarray) -> np.ndarray:
        _, ds, _, dtheta = self.parts(np.asarray(t, dtype=float))
        J = np.broadcast_to(np.eye(self.n), ds.shape + (self.n, self.n)).copy()
        J[..., 0, 0] = ds
        J[..., 1:, 0] = dtheta
        return J

    def compose(self, other: "CylinderDiffeo") -> "CylinderDiffeo":
        """self after other: (self.compose(other))(x) = self(other(x))."""
        if self.n != other.n:
            raise GridMismatch("composed diffeos live on different cylinders")

        def parts(t):
            si, dsi, thi, dthi = other.parts(t)
            so, dso, tho, dtho = self.parts(si)
            return so, dso * dsi, thi + tho, dthi + dtho * dsi[..., None]

        return CylinderDiffeo(self.n, parts, delta=min(self.delta, other.delta))


def _displacement(n: int, delta: float, axis: int = 0, amplitude: float = 0.0, profile=None):
    """phi(t, x) = (t, x) + amplitude * profile(t) e_axis: axis 0 moves t,
    axis k >= 1 shifts x_k; no profile gives the identity."""
    a = float(amplitude)

    def parts(t):
        t = np.asarray(t, dtype=float)
        d = np.zeros(t.shape + (n,))
        dd = np.zeros(t.shape + (n,))
        if profile is not None:
            v, dv = profile(t)
            d[..., axis], dd[..., axis] = a * v, a * dv
        return t + d[..., 0], 1.0 + dd[..., 0], d[..., 1:], dd[..., 1:]

    return CylinderDiffeo(n, parts, delta=delta)


def identity_diffeo(n: int, delta: float = DEFAULT_COLLAR) -> CylinderDiffeo:
    return _displacement(n, delta)


def bump_reparam(n: int, amplitude: float, delta: float = DEFAULT_COLLAR) -> CylinderDiffeo:
    """s(t) = t + a * bump(t) with the smooth bump supported on
    (delta, 1-delta). Orientation requires |a| below 1/max|bump'|,
    enforced at construction."""
    return _displacement(n, delta, 0, amplitude, bump_profile(delta, 1.0 - delta))


def cubic_reparam(n: int, amplitude: float, delta: float = DEFAULT_COLLAR) -> CylinderDiffeo:
    """Like bump_reparam but with the piecewise-cubic hump: only C^1 at the
    collar joints, so pulled-back metrics have kinked derivatives there."""
    return _displacement(n, delta, 0, amplitude, _cubic_profile(delta, 1.0 - delta))


def bump_shear(
    n: int, axis: int, amplitude: float, delta: float = DEFAULT_COLLAR
) -> CylinderDiffeo:
    """x_axis -> x_axis + a * bump(t), other coordinates fixed. ``axis``
    counts angular coordinates starting at 1."""
    if not 1 <= axis <= n - 1:
        raise NonOrientationPreserving(f"shear axis {axis} outside 1..{n - 1}")
    return _displacement(n, delta, axis, amplitude, bump_profile(delta, 1.0 - delta))


def pullback_metric(g: MetricSource, phi: CylinderDiffeo) -> MetricSource:
    """(phi^* g)(x) = J(x)^T g(phi(x)) J(x), J the Jacobian of phi.

    Closed-form route: the result is a new MetricSource whose evaluation
    composes the analytic pieces, so sampling it on any grid is exact up
    to roundoff.
    """
    if g.n != phi.n:
        raise GridMismatch("metric and diffeo dimensions differ")

    def func(p):
        p = np.asarray(p, dtype=float)
        G = g(phi.apply(p))
        J = phi.jacobian(p[..., 0])
        return np.einsum("...ai,...ab,...bj->...ij", J, G, J)

    return MetricSource(g.n, func)


def diffeo_invariance_gap(
    g: MetricSource,
    phi: CylinderDiffeo,
    gamma: str,
    sizes,
):
    """Relative gap between the low-mode DN pairing matrices of g and
    phi^* g per refinement level, on the modes of cut 2. Since phi fixes
    both boundary layers the continuum gap is zero and the sequence
    measures pure discretisation error.
    """
    gp = pullback_metric(g, phi)
    gaps = []
    for size in sizes:
        grid = cyl_grid(g.n, size)
        s1 = assemble_stiffness(sample_metric(g, grid))
        s2 = assemble_stiffness(sample_metric(gp, grid))
        B1, _ = dn_mode_matrix(s1, gamma, 2.0)
        B2, _ = dn_mode_matrix(s2, gamma, 2.0)
        gaps.append(mode_gap(B1, B2))
    return gaps
