"""Boundary-fixing diffeomorphisms of the cylinder and DN invariance
under metric pullback.

The diffeos handled here are products of a t-reparametrization and
t-dependent angular shears,

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
from .errors import GridMismatch, NonOrientationPreserving
from .grid_geometry import MetricSource, cyl_grid, sample_metric

__all__ = [
    "CylinderDiffeo",
    "identity_diffeo",
    "bump_reparam",
    "cubic_reparam",
    "bump_shear",
    "pullback_metric",
    "diffeo_invariance_gap",
]

DEFAULT_COLLAR = 0.1

# dense 1-D sample used to certify s' > 0 and collar identity at build time
_CHECK_SAMPLES = 4097


def _cubic_profile(lo: float, hi: float):
    """C^1 hump assembled from cubic smoothstep ramps: zero with zero slope
    at lo and hi, peak 1 in the middle, piecewise-polynomial inside."""
    lo, hi = float(lo), float(hi)
    if not hi > lo:
        raise ValueError("profile requires hi > lo")
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

    ``reparam`` maps a t array to ``(s(t), s'(t))``; each entry of
    ``shears`` maps t to ``(theta_k(t), theta_k'(t))`` for the angular
    axis x_k (k = 1 .. n-1, entries may be None for no shear).
    """

    n: int
    reparam: Callable[[np.ndarray], tuple]
    shears: tuple = ()
    delta: float = DEFAULT_COLLAR
    name: str = "diffeo"

    def __post_init__(self):
        if self.n < 2:
            raise NonOrientationPreserving("cylinder dimension is at least 2")
        if len(self.shears) not in (0, self.n - 1):
            raise NonOrientationPreserving(
                f"expected {self.n - 1} shear slots, got {len(self.shears)}"
            )
        t = np.linspace(0.0, 1.0, _CHECK_SAMPLES)
        s, ds = self.reparam(t)
        if abs(s[0]) > 1e-14 or abs(s[-1] - 1.0) > 1e-14:
            raise NonOrientationPreserving("s must fix the endpoints 0 and 1")
        if ds.min() <= 0.0:
            raise NonOrientationPreserving(
                f"s' reaches {ds.min():.3e}; reparametrization folds over"
            )
        collar = (t <= self.delta) | (t >= 1.0 - self.delta)
        if np.abs(s[collar] - t[collar]).max() > 1e-14:
            raise NonOrientationPreserving("s is not the identity on the collars")
        for th in self.shears:
            if th is None:
                continue
            v, _ = th(t)
            if np.abs(v[collar]).max() > 1e-14:
                raise NonOrientationPreserving("a shear does not vanish on the collars")

    def apply(self, points: np.ndarray) -> np.ndarray:
        pts = np.array(points, dtype=float, copy=True)
        # the slice below is overwritten in place, so detach t first
        t = pts[..., 0].copy()
        s, _ = self.reparam(t)
        pts[..., 0] = s
        for k, th in enumerate(self.shears):
            if th is not None:
                pts[..., 1 + k] += th(t)[0]
        return pts

    def jacobian(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        J = np.zeros(t.shape + (self.n, self.n))
        for i in range(1, self.n):
            J[..., i, i] = 1.0
        J[..., 0, 0] = self.reparam(t)[1]
        for k, th in enumerate(self.shears):
            if th is not None:
                J[..., 1 + k, 0] = th(t)[1]
        return J

    def compose(self, other: "CylinderDiffeo") -> "CylinderDiffeo":
        """self after other: (self.compose(other))(x) = self(other(x))."""
        if self.n != other.n:
            raise GridMismatch("composed diffeos live on different cylinders")
        outer, inner = self, other

        def reparam(t):
            si, dsi = inner.reparam(t)
            so, dso = outer.reparam(si)
            return so, dso * dsi

        def make_shear(k):
            th_o = outer.shears[k] if outer.shears else None
            th_i = inner.shears[k] if inner.shears else None
            if th_o is None and th_i is None:
                return None

            def shear(t):
                si, dsi = inner.reparam(t)
                v = np.zeros_like(np.asarray(t, dtype=float))
                dv = np.zeros_like(v)
                if th_i is not None:
                    vi, dvi = th_i(t)
                    v, dv = v + vi, dv + dvi
                if th_o is not None:
                    vo, dvo = th_o(si)
                    v, dv = v + vo, dv + dvo * dsi
                return v, dv

            return shear

        shears = ()
        if outer.shears or inner.shears:
            shears = tuple(make_shear(k) for k in range(self.n - 1))
        return CylinderDiffeo(
            self.n,
            reparam,
            shears,
            delta=min(outer.delta, inner.delta),
            name=f"{outer.name}*{inner.name}",
        )


def identity_diffeo(n: int, delta: float = DEFAULT_COLLAR) -> CylinderDiffeo:
    def reparam(t):
        t = np.asarray(t, dtype=float)
        return t.copy(), np.ones_like(t)

    return CylinderDiffeo(n, reparam, delta=delta, name="identity")


def _reparam_from_profile(profile, amplitude: float):
    a = float(amplitude)

    def reparam(t):
        v, dv = profile(t)
        return np.asarray(t, dtype=float) + a * v, 1.0 + a * dv

    return reparam


def bump_reparam(n: int, amplitude: float, delta: float = DEFAULT_COLLAR) -> CylinderDiffeo:
    """s(t) = t + a * bump(t) with the smooth bump supported on
    (delta, 1-delta). Orientation requires |a| below 1/max|bump'|,
    enforced at construction."""
    profile = bump_profile(delta, 1.0 - delta)
    return CylinderDiffeo(
        n,
        _reparam_from_profile(profile, amplitude),
        delta=delta,
        name=f"bump-reparam({amplitude})",
    )


def cubic_reparam(n: int, amplitude: float, delta: float = DEFAULT_COLLAR) -> CylinderDiffeo:
    """Like bump_reparam but with the piecewise-cubic hump: only C^1 at the
    collar joints, so pulled-back metrics have kinked derivatives there."""
    profile = _cubic_profile(delta, 1.0 - delta)
    return CylinderDiffeo(
        n,
        _reparam_from_profile(profile, amplitude),
        delta=delta,
        name=f"cubic-reparam({amplitude})",
    )


def bump_shear(
    n: int, axis: int, amplitude: float, delta: float = DEFAULT_COLLAR
) -> CylinderDiffeo:
    """x_axis -> x_axis + a * bump(t), other coordinates fixed. ``axis``
    counts angular coordinates starting at 1."""
    if not 1 <= axis <= n - 1:
        raise NonOrientationPreserving(f"shear axis {axis} outside 1..{n - 1}")
    profile = bump_profile(delta, 1.0 - delta)
    a = float(amplitude)

    def shear(t):
        v, dv = profile(t)
        return a * v, a * dv

    def reparam(t):
        t = np.asarray(t, dtype=float)
        return t.copy(), np.ones_like(t)

    shears = tuple(shear if k == axis - 1 else None for k in range(n - 1))
    return CylinderDiffeo(n, reparam, shears, delta=delta, name=f"shear{axis}({amplitude})")


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

    return MetricSource(g.n, func, name=f"{g.name}:{phi.name}")


def diffeo_invariance_gap(
    g: MetricSource,
    phi: CylinderDiffeo,
    gamma: str,
    sizes,
    cut: float = 2.0,
):
    """Relative gap between the low-mode DN pairing matrices of g and
    phi^* g per refinement level. Since phi fixes both boundary layers the
    continuum gap is zero and the sequence measures pure discretisation
    error.
    """
    from .dn_solver import assemble_stiffness, dn_mode_matrix, mode_gap

    gp = pullback_metric(g, phi)
    gaps = []
    for size in sizes:
        grid = cyl_grid(g.n, size)
        s1 = assemble_stiffness(sample_metric(g, grid))
        s2 = assemble_stiffness(sample_metric(gp, grid))
        B1, _ = dn_mode_matrix(s1, gamma, cut)
        B2, _ = dn_mode_matrix(s2, gamma, cut)
        gaps.append(mode_gap(B1, B2))
    return gaps
