"""Conformal rescaling of metrics and everything that hangs off it.

For n >= 3 the package works with fourth-power scalings g -> c^4 g. The
load-bearing facts, each of which has a discrete counterpart here:

* scaling law:  -Lap_{c^4 g} u = c^{-(n+2)} (-Lap_g + q)(c^{n-2} u)
  with the potential q = c^{-(n-2)} Lap_g c^{n-2};
* an exact pointwise energy identity relating the c^4 g Dirichlet
  integrand to two g-integrands of products with c^{n-2} (both sides
  collapse to c^{2n-4} <du, dw>_g sqrt(det g));
* the weak gauge condition: c^{n-2} g-harmonic, c = 1 on the measurement
  component; with measurements on the full boundary this forces c == 1
  (global rigidity), which is why the counterexample needs rough
  coefficients.

In two dimensions the scaling that preserves the weak form is first power,
kept as a separate code path; fourth-power claims are refused at n = 2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analytic import AnalyticScalar
from .calculus import ScalarField, gradient, laplace_beltrami_pointwise
from .dn_solver import InteriorSolver, StiffnessSystem, assemble_stiffness
from .errors import (
    DimensionTooSmall,
    FactorTooLarge,
    GridMismatch,
    InsufficientSamples,
    NonPositiveFactor,
)
from .grid_geometry import GAMMA1, CylinderGrid, MetricField, spd_root_det


@dataclass(frozen=True, eq=False)
class ConformalFactor:
    """Finite, strictly positive scalar factor c on a grid of dimension
    ``n``; :meth:`power_nm2` computes c^{n-2}, the power every identity is
    algebraic in."""

    field: ScalarField
    n: int

    def __post_init__(self):
        if self.n < 2:
            raise DimensionTooSmall("conformal factors need n >= 2")
        if self.n != self.grid.n:
            raise GridMismatch(f"factor dimension {self.n} != grid dimension {self.grid.n}")
        if not (np.isfinite(self.values) & (self.values > 0.0)).all():
            raise NonPositiveFactor(f"factor not finite and > 0, min {float(self.values.min()):.3e}")

    @property
    def values(self) -> np.ndarray:
        return self.field.values

    @property
    def grid(self) -> CylinderGrid:
        return self.field.grid

    def power_nm2(self) -> ScalarField:
        """c^{n-2} as a field; carries a closed form when c does."""
        vals = self.values ** (self.n - 2)
        src = None
        if self.field.source is not None:
            src = self.field.source ** (self.n - 2)
        return ScalarField(self.grid, vals, source=src)

    @classmethod
    def from_source(cls, grid: CylinderGrid, source: AnalyticScalar, n: int) -> "ConformalFactor":
        return cls(ScalarField.from_source(grid, source), n)

    @classmethod
    def one(cls, grid: CylinderGrid, n: int) -> "ConformalFactor":
        return cls(ScalarField.constant(grid, 1.0), n)


def conformal_family(u: ScalarField, eps: float) -> ConformalFactor:
    """The one-parameter family with c^{n-2} = 1 + eps * u at n = 3, the
    dimension of the coefficient datasets, so c = 1 + eps * u.

    The value 1 + eps*u must stay >= 1/2 (the family's positivity floor).
    eps = 0 returns c identically one, exactly.
    """
    eps = float(eps)
    vals = 1.0 + eps * u.values
    lo = float(vals.min())
    if lo < 0.5:
        raise FactorTooLarge(f"1 + eps*u drops to {lo:.4f} < 1/2 at eps = {eps}")
    return ConformalFactor(ScalarField(u.grid, vals), 3)


def scale_metric(g: MetricField, c: ConformalFactor) -> MetricField:
    """Fourth-power scaling c^4 g (n >= 3 only). The :class:`MetricField`
    checks the scaled table: a factor that overflows it or its volume
    element raises ``NonPositiveDefinite``."""
    n = g.grid.n
    if n < 3:
        raise DimensionTooSmall(
            "fourth-power scaling is the n >= 3 convention; use scale_metric_2d"
        )
    if c.grid.shape != g.grid.shape:
        raise GridMismatch("factor and metric grids differ")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails the metric check
        return MetricField(g.grid, (c.values**4)[..., None, None] * g.mat)


def scale_metric_2d(g: MetricField, c: ConformalFactor) -> MetricField:
    """First-power scaling c g, the 2-D invariance convention, checked as in :func:`scale_metric`."""
    if g.grid.n != 2:
        raise GridMismatch("first-power scaling is the n = 2 convention")
    if c.grid.shape != g.grid.shape:
        raise GridMismatch("factor and metric grids differ")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails the metric check
        return MetricField(g.grid, c.values[..., None, None] * g.mat)


def conformal_potential(
    g: MetricField, c: ConformalFactor, one_sided: bool = False
) -> np.ndarray:
    """The scaling-law potential q = c^{-(n-2)} Lap_g c^{n-2} on the
    interior t-layers, where the stencil Laplacian exists: shape
    ``(num_t - 2, *num_ang)``, zero if c^{n-2} is constant. ``one_sided``
    adds the two t-boundary layers by quadratic extrapolation from the
    three adjacent ones (exact when c is constant near the ends), for a
    full node table; that needs num_t >= 5, else GridMismatch.
    """
    if one_sided and g.grid.num_t < 5:
        raise GridMismatch(f"one-sided end layers need 3 interior t-layers, got num_t = {g.grid.num_t}")
    vals = c.power_nm2().values
    q = laplace_beltrami_pointwise(g, vals) / vals[1:-1]
    if one_sided:
        q = np.concatenate([[3.0 * q[0] - 3.0 * q[1] + q[2]], q, [3.0 * q[-1] - 3.0 * q[-2] + q[-3]]])
    return q


def scaling_law_residual(g: MetricField, c: ConformalFactor, f: ScalarField) -> float:
    """Max interior defect of the discrete scaling law

        -Lap_{c^4 g} f  vs  c^{-(n+2)} ( -Lap_g + q )( c^{n-2} f ),

    with every Laplacian the same conservative stencil. Second-order small
    for smooth data; identically small when c == 1.
    """
    n = g.grid.n
    if f.grid.shape != g.grid.shape:
        raise GridMismatch("field and metric grids differ")
    g_scaled = scale_metric(g, c)
    lhs = -laplace_beltrami_pointwise(g_scaled, f.values)
    Pf = c.power_nm2().values * f.values
    q = conformal_potential(g, c)
    rhs = (c.values ** (-(n + 2)))[1:-1] * (-laplace_beltrami_pointwise(g, Pf) + q * Pf[1:-1])
    return float(np.abs(lhs - rhs).max())


def algebraic_identity_check(
    g: MetricField, c: ConformalFactor, u: ScalarField, w: ScalarField
) -> float:
    """Max nodal defect of the exact energy identity

        <du, dw>_{c^4 g} dVol_{c^4 g}
          = [ <d(Pu), d(Pw)>_g - <dP, d(P u w)>_g ] dVol_g,   P = c^{n-2}.

    All gradients are closed-form; products use the product rule, so the
    only error is floating point. Both sides equal c^{2n-4} <du,dw>_g
    sqrt(det g) pointwise; each is read as the weight form ``a^T W b``,
    W = sqrt(det g) g^{-1}, of its metric.
    """
    for name, f in (("factor", c), ("u", u), ("w", w)):
        if f.grid.shape != g.grid.shape:
            raise GridMismatch(f"{name} and metric grids differ")
    du = gradient(u)
    dw = gradient(w)
    P = c.power_nm2()
    dP = gradient(P)

    lhs = _inner(scale_metric(g, c), du, dw)

    uv, wv, Pv = u.values, w.values, P.values
    d_Pu = Pv[..., None] * du + uv[..., None] * dP
    d_Pw = Pv[..., None] * dw + wv[..., None] * dP
    d_Puw = (
        (uv * wv)[..., None] * dP
        + (Pv * wv)[..., None] * du
        + (Pv * uv)[..., None] * dw
    )
    rhs = _inner(g, d_Pu, d_Pw) - _inner(g, dP, d_Puw)
    return float(np.abs(lhs - rhs).max())


def _inner(g: MetricField, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``<a, b>_g dVol_g = a^T W b`` with W = sqrt(det g) g^{-1}, the weight."""
    return np.einsum("...ij,...i,...j->...", g.weight, a, b)


def weak_condition_residual(sys: StiffnessSystem, factors) -> list[float]:
    """How far each factor's c^{n-2} is from the weak gauge condition
    relative to a stiffness matrix: the largest test row of K c^{n-2} at
    the interior and GAMMA1 nodes, normalised by the operator's infinity
    norm, taken once for all factors, times max |c^{n-2}|."""
    grid = sys.grid
    if any(c.grid.shape != grid.shape for c in factors):
        raise GridMismatch("factor and system grids differ")
    K = sys.matrix
    k_norm = float(np.abs(K).sum(axis=1).max())
    out = []
    for c in factors:
        P = c.power_nm2().values.ravel()
        r = np.abs(K @ P)
        norm = max(k_norm * float(np.abs(P).max()), 1e-300)
        out.append(max(float(r[grid.interior_ids()].max()) / norm, float(r[grid.boundary_ids(GAMMA1)].max()) / norm))
    return out


def _bjorck_pereyra(x: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Monomial coefficients of the polynomial through (x_k, f_k), distinct
    x_k, in f's dtype (LAPACK has no longdouble solve): Bjorck-Pereyra's
    divided differences, then their expansion in powers of x, no pivoting."""
    a = f.copy()
    m = len(a) - 1
    for k in range(m):
        a[k + 1:] = (a[k + 1:] - a[k:-1]) / (x[k + 1:] - x[:m - k])
    for k in range(m - 1, -1, -1):
        a[k:-1] -= x[k] * a[k + 1:]
    return a


def volume_expansion(g: MetricField, u: ScalarField, eps_list) -> np.ndarray:
    """Coefficients p_0..p_6 of the exact degree-6 polynomial

        V(eps) = Vol_{c_eps^4 g}(M) - Vol_g(M),   c_eps^{n-2} = 1 + eps u,

    on the 3-D cylinder, interpolated in eps / max|eps| on exactly seven
    distinct eps samples (else InsufficientSamples). Volumes are measured,
    not expanded symbolically: sqrt(det(c^4 g)) is evaluated per node by
    :func:`~calderon_lab.grid_geometry.spd_root_det` and differenced
    against the base volume element before summation. The whole pipeline
    runs in extended precision; in double the Vandermonde conditioning
    leaves the coefficients dependent on the sample set at the 1e-8 level.
    ``c^4`` is two in-place squarings: ``** 4`` on longdouble calls ``powl``, 375 ns a node.
    """
    if g.grid.n != 3:
        raise DimensionTooSmall("the volume expansion argument is n = 3")
    if u.grid.shape != g.grid.shape:
        raise GridMismatch("field and metric grids differ")
    eps = np.asarray(eps_list, dtype=float).ravel().astype(np.longdouble)
    if eps.size != 7 or np.unique(eps).size != 7:
        raise InsufficientSamples(f"need 7 distinct eps samples, got {np.unique(eps).size} of {eps.size}")
    w = g.grid.quad_weights.astype(np.longdouble)
    # the packed components in float64: products with the longdouble factor
    # promote exactly, so no longdouble copy of the table is kept
    mat = g.packed
    base = spd_root_det(mat.astype(np.longdouble))
    uu = u.values.astype(np.longdouble)
    V = np.empty(7, dtype=np.longdouble)
    for k, e in enumerate(eps):
        conformal_family(u, float(e))  # range validation only
        c4 = 1 + e * uu
        np.square(np.square(c4, out=c4), out=c4)
        V[k] = np.sum((spd_root_det(c4 * mat) - base) * w)
    s = np.abs(eps).max()
    q = _bjorck_pereyra(eps / s, V)
    return np.asarray(q / s ** np.arange(7), dtype=float)


def global_rigidity_check(g: MetricField) -> float:
    """Solve the Dirichlet problem with boundary data 1 on the whole
    boundary and report max |u - 1|.

    In the continuum, full-boundary measurements force a weak-condition
    factor to be identically 1; discretely the harmonic extension of 1 is
    1 up to solver precision, which is this number.
    """
    u = np.ones(g.grid.node_count)
    InteriorSolver(assemble_stiffness(g)).extend(u)
    return float(np.abs(u - 1.0).max())
