"""Discrete calculus on cylinder grids.

Gradients are closed-form only: a field without a closed form has none.
The divergence-form operator

    f  |->  sum_i d_i ( A^{ij} d_j f )

uses the conservative flux stencil: coefficients are averaged to cell
midpoints, never differenced, so a coefficient that is merely continuous
in t (or rougher) is acceptable wherever the flux direction is angular.
Divergence values exist at interior t-layers only, and the stencil returns
just those: a table of shape ``(num_t - 2, *num_ang)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np
import scipy.sparse as sp

from .analytic import AnalyticScalar, constant as analytic_constant
from .errors import GridMismatch, MissingAnalyticGradient
from .grid_geometry import CylinderGrid, MetricField


@dataclass(frozen=True, eq=False)
class ScalarField:
    """Node table of scalars, optionally backed by a closed form."""

    grid: CylinderGrid
    values: np.ndarray
    source: AnalyticScalar | None = None

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != self.grid.shape:
            raise GridMismatch(f"values shape {v.shape}, expected {self.grid.shape}")
        object.__setattr__(self, "values", v)

    @classmethod
    def from_source(cls, grid: CylinderGrid, source: AnalyticScalar) -> "ScalarField":
        if source.dim != grid.n:
            raise GridMismatch(f"source dim {source.dim} != grid dim {grid.n}")
        return cls(grid, source.value(grid.points), source=source)

    @classmethod
    def constant(cls, grid: CylinderGrid, a: float) -> "ScalarField":
        return cls(grid, np.full(grid.shape, float(a)), source=analytic_constant(a, grid.n))


def _centered_diff(values: np.ndarray, grid: CylinderGrid, axis: int) -> np.ndarray:
    """Second-order first derivative along one axis.

    Periodic wrap on angular axes. On the t-axis, centered differences in
    the interior and zeros in the two end rows, which no output reads: a
    t-derivative enters only angular fluxes, whose end t-layers are dropped.
    """
    h = grid.spacings[axis]
    if axis == 0:
        out = np.zeros_like(values)
        out[1:-1] = (values[2:] - values[:-2]) / (2.0 * h)
        return out
    return (np.roll(values, -1, axis) - np.roll(values, 1, axis)) / (2.0 * h)


def gradient(f: ScalarField) -> np.ndarray:
    """The exact gradient components of a field with a closed form, shape
    ``(*grid.shape, n)``."""
    if f.source is None:
        raise MissingAnalyticGradient("the field needs a closed-form gradient")
    return f.source.gradient(f.grid.points)


def _field_values(f: np.ndarray, grid: CylinderGrid) -> np.ndarray:
    """The node table ``f`` as floats, checked against ``grid``."""
    values = np.asarray(f, dtype=float)
    if values.shape != grid.shape:
        raise GridMismatch(f"field shape {values.shape}, expected {grid.shape}")
    return values


def integrate_volume(f: ScalarField, g: MetricField) -> float:
    """Quadrature of f against the metric volume element sqrt(det g)."""
    if f.grid.shape != g.grid.shape:
        raise GridMismatch(f"field shape {f.grid.shape}, expected {g.grid.shape}")
    return float(np.sum(f.values * g.sqrt_det * g.grid.quad_weights))


def _half_shift(values: np.ndarray, axis: int, periodic: bool) -> np.ndarray:
    """Average of a node table onto the half-nodes in one direction.

    For a periodic axis the result keeps the axis length (half-node k sits
    between nodes k and k+1, wrapping); for the t-axis it is one shorter.
    """
    if periodic:
        return 0.5 * (values + np.roll(values, -1, axis))
    lo = [slice(None)] * values.ndim
    hi = [slice(None)] * values.ndim
    lo[axis] = slice(None, -1)
    hi[axis] = slice(1, None)
    return 0.5 * (values[tuple(lo)] + values[tuple(hi)])


def _flux_factors(values: np.ndarray, grid: CylinderGrid, i: int) -> list:
    """The n factors that multiply the half-shifted weights W^{i0..i(n-1)}
    in the flux along direction i, on the half-nodes of direction i: the
    two-point difference along i for j == i, else the half-shifted centered
    derivative along j."""
    periodic = i > 0
    h = grid.spacings[i]
    diff = (np.roll(values, -1, i) - values) / h if periodic else (values[1:] - values[:-1]) / h
    return [diff if j == i else _half_shift(_centered_diff(values, grid, j), i, periodic) for j in range(grid.n)]


def divergence_form_apply(
    weight: np.ndarray, f: np.ndarray, grid: CylinderGrid
) -> np.ndarray:
    """Conservative flux stencil for sum_i d_i ( W^{ij} d_j f ).

    ``weight`` is a node table of symmetric matrices ``(*shape, n, n)``.
    Fluxes live on half-nodes: the weight and (for cross terms) the
    centered tangential derivative are averaged onto the half-node, the
    derivative along the flux direction is the natural two-point
    difference. Returns the interior t-layers, shape ``(num_t - 2, *num_ang)``.
    """
    values = _field_values(f, grid)
    n = grid.n
    if weight.shape != grid.shape + (n, n):
        raise GridMismatch(f"weight shape {weight.shape}, expected {grid.shape + (n, n)}")
    h = grid.spacings

    out = np.zeros((grid.num_t - 2, *grid.num_ang))
    for i in range(n):
        periodic = i > 0
        factors = _flux_factors(values, grid, i)
        # flux_i on half-nodes of direction i
        flux = _half_shift(weight[..., i, i], i, periodic) * factors[i]
        for j in range(n):
            if j != i:
                flux = flux + _half_shift(weight[..., i, j], i, periodic) * factors[j]
        if periodic:
            flux = flux[1:-1]
            out += (flux - np.roll(flux, 1, i)) / h[i]
        else:
            out += (flux[1:] - flux[:-1]) / h[i]
    return out


def divergence_form_jacobian(
    f: np.ndarray, grid: CylinderGrid, i: int, j: int
) -> sp.csr_matrix:
    """Derivative of :func:`divergence_form_apply` with respect to the
    weight slot W^{ij} (the table ``weight[..., i, j]`` flattened), for an
    angular direction i.

    The stencil is linear in the weight, so this is the exact sparse
    product ``Div_i diag(factor_ij) Half_i``: half-shift onto the
    half-nodes of direction i, the flux factor of slot (i, j), periodic
    difference back to the nodes. Shape (interior nodes, nodes).
    """
    values = _field_values(f, grid)
    if not 0 < i < grid.n or not 0 <= j < grid.n:
        raise GridMismatch(f"slot ({i}, {j}) is not an angular flux slot of an n = {grid.n} grid")
    L = grid.shape[i]
    nxt = sp.csr_matrix((np.ones(L), (np.arange(L), (np.arange(L) + 1) % L)), shape=(L, L))
    # nodes are numbered row-major, so an operator along axis i is a
    # Kronecker product with identities on the other axes
    eyes = [sp.identity(N, format="csr") for N in grid.shape]
    half = reduce(sp.kron, eyes[:i] + [0.5 * (eyes[i] + nxt)] + eyes[i + 1 :])
    div = reduce(sp.kron, eyes[:i] + [(eyes[i] - nxt.T) / grid.spacings[i]] + eyes[i + 1 :])
    J = (div @ sp.diags(_flux_factors(values, grid, i)[j].ravel()) @ half).tocsr()
    layer = grid.node_count // grid.num_t
    return J[layer:-layer]


def laplace_beltrami_pointwise(g: MetricField, f: np.ndarray) -> np.ndarray:
    """Metric Laplacian via the divergence form with weight
    sqrt(det g) * g^{-1}, divided node-wise by sqrt(det g), on the interior
    t-layers.
    """
    return divergence_form_apply(g.weight, f, g.grid) / g.sqrt_det[1:-1]
