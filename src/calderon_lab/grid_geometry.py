"""Tensor grids on the cylinder [0,1] x T^{n-1} and metric fields on them.

The t-axis carries a uniform grid including both endpoints; every angular
axis carries a uniform periodic grid on [0, 2*pi) without a duplicate seam
node. Nodes are ordered lexicographically (t-major, C order), so the two
boundary layers are the first and last contiguous blocks of node ids.

Metrics live either as closed-form sources (evaluate anywhere) or as node
tables whose sqrt(det g) (:func:`spd_root_det`, cached) and weight
sqrt(det g) g^{-1} (:func:`spd_weight`, built on each read) come from one
unrolled Cholesky over packed symmetric components, the package's one
factorisation of SPD tables, which also validates them. The divergence-form
coefficient family with a one-dimensional Hoelder-rough part is assembled
into 3-D and n-D metrics here; the defining algebraic property is that the
metric's weight matrix sqrt(det g) * g^{-1} reproduces the coefficient
matrix exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from typing import Callable

import numpy as np

from .analytic import trig_sum
from .errors import (
    Asymmetric,
    DimensionTooSmall,
    GridMismatch,
    InfeasibleBounds,
    NonPositiveDefinite,
    ShapeMismatch,
)

TWO_PI = 2.0 * np.pi

GAMMA0 = "gamma0"
GAMMA1 = "gamma1"
FULL_BOUNDARY = "full"
BOUNDARY_NAMES = (GAMMA0, GAMMA1, FULL_BOUNDARY)


@dataclass(frozen=True)
class CylinderGrid:
    """Uniform tensor grid on [0,1] x T^{n-1}.

    Parameters
    ----------
    n : int
        Ambient dimension, n >= 2.
    num_t : int
        Nodes along t including both endpoints, >= 3.
    num_ang : tuple of int
        Nodes per angular axis, each >= 4 (periodic, no duplicate seam).
    """

    n: int
    num_t: int
    num_ang: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "num_ang", tuple(int(m) for m in self.num_ang))
        if self.n < 2:
            raise DimensionTooSmall(f"cylinder dimension must be >= 2, got {self.n}")
        if len(self.num_ang) != self.n - 1:
            raise GridMismatch(
                f"expected {self.n - 1} angular sizes, got {len(self.num_ang)}"
            )
        if self.num_t < 3:
            raise GridMismatch(f"need at least 3 t-nodes, got {self.num_t}")
        if any(m < 4 for m in self.num_ang):
            raise GridMismatch(f"need at least 4 nodes per angular axis: {self.num_ang}")

    # -- basic geometry -------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.num_t, *self.num_ang)

    @property
    def node_count(self) -> int:
        return math.prod(self.shape)  # exact: no int64 wrap on huge shapes

    @property
    def layer_count(self) -> int:
        """Nodes in one t-layer."""
        return math.prod(self.num_ang)

    @property
    def h_t(self) -> float:
        return 1.0 / (self.num_t - 1)

    @property
    def h_ang(self) -> tuple[float, ...]:
        return tuple(TWO_PI / m for m in self.num_ang)

    @property
    def spacings(self) -> np.ndarray:
        return np.array([self.h_t, *self.h_ang])

    def axes(self) -> list[np.ndarray]:
        t = np.linspace(0.0, 1.0, self.num_t)
        angs = [TWO_PI * np.arange(m) / m for m in self.num_ang]
        return [t, *angs]

    @cached_property
    def points(self) -> np.ndarray:
        """Node coordinates, shape ``(*shape, n)``."""
        mesh = np.meshgrid(*self.axes(), indexing="ij")
        return np.stack(mesh, axis=-1)

    @cached_property
    def quad_weights(self) -> np.ndarray:
        """Trapezoid-in-t, uniform-per-angular-axis quadrature weights."""
        wt = np.full(self.num_t, self.h_t)
        wt[0] *= 0.5
        wt[-1] *= 0.5
        w = wt
        for m in self.num_ang:
            w = np.multiply.outer(w, np.full(m, TWO_PI / m))
        return w

    # -- node id sets -----------------------------------------------------

    def boundary_ids(self, gamma: str) -> np.ndarray:
        """Flat node ids of a boundary component, ascending."""
        P = self.layer_count
        if gamma == GAMMA0:
            return np.arange(P)
        if gamma == GAMMA1:
            return np.arange((self.num_t - 1) * P, self.num_t * P)
        if gamma == FULL_BOUNDARY:
            return np.concatenate([self.boundary_ids(GAMMA0), self.boundary_ids(GAMMA1)])
        raise ShapeMismatch(f"unknown boundary component {gamma!r}")

    def interior_ids(self) -> np.ndarray:
        P = self.layer_count
        return np.arange(P, (self.num_t - 1) * P)

    # -- coarsening ------------------------------------------------------

    def coarsen(self, stride: int) -> "CylinderGrid":
        s = int(stride)
        if s < 1 or (self.num_t - 1) % s or any(m % s for m in self.num_ang):
            raise GridMismatch(f"stride {s} is not a positive divisor of grid {self.shape}")
        return CylinderGrid(self.n, (self.num_t - 1) // s + 1, tuple(m // s for m in self.num_ang))


def cyl_grid(n: int, size: int) -> CylinderGrid:
    """Convenience builder: ``size`` t-nodes, ``size - 1`` nodes per angle.

    A 'size 9' grid for n=3 is 9 x 8 x 8: halving h in every direction
    maps size 9 -> 17 -> 33, and the even angular count keeps dyadic
    coarsening exact.
    """
    return CylinderGrid(n, size, tuple([size - 1] * (n - 1)))


# ---------------------------------------------------------------------------
# metric sources and sampled metric fields


@dataclass(frozen=True)
class MetricSource:
    """Closed-form metric: evaluate a symmetric matrix at arbitrary points.

    Parameters
    ----------
    n : int
        Dimension.
    func : callable
        Maps points ``(..., n)`` to matrices ``(..., n, n)``.
    """

    n: int
    func: Callable[[np.ndarray], np.ndarray]

    def __call__(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        return np.asarray(self.func(pts), dtype=float)


def flat_metric(n: int) -> MetricSource:
    def func(p):
        out = np.zeros(p.shape[:-1] + (n, n))
        idx = np.arange(n)
        out[..., idx, idx] = 1.0
        return out

    return MetricSource(n, func)


def random_trig_metric(
    n: int, seed: int, amplitude: float | None = None, max_mode: int = 2
) -> MetricSource:
    """Identity plus a small random trigonometric symmetric perturbation.

    The perturbation entries are bounded by ``amplitude`` in absolute value,
    so eigenvalues stay within ``1 +- n * amplitude``. The default keeps the
    spectrum inside [0.6, 1.4].
    """
    if amplitude is None:
        amplitude = 0.4 / n
    rng = np.random.default_rng(seed)
    entries = {}
    for i in range(n):
        for j in range(i, n):
            entries[(i, j)] = trig_sum(n, rng, terms=2, amplitude=amplitude, max_mode=max_mode)

    def func(p):
        out = np.zeros(p.shape[:-1] + (n, n))
        for (i, j), expr in entries.items():
            v = expr.value(p)
            out[..., i, j] += v
            if i != j:
                out[..., j, i] += v
        idx = np.arange(n)
        out[..., idx, idx] += 1.0
        return out

    return MetricSource(n, func)


@lru_cache(maxsize=8)
def packed_order(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The packed component order of :attr:`MetricField.packed` and the SPD
    kernel, read-only and built once per dimension: the rows and columns
    ``np.triu_indices(n)`` of the unique entries ``i <= j`` of a symmetric
    n x n matrix, and the (n, n) table of where entry ``(i, j)`` sits,
    symmetric, so both triangles read the same entry."""
    iu, ju = np.triu_indices(n)
    pos = np.empty((n, n), dtype=np.intp)
    pos[iu, ju] = pos[ju, iu] = np.arange(iu.size)
    for arr in (iu, ju, pos):
        arr.flags.writeable = False
    return iu, ju, pos


def _dot(pairs, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """The sum of ``x * y`` over the pairs, left to right, into ``out``."""
    (x, y), *rest = pairs
    np.multiply(x, y, out=out)
    for x, y in rest:
        np.add(out, np.multiply(x, y, out=tmp), out=out)
    return out


def _cholesky(a: np.ndarray, root_det: np.ndarray, scratch: np.ndarray) -> list:
    """Overwrite a packed batch (see :func:`spd_weight`) by its lower
    Cholesky factor ``a = L L^T``, unrolled over the component arrays, and
    put its diagonal product ``sqrt(det a)`` in ``root_det``; dot products
    run in the two ``scratch`` rows. Returns the views ``c[i][j]`` of the
    slot of entry ``(i, j)``, which holds ``L[max(i, j), min(i, j)]``."""
    n = (math.isqrt(8 * len(a) + 1) - 1) // 2
    pos = packed_order(n)[2]
    c = [[a[pos[i, j], ...] for j in range(n)] for i in range(n)]
    for j in range(n):
        for i in range(j, n):
            if j:
                np.subtract(c[i][j], _dot([(c[i][k], c[j][k]) for k in range(j)], *scratch), out=c[i][j])
            if i == j:
                np.sqrt(c[j][j], out=c[j][j])
            else:
                np.divide(c[i][j], c[j][j], out=c[i][j])
    np.copyto(root_det, c[0][0])
    for k in range(1, n):
        np.multiply(root_det, c[k][k], out=root_det)
    return c


def spd_root_det(a: np.ndarray) -> np.ndarray:
    """``sqrt(det a)`` for a packed batch of symmetric positive definite
    matrices (see :func:`spd_weight`): the product of the Cholesky
    diagonal, with no inverse formed. ``a`` is overwritten by the factor.
    A pivot <= 0 makes it NaN or 0 there."""
    root_det = np.empty(a.shape[1:], dtype=a.dtype)
    _cholesky(a, root_det, np.empty((2, *a.shape[1:]), dtype=a.dtype))
    return root_det


def spd_weight(a: np.ndarray, work: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """``sqrt(det a) a^{-1}`` and ``sqrt(det a)`` for a batch of symmetric
    positive definite n x n matrices given packed: ``a[k]`` is the array
    over the batch of the k-th entry ``(i, j)``, ``i <= j``, of
    :func:`packed_order`. The weight comes back packed the same way, so it
    is symmetric by construction.

    In place, ``a`` comes back as the weight: unrolled Cholesky
    ``a = L L^T`` (``sqrt(det a)`` is the product of the diagonal of L),
    ``R = L^{-1}`` column by column by forward substitution, then
    ``sqrt(det a) R^T R`` by increasing j, ``i = j`` last, each entry into
    the last slot that reads it. ``work`` (3, *batch), fresh when not
    given, takes ``sqrt(det a)`` and the two rows of dot products. The dtype
    is ``a``'s (``longdouble`` too). A pivot <= 0 makes ``sqrt(det a)`` NaN
    or 0 there.
    """
    work = np.empty((3, *a.shape[1:]), dtype=a.dtype) if work is None else work
    root_det, s = work[0], work[1:]
    c = _cholesky(a, root_det, s)
    n = len(c)
    for j in range(n):
        np.divide(1.0, c[j][j], out=c[j][j])
        for i in range(j + 1, n):
            np.negative(_dot([(c[i][k], c[k][j]) for k in range(j, i)], *s), out=s[0])
            np.divide(s[0], c[i][i], out=c[i][j])
    for j in range(n):
        for i in range(j + 1):
            np.multiply(root_det, _dot([(c[m][j], c[m][i]) for m in range(j, n)], *s), out=c[i][j])
    return a, root_det


@dataclass(frozen=True, eq=False)
class MetricField:
    """Metric sampled on a grid, checked when it is built. ``packed`` is the
    one packing of the node table into the component order of the SPD
    kernel, which assembly and the volume expansion read too. The volume
    element ``sqrt_det``, the Cholesky diagonal product
    :func:`spd_root_det` of that packing, is the one table kept; the weight
    ``sqrt(det g) g^{-1}`` comes from :func:`spd_weight` on each read.

    Every table, sampled, rescaled, assembled from a dataset or given
    directly, passes this one check, so the invariants hold by
    construction: ``mat`` and ``weight`` exactly symmetric, every
    Cholesky pivot positive, ``sqrt_det`` finite and > 0. A wrong shape
    raises ``GridMismatch``; a node beyond 1e-12 (relative) of symmetric
    raises ``Asymmetric``, and a table within it is symmetrised exactly.
    A ``sqrt_det`` not finite and > 0 raises ``NonPositiveDefinite`` at the
    first such node with a non-finite entry, else at the one among them of
    the smallest eigenvalue.
    """

    grid: CylinderGrid
    mat: np.ndarray

    def __post_init__(self):
        grid, mat = self.grid, np.asarray(self.mat, dtype=float)
        if mat.shape != grid.shape + (grid.n, grid.n):
            raise GridMismatch(
                f"matrix table shape {mat.shape}, expected {grid.shape + (grid.n, grid.n)}"
            )
        # a non-finite entry or a failed pivot gives NaN, inf or 0, not a warning
        with np.errstate(all="ignore"):
            mat_t = np.swapaxes(mat, -1, -2)
            if (mat != mat_t).any():
                defect = np.abs(mat - mat_t).max(axis=(-1, -2))
                scale = np.maximum(1.0, np.abs(mat).max(axis=(-1, -2)))
                if (defect > 1e-12 * scale).any():
                    node = np.unravel_index(int(np.nanargmax(defect / scale)), grid.shape)
                    raise Asymmetric(node, float(defect[node]))
                # exact symmetry for downstream bitwise-symmetric algebra
                mat = 0.5 * (mat + mat_t)
            object.__setattr__(self, "mat", mat)
            bad = ~(np.isfinite(self.sqrt_det) & (self.sqrt_det > 0.0))
        if bad.any():
            nodes, sub = np.argwhere(bad), mat[bad]
            finite = np.isfinite(sub).all(axis=(-1, -2))
            if finite.all():
                lam_min = np.linalg.eigvalsh(sub)[:, 0]
                k = int(np.argmin(lam_min))
                raise NonPositiveDefinite(nodes[k], float(lam_min[k]))
            raise NonPositiveDefinite(nodes[int(np.argmin(finite))], float("nan"))

    @property
    def packed(self) -> np.ndarray:
        """The node table packed by component for the SPD kernel, shape
        ``(n(n+1)/2, *grid.shape)`` in the order of :func:`packed_order`;
        built on each read, not kept."""
        iu, ju, _ = packed_order(self.grid.n)
        return np.moveaxis(self.mat[..., iu, ju], -1, 0)

    @cached_property
    def sqrt_det(self) -> np.ndarray:
        return spd_root_det(self.packed)

    @property
    def weight(self) -> np.ndarray:
        """The divergence-form weight sqrt(det g) * g^{-1}, built on each read."""
        W = spd_weight(self.packed)[0][packed_order(self.grid.n)[2]]
        return np.moveaxis(W, (0, 1), (-2, -1))


def sample_metric(source: MetricSource, grid: CylinderGrid) -> MetricField:
    """Evaluate a metric source at the grid nodes; the :class:`MetricField`
    checks the table."""
    if source.n != grid.n:
        raise GridMismatch(f"metric dimension {source.n} != grid dimension {grid.n}")
    return MetricField(grid, source(grid.points))


# ---------------------------------------------------------------------------
# divergence-form coefficient datasets and the metrics they induce


@dataclass(frozen=True, eq=False)
class MillerDataset:
    """Coefficients of a divergence-form operator on [0,1] x T^2 whose
    matrix is the identity in t and a symmetric 2x2 block in the angles:

        [[1, 0, 0], [0, 1+a1+A1, a2], [0, a2, 1+a3+A3]]

    together with a candidate solution field u. The smooth parts a1, a2, a3
    and u live on the full 3-D grid; the rough parts A1, A3 depend on t
    alone (they are never differenced in t anywhere in the package).

    Metadata: T is the time beyond which everything vanishes, rho the
    declared Hoelder order of A1, A3, alpha the declared eigenvalue floor
    (eigenvalues of the coefficient matrix lie in [alpha, 1/alpha]).

    Every route that builds a dataset (the constructor, :meth:`zero`,
    :meth:`coarsen`, the loader, the synthesiser) runs one check: a grid of
    other than 3 axes raises DimensionTooSmall, an array off the grid
    GridMismatch, and metadata out of the paper's ranges InfeasibleBounds:
    T in (0, 1], rho in (0, 1), and alpha in (0, 1), so that the box
    [alpha, 1/alpha] has room around the identity.
    """

    grid: CylinderGrid
    a1: np.ndarray
    a2: np.ndarray
    a3: np.ndarray
    A1: np.ndarray
    A3: np.ndarray
    u: np.ndarray
    T: float = 1.0
    rho: float = 1.0 / 6.0
    alpha: float = 0.5

    def __post_init__(self):
        if self.grid.n != 3:
            raise DimensionTooSmall("coefficient datasets live on the 3-D cylinder")
        shape = self.grid.shape
        for nm in ("a1", "a2", "a3", "u"):
            arr = np.asarray(getattr(self, nm), dtype=float)
            if arr.shape != shape:
                raise GridMismatch(f"array {nm} has shape {arr.shape}, expected {shape}")
            object.__setattr__(self, nm, arr)
        for nm in ("A1", "A3"):
            arr = np.asarray(getattr(self, nm), dtype=float)
            if arr.shape != (self.grid.num_t,):
                raise GridMismatch(
                    f"array {nm} has shape {arr.shape}, expected ({self.grid.num_t},)"
                )
            object.__setattr__(self, nm, arr)
        if not 0.0 < self.T <= 1.0:
            raise InfeasibleBounds(f"T = {self.T} must lie in (0, 1]")
        if not 0.0 < self.rho < 1.0:
            raise InfeasibleBounds(f"rho = {self.rho} must lie in (0, 1)")
        if not 0.0 < self.alpha < 1.0:
            raise InfeasibleBounds(f"alpha = {self.alpha} leaves no admissible coefficient box")

    # -- derived fields ----------------------------------------------------

    def block(self) -> tuple:
        """The angular block's entries per node, ``(1+a1+A1, a2, 1+a3+A3)``,
        each of shape ``grid.shape``: the one place the rough parts meet
        the smooth ones."""
        return 1.0 + self.a1 + self.A1[:, None, None], self.a2, 1.0 + self.a3 + self.A3[:, None, None]

    def coefficient_matrix(self) -> np.ndarray:
        """The divergence-form matrix per node, shape ``(*grid.shape, 3, 3)``."""
        b1, a2, b3 = self.block()
        A = np.zeros(self.grid.shape + (3, 3))
        A[..., 0, 0] = 1.0
        A[..., 1, 1] = b1
        A[..., 1, 2] = a2
        A[..., 2, 1] = a2
        A[..., 2, 2] = b3
        return A

    def block_determinant(self) -> np.ndarray:
        """det of the angular 2x2 block (equals det of the full matrix)."""
        b1, a2, b3 = self.block()
        return b1 * b3 - a2**2

    @classmethod
    def zero(cls, grid: CylinderGrid, **meta) -> "MillerDataset":
        z = np.zeros(grid.shape)
        zt = np.zeros(grid.num_t)
        return cls(grid, z, z.copy(), z.copy(), zt, zt.copy(), z.copy(), **meta)

    def coarsen(self, stride: int) -> "MillerDataset":
        """Restrict all fields to every ``stride``-th node."""
        s = int(stride)
        sl = (slice(None, None, s),) * 3
        return replace(self, grid=self.grid.coarsen(s), a1=self.a1[sl], a2=self.a2[sl], a3=self.a3[sl],
                       A1=self.A1[::s], A3=self.A3[::s], u=self.u[sl])


def assemble_counterexample_metric_3d(data: MillerDataset) -> MetricField:
    """Metric on [0,1] x T^2 whose weight matrix equals the dataset's
    coefficient matrix: :func:`assemble_counterexample_metric_nd` on the
    dataset's own grid."""
    return assemble_counterexample_metric_nd(data, data.grid)


def assemble_counterexample_metric_nd(data: MillerDataset, grid: CylinderGrid) -> MetricField:
    """A conformal power of the coefficient determinant D times a block
    metric,

        g = D^{1/(n-2)} ( dt^2
                          + D^{-1} [ (1+a3+A3) dx1^2 - 2 a2 dx1 dx2 + (1+a1+A1) dx2^2 ]
                          + sum_{k>=3} dxk^2 ).

    Note the swap: the dx1^2 slot takes the *a3* coefficient and the dx2^2
    slot the *a1* one; at n = 3 that is what makes sqrt(det g) * g^{-1}
    reproduce the coefficient matrix. The first two angular axes of
    ``grid`` must match the dataset's; fields are constant along any extra
    angular axes.
    """
    n = grid.n
    if n < 3:
        raise DimensionTooSmall("counterexample metrics need n >= 3")
    if grid.num_t != data.grid.num_t or grid.num_ang[:2] != data.grid.num_ang:
        raise GridMismatch(
            f"grid {grid.shape} incompatible with dataset grid {data.grid.shape}"
        )
    extra = (1,) * (n - 3)
    b22, a2, b11 = (b.reshape(data.grid.shape + extra) for b in data.block())
    D = data.block_determinant().reshape(b11.shape)
    b12 = -a2

    with np.errstate(divide="ignore", invalid="ignore"):  # D <= 0 fails the metric check
        factor = D ** (1.0 / (n - 2))
        # at n = 3, factor / D is exactly 1.0, so the block is the dataset's
        scale = factor / D
    g = np.zeros(data.grid.shape + extra + (n, n))
    g[..., 0, 0] = factor
    g[..., 1, 1] = scale * b11
    g[..., 1, 2] = scale * b12
    g[..., 2, 1] = scale * b12
    g[..., 2, 2] = scale * b22
    for k in range(3, n):
        g[..., k, k] = factor
    return MetricField(grid, np.broadcast_to(g, grid.shape + (n, n)))


def weight_identity_check(data: MillerDataset) -> float:
    """Max abs deviation of sqrt(det g) * g^{-1} from the coefficient matrix
    for the 3-D metric, with the weight ``MetricField.weight`` computed
    numerically from the node table by :func:`spd_weight`."""
    g = assemble_counterexample_metric_3d(data)
    return float(np.abs(g.weight - data.coefficient_matrix()).max())
