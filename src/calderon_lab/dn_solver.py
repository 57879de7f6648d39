"""Q1 stiffness assembly, harmonic extension and partial Dirichlet-to-Neumann
maps.

Discretisation: Q1 multilinear elements on the tensor cells of a cylinder
grid, tensor two-point Gauss quadrature, metric interpolated multilinearly
to quadrature points. The partial DN map on a boundary component Gamma is
the Schur complement

    Lam = K_GG - K_GI K_II^{-1} K_IG

of the stiffness matrix, with homogeneous Dirichlet conditions eliminated
on the rest of the boundary. Applied to a nodal trace it returns the dual
(quadrature-weighted) Neumann data, so mode eigenvalues are generalized
Rayleigh quotients against the boundary mass matrix.

Assembly (:func:`assemble_stiffness`) is one loop over blocks of whole
cell layers in one float64 arena per call, with one GEMM per block over
the unique metric components and the unique element entries ``a <= b``,
and the in-place SPD kernel. It is deterministic: each CSR slot takes
entries of one half only, in cell-major order, so the matrices are
bitwise symmetric and their bytes depend neither on the block size (but
see the 4-D caveat there) nor on the BLAS thread count. One per-grid
cache (:func:`_grid_layout`) holds the CSR pattern, the element tables
and the angular eigenpairs of the solver; the pattern is built without a
sort, from the Q1 stencil's tensor form, and keeps three cell layers.

Every interior solve but one goes through :class:`InteriorSolver`, whose
seam fixes the whole boundary: the free nodes are the interior t-layers,
one contiguous id range, so it borrows K's free rows and copies no
block. Its one step, the only way Dirichlet data reach a solve, replaces
the interior entries of a nodal array ``U`` by the discrete harmonic
extension of its boundary entries and returns ``K @ U``: its free rows
are minus the residual, its rows on ``G`` the Neumann data (DN maps are
``extend(U)[G]``), and ``U^T K U`` the Dirichlet energies of mode
matrices (``energy``, stopped near the square root of ``extend``'s
tolerance, as an energy is off only by the square of its extension's
error). Solves run batched conjugate gradients, preconditioned by the
exact inverse of a layered operator from the t-cell means that assembly
keeps (``StiffnessSystem.layers``) through a layer-bounded scratch. A solve
returns a checked result or raises SingularInteriorBlock (a breakdown,
which proves the block is not positive definite) or NoConvergence.

The exception is the dense map ``dn_map_partial`` on ``GAMMA0``/``GAMMA1``:
it strips t-layers by a Cholesky, a GEMM-built inverse and a CSR product
per layer, and never runs CG. Every norm is :func:`l2_norm`.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .errors import (
    GridMismatch,
    InfeasibleBounds,
    NoConvergence,
    ShapeMismatch,
    SingularInteriorBlock,
)
from .grid_geometry import (
    FULL_BOUNDARY,
    GAMMA0,
    GAMMA1,
    CylinderGrid,
    MetricField,
    packed_order,
    spd_weight,
)
from .report import quote

_PIVOT_RATIO_FLOOR = 1e-9
_SOLVE_RTOL = 1e-10
_CG_RTOL = 1e-12  # per column, on sqrt(r^T z) relative to its start
_ENERGY_RTOL = 5e-7  # the same in InteriorSolver.energy, whose error is second order
_CG_MAXIT = 200
_DENSE_BYTES = 32 << 20  # caps the node array u of one interior solve; the solve holds about four of its size
_PRECOND_BYTES = 512 << 10  # bounds the preconditioner's scratch: 4 t-layers a block at 33^3 with 13 columns
_BLOCK_BYTES = 1267 * 2944  # bounds an assembly block's arena: 1,267 cells in 4-D, 3,885 in 3-D


# ---------------------------------------------------------------------------
# assembly


def _q1_tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Q1 shape values N (2^n points, 2^n corners) and reference gradients
    G (2^n, 2^n, n) at the tensor two-point Gauss points of [0,1]^n.

    Points and corners are indexed by their bits (axis 0 = most significant
    bit), so each table is a Kronecker product of 1-D hat tables.
    """
    g = 0.5 / np.sqrt(3.0)
    x = np.array([0.5 - g, 0.5 + g])
    hat = np.stack([1.0 - x, x], axis=1)  # [point bit, corner bit]
    dhat = np.array([[-1.0, 1.0], [-1.0, 1.0]])
    N = reduce(np.kron, [hat] * n)
    G = np.stack(
        [reduce(np.kron, [dhat if d == k else hat for d in range(n)]) for k in range(n)],
        axis=-1,
    )
    return N, G


def _axis_neighbours(num: int, periodic: bool) -> np.ndarray:
    """The 1-D three-point pattern: the neighbours i-1, i, i+1 of each node
    i in ascending order, shape (num, 3). A periodic axis wraps them (it has
    at least 4 nodes, so they stay distinct); on an open axis -1 stands in
    for the missing neighbour of an end node."""
    nb = np.arange(num)[:, None] + np.arange(-1, 2)
    if periodic:
        return np.sort(nb % num, axis=1)
    return np.where((nb >= 0) & (nb < num), nb, -1)


def _spread(a: np.ndarray, d: int, n: int) -> np.ndarray:
    """View ``a`` with its axis j on axis j*n + d of an (a.ndim * n)-axis
    array, so that tables of the n grid axes broadcast into their tensor
    product."""
    shape = [1] * (a.ndim * n)
    for j, m in enumerate(a.shape):
        shape[j * n + d] = m
    return a.reshape(shape)


def _scatter_pattern(grid: CylinderGrid):
    """CSR pattern of the cell-major element scatter: the CSR slots of the
    element entries of cell layers 0, 1 and num_t - 2 in two tables, the
    upper entries ``(a, b)``, ``a <= b``, in unique-entry order, and the
    strict-lower ``(b, a)`` in their mirrors' order (3, P, U and 4^n - U);
    the column indices and row pointers; and layer 0's cell-node table, the
    node ids of each cell's 2^n corners (int32, (2^n, P)). P is the layer
    count; assembly shifts them to the other cell layers.

    Cells are indexed lexicographically like nodes; the t-axis has
    num_t - 1 cells, each angular axis wraps and has as many cells as nodes.
    Corner L of a cell offsets the cell's base node by the bits of L
    (axis 0 = most significant bit), modulo the period on angular axes. Two
    nodes differ by one step on each axis where they differ, so their
    corners' order is the same in every cell that holds both: each CSR
    slot is in one table only.

    The Q1 pattern is the tensor product of 1-D three-point patterns, open
    in t and periodic in the angles, so it needs no sort: a row's length is
    the product of its per-axis lengths, its columns are the mixed-radix
    sums of its per-axis neighbours in ascending order, and an element
    entry's slot is its row's pointer plus the mixed-radix sum of the
    column's per-axis ranks among those neighbours.
    """
    n, shape = grid.n, grid.shape
    strides = [math.prod(shape[d + 1 :]) for d in range(n)]
    nbs = [_axis_neighbours(num, periodic=d > 0) for d, num in enumerate(shape)]
    lengths = [(nb >= 0).sum(axis=1) for nb in nbs]
    indptr = np.zeros(grid.node_count + 1, dtype=np.int64)
    np.cumsum(reduce(np.multiply, [_spread(m, d, n) for d, m in enumerate(lengths)]), out=indptr[1:])
    index = np.int32 if indptr[-1] <= np.iinfo(np.int32).max else np.int64
    indptr = indptr.astype(index)
    # axes (row by axis, neighbour by axis): rows in node order, each row's
    # valid neighbour choices in ascending column order
    cols = reduce(np.add, [_spread((nb * strides[d]).astype(index), d, n) for d, nb in enumerate(nbs)])
    indices = cols[reduce(np.logical_and, [_spread(nb >= 0, d, n) for d, nb in enumerate(nbs)])]
    del cols
    # axes (cell by axis, row corner by axis, column corner by axis), which
    # ravel in the cell-major order of the element matrices
    row, slot = 0, 0
    for d, (num, nb, m) in enumerate(zip(shape, nbs, lengths)):
        # the corners of cell c along axis d are the nodes c and c + 1
        cells = np.array([0, 1, num - 2]) if d == 0 else np.arange(num)
        node = (cells[:, None] + np.arange(2)) % num
        near = nb[node][:, :, None, :]
        rank = ((near >= 0) & (near < node[:, None, :, None])).sum(axis=-1)
        row = row + _spread(node[:, :, None] * strides[d], d, n)
        slot = slot * _spread(m[node][:, :, None].astype(index), d, n) + _spread(rank.astype(index), d, n)
    slot += indptr[row]
    # the row node of every (cell, row corner) of layer 0, for any column corner
    Q, P = 1 << n, grid.layer_count
    nodes = np.ascontiguousarray(row.reshape(-1, Q)[:P].T, dtype=np.int32)
    a, b, slot = *np.triu_indices(Q), slot.reshape(3, P, Q * Q)
    return slot.take(a * Q + b, axis=2), slot.take(b[a < b] * Q + a[a < b], axis=2), indices, indptr, nodes


def _element_tables(grid: CylinderGrid):
    """The shape table N and the per-grid tables of the element GEMMs,
    over the unique element entries ``p = (a, b)``, ``a <= b``, in the
    order of ``np.triu_indices(2^n)``:

    - ``stiff[(k, q), p]``, for the unique metric components ``k = (i, j)``
      with ``i <= j`` in the order of :func:`packed_order`, is
      ``T[i, i, q]`` on the diagonal and ``T[i, j, q] + T[j, i, q]`` off
      it, with ``T[i, j, q, a, b] = w G[q, a, i] G[q, b, j]`` the products
      of physical shape gradients times the quadrature weight ``w``;
    - ``mass[q, p] = w N[q, a] N[q, b]``;
    - ``strict``, the unique-entry index of every strict upper entry
      ``a < b``, whose mirror ``(b, a)`` the lower slot table holds.
    """
    n = grid.n
    N, G = _q1_tables(n)
    w = 0.5**n * float(np.prod(grid.spacings))  # quadrature weight
    G = G / grid.spacings  # physical gradients, constant per uniform cell
    a, b = np.triu_indices(1 << n)
    T = w * np.einsum("qai,qbj->ijqab", G, G)[..., a, b]
    stiff = np.concatenate([T[i, j] + T[j, i] if i < j else T[i, i] for i, j in zip(*packed_order(n)[:2])])
    mass = w * N[:, a] * N[:, b]
    return N, stiff, mass, np.flatnonzero(a < b)


def _q1_pencil(num: int, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Dense 1-D Q1 stiffness and mass matrices of a periodic axis of
    ``num`` nodes of spacing ``h``: the circulants ``(2I - S - S^T) / h``
    and ``(4I + S + S^T) h / 6``, ``S`` the cyclic shift."""
    S = np.roll(np.eye(num), 1, axis=1)
    return (2.0 * np.eye(num) - S - S.T) / h, (4.0 * np.eye(num) + S + S.T) * (h / 6.0)


@lru_cache(maxsize=8)
def _grid_layout(grid: CylinderGrid):
    """The per-grid tables of assembly and of :class:`InteriorSolver`,
    computed once per equal grid and shared read-only: the scatter pattern
    (three cell layers of upper and of lower slots, one of cell nodes), the
    element tables, and the fast-diagonalisation factors of the periodic
    angular axes, the eigenvectors ``V_d`` and eigenvalues ``Lam_d`` of each
    1-D Q1 pencil ``K_d V_d = M_d V_d Lam_d``. A solver is built on a system
    just assembled on its grid, so the cache holds its grid's entry."""
    pattern = _scatter_pattern(grid)
    tables = _element_tables(grid)
    eigs = [scipy.linalg.eigh(*_q1_pencil(m, h)) for m, h in zip(grid.num_ang, grid.h_ang)]
    vecs, lams = tuple(V for _, V in eigs), tuple(lam for lam, _ in eigs)
    for arr in (*pattern, *tables, *vecs, *lams):
        arr.flags.writeable = False
    return pattern, tables, (vecs, lams)


def _cell_floats(n: int) -> int:
    """float64 entries per cell of an assembly block's arena: the gather,
    then E; the metric, then W, then E's lower entries; sqrt(det g) and the
    kernel's two scratch rows."""
    Q = 1 << n
    return 2 * max(n * (n + 1) // 2 * Q, Q * (Q + 1) // 2) + 3 * Q


def _blocks(grid: CylinderGrid) -> list[tuple[int, int]]:
    """Assembly's blocks, the cell layers ``j0 <= j < j1`` of each: as many
    whole layers as keep a block's arena within ``_BLOCK_BYTES``, at least
    one."""
    per = max(1, _BLOCK_BYTES // (8 * _cell_floats(grid.n) * grid.layer_count))
    return [(j0, min(j0 + per, grid.num_t - 1)) for j0 in range(0, grid.num_t - 1, per)]


def _scatter(data: np.ndarray, weight: np.ndarray, table: np.ndarray, grid: CylinderGrid, j0: int,
             X: np.ndarray, Y: np.ndarray) -> None:
    """Add into the CSR ``data`` the element matrices of the block of cell
    layers from ``j0`` whose Gauss-point weights are ``weight`` (one column
    per cell): their unique entries ``E = weight^T table`` by one GEMM into
    the flat scratch ``X``, then E's strict upper entries, the lower ones'
    mirrors, into ``Y``, which ``weight`` may share. Each cell layer adds its
    rows of E at the upper slots and those of the strict upper entries at the
    lower ones by 1-D ``np.add.at``, which adds in input order and takes the
    int32 slots as they are (``np.bincount`` would copy them): an interior
    layer j through layer 1's slots on the view ``data[(j - 1) 3^n P:]``
    (every interior row holds 3^n entries), layers 0 and num_t - 2 through
    their own."""
    (upper, lower, *_), (*_, strict), _ = _grid_layout(grid)
    n, P, c = grid.n, grid.layer_count, weight.shape[1]
    E = np.matmul(weight.T, table, out=X[: c * table.shape[1]].reshape(c, -1))
    E_low = np.take(E, strict, axis=1, mode="clip", out=Y[: c * strict.size].reshape(c, -1))
    for j, e, e_low in zip(itertools.count(j0), E.reshape(c // P, -1), E_low.reshape(c // P, -1)):
        kind, shift = (0, 0) if j == 0 else (2, 0) if j == grid.num_t - 2 else (1, (j - 1) * 3**n * P)
        np.add.at(data[shift:], upper[kind].ravel(), e)
        np.add.at(data[shift:], lower[kind].ravel(), e_low)


@dataclass(frozen=True, eq=False)
class StiffnessSystem:
    """Assembled weak-form operator on its grid: ``matrix``, the Laplace part
    plus, with a potential, its mass part M, a data array on the read-only
    CSR pattern of the grid's :func:`_grid_layout`. ``layers`` (n + 1,
    num_t - 1) holds, per t-cell, the means over its cells and Gauss points
    of the diagonal of ``W = sqrt(det g) g^{-1}`` and of ``sqrt(det g) V``
    (zero without a potential), for :class:`InteriorSolver`.

    A potential system keeps ``mass_weights`` (2^n, cells), the Gauss-point
    weights ``sqrt(det g) V`` of its cells in cell order, instead of M,
    which no solve reads. It is the one array that spans all cells'
    Gauss-point weights (assembly keeps W's per block): it holds one weight
    per Gauss point, 2^n a cell, where M holds 3^n entries a row, so it
    replaces a matrix more than three times its size in 3-D (16.8 MB
    against 57 MB at 65^3). ``mass`` rebuilds M from it on its first read,
    over assembly's blocks and by its :func:`_scatter`, so with assembly's
    bytes, and keeps it (None without a potential); ``laplace`` is built on
    each read as ``matrix - mass`` (``matrix`` without a potential). Only
    tests and the benchmark's traced count read them. ``potential_id`` is a
    caller's label for the potential; nothing in the package reads it."""

    grid: CylinderGrid
    matrix: sp.csr_matrix
    layers: np.ndarray
    mass_weights: np.ndarray | None = None
    potential_id: str | None = None

    @cached_property
    def mass(self) -> sp.csr_matrix | None:
        if self.mass_weights is None:
            return None
        A, P, table = self.matrix, self.grid.layer_count, _grid_layout(self.grid)[1][2]
        blocks = _blocks(self.grid)
        data = np.zeros(A.data.size)
        X, Y = np.empty((2, (blocks[0][1] - blocks[0][0]) * P * table.shape[1]))
        for j0, j1 in blocks:
            _scatter(data, self.mass_weights[:, j0 * P : j1 * P], table, self.grid, j0, X, Y)
        return sp.csr_matrix((data, A.indices, A.indptr), shape=A.shape)

    @property
    def laplace(self) -> sp.csr_matrix:
        A, M = self.matrix, self.mass
        return A if M is None else sp.csr_matrix((A.data - M.data, A.indices, A.indptr), shape=A.shape)


def assemble_stiffness(
    metric: MetricField,
    potential: np.ndarray | None = None,
    potential_id: str | None = None,
) -> StiffnessSystem:
    """Assemble the Q1 stiffness matrix for the metric Laplacian, plus the
    weighted mass matrix when a potential is given.

    The bilinear form is

        a(u, v) = int g^{ij} d_i u d_j v sqrt(det g)
                  + int V u v sqrt(det g).

    One loop runs over the blocks of :func:`_blocks`, whole cell layers, as
    many as keep the block's arena within ``_BLOCK_BYTES`` and at least one
    (1,267 cells in 4-D, 3,885 in 3-D, whole grids in 2-D), so no GEMM has a
    single row. One float64 ``np.empty`` per call holds every float array of
    a block as a view (:func:`_cell_floats`). A block packs the ``n(n+1)/2``
    unique metric components of its own node layers ``j0..j1`` only,
    gathers them at its cells' corners, layer 0's cell nodes plus ``j P`` for
    its ``j``-th layer, interpolates them to the Gauss points (one matmul with
    the shape table N), turns them into ``W = sqrt(det g) g^{-1}`` in place by
    the SPD kernel :func:`~calderon_lab.grid_geometry.spd_weight`, and
    :func:`_scatter` adds its element matrices into K's data: the unique
    entries ``a <= b`` into the dead gather by one GEMM, ``E[c, p] = sum_{k,
    q} W[k, q, c] stiff[(k, q), p]``, with ``k`` over the components ``i <=
    j`` and the table of :func:`_element_tables`, which folds ``T_ij +
    T_ji``. So for the mass matrix M with a potential, from the Gauss-point
    weights ``sqrt(det g) V`` against ``w N[q, a] N[q, b]``, which each block
    writes into the system's ``mass_weights`` table; M's data, once added
    into K's array (``matrix`` is K + M), is dropped. The
    t-cells' ``layers`` come from the same Gauss points. Each slot takes
    entries of one slot table only and sums them in cell-major order, so K
    and M are bitwise symmetric and their bytes depend on neither the block
    size nor the BLAS thread count; but in 4-D the interpolation matmul
    rounds the last one to four columns of a block whose cell count is not a
    multiple of 8 its own way, so there the bytes can change with the block
    size unless P is a multiple of 8. The tables come from a per-grid cache
    (equal grids share one entry), whose read-only ``indices`` and
    ``indptr`` every system's matrices hold (a write raises ``ValueError``).
    """
    grid = metric.grid
    n, size = grid.n, grid.node_count
    (_, _, indices, indptr, nodes), (N, stiff, mass_table, _), _ = _grid_layout(grid)
    P, num_cells_t = grid.layer_count, grid.num_t - 1

    v_nodes = None
    if potential is not None:
        v_values = np.asarray(potential, dtype=float)
        if v_values.shape != grid.shape:
            raise GridMismatch(f"potential shape {v_values.shape}, expected {grid.shape}; "
                               "conformal_potential gives the t-end layers with one_sided")
        stray = np.argwhere(~np.isfinite(v_values))
        if stray.size:
            node = tuple(int(k) for k in stray[0])
            raise InfeasibleBounds(f"potential {v_values[node]} at node {node} is not finite")
        v_nodes = v_values.reshape(size)

    # the gathers use np.take(mode="clip"), about 3 times faster than fancy
    # indexing here, and the ids are in range
    iu, ju, pos = packed_order(n)
    k_data = np.zeros(indices.size)
    m_data = None if v_nodes is None else np.zeros(indices.size)
    mass_weights = None if v_nodes is None else np.empty((1 << n, num_cells_t * P))
    # per t-cell, the means of diag(W), then of sqrt(det g) V
    layers = np.zeros((n + 1, num_cells_t))
    Q, k, cell, blocks = N.shape[0], iu.size, _cell_floats(n), _blocks(grid)
    arena = np.empty((blocks[0][1] - blocks[0][0]) * P * cell)
    for j0, j1 in blocks:
        c = (j1 - j0) * P  # the block's regions follow one another from the arena's head
        X, Y = arena[: c * (cell - 3 * Q)].reshape(2, -1)
        rows = arena[c * (cell - 3 * Q) : c * cell].reshape(3, Q, c)
        # no whole packed metric: the block's node layers, packed for the SPD kernel
        cell_nodes = (nodes[:, None] + P * np.arange(j1 - j0, dtype=np.int32)[:, None]).reshape(Q, c)
        g_nodes = np.moveaxis(metric.mat[j0 : j1 + 1][..., iu, ju], -1, 0).reshape(k, -1)
        G = np.take(g_nodes, cell_nodes, axis=1, mode="clip", out=X[: k * Q * c].reshape(k, Q, c))
        W, root_det = spd_weight(np.matmul(N, G, out=Y[: k * Q * c].reshape(k, Q, c)), rows)
        for d in range(n):
            layers[d, j0:j1] = W[pos[d, d]].mean(axis=0).reshape(-1, P).mean(axis=1)
        _scatter(k_data, W.reshape(-1, c), stiff, grid, j0, X, Y)
        if m_data is not None:
            interp = np.matmul(N, np.take(v_nodes[j0 * P :], cell_nodes, mode="clip", out=rows[1]), out=rows[2])
            mass_weight = np.multiply(root_det, interp, out=mass_weights[:, j0 * P : j1 * P])
            layers[n, j0:j1] = mass_weight.mean(axis=0).reshape(-1, P).mean(axis=1)
            _scatter(m_data, mass_weight, mass_table, grid, j0, X, Y)
    if m_data is not None:  # K + M, the one operator a solve reads, in K's array
        np.add(k_data, m_data, out=k_data)
    K = sp.csr_matrix((k_data, indices, indptr), shape=(size, size))
    return StiffnessSystem(
        grid, K, layers, mass_weights=mass_weights, potential_id=potential_id if potential is not None else None
    )


# ---------------------------------------------------------------------------
# interior solves


def l2_norm(x: np.ndarray) -> float:
    """The package's one norm, of all entries of ``x``: a pairwise sum, which no BLAS thread count changes."""
    return float(np.sqrt(np.add.reduce(np.ravel(x * x))))


def _t_matrix(stiff: np.ndarray, mass: np.ndarray, h: float) -> np.ndarray:
    """The interior-node block, m x m with m = num_t - 2, of the 1-D Q1
    matrix ``sum_c stiff[c] K_c + mass[c] M_c`` over the t-cells ``c``,
    with ``K_c`` and ``M_c`` the cell's stiffness and mass matrices."""
    m = stiff.size - 1
    A = np.zeros((m, m))
    A.flat[:: m + 1] = (stiff[:-1] + stiff[1:]) / h + (mass[:-1] + mass[1:]) * (h / 3.0)
    A.flat[1 :: m + 1] = A.flat[m :: m + 1] = mass[1:-1] * (h / 6.0) - stiff[1:-1] / h
    return A


def _row_view(A: sp.csr_matrix, lo: int, hi: int) -> sp.csr_matrix:
    """Rows lo..hi of the CSR matrix ``A`` as views of its data and indices,
    with shifted row pointers. They are set after construction: scipy's
    constructor copies a view under half of its base."""
    ptr = A.indptr[lo : hi + 1]
    view = sp.csr_matrix((hi - lo, A.shape[1]))
    view.data, view.indices = A.data[ptr[0] : ptr[-1]], A.indices[ptr[0] : ptr[-1]]
    view.indptr = ptr - ptr[0]
    return view


class InteriorSolver:
    """Harmonic extension from the whole boundary of the system's grid
    into its interior t-layers, the slice ``free`` of node ids.
    ``extend(u)`` overwrites ``u[free]`` by the solution of
    ``K[free, free] x = -K[free, fixed] u[fixed]`` with ``fixed`` the
    ``FULL_BOUNDARY`` ids and returns ``K @ u``, whose boundary rows are the
    Neumann data; ``energy(u)`` returns the Dirichlet energies ``u^T K u``.
    Both are the one step ``_extend``, which checks the solve by the free
    rows of that product, minus the residual. CG applies K through
    ``rows``, the free rows of K borrowed as views; only the first and last
    free t-layers touch fixed nodes, so a right-hand side multiplies only
    their rows.

    Every solve runs preconditioned CG on all right-hand-side columns at
    once. The preconditioner is the exact inverse of a separable layered
    operator (Concus & Golub 1973): the Q1 block with the coefficients
    ``diag(w_tt, alpha_1 w_a, ...)`` and the potential ``q``, constant per
    t-cell, from the system's ``layers``; ``w_a`` is the mean of the
    angular ``w_dd`` and ``alpha_d`` the ratio of their means over t, so
    the flat metric is its special case. Fast diagonalisation (Lynch, Rice
    & Thomas 1964) of the t-pencil ``(K_t[w_tt] + M_t[q], M_t[w_a])`` and
    of the periodic angular pencils ``(K_d, M_d)`` (from the grid's
    :func:`_grid_layout` entry) gives its inverse ``V D^{-1} V^T`` with
    ``V = V_t (x) V_1 (x) ...`` and ``D = Lam_t (+) alpha_1 Lam_1 (+) ...``.
    A preconditioner is not a bound, and an indefinite one proves nothing
    about the block, so where ``D`` has a non-positive entry it is built
    once more with ``q`` floored at 0, positive definite because ``w_tt``
    and ``w_a`` are positive. In ``extend`` a column stops when ``sqrt(r^T z)`` is at most
    1e-12 of its start, and the extension stands when ``||(K u)[free]||``
    is at most 1e-10 of ``||b||``, ``b`` the right-hand side. With ``C``
    the layered coefficients, ``min eig(C^{-1} W) K_C <= K_g <=
    max eig(C^{-1} W) K_C`` over the quadrature points, so a potential-free
    block needs at most ``ceil(sqrt(kappa)/2 * ln(2 sqrt(kappa) / 1e-12))``
    iterations, ``kappa`` the ratio of those extremes; one where ``W`` is
    diagonal with a t-only ``w_tt`` and constant angular entries and
    ``sqrt(det g) V`` is constant. ``iterations`` holds the count of the
    last solve, at which its last column converged; a converged column
    stops moving. CG iterates in ``u[free]`` beside R, the direction in node
    layout (dropped before ``K @ u``) and scipy's product; the energy check
    preconditions into the dead R. A 13-mode mode matrix peaks 14.6 MB
    above its start at 33^3 and 113.1 MB at 65^3; in a fresh process that
    samples and assembles the 65^3 system with a potential, at 284 MiB
    ``VmHWM`` (310 MiB with a preconditioner scratch of R's size).

    ``energy`` stops at ``_ENERGY_RTOL`` (5e-7) instead: with ``u*`` the
    exact extension and ``e = u - u*`` zero on the boundary,
    ``u^T K u = u*^T K u* + e^T K e``, so the energy is second order in the
    error (Arioli 2004; Strakos & Tichy 2005), its excess positive
    semidefinite (the Dirichlet principle) and about ``kappa`` times the
    square of the stop. The true residual ``r = -(K u)[free]`` must pass
    ``r^T z <= (2 * 5e-7)^2`` of each column's start; if it does not, the
    step reruns as ``extend``.

    A solve ends in a result that passed its check, in
    SingularInteriorBlock when CG breaks down (``p^T A p <= 0``, which
    proves the block not positive definite; Hestenes & Stiefel 1952), or in
    NoConvergence (NaN data, ``_CG_MAXIT`` iterations or a missed 1e-10
    check). Each solver serves one public call and is never cached.
    """

    def __init__(self, sys: StiffnessSystem):
        grid, K = sys.grid, sys.matrix
        P, m = grid.layer_count, grid.num_t - 2
        self.free = slice(P, (m + 1) * P)
        self._K = K
        self.rows = _row_view(K, self.free.start, self.free.stop)
        # the free layers with fixed neighbours, the first and the last
        self._coupled = [(slice(j * P, (j + 1) * P), _row_view(self.rows, j * P, (j + 1) * P))
                         for j in sorted({0, m - 1})]
        self.iterations = 0
        self._shape = (m, *grid.num_ang)
        vecs, lams = _grid_layout(grid)[2]
        w_tt, w_dd, q = sys.layers[0], sys.layers[1:-1], sys.layers[-1]
        w_a = w_dd.mean(axis=0)
        alpha = w_dd.sum(axis=1) / w_a.sum()  # the ratios of the means over t
        # the second pass floors q at 0; the transposes of the symmetric
        # t-matrices are Fortran-ordered, so LAPACK works on them in place
        for q in (q, np.maximum(q, 0.0)):
            lam_t, V_t, info = scipy.linalg.lapack.dsygvd(
                _t_matrix(w_tt, q, grid.h_t).T, _t_matrix(0.0 * w_a, w_a, grid.h_t).T, overwrite_a=1, overwrite_b=1
            )
            self._diag = reduce(np.add.outer, [lam_t, *(a * lam for a, lam in zip(alpha, lams))])
            if info == 0 and (self._diag > 0.0).all():
                break
        self._vecs = (V_t, *vecs)

    def _rhs(self, u: np.ndarray) -> np.ndarray:
        """Write ``-K[free, fixed] @ u[fixed]`` into ``u[free]`` and return
        that view. With ``u[free]`` zero, a coupled layer's rows times ``u``
        is its part; both products are taken before either is written, as
        on a grid of two free layers each reads the other. ``0 - rows @ u``
        is built in place (``-(rows @ u)`` would turn a zero row -0.0), and
        the other rows stay +0.0."""
        b = u[self.free]
        b[:] = 0.0
        parts = [layer @ u for _, layer in self._coupled]
        for (rows, _), part in zip(self._coupled, parts):
            np.subtract(0.0, part, out=b[rows])
        return b

    def extend(self, u: np.ndarray) -> np.ndarray:
        """Overwrite the interior entries of ``u`` (nodes first, one column
        or several) by the harmonic extension of its boundary entries and
        return ``K @ u``, whose boundary rows are its Neumann data."""
        return self._extend(u, _CG_RTOL)

    def energy(self, u: np.ndarray) -> np.ndarray:
        """Extend the boundary columns of ``u`` (nodes first) as ``extend``
        does, with CG stopped at ``_ENERGY_RTOL``, and return the Dirichlet
        energies ``u^T K u``."""
        return u.T @ self._extend(u, _ENERGY_RTOL)

    def _extend(self, u: np.ndarray, rtol: float) -> np.ndarray:
        """Solve ``K[free, free] x = _rhs(u)`` into ``u[free]``, checked as
        above, and return ``K @ u``."""
        U = u.reshape(u.shape[0], -1)  # a view, of 1-D u too
        b = self._rhs(U)
        scale = max(l2_norm(b), 1e-300)
        R = np.empty(b.shape)  # CG's residual, then the energy check's z
        start = self._pcg(b, rtol, R)
        KU = self._K @ U
        r = KU[self.free]
        if rtol != _CG_RTOL:
            z = self._precondition(r, R)
            if (np.einsum("ij,ij->j", r, z) <= (2.0 * rtol) ** 2 * start).all():
                return KU.reshape(u.shape)
            del R, KU, r, z  # before the strict rerun allocates its own
            return self._extend(u, _CG_RTOL)
        res = l2_norm(r)
        if not (res <= _SOLVE_RTOL * scale):  # NaN fails too
            raise NoConvergence(res / scale, _SOLVE_RTOL)
        return KU.reshape(u.shape)

    def _precondition(self, R: np.ndarray, Z: np.ndarray) -> np.ndarray:
        """``V D^{-1} V^T R`` for the columns of ``R``, the inverse of the
        layered operator, into ``Z`` (returned), one matmul on (lead, N, rest)
        views per factor through one scratch S of at most ``_PRECOND_BYTES``
        or one t-layer: the first t-axis product from R into Z, the angular
        products and the divide per block of whole t-layers, the second t-axis
        product in place in chunks of 64k columns; either cut keeps each
        matrix's shape and bytes."""
        shape, n, vecs = (*self._shape, R.shape[1]), len(self._vecs), self._vecs
        m, layer = shape[0], R.size // shape[0]
        per = min(m, max(1, _PRECOND_BYTES // (8 * layer)))
        S = np.empty(max(per * layer, 64 * m))
        Zt, width = np.matmul(vecs[0].T, R.reshape(m, -1), out=Z.reshape(m, -1)), len(S) // m // 64 * 64
        for forward in (True, False):
            if not forward:  # the second t-axis product, in place
                for lo in range(0, Zt.shape[1], width):
                    chunk = Zt[:, lo : lo + width]
                    chunk[...] = np.matmul(vecs[0], chunk, out=S[: chunk.size].reshape(chunk.shape))
            for j0 in range(0, m, per):
                Y = Z_b = Z.reshape(shape)[j0 : j0 + per]
                S_b = S[: Z_b.size].reshape(Z_b.shape)
                for d in range(1, n):
                    view, Y_next = (math.prod(Z_b.shape[:d]), shape[d], -1), S_b if Y is Z_b else Z_b
                    np.matmul(vecs[d].T if forward else vecs[d], Y.reshape(view), out=Y_next.reshape(view))
                    Y = Y_next
                if forward:
                    np.divide(Y, self._diag[j0 : j0 + per, ..., None], out=Z_b)
                elif Y is not Z_b:
                    np.copyto(Z_b, Y)
        return Z

    def _pcg(self, X: np.ndarray, rtol: float, R: np.ndarray) -> np.ndarray:
        """Batched preconditioned CG in place: ``X`` holds the right-hand
        sides on entry and the solution on return, each column stopped when
        ``sqrt(r^T z)`` is at most ``rtol`` of its start; returns the
        starting ``r^T z`` of each column, or raises as the class says. A
        converged column takes a zero step and a zero beta, and its ``r^T
        z`` stays frozen. Besides ``X`` CG holds the caller's R, of X's shape,
        the direction in node layout for ``rows`` (fixed rows 0), dropped on
        return, and scipy's product, reused for the step and for Z."""
        np.copyto(R, X)
        X[:] = 0.0
        P_nodes = np.zeros((self._K.shape[0], X.shape[1]))
        P = P_nodes[self.free]
        self._precondition(R, P)
        start = rz = np.einsum("ij,ij->j", R, P)
        stop = rtol**2 * rz
        it = 0
        while True:
            running = ~(rz <= stop)  # a NaN column runs on into the finiteness check
            if not running.any():
                self.iterations = it
                return start
            if it == _CG_MAXIT:
                raise NoConvergence(float(np.sqrt(rz[running] / start[running]).max()), rtol)
            it += 1
            Q = self.rows @ P_nodes
            pq = np.einsum("ij,ij->j", P, Q)
            least = pq[running].min()  # NaN when any is
            if not np.isfinite(least):
                raise NoConvergence(math.nan, rtol)
            if least <= 0.0:
                raise SingularInteriorBlock(f"CG breakdown at iteration {it}: p^T A p = {least:.3e}")
            alpha = np.divide(rz, pq, out=np.zeros_like(rz), where=running)
            Q *= alpha
            R -= Q
            X += np.multiply(alpha, P, out=Q)
            Z = self._precondition(R, Q)
            rz_new = np.einsum("ij,ij->j", R, Z)
            P *= np.divide(rz_new, rz, out=np.zeros_like(rz), where=running)
            P += Z
            del Q, Z  # before the next product allocates
            rz = np.where(running, rz_new, rz)


# ---------------------------------------------------------------------------
# DN maps


@dataclass(frozen=True, eq=False)
class DNMatrix:
    """Dense partial DN map on ``GAMMA0`` or ``GAMMA1``, rows and columns in
    ascending node id: nodal Dirichlet values to quadrature-weighted Neumann data."""

    matrix: np.ndarray


def _lower_inverse(L: np.ndarray, work: np.ndarray) -> np.ndarray:
    """Overwrite the lower triangular ``L`` (any layout) by ``L^{-1}`` and its strict upper
    triangle by 0: trtri up to 96 rows, else ``-D^{-1} (C A^{-1})`` by two GEMMs into ``work``."""
    n, h = len(L), len(L) // 2
    if n <= 96:
        L[...] = np.tril(scipy.linalg.lapack.dtrtri(L, lower=1)[0])
        return L
    A, C, D = _lower_inverse(L[:h, :h], work), L[h:, :h], _lower_inverse(L[h:, h:], work)
    X, Z = work.reshape(-1)[: 2 * C.size].reshape(2, *C.shape)
    np.negative(np.matmul(D, np.matmul(C, A, out=X), out=Z), out=C)
    L[:h, h:] = 0.0
    return L


def dn_map_partial(sys: StiffnessSystem, gamma: str) -> DNMatrix:
    """Dense DN map on ``GAMMA0`` or ``GAMMA1`` (any other part raises
    ShapeMismatch), Dirichlet-zero on the other end, by the discrete Riccati
    recursion over t-layers (invariant embedding, Henry & Ramos 2016). K is
    block tridiagonal in layers; walking away from the Dirichlet-zero end,
    ``S_k = K_kk - Y^T Y`` with ``Y = L^{-1} K_pk`` and ``L L^T`` the
    previous layer's ``S_p``. The factors L make up the block Cholesky of the
    interior block: where one fails, or their pivot ratio ``min/max diag(L)^2``
    is below ``_PIVOT_RATIO_FLOOR``, SingularInteriorBlock names the t-layer;
    a map that is not finite raises NoConvergence. In three layer-sized
    buffers: LAPACK factors S in place (into ``L^T``: its transpose is
    Fortran), :func:`_lower_inverse` turns it into ``L^{-T}`` (T is scratch),
    ``Y^T = K_kp L^{-T}`` is one CSR product, and a syrk ``Y^T Y`` keeps S
    bitwise symmetric, as K is; T takes the next S and swaps with it.
    """
    if gamma not in (GAMMA0, GAMMA1):
        raise ShapeMismatch(f"dense DN maps are taken on {GAMMA0} or {GAMMA1}, not {quote(gamma)}")
    K, P, num_t = sys.matrix, sys.grid.layer_count, sys.grid.num_t
    ids = list(range(1, num_t)) if gamma == GAMMA1 else list(range(num_t - 2, -1, -1))

    def block(i: int, j: int) -> sp.csr_matrix:
        return K[i * P : (i + 1) * P, j * P : (j + 1) * P]

    S, T = block(ids[0], ids[0]).toarray(), np.empty((P, P))
    pivots = []
    for p, k in zip(ids, ids[1:]):
        L, info = scipy.linalg.lapack.dpotrf(S.T, lower=1, clean=0, overwrite_a=1)
        if info != 0:
            raise SingularInteriorBlock(f"block Cholesky fails at t-layer {p}, leading minor {info}")
        pivots.append(np.diag(L) ** 2)
        Yt = block(k, p) @ _lower_inverse(L, T).T
        np.subtract(block(k, k).toarray(out=S), np.matmul(Yt, Yt.T, out=T), out=T)
        S, T, Yt = T, S, None  # Yt goes before the next layer's product: three buffers
    if not np.isfinite(S).all():
        raise NoConvergence(math.nan, _SOLVE_RTOL)
    d = np.concatenate(pivots)
    if not d.min() >= _PIVOT_RATIO_FLOOR * d.max():
        raise SingularInteriorBlock(f"block Cholesky pivot ratio {d.min() / d.max():.3e} below "
                                    f"{_PIVOT_RATIO_FLOOR:.0e} at t-layer {ids[int(d.argmin()) // P]}")
    return DNMatrix(S)


def dn_apply(sys: StiffnessSystem, gamma: str, traces: np.ndarray) -> np.ndarray:
    """Apply the DN map to trace columns without forming it densely.

    ``traces`` has shape (n_gamma, k); returns the same shape: the rows on
    ``gamma`` of ``K @ u`` that ``InteriorSolver.extend`` returns, the
    Neumann data of the extensions ``u``. Columns go through one interior
    solver in chunks of at most ``_DENSE_BYTES`` of node array (at least
    one column, each a fresh node array), so a solve's memory is bounded.
    """
    grid = sys.grid
    G = grid.boundary_ids(gamma)
    V = np.asarray(traces, dtype=float)
    if V.ndim != 2 or V.shape[0] != G.size:
        raise ShapeMismatch(f"traces of shape {V.shape}, expected {G.size} rows on {gamma}")
    solver = InteriorSolver(sys)
    out = np.empty((G.size, V.shape[1]))
    chunk = max(1, _DENSE_BYTES // (8 * grid.node_count))
    for lo in range(0, V.shape[1], chunk):
        cols = V[:, lo : lo + chunk]
        U = np.zeros((grid.node_count, cols.shape[1]))
        U[G] = cols
        out[:, lo : lo + chunk] = solver.extend(U)[G]
    return out


# ---------------------------------------------------------------------------
# Fourier modes on the boundary torus


def _canonical_modes(n_ang: int, cut: float) -> list[tuple[int, ...]]:
    """Integer angular modes with 0 < |m| <= cut, one representative per
    {m, -m} pair (first nonzero component positive), plus the zero mode."""
    rng = range(-int(np.floor(cut)), int(np.floor(cut)) + 1)
    zero = (0,) * n_ang
    # m > zero as tuples: the first nonzero component is positive
    return [zero] + sorted(
        (m for m in itertools.product(rng, repeat=n_ang)
         if m > zero and sum(k * k for k in m) <= cut * cut + 1e-9),
        key=lambda m: (sum(k * k for k in m), m),
    )


def _layer_phases(grid: CylinderGrid, modes) -> np.ndarray:
    """Sampled phases ``m . x`` on one boundary layer, one column per mode."""
    mesh = np.meshgrid(*grid.axes()[1:], indexing="ij")
    return np.stack([sum(k * ax for k, ax in zip(m, mesh)).ravel() for m in modes], axis=1)


def check_modes(grid: CylinderGrid, modes) -> None:
    """The package's one rule for torus modes on ``grid``: at least one
    mode, each of n - 1 components, each component a finite integer
    (``1.0`` and numpy integers pass) with ``2 |m_d| < N_d`` on an angular
    axis of ``N_d`` nodes. A fractional component is not periodic across
    the angular seam, and a larger one aliases (on 8 nodes mode 4 samples
    to zero). Any other mode set raises ShapeMismatch."""
    if not len(modes):
        raise ShapeMismatch("no modes given")
    for m in modes:
        if len(m) != grid.n - 1:
            raise ShapeMismatch(f"mode {quote(tuple(m))} has {len(m)} components, expected {grid.n - 1}")
        for k, N in zip(m, grid.num_ang):
            if not (isinstance(k, numbers.Integral) or float(k).is_integer()):
                raise ShapeMismatch(f"mode {quote(tuple(m))} has a component {quote(k)} that is not a finite integer")
            if 2 * abs(k) >= N:
                raise ShapeMismatch(f"mode {quote(tuple(m))} aliases on angular axis with {N} nodes")


def fourier_modes(grid: CylinderGrid, cut: float) -> tuple[np.ndarray, list]:
    """Sampled cos/sin mode vectors on one boundary layer.

    Returns (V, labels) with V of shape (layer_count, n_vectors); labels
    are ("cos"|"sin", mode tuple). Modes must stay below the per-axis
    Nyquist limit of the layer grid. Every mode with |m| <= cut has its
    components in [-floor(cut), floor(cut)], and the axis-aligned mode
    (floor(cut), 0, ...) is one of them on every axis, so the cut aliases
    exactly when floor(cut) >= 1 and 2 floor(cut) reaches the smallest
    angular node count; that, and a cut that is not finite, is refused
    with ShapeMismatch before any mode is listed.
    """
    if not math.isfinite(cut):
        raise ShapeMismatch(f"mode cut {cut} is not finite")
    m = [0] * (grid.n - 1)
    m[grid.num_ang.index(min(grid.num_ang))] = max(math.floor(cut), 0)
    check_modes(grid, [tuple(m)])
    modes = _canonical_modes(grid.n - 1, cut)
    cols = []
    labels = []
    for m, phase in zip(modes, _layer_phases(grid, modes).T):
        cols.append(np.cos(phase))
        labels.append(("cos", m))
        if any(m):
            cols.append(np.sin(phase))
            labels.append(("sin", m))
    return np.stack(cols, axis=1), labels


def _mode_basis(grid: CylinderGrid, gamma: str, cut: float) -> tuple[np.ndarray, list]:
    """Mode vectors on ``gamma``; on the full boundary, the block-diagonal
    gamma0/gamma1 basis with labels prefixed by their component."""
    Vl, labels = fourier_modes(grid, cut)
    if gamma != FULL_BOUNDARY:
        return Vl, labels
    z = np.zeros_like(Vl)
    V = np.block([[Vl, z], [z, Vl]])
    return V, [(GAMMA0, *l) for l in labels] + [(GAMMA1, *l) for l in labels]


def dn_mode_matrix(sys: StiffnessSystem, gamma: str, cut: float = 2.0) -> tuple[np.ndarray, list]:
    """Low-mode pairing matrix B[m, m'] = <Lam v_m, v_m'>, the Dirichlet
    energies ``u_m^T K u_m'`` of the harmonic extensions ``u_m`` of the
    mode vectors, zero on the rest of the boundary: one batched interior
    solve (:meth:`InteriorSolver.energy`) for all mode vectors. Its error
    is second order in the solve's and, up to rounding, positive
    semidefinite (the Dirichlet principle). Mode vectors whose node array
    would pass ``_DENSE_BYTES`` (more than 15 at size 65) go through the
    chunks of ``dn_apply`` instead, as ``V^T Lam V``.

    Because the DN matrix returns quadrature-weighted Neumann data, B
    approximates the continuum pairing and is comparable across grid
    refinements of the same cylinder.
    """
    grid = sys.grid
    V, labels = _mode_basis(grid, gamma, cut)
    if 8 * grid.node_count * V.shape[1] > _DENSE_BYTES:
        return V.T @ dn_apply(sys, gamma, V), labels
    U = np.zeros((grid.node_count, V.shape[1]))
    U[grid.boundary_ids(gamma)] = V
    return InteriorSolver(sys).energy(U), labels


def mode_gap(B1: np.ndarray, B2: np.ndarray) -> float:
    """Relative Frobenius distance of two mode matrices; matrices of
    different shapes raise ShapeMismatch."""
    if np.shape(B1) != np.shape(B2):
        raise ShapeMismatch(f"mode matrices of shapes {np.shape(B1)} and {np.shape(B2)} differ")
    denom = max(l2_norm(B1), l2_norm(B2))
    return l2_norm(B1 - B2) / denom if denom != 0.0 else 0.0


# ---------------------------------------------------------------------------
# boundary mass and mode eigenvalues


def boundary_mass_matrix(grid: CylinderGrid) -> sp.spmatrix:
    """Consistent Q1 mass matrix of one boundary layer (flat measure): the
    tensor product of periodic 1-D masses; Gamma0 and Gamma1 share it."""
    M = sp.identity(1, format="csr")
    for num, h in zip(grid.num_ang, grid.h_ang):
        M = sp.kron(M, sp.csr_matrix(_q1_pencil(num, h)[1]), format="csr")
    return M


def dn_mode_eigenvalues(
    sys: StiffnessSystem, gamma: str, modes: list[tuple[int, ...]]
) -> np.ndarray:
    """Generalized Rayleigh quotients of the DN map on cosine mode vectors,

        mu_m = <Lam v_m, v_m> / <M v_m, v_m>,

    with M the boundary mass matrix. For the flat cylinder these converge
    to the separated-variables eigenvalues. A mode set that
    :func:`check_modes` refuses and ``FULL_BOUNDARY`` raise ShapeMismatch."""
    check_modes(sys.grid, modes)
    V = np.cos(_layer_phases(sys.grid, modes))
    lamV = dn_apply(sys, gamma, V)
    M = boundary_mass_matrix(sys.grid)
    num = np.einsum("ik,ik->k", V, lamV)
    den = np.einsum("ik,ik->k", V, M @ V)
    return num / den

