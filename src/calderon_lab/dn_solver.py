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

Assembly (:func:`assemble_stiffness`) is one loop over blocks of cells,
so its temporaries are block-sized, and one GEMM per block over the unique
metric components and the unique element entries ``a <= b``. It is
deterministic: the element matrices are mirrored from their unique
entries and scattered once, cell-major, so the assembled matrices are
bitwise symmetric and their bytes depend neither on the block size nor on
the BLAS thread count. The CSR pattern, with the cell-node table it
yields, and the element tables are cached per grid; the pattern is built
without a sort, from the tensor-product structure of the Q1 stencil.

Every interior solve but one goes through :class:`InteriorSolver`, whose
seam fixes the whole boundary: the free nodes are the interior t-layers,
one contiguous id range. Its ``extend`` replaces the interior entries of a
nodal array by the discrete harmonic extension of its boundary entries,
and it is the only way Dirichlet data reaches a solve: DN maps
(``K[G] @ extend(U)`` with ``U`` the traces on ``G`` and zero elsewhere)
and the rigidity check of ``conformal`` are both this one operation.
Solves run batched conjugate gradients
preconditioned by the exact inverse of the flat-metric block (fast
diagonalisation of 1-D Q1 pencils, whose eigenpairs are cached per grid),
with a sparse LU of the block as the
fallback when CG breaks down or stalls. Each of its solves is checked at
1e-10 relative residual.

The exception is ``dn_map_partial`` on ``GAMMA0``/``GAMMA1``: it strips
t-layers with one dense Cholesky per layer (:func:`_layer_stripped`) and
goes through ``InteriorSolver`` only when a pivot fails or is below 1e-9.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .calculus import require_full_layers
from .errors import (
    GridMismatch,
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
    spd_weight,
)

_PIVOT_RATIO_FLOOR = 1e-9
_SOLVE_RTOL = 1e-10
_CG_RTOL = 1e-12  # per column, on sqrt(r^T z) relative to its start
_CG_MAXIT = 200
_DENSE_CHUNK = 256  # trace columns per interior solve in dn_apply
_BLOCK_CELLS = 4096  # cells per assembly block (2048 timed the same, 1024 and 8192 slower)


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
    """CSR pattern of the cell-major element scatter: the CSR slot of every
    element-matrix entry, the column indices and row pointers, and the
    cell-node table, the global node ids of each cell's 2^n corners as
    int32 of shape (2^n, cells).

    Cells are indexed lexicographically like nodes; the t-axis has
    num_t - 1 cells, each angular axis wraps and has as many cells as nodes.
    Corner L of a cell offsets the cell's base node by the bits of L
    (axis 0 = most significant bit), modulo the period on angular axes.

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
        node = (np.arange(num - 1 if d == 0 else num)[:, None] + np.arange(2)) % num
        near = nb[node][:, :, None, :]
        rank = ((near >= 0) & (near < node[:, None, :, None])).sum(axis=-1)
        row = row + _spread(node[:, :, None] * strides[d], d, n)
        slot = slot * _spread(m[node][:, :, None].astype(index), d, n) + _spread(rank.astype(index), d, n)
    slot += indptr[row]
    # the row node of every (cell, row corner), the same for every column corner
    nodes = np.ascontiguousarray(row.reshape(-1, 1 << n).T, dtype=np.int32)
    return slot.reshape(-1), indices, indptr, nodes


def _element_tables(grid: CylinderGrid):
    """The shape table N and the per-grid tables of the element GEMMs,
    over the unique element entries ``p = (a, b)``, ``a <= b``, in the
    order of ``np.triu_indices(2^n)``:

    - ``stiff[(k, q), p]``, for the unique metric components ``k = (i, j)``
      with ``i <= j`` in the order of ``np.triu_indices(n)``, is
      ``T[i, i, q]`` on the diagonal and ``T[i, j, q] + T[j, i, q]`` off
      it, with ``T[i, j, q, a, b] = w G[q, a, i] G[q, b, j]`` the products
      of physical shape gradients times the quadrature weight ``w``;
    - ``mass[q, p] = w N[q, a] N[q, b]``;
    - ``mirror``, the unique-entry index of every entry ``(a, b)`` of a
      row-major element matrix, ``(a, b)`` and ``(b, a)`` alike.
    """
    n = grid.n
    N, G = _q1_tables(n)
    w = 0.5**n * float(np.prod(grid.spacings))  # quadrature weight
    G = G / grid.spacings  # physical gradients, constant per uniform cell
    a, b = np.triu_indices(1 << n)
    T = w * np.einsum("qai,qbj->ijqab", G, G)[..., a, b]
    stiff = np.concatenate([T[i, j] + T[j, i] if i < j else T[i, i] for i, j in zip(*np.triu_indices(n))])
    mass = w * N[:, a] * N[:, b]
    mirror = np.empty((1 << n, 1 << n), dtype=np.intp)
    mirror[a, b] = mirror[b, a] = np.arange(a.size)
    return N, stiff, mass, mirror.ravel()


@lru_cache(maxsize=8)
def _grid_layout(grid: CylinderGrid):
    """Scatter pattern with its cell-node table, and element tables of a
    grid, computed once per equal grid and shared read-only by every
    assembly on it."""
    pattern = _scatter_pattern(grid)
    tables = _element_tables(grid)
    for arr in (*pattern, *tables):
        arr.flags.writeable = False
    return pattern, tables


def _cell_blocks(n_cells: int):
    """Bounds of the assembly blocks: ``_BLOCK_CELLS`` cells each, the last
    one shorter. A one-cell remainder joins the block before it, because
    numpy hands a one-row product to a matrix-vector kernel whose sums may
    round differently from the matrix-matrix kernel of the other blocks."""
    bounds = list(range(0, n_cells, _BLOCK_CELLS)) + [n_cells]
    if len(bounds) > 2 and bounds[-1] - bounds[-2] == 1:
        del bounds[-2]
    return zip(bounds[:-1], bounds[1:])


def _scatter(slot: np.ndarray, elem: np.ndarray, nnz: int) -> np.ndarray:
    """The CSR data of the element matrices summed into the pattern;
    duplicates add up in input order, so the result is a deterministic
    function of the layout. ``np.add.at`` takes the int32 slots as they are
    (``np.bincount`` would copy them to intp)."""
    data = np.zeros(nnz)
    np.add.at(data, slot, elem.reshape(-1))
    return data


@dataclass(frozen=True, eq=False)
class StiffnessSystem:
    """Assembled weak-form operator: Laplace part plus optional potential
    mass part, on its grid. The two parts share one sparsity pattern.
    ``potential_id`` is a caller's label for the potential; nothing in the
    package reads it."""

    grid: CylinderGrid
    laplace: sp.csr_matrix
    mass: sp.csr_matrix | None = None
    potential_id: str | None = None

    @cached_property
    def matrix(self) -> sp.csr_matrix:
        if self.mass is None:
            return self.laplace
        K = self.laplace
        return sp.csr_matrix((K.data + self.mass.data, K.indices, K.indptr), shape=K.shape)


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

    One loop runs over blocks of ``_BLOCK_CELLS`` cells. A block gathers
    the ``n(n+1)/2`` unique metric components at its cells' corners,
    interpolates them to the Gauss points (one matmul with the shape table
    N), takes ``W = sqrt(det g) g^{-1}`` there from the SPD kernel
    :func:`~calderon_lab.grid_geometry.spd_weight`, and gets the unique
    entries ``a <= b`` of its element matrices by one GEMM,
    ``E[c, p] = sum_{k, q} W[k, q, c] stiff[(k, q), p]`` with ``k`` over
    the components ``i <= j`` and the table of :func:`_element_tables`,
    which folds ``T_ij + T_ji``. A fixed index mirrors them into one
    ``(cells, 2^n * 2^n)`` element buffer, so every element matrix is
    bitwise symmetric, and the buffer is scattered once, cell-major. The
    loop also keeps ``sqrt(det g) V`` at the Gauss points; once K is
    scattered, the mass matrix reuses the buffer, one GEMM per block
    against ``w N[q, a] N[q, b]``. The cell-node table, the scatter
    pattern and the tables come from a per-grid cache (equal grids share
    one entry) and are never handed out: the system's matrices share one
    copy of the index arrays.
    """
    grid = metric.grid
    n = grid.n
    n_loc = 1 << n
    size = grid.node_count
    (slot, indices, indptr, nodes), (N, stiff, mass_table, mirror) = _grid_layout(grid)
    n_cells = nodes.shape[1]

    v_nodes = None
    if potential is not None:
        v_values = np.asarray(potential, dtype=float)
        if v_values.shape != grid.shape:
            raise GridMismatch(f"potential shape {v_values.shape}, expected {grid.shape}")
        require_full_layers(v_values, "potential")
        v_nodes = v_values.reshape(size)

    # the unique metric components by node, packed for the SPD kernel; the
    # gathers use np.take(mode="clip"), about 3 times faster than fancy
    # indexing here, and the ids are in range
    iu, ju = np.triu_indices(n)
    g_nodes = np.ascontiguousarray(metric.mat.reshape(size, n * n)[:, iu * n + ju].T)
    elem = np.empty((n_cells, n_loc * n_loc))
    mass_weight = None if v_nodes is None else np.empty((n_loc, n_cells))
    for lo, hi in _cell_blocks(n_cells):
        cell_nodes = nodes[:, lo:hi]
        W, root_det = spd_weight(N @ np.take(g_nodes, cell_nodes, axis=1, mode="clip"))
        # mode="clip" also spares np.take a buffered copy into out
        np.take(W.reshape(-1, hi - lo).T @ stiff, mirror, axis=1, out=elem[lo:hi], mode="clip")
        if v_nodes is not None:
            mass_weight[:, lo:hi] = root_det * (N @ np.take(v_nodes, cell_nodes, mode="clip"))
    # one copy of the index arrays, shared by the system's matrices
    indices, indptr = indices.copy(), indptr.copy()
    K = sp.csr_matrix((_scatter(slot, elem, indices.size), indices, indptr), shape=(size, size))
    M = None
    if v_nodes is not None:
        for lo, hi in _cell_blocks(n_cells):
            np.take(mass_weight[:, lo:hi].T @ mass_table, mirror, axis=1, out=elem[lo:hi], mode="clip")
        M = sp.csr_matrix((_scatter(slot, elem, indices.size), indices, indptr), shape=(size, size))
    return StiffnessSystem(
        grid, K, mass=M, potential_id=potential_id if potential is not None else None
    )


# ---------------------------------------------------------------------------
# interior solves


def _q1_pencil(num: int, h: float, periodic: bool) -> tuple[np.ndarray, np.ndarray]:
    """Dense 1-D Q1 stiffness and mass matrices on ``num`` nodes of spacing
    ``h``: an interval including both end nodes, or a periodic axis."""
    a = np.arange(num if periodic else num - 1)
    b = (a + 1) % num
    K = np.zeros((num, num))
    M = np.zeros((num, num))
    for i, j, k, m in ((a, a, 1.0, 2.0), (a, b, -1.0, 1.0), (b, a, -1.0, 1.0), (b, b, 1.0, 2.0)):
        np.add.at(K, (i, j), k / h)
        np.add.at(M, (i, j), m * h / 6.0)
    return K, M


@lru_cache(maxsize=8)
def _flat_eigs(grid: CylinderGrid):
    """Fast-diagonalisation factors of the flat-metric interior block of a
    grid: the eigenvectors ``V_d`` of each 1-D Q1 pencil (t restricted to
    the interior layers, the angles periodic) and the sum ``D`` of their
    eigenvalues on the interior node grid. Computed once per equal grid and
    shared read-only by every solver on it."""
    K_t, M_t = _q1_pencil(grid.num_t, grid.h_t, periodic=False)
    pencils = [(K_t[1:-1, 1:-1], M_t[1:-1, 1:-1])]
    pencils += [_q1_pencil(m, h, periodic=True) for m, h in zip(grid.num_ang, grid.h_ang)]
    eigs = [scipy.linalg.eigh(Kd, Md) for Kd, Md in pencils]
    vecs = tuple(V for _, V in eigs)
    diag = reduce(np.add.outer, [lam for lam, _ in eigs])
    for arr in (*vecs, diag):
        arr.flags.writeable = False
    return vecs, diag


def _along_axis(A: np.ndarray, Y: np.ndarray, axis: int) -> np.ndarray:
    """Apply the matrix ``A`` along one axis of ``Y`` with one matmul on a
    (lead, N, rest) reshape."""
    s = Y.shape
    return (A @ Y.reshape(math.prod(s[:axis]), s[axis], -1)).reshape(s)


class InteriorSolver:
    """Harmonic extension from the whole boundary of ``grid`` into its
    interior t-layers, the slice ``free`` of node ids. ``extend(u)``
    overwrites ``u[free]`` by the solution of
    ``K[free, free] x = -K[free, fixed] u[fixed]`` with ``fixed`` the
    ``FULL_BOUNDARY`` ids: the Dirichlet data are the boundary entries of
    a nodal array, with no trace container in between. ``solve`` solves
    with the block ``K[free, free]`` directly.

    Every solve runs preconditioned CG on all right-hand-side columns at
    once (Concus & Golub 1973). The preconditioner is the exact inverse of
    the flat-metric Q1 block on the same free layers, applied by fast
    diagonalisation (Lynch, Rice & Thomas 1964): the 1-D Q1 pencils
    ``K_d V_d = M_d V_d Lam_d`` (on t restricted to the interior layers,
    on the angles periodic) give ``K_flat^{-1} = V D^{-1} V^T`` with
    ``V = V_t (x) V_1 (x) ...`` and ``D = sum_d Lam_d``. A column stops
    when its preconditioned residual ``sqrt(r^T z)`` is at most 1e-12 of
    its start. With ``W = sqrt(det g) g^{-1}`` at the quadrature points,
    ``min eig(W) K_flat <= K_g <= max eig(W) K_flat``, so a potential-free
    block needs at most ``ceil(sqrt(kappa)/2 * ln(2 sqrt(kappa) / 1e-12))``
    iterations with ``kappa = max eig(W) / min eig(W)``; the flat metric
    needs one. ``iterations`` holds the count of the last solve.

    If CG breaks down (``p^T A p <= 0``, as it can on an indefinite
    ``-Lap_g + q`` block), has not converged after ``_CG_MAXIT`` iterations
    or returns a solution that misses the residual check, this and every
    later solve use a sparse LU of the block instead, ordered by MMD on
    A^T + A; a pivot ratio below 1e-9 there raises SingularInteriorBlock,
    and ``iterations`` is None. Each solver serves one public call and is
    never cached.
    """

    def __init__(self, K: sp.csr_matrix, grid: CylinderGrid):
        self._fixed = grid.boundary_ids(FULL_BOUNDARY)
        P = grid.layer_count
        self.free = slice(P, (grid.num_t - 1) * P)
        self.block = K[self.free, self.free]
        self._coupling = K[self.free, self._fixed]
        self.iterations: int | None = None
        self._lu = None
        self._shape = (grid.num_t - 2, *grid.num_ang)
        self._vecs, self._diag = _flat_eigs(grid)

    def extend(self, u: np.ndarray) -> np.ndarray:
        """Overwrite the interior entries of ``u`` (nodes first, any number
        of columns) by the harmonic extension of its boundary entries;
        returns ``u``. The right-hand side is built in ``u[free]`` itself,
        so no node-sized copy of ``u`` is made."""
        u[self.free] = self._coupling @ -u[self._fixed]
        u[self.free] = self.solve(u[self.free])
        return u

    def _flat_inverse(self, R: np.ndarray) -> np.ndarray:
        """``V D^{-1} V^T R`` for the columns of ``R``."""
        Y = R.reshape(*self._shape, R.shape[1])
        for d, V in enumerate(self._vecs):
            Y = _along_axis(V.T, Y, d)
        Y /= self._diag[..., None]
        for d, V in enumerate(self._vecs):
            Y = _along_axis(V, Y, d)
        return Y.reshape(R.shape)

    def _pcg(self, B: np.ndarray) -> np.ndarray | None:
        """Batched preconditioned CG; None on breakdown or after _CG_MAXIT
        iterations. The iterates ``X`` of the running columns stay compact
        beside ``R`` and ``P``; a column is written to the result when it
        converges and leaves the batch."""
        out = np.empty_like(B)
        X = np.zeros_like(B)
        R = B.copy()
        P = self._flat_inverse(R)
        rz = np.einsum("ij,ij->j", R, P)
        stop = _CG_RTOL**2 * rz
        active = np.arange(B.shape[1])
        it = 0
        while True:
            keep = ~(rz <= stop)  # a NaN column stays and ends CG as a breakdown
            if not keep.all():
                out[:, active[~keep]] = X[:, ~keep]
                active, X, R, P = active[keep], X[:, keep], R[:, keep], P[:, keep]
                rz, stop = rz[keep], stop[keep]
            if active.size == 0:
                self.iterations = it
                return out
            if it == _CG_MAXIT:
                return None
            it += 1
            Q = self.block @ P
            pq = np.einsum("ij,ij->j", P, Q)
            if not (pq > 0.0).all():
                return None
            alpha = rz / pq
            X += alpha * P
            Q *= alpha
            R -= Q
            Z = self._flat_inverse(R)
            rz_new = np.einsum("ij,ij->j", R, Z)
            P *= rz_new / rz
            P += Z
            rz = rz_new

    def _factor(self):
        """The sparse LU of the block, made on first use."""
        if self._lu is None:
            try:
                lu = spla.splu(self.block.tocsc(), permc_spec="MMD_AT_PLUS_A")
            except RuntimeError as exc:
                raise SingularInteriorBlock(str(exc)) from exc
            d = np.abs(lu.U.diagonal())
            dmax = float(d.max()) if d.size else 0.0
            if dmax == 0.0 or float(d.min()) < _PIVOT_RATIO_FLOOR * dmax:
                ratio = float(d.min()) / dmax if dmax else 0.0
                raise SingularInteriorBlock(f"pivot ratio {ratio:.3e}")
            self._lu = lu
        return self._lu

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve ``block @ X = rhs``; raises NoConvergence unless
        ``||block @ X - rhs|| <= 1e-10 ||rhs||``."""
        B = rhs.reshape(rhs.shape[0], -1)
        scale = max(np.linalg.norm(B), 1e-300)
        X = None if self._lu is not None else self._pcg(B)
        res = None if X is None else np.linalg.norm(self.block @ X - B)
        if res is None or not (res <= _SOLVE_RTOL * scale):
            self.iterations = None
            X = self._factor().solve(B)
            res = np.linalg.norm(self.block @ X - B)
        if not (res <= _SOLVE_RTOL * scale):  # NaN fails too
            raise NoConvergence(res / scale, _SOLVE_RTOL)
        return X.reshape(rhs.shape)


# ---------------------------------------------------------------------------
# DN maps


@dataclass(frozen=True, eq=False)
class DNMatrix:
    """Dense partial DN map on one boundary component.

    Rows/columns follow ascending node id on the component (for the full
    boundary: gamma0 block then gamma1 block). The matrix maps nodal
    Dirichlet values to quadrature-weighted Neumann data.
    """

    matrix: np.ndarray


def _layer_stripped(sys: StiffnessSystem, gamma: str) -> np.ndarray | None:
    """Dense DN map on ``GAMMA0`` or ``GAMMA1`` by the discrete Riccati
    recursion over t-layers (invariant embedding, Henry & Ramos 2016). K is
    block tridiagonal in layers; walking away from the Dirichlet-zero end,
    ``S_k = K_kk - Y^T Y`` with ``Y = L^{-1} K_pk`` and ``L L^T`` the
    previous layer's ``S_p``. The factors L make up the block Cholesky of
    the interior block; None when it fails, its pivot ratio
    ``min/max diag(L)^2`` is below ``_PIVOT_RATIO_FLOOR`` or S is not finite.
    """
    P = sys.grid.layer_count
    T = sys.grid.num_t
    ids = list(range(1, T)) if gamma == GAMMA1 else list(range(T - 2, -1, -1))

    def block(i: int, j: int) -> np.ndarray:
        return sys.matrix[i * P : (i + 1) * P, j * P : (j + 1) * P].toarray()

    S = block(ids[0], ids[0])
    pivots = []
    for p, k in zip(ids, ids[1:]):
        try:
            L = scipy.linalg.cholesky(S, lower=True, check_finite=False)
        except np.linalg.LinAlgError:
            return None
        pivots.append(np.diag(L) ** 2)
        Y = scipy.linalg.solve_triangular(L, block(p, k), lower=True, check_finite=False)
        S = block(k, k) - Y.T @ Y
        S = 0.5 * (S + S.T)
    d = np.concatenate(pivots)
    if d.min() >= _PIVOT_RATIO_FLOOR * d.max() and np.isfinite(S).all():
        return S
    return None


def dn_map_partial(sys: StiffnessSystem, gamma: str) -> DNMatrix:
    """Dense DN map on ``gamma``; Dirichlet-zero is imposed on the rest of
    the boundary. ``dn_apply`` on the identity serves the full boundary and
    the interior blocks that :func:`_layer_stripped` rejects."""
    lam = _layer_stripped(sys, gamma) if gamma in (GAMMA0, GAMMA1) else None
    if lam is None:
        lam = dn_apply(sys, gamma, np.eye(sys.grid.boundary_ids(gamma).size))
    return DNMatrix(lam)


def dn_apply(sys: StiffnessSystem, gamma: str, traces: np.ndarray) -> np.ndarray:
    """Apply the DN map to trace columns without forming it densely.

    ``traces`` has shape (n_gamma, k); returns the same shape. Columns go
    through one interior solver ``_DENSE_CHUNK`` at a time.
    """
    grid = sys.grid
    G = grid.boundary_ids(gamma)
    V = np.asarray(traces, dtype=float)
    if V.ndim != 2 or V.shape[0] != G.size:
        raise ShapeMismatch(f"traces of shape {V.shape}, expected {G.size} rows on {gamma}")
    K_G = sys.matrix[G]
    solver = InteriorSolver(sys.matrix, grid)
    out = np.empty((G.size, V.shape[1]))
    # One node array for all chunks: extend writes only its free rows, so
    # the rows off G stay zero. A fresh array per chunk fragments the heap:
    # a 576-column map (the fallback of dn_map_partial) run after a gap
    # study peaked at 417 MB process RSS instead of 309 MB.
    U = np.zeros((grid.node_count, min(V.shape[1], _DENSE_CHUNK)))
    for lo in range(0, V.shape[1], _DENSE_CHUNK):
        cols = V[:, lo : lo + _DENSE_CHUNK]
        U_chunk = U[:, : cols.shape[1]]
        U_chunk[G] = cols
        out[:, lo : lo + _DENSE_CHUNK] = K_G @ solver.extend(U_chunk)
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


def fourier_modes(grid: CylinderGrid, cut: float) -> tuple[np.ndarray, list]:
    """Sampled cos/sin mode vectors on one boundary layer.

    Returns (V, labels) with V of shape (layer_count, n_vectors); labels
    are ("cos"|"sin", mode tuple). Modes must stay below the per-axis
    Nyquist limit of the layer grid. Every mode with |m| <= cut has its
    components in [-floor(cut), floor(cut)], and the axis-aligned mode
    (floor(cut), 0, ...) is one of them on every axis, so the cut aliases
    exactly when floor(cut) >= 1 and 2 floor(cut) reaches the smallest
    angular node count; that is checked before any mode is listed.
    """
    n_ang = grid.n - 1
    k, N = math.floor(cut), min(grid.num_ang)
    if k >= 1 and 2 * k >= N:
        m = [0] * n_ang
        m[grid.num_ang.index(N)] = k
        raise ShapeMismatch(f"mode {tuple(m)} aliases on angular axis with {N} nodes")
    modes = _canonical_modes(n_ang, cut)
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
    """Low-mode pairing matrix B[m, m'] = <Lam v_m, v_m'> computed with one
    interior solve per mode vector.

    Because the DN matrix returns quadrature-weighted Neumann data, B
    approximates the continuum pairing and is comparable across grid
    refinements of the same cylinder.
    """
    V, labels = _mode_basis(sys.grid, gamma, cut)
    lamV = dn_apply(sys, gamma, V)
    return V.T @ lamV, labels


def mode_gap(B1: np.ndarray, B2: np.ndarray) -> float:
    denom = max(np.linalg.norm(B1), np.linalg.norm(B2))
    if denom == 0.0:
        return 0.0
    return float(np.linalg.norm(B1 - B2) / denom)


# ---------------------------------------------------------------------------
# boundary mass and mode eigenvalues


def boundary_mass_matrix(grid: CylinderGrid, gamma: str) -> sp.spmatrix:
    """Consistent Q1 mass matrix of one boundary layer (flat measure): the
    tensor product of periodic 1-D masses."""
    if gamma not in (GAMMA0, GAMMA1):
        raise ValueError("boundary mass is defined per layer")
    M = sp.identity(1, format="csr")
    for num, h in zip(grid.num_ang, grid.h_ang):
        M = sp.kron(M, sp.csr_matrix(_q1_pencil(num, h, periodic=True)[1]), format="csr")
    return M


def dn_mode_eigenvalues(
    sys: StiffnessSystem, gamma: str, modes: list[tuple[int, ...]]
) -> np.ndarray:
    """Generalized Rayleigh quotients of the DN map on cosine mode vectors,

        mu_m = <Lam v_m, v_m> / <M v_m, v_m>,

    with M the boundary mass matrix. For the flat cylinder these converge
    to the separated-variables eigenvalues."""
    V = np.cos(_layer_phases(sys.grid, modes))
    lamV = dn_apply(sys, gamma, V)
    M = boundary_mass_matrix(sys.grid, gamma)
    num = np.einsum("ik,ik->k", V, lamV)
    den = np.einsum("ik,ik->k", V, M @ V)
    return num / den

