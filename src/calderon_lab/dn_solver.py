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

Assembly is a few whole-array steps with no loop over quadrature points:
one matmul interpolates the metric to every Gauss point, the package's SPD
kernel ``grid_geometry.spd_weight`` gives the weight ``sqrt(det g) g^{-1}``
there, and one GEMM against a table of gradient pairs gives every element
matrix. It is deterministic: element matrices are symmetrised and scattered
cell-major into one sparsity pattern that the stiffness and mass matrices
share, and duplicates are summed in that input order, so the stiffness
matrix is bitwise symmetric and its bytes do not depend on the BLAS thread
count. The cell-node table and the pattern are cached per grid.

Every interior solve but one goes through :class:`InteriorSolver`,
named by the boundary component whose values are fixed (``GAMMA0``,
``GAMMA1`` or ``FULL_BOUNDARY``); the free nodes are the remaining t-layers,
one contiguous id range. Its ``extend`` replaces the free entries of a nodal
array by the discrete harmonic extension of the fixed ones, and it is the
only way Dirichlet data reaches a solve: DN maps (``K[G] @ extend(U)`` with
``U`` the traces on ``G`` and zero elsewhere), the natural-end harmonic
fields of ``conformal`` and its full-boundary rigidity check are all this
one operation. Solves run batched conjugate gradients
preconditioned by the exact inverse of the flat-metric block (fast
diagonalisation of 1-D Q1 pencils), with a sparse LU of the block as the
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

from .calculus import ScalarField, require_full_layers
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


# ---------------------------------------------------------------------------
# assembly


def _cell_nodes(grid: CylinderGrid) -> np.ndarray:
    """Global node ids of each cell's 2^n corners, shape (2^n, n_cells).

    Cells are indexed lexicographically like nodes; the t-axis has
    num_t - 1 cells, each angular axis wraps and has as many cells as nodes.
    Corner L of a cell offsets the cell's base node by the bits of L
    (axis 0 = most significant bit), modulo the period on angular axes.
    """
    # int32 halves the cell-node table; the scatter widens its keys to int64
    ids = np.arange(grid.node_count, dtype=np.int32).reshape(grid.shape)
    axes = tuple(range(grid.n))
    return np.stack(
        [
            np.roll(ids, [-b for b in bits], axis=axes)[:-1].ravel()
            for bits in itertools.product((0, 1), repeat=grid.n)
        ]
    )


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


def _scatter_pattern(nodes: np.ndarray, size: int):
    """CSR pattern of the cell-major element scatter: the CSR slot of every
    element-matrix entry, plus the column indices and row pointers."""
    nodes = nodes.T
    key = (nodes[:, :, None].astype(np.int64) * size + nodes[:, None, :]).ravel()
    # np.unique(key, return_inverse=True), without its extra key-sized
    # temporaries: the scatter sets the assembly's peak memory
    order = np.argsort(key)
    key = key[order]
    first = np.concatenate(([True], key[1:] != key[:-1]))
    rank = np.cumsum(first)
    rank -= 1
    slot = np.empty_like(rank)
    slot[order] = rank
    key = key[first]
    indptr = np.zeros(size + 1, dtype=np.int64)
    np.cumsum(np.bincount(key // size, minlength=size), out=indptr[1:])
    index = np.int32 if indptr[-1] <= np.iinfo(np.int32).max else np.int64
    return slot.astype(index), (key % size).astype(index), indptr.astype(index)


@lru_cache(maxsize=4)
def _grid_layout(grid: CylinderGrid):
    """Cell-node table and scatter pattern of a grid, computed once per
    equal grid and shared read-only by every assembly on it."""
    nodes = _cell_nodes(grid)
    pattern = _scatter_pattern(nodes, grid.node_count)
    for arr in (nodes, *pattern):
        arr.flags.writeable = False
    return nodes, pattern


def _scatter(pattern, elem: np.ndarray, size: int) -> sp.csr_matrix:
    """Sum the element matrices into the pattern; duplicates add up in
    input order, so the result is a deterministic function of the layout.
    The matrix gets its own copies of the cached index arrays."""
    slot, indices, indptr = pattern
    data = np.bincount(slot, weights=elem.ravel(), minlength=indices.size)
    return sp.csr_matrix((data, indices.copy(), indptr.copy()), shape=(size, size))


@dataclass(frozen=True, eq=False)
class StiffnessSystem:
    """Assembled weak-form operator: Laplace part plus optional potential
    mass part, on its grid. ``potential_id`` is a caller's label for the
    potential; nothing in the package reads it."""

    grid: CylinderGrid
    laplace: sp.csr_matrix
    mass: sp.csr_matrix | None = None
    potential_id: str | None = None

    @cached_property
    def matrix(self) -> sp.csr_matrix:
        if self.mass is None:
            return self.laplace
        return (self.laplace + self.mass).tocsr()


def assemble_stiffness(
    metric: MetricField,
    potential: ScalarField | np.ndarray | None = None,
    potential_id: str | None = None,
) -> StiffnessSystem:
    """Assemble the Q1 stiffness matrix for the metric Laplacian, plus the
    weighted mass matrix when a potential is given.

    The bilinear form is

        a(u, v) = int g^{ij} d_i u d_j v sqrt(det g)
                  + int V u v sqrt(det g).

    With the metric interpolated to the Gauss points (one matmul with the
    shape table N) and ``W = sqrt(det g) g^{-1}`` there from the SPD kernel
    :func:`~calderon_lab.grid_geometry.spd_weight`, the element matrices of
    all cells are one GEMM,
    ``E[c, a, b] = sum_{i,j,q} W[i, j, q, c] T[i, j, q, a, b]`` with
    ``T[i, j, q, a, b] = G[q, a, i] G[q, b, j]`` the products of physical
    shape gradients times the quadrature weight; the mass matrix is a second
    GEMM against ``N[q, a] N[q, b]``. The cell-node table and the scatter
    pattern come from a per-grid cache (equal grids share one entry) and are
    never handed out: each matrix owns its index arrays.
    """
    grid = metric.grid
    n = grid.n
    n_loc = 1 << n
    size = grid.node_count
    nodes, pattern = _grid_layout(grid)
    n_cells = nodes.shape[1]

    v_nodes = None
    if potential is not None:
        v_values = potential.values if isinstance(potential, ScalarField) else np.asarray(potential, dtype=float)
        if v_values.shape != grid.shape:
            raise GridMismatch(f"potential shape {v_values.shape}, expected {grid.shape}")
        require_full_layers(v_values, "potential")
        v_nodes = v_values.reshape(size)

    N, G = _q1_tables(n)
    w = 0.5**n * float(np.prod(grid.spacings))  # quadrature weight
    G = G / grid.spacings  # physical gradients, constant per uniform cell
    # the metric at every Gauss point of every cell by component, g[i, j, q, c]
    g_nodes = np.ascontiguousarray(metric.mat.reshape(size, n * n).T)
    g = np.matmul(N, g_nodes[:, nodes]).reshape(n, n, n_loc, n_cells)
    W, root_det = spd_weight(g)
    del g, g_nodes  # these whole-array temporaries set the peak memory
    T = w * np.einsum("qai,qbj->ijqab", G, G).reshape(n * n * n_loc, n_loc * n_loc)
    elem_k = (W.reshape(-1, n_cells).T @ T).reshape(n_cells, n_loc, n_loc)
    del W
    # a + b == b + a in floating point, so the element matrices are bitwise
    # symmetric whatever order the GEMM summed in
    K = _scatter(pattern, 0.5 * (elem_k + elem_k.transpose(0, 2, 1)), size)
    M = None
    if v_nodes is not None:
        weight = root_det * (N @ v_nodes[nodes])  # [q, c]
        table = w * np.einsum("qa,qb->qab", N, N).reshape(n_loc, n_loc * n_loc)
        elem_m = (weight.T @ table).reshape(n_cells, n_loc, n_loc)
        M = _scatter(pattern, 0.5 * (elem_m + elem_m.transpose(0, 2, 1)), size)
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


def _along_axis(A: np.ndarray, Y: np.ndarray, axis: int) -> np.ndarray:
    """Apply the matrix ``A`` along one axis of ``Y`` with one matmul on a
    (lead, N, rest) reshape."""
    s = Y.shape
    return (A @ Y.reshape(math.prod(s[:axis]), s[axis], -1)).reshape(s)


class InteriorSolver:
    """Harmonic extension from the boundary component ``fixed`` (``GAMMA0``,
    ``GAMMA1`` or ``FULL_BOUNDARY``) into the remaining t-layers of ``grid``,
    the slice ``free`` of node ids. ``extend(u)`` overwrites ``u[free]`` by
    the solution of ``K[free, free] x = -K[free, fixed] u[fixed]``: the
    Dirichlet data are the fixed entries of a nodal array, with no trace
    container in between. ``solve`` solves with the block
    ``K[free, free]`` directly.

    Every solve runs preconditioned CG on all right-hand-side columns at
    once (Concus & Golub 1973). The preconditioner is the exact inverse of
    the flat-metric Q1 block on the same free layers, applied by fast
    diagonalisation (Lynch, Rice & Thomas 1964): the 1-D Q1 pencils
    ``K_d V_d = M_d V_d Lam_d`` (on t restricted to the free layers, on the
    angles periodic) give ``K_flat^{-1} = V D^{-1} V^T`` with
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

    def __init__(self, K: sp.spmatrix, grid: CylinderGrid, fixed: str):
        self._fixed = grid.boundary_ids(fixed)  # ValueError on unknown names
        first = 0 if fixed == GAMMA1 else 1
        last = grid.num_t if fixed == GAMMA0 else grid.num_t - 1
        P = grid.layer_count
        self.free = slice(first * P, last * P)
        K = K[self.free]
        self.block = K[:, self.free].tocsr()
        self._coupling = K[:, self._fixed]
        self.iterations: int | None = None
        self._lu = None
        K_t, M_t = _q1_pencil(grid.num_t, grid.h_t, periodic=False)
        pencils = [(K_t[first:last, first:last], M_t[first:last, first:last])]
        pencils += [_q1_pencil(m, h, periodic=True) for m, h in zip(grid.num_ang, grid.h_ang)]
        eigs = [scipy.linalg.eigh(Kd, Md) for Kd, Md in pencils]
        self._shape = (last - first, *grid.num_ang)
        self._vecs = [V for _, V in eigs]
        self._diag = reduce(np.add.outer, [lam for lam, _ in eigs])

    def extend(self, u: np.ndarray) -> np.ndarray:
        """Overwrite the free entries of ``u`` (nodes first, any number of
        columns) by the harmonic extension of its fixed entries; returns
        ``u``. The right-hand side is built in ``u[free]`` itself, so no
        node-sized copy of ``u`` is made."""
        u[self.free] = self._coupling @ -u[self._fixed]
        u[self.free] = self.solve(u[self.free])
        return u

    def _flat_inverse(self, R: np.ndarray) -> np.ndarray:
        """``V D^{-1} V^T R`` for the columns of ``R``."""
        Y = R.reshape(*self._shape, R.shape[1])
        for d, V in enumerate(self._vecs):
            Y = _along_axis(V.T, Y, d)
        Y = Y / self._diag[..., None]
        for d, V in enumerate(self._vecs):
            Y = _along_axis(V, Y, d)
        return Y.reshape(R.shape)

    def _pcg(self, B: np.ndarray) -> np.ndarray | None:
        """Batched preconditioned CG; None on breakdown or after _CG_MAXIT
        iterations. Converged columns leave the batch."""
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
                active, R, P, rz, stop = active[keep], R[:, keep], P[:, keep], rz[keep], stop[keep]
            if active.size == 0:
                self.iterations = it
                return X
            if it == _CG_MAXIT:
                return None
            it += 1
            Q = self.block @ P
            pq = np.einsum("ij,ij->j", P, Q)
            if not (pq > 0.0).all():
                return None
            alpha = rz / pq
            X[:, active] += alpha * P
            R -= alpha * Q
            Z = self._flat_inverse(R)
            rz_new = np.einsum("ij,ij->j", R, Z)
            P = Z + (rz_new / rz) * P
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

    ``traces`` has shape (n_gamma, k) or (n_gamma,); returns the same
    shape. Columns go through one interior solver ``_DENSE_CHUNK`` at a
    time.
    """
    grid = sys.grid
    G = grid.boundary_ids(gamma)
    V = np.asarray(traces, dtype=float)
    squeeze = V.ndim == 1
    if squeeze:
        V = V[:, None]
    if V.ndim != 2 or V.shape[0] != G.size:
        raise ShapeMismatch(f"traces of shape {V.shape}, expected {G.size} rows on {gamma}")
    K_G = sys.matrix[G]
    solver = InteriorSolver(sys.matrix, grid, FULL_BOUNDARY)
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
    return out[:, 0] if squeeze else out


# ---------------------------------------------------------------------------
# Fourier modes on the boundary torus


def _canonical_modes(n_ang: int, cut: float) -> list[tuple[int, ...]]:
    """Integer angular modes with 0 < |m| <= cut, one representative per
    {m, -m} pair (first nonzero component positive), plus the zero mode."""
    rng = range(-int(np.floor(cut)), int(np.floor(cut)) + 1)
    out = [tuple([0] * n_ang)]
    seen = set(out)
    cands = []
    for m in itertools.product(rng, repeat=n_ang):
        norm2 = sum(k * k for k in m)
        if norm2 == 0 or norm2 > cut * cut + 1e-9:
            continue
        first = next(k for k in m if k != 0)
        if first < 0:
            continue
        cands.append((norm2, m))
    cands.sort()
    for _, m in cands:
        if m not in seen:
            seen.add(m)
            out.append(m)
    return out


def _layer_phases(grid: CylinderGrid, modes) -> np.ndarray:
    """Sampled phases ``m . x`` on one boundary layer, one column per mode."""
    mesh = np.meshgrid(*grid.axes()[1:], indexing="ij")
    return np.stack([sum(k * ax for k, ax in zip(m, mesh)).ravel() for m in modes], axis=1)


def fourier_modes(grid: CylinderGrid, cut: float) -> tuple[np.ndarray, list]:
    """Sampled cos/sin mode vectors on one boundary layer.

    Returns (V, labels) with V of shape (layer_count, n_vectors); labels
    are ("cos"|"sin", mode tuple). Modes must stay below the per-axis
    Nyquist limit of the layer grid.
    """
    n_ang = grid.n - 1
    modes = _canonical_modes(n_ang, cut)
    for m in modes:
        for k, N in zip(m, grid.num_ang):
            if 2 * abs(k) >= N:
                raise ShapeMismatch(
                    f"mode {m} aliases on angular axis with {N} nodes"
                )
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

