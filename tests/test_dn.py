"""Stiffness assembly and partial DN maps.

Verifies:
  - assembled flat-metric stiffness equals the tensor-product (Kronecker)
    formula built from hand-coded 1-D element matrices
  - potential term equals the Kronecker mass matrix for V = 1; assembly
    refuses a potential with an infinite entry or an interior NaN
    (InfeasibleBounds, naming the node) and asks for the one-sided fill
    when NaNs sit on the t-end layers only
  - a constant anisotropic metric's stiffness, cross terms included, equals
    its Kronecker formula
  - the batched kernel matches a per-Gauss-point reference loop built on
    np.linalg.det and np.linalg.inv, for random metrics in n = 2, 3, 4 and a
    synthesised counterexample metric; the SPD kernel
    grid_geometry.spd_weight matches det/inv on batches with condition
    numbers up to 1e8, and in longdouble matches an exact cofactor
    reference; the in-place spd_weight and spd_root_det keep, bit for bit,
    the results of a test-local copy of the allocating kernel, NaN and 0
    positions of non-positive pivots included, and hand back their input
    as the weight
  - the sort-free tensor-product scatter pattern, its upper and lower
    slots and cell nodes rebuilt for every cell from the three stored cell
    layers, equals
    in slots, column indices, row pointers and their dtypes the pattern
    found by sorting the element entries' keys, and its int32 cell-node
    table equals the one found by rolling the node-id grid, for n = 2, 3, 4
    on minimal, mixed-size and 33^3 grids
  - the per-grid layout cache builds one scatter pattern for equal grids,
    and one per grid (with one set of angular pencil eigenpairs) over a cycle
    of six grids, holds at most 6.5 MB at 33^3, and the assembled bytes do
    not depend on the BLAS thread count; every system's matrices share the
    entry's read-only index arrays, which a caller cannot write, so a
    later assembly keeps its bytes, and a second assembly at 33^3 holds no
    more than its data arrays and 1 MB
  - the assembled bytes do not depend on the assembly block's byte bound
    (one layer, five layers and the default against one block, n = 2, 3,
    4, with and without a potential), nor do the bytes of the layer means
    (bounds of 2 to 1440 cells), K and M are bitwise symmetric and equal a
    test-local mirrored np.add.at scatter of whole element matrices, the
    default bound keeps 1,267 cells in 4-D, and an assembly holds at most
    8.5 MB of temporaries above its result at 33^3, 6 MB at 7^4 and 12 MB
    at 13^4, with and without a potential (per-block arrays took 9.9, 8.7
    and 24.6 MB)
  - InteriorSolver.extend of full-boundary Dirichlet data reproduces
    fields the element space contains exactly and ends in NoConvergence
    on NaN data
  - DN symmetry, metric homogeneity, zero-potential equivalence; the
    mode gap of two zero matrices is 0
  - dn_apply on the identity gives the same map whether its columns go
    through the interior solver in one chunk or in many, its byte budget
    per chunk bounds its peak memory, and it takes trace columns only,
    refusing a 1-D array; a 33^3 mode matrix peaks at most 28 MB above its
    start, and the bytes of a 25^3 one with a potential do not depend on
    the BLAS thread count
  - a mode cut is refused exactly when one of the listed modes aliases,
    and a huge cut is refused before any mode is listed
  - mode eigenvalues approach the separated-variables values
  - the periodic 1-D Q1 pencil equals, bitwise, its element-by-element
    assembly
  - singular interior blocks (the flat block shifted by its first Dirichlet
    eigenvalue, from a dense eigensolve) end in NoConvergence at every CG
    entry point, at the residual gate, and the dense map refuses them in
    SingularInteriorBlock, its pivot ratio below the floor
"""

import decimal
import hashlib
import itertools
import os
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from calderon_lab import analytic as an
from calderon_lab import dn_solver
from calderon_lab.calculus import ScalarField
from calderon_lab.counterexample import synth_approx_miller
from calderon_lab.dn_solver import (
    InteriorSolver,
    assemble_stiffness,
    boundary_mass_matrix,
    dn_apply,
    dn_map_partial,
    dn_mode_eigenvalues,
    dn_mode_matrix,
    fourier_modes,
    mode_gap,
)
from calderon_lab.errors import (
    GridMismatch,
    InfeasibleBounds,
    NoConvergence,
    ShapeMismatch,
    SingularInteriorBlock,
)
from calderon_lab.grid_geometry import (
    GAMMA0,
    GAMMA1,
    FULL_BOUNDARY,
    CylinderGrid,
    assemble_counterexample_metric_3d,
    cyl_grid,
    flat_metric,
    random_trig_metric,
    sample_metric,
    spd_root_det,
    spd_weight,
)
from conftest import constant_metric


def _exact_cofactor_weight(A):
    """``sqrt(det A) A^{-1}`` and ``sqrt(det A)`` in longdouble for a batch
    of 3 x 3 double matrices, from the cofactor determinant and adjugate
    taken in exact rational arithmetic and rounded once. Cofactor expansion
    in floating point would cancel: its error grows like eps * cond^2."""

    def rounded(q):
        with decimal.localcontext(prec=40):
            return np.longdouble(str(decimal.Decimal(q.numerator) / q.denominator))

    W = np.empty(A.shape, dtype=np.longdouble)
    root = np.empty(len(A), dtype=np.longdouble)
    for b, mat in enumerate(A):
        m = [[Fraction(float(x)) for x in row] for row in mat]
        # cyclic indices carry the cofactor signs
        cof = [
            [m[i - 2][j - 2] * m[i - 1][j - 1] - m[i - 2][j - 1] * m[i - 1][j - 2] for j in range(3)]
            for i in range(3)
        ]
        root[b] = np.sqrt(rounded(sum(m[0][j] * cof[0][j] for j in range(3))))
        for i in range(3):
            for j in range(3):
                W[b, i, j] = rounded(cof[j][i]) / root[b]
    return W, root


def _allocating_spd_weight(a):
    """The SPD kernel as it was before it worked in place: each Cholesky
    entry, each entry of ``R = L^{-1}`` and each dot product in a new
    array, and ``sqrt(det a) R^T R`` in a new packed array."""

    def dot(pairs):
        (x, y), *rest = pairs
        s = x * y
        for x, y in rest:
            s += x * y
        return s

    n = (int(np.sqrt(8 * len(a) + 1)) - 1) // 2
    iu, ju = np.triu_indices(n)
    pos = np.empty((n, n), dtype=np.intp)
    pos[iu, ju] = pos[ju, iu] = np.arange(iu.size)
    L = {}
    for j in range(n):
        for i in range(j, n):
            if j == 0:
                L[i, j] = np.sqrt(a[pos[i, j]]) if i == j else a[pos[i, j]] / L[j, j]
            else:
                s = dot([(L[i, k], L[j, k]) for k in range(j)])
                np.subtract(a[pos[i, j]], s, out=s)
                L[i, j] = np.sqrt(s, out=s) if i == j else np.divide(s, L[j, j], out=s)
    root_det = L[0, 0] * L[1, 1]
    for k in range(2, n):
        root_det = root_det * L[k, k]
    R = {}
    for j in range(n):
        R[j, j] = 1.0 / L[j, j]
        for i in range(j + 1, n):
            s = dot([(L[i, k], R[k, j]) for k in range(j, i)])
            np.negative(s, out=s)
            R[i, j] = np.divide(s, L[i, i], out=s)
    W = np.empty_like(a)
    for k, (i, j) in enumerate(zip(iu, ju)):
        np.multiply(root_det, dot([(R[m, j], R[m, i]) for m in range(j, n)]), out=W[k])
    return W, root_det


def _spd_batch(n, dtype):
    """400 random SPD n x n matrices of condition numbers up to 1e8 and
    scales 1e-3 to 1e3, and their packed components in ``dtype``."""
    rng = np.random.default_rng(n)
    batch = 400
    Q, _ = np.linalg.qr(rng.standard_normal((batch, n, n)))
    kappa = 10.0 ** rng.uniform(0.0, 8.0, batch)
    kappa[:4] = (1.0, 1e4, 1e6, 1e8)
    lam = np.exp(rng.uniform(0.0, 1.0, (batch, n)) * np.log(kappa)[:, None])
    lam[:, 0], lam[:, -1] = 1.0, kappa
    lam *= 10.0 ** rng.uniform(-3.0, 3.0, (batch, 1))
    A = np.einsum("bij,bj,bkj->bik", Q, lam, Q)
    A = 0.5 * (A + A.transpose(0, 2, 1))
    iu, ju = np.triu_indices(n)
    return A, A.astype(dtype)[:, iu, ju].T.copy()


# -- independent 1-D element matrices ---------------------------------------
# For the flat metric the trilinear stiffness factorizes over axes:
#   K = S_t (x) M_x (x) M_y + M_t (x) S_x (x) M_y + M_t (x) M_x (x) S_y
# with the classical 1-D P1 matrices below. The 2-point Gauss rule is
# exact for every integrand involved, so this equality is exact up to
# rounding, and the Kronecker route shares no code with the assembler.


def lap1d_interval(num, h):
    main = np.full(num, 2.0 / h)
    main[0] = main[-1] = 1.0 / h
    off = np.full(num - 1, -1.0 / h)
    return sp.diags([off, main, off], [-1, 0, 1])


def mass1d_interval(num, h):
    main = np.full(num, 4.0 * h / 6.0)
    main[0] = main[-1] = 2.0 * h / 6.0
    off = np.full(num - 1, h / 6.0)
    return sp.diags([off, main, off], [-1, 0, 1])


def lap1d_periodic(num, h):
    A = sp.diags(
        [np.full(num - 1, -1.0 / h), np.full(num, 2.0 / h), np.full(num - 1, -1.0 / h)],
        [-1, 0, 1],
    ).tolil()
    A[0, -1] += -1.0 / h
    A[-1, 0] += -1.0 / h
    return A.tocsr()


def mass1d_periodic(num, h):
    A = sp.diags(
        [np.full(num - 1, h / 6.0), np.full(num, 4.0 * h / 6.0), np.full(num - 1, h / 6.0)],
        [-1, 0, 1],
    ).tolil()
    A[0, -1] += h / 6.0
    A[-1, 0] += h / 6.0
    return A.tocsr()


def kron3(A, B, C):
    return sp.kron(sp.kron(A, B), C).tocsr()


# C[a, b] = int phi_a' phi_b: each element contributes -1/2 (left node
# row) and +1/2 (right node row) to both of its columns, whatever h is.
def grad_mass1d_interval(num, h):
    main = np.zeros(num)
    main[0], main[-1] = -0.5, 0.5
    return sp.diags([np.full(num - 1, 0.5), main, np.full(num - 1, -0.5)], [-1, 0, 1])


def grad_mass1d_periodic(num, h):
    A = sp.diags([np.full(num - 1, 0.5), np.full(num - 1, -0.5)], [-1, 1]).tolil()
    A[0, -1] += 0.5
    A[-1, 0] += -0.5
    return A.tocsr()


def reference_assembly(metric, potential=None):
    """Q1 stiffness (and mass) by a loop over the Gauss points with
    np.linalg.det and np.linalg.inv per cell, element matrices from explicit
    hat products, duplicates summed by COO; no code shared with the kernel."""
    grid = metric.grid
    n = grid.n
    h = grid.spacings
    corners = list(itertools.product((0, 1), repeat=n))
    ids = np.arange(grid.node_count).reshape(grid.shape)
    nodes = np.stack(
        [np.roll(ids, [-b for b in c], axis=tuple(range(n)))[:-1].ravel() for c in corners], axis=1
    )
    g_cells = metric.mat.reshape(-1, n, n)[nodes]
    gauss = (0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0))
    elem_k = np.zeros((nodes.shape[0], len(corners), len(corners)))
    elem_m = np.zeros_like(elem_k)
    for x in itertools.product(gauss, repeat=n):
        hat = [[1.0 - xd, xd] for xd in x]
        val = np.array([np.prod([hat[d][b] for d, b in enumerate(c)]) for c in corners])
        grad = np.array(
            [
                [
                    np.prod([(2 * b - 1) / h[d] if d == k else hat[d][b] for d, b in enumerate(c)])
                    for k in range(n)
                ]
                for c in corners
            ]
        )
        g_q = np.einsum("l,clij->cij", val, g_cells)
        dv = np.prod(h) / 2**n * np.sqrt(np.linalg.det(g_q))
        elem_k += np.einsum("c,ai,cij,bj->cab", dv, grad, np.linalg.inv(g_q), grad)
        if potential is not None:
            v_q = potential.reshape(-1)[nodes] @ val
            elem_m += (dv * v_q)[:, None, None] * np.outer(val, val)
    m = len(corners)
    rows = np.repeat(nodes, m, axis=1).ravel()
    cols = np.tile(nodes, (1, m)).ravel()

    def scatter(elem):
        return sp.coo_matrix((elem.ravel(), (rows, cols)), shape=(grid.node_count,) * 2).tocsr()

    return scatter(elem_k), scatter(elem_m) if potential is not None else None


def _rel_max(A, B):
    return abs(A - B).max() / abs(B).max()


def _assembly_case(name):
    if name == "counterexample":
        data, _ = synth_approx_miller(cyl_grid(3, 9), amplitude=0.1)
        return assemble_counterexample_metric_3d(data)
    n, size = {"n2": (2, 9), "n3": (3, 7), "n4": (4, 5)}[name]
    return sample_metric(random_trig_metric(n, seed=11 * n), cyl_grid(n, size))


class TestAssembly:
    # an infinite entry assembled a K with non-finite entries, which failed
    # only in the mode matrix's LU ("Factor is exactly singular"); every
    # non-finite entry, on any t-layer, is refused by its first node
    @pytest.mark.parametrize(
        "bad,node",
        [({(4, 3, 3): np.inf}, (4, 3, 3)), ({(4, 3, 3): -np.inf}, (4, 3, 3)),
         ({(4, 3, 3): np.nan}, (4, 3, 3)), ({(0, 1, 2): np.inf}, (0, 1, 2)),
         ({(0, 0, 0): np.nan, (8, 0, 0): np.nan, (6, 2, 5): np.inf}, (0, 0, 0)),
         ({(0, 2, 1): np.nan}, (0, 2, 1)), ({(8, 2, 1): np.nan}, (8, 2, 1)),
         ({(0, 2, 1): np.nan, (8, 2, 1): np.nan}, (0, 2, 1))],
        ids=["inf", "minus-inf", "interior-nan", "end-layer-inf", "end-nan-and-interior-inf",
             "first-layer-nan", "last-layer-nan", "both-end-layers-nan"],
    )
    def test_non_finite_potential_refused(self, flat9, bad, node):
        q = np.zeros(flat9.grid.shape)
        for k, v in bad.items():
            q[k] = v
        with pytest.raises(InfeasibleBounds, match=re.escape(f"at node {node} is not finite")):
            assemble_stiffness(flat9, potential=q)

    def test_flat_matches_kronecker(self):
        grid = CylinderGrid(3, 5, (6, 4))
        g = sample_metric(flat_metric(3), grid)
        K = assemble_stiffness(g).matrix
        S_t = lap1d_interval(5, grid.h_t)
        M_t = mass1d_interval(5, grid.h_t)
        S_x = lap1d_periodic(6, grid.h_ang[0])
        M_x = mass1d_periodic(6, grid.h_ang[0])
        S_y = lap1d_periodic(4, grid.h_ang[1])
        M_y = mass1d_periodic(4, grid.h_ang[1])
        K_ref = (
            kron3(S_t, M_x, M_y) + kron3(M_t, S_x, M_y) + kron3(M_t, M_x, S_y)
        )
        diff = abs(K - K_ref).max()
        assert diff < 1e-12, f"assembled flat stiffness off by {diff:.2e}"

    def test_unit_potential_matches_kronecker_mass(self):
        grid = CylinderGrid(3, 5, (6, 4))
        g = sample_metric(flat_metric(3), grid)
        sys = assemble_stiffness(g, potential=np.ones(grid.shape), potential_id="unit")
        M_ref = kron3(
            mass1d_interval(5, grid.h_t),
            mass1d_periodic(6, grid.h_ang[0]),
            mass1d_periodic(4, grid.h_ang[1]),
        )
        diff = abs(sys.mass - M_ref).max()
        assert diff < 1e-12, f"mass matrix off by {diff:.2e}"

    @pytest.mark.parametrize(
        "grid",
        [CylinderGrid(2, 5, (6,)), CylinderGrid(3, 5, (6, 4)), CylinderGrid(4, 4, (5, 4, 6))],
        ids=["n2", "n3", "n4"],
    )
    def test_constant_anisotropic_matches_kronecker(self, grid):
        # with W = sqrt(det A) A^{-1}, K = sum_ij W_ij (x)_d F_d where F_d is
        # S on d = i = j, C on d = i, C^T on d = j and M on every other axis
        n = grid.n
        B = np.random.default_rng(n).uniform(-1.0, 1.0, (n, n))
        A = np.eye(n) + 0.3 * B @ B.T
        K = assemble_stiffness(sample_metric(constant_metric(A), grid)).matrix
        W = np.sqrt(np.linalg.det(A)) * np.linalg.inv(A)
        pieces = [
            (lap1d_interval, grad_mass1d_interval, mass1d_interval, grid.num_t, grid.h_t)
        ] + [
            (lap1d_periodic, grad_mass1d_periodic, mass1d_periodic, m, h)
            for m, h in zip(grid.num_ang, grid.h_ang)
        ]
        K_ref = sp.csr_matrix(K.shape)
        for i in range(n):
            for j in range(n):
                term = sp.identity(1, format="csr")
                for d, (S, C, M, m, h) in enumerate(pieces):
                    if d == i == j:
                        F = S(m, h)
                    elif d == i:
                        F = C(m, h)
                    elif d == j:
                        F = C(m, h).T
                    else:
                        F = M(m, h)
                    term = sp.kron(term, F, format="csr")
                K_ref = K_ref + W[i, j] * term
        diff = abs(K - K_ref).max()
        assert diff < 1e-12, f"anisotropic stiffness off by {diff:.2e}"

    def test_symmetry_and_kernel(self, grid9, bumpy9):
        K = assemble_stiffness(bumpy9).matrix
        assert (K - K.T).nnz == 0
        q = np.random.default_rng(5).uniform(-1.0, 1.0, grid9.shape)
        Kq = assemble_stiffness(bumpy9, potential=q, potential_id="random").matrix
        assert (Kq - Kq.T).nnz == 0
        # constants are in the kernel of the Laplace part
        r = np.abs(K @ np.ones(K.shape[0])).max()
        assert r < 1e-12, f"constant not in kernel: {r:.2e}"

    def test_2d_assembly(self):
        grid = cyl_grid(2, 9)
        g = sample_metric(random_trig_metric(2, seed=1), grid)
        K = assemble_stiffness(g).matrix
        assert K.shape == (grid.node_count,) * 2
        assert (K - K.T).nnz == 0

    def test_potential_shape_guard(self, flat9):
        with pytest.raises(GridMismatch):
            assemble_stiffness(flat9, potential=np.ones((2, 2, 2)))

    @pytest.mark.parametrize("with_potential", [False, True], ids=["plain", "potential"])
    @pytest.mark.parametrize("case", ["n2", "n3", "n4", "counterexample"])
    def test_matches_per_gauss_point_reference(self, case, with_potential):
        metric = _assembly_case(case)
        q = None
        if with_potential:
            q = np.random.default_rng(3).uniform(-1.0, 2.0, metric.grid.shape)
        sys_ = assemble_stiffness(metric, potential=q)
        K_ref, M_ref = reference_assembly(metric, q)
        err = _rel_max(sys_.laplace, K_ref)
        assert err <= 1e-14, f"stiffness off the reference by {err:.2e}"
        if with_potential:
            err = _rel_max(sys_.mass, M_ref)
            assert err <= 1e-14, f"mass off the reference by {err:.2e}"
        S = sys_.matrix
        assert (S - S.T).nnz == 0

    @pytest.mark.parametrize(
        "n, dtype",
        [
            pytest.param(2, np.float64, id="2"),
            pytest.param(3, np.float64, id="3"),
            pytest.param(4, np.float64, id="4"),
            pytest.param(3, np.longdouble, id="3-longdouble"),
        ],
    )
    def test_spd_weight_matches_det_inv(self, n, dtype):
        eps = np.finfo(dtype).eps
        A, packed = _spd_batch(n, dtype)
        iu, ju = np.triu_indices(n)
        W_packed, root_det = spd_weight(packed)
        assert W_packed.dtype == dtype and root_det.dtype == dtype
        W = np.empty_like(A, dtype=dtype)
        W[:, iu, ju] = W[:, ju, iu] = W_packed.T
        if dtype == np.float64:
            root_ref = np.sqrt(np.linalg.det(A))
            W_ref = root_ref[:, None, None] * np.linalg.inv(A)
        else:
            W_ref, root_ref = _exact_cofactor_weight(A)
        bound = 10 * n * eps * np.linalg.cond(A)
        err_w = np.linalg.norm(W - W_ref, axis=(1, 2)) / np.linalg.norm(W_ref, axis=(1, 2))
        err_s = np.abs(root_det - root_ref) / root_ref
        assert (err_w <= bound).all(), f"weight off by {np.max(err_w / bound):.2f} of its bound"
        assert (err_s <= bound).all(), f"sqrt(det) off by {np.max(err_s / bound):.2f} of its bound"

    @pytest.mark.parametrize(
        "n, dtype, pivot",
        [
            pytest.param(2, np.float64, False, id="2"),
            pytest.param(3, np.float64, False, id="3"),
            pytest.param(4, np.float64, False, id="4"),
            pytest.param(3, np.longdouble, False, id="3-longdouble"),
            pytest.param(3, np.float64, True, id="3-non-positive-pivot"),
        ],
    )
    def test_in_place_kernel_keeps_bytes(self, n, dtype, pivot):
        # values and signs compared: longdouble's padding bytes are not set
        def same(x, y):
            return np.array_equal(x, y, equal_nan=True) and np.array_equal(np.signbit(x), np.signbit(y))

        _, packed = _spd_batch(n, dtype)
        if pivot:  # the last pivot 0, the first or second one < 0, the first 0, a NaN entry
            packed[:, :4] = np.array([[1, 0, 0, 1, 0, 0], [-1, 0, 0, 1, 0, 1], [1, 2, 0, 1, 0, 1],
                                      [0, 0, 0, 1, 0, 1]]).T
            packed[1, 4] = np.nan
        with np.errstate(all="ignore"):
            W_ref, root_ref = _allocating_spd_weight(packed)
            a = packed.copy()
            W, root_det = spd_weight(a)
            root_only = spd_root_det(packed.copy())
        assert W is a and W.dtype == root_det.dtype == dtype
        assert same(W, W_ref) and same(root_det, root_ref) and same(root_only, root_ref)
        if pivot:
            assert root_det[0] == 0.0 and np.isnan(root_det[1:5]).all() and np.isnan(W[:, :5]).any(axis=0).all()


def _rolled_cell_nodes(grid):
    """The node ids of each cell's 2^n corners, shape (2^n, cells), by
    rolling the full node-id grid once per corner: corner L offsets the
    cell's base node by the bits of L (axis 0 = most significant bit)."""
    ids = np.arange(grid.node_count, dtype=np.int32).reshape(grid.shape)
    axes = tuple(range(grid.n))
    return np.stack(
        [
            np.roll(ids, [-b for b in bits], axis=axes)[:-1].ravel()
            for bits in itertools.product((0, 1), repeat=grid.n)
        ]
    )


def _argsort_pattern(nodes, size):
    """The scatter pattern by sorting: every element entry's key
    ``row * size + col``, its CSR slot the rank of that key among the
    distinct keys, which also give the column indices and row counts."""
    nodes = nodes.T
    key = (nodes[:, :, None].astype(np.int64) * size + nodes[:, None, :]).ravel()
    order = np.argsort(key)
    key = key[order]
    first = np.concatenate(([True], key[1:] != key[:-1]))
    slot = np.empty_like(key)
    slot[order] = np.cumsum(first) - 1
    key = key[first]
    indptr = np.zeros(size + 1, dtype=np.int64)
    np.cumsum(np.bincount(key // size, minlength=size), out=indptr[1:])
    index = np.int32 if indptr[-1] <= np.iinfo(np.int32).max else np.int64
    return slot.astype(index), (key % size).astype(index), indptr.astype(index)


@pytest.mark.parametrize(
    "grid",
    [
        CylinderGrid(2, 3, (4,)),
        CylinderGrid(3, 3, (4, 4)),
        CylinderGrid(4, 3, (4, 4, 4)),
        CylinderGrid(2, 6, (7,)),
        CylinderGrid(3, 5, (4, 6)),
        CylinderGrid(4, 4, (5, 4, 6)),
        cyl_grid(3, 33),
    ],
    ids=lambda g: "x".join(map(str, g.shape)),
)
def test_tensor_pattern_matches_argsort(grid):
    # the full tables, rebuilt from the three stored cell layers of upper
    # and lower slots and the one of cell nodes by the shift rule: layer j's
    # nodes are layer 0's plus j P, and an interior layer's slots are layer
    # 1's plus (j - 1) 3^n P, as every interior row holds 3^n entries
    upper, lower, indices, indptr, layer0 = dn_solver._scatter_pattern(grid)
    Q, P, num_cells_t = 1 << grid.n, grid.layer_count, grid.num_t - 1
    assert upper.shape[0] == lower.shape[0] == 3 and layer0.shape == (Q, P)
    assert upper.shape[2] + lower.shape[2] == Q * Q
    nodes = np.concatenate([layer0 + j * P for j in range(num_cells_t)], axis=1)
    kinds = [0] + [1] * (num_cells_t - 2) + [2]
    shifts = [0] + [(j - 1) * 3**grid.n * P for j in range(1, num_cells_t - 1)] + [0]
    a, b = np.triu_indices(Q)
    slot = np.empty((num_cells_t, P, Q, Q), dtype=upper.dtype)
    slot[..., a, b] = np.stack([upper[k] + shift for k, shift in zip(kinds, shifts)])
    slot[..., b[a < b], a[a < b]] = np.stack([lower[k] + shift for k, shift in zip(kinds, shifts)])
    oracle_nodes = _rolled_cell_nodes(grid)
    assert np.array_equal(nodes, oracle_nodes), "cell nodes"
    oracle = _argsort_pattern(oracle_nodes, grid.node_count)
    for name, got, want in zip(("slot", "indices", "indptr"), (slot.ravel(), indices, indptr), oracle):
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), name


class TestGridLayoutCache:
    def test_one_pattern_per_equal_grid(self, monkeypatch):
        calls = []
        build = dn_solver._scatter_pattern

        def counted(*args):
            calls.append(args)
            return build(*args)

        monkeypatch.setattr(dn_solver, "_scatter_pattern", counted)
        dn_solver._grid_layout.cache_clear()
        systems = [
            assemble_stiffness(sample_metric(random_trig_metric(3, seed=s), CylinderGrid(3, 7, (6, 5))))
            for s in range(3)
        ]
        assert len(calls) == 1
        assert len({id(s.grid) for s in systems}) == 3

    def test_six_grid_cycle_builds_each_once(self, monkeypatch):
        # the grids one pass of the sweep-small benchmark cycles through
        grids = [cyl_grid(2, 9), cyl_grid(2, 17), cyl_grid(2, 33), cyl_grid(3, 9), cyl_grid(3, 13),
                 cyl_grid(4, 7)]
        calls = []
        build = dn_solver._scatter_pattern

        def counted(*args):
            calls.append(args)
            return build(*args)

        monkeypatch.setattr(dn_solver, "_scatter_pattern", counted)
        dn_solver._grid_layout.cache_clear()
        for _ in range(3):
            for grid in grids:
                sys = assemble_stiffness(sample_metric(flat_metric(grid.n), grid))
                InteriorSolver(sys)
        assert len(calls) == len(grids)
        # the solvers' angular eigenpairs come from the same entries
        assert dn_solver._grid_layout.cache_info().misses == len(grids)

    def test_layout_under_6_5mb_at_33(self):
        # three cell layers of slots and one of cell nodes, no per-cell table
        pattern, tables, (vecs, lams) = dn_solver._grid_layout(cyl_grid(3, 33))
        total = sum(a.nbytes for a in (*pattern, *tables, *vecs, *lams))
        assert total <= 6.5e6, f"{total / 1e6:.1f} MB"

    def test_systems_share_the_read_only_layout(self, bumpy9):
        # a caller cannot change a later assembly: the data arrays are the
        # system's own, the index arrays the cache entry's, read-only
        q = np.random.default_rng(8).uniform(0.5, 1.5, bumpy9.grid.shape)
        first = assemble_stiffness(bumpy9, potential=q)
        (_, _, indices, indptr, _), _, _ = dn_solver._grid_layout(bumpy9.grid)
        for M in (first.laplace, first.mass, first.matrix):
            assert np.shares_memory(M.indices, indices) and np.shares_memory(M.indptr, indptr)
            with pytest.raises(ValueError, match="read-only"):
                M.indices[:] = M.indices[::-1]
            with pytest.raises(ValueError, match="read-only"):
                M.indptr[1:-1] = 0
        saved = [M.data.copy() for M in (first.matrix, first.mass)]
        for M in (first.matrix, first.mass):
            M.data *= -3.0
        again = assemble_stiffness(bumpy9, potential=q)
        for M, data in zip((again.matrix, again.mass), saved):
            assert np.array_equal(M.data, data)

    def test_second_assembly_holds_only_its_data_at_33(self):
        grid = cyl_grid(3, 33)
        metric = sample_metric(random_trig_metric(3, seed=6), grid)
        q = np.random.default_rng(6).uniform(0.5, 1.5, grid.shape)
        assemble_stiffness(metric, potential=q)  # the grid layout is cached from here on
        tracemalloc.start()
        try:
            sys_ = assemble_stiffness(metric, potential=q)
            solver = InteriorSolver(sys_)  # reads matrix: K + M, kept, not a third array
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert np.shares_memory(solver.rows.data, sys_.matrix.data)
        data = sys_.matrix.data.nbytes + sys_.mass.data.nbytes
        assert held <= data + 1e6, f"{held / 1e6:.1f} MB held, {data / 1e6:.1f} MB of data"

    def test_bytes_independent_of_blas_threads(self):
        # the element matrices come from BLAS GEMMs, and report.json byte
        # identity across thread counts rests on their being reproducible;
        # grid 33 spans several whole-layer assembly blocks, the last one
        # partial: 32 layers of 1,024 cells in blocks of 3
        grid = cyl_grid(3, 33)
        per = dn_solver._BLOCK_BYTES // (_cell_bytes(grid) * grid.layer_count)
        assert per == 3 and (grid.num_t - 1) % per != 0
        src = Path(dn_solver.__file__).resolve().parents[1]
        script = (
            "import hashlib, numpy as np\n"
            "from calderon_lab.dn_solver import assemble_stiffness\n"
            "from calderon_lab.grid_geometry import cyl_grid, random_trig_metric, sample_metric\n"
            "grid = cyl_grid(3, 33)\n"
            "q = np.random.default_rng(2).uniform(-1.0, 1.0, grid.shape)\n"
            "s = assemble_stiffness(sample_metric(random_trig_metric(3, seed=4), grid), potential=q)\n"
            "print(hashlib.sha256(s.matrix.data.tobytes()).hexdigest(),"
            " hashlib.sha256(s.mass.data.tobytes()).hexdigest())\n"
        )
        digests = []
        for threads in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": threads,
                   "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads}
            out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                                 capture_output=True, text=True)
            digests.append(out.stdout.split())
        assert digests[0] == digests[1]
        q = np.random.default_rng(2).uniform(-1.0, 1.0, grid.shape)
        s = assemble_stiffness(sample_metric(random_trig_metric(3, seed=4), grid), potential=q)
        here = [hashlib.sha256(M.data.tobytes()).hexdigest() for M in (s.matrix, s.mass)]
        assert digests[0] == here


def _bitwise_symmetric(K) -> bool:
    KT = K.T.tocsr()
    KT.sort_indices()
    return np.array_equal(K.indices, KT.indices) and K.data.tobytes() == KT.data.tobytes()


def _cell_bytes(grid) -> int:
    """Bytes per cell of an assembly block's arena on ``grid``, all float64."""
    return 8 * dn_solver._cell_floats(grid.n)


def _assembly_temporaries(n: int, size: int) -> list[int]:
    """Bytes of temporaries above its result of one assembly on a cached
    grid layout, for the plain and then the potential system."""
    grid = cyl_grid(n, size)
    metric = sample_metric(random_trig_metric(n, seed=6), grid)
    temps = []
    for q in (None, np.random.default_rng(6).uniform(-1.0, 1.0, grid.shape)):
        assemble_stiffness(metric, potential=q)  # the grid layout is cached from here on
        tracemalloc.start()
        try:
            sys_ = assemble_stiffness(metric, potential=q)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        K = sys_.matrix
        result = sum(a.nbytes for a in (K.data, K.indices, K.indptr))
        if q is not None:
            result += sys_.mass.data.nbytes
        assert held <= result + 1e6
        temps.append(peak - held)
    return temps


def _mirrored_assembly(metric, potential=None):
    """K (and M) data the way a mirrored scatter made them: the whole grid
    as one block through the allocating SPD kernel, each element matrix
    written out whole from its unique entries and added at its slots by
    one ``np.add.at`` in cell-major, row-major order."""
    grid = metric.grid
    Q, size = 1 << grid.n, grid.node_count
    N, stiff, mass, _ = dn_solver._grid_layout(grid)[1]
    nodes = _rolled_cell_nodes(grid)
    slot, indices, _ = _argsort_pattern(nodes, size)
    a, b = np.triu_indices(Q)
    mirror = np.empty((Q, Q), dtype=np.intp)
    mirror[a, b] = mirror[b, a] = np.arange(a.size)
    W, root_det = _allocating_spd_weight(N @ metric.packed.reshape(-1, size)[:, nodes])
    out = []
    for weight, table in [(W.reshape(-1, nodes.shape[1]).T, stiff)] + (
        [] if potential is None else [((root_det * (N @ potential.reshape(size)[nodes])).T, mass)]
    ):
        data = np.zeros(indices.size)
        np.add.at(data, slot, (weight @ table)[:, mirror.ravel()].ravel())
        out.append(data)
    return out


class TestBlockedAssembly:
    # against one block: a bound below one cell makes one layer a block,
    # five layers a block leave a partial last one (32, 8 and 6 layers),
    # and the default bound cuts 4-D 7 in blocks of 5 layers
    @pytest.mark.parametrize("with_potential", [False, True], ids=["plain", "potential"])
    @pytest.mark.parametrize(
        "grid", [cyl_grid(2, 33), cyl_grid(3, 9), cyl_grid(4, 7)], ids=["n2", "n3", "n4"]
    )
    def test_bytes_independent_of_block_size(self, monkeypatch, grid, with_potential):
        metric = sample_metric(random_trig_metric(grid.n, seed=20 + grid.n), grid)
        q = np.random.default_rng(grid.n).uniform(-1.0, 2.0, grid.shape) if with_potential else None
        layers, per_layer, default = grid.num_t - 1, _cell_bytes(grid) * grid.layer_count, dn_solver._BLOCK_BYTES
        assert layers % 5 != 0
        monkeypatch.setattr(dn_solver, "_BLOCK_BYTES", layers * per_layer)
        one_block = assemble_stiffness(metric, potential=q)
        for bound in (1, 5 * per_layer, default):
            monkeypatch.setattr(dn_solver, "_BLOCK_BYTES", bound)
            blocked = assemble_stiffness(metric, potential=q)
            pairs = [(one_block.matrix, blocked.matrix)]
            if with_potential:
                pairs.append((one_block.mass, blocked.mass))
            for A, B in pairs:
                assert A.data.tobytes() == B.data.tobytes()
                assert np.array_equal(A.indices, B.indices) and np.array_equal(A.indptr, B.indptr)
                assert _bitwise_symmetric(B)
            assert one_block.layers.tobytes() == blocked.layers.tobytes()

    # the split scatter adds each slot's entries in the mirrored scatter's
    # order, and the in-place kernel keeps the allocating one's bytes; on
    # num_t 3 one block holds the first and the last cell layer and no
    # interior one, on num_t 4 only one interior layer, at shift 0, and
    # the 4-D (9, 5, 5, 5) layer has an odd cell count
    @pytest.mark.parametrize("with_potential", [False, True], ids=["plain", "potential"])
    @pytest.mark.parametrize(
        "grid",
        [cyl_grid(2, 33), cyl_grid(3, 9), cyl_grid(4, 7), CylinderGrid(3, 3, (4, 4)), CylinderGrid(2, 4, (5,)),
         CylinderGrid(4, 9, (5, 5, 5))],
        ids=["n2", "n3", "n4", "3x4x4", "4x5", "9x5x5x5"],
    )
    def test_split_scatter_matches_mirrored(self, grid, with_potential):
        metric = sample_metric(random_trig_metric(grid.n, seed=30 + grid.n), grid)
        q = np.random.default_rng(grid.n).uniform(-1.0, 2.0, grid.shape) if with_potential else None
        sys_ = assemble_stiffness(metric, potential=q)
        ref = _mirrored_assembly(metric, q)
        # with a potential the system keeps K + M and M, not K
        assert (sys_.laplace is sys_.matrix) is (q is None)
        if with_potential:
            ref = [np.add(*ref), ref[1]]
        for M, data in zip([sys_.matrix] + ([sys_.mass] if with_potential else []), ref, strict=True):
            assert M.data.tobytes() == data.tobytes()
            assert _bitwise_symmetric(M)

    # 120 cells per t-layer: blocks of one, four and all twelve layers
    @pytest.mark.parametrize("block", [2, 7, 64, 500, 1440])
    def test_layer_means_independent_of_block_size(self, monkeypatch, block):
        grid = CylinderGrid(3, 13, (12, 10))
        metric = sample_metric(random_trig_metric(3, seed=3), grid)
        q = np.random.default_rng(3).uniform(-1.0, 2.0, grid.shape)
        default = assemble_stiffness(metric, potential=q).layers
        monkeypatch.setattr(dn_solver, "_BLOCK_BYTES", block * _cell_bytes(grid))
        layers = assemble_stiffness(metric, potential=q).layers
        assert layers.shape == (4, grid.num_t - 1)
        assert layers.tobytes() == default.tobytes()

    def test_block_bound_in_bytes(self):
        # 4-D blocks keep 1,267 cells, whose bytes move with the block size
        assert [dn_solver._BLOCK_BYTES // _cell_bytes(cyl_grid(n, 9)) for n in (2, 3, 4)] == [12951, 3885, 1267]

    # one float64 arena per call, at most 3.7 MB: per-block arrays held
    # 9.9 MB at 33^3, 8.7 MB at 7^4 and 24.6 MB at 13^4; the arena, the
    # blocks' cell nodes and the packed metric hold 4.9, 3.5 and 7.2 MB
    def test_temporaries_at_33(self):
        temps = _assembly_temporaries(3, 33)
        assert max(temps) <= 8.5e6, [f"{t / 1e6:.1f} MB" for t in temps]

    def test_temporaries_at_7_in_4d(self):
        temps = _assembly_temporaries(4, 7)
        assert max(temps) <= 6e6, [f"{t / 1e6:.1f} MB" for t in temps]

    def test_temporaries_at_13_in_4d(self):
        temps = _assembly_temporaries(4, 13)
        assert max(temps) <= 12e6, [f"{t / 1e6:.1f} MB" for t in temps]


def _extend_boundary(metric, gamma0: float, gamma1):
    """Harmonic extension into the interior of ``gamma0`` on the t = 0
    layer and ``gamma1`` (a number or a layer array) on the t = 1 layer."""
    grid = metric.grid
    u = np.zeros(grid.shape)
    u[0] = gamma0
    u[-1] = gamma1
    InteriorSolver(assemble_stiffness(metric)).extend(u.reshape(grid.node_count))  # a view of u
    return u


class TestDirichletSolve:
    def test_linear_in_t_exact(self, grid9, flat9):
        # nodal t is in the trilinear space and harmonic, so the discrete
        # solution with traces 0 and 1 is nodal t itself
        u = _extend_boundary(flat9, 0.0, 1.0)
        t = grid9.points[..., 0]
        assert np.abs(u - t).max() < 1e-10

    def test_constant_data(self, bumpy9):
        u = _extend_boundary(bumpy9, 2.0, 2.0)
        assert np.abs(u - 2.0).max() < 1e-10

    def test_nan_data_fails_residual_gate(self, grid9, bumpy9):
        g1 = np.ones(grid9.num_ang)
        g1[2, 3] = np.nan
        with pytest.raises(NoConvergence):
            _extend_boundary(bumpy9, 0.0, g1)


# Separated variables on the flat cylinder: u = v(t) cos(m.x) with
# -v'' + |m|^2 v = 0, v(0) = 0, v(1) = 1 gives v = sinh(|m| t)/sinh|m|
# and Neumann data v'(1) = |m| coth|m| at the measured end; the constant
# mode solves v'' = 0, v = t, with v'(1) = 1. A potential kappa^2 shifts
# |m|^2 to |m|^2 + kappa^2.
def flat_dn_eigenvalue(m, kappa2=0.0):
    mu = np.sqrt(float(np.dot(m, m)) + kappa2)
    return mu / np.tanh(mu) if mu > 0 else 1.0


class TestDNMap:
    def test_constant_mode_flat(self, flat9):
        sys = assemble_stiffness(flat9)
        vals = dn_mode_eigenvalues(sys, GAMMA1, [(0, 0)])
        assert abs(vals[0] - 1.0) < 1e-10, f"constant mode: {vals[0]}"

    def test_mode_eigenvalues_converge(self):
        modes = [(1, 0), (1, 1)]
        exact = np.array([flat_dn_eigenvalue(m) for m in modes])
        errs = []
        for size in (9, 17):
            g = sample_metric(flat_metric(3), cyl_grid(3, size))
            vals = dn_mode_eigenvalues(assemble_stiffness(g), GAMMA1, modes)
            errs.append(np.abs(vals - exact).max())
        assert errs[1] < errs[0] / 3.0, f"no O(h^2) decrease: {errs}"

    def test_mode_gap(self):
        # the relative Frobenius gap; two zero matrices have no scale, and
        # their gap is 0
        A = np.diag([3.0, 4.0])
        assert mode_gap(A, np.zeros((2, 2))) == 1.0
        assert mode_gap(A, 2.0 * A) == 0.5
        assert mode_gap(np.zeros((3, 3)), np.zeros((3, 3))) == 0.0

    def test_symmetry(self, bumpy9):
        lam = dn_map_partial(assemble_stiffness(bumpy9), GAMMA1).matrix
        rel = np.abs(lam - lam.T).max() / np.abs(lam).max()
        assert rel < 1e-10, f"DN asymmetry {rel:.2e}"

    def test_metric_homogeneity(self, grid9):
        # scaling g by s multiplies the weight sqrt|g| g^{-1} by s^{1/2}
        # in three dimensions, hence the whole Schur complement too
        g1 = sample_metric(constant_metric(np.eye(3)), grid9)
        g2 = sample_metric(constant_metric(2.0 * np.eye(3)), grid9)
        lam1 = dn_map_partial(assemble_stiffness(g1), GAMMA1).matrix
        lam2 = dn_map_partial(assemble_stiffness(g2), GAMMA1).matrix
        rel = np.abs(lam2 - np.sqrt(2.0) * lam1).max() / np.abs(lam2).max()
        assert rel < 1e-12, f"homogeneity defect {rel:.2e}"

    def test_zero_potential_equals_plain(self, grid9, bumpy9):
        lam0 = dn_map_partial(assemble_stiffness(bumpy9), GAMMA1).matrix
        lamV = dn_map_partial(
            assemble_stiffness(bumpy9, np.zeros(grid9.shape), potential_id="zero"), GAMMA1
        ).matrix
        assert np.abs(lam0 - lamV).max() == 0.0

    def test_dn_apply_matches_dense(self, bumpy9):
        sys = assemble_stiffness(bumpy9)
        lam = dn_map_partial(sys, GAMMA1).matrix
        V, _ = fourier_modes(bumpy9.grid, 1.0)
        assert np.abs(dn_apply(sys, GAMMA1, V) - lam @ V).max() < 1e-9

    def test_multi_chunk_matches_single_chunk(self, bumpy9, monkeypatch):
        # 64 boundary columns: one chunk by default, ten chunks of at most 7
        sys = assemble_stiffness(bumpy9)
        lam = dn_apply(sys, GAMMA1, np.eye(64))
        monkeypatch.setattr(dn_solver, "_DENSE_BYTES", 7 * 8 * bumpy9.grid.node_count)
        lam7 = dn_apply(sys, GAMMA1, np.eye(64))
        assert np.abs(lam7 - lam).max() <= 1e-12 * np.abs(lam).max()

    def test_chunk_budget_bounds_memory(self, monkeypatch):
        # 256 columns in one chunk peaked at 75.7 MB, in chunks of 8 at 4.3 MB
        grid = cyl_grid(3, 17)
        sys = assemble_stiffness(sample_metric(random_trig_metric(3, seed=5), grid))
        eye = np.eye(grid.layer_count)
        monkeypatch.setattr(dn_solver, "_DENSE_BYTES", 256 * 8 * grid.node_count)
        lam = dn_apply(sys, GAMMA1, eye)
        monkeypatch.setattr(dn_solver, "_DENSE_BYTES", 8 * 8 * grid.node_count)
        tracemalloc.start()
        try:
            lam8 = dn_apply(sys, GAMMA1, eye)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 12e6, f"{peak / 1e6:.1f} MB peak"
        assert np.abs(lam8 - lam).max() <= 1e-12 * np.abs(lam).max()

    def test_mode_matrix_peak_at_33(self):
        # 41.2 MB when the solver copied K's interior block and coupling and
        # CG kept Q and Z alive into the next preconditioner application
        grid = cyl_grid(3, 33)
        q = np.random.default_rng(0).uniform(0.5, 1.5, grid.shape)
        sys = assemble_stiffness(sample_metric(random_trig_metric(3, seed=0), grid), potential=q)
        sys.matrix
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            dn_mode_matrix(sys, GAMMA1)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak <= 28e6, f"{peak / 1e6:.1f} MB peak"

    def test_mode_matrix_bytes_independent_of_blas_threads(self):
        # the energy pairing u^T (K u) is a GEMM over all nodes
        src = Path(dn_solver.__file__).resolve().parents[1]
        script = (
            "import hashlib, numpy as np\n"
            "from calderon_lab.dn_solver import assemble_stiffness, dn_mode_matrix\n"
            "from calderon_lab.grid_geometry import GAMMA1, cyl_grid, random_trig_metric, sample_metric\n"
            "grid = cyl_grid(3, 25)\n"
            "q = np.random.default_rng(0).uniform(0.5, 1.5, grid.shape)\n"
            "s = assemble_stiffness(sample_metric(random_trig_metric(3, seed=0), grid), potential=q)\n"
            "print(hashlib.sha256(dn_mode_matrix(s, GAMMA1)[0].tobytes()).hexdigest())\n"
        )
        digests = []
        for threads in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": threads,
                   "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads}
            out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                                 capture_output=True, text=True)
            digests.append(out.stdout.strip())
        assert digests[0] == digests[1]

    def test_wrong_trace_rows_rejected(self, grid5):
        sys = assemble_stiffness(sample_metric(flat_metric(3), grid5))
        with pytest.raises(ShapeMismatch):
            dn_apply(sys, GAMMA1, np.ones((grid5.layer_count + 1, 2)))

    def test_one_dimensional_traces_rejected(self, grid5):
        # traces are columns: a 1-D array is not read as one column
        sys = assemble_stiffness(sample_metric(flat_metric(3), grid5))
        with pytest.raises(ShapeMismatch):
            dn_apply(sys, GAMMA1, np.ones(grid5.layer_count))

    def test_mode_matrix_matches_projection(self, bumpy9):
        sys = assemble_stiffness(bumpy9)
        B, labels = dn_mode_matrix(sys, GAMMA1, 1.5)
        V, labels2 = fourier_modes(bumpy9.grid, 1.5)
        assert labels == labels2
        lam = dn_map_partial(sys, GAMMA1).matrix
        assert np.abs(B - V.T @ lam @ V).max() < 1e-8 * np.abs(B).max()

    def test_full_boundary_block_structure(self, flat9):
        sys = assemble_stiffness(flat9)
        B, labels = dn_mode_matrix(sys, FULL_BOUNDARY, 1.0)
        assert {l[0] for l in labels} == {GAMMA0, GAMMA1}
        assert B.shape[0] == len(labels)

    def test_mode_aliasing_guard(self):
        grid = cyl_grid(3, 5)  # 4 angular nodes, Nyquist at |k| = 2
        with pytest.raises(ShapeMismatch):
            fourier_modes(grid, 2.0)

    @pytest.mark.parametrize("grid", [CylinderGrid(3, 5, (6, 4)), CylinderGrid(4, 5, (8, 5, 7)),
                                      CylinderGrid(2, 5, (5,))], ids=lambda g: "x".join(map(str, g.shape)))
    def test_aliasing_matches_every_listed_mode(self, grid):
        # the guard refuses a cut exactly when some mode with |m| <= cut
        # has a component k with 2|k| >= its axis's node count
        for cut in (0.0, 0.5, 1.0, 1.5, 1.99, 2.0, 2.3, 2.9, 3.0, 3.5):
            r = int(np.floor(cut))
            aliases = any(
                sum(k * k for k in m) <= cut * cut + 1e-9
                and any(2 * abs(k) >= N for k, N in zip(m, grid.num_ang))
                for m in itertools.product(range(-r, r + 1), repeat=grid.n - 1)
            )
            if aliases:
                with pytest.raises(ShapeMismatch, match="aliases on angular axis with"):
                    fourier_modes(grid, cut)
            else:
                fourier_modes(grid, cut)

    def test_huge_cut_refused_before_listing(self):
        # listing every mode with |m| <= 1e6 took minutes and gigabytes
        with pytest.raises(ShapeMismatch, match=r"mode \(1000000, 0\) aliases"):
            fourier_modes(cyl_grid(3, 9), 1e6)


class TestSpectrum:
    # all four entry points eliminate the same interior block. CG runs on
    # it in three: they converge in the preconditioned norm and then miss
    # the 1e-10 residual gate. The dense map's block Cholesky ends on
    # t-layer 7 with a pivot ratio of 9.3e-13 (on one BLAS thread; on two
    # that pivot rounds below zero and the Cholesky fails), and it refuses
    # the block
    @pytest.mark.parametrize(
        "solve,error,check",
        [
            pytest.param(lambda sys: dn_map_partial(sys, GAMMA1), SingularInteriorBlock,
                         lambda e: re.search(r"block Cholesky (pivot ratio \S+e-1\d below 1e-09|fails) at t-layer 7\b",
                                             str(e)), id="dn_map_partial"),
            pytest.param(lambda sys: dn_apply(sys, GAMMA1, np.ones((sys.grid.layer_count, 1))), NoConvergence,
                         lambda e: e.tolerance == dn_solver._SOLVE_RTOL, id="dn_apply"),
            pytest.param(lambda sys: dn_mode_matrix(sys, GAMMA1), NoConvergence,
                         lambda e: e.tolerance == dn_solver._SOLVE_RTOL, id="dn_mode_matrix"),
            pytest.param(lambda sys: InteriorSolver(sys).extend(np.ones(sys.grid.node_count)), NoConvergence,
                         lambda e: e.tolerance == dn_solver._SOLVE_RTOL, id="extend"),
        ],
    )
    def test_shifted_potential_singular(self, flat9, flat9_lambda1, solve, error, check):
        sys = assemble_stiffness(
            flat9, potential=-flat9_lambda1 * np.ones(flat9.grid.shape), potential_id="shift"
        )
        with pytest.raises(error) as err:
            solve(sys)
        assert check(err.value), str(err.value)


class TestBoundaryMass:
    def test_row_sums_are_layer_weights(self, grid9):
        # the flat layer measure of a node on the 8 x 8 torus is (2 pi / 8)^2
        M = boundary_mass_matrix(grid9)
        sums = np.asarray(M.sum(axis=1)).ravel()
        assert np.abs(sums - (2.0 * np.pi / 8) ** 2).max() < 1e-12

    @pytest.mark.parametrize("num", [4, 5, 8, 12, 17, 32, 64, 100])
    def test_pencil_matches_element_assembly(self, num):
        # the periodic 1-D Q1 matrices, summed element by element
        for h in (2.0 * np.pi / num, 0.1 + 1.0 / num):
            K, M = np.zeros((num, num)), np.zeros((num, num))
            k_elem = np.array([[1.0, -1.0], [-1.0, 1.0]]) / h
            m_elem = np.array([[2.0, 1.0], [1.0, 2.0]]) * h / 6.0
            for c in range(num):
                ids = np.array([c, (c + 1) % num])
                K[ids[:, None], ids] += k_elem
                M[ids[:, None], ids] += m_elem
            got = dn_solver._q1_pencil(num, h)
            assert [a.tobytes() for a in got] == [K.tobytes(), M.tobytes()], h
