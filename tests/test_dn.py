"""Stiffness assembly and partial DN maps.

Verifies:
  - assembled flat-metric stiffness equals the tensor-product (Kronecker)
    formula built from hand-coded 1-D element matrices
  - potential term equals the Kronecker mass matrix for V = 1
  - a constant anisotropic metric's stiffness, cross terms included, equals
    its Kronecker formula
  - the batched kernel matches a per-Gauss-point reference loop built on
    np.linalg.det and np.linalg.inv, for random metrics in n = 2, 3, 4 and a
    synthesised counterexample metric; the SPD kernel
    grid_geometry.spd_weight matches det/inv on batches with condition
    numbers up to 1e8, and in longdouble matches an exact cofactor reference
  - the per-grid layout cache builds one scatter pattern for equal grids,
    is not reachable through a returned matrix, and the assembled bytes do
    not depend on the BLAS thread count
  - InteriorSolver.extend of full-boundary Dirichlet data reproduces
    fields the element space contains exactly and fails its residual gate
    on NaN data
  - DN symmetry, metric homogeneity, zero-potential equivalence
  - dn_apply on the identity gives the same map whether its columns go
    through the interior solver in one chunk or in many
  - mode eigenvalues approach the separated-variables values
  - singular interior blocks (the flat block shifted by its first Dirichlet
    eigenvalue, from a dense eigensolve) are detected by every solve entry
    point
"""

import decimal
import hashlib
import itertools
import os
import subprocess
import sys
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
    constant_metric,
    cyl_grid,
    flat_metric,
    random_trig_metric,
    sample_metric,
    spd_weight,
)


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
        W, root_det = spd_weight(A.astype(dtype).transpose(1, 2, 0))
        W = W.transpose(2, 0, 1)
        assert W.dtype == dtype and root_det.dtype == dtype
        assert (W == W.transpose(0, 2, 1)).all()
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

    def test_returned_matrix_does_not_share_the_layout(self, bumpy9):
        q = np.random.default_rng(8).uniform(0.5, 1.5, bumpy9.grid.shape)
        first = assemble_stiffness(bumpy9, potential=q)
        saved = [(M.data.copy(), M.indices.copy(), M.indptr.copy()) for M in (first.laplace, first.mass)]
        for M in (first.laplace, first.mass):
            M.data *= -3.0
            M.indices[:] = M.indices[::-1]
            M.indptr[1:-1] = 0
        again = assemble_stiffness(bumpy9, potential=q)
        for M, (data, indices, indptr) in zip((again.laplace, again.mass), saved):
            assert np.array_equal(M.data, data)
            assert np.array_equal(M.indices, indices)
            assert np.array_equal(M.indptr, indptr)

    def test_bytes_independent_of_blas_threads(self):
        # the element matrices come from BLAS GEMMs, and report.json byte
        # identity across thread counts rests on their being reproducible
        src = Path(dn_solver.__file__).resolve().parents[1]
        script = (
            "import hashlib, numpy as np\n"
            "from calderon_lab.dn_solver import assemble_stiffness\n"
            "from calderon_lab.grid_geometry import cyl_grid, random_trig_metric, sample_metric\n"
            "grid = cyl_grid(3, 17)\n"
            "q = np.random.default_rng(2).uniform(-1.0, 1.0, grid.shape)\n"
            "s = assemble_stiffness(sample_metric(random_trig_metric(3, seed=4), grid), potential=q)\n"
            "print(hashlib.sha256(s.laplace.data.tobytes()).hexdigest(),"
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
        grid = cyl_grid(3, 17)
        q = np.random.default_rng(2).uniform(-1.0, 1.0, grid.shape)
        s = assemble_stiffness(sample_metric(random_trig_metric(3, seed=4), grid), potential=q)
        here = [hashlib.sha256(M.data.tobytes()).hexdigest() for M in (s.laplace, s.mass)]
        assert digests[0] == here


def _extend_boundary(metric, gamma0: float, gamma1):
    """Harmonic extension into the interior of ``gamma0`` on the t = 0
    layer and ``gamma1`` (a number or a layer array) on the t = 1 layer."""
    grid = metric.grid
    u = np.zeros(grid.shape)
    u[0] = gamma0
    u[-1] = gamma1
    solver = InteriorSolver(assemble_stiffness(metric).matrix, grid, FULL_BOUNDARY)
    return solver.extend(u.reshape(grid.node_count)).reshape(grid.shape)


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
        monkeypatch.setattr(dn_solver, "_DENSE_CHUNK", 7)
        lam7 = dn_apply(sys, GAMMA1, np.eye(64))
        assert np.abs(lam7 - lam).max() <= 1e-12 * np.abs(lam).max()

    def test_wrong_trace_rows_rejected(self, grid5):
        sys = assemble_stiffness(sample_metric(flat_metric(3), grid5))
        with pytest.raises(ShapeMismatch):
            dn_apply(sys, GAMMA1, np.ones((grid5.layer_count + 1, 2)))

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


class TestSpectrum:
    # all four entry points eliminate the same interior block
    @pytest.mark.parametrize(
        "solve",
        [
            lambda sys: dn_map_partial(sys, GAMMA1),
            lambda sys: dn_apply(sys, GAMMA1, np.ones(sys.grid.num_ang).ravel()),
            lambda sys: dn_mode_matrix(sys, GAMMA1),
            lambda sys: InteriorSolver(sys.matrix, sys.grid, FULL_BOUNDARY).extend(
                np.ones(sys.grid.node_count)
            ),
        ],
        ids=["dn_map_partial", "dn_apply", "dn_mode_matrix", "extend"],
    )
    def test_shifted_potential_singular(self, flat9, flat9_lambda1, solve):
        sys = assemble_stiffness(
            flat9, potential=-flat9_lambda1 * np.ones(flat9.grid.shape), potential_id="shift"
        )
        with pytest.raises(SingularInteriorBlock):
            solve(sys)


class TestBoundaryMass:
    def test_row_sums_are_layer_weights(self, grid9):
        M = boundary_mass_matrix(grid9, GAMMA1)
        sums = np.asarray(M.sum(axis=1)).ravel()
        assert np.abs(sums - grid9.layer_weights.ravel()).max() < 1e-12
