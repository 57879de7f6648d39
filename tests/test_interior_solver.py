"""Preconditioned CG in InteriorSolver against a sparse-LU reference.

InteriorSolver fixes the whole boundary and frees the interior t-layers;
every DN map and the rigidity check go through that one seam.

Verifies:
  - mode matrices agree with a sparse LU of the same interior block
    (sliced and factorised here with splu, once per system for the whole
    module, through the Schur complement K_GG - K_GI K_II^{-1} K_IG on
    GAMMA0, GAMMA1 and the full boundary)
    to 1e-10 relative, and to 1e-12 on random-trig metrics at 3-D 9, 13
    and 17, 2-D 33 and 4-D 9, plain and with a potential, on all three
    boundary parts
  - mode matrices are Dirichlet energies: with CG stopped at 1e-3 they
    stay above the LU pairing (their difference is positive
    semidefinite) and their error is at most 1e-2 of the error of the
    linear form V^T K_G u of the same extension; a loose solution that
    misses the energy route's residual check falls back to extend and
    its strict solve, and too many mode columns for one node array go
    through dn_apply's chunks
  - on potential-free blocks the CG iteration count stays within the
    a-priori bound from the weight matrix W = sqrt(det g) g^{-1} at the
    quadrature points, taken relative to the flat metric (the layered
    preconditioner only tightens it), and is exactly 1 on the flat metric
  - the layered preconditioner is the inverse of its operator, assembled
    densely here from Kronecker products of 1-D Q1 matrices and the
    system's layer means; on the flat metric its factors are the flat
    pencils' eigenpairs; it is exact, so CG takes one iteration, on the
    flat metric with the constant potential 1.3 and on a diagonal t-only
    metric whose angular entries share one t-profile; and the
    criterion-3 c^4 g and link systems at size 17 take at most 12
    iterations (the flat preconditioner took 14 and 15), and at most 6
    on the energy route; with its scratch bound at one byte (blocks of
    one t-layer, chunks of 64 columns) it has the bytes of its one-block
    sequence on 2-D, 3-D and 4-D grids with 13, 5 and 1 columns, and it
    only reads its input
  - a batch whose columns converge at 0, 1, 2, 3 and the full count of
    iterations in CG, each column then stopped in place, matches
    column-by-column runs to 1e-12 relative and reports the slowest
    column's count
  - a solve ends in a checked result, SingularInteriorBlock or
    NoConvergence: a NaN boundary entry in a node array sent to extend,
    and CG capped at one iteration, end in NoConvergence; an indefinite
    but nonsingular block (the flat block shifted past its first
    Dirichlet eigenvalue, from a dense eigensolve) has an indefinite
    layered operator, which the solver rebuilds with the potential
    floored at 0, here the flat one, and CG breaks down on the block in
    SingularInteriorBlock, naming the iteration and p^T A p; a positive
    definite link block whose layered operator is indefinite
    (conformal-link at amplitude 30, size 9) and a wide-box Miller
    dataset (rough parts over [1e-4, 1e4], 17^3) solve by CG within 50
    and 30 iterations and match the sparse LU to 1e-10
  - dense partial DN maps on GAMMA0 and GAMMA1 (layer stripping) match
    their block of the dense sparse-LU full-boundary Schur complement to
    3e-14 and the CG map of dn_apply to
    1e-10, and have the bytes of a sweep through fresh blocks, scipy's
    cholesky, a blockwise inverse of fresh arrays, the sparse product
    ``K_kp L^{-T}`` and a symmetrising pass; the in-place inverse matches
    solve_triangular at 1, 95, 96, 97, 193 and 576 rows in C and F order
    with an exactly zero strict upper triangle; at 17^3 the sweep peaks
    at most 3.5 layer blocks above its start (5.07 through fresh
    blocks); the dense map runs no CG: on an indefinite interior block it
    raises SingularInteriorBlock from a failed layer Cholesky at either
    end, on an infinite stiffness entry NoConvergence, and it refuses the
    full boundary with ShapeMismatch, whose map dn_apply's CG gives
  - dn_apply hands extend C-contiguous chunks, 13 columns as 5/5/3, with
    the bytes of strided column slices of one node array
  - the solver borrows K's free rows instead of copying the interior
    block: their product with a node array of zero fixed rows has the
    bytes of ``K[free, free] @ X``, the right-hand side of ``extend`` has
    the bytes of ``K[free, fixed] @ -u[fixed]``, ``extend`` returns the
    bytes of ``K @ u`` for one column and several, and ``dn_apply`` those
    of ``K[G] @ u``, on 2-D, 3-D, 4-D and num_t = 3 grids, plain and with
    a potential; at 33^3 a solver
    allocates at most 1 MB (the copied blocks took 10.8 MB), and at 65^3 a
    fresh process that samples, assembles with a potential and builds a
    solver peaks at most at 270 MiB VmHWM (543 MB with the copies, 318 MB
    when each system copied the grid's CSR pattern), one that computes a
    13-mode GAMMA1 mode matrix instead at most at 300 MiB (348.5 MiB while
    the system kept its mass matrix, 310 MiB with a preconditioner scratch
    of the interior block's size); one 13-mode mode
    matrix on a random-trig 17^3 system, plain and with a potential, peaks
    at most 6 interior-block arrays above its start (7.64 when converged
    CG columns left the batch), and at 33^3 at most 15.5 MB (17.7 MB),
    also when the energy check misses and the strict rerun answers (34.6
    MB while the rerun kept the first attempt's arrays)
"""

import hashlib
import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from functools import reduce
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg as spla

from calderon_lab import analytic as an
from calderon_lab import dn_solver
from calderon_lab.conformal import ConformalFactor, conformal_potential, scale_metric
from calderon_lab.counterexample import synth_approx_miller
from calderon_lab.dn_solver import (
    InteriorSolver,
    assemble_stiffness,
    dn_apply,
    dn_map_partial,
    dn_mode_matrix,
    fourier_modes,
)
from calderon_lab.errors import NoConvergence, ShapeMismatch, SingularInteriorBlock
from calderon_lab.grid_geometry import (
    FULL_BOUNDARY,
    GAMMA0,
    GAMMA1,
    CylinderGrid,
    MetricSource,
    MillerDataset,
    assemble_counterexample_metric_3d,
    cyl_grid,
    flat_metric,
    random_trig_metric,
    sample_metric,
)

SIZES = (9, 13, 17)


# The references of a system, shared by its tests and freed at module
# teardown: the iteration bound of its metric, keyed by the metric's bytes,
# and, keyed by the bytes of K, one splu factor of the interior block for
# every boundary part, with the dense full-boundary Schur complement once a
# test asks for it. Only the last three systems' factors are kept (the flat
# tests cycle through three sizes): keeping all of them took the test
# process to a 466 MiB peak, three to 330 MiB.
_REFERENCES = {}
_FACTORS_KEPT = 3


@pytest.fixture(scope="module", autouse=True)
def _free_references():
    yield
    _REFERENCES.clear()


def _digest(arr: np.ndarray) -> tuple:
    return arr.shape, hashlib.sha256(arr.tobytes()).hexdigest()


def _iteration_bound(metric) -> int:
    """ceil(sqrt(kappa)/2 * ln(2 sqrt(kappa) / 1e-12)), with kappa the
    eigenvalue ratio of W over all 2-point Gauss points of all cells.

    The metric is interpolated multilinearly one axis at a time (t clipped,
    angles periodic), independently of the assembler's shape functions.
    """
    key = ("bound", _digest(metric.mat))
    if key in _REFERENCES:
        return _REFERENCES[key]
    g = metric.mat
    xs = (0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0))
    lo, hi = np.inf, 0.0
    for point in itertools.product(xs, repeat=metric.grid.n):
        gq = g
        for axis, x in enumerate(point):
            if axis == 0:
                gq = (1.0 - x) * gq[:-1] + x * gq[1:]
            else:
                gq = (1.0 - x) * gq + x * np.roll(gq, -1, axis)
        W = np.sqrt(np.linalg.det(gq))[..., None, None] * np.linalg.inv(gq)
        ev = np.linalg.eigvalsh(W)
        lo, hi = min(lo, ev[..., 0].min()), max(hi, ev[..., -1].max())
    kappa = hi / lo
    _REFERENCES[key] = int(np.ceil(np.sqrt(kappa) / 2.0 * np.log(2.0 * np.sqrt(kappa) / 1e-12)))
    return _REFERENCES[key]


def _reference(sys) -> dict:
    K = sys.matrix
    key = ("lu", _digest(K.data))
    if key not in _REFERENCES:
        factors = [k for k in _REFERENCES if k[0] == "lu"]
        for old in factors[: max(len(factors) + 1 - _FACTORS_KEPT, 0)]:
            del _REFERENCES[old]
        I = sys.grid.interior_ids()
        _REFERENCES[key] = {"lu": spla.splu(K[I][:, I].tocsc(), permc_spec="MMD_AT_PLUS_A")}
    _REFERENCES[key] = _REFERENCES.pop(key)  # most recently used last
    return _REFERENCES[key]


def _lu_reference(sys, gamma=GAMMA1):
    """Mode matrix (cut 2) on ``gamma`` as the Schur complement
    K_GG - K_GI K_II^{-1} K_IG, sliced here and solved with the cached splu
    of the interior block, and the CG iteration count of ``extend`` on a
    node array of the same mode traces."""
    grid = sys.grid
    K = sys.matrix
    I = grid.interior_ids()
    G = grid.boundary_ids(gamma)
    V, _ = fourier_modes(grid, 2.0)
    if gamma == FULL_BOUNDARY:
        z = np.zeros_like(V)
        V = np.block([[V, z], [z, V]])
    U = np.zeros((grid.node_count, V.shape[1]))
    U[G] = V
    solver = InteriorSolver(sys)
    solver.extend(U)
    rhs = K[I][:, G] @ V
    X = _reference(sys)["lu"].solve(rhs)
    return V.T @ (K[G][:, G] @ V - K[G][:, I] @ X), solver.iterations


def _energy_solver(sys, gamma=GAMMA1):
    """The mode vectors (cut 2) on ``gamma`` in a node array, their energy
    pairing and the solver that computed it."""
    grid = sys.grid
    V, _ = dn_solver._mode_basis(grid, gamma, 2.0)
    U = np.zeros((grid.node_count, V.shape[1]))
    U[grid.boundary_ids(gamma)] = V
    solver = InteriorSolver(sys)
    return solver.energy(U), U, V, solver


def _dense_lu_reference(sys, gamma):
    """Dense Schur complement K_GG - K_GI K_II^{-1} K_IG on ``gamma``: its
    block of the full-boundary one, made once per system with the cached
    splu of the interior block."""
    grid = sys.grid
    ref = _reference(sys)
    if "schur" not in ref:
        K = sys.matrix
        I = grid.interior_ids()
        F = grid.boundary_ids(FULL_BOUNDARY)
        ref["schur"] = K[F][:, F].toarray() - K[F][:, I] @ ref["lu"].solve(K[I][:, F].toarray())
        ref["schur"].setflags(write=False)  # tests share it
    # the full boundary lists GAMMA0's layer, then GAMMA1's
    at = {GAMMA0: slice(0, grid.layer_count), GAMMA1: slice(grid.layer_count, None)}.get(gamma, slice(None))
    return ref["schur"][at, at]


def _rel(a, b) -> float:
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


def _inverse_reference(L):
    """``L^{-1}`` of a lower triangular ``L`` as dn_solver builds it: trtri
    up to 96 rows, else the two diagonal blocks' inverses and
    ``-D^{-1} (C A^{-1})`` below them, each block a fresh array."""
    n, h = len(L), len(L) // 2
    if n <= 96:
        return np.tril(scipy.linalg.lapack.dtrtri(L, lower=1)[0])
    A, D = _inverse_reference(L[:h, :h]), _inverse_reference(L[h:, h:])
    return np.block([[A, np.zeros((h, n - h))], [-(D @ (L[h:, :h] @ A)), D]])


def _stripped_reference(sys, gamma):
    """The layer-stripped DN map through a fresh block per layer, scipy's
    cholesky, :func:`_inverse_reference`, the sparse product
    ``Y^T = K_kp L^{-T}`` and ``0.5 (S + S^T)`` after each layer."""
    K, P, num_t = sys.matrix, sys.grid.layer_count, sys.grid.num_t
    ids = list(range(1, num_t)) if gamma == GAMMA1 else list(range(num_t - 2, -1, -1))

    def block(i, j):
        return K[i * P : (i + 1) * P, j * P : (j + 1) * P]

    S = block(ids[0], ids[0]).toarray()
    for p, k in zip(ids, ids[1:]):
        L = scipy.linalg.cholesky(S, lower=True, check_finite=False)
        Yt = block(k, p) @ _inverse_reference(L).T
        S = block(k, k).toarray() - Yt @ Yt.T
        S = 0.5 * (S + S.T)
    return S


def _shifted_system(metric, lam1):
    """-Lap_g - (lam1 + 0.5) on the flat cylinder, with lam1 its first
    Dirichlet eigenvalue: the second is lam1 plus the first angular one
    (about 1), so the shifted interior block has exactly one negative
    eigenvalue, indefinite but nonsingular."""
    shift = -(lam1 + 0.5) * np.ones(metric.grid.shape)
    return assemble_stiffness(metric, potential=shift, potential_id="shift")


def _collar_flat_factor(grid, seed=10, amplitude=0.3):
    """Criterion 3's factor (seed 10, amplitude 0.3), or dn-compare's
    conformal-link one of another seed and amplitude: 1 with zero normal
    derivative on collars at both ends."""
    ang = an.trig_sum(3, np.random.default_rng(seed), terms=2, amplitude=0.5, max_mode=1, offset=1.0)
    src = an.constant(1.0, 3) + an.bump(0.15, 0.85, 3, 0) * ang * an.constant(amplitude, 3)
    return ConformalFactor.from_source(grid, src, 3)


def _link_system(metric, seed=10, amplitude=0.3):
    """Link system -Lap_g + q, q from a collar-flat factor (criterion 3's
    by default)."""
    q = conformal_potential(metric, _collar_flat_factor(metric.grid, seed, amplitude), one_sided=True)
    return assemble_stiffness(metric, potential=q, potential_id="link")


def _layered_operator(sys):
    """The layered operator on the interior nodes, dense: Kronecker
    products of 1-D Q1 matrices, the t-ones summed here cell by cell from
    the system's layer means,
    ``(K_t[w_tt] + M_t[q]) (x) M_1 (x) ... + sum_d alpha_d M_t[w_a] (x) ... K_d ...``
    with ``w_a`` the mean of the angular ``w_dd`` and ``alpha_d`` the ratio
    of their means over t."""
    grid = sys.grid
    w_tt, *w_dd, q = sys.layers
    w_a = np.mean(w_dd, axis=0)
    h = grid.h_t
    cell_K = np.array([[1.0, -1.0], [-1.0, 1.0]]) / h
    cell_M = np.array([[2.0, 1.0], [1.0, 2.0]]) * h / 6.0

    def t_matrix(stiff, mass):
        A = np.zeros((grid.num_t, grid.num_t))
        for c in range(grid.num_t - 1):
            A[c : c + 2, c : c + 2] += stiff[c] * cell_K + mass[c] * cell_M
        return A[1:-1, 1:-1]

    ang = [dn_solver._q1_pencil(m, ha) for m, ha in zip(grid.num_ang, grid.h_ang)]
    L = reduce(np.kron, [t_matrix(w_tt, q)] + [M for _, M in ang])
    for d, w in enumerate(w_dd):
        factors = [K if e == d else M for e, (K, M) in enumerate(ang)]
        L += w.mean() / w_a.mean() * reduce(np.kron, [t_matrix(0.0 * w_a, w_a)] + factors)
    return L


@pytest.fixture(scope="module")
def counterexample_metric():
    data, _ = synth_approx_miller(
        CylinderGrid(3, 13, (12, 12)), modes=((1, 0), (0, 1)), amplitude=0.1
    )
    return assemble_counterexample_metric_3d(data)


class TestCrossCheck:
    @pytest.mark.parametrize("size", SIZES)
    @pytest.mark.parametrize("gamma", [GAMMA0, GAMMA1, FULL_BOUNDARY])
    def test_flat_one_iteration(self, size, gamma):
        g = sample_metric(flat_metric(3), cyl_grid(3, size))
        sys = assemble_stiffness(g)
        B_ref, its = _lu_reference(sys, gamma)
        assert its == 1
        assert _rel(dn_mode_matrix(sys, gamma)[0], B_ref) <= 1e-10

    @pytest.mark.parametrize(
        "n,size,potential,gamma",
        # the plain GAMMA1 cases keep the ids of their size alone
        [pytest.param(n, size, potential, gamma, id="-".join(
            [str(n), str(size)] + ["potential"] * potential + [gamma] * (gamma != GAMMA1)))
         for n, size in [(3, s) for s in SIZES] + [(4, 9), (2, 33)]
         for potential in (False, True)
         for gamma in (GAMMA1, GAMMA0, FULL_BOUNDARY)],
    )
    def test_random_trig_within_bound(self, n, size, potential, gamma):
        grid = cyl_grid(n, size)
        g = sample_metric(random_trig_metric(n, seed=size), grid)
        q = np.random.default_rng(size).uniform(0.5, 1.5, grid.shape) if potential else None
        sys = assemble_stiffness(g, potential=q)
        B_ref, its = _lu_reference(sys, gamma)
        assert isinstance(its, int)  # CG answered
        if not potential:
            assert its <= _iteration_bound(g), its
        assert _rel(dn_mode_matrix(sys, gamma)[0], B_ref) <= 1e-12

    @pytest.mark.parametrize("size", SIZES)
    def test_link_system_with_potential(self, size):
        g = sample_metric(random_trig_metric(3, seed=0, max_mode=1), cyl_grid(3, size))
        sys = _link_system(g)
        B_ref, its = _lu_reference(sys)
        assert isinstance(its, int)  # CG answered
        assert _rel(dn_mode_matrix(sys, GAMMA1)[0], B_ref) <= 1e-10

    def test_counterexample_metric(self, counterexample_metric):
        sys = assemble_stiffness(counterexample_metric)
        B_ref, its = _lu_reference(sys)
        assert its <= _iteration_bound(counterexample_metric), its
        assert _rel(dn_mode_matrix(sys, GAMMA1)[0], B_ref) <= 1e-10

    def test_definite_block_with_indefinite_layered_operator(self):
        # dn-compare's conformal-link at amplitude 30 on random-trig seed 0:
        # the block's smallest eigenvalue is 0.49, and the layered operator
        # is indefinite (D reaches -78.6); floored, CG takes 40 iterations,
        # and 21 on the energy route
        g = sample_metric(random_trig_metric(3, seed=0), cyl_grid(3, 9))
        sys = _link_system(g, seed=0, amplitude=30.0)
        I = sys.grid.interior_ids()
        assert np.linalg.eigvalsh(sys.matrix[I][:, I].toarray())[0] > 0.0
        assert np.linalg.eigvalsh(_layered_operator(sys))[0] < 0.0
        B_ref, its = _lu_reference(sys)
        assert its <= 50, its
        B, _, _, solver = _energy_solver(sys)
        assert solver.iterations <= 25, solver.iterations
        assert _rel(B, B_ref) <= 1e-10

    def test_wide_box_dataset(self):
        # the rough parts 1 + A1, 1 + A3 log-uniform over [1e-4, 1e4] per
        # t-node, declared in the box alpha = 1e-4: 20 iterations
        grid = cyl_grid(3, 17)
        A1, A3 = 10.0 ** np.random.default_rng(0).uniform(-4.0, 4.0, (2, grid.num_t)) - 1.0
        zero = np.zeros(grid.shape)
        data = MillerDataset(grid, zero, zero, zero, A1, A3, zero, alpha=1e-4)
        spread = np.concatenate([A1, A3]) + 1.0
        assert spread.min() < 1e-3 and spread.max() > 1e3
        sys = assemble_stiffness(assemble_counterexample_metric_3d(data))
        B_ref, its = _lu_reference(sys)
        assert its <= 30, its
        assert _rel(dn_mode_matrix(sys, GAMMA1)[0], B_ref) <= 1e-10


def _miss_energy_check(monkeypatch):
    """Scale every energy-route CG solution off by 1e-3, so that it misses
    the true-residual check and the strict rerun answers."""
    loose = InteriorSolver._pcg

    def off(self, X, rtol, R):
        start = loose(self, X, rtol, R)
        if rtol == dn_solver._ENERGY_RTOL:
            X *= 1.0 + 1e-3
        return start

    monkeypatch.setattr(InteriorSolver, "_pcg", off)


class TestEnergy:
    def test_dirichlet_principle_ordering(self, monkeypatch):
        # at a 1e-3 stop CG takes 3 iterations instead of 9; the energy
        # pairing is 1.1e-6 above LU where the linear form is 3.9e-3 off
        monkeypatch.setattr(dn_solver, "_ENERGY_RTOL", 1e-3)
        grid = cyl_grid(3, 13)
        q = np.random.default_rng(13).uniform(0.5, 1.5, grid.shape)
        sys = assemble_stiffness(sample_metric(random_trig_metric(3, seed=13), grid), potential=q)
        B_ref, _ = _lu_reference(sys)
        B, U, V, solver = _energy_solver(sys)
        assert solver.iterations <= 4, solver.iterations
        excess = B - B_ref
        assert np.linalg.eigvalsh(0.5 * (excess + excess.T)).min() >= -1e-12 * np.abs(B).max()
        linear = V.T @ (sys.matrix[grid.boundary_ids(GAMMA1)] @ U) - B_ref
        assert np.abs(linear).max() >= 1e-6 * np.abs(B).max()  # the extension stopped early
        assert np.abs(excess).max() <= 1e-2 * np.abs(linear).max()

    def test_missed_check_falls_back_to_extend(self, bumpy9, monkeypatch):
        _miss_energy_check(monkeypatch)
        sys = assemble_stiffness(bumpy9)
        B_ref, its = _lu_reference(sys)
        B, _, _, solver = _energy_solver(sys)
        assert solver.iterations == its  # the strict solve answered
        assert _rel(B, B_ref) <= 1e-12

    def test_fortran_ordered_nodes(self, bumpy9, monkeypatch):
        # u[free] of a Fortran-ordered u is not C-contiguous; R must be, as
        # the energy check preconditions into it through reshaped views
        sys = assemble_stiffness(bumpy9)
        B, U, _, _ = _energy_solver(sys)
        pcg, layouts = InteriorSolver._pcg, []

        def spy(self, X, rtol, R):
            layouts.append(R.flags.c_contiguous)
            return pcg(self, X, rtol, R)

        monkeypatch.setattr(InteriorSolver, "_pcg", spy)
        assert _rel(InteriorSolver(sys).energy(np.asfortranarray(U)), B) <= 1e-12
        assert layouts == [True]  # and the check passed at once

    def test_many_columns_take_dn_apply_chunks(self, bumpy9, monkeypatch):
        sys = assemble_stiffness(bumpy9)
        B = dn_mode_matrix(sys, FULL_BOUNDARY)[0]  # 26 columns, one node array
        monkeypatch.setattr(dn_solver, "_DENSE_BYTES", 25 * 8 * bumpy9.grid.node_count)
        monkeypatch.setattr(InteriorSolver, "energy", lambda self, u: pytest.fail("energy ran"))
        B_chunks = dn_mode_matrix(sys, FULL_BOUNDARY)[0]
        assert _rel(B_chunks, B) <= 1e-12


class TestStaggeredBatch:
    """Columns stop at different iterations and then stop moving. The
    block is A = K_g on the interior of bumpy9 and L its layered operator,
    whose inverse is the preconditioner; A v for a generalized eigenvector
    v of (A, L) converges in one iteration, a sum of k of them in k,
    Fourier trace data and noise take the full count, and a zero column
    stops at once."""

    @staticmethod
    def _batch(metric):
        grid = metric.grid
        sys = assemble_stiffness(metric)
        K = sys.matrix
        I = grid.interior_ids()
        A = K[I][:, I].toarray()
        _, vecs = scipy.linalg.eigh(A, _layered_operator(sys))
        V, _ = fourier_modes(grid, 1.0)
        B = np.hstack([
            A @ vecs[:, [0]],  # the smoothest generalized mode
            A @ vecs[:, [-1]],  # the most oscillatory one
            A @ (vecs[:, [0]] + vecs[:, [-1]]),
            A @ vecs[:, :3].sum(axis=1, keepdims=True),
            K[I][:, grid.boundary_ids(GAMMA1)] @ V,
            np.random.default_rng(5).standard_normal((I.size, 1)),
            np.zeros((I.size, 1)),
        ])
        return sys, B

    def test_matches_column_by_column(self, bumpy9):
        sys, B = self._batch(bumpy9)
        solver = InteriorSolver(sys)
        X = B.copy()  # _pcg solves in place
        solver._pcg(X, dn_solver._CG_RTOL, np.empty_like(X))  # R, as _extend hands it
        counts = []
        for j in range(B.shape[1]):
            single = InteriorSolver(sys)
            x = B[:, [j]]  # a copy
            single._pcg(x, dn_solver._CG_RTOL, np.empty_like(x))
            counts.append(single.iterations)
            assert np.linalg.norm(X[:, j] - x[:, 0]) <= 1e-12 * np.linalg.norm(x), j
        assert counts[:4] == [1, 1, 2, 3] and counts[-1] == 0, counts
        assert solver.iterations == max(counts)

    def test_nan_column_is_no_convergence(self, bumpy9):
        grid = bumpy9.grid
        sys = assemble_stiffness(bumpy9)
        G = grid.boundary_ids(FULL_BOUNDARY)
        U = np.zeros((grid.node_count, 7))
        U[G] = np.random.default_rng(5).standard_normal((G.size, 7))
        U[G[3], 2] = np.nan
        with pytest.raises(NoConvergence, match="residual nan"):
            InteriorSolver(sys).extend(U)


def test_indefinite_block_breaks_down(flat9, flat9_lambda1):
    # the flat block shifted past its first Dirichlet eigenvalue; its
    # layered operator, the block itself, is floored to the flat one
    grid = flat9.grid
    sys = _shifted_system(flat9, flat9_lambda1)
    I = grid.interior_ids()
    assert np.linalg.eigvalsh(sys.matrix[I][:, I].toarray())[0] < 0.0
    solver = InteriorSolver(sys)
    assert solver._diag.tobytes() == InteriorSolver(assemble_stiffness(flat9))._diag.tobytes()
    with pytest.raises(SingularInteriorBlock, match=r"CG breakdown at iteration \d+: p\^T A p = -"):
        solver.extend(np.ones(grid.node_count))


def test_iteration_cap_is_no_convergence(bumpy9, monkeypatch):
    # CG with a column still running after _CG_MAXIT iterations gives up
    grid = bumpy9.grid
    sys = assemble_stiffness(bumpy9)
    B = grid.boundary_ids(FULL_BOUNDARY)
    u = np.zeros(grid.node_count)
    u[B] = np.random.default_rng(3).normal(size=B.size)
    solver = InteriorSolver(sys)
    solver.extend(u.copy())
    assert solver.iterations > 1
    monkeypatch.setattr(dn_solver, "_CG_MAXIT", 1)
    with pytest.raises(NoConvergence) as err:
        InteriorSolver(sys).extend(u)
    assert err.value.tolerance == dn_solver._CG_RTOL and err.value.residual > dn_solver._CG_RTOL


def _t_only_metric() -> MetricSource:
    """diag(1, b(t), 2 b(t)): diagonal, t-only, its angular entries of one
    t-profile. Its W = sqrt(det g) g^{-1} is diag(sqrt(2) b(t), sqrt(2),
    1/sqrt(2)), and the multilinear interpolation of g keeps that form at
    the Gauss points, so the layered operator is the block itself."""

    def func(p):
        b = 1.0 + 0.5 * np.sin(3.0 * p[..., 0]) ** 2
        g = np.zeros(p.shape[:-1] + (3, 3))
        g[..., 0, 0] = 1.0
        g[..., 1, 1] = b
        g[..., 2, 2] = 2.0 * b
        return g

    return MetricSource(3, func)


def _uncut_inverse(solver, R):
    """``V D^{-1} V^T R`` by one matmul per factor over the whole interior,
    in the order of ``_precondition``, which must give its bytes."""
    shape, vecs = (*solver._shape, R.shape[1]), solver._vecs
    Y = R
    for k, d in enumerate([*range(len(vecs))] * 2):
        view = (math.prod(shape[:d]), shape[d], -1)
        Y = np.matmul(vecs[d].T if k < len(vecs) else vecs[d], Y.reshape(view)).reshape(shape)
        if k == len(vecs) - 1:
            Y = Y / solver._diag[..., None]
    return Y.reshape(R.shape)


class TestLayeredPreconditioner:
    @pytest.mark.parametrize("n,size", [(2, 17), (3, 9), (4, 7)])
    def test_inverts_the_layered_operator(self, n, size):
        grid = cyl_grid(n, size)
        q = np.random.default_rng(size).uniform(0.5, 1.5, grid.shape)
        sys = assemble_stiffness(sample_metric(random_trig_metric(n, seed=size), grid), potential=q)
        L = _layered_operator(sys)
        X = np.random.default_rng(1).standard_normal((L.shape[0], 3))
        assert _rel(InteriorSolver(sys)._precondition(L @ X, np.empty_like(X)), X) <= 1e-12

    @pytest.mark.parametrize("grid", [cyl_grid(2, 33), cyl_grid(3, 17), CylinderGrid(3, 9, (5, 5)),
                                      CylinderGrid(3, 13, (12, 10)), cyl_grid(4, 7), cyl_grid(3, 33)],
                             ids=lambda g: "x".join(map(str, g.shape)))
    def test_blocks_keep_the_bytes(self, grid, monkeypatch):
        # a 1-byte bound makes every block one t-layer and every chunk 64
        # columns; six 3-D 17 layers of 13 columns make blocks of 6 + 6 + 3
        # layers and chunks of 1,280 + 1,280 + 768 columns; the default
        # makes 4 layers a block at 33^3 (7 blocks and a partial one)
        q = np.random.default_rng(0).uniform(0.5, 1.5, grid.shape)
        solver = InteriorSolver(assemble_stiffness(sample_metric(random_trig_metric(grid.n, seed=0), grid), potential=q))
        bounds = (1, 6 * 8 * 16**2 * 13, dn_solver._PRECOND_BYTES)
        for cols in (13, 5, 1):
            R = np.random.default_rng(cols).standard_normal(((grid.num_t - 2) * grid.layer_count, cols))
            R_bytes, whole = R.tobytes(), _uncut_inverse(solver, R).tobytes()
            for bound in bounds:
                monkeypatch.setattr(dn_solver, "_PRECOND_BYTES", bound)
                assert solver._precondition(R, np.empty_like(R)).tobytes() == whole, (cols, bound)
            assert R.tobytes() == R_bytes  # only read

    @pytest.mark.parametrize("n,size", [(2, 17), (3, 9), (3, 13), (4, 7)])
    def test_flat_factors_are_the_flat_pencils(self, n, size):
        grid = cyl_grid(n, size)
        solver = InteriorSolver(assemble_stiffness(sample_metric(flat_metric(n), grid)))
        m = grid.num_t - 2  # the interior block of the open t-pencil
        K_t = (2.0 * np.eye(m) - np.eye(m, k=1) - np.eye(m, k=-1)) / grid.h_t
        M_t = (4.0 * np.eye(m) + np.eye(m, k=1) + np.eye(m, k=-1)) * grid.h_t / 6.0
        pencils = [(K_t, M_t)] + [dn_solver._q1_pencil(num, h) for num, h in zip(grid.num_ang, grid.h_ang)]
        eigs = [scipy.linalg.eigh(K, M) for K, M in pencils]
        for (_, V), V_solver in zip(eigs, solver._vecs):
            # an eigenvector's sign is free: fix it by the first row
            assert np.allclose(V_solver * np.sign(V_solver[0]), V * np.sign(V[0]), rtol=0.0, atol=1e-13)
        D = reduce(np.add.outer, [lam for lam, _ in eigs])
        assert np.abs(solver._diag - D).max() <= 1e-13 * np.abs(D).max()

    @pytest.mark.parametrize("size", SIZES)
    def test_flat_with_constant_potential_one_iteration(self, size):
        # criterion 5's kappa^2 = 1.3 systems; the flat preconditioner took 6
        grid = cyl_grid(3, size)
        sys = assemble_stiffness(sample_metric(flat_metric(3), grid), potential=np.full(grid.shape, 1.3))
        B_ref, its = _lu_reference(sys)
        assert its == 1
        assert _rel(dn_mode_matrix(sys, GAMMA1)[0], B_ref) <= 1e-10

    @pytest.mark.parametrize("size", SIZES)
    def test_t_only_metric_one_iteration(self, size):
        sys = assemble_stiffness(sample_metric(_t_only_metric(), cyl_grid(3, size)))
        B_ref, its = _lu_reference(sys)
        assert its == 1
        assert _rel(dn_mode_matrix(sys, GAMMA1)[0], B_ref) <= 1e-10

    def test_criterion_3_systems_stay_layered(self):
        # 9 and 9 iterations; the flat preconditioner took 14 (c^4 g) and 15
        # (link); the energy route, stopped at 5e-7, takes 5 and 5
        grid = cyl_grid(3, 17)
        g = sample_metric(random_trig_metric(3, seed=0, max_mode=1), grid)
        c4g = assemble_stiffness(scale_metric(g, _collar_flat_factor(grid)))
        systems = (c4g, _link_system(g))
        its = [_lu_reference(sys)[1] for sys in systems]
        assert all(it <= 12 for it in its), its
        its = [_energy_solver(sys)[3].iterations for sys in systems]
        assert all(it <= 6 for it in its), its


class TestLayerStripping:
    """The dense map on one end against the splu Schur complement at 3e-14,
    a bound the CG route (1e-13 to 6e-13 here) does not meet, and against
    that route at 1e-10."""

    @staticmethod
    def _check(sys, gamma):
        lam = dn_map_partial(sys, gamma).matrix
        assert lam.tobytes() == _stripped_reference(sys, gamma).tobytes()
        assert _rel(lam, _dense_lu_reference(sys, gamma)) <= 3e-14
        assert _rel(lam, dn_apply(sys, gamma, np.eye(lam.shape[0]))) <= 1e-10

    @pytest.mark.parametrize("gamma", [GAMMA0, GAMMA1])
    @pytest.mark.parametrize(
        "n,size", [(3, s) for s in SIZES] + [(4, 9)]
    )
    def test_random_trig(self, n, size, gamma):
        g = sample_metric(random_trig_metric(n, seed=size), cyl_grid(n, size))
        self._check(assemble_stiffness(g), gamma)

    @pytest.mark.parametrize("gamma", [GAMMA0, GAMMA1])
    @pytest.mark.parametrize("size", SIZES)
    def test_link_system_with_potential(self, size, gamma):
        g = sample_metric(random_trig_metric(3, seed=0, max_mode=1), cyl_grid(3, size))
        self._check(_link_system(g), gamma)

    @pytest.mark.parametrize("gamma", [GAMMA0, GAMMA1])
    def test_counterexample_metric(self, counterexample_metric, gamma):
        self._check(assemble_stiffness(counterexample_metric), gamma)

    # trtri alone up to 96 rows, one to three levels of 2 x 2 blocks above
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("n", [1, 95, 96, 97, 193, 576])
    def test_lower_inverse(self, n, order):
        rng = np.random.default_rng(n)
        A = rng.standard_normal((n, n))
        L = scipy.linalg.cholesky(A @ A.T / n + np.eye(n), lower=True)
        L += np.triu(rng.standard_normal((n, n)), 1)  # as dpotrf leaves it: the upper triangle is not read
        L = np.asarray(L, order=order)
        ref = scipy.linalg.solve_triangular(L, np.eye(n), lower=True)
        inv = dn_solver._lower_inverse(L, np.full((n, n), np.nan))
        assert inv is L
        assert not np.triu(inv, 1).any()
        assert np.abs(inv - ref).max() <= 1e-14 * np.abs(ref).max()

    def test_three_layer_blocks_at_17(self):
        # S, T and the coupling product Y^T; the sweep through fresh blocks peaked at 5.07
        grid = cyl_grid(3, 17)
        sys = assemble_stiffness(sample_metric(random_trig_metric(3, seed=17), grid))
        unit = 8 * grid.layer_count**2  # one layer block
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            lam = dn_map_partial(sys, GAMMA1).matrix
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert lam.shape == (grid.layer_count, grid.layer_count)
        assert peak <= 3.5 * unit, f"{peak / unit:.2f} layer blocks"

    # an indefinite block has no block Cholesky, so the sweep fails at some
    # layer from either end; InteriorSolver is stubbed to prove no CG runs
    @pytest.mark.parametrize("gamma", [GAMMA0, GAMMA1])
    def test_indefinite_block_refused(self, flat9, flat9_lambda1, gamma, monkeypatch):
        sys = _shifted_system(flat9, flat9_lambda1)
        monkeypatch.setattr(InteriorSolver, "__init__", lambda *args: pytest.fail("the dense map ran CG"))
        with pytest.raises(SingularInteriorBlock, match=r"block Cholesky fails at t-layer \d+, leading minor \d+"):
            dn_map_partial(sys, gamma)

    def test_not_finite_map_refused(self, bumpy9, monkeypatch):
        sys = assemble_stiffness(bumpy9)
        K = sys.matrix.copy()
        K.data[K.indptr[-1] - 1] = np.inf  # the last diagonal entry, on the layer the sweep ends at
        monkeypatch.setattr(InteriorSolver, "__init__", lambda *args: pytest.fail("the dense map ran CG"))
        with pytest.raises(NoConvergence):
            dn_map_partial(dn_solver.StiffnessSystem(sys.grid, K, sys.layers), GAMMA1)

    def test_full_boundary_stays_on_cg(self, bumpy9):
        sys = assemble_stiffness(bumpy9)
        with pytest.raises(ShapeMismatch, match="dense DN maps are taken on gamma0 or gamma1, not 'full'"):
            dn_map_partial(sys, FULL_BOUNDARY)
        lam = dn_apply(sys, FULL_BOUNDARY, np.eye(2 * sys.grid.layer_count))
        assert _rel(lam, _dense_lu_reference(sys, FULL_BOUNDARY)) <= 1e-10


BORROW_GRIDS = [cyl_grid(2, 17), cyl_grid(3, 9), cyl_grid(4, 7), CylinderGrid(2, 3, (6,)),
                CylinderGrid(3, 3, (4, 5))]


class TestBorrowedRows:
    @staticmethod
    def _system(grid, potential):
        g = sample_metric(random_trig_metric(grid.n, seed=grid.num_t), grid)
        q = np.random.default_rng(3).uniform(-1.0, 1.5, grid.shape) if potential else None
        return assemble_stiffness(g, potential=q)

    @pytest.mark.parametrize("potential", [False, True], ids=["plain", "potential"])
    @pytest.mark.parametrize("grid", BORROW_GRIDS, ids=lambda g: "x".join(map(str, g.shape)))
    def test_block_product_bitwise(self, grid, potential):
        sys = self._system(grid, potential)
        solver = InteriorSolver(sys)
        block = sys.matrix[solver.free, solver.free]
        rng = np.random.default_rng(0)
        for cols in (1, 4):
            X = rng.standard_normal((block.shape[0], cols))
            X[::5] = 0.0
            X[1::7] = -0.0
            U = np.zeros((grid.node_count, cols))  # as in _pcg: zero fixed rows
            U[solver.free] = X
            assert (solver.rows @ U).tobytes() == (block @ X).tobytes(), cols

    @pytest.mark.parametrize("potential", [False, True], ids=["plain", "potential"])
    @pytest.mark.parametrize("grid", BORROW_GRIDS, ids=lambda g: "x".join(map(str, g.shape)))
    def test_extend_right_hand_side_bitwise(self, grid, potential):
        sys = self._system(grid, potential)
        fixed = grid.boundary_ids(FULL_BOUNDARY)
        u = np.random.default_rng(1).standard_normal((grid.node_count, 3))
        solver = InteriorSolver(sys)
        coupling = sys.matrix[solver.free, fixed]
        b = solver._rhs(u.copy())
        # the copied coupling's right-hand side, +0.0 on rows with no fixed
        # neighbour included
        assert b.tobytes() == (coupling @ -u[fixed]).tobytes()
        assert np.array_equal(b, -(coupling @ u[fixed]))

    @pytest.mark.parametrize("potential", [False, True], ids=["plain", "potential"])
    @pytest.mark.parametrize("grid", BORROW_GRIDS, ids=lambda g: "x".join(map(str, g.shape)))
    def test_extend_returns_k_times_u_bitwise(self, grid, potential):
        # the Neumann rows of dn_apply come from extend's one product K @ u
        sys = self._system(grid, potential)
        K = sys.matrix
        G = grid.boundary_ids(GAMMA1)
        rng = np.random.default_rng(2)
        u = np.zeros(grid.node_count)
        u[grid.boundary_ids(FULL_BOUNDARY)] = rng.standard_normal(2 * G.size)
        assert InteriorSolver(sys).extend(u).tobytes() == (K @ u).tobytes()
        V = rng.standard_normal((G.size, 3))
        U = np.zeros((grid.node_count, 3))
        U[G] = V
        assert InteriorSolver(sys).extend(U).tobytes() == (K @ U).tobytes()
        assert dn_apply(sys, GAMMA1, V).tobytes() == (K[G] @ U).tobytes()

    @pytest.mark.parametrize("gamma", [GAMMA0, GAMMA1])
    def test_dn_apply_chunks_contiguous(self, monkeypatch, gamma):
        sys = assemble_stiffness(sample_metric(random_trig_metric(3, seed=9), cyl_grid(3, 9)))
        grid, G = sys.grid, sys.grid.boundary_ids(gamma)
        V = np.random.default_rng(4).standard_normal((G.size, 13))
        # the same chunks as strided column slices of one node array
        solver, expected = InteriorSolver(sys), np.empty_like(V)
        U = np.zeros((grid.node_count, 5))
        for lo in range(0, 13, 5):
            cols = V[:, lo : lo + 5]
            U_chunk = U[:, : cols.shape[1]]
            U_chunk[G] = cols
            expected[:, lo : lo + 5] = solver.extend(U_chunk)[G]
        widths, extend = [], InteriorSolver.extend

        def recording(self, u):
            assert u.flags.c_contiguous
            widths.append(u.shape[1])
            return extend(self, u)

        monkeypatch.setattr(dn_solver, "_DENSE_BYTES", 5 * 8 * grid.node_count)
        monkeypatch.setattr(InteriorSolver, "extend", recording)
        assert dn_apply(sys, gamma, V).tobytes() == expected.tobytes()
        assert widths == [5, 5, 3]

    def test_solver_allocates_under_1mb_at_33(self, sys33):
        K = sys33.matrix
        tracemalloc.start()
        try:
            solver = InteriorSolver(sys33)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held <= 1e6, f"{held / 1e6:.2f} MB"
        assert np.shares_memory(solver.rows.data, K.data)
        assert np.shares_memory(solver.rows.indices, K.indices)

    @pytest.mark.parametrize("potential", [False, True], ids=["plain", "potential"])
    def test_mode_matrix_workspace_at_17(self, potential):
        # CG keeps R, the node-layout direction, scipy's product and one
        # preconditioner scratch beside the caller's u: 5.64 units measured
        # (7.64 when converged columns left the batch by fancy indexing)
        grid = cyl_grid(3, 17)
        q = np.random.default_rng(0).uniform(0.5, 1.5, grid.shape) if potential else None
        sys = assemble_stiffness(sample_metric(random_trig_metric(3, seed=0), grid), potential=q)
        B = dn_mode_matrix(sys, GAMMA1)[0]  # the grid's caches and sys.matrix are built from here on
        assert B.shape == (13, 13)
        unit = (grid.num_t - 2) * grid.layer_count * 13 * 8  # one interior-block array
        peak = _traced_peak(lambda: dn_mode_matrix(sys, GAMMA1))
        assert peak <= 6 * unit, f"{peak / unit:.2f} interior-block arrays"

    def test_mode_matrix_peak_at_33(self, sys33):
        # R, the node-layout direction and scipy's product beside the
        # caller's u, and a 416 KiB preconditioner scratch: 14.6 MB measured
        # (17.7 MB with a scratch of R's size)
        dn_mode_matrix(sys33, GAMMA1)  # the grid's caches and sys.matrix are built from here on
        peak = _traced_peak(lambda: dn_mode_matrix(sys33, GAMMA1))
        assert peak <= 15.5e6, f"{peak / 1e6:.2f} MB"

    def test_strict_rerun_holds_no_first_attempt(self, sys33, monkeypatch):
        # the rerun kept the first attempt's arrays: 34.6 MB against 17.7
        dn_mode_matrix(sys33, GAMMA1)
        normal = _traced_peak(lambda: dn_mode_matrix(sys33, GAMMA1))
        _miss_energy_check(monkeypatch)
        fallback = _traced_peak(lambda: dn_mode_matrix(sys33, GAMMA1))
        assert fallback <= normal + 1e6, f"{fallback / 1e6:.2f} MB against {normal / 1e6:.2f} MB"


@pytest.fixture(scope="module")
def sys33():
    """The random-trig seed-0 system at 33^3 with a potential q ~ U[0.5, 1.5]."""
    grid = cyl_grid(3, 33)
    q = np.random.default_rng(0).uniform(0.5, 1.5, grid.shape)
    return assemble_stiffness(sample_metric(random_trig_metric(3, seed=0), grid), potential=q)


def _traced_peak(call) -> int:
    """Bytes that ``call()`` allocates at its peak above its start, by tracemalloc."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def _peak_rss_at_65(last: str) -> float:
    """``VmHWM`` in MiB of a fresh process, BLAS pinned to one thread, that
    samples the 65^3 random-trig seed-0 metric, assembles ``sys`` with the
    potential ``q ~ U[0.5, 1.5]`` (seed 0) and runs the statement ``last``.
    The child reports its own ``VmHWM``: its ``ru_maxrss`` starts from the
    high-water mark of the process that forked it, here the test run's."""
    script = (
        "import re, numpy as np\n"
        "from pathlib import Path\n"
        "from calderon_lab.dn_solver import InteriorSolver, assemble_stiffness, dn_mode_matrix\n"
        "from calderon_lab.grid_geometry import GAMMA1, cyl_grid, random_trig_metric, sample_metric\n"
        "grid = cyl_grid(3, 65)\n"
        "q = np.random.default_rng(0).uniform(0.5, 1.5, grid.shape)\n"
        "sys = assemble_stiffness(sample_metric(random_trig_metric(3, seed=0), grid), potential=q)\n"
        f"{last}\n"
        "print(int(re.search(r'VmHWM:\\s*(\\d+) kB', Path('/proc/self/status').read_text()).group(1)) / 1024)\n"
    )
    src = Path(dn_solver.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1"}
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True, capture_output=True, text=True)
    return float(out.stdout)


def test_setup_peak_rss_at_65():
    """Memory probe for a byte cap: sampling, assembly with a potential and
    one solver (543 MB max RSS when the solver copied K's interior block and
    coupling, 318 MB when it borrowed K's rows but the system copied the
    grid's CSR pattern, 293 MB when the system shared it, 289 MiB before
    and 253 MiB since the system keeps K + M and M but not K, 256 MiB since
    it keeps the Gauss-point mass weights and not M)."""
    peak = _peak_rss_at_65("InteriorSolver(sys)")
    assert peak <= 270.0, f"{peak:.0f} MiB peak RSS"


def test_mode_matrix_peak_rss_at_65():
    """A 13-mode ``GAMMA1`` mode matrix of that system: 348.5 MiB while the
    system kept M, 310 MiB with the Gauss-point mass weights in its place,
    284 MiB since the preconditioner's scratch is one t-layer."""
    peak = _peak_rss_at_65("dn_mode_matrix(sys, GAMMA1)")
    assert peak <= 300.0, f"{peak:.0f} MiB peak RSS"
