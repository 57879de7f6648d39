"""Preconditioned CG in InteriorSolver against a sparse-LU reference.

InteriorSolver fixes the whole boundary and frees the interior t-layers;
every DN map and the rigidity check go through that one seam.

Verifies:
  - mode matrices agree with a sparse LU of the same interior block
    (sliced and factorised here with splu, through the Schur complement
    K_GG - K_GI K_II^{-1} K_IG on GAMMA0, GAMMA1 and the full boundary)
    to 1e-10 relative
  - on potential-free blocks the CG iteration count stays within the
    a-priori bound from the weight matrix W = sqrt(det g) g^{-1} at the
    quadrature points, and is exactly 1 on the flat metric, whose block
    the preconditioner inverts exactly
  - a batch whose columns converge at 0, 1, 2, 3 and the full count of
    iterations matches column-by-column solves to 1e-12 relative and
    reports the slowest column's count; a NaN column in it still ends in
    the LU fallback and NoConvergence
  - an indefinite but nonsingular block (the flat block shifted past its
    first Dirichlet eigenvalue, from a dense eigensolve) falls back to LU
    in InteriorSolver.extend and still solves
  - dense partial DN maps on GAMMA0 and GAMMA1 (layer stripping) match the
    dense sparse-LU Schur complement to 3e-14 and the CG map of dn_apply to
    1e-10; an indefinite interior block and the full boundary still take
    the CG/LU route
"""

import itertools

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg as spla

from calderon_lab import analytic as an
from calderon_lab import dn_solver
from calderon_lab.conformal import ConformalFactor, conformal_potential
from calderon_lab.counterexample import synth_approx_miller
from calderon_lab.dn_solver import (
    InteriorSolver,
    assemble_stiffness,
    dn_apply,
    dn_map_partial,
    dn_mode_matrix,
    fourier_modes,
)
from calderon_lab.errors import NoConvergence
from calderon_lab.grid_geometry import (
    FULL_BOUNDARY,
    GAMMA0,
    GAMMA1,
    CylinderGrid,
    assemble_counterexample_metric_3d,
    cyl_grid,
    flat_metric,
    random_trig_metric,
    sample_metric,
)

SIZES = (9, 13, 17)


def _iteration_bound(metric) -> int:
    """ceil(sqrt(kappa)/2 * ln(2 sqrt(kappa) / 1e-12)), with kappa the
    eigenvalue ratio of W over all 2-point Gauss points of all cells.

    The metric is interpolated multilinearly one axis at a time (t clipped,
    angles periodic), independently of the assembler's shape functions.
    """
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
    return int(np.ceil(np.sqrt(kappa) / 2.0 * np.log(2.0 * np.sqrt(kappa) / 1e-12)))


def _lu_reference(sys, gamma=GAMMA1):
    """Mode matrix (cut 2) on ``gamma`` as the Schur complement
    K_GG - K_GI K_II^{-1} K_IG, sliced here and solved with splu of the
    interior block, and the CG iteration count of the same interior solve."""
    grid = sys.grid
    K = sys.matrix
    I = grid.interior_ids()
    G = grid.boundary_ids(gamma)
    V, _ = fourier_modes(grid, 2.0)
    if gamma == FULL_BOUNDARY:
        z = np.zeros_like(V)
        V = np.block([[V, z], [z, V]])
    rhs = K[I][:, G] @ V
    solver = InteriorSolver(K, grid)
    solver.solve(rhs)
    X = spla.splu(K[I][:, I].tocsc()).solve(rhs)
    return V.T @ (K[G][:, G] @ V - K[G][:, I] @ X), solver.iterations


def _dense_lu_reference(sys, gamma):
    """Dense Schur complement K_GG - K_GI K_II^{-1} K_IG on ``gamma``, sliced
    here and solved with splu of the interior block."""
    grid = sys.grid
    K = sys.matrix
    I = grid.interior_ids()
    G = grid.boundary_ids(gamma)
    lu = spla.splu(K[I][:, I].tocsc(), permc_spec="MMD_AT_PLUS_A")
    return K[G][:, G].toarray() - K[G][:, I] @ lu.solve(K[I][:, G].toarray())


def _rel(a, b) -> float:
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


def _shifted_system(metric, lam1):
    """-Lap_g - (lam1 + 0.5) on the flat cylinder, with lam1 its first
    Dirichlet eigenvalue: the second is lam1 plus the first angular one
    (about 1), so the shifted interior block has exactly one negative
    eigenvalue, indefinite but nonsingular."""
    shift = -(lam1 + 0.5) * np.ones(metric.grid.shape)
    return assemble_stiffness(metric, potential=shift, potential_id="shift")


def _link_system(metric):
    """Criterion-3 link system -Lap_g + q, q from a collar-flat factor."""
    grid = metric.grid
    ang = an.trig_sum(3, np.random.default_rng(10), terms=2, amplitude=0.5, max_mode=1, offset=1.0)
    src = an.constant(1.0, 3) + an.bump(0.15, 0.85, 3, 0) * ang * an.constant(0.3, 3)
    c = ConformalFactor.from_source(grid, src, 3)
    q = conformal_potential(metric, c, one_sided=True)
    return assemble_stiffness(metric, potential=q, potential_id="link")


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
        "n,size", [(3, s) for s in SIZES] + [(4, 9)]
    )
    def test_random_trig_within_bound(self, n, size):
        g = sample_metric(random_trig_metric(n, seed=size), cyl_grid(n, size))
        sys = assemble_stiffness(g)
        B_ref, its = _lu_reference(sys)
        assert its is not None and its <= _iteration_bound(g), its
        assert _rel(dn_mode_matrix(sys, GAMMA1)[0], B_ref) <= 1e-10

    @pytest.mark.parametrize("size", SIZES)
    def test_link_system_with_potential(self, size):
        g = sample_metric(random_trig_metric(3, seed=0, max_mode=1), cyl_grid(3, size))
        sys = _link_system(g)
        B_ref, its = _lu_reference(sys)
        assert its is not None
        assert _rel(dn_mode_matrix(sys, GAMMA1)[0], B_ref) <= 1e-10

    def test_counterexample_metric(self, counterexample_metric):
        sys = assemble_stiffness(counterexample_metric)
        B_ref, its = _lu_reference(sys)
        assert its is not None and its <= _iteration_bound(counterexample_metric), its
        assert _rel(dn_mode_matrix(sys, GAMMA1)[0], B_ref) <= 1e-10


class TestStaggeredBatch:
    """Columns leave the CG batch at different iterations. The block is
    A = K_g on the interior of bumpy9 and K_flat the preconditioned flat
    block; A v for a generalized eigenvector v of (A, K_flat) converges in
    one iteration, a sum of k of them in k, Fourier trace data and noise
    take the full count, and a zero column leaves at once."""

    @staticmethod
    def _batch(metric):
        grid = metric.grid
        K = assemble_stiffness(metric).matrix
        flat = assemble_stiffness(sample_metric(flat_metric(3), grid)).matrix
        I = grid.interior_ids()
        A = K[I][:, I].toarray()
        _, vecs = scipy.linalg.eigh(A, flat[I][:, I].toarray())
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
        return K, B

    def test_matches_column_by_column(self, bumpy9):
        grid = bumpy9.grid
        K, B = self._batch(bumpy9)
        solver = InteriorSolver(K, grid)
        X = solver.solve(B)
        counts = []
        for j in range(B.shape[1]):
            single = InteriorSolver(K, grid)
            x = single.solve(B[:, j])
            counts.append(single.iterations)
            assert np.linalg.norm(X[:, j] - x) <= 1e-12 * np.linalg.norm(x), j
        assert counts[:4] == [1, 1, 2, 3] and counts[-1] == 0, counts
        assert solver.iterations == max(counts)

    def test_nan_column_ends_in_lu_and_no_convergence(self, bumpy9):
        K, B = self._batch(bumpy9)
        B[3, 2] = np.nan
        solver = InteriorSolver(K, bumpy9.grid)
        with pytest.raises(NoConvergence):
            solver.solve(B)
        assert solver.iterations is None  # CG gave up and LU answered


def test_indefinite_block_falls_back_to_lu(flat9, flat9_lambda1):
    grid = flat9.grid
    sys = _shifted_system(flat9, flat9_lambda1)
    u = InteriorSolver(sys.matrix, grid).extend(np.ones(grid.node_count))

    K = sys.matrix
    I = grid.interior_ids()
    B = grid.boundary_ids(FULL_BOUNDARY)
    rhs = -K[I][:, B] @ np.ones(B.size)
    solver = InteriorSolver(K, grid)
    solver.solve(rhs)
    assert solver.iterations is None  # CG broke down, LU answered
    u_ref = spla.splu(K[I][:, I].tocsc()).solve(rhs)
    assert _rel(u[I], u_ref) <= 1e-10


class TestLayerStripping:
    """The dense map on one end against the splu Schur complement at 3e-14,
    a bound the CG route (1e-13 to 6e-13 here) does not meet, and against
    that route at 1e-10."""

    @staticmethod
    def _check(sys, gamma):
        lam = dn_map_partial(sys, gamma).matrix
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

    def test_indefinite_block_falls_back(self, flat9, flat9_lambda1):
        sys = _shifted_system(flat9, flat9_lambda1)
        assert dn_solver._layer_stripped(sys, GAMMA1) is None
        lam = dn_map_partial(sys, GAMMA1).matrix
        assert _rel(lam, _dense_lu_reference(sys, GAMMA1)) <= 1e-10

    def test_full_boundary_stays_on_cg(self, bumpy9):
        sys = assemble_stiffness(bumpy9)
        lam = dn_map_partial(sys, FULL_BOUNDARY).matrix
        assert _rel(lam, _dense_lu_reference(sys, FULL_BOUNDARY)) <= 1e-10
