"""Grid, metric-field, and coefficient-dataset geometry.

Verifies:
  - node layout, spacings, and quadrature weights of the cylinder grid
  - boundary/interior id sets partition the grid
  - the one MetricField check: every route that builds a metric (the
    constructor, sampling, both conformal scalings, both dataset
    assemblers at n = 3 and 4) refuses the same bad tables with the same
    typed error: asymmetric, indefinite, singular or non-finite entries;
    the NonPositiveDefinite payload names eigvalsh's node and eigenvalue
    for an indefinite node with a positive diagonal and for a singular
    node, and its message names the check that failed; no floating-point
    warning on the way; the cached sqrt(det g)
  - the coefficient-dataset metric reproduces its weight matrix exactly,
    and a dataset metric with a degenerate determinant or an indefinite
    block is refused by both assemblers
  - 3-D and n-D counterexample assemblers agree node for node at n = 3
  - the dataset's angular block is the coefficient matrix's angular slots
"""

import re
from types import SimpleNamespace

import numpy as np
import pytest

from calderon_lab.conformal import ConformalFactor, scale_metric, scale_metric_2d
from calderon_lab.errors import (
    Asymmetric,
    DimensionTooSmall,
    GridMismatch,
    NonPositiveDefinite,
)
from calderon_lab.grid_geometry import (
    BOUNDARY_NAMES,
    FULL_BOUNDARY,
    GAMMA0,
    GAMMA1,
    CylinderGrid,
    MetricField,
    MetricSource,
    MillerDataset,
    assemble_counterexample_metric_3d,
    assemble_counterexample_metric_nd,
    cyl_grid,
    flat_metric,
    random_trig_metric,
    sample_metric,
    weight_identity_check,
)
from conftest import constant_metric


class TestCylinderGrid:
    def test_shape_and_counts(self):
        grid = CylinderGrid(3, 9, (8, 6))
        assert grid.shape == (9, 8, 6)
        assert grid.node_count == 9 * 8 * 6
        assert grid.layer_count == 48

    def test_huge_counts_exact(self):
        # an int64 product wrapped the layer count of this grid to 0
        grid = CylinderGrid(3, 3, (2**32, 2**32))
        assert grid.layer_count == 2**64
        assert grid.node_count == 3 * 2**64

    def test_cyl_grid_convention(self):
        # "size s" means s nodes in t and s-1 per angular axis
        assert cyl_grid(3, 9).shape == (9, 8, 8)
        assert cyl_grid(2, 17).shape == (17, 16)

    def test_axes_ranges(self):
        grid = cyl_grid(3, 9)
        t, x, y = grid.axes()
        assert t[0] == 0.0 and t[-1] == 1.0
        # periodic axes omit the duplicate seam node
        assert x[0] == 0.0 and x[-1] < 2 * np.pi
        assert np.allclose(np.diff(x), 2 * np.pi / 8)

    def test_quad_weights_total(self):
        grid = cyl_grid(3, 9)
        vol = grid.quad_weights.sum()
        assert abs(vol - (2 * np.pi) ** 2) < 1e-12, f"flat volume off: {vol}"

    def test_boundary_interior_partition(self):
        grid = CylinderGrid(3, 5, (6, 4))
        ids = np.concatenate(
            [grid.boundary_ids(FULL_BOUNDARY), grid.interior_ids()]
        )
        assert np.array_equal(np.sort(ids), np.arange(grid.node_count))
        assert set(BOUNDARY_NAMES) == {GAMMA0, GAMMA1, FULL_BOUNDARY}

    def test_gamma_layers(self):
        grid = CylinderGrid(3, 5, (6, 4))
        assert np.array_equal(grid.boundary_ids(GAMMA0), np.arange(24))
        assert grid.boundary_ids(GAMMA1)[0] == 4 * 24

    def test_refine_coarsen_roundtrip(self):
        assert cyl_grid(3, 17).coarsen(2) == cyl_grid(3, 9)

    def test_coarsen_rejects_bad_stride(self):
        with pytest.raises(GridMismatch):
            cyl_grid(3, 9).coarsen(3)

    def test_dimension_guard(self):
        with pytest.raises(DimensionTooSmall):
            CylinderGrid(1, 5, ())


def _scaled(grid, mats):
    """The table through ``scale_metric`` (n >= 3) or ``scale_metric_2d``
    (n = 2) by c = 1, from a stand-in metric that holds it unchecked:
    ``1.0 * x`` is ``x``, so the scaled table is the table."""
    scale = scale_metric_2d if grid.n == 2 else scale_metric
    return scale(SimpleNamespace(grid=grid, mat=mats), ConformalFactor.one(grid, grid.n))


# Every route to a MetricField validates through the one check in its
# constructor; the sample_metric route gets its bad table from a source
# that ignores the points.
BUILDERS = [
    MetricField,
    lambda grid, mats: sample_metric(MetricSource(grid.n, lambda pts: mats), grid),
    _scaled,
]
BUILDER_IDS = ["MetricField", "sample_metric", "scale_metric"]


class TestMetricField:
    def test_flat_identity(self, grid9):
        g = sample_metric(flat_metric(3), grid9)
        assert np.all(g.mat == np.eye(3))
        assert np.all(g.sqrt_det == 1.0)
        assert np.all(g.inv == np.eye(3))

    def test_weight_matrix(self, bumpy9):
        w = bumpy9.weight
        expect = bumpy9.sqrt_det[..., None, None] * bumpy9.inv
        assert np.abs(w - expect).max() < 1e-14

    @pytest.mark.parametrize("build", BUILDERS, ids=BUILDER_IDS)
    def test_symmetry_guard(self, grid9, build):
        mats = np.tile(np.eye(3), grid9.shape + (1, 1))
        mats[..., 0, 1] = 0.1  # not mirrored in [1, 0]
        with pytest.raises(Asymmetric):
            build(grid9, mats)

    @pytest.mark.parametrize("build", BUILDERS, ids=BUILDER_IDS)
    def test_positivity_guard(self, grid9, build):
        mats = np.tile(np.diag([1.0, 1.0, -1.0]), grid9.shape + (1, 1))
        with pytest.raises(NonPositiveDefinite):
            build(grid9, mats)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "bad",
        [
            [[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]],  # eigenvalues -1, 1, 3
            [[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]],  # zero pivot
        ],
        ids=["indefinite_positive_diagonal", "singular"],
    )
    @pytest.mark.parametrize("build", BUILDERS, ids=BUILDER_IDS)
    def test_positivity_payload(self, grid9, build, bad):
        mats = np.tile(np.eye(3), grid9.shape + (1, 1))
        mats[2, 3, 4] = bad
        with pytest.raises(NonPositiveDefinite) as err:
            build(grid9, mats)
        lam_min = np.linalg.eigvalsh(mats)[..., 0]
        node = np.unravel_index(int(np.argmin(lam_min)), grid9.shape)
        assert err.value.node == node == (2, 3, 4)
        assert err.value.eigenvalue == lam_min[node]

    @pytest.mark.parametrize("build", BUILDERS, ids=BUILDER_IDS)
    def test_non_finite_guard(self, grid9, build):
        mats = np.tile(np.eye(3), grid9.shape + (1, 1))
        mats[2, 3, 4, 1, 1] = np.inf
        with pytest.raises(NonPositiveDefinite) as err:
            build(grid9, mats)
        assert err.value.node == (2, 3, 4)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "bad,error",
        [
            ([[1.0, 0.1], [0.0, 1.0]], Asymmetric),
            ([[1.0, 2.0], [2.0, 1.0]], NonPositiveDefinite),  # eigenvalues -1, 3
            ([[1.0, 1.0], [1.0, 1.0]], NonPositiveDefinite),  # zero pivot
            ([[1.0, 0.0], [0.0, np.inf]], NonPositiveDefinite),
        ],
        ids=["asymmetric", "indefinite_positive_diagonal", "singular", "non_finite"],
    )
    @pytest.mark.parametrize("build", BUILDERS, ids=BUILDER_IDS)
    def test_2d_tables_refused(self, build, bad, error):
        # at n = 2 the scaling route is scale_metric_2d
        grid = cyl_grid(2, 9)
        mats = np.tile(np.eye(2), grid.shape + (1, 1))
        mats[2, 3] = bad
        with pytest.raises(error) as err:
            build(grid, mats)
        assert err.value.node == (2, 3)
        if error is NonPositiveDefinite and np.isfinite(mats).all():
            assert err.value.eigenvalue == np.linalg.eigvalsh(mats)[2, 3, 0]

    @pytest.mark.parametrize(
        "entry,check",
        [
            (-1.0, "not positive definite"),
            (1e210, "sqrt(det g) not finite"),
            (np.nan, "entry not finite"),
        ],
        ids=["indefinite", "volume_overflow", "non_finite"],
    )
    def test_refusal_names_the_check(self, grid9, entry, check):
        # the volume element of 1e210 * I is 1e315: a positive eigenvalue
        # read "not positive definite" when sqrt(det g) overflowed
        mats = np.tile(np.eye(3), grid9.shape + (1, 1))
        mats[2, 3, 4] *= entry
        with pytest.raises(NonPositiveDefinite, match=re.escape(check)) as err:
            MetricField(grid9, mats)
        assert err.value.node == (2, 3, 4)
        np.testing.assert_equal(err.value.eigenvalue, entry)  # NaN equals NaN here

    def test_constant_metric_sampling(self, grid9):
        m = np.array([[2.0, 0.3, 0.0], [0.3, 1.5, 0.1], [0.0, 0.1, 1.0]])
        g = sample_metric(constant_metric(m), grid9)
        assert np.abs(g.mat - m).max() == 0.0
        assert abs(g.sqrt_det[0, 0, 0] - np.sqrt(np.linalg.det(m))) < 1e-14

    def test_random_trig_metric_spd(self, grid9):
        for seed in range(5):
            g = sample_metric(random_trig_metric(3, seed=seed), grid9)
            evs = np.linalg.eigvalsh(g.mat)
            assert evs.min() > 0, f"seed {seed}: min eigenvalue {evs.min()}"
            assert np.abs(g.mat - g.mat.swapaxes(-1, -2)).max() == 0.0



def _toy_dataset(grid, scale=0.1):
    t, x, y = np.meshgrid(*grid.axes(), indexing="ij")
    a1 = scale * np.sin(x) * (1 - t)
    a2 = scale * np.cos(y) * t * (1 - t)
    a3 = scale * np.sin(x + y)
    A1 = scale * np.sqrt(np.clip(1.0 - t[:, 0, 0], 0.0, None))
    A3 = scale * (1.0 - t[:, 0, 0]) ** (1.0 / 3.0)
    u = np.sin(x) * (1 - t) ** 2
    return MillerDataset(grid, a1, a2, a3, A1, A3, u)


class TestMillerDataset:
    def test_coefficient_matrix_layout(self, grid5):
        data = _toy_dataset(grid5)
        A = data.coefficient_matrix()
        assert A.shape == grid5.shape + (3, 3)
        assert np.all(A[..., 0, 0] == 1.0)
        assert np.abs(A[..., 1, 2] - A[..., 2, 1]).max() == 0.0
        det_direct = np.linalg.det(A)
        assert np.abs(det_direct - data.block_determinant()).max() < 1e-13

    def test_block_is_the_angular_slots(self, grid5):
        # the one source of the angular block: the coefficient matrix and
        # the determinant read it entry for entry
        data = _toy_dataset(grid5)
        b1, a2, b3 = data.block()
        A = data.coefficient_matrix()
        for slot, entry in (((1, 1), b1), ((1, 2), a2), ((2, 1), a2), ((2, 2), b3)):
            assert np.array_equal(A[(..., *slot)], entry), slot
        assert np.array_equal(data.block_determinant(), b1 * b3 - a2**2)

    def test_shape_guard(self, grid5):
        z = np.zeros(grid5.shape)
        zt = np.zeros(grid5.num_t)
        with pytest.raises(GridMismatch):
            MillerDataset(grid5, z, z, z[:-1], zt, zt, z)
        with pytest.raises(GridMismatch):
            MillerDataset(grid5, z, z, z, zt[:-1], zt, z)

    def test_zero_builder(self, grid5):
        data = MillerDataset.zero(grid5)
        assert np.all(data.coefficient_matrix() == np.eye(3))
        assert data.T == 1.0 and data.alpha == 0.5

    def test_coarsen_restricts_nodes(self):
        grid = cyl_grid(3, 9)
        data = _toy_dataset(grid)
        half = data.coarsen(2)
        assert half.grid.shape == (5, 4, 4)
        assert np.array_equal(half.u, data.u[::2, ::2, ::2])
        assert np.array_equal(half.A1, data.A1[::2])

    def test_weight_identity(self, grid5):
        # sqrt|g| g^{-1} must reproduce the coefficient matrix exactly:
        # that equality is what ties the dataset to a metric at all
        data = _toy_dataset(grid5)
        assert weight_identity_check(data) < 1e-12

    def test_degenerate_determinant_guard(self, grid5):
        data = _toy_dataset(grid5)
        bad = MillerDataset(
            grid5, data.a1, data.a2 + 2.0, data.a3, data.A1, data.A3, data.u
        )
        with pytest.raises(NonPositiveDefinite) as err:
            assemble_counterexample_metric_3d(bad)
        assert bad.block_determinant()[err.value.node] <= 0.0

    @pytest.mark.parametrize("n", [3, 4])
    def test_indefinite_metric_rejected(self, grid5, n):
        # the block determinant (1 - 3)^2 = 4 is positive, but the metric
        # has eigenvalue -2 in both angular directions: the MetricField
        # check refuses it
        z = MillerDataset.zero(grid5)
        bad = MillerDataset(grid5, z.a1 - 3.0, z.a2, z.a3 - 3.0, z.A1, z.A3, z.u)
        with pytest.raises(NonPositiveDefinite):
            if n == 3:
                assemble_counterexample_metric_3d(bad)
            else:
                big = CylinderGrid(n, grid5.num_t, grid5.num_ang + (4,))
                assemble_counterexample_metric_nd(bad, big)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "block",
        [
            [[1.0, 2.0], [2.0, 1.0]],  # eigenvalues -1, 3
            [[1.0, 1.0], [1.0, 1.0]],  # zero determinant
            [[np.inf, 0.0], [0.0, 1.0]],
        ],
        ids=["indefinite_positive_diagonal", "singular", "non_finite"],
    )
    @pytest.mark.parametrize("n", [3, 4])
    def test_bad_angular_block_refused(self, grid9, n, block):
        # a dataset carries a bad entry into its metric through the angular
        # block [[1 + a3, -a2], [-a2, 1 + a1]] of a node; the MetricField
        # check refuses the metric at that node, along any extra axis
        z = MillerDataset.zero(grid9)
        a1, a2, a3 = np.zeros((3,) + grid9.shape)
        (b11, b12), (_, b22) = block
        a3[2, 3, 4], a2[2, 3, 4], a1[2, 3, 4] = b11 - 1.0, -b12, b22 - 1.0
        bad = MillerDataset(grid9, a1, a2, a3, z.A1, z.A3, z.u)
        big = CylinderGrid(n, grid9.num_t, grid9.num_ang + (4,) * (n - 3))
        with pytest.raises(NonPositiveDefinite) as err:
            assemble_counterexample_metric_nd(bad, big)
        assert err.value.node == (2, 3, 4) + (0,) * (n - 3)

    def test_nd_matches_3d(self, grid5):
        data = _toy_dataset(grid5)
        g3 = assemble_counterexample_metric_3d(data)
        gn = assemble_counterexample_metric_nd(data, grid5)
        assert np.abs(g3.mat - gn.mat).max() < 1e-12

    def test_nd_embedding_shape(self, grid5):
        data = _toy_dataset(grid5)
        big = CylinderGrid(4, grid5.num_t, grid5.num_ang + (4,))
        g = assemble_counterexample_metric_nd(data, big)
        assert g.mat.shape == big.shape + (4, 4)
        # fields are constant along the extra angular axis
        assert np.abs(g.mat - g.mat[:, :, :, :1]).max() == 0.0
