"""Conformal rescaling machinery.

Verifies:
  - the pointwise energy identity holds to rounding on random tuples at
    n = 3, 4 and 5
  - the one-parameter factor family and its positivity floor
  - fourth-power (n >= 3) and first-power (n = 2) metric scalings; a
    factor with a NaN, inf or non-positive value is refused
  - the volume law sqrt(det(c^4 g)) = c^{2n} sqrt(det g) at n = 3 and 4
  - the scaling-law potential: exact-zero shortcut and boundary fill
  - the scaling-law residual vanishes for c = 1 and shrinks under
    refinement otherwise
  - a factor whose scaled volume element overflows is refused by the
    MetricField check, naming the node
  - measured volume-defect coefficients: binomial oracle for constant u,
    quadratic term against direct quadrature, sample-set invariance, and
    a peak of at most 6 MB on the (25, 24, 24) study grid; exactly seven
    distinct samples, fitted by a Vandermonde solve that recovers a known
    longdouble polynomial
  - weak gauge condition residual and the full-boundary rigidity check
"""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from math import comb

from calderon_lab import analytic as an, conformal
from calderon_lab.calculus import ScalarField, integrate_volume, interior
from calderon_lab.conformal import (
    ConformalFactor,
    algebraic_identity_check,
    conformal_family,
    conformal_potential,
    global_rigidity_check,
    scale_metric,
    scale_metric_2d,
    scaling_law_residual,
    volume_expansion,
    weak_condition_residual,
)
from calderon_lab.dn_solver import assemble_stiffness
from calderon_lab.errors import (
    DimensionTooSmall,
    FactorTooLarge,
    GridMismatch,
    InsufficientSamples,
    MissingAnalyticGradient,
    NonPositiveDefinite,
    NonPositiveFactor,
)
from calderon_lab.grid_geometry import (
    GAMMA0,
    GAMMA1,
    CylinderGrid,
    cyl_grid,
    flat_metric,
    random_trig_metric,
    sample_metric,
)


def _random_tuple(grid, seed):
    n = grid.n
    rng = np.random.default_rng(seed)
    g = sample_metric(random_trig_metric(n, seed=seed), grid)
    c = ConformalFactor.from_source(
        grid, an.constant(1.0, n) + an.trig_sum(n, rng, terms=2, amplitude=0.1), n
    )
    u = ScalarField.from_source(grid, an.trig_sum(n, rng, terms=2, amplitude=1.0))
    w = ScalarField.from_source(grid, an.trig_sum(n, rng, terms=2, amplitude=1.0))
    return g, c, u, w


class TestAlgebraicIdentity:
    # from n = 4 the factor enters as c^{n-2}, a power other than the first
    @pytest.mark.parametrize("n,size", [(3, 9), (4, 7), (5, 5)], ids=["n3", "n4", "n5"])
    def test_random_tuples(self, n, size):
        grid = cyl_grid(n, size)
        worst = 0.0
        for seed in range(5):
            g, c, u, w = _random_tuple(grid, seed)
            worst = max(worst, algebraic_identity_check(g, c, u, w))
        assert worst < 1e-12, f"identity defect {worst:.2e}"

    def test_needs_closed_form(self, grid9, flat9):
        g, c, u, w = _random_tuple(grid9, 0)
        nodal = ScalarField(grid9, u.values)  # no source attached
        with pytest.raises(MissingAnalyticGradient):
            algebraic_identity_check(g, c, nodal, w)


class TestConformalFamily:
    def test_eps_zero_is_one(self, grid9):
        u = ScalarField.from_source(grid9, an.trig_sum(3, np.random.default_rng(0), terms=2))
        c = conformal_family(u, 0.0)
        assert np.all(c.values == 1.0)

    def test_linear_in_three_dimensions(self, grid9):
        u = ScalarField.constant(grid9, 0.25)
        c = conformal_family(u, 0.5)
        assert np.abs(c.values - 1.125).max() < 1e-15

    def test_floor_guard_n3(self, grid9):
        u = ScalarField.constant(grid9, -1.0)
        with pytest.raises(FactorTooLarge):
            conformal_family(u, 0.6)  # 1 - 0.6 = 0.4 < 1/2


class TestScaleMetric:
    def test_fourth_power_values(self, grid9, bumpy9):
        c = ConformalFactor.from_source(
            grid9, an.constant(1.0, 3) + an.wave([0.0, 1.0, 0.0]) * an.constant(0.2, 3), 3
        )
        out = scale_metric(bumpy9, c)
        expect = (c.values**4)[..., None, None] * bumpy9.mat
        assert np.abs(out.mat - expect).max() == 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0])
    def test_factor_must_be_finite_and_positive(self, grid9, bad):
        vals = np.ones(grid9.shape)
        vals[4, 2, 1] = bad
        with pytest.raises(NonPositiveFactor):
            ConformalFactor(ScalarField(grid9, vals), 3)

    def test_overflowing_factor_refused(self, grid9, flat9):
        # c^6 overflows: both sides of the volume check were inf, the NaN
        # defect passed it and the failure surfaced later, in assembly
        with pytest.raises(NonPositiveDefinite) as err:
            scale_metric(flat9, ConformalFactor(ScalarField.constant(grid9, 1e60), 3))
        assert err.value.node == (0, 0, 0)

    @pytest.mark.parametrize("n", [3, 4])
    def test_volume_law(self, n):
        # the discrete form of how volume responds to the scaling, a second
        # route to the scaled volume element
        grid = cyl_grid(n, 9)
        g = sample_metric(random_trig_metric(n, seed=n), grid)
        rng = np.random.default_rng(n)
        c = ConformalFactor.from_source(
            grid, an.constant(1.0, n) + an.trig_sum(n, rng, terms=2, amplitude=0.3, max_mode=1), n
        )
        expect = c.values ** (2 * n) * g.sqrt_det
        rel = np.abs(scale_metric(g, c).sqrt_det - expect) / expect
        assert rel.max() <= 1e-12, f"{rel.max():.2e}"

    def test_rejects_2d(self):
        grid = cyl_grid(2, 9)
        g = sample_metric(flat_metric(2), grid)
        with pytest.raises(DimensionTooSmall):
            scale_metric(g, ConformalFactor.one(grid, 2))

    def test_first_power_2d(self):
        grid = cyl_grid(2, 9)
        g = sample_metric(random_trig_metric(2, seed=4), grid)
        c = ConformalFactor.from_source(
            grid, an.constant(1.0, 2) + an.wave([0.0, 1.0]) * an.constant(0.3, 2), 2
        )
        out = scale_metric_2d(g, c)
        assert np.abs(out.mat - c.values[..., None, None] * g.mat).max() == 0.0

    def test_first_power_rejects_3d(self, grid9, flat9):
        with pytest.raises(GridMismatch):
            scale_metric_2d(flat9, ConformalFactor.one(grid9, 3))


class TestConformalPotential:
    def test_constant_factor_exact_zero(self, grid9, bumpy9):
        c = ConformalFactor.from_source(grid9, an.constant(1.7, 3), 3)
        q = conformal_potential(bumpy9, c)
        assert np.all(q == 0.0)

    def test_boundary_layers(self, grid9, flat9):
        c = ConformalFactor.from_source(
            grid9, an.constant(1.0, 3) + an.wave([1.0, 1.0, 0.0]) * an.constant(0.1, 3), 3
        )
        q = conformal_potential(flat9, c)
        assert np.all(np.isnan(q[0])) and np.all(np.isnan(q[-1]))
        assert np.isfinite(interior(q)).all()
        q_filled = conformal_potential(flat9, c, one_sided=True)
        assert np.isfinite(q_filled).all()
        assert np.abs(interior(q_filled) - interior(q)).max() == 0.0


class TestScalingLaw:
    def test_identity_factor_exact(self, grid9, bumpy9):
        f = ScalarField.from_source(grid9, an.wave([1.0, 1.0, 0.0]))
        c = ConformalFactor.one(grid9, 3)
        assert scaling_law_residual(bumpy9, c, f) == 0.0

    def test_residual_shrinks(self):
        res = []
        for size in (9, 17):
            grid = cyl_grid(3, size)
            rng = np.random.default_rng(3)
            g = sample_metric(random_trig_metric(3, seed=3, max_mode=1), grid)
            c = ConformalFactor.from_source(
                grid, an.constant(1.0, 3) + an.trig_sum(3, rng, terms=2, amplitude=0.05, max_mode=1), 3
            )
            f = ScalarField.from_source(
                grid, an.trig_sum(3, rng, terms=2, amplitude=0.5, max_mode=1, offset=0.3)
            )
            res.append(scaling_law_residual(g, c, f))
        assert res[1] < res[0] / 2.5, f"no decrease: {res}"


class TestVolumeExpansion:
    # spread symmetric samples; extracting the degree-6 coefficient
    # amplifies rounding by scale^{-6}, so keep the scale at 0.05
    EPS = tuple(0.05 * np.array([1.0, -1.0, 0.5, -0.5, 0.75, -0.75, 0.25]))
    EPS_ALT = tuple(0.04 * np.array([1.0, -0.6, 0.8, -1.0, 0.3, -0.85, 0.55]))

    def test_constant_u_binomial_oracle(self, grid9, bumpy9):
        # c = 1 + eps u0, so sqrt det scales by (1 + eps u0)^6 and
        # V(eps) = Vol * sum_k C(6,k) (u0 eps)^k with no fit involved
        u0 = 0.3
        u = ScalarField.constant(grid9, u0)
        vol = integrate_volume(ScalarField.constant(grid9, 1.0), bumpy9)
        p = volume_expansion(bumpy9, u, self.EPS)
        expect = np.array([0.0] + [comb(6, k) * u0**k * vol for k in range(1, 7)])
        rel = np.abs(p - expect).max() / np.abs(expect).max()
        assert rel < 1e-9, f"binomial oracle violated: {rel:.2e}"

    def test_quadratic_term_quadrature(self, grid9, bumpy9):
        u = ScalarField.from_source(grid9, an.trig_sum(3, np.random.default_rng(8), terms=3))
        p = volume_expansion(bumpy9, u, self.EPS)
        direct = 15.0 * integrate_volume(ScalarField(grid9, u.values**2), bumpy9)
        assert abs(p[2] - direct) / abs(direct) < 1e-10

    def test_sample_set_invariance(self, grid9, bumpy9):
        # the degree-6 slot carries the worst conditioning; for an O(1)
        # field on this grid the drift sits just below 1e-10 of the
        # largest coefficient, so gate at 5e-10
        u = ScalarField.from_source(grid9, an.trig_sum(3, np.random.default_rng(9), terms=3))
        p1 = volume_expansion(bumpy9, u, self.EPS)
        p2 = volume_expansion(bumpy9, u, self.EPS_ALT)
        scale = np.abs(p1).max()
        assert np.abs(p1 - p2).max() / scale < 5e-10, f"{np.abs(p1 - p2).max() / scale:.2e}"

    def test_peak_memory_on_study_grid(self):
        # only sqrt(det) is formed, from the Cholesky diagonal: 10.7 MB when
        # the kernel also formed the weight, on the study's grid
        grid = CylinderGrid(3, 25, (24, 24))
        g = sample_metric(random_trig_metric(3, seed=4), grid)
        u = ScalarField.from_source(grid, an.trig_sum(3, np.random.default_rng(4), terms=3))
        volume_expansion(g, u, self.EPS)
        tracemalloc.start()
        try:
            volume_expansion(g, u, self.EPS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6e6, f"peak {peak / 1e6:.2f} MB"

    def test_needs_seven_distinct(self, grid9, bumpy9):
        u = ScalarField.constant(grid9, 0.1)
        with pytest.raises(InsufficientSamples):
            volume_expansion(bumpy9, u, (0.01, 0.01, 0.02, 0.03, 0.04, 0.05, 0.06))

    @pytest.mark.parametrize("count", [6, 8])
    def test_needs_exactly_seven(self, grid9, bumpy9, count):
        # eight samples used to be cut to their first seven distinct ones
        u = ScalarField.constant(grid9, 0.1)
        with pytest.raises(InsufficientSamples):
            volume_expansion(bumpy9, u, 0.01 * np.arange(1, count + 1))

    def test_vandermonde_solve_recovers_polynomial(self):
        # a known degree-6 polynomial in longdouble, sampled on the
        # nonisometry pattern, comes back to extended-precision rounding
        x = np.array([1.0, -1.0, 0.5, -0.5, 0.75, -0.75, 0.25], dtype=np.longdouble)
        coef = np.random.default_rng(3).uniform(-1.0, 1.0, 7).astype(np.longdouble)
        f = sum(a * x**k for k, a in enumerate(coef))
        got = conformal._bjorck_pereyra(x, f)
        assert got.dtype == np.longdouble
        assert np.abs(got - coef).max() <= 1e-17


class TestWeakCondition:
    def test_identity_factor(self, grid9, bumpy9):
        sys = assemble_stiffness(bumpy9)
        r = weak_condition_residual(sys, ConformalFactor.one(grid9, 3))
        assert r < 1e-13

    def test_manufactured_factor(self, grid9, bumpy9):
        # a field solved with natural rows at gamma1 satisfies exactly the
        # rows the residual tests, though it is not 1 on gamma1
        sys = assemble_stiffness(bumpy9)
        K = sys.matrix
        x = grid9.axes()[1]
        layer = 1.0 + 0.3 * np.sin(x)[:, None] * np.ones(grid9.num_ang)
        D = grid9.boundary_ids(GAMMA0)
        free = np.setdiff1d(np.arange(grid9.node_count), D)
        w = np.empty(grid9.node_count)
        w[D] = layer.ravel()
        w[free] = spla.splu(K[free][:, free].tocsc()).solve(-K[free][:, D] @ w[D])
        assert w.min() > 0.5
        c = ConformalFactor(ScalarField(grid9, w.reshape(grid9.shape)), 3)
        assert weak_condition_residual(sys, c, GAMMA1) < 1e-11
        assert np.abs(c.values[-1] - 1.0).max() > 1e-3


class TestGlobalRigidity:
    def test_random_metric(self, bumpy9):
        assert global_rigidity_check(bumpy9) < 1e-10
