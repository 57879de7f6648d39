"""Conformal rescaling machinery.

Verifies:
  - the pointwise energy identity holds to rounding on random tuples
  - the one-parameter factor family and its positivity floors
  - fourth-power (n >= 3) and first-power (n = 2) metric scalings; a
    factor with a NaN, inf or non-positive value is refused
  - the scaling-law potential: exact-zero shortcut and boundary fill
  - the scaling-law residual vanishes for c = 1 and shrinks under
    refinement otherwise
  - measured volume-defect coefficients: binomial oracle for constant u,
    quadratic term against direct quadrature, sample-set invariance
  - weak gauge condition residual and the full-boundary rigidity check
"""

import numpy as np
import pytest
from math import comb

from calderon_lab import analytic as an
from calderon_lab.calculus import ScalarField, integrate_volume, interior
from calderon_lab.conformal import (
    ConformalFactor,
    algebraic_identity_check,
    conformal_family,
    conformal_potential,
    global_rigidity_check,
    harmonic_with_natural_bc,
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
    NonPositiveFactor,
)
from calderon_lab.grid_geometry import (
    FULL_BOUNDARY,
    GAMMA0,
    GAMMA1,
    cyl_grid,
    flat_metric,
    random_trig_metric,
    sample_metric,
)


def _random_tuple(grid, seed):
    rng = np.random.default_rng(seed)
    g = sample_metric(random_trig_metric(3, seed=seed), grid)
    c = ConformalFactor.from_source(
        grid, an.constant(1.0, 3) + an.trig_sum(3, rng, terms=2, amplitude=0.1), 3
    )
    u = ScalarField.from_source(grid, an.trig_sum(3, rng, terms=2, amplitude=1.0))
    w = ScalarField.from_source(grid, an.trig_sum(3, rng, terms=2, amplitude=1.0))
    return g, c, u, w


class TestAlgebraicIdentity:
    def test_random_tuples(self, grid9):
        worst = 0.0
        for seed in range(5):
            g, c, u, w = _random_tuple(grid9, seed)
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
        c = conformal_family(u, 0.0, 3)
        assert np.all(c.values == 1.0)

    def test_linear_in_three_dimensions(self, grid9):
        u = ScalarField.constant(grid9, 0.25)
        c = conformal_family(u, 0.5, 3)
        assert np.abs(c.values - 1.125).max() < 1e-15

    def test_floor_guard_n3(self, grid9):
        u = ScalarField.constant(grid9, -1.0)
        with pytest.raises(FactorTooLarge):
            conformal_family(u, 0.6, 3)  # 1 - 0.6 = 0.4 < 1/2

    def test_positivity_guard_high_dim(self, grid9):
        u = ScalarField.constant(grid9, -1.0)
        c = conformal_family(u, 0.6, 5)  # allowed: 0.4 > 0
        assert np.abs(c.values - 0.4 ** (1.0 / 3.0)).max() < 1e-14
        with pytest.raises(FactorTooLarge):
            conformal_family(u, 1.0, 5)

    def test_dimension_guard(self, grid9):
        with pytest.raises(DimensionTooSmall):
            conformal_family(ScalarField.constant(grid9, 0.0), 0.1, 2)


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

    def test_needs_seven_distinct(self, grid9, bumpy9):
        u = ScalarField.constant(grid9, 0.1)
        with pytest.raises(InsufficientSamples):
            volume_expansion(bumpy9, u, (0.01, 0.01, 0.02, 0.03, 0.04, 0.05, 0.06))


class TestWeakCondition:
    def test_identity_factor(self, grid9, bumpy9):
        sys = assemble_stiffness(bumpy9)
        r = weak_condition_residual(sys, ConformalFactor.one(grid9, 3))
        assert r.residual < 1e-13 and r.boundary_defect == 0.0

    def test_manufactured_factor(self, grid9, bumpy9):
        # a field solved with natural rows at gamma1 satisfies exactly the
        # rows the residual tests; only the boundary normalisation fails
        sys = assemble_stiffness(bumpy9)
        x = grid9.axes()[1]
        layer = 1.0 + 0.3 * np.sin(x)[:, None] * np.ones(grid9.num_ang)
        w = harmonic_with_natural_bc(sys, layer, GAMMA0)
        assert w.values.min() > 0.5
        c = ConformalFactor(w, 3)
        r = weak_condition_residual(sys, c, GAMMA1)
        assert r.interior_residual < 1e-11
        assert r.gamma_residual < 1e-11
        assert r.boundary_defect > 1e-3

    def test_natural_end_needs_one_layer(self, grid5):
        sys = assemble_stiffness(sample_metric(flat_metric(3), grid5))
        with pytest.raises(GridMismatch):
            harmonic_with_natural_bc(sys, np.ones(grid5.num_ang), FULL_BOUNDARY)

    @pytest.mark.parametrize(
        "gamma, defect", [(GAMMA0, 0.0), (GAMMA1, 0.1), (FULL_BOUNDARY, 0.1)]
    )
    def test_boundary_defect_per_component(self, grid9, bumpy9, gamma, defect):
        t = grid9.points[..., 0]
        c = ConformalFactor(ScalarField(grid9, 1.0 + 0.1 * t), 3)
        r = weak_condition_residual(assemble_stiffness(bumpy9), c, gamma)
        assert r.boundary_defect == pytest.approx(defect, abs=1e-15)


class TestGlobalRigidity:
    def test_random_metric(self, bumpy9):
        assert global_rigidity_check(bumpy9) < 1e-10
