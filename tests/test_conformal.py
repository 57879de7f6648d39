"""Conformal rescaling machinery.

Verifies:
  - the pointwise energy identity holds to rounding on random tuples at
    n = 3, 4 and 5
  - the one-parameter factor family and its positivity floor
  - fourth-power (n >= 3) and first-power (n = 2) metric scalings; a
    factor with a NaN, inf or non-positive value is refused
  - the volume law sqrt(det(c^4 g)) = c^{2n} sqrt(det g) at n = 3 and 4
  - at n = 3, c^{n-2} is c, values and closed-form gradient bit for bit
  - the scaling-law potential: +0.0 at every node for a constant factor,
    plain and one-sided at n = 3 and 4, and boundary fill
  - the scaling-law residual vanishes for c = 1 and shrinks under
    refinement otherwise
  - a factor whose scaled volume element overflows is refused by the
    MetricField check, naming the node
  - measured volume-defect coefficients: binomial oracle for constant u,
    quadratic term against direct quadrature, sample-set invariance, and
    a peak of at most 6 MB on the (25, 24, 24) study grid; c^4 squared
    twice in longdouble, within 4 ulps of powl; exactly seven
    distinct samples, fitted by a Vandermonde solve that recovers a known
    longdouble polynomial
  - weak gauge condition residual, whose one row-sum norm per system
    keeps each factor's residual bit for bit, and the full-boundary
    rigidity check
"""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from math import comb

from calderon_lab import analytic as an, conformal
from calderon_lab.calculus import ScalarField, gradient, integrate_volume
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
    spd_root_det,
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

    @pytest.mark.parametrize("off", [0, 1, 2], ids=["c", "u", "w"])
    def test_fields_on_the_metric_grid(self, off):
        # a u or w off g's grid ended in numpy's broadcast ValueError
        g, *args = _random_tuple(cyl_grid(3, 9), 0)
        args[off] = _random_tuple(cyl_grid(3, 13), 0)[1 + off]
        with pytest.raises(GridMismatch, match="metric grids differ"):
            algebraic_identity_check(g, *args)


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

    def test_factor_dimension_is_the_grid_dimension(self, grid9):
        # n = 4 on a 3-D grid was accepted: power_nm2() gave c^2, not c
        src = an.constant(1.0, 3) + an.wave([1.0, 1.0, 0.0]) * an.constant(0.1, 3)
        with pytest.raises(GridMismatch, match="dimension 4 != grid dimension 3"):
            ConformalFactor.from_source(grid9, src, 4)

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


def _trig_factor(grid):
    return ConformalFactor.from_source(
        grid, an.trig_sum(3, np.random.default_rng(0), terms=2, amplitude=0.3, offset=1.4), 3
    )


class TestFactorPower:
    def test_power_nm2_at_n3_is_the_factor(self, grid9):
        c = _trig_factor(grid9)
        p = c.power_nm2()
        assert p.values.tobytes() == c.values.tobytes()
        assert gradient(p).tobytes() == gradient(c.field).tobytes()


class TestConformalPotential:
    def test_constant_factor_exact_zero(self, grid9, bumpy9):
        # every stencil difference of a constant is +0.0, and so is every
        # flux, since W_ii > 0: the potential is +0.0, never -0.0
        cases = [(grid9, bumpy9)]
        for grid in (cyl_grid(3, 7), cyl_grid(4, 7)):
            cases.append((grid, sample_metric(random_trig_metric(grid.n, seed=3), grid)))
        for grid, g in cases:
            c = ConformalFactor.from_source(grid, an.constant(1.7, grid.n), grid.n)
            q = conformal_potential(g, c)
            assert q.shape == (grid.num_t - 2, *grid.num_ang) and q.tobytes() == np.zeros_like(q).tobytes()
            q_filled = conformal_potential(g, c, one_sided=True)
            assert q_filled.shape == grid.shape and q_filled.tobytes() == np.zeros_like(q_filled).tobytes()

    def test_boundary_layers(self, grid9, flat9):
        # the stencil defines the interior t-layers only; the one-sided
        # fill adds both end layers by quadratic extrapolation, so the
        # third t-difference vanishes across each end
        c = ConformalFactor.from_source(
            grid9, an.constant(1.0, 3) + an.wave([1.0, 1.0, 0.0]) * an.constant(0.1, 3), 3
        )
        q = conformal_potential(flat9, c)
        assert q.shape == (7, 8, 8) and np.isfinite(q).all()
        q_filled = conformal_potential(flat9, c, one_sided=True)
        assert q_filled.shape == grid9.shape and np.isfinite(q_filled).all()
        assert np.abs(q_filled[1:-1] - q).max() == 0.0
        for ends in (q_filled[:4], q_filled[::-1][:4]):
            third = ends[0] - 3.0 * ends[1] + 3.0 * ends[2] - ends[3]
            assert np.abs(third).max() <= 1e-14 * np.abs(q).max()

    # the fill extrapolates from three interior layers: at num_t = 3 it
    # raised a bare IndexError, at num_t = 4 it read the other end's NaN
    @pytest.mark.parametrize("num_t", [3, 4])
    def test_one_sided_needs_three_interior_layers(self, num_t):
        grid = CylinderGrid(3, num_t, (8, 8))
        g = sample_metric(random_trig_metric(3, seed=1), grid)
        assert conformal_potential(g, _trig_factor(grid)).shape == (num_t - 2, 8, 8)
        with pytest.raises(GridMismatch, match="need 3 interior t-layers"):
            conformal_potential(g, _trig_factor(grid), one_sided=True)

    def test_one_sided_on_fewest_t_layers(self):
        grid = CylinderGrid(3, 5, (8, 8))
        g = sample_metric(random_trig_metric(3, seed=1), grid)
        q = conformal_potential(g, _trig_factor(grid), one_sided=True)
        assert q.shape == grid.shape and np.isfinite(q).all()


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

    def test_samples_squared_twice_in_longdouble(self, grid9, bumpy9, monkeypatch):
        # c^4 is squared twice: ``** 4`` on longdouble calls powl per node,
        # and the two agree to 4 longdouble ulps on [0.5, 1.5]
        x = np.linspace(0.5, 1.5, 10_001, dtype=np.longdouble)
        fourth = np.power(x, 4)
        assert (np.abs(np.square(np.square(x)) - fourth) <= 4 * np.spacing(fourth)).all()
        # every sample reaches spd_root_det in longdouble as those squares,
        # and powl differs on this field, so neither can come back unseen;
        # spd_root_det factors its argument in place, so the spy keeps a copy
        u = ScalarField.from_source(grid9, an.trig_sum(3, np.random.default_rng(8), terms=3))
        seen = []
        monkeypatch.setattr(conformal, "spd_root_det", lambda a: seen.append(a.copy()) or spd_root_det(a))
        volume_expansion(bumpy9, u, self.EPS)
        uu = u.values.astype(np.longdouble)
        c = [1 + e * uu for e in np.asarray(self.EPS).astype(np.longdouble)]
        assert [a.dtype for a in seen] == [np.longdouble] * 8
        assert all(np.array_equal(a, np.square(np.square(ci)) * bumpy9.packed) for a, ci in zip(seen[1:], c))
        assert any((np.power(ci, 4) * bumpy9.packed != a).any() for a, ci in zip(seen[1:], c))

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
        [r] = weak_condition_residual(sys, [ConformalFactor.one(grid9, 3)])
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
        assert weak_condition_residual(sys, [c])[0] < 1e-11
        assert np.abs(c.values[-1] - 1.0).max() > 1e-3

    def test_shared_norm_keeps_each_residual(self, grid9, bumpy9):
        # one row-sum norm for all factors, each residual with the bytes of
        # its own per-factor computation
        sys = assemble_stiffness(bumpy9)
        K = sys.matrix
        u = ScalarField(grid9, 0.3 * np.sin(grid9.points[..., 1]) * grid9.points[..., 0])
        factors = [conformal_family(u, eps) for eps in (0.0, 0.05, -0.1, 0.2)]
        expected = []
        for c in factors:
            P = c.power_nm2().values.ravel()
            r = np.abs(K @ P)
            norm = max(float(np.abs(K).sum(axis=1).max()) * float(np.abs(P).max()), 1e-300)
            expected.append(max(float(r[grid9.interior_ids()].max()) / norm,
                                float(r[grid9.boundary_ids(GAMMA1)].max()) / norm))
        assert weak_condition_residual(sys, factors) == expected


class TestGlobalRigidity:
    def test_random_metric(self, bumpy9):
        assert global_rigidity_check(bumpy9) < 1e-10
