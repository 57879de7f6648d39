"""Discrete calculus: gradients, volume integrals, divergence-form stencil.

Verifies:
  - closed-form gradients are exact; the bump cut-off's gradients match
    central differences inside its support and are exactly 0 outside it
  - volume quadrature reproduces hand-computed integrals
  - the conservative stencil applied to the flat metric reproduces the
    Laplacian of trigonometric fields at second order
  - divergence output covers the interior t-layers only, the rows of the
    stencil's Jacobian, and assembly refuses a potential with NaN
    boundary layers
  - the sparse Jacobian of the stencil with respect to one angular weight
    slot reproduces the stencil with only that slot set, on prime axis
    lengths and at n = 3 and 4
  - no output reads the end rows of a t-derivative: with those rows NaN,
    the stencil and every angular Jacobian slot keep their bytes at n = 2,
    3 and 4
"""

import numpy as np
import pytest

from calderon_lab import analytic as an, calculus
from calderon_lab.calculus import (
    ScalarField,
    divergence_form_apply,
    divergence_form_jacobian,
    gradient,
    integrate_volume,
    laplace_beltrami_pointwise,
)
from calderon_lab.dn_solver import assemble_stiffness
from calderon_lab.errors import GridMismatch
from calderon_lab.grid_geometry import CylinderGrid, cyl_grid, flat_metric, random_trig_metric, sample_metric
from conftest import constant_metric

# Hand quadrature for the frozen integral below: the flat volume of
# [0,1] x T^2 is (2 pi)^2, and int_0^{2pi} sin^2 = pi, so
# int sin^2(x1) dV = 1 * pi * 2pi = 2 pi^2. Node sums of sin^2 on a
# uniform periodic grid are exact (the aliased cos(2x) sums to zero),
# so the discrete value matches to rounding.
SIN_SQ_INTEGRAL = 2.0 * np.pi**2


class TestScalarField:
    def test_from_source_values(self, grid9):
        f = ScalarField.from_source(grid9, an.wave([0.0, 1.0, 0.0]))
        t, x, y = np.meshgrid(*grid9.axes(), indexing="ij")
        assert np.abs(f.values - np.sin(x)).max() < 1e-15

    def test_constant(self, grid9):
        f = ScalarField.constant(grid9, 3.5)
        assert np.all(f.values == 3.5)

    def test_shape_guard(self, grid9):
        with pytest.raises(GridMismatch):
            ScalarField(grid9, np.zeros((2, 2, 2)))


class TestGradient:
    def test_closed_form_exact(self, grid9):
        f = ScalarField.from_source(grid9, an.wave([1.0, 2.0, 0.0]))
        df = gradient(f)
        t, x, y = np.meshgrid(*grid9.axes(), indexing="ij")
        phase = t + 2 * x
        assert np.abs(df[..., 0] - np.cos(phase)).max() < 1e-14
        assert np.abs(df[..., 1] - 2 * np.cos(phase)).max() < 1e-14
        assert np.abs(df[..., 2]).max() < 1e-14

    # the cut-offs' closed-form gradients, along t and along an angle
    @pytest.mark.parametrize(
        "expr,axis,inside,outside",
        [(an.bump(0.2, 0.8, 3, 0), 0, (0.22, 0.78), [0.0, 0.2, 0.8, 1.0]),
         (an.bump(1.0, 2.5, 3, 2), 2, (1.05, 2.45), [0.5, 1.0, 2.5, 3.0])],
        ids=["bump-t", "bump-angle"],
    )
    def test_cutoff_gradients(self, expr, axis, inside, outside):
        rng = np.random.default_rng(1)
        pts = rng.uniform(0.0, 1.0, (200, 3))
        pts[:, axis] = rng.uniform(*inside, 200)
        grad, h = expr.gradient(pts), 1e-6
        scale = np.abs(grad[:, axis]).max()
        assert scale > 0.1
        for d in range(3):
            step = np.zeros(3)
            step[d] = h
            central = (expr.value(pts + step) - expr.value(pts - step)) / (2.0 * h)
            assert np.abs(grad[:, d] - central).max() < 1e-8 * scale, d
        # identically zero outside the support, the endpoints included
        pts = pts[: len(outside)].copy()
        pts[:, axis] = outside
        assert not expr.value(pts).any() and not expr.gradient(pts).any()


class TestIntegrateVolume:
    def test_constant_volume(self, grid9, flat9):
        vol = integrate_volume(ScalarField.constant(grid9, 1.0), flat9)
        assert abs(vol - (2 * np.pi) ** 2) < 1e-12

    def test_sin_squared_frozen(self, grid9, flat9):
        f = ScalarField.from_source(grid9, an.wave([0.0, 1.0, 0.0]))
        val = integrate_volume(ScalarField(grid9, f.values**2), flat9)
        assert abs(val - SIN_SQ_INTEGRAL) < 1e-12, f"got {val}"

    def test_metric_weighting(self, grid9):
        # doubling the metric scales dVol by 2^{3/2}
        g1 = sample_metric(flat_metric(3), grid9)
        g2 = sample_metric(constant_metric(2.0 * np.eye(3)), grid9)
        f = ScalarField.constant(grid9, 1.0)
        assert abs(
            integrate_volume(f, g2) - 2**1.5 * integrate_volume(f, g1)
        ) < 1e-12


class TestDivergenceForm:
    def test_flat_laplacian_second_order(self):
        errs = []
        for size in (9, 17, 33):
            grid = cyl_grid(3, size)
            g = sample_metric(flat_metric(3), grid)
            f = ScalarField.from_source(grid, an.wave([0.0, 1.0, 1.0]))
            out = divergence_form_apply(g.weight, f.values, grid)
            exact = -2.0 * f.values  # |m|^2 = 2 for the (1,1) angular wave
            errs.append(np.abs(out - exact[1:-1]).max())
        order = np.log(errs[0] / errs[2]) / np.log(4.0)
        assert 1.8 < order < 2.2, f"divergence stencil order {order}"

    def test_interior_layers_only(self, grid9, flat9):
        f = ScalarField.constant(grid9, 1.0)
        out = divergence_form_apply(flat9.weight, f.values, grid9)
        assert out.shape == (grid9.num_t - 2, *grid9.num_ang)
        assert np.abs(out).max() < 1e-12

    def test_constant_in_kernel_bumpy(self, grid9, bumpy9):
        out = divergence_form_apply(bumpy9.weight, np.ones(grid9.shape), grid9)
        assert np.abs(out).max() < 1e-11

    def test_laplace_beltrami_matches_divergence(self, grid9, bumpy9):
        f = ScalarField.from_source(grid9, an.wave([1.0, 1.0, 0.0]))
        lap = laplace_beltrami_pointwise(bumpy9, f.values)
        div = divergence_form_apply(bumpy9.weight, f.values, grid9)
        expect = div / bumpy9.sqrt_det[1:-1]
        assert np.abs(lap - expect).max() < 1e-12

    def test_t_only_rough_coefficient_allowed(self):
        # coefficients in angular flux slots may be rough in t: the stencil
        # never differences the weight along t for those slots
        grid = cyl_grid(3, 9)
        t = grid.axes()[0]
        rough = np.sqrt(np.clip(1.0 - t, 0.0, None))[:, None, None]
        W = np.zeros(grid.shape + (3, 3))
        W[..., 0, 0] = 1.0
        W[..., 1, 1] = 1.0 + 0.3 * rough
        W[..., 2, 2] = 1.0
        f = ScalarField.from_source(grid, an.wave([0.0, 1.0, 0.0]))
        out = divergence_form_apply(W, f.values, grid)
        assert np.isfinite(out).all()

    def test_require_full_layers_guard(self, grid9, flat9):
        # assembly takes a potential on every t-layer: the interior layers
        # conformal_potential returns without its one-sided fill are
        # refused by their shape, with a pointer to the fill
        q = np.zeros((grid9.num_t - 2, *grid9.num_ang))
        with pytest.raises(GridMismatch, match="t-end layers with one_sided"):
            assemble_stiffness(flat9, potential=q)


class TestDivergenceFormJacobian:
    @pytest.mark.parametrize(
        "n,num_t,num_ang",
        [(3, 6, (7, 5)), (3, 5, (9, 8)), (4, 5, (7, 5, 4))],
        ids=["n3-prime", "n3-composite", "n4-prime"],
    )
    def test_matches_stencil_per_slot(self, n, num_t, num_ang):
        grid = CylinderGrid(n, num_t, num_ang)
        rng = np.random.default_rng(5)
        f = rng.normal(size=grid.shape)
        for i in range(1, n):
            for j in range(n):
                w = rng.normal(size=grid.shape)
                W = np.zeros(grid.shape + (n, n))
                W[..., i, j] = w
                direct = divergence_form_apply(W, f, grid).ravel()
                J = divergence_form_jacobian(f, grid, i, j)
                err = np.abs(J @ w.ravel() - direct).max()
                assert err < 1e-13, f"slot ({i}, {j}): {err:.2e}"

    @pytest.mark.parametrize("n,size", [(2, 9), (3, 9), (4, 7)])
    def test_t_end_rows_never_read(self, monkeypatch, n, size):
        # a t-derivative enters only angular fluxes, whose end t-layers the
        # stencil and the Jacobian drop: NaN end rows change no byte
        grid = cyl_grid(n, size)
        W = sample_metric(random_trig_metric(n, seed=n), grid).weight
        f = np.random.default_rng(n).normal(size=grid.shape)

        def outputs():
            jacobians = [divergence_form_jacobian(f, grid, i, j) for i in range(1, n) for j in range(n)]
            return [divergence_form_apply(W, f, grid).tobytes()] + [
                (J.shape, J.data.tobytes(), J.indices.tobytes(), J.indptr.tobytes()) for J in jacobians
            ]

        plain = outputs()
        centered_diff = calculus._centered_diff

        def nan_ends(values, grid, axis):
            out = centered_diff(values, grid, axis)
            if axis == 0:
                out[[0, -1]] = np.nan
            return out

        monkeypatch.setattr(calculus, "_centered_diff", nan_ends)
        assert outputs() == plain

    def test_t_direction_rejected(self, grid9):
        with pytest.raises(GridMismatch, match="not an angular flux slot"):
            divergence_form_jacobian(np.ones(grid9.shape), grid9, 0, 1)
