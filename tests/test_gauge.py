"""Collar-fixing diffeomorphisms and metric pullbacks.

Verifies:
  - construction guards: endpoints, orientation, collar identity, the
    shape of the shear columns
  - hand-checked Jacobian and pullback of the flat metric under a shear
  - composition: applied maps chain exactly, pullback is functorial
  - the DN map is blind to collar-fixing diffeos up to discretisation
"""

import numpy as np
import pytest

from calderon_lab.errors import NonOrientationPreserving
from calderon_lab.gauge import (
    CylinderDiffeo,
    bump_reparam,
    bump_shear,
    cubic_reparam,
    diffeo_invariance_gap,
    identity_diffeo,
    pullback_metric,
)
from calderon_lab.grid_geometry import (
    cyl_grid,
    flat_metric,
    random_trig_metric,
    sample_metric,
)


def _no_shear(t, n=3):
    """theta and theta' of a map without shear."""
    z = np.zeros(np.shape(t) + (n - 1,))
    return z, z.copy()


class TestConstruction:
    def test_identity(self):
        phi = identity_diffeo(3)
        pts = np.random.default_rng(0).uniform(0, 1, (20, 3))
        assert np.array_equal(phi.apply(pts), pts)
        J = phi.jacobian(pts[:, 0])
        assert np.abs(J - np.eye(3)).max() == 0.0

    def test_bump_reparam_fixes_collars(self):
        phi = bump_reparam(3, 0.1, delta=0.1)
        t = np.linspace(0, 1, 101)
        s, ds, _, _ = phi.parts(t)
        collar = (t <= 0.1) | (t >= 0.9)
        assert np.abs(s[collar] - t[collar]).max() < 1e-14
        assert ds.min() > 0.0
        # actually moves points in the middle
        assert np.abs(s - t).max() > 1e-3

    def test_cubic_reparam_moves_interior(self):
        phi = cubic_reparam(3, 0.1)
        t = np.linspace(0, 1, 101)
        s = phi.parts(t)[0]
        assert abs(s[0]) == 0.0 and abs(s[-1] - 1.0) < 1e-15
        assert np.abs(s - t).max() > 1e-3

    def test_folding_rejected(self):
        # large amplitude makes s' change sign
        with pytest.raises(NonOrientationPreserving):
            bump_reparam(3, 5.0)

    def test_shear_must_vanish_on_collar(self):
        def bad_shear(t):
            t = np.asarray(t, dtype=float)
            theta, dtheta = _no_shear(t)
            theta[..., 0] = 1.0
            return t.copy(), np.ones_like(t), theta, dtheta

        with pytest.raises(NonOrientationPreserving):
            CylinderDiffeo(3, bad_shear)

    def test_endpoint_guard(self):
        def shifted(t):
            t = np.asarray(t, dtype=float)
            return (t + 0.01, np.ones_like(t), *_no_shear(t))

        with pytest.raises(NonOrientationPreserving):
            CylinderDiffeo(3, shifted)

    def test_shear_slot_count(self):
        def one_slot(t):
            t = np.asarray(t, dtype=float)
            return (t.copy(), np.ones_like(t), *_no_shear(t, n=2))

        with pytest.raises(NonOrientationPreserving):
            CylinderDiffeo(3, one_slot)


class TestJacobianAndPullback:
    def test_jacobian_layout(self):
        phi = bump_reparam(3, 0.1).compose(bump_shear(3, 1, 0.2))
        t = np.linspace(0.2, 0.8, 7)
        J = phi.jacobian(t)
        _, ds, _, _ = phi.parts(t)
        assert np.abs(J[:, 0, 0] - ds).max() < 1e-14
        assert np.abs(J[:, 1, 1] - 1.0).max() == 0.0
        assert np.abs(J[:, 2, 2] - 1.0).max() == 0.0
        # shear derivative sits in the (angular, t) slot
        assert np.abs(J[:, 1, 0]).max() > 1e-3
        assert np.abs(J[:, 0, 1]).max() == 0.0

    def test_flat_pullback_hand_formula(self):
        # n = 2, g = I: phi*g = J^T J = [[s'^2 + th'^2, th'], [th', 1]]
        phi = bump_reparam(2, 0.1).compose(bump_shear(2, 1, 0.2))
        gp = pullback_metric(flat_metric(2), phi)
        grid = cyl_grid(2, 17)
        mats = sample_metric(gp, grid).mat
        t = grid.points[..., 0]
        _, ds, _, dtheta = phi.parts(t)
        dth = dtheta[..., 0]
        assert np.abs(mats[..., 0, 0] - (ds**2 + dth**2)).max() < 1e-13
        assert np.abs(mats[..., 0, 1] - dth).max() < 1e-13
        assert np.abs(mats[..., 1, 1] - 1.0).max() < 1e-13

    def test_pullback_evaluates_at_mapped_point(self):
        g = random_trig_metric(3, seed=11)
        phi = bump_reparam(3, 0.15)
        pts = np.random.default_rng(1).uniform(0.2, 0.8, (50, 3))
        gp = pullback_metric(g, phi)
        J = phi.jacobian(pts[:, 0])
        direct = np.einsum("...ai,...ab,...bj->...ij", J, g(phi.apply(pts)), J)
        assert np.abs(gp(pts) - direct).max() < 1e-14


class TestComposition:
    def test_apply_chains_exactly(self):
        phi = bump_reparam(3, 0.1)
        psi = bump_shear(3, 1, 0.2)
        chained = psi.compose(phi)
        pts = np.random.default_rng(3).uniform(0, 1, (40, 3))
        assert np.abs(chained.apply(pts) - psi.apply(phi.apply(pts))).max() < 1e-15

    def test_jacobian_chain_rule(self):
        phi = bump_reparam(3, 0.1)
        psi = bump_reparam(3, 0.08).compose(bump_shear(3, 1, 0.15))
        chained = psi.compose(phi)
        t = np.linspace(0.0, 1.0, 33)
        s = phi.parts(t)[0]
        J_expect = np.einsum("...ij,...jk->...ik", psi.jacobian(s), phi.jacobian(t))
        assert np.abs(chained.jacobian(t) - J_expect).max() < 1e-14

    def test_pullback_functorial(self):
        # phi^*(psi^* g) = (psi o phi)^* g
        g = random_trig_metric(3, seed=5)
        phi = bump_reparam(3, 0.1)
        psi = bump_shear(3, 1, 0.2)
        grid = cyl_grid(3, 9)
        twice = sample_metric(pullback_metric(pullback_metric(g, psi), phi), grid)
        once = sample_metric(pullback_metric(g, psi.compose(phi)), grid)
        assert np.abs(twice.mat - once.mat).max() < 1e-12


class TestInvarianceGap:
    def test_identity_gap_zero(self):
        g = random_trig_metric(3, seed=5, max_mode=1)
        gaps = diffeo_invariance_gap(g, identity_diffeo(3), "gamma1", (9,))
        assert gaps[0] == 0.0

    def test_gap_shrinks_under_refinement(self):
        g = random_trig_metric(3, seed=0, max_mode=1)
        phi = bump_reparam(3, 0.08).compose(bump_shear(3, 1, 0.16))
        gaps = diffeo_invariance_gap(g, phi, "gamma1", (9, 17))
        assert gaps[1] < gaps[0] / 2.5, f"gaps {gaps}"
