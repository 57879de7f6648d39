"""Argument guards: each refuses its bad argument with its typed error.

Verifies, one row per guard, that the guard raises its error type with
its message on the argument it exists to refuse: malformed grids, an
unknown boundary name, a boundary mass off one layer, mode eigenvalues
asked of no modes, of a mode with too few or too many components, a
fractional one or one that aliases, a synthesis mode with too few or too
many components, a fractional one or a 401-digit one, mode matrices of different shapes,
a synthesis mode of 4,000 digits or 5,000 components quoted cut short,
a 5,000-digit mode past the interpreter's int-to-string limit quoted by
its bit length,
a mode cut that is not finite, a metric table or
source of the wrong shape or dimension, fields, factors, systems,
datasets and diffeomorphisms whose grids or dimensions differ, a collar
that leaves a profile no room, a reparametrisation that moves the
collars, a bump with no support or one too narrow for its normaliser,
a NaN slope or collar value of a diffeomorphism, a collar width outside
[0, 1/2), and expressions of two dimensions combined.
"""

import re

import numpy as np
import pytest

from calderon_lab import analytic as an
from calderon_lab.calculus import ScalarField, divergence_form_apply, integrate_volume
from calderon_lab.conformal import (
    ConformalFactor,
    scale_metric,
    scale_metric_2d,
    scaling_law_residual,
    volume_expansion,
    weak_condition_residual,
)
from calderon_lab.counterexample import synth_approx_miller
from calderon_lab.dn_solver import (
    assemble_stiffness,
    check_modes,
    dn_mode_eigenvalues,
    fourier_modes,
    mode_gap,
)
from calderon_lab.errors import (
    DimensionTooSmall,
    GridMismatch,
    InfeasibleBounds,
    NonOrientationPreserving,
    ShapeMismatch,
)
from calderon_lab.gauge import CylinderDiffeo, cubic_reparam, identity_diffeo, pullback_metric
from calderon_lab.grid_geometry import (
    FULL_BOUNDARY,
    GAMMA1,
    CylinderGrid,
    MetricField,
    MillerDataset,
    assemble_counterexample_metric_nd,
    cyl_grid,
    flat_metric,
    sample_metric,
)


# a 3-D grid, a finer 3-D grid and a 2-D grid
_G3, _G3_FINE, _G2 = cyl_grid(3, 5), cyl_grid(3, 9), cyl_grid(2, 5)


def _flat(grid):
    return sample_metric(flat_metric(grid.n), grid)


def _mode_eigenvalues(modes):
    return dn_mode_eigenvalues(assemble_stiffness(_flat(_G3_FINE)), GAMMA1, modes)


def _synth_modes(modes):
    return synth_approx_miller(CylinderGrid(3, 9, (8, 8)), modes=modes)


def _one(grid):
    return ScalarField.constant(grid, 1.0)


def _off_collar_parts(t):
    """s(t) = t + 0.01 sin(pi t): it fixes 0 and 1 and does not fold, but
    it moves the collars."""
    t = np.asarray(t, dtype=float)
    zeros = np.zeros(t.shape + (1,))
    return t + 0.01 * np.sin(np.pi * t), 1.0 + 0.01 * np.pi * np.cos(np.pi * t), zeros, zeros


def _nan_parts(slope: bool):
    """The identity with a NaN in s' at t = 1/2 (``slope``) or in s at
    t = 0.05, on the collar: each comparison with NaN is false, so a check
    must be written to fail on it."""

    def parts(t):
        t = np.asarray(t, dtype=float)
        s, ds, zeros = t.copy(), np.ones_like(t), np.zeros(t.shape + (1,))
        (ds if slope else s)[np.isclose(t, 0.5 if slope else 0.05, atol=1e-4)] = np.nan
        return s, ds, zeros, zeros

    return parts


_EPS = (-1.0, -0.75, -0.5, 0.25, 0.5, 0.75, 1.0)

_GUARDS = {
    "grid-angular-count": (lambda: CylinderGrid(3, 5, (4,)), GridMismatch, "expected 2 angular sizes"),
    "grid-angular-below-4": (lambda: CylinderGrid(3, 5, (4, 3)), GridMismatch, "at least 4 nodes per angular"),
    "grid-t-below-3": (lambda: CylinderGrid(3, 2, (4, 4)), GridMismatch, "at least 3 t-nodes"),
    "boundary-name": (lambda: _G3.boundary_ids("edge"), ShapeMismatch, "unknown boundary component"),
    "mode-eigenvalues-full-boundary": (
        lambda: dn_mode_eigenvalues(assemble_stiffness(_flat(_G3_FINE)), FULL_BOUNDARY, [(1, 0)]),
        ShapeMismatch, "expected 128 rows on full"),
    "mode-eigenvalues-short-mode": (lambda: _mode_eigenvalues([(1,)]), ShapeMismatch,
                                    "mode (1,) has 1 components, expected 2"),
    "mode-eigenvalues-long-mode": (lambda: _mode_eigenvalues([(1, 0), (1, 0, 5)]), ShapeMismatch,
                                   "mode (1, 0, 5) has 3 components"),
    "mode-eigenvalues-aliasing": (lambda: _mode_eigenvalues([(9, 0)]), ShapeMismatch,
                                  "mode (9, 0) aliases on angular axis with 8 nodes"),
    "mode-eigenvalues-no-modes": (lambda: _mode_eigenvalues([]), ShapeMismatch, "no modes given"),
    "mode-eigenvalues-fractional": (lambda: _mode_eigenvalues([(1.5, 0)]), ShapeMismatch,
                                    "mode (1.5, 0) has a component 1.5 that is not a finite integer"),
    "synth-short-mode": (lambda: _synth_modes(((1,),)), ShapeMismatch, "mode (1,) has 1 components, expected 2"),
    "synth-long-mode": (lambda: _synth_modes(((1, 2, 3),)), ShapeMismatch, "mode (1, 2, 3) has 3 components"),
    "synth-fractional-mode": (lambda: _synth_modes(((1.5, 0),)), ShapeMismatch,
                              "mode (1.5, 0) has a component 1.5 that is not a finite integer"),
    # a 401-digit integer is past float range: float(k) raised OverflowError
    "synth-401-digit-mode": (lambda: _synth_modes(((10**400, 0),)), ShapeMismatch,
                             "aliases on angular axis with 8 nodes"),
    "mode-gap-broadcast": (lambda: mode_gap(2 * np.eye(3), np.ones(3)), ShapeMismatch,
                           "shapes (3, 3) and (3,) differ"),
    "mode-gap-sizes": (lambda: mode_gap(np.eye(3), np.eye(2)), ShapeMismatch, "shapes (3, 3) and (2, 2) differ"),
    "fourier-modes-nan-cut": (lambda: fourier_modes(_G3, float("nan")), ShapeMismatch, "mode cut nan is not finite"),
    "fourier-modes-inf-cut": (lambda: fourier_modes(_G3, float("inf")), ShapeMismatch, "mode cut inf is not finite"),
    "metric-table-shape": (lambda: MetricField(_G3, np.broadcast_to(np.eye(2), _G3.shape + (2, 2))),
                           GridMismatch, "matrix table shape"),
    "sample-metric-dimension": (lambda: sample_metric(flat_metric(2), _G3), GridMismatch,
                                "metric dimension 2 != grid dimension 3"),
    "nd-metric-n2": (lambda: assemble_counterexample_metric_nd(MillerDataset.zero(_G3), _G2),
                     DimensionTooSmall, "n >= 3"),
    "nd-metric-grid": (lambda: assemble_counterexample_metric_nd(MillerDataset.zero(_G3), _G3_FINE),
                       GridMismatch, "incompatible with dataset grid"),
    "field-source-dimension": (lambda: ScalarField.from_source(_G3, an.constant(1.0, 2)), GridMismatch,
                               "source dim 2"),
    "stencil-field-shape": (lambda: divergence_form_apply(np.zeros(_G3.shape + (3, 3)), np.zeros((3, 3)), _G3),
                            GridMismatch, "field shape"),
    "volume-field-grid": (lambda: integrate_volume(_one(_G3), _flat(_G3_FINE)), GridMismatch, "field shape"),
    "stencil-weight-shape": (lambda: divergence_form_apply(np.zeros(_G3.shape + (2, 2)), np.zeros(_G3.shape), _G3),
                             GridMismatch, "weight shape"),
    "factor-n1": (lambda: ConformalFactor(_one(_G3), 1), DimensionTooSmall, "n >= 2"),
    "scale-metric-grid": (lambda: scale_metric(_flat(_G3), ConformalFactor.one(_G3_FINE, 3)), GridMismatch,
                          "factor and metric grids differ"),
    "scale-metric-2d-grid": (lambda: scale_metric_2d(_flat(_G2), ConformalFactor.one(cyl_grid(2, 9), 2)),
                             GridMismatch, "factor and metric grids differ"),
    "scaling-law-field-grid": (lambda: scaling_law_residual(_flat(_G3), ConformalFactor.one(_G3, 3), _one(_G3_FINE)),
                               GridMismatch, "field and metric grids differ"),
    "weak-condition-grid": (
        lambda: weak_condition_residual(assemble_stiffness(_flat(_G3)), [ConformalFactor.one(_G3_FINE, 3)]),
        GridMismatch, "factor and system grids differ"),
    "volume-expansion-n2": (lambda: volume_expansion(_flat(_G2), _one(_G2), _EPS), DimensionTooSmall, "n = 3"),
    "volume-expansion-grid": (lambda: volume_expansion(_flat(_G3), _one(_G3_FINE), _EPS), GridMismatch,
                              "field and metric grids differ"),
    "cubic-profile-no-room": (lambda: cubic_reparam(3, 0.05, delta=0.5), InfeasibleBounds, "hi > lo"),
    "bump-no-support": (lambda: an.bump(0.6, 0.4, 3, 0), InfeasibleBounds, "hi > lo"),
    "bump-support-too-narrow": (lambda: an.bump(0.47, 0.53, 1, 0), InfeasibleBounds, "too narrow"),
    "diffeo-nan-slope": (lambda: CylinderDiffeo(2, _nan_parts(slope=True)), NonOrientationPreserving,
                         "folds over"),
    "diffeo-nan-collar": (lambda: CylinderDiffeo(2, _nan_parts(slope=False)), NonOrientationPreserving,
                          "identity on the collars"),
    "diffeo-negative-collar": (lambda: identity_diffeo(3, -0.1), InfeasibleBounds, "must lie in [0, 0.5)"),
    "diffeo-n1": (lambda: CylinderDiffeo(1, identity_diffeo(2).parts), NonOrientationPreserving, "at least 2"),
    "diffeo-moves-collar": (lambda: CylinderDiffeo(2, _off_collar_parts), NonOrientationPreserving,
                            "identity on the collars"),
    "compose-dimension": (lambda: identity_diffeo(3).compose(identity_diffeo(2)), GridMismatch,
                          "different cylinders"),
    "pullback-dimension": (lambda: pullback_metric(flat_metric(2), identity_diffeo(3)), GridMismatch,
                           "dimensions differ"),
    "expression-dimension": (lambda: an.constant(1.0, 2) + an.constant(1.0, 3), GridMismatch,
                             "dimension mismatch"),
}


@pytest.mark.parametrize("call,error,message", _GUARDS.values(), ids=_GUARDS.keys())
def test_guard_raises_typed_error(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()


# the mode rule quoted a mode whole: a 4,000-digit component gave a
# 4,048-character message, 5,000 components one of 15,037
@pytest.mark.parametrize("mode", [(10**3999, 0), tuple(range(5000))], ids=["4000-digit-component", "5000-components"])
def test_mode_quoted_cut_short(mode):
    with pytest.raises(ShapeMismatch, match=r"^mode \((1|0, 1)") as info:
        _synth_modes((mode,))
    assert len(str(info.value)) < 120, str(info.value)


# builtins.repr of an int past 4,300 digits raises ValueError, which
# escaped the mode rule untyped
def test_mode_past_int_string_limit_refused():
    with pytest.raises(ShapeMismatch, match=r"^mode \(<int of 16610 bits>, 0\) aliases") as info:
        check_modes(_G3_FINE, [(10**5000, 0)])
    assert len(str(info.value)) < 200, str(info.value)
