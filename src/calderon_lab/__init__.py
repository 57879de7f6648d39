"""Numerical laboratory for Dirichlet-to-Neumann maps on cylinder metrics.

The package builds finite-element DN maps for Laplace-Beltrami operators
on [0,1] x T^{n-1}, checks the conformal and diffeomorphism gauge
identities that leave those maps invariant, and studies coefficient
datasets whose rough t-only parts break unique continuation: the gap
between the DN maps of a metric and its conformal rescalings is measured
directly, together with the volume obstruction showing the rescaled
family is not isometric to the base.
"""

from .errors import (
    Asymmetric,
    BoundaryLayerRequested,
    CalderonLabError,
    ConfigInvalid,
    DegenerateDeterminant,
    DimensionTooSmall,
    FactorTooLarge,
    GridMismatch,
    InfeasibleBounds,
    InsufficientSamples,
    MalformedContainer,
    NoConvergence,
    NonOrientationPreserving,
    NonPositiveDefinite,
    NonPositiveFactor,
    ShapeMismatch,
    SingularInteriorBlock,
    TrivialU,
)
from .grid_geometry import (
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
    constant_metric,
    cyl_grid,
    flat_metric,
    metric_from_matrices,
    random_trig_metric,
    sample_metric,
    weight_identity_check,
)
from .calculus import (
    CovectorField,
    ScalarField,
    divergence_form_apply,
    divergence_form_jacobian,
    gradient,
    integrate_volume,
    interior,
    laplace_beltrami_pointwise,
)
from .dn_solver import (
    DNMatrix,
    StiffnessSystem,
    assemble_stiffness,
    boundary_mass_matrix,
    dn_apply,
    dn_map_partial,
    dn_mode_eigenvalues,
    dn_mode_matrix,
    fourier_modes,
    mode_gap,
)
from .conformal import (
    ConformalFactor,
    WeakConditionResidual,
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
from .gauge import (
    CylinderDiffeo,
    bump_reparam,
    bump_shear,
    cubic_reparam,
    diffeo_invariance_gap,
    identity_diffeo,
    pullback_metric,
)
from .counterexample import (
    StudyCell,
    StudyResult,
    ValidationItem,
    ValidationReport,
    cauchy_data_check,
    dn_gap_study,
    holder_quotients,
    load_dataset,
    nonisometry_check,
    save_dataset,
    synth_approx_miller,
    validate_miller_properties,
)
from .report import ExperimentReport, Table, Verdict, emit_report

__version__ = "0.1.0"
