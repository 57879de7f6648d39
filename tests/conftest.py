"""Shared small-grid fixtures. Everything here is desk scale: grids stay
below 17 nodes per axis so the full suite (minus the acceptance module)
runs in seconds."""

import numpy as np
import pytest
import scipy.linalg

from calderon_lab.dn_solver import assemble_stiffness
from calderon_lab.grid_geometry import (
    CylinderGrid,
    cyl_grid,
    flat_metric,
    random_trig_metric,
    sample_metric,
)


@pytest.fixture
def grid9():
    return cyl_grid(3, 9)


@pytest.fixture
def grid5():
    return cyl_grid(3, 5)


@pytest.fixture
def flat9(grid9):
    return sample_metric(flat_metric(3), grid9)


@pytest.fixture
def flat9_lambda1(flat9):
    """First Dirichlet eigenvalue of the flat size-9 cylinder: the smallest
    eigenvalue of the interior blocks of (stiffness, mass), 448 dofs, by a
    dense generalized symmetric eigensolve."""
    sys = assemble_stiffness(flat9, potential=np.ones(flat9.grid.shape))
    I = flat9.grid.interior_ids()
    K = sys.laplace[I][:, I].toarray()
    M = sys.mass[I][:, I].toarray()
    return float(scipy.linalg.eigh(K, M, eigvals_only=True, subset_by_index=[0, 0])[0])


@pytest.fixture
def bumpy9(grid9):
    return sample_metric(random_trig_metric(3, seed=7), grid9)


@pytest.fixture
def rng():
    return np.random.default_rng(2024)
