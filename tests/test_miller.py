"""Counterexample datasets: containers, validation, synthesis, studies.

Verifies:
  - JSON containers round-trip bit-exactly in base64, the one encoding
    the writer uses and the reader takes
  - malformed containers, bad metadata included (a fractional or boolean
    grid size, a mistyped or out-of-range number, a grid the arrays
    disagree with), an unknown key at any level, a version other than 1
    and an encoding other than base64, are rejected with the container
    error
  - fuzzed: a container with random byte edits loads or raises the
    container error, never anything else
  - the Hoelder quotient matches a brute-force double loop, separates
    a genuine order-1/2 profile from an over-declared order, and takes
    stride 1 alone on fewer than five samples
  - property validation: vanishing, eigenvalue bounds, triviality,
    the marginal Hoelder warning and the forced-failure paths
  - the fitted coefficient Jacobian reproduces the divergence stencil
    exactly
  - every route to a dataset (the constructor, ``zero``, the loader and
    the synthesizer) refuses T, rho or alpha outside the paper's ranges;
    the synthesizer refuses a mode that aliases on the grid (ShapeMismatch,
    the one mode rule) and a grid of other than 3 axes
  - the synthesizer respects its box and never loses to the baseline;
    its per-t-layer dual solve is exact: the fields match a tight scipy
    ``lsqr`` oracle to 1e-8, the normal-equation residual is at most
    1e-12, G G^T has no entry across t-layers (the split it rests on),
    u = 0 gives zero fields and a zero residual, amplitudes 1e-120 and
    1e120 fit the fields of amplitude 1, and the fields are stable under
    rounding of the input; a failed t-layer LU or a normal-equation
    residual above 1e-10 is NoConvergence
  - DN gap study: exact zeros for the zero dataset, cell bookkeeping, no
    earlier stiffness system alive when it assembles the next, one
    |K| row-sum norm per stride and one conformal factor per (eps, stride)
  - the volume obstruction, its trivial-field guard, and samples scaled
    by 1/max|u| so that a small u is fitted as well as a large one
"""

import json
import weakref
from dataclasses import asdict, replace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

from calderon_lab import counterexample
from calderon_lab.calculus import divergence_form_apply
from calderon_lab.counterexample import (
    dn_gap_study,
    holder_quotients,
    load_dataset,
    nonisometry_check,
    save_dataset,
    synth_approx_miller,
    validate_miller_properties,
    _coefficient_jacobian,
)
from calderon_lab.errors import (
    DimensionTooSmall,
    InfeasibleBounds,
    InsufficientSamples,
    MalformedContainer,
    NoConvergence,
    ShapeMismatch,
    TrivialU,
)
from calderon_lab.grid_geometry import CylinderGrid, MillerDataset, cyl_grid
from conftest import base64_with_nan


def _toy_dataset(grid, scale=0.08):
    t, x, y = np.meshgrid(*grid.axes(), indexing="ij")
    win = (1.0 - t) ** 2
    a1 = scale * np.sin(x) * win
    a2 = scale * np.cos(x + y) * win
    a3 = scale * np.sin(y) * win
    A1 = scale * np.sqrt(np.clip(1.0 - t[:, 0, 0], 0.0, None))
    A3 = scale * np.clip(1.0 - t[:, 0, 0], 0.0, None) ** (1.0 / 3.0)
    u = np.sin(x + y) * win
    return MillerDataset(grid, a1, a2, a3, A1, A3, u, rho=1.0 / 6.0)


class TestContainer:
    @pytest.mark.parametrize("encoding", ["base64"])
    def test_round_trip_bit_exact(self, tmp_path, encoding):
        grid = cyl_grid(3, 5)
        data = _toy_dataset(grid)
        path = tmp_path / f"ds-{encoding}.json"
        save_dataset(data, path)
        assert {a["encoding"] for a in json.loads(path.read_text())["arrays"].values()} == {encoding}
        back = load_dataset(path)
        for nm in ("a1", "a2", "a3", "A1", "A3", "u"):
            assert np.array_equal(getattr(back, nm), getattr(data, nm)), nm
        assert back.T == data.T and back.rho == data.rho and back.alpha == data.alpha
        assert back.grid.shape == data.grid.shape

    def test_writer_encoding_is_base64(self, tmp_path):
        data = _toy_dataset(cyl_grid(3, 5))
        path = tmp_path / "ds.json"
        save_dataset(data, path)
        doc = json.loads(path.read_text())
        assert {a["encoding"] for a in doc["arrays"].values()} == {"base64"}
        assert doc["meta"]["layout"] == "row-major"

    def test_malformed_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{\"format\": \"something-else\"}")
        with pytest.raises(MalformedContainer):
            load_dataset(path)
        path.write_text("not json at all")
        with pytest.raises(MalformedContainer):
            load_dataset(path)

    def test_missing_array_rejected(self, tmp_path):
        data = _toy_dataset(cyl_grid(3, 5))
        path = tmp_path / "ds.json"
        save_dataset(data, path)
        doc = json.loads(path.read_text())
        del doc["arrays"]["a2"]
        path.write_text(json.dumps(doc))
        with pytest.raises(MalformedContainer):
            load_dataset(path)

    # the toy container's grid is 5 x 4 x 4. A fraction or a boolean used
    # to be truncated by int(), a number key took a boolean or a numeric
    # string, alpha 0 loaded (and divided by zero in validation), and a
    # grid its arrays disagree with raised GridMismatch
    @pytest.mark.parametrize(
        "key,value",
        [("N_t", 2), ("N_t", "x"), ("N_ang", 4), ("T", "late"), ("alpha", float("nan")),
         ("T", 5), ("T", 0.0), ("rho", 0.0), ("rho", 1.0),
         ("N_t", 5.5), ("N_ang", [4.9, 4]), ("N_t", True), ("T", True), ("rho", "0.25"),
         ("alpha", 0.0), ("alpha", 1.0), ("N_t", 6), ("N_ang", [4, 6])],
        ids=["too-few-t-nodes", "non-numeric-N_t", "N_ang-not-a-list", "non-numeric-T", "nan-alpha",
             "T-beyond-cylinder", "T-not-positive", "rho-not-positive", "rho-at-one",
             "fractional-N_t", "fractional-N_ang", "boolean-N_t", "boolean-T", "numeric-string-rho",
             "alpha-not-positive", "alpha-at-one", "N_t-off-the-arrays", "N_ang-off-the-arrays"],
    )
    def test_bad_metadata_rejected(self, tmp_path, key, value):
        path = tmp_path / "ds.json"
        save_dataset(_toy_dataset(cyl_grid(3, 5)), path)
        doc = json.loads(path.read_text())
        doc["meta"][key] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(MalformedContainer):
            load_dataset(path)

    # a NaN in a1 broke the eigenvalue check with a LinAlgError; one in
    # the interior of u passed validation
    @pytest.mark.parametrize("encoding", ["base64"])
    @pytest.mark.parametrize("name,node", [("a1", 0), ("u", 40)])
    def test_non_finite_array_rejected(self, tmp_path, name, node, encoding):
        data = _toy_dataset(cyl_grid(3, 5))
        path = tmp_path / "ds.json"
        save_dataset(data, path)
        doc = json.loads(path.read_text())
        assert doc["arrays"][name]["encoding"] == encoding
        doc["arrays"][name] = base64_with_nan(doc["arrays"][name], node)
        path.write_text(json.dumps(doc))
        with pytest.raises(MalformedContainer, match="non-finite"):
            load_dataset(path)

    # the reader refuses what the writer never writes
    @pytest.mark.parametrize(
        "edit",
        [
            lambda doc: doc.update(extra=1),
            lambda doc: doc["meta"].update(units="m"),
            lambda doc: doc["arrays"].update(v=doc["arrays"]["u"]),
            lambda doc: doc["arrays"]["u"].update(order="C"),
            lambda doc: doc.update(version=2),
            lambda doc: doc.update(version=True),
            lambda doc: doc.pop("version"),
            lambda doc: doc["arrays"]["a1"].update(encoding="nested", data=np.zeros((5, 4, 4)).tolist()),
        ],
        ids=["root-key", "meta-key", "array-name", "entry-key", "version-2", "version-true",
             "no-version", "nested-encoding"],
    )
    def test_unknown_keys_and_versions_rejected(self, tmp_path, edit):
        path = tmp_path / "ds.json"
        save_dataset(_toy_dataset(cyl_grid(3, 5)), path)
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(MalformedContainer):
            load_dataset(path)


class TestContainerFuzz:
    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(edits=st.lists(st.tuples(st.integers(min_value=0), st.integers(0, 255)), min_size=1, max_size=4))
    def test_byte_edits_load_or_raise_container_error(self, tmp_path_factory, edits):
        path = tmp_path_factory.getbasetemp() / "fuzz-container.json"
        blob = _toy_container(tmp_path_factory)
        for pos, byte in edits:
            blob[pos % len(blob)] = byte
        path.write_bytes(bytes(blob))
        try:
            data = load_dataset(path)
        except MalformedContainer:
            return
        assert isinstance(data, MillerDataset)


def _toy_container(tmp_path_factory) -> bytearray:
    """The bytes of the toy dataset's container, written once per test run."""
    path = tmp_path_factory.getbasetemp() / "toy-container.json"
    if not path.exists():
        save_dataset(_toy_dataset(cyl_grid(3, 5)), path)
    return bytearray(path.read_bytes())


class TestHolderQuotients:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(12)
        t = np.linspace(0.0, 1.0, 33)
        A = rng.normal(size=33)
        rho = 0.4
        q = holder_quotients(t, A, rho)
        for s, val in q.items():
            idx = np.arange(32, -1, -s)[::-1]
            best = 0.0
            for i in idx:
                for j in idx:
                    if i == j:
                        continue
                    best = max(best, abs(A[i] - A[j]) / abs(t[i] - t[j]) ** rho)
            assert abs(val - best) < 1e-13, f"stride {s}"

    def test_sqrt_profile_stable_at_half(self):
        # |sqrt(1-t) - sqrt(1-s)| <= |t-s|^{1/2}, with near equality at
        # the t = 1 end, so the quotient is flat across strides
        t = np.linspace(0.0, 1.0, 257)
        A = np.sqrt(1.0 - t)
        q = holder_quotients(t, A, 0.5)
        vals = np.array([q[s] for s in sorted(q)])
        assert np.abs(vals - 1.0).max() < 1e-6, vals

    def test_sqrt_profile_blows_up_at_higher_order(self):
        t = np.linspace(0.0, 1.0, 257)
        A = np.sqrt(1.0 - t)
        q = holder_quotients(t, A, 0.9)
        strides = sorted(q)
        # refining the subsample near t = 1 grows the quotient steadily
        assert q[strides[0]] > 5.0 * q[strides[-1]]

    def test_needs_samples(self):
        with pytest.raises(InsufficientSamples):
            holder_quotients(np.array([0.0]), np.array([1.0]), 0.5)

    def test_fewer_than_five_samples_take_stride_1(self):
        # no stride leaves the five samples a subsample needs: the whole
        # series is the one subsample
        t = np.array([0.0, 0.25, 0.5, 1.0])
        A = np.array([0.0, 0.5, 0.25, 1.0])
        q = holder_quotients(t, A, 0.5)
        assert list(q) == [1]
        assert q[1] == pytest.approx(0.75 / 0.5**0.5, rel=1e-15)  # the pair (1/2, 1)


def _items(report) -> dict:
    return {i.name: i for i in report.items}


class TestValidation:
    def test_good_dataset_passes(self):
        report = validate_miller_properties(_toy_dataset(cyl_grid(3, 9)))
        assert report.ok
        assert _items(report)["vanishing"].status == "pass"
        assert _items(report)["eigenvalue_bounds"].status == "pass"
        assert _items(report)["nontriviality"].status == "pass"
        assert "l2" in _items(report)["harmonic_residual"].details

    def test_vanishing_violation(self):
        grid = cyl_grid(3, 9)
        data = _toy_dataset(grid)
        bad = MillerDataset(
            grid, data.a1, data.a2, data.a3, data.A1, data.A3, data.u + 0.5
        )
        report = validate_miller_properties(bad)
        item = _items(report)["vanishing"]
        assert not report.ok and item.code == "VanishingViolated"

    def test_eigenvalue_violation(self):
        grid = cyl_grid(3, 9)
        data = _toy_dataset(grid)
        t = grid.points[..., 0]
        bad = MillerDataset(
            grid, data.a1, data.a2 + 0.9 * (1 - t) ** 2, data.a3,
            data.A1, data.A3, data.u, alpha=0.5,
        )
        report = validate_miller_properties(bad)
        assert _items(report)["eigenvalue_bounds"].code == "EigenvalueBoundsViolated"

    def test_holder_unstable(self):
        # white noise has no modulus of continuity: on a long t-axis the
        # stride-1 quotient at a declared order 0.9 dwarfs the coarse one
        grid = CylinderGrid(3, 257, (4, 4))
        data = _toy_dataset(grid)
        rng = np.random.default_rng(5)
        t = grid.axes()[0]
        noisy = 0.1 * rng.normal(size=grid.num_t) * (1 - t)
        noisy[-1] = 0.0
        bad = MillerDataset(
            grid, data.a1, data.a2, data.a3, noisy, data.A3, data.u,
            rho=0.9,
        )
        report = validate_miller_properties(bad)
        item = _items(report)["holder_quotient"]
        assert item.status == "fail" and item.code == "HolderUnstable"

    def test_holder_marginal_warns(self):
        # the toy end profiles sqrt(1-t) and (1-t)^(1/3) are Hoelder of order
        # 1/2 and 1/3; at a declared 0.9 the quotient grows 5.3 and 10.6
        # times from stride 64 to stride 1, past the 4 of a pass and within
        # the 32 of a failure
        grid = CylinderGrid(3, 257, (4, 4))
        report = validate_miller_properties(replace(_toy_dataset(grid), rho=0.9))
        item = _items(report)["holder_quotient"]
        assert item.status == "warn" and item.code == "HolderMarginal"
        assert [h["growth"] for h in item.details["series"]] == pytest.approx([5.278, 10.556], abs=1e-3)

    def test_trivial_u_warns(self):
        report = validate_miller_properties(MillerDataset.zero(cyl_grid(3, 5)))
        item = _items(report)["nontriviality"]
        assert item.status == "warn" and item.code == "TrivialU"
        assert report.ok  # warn does not fail the report

    def test_as_dict_shape(self):
        d = validate_miller_properties(_toy_dataset(cyl_grid(3, 5))).as_dict()
        assert set(d) == {"ok", "items"}
        assert all({"name", "status", "code", "details"} <= set(i) for i in d["items"])


class TestCoefficientJacobian:
    @pytest.mark.parametrize("T", [1.0, 0.6], ids=["all-interior", "t-below-T"])
    def test_matches_direct_stencil(self, T):
        # G is assembled from the per-slot stencil Jacobians; a random
        # coefficient perturbation must move the residual by exactly G a
        grid = CylinderGrid(3, 5, (9, 6))
        t, x, y = np.meshgrid(*grid.axes(), indexing="ij")
        u_vals = np.sin(x + y) * (1 - t) * t
        unknown = np.zeros(grid.shape, dtype=bool)
        unknown[1:-1] = True
        unknown &= t < T
        G, unk_flat = _coefficient_jacobian(u_vals, grid, unknown)

        rng = np.random.default_rng(3)
        fields = [rng.uniform(-0.2, 0.2, grid.shape) * unknown for _ in range(3)]
        W = np.zeros(grid.shape + (3, 3))
        W[..., 0, 0] = 1.0
        W[..., 1, 1] = 1.0 + fields[0]
        W[..., 1, 2] = fields[1]
        W[..., 2, 1] = fields[1]
        W[..., 2, 2] = 1.0 + fields[2]
        direct = divergence_form_apply(W, u_vals, grid).ravel()

        eye = np.zeros(grid.shape + (3, 3))
        eye[...] = np.eye(3)
        base = divergence_form_apply(eye, u_vals, grid).ravel()
        a_vec = np.concatenate([f.ravel()[unk_flat] for f in fields])
        linear = base + G @ a_vec
        assert np.abs(direct - linear).max() < 1e-13, (
            f"jacobian mismatch {np.abs(direct - linear).max():.2e}"
        )


def _load_with_meta(tmp_path, grid, **meta) -> MillerDataset:
    """Load a saved zero dataset on ``grid`` whose container metadata was
    edited to ``meta``."""
    path = tmp_path / "ds.json"
    save_dataset(MillerDataset.zero(grid), path)
    doc = json.loads(path.read_text())
    doc["meta"].update(meta)
    path.write_text(json.dumps(doc))
    return load_dataset(path)


def _constructed(tmp_path, grid, **meta) -> MillerDataset:
    z, zt = np.zeros(grid.shape), np.zeros(grid.num_t)
    return MillerDataset(grid, z, z, z, zt, zt, z, **meta)


class TestDatasetRanges:
    # every route to a dataset passes the one check of its metadata: T in
    # (0, 1], rho in (0, 1), alpha in (0, 1)
    @pytest.mark.parametrize(
        "route,error",
        [(_constructed, InfeasibleBounds),
         (lambda tmp_path, grid, **meta: MillerDataset.zero(grid, **meta), InfeasibleBounds),
         (_load_with_meta, MalformedContainer),
         (lambda tmp_path, grid, **meta: synth_approx_miller(grid, **meta), InfeasibleBounds)],
        ids=["constructor", "zero", "loader", "synth"],
    )
    @pytest.mark.parametrize(
        "key,value",
        [("T", 0.0), ("T", 5.0), ("rho", -1.0), ("rho", 0.0), ("rho", 1.0),
         ("alpha", 0.0), ("alpha", 1.0), ("alpha", 3.0)],
        ids=["T-0", "T-5", "rho-minus-1", "rho-0", "rho-1", "alpha-0", "alpha-1", "alpha-3"],
    )
    def test_out_of_range_metadata_refused(self, tmp_path, route, error, key, value):
        with pytest.raises(error) as err:
            route(tmp_path, cyl_grid(3, 5), **{key: value})
        assert isinstance(err.value, InfeasibleBounds) or isinstance(err.value.__cause__, InfeasibleBounds)

    def test_vanishing_beyond_the_cylinder_refused(self):
        # T = 5 left no t-layer to check, and the vanishing item passed
        with pytest.raises(InfeasibleBounds):
            validate_miller_properties(MillerDataset.zero(cyl_grid(3, 9), T=5.0))

    # on 8 angular nodes mode 4 samples to zero and mode 5 to mode -3
    @pytest.mark.parametrize("modes", [((4, 0),), ((5, 0),), ((1, 0), (0, -4))], ids=["4-0", "5-0", "0-minus-4"])
    def test_aliasing_synth_mode_refused(self, modes):
        with pytest.raises(ShapeMismatch, match="aliases"):
            synth_approx_miller(CylinderGrid(3, 9, (8, 8)), modes=modes)

    def test_synth_needs_three_axes(self):
        with pytest.raises(DimensionTooSmall):
            synth_approx_miller(cyl_grid(4, 5))


class TestSynthesis:
    def test_report_and_box(self):
        grid = cyl_grid(3, 13)
        data, report = synth_approx_miller(grid, amplitude=0.1)
        assert report["achieved_l2"] <= report["baseline_l2"] + 1e-15
        assert 0.0 <= report["reduction"] <= 1.0
        box = report["box"]
        for nm in ("a1", "a2", "a3"):
            assert np.abs(getattr(data, nm)).max() <= box + 1e-12, nm
        assert np.all(data.A1 == 0.0) and np.all(data.A3 == 0.0)
        val = validate_miller_properties(data)
        assert val.ok, [asdict(i) for i in val.items if i.status == "fail"]

    def test_zero_amplitude_baseline(self):
        grid = cyl_grid(3, 9)
        data, report = synth_approx_miller(grid, amplitude=0.0)
        assert report["baseline_l2"] == 0.0 and report["achieved_l2"] == 0.0
        assert report["damp"] == 0.0 and report["normal_residual"] == 0.0
        assert report["lsqr_iterations"] == 0
        assert np.all(data.u == 0.0)
        for nm in ("a1", "a2", "a3"):
            assert np.all(getattr(data, nm) == 0.0), nm

    def test_infeasible_alpha(self):
        grid = cyl_grid(3, 9)
        with pytest.raises(InfeasibleBounds):
            synth_approx_miller(grid, alpha=1.0)

    def test_failed_layer_lu_is_no_convergence(self, monkeypatch):
        def singular(*args, **kwargs):
            raise RuntimeError("Factor is exactly singular")

        monkeypatch.setattr(counterexample.spla, "splu", singular)
        with pytest.raises(NoConvergence):
            synth_approx_miller(cyl_grid(3, 9))

    def test_inexact_layer_solve_fails_the_normal_gate(self, monkeypatch):
        # solves 1% off leave a normal-equation residual far above 1e-10
        splu = spla.splu

        class OffByOnePercent:
            def __init__(self, A, **kwargs):
                self._lu = splu(A, **kwargs)
                self.U = self._lu.U

            def solve(self, b):
                return 1.01 * self._lu.solve(b)

        monkeypatch.setattr(counterexample.spla, "splu", OffByOnePercent)
        with pytest.raises(NoConvergence, match="exceeds tolerance 1.000e-10"):
            synth_approx_miller(cyl_grid(3, 9))

    def test_extreme_amplitudes_fit_the_same_fields(self):
        # the fit is invariant under u -> c u in exact arithmetic; without
        # the solve's power-of-two scaling the residual check underflowed to
        # 0 / 0 at 1e-120 and overflowed at 1e120
        grid = CylinderGrid(3, 9, (8, 8))
        ref, _ = synth_approx_miller(grid, amplitude=1.0)
        for amplitude in (1e-120, 1e120):
            data, report = synth_approx_miller(grid, amplitude=amplitude)
            assert 0.0 < report["normal_residual"] <= 1e-12, amplitude
            for nm in ("a1", "a2", "a3"):
                assert np.abs(getattr(data, nm) - getattr(ref, nm)).max() <= 1e-10 * report["box"], (amplitude, nm)


def _fit_problem(data):
    """The synthesizer's damped problem for ``data.u``: the coefficient
    Jacobian G, the right-hand side b and the t-layer of each row."""
    grid = data.grid
    t = grid.axes()[0]
    unknown = np.zeros(grid.shape, dtype=bool)
    unknown[1:-1] = (t[1:-1] < data.T - 1e-12)[:, None, None]
    zero = MillerDataset.zero(grid, T=data.T, rho=data.rho, alpha=data.alpha)
    b = -divergence_form_apply(zero.coefficient_matrix(), data.u, grid).ravel()
    G, _ = _coefficient_jacobian(data.u, grid, unknown)
    return G, b, np.arange(G.shape[0]) // grid.layer_count


@pytest.fixture(scope="module", params=[((1, 0), (0, 1)), ((1, 1), (1, 0))], ids=["modes-10-01", "modes-11-10"])
def synth_pair(request):
    """Syntheses with amplitude 0.1 and 0.1 * (1 + 1e-15)."""
    grid = CylinderGrid(3, 25, (24, 24))
    return [synth_approx_miller(grid, modes=request.param, amplitude=a) for a in (0.1, 0.1 * (1 + 1e-15))]


class TestSynthesisConverges:
    """The per-t-layer dual solve is exact, so the fitted fields depend on
    the data, not on a solver's stopping rule."""

    def test_normal_residual(self, synth_pair):
        for _, report in synth_pair:
            assert report["normal_residual"] <= 1e-12, report
            assert 0.0 < report["pivot_ratio"] <= 1.0 and report["lsqr_iterations"] == 0

    @pytest.mark.parametrize("size", [13, 17])
    def test_matches_lsqr_oracle(self, size):
        grid = CylinderGrid(3, size, (size - 1, size - 1))
        data, report = synth_approx_miller(grid, modes=((1, 1), (1, 0)))
        assert report["tau"] == 1.0
        G, b, _ = _fit_problem(data)
        x, istop = spla.lsqr(G, b, damp=report["damp"], atol=1e-14, btol=1e-14, iter_lim=20000)[:2]
        assert istop in (1, 2), istop
        oracle = np.clip(x, -report["box"], report["box"])
        # T = 1: the unknowns are the interior t-layers of each field
        fitted = np.concatenate([getattr(data, nm)[1:-1].ravel() for nm in ("a1", "a2", "a3")])
        assert np.linalg.norm(fitted - oracle) <= 1e-8 * np.linalg.norm(oracle)

    @pytest.mark.parametrize("grid,T", [(CylinderGrid(3, 9, (8, 8)), 1.0), (CylinderGrid(3, 13, (12, 10)), 1.0),
                                        (CylinderGrid(3, 13, (12, 12)), 0.5)], ids=["9x8x8", "13x12x10", "T-0.5"])
    def test_dual_matrix_splits_by_t_layer(self, grid, T):
        data, _ = synth_approx_miller(grid, T=T, modes=((1, 1), (1, 0)))
        G, _, layer = _fit_problem(data)
        D = (G @ G.T).tocoo()
        assert D.nnz > 0
        assert np.array_equal(layer[D.row], layer[D.col])

    def test_fields_stable_under_amplitude_rounding(self, synth_pair):
        # the fit is linear in u, so in exact arithmetic scaling the
        # amplitude leaves the fields unchanged
        (data, report), (data_eps, _) = synth_pair
        moved = max(np.abs(getattr(data, nm) - getattr(data_eps, nm)).max() for nm in ("a1", "a2", "a3"))
        assert moved <= 1e-8 * report["box"], moved


class TestGapStudy:
    def test_zero_dataset_gaps_vanish(self):
        # size 13 coarsens to 6-node angular axes, clear of the mode cut
        data = MillerDataset.zero(cyl_grid(3, 13))
        result = dn_gap_study(data, eps_list=(0.0, 0.05), strides=(2, 1))
        assert len(result.cells) == 4
        for cell in result.cells:
            assert cell.gap == 0.0, cell
            assert cell.harmonic_residual == 0.0
        assert result.fit["trivial"]

    def test_eps_zero_column_exact(self):
        data = _toy_dataset(cyl_grid(3, 9))
        result = dn_gap_study(data, eps_list=(0.0, 0.05), strides=(1,))
        by_eps = {c.eps: c for c in result.cells}
        assert by_eps[0.0].gap == 0.0
        assert by_eps[0.05].gap > 0.0
        assert by_eps[0.05].harmonic_residual > 0.0

    def test_one_system_alive(self, monkeypatch):
        live, alive_at_call, assemble = weakref.WeakSet(), [], counterexample.assemble_stiffness

        def recording(*args, **kwargs):
            alive_at_call.append(len(live))
            sys = assemble(*args, **kwargs)
            live.add(sys)
            return sys

        monkeypatch.setattr(counterexample, "assemble_stiffness", recording)
        dn_gap_study(_toy_dataset(cyl_grid(3, 13)), eps_list=(0.0, 0.05), strides=(2, 1))
        assert alive_at_call == [0] * 6

    def test_one_row_sum_norm_per_stride(self, monkeypatch):
        # |K| copies K's data and index arrays; the weak residuals of every
        # eps share the one norm of their system
        taken, absolute = [], sp.csr_matrix.__abs__

        def counted(K):
            taken.append(K.shape)
            return absolute(K)

        monkeypatch.setattr(sp.csr_matrix, "__abs__", counted)
        result = dn_gap_study(_toy_dataset(cyl_grid(3, 13)), eps_list=(0.0, 0.05, 0.1), strides=(2, 1))
        assert len(result.cells) == 6 and taken == [(7 * 36,) * 2, (13 * 144,) * 2]

    def test_one_factor_per_eps_and_stride(self, monkeypatch):
        # the weak residual and the scaled metric read the same factor
        built, family = [], counterexample.conformal_family

        def counted(u, eps):
            built.append((u.grid.shape, eps))
            return family(u, eps)

        monkeypatch.setattr(counterexample, "conformal_family", counted)
        dn_gap_study(_toy_dataset(cyl_grid(3, 13)), eps_list=(0.0, 0.05), strides=(2, 1))
        assert built == [((7, 6, 6), 0.0), ((7, 6, 6), 0.05), ((13, 12, 12), 0.0), ((13, 12, 12), 0.05)]


class TestNonIsometry:
    def test_obstruction_positive(self):
        data = _toy_dataset(cyl_grid(3, 9))
        out = nonisometry_check(data)
        assert out["obstruction"] is True
        assert out["rel_diff"] < 1e-10, out["rel_diff"]
        assert out["p2"] > 0.0

    def test_trivial_guard(self):
        with pytest.raises(TrivialU):
            nonisometry_check(MillerDataset.zero(cyl_grid(3, 5)))

    def test_samples_scale_with_u(self):
        # the samples are scaled by 1/max|u|: with fixed samples the
        # quadratic defect of u * 1e-6 sank into rounding (rel_diff 1.4e-4)
        data = _toy_dataset(cyl_grid(3, 9))
        for field in (data.u, 1e-6 * data.u):
            out = nonisometry_check(replace(data, u=field))
            assert out["rel_diff"] <= 1e-10, out["rel_diff"]
            assert max(abs(e) for e in out["eps_samples"]) * np.abs(field).max() == pytest.approx(0.05)
