"""Config-driven experiment runner.

    calderon-lab <subcommand> --config <path> [--out <dir>]

Subcommands: verify-identities, dn-compare, counterexample-study,
validate-dataset, synth-dataset, rigidity-check. Each reads a JSON config,
runs the corresponding library routines, writes a deterministic report
(JSON + CSV + markdown) and exits 0 when every configured verdict passes,
1 on computational failure, 2 on config errors. Every config object (the
root and each nested spec) goes through one reader, :func:`report.read`, so
an unknown key, a missing required key or a value out of range is a config
error raised before any computation.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

from . import analytic as an
from .calculus import ScalarField
from .conformal import (
    ConformalFactor,
    algebraic_identity_check,
    conformal_family,
    conformal_potential,
    global_rigidity_check,
    scale_metric,
    scale_metric_2d,
    scaling_law_residual,
)
from .counterexample import (
    dataset_json,
    dn_gap_study,
    load_dataset,
    nonisometry_check,
    synth_approx_miller,
    validate_miller_properties,
)
from .dn_solver import assemble_stiffness, dn_mode_matrix, fourier_modes, mode_gap
from .errors import (
    CalderonLabError,
    ConfigInvalid,
    DimensionTooSmall,
    FactorTooLarge,
    GridMismatch,
    InfeasibleBounds,
    NonOrientationPreserving,
    ShapeMismatch,
    TrivialU,
)
from .gauge import DEFAULT_COLLAR, bump_reparam, bump_shear, cubic_reparam, identity_diffeo, pullback_metric
from .grid_geometry import (
    BOUNDARY_NAMES,
    CylinderGrid,
    cyl_grid,
    flat_metric,
    random_trig_metric,
    sample_metric,
)
from .report import (
    REPORT_FILES,
    REQUIRED,
    ExperimentReport,
    check_out_dir,
    choice,
    emit_report,
    integer,
    list_of,
    load_json,
    quote,
    ranged,
    read,
    real,
    string,
)


def _as_is(v):
    """Converter for a nested spec that its own reader checks later."""
    return v


def _file(v) -> str:
    if not os.path.isfile(string(v)):
        raise ValueError("is not a file")
    return v


def _file_name(v) -> str:
    """Converter for a file written into the run's output directory: a
    bare name that no report file overwrites."""
    if os.path.basename(string(v)) != v or v in ("", ".", ".."):
        raise ValueError("must be a bare file name")
    if v in REPORT_FILES:
        raise ValueError(f"is a file the report writes, one of {REPORT_FILES}")
    return v


# the 65 x 64 x 64 rung of the 3-D ladder, the largest grid a run is sized for
_MAX_NODES = 65 * 64 * 64
# a solve's dense 1-D factors and a dataset's Hölder quotients grow as an axis's length squared
_MAX_AXIS = 1025
# the smallest grid of n axes, 3 x 4 x ... x 4, is over the cap from n = 10;
# a larger n is refused before a grid builds its n-entry size tuple
_MAX_N = 9

_KIND = (string, REQUIRED)
_SEED = (ranged(integer, 0), 0)  # numpy rejects negative seeds
# dn-compare and rigidity-check assemble Q1 systems, whose memory grows with
# n under the node cap (n = 6 at size 7 peaks at 1.25 GB); 4 is the largest
# n any acceptance criterion, README config or benchmark job uses
_N = (ranged(integer, 2, 5), 3)
# a spec's wave sum nests one level per term and its evaluation recurses
# that deep (1,000 terms overflow the stack); its modes are drawn as int64
_TERMS = (ranged(integer, 0, 65), 2)
_MAX_MODE = (ranged(integer, 0, 65), 1)


def _grid(build, *args) -> CylinderGrid:
    """``build(*args)`` for a grid builder, a coarsening or a dataset's
    grid; an invalid size, dimension or stride in the config is a config
    error, and so is a grid over ``_MAX_NODES`` nodes or ``_MAX_AXIS`` on
    an axis. A grid allocates nothing until it is sampled, so the caps are
    checked before any array exists."""
    try:
        grid = build(*args)
    except (DimensionTooSmall, GridMismatch) as e:
        raise ConfigInvalid(f"invalid grid: {e}") from e
    if grid.node_count > _MAX_NODES:
        raise ConfigInvalid(f"a grid of {grid.n} axes is over the cap of {_MAX_NODES} nodes")
    if max(grid.shape) > _MAX_AXIS:
        raise ConfigInvalid(f"a grid of shape {grid.shape} is over the cap of {_MAX_AXIS} nodes an axis")
    return grid


def _modes_fit(grid: CylinderGrid, cut: float) -> None:
    """A mode cut that aliases on ``grid`` is a config error."""
    try:
        fourier_modes(grid, cut)
    except ShapeMismatch as e:
        raise ConfigInvalid(f"cut {cut} is too high for grid {grid.shape}: {e}") from e


def _metric(spec):
    """A random-trig metric spec; the flat metric is the absent key."""
    return read(spec, "metric", kind=(choice("random-trig"), REQUIRED), seed=_SEED,
                amplitude=(real, None), max_mode=_MAX_MODE)


def _factor(spec):
    """A random conformal factor spec; c = 1 is the absent key."""
    f = read(spec, "factor", seed=_SEED, amplitude=(real, 0.25), offset=(real, 1.3),
             terms=_TERMS, max_mode=_MAX_MODE)
    # the waves sum to at most |amplitude|, so this keeps the factor positive
    if f.offset <= abs(f.amplitude):
        raise ConfigInvalid(f"factor offset {f.offset} must exceed |amplitude| {abs(f.amplitude)}")
    return f


def _diffeo(spec, n: int):
    """The diffeomorphism a diffeo spec names, and whether it is the identity."""
    d = read(spec, "diffeo", family=(choice("bump", "cubic", "identity"), "bump"),
             amplitude=(real, 0.08), delta=(ranged(real, 0.0, 0.5), DEFAULT_COLLAR),
             shear=(lambda v: read(v, "shear", axis=(integer, 1), amplitude=(real, 0.1)), None))
    # folding maps, shear axes outside 1..n-1 and empty collars are config errors
    try:
        if d.family == "identity":
            phi = identity_diffeo(n, d.delta)
        else:
            phi = (bump_reparam if d.family == "bump" else cubic_reparam)(n, d.amplitude, d.delta)
        if d.shear is not None:
            phi = phi.compose(bump_shear(n, d.shear.axis, d.shear.amplitude, d.delta))
    except (InfeasibleBounds, NonOrientationPreserving) as e:
        raise ConfigInvalid(f"invalid diffeo: {e}") from e
    return phi, d.family == "identity" and d.shear is None


def _order_fit(sizes, gaps):
    """Least-squares slope of log gap against log h, h = 1/(size-1); the
    gaps are positive."""
    g = np.asarray(gaps, dtype=float)
    h = 1.0 / (np.asarray(sizes, dtype=float) - 1.0)
    A = np.column_stack([np.log(h), np.ones_like(h)])
    slope, _ = np.linalg.lstsq(A, np.log(g), rcond=None)[0]
    return float(slope)


# -- subcommand handlers -----------------------------------------------------


def _run_verify_identities(cfg: dict) -> ExperimentReport:
    # the fourth-power identity needs n >= 3; each tuple samples a metric
    # and checks it, so their count is bounded like the config lists'
    s = read(cfg, "verify-identities config", n=(ranged(integer, 3, _MAX_N + 1), 3), size=(integer, 9),
             tuples=(ranged(integer, 1, 1001), 20), seed=_SEED)
    n, seed = s.n, s.seed
    rep = ExperimentReport("verify-identities", cfg)
    grid = _grid(cyl_grid, n, s.size)
    rows = []
    worst = 0.0
    for k in range(s.tuples):
        rng = np.random.default_rng(seed + k)
        g = sample_metric(random_trig_metric(n, seed=seed + k), grid)
        c = ConformalFactor.from_source(
            grid, an.trig_sum(n, rng, terms=2, amplitude=0.3, offset=1.4), n
        )
        u = ScalarField.from_source(grid, an.trig_sum(n, rng, terms=2, amplitude=1.0))
        w = ScalarField.from_source(grid, an.trig_sum(n, rng, terms=2, amplitude=1.0))
        err = algebraic_identity_check(g, c, u, w)
        rows.append((k, err))
        worst = max(worst, err)
    rep.add_table("identity_errors", ("tuple", "max_error"), rows)
    rep.add_verdict("algebraic_identity_max", worst, 1e-12)

    g = sample_metric(random_trig_metric(n, seed=seed), grid)
    c1 = ConformalFactor.one(grid, n)
    f = ScalarField.from_source(grid, an.trig_sum(n, np.random.default_rng(seed), terms=2, amplitude=1.0))
    rep.add_verdict("scaling_law_trivial_factor", scaling_law_residual(g, c1, f), 1e-10)
    return rep


def _run_dn_compare(cfg: dict) -> ExperimentReport:
    s = read(cfg, "dn-compare config", n=_N, sizes=(list_of(integer), (9, 17, 33)),
             gamma=(choice(*BOUNDARY_NAMES), "gamma1"), cut=(ranged(real, 0.0), 2.0),
             metric=(_metric, None),
             transform=(_as_is, REQUIRED))
    n, m = s.n, s.metric
    # each perturbation entry is at most |amplitude|, so the eigenvalues stay
    # within 1 +- n |amplitude|: this keeps the metric positive definite
    if m is not None and m.amplitude is not None and abs(m.amplitude) >= 1.0 / n:
        raise ConfigInvalid(f"metric |amplitude| {abs(m.amplitude)} must be below 1/n = {1.0 / n:.4g}")
    grids = [_grid(cyl_grid, n, size) for size in s.sizes]
    src = flat_metric(n) if m is None else random_trig_metric(
        n, seed=m.seed, amplitude=m.amplitude, max_mode=m.max_mode)
    # the transform is read and its grid-independent part built here, so a
    # bad spec fails before the first grid is sampled; pair(g) assembles
    # the two systems whose DN maps are compared
    t = s.transform
    kind = t.get("kind") if isinstance(t, dict) else None
    if kind == "conformal-2d":
        if n != 2:
            raise ConfigInvalid("conformal-2d requires n = 2")
        f = read(t, "transform", kind=_KIND, factor=(_factor, None)).factor
        identity = f is None
        c_src = an.constant(1.0, n) if identity else an.trig_sum(
            n, np.random.default_rng(f.seed), terms=f.terms, amplitude=f.amplitude,
            offset=f.offset, max_mode=f.max_mode)

        def pair(g):
            # scaled first, so a factor that breaks the metric stops before assembly
            g_c = scale_metric_2d(g, ConformalFactor.from_source(g.grid, c_src, n))
            return assemble_stiffness(g), assemble_stiffness(g_c)
    elif kind == "conformal-link":
        if n < 3:
            raise ConfigInvalid("conformal-link requires n >= 3")
        link = read(t, "transform", kind=_KIND, amplitude=(real, 0.3),
                    collar=(ranged(real, 0.0, 0.5), 0.15), seed=_SEED)
        identity = False
        # c = 1 + amplitude * bump(t) * trig(angles) equals 1 with zero
        # normal derivative on collars at both ends, so the potential-link
        # comparison sees matching Dirichlet and Neumann traces; with the bump
        # in [0, 1] and the trig factor in [1/2, 3/2], c > 0 for amplitude > -2/3
        if link.amplitude <= -2.0 / 3.0:
            raise ConfigInvalid(f"conformal-link amplitude {link.amplitude} must exceed -2/3")
        try:
            prof = an.bump(link.collar, 1.0 - link.collar, n, 0)
        except InfeasibleBounds as e:
            raise ConfigInvalid(f"invalid conformal-link collar: {e}") from e
        ang = an.trig_sum(n, np.random.default_rng(link.seed), terms=2, amplitude=0.5,
                          max_mode=1, offset=1.0)
        c_src = an.constant(1.0, n) + prof * ang * an.constant(link.amplitude, n)

        def pair(g):
            c = ConformalFactor.from_source(g.grid, c_src, n)
            # the factor is constant near both ends, so the one-sided fill
            # of the potential there is exact
            q = conformal_potential(g, c, one_sided=True)
            return assemble_stiffness(scale_metric(g, c)), assemble_stiffness(g, potential=q)
    elif kind == "diffeo":
        spec = read(t, "transform", kind=_KIND, diffeo=(_as_is, {})).diffeo
        phi, identity = _diffeo(spec, n)
        src_t = pullback_metric(src, phi)

        def pair(g):
            return assemble_stiffness(g), assemble_stiffness(sample_metric(src_t, g.grid))
    else:
        raise ConfigInvalid(f"transform needs a kind among conformal-2d, conformal-link, "
                            f"diffeo, got {quote(kind)}")
    if not identity and len(set(s.sizes)) < 2:
        raise ConfigInvalid(f"fitting gap_order needs two distinct sizes, got {quote(list(s.sizes))}")
    for grid in grids:
        _modes_fit(grid, s.cut)

    rep = ExperimentReport("dn-compare", cfg)
    gaps = []
    for grid in grids:
        sys_a, sys_b = pair(sample_metric(src, grid))
        B_a, _ = dn_mode_matrix(sys_a, s.gamma, s.cut)
        B_b, _ = dn_mode_matrix(sys_b, s.gamma, s.cut)
        gaps.append(mode_gap(B_a, B_b))
    rep.add_table("gaps", ("size", "gap"), list(zip(s.sizes, gaps)))
    rep.scalars["gaps"] = gaps
    # a zero gap has no logarithm: the two systems are one operator there,
    # so the gaps are held to the floor, as for an identity transform
    if identity or min(gaps) == 0.0:
        rep.add_verdict("gap_at_floor", max(gaps), 1e-10)
    else:
        rep.add_verdict("gap_order", _order_fit(s.sizes, gaps), 1.5, ">=")
    return rep


def _run_counterexample_study(cfg: dict) -> ExperimentReport:
    s = read(cfg, "counterexample-study config", dataset=(_file, REQUIRED),
             eps=(list_of(real), (0.0, 0.025, 0.05, 0.1)),
             strides=(list_of(ranged(integer, 1)), (4, 2, 1)), cut=(ranged(real, 0.0), 2.0))
    data = load_dataset(s.dataset)
    grid = _grid(lambda: data.grid)
    # a stride must divide the dataset grid, and the modes fit the coarsest
    for stride in s.strides:
        _modes_fit(_grid(grid.coarsen, stride), s.cut)
    rep = ExperimentReport("counterexample-study", cfg)
    rep.scalars["dataset"] = s.dataset
    # each study eps must keep 1 + eps*u above the family's floor (the volume
    # samples keep it by construction); vetted here, not after the study
    u = ScalarField(data.grid, data.u)
    for eps in s.eps:
        try:
            conformal_family(u, eps)
        except FactorTooLarge as e:
            raise ConfigInvalid(f"eps out of range for the dataset: {e}") from e
    # the fit has two coefficients: with nonzero eps it needs two distinct
    # ones and three distinct cells, or its R^2 of 1 and its betas say nothing
    nonzero = {eps for eps in s.eps if eps != 0.0}
    if nonzero and (len(nonzero) < 2 or len(nonzero) * len(set(s.strides)) < 3):
        raise ConfigInvalid(f"the gap fit needs at least 2 distinct nonzero eps and 3 distinct "
                            f"(nonzero eps, stride) cells, got eps {quote(list(s.eps))} and "
                            f"strides {quote(list(s.strides))}")

    res = dn_gap_study(data, s.eps, strides=s.strides, cut=s.cut)
    rep.add_table(
        "gap_study",
        ("eps", "stride", "gap", "harmonic_residual", "weak_residual"),
        [(c.eps, c.stride, c.gap, c.harmonic_residual, c.weak_residual) for c in res.cells],
    )
    rep.scalars["fit"] = res.fit
    zero_gaps = [c.gap for c in res.cells if c.eps == 0.0]
    if zero_gaps:
        rep.add_verdict("zero_eps_gap", max(zero_gaps), 1e-10)
    if not res.fit["trivial"]:
        rep.add_verdict("fit_beta_eps_r", res.fit["beta_eps_r"], 0.0, ">=")
        rep.add_verdict("fit_beta_eps2", res.fit["beta_eps2"], 0.0, ">=")
        rep.add_verdict("fit_r2", res.fit["r2"], 0.9, ">=")
    if any(c.gap for c in res.cells):  # all gaps exactly 0 (eps all 0, a zero dataset): no family to check
        try:
            iso = nonisometry_check(data)
            rep.scalars["nonisometry"] = iso
            rep.add_verdict("nonisometry_p2_match", iso["rel_diff"], 1e-10)
            rep.add_verdict("nonisometry_p2_positive", iso["p2"], 0.0, ">=")
        except TrivialU:
            rep.scalars["nonisometry"] = "trivial u, no obstruction derivable"
    return rep


def _run_validate_dataset(cfg: dict) -> ExperimentReport:
    s = read(cfg, "validate-dataset config", dataset=(_file, REQUIRED))
    # a malformed container is a computation failure, a grid over the cap a
    # config error
    data = load_dataset(s.dataset)
    _grid(lambda: data.grid)
    rep = ExperimentReport("validate-dataset", cfg)
    result = validate_miller_properties(data)
    rep.scalars["validation"] = result.as_dict()
    rep.add_table(
        "items",
        ("item", "status", "code"),
        [(i.name, i.status, i.code or "") for i in result.items],
    )
    rep.add_verdict("validation_failures", sum(i.status == "fail" for i in result.items), 0.0)
    return rep


def _mode_pair(v) -> tuple[int, int]:
    """Converter for a synth mode: a list of two integers."""
    if not isinstance(v, (list, tuple)) or len(v) != 2:
        raise ValueError("each mode must be a pair of integers")
    return integer(v[0]), integer(v[1])


def _run_synth_dataset(cfg: dict) -> ExperimentReport:
    """Run :func:`synth_approx_miller` with only the keys the config sets,
    so the library defaults hold. Whatever the synthesis refuses as
    InfeasibleBounds (``T``, ``rho`` or ``alpha`` out of range, an
    overflowing amplitude) or ShapeMismatch (a mode that
    :func:`~calderon_lab.dn_solver.check_modes` refuses) is a config
    error."""
    s = read(cfg, "synth-dataset config",
             grid=(lambda v: read(v, "synth grid", num_t=(integer, REQUIRED), num_ang=(list_of(integer), REQUIRED)),
                   REQUIRED),
             T=(real, None), amplitude=(real, None), alpha=(real, None),
             rho=(real, None), modes=(list_of(_mode_pair), None), output=(_file_name, "dataset.json"))
    grid = _grid(CylinderGrid, 3, s.grid.num_t, s.grid.num_ang)
    kwargs = {key: v for key, v in vars(s).items() if key not in ("grid", "output") and v is not None}
    try:
        data, synth_rep = synth_approx_miller(grid, **kwargs)
    except (InfeasibleBounds, ShapeMismatch) as e:
        raise ConfigInvalid(f"invalid synthesis: {e}") from e
    rep = ExperimentReport("synth-dataset", cfg)
    rep.files[s.output] = dataset_json(data)
    rep.scalars["synth"] = synth_rep
    rep.scalars["output"] = s.output
    rep.add_verdict("residual_not_worse_than_baseline",
                    synth_rep["achieved_l2"] - synth_rep["baseline_l2"], 0.0)
    return rep


def _run_rigidity_check(cfg: dict) -> ExperimentReport:
    s = read(cfg, "rigidity-check config", n=_N, size=(integer, 9),
             seeds=(list_of(ranged(integer, 0)), tuple(range(5))))
    rep = ExperimentReport("rigidity-check", cfg)
    grid = _grid(cyl_grid, s.n, s.size)
    rows = []
    worst = 0.0
    for seed in s.seeds:
        g = sample_metric(random_trig_metric(s.n, seed=seed), grid)
        dev = global_rigidity_check(g)
        rows.append((seed, dev))
        worst = max(worst, dev)
    rep.add_table("deviation_from_one", ("seed", "max_deviation"), rows)
    rep.add_verdict("rigidity_max_deviation", worst, 1e-10)
    return rep


_HANDLERS = {
    "verify-identities": _run_verify_identities,
    "dn-compare": _run_dn_compare,
    "counterexample-study": _run_counterexample_study,
    "validate-dataset": _run_validate_dataset,
    "synth-dataset": _run_synth_dataset,
    "rigidity-check": _run_rigidity_check,
}


def run(command: str, cfg: dict, out_dir, threads: int = 1) -> ExperimentReport:
    """Dispatch one subcommand on an already-parsed config; its wall time
    goes to ``timings["total"]``. It writes nothing: ``report.emit_report``
    writes a run's files, a synthesised dataset among them. ``out_dir`` and
    ``threads`` are unused and stay only because ``perfbench/workloads.py``
    passes both; ROADMAP item 2a removes them."""
    if command not in _HANDLERS:
        raise ConfigInvalid(f"unknown command {command!r}")
    t0 = time.perf_counter()
    rep = _HANDLERS[command](cfg)
    rep.timings["total"] = time.perf_counter() - t0
    return rep


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="calderon-lab",
        description="DN-map laboratory for cylinder metrics: identity checks, "
        "gauge comparisons, and coefficient-dataset studies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _HANDLERS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    try:
        cfg = load_json(args.config)
        out_dir = args.out or os.path.join("reports", args.command)
        check_out_dir(out_dir)  # before any computation; emit_report makes it
        report = run(args.command, cfg, out_dir)
        emit_report(report, out_dir)
    except ConfigInvalid as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except CalderonLabError as e:
        print(f"computation failed: {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    for v in report.verdicts:
        state = "pass" if v.passed else "FAIL"
        print(f"[{state}] {v.name}: {v.value:.6e} {v.comparison} {v.threshold:.6e}")
    print(f"report written to {out_dir}")
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
