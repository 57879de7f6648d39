"""Config-driven experiment runner.

    calderon-lab <subcommand> --config <path> [--out <dir>] [--threads N]

Subcommands: verify-identities, dn-compare, counterexample-study,
validate-dataset, synth-dataset, rigidity-check. Each reads a JSON config,
runs the corresponding library routines, writes a deterministic report
(JSON + CSV + markdown) and exits 0 when every configured verdict passes,
1 on computational failure, 2 on config errors. Every config object (the
root and each nested spec) goes through one reader, :func:`_read`, so an
unknown key, a missing required key or a value out of range is a config
error raised before any computation.
"""

from __future__ import annotations

import argparse
import json
import numbers
import os
import sys
import time
from types import SimpleNamespace

import numpy as np

from . import analytic as an
from .calculus import ScalarField
from .conformal import (
    ConformalFactor,
    algebraic_identity_check,
    conformal_potential,
    global_rigidity_check,
    scale_metric,
    scale_metric_2d,
    scaling_law_residual,
)
from .counterexample import (
    dn_gap_study,
    load_dataset,
    nonisometry_check,
    save_dataset,
    synth_approx_miller,
    validate_miller_properties,
)
from .dn_solver import assemble_stiffness, dn_mode_matrix, fourier_modes, mode_gap
from .errors import (
    CalderonLabError,
    ConfigInvalid,
    DimensionTooSmall,
    GridMismatch,
    InfeasibleBounds,
    NonOrientationPreserving,
    ShapeMismatch,
    TrivialU,
)
from .gauge import bump_reparam, bump_shear, cubic_reparam, identity_diffeo, pullback_metric
from .grid_geometry import (
    BOUNDARY_NAMES,
    CylinderGrid,
    cyl_grid,
    flat_metric,
    random_trig_metric,
    sample_metric,
)
from .report import ExperimentReport, emit_report

__all__ = ["main", "run"]


def _finite(text: str) -> float:
    """JSON number hook: NaN, Infinity and overflowing literals are config errors."""
    x = float(text)
    if not np.isfinite(x):
        raise ConfigInvalid(f"config holds the non-finite number {text}")
    return x


def _load_config(path) -> dict:
    try:
        with open(path) as f:
            cfg = json.load(f, parse_float=_finite, parse_constant=_finite)
    except OSError as e:
        raise ConfigInvalid(f"cannot read config file {path!r}: {e.strerror}") from e
    except json.JSONDecodeError as e:
        raise ConfigInvalid(f"config is not valid JSON: {e}") from e
    if not isinstance(cfg, dict):
        raise ConfigInvalid("config root must be a JSON object")
    return cfg


# -- the config reader and its converters ------------------------------------

_REQUIRED = object()


def _read(obj, where: str, **schema) -> SimpleNamespace:
    """The keys of the config object ``obj``, which messages call ``where``.
    ``schema`` maps every allowed key to ``(convert, default)``: a present
    value becomes ``convert(value)``, an absent one its default, unless that
    is ``_REQUIRED``. A non-object, an unknown or missing key and a value the
    converter rejects (TypeError, ValueError, OverflowError) are config
    errors."""
    if not isinstance(obj, dict):
        raise ConfigInvalid(f"{where} must be a JSON object, got {obj!r}")
    unknown = sorted(set(obj) - set(schema))
    if unknown:
        raise ConfigInvalid(f"{where} has unknown key(s) {unknown}; it takes {sorted(schema)}")
    vals = {}
    for key, (convert, default) in schema.items():
        if key not in obj:
            if default is _REQUIRED:
                raise ConfigInvalid(f"{where} lacks required key {key!r}")
            vals[key] = default
            continue
        try:
            vals[key] = convert(obj[key])
        except (TypeError, ValueError, OverflowError) as e:
            raise ConfigInvalid(f"{where} key {key!r} has invalid value {obj[key]!r}: {e}") from e
    return SimpleNamespace(**vals)


def _number(v):
    """A JSON number as given; strings and booleans are refused."""
    if isinstance(v, bool) or not isinstance(v, numbers.Real):
        raise TypeError(f"must be a number, not {type(v).__name__}")
    return v


def _float(v) -> float:
    return float(_number(v))


def _int(v) -> int:
    """Converter for every integer key: a number with a fractional part is
    refused, never truncated."""
    if _number(v) != int(v):
        raise ValueError("must be an integer")
    return int(v)


def _ranged(kind, lo, hi=np.inf):
    """Converter: ``kind(v)``, which must lie in ``[lo, hi)``."""
    def convert(v):
        x = kind(v)
        if not lo <= x < hi:
            raise ValueError(f"must be at least {lo}" if hi == np.inf else f"must lie in [{lo}, {hi})")
        return x
    return convert


def _list(item):
    """Converter: a non-empty list of ``item(x)``; an empty one would
    yield no evidence."""
    def convert(v):
        if not isinstance(v, (list, tuple)) or not v:
            raise ValueError("must be a non-empty list")
        return tuple(item(x) for x in v)
    return convert


def _choice(*options):
    def convert(v):
        if v not in options:
            raise ValueError(f"must be one of {options}")
        return v
    return convert


def _as_is(v):
    """Converter for a nested spec that its own reader checks later."""
    return v


def _text(v) -> str:
    if not isinstance(v, str):
        raise TypeError(f"must be a string, not {type(v).__name__}")
    return v


def _file(v) -> str:
    if not os.path.isfile(_text(v)):
        raise ValueError("is not a file")
    return v


def _file_name(v) -> str:
    if os.path.basename(_text(v)) != v or v in ("", ".", ".."):
        raise ValueError("must be a bare file name")
    return v


_OUT = (_text, None)  # the output directory key every root config may hold
_GAMMA = (_choice(*BOUNDARY_NAMES), "gamma1")
_KIND = (_text, _REQUIRED)
_SEED = (_ranged(_int, 0), 0)  # numpy rejects negative seeds


def _grid(build, *args) -> CylinderGrid:
    """``build(*args)`` for a grid builder or a coarsening; an invalid size,
    dimension or stride in the config is a config error."""
    try:
        return build(*args)
    except (ValueError, DimensionTooSmall, GridMismatch) as e:
        raise ConfigInvalid(f"invalid grid: {e}") from e


def _modes_fit(grid: CylinderGrid, cut: float) -> None:
    """A mode cut that aliases on ``grid`` is a config error."""
    try:
        fourier_modes(grid, cut)
    except ShapeMismatch as e:
        raise ConfigInvalid(f"cut {cut} is too high for grid {grid.shape}: {e}") from e


def _metric(spec):
    """A metric spec: ``None`` for the flat metric, else the random-trig keys."""
    if spec in ("flat", {"kind": "flat"}):
        return None
    return _read(spec, "metric", kind=(_choice("random-trig"), _REQUIRED), seed=_SEED,
                 amplitude=(_float, None), max_mode=(_ranged(_int, 0), 1))


def _factor(spec):
    """A conformal factor spec: ``None`` for c = 1, else the random factor keys."""
    if spec == "one":
        return None
    f = _read(spec, "factor", seed=_SEED, amplitude=(_float, 0.25), offset=(_float, 1.3),
              terms=(_ranged(_int, 0), 2), max_mode=(_ranged(_int, 0), 1))
    # the waves sum to at most |amplitude|, so this keeps the factor positive
    if f.offset <= abs(f.amplitude):
        raise ConfigInvalid(f"factor offset {f.offset} must exceed |amplitude| {abs(f.amplitude)}")
    return f


def _diffeo(spec, n: int):
    """The diffeomorphism a diffeo spec names, and whether it is the identity."""
    if spec == "identity":
        return identity_diffeo(n), True
    d = _read(spec, "diffeo", family=(_choice("bump", "cubic", "identity"), "bump"),
              amplitude=(_float, 0.08), delta=(_float, 0.1),
              shear=(lambda v: _read(v, "shear", axis=(_int, 1), amplitude=(_float, 0.1)), None))
    # folding maps, shear axes outside 1..n-1 and empty collars are config errors
    try:
        if d.family == "identity":
            phi = identity_diffeo(n, d.delta)
        else:
            phi = (bump_reparam if d.family == "bump" else cubic_reparam)(n, d.amplitude, d.delta)
        if d.shear is not None:
            phi = phi.compose(bump_shear(n, d.shear.axis, d.shear.amplitude, d.delta))
    except (ValueError, NonOrientationPreserving) as e:
        raise ConfigInvalid(f"invalid diffeo: {e}") from e
    return phi, d.family == "identity" and d.shear is None


def _order_fit(sizes, gaps):
    """Least-squares slope of log gap against log h, h = 1/(size-1)."""
    g = np.asarray(gaps, dtype=float)
    if (g <= 0).any():
        return float("inf")  # at roundoff floor; decrease is vacuous
    h = 1.0 / (np.asarray(sizes, dtype=float) - 1.0)
    A = np.column_stack([np.log(h), np.ones_like(h)])
    slope, _ = np.linalg.lstsq(A, np.log(g), rcond=None)[0]
    return float(slope)


# -- subcommand handlers -----------------------------------------------------


def _run_verify_identities(cfg: dict, threads: int, out_dir) -> ExperimentReport:
    # the fourth-power identity needs n >= 3
    s = _read(cfg, "verify-identities config", out=_OUT, n=(_ranged(_int, 3), 3), size=(_int, 9),
              tuples=(_ranged(_int, 1), 20), seed=_SEED, identity_tol=(_float, 1e-12),
              trivial_tol=(_float, 1e-10))
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
    rep.add_verdict("algebraic_identity_max", worst, s.identity_tol)

    g = sample_metric(random_trig_metric(n, seed=seed), grid)
    c1 = ConformalFactor.one(grid, n)
    f = ScalarField.from_source(grid, an.trig_sum(n, np.random.default_rng(seed), terms=2, amplitude=1.0))
    rep.add_verdict("scaling_law_trivial_factor", scaling_law_residual(g, c1, f), s.trivial_tol)
    return rep


def _run_dn_compare(cfg: dict, threads: int, out_dir) -> ExperimentReport:
    s = _read(cfg, "dn-compare config", out=_OUT, n=(_ranged(_int, 2), 3),
              sizes=(_list(_int), (9, 17, 33)), gamma_left=_GAMMA, gamma_right=_GAMMA,
              cut=(_float, 2.0), order_min=(_float, 1.5), identity_tol=(_float, 1e-10),
              metric=(_metric, None), transform=(_as_is, _REQUIRED))
    if s.gamma_left != s.gamma_right:
        raise ConfigInvalid("the two DN maps must be restricted to the same boundary part, "
                            f"got {s.gamma_left!r} vs {s.gamma_right!r}")
    n, m = s.n, s.metric
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
        f = _read(t, "transform", kind=_KIND, factor=(_factor, None)).factor
        identity = f is None
        c_src = an.constant(1.0, n) if identity else an.trig_sum(
            n, np.random.default_rng(f.seed), terms=f.terms, amplitude=f.amplitude,
            offset=f.offset, max_mode=f.max_mode)

        def pair(g):
            c = ConformalFactor.from_source(g.grid, c_src, n)
            return assemble_stiffness(g), assemble_stiffness(scale_metric_2d(g, c))
    elif kind == "conformal-link":
        if n < 3:
            raise ConfigInvalid("conformal-link requires n >= 3")
        link = _read(t, "transform", kind=_KIND, amplitude=(_float, 0.3),
                     collar=(_ranged(_float, 0.0, 0.5), 0.15), seed=_SEED)
        identity = False
        # c = 1 + amplitude * bump(t) * trig(angles) equals 1 with zero
        # normal derivative on collars at both ends, so the potential-link
        # comparison sees matching Dirichlet and Neumann traces
        prof = an.bump(link.collar, 1.0 - link.collar, n, 0)
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
        spec = _read(t, "transform", kind=_KIND, diffeo=(_as_is, {})).diffeo
        phi, identity = _diffeo(spec, n)
        src_t = pullback_metric(src, phi)

        def pair(g):
            return assemble_stiffness(g), assemble_stiffness(sample_metric(src_t, g.grid))
    else:
        raise ConfigInvalid(f"transform needs a kind among conformal-2d, conformal-link, "
                            f"diffeo, got {kind!r}")
    if not identity and len(set(s.sizes)) < 2:
        raise ConfigInvalid(f"fitting gap_order needs two distinct sizes, got {list(s.sizes)}")
    for grid in grids:
        _modes_fit(grid, s.cut)

    rep = ExperimentReport("dn-compare", cfg)
    gaps = []
    for grid in grids:
        sys_a, sys_b = pair(sample_metric(src, grid))
        B_a, _ = dn_mode_matrix(sys_a, s.gamma_left, s.cut)
        B_b, _ = dn_mode_matrix(sys_b, s.gamma_left, s.cut)
        gaps.append(mode_gap(B_a, B_b))
    rep.add_table("gaps", ("size", "gap"), list(zip(s.sizes, gaps)))
    rep.scalars["gaps"] = gaps
    if identity:
        rep.add_verdict("gap_at_floor", max(gaps), s.identity_tol)
    else:
        rep.add_verdict("gap_order", _order_fit(s.sizes, gaps), s.order_min, ">=")
    return rep


_SYNTH = dict(
    grid=(lambda v: _read(v, "synth grid", num_t=(_int, _REQUIRED), num_ang=(_list(_int), _REQUIRED)),
          _REQUIRED),
    T=(_float, None), amplitude=(_float, None), ridge=(_float, None), alpha=(_float, None),
    rho=(_float, None), modes=(lambda v: tuple((_int(x), _int(y)) for x, y in v), None),
)


def _synth(spec, check=None, where: str = "synth", **extra):
    """Read a synth block and run :func:`synth_approx_miller` with only the
    keys it sets, so the library defaults hold. ``extra`` is the schema of
    the keys the block's object holds besides the synth keys;
    ``check(grid)`` vets the grid first, and a box or ridge the synthesis
    rejects is a config error. Returns (dataset, build report, read keys)."""
    s = _read(spec, where, **_SYNTH, **extra)
    grid = _grid(CylinderGrid, 3, s.grid.num_t, s.grid.num_ang)
    if check is not None:
        check(grid)
    kwargs = {key: getattr(s, key) for key in _SYNTH if key != "grid" and getattr(s, key) is not None}
    try:
        return (*synth_approx_miller(grid, **kwargs), s)
    except InfeasibleBounds as e:
        raise ConfigInvalid(f"invalid synth block: {e}") from e


def _run_counterexample_study(cfg: dict, threads: int, out_dir) -> ExperimentReport:
    s = _read(cfg, "counterexample-study config", out=_OUT, dataset=(_file, None),
              synth=(_as_is, None), eps=(_list(_float), (0.0, 0.025, 0.05, 0.1)),
              strides=(_list(_ranged(_int, 1)), (4, 2, 1)), gamma=_GAMMA, cut=(_float, 2.0),
              zero_tol=(_float, 1e-10), r2_min=(_float, 0.9), nonisometry_eps=(_float, 0.05),
              nonisometry_tol=(_float, 1e-10))
    if (s.dataset is None) == (s.synth is None):
        raise ConfigInvalid("config needs either a 'dataset' path or a 'synth' block")

    def check(grid: CylinderGrid) -> None:
        # a stride must divide the dataset grid, and the modes fit the coarsest
        for stride in s.strides:
            _modes_fit(_grid(grid.coarsen, stride), s.cut)

    rep = ExperimentReport("counterexample-study", cfg)
    if s.synth is None:
        data = load_dataset(s.dataset, validate=False)
        check(data.grid)
        rep.scalars["dataset"] = s.dataset
    else:
        data, synth_rep, _ = _synth(s.synth, check)
        rep.scalars["synth"] = synth_rep

    res = dn_gap_study(data, s.eps, strides=s.strides, gamma=s.gamma, cut=s.cut, threads=threads)
    rep.add_table(
        "gap_study",
        ("eps", "stride", "gap", "harmonic_residual", "weak_residual"),
        [(c.eps, c.stride, c.gap, c.harmonic_residual, c.weak_residual) for c in res.cells],
    )
    rep.scalars["fit"] = res.fit
    zero_gaps = [c.gap for c in res.cells if c.eps == 0.0]
    if zero_gaps:
        rep.add_verdict("zero_eps_gap", max(zero_gaps), s.zero_tol)
    if not res.fit.get("trivial"):
        rep.add_verdict("fit_beta_eps_r", res.fit["beta_eps_r"], 0.0, ">=")
        rep.add_verdict("fit_beta_eps2", res.fit["beta_eps2"], 0.0, ">=")
        rep.add_verdict("fit_r2", res.fit["r2"], s.r2_min, ">=")
        try:
            iso = nonisometry_check(data, s.nonisometry_eps)
            rep.scalars["nonisometry"] = iso
            rep.add_verdict("nonisometry_p2_match", iso["rel_diff"], s.nonisometry_tol)
            rep.add_verdict("nonisometry_p2_positive", iso["p2"], 0.0, ">=")
        except TrivialU:
            rep.scalars["nonisometry"] = "trivial u, no obstruction derivable"
    return rep


def _run_validate_dataset(cfg: dict, threads: int, out_dir) -> ExperimentReport:
    s = _read(cfg, "validate-dataset config", out=_OUT, dataset=(_file, _REQUIRED))
    # a malformed container is a computation failure
    data = load_dataset(s.dataset, validate=False)
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


def _run_synth_dataset(cfg: dict, threads: int, out_dir) -> ExperimentReport:
    rep = ExperimentReport("synth-dataset", cfg)
    data, synth_rep, s = _synth(cfg, where="synth-dataset config", out=_OUT,
                                output=(_file_name, "dataset.json"))
    os.makedirs(out_dir, exist_ok=True)
    save_dataset(data, os.path.join(out_dir, s.output))
    rep.scalars["synth"] = synth_rep
    rep.scalars["output"] = s.output
    rep.add_verdict("residual_not_worse_than_baseline",
                    synth_rep["achieved_l2"] - synth_rep["baseline_l2"], 0.0)
    return rep


def _run_rigidity_check(cfg: dict, threads: int, out_dir) -> ExperimentReport:
    s = _read(cfg, "rigidity-check config", out=_OUT, n=(_ranged(_int, 2), 3), size=(_int, 9),
              seeds=(_list(_ranged(_int, 0)), tuple(range(5))), tolerance=(_float, 1e-10))
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
    rep.add_verdict("rigidity_max_deviation", worst, s.tolerance)
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
    goes to ``timings["total"]``."""
    if command not in _HANDLERS:
        raise ConfigInvalid(f"unknown command {command!r}")
    t0 = time.perf_counter()
    rep = _HANDLERS[command](cfg, threads, out_dir)
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
        p.add_argument("--threads", type=int, default=1)
    args = parser.parse_args(argv)

    made = []  # directories created here, deepest first
    try:
        cfg = _load_config(args.config)
        threads = max(1, args.threads)
        out_dir = args.out or cfg.get("out") or os.path.join("reports", args.command)
        # made before the run, so an unusable path is refused before any
        # computation
        try:
            path = os.path.abspath(out_dir)
            while not os.path.lexists(path):
                made.append(path)
                path = os.path.dirname(path)
            os.makedirs(out_dir, exist_ok=True)
        except (TypeError, OSError) as e:
            raise ConfigInvalid(f"cannot create output directory {out_dir!r}: {e}") from e
        report = run(args.command, cfg, out_dir, threads)
        emit_report(report, out_dir)
    except ConfigInvalid as e:
        # a refused run leaves no directory behind; rmdir spares a non-empty one
        for path in made:
            try:
                os.rmdir(path)
            except OSError:
                pass
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
